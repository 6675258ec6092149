//! The leakage ↔ temperature fixed point (§6.3), written once: a *sink
//! pass* (evaluator pass 1, the surrogate) and a *pinned pass* (evaluator
//! pass 2, the reactive controller). Both clamp every block and sink
//! temperature at [`MAX_JUNCTION_K`] and return a [`SolveReport`], which
//! no result depends on. The fleet's per-die loop stays separate: it
//! iterates a leakage-only temperature delta with an affine sink, where a
//! clamp or residual means nothing.

use sim_common::{Kelvin, Structure, StructureMap, Watts};
use sim_cpu::CoreConfig;
use sim_power::{PowerBreakdown, PowerModel};
use sim_thermal::ThermalModel;

/// The junction ceiling. Past thermal runaway (e.g. 5 GHz at 1.11 V on a
/// hot app) the fixed point has no physical solution; clamping keeps it
/// finite and such points report enormous (infeasible) FIT.
pub const MAX_JUNCTION_K: f64 = 500.0;

/// How one or more solves ended.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SolveReport {
    /// Largest change of any block or of the sink in the last iteration,
    /// in Kelvin (the worst over merged solves).
    pub residual_k: f64,
    /// Temperatures the ceiling clamped, over every iteration.
    pub clamped: u64,
    /// Iterations run.
    pub iterations: u64,
}

impl SolveReport {
    /// Folds `other` in: worst residual, summed counts.
    pub fn merge(&mut self, other: SolveReport) {
        self.residual_k = self.residual_k.max(other.residual_k);
        self.clamped += other.clamped;
        self.iterations += other.iterations;
    }

    /// `t` under the ceiling (a NaN clamps too), counted if clamped.
    fn clamp(&mut self, t: Kelvin) -> Kelvin {
        let clamped = t.min(Kelvin(MAX_JUNCTION_K));
        self.clamped += u64::from(clamped.0 != t.0);
        clamped
    }

    /// Stores the clamped `solved` map in `temps`; returns the largest
    /// change.
    fn update(&mut self, temps: &mut StructureMap<Kelvin>, solved: &StructureMap<Kelvin>) -> f64 {
        let mut change = 0.0f64;
        for s in Structure::ALL {
            let t = self.clamp(solved[s]);
            change = change.max((t.0 - temps[s].0).abs());
            temps[s] = t;
        }
        change
    }
}

/// The power and thermal models at one configuration, iterated a fixed
/// number of times.
pub(crate) struct Solver<'a> {
    pub(crate) power: &'a PowerModel,
    pub(crate) thermal: &'a ThermalModel,
    pub(crate) config: &'a CoreConfig,
    pub(crate) iterations: u32,
}

impl Solver<'_> {
    /// `iterations` rounds of `temps = clamp(solve(power(temps), sink))`
    /// from the caller's guess; returns the final temperatures' power.
    pub(crate) fn pinned(
        &self,
        activity: &StructureMap<f64>,
        sink: Kelvin,
        temps: &mut StructureMap<Kelvin>,
    ) -> (PowerBreakdown, SolveReport) {
        let mut report = SolveReport::default();
        let mut breakdown = self.power.power(self.config, activity, temps);
        for _ in 0..self.iterations {
            let solved = self
                .thermal
                .steady_state_with_sink(&breakdown.per_structure(), sink);
            report.residual_k = report.update(temps, &solved);
            breakdown = self.power.power(self.config, activity, temps);
        }
        report.iterations = u64::from(self.iterations);
        (breakdown, report)
    }

    /// One point per `temps` entry, in `activities` order. Each round
    /// computes every point's power once, sets the sink from `rule(powers)`
    /// (clamped), then `temps_i = clamp(solve(powers_i, sink))`. Starts
    /// from the ambient sink; returns the final one.
    pub(crate) fn sink_pass<'s>(
        &self,
        activities: impl Iterator<Item = &'s StructureMap<f64>> + Clone,
        temps: &mut [StructureMap<Kelvin>],
        rule: impl Fn(&[PowerBreakdown]) -> Watts,
    ) -> (Kelvin, SolveReport) {
        let mut report = SolveReport::default();
        let mut sink = self.thermal.params().ambient;
        let mut powers = Vec::with_capacity(temps.len());
        for _ in 0..self.iterations {
            powers.clear();
            let points = activities.clone().zip(temps.iter());
            powers.extend(points.map(|(a, t)| self.power.power(self.config, a, t)));
            let next = report.clamp(self.thermal.steady_sink_temperature(rule(&powers)));
            report.residual_k = (next.0 - sink.0).abs();
            sink = next;
            for (breakdown, t) in powers.iter().zip(temps.iter_mut()) {
                let solved = self
                    .thermal
                    .steady_state_with_sink(&breakdown.per_structure(), sink);
                report.residual_k = report.residual_k.max(report.update(t, &solved));
            }
        }
        report.iterations = u64::from(self.iterations);
        (sink, report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_common::{Floorplan, Hertz, Volts};
    use sim_thermal::ThermalParams;

    fn activity() -> StructureMap<f64> {
        StructureMap::from_fn(|s| 0.2 + 0.05 * s.index() as f64)
    }

    fn solver<'a>(
        power: &'a PowerModel,
        thermal: &'a ThermalModel,
        config: &'a CoreConfig,
    ) -> Solver<'a> {
        Solver {
            power,
            thermal,
            config,
            iterations: 3,
        }
    }

    /// The pinned pass is exactly the hand-unrolled loop.
    #[test]
    fn pinned_pass_matches_the_unrolled_loop() {
        let (power, thermal) = (PowerModel::ibm_65nm(), ThermalModel::hotspot_65nm());
        let config = CoreConfig::base();
        let a = activity();
        let sink = Kelvin(330.0);
        let mut temps = StructureMap::splat(Kelvin(345.0));
        let (breakdown, report) = solver(&power, &thermal, &config).pinned(&a, sink, &mut temps);

        let mut want = StructureMap::splat(Kelvin(345.0));
        let mut b = power.power(&config, &a, &want);
        let mut residual = 0.0;
        for _ in 0..3 {
            let next = thermal
                .steady_state_with_sink(&b.per_structure(), sink)
                .map(|_, t| Kelvin(t.0.min(MAX_JUNCTION_K)));
            residual = Structure::ALL
                .into_iter()
                .map(|s| (next[s].0 - want[s].0).abs())
                .fold(0.0, f64::max);
            want = next;
            b = power.power(&config, &a, &want);
        }
        assert_eq!(temps, want);
        assert_eq!(breakdown, b);
        assert_eq!(report.residual_k.to_bits(), residual.to_bits());
        assert_eq!((report.clamped, report.iterations), (0, 3));
        assert!(report.residual_k > 0.0);
    }

    /// A sink pass over one point whose rule is the point's own total is
    /// the surrogate's loop: each round fixes the sink from this round's
    /// power, then re-solves the blocks under it.
    #[test]
    fn one_point_sink_pass_matches_the_unrolled_loop() {
        let (power, thermal) = (PowerModel::ibm_65nm(), ThermalModel::hotspot_65nm());
        let config = CoreConfig::base();
        let a = activity();
        let mut temps = [StructureMap::splat(Kelvin(345.0))];
        let (sink, report) =
            solver(&power, &thermal, &config)
                .sink_pass(std::iter::once(&a), &mut temps, |p| p[0].total());

        let mut want = StructureMap::splat(Kelvin(345.0));
        let mut want_sink = Kelvin(0.0);
        for _ in 0..3 {
            let b = power.power(&config, &a, &want);
            want_sink = thermal
                .steady_sink_temperature(b.total())
                .min(Kelvin(MAX_JUNCTION_K));
            want = thermal
                .steady_state_with_sink(&b.per_structure(), want_sink)
                .map(|_, t| Kelvin(t.0.min(MAX_JUNCTION_K)));
        }
        assert_eq!(temps[0], want);
        assert_eq!(sink, want_sink);
        assert_eq!((report.clamped, report.iterations), (0, 3));
    }

    /// A sink that cannot shed the heat drives every block and the sink
    /// into the ceiling; the report counts each clamped value.
    #[test]
    fn runaway_reports_every_clamped_value() {
        let power = PowerModel::ibm_65nm();
        let thermal = ThermalModel::new(
            ThermalParams {
                r_sink_ambient: 20.0,
                ..ThermalParams::hotspot_65nm()
            },
            Floorplan::r10000_65nm(),
        )
        .expect("thermal model");
        let config = CoreConfig::base().with_dvs(Hertz::from_ghz(5.0), Volts(1.11));
        let a = activity();
        let mut temps = [StructureMap::splat(Kelvin(345.0))];
        let (sink, report) =
            solver(&power, &thermal, &config)
                .sink_pass(std::iter::once(&a), &mut temps, |p| p[0].total());
        assert_eq!(sink, Kelvin(MAX_JUNCTION_K));
        assert!(temps[0].iter().all(|(_, t)| *t == Kelvin(MAX_JUNCTION_K)));
        // Every round clamps the sink and all nine blocks.
        assert_eq!(report.clamped, 3 * (1 + Structure::ALL.len() as u64));
        // Pinned at the ceiling, the last round moves nothing.
        assert_eq!(report.residual_k, 0.0);

        let mut pinned = temps[0];
        let (_, report) = solver(&power, &thermal, &config).pinned(&a, sink, &mut pinned);
        assert!(report.clamped > 0);
    }

    #[test]
    fn merge_keeps_the_worst_residual_and_sums_counts() {
        let mut a = SolveReport {
            residual_k: 0.5,
            clamped: 1,
            iterations: 3,
        };
        a.merge(SolveReport {
            residual_k: 0.25,
            clamped: 2,
            iterations: 3,
        });
        assert_eq!(
            a,
            SolveReport {
                residual_k: 0.5,
                clamped: 3,
                iterations: 6
            }
        );
    }
}
