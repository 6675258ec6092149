//! Fleet-scale population Monte Carlo: per-die process variation over
//! 10⁵–10⁷ virtual dies.
//!
//! The paper models *one* processor at nominal process parameters; its
//! "millions of users" framing is really a statement about populations —
//! a FIT budget is a claim about the fraction of shipped dies that fail
//! in service. This module samples that population: each virtual die
//! draws per-die process parameters (leakage density, leakage β,
//! activation energies, interconnect geometry) from the in-tree xoshiro
//! RNG with per-die substream seeds, and is pushed through the *cheap*
//! tail of the pipeline only. The expensive cycle-level timing stage runs
//! once per operating point (served by the shared
//! [`TimingCache`](crate::batch::TimingCache)); variation re-runs
//! nothing but closed-form power/thermal/FIT arithmetic:
//!
//! 1. **Baseline anchor** — the nominal evaluation's exact
//!    [`ApplicationFit`](ramp::ApplicationFit) gives per-(structure,
//!    mechanism) FITs and run-average temperatures `T̄(s)`.
//! 2. **Per-die temperature** — the die's leakage multiplier (lognormal
//!    density × its own β at `T̄`) perturbs the per-structure power
//!    vector; because the pinned-sink steady state is *affine* in power,
//!    the temperature delta from two fixed-point iterations of the
//!    prefactored solve is exact for that leakage delta. Dies run in
//!    lockstep lanes of 8 consecutive indices: each iteration builds
//!    every lane's load and sink, then one multi-right-hand-side
//!    substitution solves all 8 (each lane bit-identical to a die
//!    sampled alone).
//! 3. **Per-die FIT** — each mechanism's FIT is the baseline value times
//!    the analytic rate ratio at run-average conditions (all die-
//!    invariant factors — current density, powered fraction, the
//!    calibration constant — cancel in the ratio), evaluated in log
//!    space so one `exp` yields the FIT factor and one more the `β`-th
//!    power needed for lifetime sampling.
//! 4. **Per-die lifetime** — the series system of common-shape Weibull
//!    components has a closed form: the minimum is again Weibull with
//!    `η_series^{-β} = Σ η_c^{-β} ∝ Σ FIT_c^β`, so one exponential draw
//!    and one `powf` sample the die's end of life exactly.
//!
//! Aggregation is constant-memory: per-batch
//! [`QuantileSketch`](sim_common::QuantileSketch)es (deterministic
//! compactors) are folded in batch order, so the result is bit-identical
//! at any worker count — dies carry their own RNG substreams and batch
//! boundaries are fixed, only the *schedule* varies with workers.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use ramp::{Mttf, ReliabilityModel, Weibull};
use sim_common::units::BOLTZMANN_EV;
use sim_common::{splitmix64, Kelvin, QuantileSketch, SimError, Structure, StructureMap, Watts};
use workload::App;

use crate::batch::BatchEngine;
use crate::dvs::DvsPoint;
use crate::evaluator::{Evaluation, Evaluator};
use crate::space::ArchPoint;

/// Dies per work batch. Fixed (never derived from the worker count) so
/// partial aggregates fold in the same order at any parallelism.
pub const DIE_BATCH: u64 = 4096;

/// Dies sampled in lockstep: each fixed-point pass solves the pinned-sink
/// system for this many dies in one substitution. A constant, not a
/// knob: every lane runs the arithmetic of a lone die, so the width
/// changes only speed.
const LANES: usize = 8;

/// Iterations of the per-die leakage/temperature fixed point. The
/// response is a small perturbation of an already-converged operating
/// point, so two passes capture the leakage-heats-itself feedback.
const FIXED_POINT_ITERS: u32 = 2;

/// Die-to-die process variation magnitudes.
///
/// These are *modeling assumptions*, not paper-calibrated constants: the
/// ISCA-04 paper models a single nominal die. Magnitudes follow the
/// variation literature for ~65 nm (die-to-die leakage spreads of a few
/// ×, linewidth/geometry control of a few percent — see EXPERIMENTS.md
/// for provenance). All σ = 0 reproduces the nominal die exactly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VariationParams {
    /// σ of the lognormal per-die leakage-density multiplier
    /// (`exp(σ·z)`, so 0.25 ≈ ±25% per-die leakage at 1σ).
    pub sigma_leakage: f64,
    /// Absolute σ of the exponential leakage-temperature coefficient β,
    /// in 1/K (nominal 0.017).
    pub sigma_beta: f64,
    /// σ of the per-die activation-energy shift for EM and SM, in eV
    /// (drawn independently per mechanism).
    pub sigma_ea: f64,
    /// σ of the lognormal interconnect-geometry rate factor applied to
    /// the wear mechanisms of the metal stack (EM and SM).
    pub sigma_geometry: f64,
}

impl Default for VariationParams {
    fn default() -> Self {
        VariationParams {
            sigma_leakage: 0.25,
            sigma_beta: 0.001,
            sigma_ea: 0.015,
            sigma_geometry: 0.05,
        }
    }
}

impl VariationParams {
    /// No variation at all: every die is the nominal die.
    #[must_use]
    pub fn none() -> VariationParams {
        VariationParams {
            sigma_leakage: 0.0,
            sigma_beta: 0.0,
            sigma_ea: 0.0,
            sigma_geometry: 0.0,
        }
    }

    /// Validates the magnitudes.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] for negative, non-finite, or
    /// absurdly large σ (lognormal σ > 2 spans more than ×50 at 2σ —
    /// outside any plausible process).
    pub fn validate(&self) -> Result<(), SimError> {
        for (label, v) in [
            ("fleet.sigma_leakage", self.sigma_leakage),
            ("fleet.sigma_beta", self.sigma_beta),
            ("fleet.sigma_ea", self.sigma_ea),
            ("fleet.sigma_geometry", self.sigma_geometry),
        ] {
            if !(v.is_finite() && (0.0..=2.0).contains(&v)) {
                return Err(SimError::invalid_config(format!(
                    "{label} must be in [0, 2], got {v}"
                )));
            }
        }
        Ok(())
    }
}

/// Configuration of one fleet run: population size, RNG seed, wear-out
/// shape, and the variation magnitudes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetConfig {
    /// Virtual dies to sample.
    pub dies: u64,
    /// Fleet RNG seed (each die derives its own substream from it).
    pub seed: u64,
    /// Weibull wear-out shape β shared by every failure mechanism.
    pub shape: f64,
    /// Die-to-die variation magnitudes.
    pub variation: VariationParams,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            dies: 100_000,
            seed: 2004,
            shape: 2.0,
            variation: VariationParams::default(),
        }
    }
}

impl FleetConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] for a zero or absurd die
    /// count, a shape outside [`Weibull::SHAPE_RANGE`], or invalid
    /// variation magnitudes.
    pub fn validate(&self) -> Result<(), SimError> {
        if self.dies == 0 {
            return Err(SimError::invalid_config("fleet.dies must be positive"));
        }
        if self.dies > 100_000_000 {
            return Err(SimError::invalid_config(
                "fleet.dies beyond 1e8 (the streaming layer is sized for 1e5–1e7)",
            ));
        }
        let (lo, hi) = Weibull::SHAPE_RANGE;
        if !(self.shape >= lo && self.shape <= hi) {
            return Err(SimError::invalid_config(
                "fleet.shape must lie in [0.5, 10] (validated Weibull range)",
            ));
        }
        self.variation.validate()
    }
}

/// Population statistics of one per-die quantity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetStats {
    /// Population mean.
    pub mean: f64,
    /// Exact population minimum.
    pub min: f64,
    /// Exact population maximum.
    pub max: f64,
    /// 1st percentile (from the streaming sketch).
    pub p1: f64,
    /// 5th percentile.
    pub p5: f64,
    /// Median.
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
}

impl FleetStats {
    fn from_sketch(sketch: &QuantileSketch, sum: f64) -> FleetStats {
        FleetStats {
            mean: sum / sketch.count() as f64,
            min: sketch.min(),
            max: sketch.max(),
            p1: sketch.quantile(0.01),
            p5: sketch.quantile(0.05),
            p50: sketch.quantile(0.5),
            p95: sketch.quantile(0.95),
        }
    }
}

/// Result of one fleet run.
///
/// Equality ignores the diagnostic fields (`workers`, `wall`,
/// `timing_runs`) so a seeded run compares equal at any worker count —
/// the fleet analogue of `EvalStats`' always-equal comparison.
#[derive(Debug, Clone)]
pub struct FleetSummary {
    /// Dies sampled.
    pub dies: u64,
    /// Dies whose total FIT exceeds the qualified budget.
    pub violations: u64,
    /// The FIT budget the violation count is measured against.
    pub target_fit: f64,
    /// Per-die total-FIT statistics.
    pub fit: FleetStats,
    /// Per-die sampled lifetime statistics, in years.
    pub lifetime_years: FleetStats,
    /// Documented worst-case rank error of the sketch percentiles, as a
    /// fraction of the population.
    pub rank_error: f64,
    /// Cycle-level timing simulations behind the baseline (cumulative on
    /// the engine's timing cache — the `≪ dies` amortization claim).
    pub timing_runs: u64,
    /// Worker threads used (diagnostic).
    pub workers: usize,
    /// Wall time of the die loop (diagnostic).
    pub wall: Duration,
}

impl PartialEq for FleetSummary {
    fn eq(&self, other: &FleetSummary) -> bool {
        self.dies == other.dies
            && self.violations == other.violations
            && self.target_fit == other.target_fit
            && self.fit == other.fit
            && self.lifetime_years == other.lifetime_years
            && self.rank_error == other.rank_error
    }
}

impl FleetSummary {
    /// Fraction of the fleet over the FIT budget.
    #[must_use]
    pub fn violation_fraction(&self) -> f64 {
        self.violations as f64 / self.dies as f64
    }

    /// Die throughput of the run.
    #[must_use]
    pub fn dies_per_second(&self) -> f64 {
        if self.wall.is_zero() {
            0.0
        } else {
            self.dies as f64 / self.wall.as_secs_f64()
        }
    }
}

impl std::fmt::Display for FleetSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "fleet: {} dies | {:.2}% over {:.0} FIT | FIT p50 {:.0} p95 {:.0} | life p1 {:.1}y p5 {:.1}y p50 {:.1}y p95 {:.1}y | {:.0}k dies/s",
            self.dies,
            100.0 * self.violation_fraction(),
            self.target_fit,
            self.fit.p50,
            self.fit.p95,
            self.lifetime_years.p1,
            self.lifetime_years.p5,
            self.lifetime_years.p50,
            self.lifetime_years.p95,
            self.dies_per_second() / 1e3,
        )
    }
}

/// One die's sampled outcome.
struct DieOutcome {
    total_fit: f64,
    lifetime_hours: f64,
}

/// One die's process-variation draws (from its own RNG substream).
struct DieDraws {
    /// Lognormal leakage-density multiplier.
    lambda: f64,
    /// The die's leakage β, clamped at zero.
    beta_die: f64,
    /// `beta_die` minus the nominal β.
    d_beta: f64,
    /// EM and SM activation-energy offsets (eV).
    d_ea_em: f64,
    d_ea_sm: f64,
    /// Log of the interconnect-geometry rate factor.
    ln_g: f64,
    /// Unit-exponential draw of the series lifetime.
    wear_draw: f64,
}

/// Per-structure baseline terms precomputed once per fleet run.
struct StructBase {
    /// Run-average temperature `T̄` (K).
    tbar: f64,
    /// `1 / (k·T̄)` for the Arrhenius ratio terms.
    inv_kt0: f64,
    /// `T̄ − leakage_ref` for the die leakage multiplier.
    t_minus_ref: f64,
    /// Baseline leakage at `T̄` (W).
    leak0: f64,
    /// `ln|sm_t0 − T̄|` (None when the baseline SM stress is degenerate).
    ln_stress0: Option<f64>,
    /// Baseline TDDB log rate `(a − b·T̄)·ln V − field(T̄)/(k·T̄)`.
    tddb0: f64,
    /// `ln(T̄ − tc_ambient)` (None when `T̄` is at or below ambient).
    ln_delta0: Option<f64>,
    /// Baseline per-mechanism FITs (the exact `ApplicationFit` values).
    fit0_em: f64,
    fit0_sm: f64,
    fit0_tddb: f64,
    fit0_tc: f64,
    /// `fit0^β` per mechanism, for the closed-form series lifetime.
    pow_em: f64,
    pow_sm: f64,
    pow_tddb: f64,
    pow_tc: f64,
}

/// Everything the per-die fast path needs, precomputed from the nominal
/// evaluation so the die loop runs no timing, no tracker, and no model
/// qualification — only closed-form ratios and two small linear solves.
struct FleetBaseline<'a> {
    thermal: &'a sim_thermal::ThermalModel,
    structs: Vec<StructBase>,
    /// Pinned-sink solve of the nominal leakage vector at `T̄` (the base
    /// point of the affine thermal delta) — subtracted from each die's
    /// solve to get its exact temperature delta.
    t_ref: StructureMap<Kelvin>,
    sink0: Kelvin,
    r_sink: f64,
    leakage_beta: f64,
    ln_vdd: f64,
    shape: f64,
    inv_shape: f64,
    /// `1/Γ(1 + 1/β)`: scale of a unit-mean Weibull with shape β.
    unit_scale: f64,
    seed: u64,
    variation: VariationParams,
    /// Failure-mechanism parameters (shared with the baseline FITs).
    em_ea: f64,
    sm_ea: f64,
    sm_n: f64,
    sm_t0: f64,
    tddb_a: f64,
    tddb_b: f64,
    tddb_x: f64,
    tddb_y: f64,
    tddb_z: f64,
    tc_q: f64,
    tc_ambient: f64,
}

/// TDDB log rate at temperature `t` (die-invariant factors dropped).
fn tddb_log_rate(a: f64, b: f64, x: f64, y: f64, z: f64, t: f64, ln_v: f64) -> f64 {
    (a - b * t) * ln_v - (x + y / t + z * t) / (BOLTZMANN_EV * t)
}

/// One standard-normal pair (Box–Muller; consumes two uniforms).
fn gaussian_pair(rng: &mut sim_common::Xoshiro256pp) -> (f64, f64) {
    // 1 − u ∈ (0, 1] keeps the log finite (same full-interval convention
    // as Weibull::sample).
    let u1 = 1.0 - rng.next_f64();
    let u2 = rng.next_f64();
    let r = (-2.0 * u1.ln()).sqrt();
    let (sin, cos) = (std::f64::consts::TAU * u2).sin_cos();
    (r * cos, r * sin)
}

impl<'a> FleetBaseline<'a> {
    fn new(
        evaluator: &'a Evaluator,
        ev: &Evaluation,
        model: &ReliabilityModel,
        config: &FleetConfig,
    ) -> Result<FleetBaseline<'a>, SimError> {
        let app = ev.application_fit(model);
        if app.total().value() <= 0.0 {
            return Err(SimError::invalid_config(
                "fleet needs a baseline with nonzero FIT",
            ));
        }
        let p = model.params();
        let tbar = StructureMap::from_fn(|s| app.average_temperature(s));
        let base_leak = evaluator.power_model().leakage_power(&ev.config, &tbar);
        let sink0 = ev.sink_temperature;
        let t_ref = evaluator
            .thermal_model()
            .steady_state_with_sink(&base_leak, sink0);
        let ln_vdd = ev.config.vdd.0.ln();
        let shape = config.shape;
        // Γ(1+1/β) via the validated Weibull constructor: a unit-mean
        // Weibull has scale 1/Γ(1+1/β) (also validates the shape range).
        let unit_scale = Weibull::from_mttf(Mttf(1.0), shape)?.scale;

        let leakage_ref = evaluator.power_model().params().leakage_ref.0;
        let structs = Structure::ALL
            .into_iter()
            .map(|s| {
                use ramp::Mechanism::*;
                let t0 = tbar[s].0;
                let stress0 = (p.sm_t0.0 - t0).abs();
                let delta0 = t0 - p.tc_ambient.0;
                let fit0 = |m| app.fit(s, m).value();
                let (em, sm, td, tc) = (
                    fit0(Electromigration),
                    fit0(StressMigration),
                    fit0(Tddb),
                    fit0(ThermalCycling),
                );
                StructBase {
                    tbar: t0,
                    inv_kt0: 1.0 / (BOLTZMANN_EV * t0),
                    t_minus_ref: t0 - leakage_ref,
                    leak0: base_leak[s].0,
                    ln_stress0: (stress0 > 0.0).then(|| stress0.ln()),
                    tddb0: tddb_log_rate(
                        p.tddb_a, p.tddb_b, p.tddb_x, p.tddb_y, p.tddb_z, t0, ln_vdd,
                    ),
                    ln_delta0: (delta0 > 0.0).then(|| delta0.ln()),
                    fit0_em: em,
                    fit0_sm: sm,
                    fit0_tddb: td,
                    fit0_tc: tc,
                    pow_em: em.powf(shape),
                    pow_sm: sm.powf(shape),
                    pow_tddb: td.powf(shape),
                    pow_tc: tc.powf(shape),
                }
            })
            .collect();

        Ok(FleetBaseline {
            thermal: evaluator.thermal_model(),
            structs,
            t_ref,
            sink0,
            r_sink: evaluator.thermal_model().params().r_sink_ambient,
            leakage_beta: evaluator.power_model().params().leakage_beta,
            ln_vdd,
            shape,
            inv_shape: 1.0 / shape,
            unit_scale,
            seed: config.seed,
            variation: config.variation,
            em_ea: p.em_ea,
            sm_ea: p.sm_ea,
            sm_n: p.sm_n,
            sm_t0: p.sm_t0.0,
            tddb_a: p.tddb_a,
            tddb_b: p.tddb_b,
            tddb_x: p.tddb_x,
            tddb_y: p.tddb_y,
            tddb_z: p.tddb_z,
            tc_q: p.tc_q,
            tc_ambient: p.tc_ambient.0,
        })
    }

    /// Draws die `index`'s variation from its own RNG substream
    /// (scheduling-independent).
    fn draws(&self, index: u64) -> DieDraws {
        let mut rng = sim_common::Xoshiro256pp::seed_from_u64(
            splitmix64(self.seed) ^ splitmix64(index.wrapping_add(1)),
        );
        let v = &self.variation;
        let (z1, z2) = gaussian_pair(&mut rng);
        let (z3, z4) = gaussian_pair(&mut rng);
        let (z5, _) = gaussian_pair(&mut rng);
        let wear_draw = -(1.0 - rng.next_f64()).ln();
        let beta_die = (self.leakage_beta + v.sigma_beta * z2).max(0.0);
        DieDraws {
            lambda: (v.sigma_leakage * z1).exp(),
            beta_die,
            d_beta: beta_die - self.leakage_beta,
            d_ea_em: v.sigma_ea * z3,
            d_ea_sm: v.sigma_ea * z4,
            ln_g: v.sigma_geometry * z5,
            wear_draw,
        }
    }

    /// Samples dies `first .. first + L` in lockstep: lane `l` is die
    /// `first + l`, bit-identical to `dies::<1>(first + l)` because every
    /// lane runs a lone die's arithmetic in a lone die's order.
    fn dies<const L: usize>(&self, first: u64) -> [DieOutcome; L] {
        let draws: [DieDraws; L] = std::array::from_fn(|l| self.draws(first + l as u64));

        // Per-die temperature delta: the die's leakage (its own density
        // multiplier and β, at the perturbed temperature) feeds the
        // prefactored pinned-sink solve; the solve is affine in power and
        // sink, so subtracting the baseline solve gives the exact linear
        // response. Two passes close the leakage-heats-itself loop; each
        // pass solves every lane in one substitution.
        // Not `crate::solve`: a clamp or residual of this delta means nothing.
        let mut dt: StructureMap<[f64; L]> = StructureMap::splat([0.0; L]);
        for _ in 0..FIXED_POINT_ITERS {
            let mut load = StructureMap::splat([Watts(0.0); L]);
            let mut sinks = [Kelvin(0.0); L];
            for (l, d) in draws.iter().enumerate() {
                let mut delta_total = 0.0;
                for (i, s) in Structure::ALL.into_iter().enumerate() {
                    let b = &self.structs[i];
                    let mult = d.lambda * (d.d_beta * b.t_minus_ref + d.beta_die * dt[s][l]).exp();
                    let delta = (mult - 1.0) * b.leak0;
                    delta_total += delta;
                    load[s][l] = Watts(b.leak0 + delta);
                }
                sinks[l] = Kelvin(self.sink0.0 + self.r_sink * delta_total);
            }
            let solved = self.thermal.steady_states_with_sink(&load, sinks);
            dt = StructureMap::from_fn(|s| solved[s].map(|t| t.0 - self.t_ref[s].0));
        }
        std::array::from_fn(|l| self.outcome(&draws[l], |s| dt[s][l]))
    }

    /// The FIT and lifetime of one die from its draws and its temperature
    /// delta `dt(s)` per structure.
    fn outcome(&self, d: &DieDraws, dt: impl Fn(Structure) -> f64) -> DieOutcome {
        // Per-mechanism FIT ratios at run-average conditions, in log
        // space: `lr` is ln(rate_die/rate_nominal), so exp(lr) scales the
        // FIT and exp(β·lr) scales FIT^β for the series lifetime.
        let mut total_fit = 0.0;
        let mut eta_sum = 0.0;
        let mut add = |fit0: f64, pow0: f64, lr: f64| {
            total_fit += fit0 * lr.exp();
            eta_sum += pow0 * (self.shape * lr).exp();
        };
        for (i, s) in Structure::ALL.into_iter().enumerate() {
            let b = &self.structs[i];
            let t_die = b.tbar + dt(s);
            let inv_kt = 1.0 / (BOLTZMANN_EV * t_die);
            if b.fit0_em > 0.0 {
                let lr = d.ln_g + self.em_ea * b.inv_kt0 - (self.em_ea + d.d_ea_em) * inv_kt;
                add(b.fit0_em, b.pow_em, lr);
            }
            if b.fit0_sm > 0.0 {
                if let Some(ls0) = b.ln_stress0 {
                    let stress = (self.sm_t0 - t_die).abs();
                    // stress → 0 drives ln → −∞ and the contribution
                    // cleanly to zero through exp.
                    let lr = d.ln_g + self.sm_n * (stress.ln() - ls0) + self.sm_ea * b.inv_kt0
                        - (self.sm_ea + d.d_ea_sm) * inv_kt;
                    add(b.fit0_sm, b.pow_sm, lr);
                } else {
                    // Degenerate baseline stress: no ratio to scale by.
                    add(b.fit0_sm, b.pow_sm, 0.0);
                }
            }
            if b.fit0_tddb > 0.0 {
                let lr = tddb_log_rate(
                    self.tddb_a,
                    self.tddb_b,
                    self.tddb_x,
                    self.tddb_y,
                    self.tddb_z,
                    t_die,
                    self.ln_vdd,
                ) - b.tddb0;
                add(b.fit0_tddb, b.pow_tddb, lr);
            }
            if b.fit0_tc > 0.0 {
                match b.ln_delta0 {
                    Some(ld0) => {
                        let delta = t_die - self.tc_ambient;
                        if delta > 0.0 {
                            add(b.fit0_tc, b.pow_tc, self.tc_q * (delta.ln() - ld0));
                        }
                        // At or below ambient: zero cycling stress.
                    }
                    None => add(b.fit0_tc, b.pow_tc, 0.0),
                }
            }
        }

        // Closed-form series-Weibull draw: min of common-shape Weibulls
        // is Weibull with η_series = (Σ FIT_c^β)^{-1/β} · 10⁹/Γ(1+1/β).
        let lifetime_hours = if eta_sum > 0.0 {
            1e9 * self.unit_scale * (d.wear_draw / eta_sum).powf(self.inv_shape)
        } else {
            f64::INFINITY
        };
        DieOutcome {
            total_fit,
            lifetime_hours,
        }
    }
}

/// Streaming aggregate of one die batch (and, folded, of the fleet).
///
/// Partials fold associatively with [`FleetPartial::merge`]; folding
/// every batch of a run *in batch-index order* reproduces the
/// [`run_fleet`] aggregate bit-identically at any worker count.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetPartial {
    fit: QuantileSketch,
    life_years: QuantileSketch,
    fit_sum: f64,
    life_sum: f64,
    violations: u64,
}

impl Default for FleetPartial {
    fn default() -> Self {
        FleetPartial::new()
    }
}

impl FleetPartial {
    /// An empty aggregate (the fold identity).
    #[must_use]
    pub fn new() -> FleetPartial {
        FleetPartial {
            fit: QuantileSketch::new(),
            life_years: QuantileSketch::new(),
            fit_sum: 0.0,
            life_sum: 0.0,
            violations: 0,
        }
    }

    /// Dies aggregated so far.
    #[must_use]
    pub fn dies(&self) -> u64 {
        self.fit.count()
    }

    fn record(&mut self, outcome: &DieOutcome, target_fit: f64) {
        let years = outcome.lifetime_hours / ramp::fit::HOURS_PER_YEAR;
        self.fit.insert(outcome.total_fit);
        self.life_years.insert(years);
        self.fit_sum += outcome.total_fit;
        self.life_sum += years;
        if outcome.total_fit > target_fit {
            self.violations += 1;
        }
        sim_obs::hist!("fleet.lifetime_years", years);
    }

    /// Folds `other` into this aggregate. Associative and deterministic;
    /// fold in batch-index order to match [`run_fleet`].
    pub fn merge(&mut self, other: &FleetPartial) {
        self.fit.merge(&other.fit);
        self.life_years.merge(&other.life_years);
        self.fit_sum += other.fit_sum;
        self.life_sum += other.life_sum;
        self.violations += other.violations;
    }
}

/// Aggregates batch `batch` of a `dies`-die run: dies
/// `batch·DIE_BATCH .. min((batch+1)·DIE_BATCH, dies)`.
fn batch_partial(baseline: &FleetBaseline, target_fit: f64, dies: u64, batch: u64) -> FleetPartial {
    let lo = batch * DIE_BATCH;
    let hi = (lo + DIE_BATCH).min(dies);
    let mut part = FleetPartial::new();
    // Lane groups of `LANES` dies; the last group of a run whose count is
    // not a multiple pads with the next die indices (sampling is a pure
    // function of the index) and records only its live lanes.
    for first in (lo..hi).step_by(LANES) {
        let live = (hi - first).min(LANES as u64) as usize;
        for outcome in &baseline.dies::<LANES>(first)[..live] {
            part.record(outcome, target_fit);
        }
    }
    // The lane solves count no `thermal.solves`; count the live dies'.
    let solves = u64::from(FIXED_POINT_ITERS) * (hi - lo);
    sim_obs::counter!("thermal.solves", solves);
    sim_obs::counter!("thermal.factor_reuse", solves);
    part
}

/// Computes batch `batch` of the run described by `config` on its own,
/// exactly as a [`run_fleet`] worker would. Each die carries its own RNG
/// substream, so the outcome depends only on (`config`, `batch`); folding
/// every batch in order through [`fleet_summarize`] reproduces
/// [`run_fleet`].
///
/// # Errors
///
/// Returns [`SimError::InvalidConfig`] when the configuration, the
/// operating point, or the baseline is invalid, or when `batch` is past
/// the end of the run.
pub fn fleet_partial(
    engine: &BatchEngine,
    app: App,
    arch: ArchPoint,
    dvs: DvsPoint,
    model: &ReliabilityModel,
    config: &FleetConfig,
    batch: u64,
) -> Result<FleetPartial, SimError> {
    config.validate()?;
    let batches = config.dies.div_ceil(DIE_BATCH);
    if batch >= batches {
        return Err(SimError::invalid_config(format!(
            "fleet batch {batch} out of range: {} dies make {batches} batch(es)",
            config.dies
        )));
    }
    let ev = engine.evaluation(app, arch, dvs)?;
    let baseline = FleetBaseline::new(engine.evaluator(), &ev, model, config)?;
    Ok(batch_partial(
        &baseline,
        model.target_fit().value(),
        config.dies,
        batch,
    ))
}

/// Finishes a fleet run from its folded aggregate: the summary math of
/// [`run_fleet`] (rank-error bound, sketch statistics, violation count)
/// applied to `acc`, with the diagnostic fields supplied by the caller.
/// Folding every batch in order and summarizing here is bit-identical
/// to [`run_fleet`].
///
/// # Panics
///
/// Panics when `acc` is empty (statistics of zero dies are undefined).
#[must_use]
pub fn fleet_summarize(
    acc: &FleetPartial,
    target_fit: f64,
    timing_runs: u64,
    workers: usize,
    wall: Duration,
) -> FleetSummary {
    let dies = acc.dies();
    assert!(dies > 0, "cannot summarize an empty fleet");
    let rank_error = (acc.fit.rank_error_bound() / dies as f64)
        .max(acc.life_years.rank_error_bound() / dies as f64);
    let summary = FleetSummary {
        dies,
        violations: acc.violations,
        target_fit,
        fit: FleetStats::from_sketch(&acc.fit, acc.fit_sum),
        lifetime_years: FleetStats::from_sketch(&acc.life_years, acc.life_sum),
        rank_error,
        timing_runs,
        workers,
        wall,
    };
    if sim_obs::enabled() {
        sim_obs::counter!("fleet.dies", dies);
        sim_obs::counter!("fleet.violations", summary.violations);
        sim_obs::gauge!("fleet.violation_fraction", summary.violation_fraction());
        sim_obs::gauge!("fleet.fit_p50", summary.fit.p50);
        sim_obs::gauge!("fleet.fit_p95", summary.fit.p95);
        sim_obs::gauge!("fleet.life_p1_y", summary.lifetime_years.p1);
        sim_obs::gauge!("fleet.life_p5_y", summary.lifetime_years.p5);
        sim_obs::gauge!("fleet.life_p50_y", summary.lifetime_years.p50);
        sim_obs::gauge!("fleet.life_p95_y", summary.lifetime_years.p95);
        sim_obs::gauge!("fleet.dies_per_sec", summary.dies_per_second());
    }
    summary
}

/// Runs a fleet Monte Carlo at one operating point.
///
/// The nominal evaluation is served by `engine` (cached; its timing
/// stage is shared with every other consumer of the operating point),
/// then `config.dies` virtual dies stream through the closed-form
/// variation fast path across the engine's worker count, in fixed
/// batches folded in batch order — the summary is bit-identical at any
/// worker count.
///
/// # Errors
///
/// Returns [`SimError::InvalidConfig`] when the fleet configuration, the
/// operating point, or the baseline is invalid.
pub fn run_fleet(
    engine: &BatchEngine,
    app: App,
    arch: ArchPoint,
    dvs: DvsPoint,
    model: &ReliabilityModel,
    config: &FleetConfig,
) -> Result<FleetSummary, SimError> {
    config.validate()?;
    let _span = sim_obs::span!("drm.fleet");
    let ev = engine.evaluation(app, arch, dvs)?;
    let baseline = FleetBaseline::new(engine.evaluator(), &ev, model, config)?;
    let target_fit = model.target_fit().value();

    let start = Instant::now();
    let dies = config.dies;
    let batches = dies.div_ceil(DIE_BATCH);
    let slots: Vec<OnceLock<FleetPartial>> = (0..batches).map(|_| OnceLock::new()).collect();
    let workers = engine
        .workers()
        .min(usize::try_from(batches).unwrap_or(usize::MAX))
        .max(1);
    let next = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for w in 0..workers {
            let baseline = &baseline;
            let slots = &slots;
            let next = &next;
            // Named threads give each worker its own lane in trace-event
            // exports (and readable panic messages).
            let builder = std::thread::Builder::new().name(format!("fleet-worker-{w}"));
            builder
                .spawn_scoped(scope, move || {
                    let _worker_span = sim_obs::span!("drm.fleet.worker");
                    loop {
                        let b = next.fetch_add(1, Ordering::Relaxed);
                        if b >= batches {
                            return;
                        }
                        let part = batch_partial(baseline, target_fit, dies, b);
                        // Each batch index is claimed by exactly one worker.
                        assert!(slots[b as usize].set(part).is_ok());
                    }
                })
                .expect("spawn fleet worker thread");
        }
    });

    let mut acc = FleetPartial::new();
    for slot in &slots {
        acc.merge(slot.get().expect("fleet batch missing"));
    }
    let wall = start.elapsed();
    debug_assert_eq!(acc.fit.count(), dies);

    let summary = fleet_summarize(
        &acc,
        target_fit,
        engine.timing_cache().misses(),
        workers,
        wall,
    );
    sim_obs::log_debug!(
        "drm.fleet",
        "{} dies in {:.1} ms ({:.0}k dies/s), {} worker(s)",
        dies,
        wall.as_secs_f64() * 1e3,
        summary.dies_per_second() / 1e3,
        workers
    );
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluator::EvalParams;
    use ramp::{FailureParams, QualificationPoint};
    use sim_common::Floorplan;

    fn engine(workers: usize) -> BatchEngine {
        BatchEngine::with_workers(Evaluator::ibm_65nm(EvalParams::quick()).unwrap(), workers)
    }

    fn model() -> ReliabilityModel {
        ReliabilityModel::qualify(
            FailureParams::ramp_65nm(),
            &QualificationPoint::at_temperature(Kelvin(370.0), 0.35),
            &Floorplan::r10000_65nm().area_shares(),
            4000.0,
        )
        .unwrap()
    }

    fn small(dies: u64) -> FleetConfig {
        FleetConfig {
            dies,
            ..FleetConfig::default()
        }
    }

    #[test]
    fn zero_variation_reproduces_nominal_fit() {
        let e = engine(2);
        let m = model();
        let cfg = FleetConfig {
            dies: 64,
            variation: VariationParams::none(),
            ..FleetConfig::default()
        };
        let point = (App::Gzip, ArchPoint::most_aggressive(), DvsPoint::base());
        let fleet = run_fleet(&e, point.0, point.1, point.2, &m, &cfg).unwrap();
        let nominal = e
            .evaluation(point.0, point.1, point.2)
            .unwrap()
            .application_fit(&m)
            .total()
            .value();
        // Every die is the nominal die: the FIT distribution collapses
        // onto the exact ApplicationFit total (lifetimes still vary —
        // wear-out is random even for identical dies).
        assert!(
            (fleet.fit.min - nominal).abs() < 1e-9 * nominal,
            "min {} vs nominal {nominal}",
            fleet.fit.min
        );
        assert!((fleet.fit.max - nominal).abs() < 1e-9 * nominal);
        assert!((fleet.fit.mean - nominal).abs() < 1e-9 * nominal);
        assert!(fleet.lifetime_years.min < fleet.lifetime_years.max);
    }

    #[test]
    fn variation_widens_the_population() {
        let e = engine(2);
        let m = model();
        let fleet = run_fleet(
            &e,
            App::Gzip,
            ArchPoint::most_aggressive(),
            DvsPoint::base(),
            &m,
            &small(4_000),
        )
        .unwrap();
        assert_eq!(fleet.dies, 4_000);
        assert!(fleet.fit.min < fleet.fit.p5);
        assert!(fleet.fit.p5 < fleet.fit.p50);
        assert!(fleet.fit.p50 < fleet.fit.p95);
        assert!(fleet.fit.p95 < fleet.fit.max);
        assert!(fleet.lifetime_years.p1 < fleet.lifetime_years.p50);
        assert!(fleet.lifetime_years.p50 < fleet.lifetime_years.p95);
        // Hotter, leakier dies must push some of the fleet over a budget
        // the nominal die sits near.
        assert!(fleet.violations > 0);
        assert!(fleet.violation_fraction() < 1.0);
        assert!(fleet.rank_error < 0.05);
    }

    #[test]
    fn summary_is_bit_identical_at_any_worker_count() {
        let m = model();
        let cfg = small(10_000);
        let point = (App::Twolf, ArchPoint::most_aggressive(), DvsPoint::base());
        let one = run_fleet(&engine(1), point.0, point.1, point.2, &m, &cfg).unwrap();
        let four = run_fleet(&engine(4), point.0, point.1, point.2, &m, &cfg).unwrap();
        assert_eq!(one, four);
        // PartialEq covers the statistics; pin the key floats to the bit.
        assert_eq!(one.fit.p50.to_bits(), four.fit.p50.to_bits());
        assert_eq!(one.fit.mean.to_bits(), four.fit.mean.to_bits());
        assert_eq!(
            one.lifetime_years.p95.to_bits(),
            four.lifetime_years.p95.to_bits()
        );
        assert_eq!(one.violations, four.violations);
    }

    #[test]
    fn seed_changes_the_population_deterministically() {
        let e = engine(2);
        let m = model();
        let point = (App::Gzip, ArchPoint::most_aggressive(), DvsPoint::base());
        let a = run_fleet(&e, point.0, point.1, point.2, &m, &small(2_000)).unwrap();
        let b = run_fleet(&e, point.0, point.1, point.2, &m, &small(2_000)).unwrap();
        assert_eq!(a, b, "same seed, same fleet");
        let other = FleetConfig {
            seed: 7,
            ..small(2_000)
        };
        let c = run_fleet(&e, point.0, point.1, point.2, &m, &other).unwrap();
        assert_ne!(a.fit.p50.to_bits(), c.fit.p50.to_bits());
    }

    #[test]
    fn timing_is_amortized_across_the_fleet() {
        let e = engine(2);
        let m = model();
        let fleet = run_fleet(
            &e,
            App::Gzip,
            ArchPoint::most_aggressive(),
            DvsPoint::base(),
            &m,
            &small(2_000),
        )
        .unwrap();
        // One cycle-level timing run serves the whole population.
        assert_eq!(fleet.timing_runs, 1);
    }

    #[test]
    fn partial_batches_fold_to_the_full_fleet() {
        let m = model();
        let cfg = small(10_000); // 3 batches, last one short
        let point = (App::Gzip, ArchPoint::most_aggressive(), DvsPoint::base());
        let direct = run_fleet(&engine(2), point.0, point.1, point.2, &m, &cfg).unwrap();

        // Recompute batch by batch and fold in batch-index order.
        let e = engine(2);
        let batches = cfg.dies.div_ceil(DIE_BATCH);
        assert_eq!(batches, 3);
        let mut acc = FleetPartial::new();
        for b in 0..batches {
            acc.merge(&fleet_partial(&e, point.0, point.1, point.2, &m, &cfg, b).unwrap());
        }
        let merged = fleet_summarize(
            &acc,
            m.target_fit().value(),
            e.timing_cache().misses(),
            e.workers(),
            Duration::ZERO,
        );
        assert_eq!(direct, merged);
        assert_eq!(direct.fit.p50.to_bits(), merged.fit.p50.to_bits());
        assert_eq!(direct.fit.mean.to_bits(), merged.fit.mean.to_bits());
        assert_eq!(
            direct.lifetime_years.p95.to_bits(),
            merged.lifetime_years.p95.to_bits()
        );
        assert_eq!(direct.violations, merged.violations);
        // One timing run serves every batch.
        assert_eq!(merged.timing_runs, 1);
        // Past-the-end batches are rejected.
        assert!(fleet_partial(&e, point.0, point.1, point.2, &m, &cfg, batches).is_err());
    }

    /// Lane `k` of an 8-lane group is die `first + k` sampled alone, bit
    /// for bit, at seeded group starts and at every variation edge (none,
    /// the default, and a β spread that clamps about a fifth of the dies).
    #[test]
    fn lanes_equal_lone_dies() {
        let e = engine(1);
        let m = model();
        let ev = e
            .evaluation(App::Twolf, ArchPoint::most_aggressive(), DvsPoint::base())
            .unwrap();
        let clamping = VariationParams {
            sigma_beta: 0.02,
            ..VariationParams::default()
        };
        let mut rng = sim_common::Xoshiro256pp::seed_from_u64(0x1a4e5);
        for variation in [
            VariationParams::default(),
            VariationParams::none(),
            clamping,
        ] {
            let cfg = FleetConfig {
                variation,
                ..small(1)
            };
            let baseline = FleetBaseline::new(e.evaluator(), &ev, &m, &cfg).unwrap();
            for _ in 0..64 {
                let first = rng.next_u64() >> 28;
                for (k, lane) in baseline.dies::<8>(first).iter().enumerate() {
                    let [alone] = baseline.dies::<1>(first + k as u64);
                    assert_eq!(lane.total_fit.to_bits(), alone.total_fit.to_bits());
                    assert_eq!(
                        lane.lifetime_hours.to_bits(),
                        alone.lifetime_hours.to_bits()
                    );
                }
            }
        }
    }

    #[test]
    fn config_validation_rejects_nonsense() {
        assert!(small(0).validate().is_err());
        assert!(FleetConfig {
            shape: 0.01,
            ..FleetConfig::default()
        }
        .validate()
        .is_err());
        let mut v = FleetConfig::default();
        v.variation.sigma_leakage = -1.0;
        assert!(v.validate().is_err());
        v.variation.sigma_leakage = f64::NAN;
        assert!(v.validate().is_err());
        assert!(FleetConfig::default().validate().is_ok());
    }
}
