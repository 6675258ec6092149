//! Multi-program workloads (§3.6): "To determine the FIT value for a
//! workload, we can use a weighted average of the FIT values of the
//! constituent applications."
//!
//! A [`WorkloadMix`] is a time-share over applications (e.g. a consolidation
//! profile: 60% media decode, 40% compression). Its FIT is the time-weighted
//! average of the constituents' FITs, and DRM can qualify and adapt for the
//! mix rather than for a single program.

use ramp::{Fit, ReliabilityModel};
use sim_common::SimError;
use workload::App;

use crate::dvs::DvsPoint;
use crate::oracle::{select, DrmChoice, Oracle};
use crate::space::{ArchPoint, Strategy};

/// A time-weighted mix of applications.
///
/// # Examples
///
/// ```
/// use drm::WorkloadMix;
/// use workload::App;
///
/// let mix = WorkloadMix::new([(App::MpgDec, 0.6), (App::Bzip2, 0.4)])?;
/// assert_eq!(mix.entries().len(), 2);
/// assert!((mix.entries()[0].1 - 0.6).abs() < 1e-12);
/// # Ok::<(), sim_common::SimError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadMix {
    entries: Vec<(App, f64)>,
}

impl WorkloadMix {
    /// Builds a mix from `(application, time share)` pairs; shares are
    /// normalized to sum to one.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] when empty, when a share is
    /// non-positive, or when an application appears twice.
    pub fn new(entries: impl IntoIterator<Item = (App, f64)>) -> Result<WorkloadMix, SimError> {
        let mut collected: Vec<(App, f64)> = Vec::new();
        for (app, w) in entries {
            if !(w > 0.0 && w.is_finite()) {
                return Err(SimError::invalid_config(format!(
                    "share for {app} must be positive, got {w}"
                )));
            }
            if collected.iter().any(|(a, _)| *a == app) {
                return Err(SimError::invalid_config(format!("{app} listed twice")));
            }
            collected.push((app, w));
        }
        if collected.is_empty() {
            return Err(SimError::invalid_config("mix needs at least one app"));
        }
        let total: f64 = collected.iter().map(|(_, w)| w).sum();
        for (_, w) in &mut collected {
            *w /= total;
        }
        Ok(WorkloadMix { entries: collected })
    }

    /// The normalized `(application, share)` entries.
    pub fn entries(&self) -> &[(App, f64)] {
        &self.entries
    }

    /// The mix FIT at one configuration: the share-weighted average of the
    /// constituent applications' FITs (§3.6).
    ///
    /// # Errors
    ///
    /// Propagates evaluation errors.
    pub fn fit(
        &self,
        oracle: &Oracle,
        arch: ArchPoint,
        dvs: DvsPoint,
        model: &ReliabilityModel,
    ) -> Result<Fit, SimError> {
        let mut total = 0.0;
        for &(app, share) in &self.entries {
            let ev = oracle.evaluation(app, arch, dvs)?;
            total += share * ev.application_fit(model).total().value();
        }
        Ok(Fit(total))
    }

    /// The mix performance at one configuration, relative to the base
    /// processor: the share-weighted average of per-app relative
    /// performance.
    ///
    /// # Errors
    ///
    /// Propagates evaluation errors.
    pub fn relative_performance(
        &self,
        oracle: &Oracle,
        arch: ArchPoint,
        dvs: DvsPoint,
    ) -> Result<f64, SimError> {
        let mut total = 0.0;
        for &(app, share) in &self.entries {
            let base = oracle.base_evaluation(app)?.bips;
            let ev = oracle.evaluation(app, arch, dvs)?;
            total += share * ev.bips / base;
        }
        Ok(total)
    }

    /// Oracular DRM for the whole mix: the best-performing candidate of
    /// `strategy` whose *mix* FIT meets the target. Mirrors
    /// [`Oracle::best`] but constrains the weighted average, so a hot
    /// constituent can be carried by a cool one.
    ///
    /// # Errors
    ///
    /// Propagates evaluation errors.
    pub fn best(
        &self,
        oracle: &Oracle,
        strategy: Strategy,
        model: &ReliabilityModel,
        dvs_step_ghz: f64,
    ) -> Result<DrmChoice, SimError> {
        // Pre-evaluate every (constituent, candidate) pair in one
        // parallel pass.
        let apps: Vec<App> = self.entries.iter().map(|&(app, _)| app).collect();
        oracle.prefetch_suite(&apps, strategy, dvs_step_ghz)?;
        let target = model.target_fit();
        let choices = strategy
            .candidates(dvs_step_ghz)
            .into_iter()
            .map(|(arch, dvs)| {
                let fit = self.fit(oracle, arch, dvs, model)?;
                Ok(DrmChoice {
                    arch,
                    dvs,
                    relative_performance: self.relative_performance(oracle, arch, dvs)?,
                    fit,
                    feasible: fit <= target,
                })
            })
            .collect::<Result<Vec<_>, SimError>>()?;
        select(choices, |c| {
            (c.feasible, c.relative_performance, c.fit.value())
        })
        .ok_or_else(|| SimError::infeasible(format!("{strategy} has no candidates")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluator::{EvalParams, Evaluator};
    use ramp::{FailureParams, QualificationPoint};
    use sim_common::{Floorplan, Kelvin};

    fn oracle() -> Oracle {
        Oracle::new(Evaluator::ibm_65nm(EvalParams::quick()).unwrap())
    }

    fn model(t_qual: f64) -> ReliabilityModel {
        ReliabilityModel::qualify(
            FailureParams::ramp_65nm(),
            &QualificationPoint::at_temperature(Kelvin(t_qual), 0.48),
            &Floorplan::r10000_65nm().area_shares(),
            4000.0,
        )
        .unwrap()
    }

    #[test]
    fn shares_normalize() {
        let mix = WorkloadMix::new([(App::Gzip, 3.0), (App::Art, 1.0)]).unwrap();
        assert!((mix.entries()[0].1 - 0.75).abs() < 1e-12);
        assert!((mix.entries()[1].1 - 0.25).abs() < 1e-12);
    }

    #[test]
    fn rejects_invalid_mixes() {
        assert!(WorkloadMix::new([]).is_err());
        assert!(WorkloadMix::new([(App::Gzip, 0.0)]).is_err());
        assert!(WorkloadMix::new([(App::Gzip, 1.0), (App::Gzip, 1.0)]).is_err());
    }

    #[test]
    fn mix_fit_is_weighted_average() {
        let o = oracle();
        let m = model(394.0);
        let arch = ArchPoint::most_aggressive();
        let dvs = DvsPoint::base();
        let hot = o
            .evaluation(App::MpgDec, arch, dvs)
            .unwrap()
            .application_fit(&m)
            .total()
            .value();
        let cool = o
            .evaluation(App::Twolf, arch, dvs)
            .unwrap()
            .application_fit(&m)
            .total()
            .value();
        let mix = WorkloadMix::new([(App::MpgDec, 0.3), (App::Twolf, 0.7)]).unwrap();
        let got = mix.fit(&o, arch, dvs, &m).unwrap().value();
        assert!((got - (0.3 * hot + 0.7 * cool)).abs() < 1e-9);
    }

    #[test]
    fn cool_constituents_carry_hot_ones() {
        // A hot app infeasible alone at a tight qualification becomes
        // feasible at base settings inside a mostly-cool mix (§3.6 / §4:
        // reliability can be budgeted over time).
        let o = oracle();
        let m = model(385.0);
        let arch = ArchPoint::most_aggressive();
        let dvs = DvsPoint::base();
        let hot_alone = o
            .evaluation(App::MpgDec, arch, dvs)
            .unwrap()
            .application_fit(&m)
            .total();
        assert!(hot_alone > m.target_fit(), "premise: hot app over budget");
        let mix = WorkloadMix::new([(App::MpgDec, 0.2), (App::Art, 0.8)]).unwrap();
        let mixed = mix.fit(&o, arch, dvs, &m).unwrap();
        assert!(
            mixed <= m.target_fit(),
            "mix {mixed:?} should fit the budget"
        );
    }

    #[test]
    fn single_app_mix_chooses_exactly_as_the_oracle() {
        // With one constituent at share 1.0 the mix's FIT and performance
        // sums are exact, so the shared selection fold must break every
        // tie the same way for both callers, to the last bit.
        let o = oracle();
        let mix = WorkloadMix::new([(App::Gzip, 1.0)]).unwrap();
        for t_qual in [366.0, 394.0] {
            let m = model(t_qual);
            for strategy in Strategy::ALL {
                let solo = o.best(App::Gzip, strategy, &m, 0.5).unwrap();
                let mixed = mix.best(&o, strategy, &m, 0.5).unwrap();
                let at = format!("{strategy} at T_qual {t_qual}");
                assert_eq!((solo.arch, solo.dvs), (mixed.arch, mixed.dvs), "{at}");
                assert_eq!(solo.feasible, mixed.feasible, "{at}");
                assert_eq!(
                    solo.relative_performance.to_bits(),
                    mixed.relative_performance.to_bits(),
                    "{at}"
                );
                assert_eq!(
                    solo.fit.value().to_bits(),
                    mixed.fit.value().to_bits(),
                    "{at}"
                );
            }
        }
    }

    #[test]
    fn mix_search_is_at_least_as_good_as_worst_member() {
        let o = oracle();
        let m = model(380.0);
        let mix = WorkloadMix::new([(App::MpgDec, 0.5), (App::Twolf, 0.5)]).unwrap();
        let mix_choice = mix.best(&o, Strategy::Dvs, &m, 0.5).unwrap();
        let hot_choice = o.best(App::MpgDec, Strategy::Dvs, &m, 0.5).unwrap();
        // The mix's frequency should be at least the hot app's solo
        // frequency: averaging with a cool app only relaxes the constraint.
        assert!(
            mix_choice.dvs.frequency >= hot_choice.dvs.frequency,
            "mix {:.2} GHz < solo {:.2} GHz",
            mix_choice.dvs.frequency.to_ghz(),
            hot_choice.dvs.frequency.to_ghz()
        );
    }
}
