//! Intra-application DRM: per-interval adaptation with oracular knowledge.
//!
//! The paper's oracle adapts *once per application run* and explicitly
//! "does not represent the best possible DRM control algorithm because it
//! does not exploit intra-application variability" (§5). This module
//! closes that gap: with evaluations of every candidate configuration
//! aligned on fixed instruction intervals, it chooses a configuration *per
//! interval* to minimize execution time subject to the run's time-averaged
//! FIT staying within the target.
//!
//! The optimization is a classic Lagrangian relaxation: for a multiplier
//! `λ ≥ 0` each interval independently picks
//! `argmin_c  t(k,c) + λ · (fit(k,c) − target) · t(k,c)`,
//! and bisection on `λ` finds the cheapest multiplier whose selection
//! satisfies the budget.

use ramp::{Fit, ReliabilityModel};
use sim_common::{SimError, Structure};
use workload::App;

use crate::dvs::DvsPoint;
use crate::evaluator::Evaluation;
use crate::oracle::Oracle;
use crate::space::{ArchPoint, Strategy};
use crate::surrogate::Objective;

/// The per-interval schedule an intra-application oracle settles on.
#[derive(Debug, Clone, PartialEq)]
pub struct IntraAppChoice {
    /// Chosen configuration for each interval, in order.
    pub per_interval: Vec<(ArchPoint, DvsPoint)>,
    /// Performance relative to the base non-adaptive processor
    /// (base time / scheduled time for the same instructions).
    pub relative_performance: f64,
    /// Time-averaged FIT of the schedule.
    pub fit: Fit,
    /// True when the schedule meets the target. When even the most
    /// conservative per-interval selection misses it, that selection is
    /// returned with `feasible = false`.
    pub feasible: bool,
    /// Number of configuration changes along the schedule.
    pub switches: usize,
}

/// Per-interval cost table for one candidate configuration.
struct Candidate {
    arch: ArchPoint,
    dvs: DvsPoint,
    /// Interval durations, seconds.
    time: Vec<f64>,
    /// Interval FIT rates (instantaneous EM/SM/TDDB + TC at the interval
    /// temperature — slightly conservative for TC, whose Coffin–Manson law
    /// is convex in temperature).
    fit: Vec<f64>,
}

fn interval_fit(evaluation: &Evaluation, k: usize, model: &ReliabilityModel) -> f64 {
    let iv = &evaluation.intervals[k];
    Structure::ALL
        .into_iter()
        .map(|s| {
            model.instantaneous_fit(s, &iv.conditions[s]).value()
                + model
                    .thermal_cycling_fit(s, iv.conditions[s].temperature)
                    .value()
        })
        .sum()
}

/// Chooses a per-interval schedule for `app` under `strategy`'s candidate
/// set, maximizing performance subject to the FIT target.
///
/// # Errors
///
/// Propagates evaluation errors; returns [`SimError::Infeasible`] when the
/// strategy has no candidates.
pub fn intra_app_best(
    oracle: &Oracle,
    app: App,
    strategy: Strategy,
    model: &ReliabilityModel,
    dvs_step_ghz: f64,
) -> Result<IntraAppChoice, SimError> {
    let base = (ArchPoint::most_aggressive(), DvsPoint::base());
    intra_app_best_among(oracle, app, &strategy.candidates(dvs_step_ghz), base, model)
}

/// Like [`intra_app_best`], but over an explicit candidate set with an
/// explicit base operating point (e.g. a scenario's adaptation space).
/// With the surrogate enabled, candidates another one surely dominates
/// are screened out before their cycle-level tables are paid for.
///
/// # Errors
///
/// Propagates evaluation errors; returns [`SimError::Infeasible`] when
/// `candidates` is empty.
pub fn intra_app_best_among(
    oracle: &Oracle,
    app: App,
    candidates: &[(ArchPoint, DvsPoint)],
    base: (ArchPoint, DvsPoint),
    model: &ReliabilityModel,
) -> Result<IntraAppChoice, SimError> {
    let target = model.target_fit().value();
    let candidates: Vec<Candidate> = oracle
        .search(app, candidates, base, Objective::Schedule(model))?
        .into_iter()
        .map(|(i, ev)| Candidate {
            arch: candidates[i].0,
            dvs: candidates[i].1,
            time: ev.intervals.iter().map(|iv| iv.duration.0).collect(),
            fit: (0..ev.intervals.len())
                .map(|k| interval_fit(&ev, k, model))
                .collect(),
        })
        .collect();
    // After the search: the base point is on every paper grid, so this is
    // an evaluation-cache hit rather than a second finish of its timing.
    let base_time: f64 = oracle
        .evaluation(app, base.0, base.1)?
        .intervals
        .iter()
        .map(|iv| iv.duration.0)
        .sum();
    let n_intervals = candidates.iter().map(|c| c.time.len()).min().unwrap_or(0);
    if n_intervals == 0 {
        return Err(SimError::infeasible(
            "no candidates or no intervals to schedule",
        ));
    }

    // Per-interval selection for a given multiplier; returns (schedule,
    // total time, budget slack Σ (fit − target)·t).
    let select = |lambda: f64| -> (Vec<usize>, f64, f64) {
        let mut schedule = Vec::with_capacity(n_intervals);
        let mut total_time = 0.0;
        let mut violation = 0.0;
        for k in 0..n_intervals {
            let (best, _) = candidates
                .iter()
                .enumerate()
                .map(|(i, c)| {
                    let cost = c.time[k] * (1.0 + lambda * (c.fit[k] - target));
                    (i, cost)
                })
                .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite costs"))
                .expect("non-empty candidates");
            schedule.push(best);
            total_time += candidates[best].time[k];
            violation += (candidates[best].fit[k] - target) * candidates[best].time[k];
        }
        (schedule, total_time, violation)
    };

    // λ = 0 is the unconstrained fastest schedule; if feasible, done.
    let (mut schedule, _, violation) = select(0.0);
    if violation > 0.0 {
        // Bisect λ upward until the budget holds (or saturates).
        let mut lo = 0.0f64;
        let mut hi = 1.0f64;
        let mut hi_ok = false;
        for _ in 0..64 {
            let (_, _, v) = select(hi);
            if v <= 0.0 {
                hi_ok = true;
                break;
            }
            hi *= 4.0;
        }
        if hi_ok {
            for _ in 0..60 {
                let mid = 0.5 * (lo + hi);
                let (_, _, v) = select(mid);
                if v <= 0.0 {
                    hi = mid;
                } else {
                    lo = mid;
                }
            }
            schedule = select(hi).0;
        } else {
            schedule = select(hi).0; // most conservative reachable
        }
    }

    // Materialize the schedule.
    let mut total_time = 0.0;
    let mut fit_time = 0.0;
    let mut per_interval = Vec::with_capacity(n_intervals);
    let mut switches = 0;
    for (k, &i) in schedule.iter().enumerate() {
        let c = &candidates[i];
        total_time += c.time[k];
        fit_time += c.fit[k] * c.time[k];
        if k > 0 && schedule[k - 1] != i {
            switches += 1;
        }
        per_interval.push((c.arch, c.dvs));
    }
    let fit = Fit(fit_time / total_time);
    Ok(IntraAppChoice {
        per_interval,
        relative_performance: base_time / total_time,
        fit,
        feasible: fit.value() <= target + 1e-9,
        switches,
    })
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
    fn intra_app_never_loses_to_inter_app() {
        // The inter-application oracle's choice is one point of the
        // intra-application schedule space, so the schedule can only be
        // at least as fast (when both are feasible).
        let o = oracle();
        for t in [366.0, 394.0, 405.0] {
            let m = model(t);
            let inter = o.best(App::MpgDec, Strategy::Dvs, &m, 0.5).unwrap();
            let intra = intra_app_best(&o, App::MpgDec, Strategy::Dvs, &m, 0.5).unwrap();
            if inter.feasible && intra.feasible {
                assert!(
                    intra.relative_performance >= inter.relative_performance - 0.02,
                    "T_qual {t}: intra {:.3} vs inter {:.3}",
                    intra.relative_performance,
                    inter.relative_performance
                );
            }
        }
    }

    #[test]
    fn schedule_meets_budget_when_feasible() {
        let o = oracle();
        let m = model(380.0);
        let choice = intra_app_best(&o, App::Gzip, Strategy::Dvs, &m, 0.5).unwrap();
        if choice.feasible {
            assert!(choice.fit <= m.target_fit());
        }
        assert!(!choice.per_interval.is_empty());
    }

    #[test]
    fn phased_app_exploits_variability() {
        // MPGdec alternates compute-heavy and output phases; at a tight
        // budget the schedule should not be constant (it banks budget in
        // cool intervals to spend in hot ones), unless a single setting is
        // already exactly optimal.
        let o = oracle();
        let m = model(380.0);
        let choice = intra_app_best(&o, App::MpgDec, Strategy::Dvs, &m, 0.25).unwrap();
        let inter = o.best(App::MpgDec, Strategy::Dvs, &m, 0.25).unwrap();
        assert!(
            choice.relative_performance >= inter.relative_performance - 1e-9,
            "intra {:.3} vs inter {:.3}",
            choice.relative_performance,
            inter.relative_performance
        );
    }

    #[test]
    fn unconstrained_schedule_is_fastest_grid_point() {
        // With an absurdly generous target every interval picks the
        // fastest configuration: performance matches the 5 GHz point.
        let o = oracle();
        let generous = ReliabilityModel::qualify(
            FailureParams::ramp_65nm(),
            &QualificationPoint::at_temperature(Kelvin(470.0), 0.48),
            &Floorplan::r10000_65nm().area_shares(),
            4000.0,
        )
        .unwrap();
        let choice = intra_app_best(&o, App::Twolf, Strategy::Dvs, &generous, 0.5).unwrap();
        assert!(choice.feasible);
        for (_, dvs) in &choice.per_interval {
            assert!((dvs.frequency.to_ghz() - 5.0).abs() < 1e-9);
        }
        assert_eq!(choice.switches, 0);
    }
}
