//! The oracular DRM study (§5): per application and per qualification
//! point, choose the adaptation configuration that maximizes performance
//! while staying within the target FIT.
//!
//! "This effectively simulates a DRM algorithm which adapts once per
//! application run, and chooses the adaptation configuration with oracular
//! knowledge of the application behavior."
//!
//! Timing/power/thermal profiles depend only on (workload, configuration),
//! not on the qualification point, so evaluations are cached — in the
//! thread-safe [`EvalCache`] shared through the [`BatchEngine`] — and
//! re-scored against each [`ReliabilityModel`]. [`Oracle::best`] first
//! pre-evaluates the strategy's whole candidate set in one parallel pass,
//! then scores serially; all methods take `&self`, so one oracle can be
//! shared across threads.

use std::sync::Arc;
use std::time::Instant;

use ramp::{Fit, ReliabilityModel};
use sim_common::SimError;
use workload::App;

use crate::batch::{BatchEngine, SweepSummary};
use crate::dvs::DvsPoint;
use crate::evaluator::{Evaluation, Evaluator};
use crate::space::{ArchPoint, Strategy};
use crate::surrogate::{self, promote_for_oracle, Surrogate, SurrogateParams};

/// The configuration an oracular DRM run settles on for one application.
#[derive(Debug, Clone, PartialEq)]
pub struct DrmChoice {
    /// Chosen microarchitectural point.
    pub arch: ArchPoint,
    /// Chosen DVS point.
    pub dvs: DvsPoint,
    /// Performance relative to the base non-adaptive processor.
    pub relative_performance: f64,
    /// The application FIT at the chosen configuration.
    pub fit: Fit,
    /// True when the chosen configuration meets the FIT target. When no
    /// candidate meets the target, the minimum-FIT configuration is
    /// returned with `feasible = false`.
    pub feasible: bool,
}

/// Evaluation cache + oracular search, backed by the parallel
/// [`BatchEngine`].
#[derive(Debug, Clone)]
pub struct Oracle {
    engine: BatchEngine,
    surrogate: Option<Arc<Surrogate>>,
}

impl Oracle {
    /// Creates an oracle over `evaluator` with the Table 1 base processor
    /// as the performance reference, using every available core for
    /// candidate sweeps.
    #[must_use]
    pub fn new(evaluator: Evaluator) -> Oracle {
        Oracle {
            engine: BatchEngine::new(evaluator),
            surrogate: None,
        }
    }

    /// Creates an oracle with an explicit sweep worker count (`0` means
    /// `available_parallelism()`; `1` is fully sequential).
    #[must_use]
    pub fn with_workers(evaluator: Evaluator, workers: usize) -> Oracle {
        Oracle {
            engine: BatchEngine::with_workers(evaluator, workers),
            surrogate: None,
        }
    }

    /// Creates an oracle over an explicitly configured [`BatchEngine`]
    /// (e.g. one whose base configuration comes from a scenario).
    #[must_use]
    pub fn from_engine(engine: BatchEngine) -> Oracle {
        Oracle {
            engine,
            surrogate: None,
        }
    }

    /// Enables the two-phase surrogate search: candidate grids are first
    /// scored by a calibrated analytical model and only the provable
    /// frontier is promoted to cycle-level evaluation. Choices stay
    /// bit-identical whenever the measured error bounds hold; off by
    /// default.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] when `params` are invalid.
    pub fn with_surrogate(mut self, params: SurrogateParams) -> Result<Oracle, SimError> {
        self.surrogate = Some(Arc::new(Surrogate::new(params)?));
        Ok(self)
    }

    /// Attaches an existing shared surrogate — e.g. a server slot's
    /// long-lived instance, so calibrated tables and the error pool
    /// persist across per-request oracles over the same engine.
    #[must_use]
    pub fn with_shared_surrogate(mut self, surrogate: Arc<Surrogate>) -> Oracle {
        self.surrogate = Some(surrogate);
        self
    }

    /// The surrogate, when the two-phase search is enabled. Clones of
    /// this oracle share one surrogate (tables and error pool).
    pub fn surrogate(&self) -> Option<&Arc<Surrogate>> {
        self.surrogate.as_ref()
    }

    /// The evaluator in use.
    pub fn evaluator(&self) -> &Evaluator {
        self.engine.evaluator()
    }

    /// The underlying batch engine.
    pub fn engine(&self) -> &BatchEngine {
        &self.engine
    }

    /// Worker threads used for candidate sweeps.
    pub fn workers(&self) -> usize {
        self.engine.workers()
    }

    /// Number of distinct (workload, configuration) evaluations performed.
    pub fn evaluations_performed(&self) -> usize {
        self.engine.cache().len()
    }

    /// Cumulative sweep statistics over the life of this oracle (shared
    /// cache counters; `wall`/`busy` cover the batch passes).
    #[must_use]
    pub fn summary(&self) -> SweepSummary {
        let cache = self.engine.cache();
        let timing = self.engine.timing_cache();
        SweepSummary {
            workers: self.engine.workers(),
            evaluations: cache.len() as u64,
            cache_hits: cache.hits(),
            timing_runs: timing.misses(),
            timing_reuses: timing.hits(),
            wall: cache.wall(),
            busy: cache.busy(),
        }
    }

    /// The (cached) evaluation of `app` at an adaptation point.
    ///
    /// The cache key is the full operating point — application,
    /// `ArchPoint`, frequency *and* voltage — so distinct points never
    /// alias. A cache hit costs one hash lookup.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] when the point cannot be applied.
    pub fn evaluation(
        &self,
        app: App,
        arch: ArchPoint,
        dvs: DvsPoint,
    ) -> Result<Arc<Evaluation>, SimError> {
        self.engine.evaluation(app, arch, dvs)
    }

    /// The (cached) evaluation of `app` on the base non-adaptive processor.
    ///
    /// # Errors
    ///
    /// Propagates evaluation errors.
    pub fn base_evaluation(&self, app: App) -> Result<Arc<Evaluation>, SimError> {
        self.evaluation(app, ArchPoint::most_aggressive(), DvsPoint::base())
    }

    /// Pre-evaluates a list of jobs in one parallel pass, filling the
    /// shared cache; subsequent [`Oracle::evaluation`] calls for those
    /// points are pure cache hits.
    ///
    /// # Errors
    ///
    /// Propagates the first evaluation error.
    pub fn prefetch(&self, jobs: &[(App, ArchPoint, DvsPoint)]) -> Result<SweepSummary, SimError> {
        self.engine.evaluate_all(jobs)
    }

    /// Pre-evaluates `strategy`'s full candidate set (plus the base
    /// point) for every application in `apps` — the whole figure-scale
    /// sweep — in one parallel pass.
    ///
    /// # Errors
    ///
    /// Propagates the first evaluation error.
    pub fn prefetch_suite(
        &self,
        apps: &[App],
        strategy: Strategy,
        dvs_step_ghz: f64,
    ) -> Result<SweepSummary, SimError> {
        let candidates = strategy.candidates(dvs_step_ghz);
        let mut jobs = Vec::with_capacity(apps.len() * (candidates.len() + 1));
        for &app in apps {
            jobs.push((app, ArchPoint::most_aggressive(), DvsPoint::base()));
            for &(arch, dvs) in &candidates {
                jobs.push((app, arch, dvs));
            }
        }
        self.engine.evaluate_all(&jobs)
    }

    /// The highest activity factor across the given applications on the
    /// base processor — the paper's `α_qual` (§3.7). The per-app base
    /// evaluations run in parallel.
    ///
    /// # Errors
    ///
    /// Propagates evaluation errors.
    pub fn suite_max_activity(&self, apps: &[App]) -> Result<f64, SimError> {
        let jobs: Vec<_> = apps
            .iter()
            .map(|&app| (app, ArchPoint::most_aggressive(), DvsPoint::base()))
            .collect();
        self.engine.evaluate_all(&jobs)?;
        let mut max = 0.0f64;
        for &app in apps {
            max = max.max(self.base_evaluation(app)?.max_activity());
        }
        Ok(max)
    }

    /// Oracular DRM: the best-performing candidate of `strategy` for `app`
    /// that keeps the application FIT within `model`'s target.
    ///
    /// The candidate set is pre-evaluated in one parallel batch pass,
    /// then scored serially against `model` (scoring is cheap and
    /// T_qual-dependent; the pipeline is expensive and T_qual-free).
    ///
    /// # Errors
    ///
    /// Propagates evaluation errors; returns [`SimError::Infeasible`] only
    /// when the strategy has no candidates (cannot happen for the built-in
    /// strategies).
    pub fn best(
        &self,
        app: App,
        strategy: Strategy,
        model: &ReliabilityModel,
        dvs_step_ghz: f64,
    ) -> Result<DrmChoice, SimError> {
        self.best_among(
            app,
            &strategy.candidates(dvs_step_ghz),
            (ArchPoint::most_aggressive(), DvsPoint::base()),
            model,
        )
        .map_err(|e| match e {
            SimError::Infeasible(_) => {
                SimError::infeasible(format!("{strategy} has no candidates"))
            }
            other => other,
        })
    }

    /// Like [`Oracle::best`], but over an explicit candidate set with an
    /// explicit base operating point — the scenario-driven entry point,
    /// where the adaptation space and DVS grid come from a scenario file
    /// rather than the built-in paper constants.
    ///
    /// # Errors
    ///
    /// Propagates evaluation errors; returns [`SimError::Infeasible`] when
    /// `candidates` is empty.
    pub fn best_among(
        &self,
        app: App,
        candidates: &[(ArchPoint, DvsPoint)],
        base: (ArchPoint, DvsPoint),
        model: &ReliabilityModel,
    ) -> Result<DrmChoice, SimError> {
        let _span = sim_obs::span!("oracle.best");
        if let Some(surrogate) = &self.surrogate {
            return self.best_among_two_phase(surrogate, app, candidates, base, model);
        }
        let mut jobs: Vec<_> = candidates.iter().map(|&(a, d)| (app, a, d)).collect();
        jobs.push((app, base.0, base.1));
        self.engine.evaluate_all(&jobs)?;
        let promoted: Vec<usize> = (0..candidates.len()).collect();
        self.select_exact(app, candidates, &promoted, base, model, None)
    }

    /// The surrogate-accelerated search: calibrate, score every
    /// candidate analytically, promote the provable frontier, and
    /// escalate it through the exact path in incumbent-pruned waves. The
    /// final choice comes from exact `Evaluation`s, so it is
    /// bit-identical to exhaustive search whenever the error bounds
    /// hold.
    ///
    /// The FIT bound is inherently loose (FIT is exponentially sensitive
    /// to temperature), so feasibility alone cannot prune much. Instead,
    /// the best *exactly*-feasible anchor seeds an incumbent, the
    /// frontier runs through the cycle-level path in
    /// predicted-performance order, and every exact feasible result
    /// raises the bar: a remaining candidate survives only while its
    /// performance upper bound can still beat the incumbent. The
    /// exhaustive winner performs at least as well as any exactly
    /// feasible candidate, so pruned points provably cannot win.
    fn best_among_two_phase(
        &self,
        surrogate: &Surrogate,
        app: App,
        candidates: &[(ArchPoint, DvsPoint)],
        base: (ArchPoint, DvsPoint),
        model: &ReliabilityModel,
    ) -> Result<DrmChoice, SimError> {
        let table = surrogate.table_for(&self.engine, app, candidates, base)?;
        let bounds = surrogate.bounds(&self.engine, app, &table, Some(model))?;
        let mut scores = Vec::with_capacity(candidates.len());
        for &(arch, dvs) in candidates {
            let config = arch.apply(self.engine.base_config(), dvs)?;
            scores.push(table.score(self.engine.evaluator(), &config));
        }
        let fits: Vec<Fit> = scores.iter().map(|s| s.fit(model)).collect();
        let target = model.target_fit();

        if !surrogate.prune_active() {
            // Warm-up: score (growing the error pool) but promote all.
            let promoted: Vec<usize> = (0..candidates.len()).collect();
            sim_obs::counter!("surrogate.promoted", promoted.len() as u64);
            let mut jobs: Vec<_> = candidates.iter().map(|&(a, d)| (app, a, d)).collect();
            jobs.push((app, base.0, base.1));
            self.engine.evaluate_all(&jobs)?;
            return self.select_exact(
                app,
                candidates,
                &promoted,
                base,
                model,
                Some((surrogate, &scores)),
            );
        }

        // Interval pre-filter: everything that could win given the bounds.
        let frontier = promote_for_oracle(&scores, &fits, target, &bounds, surrogate.k_floor());

        // Seed the incumbent from the calibration anchors that are
        // themselves candidates — their exact evaluations are already
        // cached, so this is free. The exhaustive winner cannot perform
        // worse than any exactly feasible candidate.
        let mut promoted: Vec<usize> = Vec::new();
        let mut incumbent = f64::NEG_INFINITY;
        for &(a, d) in table.anchors() {
            if let Some(i) = candidates.iter().position(|&c| c == (a, d)) {
                if !promoted.contains(&i) {
                    let ev = self.evaluation(app, a, d)?;
                    if ev.application_fit(model).total() <= target {
                        incumbent = incumbent.max(ev.bips);
                    }
                    promoted.push(i);
                }
            }
        }

        // Escalating exact waves over the frontier in predicted-
        // performance order. Each wave is one parallel batch; each exact
        // feasible result can raise the incumbent and shrink the queue.
        let mut queue: Vec<usize> = frontier
            .into_iter()
            .filter(|i| !promoted.contains(i))
            .collect();
        queue.sort_by(|&a, &b| {
            scores[b]
                .bips
                .partial_cmp(&scores[a].bips)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        });
        let wave_len = surrogate.k_floor().max(1);
        while !queue.is_empty() {
            queue.retain(|&i| surrogate::hi(scores[i].bips, bounds.perf) >= incumbent);
            let wave: Vec<usize> = queue.drain(..wave_len.min(queue.len())).collect();
            if wave.is_empty() {
                break;
            }
            let jobs: Vec<_> = wave
                .iter()
                .map(|&i| (app, candidates[i].0, candidates[i].1))
                .collect();
            self.engine.evaluate_all(&jobs)?;
            for &i in &wave {
                let (a, d) = candidates[i];
                let ev = self.evaluation(app, a, d)?;
                if ev.application_fit(model).total() <= target {
                    incumbent = incumbent.max(ev.bips);
                }
                promoted.push(i);
            }
        }
        promoted.sort_unstable();
        sim_obs::counter!("surrogate.promoted", promoted.len() as u64);
        self.select_exact(
            app,
            candidates,
            &promoted,
            base,
            model,
            Some((surrogate, &scores)),
        )
    }

    /// The exact selection loop over `promoted` (indices into
    /// `candidates`, ascending, so original candidate order — and with
    /// it tie-breaking — is preserved). With `verify` present, every
    /// exact evaluation is compared against its surrogate prediction,
    /// feeding the running error pool and histograms.
    fn select_exact(
        &self,
        app: App,
        candidates: &[(ArchPoint, DvsPoint)],
        promoted: &[usize],
        base: (ArchPoint, DvsPoint),
        model: &ReliabilityModel,
        verify: Option<(&Surrogate, &[crate::surrogate::SurrogateScore])>,
    ) -> Result<DrmChoice, SimError> {
        let base_bips = self.evaluation(app, base.0, base.1)?.bips;
        let target = model.target_fit();
        let mut best_feasible: Option<DrmChoice> = None;
        let mut min_fit: Option<DrmChoice> = None;
        for &i in promoted {
            let (arch, dvs) = candidates[i];
            let ev = self.evaluation(app, arch, dvs)?;
            if let Some((surrogate, scores)) = verify {
                surrogate.record_verification(&scores[i], &ev, Some(model));
            }
            let fit = ev.application_fit(model).total();
            let choice = DrmChoice {
                arch,
                dvs,
                relative_performance: ev.bips / base_bips,
                fit,
                feasible: fit <= target,
            };
            if choice.feasible {
                let better = best_feasible
                    .as_ref()
                    .is_none_or(|b| choice.relative_performance > b.relative_performance);
                if better {
                    best_feasible = Some(choice.clone());
                }
            }
            let lower = min_fit.as_ref().is_none_or(|b| choice.fit < b.fit);
            if lower {
                min_fit = Some(choice);
            }
        }
        best_feasible
            .or(min_fit)
            .ok_or_else(|| SimError::infeasible("candidate set is empty"))
    }

    /// Like [`Oracle::best`], but also returns the wall-clock summary of
    /// the candidate-sweep batch pass (for drivers that report timing).
    ///
    /// # Errors
    ///
    /// Propagates evaluation errors.
    pub fn best_with_summary(
        &self,
        app: App,
        strategy: Strategy,
        model: &ReliabilityModel,
        dvs_step_ghz: f64,
    ) -> Result<(DrmChoice, SweepSummary), SimError> {
        let start = Instant::now();
        let mut summary = self.prefetch_suite(&[app], strategy, dvs_step_ghz)?;
        let choice = self.best(app, strategy, model, dvs_step_ghz)?;
        summary.wall = start.elapsed();
        Ok((choice, summary))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluator::EvalParams;
    use ramp::{FailureParams, QualificationPoint, ReliabilityModel};
    use sim_common::{Floorplan, Hertz, Kelvin, Volts};

    fn oracle() -> Oracle {
        Oracle::new(Evaluator::ibm_65nm(EvalParams::quick()).unwrap())
    }

    fn model(t_qual: f64) -> ReliabilityModel {
        ReliabilityModel::qualify(
            FailureParams::ramp_65nm(),
            &QualificationPoint::at_temperature(Kelvin(t_qual), 0.35),
            &Floorplan::r10000_65nm().area_shares(),
            4000.0,
        )
        .unwrap()
    }

    #[test]
    fn evaluations_are_cached() {
        let o = oracle();
        o.base_evaluation(App::Gzip).unwrap();
        o.base_evaluation(App::Gzip).unwrap();
        assert_eq!(o.evaluations_performed(), 1);
        // A DVS search over 6 frequencies adds 5 new evaluations (the base
        // point is already cached).
        o.best(App::Gzip, Strategy::Dvs, &model(370.0), 0.5)
            .unwrap();
        assert_eq!(o.evaluations_performed(), 6);
    }

    #[test]
    fn same_frequency_different_voltage_points_do_not_alias() {
        // Regression: the cache key once held only the frequency, so two
        // operating points with equal frequency and different voltages
        // collapsed to a single cached evaluation.
        let o = oracle();
        let arch = ArchPoint::most_aggressive();
        let nominal = DvsPoint {
            frequency: Hertz::from_ghz(4.0),
            vdd: Volts(1.0),
        };
        let undervolted = DvsPoint {
            frequency: Hertz::from_ghz(4.0),
            vdd: Volts(0.9),
        };
        let a = o.evaluation(App::Gzip, arch, nominal).unwrap();
        let b = o.evaluation(App::Gzip, arch, undervolted).unwrap();
        assert_eq!(
            o.evaluations_performed(),
            2,
            "distinct points must not alias"
        );
        assert_eq!(a.config.vdd, Volts(1.0));
        assert_eq!(b.config.vdd, Volts(0.9));
        // Lower voltage means measurably lower power for the same stream.
        assert!(b.average_power() < a.average_power());
    }

    #[test]
    fn generous_qualification_allows_overclocking() {
        // At T_qual = 400 K every app has reliability headroom: DVS should
        // pick a frequency above the base 4 GHz (§7.1).
        let o = oracle();
        let choice = o
            .best(App::Twolf, Strategy::Dvs, &model(400.0), 0.5)
            .unwrap();
        assert!(choice.feasible);
        assert!(
            choice.dvs.frequency.to_ghz() > 4.0,
            "chose {} GHz",
            choice.dvs.frequency.to_ghz()
        );
        assert!(choice.relative_performance > 1.0);
    }

    #[test]
    fn harsh_qualification_forces_throttling() {
        // At T_qual = 325 K a hot app must slow below base (§7.1).
        let o = oracle();
        let choice = o
            .best(App::MpgDec, Strategy::Dvs, &model(325.0), 0.5)
            .unwrap();
        assert!(
            choice.dvs.frequency.to_ghz() < 4.0,
            "chose {} GHz",
            choice.dvs.frequency.to_ghz()
        );
        assert!(choice.relative_performance < 1.0);
    }

    #[test]
    fn arch_strategy_never_exceeds_base_performance() {
        // §6.1: Arch cannot change frequency, so relative performance ≤ 1.
        let o = oracle();
        for t in [325.0, 400.0] {
            let choice = o.best(App::Bzip2, Strategy::Arch, &model(t), 0.5).unwrap();
            assert!(
                choice.relative_performance <= 1.0 + 1e-9,
                "Arch gave {} at T_qual {t}",
                choice.relative_performance
            );
        }
    }

    #[test]
    fn choice_respects_fit_target_when_feasible() {
        let o = oracle();
        let m = model(360.0);
        let choice = o.best(App::Equake, Strategy::Dvs, &m, 0.5).unwrap();
        if choice.feasible {
            assert!(choice.fit <= m.target_fit());
        }
    }

    #[test]
    fn archdvs_at_least_matches_dvs() {
        // ArchDVS's candidate set contains all of DVS's, so its optimum
        // cannot be worse.
        let o = oracle();
        let m = model(345.0);
        let dvs = o.best(App::Ammp, Strategy::Dvs, &m, 0.5).unwrap();
        let archdvs = o.best(App::Ammp, Strategy::ArchDvs, &m, 0.5).unwrap();
        assert!(archdvs.relative_performance >= dvs.relative_performance - 1e-9);
    }

    #[test]
    fn suite_max_activity_is_positive_probability() {
        let o = oracle();
        let a = o.suite_max_activity(&[App::Gzip, App::Twolf]).unwrap();
        assert!(a > 0.0 && a <= 1.0);
    }

    #[test]
    fn overlapping_misses_count_wall_time_once() {
        // Two threads miss on distinct cold points at once: the summary's
        // wall time is the union of the miss intervals, not their sum.
        let o = oracle();
        let barrier = std::sync::Barrier::new(2);
        let start = Instant::now();
        std::thread::scope(|scope| {
            for app in [App::Gzip, App::Twolf] {
                let (o, barrier) = (&o, &barrier);
                scope.spawn(move || {
                    barrier.wait();
                    o.base_evaluation(app).unwrap();
                });
            }
        });
        let elapsed = start.elapsed();
        let wall = o.summary().wall;
        assert!(!wall.is_zero());
        assert!(wall <= elapsed, "wall {wall:?} > elapsed {elapsed:?}");
    }

    #[test]
    fn summary_accumulates_across_searches() {
        let o = oracle();
        o.best(App::Gzip, Strategy::Dvs, &model(370.0), 0.5)
            .unwrap();
        let s = o.summary();
        assert_eq!(s.evaluations, 6);
        assert!(s.workers >= 1);
        // Scoring the same strategy again is pure cache hits.
        o.best(App::Gzip, Strategy::Dvs, &model(345.0), 0.5)
            .unwrap();
        let s2 = o.summary();
        assert_eq!(s2.evaluations, 6);
        assert!(s2.cache_hits > s.cache_hits);
    }
}
