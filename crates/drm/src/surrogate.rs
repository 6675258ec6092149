//! First-pass surrogate evaluator for DRM searches.
//!
//! The oracle (§5), the DTM comparison (§7.3) and the intra-application
//! scheduler all score every point of an adaptation × DVS grid, and each
//! point costs a cycle-level timing run — the dominant cost of `sweep`,
//! `drm` and server traffic. This module removes that wall with a
//! two-phase search:
//!
//! 1. **Calibrate.** A handful of *anchor* points spanning the grid run
//!    through the exact [`BatchEngine`] path. From the base run's
//!    [`TimingRun`](crate::evaluator::TimingRun) interval statistics we
//!    harvest a per-(app, op-class) cost table — the committed
//!    instruction mix over [`OpClass::ALL`] plus per-structure event
//!    rates — and fit a small linear CPI model in the microarchitectural
//!    knobs ([`ArchPoint`]: window/ALUs/FPUs) and the DVS point
//!    (frequency). The anchor evaluations double as warm cache entries.
//! 2. **Score and promote.** Every candidate is scored analytically
//!    (sub-microsecond: a dot product, one power/thermal fixed point on
//!    predicted activities, and a closed-form steady FIT). The measured
//!    surrogate-vs-exact error on the anchors — widened by a safety
//!    factor and a floor, and monotonically grown by every later
//!    verification — gives an interval around each prediction; only
//!    candidates whose interval could still contain the exact winner
//!    (the *frontier*) are promoted into the exact cycle-level path,
//!    with a conservative `top_k` floor. Each search's objective
//!    supplies the rule; the oracle then escalates the frontier in
//!    incumbent-pruned exact waves. The final selection runs over exact
//!    `Evaluation`s only, so the choice and all FIT numbers are
//!    bit-identical to exhaustive search whenever the error bound holds,
//!    and every promoted point is verified against its prediction,
//!    feeding the running error histogram.
//!
//! Every search enters through one call, `Surrogate::screen`. The
//! surrogate is attached to an [`Oracle`](crate::Oracle) via
//! [`Oracle::with_surrogate`](crate::Oracle::with_surrogate) and is off
//! by default everywhere.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use ramp::{Fit, ReliabilityModel, StructureConditions};
use sim_common::{Hertz, Kelvin, SimError, Structure, StructureMap};
use sim_cpu::{CoreConfig, IntervalStats};
use workload::{App, OpClass};

use crate::batch::{BatchEngine, TimingCacheKey};
use crate::dvs::DvsPoint;
use crate::evaluator::{Evaluation, Evaluator};
use crate::space::ArchPoint;

/// Number of features of the CPI regression.
const NFEAT: usize = 6;
/// Ridge regularizer: keeps the normal equations solvable when a grid
/// varies only some knobs (e.g. a DVS-only grid holds the window fixed,
/// making the window feature collinear with the intercept).
const RIDGE: f64 = 1e-9;
/// Measured anchor residuals are in-sample; widen them by this factor
/// before using them as promotion bounds.
const SAFETY: f64 = 1.5;
/// Minimum relative error bound, however well the anchors fit.
const EPS_FLOOR: f64 = 0.02;

/// Tuning knobs for the two-phase search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SurrogateParams {
    /// Conservative floor on the number of candidates promoted to the
    /// exact path per search. The provable frontier may exceed it.
    pub top_k: usize,
    /// Number of distinct applications that must have calibrated tables
    /// before promotion pruning activates; until then phase 1 scores but
    /// promotes every candidate (a safe warm-up that only grows the
    /// error pool).
    pub calibration_apps: usize,
}

impl Default for SurrogateParams {
    fn default() -> SurrogateParams {
        SurrogateParams {
            top_k: 8,
            calibration_apps: 1,
        }
    }
}

impl SurrogateParams {
    /// Validates the parameters.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] when a knob is zero.
    pub fn validate(&self) -> Result<(), SimError> {
        if self.top_k == 0 {
            return Err(SimError::invalid_config("surrogate top_k must be >= 1"));
        }
        if self.calibration_apps == 0 {
            return Err(SimError::invalid_config(
                "surrogate calibration_apps must be >= 1",
            ));
        }
        Ok(())
    }
}

/// One analytical prediction: performance, peak temperature, and the
/// predicted per-structure conditions from which any model's FIT can be
/// scored without re-prediction.
#[derive(Debug, Clone)]
pub struct SurrogateScore {
    /// Predicted billions of instructions per second.
    pub bips: f64,
    /// Predicted peak structure temperature.
    pub peak_temperature: Kelvin,
    conditions: StructureMap<StructureConditions>,
}

impl SurrogateScore {
    /// Predicted application FIT under `model` (closed-form steady-state
    /// scoring of the predicted conditions).
    pub fn fit(&self, model: &ReliabilityModel) -> Fit {
        model.steady_fit(&self.conditions)
    }
}

/// Effective relative error bounds used for promotion, per predicted
/// quantity. A bound ≥ 1 disables pruning on that quantity.
#[derive(Debug, Clone, Copy)]
struct ErrorBounds {
    /// Relative bound on predicted BIPS.
    perf: f64,
    /// Relative bound on predicted application FIT.
    fit: f64,
    /// Relative bound on predicted peak temperature.
    temp: f64,
}

/// What a search optimizes: it picks the promote rule a screen applies
/// and the reliability model (if any) scores are checked against.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Objective<'m> {
    /// The oracle (§5): fastest candidate within the FIT target.
    Fit(&'m ReliabilityModel),
    /// DTM (§7.3): highest frequency within `T_max`.
    Thermal(Kelvin),
    /// The intra-application scheduler: per-interval picks within the
    /// FIT budget.
    Schedule(&'m ReliabilityModel),
}

/// One screened candidate list, built by [`Surrogate::screen`].
pub(crate) struct Screen<'s> {
    /// The surrogate that screened.
    pub surrogate: &'s Surrogate,
    model: Option<&'s ReliabilityModel>,
    perf_bound: f64,
    /// True while pruning warms up: every candidate is promoted.
    pub warm: bool,
    /// The calibrated table; its anchors' exact evaluations are cached.
    pub table: Arc<AppTable>,
    /// Every candidate's score, in candidate order.
    pub scores: Vec<SurrogateScore>,
    /// Promoted candidate indices, ascending; every index during warm-up.
    pub promoted: Vec<usize>,
}

impl Screen<'_> {
    /// Guaranteed upper bound of candidate `i`'s exact BIPS.
    pub fn bips_hi(&self, i: usize) -> f64 {
        hi(self.scores[i].bips, self.perf_bound)
    }

    /// Checks exact evaluations (`(index, evaluation)` pairs of promoted
    /// candidates) against their predictions, growing the error pool
    /// later bounds are widened by.
    pub fn verify(&self, exact: &[(usize, Arc<Evaluation>)]) {
        sim_obs::counter!("surrogate.promoted", exact.len() as u64);
        for (i, ev) in exact {
            self.surrogate
                .record_verification(&self.scores[*i], ev, self.model);
        }
    }
}

/// The calibrated per-application cost table: instruction mix over
/// [`OpClass::ALL`], per-structure event rates, and the fitted CPI
/// coefficients. Configuration-free — one table serves every
/// ([`ArchPoint`], [`DvsPoint`]) and every reliability model.
#[derive(Debug, Clone)]
pub struct AppTable {
    /// Committed-instruction fraction per op class (`OpClass::index()`
    /// order).
    mix: [f64; 11],
    /// Structure events per committed instruction, with the same event
    /// numerators the cycle-level activity factors use.
    epi: StructureMap<f64>,
    /// CPI regression coefficients.
    coeffs: [f64; NFEAT],
    /// Anchor points whose exact evaluations calibrated the table.
    anchors: Vec<(ArchPoint, DvsPoint)>,
}

impl AppTable {
    /// The anchor points used for calibration (their exact evaluations
    /// live in the engine's cache).
    pub fn anchors(&self) -> &[(ArchPoint, DvsPoint)] {
        &self.anchors
    }

    /// The committed-instruction mix over [`OpClass::ALL`].
    pub fn mix(&self) -> &[f64; 11] {
        &self.mix
    }

    /// CPI regression features for a configuration: intercept, a memory
    /// term that grows with frequency (miss latency in cycles), window
    /// pressure, a frequency × window cross term (memory stall cycles
    /// shrink with the memory-level parallelism a larger window exposes),
    /// and per-op-class execution demand against the issue resources —
    /// the calibrated cost-table terms.
    fn features(&self, config: &CoreConfig) -> [f64; NFEAT] {
        let work = |classes: &[OpClass]| -> f64 {
            classes
                .iter()
                .map(|&c| self.mix[c.index()] * f64::from(c.latency()))
                .sum()
        };
        let int_work = work(&[OpClass::IntAlu, OpClass::IntMul, OpClass::IntDiv]);
        let fp_work = work(&[OpClass::FpAdd, OpClass::FpMul, OpClass::FpDiv]);
        let mem_frac = self.mix[OpClass::Load.index()] + self.mix[OpClass::Store.index()];
        let pressure = 16.0 / f64::from(config.window_size.max(1));
        [
            1.0,
            config.frequency.to_ghz() * mem_frac,
            pressure,
            config.frequency.to_ghz() * mem_frac * pressure,
            int_work / f64::from(config.int_alus.max(1)),
            fp_work / f64::from(config.fpus.max(1)),
        ]
    }

    /// Predicted cycles per instruction.
    fn cpi(&self, config: &CoreConfig) -> f64 {
        let phi = self.features(config);
        let raw: f64 = self.coeffs.iter().zip(phi.iter()).map(|(c, x)| c * x).sum();
        raw.max(0.05)
    }

    /// Scores one configuration analytically: CPI from the cost table,
    /// activities from the event rates against the configuration's peak
    /// bandwidths, then the same power ↔ thermal fixed point the exact
    /// evaluator iterates — on one averaged operating point instead of
    /// per interval.
    pub fn score(&self, evaluator: &Evaluator, config: &CoreConfig) -> SurrogateScore {
        let cpi = self.cpi(config);
        let ipc = (1.0 / cpi).min(f64::from(config.issue_width()));
        let issue_width = f64::from(config.issue_width());
        // Peak events per cycle, mirroring the activity-factor
        // denominators of the cycle-level interval statistics.
        let activity = StructureMap::from_fn(|s| {
            let peak = match s {
                Structure::Bpred => 2.0,
                Structure::Icache => 1.0,
                Structure::Dcache => f64::from(config.l1d_ports),
                Structure::IntAlu => f64::from(config.int_alus),
                Structure::Fpu => f64::from(config.fpus),
                Structure::IntRegFile => 3.0 * f64::from(config.int_alus + config.addr_gens),
                Structure::FpRegFile => 3.0 * f64::from(config.fpus),
                Structure::Window => f64::from(config.fetch_width) + 2.0 * issue_width,
                Structure::Lsq => f64::from(config.fetch_width) / 2.0 + f64::from(config.l1d_ports),
            };
            (self.epi[s] * ipc / peak.max(1e-9)).clamp(0.0, 1.0)
        });

        // One point whose sink follows its own total power.
        let mut temps = StructureMap::splat(Kelvin(345.0));
        evaluator.solver(config).sink_pass(
            std::iter::once(&activity),
            std::slice::from_mut(&mut temps),
            |powers| powers[0].total(),
        );

        let conditions = StructureMap::from_fn(|s| StructureConditions {
            temperature: temps[s],
            vdd: config.vdd,
            frequency: config.frequency,
            activity: activity[s],
            powered_fraction: config.powered_fraction(s),
        });
        let peak = Structure::ALL
            .into_iter()
            .map(|s| temps[s])
            .fold(Kelvin(f64::NEG_INFINITY), Kelvin::max);
        sim_obs::counter!("surrogate.score", 1);
        SurrogateScore {
            bips: ipc * config.frequency.to_ghz(),
            peak_temperature: peak,
            conditions,
        }
    }
}

/// Worst relative errors observed so far, per predicted quantity.
#[derive(Debug, Default, Clone, Copy)]
struct Observed {
    perf: f64,
    fit: f64,
    temp: f64,
}

#[derive(Debug, Default)]
struct SurrogateState {
    tables: HashMap<App, Arc<AppTable>>,
    observed: Observed,
}

/// The shared surrogate: calibrated per-application tables plus the
/// running error pool. Thread-safe; one instance is shared by every
/// clone of an [`Oracle`](crate::Oracle).
#[derive(Debug)]
pub struct Surrogate {
    params: SurrogateParams,
    state: Mutex<SurrogateState>,
}

impl Surrogate {
    /// Creates a surrogate.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] when `params` are invalid.
    pub fn new(params: SurrogateParams) -> Result<Surrogate, SimError> {
        params.validate()?;
        Ok(Surrogate {
            params,
            state: Mutex::new(SurrogateState::default()),
        })
    }

    /// The parameters in use.
    pub fn params(&self) -> &SurrogateParams {
        &self.params
    }

    /// The conservative promotion floor.
    pub fn k_floor(&self) -> usize {
        self.params.top_k
    }

    /// The shared state; a panicking holder leaves it consistent (one
    /// insert or max per update), so a poisoned lock is recovered.
    fn state(&self) -> MutexGuard<'_, SurrogateState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Number of applications with calibrated tables.
    pub fn calibrated_apps(&self) -> usize {
        self.state().tables.len()
    }

    /// True once enough applications are calibrated for promotion
    /// pruning to activate (before that, every candidate is promoted).
    fn prune_active(&self) -> bool {
        self.calibrated_apps() >= self.params.calibration_apps
    }

    /// Screens `candidates` for `objective`: the calibrated table for
    /// `app` (built on first use), the error bounds, every candidate's
    /// score, and the objective's promote rule — or every index while
    /// pruning is still warming up.
    ///
    /// # Errors
    ///
    /// Propagates evaluation errors.
    pub(crate) fn screen<'s>(
        &'s self,
        engine: &BatchEngine,
        app: App,
        candidates: &[(ArchPoint, DvsPoint)],
        base: (ArchPoint, DvsPoint),
        objective: Objective<'s>,
    ) -> Result<Screen<'s>, SimError> {
        let model = match objective {
            Objective::Fit(m) | Objective::Schedule(m) => Some(m),
            Objective::Thermal(_) => None,
        };
        let table = self.table_for(engine, app, candidates, base)?;
        let bounds = self.bounds(engine, app, &table, model)?;
        let scores = candidates
            .iter()
            .map(|&(a, d)| Ok(table.score(engine.evaluator(), &a.apply(engine.base_config(), d)?)))
            .collect::<Result<Vec<_>, SimError>>()?;
        let fits = |m: &ReliabilityModel| -> Vec<Fit> { scores.iter().map(|s| s.fit(m)).collect() };
        let (k, warm) = (self.k_floor(), !self.prune_active());
        let promoted = match objective {
            _ if warm => (0..candidates.len()).collect(),
            Objective::Fit(m) => promote_for_oracle(&scores, &fits(m), m.target_fit(), &bounds, k),
            Objective::Thermal(t_max) => {
                let freqs: Vec<Hertz> = candidates.iter().map(|c| c.1.frequency).collect();
                promote_for_dtm(&scores, &freqs, t_max, &bounds, k)
            }
            Objective::Schedule(m) => promote_for_intra(&scores, &fits(m), &bounds, k),
        };
        Ok(Screen {
            surrogate: self,
            model,
            perf_bound: bounds.perf,
            warm,
            table,
            scores,
            promoted,
        })
    }

    /// The calibrated table for `app`, building it on first use: anchor
    /// points spanning `candidates` (plus `base`) are evaluated exactly
    /// through `engine`, the cost table is harvested from the base
    /// timing run, and the CPI model is fitted to the anchors.
    ///
    /// # Errors
    ///
    /// Propagates evaluation errors.
    pub fn table_for(
        &self,
        engine: &BatchEngine,
        app: App,
        candidates: &[(ArchPoint, DvsPoint)],
        base: (ArchPoint, DvsPoint),
    ) -> Result<Arc<AppTable>, SimError> {
        if let Some(table) = self.state().tables.get(&app) {
            return Ok(table.clone());
        }
        let _span = sim_obs::span!("surrogate.calibrate");
        let anchors = select_anchors(candidates, base);
        let jobs: Vec<_> = anchors.iter().map(|&(a, d)| (app, a, d)).collect();
        engine.evaluate_all(&jobs)?;

        let base_config = base.0.apply(engine.base_config(), base.1)?;
        let timing = match engine
            .timing_cache()
            .get(&TimingCacheKey::new(app, &base_config))
        {
            Some(run) => run,
            // The cache is unbounded, so this only happens if eviction is
            // ever introduced; re-run rather than fail.
            None => Arc::new(
                engine
                    .evaluator()
                    .timing_run(&app.profile(), &base_config)?,
            ),
        };
        let (mix, epi) = harvest(timing.intervals());

        let mut probe = AppTable {
            mix,
            epi,
            coeffs: [0.0; NFEAT],
            anchors: anchors.clone(),
        };
        let mut rows = Vec::with_capacity(anchors.len());
        let mut cpis = Vec::with_capacity(anchors.len());
        for &(a, d) in &anchors {
            let config = a.apply(engine.base_config(), d)?;
            let ev = engine.evaluation(app, a, d)?;
            rows.push(probe.features(&config));
            cpis.push(if ev.ipc > 0.0 { 1.0 / ev.ipc } else { 0.0 });
        }
        probe.coeffs = solve_normal_equations(&rows, &cpis);
        let table = Arc::new(probe);

        let mut state = self.state();
        let entry = state.tables.entry(app).or_insert_with(|| {
            sim_obs::counter!("surrogate.calibrations", 1);
            table
        });
        Ok(entry.clone())
    }

    /// Effective error bounds for promotion: the anchors are re-scored
    /// through the surrogate and compared with their cached exact
    /// evaluations; the worst residual (pooled with every error observed
    /// by verification so far) is widened by [`SAFETY`] and floored at
    /// [`EPS_FLOOR`]. With `model` absent the FIT bound is conservative
    /// infinity (temperature-only searches don't need it).
    ///
    /// # Errors
    ///
    /// Propagates evaluation errors.
    fn bounds(
        &self,
        engine: &BatchEngine,
        app: App,
        table: &AppTable,
        model: Option<&ReliabilityModel>,
    ) -> Result<ErrorBounds, SimError> {
        let mut raw = Observed::default();
        for &(a, d) in table.anchors() {
            let config = a.apply(engine.base_config(), d)?;
            let ev = engine.evaluation(app, a, d)?;
            let score = table.score(engine.evaluator(), &config);
            raw.perf = raw.perf.max(rel_err(score.bips, ev.bips));
            raw.temp = raw
                .temp
                .max(rel_err(score.peak_temperature.0, ev.max_temperature().0));
            if let Some(m) = model {
                raw.fit = raw.fit.max(rel_err(
                    score.fit(m).value(),
                    ev.application_fit(m).total().value(),
                ));
            }
        }
        let observed = self.state().observed;
        let widen = |r: f64, o: f64| (SAFETY * r.max(o)).max(EPS_FLOOR);
        let bounds = ErrorBounds {
            perf: widen(raw.perf, observed.perf),
            fit: if model.is_some() {
                widen(raw.fit, observed.fit)
            } else {
                f64::INFINITY
            },
            temp: widen(raw.temp, observed.temp),
        };
        sim_obs::gauge!("surrogate.bound.perf", bounds.perf);
        sim_obs::gauge!("surrogate.bound.temp", bounds.temp);
        if model.is_some() {
            sim_obs::gauge!("surrogate.bound.fit", bounds.fit);
        }
        Ok(bounds)
    }

    /// Records a phase-2 verification: the promoted candidate's exact
    /// evaluation against its prediction. Grows the running error pool
    /// (future bounds only widen) and feeds the error histograms.
    fn record_verification(
        &self,
        predicted: &SurrogateScore,
        exact: &Evaluation,
        model: Option<&ReliabilityModel>,
    ) {
        let e_perf = rel_err(predicted.bips, exact.bips);
        let e_temp = rel_err(predicted.peak_temperature.0, exact.max_temperature().0);
        sim_obs::counter!("surrogate.verified", 1);
        sim_obs::hist!("surrogate.error.rel_perf", e_perf);
        sim_obs::hist!("surrogate.error.rel_temp", e_temp);
        let e_fit = model.map(|m| {
            let e = rel_err(
                predicted.fit(m).value(),
                exact.application_fit(m).total().value(),
            );
            sim_obs::hist!("surrogate.error.rel_fit", e);
            e
        });
        let mut state = self.state();
        state.observed.perf = state.observed.perf.max(e_perf);
        state.observed.temp = state.observed.temp.max(e_temp);
        if let Some(e) = e_fit {
            state.observed.fit = state.observed.fit.max(e);
        }
    }
}

/// Relative error of a prediction against the exact value.
fn rel_err(predicted: f64, exact: f64) -> f64 {
    (predicted - exact).abs() / exact.abs().max(1e-300)
}

/// Guaranteed lower bound of the exact value given prediction `x` and
/// relative error bound `e` (|x − exact| ≤ e·exact).
fn lo(x: f64, e: f64) -> f64 {
    x / (1.0 + e)
}

/// Guaranteed upper bound; infinite when the bound is vacuous (`e ≥ 1`).
fn hi(x: f64, e: f64) -> f64 {
    if e >= 1.0 {
        f64::INFINITY
    } else {
        x / (1.0 - e)
    }
}

/// Tops `keep` up to `k` entries using `rank` (descending) to break the
/// remainder, preferring lower indices on ties — deterministic at any
/// worker count.
fn fill_to_k(keep: &mut [bool], k: usize, rank: impl Fn(usize) -> f64) {
    let kept = keep.iter().filter(|&&b| b).count();
    if kept >= k {
        return;
    }
    let mut rest: Vec<usize> = (0..keep.len()).filter(|&i| !keep[i]).collect();
    rest.sort_by(|&a, &b| {
        rank(b)
            .partial_cmp(&rank(a))
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
    for &i in rest.iter().take(k - kept) {
        keep[i] = true;
    }
}

/// Promotion set for the oracle search (maximize performance subject to
/// `fit ≤ target`): every candidate that could be the exact winner given
/// the bounds, in original candidate order.
///
/// A candidate is *surely feasible* when even its upper FIT bound meets
/// the target, *possibly feasible* when its lower bound does. With at
/// least one surely feasible candidate the exact search returns the best
/// feasible point, so only possibly-feasible candidates whose upper
/// performance bound reaches the best guaranteed performance can win.
/// Otherwise the exact search may fall back to the minimum-FIT point, so
/// every candidate whose FIT interval overlaps the lowest upper bound is
/// kept too.
fn promote_for_oracle(
    scores: &[SurrogateScore],
    fits: &[Fit],
    target: Fit,
    bounds: &ErrorBounds,
    k: usize,
) -> Vec<usize> {
    let n = scores.len();
    let target = target.value();
    let mut keep = vec![false; n];
    let best_sure = (0..n)
        .filter(|&i| hi(fits[i].value(), bounds.fit) <= target)
        .map(|i| lo(scores[i].bips, bounds.perf))
        .fold(f64::NEG_INFINITY, f64::max);
    if best_sure.is_finite() {
        for i in 0..n {
            if lo(fits[i].value(), bounds.fit) <= target
                && hi(scores[i].bips, bounds.perf) >= best_sure
            {
                keep[i] = true;
            }
        }
    } else {
        let min_hi = fits
            .iter()
            .map(|f| hi(f.value(), bounds.fit))
            .fold(f64::INFINITY, f64::min);
        for i in 0..n {
            if lo(fits[i].value(), bounds.fit) <= target
                || lo(fits[i].value(), bounds.fit) <= min_hi
            {
                keep[i] = true;
            }
        }
    }
    fill_to_k(&mut keep, k.min(n), |i| scores[i].bips);
    (0..n).filter(|&i| keep[i]).collect()
}

/// Promotion set for the DTM search (highest frequency with peak
/// temperature ≤ `t_max`, coolest-point fallback), in original order.
fn promote_for_dtm(
    scores: &[SurrogateScore],
    frequencies: &[Hertz],
    t_max: Kelvin,
    bounds: &ErrorBounds,
    k: usize,
) -> Vec<usize> {
    let n = scores.len();
    let mut keep = vec![false; n];
    let f_star = (0..n)
        .filter(|&i| hi(scores[i].peak_temperature.0, bounds.temp) <= t_max.0)
        .map(|i| frequencies[i].0)
        .fold(f64::NEG_INFINITY, f64::max);
    if f_star.is_finite() {
        // Some point is surely feasible: only possibly-feasible points at
        // or above its frequency can be the exact winner.
        for i in 0..n {
            if lo(scores[i].peak_temperature.0, bounds.temp) <= t_max.0
                && frequencies[i].0 >= f_star
            {
                keep[i] = true;
            }
        }
    } else {
        // Nothing is provably feasible: keep every possible winner plus
        // every potential coolest-point fallback.
        let min_hi = scores
            .iter()
            .map(|s| hi(s.peak_temperature.0, bounds.temp))
            .fold(f64::INFINITY, f64::min);
        for i in 0..n {
            if lo(scores[i].peak_temperature.0, bounds.temp) <= t_max.0.max(min_hi) {
                keep[i] = true;
            }
        }
    }
    fill_to_k(&mut keep, k.min(n), |i| frequencies[i].0);
    (0..n).filter(|&i| keep[i]).collect()
}

/// Promotion set for the intra-application scheduler, in original order:
/// a candidate is pruned only when another candidate is faster *and*
/// lower-FIT with certainty at the whole-run level (strict dominance
/// outside both error intervals). Run-level dominance does not formally
/// imply per-interval dominance, so this prunes only far-dominated
/// points; the margins make inversions vanishingly unlikely and the
/// parity suite checks the schedules bit-for-bit.
fn promote_for_intra(
    scores: &[SurrogateScore],
    fits: &[Fit],
    bounds: &ErrorBounds,
    k: usize,
) -> Vec<usize> {
    let n = scores.len();
    let mut keep = vec![true; n];
    for i in 0..n {
        let dominated = (0..n).any(|j| {
            j != i
                && lo(scores[j].bips, bounds.perf) > hi(scores[i].bips, bounds.perf)
                && hi(fits[j].value(), bounds.fit) < lo(fits[i].value(), bounds.fit)
        });
        if dominated {
            keep[i] = false;
        }
    }
    fill_to_k(&mut keep, k.min(n), |i| scores[i].bips);
    (0..n).filter(|&i| keep[i]).collect()
}

/// Picks calibration anchors: the base point, the ends and middle of the
/// candidate list, and the corners of the (window, frequency) envelope —
/// the regression's extrapolation extremes. Deduplicated, order-stable,
/// ≤ 8 points; every anchor is an exact evaluation the search pays for,
/// so the set is kept as small as the fit allows.
fn select_anchors(
    candidates: &[(ArchPoint, DvsPoint)],
    base: (ArchPoint, DvsPoint),
) -> Vec<(ArchPoint, DvsPoint)> {
    fn push_unique(v: &mut Vec<(ArchPoint, DvsPoint)>, c: (ArchPoint, DvsPoint)) {
        if !v.contains(&c) {
            v.push(c);
        }
    }
    let mut anchors = vec![base];
    let n = candidates.len();
    if n == 0 {
        return anchors;
    }
    for idx in [0, n / 2, n - 1] {
        push_unique(&mut anchors, candidates[idx]);
    }
    let windows: Vec<u32> = candidates.iter().map(|c| c.0.window).collect();
    for &w in &[
        *windows.iter().min().expect("non-empty"),
        *windows.iter().max().expect("non-empty"),
    ] {
        let at_w = || candidates.iter().filter(move |c| c.0.window == w);
        if let Some(&c) = at_w().min_by(|a, b| a.1.frequency.0.total_cmp(&b.1.frequency.0)) {
            push_unique(&mut anchors, c);
        }
        if let Some(&c) = at_w().max_by(|a, b| a.1.frequency.0.total_cmp(&b.1.frequency.0)) {
            push_unique(&mut anchors, c);
        }
    }
    anchors
}

/// Harvests the per-op-class commit mix and per-structure event rates
/// from cycle-level interval statistics, using the same event numerators
/// the activity factors are built from.
fn harvest(intervals: &[IntervalStats]) -> ([f64; 11], StructureMap<f64>) {
    let mut commits = [0u64; 11];
    let mut events = StructureMap::splat(0u64);
    for iv in intervals {
        for (i, &n) in iv.counters.class_commits.iter().enumerate() {
            commits[i] += n;
        }
        events[Structure::Bpred] += iv.bpred.lookups + iv.bpred.updates;
        events[Structure::Icache] += iv.l1i.accesses;
        events[Structure::Dcache] += iv.l1d.accesses;
        events[Structure::IntAlu] += iv.counters.int_busy;
        events[Structure::Fpu] += iv.counters.fp_busy;
        events[Structure::IntRegFile] += iv.int_regfile.reads + iv.int_regfile.writes;
        events[Structure::FpRegFile] += iv.fp_regfile.reads + iv.fp_regfile.writes;
        events[Structure::Window] +=
            iv.counters.window_writes + iv.counters.window_wakeups + iv.counters.window_issues;
        events[Structure::Lsq] += iv.counters.lsq_inserts + iv.counters.lsq_searches;
    }
    let instructions = intervals
        .iter()
        .map(|iv| iv.instructions)
        .sum::<u64>()
        .max(1) as f64;
    let mut mix = [0.0; 11];
    for (m, &n) in mix.iter_mut().zip(&commits) {
        *m = n as f64 / instructions;
    }
    let epi = StructureMap::from_fn(|s| events[s] as f64 / instructions);
    (mix, epi)
}

/// Solves the ridge-regularized normal equations `(XᵀX + λI)c = Xᵀy` by
/// Gaussian elimination with partial pivoting.
fn solve_normal_equations(rows: &[[f64; NFEAT]], y: &[f64]) -> [f64; NFEAT] {
    let mut a = [[0.0f64; NFEAT]; NFEAT];
    let mut b = [0.0f64; NFEAT];
    for (row, &yi) in rows.iter().zip(y) {
        for i in 0..NFEAT {
            b[i] += row[i] * yi;
            for j in 0..NFEAT {
                a[i][j] += row[i] * row[j];
            }
        }
    }
    for (i, row) in a.iter_mut().enumerate() {
        row[i] += RIDGE;
    }
    for col in 0..NFEAT {
        let pivot = (col..NFEAT)
            .max_by(|&i, &j| a[i][col].abs().total_cmp(&a[j][col].abs()))
            .expect("non-empty range");
        a.swap(col, pivot);
        b.swap(col, pivot);
        let diag = a[col][col];
        if diag.abs() < 1e-30 {
            continue;
        }
        let pivot_row = a[col];
        for row in col + 1..NFEAT {
            let factor = a[row][col] / diag;
            for (entry, &p) in a[row][col..].iter_mut().zip(&pivot_row[col..]) {
                *entry -= factor * p;
            }
            b[row] -= factor * b[col];
        }
    }
    let mut c = [0.0f64; NFEAT];
    for row in (0..NFEAT).rev() {
        let mut sum = b[row];
        for k in row + 1..NFEAT {
            sum -= a[row][k] * c[k];
        }
        c[row] = if a[row][row].abs() < 1e-30 {
            0.0
        } else {
            sum / a[row][row]
        };
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dvs::frequency_grid;
    use crate::evaluator::EvalParams;
    use crate::space::Strategy;
    use ramp::{FailureParams, QualificationPoint};
    use sim_common::Floorplan;

    fn fake_score(bips: f64, peak: f64) -> SurrogateScore {
        SurrogateScore {
            bips,
            peak_temperature: Kelvin(peak),
            conditions: StructureMap::from_fn(|_| StructureConditions {
                temperature: Kelvin(peak),
                vdd: sim_common::Volts(1.0),
                frequency: Hertz::from_ghz(4.0),
                activity: 0.3,
                powered_fraction: 1.0,
            }),
        }
    }

    #[test]
    fn params_validate() {
        assert!(SurrogateParams::default().validate().is_ok());
        assert!(SurrogateParams {
            top_k: 0,
            ..SurrogateParams::default()
        }
        .validate()
        .is_err());
        assert!(SurrogateParams {
            calibration_apps: 0,
            ..SurrogateParams::default()
        }
        .validate()
        .is_err());
    }

    #[test]
    fn least_squares_recovers_linear_model() {
        // y = 2 + 3·x1 − x3 exactly.
        let rows: Vec<[f64; NFEAT]> = (0..8)
            .map(|i| {
                let x1 = i as f64 * 0.5;
                let x3 = (i % 3) as f64;
                [1.0, x1, 0.25 * i as f64, x3, 0.1, (i % 2) as f64]
            })
            .collect();
        let y: Vec<f64> = rows.iter().map(|r| 2.0 + 3.0 * r[1] - r[3]).collect();
        let c = solve_normal_equations(&rows, &y);
        for (row, want) in rows.iter().zip(&y) {
            let got: f64 = c.iter().zip(row).map(|(a, b)| a * b).sum();
            assert!((got - want).abs() < 1e-6, "{got} vs {want}");
        }
    }

    #[test]
    fn oracle_promotion_keeps_every_possible_winner() {
        // Candidate 1 is surely feasible with the best performance;
        // candidate 0 is possibly feasible and possibly faster, so it
        // must be kept; candidate 2 is surely infeasible and far slower.
        let scores = vec![
            fake_score(10.0, 360.0),
            fake_score(9.8, 350.0),
            fake_score(2.0, 420.0),
        ];
        let fits = vec![Fit(105.0), Fit(80.0), Fit(500.0)];
        let bounds = ErrorBounds {
            perf: 0.05,
            fit: 0.10,
            temp: 0.05,
        };
        let kept = promote_for_oracle(&scores, &fits, Fit(100.0), &bounds, 1);
        assert!(kept.contains(&0), "possible winner pruned");
        assert!(kept.contains(&1), "sure winner pruned");
    }

    #[test]
    fn oracle_promotion_keeps_min_fit_fallback_when_nothing_feasible() {
        let scores = vec![fake_score(10.0, 400.0), fake_score(8.0, 390.0)];
        let fits = vec![Fit(300.0), Fit(280.0)];
        let bounds = ErrorBounds {
            perf: 0.05,
            fit: 0.05,
            temp: 0.05,
        };
        // Target far below anything: the exact search falls back to the
        // minimum-FIT candidate, which the bounds cannot separate.
        let kept = promote_for_oracle(&scores, &fits, Fit(1.0), &bounds, 1);
        assert!(kept.contains(&1));
    }

    #[test]
    fn vacuous_bounds_promote_everything() {
        let scores = vec![fake_score(10.0, 400.0), fake_score(8.0, 390.0)];
        let fits = vec![Fit(90.0), Fit(80.0)];
        let bounds = ErrorBounds {
            perf: 2.0,
            fit: 2.0,
            temp: 2.0,
        };
        let kept = promote_for_oracle(&scores, &fits, Fit(100.0), &bounds, 1);
        assert_eq!(kept, vec![0, 1]);
    }

    #[test]
    fn dtm_promotion_keeps_fastest_feasible_and_possible_overtakers() {
        let scores = vec![
            fake_score(8.0, 340.0),  // 3 GHz, surely cool
            fake_score(9.0, 368.0),  // 4 GHz, possibly cool
            fake_score(10.0, 420.0), // 5 GHz, surely hot
        ];
        let freqs = vec![
            Hertz::from_ghz(3.0),
            Hertz::from_ghz(4.0),
            Hertz::from_ghz(5.0),
        ];
        let bounds = ErrorBounds {
            perf: 0.05,
            fit: f64::INFINITY,
            temp: 0.03,
        };
        let kept = promote_for_dtm(&scores, &freqs, Kelvin(370.0), &bounds, 1);
        assert!(kept.contains(&0), "surely feasible max-frequency point");
        assert!(kept.contains(&1), "possible overtaker pruned");
        assert!(!kept.contains(&2), "surely-hot point should be pruned");
    }

    #[test]
    fn k_floor_tops_up_promotions() {
        let scores: Vec<SurrogateScore> =
            (0..6).map(|i| fake_score(10.0 - i as f64, 430.0)).collect();
        let freqs: Vec<Hertz> = (0..6)
            .map(|i| Hertz::from_ghz(5.0 - i as f64 * 0.4))
            .collect();
        let bounds = ErrorBounds {
            perf: 0.02,
            fit: f64::INFINITY,
            temp: 0.02,
        };
        // Everything is surely hot, so only the coolest fallback set is
        // provably needed — the floor still promotes 4.
        let kept = promote_for_dtm(&scores, &freqs, Kelvin(300.0), &bounds, 4);
        assert!(kept.len() >= 4);
    }

    #[test]
    fn intra_promotion_never_prunes_mutually_nondominated_points() {
        // Classic DVS tradeoff: faster is always higher-FIT, so nothing
        // dominates anything and nothing may be pruned.
        let scores: Vec<SurrogateScore> =
            (0..5).map(|i| fake_score(6.0 + i as f64, 350.0)).collect();
        let fits: Vec<Fit> = (0..5).map(|i| Fit(50.0 + 20.0 * i as f64)).collect();
        let bounds = ErrorBounds {
            perf: 0.05,
            fit: 0.05,
            temp: 0.05,
        };
        let kept = promote_for_intra(&scores, &fits, &bounds, 1);
        assert_eq!(kept, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn intra_promotion_prunes_far_dominated_points() {
        let scores = vec![fake_score(10.0, 350.0), fake_score(2.0, 380.0)];
        let fits = vec![Fit(50.0), Fit(200.0)];
        let bounds = ErrorBounds {
            perf: 0.05,
            fit: 0.05,
            temp: 0.05,
        };
        let kept = promote_for_intra(&scores, &fits, &bounds, 1);
        assert_eq!(kept, vec![0]);
    }

    #[test]
    fn anchors_span_the_grid_and_include_base() {
        let candidates = Strategy::ArchDvs.candidates(0.25);
        let base = (ArchPoint::most_aggressive(), DvsPoint::base());
        let anchors = select_anchors(&candidates, base);
        assert!(anchors.contains(&base));
        assert!(anchors.len() <= 10);
        let windows: Vec<u32> = anchors.iter().map(|a| a.0.window).collect();
        assert!(windows.contains(&128));
        assert!(windows.contains(&16));
        // Dedup holds.
        let mut seen = Vec::new();
        for a in &anchors {
            assert!(!seen.contains(a), "duplicate anchor");
            seen.push(*a);
        }
    }

    #[test]
    fn empty_candidate_set_yields_base_anchor_only() {
        let base = (ArchPoint::most_aggressive(), DvsPoint::base());
        assert_eq!(select_anchors(&[], base), vec![base]);
    }

    #[test]
    fn calibrated_table_predicts_anchor_cpi_closely() {
        let engine = BatchEngine::with_workers(
            Evaluator::ibm_65nm(EvalParams::quick()).expect("evaluator"),
            1,
        );
        let surrogate = Surrogate::new(SurrogateParams::default()).expect("surrogate");
        let base = (ArchPoint::most_aggressive(), DvsPoint::base());
        let candidates: Vec<_> = frequency_grid(0.5)
            .into_iter()
            .map(|d| (ArchPoint::most_aggressive(), d))
            .collect();
        let table = surrogate
            .table_for(&engine, App::Gzip, &candidates, base)
            .expect("table");
        assert!(surrogate.prune_active());
        assert_eq!(surrogate.calibrated_apps(), 1);
        // Mix is a probability distribution over op classes.
        let total: f64 = table.mix().iter().sum();
        assert!((total - 1.0).abs() < 1e-9, "mix sums to {total}");
        // At the anchors themselves the regression must be tight.
        for &(a, d) in table.anchors() {
            let config = a.apply(engine.base_config(), d).expect("config");
            let ev = engine.evaluation(App::Gzip, a, d).expect("cached");
            let score = table.score(engine.evaluator(), &config);
            let err = rel_err(score.bips, ev.bips);
            assert!(
                err < 0.25,
                "anchor {a} @ {:.2} GHz err {err}",
                d.frequency.to_ghz()
            );
        }
        // Bounds reflect the anchors plus the floor.
        let model = ReliabilityModel::qualify(
            FailureParams::ramp_65nm(),
            &QualificationPoint::at_temperature(Kelvin(370.0), 0.4),
            &Floorplan::r10000_65nm().area_shares(),
            4000.0,
        )
        .expect("model");
        let bounds = surrogate
            .bounds(&engine, App::Gzip, &table, Some(&model))
            .expect("bounds");
        assert!(bounds.perf >= EPS_FLOOR);
        assert!(bounds.fit >= EPS_FLOOR);
        assert!(bounds.temp >= EPS_FLOOR);
        // Second lookup is a pure cache hit returning the same table.
        let again = surrogate
            .table_for(&engine, App::Gzip, &candidates, base)
            .expect("table");
        assert!(Arc::ptr_eq(&table, &again));
    }

    #[test]
    fn verification_grows_the_error_pool() {
        let surrogate = Surrogate::new(SurrogateParams::default()).expect("surrogate");
        let engine = BatchEngine::with_workers(
            Evaluator::ibm_65nm(EvalParams::quick()).expect("evaluator"),
            1,
        );
        let base = (ArchPoint::most_aggressive(), DvsPoint::base());
        let ev = engine.evaluation(App::Gzip, base.0, base.1).expect("eval");
        // A prediction that is off by 50% must widen the perf bound past
        // the floor for all later searches.
        let bad = fake_score(ev.bips * 1.5, ev.max_temperature().0);
        surrogate.record_verification(&bad, &ev, None);
        let table = surrogate
            .table_for(&engine, App::Gzip, &[], base)
            .expect("table");
        let bounds = surrogate
            .bounds(&engine, App::Gzip, &table, None)
            .expect("bounds");
        assert!(
            bounds.perf >= SAFETY * 0.5 - 1e-9,
            "pool ignored: {}",
            bounds.perf
        );
    }
}
