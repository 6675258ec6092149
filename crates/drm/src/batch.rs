//! Parallel batch evaluation with a shared, thread-safe cache.
//!
//! The paper's methodology is sweeps: oracular DRM evaluates every
//! (application × [`ArchPoint`] × [`DvsPoint`]) candidate, and every
//! figure reproduction re-runs the full timing → power → thermal pipeline
//! per point. Evaluations are independent of the qualification point
//! (§6.3), so the expensive pipeline runs once per operating point and
//! the cheap FIT scoring happens per [`ReliabilityModel`] afterwards —
//! which makes the pipeline embarrassingly parallel.
//!
//! [`BatchEngine`] takes a work list of (App, ArchPoint, DvsPoint) jobs,
//! deduplicates it against the shared [`EvalCache`], and fans the misses
//! out across a scoped-thread worker pool (`std::thread::scope`, one
//! [`Evaluator`] clone per worker — std only, no external dependencies).
//! Results land in the cache keyed on the *full* operating point
//! ([`EvalKey`] carries both frequency and voltage in fixed-point form,
//! so same-frequency/different-voltage points can never alias).
//!
//! [`ReliabilityModel`]: ramp::ReliabilityModel

use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use sim_common::SimError;
use sim_cpu::{CoreConfig, TimingKey};
use workload::App;

use crate::dvs::DvsPoint;
use crate::evaluator::{Evaluation, Evaluator, TimingRun};
use crate::space::ArchPoint;
use crate::store::EvalStore;

/// Number of independently locked cache shards. Shard contention is the
/// only synchronization between workers, and evaluations take O(100 ms)
/// against O(100 ns) map operations, so a modest constant suffices.
const SHARDS: usize = 16;

/// Cache key for one (application, operating point) evaluation.
///
/// The operating point is the *full* (ArchPoint, frequency, voltage)
/// triple. Frequency and voltage are stored in fixed-point form (kHz and
/// microvolts) because [`DvsPoint`] carries `f64` fields that cannot be
/// hashed directly; at those resolutions every grid the sweeps use maps
/// to distinct keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EvalKey {
    /// The workload.
    pub app: App,
    /// The microarchitectural adaptation point.
    pub arch: ArchPoint,
    /// Clock frequency in kHz.
    pub freq_khz: u64,
    /// Supply voltage in microvolts.
    pub vdd_uv: u64,
}

impl EvalKey {
    /// Builds the key for `app` at (`arch`, `dvs`).
    #[must_use]
    pub fn new(app: App, arch: ArchPoint, dvs: DvsPoint) -> EvalKey {
        EvalKey {
            app,
            arch,
            freq_khz: (dvs.frequency.to_ghz() * 1e6).round() as u64,
            vdd_uv: (dvs.vdd.0 * 1e6).round() as u64,
        }
    }

    fn shard(&self) -> usize {
        let mut h = DefaultHasher::new();
        self.hash(&mut h);
        (h.finish() as usize) % SHARDS
    }
}

/// Cache key for one cycle-level timing run: the workload plus the
/// timing-relevant projection of the configuration.
///
/// Timing depends on a [`CoreConfig`] only through its
/// [`timing_key`](CoreConfig::timing_key) — never the supply voltage —
/// so every voltage of a DVS grid at one frequency maps to the same
/// `TimingCacheKey` and shares one cached [`TimingRun`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimingCacheKey {
    /// The workload.
    pub app: App,
    /// The timing-relevant configuration fields (everything except vdd).
    pub key: TimingKey,
}

impl TimingCacheKey {
    /// Builds the key for `app` on `config`.
    #[must_use]
    pub fn new(app: App, config: &CoreConfig) -> TimingCacheKey {
        TimingCacheKey {
            app,
            key: config.timing_key(),
        }
    }

    fn shard(&self) -> usize {
        let mut h = DefaultHasher::new();
        self.hash(&mut h);
        (h.finish() as usize) % SHARDS
    }
}

/// A sharded, thread-safe cache of cycle-level timing runs, shared by
/// every worker alongside the [`EvalCache`].
///
/// The timing stage dominates evaluation cost (cycle simulation vs. a
/// handful of prefactored thermal solves), so serving it from here turns
/// an N-voltage DVS grid into one timing run plus N cheap power/thermal
/// passes.
#[derive(Debug, Default)]
pub struct TimingCache {
    shards: [Mutex<HashMap<TimingCacheKey, Arc<TimingRun>>>; SHARDS],
    hits: AtomicU64,
    misses: AtomicU64,
}

impl TimingCache {
    /// An empty cache.
    #[must_use]
    pub fn new() -> TimingCache {
        TimingCache::default()
    }

    /// Looks up `key`, counting a hit or a miss.
    pub fn get(&self, key: &TimingCacheKey) -> Option<Arc<TimingRun>> {
        let found = self.shards[key.shard()]
            .lock()
            .expect("timing cache shard lock poisoned")
            .get(key)
            .cloned();
        match found {
            Some(_) => {
                sim_obs::counter!("drm.timing_cache.hit", 1);
                self.hits.fetch_add(1, Ordering::Relaxed)
            }
            None => {
                sim_obs::counter!("drm.timing_cache.miss", 1);
                self.misses.fetch_add(1, Ordering::Relaxed)
            }
        };
        found
    }

    /// Inserts a timing run, returning the cached [`Arc`]. First insert
    /// wins on a race (timing is deterministic, so both are equal).
    pub fn insert(&self, key: TimingCacheKey, run: TimingRun) -> Arc<TimingRun> {
        self.shards[key.shard()]
            .lock()
            .expect("timing cache shard lock poisoned")
            .entry(key)
            .or_insert_with(|| Arc::new(run))
            .clone()
    }

    /// Number of cached timing runs.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("timing cache shard lock poisoned").len())
            .sum()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookups served from the cache — timing runs *not* re-simulated.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that required a fresh cycle simulation.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }
}

/// A sharded, thread-safe evaluation cache shared by every worker (and
/// every thread holding a reference to the owning [`BatchEngine`] /
/// `Oracle`).
///
/// Completed evaluations are stored behind [`Arc`] so lookups hand out
/// cheap clones instead of holding a shard lock across use.
#[derive(Debug, Default)]
pub struct EvalCache {
    shards: [Mutex<HashMap<EvalKey, Arc<Evaluation>>>; SHARDS],
    hits: AtomicU64,
    misses: AtomicU64,
    /// Summed single-evaluation wall time of every insert (the
    /// sequential-equivalent cost of the work done so far).
    busy_ns: AtomicU64,
    /// Elapsed wall time while at least one batch pass or cache-miss
    /// evaluation was in flight.
    wall_ns: AtomicU64,
    /// Passes and misses in flight, and when the count last left zero.
    in_flight: Mutex<(usize, Option<Instant>)>,
}

impl EvalCache {
    /// An empty cache.
    #[must_use]
    pub fn new() -> EvalCache {
        EvalCache::default()
    }

    /// Looks up `key`, counting a hit or a miss.
    pub fn get(&self, key: &EvalKey) -> Option<Arc<Evaluation>> {
        let found = self.shards[key.shard()]
            .lock()
            .expect("cache shard lock poisoned")
            .get(key)
            .cloned();
        match found {
            Some(_) => {
                sim_obs::counter!("drm.cache.hits", 1);
                self.hits.fetch_add(1, Ordering::Relaxed)
            }
            None => {
                sim_obs::counter!("drm.cache.misses", 1);
                self.misses.fetch_add(1, Ordering::Relaxed)
            }
        };
        found
    }

    /// Peeks at `key` without touching the hit/miss counters (used for
    /// dedup, where a hit is not a served lookup).
    pub fn peek(&self, key: &EvalKey) -> Option<Arc<Evaluation>> {
        self.shards[key.shard()]
            .lock()
            .expect("cache shard lock poisoned")
            .get(key)
            .cloned()
    }

    /// Inserts an evaluation, returning the cached [`Arc`]. If another
    /// worker raced us to the same key, the first insert wins and its
    /// value is returned (evaluations are deterministic, so both values
    /// are equal anyway).
    pub fn insert(&self, key: EvalKey, ev: Evaluation) -> Arc<Evaluation> {
        self.busy_ns
            .fetch_add(ev.stats.wall().as_nanos() as u64, Ordering::Relaxed);
        self.shards[key.shard()]
            .lock()
            .expect("cache shard lock poisoned")
            .entry(key)
            .or_insert_with(|| Arc::new(ev))
            .clone()
    }

    /// Number of cached evaluations.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard lock poisoned").len())
            .sum()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookups served from the cache.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that required (or will require) a fresh evaluation.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Summed per-evaluation wall time across all inserts.
    pub fn busy(&self) -> Duration {
        Duration::from_nanos(self.busy_ns.load(Ordering::Relaxed))
    }

    /// Elapsed wall time during which at least one batch pass or
    /// cache-miss evaluation was in flight: the union of their intervals,
    /// so work that overlaps is counted once.
    pub fn wall(&self) -> Duration {
        Duration::from_nanos(self.wall_ns.load(Ordering::Relaxed))
    }

    /// Marks evaluation work in flight until the returned guard drops.
    fn busy_span(&self) -> BusySpan<'_> {
        let mut open = self
            .in_flight
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if open.0 == 0 {
            open.1 = Some(Instant::now());
        }
        open.0 += 1;
        BusySpan(self)
    }
}

/// An open [`EvalCache::busy_span`]; the last one to close adds the
/// interval since the first opened to the cache's wall time.
struct BusySpan<'a>(&'a EvalCache);

impl Drop for BusySpan<'_> {
    fn drop(&mut self) {
        let mut open = self
            .0
            .in_flight
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        open.0 -= 1;
        if open.0 == 0 {
            if let Some(since) = open.1.take() {
                self.0
                    .wall_ns
                    .fetch_add(since.elapsed().as_nanos() as u64, Ordering::Relaxed);
            }
        }
    }
}

/// Aggregate statistics for sweeps run through a [`BatchEngine`],
/// printable as the one-line sweep summary every driver emits.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SweepSummary {
    /// Worker threads used for parallel passes.
    pub workers: usize,
    /// Evaluations performed (cache misses that ran the pipeline).
    pub evaluations: u64,
    /// Lookups served straight from the cache.
    pub cache_hits: u64,
    /// Cycle-level timing simulations actually run (timing-cache misses).
    pub timing_runs: u64,
    /// Evaluations that reused a cached timing run instead of
    /// re-simulating (the voltage-invariance dividend).
    pub timing_reuses: u64,
    /// Wall time spent inside batch passes and cache-miss evaluations.
    pub wall: Duration,
    /// Summed single-evaluation wall time — the sequential-equivalent
    /// cost, so `busy / wall` estimates the realized speedup.
    pub busy: Duration,
}

impl SweepSummary {
    /// Folds another pass's summary into this one: counters add, wall
    /// and busy times add, and the worker count takes the maximum.
    ///
    /// This is how a caller that runs several passes (a benchmark
    /// accumulating rounds, say) reports one total: every counter is an
    /// exact sum, so the fold order does not change the counters.
    pub fn merge(&mut self, other: &SweepSummary) {
        self.workers = self.workers.max(other.workers);
        self.evaluations += other.evaluations;
        self.cache_hits += other.cache_hits;
        self.timing_runs += other.timing_runs;
        self.timing_reuses += other.timing_reuses;
        self.wall += other.wall;
        self.busy += other.busy;
    }

    /// Evaluations per wall-clock second.
    #[must_use]
    pub fn evals_per_second(&self) -> f64 {
        if self.wall.is_zero() {
            0.0
        } else {
            self.evaluations as f64 / self.wall.as_secs_f64()
        }
    }

    /// Realized parallel speedup: summed per-evaluation wall time over
    /// elapsed wall time (1.0 = sequential).
    #[must_use]
    pub fn speedup(&self) -> f64 {
        if self.wall.is_zero() {
            1.0
        } else {
            self.busy.as_secs_f64() / self.wall.as_secs_f64()
        }
    }
}

impl fmt::Display for SweepSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "sweep: {} jobs | {} evals, {} cache hits | timing {} runs, {} reused | {:.1} evals/s | wall {:.2} s | speedup {:.2}x",
            self.workers,
            self.evaluations,
            self.cache_hits,
            self.timing_runs,
            self.timing_reuses,
            self.evals_per_second(),
            self.wall.as_secs_f64(),
            self.speedup(),
        )
    }
}

/// Returns the default worker count: `available_parallelism()`, or 1
/// when the runtime cannot tell.
#[must_use]
pub fn default_workers() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The parallel batch-evaluation engine: a scoped-thread worker pool
/// over a shared [`EvalCache`].
///
/// Cloning the engine is cheap and shares the cache (and its counters),
/// which is how one warm cache serves many sweep drivers.
#[derive(Debug, Clone)]
pub struct BatchEngine {
    evaluator: Evaluator,
    base_config: CoreConfig,
    cache: Arc<EvalCache>,
    timing: Arc<TimingCache>,
    workers: usize,
    store: Option<Arc<EvalStore>>,
}

impl BatchEngine {
    /// An engine over `evaluator` with [`default_workers`] workers.
    #[must_use]
    pub fn new(evaluator: Evaluator) -> BatchEngine {
        BatchEngine::with_workers(evaluator, default_workers())
    }

    /// An engine with an explicit worker count (`0` means the default).
    #[must_use]
    pub fn with_workers(evaluator: Evaluator, workers: usize) -> BatchEngine {
        BatchEngine {
            evaluator,
            base_config: CoreConfig::base(),
            cache: Arc::new(EvalCache::new()),
            timing: Arc::new(TimingCache::new()),
            workers: if workers == 0 {
                default_workers()
            } else {
                workers
            },
            store: None,
        }
    }

    /// Replaces the base configuration adaptation points are applied to
    /// (default: [`CoreConfig::base`]). Scenario-driven engines anchor the
    /// adaptation space to the scenario's processor instead.
    #[must_use]
    pub fn with_base_config(mut self, base_config: CoreConfig) -> BatchEngine {
        self.base_config = base_config;
        self
    }

    /// Attaches a persistent evaluation store: every record loaded from
    /// disk pre-warms the shared [`TimingCache`] (so already-stored
    /// points cost zero timing runs), and every fresh timing run is
    /// appended write-through. Call *after* [`with_base_config`]
    /// (BatchEngine::with_base_config): records are reconstructed
    /// against the engine's base configuration, and a record whose
    /// adaptation point does not apply to it (a foreign store) is
    /// skipped — the store is a cache, not a source of truth.
    ///
    /// [`with_base_config`]: BatchEngine::with_base_config
    #[must_use]
    pub fn with_store(mut self, store: EvalStore) -> BatchEngine {
        let mut warmed = 0u64;
        for rec in store.take_records() {
            let Ok(config) = rec.key.arch.apply(&self.base_config, rec.dvs()) else {
                continue;
            };
            self.timing
                .insert(TimingCacheKey::new(rec.key.app, &config), rec.run);
            warmed += 1;
        }
        sim_obs::counter!("drm.store.prewarmed", warmed);
        sim_obs::log_debug!(
            "drm.store",
            "pre-warmed timing cache with {warmed} stored run(s) from {}",
            store.path().display()
        );
        self.store = Some(Arc::new(store));
        self
    }

    /// The attached evaluation store, if any.
    pub fn store(&self) -> Option<&Arc<EvalStore>> {
        self.store.as_ref()
    }

    /// The base configuration adaptation points are applied to.
    pub fn base_config(&self) -> &CoreConfig {
        &self.base_config
    }

    /// The evaluator in use.
    pub fn evaluator(&self) -> &Evaluator {
        &self.evaluator
    }

    /// The shared cache.
    pub fn cache(&self) -> &Arc<EvalCache> {
        &self.cache
    }

    /// The shared timing cache.
    pub fn timing_cache(&self) -> &Arc<TimingCache> {
        &self.timing
    }

    /// The worker count used for batch passes.
    pub fn workers(&self) -> usize {
        self.workers
    }

    fn config_for(&self, arch: ArchPoint, dvs: DvsPoint) -> Result<CoreConfig, SimError> {
        arch.apply(&self.base_config, dvs)
    }

    /// The evaluation at one operating point: served from the cache when
    /// warm, computed inline (on the calling thread) otherwise.
    ///
    /// The hit path costs a single hash lookup; the miss path evaluates
    /// without holding any lock and then inserts.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] when the point cannot be
    /// applied to the base configuration.
    pub fn evaluation(
        &self,
        app: App,
        arch: ArchPoint,
        dvs: DvsPoint,
    ) -> Result<Arc<Evaluation>, SimError> {
        let key = EvalKey::new(app, arch, dvs);
        if let Some(ev) = self.cache.get(&key) {
            return Ok(ev);
        }
        let _busy = self.cache.busy_span();
        let config = self.config_for(arch, dvs)?;
        let ev = self.evaluate_cold(&self.evaluator, key, &config)?;
        Ok(self.cache.insert(key, ev))
    }

    /// Write-through: appends a fresh timing run to the attached
    /// evaluation store (no-op without one).
    fn persist(&self, key: EvalKey, config: &CoreConfig, run: &TimingRun) -> Result<(), SimError> {
        match &self.store {
            Some(store) => store.append(
                key,
                config.frequency.0.to_bits(),
                config.vdd.0.to_bits(),
                run,
            ),
            None => Ok(()),
        }
    }

    /// A cache-miss evaluation: serve the timing stage from the shared
    /// timing cache (running, inserting, and persisting it on a miss),
    /// then finish the power/thermal passes. Bit-identical to
    /// [`Evaluator::evaluate`], which re-simulates timing every call.
    fn evaluate_cold(
        &self,
        evaluator: &Evaluator,
        key: EvalKey,
        config: &CoreConfig,
    ) -> Result<Evaluation, SimError> {
        let profile = key.app.profile();
        let tkey = TimingCacheKey::new(key.app, config);
        let timing = match self.timing.get(&tkey) {
            Some(t) => t,
            None => {
                let run = self
                    .timing
                    .insert(tkey, evaluator.timing_run(&profile, config)?);
                self.persist(key, config, &run)?;
                run
            }
        };
        evaluator.evaluate_with_timing(&profile, config, &timing)
    }

    /// Evaluates every job in `jobs` — deduplicated against each other
    /// and the cache — across the worker pool, filling the shared cache.
    ///
    /// Returns the summary of this pass alone. The pass is all-or-
    /// nothing: the first job error stops the remaining work and is
    /// propagated (evaluations already finished stay cached).
    ///
    /// # Errors
    ///
    /// Returns the first error any job produced.
    ///
    /// # Panics
    ///
    /// Panics if a worker thread panics.
    pub fn evaluate_all(
        &self,
        jobs: &[(App, ArchPoint, DvsPoint)],
    ) -> Result<SweepSummary, SimError> {
        let _batch_span = sim_obs::span!("drm.batch");
        let _busy = self.cache.busy_span();
        let start = Instant::now();

        // Dedup: one work item per distinct cold key.
        let mut seen = HashSet::new();
        let mut work: Vec<(EvalKey, App, ArchPoint, DvsPoint)> = Vec::new();
        let mut warm_hits = 0u64;
        for &(app, arch, dvs) in jobs {
            let key = EvalKey::new(app, arch, dvs);
            if !seen.insert(key) {
                continue;
            }
            if self.cache.peek(&key).is_some() {
                warm_hits += 1;
            } else {
                work.push((key, app, arch, dvs));
            }
        }
        let cold = work.len() as u64;

        // Group the cold work by timing key: all members of a group
        // (same app, same timing-relevant configuration — typically a
        // voltage grid at one frequency) share one cycle-level timing
        // run. One worker owns a whole group, so the pass performs
        // exactly one timing run per group, whatever the worker count.
        let mut group_index: HashMap<TimingCacheKey, usize> = HashMap::new();
        let mut groups: Vec<Vec<(EvalKey, App, CoreConfig)>> = Vec::new();
        for (key, app, arch, dvs) in work {
            let config = self.config_for(arch, dvs)?;
            let tkey = TimingCacheKey::new(app, &config);
            let idx = *group_index.entry(tkey).or_insert_with(|| {
                groups.push(Vec::new());
                groups.len() - 1
            });
            groups[idx].push((key, app, config));
        }

        let workers = self.workers.min(groups.len()).max(1);
        let next = AtomicUsize::new(0);
        let stop = AtomicBool::new(false);
        let first_error: Mutex<Option<SimError>> = Mutex::new(None);
        let busy_ns = AtomicU64::new(0);
        let timing_runs = AtomicU64::new(0);

        if !groups.is_empty() {
            std::thread::scope(|scope| {
                for w in 0..workers {
                    let evaluator = self.evaluator.clone();
                    let groups = &groups;
                    let next = &next;
                    let stop = &stop;
                    let first_error = &first_error;
                    let busy_ns = &busy_ns;
                    let timing_runs = &timing_runs;
                    // Named threads give each worker its own lane in
                    // trace-event exports (and readable panic messages).
                    let builder = std::thread::Builder::new().name(format!("drm-worker-{w}"));
                    builder
                        .spawn_scoped(scope, move || {
                            let _worker_span = sim_obs::span!("drm.worker");
                            let fail = |e: SimError| {
                                stop.store(true, Ordering::Relaxed);
                                first_error
                                    .lock()
                                    .expect("error slot lock poisoned")
                                    .get_or_insert(e);
                            };
                            loop {
                                if stop.load(Ordering::Relaxed) {
                                    return;
                                }
                                let i = next.fetch_add(1, Ordering::Relaxed);
                                let Some(group) = groups.get(i) else {
                                    return;
                                };
                                // Work remaining in the shared queue as this
                                // worker claims a group.
                                sim_obs::hist!("drm.queue.depth", (groups.len() - i) as f64);
                                let profile = group[0].1.profile();
                                for (key, app, config) in group {
                                    // Every member does its own lookup so the
                                    // timing-cache hit/miss counters read as
                                    // reuses/runs; only this worker touches
                                    // the group's key, so the first member
                                    // misses (and simulates) and the rest hit.
                                    let tkey = TimingCacheKey::new(*app, config);
                                    let timing = match self.timing.get(&tkey) {
                                        Some(t) => t,
                                        None => match evaluator.timing_run(&profile, config) {
                                            Ok(run) => {
                                                timing_runs.fetch_add(1, Ordering::Relaxed);
                                                let run = self.timing.insert(tkey, run);
                                                if let Err(e) = self.persist(*key, config, &run) {
                                                    fail(e);
                                                    return;
                                                }
                                                run
                                            }
                                            Err(e) => {
                                                fail(e);
                                                return;
                                            }
                                        },
                                    };
                                    match evaluator.evaluate_with_timing(&profile, config, &timing)
                                    {
                                        Ok(ev) => {
                                            busy_ns.fetch_add(
                                                ev.stats.wall().as_nanos() as u64,
                                                Ordering::Relaxed,
                                            );
                                            self.cache.insert(*key, ev);
                                        }
                                        Err(e) => {
                                            fail(e);
                                            return;
                                        }
                                    }
                                }
                            }
                        })
                        .expect("spawn drm worker thread");
                }
            });
        }

        if let Some(e) = first_error.into_inner().expect("error slot lock poisoned") {
            return Err(e);
        }
        let wall = start.elapsed();
        let busy = Duration::from_nanos(busy_ns.load(Ordering::Relaxed));
        let timing_runs = timing_runs.load(Ordering::Relaxed);
        if sim_obs::enabled() {
            sim_obs::counter!("drm.batch.passes", 1);
            sim_obs::counter!("drm.batch.evaluations", cold);
            sim_obs::counter!("drm.batch.warm_hits", warm_hits);
            sim_obs::counter!("drm.batch.timing_runs", timing_runs);
            sim_obs::counter!("drm.batch.wall_ns", wall.as_nanos() as u64);
            sim_obs::counter!("drm.batch.busy_ns", busy.as_nanos() as u64);
        }
        sim_obs::log_debug!(
            "drm.batch",
            "pass done: {} evaluation(s), {} warm hit(s), {} timing run(s), {} worker(s), {:.1} ms wall",
            cold,
            warm_hits,
            timing_runs,
            workers,
            wall.as_secs_f64() * 1e3
        );
        Ok(SweepSummary {
            workers,
            evaluations: cold,
            cache_hits: warm_hits,
            timing_runs,
            timing_reuses: cold - timing_runs,
            wall,
            busy,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluator::EvalParams;

    fn engine(workers: usize) -> BatchEngine {
        BatchEngine::with_workers(Evaluator::ibm_65nm(EvalParams::quick()).unwrap(), workers)
    }

    #[test]
    fn key_distinguishes_voltage_at_equal_frequency() {
        use sim_common::{Hertz, Volts};
        let arch = ArchPoint::most_aggressive();
        let a = EvalKey::new(
            App::Gzip,
            arch,
            DvsPoint {
                frequency: Hertz::from_ghz(4.0),
                vdd: Volts(1.0),
            },
        );
        let b = EvalKey::new(
            App::Gzip,
            arch,
            DvsPoint {
                frequency: Hertz::from_ghz(4.0),
                vdd: Volts(0.9),
            },
        );
        assert_ne!(a, b);
        assert_eq!(a.freq_khz, b.freq_khz);
    }

    #[test]
    fn batch_deduplicates_and_caches() {
        let e = engine(2);
        let job = (App::Gzip, ArchPoint::most_aggressive(), DvsPoint::base());
        let summary = e.evaluate_all(&[job, job, job]).unwrap();
        assert_eq!(summary.evaluations, 1);
        assert_eq!(e.cache().len(), 1);
        // A second pass over the same job is a pure cache hit.
        let summary = e.evaluate_all(&[job]).unwrap();
        assert_eq!(summary.evaluations, 0);
        assert_eq!(summary.cache_hits, 1);
    }

    #[test]
    fn invalid_points_propagate_errors() {
        let e = engine(2);
        let bad = DvsPoint::at_ghz(9.0);
        assert!(
            bad.is_err() || {
                let dvs = bad.unwrap();
                e.evaluate_all(&[(App::Gzip, ArchPoint::most_aggressive(), dvs)])
                    .is_err()
            }
        );
    }

    #[test]
    fn summary_line_formats() {
        let s = SweepSummary {
            workers: 4,
            evaluations: 10,
            cache_hits: 3,
            timing_runs: 2,
            timing_reuses: 8,
            wall: Duration::from_millis(500),
            busy: Duration::from_millis(1500),
        };
        let line = s.to_string();
        assert!(line.contains("4 jobs"), "{line}");
        assert!(line.contains("10 evals"), "{line}");
        assert!(line.contains("timing 2 runs, 8 reused"), "{line}");
        assert!(line.contains("3.00x"), "{line}");
    }

    #[test]
    fn voltage_grid_runs_timing_once_per_frequency() {
        use sim_common::{Hertz, Volts};
        let e = engine(4);
        let arch = ArchPoint::most_aggressive();
        let mut jobs = Vec::new();
        for ghz in [3.0, 4.0] {
            for vdd in [0.85, 0.95, 1.05, 1.15] {
                jobs.push((
                    App::Gzip,
                    arch,
                    DvsPoint {
                        frequency: Hertz::from_ghz(ghz),
                        vdd: Volts(vdd),
                    },
                ));
            }
        }
        let summary = e.evaluate_all(&jobs).unwrap();
        assert_eq!(summary.evaluations, 8);
        assert_eq!(summary.timing_runs, 2, "one timing run per frequency");
        assert_eq!(summary.timing_reuses, 6);
        assert_eq!(e.timing_cache().len(), 2);
        assert_eq!(e.timing_cache().misses(), 2);
    }

    #[test]
    fn default_workers_is_positive() {
        assert!(default_workers() >= 1);
    }

    #[test]
    fn summaries_merge_by_summing_counters() {
        let mut acc = SweepSummary::default();
        let unit = SweepSummary {
            workers: 2,
            evaluations: 3,
            cache_hits: 1,
            timing_runs: 1,
            timing_reuses: 2,
            wall: Duration::from_millis(10),
            busy: Duration::from_millis(20),
        };
        acc.merge(&unit);
        acc.merge(&unit);
        assert_eq!(acc.workers, 2);
        assert_eq!(acc.evaluations, 6);
        assert_eq!(acc.cache_hits, 2);
        assert_eq!(acc.timing_runs, 2);
        assert_eq!(acc.timing_reuses, 4);
        assert_eq!(acc.wall, Duration::from_millis(20));
        assert_eq!(acc.busy, Duration::from_millis(40));
    }

    #[test]
    fn store_prewarms_a_restarted_engine() {
        use crate::store::EvalStore;
        let dir = std::env::temp_dir().join(format!("ramp-batch-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("seg.evalstore");
        let job = (App::Gzip, ArchPoint::most_aggressive(), DvsPoint::base());

        let first = engine(2).with_store(EvalStore::open(&path).unwrap());
        let summary = first.evaluate_all(&[job]).unwrap();
        assert_eq!(summary.timing_runs, 1, "cold store must simulate");
        let reference = first.evaluation(job.0, job.1, job.2).unwrap();

        // "Restart": a fresh engine with cold in-memory caches, attached
        // to the now-populated store.
        let restarted = engine(2).with_store(EvalStore::open(&path).unwrap());
        assert_eq!(restarted.timing_cache().len(), 1);
        let summary = restarted.evaluate_all(&[job]).unwrap();
        assert_eq!(summary.evaluations, 1);
        assert_eq!(summary.timing_runs, 0, "stored point must not re-simulate");
        assert_eq!(summary.timing_reuses, 1);
        let replayed = restarted.evaluation(job.0, job.1, job.2).unwrap();
        assert_eq!(replayed.bips.to_bits(), reference.bips.to_bits());
        assert_eq!(replayed.ipc.to_bits(), reference.ipc.to_bits());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
