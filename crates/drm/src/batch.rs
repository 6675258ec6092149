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
//! Only batch passes fill the evaluation cache. A single-point
//! [`BatchEngine::evaluation`] miss finishes the point from the timing
//! cache and returns it uncached, so the points a caller names one at a
//! time cannot grow memory. The [`TimingCache`] is single-flight: the
//! first caller for a key simulates it outside every lock, and
//! concurrent callers for that key wait and share its run.
//!
//! [`ReliabilityModel`]: ramp::ReliabilityModel

use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use sim_common::SimError;
use sim_cpu::{CoreConfig, TimingKey};
use workload::{App, OpTape};

use crate::dvs::DvsPoint;
use crate::evaluator::{Evaluation, Evaluator, RunDigest, TimingRun};
use crate::space::ArchPoint;
use crate::store::{RunStore, StoreRecord};

/// Number of independently locked cache shards. Shard contention is the
/// only synchronization between workers, and evaluations take O(100 ms)
/// against O(100 ns) map operations, so a modest constant suffices.
const SHARDS: usize = 16;

/// Most ops one batch pass records per app: 12 MiB of tape, enough for a
/// standard-length run (700 000 instructions plus the in-flight bound).
/// Longer runs replay the capped tape and continue the live stream past
/// its end, so the cap bounds memory without changing any result.
const MAX_TAPE_OPS: usize = 1 << 20;

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

/// One timing-cache entry: a finished run, or a run some caller of
/// [`TimingCache::get_or_run`] is simulating right now.
#[derive(Debug)]
enum TimingSlot {
    Ready(Arc<TimingRun>),
    InFlight,
}

/// One lock-protected part of the [`TimingCache`]; callers waiting for
/// an in-flight run of this shard park on `done`.
#[derive(Debug, Default)]
struct TimingShard {
    slots: Mutex<HashMap<TimingCacheKey, TimingSlot>>,
    done: Condvar,
}

impl TimingShard {
    /// The shard's map. A thread that panicked while holding the lock
    /// left the map consistent (every critical section is a single map
    /// operation), so a poisoned lock is recovered, not propagated.
    fn slots(&self) -> MutexGuard<'_, HashMap<TimingCacheKey, TimingSlot>> {
        self.slots.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A sharded, thread-safe, single-flight cache of cycle-level timing
/// runs, shared by every worker alongside the [`EvalCache`].
///
/// The timing stage dominates evaluation cost (cycle simulation vs. a
/// handful of prefactored thermal solves), so serving it from here turns
/// an N-voltage DVS grid into one timing run plus N cheap power/thermal
/// passes. [`get_or_run`](TimingCache::get_or_run) makes concurrent
/// misses on one key share a single simulation, whichever threads they
/// come from.
#[derive(Debug, Default)]
pub struct TimingCache {
    shards: [TimingShard; SHARDS],
    hits: AtomicU64,
    misses: AtomicU64,
    waits: AtomicU64,
}

/// The in-flight slot of one [`TimingCache::get_or_run`] runner. Dropping
/// it publishes `run` (or, when the run failed or panicked, clears the
/// slot so a later caller runs it again) and wakes the shard's waiters,
/// so no waiter is stranded whatever the run closure does.
struct Flight<'a> {
    shard: &'a TimingShard,
    key: TimingCacheKey,
    run: Option<Arc<TimingRun>>,
}

impl Drop for Flight<'_> {
    fn drop(&mut self) {
        let mut slots = self.shard.slots();
        match self.run.take() {
            Some(run) => slots.insert(self.key, TimingSlot::Ready(run)),
            None => slots.remove(&self.key),
        };
        drop(slots);
        self.shard.done.notify_all();
    }
}

impl TimingCache {
    /// An empty cache.
    #[must_use]
    pub fn new() -> TimingCache {
        TimingCache::default()
    }

    fn shard(&self, key: &TimingCacheKey) -> &TimingShard {
        &self.shards[key.shard()]
    }

    fn count_hit(&self) {
        sim_obs::counter!("drm.timing_cache.hit", 1);
        self.hits.fetch_add(1, Ordering::Relaxed);
    }

    fn count_miss(&self) {
        sim_obs::counter!("drm.timing_cache.miss", 1);
        self.misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Looks up a finished run for `key`, counting a hit or a miss. A
    /// run still in flight is a miss; it does not wait.
    pub fn get(&self, key: &TimingCacheKey) -> Option<Arc<TimingRun>> {
        let found = match self.shard(key).slots().get(key) {
            Some(TimingSlot::Ready(run)) => Some(Arc::clone(run)),
            _ => None,
        };
        match found {
            Some(_) => self.count_hit(),
            None => self.count_miss(),
        }
        found
    }

    /// The run for `key`: the cached one (a hit), or the one another
    /// caller is simulating right now, waited for (also a hit), or —
    /// when neither exists — `run()`'s, simulated by this caller outside
    /// every lock and then cached (a miss). Each call counts exactly one
    /// hit or miss, so concurrent callers for one cold key add one miss
    /// between them and all receive the same [`Arc`].
    ///
    /// `run` must not use this cache: waiting on a key from inside a run
    /// could wait on itself. When `run` fails or panics the slot is
    /// cleared and the waiters wake up to run it themselves.
    ///
    /// # Errors
    ///
    /// Returns `run`'s error; nothing is cached then.
    pub fn get_or_run<E>(
        &self,
        key: TimingCacheKey,
        run: impl FnOnce() -> Result<TimingRun, E>,
    ) -> Result<Arc<TimingRun>, E> {
        let shard = self.shard(&key);
        let mut slots = shard.slots();
        let mut waited = false;
        loop {
            match slots.get(&key) {
                Some(TimingSlot::Ready(found)) => {
                    let found = Arc::clone(found);
                    drop(slots);
                    self.count_hit();
                    return Ok(found);
                }
                Some(TimingSlot::InFlight) => {
                    if !waited {
                        waited = true;
                        self.waits.fetch_add(1, Ordering::Relaxed);
                    }
                    slots = shard
                        .done
                        .wait(slots)
                        .unwrap_or_else(PoisonError::into_inner);
                }
                None => break,
            }
        }
        slots.insert(key, TimingSlot::InFlight);
        drop(slots);
        self.count_miss();
        let mut flight = Flight {
            shard,
            key,
            run: None,
        };
        let done = Arc::new(run()?);
        flight.run = Some(Arc::clone(&done));
        Ok(done)
    }

    /// Caches a run loaded from elsewhere (the run store) without
    /// counting a hit or a miss. A run already cached or in flight for
    /// `key` is kept: timing is deterministic, so both are equal.
    pub fn insert(&self, key: TimingCacheKey, run: TimingRun) {
        self.shard(&key)
            .slots()
            .entry(key)
            .or_insert_with(|| TimingSlot::Ready(Arc::new(run)));
    }

    /// Number of cached timing runs (runs in flight are not counted).
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                s.slots()
                    .values()
                    .filter(|slot| matches!(slot, TimingSlot::Ready(_)))
                    .count()
            })
            .sum()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True when a finished run for `key` is cached. Unlike
    /// [`get`](TimingCache::get) this counts neither a hit nor a miss.
    pub fn contains(&self, key: &TimingCacheKey) -> bool {
        matches!(self.shard(key).slots().get(key), Some(TimingSlot::Ready(_)))
    }

    /// Lookups served without simulating — timing runs *not* re-run.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that required a fresh cycle simulation.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// [`get_or_run`](TimingCache::get_or_run) calls that found the run
    /// in flight and waited for another caller to finish it. Each also
    /// counts as a hit (or, when that run failed, as the miss of its own
    /// run).
    pub fn waits(&self) -> u64 {
        self.waits.load(Ordering::Relaxed)
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
    /// Summed wall time of every evaluation performed: each insert's
    /// single-evaluation wall time, plus the work of each cache-miss
    /// evaluation finished without caching (the sequential-equivalent
    /// cost of the work done so far).
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

    /// The shard holding `key`. Every critical section is a single map
    /// operation, so a lock poisoned by a panicking thread still guards a
    /// consistent map and is recovered.
    fn shard(&self, key: &EvalKey) -> MutexGuard<'_, HashMap<EvalKey, Arc<Evaluation>>> {
        self.shards[key.shard()]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Looks up `key`, counting a hit or a miss.
    pub fn get(&self, key: &EvalKey) -> Option<Arc<Evaluation>> {
        let found = self.shard(key).get(key).cloned();
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
        self.shard(key).get(key).cloned()
    }

    /// Inserts an evaluation, returning the cached [`Arc`]. If another
    /// worker raced us to the same key, the first insert wins and its
    /// value is returned (evaluations are deterministic, so both values
    /// are equal anyway).
    pub fn insert(&self, key: EvalKey, ev: Evaluation) -> Arc<Evaluation> {
        self.add_busy(ev.stats.wall());
        self.shard(&key)
            .entry(key)
            .or_insert_with(|| Arc::new(ev))
            .clone()
    }

    /// Adds the wall time of evaluation work done outside an insert.
    fn add_busy(&self, wall: Duration) {
        self.busy_ns
            .fetch_add(wall.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Number of cached evaluations.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap_or_else(PoisonError::into_inner).len())
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

    /// Lookups that required (or will require) a fresh evaluation or
    /// finish.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Summed wall time of every evaluation performed (see `busy_ns`).
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
    /// Evaluations batch passes performed and cached (cache misses that
    /// ran the pipeline). Only batch passes fill the cache, so a
    /// single-point evaluation finished on a miss is not counted.
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
    store: Option<Arc<RunStore>>,
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

    /// Attaches a run store opened on this engine's run shape
    /// ([`RunStore::open`]): every record loaded from its shape directory
    /// that this engine would have simulated itself pre-warms the
    /// shared [`TimingCache`] (so already-stored points cost zero timing
    /// runs), and every fresh timing run is appended write-through. Call
    /// *after* [`with_base_config`](BatchEngine::with_base_config): each
    /// record's point is rebuilt on the engine's base configuration and
    /// served only when the engine's [`RunDigest`] for it equals the
    /// stored one. Any other record (another base core or profile) is
    /// skipped and counted under `drm.store.foreign` — the store is a
    /// cache, not a source of truth.
    #[must_use]
    pub fn with_store(mut self, store: RunStore) -> BatchEngine {
        let (mut warmed, mut foreign) = (0u64, 0u64);
        for rec in store.take_records() {
            match rec.arch.apply(&self.base_config, rec.dvs) {
                Ok(config) if self.digest(rec.app, &config) == rec.digest => {
                    self.timing
                        .insert(TimingCacheKey::new(rec.app, &config), rec.run);
                    warmed += 1;
                }
                _ => foreign += 1,
            }
        }
        sim_obs::counter!("drm.store.prewarmed", warmed);
        sim_obs::counter!("drm.store.foreign", foreign);
        sim_obs::log_debug!(
            "drm.store",
            "pre-warmed timing cache with {warmed} stored run(s) from {}, skipped {foreign} foreign",
            store.dir().display()
        );
        self.store = Some(Arc::new(store));
        self
    }

    /// The attached run store, if any.
    pub fn store(&self) -> Option<&Arc<RunStore>> {
        self.store.as_ref()
    }

    /// Stored runs this engine can serve, pre-warmed or appended: with a
    /// store every cached timing run is durable (appended before it is
    /// published), and records of other run shapes are not counted.
    pub fn store_records(&self) -> usize {
        self.store.as_ref().map_or(0, |_| self.timing.len())
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

    /// The digest of this engine's timing run of `app` on `config`.
    fn digest(&self, app: App, config: &CoreConfig) -> RunDigest {
        RunDigest::new(&app.profile(), config, self.evaluator.params())
    }

    /// The evaluation at one operating point: served from the cache when
    /// a batch pass put it there, finished inline (on the calling thread)
    /// otherwise.
    ///
    /// The hit path costs a single hash lookup. The miss path takes the
    /// timing run from the single-flight [`TimingCache`] (simulating it,
    /// outside every lock, only when no caller has), finishes the
    /// power/thermal passes, and returns the result *without* caching it:
    /// only [`evaluate_all`](BatchEngine::evaluate_all) fills the
    /// evaluation cache. A finish costs tens of microseconds, so caching
    /// every point a caller names (a server client can name any voltage)
    /// would grow memory for little gain; the expensive timing run stays
    /// cached either way.
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
        let profile = app.profile();
        let mut ran = None;
        let timing = self.timing_run(key, &config, || {
            let run = self.evaluator.timing_run(&profile, &config)?;
            ran = Some(run.wall());
            Ok(run)
        })?;
        let ev = self
            .evaluator
            .evaluate_with_timing(&profile, &config, &timing)?;
        // The work this call did: the finish, plus the timing run only
        // when this call simulated it.
        self.cache
            .add_busy(ev.stats.power_thermal() + ran.unwrap_or_default());
        Ok(Arc::new(ev))
    }

    /// True when the timing run [`evaluation`](BatchEngine::evaluation)
    /// needs at this point is cached, so evaluating it simulates nothing.
    /// Counts neither a hit nor a miss; a run still in flight is not
    /// timed, and neither is a point that cannot be applied.
    ///
    /// The answer stays true only because timing-cache entries are never
    /// evicted: a caller that checks here and then calls `evaluation`
    /// relies on the run still being cached. Eviction must keep that
    /// rule, e.g. by making the check and the read one lookup.
    pub fn is_timed(&self, app: App, arch: ArchPoint, dvs: DvsPoint) -> bool {
        self.config_for(arch, dvs)
            .is_ok_and(|config| self.timing.contains(&TimingCacheKey::new(app, &config)))
    }

    /// The timing run for `config` from the single-flight timing cache:
    /// on a miss, `simulate` runs and the runner appends its result to the
    /// attached run store before publishing it.
    fn timing_run(
        &self,
        key: EvalKey,
        config: &CoreConfig,
        simulate: impl FnOnce() -> Result<TimingRun, SimError>,
    ) -> Result<Arc<TimingRun>, SimError> {
        self.timing
            .get_or_run(TimingCacheKey::new(key.app, config), || {
                self.persist(key, config, simulate()?)
            })
    }

    /// Write-through: appends a fresh timing run to the attached
    /// run store under its digest (no-op without one).
    fn persist(
        &self,
        key: EvalKey,
        config: &CoreConfig,
        run: TimingRun,
    ) -> Result<TimingRun, SimError> {
        let Some(store) = &self.store else {
            return Ok(run);
        };
        let record = StoreRecord {
            digest: self.digest(key.app, config),
            app: key.app,
            arch: key.arch,
            dvs: DvsPoint {
                frequency: config.frequency,
                vdd: config.vdd,
            },
            run,
        };
        store.append(&record)?;
        Ok(record.run)
    }

    /// Records one [`OpTape`] for each app with at least two groups whose
    /// timing run is not cached, so those runs replay one recording of the
    /// app's stream instead of each regenerating it. A tape covers warmup +
    /// measurement + the largest in-flight bound among the app's
    /// configurations, so no run of the pass outlives its tape, up to
    /// [`MAX_TAPE_OPS`]. A sliced evaluator needs live stream state at
    /// every cut and gets no tapes.
    fn record_tapes(&self, groups: &[Vec<(EvalKey, CoreConfig)>]) -> HashMap<App, OpTape> {
        let mut tapes = HashMap::new();
        if self.evaluator.slice().is_some() {
            return tapes;
        }
        let params = self.evaluator.params();
        let mut per_app: HashMap<App, (usize, u64)> = HashMap::new();
        for group in groups {
            let (key, config) = &group[0];
            if self.timing.contains(&TimingCacheKey::new(key.app, config)) {
                continue;
            }
            let entry = per_app.entry(key.app).or_insert((0, 0));
            entry.0 += 1;
            entry.1 = entry.1.max(config.max_in_flight());
        }
        for (app, (_, in_flight)) in per_app.into_iter().filter(|&(_, (n, _))| n >= 2) {
            let _tape_span = sim_obs::span!("drm.batch.tape");
            let len = params
                .warmup_instructions
                .saturating_add(params.measure_instructions)
                .saturating_add(in_flight);
            let len = usize::try_from(len).map_or(MAX_TAPE_OPS, |len| len.min(MAX_TAPE_OPS));
            tapes.insert(app, OpTape::record(app.profile(), params.seed, len));
        }
        tapes
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
        let mut work: Vec<(EvalKey, ArchPoint, DvsPoint)> = Vec::new();
        let mut warm_hits = 0u64;
        for &(app, arch, dvs) in jobs {
            let key = EvalKey::new(app, arch, dvs);
            if !seen.insert(key) {
                continue;
            }
            if self.cache.peek(&key).is_some() {
                warm_hits += 1;
            } else {
                work.push((key, arch, dvs));
            }
        }
        let cold = work.len() as u64;

        // Group the cold work by timing key: all members of a group
        // (same app, same timing-relevant configuration — typically a
        // voltage grid at one frequency) share one cycle-level timing
        // run. One worker owns a whole group, so the pass performs at
        // most one timing run per group, whatever the worker count; the
        // single-flight timing cache shares that run with any caller
        // outside the pass that needs the same key meanwhile.
        let mut group_index: HashMap<TimingCacheKey, usize> = HashMap::new();
        let mut groups: Vec<Vec<(EvalKey, CoreConfig)>> = Vec::new();
        for (key, arch, dvs) in work {
            let config = self.config_for(arch, dvs)?;
            let tkey = TimingCacheKey::new(key.app, &config);
            let idx = *group_index.entry(tkey).or_insert_with(|| {
                groups.push(Vec::new());
                groups.len() - 1
            });
            groups[idx].push((key, config));
        }

        let tapes = self.record_tapes(&groups);

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
                    let tapes = &tapes;
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
                                    .unwrap_or_else(PoisonError::into_inner)
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
                                let app = group[0].0.app;
                                let profile = app.profile();
                                let tape = tapes.get(&app);
                                for (key, config) in group {
                                    // Every member does its own lookup so the
                                    // timing-cache hit/miss counters read as
                                    // reuses/runs: the first member runs (or
                                    // waits for a caller already running) the
                                    // group's timing, and the rest hit.
                                    let timing = match self.timing_run(*key, config, || {
                                        let run = tape.map_or_else(
                                            || evaluator.timing_run(&profile, config),
                                            |tape| evaluator.run_timing_tape(tape, config),
                                        )?;
                                        timing_runs.fetch_add(1, Ordering::Relaxed);
                                        Ok(run)
                                    }) {
                                        Ok(run) => run,
                                        Err(e) => {
                                            fail(e);
                                            return;
                                        }
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

        if let Some(e) = first_error
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
        {
            return Err(e);
        }
        let wall = start.elapsed();
        let busy = Duration::from_nanos(busy_ns.load(Ordering::Relaxed));
        let timing_runs = timing_runs.load(Ordering::Relaxed);
        if sim_obs::enabled() {
            sim_obs::counter!("drm.batch.passes", 1);
            sim_obs::counter!("drm.batch.tapes", tapes.len() as u64);
            sim_obs::counter!(
                "drm.batch.tape_ops",
                tapes.values().map(|t| t.len() as u64).sum::<u64>()
            );
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
    fn tapes_are_capped_whatever_the_run_length() {
        // Both lengths are scenario keys a server client can upload; a
        // pass must not try to hold a tape of u64::MAX ops.
        let params = EvalParams {
            warmup_instructions: u64::MAX,
            measure_instructions: u64::MAX,
            ..EvalParams::quick()
        };
        let e = BatchEngine::with_workers(Evaluator::ibm_65nm(params).unwrap(), 1);
        let arch = ArchPoint::most_aggressive();
        let groups: Vec<_> = [3.0, 4.0]
            .into_iter()
            .map(|ghz| {
                let dvs = DvsPoint::at_ghz(ghz).unwrap();
                let config = e.config_for(arch, dvs).unwrap();
                vec![(EvalKey::new(App::Gzip, arch, dvs), config)]
            })
            .collect();
        let tapes = e.record_tapes(&groups);
        assert_eq!(tapes[&App::Gzip].len(), MAX_TAPE_OPS);
        // One cold group alone replays nothing, so it records no tape.
        assert!(e.record_tapes(&groups[..1]).is_empty());
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
    fn is_timed_counts_nothing_and_covers_every_voltage() {
        use sim_common::Volts;
        let e = engine(1);
        let (app, arch, dvs) = (App::Gzip, ArchPoint::most_aggressive(), DvsPoint::base());
        let other_vdd = DvsPoint {
            vdd: Volts(dvs.vdd.0 - 0.05),
            ..dvs
        };
        assert!(!e.is_timed(app, arch, dvs));
        let timing = e.timing_cache();
        assert_eq!((timing.hits(), timing.misses()), (0, 0));
        e.evaluation(app, arch, dvs).unwrap();
        assert!(e.is_timed(app, arch, dvs));
        assert!(
            e.is_timed(app, arch, other_vdd),
            "timing is voltage-invariant"
        );
        assert_eq!((timing.hits(), timing.misses()), (0, 1));
    }

    #[test]
    fn concurrent_cold_evaluations_share_one_timing_run() {
        let e = engine(1);
        let (app, arch, dvs) = (App::Gzip, ArchPoint::most_aggressive(), DvsPoint::base());
        let barrier = std::sync::Barrier::new(8);
        let results: Vec<Arc<Evaluation>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        e.evaluation(app, arch, dvs).unwrap()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(e.timing_cache().misses(), 1, "one timing run between them");
        assert_eq!(e.timing_cache().hits(), 7);
        // Single-point evaluations are finished, not cached.
        assert!(e.cache().is_empty());
        let first = &results[0];
        for ev in &results[1..] {
            assert_eq!(**ev, **first);
            for (got, want) in [
                (ev.bips, first.bips),
                (ev.ipc, first.ipc),
                (ev.average_power().0, first.average_power().0),
                (ev.max_temperature().0, first.max_temperature().0),
                (ev.sink_temperature.0, first.sink_temperature.0),
            ] {
                assert_eq!(got.to_bits(), want.to_bits());
            }
        }
    }

    #[test]
    fn a_panicking_run_wakes_its_waiters() {
        let e = engine(1);
        let config = e
            .config_for(ArchPoint::most_aggressive(), DvsPoint::base())
            .unwrap();
        let key = TimingCacheKey::new(App::Gzip, &config);
        let cache = e.timing_cache();
        let simulate = || e.evaluator().timing_run(&App::Gzip.profile(), &config);
        std::thread::scope(|scope| {
            let runner = scope.spawn(|| {
                cache.get_or_run(key, || -> Result<TimingRun, SimError> {
                    // Fail only once the waiter is parked on this run.
                    while cache.waits() == 0 {
                        std::thread::yield_now();
                    }
                    panic!("timing run failed");
                })
            });
            let waiter = scope.spawn(|| {
                while cache.misses() == 0 {
                    std::thread::yield_now();
                }
                cache.get_or_run(key, simulate)
            });
            assert!(runner.join().is_err(), "the runner panics");
            let run = waiter.join().unwrap().unwrap();
            // The waiter woke up, found the slot cleared, and ran it.
            assert_eq!(cache.waits(), 1);
            assert_eq!(cache.misses(), 2);
            let again = cache
                .get_or_run(key, || -> Result<TimingRun, SimError> {
                    unreachable!("the waiter's run is cached")
                })
                .unwrap();
            assert!(Arc::ptr_eq(&run, &again));
            assert!(Arc::ptr_eq(&run, &cache.get(&key).unwrap()));
            assert_eq!(cache.len(), 1);
        });
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
        use crate::store::RunStore;
        let dir = std::env::temp_dir().join(format!("ramp-batch-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let job = (App::Gzip, ArchPoint::most_aggressive(), DvsPoint::base());

        let open = || RunStore::open(&dir, &EvalParams::quick(), "seg").unwrap();
        let first = engine(2).with_store(open());
        let summary = first.evaluate_all(&[job]).unwrap();
        assert_eq!(summary.timing_runs, 1, "cold store must simulate");
        let reference = first.evaluation(job.0, job.1, job.2).unwrap();

        // "Restart": a fresh engine with cold in-memory caches, attached
        // to the now-populated store.
        let restarted = engine(2).with_store(open());
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

    /// A store written under one run shape serves nothing to an engine of
    /// another shape (it never reads the record) or of another base core
    /// (it skips the record as foreign); each answers exactly as an engine
    /// with no store.
    #[test]
    fn a_store_of_another_run_shape_is_not_served() {
        use crate::store::RunStore;
        let dir = std::env::temp_dir().join(format!("ramp-batch-foreign-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let job = (App::Gzip, ArchPoint::most_aggressive(), DvsPoint::base());
        let longer = EvalParams {
            measure_instructions: 2 * EvalParams::quick().measure_instructions,
            ..EvalParams::quick()
        };
        let engine_with =
            |params| BatchEngine::with_workers(Evaluator::ibm_65nm(params).unwrap(), 1);

        let quick = EvalParams::quick();
        let writer = engine_with(quick).with_store(RunStore::open(&dir, &quick, "quick").unwrap());
        writer.evaluate_all(&[job]).unwrap();
        assert_eq!(writer.store().unwrap().len(), 1);

        // Another base core on the same shape loads the record and
        // refuses it.
        let mut core = CoreConfig::base();
        core.mispredict_redirect += 1;
        let other_core = engine_with(quick)
            .with_base_config(core.clone())
            .with_store(RunStore::open(&dir, &quick, "core").unwrap());
        assert_eq!(other_core.store().unwrap().len(), 1);
        assert_eq!(
            other_core.timing_cache().len(),
            0,
            "a foreign core pre-warmed"
        );
        let served = other_core.evaluation(job.0, job.1, job.2).unwrap();
        let fresh = engine_with(quick)
            .with_base_config(core)
            .evaluation(job.0, job.1, job.2)
            .unwrap();
        assert_eq!(*served, *fresh);

        let reader =
            engine_with(longer).with_store(RunStore::open(&dir, &longer, "longer").unwrap());
        assert_eq!(
            reader.timing_cache().len(),
            0,
            "a foreign record pre-warmed"
        );
        let served = reader.evaluation(job.0, job.1, job.2).unwrap();
        let fresh = engine_with(longer).evaluation(job.0, job.1, job.2).unwrap();
        assert_eq!(*served, *fresh);
        assert_eq!(served.ipc.to_bits(), fresh.ipc.to_bits());
        assert_eq!(served.intervals.len(), fresh.intervals.len());
        // The reader's own run is stored in a shape directory of its own.
        assert_eq!(reader.store().unwrap().len(), 1);
        assert_ne!(reader.store().unwrap().dir(), writer.store().unwrap().dir());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
