//! Typed counters, gauges, and histograms over lock-free per-thread
//! shards.
//!
//! Each thread lazily creates its own atomic cell per metric name (a
//! thread-local `HashMap<String, Arc<Cell>>`), registered once in a
//! global list. The hot path is therefore a thread-local map lookup plus
//! a relaxed atomic update — no cross-thread contention, no locks —
//! matching the sharding idiom of the `drm::batch` evaluation cache.
//! [`snapshot`] merges the shards: counters and histograms sum exactly
//! (each increment lands in exactly one cell), gauges resolve to the
//! globally latest write.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

/// Power-of-two histogram buckets: bucket `i` holds values in
/// `[2^(i-OFFSET), 2^(i-OFFSET+1))`, covering `2^-24 ≈ 6e-8` up to
/// `2^39 ≈ 5.5e11` — nanosecond-to-second durations and Kelvin alike.
const BUCKETS: usize = 64;
const BUCKET_OFFSET: i64 = 24;

/// What a metric cell accumulates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonic sum of `u64` deltas.
    Counter,
    /// Last-written `f64` value.
    Gauge,
    /// Count/sum/min/max plus log₂ buckets of `f64` samples.
    Histogram,
}

/// A plain (non-atomic) histogram value: the aggregation result, also
/// usable directly as a struct field (e.g. `drm::EvalStats`).
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
    buckets: [u64; BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            buckets: [0; BUCKETS],
        }
    }
}

impl Histogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// The bucket index for a sample.
    fn bucket_index(v: f64) -> usize {
        if !v.is_finite() || v <= 0.0 {
            return 0;
        }
        (v.log2().floor() as i64 + BUCKET_OFFSET).clamp(0, BUCKETS as i64 - 1) as usize
    }

    /// Records one sample.
    pub fn record(&mut self, v: f64) {
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.buckets[Self::bucket_index(v)] += 1;
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
    }

    /// Number of samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    #[must_use]
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean sample (0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Smallest sample (`+inf` when empty).
    #[must_use]
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest sample (`-inf` when empty).
    #[must_use]
    pub fn max(&self) -> f64 {
        self.max
    }

    /// The histogram of samples recorded *after* `earlier` was captured,
    /// assuming `earlier` is an older snapshot of this same cumulative
    /// histogram. Counts, sums, and bucket occupancies subtract exactly
    /// (cumulative snapshots are monotone per bucket); `min`/`max` are
    /// not recoverable from two cumulative snapshots, so the delta keeps
    /// the later snapshot's bounds — conservative for [`Histogram::quantile`],
    /// which caps its answer at `max`. An empty delta (no new samples)
    /// returns a pristine empty histogram.
    #[must_use]
    pub fn delta_from(&self, earlier: &Histogram) -> Histogram {
        let count = self.count.saturating_sub(earlier.count);
        if count == 0 {
            return Histogram::new();
        }
        let mut d = Histogram {
            count,
            sum: self.sum - earlier.sum,
            min: self.min,
            max: self.max,
            buckets: [0; BUCKETS],
        };
        for (b, (late, early)) in d
            .buckets
            .iter_mut()
            .zip(self.buckets.iter().zip(earlier.buckets.iter()))
        {
            *b = late.saturating_sub(*early);
        }
        d
    }

    /// Approximate quantile from the log₂ buckets: the upper bound of the
    /// bucket where the cumulative count crosses `q·count`. Exact enough
    /// for order-of-magnitude latency reporting.
    ///
    /// This is deliberately *not* the exact convention of
    /// `sim_common::quantile::quantile_sorted` — a histogram only keeps
    /// bucket counts, so the best it can do is an upper bound. The
    /// invariant (tested below) is that the bucketed answer brackets the
    /// exact quantile of the same samples from above, within one power
    /// of two. Layers that still hold the raw samples use the shared
    /// exact helper instead.
    #[must_use]
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let threshold = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut cumulative = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            cumulative += n;
            if cumulative >= threshold {
                let exp = i as i64 - BUCKET_OFFSET + 1;
                return self.max.min(2.0f64.powi(exp as i32));
            }
        }
        self.max
    }
}

/// Ordered accumulation of wall time per named stage — the sim-obs type
/// behind `drm::EvalStats` (stage splits that must not participate in
/// value equality live here, and map 1:1 onto span names).
#[derive(Debug, Clone, Default)]
pub struct StageTimes {
    entries: Vec<(&'static str, Duration)>,
}

impl StageTimes {
    /// An empty stage table.
    #[must_use]
    pub fn new() -> StageTimes {
        StageTimes::default()
    }

    /// Adds `d` to `stage` (created on first use, insertion-ordered).
    pub fn record(&mut self, stage: &'static str, d: Duration) {
        if let Some((_, t)) = self.entries.iter_mut().find(|(s, _)| *s == stage) {
            *t += d;
        } else {
            self.entries.push((stage, d));
        }
    }

    /// Accumulated time of one stage (zero when never recorded).
    #[must_use]
    pub fn get(&self, stage: &str) -> Duration {
        self.entries
            .iter()
            .find(|(s, _)| *s == stage)
            .map_or(Duration::ZERO, |(_, t)| *t)
    }

    /// Sum over all stages.
    #[must_use]
    pub fn total(&self) -> Duration {
        self.entries.iter().map(|(_, t)| *t).sum()
    }

    /// Iterates `(stage, duration)` in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, Duration)> + '_ {
        self.entries.iter().copied()
    }

    /// True when nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// One aggregated metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Dotted metric name (e.g. `drm.cache.hits`).
    pub name: String,
    /// The aggregated value.
    pub value: MetricValue,
}

/// An aggregated metric value.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Summed counter.
    Counter(u64),
    /// Latest gauge value.
    Gauge(f64),
    /// Merged histogram (boxed: a `Histogram` is ~0.5 KiB of buckets,
    /// far larger than the other variants).
    Histogram(Box<Histogram>),
}

/// One thread's atomic cell for one metric. Only the owning thread
/// writes; [`snapshot`] reads concurrently, so all fields are atomics.
/// Single-writer means the CAS loops below effectively never retry.
struct Cell {
    kind: MetricKind,
    count: AtomicU64,
    /// Histogram sum, or the gauge value, as `f64` bits.
    sum_bits: AtomicU64,
    min_bits: AtomicU64,
    max_bits: AtomicU64,
    /// Global write ticket for gauge last-write-wins resolution.
    seq: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
}

impl Cell {
    fn new(kind: MetricKind) -> Cell {
        Cell {
            kind,
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0.0f64.to_bits()),
            min_bits: AtomicU64::new(f64::INFINITY.to_bits()),
            max_bits: AtomicU64::new(f64::NEG_INFINITY.to_bits()),
            seq: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    fn f64_update(bits: &AtomicU64, f: impl Fn(f64) -> f64) {
        let mut cur = bits.load(Ordering::Relaxed);
        loop {
            let new = f(f64::from_bits(cur)).to_bits();
            match bits.compare_exchange_weak(cur, new, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => return,
                Err(actual) => cur = actual,
            }
        }
    }

    fn record_hist(&self, v: f64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        Self::f64_update(&self.sum_bits, |s| s + v);
        Self::f64_update(&self.min_bits, |m| m.min(v));
        Self::f64_update(&self.max_bits, |m| m.max(v));
        self.buckets[Histogram::bucket_index(v)].fetch_add(1, Ordering::Relaxed);
    }

    fn to_histogram(&self) -> Histogram {
        let mut h = Histogram {
            count: self.count.load(Ordering::Relaxed),
            sum: f64::from_bits(self.sum_bits.load(Ordering::Relaxed)),
            min: f64::from_bits(self.min_bits.load(Ordering::Relaxed)),
            max: f64::from_bits(self.max_bits.load(Ordering::Relaxed)),
            buckets: [0; BUCKETS],
        };
        for (b, a) in h.buckets.iter_mut().zip(self.buckets.iter()) {
            *b = a.load(Ordering::Relaxed);
        }
        h
    }
}

struct Entry {
    name: String,
    cell: Arc<Cell>,
}

/// Every live (and dead-thread) cell, for aggregation. Shards outlive
/// their owning thread via the `Arc`, so scoped worker threads that exit
/// before a flush lose nothing.
static REGISTRY: Mutex<Vec<Entry>> = Mutex::new(Vec::new());

/// Bumped by [`reset`] so thread-local caches drop stale cells.
static EPOCH: AtomicU64 = AtomicU64::new(0);

/// Global gauge-write ticket counter.
static GAUGE_SEQ: AtomicU64 = AtomicU64::new(1);

struct LocalShard {
    epoch: u64,
    cells: HashMap<String, Arc<Cell>>,
}

thread_local! {
    static LOCAL: RefCell<LocalShard> = RefCell::new(LocalShard {
        epoch: 0,
        cells: HashMap::new(),
    });
}

fn with_cell(name: &str, kind: MetricKind, f: impl FnOnce(&Cell)) {
    LOCAL.with(|local| {
        let mut local = local.borrow_mut();
        let epoch = EPOCH.load(Ordering::Relaxed);
        if local.epoch != epoch {
            local.cells.clear();
            local.epoch = epoch;
        }
        if let Some(cell) = local.cells.get(name) {
            f(cell);
            return;
        }
        let cell = Arc::new(Cell::new(kind));
        REGISTRY
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(Entry {
                name: name.to_owned(),
                cell: Arc::clone(&cell),
            });
        f(&cell);
        local.cells.insert(name.to_owned(), cell);
    });
}

/// Adds `delta` to the calling thread's shard of counter `name`. Prefer
/// the [`crate::counter!`] macro, which gates on [`crate::enabled`].
pub fn counter_add(name: &str, delta: u64) {
    with_cell(name, MetricKind::Counter, |c| {
        c.count.fetch_add(delta, Ordering::Relaxed);
    });
}

/// Sets gauge `name`; across threads the latest write wins.
pub fn gauge_set(name: &str, value: f64) {
    let ticket = GAUGE_SEQ.fetch_add(1, Ordering::Relaxed);
    with_cell(name, MetricKind::Gauge, |c| {
        c.sum_bits.store(value.to_bits(), Ordering::Relaxed);
        c.seq.store(ticket, Ordering::Relaxed);
        c.count.fetch_add(1, Ordering::Relaxed);
    });
}

/// Records a sample into histogram `name`.
pub fn hist_record(name: &str, value: f64) {
    with_cell(name, MetricKind::Histogram, |c| c.record_hist(value));
}

/// Merges all shards into one alphabetically ordered snapshot. Counters
/// and histogram counts aggregate exactly with respect to every update
/// made before the call (each update lands in exactly one single-writer
/// cell; no read-modify-write races across threads).
#[must_use]
pub fn snapshot() -> Vec<Metric> {
    let registry = REGISTRY.lock().unwrap_or_else(PoisonError::into_inner);
    let mut merged: BTreeMap<String, (MetricKind, MetricValue, u64)> = BTreeMap::new();
    for entry in registry.iter() {
        let cell = &entry.cell;
        match merged.get_mut(&entry.name) {
            None => {
                let (value, seq) = match cell.kind {
                    MetricKind::Counter => {
                        (MetricValue::Counter(cell.count.load(Ordering::Relaxed)), 0)
                    }
                    MetricKind::Gauge => (
                        MetricValue::Gauge(f64::from_bits(cell.sum_bits.load(Ordering::Relaxed))),
                        cell.seq.load(Ordering::Relaxed),
                    ),
                    MetricKind::Histogram => {
                        (MetricValue::Histogram(Box::new(cell.to_histogram())), 0)
                    }
                };
                merged.insert(entry.name.clone(), (cell.kind, value, seq));
            }
            Some((kind, value, seq)) => {
                if *kind != cell.kind {
                    // A name reused with a different type: first kind wins.
                    continue;
                }
                match value {
                    MetricValue::Counter(total) => {
                        *total += cell.count.load(Ordering::Relaxed);
                    }
                    MetricValue::Gauge(v) => {
                        let cell_seq = cell.seq.load(Ordering::Relaxed);
                        if cell_seq > *seq {
                            *seq = cell_seq;
                            *v = f64::from_bits(cell.sum_bits.load(Ordering::Relaxed));
                        }
                    }
                    MetricValue::Histogram(h) => h.merge(&cell.to_histogram()),
                }
            }
        }
    }
    merged
        .into_iter()
        .map(|(name, (_, value, _))| Metric { name, value })
        .collect()
}

/// Clears every registered cell and invalidates thread-local caches.
pub fn reset() {
    REGISTRY
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .clear();
    EPOCH.fetch_add(1, Ordering::SeqCst);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_lock;

    fn counter_value(snap: &[Metric], name: &str) -> Option<u64> {
        snap.iter()
            .find(|m| m.name == name)
            .and_then(|m| match m.value {
                MetricValue::Counter(v) => Some(v),
                _ => None,
            })
    }

    /// A thread that panics while holding the sink and metric registry
    /// locks poisons them; later `counter!` and `flush()` calls on other
    /// threads still record and deliver.
    #[test]
    fn a_panic_holding_the_registry_locks_leaves_recording_working() {
        let _guard = test_lock::hold();
        crate::reset_for_tests();
        let sink = Arc::new(crate::MemorySink::new());
        crate::install_sink(sink.clone());
        crate::set_enabled(true);
        let panicked = std::thread::spawn(|| {
            let _sinks = crate::SINKS.write().unwrap_or_else(PoisonError::into_inner);
            let _registry = REGISTRY.lock().unwrap_or_else(PoisonError::into_inner);
            panic!("poison the registries");
        })
        .join();
        assert!(panicked.is_err());
        assert!(crate::SINKS.is_poisoned() && REGISTRY.is_poisoned());

        crate::counter!("m.test.after_poison", 2);
        crate::flush();
        assert!(sink
            .metrics()
            .iter()
            .any(|m| m.name == "m.test.after_poison" && m.value == MetricValue::Counter(2)));
        crate::reset_for_tests();
    }

    #[test]
    fn counters_sum_within_a_thread() {
        let _guard = test_lock::hold();
        reset();
        counter_add("m.test.counter", 2);
        counter_add("m.test.counter", 3);
        let snap = snapshot();
        assert_eq!(counter_value(&snap, "m.test.counter"), Some(5));
        reset();
    }

    #[test]
    fn gauges_keep_the_latest_write() {
        let _guard = test_lock::hold();
        reset();
        gauge_set("m.test.gauge", 1.5);
        gauge_set("m.test.gauge", 2.5);
        let snap = snapshot();
        let v = snap.iter().find(|m| m.name == "m.test.gauge").unwrap();
        assert_eq!(v.value, MetricValue::Gauge(2.5));
        reset();
    }

    #[test]
    fn gauge_last_write_wins_across_threads() {
        let _guard = test_lock::hold();
        reset();
        // Sequential cross-thread writes: tickets order them globally.
        std::thread::spawn(|| gauge_set("m.test.xgauge", 1.0))
            .join()
            .unwrap();
        gauge_set("m.test.xgauge", 7.0);
        let snap = snapshot();
        let v = snap.iter().find(|m| m.name == "m.test.xgauge").unwrap();
        assert_eq!(v.value, MetricValue::Gauge(7.0));
        reset();
    }

    #[test]
    fn histogram_statistics() {
        let mut h = Histogram::new();
        for v in [1.0, 2.0, 4.0, 8.0] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert!((h.sum() - 15.0).abs() < 1e-12);
        assert!((h.mean() - 3.75).abs() < 1e-12);
        assert_eq!(h.min(), 1.0);
        assert_eq!(h.max(), 8.0);
        // p100 is capped at the true max.
        assert!(h.quantile(1.0) <= 8.0 + 1e-12);
        assert!(h.quantile(0.25) <= h.quantile(0.75));
    }

    #[test]
    fn histogram_merge_matches_combined_recording() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut all = Histogram::new();
        for v in [0.5, 3.0, 100.0] {
            a.record(v);
            all.record(v);
        }
        for v in [7.0, 0.001] {
            b.record(v);
            all.record(v);
        }
        a.merge(&b);
        assert_eq!(a, all);
    }

    #[test]
    fn histogram_delta_recovers_the_new_samples() {
        let mut early = Histogram::new();
        for v in [1.0, 2.0, 300.0] {
            early.record(v);
        }
        let mut late = early.clone();
        let mut fresh = Histogram::new();
        for v in [0.5, 4.0, 4.5, 1000.0] {
            late.record(v);
            fresh.record(v);
        }
        let d = late.delta_from(&early);
        assert_eq!(d.count(), fresh.count());
        assert!((d.sum() - fresh.sum()).abs() < 1e-9);
        assert_eq!(d.buckets, fresh.buckets);
        // Quantiles over the delta use the same bucket upper bounds as a
        // directly recorded histogram of the new samples (the delta's max
        // is the cumulative max, which only matters past the last bucket).
        assert_eq!(d.quantile(0.5), fresh.quantile(0.5));
        // No new samples → pristine empty histogram.
        let none = late.delta_from(&late);
        assert_eq!(none, Histogram::new());
        assert_eq!(none.quantile(0.99), 0.0);
    }

    #[test]
    fn histogram_handles_nonpositive_and_huge_samples() {
        let mut h = Histogram::new();
        h.record(0.0);
        h.record(-5.0);
        h.record(1e300);
        assert_eq!(h.count(), 3);
        assert_eq!(h.min(), -5.0);
        assert_eq!(h.max(), 1e300);
    }

    #[test]
    fn shards_survive_thread_exit() {
        let _guard = test_lock::hold();
        reset();
        let handles: Vec<_> = (0..4)
            .map(|_| std::thread::spawn(|| counter_add("m.test.exited", 10)))
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        // All four writer threads are gone; their shards must still count.
        let snap = snapshot();
        assert_eq!(counter_value(&snap, "m.test.exited"), Some(40));
        reset();
    }

    #[test]
    fn reset_invalidates_thread_local_cells() {
        let _guard = test_lock::hold();
        reset();
        counter_add("m.test.epoch", 1);
        reset();
        counter_add("m.test.epoch", 1);
        let snap = snapshot();
        assert_eq!(counter_value(&snap, "m.test.epoch"), Some(1));
        reset();
    }

    #[test]
    fn bucketed_quantile_brackets_exact_quantile() {
        // Cross-check the histogram's bucketed convention against the
        // shared exact helper on the same inserted values: the log₂
        // bucket upper bound must sit at or above the exact quantile,
        // and within one bucket (a factor of two) of it.
        use sim_common::quantile::quantile_sorted;
        use sim_common::Xoshiro256pp;

        let mut rng = Xoshiro256pp::seed_from_u64(17);
        let mut h = Histogram::new();
        let mut vals = Vec::new();
        for _ in 0..5_000 {
            // Latency-like spread over several orders of magnitude.
            let v = 10f64.powf(rng.next_f64() * 4.0 - 1.0);
            h.record(v);
            vals.push(v);
        }
        vals.sort_by(f64::total_cmp);
        for q in [0.5, 0.99] {
            let exact = quantile_sorted(&vals, q);
            let bucketed = h.quantile(q);
            assert!(
                bucketed >= exact,
                "q={q}: bucketed {bucketed} below exact {exact}"
            );
            assert!(
                bucketed <= exact * 2.0,
                "q={q}: bucketed {bucketed} beyond one bucket above exact {exact}"
            );
        }
    }

    #[test]
    fn stage_times_accumulate_in_order() {
        let mut st = StageTimes::new();
        assert!(st.is_empty());
        st.record("timing", Duration::from_millis(5));
        st.record("thermal", Duration::from_millis(3));
        st.record("timing", Duration::from_millis(5));
        assert_eq!(st.get("timing"), Duration::from_millis(10));
        assert_eq!(st.get("thermal"), Duration::from_millis(3));
        assert_eq!(st.get("missing"), Duration::ZERO);
        assert_eq!(st.total(), Duration::from_millis(13));
        let order: Vec<_> = st.iter().map(|(s, _)| s).collect();
        assert_eq!(order, ["timing", "thermal"]);
    }
}
