//! Shared quantile conventions.
//!
//! Before this module existed, three layers hand-rolled three *different*
//! quantile definitions: the lifetime Monte Carlo truncated its rank
//! index (biasing every reported percentile low), the server load bench
//! used nearest-rank, and the observability histogram interpolated
//! nothing at all (bucket upper bounds). This module is the single
//! convention the stack agrees on:
//!
//! * [`quantile_sorted`] — the exact interpolating quantile for
//!   in-memory samples (rank `h = (n−1)·q`, linear interpolation between
//!   the two nearest order statistics — the "type 7" convention of R and
//!   NumPy). Used wherever exact samples are available.
//! * [`QuantileSketch`] — a deterministic, mergeable, constant-memory
//!   streaming sketch (a Munro–Paterson-style multi-level compactor) for
//!   populations too large to sort, with a documented worst-case rank
//!   error. Used by the fleet Monte Carlo over 10⁵–10⁷ virtual dies.
//!
//! The sketch is intentionally *derandomized*: classic KLL compacts with
//! a random parity, which would make results depend on sampling state.
//! Here each level keeps its own alternating parity bit, so the sketch
//! is a pure function of the insertion sequence, and merging two
//! sketches is a pure function of the operands — the fleet layer folds
//! per-batch sketches in batch order and gets bit-identical results at
//! any worker count.

/// Exact `q`-quantile of an ascending-sorted sample, linearly
/// interpolating between the two nearest ranks (`h = (n−1)·q`).
///
/// `q` is clamped to `[0, 1]`; `q = 0.5` of an even-length sample is the
/// mean of the two middle elements (the convention the truncating
/// lifetime code got wrong).
///
/// # Panics
///
/// Panics on an empty sample — there is no quantile to report.
///
/// # Examples
///
/// ```
/// use sim_common::quantile::quantile_sorted;
///
/// let s = [1.0, 2.0, 3.0, 4.0];
/// assert_eq!(quantile_sorted(&s, 0.5), 2.5);
/// assert_eq!(quantile_sorted(&s, 0.0), 1.0);
/// assert_eq!(quantile_sorted(&s, 1.0), 4.0);
/// ```
#[must_use]
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let q = q.clamp(0.0, 1.0);
    let h = (sorted.len() - 1) as f64 * q;
    let lo = h.floor() as usize;
    let hi = h.ceil() as usize;
    let w = h - lo as f64;
    sorted[lo] + (sorted[hi] - sorted[lo]) * w
}

/// Default per-level buffer capacity: at 10⁶ inserts the worst-case rank
/// error stays below ~0.2% of the population (see
/// [`QuantileSketch::rank_error_bound`]).
const DEFAULT_CAPACITY: usize = 4096;

/// A deterministic streaming quantile sketch.
///
/// Values are kept in levels: level `h` holds items that each represent
/// `2^h` original inserts. When a level fills its `k`-item buffer it is
/// sorted and *compacted*: every other item (alternating the starting
/// parity per compaction, so the bias cancels) is promoted to level
/// `h+1` with doubled weight, and the rest are discarded. Memory is
/// `O(k·log(n/k))`, inserts are amortized `O(log k)`.
///
/// # Determinism
///
/// No randomness anywhere: the sketch state is a pure function of the
/// insertion sequence, and [`QuantileSketch::merge`] is a pure function
/// of its operands. Two runs that insert and merge in the same order
/// produce bit-identical quantiles — the property the fleet layer's
/// worker-count invariance rests on.
///
/// # Error bound
///
/// A compaction at level `h` perturbs any rank by at most `2^h`, and at
/// most `n/(k·2^h)` compactions can happen at level `h` over `n`
/// inserts, so the total rank error is at most `n·L/k` where `L` is the
/// number of levels that ever compacted. [`Self::rank_error_bound`]
/// reports that bound; a property test checks the sketch against exact
/// sorted quantiles within it.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantileSketch {
    /// Per-level buffers; `levels[h]` items each stand for `2^h` inserts.
    levels: Vec<Vec<f64>>,
    /// Per-level compaction parity (alternates to cancel rank bias).
    parity: Vec<bool>,
    /// Buffer capacity per level.
    k: usize,
    /// Total values inserted (including merged-in counts).
    count: u64,
    /// Smallest value seen (exact).
    min: f64,
    /// Largest value seen (exact).
    max: f64,
}

impl Default for QuantileSketch {
    fn default() -> Self {
        QuantileSketch::new()
    }
}

impl QuantileSketch {
    /// A sketch with the default capacity ([`DEFAULT_CAPACITY`]).
    #[must_use]
    pub fn new() -> QuantileSketch {
        QuantileSketch::with_capacity(DEFAULT_CAPACITY)
    }

    /// A sketch with per-level buffer capacity `k` (min 8; smaller `k`
    /// trades accuracy for memory — tests use it to force compactions).
    #[must_use]
    pub fn with_capacity(k: usize) -> QuantileSketch {
        QuantileSketch {
            levels: vec![Vec::new()],
            parity: vec![false],
            k: k.max(8),
            count: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Number of values inserted.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// True when nothing has been inserted.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Exact smallest inserted value ([`f64::INFINITY`] when empty).
    #[must_use]
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Exact largest inserted value ([`f64::NEG_INFINITY`] when empty).
    #[must_use]
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Worst-case rank error of any reported quantile, in ranks (see
    /// the type-level docs for the derivation). Conservative: observed
    /// errors are typically an order of magnitude smaller.
    #[must_use]
    pub fn rank_error_bound(&self) -> f64 {
        let compacted_levels = self.levels.len().saturating_sub(1) as f64;
        self.count as f64 * compacted_levels / self.k as f64
    }

    /// Inserts one value. Non-finite values are counted into min/max but
    /// would poison compaction sorts, so they are rejected with a panic —
    /// the simulation layers only produce finite statistics.
    ///
    /// # Panics
    ///
    /// Panics on NaN (a NaN quantile is meaningless and unorderable).
    pub fn insert(&mut self, value: f64) {
        assert!(!value.is_nan(), "cannot sketch NaN");
        self.count += 1;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        self.levels[0].push(value);
        self.carry();
    }

    /// Compacts every level that reached capacity, promoting survivors
    /// upward (cascades; may grow the level list by one).
    fn carry(&mut self) {
        let mut h = 0;
        while h < self.levels.len() {
            if self.levels[h].len() < self.k {
                break;
            }
            self.compact(h);
            h += 1;
        }
    }

    /// Sorts level `h` and promotes every other item to level `h+1`.
    fn compact(&mut self, h: usize) {
        if h + 1 == self.levels.len() {
            self.levels.push(Vec::new());
            self.parity.push(false);
        }
        let mut buf = std::mem::take(&mut self.levels[h]);
        buf.sort_by(f64::total_cmp);
        let start = usize::from(self.parity[h]);
        self.parity[h] = !self.parity[h];
        let promoted = buf.iter().skip(start).step_by(2).copied();
        self.levels[h + 1].extend(promoted);
    }

    /// Merges `other` into `self` (level-wise concatenation, then
    /// compaction of any overfull levels). Deterministic: the result is
    /// a pure function of the two operands. Capacities must match.
    ///
    /// # Panics
    ///
    /// Panics when the two sketches were built with different
    /// capacities — their weights would not line up.
    pub fn merge(&mut self, other: &QuantileSketch) {
        assert_eq!(self.k, other.k, "cannot merge sketches of different k");
        while self.levels.len() < other.levels.len() {
            self.levels.push(Vec::new());
            self.parity.push(false);
        }
        for (h, level) in other.levels.iter().enumerate() {
            self.levels[h].extend_from_slice(level);
        }
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        // A merge can overfill any level, not just level 0: sweep them
        // all from the bottom so promotions cascade correctly.
        let mut h = 0;
        while h < self.levels.len() {
            while self.levels[h].len() >= self.k {
                self.compact(h);
            }
            h += 1;
        }
    }

    /// The sketch's `q`-quantile: the smallest retained value whose
    /// cumulative weight exceeds rank `(n−1)·q` (weighted nearest-rank;
    /// exact min/max at the extremes).
    ///
    /// # Panics
    ///
    /// Panics when the sketch is empty.
    #[must_use]
    pub fn quantile(&self, q: f64) -> f64 {
        assert!(self.count > 0, "quantile of an empty sketch");
        let q = q.clamp(0.0, 1.0);
        if q == 0.0 {
            return self.min;
        }
        if q == 1.0 {
            return self.max;
        }
        let mut weighted: Vec<(f64, u64)> = Vec::new();
        for (h, level) in self.levels.iter().enumerate() {
            let w = 1u64 << h;
            weighted.extend(level.iter().map(|&v| (v, w)));
        }
        weighted.sort_by(|a, b| f64::total_cmp(&a.0, &b.0));
        // Compactions discard weight, so renormalize the target rank to
        // the weight actually retained.
        let retained: u64 = weighted.iter().map(|&(_, w)| w).sum();
        let target = (retained.saturating_sub(1)) as f64 * q;
        let mut cum = 0u64;
        for &(v, w) in &weighted {
            cum += w;
            if cum as f64 > target {
                return v.clamp(self.min, self.max);
            }
        }
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Xoshiro256pp;

    #[test]
    fn exact_quantile_interpolates() {
        let s = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(quantile_sorted(&s, 0.0), 10.0);
        assert_eq!(quantile_sorted(&s, 0.25), 20.0);
        assert_eq!(quantile_sorted(&s, 0.5), 30.0);
        assert_eq!(quantile_sorted(&s, 1.0), 50.0);
        // Between ranks: linear interpolation.
        assert!((quantile_sorted(&s, 0.1) - 14.0).abs() < 1e-12);
        // Even length: the median is the mean of the middle pair.
        assert_eq!(quantile_sorted(&[1.0, 2.0, 3.0, 4.0], 0.5), 2.5);
        // Out-of-range q clamps.
        assert_eq!(quantile_sorted(&s, -1.0), 10.0);
        assert_eq!(quantile_sorted(&s, 2.0), 50.0);
        // A single sample is every quantile.
        assert_eq!(quantile_sorted(&[7.0], 0.99), 7.0);
    }

    #[test]
    #[should_panic(expected = "empty sample")]
    fn exact_quantile_rejects_empty() {
        let _ = quantile_sorted(&[], 0.5);
    }

    #[test]
    fn sketch_is_exact_below_capacity() {
        // Until the first compaction the sketch holds every sample, so
        // its nearest-rank answers must agree with the sorted data.
        let mut sk = QuantileSketch::with_capacity(1024);
        let mut vals: Vec<f64> = (0..500).map(|i| f64::from(i * 7 % 500)).collect();
        for &v in &vals {
            sk.insert(v);
        }
        vals.sort_by(f64::total_cmp);
        assert_eq!(sk.count(), 500);
        assert_eq!(sk.min(), vals[0]);
        assert_eq!(sk.max(), vals[499]);
        assert_eq!(sk.rank_error_bound(), 0.0);
        for q in [0.01, 0.05, 0.5, 0.95, 0.99] {
            let exact = quantile_sorted(&vals, q);
            let got = sk.quantile(q);
            assert!(
                (got - exact).abs() <= 1.0,
                "q={q}: sketch {got} vs exact {exact}"
            );
        }
    }

    /// The documented bound, property-tested: 10⁴ seeded lognormal-ish
    /// samples through a deliberately small sketch, every quantile
    /// within the claimed rank error of the exact sorted answer.
    #[test]
    fn sketch_matches_exact_within_documented_rank_error() {
        for seed in [1u64, 42, 2004] {
            let mut rng = Xoshiro256pp::seed_from_u64(seed);
            let mut sk = QuantileSketch::with_capacity(256);
            let n = 10_000usize;
            let mut vals = Vec::with_capacity(n);
            for _ in 0..n {
                // Heavy-tailed, like lifetimes: exp(2·u³) spread.
                let u = rng.next_f64();
                let v = (2.0 * u * u * u).exp() * (1.0 + 10.0 * u);
                sk.insert(v);
                vals.push(v);
            }
            vals.sort_by(f64::total_cmp);
            let bound = sk.rank_error_bound();
            assert!(bound > 0.0 && bound < n as f64 * 0.05, "bound {bound}");
            for q in [0.01, 0.05, 0.25, 0.5, 0.75, 0.95, 0.99] {
                let got = sk.quantile(q);
                // Where does the sketch's answer sit in the true order?
                let rank = vals.partition_point(|&v| v < got) as f64;
                let true_rank = (n - 1) as f64 * q;
                assert!(
                    (rank - true_rank).abs() <= bound + 1.0,
                    "seed {seed} q={q}: rank {rank} vs {true_rank} (bound {bound})"
                );
            }
        }
    }

    #[test]
    fn merge_equals_fold_and_is_deterministic() {
        // Build one sketch by streaming and one by merging four partial
        // sketches in order; both must answer identically to a re-run —
        // the fleet layer's worker-count invariance in miniature.
        let gen = |lo: u64, hi: u64| {
            let mut sk = QuantileSketch::with_capacity(64);
            let mut rng = Xoshiro256pp::seed_from_u64(9);
            for i in 0..hi {
                let v = rng.next_f64() * 100.0;
                if i >= lo {
                    sk.insert(v);
                }
            }
            sk
        };
        let mut merged = QuantileSketch::with_capacity(64);
        for chunk in 0..4u64 {
            let part = gen(chunk * 250, (chunk + 1) * 250);
            merged.merge(&part);
        }
        let mut merged2 = QuantileSketch::with_capacity(64);
        for chunk in 0..4u64 {
            let part = gen(chunk * 250, (chunk + 1) * 250);
            merged2.merge(&part);
        }
        assert_eq!(merged, merged2, "merge must be deterministic");
        assert_eq!(merged.count(), 1000);
        for q in [0.05, 0.5, 0.95] {
            assert_eq!(merged.quantile(q).to_bits(), merged2.quantile(q).to_bits());
        }
        // And the merged sketch still respects the error bound.
        let mut rng = Xoshiro256pp::seed_from_u64(9);
        let mut vals: Vec<f64> = (0..1000).map(|_| rng.next_f64() * 100.0).collect();
        vals.sort_by(f64::total_cmp);
        let bound = merged.rank_error_bound();
        for q in [0.05, 0.5, 0.95] {
            let got = merged.quantile(q);
            let rank = vals.partition_point(|&v| v < got) as f64;
            assert!(
                (rank - 999.0 * q).abs() <= bound + 1.0,
                "q={q}: rank {rank} (bound {bound})"
            );
        }
    }

    #[test]
    fn extremes_are_exact() {
        let mut sk = QuantileSketch::with_capacity(16);
        for i in 0..10_000 {
            sk.insert(f64::from(i));
        }
        assert_eq!(sk.quantile(0.0), 0.0);
        assert_eq!(sk.quantile(1.0), 9999.0);
        assert_eq!(sk.min(), 0.0);
        assert_eq!(sk.max(), 9999.0);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn sketch_rejects_nan() {
        QuantileSketch::new().insert(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "different k")]
    fn merge_rejects_mismatched_capacity() {
        let mut a = QuantileSketch::with_capacity(64);
        a.merge(&QuantileSketch::with_capacity(128));
    }
}
