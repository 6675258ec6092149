//! Evaluation slicing: checkpointed workload continuation.
//!
//! A long timing run is split into **slices** cut at interval boundaries.
//! At each cut the simulator's complete warm state — synthetic-stream
//! cursor, rename maps, branch-predictor tables, cache/MSHR contents, and
//! in-flight pipeline window — is captured as a [`Checkpoint`](sim_cpu::Checkpoint) and
//! persisted in the strict text format of `sim_cpu::checkpoint`. A later
//! evaluation of the same operating point restores the checkpoints and
//! runs the slices **in parallel**, folding the per-interval statistics
//! back together in slice order.
//!
//! Parity is the contract: because interval statistics are zeroed at every
//! interval boundary and a cut carries *no* statistics, a restored slice
//! replays exactly the cycles the sequential run would have produced, and
//! the concatenated intervals are bit-identical to an unsliced run. The
//! power/thermal passes downstream consume those intervals sequentially
//! either way, so temperatures, FIT, and every derived quantity match to
//! the last bit at any worker count.
//!
//! A cut set is keyed by the run's [`RunDigest`](crate::RunDigest) plus
//! the slice length, and persists in the run shape's directory of a
//! store root ([`crate::store::RunStore`]), sealed. Each checkpoint's
//! `fingerprint` carries the digest and is checked on load, so a renamed
//! file or another profile's cuts are never resumed. The digest excludes
//! supply voltage, so one cut set serves an entire DVS voltage grid, as
//! one timing-cache entry does.

use std::path::PathBuf;

use sim_common::SimError;

use crate::batch::default_workers;
use crate::evaluator::EvalParams;

/// How a sliced evaluation cuts and resumes a timing run.
///
/// Slicing always persists its cuts: [`SliceParams::new`] starts without
/// a store root (`Dir = ()`), and only [`with_dir`](SliceParams::with_dir)
/// makes the `SliceParams` an evaluator slices with. Slicing without
/// persisting would only be a slower unsliced run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SliceParams<Dir = PathBuf> {
    /// Instructions per slice. Must be a positive multiple of the
    /// evaluation's `interval_instructions` so cuts land exactly on
    /// interval boundaries (where statistics are freshly zeroed).
    pub instructions: u64,
    /// The store root the cuts persist under.
    pub dir: Dir,
    /// Worker threads for the parallel resume path.
    pub workers: usize,
}

impl SliceParams<()> {
    /// A slice length with the default worker count
    /// ([`default_workers`]) and no store root yet.
    #[must_use]
    pub fn new(instructions: u64) -> Self {
        SliceParams {
            instructions,
            dir: (),
            workers: default_workers(),
        }
    }

    /// Sets the store root the cuts persist under.
    #[must_use]
    pub fn with_dir(self, dir: impl Into<PathBuf>) -> SliceParams {
        SliceParams {
            instructions: self.instructions,
            dir: dir.into(),
            workers: self.workers,
        }
    }
}

impl<Dir> SliceParams<Dir> {
    /// Sets the worker count for the parallel resume path.
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Validates the slice shape against the evaluation parameters.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] when the slice length is zero,
    /// not a multiple of the interval length, or the worker count is zero.
    pub fn validate(&self, params: &EvalParams) -> Result<(), SimError> {
        if self.instructions == 0
            || !self
                .instructions
                .is_multiple_of(params.interval_instructions)
        {
            return Err(SimError::invalid_config(format!(
                "slice length {} must be a positive multiple of the interval length {}",
                self.instructions, params.interval_instructions
            )));
        }
        if self.workers == 0 {
            return Err(SimError::invalid_config(
                "at least one slice worker is required",
            ));
        }
        Ok(())
    }
}

/// Splits `total` measured instructions into per-slice lengths. Every
/// slice is `slice` instructions except the last, which takes the
/// remainder — mirroring how `Processor::run` partitions a run into
/// intervals.
#[must_use]
pub fn slice_lengths(total: u64, slice: u64) -> Vec<u64> {
    assert!(slice > 0, "slice length must be non-zero");
    let mut lens = Vec::with_capacity((total / slice + 1) as usize);
    let mut remaining = total;
    while remaining > 0 {
        let n = remaining.min(slice);
        lens.push(n);
        remaining -= n;
    }
    lens
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slice_lengths_partition_the_run() {
        assert_eq!(slice_lengths(120_000, 30_000), [30_000; 4]);
        assert_eq!(
            slice_lengths(100_000, 30_000),
            [30_000, 30_000, 30_000, 10_000]
        );
        assert_eq!(slice_lengths(10_000, 30_000), [10_000]);
        assert!(slice_lengths(0, 30_000).is_empty());
    }

    #[test]
    fn validation_rejects_bad_shapes() {
        let params = EvalParams::quick(); // interval 30k
        assert!(SliceParams::new(30_000).validate(&params).is_ok());
        assert!(SliceParams::new(60_000).validate(&params).is_ok());
        assert!(SliceParams::new(0).validate(&params).is_err());
        assert!(SliceParams::new(45_000).validate(&params).is_err());
        assert!(SliceParams::new(30_000)
            .with_workers(0)
            .validate(&params)
            .is_err());
    }
}
