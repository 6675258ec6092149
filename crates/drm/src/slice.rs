//! Evaluation slicing: checkpointed workload continuation.
//!
//! A long timing run is split into **slices** cut at interval boundaries.
//! At each cut the simulator's complete warm state — synthetic-stream
//! cursor, rename maps, branch-predictor tables, cache/MSHR contents, and
//! in-flight pipeline window — is captured as a [`Checkpoint`] and
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
//! A cut set is keyed by the run's [`RunDigest`] — the workload
//! profile's content, the timing-relevant configuration and the whole run
//! shape, the same key as the evaluation store's records — plus the slice
//! length. Each checkpoint's `fingerprint` carries the digest and is
//! checked on load, so a renamed file or another profile's cuts are never
//! resumed. The digest excludes supply voltage, so one cut set serves an
//! entire DVS voltage grid, as one timing-cache entry does.

use std::fs;
use std::path::{Path, PathBuf};

use sim_common::SimError;
use sim_cpu::{checkpoint_from_text, checkpoint_to_text, Checkpoint};

use crate::batch::default_workers;
use crate::evaluator::{EvalParams, RunDigest};

/// File extension of persisted checkpoints.
pub const CHECKPOINT_EXT: &str = "ckpt";

/// How a sliced evaluation cuts and resumes a timing run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SliceParams {
    /// Instructions per slice. Must be a positive multiple of the
    /// evaluation's `interval_instructions` so cuts land exactly on
    /// interval boundaries (where statistics are freshly zeroed).
    pub instructions: u64,
    /// Directory holding persisted checkpoints. `None` still slices the
    /// run (bit-identically), but nothing is persisted, so every run pays
    /// the sequential cut pass and nothing can resume in parallel.
    pub checkpoint_dir: Option<PathBuf>,
    /// Worker threads for the parallel resume path.
    pub workers: usize,
}

impl SliceParams {
    /// Slice parameters with the default worker count
    /// ([`default_workers`]) and no checkpoint directory.
    #[must_use]
    pub fn new(instructions: u64) -> SliceParams {
        SliceParams {
            instructions,
            checkpoint_dir: None,
            workers: default_workers(),
        }
    }

    /// Sets the checkpoint directory.
    #[must_use]
    pub fn with_dir(mut self, dir: impl Into<PathBuf>) -> SliceParams {
        self.checkpoint_dir = Some(dir.into());
        self
    }

    /// Sets the worker count for the parallel resume path.
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> SliceParams {
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

fn io_err(path: &Path, op: &str, e: &std::io::Error) -> SimError {
    SimError::invalid_config(format!("checkpoint {op} {}: {e}", path.display()))
}

/// A directory of persisted checkpoints, one text file per cut point.
///
/// File names encode the lookup key —
/// `<digest>-n<slice length>-k<index>.ckpt` — and the checkpoint's
/// `fingerprint` carries the digest and is verified on load, so a renamed
/// or foreign file is rejected rather than silently resumed. This module
/// alone knows the naming rule.
#[derive(Debug, Clone)]
pub struct CheckpointStore {
    dir: PathBuf,
}

impl CheckpointStore {
    /// Opens (creating if needed) a checkpoint directory.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] when the directory cannot be
    /// created.
    pub fn new(dir: impl Into<PathBuf>) -> Result<CheckpointStore, SimError> {
        let dir = dir.into();
        fs::create_dir_all(&dir).map_err(|e| io_err(&dir, "dir", &e))?;
        Ok(CheckpointStore { dir })
    }

    /// The directory backing this store.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Path of the checkpoint for slice `index` of the run `digest` cut
    /// every `slice` instructions.
    #[must_use]
    pub fn path(&self, digest: RunDigest, slice: u64, index: usize) -> PathBuf {
        self.dir
            .join(format!("{digest}-n{slice}-k{index:04}.{CHECKPOINT_EXT}"))
    }

    /// Persists `checkpoint` as slice `index` of its run (the digest its
    /// `fingerprint` carries) cut every `slice` instructions, returning
    /// the bytes written. Counts one `slice.cut` and the file size under
    /// `slice.bytes`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] when the file cannot be
    /// written.
    pub fn save(&self, checkpoint: &Checkpoint, slice: u64, index: usize) -> Result<u64, SimError> {
        let path = self.path(RunDigest(checkpoint.fingerprint), slice, index);
        let text = checkpoint_to_text(checkpoint);
        fs::write(&path, &text).map_err(|e| io_err(&path, "write", &e))?;
        sim_obs::counter!("slice.cut", 1);
        sim_obs::counter!("slice.bytes", text.len() as u64);
        Ok(text.len() as u64)
    }

    /// Loads the checkpoint for slice `index`, or `None` when no file
    /// exists for the key. Counts one `slice.resume` and the file size
    /// under `slice.bytes`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] when the file exists but does
    /// not parse, or its fingerprint is not the requested digest.
    pub fn load(
        &self,
        digest: RunDigest,
        slice: u64,
        index: usize,
    ) -> Result<Option<Checkpoint>, SimError> {
        let path = self.path(digest, slice, index);
        let text = match fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(io_err(&path, "read", &e)),
        };
        let checkpoint = checkpoint_from_text(&text)
            .map_err(|e| SimError::invalid_config(format!("{}: {e}", path.display())))?;
        if checkpoint.fingerprint != digest.0 {
            return Err(SimError::invalid_config(format!(
                "{}: embedded digest {} does not match the file name",
                path.display(),
                RunDigest(checkpoint.fingerprint)
            )));
        }
        sim_obs::counter!("slice.resume", 1);
        sim_obs::counter!("slice.bytes", text.len() as u64);
        Ok(Some(checkpoint))
    }

    /// Loads the complete cut set for a run — checkpoints `0..count`,
    /// each with its file — or `None` if *any* is missing (all-or-nothing:
    /// a partial set cannot reproduce the sequential run).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] when a present file is
    /// corrupt or mismatched (see [`load`](CheckpointStore::load)).
    pub fn load_run(
        &self,
        digest: RunDigest,
        slice: u64,
        count: usize,
    ) -> Result<Option<Vec<(PathBuf, Checkpoint)>>, SimError> {
        let mut cuts = Vec::with_capacity(count);
        for index in 0..count {
            match self.load(digest, slice, index)? {
                Some(chk) => cuts.push((self.path(digest, slice, index), chk)),
                None => return Ok(None),
            }
        }
        Ok(Some(cuts))
    }

    /// The files of a run's persisted cut set, in slice order, up to the
    /// first missing cut (`ramp checkpoint save` reports these).
    #[must_use]
    pub fn run_files(&self, digest: RunDigest, slice: u64) -> Vec<PathBuf> {
        (0..)
            .map(|index| self.path(digest, slice, index))
            .take_while(|path| path.is_file())
            .collect()
    }

    /// Parses every `.ckpt` file in the directory, sorted by file name
    /// (`ramp checkpoint info` uses this to summarize a directory).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] when the directory cannot be
    /// read or a checkpoint file does not parse.
    pub fn list(&self) -> Result<Vec<(PathBuf, Checkpoint)>, SimError> {
        let entries = fs::read_dir(&self.dir).map_err(|e| io_err(&self.dir, "dir", &e))?;
        let mut paths: Vec<PathBuf> = Vec::new();
        for entry in entries {
            let path = entry.map_err(|e| io_err(&self.dir, "dir", &e))?.path();
            if path.extension().is_some_and(|ext| ext == CHECKPOINT_EXT) {
                paths.push(path);
            }
        }
        paths.sort();
        let mut out = Vec::with_capacity(paths.len());
        for path in paths {
            let text = fs::read_to_string(&path).map_err(|e| io_err(&path, "read", &e))?;
            let checkpoint = checkpoint_from_text(&text)
                .map_err(|e| SimError::invalid_config(format!("{}: {e}", path.display())))?;
            out.push((path, checkpoint));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_cpu::{CoreConfig, Processor};
    use workload::{App, InstructionSource, SyntheticStream};

    const DIGEST: RunDigest = RunDigest(0xFEED);

    fn temp_store(tag: &str) -> CheckpointStore {
        let dir =
            std::env::temp_dir().join(format!("ramp-slice-store-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        CheckpointStore::new(dir).unwrap()
    }

    fn cut_checkpoint(seed: u64, fingerprint: u64) -> Checkpoint {
        let mut cpu = Processor::new(
            CoreConfig::base(),
            SyntheticStream::new(App::Gzip.profile(), seed),
        )
        .unwrap();
        cpu.prewarm(0x1000_0000, 128 * 1024, 0, 16 * 1024);
        let _ = cpu.run_instructions(10_000);
        Checkpoint {
            workload: cpu.source().name().to_owned(),
            seed,
            fingerprint,
            stream: cpu.source().state(),
            pipeline: cpu.state(),
        }
    }

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

    #[test]
    fn store_round_trips_checkpoints() {
        let store = temp_store("round-trip");
        let chk = cut_checkpoint(7, DIGEST.0);
        let bytes = store.save(&chk, 30_000, 0).unwrap();
        assert!(bytes > 0);
        let loaded = store.load(DIGEST, 30_000, 0).unwrap().unwrap();
        assert_eq!(loaded, chk);
        // Missing index / different key → None, not an error.
        assert!(store.load(DIGEST, 30_000, 1).unwrap().is_none());
        assert!(store.load(RunDigest(0xBEEF), 30_000, 0).unwrap().is_none());
        assert!(store.load(DIGEST, 60_000, 0).unwrap().is_none());
        assert!(store.load_run(DIGEST, 30_000, 2).unwrap().is_none());
        assert_eq!(store.load_run(DIGEST, 30_000, 1).unwrap().unwrap().len(), 1);
        assert_eq!(
            store.run_files(DIGEST, 30_000),
            [store.path(DIGEST, 30_000, 0)]
        );
        let listed = store.list().unwrap();
        assert_eq!(listed.len(), 1);
        assert_eq!(listed[0].1, chk);
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn store_rejects_tampered_files() {
        let store = temp_store("tamper");
        let chk = cut_checkpoint(7, DIGEST.0);
        store.save(&chk, 30_000, 0).unwrap();
        // A file renamed to a different key must be rejected: its embedded
        // digest no longer matches the name it is looked up under.
        let other = RunDigest(0xBEEF);
        fs::rename(store.path(DIGEST, 30_000, 0), store.path(other, 30_000, 0)).unwrap();
        assert!(store.load(other, 30_000, 0).is_err());
        // Corrupt text is an error, not a silent miss.
        fs::write(store.path(DIGEST, 30_000, 0), "checkpoint.version 1\n").unwrap();
        assert!(store.load(DIGEST, 30_000, 0).is_err());
        let _ = fs::remove_dir_all(store.dir());
    }
}
