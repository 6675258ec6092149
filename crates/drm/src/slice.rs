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
//! Checkpoints are keyed by workload name, stream seed, and a
//! [`slice_fingerprint`] over the timing-relevant configuration
//! ([`CoreConfig::timing_key`]) and run shape. The timing key excludes
//! supply voltage, so one checkpoint set serves an entire DVS voltage
//! grid — the same sharing rule as the batch engine's timing cache.

use std::fs;
use std::path::{Path, PathBuf};

use sim_common::{fnv1a64, SimError};
use sim_cpu::{checkpoint_from_text, checkpoint_to_text, Checkpoint, CoreConfig};

use crate::batch::default_workers;
use crate::evaluator::EvalParams;

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

/// Fingerprint of everything (besides workload name and seed, which key
/// the file name directly) that determines the machine state at a cut
/// point: the timing-relevant configuration ([`CoreConfig::timing_key`],
/// which excludes `vdd` — voltage never moves a cycle), the warmup
/// length, the prewarm footprint, and the slice length itself.
///
/// The measurement length and interval length are deliberately *not*
/// fingerprinted: cuts land at `warmup + k × slice` regardless, so one
/// checkpoint set serves shorter measurements and any interval length
/// that divides the slice (divisibility is enforced by
/// [`SliceParams::validate`]).
#[must_use]
pub fn slice_fingerprint(config: &CoreConfig, params: &EvalParams, slice_instructions: u64) -> u64 {
    let canonical = format!(
        "ramp-slice-v1|{:?}|warmup={}|prewarm={}|slice={}",
        config.timing_key(),
        params.warmup_instructions,
        params.prewarm_bytes,
        slice_instructions
    );
    fnv1a64(canonical.as_bytes())
}

fn io_err(path: &Path, op: &str, e: &std::io::Error) -> SimError {
    SimError::invalid_config(format!("checkpoint {op} {}: {e}", path.display()))
}

/// A directory of persisted checkpoints, one text file per cut point.
///
/// File names encode the lookup key —
/// `<workload>-s<seed>-<fingerprint>-k<index>.ckpt` — and the same triple
/// is stored (and verified) inside the file, so a renamed or foreign file
/// is rejected rather than silently resumed.
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

    /// Path of the checkpoint for slice `index` of the given run key.
    #[must_use]
    pub fn path(&self, workload: &str, seed: u64, fingerprint: u64, index: usize) -> PathBuf {
        self.dir.join(format!(
            "{workload}-s{seed}-{fingerprint:016x}-k{index:04}.{CHECKPOINT_EXT}"
        ))
    }

    /// Persists `checkpoint` as slice `index`, returning the bytes
    /// written. Counts one `slice.cut` and the file size under
    /// `slice.bytes`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] when the file cannot be
    /// written.
    pub fn save(&self, checkpoint: &Checkpoint, index: usize) -> Result<u64, SimError> {
        let path = self.path(
            &checkpoint.workload,
            checkpoint.seed,
            checkpoint.fingerprint,
            index,
        );
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
    /// not parse, or its embedded key disagrees with the requested one.
    pub fn load(
        &self,
        workload: &str,
        seed: u64,
        fingerprint: u64,
        index: usize,
    ) -> Result<Option<Checkpoint>, SimError> {
        let path = self.path(workload, seed, fingerprint, index);
        let text = match fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(io_err(&path, "read", &e)),
        };
        let checkpoint = checkpoint_from_text(&text)
            .map_err(|e| SimError::invalid_config(format!("{}: {e}", path.display())))?;
        if checkpoint.workload != workload
            || checkpoint.seed != seed
            || checkpoint.fingerprint != fingerprint
        {
            return Err(SimError::invalid_config(format!(
                "{}: embedded key ({}, seed {}, fingerprint {:016x}) does not match the file name",
                path.display(),
                checkpoint.workload,
                checkpoint.seed,
                checkpoint.fingerprint
            )));
        }
        sim_obs::counter!("slice.resume", 1);
        sim_obs::counter!("slice.bytes", text.len() as u64);
        Ok(Some(checkpoint))
    }

    /// Loads the complete cut set for a run — checkpoints `0..count` —
    /// or `None` if *any* is missing (all-or-nothing: a partial set
    /// cannot reproduce the sequential run).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] when a present file is
    /// corrupt or mismatched (see [`load`](CheckpointStore::load)).
    pub fn load_run(
        &self,
        workload: &str,
        seed: u64,
        fingerprint: u64,
        count: usize,
    ) -> Result<Option<Vec<Checkpoint>>, SimError> {
        let mut cuts = Vec::with_capacity(count);
        for index in 0..count {
            match self.load(workload, seed, fingerprint, index)? {
                Some(chk) => cuts.push(chk),
                None => return Ok(None),
            }
        }
        Ok(Some(cuts))
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
    use sim_cpu::Processor;
    use workload::{App, InstructionSource, SyntheticStream};

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
    fn fingerprint_tracks_timing_inputs_only() {
        let params = EvalParams::quick();
        let base = CoreConfig::base();
        let fp = slice_fingerprint(&base, &params, 30_000);
        // Stable across calls.
        assert_eq!(fp, slice_fingerprint(&base, &params, 30_000));
        // Voltage is not timing-relevant: a DVS voltage grid shares cuts.
        let dvs = base.with_dvs(base.frequency, sim_common::Volts(0.85));
        assert_eq!(fp, slice_fingerprint(&dvs, &params, 30_000));
        // Timing knobs, warmup, prewarm, and slice length all separate.
        let arch = base.with_adaptation(64, 4, 2).unwrap();
        assert_ne!(fp, slice_fingerprint(&arch, &params, 30_000));
        let mut warm = params;
        warm.warmup_instructions += 1;
        assert_ne!(fp, slice_fingerprint(&base, &warm, 30_000));
        let mut pre = params;
        pre.prewarm_bytes /= 2;
        assert_ne!(fp, slice_fingerprint(&base, &pre, 30_000));
        assert_ne!(fp, slice_fingerprint(&base, &params, 60_000));
        // Measurement length is deliberately shared.
        let mut longer = params;
        longer.measure_instructions *= 10;
        assert_eq!(fp, slice_fingerprint(&base, &longer, 30_000));
    }

    #[test]
    fn store_round_trips_checkpoints() {
        let store = temp_store("round-trip");
        let chk = cut_checkpoint(7, 0xFEED);
        let bytes = store.save(&chk, 0).unwrap();
        assert!(bytes > 0);
        let loaded = store.load("gzip", 7, 0xFEED, 0).unwrap().unwrap();
        assert_eq!(loaded, chk);
        // Missing index / different key → None, not an error.
        assert!(store.load("gzip", 7, 0xFEED, 1).unwrap().is_none());
        assert!(store.load("gzip", 8, 0xFEED, 0).unwrap().is_none());
        assert!(store.load_run("gzip", 7, 0xFEED, 2).unwrap().is_none());
        assert_eq!(
            store.load_run("gzip", 7, 0xFEED, 1).unwrap().unwrap().len(),
            1
        );
        let listed = store.list().unwrap();
        assert_eq!(listed.len(), 1);
        assert_eq!(listed[0].1, chk);
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn store_rejects_tampered_files() {
        let store = temp_store("tamper");
        let chk = cut_checkpoint(7, 0xFEED);
        store.save(&chk, 0).unwrap();
        // A file renamed to a different key must be rejected: its embedded
        // key no longer matches the name it is looked up under.
        let wrong = store.path("gzip", 9, 0xFEED, 0);
        fs::rename(store.path("gzip", 7, 0xFEED, 0), &wrong).unwrap();
        assert!(store.load("gzip", 9, 0xFEED, 0).is_err());
        // Corrupt text is an error, not a silent miss.
        fs::write(store.path("gzip", 7, 0xFEED, 0), "checkpoint.version 1\n").unwrap();
        assert!(store.load("gzip", 7, 0xFEED, 0).is_err());
        let _ = fs::remove_dir_all(store.dir());
    }
}
