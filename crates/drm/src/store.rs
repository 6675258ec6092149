//! Disk-backed, append-only evaluation store: persists cycle-level
//! timing runs across process restarts so a restarted engine's timing
//! cache can be pre-warmed from a shared directory.
//!
//! The expensive stage of every evaluation is the cycle-level timing
//! run; power/thermal finishing is cheap and qualification-dependent.
//! The store therefore persists [`TimingRun`]s, keyed and deduped by
//! their [`RunDigest`] — the workload profile's content, the
//! timing-relevant configuration and the run shape, the same key as slice
//! checkpoints. Each record also carries its operating point (app,
//! [`ArchPoint`], and the raw `f64` bits of its [`DvsPoint`]), so an
//! engine rebuilds the record's configuration on its own base
//! configuration and serves the record only when its own digest for that
//! point equals the stored one (`BatchEngine::with_store`).
//!
//! Format (`ramp-evalstore/2`): a text segment with one record per
//! line, read with the token cursor of [`sim_common::textfmt`]. Each
//! record carries keyed header tokens, a fixed-width positional payload
//! (58 values per interval, `u64`s in decimal and `f64`s as 16-digit hex
//! bit patterns), and is sealed with the trailing FNV-1a checksum token
//! over everything before it. Appends are fsync'd; the
//! index is rebuilt by scanning on open. A truncated tail record (torn
//! write on crash) is silently dropped and the segment truncated back
//! to the last complete line; a *complete* record that fails to parse
//! or checksum is a hard error with 1-based line/token positions.
//! Duplicate digests are last-write-wins, matching replay order.

use std::collections::{HashMap, HashSet};
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, PoisonError};
use std::time::Duration;

use sim_common::textfmt::{seal, unseal, Hex64, TokenError, Tokens};
use sim_common::{Hertz, SimError, Structure, Volts};
use sim_cpu::IntervalStats;
use workload::App;

use crate::dvs::DvsPoint;
use crate::evaluator::{RunDigest, TimingRun};
use crate::space::ArchPoint;

/// First line of every store segment.
pub const STORE_HEADER: &str = "ramp-evalstore/2";

/// File extension for store segments.
pub const STORE_EXTENSION: &str = "evalstore";

/// Values per interval in a record's positional payload:
/// cycles + instructions, 9 activity factors, 25 pipeline counters,
/// 6 branch-predictor fields, 3 × 4 cache fields, 2 × 2 register-file
/// fields.
const VALUES_PER_INTERVAL: usize = 2 + 9 + 25 + 6 + 12 + 4;

/// Keyed header tokens before the positional payload (`run` verb +
/// 9 `key=value` tokens).
const HEADER_TOKENS: usize = 10;

/// One persisted timing run with its digest and operating point.
#[derive(Debug, Clone)]
pub struct StoreRecord {
    /// Digest of the run's inputs: the key records are deduped on.
    pub digest: RunDigest,
    /// The workload.
    pub app: App,
    /// The adaptation point the run was simulated at.
    pub arch: ArchPoint,
    /// The DVS point the run was simulated at, bit-exact.
    pub dvs: DvsPoint,
    /// The persisted timing run.
    pub run: TimingRun,
}

/// A disk-backed, append-only store of timing runs over a shared
/// directory of segments ([`EvalStore::open_dir`]): every process reads
/// all segments but appends only to its own, so concurrent writers never
/// interleave. Loaded records are drained once via
/// [`EvalStore::take_records`] to pre-warm a timing cache; fresh runs
/// are persisted with [`EvalStore::append`].
#[derive(Debug)]
pub struct EvalStore {
    path: PathBuf,
    /// The segment file, and the digests known to be durable in any
    /// segment (appends dedupe on them).
    file: Mutex<(File, HashSet<RunDigest>)>,
    /// Records loaded at open, in last-write-wins replay order.
    loaded: Mutex<Vec<StoreRecord>>,
}

fn io_err(path: &Path, op: &str, e: &std::io::Error) -> SimError {
    SimError::invalid_config(format!("eval store {op} {}: {e}", path.display()))
}

fn parse_err(path: &Path, line: usize, msg: &str) -> SimError {
    SimError::invalid_config(format!("eval store {}: line {line}: {msg}", path.display()))
}

/// Splits `content` into complete lines, dropping a torn final line
/// (no trailing newline). Returns the lines and the byte length of the
/// complete prefix.
fn complete_lines(content: &str) -> (Vec<&str>, usize) {
    match content.rfind('\n') {
        Some(last) => (content[..last].split('\n').collect(), last + 1),
        None => (Vec::new(), 0),
    }
}

/// The `u64` payload fields of an interval after its activity factors,
/// in record order. The encoder and the decoder both walk this one list,
/// so their field orders cannot drift apart.
fn counter_fields(iv: &mut IntervalStats) -> Vec<&mut u64> {
    let c = &mut iv.counters;
    let mut fields = vec![
        &mut c.fetched,
        &mut c.window_writes,
        &mut c.window_wakeups,
        &mut c.window_issues,
        &mut c.lsq_inserts,
        &mut c.lsq_searches,
        &mut c.int_busy,
        &mut c.fp_busy,
        &mut c.agen_busy,
        &mut c.forwards,
        &mut c.cycles_window_empty,
        &mut c.cycles_head_mem,
        &mut c.cycles_head_exec,
        &mut c.cycles_fetch_stalled,
    ];
    fields.extend(&mut c.class_commits);
    let b = &mut iv.bpred;
    fields.extend([
        &mut b.lookups,
        &mut b.updates,
        &mut b.mispredicts,
        &mut b.ras_pushes,
        &mut b.ras_pops,
        &mut b.ras_mispredicts,
    ]);
    for cache in [&mut iv.l1i, &mut iv.l1d, &mut iv.l2] {
        fields.extend([
            &mut cache.accesses,
            &mut cache.hits,
            &mut cache.misses,
            &mut cache.writebacks,
        ]);
    }
    for rf in [&mut iv.int_regfile, &mut iv.fp_regfile] {
        fields.extend([&mut rf.reads, &mut rf.writes]);
    }
    fields
}

/// Encodes one record as a single line (no trailing newline), checksum
/// included.
fn encode_record(rec: &StoreRecord) -> String {
    use std::fmt::Write as _;
    let mut line = format!(
        "run app={} window={} alus={} fpus={} freq_bits={} vdd_bits={} digest={} \
         wall_ns={} intervals={}",
        rec.app.name(),
        rec.arch.window,
        rec.arch.alus,
        rec.arch.fpus,
        Hex64::of(rec.dvs.frequency.0),
        Hex64::of(rec.dvs.vdd.0),
        rec.digest,
        rec.run.wall().as_nanos(),
        rec.run.intervals().len(),
    );
    for iv in rec.run.intervals() {
        let _ = write!(line, " {} {}", iv.cycles, iv.instructions);
        for s in Structure::ALL {
            let _ = write!(line, " {}", Hex64::of(iv.activity[s]));
        }
        for v in counter_fields(&mut iv.clone()) {
            let _ = write!(line, " {v}");
        }
    }
    seal(&mut line);
    line
}

/// Decodes one complete record line, verifying its checksum.
fn decode_record(line: &str) -> Result<StoreRecord, String> {
    // Checksum first, so any torn-but-newline-terminated or bit-flipped
    // record is rejected before field parsing.
    let body = unseal(line)?;
    let mut t = Tokens::new(body);
    let verb = t.next("record verb")?;
    if verb.value != "run" {
        let msg = format!("expected verb \"run\", got `{}`", verb.value);
        return Err(TokenError::new(verb.pos, msg).into());
    }
    let app_name = t.keyed::<String>("app")?;
    let app = *App::ALL
        .iter()
        .find(|a| a.name() == app_name.value)
        .ok_or_else(|| {
            TokenError::new(app_name.pos, format!("unknown app `{}`", app_name.value))
        })?;
    let arch = ArchPoint {
        window: t.keyed("window")?.value,
        alus: t.keyed("alus")?.value,
        fpus: t.keyed("fpus")?.value,
    };
    let dvs = DvsPoint {
        frequency: Hertz(t.keyed::<Hex64>("freq_bits")?.value.to_f64()),
        vdd: Volts(t.keyed::<Hex64>("vdd_bits")?.value.to_f64()),
    };
    let digest = RunDigest(t.keyed::<Hex64>("digest")?.value.0);
    let wall_ns = t.keyed("wall_ns")?.value;
    let intervals: u64 = t.keyed("intervals")?.value;

    // The interval count is checked against the tokens present before
    // anything is sized from it.
    let payload = (t.count() - HEADER_TOKENS) as u64;
    if intervals.checked_mul(VALUES_PER_INTERVAL as u64) != Some(payload) {
        return Err(format!(
            "record has {} tokens before the checksum, which does not fit \
             {intervals} interval(s) of {VALUES_PER_INTERVAL} values",
            t.count()
        ));
    }

    let mut ivs = Vec::with_capacity(intervals as usize);
    for _ in 0..intervals {
        let mut iv = IntervalStats {
            cycles: t.value("cycles")?,
            instructions: t.value("instructions")?,
            ..IntervalStats::default()
        };
        for s in Structure::ALL {
            let v = t.value::<Hex64>("activity")?.to_f64();
            if v.is_nan() {
                return Err(TokenError::new(t.pos(), format!("activity[{s:?}] is NaN")).into());
            }
            iv.activity[s] = v;
        }
        for slot in counter_fields(&mut iv) {
            *slot = t.value("counter")?;
        }
        ivs.push(iv);
    }

    Ok(StoreRecord {
        digest,
        app,
        arch,
        dvs,
        run: TimingRun::from_parts(ivs, Duration::from_nanos(wall_ns)),
    })
}

/// Parses one segment's complete lines (header + records) into `into`,
/// last-write-wins on duplicate digests.
fn load_segment(
    path: &Path,
    lines: &[&str],
    into: &mut Vec<StoreRecord>,
    by_digest: &mut HashMap<RunDigest, usize>,
) -> Result<(), SimError> {
    for (i, line) in lines.iter().enumerate() {
        if i == 0 {
            if *line != STORE_HEADER {
                return Err(parse_err(
                    path,
                    1,
                    &format!("bad header {line:?}, expected {STORE_HEADER:?}"),
                ));
            }
            continue;
        }
        if line.trim().is_empty() {
            continue;
        }
        let rec = decode_record(line).map_err(|msg| parse_err(path, i + 1, &msg))?;
        match by_digest.get(&rec.digest) {
            Some(&at) => into[at] = rec,
            None => {
                by_digest.insert(rec.digest, into.len());
                into.push(rec);
            }
        }
    }
    Ok(())
}

/// Opens `path` read+append, truncating a torn tail record, creating
/// the file (with header) when absent or empty. Returns the open file
/// positioned at the end and the complete content.
fn open_segment(path: &Path) -> Result<(File, String), SimError> {
    let mut file = OpenOptions::new()
        .read(true)
        .write(true)
        .create(true)
        .truncate(false)
        .open(path)
        .map_err(|e| io_err(path, "open", &e))?;
    let mut raw = Vec::new();
    file.read_to_end(&mut raw)
        .map_err(|e| io_err(path, "read", &e))?;
    let content = String::from_utf8_lossy(&raw).into_owned();
    let (_, valid_len) = complete_lines(&content);
    if valid_len == 0 {
        // Fresh segment (or one whose header write was torn): start over.
        file.set_len(0).map_err(|e| io_err(path, "truncate", &e))?;
        file.seek(SeekFrom::Start(0))
            .map_err(|e| io_err(path, "seek", &e))?;
        file.write_all(format!("{STORE_HEADER}\n").as_bytes())
            .map_err(|e| io_err(path, "write", &e))?;
        file.sync_data().map_err(|e| io_err(path, "sync", &e))?;
        return Ok((file, String::new()));
    }
    if valid_len < raw.len() {
        // Torn tail record: drop it so appends start on a line boundary.
        file.set_len(valid_len as u64)
            .map_err(|e| io_err(path, "truncate", &e))?;
        file.sync_data().map_err(|e| io_err(path, "sync", &e))?;
    }
    file.seek(SeekFrom::End(0))
        .map_err(|e| io_err(path, "seek", &e))?;
    Ok((file, content[..valid_len].to_string()))
}

impl EvalStore {
    /// Opens a shared store directory, creating it if needed: reads every
    /// `*.evalstore` segment (sorted by file name, last-write-wins across
    /// segments, this process's own segment last) for pre-warming, but
    /// appends only to this process's own segment `<label>.evalstore`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] on I/O failure, a bad header
    /// (a segment of another format version), or any complete record in
    /// any segment that fails to parse or checksum. A torn tail record is
    /// *not* an error: it is dropped, and in the own segment truncated
    /// back to the last complete line.
    pub fn open_dir(dir: &Path, label: &str) -> Result<EvalStore, SimError> {
        std::fs::create_dir_all(dir).map_err(|e| io_err(dir, "create dir", &e))?;
        let own = dir.join(format!("{label}.{STORE_EXTENSION}"));
        let mut shared: Vec<PathBuf> = std::fs::read_dir(dir)
            .map_err(|e| io_err(dir, "scan dir", &e))?
            .filter_map(|entry| entry.ok().map(|e| e.path()))
            .filter(|p| {
                p != &own && p.extension().and_then(|e| e.to_str()) == Some(STORE_EXTENSION)
            })
            .collect();
        shared.sort();
        let mut loaded = Vec::new();
        let mut by_digest = HashMap::new();
        for seg in &shared {
            let raw = std::fs::read(seg).map_err(|e| io_err(seg, "read", &e))?;
            let content = String::from_utf8_lossy(&raw);
            load_segment(
                seg,
                &complete_lines(&content).0,
                &mut loaded,
                &mut by_digest,
            )?;
        }
        let (file, content) = open_segment(&own)?;
        load_segment(
            &own,
            &complete_lines(&content).0,
            &mut loaded,
            &mut by_digest,
        )?;
        let index = by_digest.into_keys().collect();
        sim_obs::counter!("drm.store.opens", 1);
        sim_obs::counter!("drm.store.records_loaded", loaded.len() as u64);
        sim_obs::log_debug!(
            "drm.store",
            "opened {} ({} shared segment(s)) with {} record(s)",
            own.display(),
            shared.len(),
            loaded.len()
        );
        Ok(EvalStore {
            path: own,
            file: Mutex::new((file, index)),
            loaded: Mutex::new(loaded),
        })
    }

    /// The segment this store appends to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Number of distinct digests known to be durable (across every
    /// segment read at open, plus appends since).
    pub fn len(&self) -> usize {
        let (_, index) = &*self.file.lock().unwrap_or_else(PoisonError::into_inner);
        index.len()
    }

    /// True when no record is stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drains the records loaded at open (in last-write-wins replay
    /// order) — the pre-warm feed. Subsequent calls return nothing.
    pub fn take_records(&self) -> Vec<StoreRecord> {
        std::mem::take(&mut self.loaded.lock().unwrap_or_else(PoisonError::into_inner))
    }

    /// Appends one record, fsync'd before return. A digest already
    /// durable (loaded at open or appended earlier) is skipped — the
    /// payload is deterministic, so rewriting it would only grow the
    /// segment.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] when the write or sync fails.
    pub fn append(&self, rec: &StoreRecord) -> Result<(), SimError> {
        let mut guard = self.file.lock().unwrap_or_else(PoisonError::into_inner);
        let (file, index) = &mut *guard;
        if index.contains(&rec.digest) {
            return Ok(());
        }
        let mut line = encode_record(rec);
        line.push('\n');
        file.write_all(line.as_bytes())
            .map_err(|e| io_err(&self.path, "append", &e))?;
        file.sync_data()
            .map_err(|e| io_err(&self.path, "sync", &e))?;
        index.insert(rec.digest);
        sim_obs::counter!("drm.store.appends", 1);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluator::{EvalParams, Evaluator};
    use sim_common::fnv1a64;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_dir(tag: &str) -> PathBuf {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "ramp-store-{tag}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn tiny_params() -> EvalParams {
        EvalParams {
            warmup_instructions: 5_000,
            measure_instructions: 20_000,
            interval_instructions: 5_000,
            seed: 3,
            leakage_iterations: 2,
            prewarm_bytes: 1 << 20,
        }
    }

    fn sample_record(seed_tweak: u64) -> StoreRecord {
        let params = EvalParams {
            seed: 3 + seed_tweak,
            ..tiny_params()
        };
        let evaluator = Evaluator::ibm_65nm(params).unwrap();
        let arch = ArchPoint::most_aggressive();
        let dvs = DvsPoint::base();
        let config = arch.apply(&sim_cpu::CoreConfig::base(), dvs).unwrap();
        let profile = App::Gzip.profile();
        let run = evaluator.timing_run(&profile, &config).unwrap();
        StoreRecord {
            digest: RunDigest::new(&profile, &config, &params),
            app: App::Gzip,
            arch,
            dvs,
            run,
        }
    }

    fn assert_records_equal(a: &StoreRecord, b: &StoreRecord) {
        assert_eq!(a.digest, b.digest);
        assert_eq!((a.app, a.arch), (b.app, b.arch));
        assert_eq!(a.dvs.frequency.0.to_bits(), b.dvs.frequency.0.to_bits());
        assert_eq!(a.dvs.vdd.0.to_bits(), b.dvs.vdd.0.to_bits());
        assert_runs_equal(&a.run, &b.run);
    }

    fn assert_runs_equal(a: &TimingRun, b: &TimingRun) {
        assert_eq!(a.wall(), b.wall());
        assert_eq!(a.intervals(), b.intervals());
    }

    #[test]
    fn round_trips_a_timing_run_bit_identically() {
        let dir = temp_dir("roundtrip");
        let path = dir.join("seg.evalstore");
        let rec = sample_record(0);
        {
            let store = EvalStore::open_dir(&dir, "seg").unwrap();
            assert_eq!(store.path(), path);
            assert!(store.is_empty());
            store.append(&rec).unwrap();
            assert_eq!(store.len(), 1);
            // A duplicate append is a no-op on disk.
            let size = std::fs::metadata(&path).unwrap().len();
            store.append(&rec).unwrap();
            assert_eq!(std::fs::metadata(&path).unwrap().len(), size);
        }
        let store = EvalStore::open_dir(&dir, "seg").unwrap();
        let records = store.take_records();
        assert_eq!(records.len(), 1);
        assert_records_equal(&records[0], &rec);
        // Drained once: a second take yields nothing.
        assert!(store.take_records().is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_tail_is_ignored_on_reopen() {
        let dir = temp_dir("torn");
        let path = dir.join("seg.evalstore");
        let rec = sample_record(0);
        {
            let store = EvalStore::open_dir(&dir, "seg").unwrap();
            store.append(&rec).unwrap();
        }
        // Simulate a torn write: half a record, no trailing newline.
        let clean_len = std::fs::metadata(&path).unwrap().len();
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"run app=gzip window=128 alus=6 fp").unwrap();
        drop(f);

        let store = EvalStore::open_dir(&dir, "seg").unwrap();
        let records = store.take_records();
        assert_eq!(records.len(), 1, "torn tail must be dropped, not fatal");
        assert_runs_equal(&records[0].run, &rec.run);
        // The segment was truncated back to the last complete line, so
        // the next append starts on a line boundary.
        assert_eq!(std::fs::metadata(&path).unwrap().len(), clean_len);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn duplicate_keys_are_last_write_wins() {
        let dir = temp_dir("lww");
        let path = dir.join("seg.evalstore");
        let first = sample_record(0);
        let second = StoreRecord {
            run: sample_record(7).run,
            ..first.clone()
        };
        // append() dedupes, so hand-write two records with the same digest.
        let text = format!(
            "{STORE_HEADER}\n{}\n{}\n",
            encode_record(&first),
            encode_record(&second)
        );
        std::fs::write(&path, text).unwrap();

        let store = EvalStore::open_dir(&dir, "seg").unwrap();
        assert_eq!(store.len(), 1);
        let records = store.take_records();
        assert_eq!(records.len(), 1);
        assert_runs_equal(&records[0].run, &second.run);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_records_are_rejected_with_positions() {
        let dir = temp_dir("corrupt");
        let rec = sample_record(0);
        let line = encode_record(&rec);

        // Each case is the own segment of a directory of its own.
        let open_with = |tag: &str, record_line: &str| {
            let seg_dir = dir.join(tag);
            std::fs::create_dir_all(&seg_dir).unwrap();
            let path = seg_dir.join(format!("seg.{STORE_EXTENSION}"));
            std::fs::write(&path, format!("{STORE_HEADER}\n{record_line}\n")).unwrap();
            EvalStore::open_dir(&seg_dir, "seg")
        };

        // A flipped payload byte fails the checksum.
        let mut flipped = line.clone().into_bytes();
        let at = line.find(" intervals=").unwrap() - 1;
        flipped[at] = if flipped[at] == b'0' { b'1' } else { b'0' };
        let err = open_with("flip", std::str::from_utf8(&flipped).unwrap())
            .unwrap_err()
            .to_string();
        assert!(err.contains("line 2"), "{err}");
        assert!(err.contains("checksum mismatch"), "{err}");

        // A malformed keyed token is named by its 1-based position.
        let body = line[..line.rfind(" sum=").unwrap()].replace("app=gzip", "app?gzip");
        let resummed = format!("{body} sum={:016x}", fnv1a64(body.as_bytes()));
        let err = open_with("token", &resummed).unwrap_err().to_string();
        assert!(err.contains("line 2"), "{err}");
        assert!(err.contains("token 2"), "{err}");
        assert!(err.contains("expected app=..."), "{err}");

        // A bad header is fatal at line 1, and so is a segment of the
        // previous format version.
        for header in ["ramp-evalstore/999", "ramp-evalstore/1"] {
            let seg_dir = dir.join(header.replace('/', "-"));
            std::fs::create_dir_all(&seg_dir).unwrap();
            std::fs::write(seg_dir.join("seg.evalstore"), format!("{header}\n")).unwrap();
            let err = EvalStore::open_dir(&seg_dir, "seg")
                .unwrap_err()
                .to_string();
            assert!(err.contains("line 1"), "{err}");
            assert!(err.contains("bad header"), "{err}");
        }

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn shared_directory_prewarms_across_segments() {
        let dir = temp_dir("shared");
        let rec = sample_record(0);
        {
            let a = EvalStore::open_dir(&dir, "shard-0").unwrap();
            a.append(&rec).unwrap();
        }
        // A different shard opening the same directory sees shard-0's
        // record, and its own append of the same digest dedupes.
        let b = EvalStore::open_dir(&dir, "shard-1").unwrap();
        assert_eq!(b.len(), 1);
        let records = b.take_records();
        assert_eq!(records.len(), 1);
        assert_records_equal(&records[0], &rec);
        b.append(&rec).unwrap();
        assert_eq!(
            std::fs::read_to_string(dir.join("shard-1.evalstore")).unwrap(),
            format!("{STORE_HEADER}\n"),
            "a digest already durable in another segment must not be rewritten"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A record encoded with a fixed wall time, pinned by its length and
    /// FNV-1a digest: the encoder's bytes must never drift.
    #[test]
    fn encoded_record_matches_the_golden_digest() {
        let rec = sample_record(0);
        let rec = StoreRecord {
            run: TimingRun::from_parts(
                rec.run.intervals().to_vec(),
                Duration::from_nanos(1_234_567),
            ),
            ..rec
        };
        let line = encode_record(&rec);
        assert_eq!(line.len(), 1473);
        assert_eq!(fnv1a64(line.as_bytes()), 0x9c84_0858_7ddd_8eb9);
    }

    /// Loads one segment's text in memory, as `EvalStore::open_dir` would.
    fn load_text(text: &str) -> Result<Vec<StoreRecord>, SimError> {
        let (lines, _) = complete_lines(text);
        let mut records = Vec::new();
        load_segment(Path::new("mem"), &lines, &mut records, &mut HashMap::new())?;
        Ok(records)
    }

    #[test]
    fn an_overflowing_interval_count_is_an_error() {
        let rec = sample_record(0);
        let line = encode_record(&rec);
        let mut body = unseal(&line).unwrap().replace(
            &format!("intervals={}", rec.run.intervals().len()),
            "intervals=636094623231363848",
        );
        seal(&mut body);
        let err = load_text(&format!("{STORE_HEADER}\n{body}\n"))
            .unwrap_err()
            .to_string();
        assert!(err.contains("line 2"), "{err}");
        assert!(
            err.contains("does not fit 636094623231363848 interval(s)"),
            "{err}"
        );
    }

    /// Seeded corruptions of a canonical segment (checksums re-sealed, so
    /// they reach field decoding) load or fail naming a line; none panics.
    #[test]
    fn corrupted_segments_never_panic() {
        let rec = sample_record(0);
        let text = format!("{STORE_HEADER}\n{}\n", encode_record(&rec));
        assert_eq!(load_text(&text).unwrap().len(), 1);
        for seed in 0..500 {
            let bad = sim_common::textfmt::corrupt(&text, seed);
            if let Err(e) = load_text(&bad) {
                assert!(e.to_string().contains(": line "), "seed {seed}: {e}");
            }
        }
    }
}
