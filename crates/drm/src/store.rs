//! Disk-backed, append-only evaluation store: persists cycle-level
//! timing runs across process restarts so shard caches survive and can
//! be pre-warmed from a shared directory.
//!
//! The expensive stage of every evaluation is the cycle-level timing
//! run; power/thermal finishing is cheap and qualification-dependent.
//! The store therefore persists [`TimingRun`]s, keyed by the *full*
//! operating-point key ([`EvalKey`]: app × [`ArchPoint`] × fixed-point
//! frequency/voltage), with the raw `f64` bits of the DVS point
//! alongside so the evaluated [`CoreConfig`] — and hence the timing-
//! cache key — is reconstructed bit-identically on load.
//!
//! Format (`ramp-evalstore/1`): a text segment with one record per
//! line, read with the token cursor of [`sim_common::textfmt`]. Each
//! record carries keyed header tokens, a fixed-width positional payload
//! (58 values per interval, `u64`s in decimal and `f64`s as 16-digit hex
//! bit patterns), and is sealed with the trailing FNV-1a checksum token
//! over everything before it. Appends are fsync'd; the
//! index is rebuilt by scanning on open. A truncated tail record (torn
//! write on crash) is silently dropped and the segment truncated back
//! to the last complete line; a *complete* record that fails to parse
//! or checksum is a hard error with 1-based line/token positions.
//! Duplicate keys are last-write-wins, matching replay order.
//!
//! [`CoreConfig`]: sim_cpu::CoreConfig

use std::collections::{HashMap, HashSet};
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Duration;

use sim_common::textfmt::{seal, unseal, Hex64, TokenError, Tokens};
use sim_common::{Hertz, SimError, Structure, Volts};
use sim_cpu::IntervalStats;
use workload::App;

use crate::batch::EvalKey;
use crate::dvs::DvsPoint;
use crate::evaluator::TimingRun;
use crate::space::ArchPoint;

/// First line of every store segment.
pub const STORE_HEADER: &str = "ramp-evalstore/1";

/// File extension for store segments.
pub const STORE_EXTENSION: &str = "evalstore";

/// Values per interval in a record's positional payload:
/// cycles + instructions, 9 activity factors, 25 pipeline counters,
/// 6 branch-predictor fields, 3 × 4 cache fields, 2 × 2 register-file
/// fields.
const VALUES_PER_INTERVAL: usize = 2 + 9 + 25 + 6 + 12 + 4;

/// Keyed header tokens before the positional payload (`run` verb +
/// 10 `key=value` tokens).
const HEADER_TOKENS: usize = 11;

/// One persisted evaluation: the full operating-point key, the raw
/// `f64` bits of its DVS point, and the cycle-level timing run.
#[derive(Debug, Clone)]
pub struct StoreRecord {
    /// The full operating-point key.
    pub key: EvalKey,
    /// Raw bits of the DVS frequency in Hz (bit-exact reconstruction).
    pub freq_bits: u64,
    /// Raw bits of the supply voltage in volts.
    pub vdd_bits: u64,
    /// The persisted timing run.
    pub run: TimingRun,
}

impl StoreRecord {
    /// The DVS point reconstructed bit-identically from the raw bits.
    #[must_use]
    pub fn dvs(&self) -> DvsPoint {
        DvsPoint {
            frequency: Hertz(f64::from_bits(self.freq_bits)),
            vdd: Volts(f64::from_bits(self.vdd_bits)),
        }
    }
}

/// A disk-backed, append-only store of timing runs.
///
/// Open one segment with [`EvalStore::open`], or a shared directory of
/// segments with [`EvalStore::open_dir`] (every shard reads all
/// segments but appends only to its own, so concurrent shards never
/// interleave writes). Loaded records are drained once via
/// [`EvalStore::take_records`] to pre-warm a timing cache; fresh runs
/// are persisted with [`EvalStore::append`].
#[derive(Debug)]
pub struct EvalStore {
    path: PathBuf,
    /// The segment file, and the keys known to be durable in any segment
    /// (appends dedupe on them).
    file: Mutex<(File, HashSet<EvalKey>)>,
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
fn encode_record(key: EvalKey, freq_bits: u64, vdd_bits: u64, run: &TimingRun) -> String {
    use std::fmt::Write as _;
    let mut line = format!(
        "run app={} window={} alus={} fpus={} freq_khz={} vdd_uv={} \
         freq_bits={} vdd_bits={} wall_ns={} intervals={}",
        key.app.name(),
        key.arch.window,
        key.arch.alus,
        key.arch.fpus,
        key.freq_khz,
        key.vdd_uv,
        Hex64(freq_bits),
        Hex64(vdd_bits),
        run.wall().as_nanos(),
        run.intervals().len(),
    );
    for iv in run.intervals() {
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

/// Decodes one complete record line, verifying the checksum and the
/// embedded fixed-point key against the raw DVS bits.
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
    let freq_khz = t.keyed("freq_khz")?.value;
    let vdd_uv = t.keyed("vdd_uv")?.value;
    let freq_bits = t.keyed::<Hex64>("freq_bits")?.value.0;
    let vdd_bits = t.keyed::<Hex64>("vdd_bits")?.value.0;
    let wall_ns = t.keyed("wall_ns")?.value;
    let intervals: u64 = t.keyed("intervals")?.value;

    // Embedded-key verification: the fixed-point key tokens must match
    // the key recomputed from the raw DVS bits, like `CheckpointStore`
    // rejecting a checkpoint whose embedded key disagrees with its file.
    let dvs = DvsPoint {
        frequency: Hertz(f64::from_bits(freq_bits)),
        vdd: Volts(f64::from_bits(vdd_bits)),
    };
    let recomputed = EvalKey::new(app, arch, dvs);
    if recomputed.freq_khz != freq_khz || recomputed.vdd_uv != vdd_uv {
        return Err(format!(
            "embedded key (freq_khz={freq_khz}, vdd_uv={vdd_uv}) does not match the \
             raw operating point (freq_khz={}, vdd_uv={})",
            recomputed.freq_khz, recomputed.vdd_uv
        ));
    }

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
        key: EvalKey {
            app,
            arch,
            freq_khz,
            vdd_uv,
        },
        freq_bits,
        vdd_bits,
        run: TimingRun::from_parts(ivs, Duration::from_nanos(wall_ns)),
    })
}

/// Parses one segment's complete lines (header + records) into `into`,
/// last-write-wins on duplicate keys.
fn load_segment(
    path: &Path,
    lines: &[&str],
    into: &mut Vec<StoreRecord>,
    by_key: &mut HashMap<EvalKey, usize>,
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
        match by_key.get(&rec.key) {
            Some(&at) => into[at] = rec,
            None => {
                by_key.insert(rec.key, into.len());
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
    /// Opens (creating if needed) a single segment at `path`, rebuilding
    /// the in-memory index by scanning every complete record.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] on I/O failure, a bad header,
    /// or any complete record that fails to parse, checksum, or verify
    /// its embedded key. A torn tail record is *not* an error: it is
    /// dropped and the segment truncated back to the last complete line.
    pub fn open(path: &Path) -> Result<EvalStore, SimError> {
        EvalStore::open_segments(path, &[])
    }

    /// Opens a shared store directory: reads every `*.evalstore` segment
    /// (sorted by file name, last-write-wins across segments) for
    /// pre-warming, but appends only to this process's own segment
    /// `<label>.evalstore` — concurrent shards sharing `dir` never
    /// interleave writes.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] on I/O failure or any corrupt
    /// complete record in any segment.
    pub fn open_dir(dir: &Path, label: &str) -> Result<EvalStore, SimError> {
        std::fs::create_dir_all(dir).map_err(|e| io_err(dir, "create dir", &e))?;
        let own = dir.join(format!("{label}.{STORE_EXTENSION}"));
        let mut segments: Vec<PathBuf> = std::fs::read_dir(dir)
            .map_err(|e| io_err(dir, "scan dir", &e))?
            .filter_map(|entry| entry.ok().map(|e| e.path()))
            .filter(|p| {
                p != &own && p.extension().and_then(|e| e.to_str()) == Some(STORE_EXTENSION)
            })
            .collect();
        segments.sort();
        EvalStore::open_segments(&own, &segments)
    }

    /// Loads the read-only `shared` segments in order, then `own` — the
    /// segment this store appends to — last, so its records win ties.
    fn open_segments(own: &Path, shared: &[PathBuf]) -> Result<EvalStore, SimError> {
        let mut loaded = Vec::new();
        let mut by_key = HashMap::new();
        for seg in shared {
            let raw = std::fs::read(seg).map_err(|e| io_err(seg, "read", &e))?;
            let content = String::from_utf8_lossy(&raw);
            load_segment(seg, &complete_lines(&content).0, &mut loaded, &mut by_key)?;
        }
        let (file, content) = open_segment(own)?;
        load_segment(own, &complete_lines(&content).0, &mut loaded, &mut by_key)?;
        let index = by_key.into_keys().collect();
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
            path: own.to_path_buf(),
            file: Mutex::new((file, index)),
            loaded: Mutex::new(loaded),
        })
    }

    /// The segment this store appends to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Number of distinct keys known to be durable (across every
    /// segment read at open, plus appends since).
    pub fn len(&self) -> usize {
        self.file.lock().expect("store file lock poisoned").1.len()
    }

    /// True when no record is stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drains the records loaded at open (in last-write-wins replay
    /// order) — the pre-warm feed. Subsequent calls return nothing.
    pub fn take_records(&self) -> Vec<StoreRecord> {
        std::mem::take(&mut self.loaded.lock().expect("store load lock poisoned"))
    }

    /// Appends one timing run, fsync'd before return. A key already
    /// durable (loaded at open or appended earlier) is skipped — the
    /// payload is deterministic, so rewriting it would only grow the
    /// segment.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] when the write or sync fails.
    pub fn append(
        &self,
        key: EvalKey,
        freq_bits: u64,
        vdd_bits: u64,
        run: &TimingRun,
    ) -> Result<(), SimError> {
        let mut guard = self.file.lock().expect("store file lock poisoned");
        let (file, index) = &mut *guard;
        if index.contains(&key) {
            return Ok(());
        }
        let mut line = encode_record(key, freq_bits, vdd_bits, run);
        line.push('\n');
        file.write_all(line.as_bytes())
            .map_err(|e| io_err(&self.path, "append", &e))?;
        file.sync_data()
            .map_err(|e| io_err(&self.path, "sync", &e))?;
        index.insert(key);
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
        let evaluator = Evaluator::ibm_65nm(EvalParams {
            seed: 3 + seed_tweak,
            ..tiny_params()
        })
        .unwrap();
        let arch = ArchPoint::most_aggressive();
        let dvs = DvsPoint::base();
        let config = arch.apply(&sim_cpu::CoreConfig::base(), dvs).unwrap();
        let run = evaluator.timing_run(&App::Gzip.profile(), &config).unwrap();
        StoreRecord {
            key: EvalKey::new(App::Gzip, arch, dvs),
            freq_bits: config.frequency.0.to_bits(),
            vdd_bits: config.vdd.0.to_bits(),
            run,
        }
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
            let store = EvalStore::open(&path).unwrap();
            assert!(store.is_empty());
            store
                .append(rec.key, rec.freq_bits, rec.vdd_bits, &rec.run)
                .unwrap();
            assert_eq!(store.len(), 1);
            // A duplicate append is a no-op on disk.
            let size = std::fs::metadata(&path).unwrap().len();
            store
                .append(rec.key, rec.freq_bits, rec.vdd_bits, &rec.run)
                .unwrap();
            assert_eq!(std::fs::metadata(&path).unwrap().len(), size);
        }
        let store = EvalStore::open(&path).unwrap();
        let records = store.take_records();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].key, rec.key);
        assert_eq!(records[0].freq_bits, rec.freq_bits);
        assert_eq!(records[0].vdd_bits, rec.vdd_bits);
        assert_runs_equal(&records[0].run, &rec.run);
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
            let store = EvalStore::open(&path).unwrap();
            store
                .append(rec.key, rec.freq_bits, rec.vdd_bits, &rec.run)
                .unwrap();
        }
        // Simulate a torn write: half a record, no trailing newline.
        let clean_len = std::fs::metadata(&path).unwrap().len();
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"run app=gzip window=128 alus=6 fp").unwrap();
        drop(f);

        let store = EvalStore::open(&path).unwrap();
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
        // append() dedupes, so hand-write two records with the same key.
        let mut text = format!("{STORE_HEADER}\n");
        text.push_str(&encode_record(
            first.key,
            first.freq_bits,
            first.vdd_bits,
            &first.run,
        ));
        text.push('\n');
        text.push_str(&encode_record(
            second.key,
            second.freq_bits,
            second.vdd_bits,
            &second.run,
        ));
        text.push('\n');
        std::fs::write(&path, text).unwrap();

        let store = EvalStore::open(&path).unwrap();
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
        let line = encode_record(rec.key, rec.freq_bits, rec.vdd_bits, &rec.run);

        let open_with = |tag: &str, record_line: &str| {
            let path = dir.join(format!("{tag}.evalstore"));
            std::fs::write(&path, format!("{STORE_HEADER}\n{record_line}\n")).unwrap();
            EvalStore::open(&path)
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

        // An embedded key that disagrees with the raw DVS bits is
        // rejected even when the checksum passes.
        let body = line[..line.rfind(" sum=").unwrap()].replace(
            &format!("freq_khz={}", rec.key.freq_khz),
            &format!("freq_khz={}", rec.key.freq_khz + 1),
        );
        let resummed = format!("{body} sum={:016x}", fnv1a64(body.as_bytes()));
        let err = open_with("key", &resummed).unwrap_err().to_string();
        assert!(err.contains("embedded key"), "{err}");
        assert!(err.contains("does not match"), "{err}");

        // A bad header is fatal at line 1.
        let path = dir.join("header.evalstore");
        std::fs::write(&path, "ramp-evalstore/999\n").unwrap();
        let err = EvalStore::open(&path).unwrap_err().to_string();
        assert!(err.contains("line 1"), "{err}");
        assert!(err.contains("bad header"), "{err}");

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn shared_directory_prewarms_across_segments() {
        let dir = temp_dir("shared");
        let rec = sample_record(0);
        {
            let a = EvalStore::open_dir(&dir, "shard-0").unwrap();
            a.append(rec.key, rec.freq_bits, rec.vdd_bits, &rec.run)
                .unwrap();
        }
        // A different shard opening the same directory sees shard-0's
        // record, and its own append of the same key dedupes.
        let b = EvalStore::open_dir(&dir, "shard-1").unwrap();
        assert_eq!(b.len(), 1);
        let records = b.take_records();
        assert_eq!(records.len(), 1);
        assert_runs_equal(&records[0].run, &rec.run);
        b.append(rec.key, rec.freq_bits, rec.vdd_bits, &rec.run)
            .unwrap();
        assert_eq!(
            std::fs::read_to_string(dir.join("shard-1.evalstore")).unwrap(),
            format!("{STORE_HEADER}\n"),
            "a key already durable in another segment must not be rewritten"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A record encoded with a fixed wall time, pinned by its length and
    /// FNV-1a digest: the encoder's bytes must never drift.
    #[test]
    fn encoded_record_matches_the_golden_digest() {
        let rec = sample_record(0);
        let run = TimingRun::from_parts(
            rec.run.intervals().to_vec(),
            Duration::from_nanos(1_234_567),
        );
        let line = encode_record(rec.key, rec.freq_bits, rec.vdd_bits, &run);
        assert_eq!(line.len(), 1481);
        assert_eq!(fnv1a64(line.as_bytes()), 0x05b3_c878_013a_0563);
    }

    /// Loads one segment's text in memory, as `EvalStore::open` would.
    fn load_text(text: &str) -> Result<Vec<StoreRecord>, SimError> {
        let (lines, _) = complete_lines(text);
        let mut records = Vec::new();
        load_segment(Path::new("mem"), &lines, &mut records, &mut HashMap::new())?;
        Ok(records)
    }

    #[test]
    fn an_overflowing_interval_count_is_an_error() {
        let rec = sample_record(0);
        let line = encode_record(rec.key, rec.freq_bits, rec.vdd_bits, &rec.run);
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
        let text = format!(
            "{STORE_HEADER}\n{}\n",
            encode_record(rec.key, rec.freq_bits, rec.vdd_bits, &rec.run)
        );
        assert_eq!(load_text(&text).unwrap().len(), 1);
        for seed in 0..500 {
            let bad = sim_common::textfmt::corrupt(&text, seed);
            if let Err(e) = load_text(&bad) {
                assert!(e.to_string().contains(": line "), "seed {seed}: {e}");
            }
        }
    }
}
