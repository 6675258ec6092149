//! The on-disk run store: the cycle-level timing runs and slice
//! checkpoint cuts that outlive a process, under one store root with one
//! directory per run shape:
//!
//! ```text
//! <root>/<shape>/shape                            the run-shape line `<shape>` digests
//! <root>/<shape>/<label>.evalstore               timing runs, one segment per writer
//! <root>/<shape>/<digest>-n<slice>-k<index>.ckpt  checkpoint cuts
//! ```
//!
//! `<shape>` is `{:016x}` of `fnv1a64` over the run-shape line
//! `ramp-shape/1|warmup=…|measure=…|interval=…|seed=…|prewarm=…` of
//! [`EvalParams`], so an engine or a sliced evaluator opens only its own
//! shape's directory and never reads a record of another length; deleting
//! a shape's directory prunes it. The directory's `shape` file holds that
//! line (written at open when absent), so a root names its shapes
//! (`ramp checkpoint info` prints them); no scan reads it as a segment or
//! a cut.
//! Records and cuts are keyed by their [`RunDigest`], and an engine serves
//! a record only when its own digest for the record's point equals the
//! stored one (`BatchEngine::with_store`).
//!
//! Timing runs (`ramp-evalstore/2`): one record per line, read with the
//! token cursor of [`sim_common::textfmt`]: keyed header tokens (app,
//! [`ArchPoint`], the raw `f64` bits of the [`DvsPoint`], digest), 58
//! positional values per interval (`u64`s in decimal, `f64`s as hex bit
//! patterns) and the trailing FNV-1a checksum token. Every process reads
//! all segments of its shape and appends, fsync'd, only to its own. A torn
//! tail record is dropped (and truncated from the own segment); a
//! *complete* record that fails to parse or checksum is a hard error with
//! 1-based line/token positions. Duplicate digests are last-write-wins.
//!
//! Cuts: the text of `sim_cpu::checkpoint` plus one trailing ` sum=` line
//! over everything before it. A cut that fails its checksum, parse or
//! digest is refused, naming its file.
//!
//! Every byte goes through one durable write (write, fsync). Appends go
//! to the writer's own segment; every file is created whole through a
//! temp file of its own (`*.tmp`, which no scan reads) and a rename, so
//! no crash and no reader meets half a file. A root still holding segments or cuts of the
//! flat layout is refused with one error naming them: a flat file does
//! not say which shape it belongs to.

use std::collections::{HashMap, HashSet};
use std::fs::{self, File, OpenOptions};
use std::io::{ErrorKind, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Duration;

use sim_common::textfmt::{seal, unseal, Hex64, TokenError, Tokens};
use sim_common::{fnv1a64, Hertz, SimError, Structure, Volts};
use sim_cpu::{checkpoint_from_text, checkpoint_to_text, Checkpoint, IntervalStats};
use workload::App;

use crate::dvs::DvsPoint;
use crate::evaluator::{EvalParams, RunDigest, TimingRun};
use crate::space::ArchPoint;

/// First line of every store segment.
pub const STORE_HEADER: &str = "ramp-evalstore/2";

/// File extension for store segments.
pub const STORE_EXTENSION: &str = "evalstore";

/// File extension for checkpoint cuts.
const CUT_EXTENSION: &str = "ckpt";

/// File of a shape directory holding the run-shape line its name digests.
const SHAPE_FILE: &str = "shape";

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

/// One run shape's directory of a store root, holding that shape's
/// timing-run segments and checkpoint cuts (see the module docs).
#[derive(Debug)]
pub struct RunStore {
    /// `<root>/<shape>`.
    dir: PathBuf,
    /// The own segment (`None` when opened for cuts only), and the digests
    /// durable in any segment of the shape (appends dedupe on them).
    segment: Mutex<(Option<File>, HashSet<RunDigest>)>,
    /// Records loaded at open, in last-write-wins replay order.
    loaded: Mutex<Vec<StoreRecord>>,
}

fn io_err(path: &Path, op: &str, e: &std::io::Error) -> SimError {
    SimError::invalid_config(format!("run store {op} {}: {e}", path.display()))
}

fn parse_err(path: &Path, line: usize, msg: &str) -> SimError {
    SimError::invalid_config(format!("run store {}: line {line}: {msg}", path.display()))
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

/// Parses one segment's content (header + records) into `into`,
/// last-write-wins on duplicate digests; a torn final line is ignored.
fn load_segment(
    path: &Path,
    content: &str,
    into: &mut Vec<StoreRecord>,
    by_digest: &mut HashMap<RunDigest, usize>,
) -> Result<(), SimError> {
    for (i, line) in complete_lines(content).0.into_iter().enumerate() {
        if i == 0 {
            if line != STORE_HEADER {
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

/// Reads a file as text; a missing file reads as empty.
fn read(path: &Path) -> Result<String, SimError> {
    match fs::read(path) {
        Ok(raw) => Ok(String::from_utf8_lossy(&raw).into_owned()),
        Err(e) if e.kind() == ErrorKind::NotFound => Ok(String::new()),
        Err(e) => Err(io_err(path, "read", &e)),
    }
}

/// Opens the own segment for appends, creating it (header only) when
/// absent or without one complete line, and truncating a torn tail
/// record. Returns the file and the content read.
fn open_segment(path: &Path) -> Result<(File, String), SimError> {
    let content = read(path)?;
    let valid_len = complete_lines(&content).1;
    if valid_len == 0 {
        write_file(path, &format!("{STORE_HEADER}\n"))?;
    }
    let file = OpenOptions::new()
        .append(true)
        .open(path)
        .map_err(|e| io_err(path, "open", &e))?;
    if valid_len > 0 && valid_len < content.len() {
        // Torn tail record: drop it so appends start on a line boundary.
        file.set_len(valid_len as u64)
            .and_then(|()| file.sync_data())
            .map_err(|e| io_err(path, "truncate", &e))?;
    }
    Ok((file, content))
}

/// The one durable write: every byte the store writes is written and
/// fsync'd here before it counts, a record appended to its writer's own
/// segment, a whole file to a temp file of its own ([`write_file`]).
fn write_synced(file: &mut File, text: &str) -> std::io::Result<()> {
    file.write_all(text.as_bytes())?;
    file.sync_all()
}

/// Creates or replaces `path` whole: `text` goes durably to a temp file
/// of its own next to it, which is then renamed over `path`; the
/// directory is synced so the rename survives a crash too.
fn write_file(path: &Path, text: &str) -> Result<(), SimError> {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let mut tmp = path.as_os_str().to_owned();
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    tmp.push(format!(".{}-{seq}.tmp", std::process::id()));
    let tmp = PathBuf::from(tmp);
    File::create(&tmp)
        .and_then(|mut file| write_synced(&mut file, text))
        .and_then(|()| fs::rename(&tmp, path))
        .and_then(|()| {
            File::open(path.parent().unwrap_or(Path::new("."))).and_then(|d| d.sync_all())
        })
        .map_err(|e| {
            let _ = fs::remove_file(&tmp);
            io_err(path, "write", &e)
        })
}

/// The one directory scan: every entry of `dir`, sorted by name. A
/// missing directory has none.
fn scan(dir: &Path) -> Result<Vec<PathBuf>, SimError> {
    let entries = match fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(io_err(dir, "scan", &e)),
    };
    let mut paths = entries
        .map(|entry| entry.map(|e| e.path()))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| io_err(dir, "scan", &e))?;
    paths.sort();
    Ok(paths)
}

fn has_extension(path: &Path, extension: &str) -> bool {
    path.extension().is_some_and(|e| e == extension)
}

/// Refuses a root that still holds files of the flat layout, naming them.
fn refuse_flat_layout(root: &Path) -> Result<(), SimError> {
    let flat: Vec<String> = scan(root)?
        .iter()
        .filter(|p| has_extension(p, STORE_EXTENSION) || has_extension(p, CUT_EXTENSION))
        .filter_map(|p| Some(p.file_name()?.to_string_lossy().into_owned()))
        .collect();
    if flat.is_empty() {
        return Ok(());
    }
    Err(SimError::invalid_config(format!(
        "store root {} holds files of the flat layout, whose run shape is unknown \
         (each shape now has a directory of its own): delete {}",
        root.display(),
        flat.join(", ")
    )))
}

/// Reads one cut and verifies its seal, or `None` when the file is
/// missing or empty. Errors name the file.
fn read_cut(path: &Path) -> Result<Option<Checkpoint>, SimError> {
    let text = read(path)?;
    if text.is_empty() {
        return Ok(None);
    }
    let named = |msg: String| SimError::invalid_config(format!("{}: {msg}", path.display()));
    let body = unseal(text.strip_suffix('\n').unwrap_or(&text)).map_err(named)?;
    let checkpoint = checkpoint_from_text(body).map_err(|e| named(e.to_string()))?;
    sim_obs::counter!("slice.bytes", text.len() as u64);
    Ok(Some(checkpoint))
}

impl RunStore {
    /// Opens the directory of `params`' run shape under `root` for
    /// checkpoint cuts, creating it and its `shape` file if needed. Reads
    /// no segment.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] when the directory or its
    /// `shape` file cannot be created, or the root holds files of the
    /// flat layout.
    pub fn open_shape(root: &Path, params: &EvalParams) -> Result<RunStore, SimError> {
        refuse_flat_layout(root)?;
        let line = format!("ramp-shape/1|{}", params.run_shape());
        let dir = root.join(format!("{:016x}", fnv1a64(line.as_bytes())));
        fs::create_dir_all(&dir).map_err(|e| io_err(&dir, "create dir", &e))?;
        let shape_file = dir.join(SHAPE_FILE);
        if !shape_file.exists() {
            write_file(&shape_file, &line)?;
        }
        Ok(RunStore {
            dir,
            segment: Mutex::default(),
            loaded: Mutex::default(),
        })
    }

    /// Opens the directory of `params`' run shape under `root` (see
    /// [`open_shape`](RunStore::open_shape)) for timing runs too: reads
    /// every segment of the shape (sorted by file name, last-write-wins
    /// across segments, the own segment last) for pre-warming, and
    /// appends only to the own segment `<label>.evalstore`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] on I/O failure, a flat-layout
    /// root, a bad header (a segment of another format version), or any
    /// complete record that fails to parse or checksum. A torn tail
    /// record is *not* an error (see the module docs).
    pub fn open(root: &Path, params: &EvalParams, label: &str) -> Result<RunStore, SimError> {
        let store = RunStore::open_shape(root, params)?;
        let own = store.dir.join(format!("{label}.{STORE_EXTENSION}"));
        let shared: Vec<PathBuf> = scan(&store.dir)?
            .into_iter()
            .filter(|p| p != &own && has_extension(p, STORE_EXTENSION))
            .collect();
        let mut loaded = Vec::new();
        let mut by_digest = HashMap::new();
        for seg in &shared {
            load_segment(seg, &read(seg)?, &mut loaded, &mut by_digest)?;
        }
        let (file, content) = open_segment(&own)?;
        load_segment(&own, &content, &mut loaded, &mut by_digest)?;
        sim_obs::counter!("drm.store.opens", 1);
        sim_obs::counter!("drm.store.records_loaded", loaded.len() as u64);
        sim_obs::log_debug!(
            "drm.store",
            "opened {} ({} shared segment(s)) with {} record(s)",
            own.display(),
            shared.len(),
            loaded.len()
        );
        Ok(RunStore {
            segment: Mutex::new((Some(file), by_digest.into_keys().collect())),
            loaded: Mutex::new(loaded),
            ..store
        })
    }

    /// The shape directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Number of distinct digests known to be durable (across every
    /// segment read at open, plus appends since).
    pub fn len(&self) -> usize {
        let (_, index) = &*self.segment.lock().unwrap_or_else(PoisonError::into_inner);
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
    /// Returns [`SimError::InvalidConfig`] when the write or sync fails,
    /// or the store was opened for cuts only.
    pub fn append(&self, rec: &StoreRecord) -> Result<(), SimError> {
        let mut guard = self.segment.lock().unwrap_or_else(PoisonError::into_inner);
        let (file, index) = &mut *guard;
        if index.contains(&rec.digest) {
            return Ok(());
        }
        let Some(file) = file else {
            let msg = format!("run store {} was opened for cuts only", self.dir.display());
            return Err(SimError::invalid_config(msg));
        };
        let mut line = encode_record(rec);
        line.push('\n');
        write_synced(file, &line).map_err(|e| io_err(&self.dir, "append", &e))?;
        index.insert(rec.digest);
        sim_obs::counter!("drm.store.appends", 1);
        Ok(())
    }

    /// Path of cut `index` of the run `digest` sliced every `slice`
    /// instructions.
    #[must_use]
    pub fn cut_path(&self, digest: RunDigest, slice: u64, index: usize) -> PathBuf {
        self.dir
            .join(format!("{digest}-n{slice}-k{index:04}.{CUT_EXTENSION}"))
    }

    /// Persists `cut`, sealed, as cut `index` of its run (the digest its
    /// `fingerprint` carries) sliced every `slice` instructions. Counts
    /// one `slice.cut` and the bytes under `slice.bytes`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] when the file cannot be
    /// written.
    pub fn save_cut(&self, cut: &Checkpoint, slice: u64, index: usize) -> Result<(), SimError> {
        let mut text = checkpoint_to_text(cut);
        seal(&mut text);
        text.push('\n');
        write_file(
            &self.cut_path(RunDigest(cut.fingerprint), slice, index),
            &text,
        )?;
        sim_obs::counter!("slice.cut", 1);
        sim_obs::counter!("slice.bytes", text.len() as u64);
        Ok(())
    }

    /// Loads a run's complete cut set — cuts `0..count`, each with its
    /// file — or `None` if *any* is missing (a partial set cannot
    /// reproduce the sequential run). Counts one `slice.resume` per cut.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`], naming the file, when a
    /// present cut fails its checksum or parse, or carries another
    /// digest than its file name.
    pub fn load_cuts(
        &self,
        digest: RunDigest,
        slice: u64,
        count: usize,
    ) -> Result<Option<Vec<(PathBuf, Checkpoint)>>, SimError> {
        let mut cuts = Vec::with_capacity(count);
        for index in 0..count {
            let path = self.cut_path(digest, slice, index);
            let Some(checkpoint) = read_cut(&path)? else {
                return Ok(None);
            };
            if checkpoint.fingerprint != digest.0 {
                return Err(SimError::invalid_config(format!(
                    "{}: embedded digest {} does not match the file name",
                    path.display(),
                    RunDigest(checkpoint.fingerprint)
                )));
            }
            sim_obs::counter!("slice.resume", 1);
            cuts.push((path, checkpoint));
        }
        Ok(Some(cuts))
    }

    /// Every shape directory under a store root, sorted, with the
    /// run-shape line of its `shape` file (`None` when the file is
    /// missing or empty).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] when a directory or a `shape`
    /// file cannot be read, or the root holds files of the flat layout.
    pub fn list_shapes(root: &Path) -> Result<Vec<(PathBuf, Option<String>)>, SimError> {
        refuse_flat_layout(root)?;
        scan(root)?
            .into_iter()
            .filter(|p| p.is_dir())
            .map(|dir| {
                let line = read(&dir.join(SHAPE_FILE))?;
                Ok((dir, Some(line).filter(|l| !l.is_empty())))
            })
            .collect()
    }

    /// Every cut under a store root, shape directory by shape directory,
    /// sorted by path (`ramp checkpoint info` summarizes these).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] when a directory cannot be
    /// read, the root holds files of the flat layout, or a cut fails its
    /// checksum or parse.
    pub fn list_cuts(root: &Path) -> Result<Vec<(PathBuf, Checkpoint)>, SimError> {
        refuse_flat_layout(root)?;
        let mut cuts = Vec::new();
        for shape in scan(root)?.into_iter().filter(|p| p.is_dir()) {
            for path in scan(&shape)?
                .into_iter()
                .filter(|p| has_extension(p, CUT_EXTENSION))
            {
                if let Some(checkpoint) = read_cut(&path)? {
                    cuts.push((path, checkpoint));
                }
            }
        }
        Ok(cuts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluator::Evaluator;
    use sim_cpu::{CoreConfig, Processor};
    use workload::{InstructionSource, SyntheticStream};

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

    /// The shape directory of [`tiny_params`] under `root`.
    fn shape_dir(root: &Path) -> PathBuf {
        RunStore::open_shape(root, &tiny_params())
            .unwrap()
            .dir()
            .to_owned()
    }

    fn open(root: &Path, label: &str) -> Result<RunStore, SimError> {
        RunStore::open(root, &tiny_params(), label)
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
        let path = shape_dir(&dir).join("seg.evalstore");
        let rec = sample_record(0);
        {
            let store = open(&dir, "seg").unwrap();
            assert!(path.is_file());
            assert!(store.is_empty());
            store.append(&rec).unwrap();
            assert_eq!(store.len(), 1);
            // A duplicate append is a no-op on disk.
            let size = std::fs::metadata(&path).unwrap().len();
            store.append(&rec).unwrap();
            assert_eq!(std::fs::metadata(&path).unwrap().len(), size);
        }
        let store = open(&dir, "seg").unwrap();
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
        let path = shape_dir(&dir).join("seg.evalstore");
        let rec = sample_record(0);
        {
            let store = open(&dir, "seg").unwrap();
            store.append(&rec).unwrap();
        }
        // Simulate a torn write: half a record, no trailing newline.
        let clean_len = std::fs::metadata(&path).unwrap().len();
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"run app=gzip window=128 alus=6 fp").unwrap();
        drop(f);

        let store = open(&dir, "seg").unwrap();
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
        let path = shape_dir(&dir).join("seg.evalstore");
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

        let store = open(&dir, "seg").unwrap();
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

        // Each case is the own segment of a store root of its own.
        let open_with = |tag: &str, record_line: &str| {
            let root = dir.join(tag);
            let path = shape_dir(&root).join(format!("seg.{STORE_EXTENSION}"));
            std::fs::write(&path, format!("{STORE_HEADER}\n{record_line}\n")).unwrap();
            open(&root, "seg")
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
            let root = dir.join(header.replace('/', "-"));
            std::fs::write(
                shape_dir(&root).join("seg.evalstore"),
                format!("{header}\n"),
            )
            .unwrap();
            let err = open(&root, "seg").unwrap_err().to_string();
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
            let a = open(&dir, "shard-0").unwrap();
            a.append(&rec).unwrap();
        }
        // A different shard opening the same root sees shard-0's record,
        // and its own append of the same digest dedupes.
        let b = open(&dir, "shard-1").unwrap();
        assert_eq!(b.len(), 1);
        let records = b.take_records();
        assert_eq!(records.len(), 1);
        assert_records_equal(&records[0], &rec);
        b.append(&rec).unwrap();
        assert_eq!(
            std::fs::read_to_string(b.dir().join("shard-1.evalstore")).unwrap(),
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

    /// Loads one segment's text in memory, as `RunStore::open` would.
    fn load_text(text: &str) -> Result<Vec<StoreRecord>, SimError> {
        let mut records = Vec::new();
        load_segment(Path::new("mem"), text, &mut records, &mut HashMap::new())?;
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

    /// Every run-shape field moves a store to a directory of its own;
    /// `leakage_iterations` never moves a cycle, so it does not.
    #[test]
    fn each_run_shape_has_a_directory_of_its_own() {
        let root = temp_dir("shapes");
        let params = tiny_params();
        let dir_of = |p: EvalParams| RunStore::open_shape(&root, &p).unwrap().dir().to_owned();
        let base = dir_of(params);
        assert_eq!(base.parent(), Some(root.as_path()));
        for shape in [
            EvalParams {
                warmup_instructions: 1,
                ..params
            },
            EvalParams {
                measure_instructions: 40_000,
                ..params
            },
            EvalParams {
                interval_instructions: 10_000,
                ..params
            },
            EvalParams { seed: 4, ..params },
            EvalParams {
                prewarm_bytes: 1,
                ..params
            },
        ] {
            assert_ne!(dir_of(shape), base, "{shape:?}");
        }
        assert_eq!(
            dir_of(EvalParams {
                leakage_iterations: 9,
                ..params
            }),
            base
        );
        std::fs::remove_dir_all(&root).unwrap();
    }

    const DIGEST: RunDigest = RunDigest(0xFEED);

    fn cut_checkpoint(fingerprint: u64) -> Checkpoint {
        let mut cpu = Processor::new(
            CoreConfig::base(),
            SyntheticStream::new(App::Gzip.profile(), 7),
        )
        .unwrap();
        cpu.prewarm(0x1000_0000, 128 * 1024, 0, 16 * 1024);
        let _ = cpu.run_instructions(10_000);
        Checkpoint {
            workload: cpu.source().name().to_owned(),
            seed: 7,
            fingerprint,
            stream: cpu.source().state(),
            pipeline: cpu.state(),
        }
    }

    #[test]
    fn cuts_round_trip() {
        let root = temp_dir("cuts");
        let store = RunStore::open_shape(&root, &tiny_params()).unwrap();
        let chk = cut_checkpoint(DIGEST.0);
        store.save_cut(&chk, 30_000, 0).unwrap();
        let loaded = store.load_cuts(DIGEST, 30_000, 1).unwrap().unwrap();
        assert_eq!(loaded, [(store.cut_path(DIGEST, 30_000, 0), chk.clone())]);
        // A missing index or another key is a miss, not an error.
        assert!(store.load_cuts(DIGEST, 30_000, 2).unwrap().is_none());
        assert!(store
            .load_cuts(RunDigest(0xBEEF), 30_000, 1)
            .unwrap()
            .is_none());
        assert!(store.load_cuts(DIGEST, 60_000, 1).unwrap().is_none());
        let listed = RunStore::list_cuts(&root).unwrap();
        assert_eq!(listed, [(store.cut_path(DIGEST, 30_000, 0), chk)]);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn tampered_cuts_are_refused_naming_their_file() {
        let root = temp_dir("tamper");
        let store = RunStore::open_shape(&root, &tiny_params()).unwrap();
        store
            .save_cut(&cut_checkpoint(DIGEST.0), 30_000, 0)
            .unwrap();
        let path = store.cut_path(DIGEST, 30_000, 0);
        let refused = |store: &RunStore, digest| {
            let err = store.load_cuts(digest, 30_000, 1).unwrap_err().to_string();
            assert!(err.contains(&path.display().to_string()), "{err}");
            err
        };
        // One flipped payload digit still parses, but breaks the seal.
        let text = std::fs::read_to_string(&path).unwrap();
        let at = text.find("checkpoint.seed 7").unwrap() + "checkpoint.seed ".len();
        std::fs::write(&path, format!("{}8{}", &text[..at], &text[at + 1..])).unwrap();
        assert!(refused(&store, DIGEST).contains("checksum mismatch"));
        // A file renamed to another key: its embedded digest no longer
        // matches the name it is looked up under.
        std::fs::write(&path, &text).unwrap();
        let other = RunDigest(0xBEEF);
        let renamed = store.cut_path(other, 30_000, 0);
        std::fs::rename(&path, &renamed).unwrap();
        let err = store.load_cuts(other, 30_000, 1).unwrap_err().to_string();
        assert!(err.contains("does not match the file name"), "{err}");
        std::fs::rename(&renamed, &path).unwrap();
        // An unsealed cut is refused too.
        std::fs::write(&path, "checkpoint.version 1\n").unwrap();
        assert!(refused(&store, DIGEST).contains("checksum"));
        std::fs::remove_dir_all(&root).unwrap();
    }

    /// A temp file left by an interrupted write is read by no scan and
    /// resumed by no run.
    #[test]
    fn a_leftover_temp_file_is_ignored() {
        let root = temp_dir("leftover");
        let store = RunStore::open_shape(&root, &tiny_params()).unwrap();
        let chk = cut_checkpoint(DIGEST.0);
        store.save_cut(&chk, 30_000, 0).unwrap();
        let path = store.cut_path(DIGEST, 30_000, 0);
        let torn = std::fs::read_to_string(&path).unwrap();
        let mut tmp = path.clone().into_os_string();
        tmp.push(".1-0.tmp");
        std::fs::write(&tmp, &torn[..torn.len() / 2]).unwrap();
        assert_eq!(RunStore::list_cuts(&root).unwrap().len(), 1);
        assert_eq!(
            store.load_cuts(DIGEST, 30_000, 1).unwrap().unwrap().len(),
            1
        );
        assert!(open(&root, "seg").is_ok());
        std::fs::remove_dir_all(&root).unwrap();
    }

    /// A root of the flat layout is refused with one error naming every
    /// flat file; nothing is moved.
    #[test]
    fn a_flat_layout_root_is_refused_naming_its_files() {
        let root = temp_dir("flat");
        let segment = root.join("old.evalstore");
        let cut = root.join(format!("{DIGEST}-n30000-k0000.ckpt"));
        std::fs::write(&segment, format!("{STORE_HEADER}\n")).unwrap();
        std::fs::write(&cut, "checkpoint.version 1\n").unwrap();
        for err in [
            open(&root, "seg").unwrap_err(),
            RunStore::open_shape(&root, &tiny_params()).unwrap_err(),
            RunStore::list_cuts(&root).unwrap_err(),
        ] {
            let err = err.to_string();
            assert!(err.contains("flat layout"), "{err}");
            assert!(err.contains("old.evalstore"), "{err}");
            assert!(
                err.contains(&format!("{DIGEST}-n30000-k0000.ckpt")),
                "{err}"
            );
        }
        assert!(segment.is_file() && cut.is_file());
        std::fs::remove_dir_all(&root).unwrap();
    }
}
