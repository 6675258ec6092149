//! Serializable slice checkpoints: the complete warm state of a
//! [`Processor`](crate::Processor) plus its synthetic instruction stream,
//! in a strict plain-text format.
//!
//! The grammar is the shared line format of [`sim_common::textfmt`]:
//! unknown keys, duplicate keys, and wrong token counts are line-numbered
//! errors. Printing then parsing is bit-exact (`parse(print(c)) == c`), so
//! checkpoints can live on disk and cross the wire unchanged.
//!
//! A checkpoint is cut at an interval boundary, where every statistic has
//! just been zeroed, so it carries *only* warm state: rename maps,
//! predictor training, cache contents, in-flight window entries, and the
//! absolute-cycle bookkeeping. All of it is integral — there is not a
//! single float in the format — which is what makes bit-exactness trivial
//! rather than delicate.
//!
//! Variable-length lists are count-prefixed (`key N v1 .. vN`); per-entry
//! repeated lines (`window`, `fetchq`, `mshr`, `cache.*.line`) carry their
//! declared counts in a companion singleton key, and the parser rejects any
//! mismatch. No count is ever allocated from: each is checked against the
//! entries actually present. Cache sections list only valid lines (see
//! [`CacheState`]).

use std::fmt::Write as _;

use sim_common::textfmt::{Doc, Line, Schema};
use sim_common::SimError;
use workload::{ArchReg, MicroOp, OpClass, RegClass, StreamState};

use crate::bpred::BpredState;
use crate::cache::{CacheLineState, CacheState, MemHierarchyState, MshrState};
use crate::pipeline::{ExecPhase, FetchedState, PipelineState, WindowSlotState};
use crate::regfile::{PhysReg, RenameClassState, RenameState};

/// Current checkpoint format version.
pub const CHECKPOINT_VERSION: u64 = 1;

/// A complete slice checkpoint: identity metadata plus the warm workload
/// and pipeline state at one interval boundary.
///
/// The `fingerprint` binds the checkpoint to the run that produced it (the
/// slice layer stores its run digest: the workload profile, the core's
/// `TimingKey` and the evaluation lengths); a consumer must refuse to
/// resume from a checkpoint whose fingerprint does not match its own.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Workload (application/profile) name.
    pub workload: String,
    /// Stream seed the run was started with.
    pub seed: u64,
    /// Opaque binding to the producing timing configuration.
    pub fingerprint: u64,
    /// Synthetic-stream generator state at the cut.
    pub stream: StreamState,
    /// Warm pipeline state at the cut.
    pub pipeline: PipelineState,
}

impl Checkpoint {
    /// Instructions committed at the cut point.
    pub fn instructions(&self) -> u64 {
        self.pipeline.committed
    }
}

/// The format's keys. Every singleton is required — a checkpoint is a
/// complete machine state, not a patch — and each repeated key carries its
/// entry count in a companion singleton (`mshr` in `mem.mshrs`,
/// `cache.*.line` in `cache.*.lines`, `window` in `pipe.window`, `fetchq`
/// in `pipe.fetchq`).
static SCHEMA: Schema = Schema {
    singles: &[
        "checkpoint.version",
        "checkpoint.workload",
        "checkpoint.seed",
        "checkpoint.fingerprint",
        "stream.rng",
        "stream.next_regs",
        "stream.recent_int",
        "stream.recent_fp",
        "stream.pc",
        "stream.loop_start",
        "stream.emitted",
        "stream.call_stack",
        "stream.offsets",
        "stream.phase",
        "rename.int.map",
        "rename.int.free",
        "rename.int.ready",
        "rename.fp.map",
        "rename.fp.free",
        "rename.fp.ready",
        "bpred.counters",
        "bpred.ras",
        "mem.counts",
        "mem.mshrs",
        "cache.l1i.clock",
        "cache.l1i.lines",
        "cache.l1d.clock",
        "cache.l1d.lines",
        "cache.l2.clock",
        "cache.l2.lines",
        "pipe.now",
        "pipe.seq_next",
        "pipe.committed",
        "pipe.last_commit_cycle",
        "pipe.fetch_resume_at",
        "pipe.blocking_branch",
        "pipe.return_check",
        "pipe.cur_fetch_line",
        "pipe.int_free",
        "pipe.fp_free",
        "pipe.agen_free",
        "pipe.pending",
        "pipe.window",
        "pipe.fetchq",
    ],
    repeated: &[
        "mshr",
        "cache.l1i.line",
        "cache.l1d.line",
        "cache.l2.line",
        "window",
        "fetchq",
    ],
    missing: "key",
};

/// Decodes a line's one token of decimal digits, each at most `max`
/// (ready bits, 2-bit predictor counters).
fn digits_from_line(line: &Line<'_>, max: u8) -> Result<Vec<u8>, SimError> {
    let bad = || line.err(format!("`{}` must be a string of digits 0-{max}", line.key));
    line.expect_len(1)?.values[0]
        .bytes()
        .map(|b| b.checked_sub(b'0').filter(|&d| d <= max).ok_or_else(bad))
        .collect()
}

fn digits_to_string(digits: impl Iterator<Item = u8>) -> String {
    digits.map(|d| char::from(b'0' + d)).collect()
}

fn list_to_string<T: std::fmt::Display>(values: &[T]) -> String {
    let mut s = values.len().to_string();
    for v in values {
        let _ = write!(s, " {v}");
    }
    s
}

// --- token codecs for registers, ops, flags, and optional fields ---------

/// `-` for `None`, else the value's display form.
fn opt_to_token<T: std::fmt::Display>(v: Option<T>) -> String {
    v.map_or_else(|| "-".to_owned(), |v| v.to_string())
}

fn phys_to_token(p: Option<PhysReg>) -> String {
    opt_to_token(p.map(|p| match p.class {
        RegClass::Int => format!("i{}", p.index),
        RegClass::Fp => format!("f{}", p.index),
    }))
}

/// Decodes `-` or a register token: a class letter (`int` for the integer
/// class, `f` for floating point) and an index below `limit`.
fn reg_from_token(
    line: &Line<'_>,
    tok: &str,
    int: u8,
    limit: u16,
) -> Result<Option<(RegClass, u16)>, SimError> {
    if tok == "-" {
        return Ok(None);
    }
    let bad = || line.err(format!("`{}`: bad register `{tok}`", line.key));
    let class = match tok.as_bytes()[0] {
        b'f' => RegClass::Fp,
        c if c == int => RegClass::Int,
        _ => return Err(bad()),
    };
    match tok[1..].parse() {
        Ok(index) if index < limit => Ok(Some((class, index))),
        _ => Err(bad()),
    }
}

fn phys_from_token(line: &Line<'_>, tok: &str) -> Result<Option<PhysReg>, SimError> {
    let reg = reg_from_token(line, tok, b'i', u16::MAX)?;
    Ok(reg.map(|(class, index)| PhysReg { class, index }))
}

fn arch_from_token(line: &Line<'_>, tok: &str) -> Result<Option<ArchReg>, SimError> {
    let reg = reg_from_token(line, tok, b'r', workload::ARCH_REGS_PER_CLASS)?;
    Ok(reg.map(|(class, index)| ArchReg::new(class, index)))
}

fn opt_u64_from_token(line: &Line<'_>, tok: &str) -> Result<Option<u64>, SimError> {
    match tok {
        "-" => Ok(None),
        _ => line.parse(tok).map(Some),
    }
}

fn flag_from_token(line: &Line<'_>, tok: &str, what: &str) -> Result<bool, SimError> {
    match tok {
        "0" => Ok(false),
        "1" => Ok(true),
        other => Err(line.err(format!(
            "`{}`: {what} flag must be 0 or 1, got `{other}`",
            line.key
        ))),
    }
}

/// Number of tokens a serialized [`MicroOp`] occupies.
const OP_TOKENS: usize = 7;

fn op_to_tokens(op: &MicroOp, out: &mut String) {
    let _ = write!(
        out,
        "{} {} {} {} {} {} {}",
        op.pc,
        op.class,
        opt_to_token(op.dest),
        opt_to_token(op.srcs[0]),
        opt_to_token(op.srcs[1]),
        opt_to_token(op.addr),
        u8::from(op.taken),
    );
}

/// Decodes the [`OP_TOKENS`] tokens of an op (the caller checked the
/// line's arity).
fn op_from_tokens(line: &Line<'_>, toks: &[&str]) -> Result<MicroOp, SimError> {
    let class = OpClass::from_name(toks[1])
        .ok_or_else(|| line.err(format!("`{}`: unknown op class `{}`", line.key, toks[1])))?;
    Ok(MicroOp {
        pc: line.parse(toks[0])?,
        class,
        dest: arch_from_token(line, toks[2])?,
        srcs: [
            arch_from_token(line, toks[3])?,
            arch_from_token(line, toks[4])?,
        ],
        addr: opt_u64_from_token(line, toks[5])?,
        taken: flag_from_token(line, toks[6], "taken")?,
    })
}

fn phase_to_token(phase: ExecPhase) -> &'static str {
    match phase {
        ExecPhase::Waiting => "w",
        ExecPhase::Issued => "i",
        ExecPhase::Done => "d",
    }
}

fn phase_from_token(line: &Line<'_>, tok: &str) -> Result<ExecPhase, SimError> {
    match tok {
        "w" => Ok(ExecPhase::Waiting),
        "i" => Ok(ExecPhase::Issued),
        "d" => Ok(ExecPhase::Done),
        other => Err(line.err(format!(
            "`window`: execution phase must be w/i/d, got `{other}`"
        ))),
    }
}

// --- section codecs -----------------------------------------------------

fn write_rename_class(out: &mut String, prefix: &str, class: &RenameClassState) {
    let _ = writeln!(out, "rename.{prefix}.map {}", list_to_string(&class.map));
    let _ = writeln!(out, "rename.{prefix}.free {}", list_to_string(&class.free));
    let _ = writeln!(
        out,
        "rename.{prefix}.ready {}",
        digits_to_string(class.ready.iter().map(|&b| u8::from(b)))
    );
}

fn read_rename_class(doc: &mut Doc<'_>, prefix: &str) -> Result<RenameClassState, SimError> {
    Ok(RenameClassState {
        map: doc.list(&format!("rename.{prefix}.map"))?,
        free: doc.list(&format!("rename.{prefix}.free"))?,
        ready: digits_from_line(&doc.take(&format!("rename.{prefix}.ready"))?, 1)?
            .into_iter()
            .map(|d| d == 1)
            .collect(),
    })
}

fn write_cache(out: &mut String, name: &str, cache: &CacheState) {
    let _ = writeln!(out, "cache.{name}.clock {}", cache.clock);
    let _ = writeln!(
        out,
        "cache.{name}.lines {} {}",
        cache.line_count,
        cache.lines.len()
    );
    for line in &cache.lines {
        let _ = writeln!(
            out,
            "cache.{name}.line {} {} {} {}",
            line.index,
            line.tag,
            u8::from(line.dirty),
            line.lru
        );
    }
}

fn read_cache(doc: &mut Doc<'_>, name: &str) -> Result<CacheState, SimError> {
    let clock = doc.value(&format!("cache.{name}.clock"))?;
    let counts = doc.take(&format!("cache.{name}.lines"))?;
    let line_count: u64 = counts.expect_len(2)?.at(0)?;
    let entries = doc.counted(&format!("cache.{name}.line"), &counts, 1)?;
    let mut lines: Vec<CacheLineState> = Vec::with_capacity(entries.len());
    for entry in &entries {
        let index = entry.expect_len(4)?.at(0)?;
        if index >= line_count || lines.last().is_some_and(|l| l.index >= index) {
            return Err(entry.err(format!(
                "`{}`: index {index} out of order or range (cache has {line_count} lines)",
                entry.key
            )));
        }
        lines.push(CacheLineState {
            index,
            tag: entry.at(1)?,
            dirty: flag_from_token(entry, entry.values[2], "dirty")?,
            lru: entry.at(3)?,
        });
    }
    Ok(CacheState {
        line_count,
        lines,
        clock,
    })
}

// --- printing -----------------------------------------------------------

/// Serializes a checkpoint to the canonical text form.
///
/// # Panics
///
/// Panics when the workload name contains whitespace (names are single
/// tokens in every text format of this stack).
pub fn checkpoint_to_text(checkpoint: &Checkpoint) -> String {
    assert!(
        !checkpoint.workload.is_empty() && !checkpoint.workload.contains(char::is_whitespace),
        "workload name must be a single non-empty token"
    );
    let mut out = String::new();
    let s = &checkpoint.stream;
    let p = &checkpoint.pipeline;

    out.push_str("# pipeline slice checkpoint (print -> parse is bit-exact)\n");
    let _ = writeln!(out, "checkpoint.version {CHECKPOINT_VERSION}");
    let _ = writeln!(out, "checkpoint.workload {}", checkpoint.workload);
    let _ = writeln!(out, "checkpoint.seed {}", checkpoint.seed);
    let _ = writeln!(out, "checkpoint.fingerprint {}", checkpoint.fingerprint);

    out.push_str("\n# synthetic stream generator state\n");
    let _ = writeln!(
        out,
        "stream.rng {} {} {} {}",
        s.rng[0], s.rng[1], s.rng[2], s.rng[3]
    );
    let _ = writeln!(out, "stream.next_regs {} {}", s.next_int_reg, s.next_fp_reg);
    let _ = writeln!(out, "stream.recent_int {}", list_to_string(&s.recent_int));
    let _ = writeln!(out, "stream.recent_fp {}", list_to_string(&s.recent_fp));
    let _ = writeln!(out, "stream.pc {}", s.pc);
    let _ = writeln!(out, "stream.loop_start {}", s.loop_start);
    let _ = writeln!(out, "stream.emitted {}", s.emitted);
    let _ = writeln!(out, "stream.call_stack {}", list_to_string(&s.call_stack));
    let _ = writeln!(out, "stream.offsets {}", list_to_string(&s.stream_offsets));
    let _ = writeln!(out, "stream.phase {} {}", s.phase_idx, s.phase_remaining);

    out.push_str("\n# rename maps, free lists (stack order), ready bits\n");
    write_rename_class(&mut out, "int", &p.rename.int);
    write_rename_class(&mut out, "fp", &p.rename.fp);

    out.push_str("\n# branch predictor: 2-bit counters (one digit each), RAS oldest first\n");
    let digits = digits_to_string(p.bpred.counters.iter().copied());
    let _ = writeln!(out, "bpred.counters {digits}");
    let _ = writeln!(out, "bpred.ras {}", list_to_string(&p.bpred.ras));

    out.push_str("\n# memory hierarchy: caches list valid lines as `index tag dirty lru`\n");
    let _ = writeln!(
        out,
        "mem.counts {} {}",
        p.mem.l2_inst_refs, p.mem.prefetches
    );
    let _ = writeln!(out, "mem.mshrs {}", p.mem.mshrs.len());
    for m in &p.mem.mshrs {
        let _ = writeln!(out, "mshr {} {}", m.line, m.ready);
    }
    write_cache(&mut out, "l1i", &p.mem.l1i);
    write_cache(&mut out, "l1d", &p.mem.l1d);
    write_cache(&mut out, "l2", &p.mem.l2);

    out.push_str("\n# pipeline bookkeeping (absolute cycles)\n");
    let _ = writeln!(out, "pipe.now {}", p.now);
    let _ = writeln!(out, "pipe.seq_next {}", p.seq_next);
    let _ = writeln!(out, "pipe.committed {}", p.committed);
    let _ = writeln!(out, "pipe.last_commit_cycle {}", p.last_commit_cycle);
    let _ = writeln!(out, "pipe.fetch_resume_at {}", p.fetch_resume_at);
    let _ = writeln!(
        out,
        "pipe.blocking_branch {}",
        opt_to_token(p.blocking_branch)
    );
    let (rc_seq, rc_pc) = (p.return_check.map(|r| r.0), p.return_check.map(|r| r.1));
    let _ = writeln!(
        out,
        "pipe.return_check {} {}",
        opt_to_token(rc_seq),
        opt_to_token(rc_pc)
    );
    let _ = writeln!(out, "pipe.cur_fetch_line {}", p.cur_fetch_line);
    let _ = writeln!(out, "pipe.int_free {}", list_to_string(&p.int_free));
    let _ = writeln!(out, "pipe.fp_free {}", list_to_string(&p.fp_free));
    let _ = writeln!(out, "pipe.agen_free {}", list_to_string(&p.agen_free));
    match &p.pending {
        None => out.push_str("pipe.pending -\n"),
        Some(op) => {
            out.push_str("pipe.pending ");
            op_to_tokens(op, &mut out);
            out.push('\n');
        }
    }

    out.push_str("\n# window: seq phase ready dest old_dest src0 src1 then the op\n");
    let _ = writeln!(out, "pipe.window {}", p.window.len());
    for slot in &p.window {
        let _ = write!(
            out,
            "window {} {} {} {} {} {} {} ",
            slot.seq,
            phase_to_token(slot.phase),
            slot.ready_cycle,
            phys_to_token(slot.dest),
            phys_to_token(slot.old_dest),
            phys_to_token(slot.srcs[0]),
            phys_to_token(slot.srcs[1]),
        );
        op_to_tokens(&slot.op, &mut out);
        out.push('\n');
    }
    let _ = writeln!(out, "pipe.fetchq {}", p.fetch_queue.len());
    for f in &p.fetch_queue {
        let _ = write!(out, "fetchq {} {} ", f.seq, f.dispatch_at);
        op_to_tokens(&f.op, &mut out);
        out.push('\n');
    }
    out
}

// --- parsing ------------------------------------------------------------

/// Parses the text form of a checkpoint.
///
/// # Errors
///
/// Returns [`SimError::InvalidConfig`] with a 1-based line number on
/// unknown keys, duplicate keys, wrong token counts, malformed values,
/// count/entry mismatches, or an unsupported version, and naming the key
/// when one is missing.
pub fn checkpoint_from_text(text: &str) -> Result<Checkpoint, SimError> {
    let mut doc = Doc::scan(text, &SCHEMA)?;
    let version_line = doc.take("checkpoint.version")?;
    let version: u64 = version_line.one()?;
    if version != CHECKPOINT_VERSION {
        return Err(version_line.err(format!(
            "unsupported checkpoint version {version} (expected {CHECKPOINT_VERSION})"
        )));
    }
    let workload = doc.value("checkpoint.workload")?;
    let seed = doc.value("checkpoint.seed")?;
    let fingerprint = doc.value("checkpoint.fingerprint")?;

    let rng = doc.take("stream.rng")?;
    let regs = doc.take("stream.next_regs")?;
    let phase = doc.take("stream.phase")?;
    rng.expect_len(4)?;
    regs.expect_len(2)?;
    phase.expect_len(2)?;
    let stream = StreamState {
        rng: [rng.at(0)?, rng.at(1)?, rng.at(2)?, rng.at(3)?],
        recent_int: doc.list("stream.recent_int")?,
        recent_fp: doc.list("stream.recent_fp")?,
        next_int_reg: regs.at(0)?,
        next_fp_reg: regs.at(1)?,
        pc: doc.value("stream.pc")?,
        loop_start: doc.value("stream.loop_start")?,
        emitted: doc.value("stream.emitted")?,
        call_stack: doc.list("stream.call_stack")?,
        stream_offsets: doc.list("stream.offsets")?,
        phase_idx: phase.at(0)?,
        phase_remaining: phase.at(1)?,
    };

    let rename = RenameState {
        int: read_rename_class(&mut doc, "int")?,
        fp: read_rename_class(&mut doc, "fp")?,
    };

    let bpred = BpredState {
        counters: digits_from_line(&doc.take("bpred.counters")?, 3)?,
        ras: doc.list("bpred.ras")?,
    };

    let counts = doc.take("mem.counts")?;
    counts.expect_len(2)?;
    let mshr_count = doc.take("mem.mshrs")?;
    let mshrs = doc
        .counted("mshr", mshr_count.expect_len(1)?, 0)?
        .iter()
        .map(|e| {
            e.expect_len(2)?;
            Ok(MshrState {
                line: e.at(0)?,
                ready: e.at(1)?,
            })
        })
        .collect::<Result<_, SimError>>()?;
    let mem = MemHierarchyState {
        l1i: read_cache(&mut doc, "l1i")?,
        l1d: read_cache(&mut doc, "l1d")?,
        l2: read_cache(&mut doc, "l2")?,
        mshrs,
        l2_inst_refs: counts.at(0)?,
        prefetches: counts.at(1)?,
    };

    let pending = doc.take("pipe.pending")?;
    let pending = match pending.values.as_slice() {
        ["-"] => None,
        toks => Some(op_from_tokens(pending.expect_len(OP_TOKENS)?, toks)?),
    };

    let rc = doc.take("pipe.return_check")?;
    rc.expect_len(2)?;
    let return_check = match (
        opt_u64_from_token(&rc, rc.values[0])?,
        opt_u64_from_token(&rc, rc.values[1])?,
    ) {
        (Some(seq), Some(pc)) => Some((seq, pc)),
        (None, None) => None,
        _ => return Err(rc.err("`pipe.return_check` needs both fields or both `-`")),
    };

    let window_count = doc.take("pipe.window")?;
    let window = doc
        .counted("window", window_count.expect_len(1)?, 0)?
        .iter()
        .map(|e| {
            let v = &e.expect_len(7 + OP_TOKENS)?.values;
            Ok(WindowSlotState {
                seq: e.at(0)?,
                phase: phase_from_token(e, v[1])?,
                ready_cycle: e.at(2)?,
                dest: phys_from_token(e, v[3])?,
                old_dest: phys_from_token(e, v[4])?,
                srcs: [phys_from_token(e, v[5])?, phys_from_token(e, v[6])?],
                op: op_from_tokens(e, &v[7..])?,
            })
        })
        .collect::<Result<_, SimError>>()?;

    let fetchq_count = doc.take("pipe.fetchq")?;
    let fetch_queue = doc
        .counted("fetchq", fetchq_count.expect_len(1)?, 0)?
        .iter()
        .map(|e| {
            let v = &e.expect_len(2 + OP_TOKENS)?.values;
            Ok(FetchedState {
                seq: e.at(0)?,
                dispatch_at: e.at(1)?,
                op: op_from_tokens(e, &v[2..])?,
            })
        })
        .collect::<Result<_, SimError>>()?;

    let blocking = doc.take("pipe.blocking_branch")?;
    let pipeline = PipelineState {
        rename,
        bpred,
        mem,
        window,
        fetch_queue,
        pending,
        now: doc.value("pipe.now")?,
        seq_next: doc.value("pipe.seq_next")?,
        committed: doc.value("pipe.committed")?,
        last_commit_cycle: doc.value("pipe.last_commit_cycle")?,
        fetch_resume_at: doc.value("pipe.fetch_resume_at")?,
        blocking_branch: opt_u64_from_token(&blocking, blocking.expect_len(1)?.values[0])?,
        return_check,
        cur_fetch_line: doc.value("pipe.cur_fetch_line")?,
        int_free: doc.list("pipe.int_free")?,
        fp_free: doc.list("pipe.fp_free")?,
        agen_free: doc.list("pipe.agen_free")?,
    };

    Ok(Checkpoint {
        workload,
        seed,
        fingerprint,
        stream,
        pipeline,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CacheConfig, CoreConfig};
    use crate::pipeline::Processor;
    use sim_common::Xoshiro256pp;
    use workload::{App, InstructionSource, SyntheticStream};

    fn captured_checkpoint(app: App, seed: u64, instructions: u64) -> Checkpoint {
        let mut cpu = Processor::new(
            CoreConfig::base(),
            SyntheticStream::new(app.profile(), seed),
        )
        .unwrap();
        cpu.prewarm(0x1000_0000, 256 * 1024, 0, 16 * 1024);
        cpu.run_instructions(instructions);
        Checkpoint {
            workload: cpu.source().name().to_owned(),
            seed,
            fingerprint: 0xC0FFEE,
            stream: cpu.source().state(),
            pipeline: cpu.state(),
        }
    }

    #[test]
    fn captured_state_round_trips_bit_exactly() {
        for app in [App::Gzip, App::Art, App::MpgDec] {
            let chk = captured_checkpoint(app, 7, 15_000);
            let text = checkpoint_to_text(&chk);
            let parsed = checkpoint_from_text(&text).unwrap();
            assert_eq!(parsed, chk, "{app:?}: parse(print(c)) != c");
            assert_eq!(
                checkpoint_to_text(&parsed),
                text,
                "{app:?}: printing is not a fixed point"
            );
        }
    }

    /// Randomized micro-op with edge-case-heavy field choices.
    fn random_op(rng: &mut Xoshiro256pp) -> MicroOp {
        let class = OpClass::ALL[rng.gen_usize(0..OpClass::ALL.len())];
        let reg = |rng: &mut Xoshiro256pp| {
            if rng.gen_bool(0.3) {
                None
            } else {
                Some(ArchReg::from_flat_index(rng.gen_usize(0..128)))
            }
        };
        MicroOp {
            pc: rng.next_u64() & 0xFFFF_FFFF,
            class,
            dest: reg(rng),
            srcs: [reg(rng), reg(rng)],
            addr: if class.is_mem() {
                Some(rng.next_u64())
            } else {
                None
            },
            taken: rng.gen_bool(0.5),
        }
    }

    fn random_cache(rng: &mut Xoshiro256pp, line_count: u64) -> CacheState {
        let clock = rng.gen_u64(1..1_000_000);
        let mut lines = Vec::new();
        for index in 0..line_count {
            if rng.gen_bool(0.4) {
                lines.push(CacheLineState {
                    index,
                    tag: rng.next_u64() >> 20,
                    dirty: rng.gen_bool(0.5),
                    lru: rng.gen_u64(0..clock + 1),
                });
            }
        }
        CacheState {
            line_count,
            lines,
            clock,
        }
    }

    fn random_checkpoint(seed: u64) -> Checkpoint {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let phys = |rng: &mut Xoshiro256pp| {
            if rng.gen_bool(0.25) {
                None
            } else {
                Some(PhysReg {
                    class: if rng.gen_bool(0.5) {
                        RegClass::Int
                    } else {
                        RegClass::Fp
                    },
                    index: rng.gen_u64(0..192) as u16,
                })
            }
        };
        let rename_class = |rng: &mut Xoshiro256pp| RenameClassState {
            map: (0..64).map(|_| rng.gen_u64(0..192) as u16).collect(),
            free: (0..rng.gen_usize(0..128))
                .map(|_| rng.gen_u64(0..192) as u16)
                .collect(),
            ready: (0..192).map(|_| rng.gen_bool(0.5)).collect(),
        };
        let window: Vec<WindowSlotState> = (0..rng.gen_usize(0..64))
            .map(|i| WindowSlotState {
                seq: i as u64,
                op: random_op(&mut rng),
                dest: phys(&mut rng),
                old_dest: phys(&mut rng),
                srcs: [phys(&mut rng), phys(&mut rng)],
                phase: [ExecPhase::Waiting, ExecPhase::Issued, ExecPhase::Done]
                    [rng.gen_usize(0..3)],
                ready_cycle: rng.next_u64(),
            })
            .collect();
        let fetch_queue: Vec<FetchedState> = (0..rng.gen_usize(0..32))
            .map(|i| FetchedState {
                seq: 1_000 + i as u64,
                op: random_op(&mut rng),
                dispatch_at: rng.next_u64(),
            })
            .collect();
        let now = rng.next_u64();
        Checkpoint {
            workload: format!("fuzz-{seed}"),
            seed,
            fingerprint: rng.next_u64(),
            stream: StreamState {
                rng: [
                    rng.next_u64(),
                    rng.next_u64(),
                    rng.next_u64(),
                    rng.next_u64().max(1),
                ],
                recent_int: (0..rng.gen_usize(0..8))
                    .map(|_| rng.gen_u64(0..64) as u16)
                    .collect(),
                recent_fp: (0..rng.gen_usize(0..8))
                    .map(|_| 64 + rng.gen_u64(0..64) as u16)
                    .collect(),
                next_int_reg: rng.gen_u64(0..64) as u16,
                next_fp_reg: rng.gen_u64(0..64) as u16,
                pc: rng.next_u64(),
                loop_start: rng.next_u64(),
                emitted: rng.next_u64(),
                call_stack: (0..rng.gen_usize(0..16)).map(|_| rng.next_u64()).collect(),
                stream_offsets: (0..rng.gen_usize(1..6)).map(|_| rng.next_u64()).collect(),
                phase_idx: rng.next_u64(),
                phase_remaining: if rng.gen_bool(0.5) {
                    u64::MAX
                } else {
                    rng.next_u64()
                },
            },
            pipeline: PipelineState {
                rename: RenameState {
                    int: rename_class(&mut rng),
                    fp: rename_class(&mut rng),
                },
                bpred: BpredState {
                    counters: (0..256).map(|_| rng.gen_u64(0..4) as u8).collect(),
                    ras: (0..rng.gen_usize(0..32)).map(|_| rng.next_u64()).collect(),
                },
                mem: MemHierarchyState {
                    l1i: random_cache(&mut rng, 256),
                    l1d: random_cache(&mut rng, 512),
                    l2: random_cache(&mut rng, 1024),
                    mshrs: (0..rng.gen_usize(0..12))
                        .map(|_| MshrState {
                            line: rng.next_u64(),
                            ready: rng.next_u64(),
                        })
                        .collect(),
                    l2_inst_refs: rng.next_u64(),
                    prefetches: rng.next_u64(),
                },
                window,
                fetch_queue,
                pending: if rng.gen_bool(0.5) {
                    Some(random_op(&mut rng))
                } else {
                    None
                },
                now,
                seq_next: rng.next_u64(),
                committed: rng.next_u64(),
                last_commit_cycle: now,
                fetch_resume_at: rng.next_u64(),
                blocking_branch: if rng.gen_bool(0.5) {
                    Some(rng.next_u64())
                } else {
                    None
                },
                return_check: if rng.gen_bool(0.5) {
                    Some((rng.next_u64(), rng.next_u64()))
                } else {
                    None
                },
                cur_fetch_line: if rng.gen_bool(0.2) {
                    u64::MAX
                } else {
                    rng.next_u64()
                },
                int_free: (0..6).map(|_| rng.next_u64()).collect(),
                fp_free: (0..4).map(|_| rng.next_u64()).collect(),
                agen_free: (0..2).map(|_| rng.next_u64()).collect(),
            },
        }
    }

    #[test]
    fn randomized_states_round_trip_bit_exactly() {
        // Property test over seeded random pipeline/cache/bpred states —
        // the same idiom as the `.scn` round-trip tests, with the edge
        // values (u64::MAX markers, empty lists, absent options) that a
        // captured run rarely produces.
        for seed in 0..40 {
            let chk = random_checkpoint(seed);
            let text = checkpoint_to_text(&chk);
            let parsed = checkpoint_from_text(&text).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            assert_eq!(parsed, chk, "seed {seed}: parse(print(c)) != c");
            assert_eq!(
                checkpoint_to_text(&parsed),
                text,
                "seed {seed}: printing is not a fixed point"
            );
        }
    }

    #[test]
    fn unknown_key_is_rejected_with_line_number() {
        let mut text = checkpoint_to_text(&random_checkpoint(1));
        text.push_str("pipe.warp_factor 9\n");
        let err = checkpoint_from_text(&text).unwrap_err().to_string();
        assert!(err.contains("unknown key `pipe.warp_factor`"), "{err}");
        assert!(err.contains("line"), "{err}");
    }

    #[test]
    fn duplicate_key_is_rejected() {
        let mut text = checkpoint_to_text(&random_checkpoint(2));
        text.push_str("pipe.now 5\n");
        let err = checkpoint_from_text(&text).unwrap_err().to_string();
        assert!(err.contains("duplicate key `pipe.now`"), "{err}");
    }

    #[test]
    fn wrong_arity_is_rejected() {
        let text = checkpoint_to_text(&random_checkpoint(3));
        let broken = text.replace("stream.phase ", "stream.phase 1 2 ");
        let err = checkpoint_from_text(&broken).unwrap_err().to_string();
        assert!(err.contains("`stream.phase` expects 2 values"), "{err}");
    }

    #[test]
    fn count_mismatch_is_rejected() {
        let chk = random_checkpoint(4);
        let text = checkpoint_to_text(&chk);
        let declared = format!("pipe.window {}", chk.pipeline.window.len());
        let broken = text.replace(&declared, "pipe.window 99");
        let err = checkpoint_from_text(&broken).unwrap_err().to_string();
        assert!(err.contains("declares 99 entries"), "{err}");
    }

    #[test]
    fn missing_key_is_rejected() {
        let text: String = checkpoint_to_text(&random_checkpoint(5))
            .lines()
            .filter(|l| !l.starts_with("pipe.committed"))
            .map(|l| format!("{l}\n"))
            .collect();
        let err = checkpoint_from_text(&text).unwrap_err().to_string();
        assert!(err.contains("missing key `pipe.committed`"), "{err}");
    }

    #[test]
    fn unsupported_version_is_rejected() {
        let text = checkpoint_to_text(&random_checkpoint(6))
            .replace("checkpoint.version 1", "checkpoint.version 2");
        let err = checkpoint_from_text(&text).unwrap_err().to_string();
        assert!(err.contains("unsupported checkpoint version 2"), "{err}");
    }

    #[test]
    fn bad_counter_digit_is_rejected() {
        let chk = random_checkpoint(7);
        let digits: String = chk
            .pipeline
            .bpred
            .counters
            .iter()
            .map(|&c| char::from_digit(u32::from(c), 10).unwrap())
            .collect();
        let text = checkpoint_to_text(&chk).replace(
            &format!("bpred.counters {digits}"),
            "bpred.counters 0123401",
        );
        let err = checkpoint_from_text(&text).unwrap_err().to_string();
        assert!(err.contains("digits 0-3"), "{err}");
    }

    #[test]
    fn restored_checkpoint_resumes_the_simulation() {
        // End-to-end: capture -> print -> parse -> rebuild a processor ->
        // identical continuation.
        let seed = 99;
        let mut cpu = Processor::new(
            CoreConfig::base(),
            SyntheticStream::new(App::Twolf.profile(), seed),
        )
        .unwrap();
        cpu.run_instructions(12_000);
        let chk = Checkpoint {
            workload: cpu.source().name().to_owned(),
            seed,
            fingerprint: 1,
            stream: cpu.source().state(),
            pipeline: cpu.state(),
        };
        let parsed = checkpoint_from_text(&checkpoint_to_text(&chk)).unwrap();
        let stream =
            SyntheticStream::restore(App::Twolf.profile(), parsed.seed, &parsed.stream).unwrap();
        let mut resumed = Processor::new(CoreConfig::base(), stream).unwrap();
        resumed.restore_state(&parsed.pipeline).unwrap();
        assert_eq!(parsed.instructions(), 12_000);
        let a = cpu.run_instructions(8_000);
        let b = resumed.run_instructions(8_000);
        assert_eq!(a, b);
    }

    /// The canonical text of a deterministic capture, pinned by its length
    /// and FNV-1a digest: the printer's bytes must never drift.
    #[test]
    fn captured_text_matches_the_golden_digest() {
        let text = checkpoint_to_text(&captured_checkpoint(App::Gzip, 7, 15_000));
        assert_eq!(text.len(), 196_589);
        assert_eq!(sim_common::fnv1a64(text.as_bytes()), 0x2a41_83e8_5b67_7326);
    }

    /// A processor with small caches, so the corruption harness below
    /// parses and restores hundreds of cases quickly.
    fn small_config() -> CoreConfig {
        CoreConfig {
            l1i: CacheConfig::new(2048, 2, 64).unwrap(),
            l1d: CacheConfig::new(2048, 2, 64).unwrap(),
            l2: CacheConfig::new(8192, 4, 64).unwrap(),
            ..CoreConfig::base()
        }
    }

    fn small_capture() -> Checkpoint {
        let mut cpu =
            Processor::new(small_config(), SyntheticStream::new(App::Gzip.profile(), 5)).unwrap();
        cpu.run_instructions(4_000);
        Checkpoint {
            workload: cpu.source().name().to_owned(),
            seed: 5,
            fingerprint: 9,
            stream: cpu.source().state(),
            pipeline: cpu.state(),
        }
    }

    /// Parses `text` and restores it into a fresh small processor.
    fn parse_and_restore(text: &str) -> Result<Processor<SyntheticStream>, SimError> {
        let chk = checkpoint_from_text(text)?;
        let stream = SyntheticStream::restore(App::Gzip.profile(), chk.seed, &chk.stream)?;
        let mut cpu = Processor::new(small_config(), stream)?;
        cpu.restore_state(&chk.pipeline)?;
        Ok(cpu)
    }

    #[test]
    fn hostile_counts_and_states_are_errors_not_panics() {
        let text = checkpoint_to_text(&small_capture());
        parse_and_restore(&text).unwrap();
        let edit = |prefix: &str, replacement: &str| -> String {
            text.lines()
                .map(|l| {
                    if l.starts_with(prefix) {
                        replacement
                    } else {
                        l
                    }
                })
                .collect::<Vec<_>>()
                .join("\n")
        };
        // A count at u64::MAX once overflowed the arity arithmetic.
        let err = checkpoint_from_text(&edit(
            "stream.call_stack ",
            "stream.call_stack 18446744073709551615",
        ))
        .unwrap_err()
        .to_string();
        assert!(
            err.contains("declares 18446744073709551615 values"),
            "{err}"
        );
        // A huge cache is never allocated from the file's line count.
        let valid = text
            .lines()
            .find_map(|l| l.strip_prefix("cache.l1i.lines "))
            .and_then(|v| v.split_whitespace().nth(1))
            .unwrap();
        let huge = format!("cache.l1i.lines 100000000000000 {valid}");
        let err = parse_and_restore(&edit("cache.l1i.lines ", &huge))
            .unwrap_err()
            .to_string();
        assert!(err.contains("cache line count mismatch"), "{err}");
        let err = parse_and_restore(&edit("pipe.int_free ", "pipe.int_free 1 0"))
            .unwrap_err()
            .to_string();
        assert!(err.contains("integer unit count mismatch"), "{err}");
        let err = parse_and_restore(&edit("cache.l1d.clock ", "cache.l1d.clock 0"))
            .unwrap_err()
            .to_string();
        assert!(
            err.contains("LRU timestamp ahead of the cache clock"),
            "{err}"
        );
    }

    /// Seeded corruptions of a canonical checkpoint either fail with an
    /// error naming a line (or the missing key), or restore into a
    /// processor that then simulates on without panicking.
    #[test]
    fn corrupted_checkpoints_never_panic() {
        let text = checkpoint_to_text(&small_capture());
        for seed in 0..500 {
            let bad = sim_common::textfmt::corrupt(&text, seed);
            match parse_and_restore(&bad) {
                Ok(mut cpu) => {
                    cpu.run_instructions(3_000);
                }
                Err(e) => {
                    let msg = e.to_string();
                    let restore_error = checkpoint_from_text(&bad).is_ok();
                    assert!(
                        restore_error || msg.contains("line ") || msg.contains("missing key"),
                        "seed {seed}: {msg}"
                    );
                }
            }
        }
    }

    /// A checkpoint that parses but breaks causality is refused at
    /// restore: simulated, each of these would overflow a counter,
    /// underflow the cycles-since-commit check, trip the livelock
    /// backstop, index a register file out of range, or misplace a window
    /// entry.
    #[test]
    fn causality_violations_are_refused_at_restore() {
        let text = checkpoint_to_text(&small_capture());
        let max = u64::MAX.to_string();
        let value = |key: &str| {
            text.lines()
                .find_map(|l| l.strip_prefix(key)?.strip_prefix(' '))
                .unwrap_or_else(|| panic!("`{key}` in the capture"))
                .to_owned()
        };
        let last_commit: u64 = value("pipe.last_commit_cycle").parse().unwrap();
        let mshr = value("mshr");
        let mshr_line = mshr.split_whitespace().next().unwrap();
        // The first window entry with value `k` replaced.
        let window = |k: usize, token: &str| {
            let first = value("window");
            let mut tokens: Vec<&str> = first.split_whitespace().collect();
            tokens[k] = token;
            tokens.join(" ")
        };
        let seq: u64 = value("window")
            .split_whitespace()
            .next()
            .unwrap()
            .parse()
            .unwrap();
        for (key, replacement, expect) in [
            (
                "window",
                window(3, "i9999"),
                "physical register out of range",
            ),
            (
                "window",
                window(4, "i9999"),
                "physical register out of range",
            ),
            (
                "window",
                window(5, "f9999"),
                "physical register out of range",
            ),
            (
                "window",
                window(0, &(seq + 1_000).to_string()),
                "sequence numbers are not consecutive",
            ),
            (
                "pipe.now",
                (last_commit - 1).to_string(),
                "last commit is after the current cycle",
            ),
            (
                "pipe.fetch_resume_at",
                max.clone(),
                "event scheduled beyond the livelock limit",
            ),
            (
                "mshr",
                format!("{mshr_line} {max}"),
                "event scheduled beyond the livelock limit",
            ),
            (
                "mem.counts",
                format!("{max} 0"),
                "memory counter out of range",
            ),
            ("cache.l2.clock", max.clone(), "cache clock out of range"),
            (
                "pipe.committed",
                max.clone(),
                "pipeline counter out of range",
            ),
        ] {
            let prefix = format!("{key} ");
            let mut edited = false;
            let bad: String = text
                .lines()
                .map(|l| {
                    if !edited && l.starts_with(&prefix) {
                        edited = true;
                        format!("{key} {replacement}\n")
                    } else {
                        format!("{l}\n")
                    }
                })
                .collect();
            checkpoint_from_text(&bad).unwrap_or_else(|e| panic!("{key}: {e}"));
            let err = parse_and_restore(&bad).err().map(|e| e.to_string());
            assert!(
                err.as_deref().is_some_and(|e| e.contains(expect)),
                "{key} {replacement}: {err:?}"
            );
        }
    }
}
