//! Deterministic synthetic instruction stream generation.

use std::collections::VecDeque;

use sim_common::{splitmix64, SimError, Xoshiro256pp};

use crate::op::{ArchReg, MicroOp, OpClass, RegClass, ARCH_REGS_PER_CLASS};
use crate::profile::AppProfile;
use crate::InstructionSource;

/// Base virtual address of the synthetic data region. Code lives at 0, data
/// far away, so instruction and data addresses never collide in the caches.
pub const DATA_BASE: u64 = 0x1000_0000;

/// Depth of the recent-destination ring used for dependency construction.
/// Matches the architectural register count so ring entries are never
/// overwritten before they can be referenced.
const RING_DEPTH: usize = ARCH_REGS_PER_CLASS as usize;

/// Maximum modeled call depth; deeper calls degenerate to plain jumps
/// (matching how a bounded hardware RAS behaves under deep recursion).
const MAX_CALL_DEPTH: usize = 24;

/// Per-class micro-op tally, flushed to `workload.ops.<class>` /
/// `workload.ops.total` counters when the stream is dropped (one counter
/// update per stream lifetime, nothing in the per-op path). The counters
/// count ops *generated*: an `OpTape` recording counts its ops once, and
/// the timing runs that replay it count nothing. Cloned streams start a
/// fresh tally so replays never double-report.
#[derive(Debug)]
struct OpTally {
    counts: [u64; OpClass::ALL.len()],
}

impl OpTally {
    fn new() -> OpTally {
        OpTally {
            counts: [0; OpClass::ALL.len()],
        }
    }

    #[inline]
    fn record(&mut self, class: OpClass) {
        // `OpClass::ALL` is in declaration order, so the discriminant is
        // the index.
        self.counts[class as usize] += 1;
    }
}

impl Clone for OpTally {
    fn clone(&self) -> OpTally {
        OpTally::new()
    }
}

impl Drop for OpTally {
    fn drop(&mut self) {
        if !sim_obs::enabled() {
            return;
        }
        let total: u64 = self.counts.iter().sum();
        if total == 0 {
            return;
        }
        sim_obs::counter!("workload.ops.total", total);
        for (class, &n) in OpClass::ALL.iter().zip(self.counts.iter()) {
            if n > 0 {
                sim_obs::counter!(format!("workload.ops.{class}"), n);
            }
        }
    }
}

/// The serializable warm state of a [`SyntheticStream`], captured at an
/// instruction boundary by [`SyntheticStream::state`] and restored with
/// [`SyntheticStream::restore`].
///
/// Every field is an integer, so a text encoding round-trips bit-exactly.
/// The profile and seed are *not* part of the state — a checkpoint names
/// them separately and the restore path re-derives everything they imply
/// (branch-bias salt, phase parameters), which keeps the state minimal
/// and impossible to desynchronize from its profile.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamState {
    /// Raw xoshiro256++ generator state.
    pub rng: [u64; 4],
    /// Recent integer destination ring, oldest first (flat indices).
    pub recent_int: Vec<u16>,
    /// Recent floating-point destination ring, oldest first (flat indices).
    pub recent_fp: Vec<u16>,
    /// Next round-robin integer destination register.
    pub next_int_reg: u16,
    /// Next round-robin floating-point destination register.
    pub next_fp_reg: u16,
    /// Current program counter.
    pub pc: u64,
    /// Current loop back-edge target.
    pub loop_start: u64,
    /// Micro-ops emitted so far.
    pub emitted: u64,
    /// Return addresses of calls in flight, outermost first.
    pub call_stack: Vec<u64>,
    /// Sequential access-stream cursors into the data working set.
    pub stream_offsets: Vec<u64>,
    /// Current phase index (monotonic; wraps modulo the phase count).
    pub phase_idx: u64,
    /// Instructions left in the current phase (`u64::MAX` = phase-less).
    pub phase_remaining: u64,
}

/// A deterministic, seeded instruction stream realizing an [`AppProfile`].
///
/// The same `(profile, seed)` pair always generates the identical stream, so
/// configuration sweeps (DRM's adaptation search) see identical work.
///
/// # Examples
///
/// ```
/// use workload::{App, InstructionSource, SyntheticStream};
/// let mut a = SyntheticStream::new(App::Art.profile(), 7);
/// let mut b = SyntheticStream::new(App::Art.profile(), 7);
/// for _ in 0..1000 {
///     assert_eq!(a.next_op(), b.next_op());
/// }
/// ```
#[derive(Debug, Clone)]
pub struct SyntheticStream {
    profile: AppProfile,
    rng: Xoshiro256pp,
    bias_salt: u64,
    /// `ln(1 - p)` of the geometric dependency-distance law, integer then
    /// floating point: a function of the profile alone, so it is computed
    /// once here rather than on every sampled source.
    ln_q: [f64; 2],

    // Recent destination registers, most recent at the back.
    recent_int: VecDeque<ArchReg>,
    recent_fp: VecDeque<ArchReg>,
    next_int_reg: u16,
    next_fp_reg: u16,

    pc: u64,
    loop_start: u64,
    emitted: u64,
    tally: OpTally,
    /// Return addresses of calls in flight (bounded; deeper recursion
    /// degenerates to plain jumps).
    call_stack: Vec<u64>,

    // Sequential access streams into the data working set.
    stream_offsets: Vec<u64>,

    // Phase state: effective parameters after segment overrides.
    phase_idx: usize,
    phase_remaining: u64,
    cur_cum: [f64; OpClass::ALL.len()],
    cur_working_set: u64,
    cur_spatial: f64,
}

impl SyntheticStream {
    /// Creates a stream for `profile` seeded with `seed`.
    ///
    /// # Panics
    ///
    /// Panics if the profile fails [`AppProfile::validate`]; construct
    /// profiles through validated paths to avoid this.
    pub fn new(profile: AppProfile, seed: u64) -> SyntheticStream {
        profile
            .validate()
            .unwrap_or_else(|e| panic!("invalid profile {}: {e}", profile.name));
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let streams = (0..profile.access_streams)
            .map(|_| rng.gen_u64(0..profile.data_working_set.max(8)) & !7)
            .collect();
        let ln_q = |mean: f64| (1.0 - (1.0 / mean).clamp(1e-6, 1.0)).ln();
        let mut s = SyntheticStream {
            bias_salt: seed ^ 0x9E37_79B9_7F4A_7C15,
            ln_q: [ln_q(profile.dep_mean_int), ln_q(profile.dep_mean_fp)],
            cur_cum: profile.mix.cumulative(),
            cur_working_set: profile.data_working_set,
            cur_spatial: profile.spatial_fraction,
            profile,
            rng,
            recent_int: VecDeque::with_capacity(RING_DEPTH),
            recent_fp: VecDeque::with_capacity(RING_DEPTH),
            next_int_reg: 1,
            next_fp_reg: 1,
            pc: 0,
            loop_start: 0,
            emitted: 0,
            tally: OpTally::new(),
            call_stack: Vec::with_capacity(MAX_CALL_DEPTH),
            stream_offsets: streams,
            phase_idx: 0,
            phase_remaining: 0,
        };
        s.enter_phase(0);
        s
    }

    /// The profile this stream realizes.
    pub fn profile(&self) -> &AppProfile {
        &self.profile
    }

    /// Number of micro-ops emitted so far.
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    /// Captures the stream's warm state for checkpointing. Restoring it
    /// with [`SyntheticStream::restore`] (same profile, same seed)
    /// continues the generated sequence bit for bit.
    #[must_use]
    pub fn state(&self) -> StreamState {
        let flat = |ring: &VecDeque<ArchReg>| ring.iter().map(|r| r.flat_index() as u16).collect();
        StreamState {
            rng: self.rng.state(),
            recent_int: flat(&self.recent_int),
            recent_fp: flat(&self.recent_fp),
            next_int_reg: self.next_int_reg,
            next_fp_reg: self.next_fp_reg,
            pc: self.pc,
            loop_start: self.loop_start,
            emitted: self.emitted,
            call_stack: self.call_stack.clone(),
            stream_offsets: self.stream_offsets.clone(),
            phase_idx: self.phase_idx as u64,
            phase_remaining: self.phase_remaining,
        }
    }

    /// Rebuilds a stream from a captured [`StreamState`]. `profile` and
    /// `seed` must be the ones the original stream was constructed with —
    /// the salt and phase parameters are re-derived from them, so a
    /// mismatched pair silently produces a different stream (checkpoint
    /// callers guard this with a fingerprint).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] when the state is inconsistent
    /// with the profile (ring, cursor or call-stack sizes out of range, a
    /// register index outside the architectural file).
    pub fn restore(
        profile: AppProfile,
        seed: u64,
        state: &StreamState,
    ) -> Result<SyntheticStream, SimError> {
        let mut s = SyntheticStream::new(profile, seed);
        let flat_ok = |ring: &[u16]| {
            ring.len() <= RING_DEPTH && ring.iter().all(|&i| i < 2 * ARCH_REGS_PER_CLASS)
        };
        let problem = if state.stream_offsets.len() != s.stream_offsets.len() {
            Some("stream cursor count does not match the profile's access_streams")
        } else if !flat_ok(&state.recent_int) || !flat_ok(&state.recent_fp) {
            Some("destination ring deeper than RING_DEPTH or naming a register out of range")
        } else if state.call_stack.len() > MAX_CALL_DEPTH {
            Some("call stack deeper than MAX_CALL_DEPTH")
        } else if state.next_int_reg >= ARCH_REGS_PER_CLASS
            || state.next_fp_reg >= ARCH_REGS_PER_CLASS
        {
            Some("next destination register out of range")
        } else {
            None
        };
        if let Some(problem) = problem {
            return Err(SimError::invalid_config(format!("stream state: {problem}")));
        }
        s.rng = Xoshiro256pp::from_state(state.rng);
        let unflat = |flat: &[u16]| {
            flat.iter()
                .map(|&i| ArchReg::from_flat_index(i as usize))
                .collect()
        };
        s.recent_int = unflat(&state.recent_int);
        s.recent_fp = unflat(&state.recent_fp);
        s.next_int_reg = state.next_int_reg;
        s.next_fp_reg = state.next_fp_reg;
        s.pc = state.pc;
        s.loop_start = state.loop_start;
        s.emitted = state.emitted;
        s.call_stack = state.call_stack.clone();
        s.stream_offsets = state.stream_offsets.clone();
        // Re-derive the phase-dependent mix/working-set/stride parameters
        // from the phase index, then overwrite the intra-phase position
        // (`enter_phase` resets it to the segment length).
        s.enter_phase(state.phase_idx as usize);
        s.phase_remaining = state.phase_remaining;
        Ok(s)
    }

    fn enter_phase(&mut self, idx: usize) {
        self.phase_idx = idx;
        if self.profile.phases.is_empty() {
            self.phase_remaining = u64::MAX;
            return;
        }
        let seg = &self.profile.phases[idx % self.profile.phases.len()];
        self.phase_remaining = seg.instructions;
        self.cur_cum = seg.mix.as_ref().unwrap_or(&self.profile.mix).cumulative();
        self.cur_working_set = seg.working_set.unwrap_or(self.profile.data_working_set);
        self.cur_spatial = seg
            .spatial_fraction
            .unwrap_or(self.profile.spatial_fraction);
    }

    fn advance_phase(&mut self) {
        if self.phase_remaining != u64::MAX {
            self.phase_remaining = self.phase_remaining.saturating_sub(1);
            if self.phase_remaining == 0 {
                self.enter_phase(self.phase_idx.wrapping_add(1));
            }
        }
    }

    /// Instruction class at `pc`: a deterministic function of the synthetic
    /// code layout, so loops replay the same instruction sequence (the
    /// branch predictor and I-cache see realistic repetition). The class
    /// distribution over the footprint follows the phase's mix.
    fn class_at(&self, pc: u64) -> OpClass {
        let phase_salt = if self.profile.phases.is_empty() {
            0
        } else {
            (self.phase_idx % self.profile.phases.len()) as u64
        };
        let h = splitmix64(
            pc ^ self.bias_salt.rotate_left(17) ^ phase_salt.wrapping_mul(0xA24B_AED4_963E_E407),
        );
        let u = (h >> 11) as f64 / (1u64 << 53) as f64;
        let slot = self.cur_cum.iter().position(|&c| u <= c).unwrap_or(0);
        OpClass::ALL[slot]
    }

    /// Samples a dependency distance for a `class` source: geometric with
    /// the profile's mean for that class. Divides by the stored `ln(1 - p)`
    /// (not a multiply by its reciprocal) so every sample keeps its bits.
    fn sample_distance(&mut self, class: RegClass) -> usize {
        let ln_q = self.ln_q[class as usize];
        let u: f64 = self.rng.gen_f64(f64::EPSILON..1.0);
        let d = 1.0 + (u.ln() / ln_q).floor();
        d as usize
    }

    fn source_from_ring(&mut self, class: RegClass) -> Option<ArchReg> {
        let d = self.sample_distance(class);
        let ring = match class {
            RegClass::Int => &self.recent_int,
            RegClass::Fp => &self.recent_fp,
        };
        if ring.is_empty() {
            return None;
        }
        let idx = ring.len().saturating_sub(d);
        ring.get(idx).copied().or_else(|| ring.front().copied())
    }

    fn alloc_dest(&mut self, class: RegClass) -> ArchReg {
        // Round-robin over registers 1..N; register 0 is never written, so a
        // source that maps to it is architecturally always ready.
        let reg = match class {
            RegClass::Int => {
                let r = ArchReg::new(RegClass::Int, self.next_int_reg);
                self.next_int_reg = 1 + (self.next_int_reg % (ARCH_REGS_PER_CLASS - 1));
                r
            }
            RegClass::Fp => {
                let r = ArchReg::new(RegClass::Fp, self.next_fp_reg);
                self.next_fp_reg = 1 + (self.next_fp_reg % (ARCH_REGS_PER_CLASS - 1));
                r
            }
        };
        let ring = match class {
            RegClass::Int => &mut self.recent_int,
            RegClass::Fp => &mut self.recent_fp,
        };
        if ring.len() == RING_DEPTH {
            ring.pop_front();
        }
        ring.push_back(reg);
        reg
    }

    fn data_address(&mut self) -> u64 {
        // Three-level locality hierarchy: hot (L1-resident) and mid
        // (L2-resident) regions at the bottom of the data segment, cold
        // streaming/random traffic over the full working set.
        let u: f64 = self.rng.next_f64();
        if u < self.profile.hot_fraction {
            return DATA_BASE + (self.rng.gen_u64(0..self.profile.hot_bytes.max(64)) & !7);
        }
        if u < self.profile.hot_fraction + self.profile.mid_fraction {
            return DATA_BASE + (self.rng.gen_u64(0..self.profile.mid_bytes.max(64)) & !7);
        }
        let ws = self.cur_working_set.max(64);
        if self.rng.gen_bool(self.cur_spatial) {
            let n = self.stream_offsets.len();
            let slot = self.rng.gen_usize(0..n);
            let off = self.stream_offsets[slot];
            self.stream_offsets[slot] = (off + 8) % ws;
            DATA_BASE + off
        } else {
            DATA_BASE + (self.rng.gen_u64(0..ws) & !7)
        }
    }

    /// Deterministic per-branch behaviour derived from the branch PC.
    /// Returns `(base_taken, flip_probability)`.
    fn branch_character(&self, pc: u64) -> (bool, f64) {
        let h = splitmix64(pc ^ self.bias_salt);
        let u1 = (h >> 11) as f64 / (1u64 << 53) as f64;
        let u2 = (splitmix64(h) >> 11) as f64 / (1u64 << 53) as f64;
        let base_taken = u1 < self.profile.branch_taken_bias;
        let flip = u2 * 2.0 * self.profile.branch_noise;
        (base_taken, flip)
    }

    fn step_pc_sequential(&mut self) {
        self.pc += 4;
        if self.pc >= self.profile.code_footprint {
            self.pc = 0;
            self.loop_start = 0;
        }
    }
}

impl InstructionSource for SyntheticStream {
    fn next_op(&mut self) -> MicroOp {
        let pc = self.pc;
        let class = self.class_at(pc);

        let mut op = MicroOp {
            pc,
            class,
            dest: None,
            srcs: [None, None],
            addr: None,
            taken: false,
        };

        match class {
            OpClass::IntAlu | OpClass::IntMul | OpClass::IntDiv => {
                op.srcs[0] = self.source_from_ring(RegClass::Int);
                op.srcs[1] = self.source_from_ring(RegClass::Int);
                op.dest = Some(self.alloc_dest(RegClass::Int));
                self.step_pc_sequential();
            }
            OpClass::FpAdd | OpClass::FpMul | OpClass::FpDiv => {
                op.srcs[0] = self.source_from_ring(RegClass::Fp);
                op.srcs[1] = self.source_from_ring(RegClass::Fp);
                op.dest = Some(self.alloc_dest(RegClass::Fp));
                self.step_pc_sequential();
            }
            OpClass::Load => {
                op.srcs[0] = self.source_from_ring(RegClass::Int);
                op.addr = Some(self.data_address());
                let fp_dest = self.rng.gen_bool(self.profile.fp_load_fraction);
                op.dest = Some(if fp_dest {
                    self.alloc_dest(RegClass::Fp)
                } else {
                    self.alloc_dest(RegClass::Int)
                });
                self.step_pc_sequential();
            }
            OpClass::Store => {
                op.srcs[0] = self.source_from_ring(RegClass::Int);
                let fp_data = self.rng.gen_bool(self.profile.fp_load_fraction);
                op.srcs[1] = if fp_data {
                    self.source_from_ring(RegClass::Fp)
                } else {
                    self.source_from_ring(RegClass::Int)
                };
                op.addr = Some(self.data_address());
                self.step_pc_sequential();
            }
            OpClass::Branch => {
                op.srcs[0] = self.source_from_ring(RegClass::Int);
                let (base_taken, flip) = self.branch_character(pc);
                let taken = base_taken ^ self.rng.gen_bool(flip);
                op.taken = taken;
                if taken {
                    // Mostly loop back-edges; occasionally a fresh region.
                    if self.rng.gen_bool(0.85) {
                        self.pc = self.loop_start;
                    } else {
                        let footprint = self.profile.code_footprint;
                        self.pc = self.rng.gen_u64(0..footprint) & !3;
                        self.loop_start = self.pc;
                    }
                } else {
                    self.step_pc_sequential();
                }
            }
            OpClass::Call => {
                // Unconditional; the callee entry is a fixed function of
                // the call site (a static call graph). Depth-limited:
                // beyond the cap the call behaves as a plain jump.
                op.taken = true;
                if self.call_stack.len() < MAX_CALL_DEPTH {
                    self.call_stack.push((pc + 4) % self.profile.code_footprint);
                }
                let entry =
                    splitmix64(pc ^ self.bias_salt.rotate_left(29)) % self.profile.code_footprint;
                self.pc = entry & !3;
                self.loop_start = self.pc;
            }
            OpClass::Return => {
                // Pops the matching call; with an empty stack (entered a
                // function body sideways) it falls through sequentially.
                match self.call_stack.pop() {
                    Some(ret) => {
                        op.taken = true;
                        self.pc = ret & !3;
                        self.loop_start = self.pc;
                    }
                    None => {
                        op.taken = false;
                        self.step_pc_sequential();
                    }
                }
            }
        }

        self.emitted += 1;
        self.tally.record(class);
        self.advance_phase();
        op
    }

    fn name(&self) -> &str {
        &self.profile.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::App;

    fn collect(app: App, seed: u64, n: usize) -> Vec<MicroOp> {
        let mut s = SyntheticStream::new(app.profile(), seed);
        (0..n).map(|_| s.next_op()).collect()
    }

    #[test]
    fn deterministic_for_same_seed() {
        let a = collect(App::Twolf, 99, 20_000);
        let b = collect(App::Twolf, 99, 20_000);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = collect(App::Twolf, 1, 5_000);
        let b = collect(App::Twolf, 2, 5_000);
        assert_ne!(a, b);
    }

    #[test]
    fn class_frequencies_converge_to_mix() {
        let app = App::Gzip;
        let profile = app.profile();
        let n = 300_000;
        let ops = collect(app, 5, n);
        for class in OpClass::ALL {
            let observed = ops.iter().filter(|o| o.class == class).count() as f64 / n as f64;
            let expected = profile.mix.fraction(class);
            // Class-by-PC layout plus loop concentration gives more variance
            // than i.i.d. sampling would; 0.03 absolute is still tight enough
            // to pin the mix.
            assert!(
                (observed - expected).abs() < 0.03,
                "{class}: observed {observed:.4}, expected {expected:.4}"
            );
        }
    }

    #[test]
    fn pcs_stay_in_code_footprint() {
        let app = App::Bzip2;
        let footprint = app.profile().code_footprint;
        for op in collect(app, 3, 100_000) {
            assert!(op.pc < footprint, "pc {} outside footprint", op.pc);
            assert_eq!(op.pc % 4, 0);
        }
    }

    #[test]
    fn data_addresses_stay_in_working_set() {
        let app = App::Equake;
        let ws = app.profile().data_working_set;
        for op in collect(app, 3, 100_000) {
            if let Some(addr) = op.addr {
                assert!(op.class.is_mem());
                assert!(addr >= DATA_BASE);
                assert!(addr < DATA_BASE + ws, "addr {addr:#x} outside working set");
            } else {
                assert!(!op.class.is_mem());
            }
        }
    }

    #[test]
    fn operand_classes_are_consistent() {
        for app in App::ALL {
            for op in collect(app, 11, 20_000) {
                if op.class.is_fp() {
                    assert_eq!(op.dest.unwrap().class(), RegClass::Fp, "{op:?}");
                    for s in op.sources() {
                        assert_eq!(s.class(), RegClass::Fp, "{op:?}");
                    }
                }
                if op.class == OpClass::Branch {
                    assert!(op.dest.is_none());
                }
                if matches!(
                    op.class,
                    OpClass::IntAlu | OpClass::IntMul | OpClass::IntDiv
                ) {
                    assert_eq!(op.dest.unwrap().class(), RegClass::Int);
                }
            }
        }
    }

    #[test]
    fn branch_taken_rate_is_plausible() {
        let ops = collect(App::MpgDec, 17, 200_000);
        let branches: Vec<_> = ops.iter().filter(|o| o.class == OpClass::Branch).collect();
        assert!(!branches.is_empty());
        let taken = branches.iter().filter(|o| o.taken).count() as f64;
        let rate = taken / branches.len() as f64;
        // Bias is 0.65 taken; allow generous slack for per-branch variation.
        assert!(
            (0.35..=0.9).contains(&rate),
            "taken rate {rate} implausible"
        );
    }

    #[test]
    fn branch_outcomes_are_biased_per_pc() {
        // A given static branch should be strongly biased: the bimodal
        // predictor must be able to learn most branches.
        use std::collections::HashMap;
        let ops = collect(App::MpgDec, 23, 400_000);
        let mut per_pc: HashMap<u64, (u64, u64)> = HashMap::new();
        for op in ops.iter().filter(|o| o.class == OpClass::Branch) {
            let e = per_pc.entry(op.pc).or_default();
            if op.taken {
                e.0 += 1;
            }
            e.1 += 1;
        }
        let hot: Vec<_> = per_pc.values().filter(|(_, n)| *n >= 100).collect();
        assert!(!hot.is_empty());
        let strongly_biased = hot
            .iter()
            .filter(|(t, n)| {
                let r = *t as f64 / *n as f64;
                !(0.25..=0.75).contains(&r)
            })
            .count();
        // MPGdec has noise 0.03: nearly all hot branches must be decisively
        // biased one way.
        assert!(
            strongly_biased as f64 >= 0.9 * hot.len() as f64,
            "{strongly_biased}/{} branches strongly biased",
            hot.len()
        );
    }

    #[test]
    fn phases_cycle_and_change_working_set() {
        let profile = App::MpgDec.profile();
        let phase_len: u64 = profile.phases.iter().map(|p| p.instructions).sum();
        let mut s = SyntheticStream::new(profile.clone(), 9);
        let mut saw_big_ws = false;
        // Run through several frames; the output segment enlarges the cold
        // working set (to 1 MiB), so addresses beyond the stationary
        // 512 KiB set must appear.
        for _ in 0..6 * phase_len {
            let op = s.next_op();
            if let Some(addr) = op.addr {
                if addr - DATA_BASE >= 512 * 1024 {
                    saw_big_ws = true;
                }
            }
        }
        assert!(saw_big_ws, "phase working-set override never observed");
    }

    #[test]
    fn emitted_counts_ops() {
        let mut s = SyntheticStream::new(App::Ammp.profile(), 1);
        for _ in 0..123 {
            s.next_op();
        }
        assert_eq!(s.emitted(), 123);
    }

    #[test]
    fn tally_counts_ops_and_clone_starts_fresh() {
        let mut s = SyntheticStream::new(App::Ammp.profile(), 1);
        for _ in 0..10 {
            s.next_op();
        }
        assert_eq!(s.tally.counts.iter().sum::<u64>(), 10);
        let c = s.clone();
        assert_eq!(c.tally.counts.iter().sum::<u64>(), 0);
    }

    #[test]
    fn restored_stream_continues_bit_for_bit() {
        for app in [App::Twolf, App::MpgDec, App::Art] {
            let mut original = SyntheticStream::new(app.profile(), 77);
            // Stop mid-phase, mid-call, with warm rings and cursors.
            for _ in 0..12_345 {
                original.next_op();
            }
            let state = original.state();
            let mut resumed = SyntheticStream::restore(app.profile(), 77, &state).unwrap();
            assert_eq!(resumed.emitted(), original.emitted());
            for i in 0..50_000 {
                assert_eq!(resumed.next_op(), original.next_op(), "{app} op {i}");
            }
        }
    }

    #[test]
    fn restore_rejects_mismatched_cursor_count() {
        let s = SyntheticStream::new(App::Twolf.profile(), 1);
        let mut state = s.state();
        state.stream_offsets.push(0);
        let err = SyntheticStream::restore(App::Twolf.profile(), 1, &state).unwrap_err();
        assert!(err.to_string().contains("access_streams"), "{err}");
        let mut state = s.state();
        state.recent_int.push(u16::MAX);
        assert!(SyntheticStream::restore(App::Twolf.profile(), 1, &state).is_err());
    }

    #[test]
    fn name_matches_profile() {
        let s = SyntheticStream::new(App::H263Enc.profile(), 1);
        assert_eq!(s.name(), "H263enc");
    }

    #[test]
    fn splitmix_is_stable() {
        // Regression pin: branch characters must not change between runs.
        assert_eq!(splitmix64(0), 0xE220_A839_7B1D_CDAF);
    }
}
