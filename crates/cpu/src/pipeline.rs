//! The cycle-level out-of-order pipeline.
//!
//! Models the paper's base processor (Table 1): 8-wide fetch/retire, a
//! centralized instruction window integrating the issue queue and reorder
//! buffer with a separate physical register file (MIPS R10000 style),
//! per-class functional-unit pools whose sum defines the issue width
//! (§6.1), a 32-entry memory queue with store-address disambiguation and
//! store-to-load forwarding, and an MSHR-limited two-level cache hierarchy.
//!
//! The simulator is trace driven: the instruction stream is always the
//! correct path, so a branch misprediction is modeled as a fetch stall from
//! the mispredicted branch's fetch until it resolves plus a redirect
//! penalty, rather than by executing wrong-path work.
//!
//! The window is a power-of-two ring indexed by sequence number: an
//! in-flight slot lives at `seq & mask`, so finding it is one mask.
//!
//! Issue and completion are event driven rather than window scans. An
//! issued slot links into the completion bucket of `ready_cycle` modulo
//! the bucket count; each cycle walks its bucket, completes the slots due
//! now and leaves those a lap or more ahead in place. A dispatched slot
//! counts its sources that are not yet ready and links itself onto each
//! such physical register's wakeup list; writeback walks the list, and a
//! slot whose count reaches zero joins the ready set, which issue drains
//! in sequence order. Both lists are intrusive (the links live in the
//! slots), and both orders match a full scan of the window, so predictor
//! training, register writes and issue priority stay in program order.

use std::collections::VecDeque;

use workload::{InstructionSource, MicroOp, OpClass, RegClass};

use crate::bpred::{Bpred, BpredState};
use crate::cache::{DataAccess, MemHierarchy, MemHierarchyState, MemLatencies};
use crate::config::CoreConfig;
use crate::regfile::{PhysReg, Rename, RenameState};
use crate::stats::{ActivityCounters, IntervalStats, RunStats};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SlotState {
    Waiting,
    Issued,
    Done,
}

/// End of a wakeup or completion list (sequence numbers stay below
/// `COUNTER_LIMIT`).
const NO_SLOT: u64 = u64::MAX;

/// Completion buckets: a power of two above every latency of the base
/// configuration, so a slot is almost always found on its first visit.
const BUCKETS: u64 = 256;

#[derive(Debug, Clone, Copy)]
struct Slot {
    seq: u64,
    op: MicroOp,
    dest: Option<PhysReg>,
    old_dest: Option<PhysReg>,
    srcs: [Option<PhysReg>; 2],
    state: SlotState,
    ready_cycle: u64,
    /// Distinct sources still waiting for their producer.
    unready_srcs: u8,
    /// Next waiter (by sequence number) on the wakeup list of `srcs[k]`.
    next_waiter: [u64; 2],
    /// Next issued slot in the same completion bucket.
    next_done: u64,
}

impl Slot {
    /// A ring entry holding no instruction.
    const EMPTY: Slot = Slot {
        seq: NO_SLOT,
        op: MicroOp {
            pc: 0,
            class: OpClass::IntAlu,
            dest: None,
            srcs: [None, None],
            addr: None,
            taken: false,
        },
        dest: None,
        old_dest: None,
        srcs: [None, None],
        state: SlotState::Done,
        ready_cycle: 0,
        unready_srcs: 0,
        next_waiter: [NO_SLOT; 2],
        next_done: NO_SLOT,
    };
}

/// The instruction window: a ring whose capacity is the window size
/// rounded up to a power of two. In-flight sequence numbers are
/// consecutive, so slot `seq` lives at `seq & mask`.
#[derive(Debug)]
struct Window {
    slots: Vec<Slot>,
    mask: u64,
    /// Sequence number of the oldest slot (the next to dispatch when the
    /// window is empty).
    head: u64,
    len: u64,
}

impl Window {
    fn new(size: u32) -> Window {
        let capacity = size.next_power_of_two() as usize;
        Window {
            slots: vec![Slot::EMPTY; capacity],
            mask: capacity as u64 - 1,
            head: 0,
            len: 0,
        }
    }

    fn len(&self) -> usize {
        self.len as usize
    }

    fn slot(&self, seq: u64) -> &Slot {
        &self.slots[(seq & self.mask) as usize]
    }

    fn slot_mut(&mut self, seq: u64) -> &mut Slot {
        &mut self.slots[(seq & self.mask) as usize]
    }

    fn front(&self) -> Option<&Slot> {
        (self.len > 0).then(|| self.slot(self.head))
    }

    /// Sequence numbers in flight, oldest first.
    fn seqs(&self) -> std::ops::Range<u64> {
        self.head..self.head + self.len
    }

    fn push_back(&mut self, slot: Slot) {
        debug_assert_eq!(slot.seq, self.head + self.len);
        *self.slot_mut(slot.seq) = slot;
        self.len += 1;
    }

    /// Retires the oldest slot.
    fn pop_front(&mut self) {
        self.head += 1;
        self.len -= 1;
    }

    /// Empties the window; the next slot pushed carries `head`.
    fn reset(&mut self, head: u64) {
        self.head = head;
        self.len = 0;
    }
}

/// The 8-byte words targeted by stores in the window, each with the number
/// of stores publishing it: at most one entry per memory-queue slot, so a
/// linear scan is enough.
#[derive(Debug, Clone)]
struct StoreWords(Vec<(u64, u32)>);

impl StoreWords {
    fn with_capacity(mem_queue: u32) -> StoreWords {
        StoreWords(Vec::with_capacity(mem_queue as usize))
    }

    fn contains(&self, word: u64) -> bool {
        self.0.iter().any(|&(w, _)| w == word)
    }

    fn publish(&mut self, word: u64) {
        match self.0.iter_mut().find(|(w, _)| *w == word) {
            Some((_, n)) => *n += 1,
            None => self.0.push((word, 1)),
        }
    }

    fn retire(&mut self, word: u64) {
        if let Some(i) = self.0.iter().position(|&(w, _)| w == word) {
            self.0[i].1 -= 1;
            if self.0[i].1 == 0 {
                self.0.swap_remove(i);
            }
        }
    }
}

#[derive(Debug, Clone)]
struct Fetched {
    seq: u64,
    op: MicroOp,
    dispatch_at: u64,
}

/// Execution phase of one in-flight window entry, as captured in a
/// checkpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecPhase {
    /// Dispatched; waiting for operands or a functional unit.
    Waiting,
    /// Issued; result arrives at `ready_cycle`.
    Issued,
    /// Completed; waiting to retire in order.
    Done,
}

/// One instruction-window entry, as captured in a checkpoint.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowSlotState {
    /// Fetch sequence number (program order).
    pub seq: u64,
    /// The decoded micro-op.
    pub op: MicroOp,
    /// Allocated destination physical register.
    pub dest: Option<PhysReg>,
    /// Previous mapping of the destination (released at commit).
    pub old_dest: Option<PhysReg>,
    /// Renamed source registers.
    pub srcs: [Option<PhysReg>; 2],
    /// Execution phase.
    pub phase: ExecPhase,
    /// Absolute cycle at which the result is (or was) available.
    pub ready_cycle: u64,
}

/// One fetch-queue entry, as captured in a checkpoint.
#[derive(Debug, Clone, PartialEq)]
pub struct FetchedState {
    /// Fetch sequence number.
    pub seq: u64,
    /// The fetched micro-op.
    pub op: MicroOp,
    /// Absolute cycle at which the op becomes eligible for dispatch.
    pub dispatch_at: u64,
}

/// Complete warm microarchitectural state of a [`Processor`], captured at
/// an interval boundary for slice checkpoints.
///
/// Everything that influences future timing is here: rename maps, predictor
/// training, cache contents, in-flight window/fetch-queue entries, and the
/// absolute-cycle bookkeeping (functional-unit busy times, MSHR completion
/// times, fetch stall deadlines). Statistics are deliberately absent —
/// checkpoints are cut at interval boundaries, where
/// [`Processor::take_interval`] has just zeroed every counter, so a restored
/// processor reproduces the remaining intervals bit for bit.
///
/// The instruction source is *not* part of this state; capture and restore
/// it separately (the workload crate's `StreamState`) and hand the restored
/// source to [`Processor::new`] before calling
/// [`Processor::restore_state`].
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineState {
    /// Rename maps, free lists, and ready bits.
    pub rename: RenameState,
    /// Branch predictor counters and RAS.
    pub bpred: BpredState,
    /// Cache contents and outstanding misses.
    pub mem: MemHierarchyState,
    /// Instruction window, oldest entry first.
    pub window: Vec<WindowSlotState>,
    /// Fetch queue, oldest entry first.
    pub fetch_queue: Vec<FetchedState>,
    /// An op held back by an I-cache miss or an unverified return.
    pub pending: Option<MicroOp>,
    /// Current absolute cycle.
    pub now: u64,
    /// Next fetch sequence number.
    pub seq_next: u64,
    /// Total instructions committed since construction.
    pub committed: u64,
    /// Cycle of the most recent commit (livelock backstop).
    pub last_commit_cycle: u64,
    /// Absolute cycle at which fetch may resume.
    pub fetch_resume_at: u64,
    /// Sequence number of an unresolved mispredicted branch, if any.
    pub blocking_branch: Option<u64>,
    /// A fetched return awaiting RAS verification: `(seq, predicted pc)`.
    pub return_check: Option<(u64, u64)>,
    /// I-cache line of the most recent fetch.
    pub cur_fetch_line: u64,
    /// Per-integer-unit busy-until cycles.
    pub int_free: Vec<u64>,
    /// Per-FP-unit busy-until cycles.
    pub fp_free: Vec<u64>,
    /// Per-address-generation-unit busy-until cycles.
    pub agen_free: Vec<u64>,
}

/// Number of cycles without a commit after which the simulator declares a
/// livelock and panics (a correctness backstop; a healthy configuration
/// never goes near this).
const LIVELOCK_LIMIT: u64 = 500_000;

/// Largest counter or clock value a restored checkpoint may carry: half
/// the `u64` range, so no cycle, sequence or reference count can overflow
/// in any run a checkpoint resumes.
pub(crate) const COUNTER_LIMIT: u64 = u64::MAX >> 1;

/// The out-of-order processor: configuration + instruction source +
/// microarchitectural state.
///
/// # Examples
///
/// ```
/// use sim_cpu::{CoreConfig, Processor};
/// use workload::{App, SyntheticStream};
///
/// let source = SyntheticStream::new(App::Gzip.profile(), 1);
/// let mut cpu = Processor::new(CoreConfig::base(), source)?;
/// let stats = cpu.run_instructions(10_000);
/// assert!(stats.ipc() > 0.1);
/// # Ok::<(), sim_common::SimError>(())
/// ```
#[derive(Debug)]
pub struct Processor<S> {
    config: CoreConfig,
    source: S,
    rename: Rename,
    bpred: Bpred,
    mem: MemHierarchy,

    window: Window,
    fetch_queue: VecDeque<Fetched>,
    pending: Option<MicroOp>,

    now: u64,
    seq_next: u64,
    committed: u64,
    last_commit_cycle: u64,

    fetch_resume_at: u64,
    blocking_branch: Option<u64>,
    /// A fetched return whose RAS-predicted target must match the next
    /// fetched op's PC: `(sequence number, predicted target)`.
    return_check: Option<(u64, u64)>,
    cur_fetch_line: u64,
    line_shift: u32,

    int_free: Vec<u64>,
    fp_free: Vec<u64>,
    agen_free: Vec<u64>,

    mem_in_window: u32,
    store_addrs: StoreWords,

    /// Head of each completion bucket's list of issued slots (bucket
    /// `ready_cycle % BUCKETS`), or `NO_SLOT`.
    done_heads: Vec<u64>,
    /// Scratch: the sequence numbers completing this cycle.
    due: Vec<u64>,
    /// Waiting slots whose sources are all ready, ascending by `seq`.
    ready: Vec<u64>,
    /// Head of each physical register's wakeup list (integer file, then
    /// FP), or `NO_SLOT`.
    wakeup_heads: Vec<u64>,

    counters: ActivityCounters,
    interval_start_cycle: u64,
    interval_start_committed: u64,
    commit_target: u64,
}

impl<S: InstructionSource> Processor<S> {
    /// Creates a processor over `source`.
    ///
    /// # Errors
    ///
    /// Returns [`sim_common::SimError::InvalidConfig`] when the
    /// configuration fails [`CoreConfig::validate`].
    pub fn new(config: CoreConfig, source: S) -> Result<Processor<S>, sim_common::SimError> {
        config.validate()?;
        let latencies = MemLatencies {
            l1_hit: config.l1_hit_cycles,
            l2_hit: config.l2_hit_cycles(),
            memory: config.mem_cycles(),
        };
        Ok(Processor {
            rename: Rename::new(config.int_regs, config.fp_regs),
            bpred: Bpred::new(config.bpred),
            mem: {
                let mut mem =
                    MemHierarchy::new(config.l1i, config.l1d, config.l2, latencies, config.mshrs)?;
                mem.set_prefetch_next_line(config.prefetch_next_line);
                mem
            },
            window: Window::new(config.window_size),
            fetch_queue: VecDeque::with_capacity(config.fetch_queue_capacity() as usize),
            pending: None,
            now: 0,
            seq_next: 0,
            committed: 0,
            last_commit_cycle: 0,
            fetch_resume_at: 0,
            blocking_branch: None,
            return_check: None,
            cur_fetch_line: u64::MAX,
            line_shift: config.l1i.line_bytes.trailing_zeros(),
            int_free: vec![0; config.int_alus as usize],
            fp_free: vec![0; config.fpus as usize],
            agen_free: vec![0; config.addr_gens as usize],
            mem_in_window: 0,
            store_addrs: StoreWords::with_capacity(config.mem_queue),
            done_heads: vec![NO_SLOT; BUCKETS as usize],
            due: Vec::with_capacity(config.window_size as usize),
            ready: Vec::with_capacity(config.window_size as usize),
            wakeup_heads: vec![NO_SLOT; (config.int_regs + config.fp_regs) as usize],
            counters: ActivityCounters::default(),
            interval_start_cycle: 0,
            interval_start_committed: 0,
            commit_target: u64::MAX,
            config,
            source,
        })
    }

    /// The processor configuration.
    pub fn config(&self) -> &CoreConfig {
        &self.config
    }

    /// The instruction source.
    pub fn source(&self) -> &S {
        &self.source
    }

    /// Total instructions committed since construction.
    pub fn committed(&self) -> u64 {
        self.committed
    }

    /// Current cycle.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Changes the clock frequency and supply voltage at runtime (a DVS
    /// transition). Microarchitectural state (caches, predictor, window)
    /// is preserved; off-chip latencies are re-derived in cycles for the
    /// new clock.
    ///
    /// # Errors
    ///
    /// Returns [`sim_common::SimError::InvalidConfig`] when the new
    /// frequency or voltage is not positive.
    pub fn set_dvs(
        &mut self,
        frequency: sim_common::Hertz,
        vdd: sim_common::Volts,
    ) -> Result<(), sim_common::SimError> {
        let mut config = self.config.clone();
        config.frequency = frequency;
        config.vdd = vdd;
        config.validate()?;
        self.mem.set_latencies(MemLatencies {
            l1_hit: config.l1_hit_cycles,
            l2_hit: config.l2_hit_cycles(),
            memory: config.mem_cycles(),
        });
        self.config = config;
        Ok(())
    }

    /// Pre-warms the data caches over `[base, base + bytes)` and the
    /// instruction caches over `[code_base, code_base + code_bytes)`
    /// (see [`MemHierarchy::prewarm`]).
    ///
    /// Short simulations cannot amortize the compulsory misses of a
    /// multi-megabyte footprint the way the paper's 500-million-instruction
    /// runs do; prefilling starts measurement from the warmed steady state.
    /// The data range is filled from the top down, so its lowest addresses
    /// (the hot/mid regions at the bottom of the data segment) are most
    /// recently used and survive in the capacity-limited levels.
    /// Statistics perturbed by prefilling are cleared.
    ///
    /// # Panics
    ///
    /// Panics unless the processor is fresh: prewarm comes right after
    /// [`Processor::new`].
    pub fn prewarm(&mut self, base: u64, bytes: u64, code_base: u64, code_bytes: u64) {
        self.mem.prewarm(base, bytes, code_base, code_bytes);
    }

    /// Runs until `instructions` more instructions have committed and
    /// returns the statistics for exactly that interval.
    ///
    /// # Panics
    ///
    /// Panics if the pipeline livelocks (no commit for an implausibly long
    /// time) — this indicates a simulator bug, not a user error.
    pub fn run_instructions(&mut self, instructions: u64) -> IntervalStats {
        let target = self.committed + instructions;
        // Cap commit at the interval boundary so intervals partition the
        // instruction stream exactly (the paper samples at fixed
        // granularity, §3.6).
        self.commit_target = target;
        while self.committed < target {
            self.step();
        }
        self.commit_target = u64::MAX;
        self.take_interval()
    }

    /// Runs `total` instructions split into intervals of `interval`
    /// instructions (the paper samples temperature and reliability at fixed
    /// intervals, §3.6), returning per-interval statistics.
    pub fn run(&mut self, total: u64, interval: u64) -> RunStats {
        assert!(interval > 0, "interval must be non-zero");
        let mut intervals = Vec::with_capacity((total / interval + 1) as usize);
        let mut remaining = total;
        while remaining > 0 {
            let n = remaining.min(interval);
            intervals.push(self.run_instructions(n));
            remaining -= n;
        }
        RunStats::new(intervals)
    }

    /// Advances the pipeline one cycle.
    pub fn step(&mut self) {
        self.complete();
        self.commit();
        self.issue();
        self.dispatch();
        self.fetch();
        self.now += 1;
        assert!(
            self.now - self.last_commit_cycle < LIVELOCK_LIMIT,
            "pipeline livelock at cycle {}: window {:?} head, {} in flight",
            self.now,
            self.window.front().map(|s| (s.op.class, s.state)),
            self.window.len(),
        );
    }

    fn complete(&mut self) {
        let now = self.now;
        let bucket = (now % BUCKETS) as usize;
        let mut seq = std::mem::replace(&mut self.done_heads[bucket], NO_SLOT);
        while seq != NO_SLOT {
            let slot = self.window.slot_mut(seq);
            let next = slot.next_done;
            if slot.ready_cycle <= now {
                self.due.push(seq);
            } else {
                // Due a lap or more from now: stays in this bucket.
                slot.next_done = std::mem::replace(&mut self.done_heads[bucket], seq);
            }
            seq = next;
        }
        // Program order, also for restored slots already past due.
        self.due.sort_unstable();
        let mut resolved_blocker = false;
        for k in 0..self.due.len() {
            let seq = self.due[k];
            let slot = self.window.slot_mut(seq);
            slot.state = SlotState::Done;
            let (dest, op) = (slot.dest, slot.op);
            if let Some(dest) = dest {
                self.rename.set_ready(dest);
                self.counters.window_wakeups += 1;
                self.wake(dest);
            }
            if op.class == OpClass::Branch {
                self.bpred.update(op.pc, op.taken);
            }
            if self.blocking_branch == Some(seq) {
                resolved_blocker = true;
            }
        }
        self.due.clear();
        if resolved_blocker {
            self.blocking_branch = None;
            self.fetch_resume_at = self
                .fetch_resume_at
                .max(now + self.config.mispredict_redirect as u64);
        }
    }

    /// Makes issued slot `seq` the head of the completion bucket of
    /// cycle `at` and returns the previous head, the slot's `next_done`.
    fn push_done(&mut self, at: u64, seq: u64) -> u64 {
        std::mem::replace(&mut self.done_heads[(at % BUCKETS) as usize], seq)
    }

    fn wakeup_head(&mut self, reg: PhysReg) -> &mut u64 {
        let base = match reg.class {
            RegClass::Int => 0,
            RegClass::Fp => self.config.int_regs as usize,
        };
        &mut self.wakeup_heads[base + reg.index as usize]
    }

    /// Writeback of `reg`: every slot on its wakeup list has one fewer
    /// source to wait for, and joins the ready set at zero.
    fn wake(&mut self, reg: PhysReg) {
        let mut seq = std::mem::replace(self.wakeup_head(reg), NO_SLOT);
        while seq != NO_SLOT {
            let slot = self.window.slot_mut(seq);
            let k = usize::from(slot.srcs[0] != Some(reg));
            let next = slot.next_waiter[k];
            slot.unready_srcs -= 1;
            if slot.unready_srcs == 0 {
                let at = self.ready.partition_point(|&s| s < seq);
                self.ready.insert(at, seq);
            }
            seq = next;
        }
    }

    /// Appends `slot` to the window. A waiting slot links onto the wakeup
    /// list of each distinct source that is not ready, or joins the ready
    /// set (as the youngest slot, at its end) when there is none; an
    /// issued one joins its completion bucket.
    fn push_slot(&mut self, mut slot: Slot) {
        match slot.state {
            SlotState::Waiting => {
                for k in 0..2 {
                    let Some(src) = slot.srcs[k] else { continue };
                    if (k == 1 && slot.srcs[0] == Some(src)) || self.rename.is_ready(src) {
                        continue;
                    }
                    let head = self.wakeup_head(src);
                    slot.next_waiter[k] = std::mem::replace(head, slot.seq);
                    slot.unready_srcs += 1;
                }
                if slot.unready_srcs == 0 {
                    self.ready.push(slot.seq);
                }
            }
            // A restored slot already past due completes this cycle.
            SlotState::Issued => {
                slot.next_done = self.push_done(slot.ready_cycle.max(self.now), slot.seq);
            }
            SlotState::Done => {}
        }
        self.window.push_back(slot);
    }

    fn commit(&mut self) {
        match self.window.front() {
            None => self.counters.cycles_window_empty += 1,
            Some(head) if head.state != SlotState::Done => {
                if head.op.class.is_mem() && head.state == SlotState::Issued {
                    self.counters.cycles_head_mem += 1;
                } else {
                    self.counters.cycles_head_exec += 1;
                }
            }
            Some(_) => {}
        }
        let mut retired = 0;
        while retired < self.config.retire_width && self.committed < self.commit_target {
            let slot = match self.window.front() {
                Some(slot) if slot.state == SlotState::Done => slot,
                _ => break,
            };
            let (op, old_dest) = (slot.op, slot.old_dest);
            self.window.pop_front();
            if let Some(old) = old_dest {
                self.rename.release(old);
            }
            if op.class.is_mem() {
                self.mem_in_window -= 1;
                if op.class == OpClass::Store {
                    if let Some(addr) = op.addr {
                        self.store_addrs.retire(addr >> 3);
                    }
                }
            }
            self.counters.class_commits[op.class.index()] += 1;
            self.committed += 1;
            retired += 1;
        }
        if retired > 0 {
            self.last_commit_cycle = self.now;
        }
    }

    fn take_unit(units: &mut [u64], now: u64, busy_until: u64) -> bool {
        if let Some(u) = units.iter_mut().find(|u| **u <= now) {
            *u = busy_until;
            true
        } else {
            false
        }
    }

    fn issue(&mut self) {
        let mut dcache_used = 0u32;
        let mut ready = std::mem::take(&mut self.ready);
        ready.retain(|&seq| !self.try_issue(seq, &mut dcache_used));
        self.ready = ready;
    }

    /// Issues the ready slot `seq` when its functional unit (and, for
    /// memory ops, a cache port and an MSHR) is free this cycle.
    fn try_issue(&mut self, seq: u64, dcache_used: &mut u32) -> bool {
        let now = self.now;
        let l1_hit = self.config.l1_hit_cycles as u64;
        let (class, addr) = {
            let op = &self.window.slot(seq).op;
            (op.class, op.addr)
        };
        match class {
            OpClass::IntAlu
            | OpClass::IntMul
            | OpClass::IntDiv
            | OpClass::Branch
            | OpClass::Call
            | OpClass::Return => {
                let latency = class.latency() as u64;
                let occupancy = if class.is_unpipelined() { latency } else { 1 };
                if !Self::take_unit(&mut self.int_free, now, now + occupancy) {
                    return false;
                }
                self.start_execution(seq, now + latency);
                self.counters.int_busy += occupancy;
            }
            OpClass::FpAdd | OpClass::FpMul | OpClass::FpDiv => {
                let latency = class.latency() as u64;
                let occupancy = if class.is_unpipelined() { latency } else { 1 };
                if !Self::take_unit(&mut self.fp_free, now, now + occupancy) {
                    return false;
                }
                self.start_execution(seq, now + latency);
                self.counters.fp_busy += occupancy;
            }
            OpClass::Load => {
                // Store addresses are published at dispatch (perfect
                // disambiguation — the trace knows every address), so a
                // load is never conservatively blocked; it either
                // forwards from the memory queue or accesses the cache.
                if *dcache_used >= self.config.l1d_ports
                    || !self.agen_free.iter().any(|&u| u <= now)
                {
                    return false;
                }
                let addr = addr.expect("loads carry addresses");
                self.counters.lsq_searches += 1;
                if self.store_addr_is_older(seq, addr) {
                    // Store-to-load forwarding: value comes from the
                    // memory queue, no cache access.
                    Self::take_unit(&mut self.agen_free, now, now + 1);
                    self.counters.agen_busy += 1;
                    self.counters.forwards += 1;
                    self.start_execution(seq, now + 1 + l1_hit);
                } else {
                    match self.mem.access_data(now + 1, addr, false) {
                        DataAccess::Ready { ready } => {
                            Self::take_unit(&mut self.agen_free, now, now + 1);
                            self.counters.agen_busy += 1;
                            *dcache_used += 1;
                            self.start_execution(seq, ready);
                        }
                        DataAccess::Retry => return false, // all MSHRs busy
                    }
                }
            }
            OpClass::Store => {
                if *dcache_used >= self.config.l1d_ports
                    || !self.agen_free.iter().any(|&u| u <= now)
                {
                    return false;
                }
                let addr = addr.expect("stores carry addresses");
                match self.mem.access_data(now + 1, addr, true) {
                    DataAccess::Ready { .. } => {
                        Self::take_unit(&mut self.agen_free, now, now + 1);
                        self.counters.agen_busy += 1;
                        *dcache_used += 1;
                        self.counters.lsq_searches += 1;
                        // The store retires from the pipeline's point of
                        // view once its address and data are delivered to
                        // the memory queue.
                        self.start_execution(seq, now + 1);
                    }
                    DataAccess::Retry => return false,
                }
            }
        }
        true
    }

    /// True when a store older than the load `load_seq` targets the same
    /// 8-byte word (store-to-load forwarding hit).
    fn store_addr_is_older(&self, load_seq: u64, addr: u64) -> bool {
        if !self.store_addrs.contains(addr >> 3) {
            return false;
        }
        (self.window.head..load_seq).any(|seq| {
            let op = &self.window.slot(seq).op;
            op.class == OpClass::Store && op.addr.is_some_and(|a| a >> 3 == addr >> 3)
        })
    }

    /// Issues slot `seq`, whose result arrives at `ready_cycle` (always
    /// after the current cycle).
    fn start_execution(&mut self, seq: u64, ready_cycle: u64) {
        let next_done = self.push_done(ready_cycle, seq);
        let slot = self.window.slot_mut(seq);
        slot.state = SlotState::Issued;
        slot.ready_cycle = ready_cycle;
        slot.next_done = next_done;
        let srcs = slot.srcs;
        for src in srcs.iter().flatten() {
            self.rename.count_read(src.class);
        }
        self.counters.window_issues += 1;
    }

    fn dispatch(&mut self) {
        let mut budget = self.config.fetch_width;
        while budget > 0 {
            let front = match self.fetch_queue.front() {
                Some(f) if f.dispatch_at <= self.now => f,
                _ => break,
            };
            if self.window.len() >= self.config.window_size as usize {
                break;
            }
            if front.op.class.is_mem() && self.mem_in_window >= self.config.mem_queue {
                break;
            }
            if let Some(dest) = front.op.dest {
                if self.rename.free_count(dest.class()) == 0 {
                    break;
                }
            }
            let f = self.fetch_queue.pop_front().expect("checked non-empty");
            let srcs = {
                let mut srcs = [None, None];
                for (i, src) in f.op.srcs.iter().enumerate() {
                    srcs[i] = src.map(|a| self.rename.rename_src(a));
                }
                srcs
            };
            let (dest, old_dest) = match f.op.dest {
                Some(arch) => {
                    let (new, old) = self
                        .rename
                        .alloc_dest(arch)
                        .expect("free count checked above");
                    (Some(new), Some(old))
                }
                None => (None, None),
            };
            if f.op.class.is_mem() {
                self.mem_in_window += 1;
                self.counters.lsq_inserts += 1;
                if f.op.class == OpClass::Store {
                    // Publish the store address for disambiguation as soon
                    // as the store enters the memory queue.
                    if let Some(addr) = f.op.addr {
                        self.store_addrs.publish(addr >> 3);
                    }
                }
            }
            self.push_slot(Slot {
                seq: f.seq,
                op: f.op,
                dest,
                old_dest,
                srcs,
                state: SlotState::Waiting,
                ready_cycle: 0,
                unready_srcs: 0,
                next_waiter: [NO_SLOT; 2],
                next_done: NO_SLOT,
            });
            self.counters.window_writes += 1;
            budget -= 1;
        }
    }

    fn fetch(&mut self) {
        if self.now < self.fetch_resume_at || self.blocking_branch.is_some() {
            self.counters.cycles_fetch_stalled += 1;
            return;
        }
        let cap = self.config.fetch_queue_capacity() as usize;
        let mut budget = self.config.fetch_width;
        while budget > 0 && self.fetch_queue.len() < cap {
            let op = match self.pending.take() {
                Some(op) => op,
                None => self.source.next_op(),
            };
            // Verify the previous return's RAS prediction against the PC
            // that actually follows it.
            if let Some((ret_seq, predicted)) = self.return_check.take() {
                if op.pc != predicted {
                    self.bpred.count_ras_mispredict();
                    self.blocking_branch = Some(ret_seq);
                    self.pending = Some(op);
                    self.counters.cycles_fetch_stalled += 1;
                    return;
                }
            }
            let line = op.pc >> self.line_shift;
            if line != self.cur_fetch_line {
                let ready = self.mem.access_inst(self.now, op.pc);
                self.cur_fetch_line = line;
                if ready > self.now {
                    // I-cache miss: hold the op and stall fetch until fill.
                    self.fetch_resume_at = ready;
                    self.pending = Some(op);
                    return;
                }
            }
            let seq = self.seq_next;
            self.seq_next += 1;
            let mut stop = false;
            match op.class {
                OpClass::Branch => {
                    let predicted = self.bpred.predict(op.pc);
                    if predicted != op.taken {
                        self.blocking_branch = Some(seq);
                        stop = true;
                    } else if op.taken {
                        // One taken branch per fetch cycle.
                        stop = true;
                    }
                }
                OpClass::Call => {
                    // Calls are unconditional with a statically known
                    // target: push the fall-through address for the
                    // matching return and end the fetch block.
                    self.bpred.ras_push(op.pc + 4);
                    stop = true;
                }
                OpClass::Return => {
                    match self.bpred.ras_pop() {
                        Some(predicted) if op.taken => {
                            // Check the prediction against the next
                            // fetched PC.
                            self.return_check = Some((seq, predicted));
                        }
                        _ => {
                            // Underflow, or a fall-through return (the
                            // workload's call stack was empty): no usable
                            // prediction — stall until the return resolves.
                            self.bpred.count_ras_mispredict();
                            self.blocking_branch = Some(seq);
                        }
                    }
                    stop = true;
                }
                _ => {}
            }
            self.fetch_queue.push_back(Fetched {
                seq,
                op,
                dispatch_at: self.now + self.config.frontend_latency as u64,
            });
            self.counters.fetched += 1;
            budget -= 1;
            if stop {
                break;
            }
        }
    }

    /// Captures the complete warm state for a slice checkpoint.
    ///
    /// # Panics
    ///
    /// Panics unless the processor sits exactly at an interval boundary
    /// (immediately after [`Processor::run_instructions`] /
    /// [`Processor::take_interval`], before any further stepping), which
    /// guarantees every statistic is zero and nothing is lost at the cut.
    #[must_use]
    pub fn state(&self) -> PipelineState {
        assert!(
            self.now == self.interval_start_cycle
                && self.committed == self.interval_start_committed,
            "pipeline state must be captured at an interval boundary"
        );
        PipelineState {
            rename: self.rename.state(),
            bpred: self.bpred.state(),
            mem: self.mem.state(),
            window: (self.window.seqs())
                .map(|seq| self.window.slot(seq))
                .map(|s| WindowSlotState {
                    seq: s.seq,
                    op: s.op,
                    dest: s.dest,
                    old_dest: s.old_dest,
                    srcs: s.srcs,
                    phase: match s.state {
                        SlotState::Waiting => ExecPhase::Waiting,
                        SlotState::Issued => ExecPhase::Issued,
                        SlotState::Done => ExecPhase::Done,
                    },
                    ready_cycle: s.ready_cycle,
                })
                .collect(),
            fetch_queue: self
                .fetch_queue
                .iter()
                .map(|f| FetchedState {
                    seq: f.seq,
                    op: f.op,
                    dispatch_at: f.dispatch_at,
                })
                .collect(),
            pending: self.pending,
            now: self.now,
            seq_next: self.seq_next,
            committed: self.committed,
            last_commit_cycle: self.last_commit_cycle,
            fetch_resume_at: self.fetch_resume_at,
            blocking_branch: self.blocking_branch,
            return_check: self.return_check,
            cur_fetch_line: self.cur_fetch_line,
            int_free: self.int_free.clone(),
            fp_free: self.fp_free.clone(),
            agen_free: self.agen_free.clone(),
        }
    }

    /// Restores a captured [`PipelineState`], resuming the simulation bit
    /// for bit from the cut point. The instruction source must already have
    /// been restored to the matching point (it is handed to
    /// [`Processor::new`], which this call follows).
    ///
    /// Derived occupancy tracking (memory-queue count, published store
    /// addresses) is recomputed from the restored window rather than
    /// serialized. Statistics restart from zero, exactly as they stood at
    /// the cut.
    ///
    /// # Errors
    ///
    /// Returns [`sim_common::SimError::InvalidConfig`] when the state does
    /// not fit this processor's configuration (structure sizes,
    /// functional-unit counts) — checkpoints are only valid for the exact
    /// timing configuration that produced them — or when it breaks
    /// causality: a commit after `now`, an event scheduled more than the
    /// livelock limit past `now`, or a counter above `u64::MAX >> 1` —
    /// or when a window entry names a physical register outside its file,
    /// or the window and fetch-queue sequence numbers do not count up
    /// consecutively to `seq_next`. A failed restore leaves the processor
    /// unusable.
    pub fn restore_state(&mut self, state: &PipelineState) -> Result<(), sim_common::SimError> {
        let horizon = state.now.saturating_add(LIVELOCK_LIMIT);
        let mut events = (state.window.iter().map(|s| s.ready_cycle))
            .chain(state.fetch_queue.iter().map(|f| f.dispatch_at))
            .chain(state.mem.mshrs.iter().map(|m| m.ready))
            .chain([state.fetch_resume_at])
            .chain(state.int_free.iter().copied())
            .chain(state.fp_free.iter().copied())
            .chain(state.agen_free.iter().copied());
        let phys_in_range = |p: &PhysReg| match p.class {
            RegClass::Int => u32::from(p.index) < self.config.int_regs,
            RegClass::Fp => u32::from(p.index) < self.config.fp_regs,
        };
        // Window and fetch queue hold consecutive sequence numbers that
        // end just below `seq_next`; the window is indexed by them.
        let mut seqs = (state.window.iter().map(|s| s.seq))
            .chain(state.fetch_queue.iter().map(|f| f.seq))
            .chain([state.seq_next]);
        let first = seqs.next().unwrap_or(0);
        let consecutive = seqs
            .try_fold(first, |prev, seq| {
                (prev.checked_add(1) == Some(seq)).then_some(seq)
            })
            .is_some();
        let problem = if state.window.len() > self.config.window_size as usize {
            Some("window larger than configured")
        } else if state.int_free.len() != self.int_free.len() {
            Some("integer unit count mismatch")
        } else if state.fp_free.len() != self.fp_free.len() {
            Some("FP unit count mismatch")
        } else if state.agen_free.len() != self.agen_free.len() {
            Some("address-generation unit count mismatch")
        } else if [state.now, state.seq_next, state.committed]
            .iter()
            .any(|&c| c > COUNTER_LIMIT)
        {
            Some("pipeline counter out of range")
        } else if state.last_commit_cycle > state.now {
            Some("last commit is after the current cycle")
        } else if events.any(|at| at > horizon) {
            Some("event scheduled beyond the livelock limit")
        } else if !(state.window.iter())
            .flat_map(|s| [s.dest, s.old_dest, s.srcs[0], s.srcs[1]])
            .flatten()
            .all(|p| phys_in_range(&p))
        {
            Some("physical register out of range")
        } else if !consecutive {
            Some("in-flight sequence numbers are not consecutive")
        } else {
            None
        };
        if let Some(problem) = problem {
            return Err(sim_common::SimError::invalid_config(problem));
        }
        self.rename.restore_state(&state.rename)?;
        self.bpred.restore_state(&state.bpred)?;
        self.mem.restore_state(&state.mem)?;
        // The completion buckets, wakeup lists and ready set are a
        // function of the window and the restored ready bits; slots already
        // past due complete on the first cycle.
        self.now = state.now;
        self.window.reset(first);
        self.done_heads.fill(NO_SLOT);
        self.ready.clear();
        self.wakeup_heads.fill(NO_SLOT);
        for s in &state.window {
            self.push_slot(Slot {
                seq: s.seq,
                op: s.op,
                dest: s.dest,
                old_dest: s.old_dest,
                srcs: s.srcs,
                state: match s.phase {
                    ExecPhase::Waiting => SlotState::Waiting,
                    ExecPhase::Issued => SlotState::Issued,
                    ExecPhase::Done => SlotState::Done,
                },
                ready_cycle: s.ready_cycle,
                unready_srcs: 0,
                next_waiter: [NO_SLOT; 2],
                next_done: NO_SLOT,
            });
        }
        self.fetch_queue.clear();
        self.fetch_queue
            .extend(state.fetch_queue.iter().map(|f| Fetched {
                seq: f.seq,
                op: f.op,
                dispatch_at: f.dispatch_at,
            }));
        self.pending = state.pending;
        self.seq_next = state.seq_next;
        self.committed = state.committed;
        self.last_commit_cycle = state.last_commit_cycle;
        self.fetch_resume_at = state.fetch_resume_at;
        self.blocking_branch = state.blocking_branch;
        self.return_check = state.return_check;
        self.cur_fetch_line = state.cur_fetch_line;
        self.int_free.copy_from_slice(&state.int_free);
        self.fp_free.copy_from_slice(&state.fp_free);
        self.agen_free.copy_from_slice(&state.agen_free);
        // Memory-queue occupancy and the published store addresses are a
        // function of the window contents.
        self.mem_in_window = state.window.iter().filter(|s| s.op.class.is_mem()).count() as u32;
        self.store_addrs.0.clear();
        for slot in &state.window {
            if slot.op.class == OpClass::Store {
                if let Some(addr) = slot.op.addr {
                    self.store_addrs.publish(addr >> 3);
                }
            }
        }
        // The cut sits at an interval boundary: statistics restart at zero.
        self.counters = ActivityCounters::default();
        let _ = self.bpred.take_stats();
        let _ = self.mem.l1i.take_stats();
        let _ = self.mem.l1d.take_stats();
        let _ = self.mem.l2.take_stats();
        let _ = self.rename.take_stats();
        self.interval_start_cycle = state.now;
        self.interval_start_committed = state.committed;
        self.commit_target = u64::MAX;
        Ok(())
    }

    /// Collects and resets the statistics accumulated since the previous
    /// interval boundary.
    pub fn take_interval(&mut self) -> IntervalStats {
        let cycles = self.now - self.interval_start_cycle;
        let instructions = self.committed - self.interval_start_committed;
        self.interval_start_cycle = self.now;
        self.interval_start_committed = self.committed;

        let counters = std::mem::take(&mut self.counters);
        let bpred = self.bpred.take_stats();
        let l1i = self.mem.l1i.take_stats();
        let l1d = self.mem.l1d.take_stats();
        let l2 = self.mem.l2.take_stats();
        let (int_rf, fp_rf) = self.rename.take_stats();

        let stats = IntervalStats::from_counters(
            &self.config,
            cycles,
            instructions,
            counters,
            bpred,
            l1i,
            l1d,
            l2,
            int_rf,
            fp_rf,
        );
        if sim_obs::enabled() {
            // Per-epoch IPC distribution plus the commit-stall breakdown
            // (cycles the window head could not retire, by cause).
            sim_obs::counter!("cpu.intervals", 1);
            sim_obs::counter!("cpu.cycles", stats.cycles);
            sim_obs::counter!("cpu.instructions", stats.instructions);
            sim_obs::hist!("cpu.interval.ipc", stats.ipc());
            sim_obs::counter!("cpu.stall.window_empty", stats.counters.cycles_window_empty);
            sim_obs::counter!("cpu.stall.head_mem", stats.counters.cycles_head_mem);
            sim_obs::counter!("cpu.stall.head_exec", stats.counters.cycles_head_exec);
            sim_obs::counter!("cpu.stall.fetch", stats.counters.cycles_fetch_stalled);
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_common::Structure;
    use workload::{App, SyntheticStream};

    fn processor(app: App, config: CoreConfig) -> Processor<SyntheticStream> {
        Processor::new(config, SyntheticStream::new(app.profile(), 12345)).unwrap()
    }

    #[test]
    fn commits_requested_instructions() {
        let mut cpu = processor(App::Gzip, CoreConfig::base());
        let stats = cpu.run_instructions(20_000);
        assert_eq!(stats.instructions, 20_000);
        assert!(stats.cycles > 0);
        assert_eq!(cpu.committed(), 20_000);
    }

    #[test]
    fn ipc_is_within_physical_bounds() {
        for app in [App::MpgDec, App::Twolf, App::Art] {
            let mut cpu = processor(app, CoreConfig::base());
            let stats = cpu.run_instructions(50_000);
            let ipc = stats.ipc();
            assert!(ipc > 0.05, "{app:?}: ipc {ipc} too low");
            assert!(ipc <= 8.0, "{app:?}: ipc {ipc} exceeds fetch width");
        }
    }

    #[test]
    fn high_ilp_app_beats_memory_bound_app() {
        let mut fast = processor(App::MpgDec, CoreConfig::base());
        let mut slow = processor(App::Art, CoreConfig::base());
        // Warm up caches/predictor, then measure.
        fast.run_instructions(50_000);
        slow.run_instructions(50_000);
        let f = fast.run_instructions(100_000).ipc();
        let s = slow.run_instructions(100_000).ipc();
        assert!(
            f > 1.5 * s,
            "MPGdec ({f:.2}) should far outrun art ({s:.2})"
        );
    }

    #[test]
    fn smaller_window_reduces_ipc() {
        let base = CoreConfig::base();
        let small = base.with_adaptation(16, 2, 1).unwrap();
        let mut big = processor(App::MpgDec, base);
        let mut tiny = processor(App::MpgDec, small);
        big.run_instructions(30_000);
        tiny.run_instructions(30_000);
        let b = big.run_instructions(60_000).ipc();
        let t = tiny.run_instructions(60_000).ipc();
        assert!(
            b > t,
            "128-entry window ({b:.2}) must beat 16-entry ({t:.2})"
        );
    }

    #[test]
    fn activities_are_normalized() {
        let mut cpu = processor(App::Equake, CoreConfig::base());
        cpu.prewarm(0x1000_0000, 2 * 1024 * 1024, 0, 24 * 1024);
        let stats = cpu.run_instructions(30_000);
        for (s, &a) in stats.activity.iter() {
            assert!((0.0..=1.0).contains(&a), "{s}: activity {a} out of range");
        }
        // An FP application must exercise the FPU.
        assert!(stats.activity[Structure::Fpu] > 0.01);
        assert!(stats.activity[Structure::IntAlu] > 0.05);
    }

    #[test]
    fn integer_app_leaves_fpu_nearly_idle() {
        let mut cpu = processor(App::Bzip2, CoreConfig::base());
        let stats = cpu.run_instructions(30_000);
        assert!(
            stats.activity[Structure::Fpu] < 0.02,
            "bzip2 fpu activity {}",
            stats.activity[Structure::Fpu]
        );
    }

    #[test]
    fn interval_stats_partition_the_run() {
        let mut cpu = processor(App::Ammp, CoreConfig::base());
        let run = cpu.run(40_000, 10_000);
        assert_eq!(run.intervals().len(), 4);
        let total: u64 = run.intervals().iter().map(|i| i.instructions).sum();
        assert_eq!(total, 40_000);
        assert_eq!(cpu.committed(), 40_000);
    }

    #[test]
    fn branch_predictor_learns_the_stream() {
        let mut cpu = processor(App::MpgDec, CoreConfig::base());
        cpu.run_instructions(50_000); // training
        let stats = cpu.run_instructions(100_000);
        let rate = stats.bpred.mispredict_rate();
        assert!(
            rate < 0.12,
            "MPGdec (noise 0.03) mispredict rate {rate:.3} too high"
        );
    }

    #[test]
    fn memory_bound_app_misses_in_l2() {
        let mut cpu = processor(App::Art, CoreConfig::base());
        cpu.run_instructions(50_000);
        let stats = cpu.run_instructions(100_000);
        assert!(
            stats.l2.miss_rate() > 0.2,
            "art L2 miss rate {:.3} suspiciously low",
            stats.l2.miss_rate()
        );
        assert!(stats.l1d.miss_rate() > 0.02);
    }

    #[test]
    fn cacheable_app_hits_in_l1() {
        let mut cpu = processor(App::Mp3Dec, CoreConfig::base());
        cpu.run_instructions(50_000);
        let stats = cpu.run_instructions(100_000);
        assert!(
            stats.l1d.miss_rate() < 0.05,
            "MP3dec L1D miss rate {:.3} too high for a 160 KiB working set",
            stats.l1d.miss_rate()
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let mut a = processor(App::Twolf, CoreConfig::base());
        let mut b = processor(App::Twolf, CoreConfig::base());
        let sa = a.run_instructions(30_000);
        let sb = b.run_instructions(30_000);
        assert_eq!(sa.cycles, sb.cycles);
        assert_eq!(sa.bpred, sb.bpred);
        assert_eq!(sa.l1d, sb.l1d);
    }

    /// Every app's cut holds waiting slots with unready sources, so the
    /// restore-time rebuild of the completion buckets, wakeup lists and
    /// ready set is exercised on each.
    #[test]
    fn state_round_trip_resumes_bit_for_bit() {
        for app in App::ALL {
            let mut cpu = processor(app, CoreConfig::base());
            cpu.prewarm(0x1000_0000, 512 * 1024, 0, 24 * 1024);
            cpu.run_instructions(20_000);
            let cut = cpu.state();
            let stream =
                SyntheticStream::restore(app.profile(), 12345, &cpu.source().state()).unwrap();
            let mut resumed = Processor::new(CoreConfig::base(), stream).unwrap();
            resumed.restore_state(&cut).unwrap();
            assert_eq!(resumed.state(), cut, "{app:?}: capture is idempotent");
            for _ in 0..3 {
                let a = cpu.run_instructions(10_000);
                let b = resumed.run_instructions(10_000);
                assert_eq!(a, b, "{app:?}: restored pipeline must replay identically");
            }
            assert_eq!(resumed.now(), cpu.now());
            assert_eq!(resumed.committed(), cpu.committed());
        }
    }

    #[test]
    #[should_panic(expected = "interval boundary")]
    fn state_capture_mid_interval_is_rejected() {
        let mut cpu = processor(App::Gzip, CoreConfig::base());
        cpu.run_instructions(1_000);
        cpu.step();
        let _ = cpu.state();
    }

    #[test]
    fn restore_rejects_mismatched_configuration() {
        let mut cpu = processor(App::Gzip, CoreConfig::base());
        cpu.run_instructions(1_000);
        let cut = cpu.state();
        // Same window size, fewer integer units.
        let small = CoreConfig::base().with_adaptation(128, 2, 1).unwrap();
        let mut other = processor(App::Gzip, small);
        let err = other.restore_state(&cut).unwrap_err();
        assert!(err.to_string().contains("unit count mismatch"), "{err}");
    }

    #[test]
    fn frequency_scaling_stretches_memory_latency() {
        // At a higher clock, off-chip latencies cost more cycles, so a
        // memory-bound app gains less than the frequency ratio.
        let base = CoreConfig::base();
        let fast = base.with_dvs(sim_common::Hertz::from_ghz(5.0), sim_common::Volts(1.1));
        let mut at4 = processor(App::Art, base);
        let mut at5 = processor(App::Art, fast);
        at4.run_instructions(30_000);
        at5.run_instructions(30_000);
        let ipc4 = at4.run_instructions(60_000).ipc();
        let ipc5 = at5.run_instructions(60_000).ipc();
        assert!(
            ipc5 < ipc4,
            "art IPC must drop at 5 GHz ({ipc5:.3}) vs 4 GHz ({ipc4:.3})"
        );
    }
}
