//! Set-associative caches and the two-level memory hierarchy
//! (Table 1: 64 KB 2-way L1D with 2 ports and 12 MSHRs, 32 KB 2-way L1I,
//! 1 MB 4-way unified off-chip L2, 102-cycle main memory at 4 GHz).

use sim_common::SimError;

use crate::config::CacheConfig;

/// Outcome of a single cache lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lookup {
    /// Line present.
    Hit,
    /// Line absent; it has been filled (allocate-on-miss). `writeback` is
    /// true when a dirty victim was evicted.
    Miss {
        /// A dirty line was displaced by the fill.
        writeback: bool,
    },
}

/// Access counters for one cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Total lookups.
    pub accesses: u64,
    /// Lookups that hit.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Dirty evictions.
    pub writebacks: u64,
}

impl CacheStats {
    /// Miss rate over all accesses (0 when idle).
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }
}

/// One way of a set in 16 bytes: `tag == INVALID_TAG` marks an empty
/// way, and `stamp` holds the LRU timestamp with the dirty flag in bit 63
/// (clocks stay below `u64::MAX >> 1`, so a timestamp never reaches it).
#[derive(Debug, Clone, Copy)]
struct Line {
    tag: u64,
    stamp: u64,
}

/// The tag of an empty way. No address maps to it: `Cache::new` refuses
/// the one geometry (1-byte lines in a single set) whose tags span the
/// whole `u64` range.
const INVALID_TAG: u64 = u64::MAX;
const DIRTY: u64 = 1 << 63;
const _: () = assert!(std::mem::size_of::<Line>() == 16);

impl Line {
    const EMPTY: Line = Line {
        tag: INVALID_TAG,
        stamp: 0,
    };

    fn new(tag: u64, dirty: bool, lru: u64) -> Line {
        Line {
            tag,
            stamp: (lru & !DIRTY) | if dirty { DIRTY } else { 0 },
        }
    }

    fn valid(&self) -> bool {
        self.tag != INVALID_TAG
    }

    fn dirty(&self) -> bool {
        self.stamp & DIRTY != 0
    }

    fn lru(&self) -> u64 {
        self.stamp & !DIRTY
    }
}

/// One valid cache line's warm state, captured at a slice boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheLineState {
    /// Line index, set-major (the ways of set 0, then set 1, ...).
    pub index: u64,
    /// Tag (line address divided by the set count).
    pub tag: u64,
    /// Line was written since fill.
    pub dirty: bool,
    /// LRU timestamp (value of the cache's access clock at last touch).
    pub lru: u64,
}

/// Warm contents of one cache: its valid lines plus the LRU clock. A line
/// never returns to invalid once filled, so every unlisted line is in its
/// power-on state and the sparse listing is lossless — and restoring
/// never allocates from an untrusted line count. Statistics are *not*
/// part of the state — checkpoints are cut at interval boundaries, where
/// [`Cache::take_stats`] has just zeroed them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheState {
    /// Line count (sets × ways) of the cache the state was captured from.
    pub line_count: u64,
    /// The valid lines, ascending by index.
    pub lines: Vec<CacheLineState>,
    /// The access clock driving LRU timestamps.
    pub clock: u64,
}

/// A write-back, write-allocate, true-LRU set-associative cache.
///
/// State updates happen at lookup time (the standard "immediate state,
/// delayed data" trace-simulation discipline); timing is supplied by
/// [`MemHierarchy`].
///
/// # Examples
///
/// ```
/// use sim_cpu::{Cache, CacheConfig, Lookup};
/// let mut c = Cache::new(CacheConfig::new(1024, 2, 64)?)?;
/// assert!(matches!(c.access(0x0, false), Lookup::Miss { .. }));
/// assert_eq!(c.access(0x8, false), Lookup::Hit); // same line
/// # Ok::<(), sim_common::SimError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    lines: Vec<Line>,
    assoc: usize,
    /// Set count minus one (the geometry is a power of two, so a line
    /// address's set is its low bits and its tag the rest).
    set_mask: u64,
    set_shift: u32,
    line_shift: u32,
    clock: u64,
    stats: CacheStats,
}

impl Cache {
    /// Creates an empty cache with the given geometry.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] when the geometry
    /// fails [`CacheConfig::validate`], or is a single set of 1-byte
    /// lines.
    pub fn new(config: CacheConfig) -> Result<Cache, SimError> {
        let sets = config.sets()?;
        if sets == 1 && config.line_bytes == 1 {
            return Err(SimError::invalid_config(
                "cache: a single set needs lines of at least 2 bytes",
            ));
        }
        Ok(Cache {
            lines: vec![Line::EMPTY; (sets * config.assoc as u64) as usize],
            assoc: config.assoc as usize,
            set_mask: sets - 1,
            set_shift: sets.trailing_zeros(),
            line_shift: config.line_bytes.trailing_zeros(),
            clock: 0,
            stats: CacheStats::default(),
        })
    }

    /// The line-aligned address for `addr`.
    #[inline]
    pub fn line_addr(&self, addr: u64) -> u64 {
        addr >> self.line_shift
    }

    /// Line size in bytes.
    #[inline]
    pub fn line_bytes(&self) -> u64 {
        1 << self.line_shift
    }

    /// Performs a lookup for `addr`, filling on miss and marking the line
    /// dirty on writes.
    pub fn access(&mut self, addr: u64, write: bool) -> Lookup {
        self.clock += 1;
        self.stats.accesses += 1;
        let line_addr = addr >> self.line_shift;
        let set = (line_addr & self.set_mask) as usize;
        let tag = line_addr >> self.set_shift;
        let base = set * self.assoc;
        let ways = &mut self.lines[base..base + self.assoc];

        if let Some(way) = ways.iter_mut().find(|l| l.tag == tag) {
            *way = Line::new(tag, way.dirty() || write, self.clock);
            self.stats.hits += 1;
            return Lookup::Hit;
        }

        self.stats.misses += 1;
        // Victim: an invalid way, else true LRU.
        let victim = ways
            .iter_mut()
            .min_by_key(|l| if l.valid() { l.lru() + 1 } else { 0 })
            .expect("associativity is non-zero");
        let writeback = victim.valid() && victim.dirty();
        if writeback {
            self.stats.writebacks += 1;
        }
        *victim = Line::new(tag, write, self.clock);
        Lookup::Miss { writeback }
    }

    /// Writes the state a fresh cache reaches after `count` reads at
    /// `top`, `top - step`, `top - 2 * step`, ..., where `step` is a power
    /// of two and `top` a multiple of it. Such a walk visits each line in
    /// one unbroken run, so every read misses or hits the line the read
    /// before it filled: the k-th line to enter a set takes way
    /// `k % assoc` (the first invalid way, then the least recently used),
    /// each resident line carries the clock of its last read, and the
    /// clock ends at `count`. Statistics are untouched.
    fn fill_descending(&mut self, top: u64, step: u64, count: u64) {
        debug_assert!(self.clock == 0, "the fill writes a fresh cache");
        if count == 0 {
            return;
        }
        let lowest = top - (count - 1) * step;
        // The distinct lines, in visiting order: `first`, `first - stride`,
        // ... Those a multiple of `period` apart share a set.
        let stride = (step >> self.line_shift).max(1);
        let first = top >> self.line_shift;
        let lines = (first - (lowest >> self.line_shift)) / stride + 1;
        let period = (self.set_mask + 1) / stride.min(self.set_mask + 1);
        let assoc = self.assoc as u64;
        for j in lines.saturating_sub(period * assoc)..lines {
            let line = first - j * stride;
            let way = (j / period % assoc) as usize;
            let last_read = (line << self.line_shift).max(lowest);
            let index = (line & self.set_mask) as usize * self.assoc + way;
            self.lines[index] =
                Line::new(line >> self.set_shift, false, (top - last_read) / step + 1);
        }
        self.clock = count;
    }

    /// True when the line containing `addr` is resident (no state change).
    pub fn contains(&self, addr: u64) -> bool {
        let line_addr = addr >> self.line_shift;
        let set = (line_addr & self.set_mask) as usize;
        let tag = line_addr >> self.set_shift;
        let base = set * self.assoc;
        self.lines[base..base + self.assoc]
            .iter()
            .any(|l| l.tag == tag)
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Returns and clears the statistics (cache contents are preserved).
    pub fn take_stats(&mut self) -> CacheStats {
        std::mem::take(&mut self.stats)
    }

    /// Captures the warm cache contents for a checkpoint.
    #[must_use]
    pub fn state(&self) -> CacheState {
        CacheState {
            line_count: self.lines.len() as u64,
            lines: (0..)
                .zip(&self.lines)
                .filter(|(_, l)| l.valid())
                .map(|(index, l)| CacheLineState {
                    index,
                    tag: l.tag,
                    dirty: l.dirty(),
                    lru: l.lru(),
                })
                .collect(),
            clock: self.clock,
        }
    }

    /// Restores captured [`CacheState`] contents. Statistics are untouched.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] when the line count does not
    /// match this cache's geometry, a line index is out of range, a tag is
    /// `u64::MAX` (the empty-way marker), an LRU timestamp is ahead of the
    /// restored clock, or the clock is above `u64::MAX >> 1`.
    pub fn restore_state(&mut self, state: &CacheState) -> Result<(), SimError> {
        if state.clock > crate::pipeline::COUNTER_LIMIT {
            return Err(SimError::invalid_config("cache clock out of range"));
        }
        if state.line_count != self.lines.len() as u64 {
            return Err(SimError::invalid_config(format!(
                "cache line count mismatch: state has {}, cache has {}",
                state.line_count,
                self.lines.len()
            )));
        }
        for l in &state.lines {
            if l.index >= state.line_count {
                return Err(SimError::invalid_config(format!(
                    "cache line index {} out of range",
                    l.index
                )));
            }
            if l.tag == INVALID_TAG {
                return Err(SimError::invalid_config("cache line tag out of range"));
            }
            if l.lru > state.clock {
                return Err(SimError::invalid_config(
                    "LRU timestamp ahead of the cache clock",
                ));
            }
        }
        self.lines.fill(Line::EMPTY);
        for l in &state.lines {
            self.lines[l.index as usize] = Line::new(l.tag, l.dirty, l.lru);
        }
        self.clock = state.clock;
        Ok(())
    }
}

/// Result of a data-side access through the hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataAccess {
    /// The access was accepted; data is available at `ready` (absolute
    /// cycle).
    Ready {
        /// Cycle at which the value is available.
        ready: u64,
    },
    /// All MSHRs are busy with other lines; retry on a later cycle.
    Retry,
}

#[derive(Debug, Clone, Copy)]
struct Mshr {
    line: u64,
    ready: u64,
}

/// One outstanding miss, captured at a slice boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MshrState {
    /// Line address of the miss in flight.
    pub line: u64,
    /// Absolute cycle at which the fill completes.
    pub ready: u64,
}

/// Warm state of the whole memory hierarchy: the three caches, the
/// outstanding-miss registers, and the cumulative reference counters the
/// power model reads. Latency parameters and the prefetch switch are *not*
/// part of the state — they are re-derived from the core configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemHierarchyState {
    /// L1 instruction cache contents.
    pub l1i: CacheState,
    /// L1 data cache contents.
    pub l1d: CacheState,
    /// Unified L2 contents.
    pub l2: CacheState,
    /// Outstanding misses, in allocation order.
    pub mshrs: Vec<MshrState>,
    /// Cumulative L2 accesses triggered by L1I misses.
    pub l2_inst_refs: u64,
    /// Cumulative next-line prefetches issued.
    pub prefetches: u64,
}

/// Latency parameters of the hierarchy, in cycles at the current clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemLatencies {
    /// L1 hit time.
    pub l1_hit: u32,
    /// L2 hit time (beyond the L1 access).
    pub l2_hit: u32,
    /// Main-memory time (beyond the L1 access).
    pub memory: u32,
}

/// The L1I/L1D/L2/memory hierarchy with MSHR-limited L1D miss concurrency.
#[derive(Debug, Clone)]
pub struct MemHierarchy {
    /// L1 instruction cache.
    pub l1i: Cache,
    /// L1 data cache.
    pub l1d: Cache,
    /// Unified L2.
    pub l2: Cache,
    latencies: MemLatencies,
    mshrs: Vec<Mshr>,
    mshr_capacity: usize,
    prefetch_next_line: bool,
    /// L2 accesses triggered by L1I misses (for power accounting).
    pub l2_inst_refs: u64,
    /// Next-line prefetches issued.
    pub prefetches: u64,
}

impl MemHierarchy {
    /// Creates the hierarchy.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] when any cache
    /// geometry fails [`CacheConfig::validate`].
    pub fn new(
        l1i: CacheConfig,
        l1d: CacheConfig,
        l2: CacheConfig,
        latencies: MemLatencies,
        mshr_capacity: u32,
    ) -> Result<MemHierarchy, SimError> {
        Ok(MemHierarchy {
            l1i: Cache::new(l1i)?,
            l1d: Cache::new(l1d)?,
            l2: Cache::new(l2)?,
            latencies,
            mshrs: Vec::with_capacity(mshr_capacity as usize),
            mshr_capacity: mshr_capacity as usize,
            prefetch_next_line: false,
            l2_inst_refs: 0,
            prefetches: 0,
        })
    }

    /// Enables or disables tagged next-line prefetching on L1D misses.
    pub fn set_prefetch_next_line(&mut self, enabled: bool) {
        self.prefetch_next_line = enabled;
    }

    /// Current latency parameters.
    pub fn latencies(&self) -> MemLatencies {
        self.latencies
    }

    /// Replaces the latency parameters (used when the clock frequency
    /// changes at runtime: off-chip latencies are fixed in wall-clock time,
    /// so their cycle counts move with the clock). Outstanding misses keep
    /// their original completion times.
    pub fn set_latencies(&mut self, latencies: MemLatencies) {
        self.latencies = latencies;
    }

    fn l2_fill_latency(&mut self, addr: u64) -> u32 {
        match self.l2.access(addr, false) {
            Lookup::Hit => self.latencies.l2_hit,
            Lookup::Miss { .. } => self.latencies.memory,
        }
    }

    /// A data-side access (load or store) at absolute cycle `now`.
    ///
    /// Hits complete in the L1 hit time. Misses allocate an MSHR; requests
    /// to a line with an outstanding miss coalesce onto it. When all MSHRs
    /// are busy the access must be retried later.
    pub fn access_data(&mut self, now: u64, addr: u64, write: bool) -> DataAccess {
        let line = self.l1d.line_addr(addr);
        // Drop completed MSHRs.
        self.mshrs.retain(|m| m.ready > now);
        if let Some(m) = self.mshrs.iter().find(|m| m.line == line) {
            // Coalesce with the miss in flight. The line was filled when the
            // miss was initiated (immediate state update), so this lookup
            // hits; data arrives with the outstanding fill.
            let _ = self.l1d.access(addr, write);
            return DataAccess::Ready { ready: m.ready };
        }
        if self.l1d.contains(addr) {
            let _ = self.l1d.access(addr, write);
            return DataAccess::Ready {
                ready: now + self.latencies.l1_hit as u64,
            };
        }
        if self.mshrs.len() >= self.mshr_capacity {
            // Reject before touching any state so the retried access still
            // sees (and pays for) the miss.
            return DataAccess::Retry;
        }
        let _ = self.l1d.access(addr, write);
        let fill = self.l2_fill_latency(addr);
        let ready = now + (self.latencies.l1_hit + fill) as u64;
        self.mshrs.push(Mshr { line, ready });
        if self.prefetch_next_line {
            // Tagged next-line prefetch: pull the successor line toward
            // the core on a demand miss (state update only; the demand
            // stream later hits it).
            let next = addr + self.l1d.line_bytes();
            if !self.l1d.contains(next) {
                self.prefetches += 1;
                self.prefill_data(next);
            }
        }
        DataAccess::Ready { ready }
    }

    /// An instruction fetch access at absolute cycle `now`; returns the
    /// cycle at which the line is available (fetch stalls on misses, so no
    /// MSHR limit applies).
    pub fn access_inst(&mut self, now: u64, addr: u64) -> u64 {
        match self.l1i.access(addr, false) {
            Lookup::Hit => now, // hit latency hidden by the fetch pipeline
            Lookup::Miss { .. } => {
                self.l2_inst_refs += 1;
                let fill = self.l2_fill_latency(addr);
                now + fill as u64
            }
        }
    }

    /// Number of MSHRs currently tracking outstanding misses at `now`.
    pub fn mshrs_in_flight(&self, now: u64) -> usize {
        self.mshrs.iter().filter(|m| m.ready > now).count()
    }

    /// Fills the line containing `addr` into L2 and L1D without touching
    /// MSHRs (the next-line prefetch).
    fn prefill_data(&mut self, addr: u64) {
        let _ = self.l2.access(addr, false);
        let _ = self.l1d.access(addr, false);
    }

    /// Pre-warms fresh caches: the data path over `[base, base + bytes)`
    /// from the top of the range down, so the lowest addresses are most
    /// recently used, then the instruction path over
    /// `[code_base, code_base + code_bytes)` upward, one L1I line at a
    /// time. The data side is written directly, in the state the
    /// line-by-line walk through L2 and L1D would leave; the code side (a
    /// few hundred lines) goes through ordinary accesses, so a code range
    /// that overlaps the data in L2 is exact too. Statistics are cleared.
    ///
    /// # Panics
    ///
    /// Panics unless L1D and L2 are fresh (their clocks are zero).
    pub fn prewarm(&mut self, base: u64, bytes: u64, code_base: u64, code_bytes: u64) {
        assert!(
            self.l1d.clock == 0 && self.l2.clock == 0,
            "prewarm needs fresh caches"
        );
        // Every line-aligned address from the top line down to `base`.
        let line = self.l1d.line_bytes();
        let top = base.saturating_add(bytes.saturating_sub(1)) & !(line - 1);
        let count = if top >= base {
            (top - base) / line + 1
        } else {
            0
        };
        self.l2.fill_descending(top, line, count);
        self.l1d.fill_descending(top, line, count);
        let mut addr = code_base;
        while addr < code_base.saturating_add(code_bytes) {
            let _ = self.l2.access(addr, false);
            let _ = self.l1i.access(addr, false);
            addr += self.l1i.line_bytes();
        }
        let _ = self.l1i.take_stats();
        let _ = self.l1d.take_stats();
        let _ = self.l2.take_stats();
    }

    /// Captures the warm hierarchy state for a checkpoint.
    #[must_use]
    pub fn state(&self) -> MemHierarchyState {
        MemHierarchyState {
            l1i: self.l1i.state(),
            l1d: self.l1d.state(),
            l2: self.l2.state(),
            mshrs: self
                .mshrs
                .iter()
                .map(|m| MshrState {
                    line: m.line,
                    ready: m.ready,
                })
                .collect(),
            l2_inst_refs: self.l2_inst_refs,
            prefetches: self.prefetches,
        }
    }

    /// Restores a captured [`MemHierarchyState`]. Cache statistics are
    /// untouched; latencies and the prefetch switch keep their configured
    /// values.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] when a cache's state does not
    /// fit (see [`Cache::restore_state`]), more MSHRs are recorded than
    /// this hierarchy has, or a reference counter is above `u64::MAX >> 1`.
    pub fn restore_state(&mut self, state: &MemHierarchyState) -> Result<(), SimError> {
        if state.mshrs.len() > self.mshr_capacity {
            return Err(SimError::invalid_config("more MSHRs than capacity"));
        }
        if state.l2_inst_refs.max(state.prefetches) > crate::pipeline::COUNTER_LIMIT {
            return Err(SimError::invalid_config("memory counter out of range"));
        }
        self.l1i.restore_state(&state.l1i)?;
        self.l1d.restore_state(&state.l1d)?;
        self.l2.restore_state(&state.l2)?;
        self.mshrs.clear();
        self.mshrs.extend(state.mshrs.iter().map(|m| Mshr {
            line: m.line,
            ready: m.ready,
        }));
        self.l2_inst_refs = state.l2_inst_refs;
        self.prefetches = state.prefetches;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> CacheConfig {
        CacheConfig {
            size_bytes: 1024,
            assoc: 2,
            line_bytes: 64,
        }
    }

    #[test]
    fn hit_after_fill() {
        let mut c = Cache::new(small()).unwrap();
        assert!(matches!(c.access(0x40, false), Lookup::Miss { .. }));
        assert_eq!(c.access(0x40, false), Lookup::Hit);
        assert_eq!(c.access(0x7f, false), Lookup::Hit); // same 64B line
        assert!(matches!(c.access(0x80, false), Lookup::Miss { .. }));
    }

    #[test]
    fn lru_replacement() {
        // 2-way: fill two ways of one set, touch the first, insert a third;
        // the second must be the victim.
        let mut c = Cache::new(small()).unwrap();
        let sets = small().sets().unwrap(); // 8 sets
        let stride = 64 * sets; // same-set stride
        c.access(0, false); // way A
        c.access(stride, false); // way B
        c.access(0, false); // A is MRU
        c.access(2 * stride, false); // evicts B
        assert!(c.contains(0));
        assert!(!c.contains(stride));
        assert!(c.contains(2 * stride));
    }

    #[test]
    fn writeback_on_dirty_eviction() {
        let mut c = Cache::new(small()).unwrap();
        let stride = 64 * small().sets().unwrap();
        c.access(0, true); // dirty, LRU after the next fill
        c.access(stride, false); // clean
        match c.access(2 * stride, false) {
            // Victim is line 0 (least recently used) and it is dirty.
            Lookup::Miss { writeback } => assert!(writeback),
            _ => panic!("expected miss"),
        }
        match c.access(3 * stride, false) {
            // Victim is `stride`, which is clean.
            Lookup::Miss { writeback } => assert!(!writeback),
            _ => panic!("expected miss"),
        }
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn stats_accumulate() {
        let mut c = Cache::new(small()).unwrap();
        c.access(0, false);
        c.access(0, false);
        c.access(64, false);
        let s = c.stats();
        assert_eq!(s.accesses, 3);
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 2);
        assert!((s.miss_rate() - 2.0 / 3.0).abs() < 1e-12);
        let taken = c.take_stats();
        assert_eq!(taken.accesses, 3);
        assert_eq!(c.stats().accesses, 0);
        assert!(c.contains(0), "take_stats must not clear contents");
    }

    fn hierarchy(mshrs: u32) -> MemHierarchy {
        MemHierarchy::new(
            small(),
            small(),
            CacheConfig {
                size_bytes: 16 * 1024,
                assoc: 4,
                line_bytes: 64,
            },
            MemLatencies {
                l1_hit: 2,
                l2_hit: 20,
                memory: 102,
            },
            mshrs,
        )
        .unwrap()
    }

    #[test]
    fn data_hit_latency() {
        let mut h = hierarchy(2);
        // Cold miss to memory first.
        match h.access_data(0, 0x1000, false) {
            DataAccess::Ready { ready } => assert_eq!(ready, 104), // 2 + 102
            DataAccess::Retry => panic!("retry"),
        }
        // Far in the future the line is resident: pure L1 hit.
        match h.access_data(1000, 0x1000, false) {
            DataAccess::Ready { ready } => assert_eq!(ready, 1002),
            DataAccess::Retry => panic!("retry"),
        }
    }

    #[test]
    fn l2_hit_path() {
        let mut h = hierarchy(2);
        let _ = h.access_data(0, 0x2000, false); // memory fill, L2 now has it
                                                 // Evict from tiny L1D by touching conflicting lines.
        let stride = 64 * small().sets().unwrap();
        let _ = h.access_data(200, 0x2000 + stride, false);
        let _ = h.access_data(400, 0x2000 + 2 * stride, false);
        assert!(!h.l1d.contains(0x2000));
        match h.access_data(600, 0x2000, false) {
            DataAccess::Ready { ready } => assert_eq!(ready, 600 + 2 + 20),
            DataAccess::Retry => panic!("retry"),
        }
    }

    #[test]
    fn mshr_exhaustion_forces_retry() {
        let mut h = hierarchy(2);
        assert!(matches!(
            h.access_data(0, 0x10_000, false),
            DataAccess::Ready { .. }
        ));
        assert!(matches!(
            h.access_data(0, 0x20_000, false),
            DataAccess::Ready { .. }
        ));
        assert_eq!(h.mshrs_in_flight(0), 2);
        assert_eq!(h.access_data(0, 0x30_000, false), DataAccess::Retry);
        // After the misses resolve, capacity is available again.
        assert!(matches!(
            h.access_data(500, 0x30_000, false),
            DataAccess::Ready { .. }
        ));
    }

    #[test]
    fn same_line_misses_coalesce() {
        let mut h = hierarchy(1);
        let first = match h.access_data(0, 0x40_000, false) {
            DataAccess::Ready { ready } => ready,
            DataAccess::Retry => panic!("retry"),
        };
        // Second access to the same line coalesces even though MSHRs are full.
        match h.access_data(1, 0x40_008, false) {
            DataAccess::Ready { ready } => assert_eq!(ready, first),
            DataAccess::Retry => panic!("coalescing must not consume an MSHR"),
        }
    }

    #[test]
    fn next_line_prefetch_turns_misses_into_hits() {
        let mut h = hierarchy(4);
        h.set_prefetch_next_line(true);
        // Demand miss at line 0 prefetches line 1.
        let _ = h.access_data(0, 0x1000, false);
        assert_eq!(h.prefetches, 1);
        assert!(h.l1d.contains(0x1040));
        match h.access_data(500, 0x1040, false) {
            DataAccess::Ready { ready } => assert_eq!(ready, 502, "prefetched line must hit"),
            DataAccess::Retry => panic!("retry"),
        }
        // Without prefetch the same pattern misses.
        let mut h = hierarchy(4);
        let _ = h.access_data(0, 0x1000, false);
        assert_eq!(h.prefetches, 0);
        assert!(!h.l1d.contains(0x1040));
    }

    #[test]
    fn state_round_trip_resumes_identically() {
        let mut h = hierarchy(4);
        h.set_prefetch_next_line(true);
        for (i, addr) in [0x1000u64, 0x2040, 0x1000, 0x9000].iter().enumerate() {
            let _ = h.access_data(10 * i as u64, *addr, i % 2 == 1);
        }
        let _ = h.access_inst(50, 0x40);
        // Slice boundaries zero the stats before the cut.
        let _ = h.l1i.take_stats();
        let _ = h.l1d.take_stats();
        let _ = h.l2.take_stats();
        let state = h.state();

        let mut r = hierarchy(4);
        r.set_prefetch_next_line(true);
        r.restore_state(&state).unwrap();
        assert_eq!(r.state(), state);
        // Both copies behave identically afterwards.
        for now in [60u64, 70, 80] {
            assert_eq!(
                r.access_data(now, 0x1000 + 8 * now, false),
                h.access_data(now, 0x1000 + 8 * now, false)
            );
        }
        assert_eq!(r.l1d.stats(), h.l1d.stats());
    }

    #[test]
    fn single_set_of_byte_lines_is_refused() {
        // Its tags would span the whole `u64` range, empty-way marker
        // included.
        let config = CacheConfig {
            size_bytes: 2,
            assoc: 2,
            line_bytes: 1,
        };
        let err = Cache::new(config).unwrap_err().to_string();
        assert!(err.contains("at least 2 bytes"), "{err}");
    }

    #[test]
    fn restore_rejects_wrong_geometry() {
        let state = Cache::new(small()).unwrap().state();
        let mut other = Cache::new(CacheConfig {
            size_bytes: 2048,
            assoc: 2,
            line_bytes: 64,
        })
        .unwrap();
        let err = other.restore_state(&state).unwrap_err().to_string();
        assert!(err.contains("line count mismatch"), "{err}");
    }

    #[test]
    fn restore_rejects_out_of_range_lines_and_future_timestamps() {
        let mut cache = Cache::new(small()).unwrap();
        let _ = cache.access(0x40, true);
        let good = cache.state();
        let mut bad = good.clone();
        bad.lines[0].index = bad.line_count;
        assert!(cache.restore_state(&bad).is_err());
        let mut bad = good.clone();
        bad.clock = 0;
        let err = cache.restore_state(&bad).unwrap_err().to_string();
        assert!(err.contains("LRU timestamp ahead"), "{err}");
        let mut bad = good.clone();
        bad.lines[0].tag = u64::MAX;
        let err = cache.restore_state(&bad).unwrap_err().to_string();
        assert!(err.contains("tag out of range"), "{err}");
        cache.restore_state(&good).unwrap();
        assert_eq!(cache.state(), good);
    }

    #[test]
    fn inst_miss_goes_through_l2() {
        let mut h = hierarchy(2);
        let ready = h.access_inst(0, 0x0);
        assert_eq!(ready, 102); // cold: memory latency
        let ready = h.access_inst(500, 0x0);
        assert_eq!(ready, 500); // resident: hidden
        assert_eq!(h.l2_inst_refs, 1);
    }
}
