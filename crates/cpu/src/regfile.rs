//! Register renaming and the physical register files
//! (Table 1: 192 integer + 192 floating-point physical registers, separate
//! from the centralized instruction window, as in the MIPS R10000).

use sim_common::SimError;
use workload::{ArchReg, RegClass, ARCH_REGS_PER_CLASS};

/// A physical register: class plus index within that class's file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PhysReg {
    /// Register file this register lives in.
    pub class: RegClass,
    /// Index within the file.
    pub index: u16,
}

/// Port-access counters for one physical register file.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RegFileStats {
    /// Operand reads at issue.
    pub reads: u64,
    /// Result writes at writeback.
    pub writes: u64,
}

/// Warm rename state for one register class, captured at a slice boundary.
/// Statistics are *not* part of the state — checkpoints are cut at interval
/// boundaries, where [`Rename::take_stats`] has just zeroed them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RenameClassState {
    /// Architectural-to-physical map, indexed by architectural register.
    pub map: Vec<u16>,
    /// Free list, in stack order (last entry is popped next).
    pub free: Vec<u16>,
    /// Per-physical-register ready bits.
    pub ready: Vec<bool>,
}

/// Warm rename state for both register classes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RenameState {
    /// Integer class state.
    pub int: RenameClassState,
    /// Floating-point class state.
    pub fp: RenameClassState,
}

#[derive(Debug, Clone)]
struct ClassState {
    map: Vec<u16>,
    free: Vec<u16>,
    ready: Vec<bool>,
    stats: RegFileStats,
}

impl ClassState {
    fn state(&self) -> RenameClassState {
        RenameClassState {
            map: self.map.clone(),
            free: self.free.clone(),
            ready: self.ready.clone(),
        }
    }

    fn restore_state(&mut self, state: &RenameClassState) -> Result<(), SimError> {
        let phys = self.ready.len();
        let out_of_range = |regs: &[u16]| regs.iter().any(|&p| p as usize >= phys);
        let problem = if state.map.len() != self.map.len() {
            Some("rename map size mismatch")
        } else if state.ready.len() != phys {
            Some("physical register count mismatch")
        } else if out_of_range(&state.map) || out_of_range(&state.free) {
            Some("physical register index out of range")
        } else if state.free.len() > phys {
            Some("free list larger than the register file")
        } else {
            None
        };
        if let Some(problem) = problem {
            return Err(SimError::invalid_config(problem));
        }
        self.map.copy_from_slice(&state.map);
        self.free.clear();
        self.free.extend_from_slice(&state.free);
        self.ready.copy_from_slice(&state.ready);
        Ok(())
    }

    fn new(phys_count: u32) -> ClassState {
        let arch = ARCH_REGS_PER_CLASS as usize;
        assert!(phys_count as usize >= arch);
        ClassState {
            // Architectural register i starts mapped to physical i, ready.
            map: (0..arch as u16).collect(),
            free: (arch as u16..phys_count as u16).rev().collect(),
            ready: {
                let mut r = vec![false; phys_count as usize];
                r[..arch].fill(true);
                r
            },
            stats: RegFileStats::default(),
        }
    }
}

/// The rename stage state: architectural-to-physical maps, free lists, and
/// physical-register ready bits for both register classes.
///
/// The simulator is trace driven (no wrong-path execution), so no
/// checkpoint/rollback machinery is needed: an instruction's previous
/// mapping is released when it commits.
///
/// # Examples
///
/// ```
/// use sim_cpu::Rename;
/// use workload::{ArchReg, RegClass};
///
/// let mut rn = Rename::new(192, 192);
/// let r1 = ArchReg::new(RegClass::Int, 1);
/// let (phys, _old) = rn.alloc_dest(r1).expect("free registers available");
/// assert!(!rn.is_ready(phys)); // in flight until writeback
/// rn.set_ready(phys);
/// assert!(rn.is_ready(phys));
/// ```
#[derive(Debug, Clone)]
pub struct Rename {
    int: ClassState,
    fp: ClassState,
}

impl Rename {
    /// Creates rename state with the given physical register counts.
    ///
    /// # Panics
    ///
    /// Panics if either file is smaller than the architectural register
    /// count (validated by `CoreConfig::validate`).
    pub fn new(int_regs: u32, fp_regs: u32) -> Rename {
        Rename {
            int: ClassState::new(int_regs),
            fp: ClassState::new(fp_regs),
        }
    }

    fn class(&self, class: RegClass) -> &ClassState {
        match class {
            RegClass::Int => &self.int,
            RegClass::Fp => &self.fp,
        }
    }

    fn class_mut(&mut self, class: RegClass) -> &mut ClassState {
        match class {
            RegClass::Int => &mut self.int,
            RegClass::Fp => &mut self.fp,
        }
    }

    /// Current physical mapping of an architectural source register.
    pub fn rename_src(&self, arch: ArchReg) -> PhysReg {
        let class = arch.class();
        PhysReg {
            class,
            index: self.class(class).map[arch.index() as usize],
        }
    }

    /// Allocates a new physical register for `arch`, returning the new
    /// mapping and the previous one (to be released at commit). Returns
    /// `None` when the free list is empty — the dispatch stage must stall.
    pub fn alloc_dest(&mut self, arch: ArchReg) -> Option<(PhysReg, PhysReg)> {
        let class = arch.class();
        let state = self.class_mut(class);
        let new = state.free.pop()?;
        let old = state.map[arch.index() as usize];
        state.map[arch.index() as usize] = new;
        state.ready[new as usize] = false;
        Some((PhysReg { class, index: new }, PhysReg { class, index: old }))
    }

    /// True when the physical register holds its value.
    pub fn is_ready(&self, phys: PhysReg) -> bool {
        self.class(phys.class).ready[phys.index as usize]
    }

    /// Marks the register ready (writeback) and counts the write port use.
    pub fn set_ready(&mut self, phys: PhysReg) {
        let state = self.class_mut(phys.class);
        state.ready[phys.index as usize] = true;
        state.stats.writes += 1;
    }

    /// Counts an operand read from the register's file.
    pub fn count_read(&mut self, class: RegClass) {
        self.class_mut(class).stats.reads += 1;
    }

    /// Returns a previously current mapping to the free list (at commit of
    /// the overwriting instruction).
    pub fn release(&mut self, phys: PhysReg) {
        self.class_mut(phys.class).free.push(phys.index);
    }

    /// Free physical registers remaining in `class`.
    pub fn free_count(&self, class: RegClass) -> usize {
        self.class(class).free.len()
    }

    /// Port statistics for `class`.
    pub fn stats(&self, class: RegClass) -> RegFileStats {
        self.class(class).stats
    }

    /// Captures the warm rename state for a checkpoint.
    #[must_use]
    pub fn state(&self) -> RenameState {
        RenameState {
            int: self.int.state(),
            fp: self.fp.state(),
        }
    }

    /// Restores a captured [`RenameState`]. Statistics are untouched.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] when either class's state does
    /// not fit this rename stage's register-file sizes, or references a
    /// physical register out of range.
    pub fn restore_state(&mut self, state: &RenameState) -> Result<(), SimError> {
        self.int.restore_state(&state.int)?;
        self.fp.restore_state(&state.fp)
    }

    /// Returns and clears the port statistics for both files
    /// `(int, fp)`.
    pub fn take_stats(&mut self) -> (RegFileStats, RegFileStats) {
        (
            std::mem::take(&mut self.int.stats),
            std::mem::take(&mut self.fp.stats),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn int_reg(i: u16) -> ArchReg {
        ArchReg::new(RegClass::Int, i)
    }

    #[test]
    fn initial_mappings_are_identity_and_ready() {
        let rn = Rename::new(192, 192);
        for i in 0..ARCH_REGS_PER_CLASS {
            let p = rn.rename_src(int_reg(i));
            assert_eq!(p.index, i);
            assert!(rn.is_ready(p));
        }
        assert_eq!(rn.free_count(RegClass::Int), 192 - 64);
        assert_eq!(rn.free_count(RegClass::Fp), 192 - 64);
    }

    #[test]
    fn alloc_redirects_sources() {
        let mut rn = Rename::new(192, 192);
        let (new, old) = rn.alloc_dest(int_reg(5)).unwrap();
        assert_eq!(old.index, 5);
        assert_ne!(new.index, 5);
        assert_eq!(rn.rename_src(int_reg(5)), new);
        assert!(!rn.is_ready(new));
    }

    #[test]
    fn release_recycles_registers() {
        let mut rn = Rename::new(66, 66); // only two spare per class
        let (_, old1) = rn.alloc_dest(int_reg(0)).unwrap();
        let (_, old2) = rn.alloc_dest(int_reg(1)).unwrap();
        assert!(rn.alloc_dest(int_reg(2)).is_none(), "free list exhausted");
        rn.release(old1);
        rn.release(old2);
        assert!(rn.alloc_dest(int_reg(2)).is_some());
    }

    #[test]
    fn classes_are_independent() {
        let mut rn = Rename::new(66, 192);
        let fp = ArchReg::new(RegClass::Fp, 0);
        rn.alloc_dest(int_reg(0)).unwrap();
        rn.alloc_dest(int_reg(1)).unwrap();
        assert!(rn.alloc_dest(int_reg(2)).is_none());
        assert!(rn.alloc_dest(fp).is_some(), "fp file unaffected");
    }

    #[test]
    fn stats_count_ports() {
        let mut rn = Rename::new(192, 192);
        let (p, _) = rn.alloc_dest(int_reg(1)).unwrap();
        rn.count_read(RegClass::Int);
        rn.count_read(RegClass::Int);
        rn.set_ready(p);
        let s = rn.stats(RegClass::Int);
        assert_eq!(s.reads, 2);
        assert_eq!(s.writes, 1);
        let (int, fp) = rn.take_stats();
        assert_eq!(int.reads, 2);
        assert_eq!(fp.reads, 0);
        assert_eq!(rn.stats(RegClass::Int).reads, 0);
    }

    #[test]
    fn state_round_trip_preserves_mappings() {
        let mut rn = Rename::new(192, 192);
        let (p1, _) = rn.alloc_dest(int_reg(3)).unwrap();
        let (_, old) = rn.alloc_dest(int_reg(3)).unwrap();
        rn.set_ready(p1);
        rn.release(old);
        let state = rn.state();
        let mut restored = Rename::new(192, 192);
        restored.restore_state(&state).unwrap();
        assert_eq!(restored.state(), state);
        assert_eq!(restored.rename_src(int_reg(3)), rn.rename_src(int_reg(3)));
        assert_eq!(
            restored.free_count(RegClass::Int),
            rn.free_count(RegClass::Int)
        );
        assert_eq!(restored.stats(RegClass::Int).writes, 0, "stats untouched");
    }

    #[test]
    fn restore_rejects_mismatched_file_size() {
        let state = Rename::new(192, 192).state();
        let err = Rename::new(128, 192).restore_state(&state).unwrap_err();
        assert!(err.to_string().contains("register count mismatch"), "{err}");
    }

    #[test]
    fn serial_reuse_of_same_arch_reg() {
        // Repeated writes to one architectural register chain correctly.
        let mut rn = Rename::new(192, 192);
        let (p1, _) = rn.alloc_dest(int_reg(3)).unwrap();
        let (p2, old2) = rn.alloc_dest(int_reg(3)).unwrap();
        assert_eq!(old2, p1, "second alloc must displace the first mapping");
        assert_eq!(rn.rename_src(int_reg(3)), p2);
    }
}
