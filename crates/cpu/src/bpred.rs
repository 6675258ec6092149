//! Bimodal branch predictor with a return-address stack (Table 1:
//! "2KB bimodal agree, 32 entry RAS").
//!
//! The agree variant stores, per counter, whether the branch agrees with a
//! static bias bit; because our synthetic branches carry their bias in their
//! stable per-PC behaviour, a standard 2-bit bimodal table is functionally
//! equivalent here and is what we implement. The RAS predicts return
//! targets: calls push their fall-through address at fetch, returns pop a
//! predicted target; overflow wraps (oldest entry lost), which is what
//! bounds prediction accuracy under deep recursion.

use sim_common::SimError;

use crate::config::BpredConfig;

/// Saturating 2-bit counter states (strongly-not-taken is 0).
const WEAK_TAKEN: u8 = 2;
const STRONG_TAKEN: u8 = 3;

/// Per-predictor access statistics, consumed by the power model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BpredStats {
    /// Direction lookups performed at fetch.
    pub lookups: u64,
    /// Counter updates performed at branch resolution.
    pub updates: u64,
    /// Resolved branches whose prediction was wrong.
    pub mispredicts: u64,
    /// Return-address-stack pushes (calls fetched).
    pub ras_pushes: u64,
    /// Return-address-stack pops (returns fetched).
    pub ras_pops: u64,
    /// Returns whose RAS prediction was wrong (underflow or overflow
    /// clobber).
    pub ras_mispredicts: u64,
}

impl BpredStats {
    /// Misprediction rate over all resolved branches (0 when none resolved).
    pub fn mispredict_rate(&self) -> f64 {
        if self.updates == 0 {
            0.0
        } else {
            self.mispredicts as f64 / self.updates as f64
        }
    }
}

/// Warm predictor state captured at a slice boundary: the trained 2-bit
/// counter table and the return-address stack. Statistics are *not* part of
/// the state — checkpoints are cut at interval boundaries, where
/// [`Bpred::take_stats`] has just zeroed them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BpredState {
    /// Saturating 2-bit counters, one per table slot, each in `0..=3`.
    pub counters: Vec<u8>,
    /// Return-address stack, oldest entry first.
    pub ras: Vec<u64>,
}

/// Bimodal branch predictor.
///
/// # Examples
///
/// ```
/// use sim_cpu::{Bpred, BpredConfig};
/// let mut bp = Bpred::new(BpredConfig { counters: 1024, ras_entries: 32 });
/// // An always-taken branch is learned after two updates.
/// bp.update(0x40, true);
/// bp.update(0x40, true);
/// assert!(bp.predict(0x40));
/// ```
#[derive(Debug, Clone)]
pub struct Bpred {
    counters: Vec<u8>,
    mask: u64,
    ras: Vec<u64>,
    ras_capacity: usize,
    stats: BpredStats,
}

impl Bpred {
    /// Creates a predictor with all counters initialized weakly not-taken.
    ///
    /// # Panics
    ///
    /// Panics if `config.counters` is not a power of two.
    pub fn new(config: BpredConfig) -> Bpred {
        let n = config.counters as usize;
        assert!(n.is_power_of_two(), "counter count must be a power of two");
        Bpred {
            counters: vec![1; n], // weakly not-taken
            mask: (n - 1) as u64,
            ras: Vec::with_capacity(config.ras_entries as usize),
            ras_capacity: config.ras_entries.max(1) as usize,
            stats: BpredStats::default(),
        }
    }

    /// Pushes a return address at call fetch. A full stack drops its
    /// oldest entry (circular overwrite).
    pub fn ras_push(&mut self, return_address: u64) {
        self.stats.ras_pushes += 1;
        if self.ras.len() == self.ras_capacity {
            self.ras.remove(0);
        }
        self.ras.push(return_address);
    }

    /// Pops the predicted return target at return fetch; `None` on
    /// underflow (the front end then simply stalls until the return
    /// resolves).
    pub fn ras_pop(&mut self) -> Option<u64> {
        self.stats.ras_pops += 1;
        self.ras.pop()
    }

    /// Records a wrong RAS prediction.
    pub fn count_ras_mispredict(&mut self) {
        self.stats.ras_mispredicts += 1;
    }

    /// Current RAS occupancy.
    pub fn ras_depth(&self) -> usize {
        self.ras.len()
    }

    #[inline]
    fn slot(&self, pc: u64) -> usize {
        ((pc >> 2) & self.mask) as usize
    }

    /// Predicts the direction of the branch at `pc`, counting a lookup.
    pub fn predict(&mut self, pc: u64) -> bool {
        self.stats.lookups += 1;
        self.counters[self.slot(pc)] >= WEAK_TAKEN
    }

    /// Reads the current prediction without counting an access (for tests
    /// and introspection).
    pub fn peek(&self, pc: u64) -> bool {
        self.counters[self.slot(pc)] >= WEAK_TAKEN
    }

    /// Updates the counter for `pc` with the resolved direction, counting a
    /// misprediction if the pre-update prediction disagreed.
    pub fn update(&mut self, pc: u64, taken: bool) {
        let slot = self.slot(pc);
        let predicted = self.counters[slot] >= WEAK_TAKEN;
        if predicted != taken {
            self.stats.mispredicts += 1;
        }
        self.stats.updates += 1;
        let c = &mut self.counters[slot];
        if taken {
            *c = (*c + 1).min(STRONG_TAKEN);
        } else {
            *c = c.saturating_sub(1);
        }
    }

    /// Captures the warm predictor state for a checkpoint.
    #[must_use]
    pub fn state(&self) -> BpredState {
        BpredState {
            counters: self.counters.clone(),
            ras: self.ras.clone(),
        }
    }

    /// Restores a captured [`BpredState`]. Statistics are untouched.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] when the state does not fit this
    /// predictor's geometry: a counter-table size mismatch, a counter value
    /// above 3, or a RAS deeper than the configured capacity.
    pub fn restore_state(&mut self, state: &BpredState) -> Result<(), SimError> {
        let problem = if state.counters.len() != self.counters.len() {
            Some("bpred counter table size mismatch")
        } else if state.counters.iter().any(|&c| c > STRONG_TAKEN) {
            Some("bpred counter value out of range")
        } else if state.ras.len() > self.ras_capacity {
            Some("RAS deeper than capacity")
        } else {
            None
        };
        if let Some(problem) = problem {
            return Err(SimError::invalid_config(problem));
        }
        self.counters.copy_from_slice(&state.counters);
        self.ras.clear();
        self.ras.extend_from_slice(&state.ras);
        Ok(())
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> BpredStats {
        self.stats
    }

    /// Resets statistics (counters keep their trained state), returning the
    /// stats accumulated since the previous reset.
    pub fn take_stats(&mut self) -> BpredStats {
        std::mem::take(&mut self.stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bp() -> Bpred {
        Bpred::new(BpredConfig {
            counters: 256,
            ras_entries: 32,
        })
    }

    #[test]
    fn learns_biased_branch() {
        let mut p = bp();
        for _ in 0..4 {
            p.update(0x100, true);
        }
        assert!(p.predict(0x100));
        for _ in 0..4 {
            p.update(0x100, false);
        }
        assert!(!p.predict(0x100));
    }

    #[test]
    fn hysteresis_tolerates_single_flip() {
        let mut p = bp();
        p.update(0x8, true);
        p.update(0x8, true);
        p.update(0x8, true); // strongly taken
        p.update(0x8, false); // one deviation
        assert!(p.peek(0x8), "2-bit counter must survive one flip");
    }

    #[test]
    fn counts_mispredicts() {
        let mut p = bp();
        // Initial state is weakly not-taken: first taken resolution is a
        // mispredict, the second (now weakly taken) is correct.
        p.update(0x10, true);
        p.update(0x10, true);
        let s = p.stats();
        assert_eq!(s.updates, 2);
        assert_eq!(s.mispredicts, 1);
        assert!((s.mispredict_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn lookup_counting() {
        let mut p = bp();
        p.predict(0);
        p.predict(4);
        assert_eq!(p.stats().lookups, 2);
    }

    #[test]
    fn aliasing_uses_word_index() {
        let mut p = Bpred::new(BpredConfig {
            counters: 4,
            ras_entries: 32,
        });
        // pc 0x0 and pc 0x10 alias (4 counters, word-indexed).
        for _ in 0..3 {
            p.update(0x0, true);
        }
        assert!(p.peek(0x10));
    }

    #[test]
    fn ras_predicts_nested_returns() {
        let mut p = bp();
        p.ras_push(0x100);
        p.ras_push(0x200);
        assert_eq!(p.ras_depth(), 2);
        assert_eq!(p.ras_pop(), Some(0x200));
        assert_eq!(p.ras_pop(), Some(0x100));
        assert_eq!(p.ras_pop(), None);
        let s = p.stats();
        assert_eq!(s.ras_pushes, 2);
        assert_eq!(s.ras_pops, 3);
    }

    #[test]
    fn ras_overflow_drops_oldest() {
        let mut p = Bpred::new(BpredConfig {
            counters: 256,
            ras_entries: 2,
        });
        p.ras_push(0x1);
        p.ras_push(0x2);
        p.ras_push(0x3); // evicts 0x1
        assert_eq!(p.ras_pop(), Some(0x3));
        assert_eq!(p.ras_pop(), Some(0x2));
        assert_eq!(p.ras_pop(), None);
    }

    #[test]
    fn take_stats_resets() {
        let mut p = bp();
        p.predict(0);
        let s = p.take_stats();
        assert_eq!(s.lookups, 1);
        assert_eq!(p.stats().lookups, 0);
    }

    #[test]
    fn rate_with_no_updates_is_zero() {
        assert_eq!(BpredStats::default().mispredict_rate(), 0.0);
    }

    #[test]
    fn state_round_trip_preserves_training() {
        let mut p = bp();
        for pc in (0..512u64).step_by(4) {
            p.update(pc, pc % 3 == 0);
        }
        p.ras_push(0x100);
        p.ras_push(0x200);
        let state = p.state();
        let mut restored = bp();
        restored.restore_state(&state).unwrap();
        assert_eq!(restored.state(), state);
        for pc in (0..512u64).step_by(4) {
            assert_eq!(restored.peek(pc), p.peek(pc));
        }
        assert_eq!(restored.ras_pop(), Some(0x200));
        assert_eq!(restored.stats().ras_pushes, 0, "stats stay untouched");
    }

    #[test]
    fn restore_rejects_mismatched_table() {
        let state = bp().state();
        let err = Bpred::new(BpredConfig {
            counters: 128,
            ras_entries: 32,
        })
        .restore_state(&state)
        .unwrap_err();
        assert!(err.to_string().contains("table size mismatch"), "{err}");
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two() {
        let _ = Bpred::new(BpredConfig {
            counters: 100,
            ras_entries: 32,
        });
    }
}
