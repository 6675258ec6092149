//! Per-interval and per-run statistics, including the per-structure
//! activity factors consumed by the power and reliability models.
//!
//! The paper's RAMP model consumes, per structure, an *activity factor*
//! (switching probability / utilization, §3.1): the fraction of the
//! structure's peak access bandwidth actually used. We compute it as
//! `accesses / (cycles × peak accesses per cycle)`, with the peak defined
//! by the configuration (port counts, unit counts, widths), clamped to
//! `[0, 1]`.

use sim_common::{Structure, StructureMap};

use crate::bpred::BpredStats;
use crate::cache::CacheStats;
use crate::config::CoreConfig;
use crate::regfile::RegFileStats;

/// Raw event counters accumulated by the pipeline within one interval.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ActivityCounters {
    /// Instructions fetched into the fetch queue.
    pub fetched: u64,
    /// Window writes (dispatches).
    pub window_writes: u64,
    /// Window wakeup broadcasts (completions with a destination).
    pub window_wakeups: u64,
    /// Window issue selections.
    pub window_issues: u64,
    /// Memory-queue inserts (loads + stores dispatched).
    pub lsq_inserts: u64,
    /// Memory-queue associative searches (load issue, store insert).
    pub lsq_searches: u64,
    /// Integer-unit busy cycles.
    pub int_busy: u64,
    /// FP-unit busy cycles.
    pub fp_busy: u64,
    /// Address-generation-unit busy cycles.
    pub agen_busy: u64,
    /// Loads satisfied by store-to-load forwarding.
    pub forwards: u64,
    /// Cycles in which the window was empty at commit (frontend starved).
    pub cycles_window_empty: u64,
    /// Cycles in which commit was blocked on an in-flight memory operation
    /// at the window head.
    pub cycles_head_mem: u64,
    /// Cycles in which commit was blocked on a non-memory instruction at
    /// the window head (executing or waiting for operands/units).
    pub cycles_head_exec: u64,
    /// Cycles in which fetch was stalled (I-cache miss or unresolved
    /// mispredicted branch).
    pub cycles_fetch_stalled: u64,
    /// Committed instructions per op class, indexed by
    /// `workload::OpClass::index()` (the `OpClass::ALL` order). The
    /// per-class breakdown feeds the DRM surrogate's calibrated cost
    /// tables.
    pub class_commits: [u64; 11],
}

impl ActivityCounters {
    /// Total committed instructions across all op classes.
    pub fn total_commits(&self) -> u64 {
        self.class_commits.iter().sum()
    }
}

/// Statistics for one measurement interval.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct IntervalStats {
    /// Cycles elapsed in the interval.
    pub cycles: u64,
    /// Instructions committed in the interval.
    pub instructions: u64,
    /// Per-structure activity factors in `[0, 1]`.
    pub activity: StructureMap<f64>,
    /// Raw pipeline event counters.
    pub counters: ActivityCounters,
    /// Branch predictor statistics.
    pub bpred: BpredStats,
    /// L1 instruction cache statistics.
    pub l1i: CacheStats,
    /// L1 data cache statistics.
    pub l1d: CacheStats,
    /// Unified L2 statistics.
    pub l2: CacheStats,
    /// Integer register file port statistics.
    pub int_regfile: RegFileStats,
    /// FP register file port statistics.
    pub fp_regfile: RegFileStats,
}

impl IntervalStats {
    /// Builds interval statistics, deriving activity factors from the raw
    /// counters and the configuration's peak bandwidths.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_counters(
        config: &CoreConfig,
        cycles: u64,
        instructions: u64,
        counters: ActivityCounters,
        bpred: BpredStats,
        l1i: CacheStats,
        l1d: CacheStats,
        l2: CacheStats,
        int_regfile: RegFileStats,
        fp_regfile: RegFileStats,
    ) -> IntervalStats {
        let c = cycles.max(1) as f64;
        let ratio = |events: u64, peak_per_cycle: f64| -> f64 {
            (events as f64 / (c * peak_per_cycle.max(1e-9))).clamp(0.0, 1.0)
        };
        let issue_width = config.issue_width() as f64;
        let activity = StructureMap::from_fn(|s| match s {
            // One lookup stream + one update stream.
            Structure::Bpred => ratio(bpred.lookups + bpred.updates, 2.0),
            Structure::Icache => ratio(l1i.accesses, 1.0),
            Structure::Dcache => ratio(l1d.accesses, config.l1d_ports as f64),
            Structure::IntAlu => ratio(counters.int_busy, config.int_alus as f64),
            Structure::Fpu => ratio(counters.fp_busy, config.fpus as f64),
            Structure::IntRegFile => ratio(
                int_regfile.reads + int_regfile.writes,
                3.0 * (config.int_alus + config.addr_gens) as f64,
            ),
            Structure::FpRegFile => ratio(
                fp_regfile.reads + fp_regfile.writes,
                3.0 * config.fpus as f64,
            ),
            Structure::Window => ratio(
                counters.window_writes + counters.window_wakeups + counters.window_issues,
                config.fetch_width as f64 + 2.0 * issue_width,
            ),
            Structure::Lsq => ratio(
                counters.lsq_inserts + counters.lsq_searches,
                config.fetch_width as f64 / 2.0 + config.l1d_ports as f64,
            ),
        });
        IntervalStats {
            cycles,
            instructions,
            activity,
            counters,
            bpred,
            l1i,
            l1d,
            l2,
            int_regfile,
            fp_regfile,
        }
    }

    /// Instructions per cycle for the interval.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }
}

/// Statistics for a whole run, as a sequence of intervals.
#[derive(Debug, Clone, PartialEq)]
pub struct RunStats {
    intervals: Vec<IntervalStats>,
}

impl RunStats {
    /// Wraps per-interval statistics.
    pub fn new(intervals: Vec<IntervalStats>) -> RunStats {
        RunStats { intervals }
    }

    /// The measurement intervals in order.
    pub fn intervals(&self) -> &[IntervalStats] {
        &self.intervals
    }

    /// Total cycles across all intervals.
    pub fn cycles(&self) -> u64 {
        self.intervals.iter().map(|i| i.cycles).sum()
    }

    /// Total instructions across all intervals.
    pub fn instructions(&self) -> u64 {
        self.intervals.iter().map(|i| i.instructions).sum()
    }

    /// Whole-run IPC.
    pub fn ipc(&self) -> f64 {
        let cycles = self.cycles();
        if cycles == 0 {
            0.0
        } else {
            self.instructions() as f64 / cycles as f64
        }
    }

    /// Cycle-weighted mean activity per structure.
    pub fn mean_activity(&self) -> StructureMap<f64> {
        let total_cycles = self.cycles().max(1) as f64;
        StructureMap::from_fn(|s| {
            self.intervals
                .iter()
                .map(|i| i.activity[s] * i.cycles as f64)
                .sum::<f64>()
                / total_cycles
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats_with(cycles: u64, instructions: u64) -> IntervalStats {
        IntervalStats::from_counters(
            &CoreConfig::base(),
            cycles,
            instructions,
            ActivityCounters {
                int_busy: cycles * 3,
                ..ActivityCounters::default()
            },
            BpredStats::default(),
            CacheStats::default(),
            CacheStats::default(),
            CacheStats::default(),
            RegFileStats::default(),
            RegFileStats::default(),
        )
    }

    #[test]
    fn ipc_computation() {
        let s = stats_with(1000, 2500);
        assert!((s.ipc() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn activity_from_busy_cycles() {
        // 3 of 6 ALUs busy every cycle ⇒ activity 0.5.
        let s = stats_with(1000, 1000);
        assert!((s.activity[Structure::IntAlu] - 0.5).abs() < 1e-12);
        assert_eq!(s.activity[Structure::Fpu], 0.0);
    }

    #[test]
    fn activity_clamps_at_one() {
        let config = CoreConfig::base();
        let s = IntervalStats::from_counters(
            &config,
            10,
            10,
            ActivityCounters {
                int_busy: 10_000,
                ..ActivityCounters::default()
            },
            BpredStats::default(),
            CacheStats::default(),
            CacheStats::default(),
            CacheStats::default(),
            RegFileStats::default(),
            RegFileStats::default(),
        );
        assert_eq!(s.activity[Structure::IntAlu], 1.0);
    }

    #[test]
    fn zero_cycle_interval_is_safe() {
        let s = stats_with(0, 0);
        assert_eq!(s.ipc(), 0.0);
        assert!(s.activity[Structure::IntAlu].is_finite());
    }

    #[test]
    fn run_stats_aggregate() {
        let run = RunStats::new(vec![stats_with(1000, 1000), stats_with(3000, 9000)]);
        assert_eq!(run.cycles(), 4000);
        assert_eq!(run.instructions(), 10_000);
        assert!((run.ipc() - 2.5).abs() < 1e-12);
        // Both intervals have IntAlu activity 0.5 ⇒ weighted mean 0.5.
        assert!((run.mean_activity()[Structure::IntAlu] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_run_is_safe() {
        let run = RunStats::new(Vec::new());
        assert_eq!(run.ipc(), 0.0);
        assert_eq!(run.mean_activity()[Structure::Fpu], 0.0);
    }
}
