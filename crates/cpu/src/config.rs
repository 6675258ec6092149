//! Processor configuration (Table 1 of the paper, plus the DRM adaptation
//! knobs of §6.1).

use sim_common::{Hertz, SimError, Structure, Volts};

/// Geometry of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity (ways per set).
    pub assoc: u32,
    /// Line size in bytes.
    pub line_bytes: u32,
}

impl CacheConfig {
    /// Creates a validated geometry.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] for geometry that fails
    /// [`validate`](CacheConfig::validate).
    pub fn new(size_bytes: u64, assoc: u32, line_bytes: u32) -> Result<CacheConfig, SimError> {
        let config = CacheConfig {
            size_bytes,
            assoc,
            line_bytes,
        };
        config.validate("cache")?;
        Ok(config)
    }

    /// Number of sets.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] when the geometry fails
    /// [`validate`](CacheConfig::validate), so the division below can never
    /// panic on zero or inconsistent fields.
    pub fn sets(&self) -> Result<u64, SimError> {
        self.validate("cache")?;
        Ok(self.size_bytes / (self.assoc as u64 * self.line_bytes as u64))
    }

    /// Validates that the geometry is consistent and power-of-two sized.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] for zero or non-power-of-two
    /// fields, or when capacity is not divisible into sets.
    pub fn validate(&self, label: &str) -> Result<(), SimError> {
        let pow2 = |v: u64| v != 0 && v & (v - 1) == 0;
        if !pow2(self.size_bytes) || !pow2(self.assoc as u64) || !pow2(self.line_bytes as u64) {
            return Err(SimError::invalid_config(format!(
                "{label}: size, associativity and line size must be powers of two"
            )));
        }
        if self.size_bytes < self.assoc as u64 * self.line_bytes as u64 {
            return Err(SimError::invalid_config(format!(
                "{label}: capacity smaller than one set"
            )));
        }
        Ok(())
    }
}

/// Branch predictor configuration: bimodal agree predictor plus a return
/// address stack (Table 1: "2KB bimodal agree, 32 entry RAS").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BpredConfig {
    /// Number of 2-bit counters (2 KB ⇒ 8192 counters).
    pub counters: u32,
    /// Return address stack entries.
    pub ras_entries: u32,
}

/// Full core configuration.
///
/// [`CoreConfig::base`] reproduces Table 1; the `with_*` adaptation methods
/// produce the microarchitectural DRM configurations of §6.1 (combinations
/// of instruction-window size, ALU count and FPU count, down to a 16-entry
/// window with 2 ALUs and 1 FPU).
///
/// # Examples
///
/// ```
/// use sim_cpu::CoreConfig;
/// let base = CoreConfig::base();
/// assert_eq!(base.window_size, 128);
/// assert_eq!(base.issue_width(), 12); // 6 int + 4 fp + 2 addr-gen
///
/// let throttled = base.with_adaptation(16, 2, 1)?;
/// assert_eq!(throttled.issue_width(), 5);
/// # Ok::<(), sim_common::SimError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CoreConfig {
    /// Clock frequency (base: 4 GHz).
    pub frequency: Hertz,
    /// Supply voltage (base: 1.0 V at 65 nm).
    pub vdd: Volts,
    /// Instructions fetched per cycle (8).
    pub fetch_width: u32,
    /// Instructions retired per cycle (8).
    pub retire_width: u32,
    /// Fetch-to-dispatch pipeline depth in cycles.
    pub frontend_latency: u32,
    /// Extra redirect cycles charged after a mispredicted branch resolves.
    pub mispredict_redirect: u32,
    /// Centralized instruction window entries (issue queue + ROB; 128).
    pub window_size: u32,
    /// Physical integer registers (192).
    pub int_regs: u32,
    /// Physical floating-point registers (192).
    pub fp_regs: u32,
    /// Memory queue entries (32).
    pub mem_queue: u32,
    /// Active integer ALUs (6 in the base, adaptable down to 2).
    pub int_alus: u32,
    /// Active floating-point units (4 in the base, adaptable down to 1).
    pub fpus: u32,
    /// Address-generation units (2).
    pub addr_gens: u32,
    /// Branch predictor geometry.
    pub bpred: BpredConfig,
    /// L1 data cache (64 KB, 2-way, 64 B lines).
    pub l1d: CacheConfig,
    /// L1 instruction cache (32 KB, 2-way, 64 B lines).
    pub l1i: CacheConfig,
    /// Unified L2 (1 MB, 4-way, 64 B lines).
    pub l2: CacheConfig,
    /// L1 data cache ports (2).
    pub l1d_ports: u32,
    /// L1 data hit time in cycles (on-chip: scales with the clock).
    pub l1_hit_cycles: u32,
    /// L2 hit time in nanoseconds (off-chip: fixed in wall-clock time;
    /// 20 cycles at the 4 GHz base ⇒ 5 ns).
    pub l2_hit_ns: f64,
    /// Main-memory latency in nanoseconds (102 cycles at 4 GHz ⇒ 25.5 ns).
    pub mem_ns: f64,
    /// Outstanding L1D misses (MSHRs, 12).
    pub mshrs: u32,
    /// Tagged next-line prefetch on L1D misses. Table 1 lists no
    /// prefetcher, so the base configuration disables it; the `ablation`
    /// benchmark quantifies its effect.
    pub prefetch_next_line: bool,
}

/// Largest ALU pool of the adaptation space (the base configuration).
pub const MAX_INT_ALUS: u32 = 6;
/// Largest FPU pool of the adaptation space.
pub const MAX_FPUS: u32 = 4;
/// Largest instruction window of the adaptation space.
pub const MAX_WINDOW: u32 = 128;

impl CoreConfig {
    /// The base non-adaptive processor of Table 1: 65 nm, 1.0 V, 4 GHz,
    /// 8-wide, 128-entry window, 6 ALU / 4 FPU / 2 address-generation units.
    pub fn base() -> CoreConfig {
        CoreConfig {
            frequency: Hertz::from_ghz(4.0),
            vdd: Volts(1.0),
            fetch_width: 8,
            retire_width: 8,
            frontend_latency: 3,
            mispredict_redirect: 2,
            window_size: MAX_WINDOW,
            int_regs: 192,
            fp_regs: 192,
            mem_queue: 32,
            int_alus: MAX_INT_ALUS,
            fpus: MAX_FPUS,
            addr_gens: 2,
            bpred: BpredConfig {
                counters: 8192,
                ras_entries: 32,
            },
            l1d: CacheConfig {
                size_bytes: 64 * 1024,
                assoc: 2,
                line_bytes: 64,
            },
            l1i: CacheConfig {
                size_bytes: 32 * 1024,
                assoc: 2,
                line_bytes: 64,
            },
            l2: CacheConfig {
                size_bytes: 1024 * 1024,
                assoc: 4,
                line_bytes: 64,
            },
            l1d_ports: 2,
            l1_hit_cycles: 2,
            l2_hit_ns: 5.0,
            mem_ns: 25.5,
            mshrs: 12,
            prefetch_next_line: false,
        }
    }

    /// Returns a copy with the DRM microarchitectural adaptation applied:
    /// `window` instruction-window entries, `alus` integer ALUs and `fpus`
    /// floating-point units. The issue width tracks the active FU count
    /// (§6.1) automatically via [`issue_width`](CoreConfig::issue_width).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] when a value exceeds the base
    /// resources or is zero.
    pub fn with_adaptation(
        &self,
        window: u32,
        alus: u32,
        fpus: u32,
    ) -> Result<CoreConfig, SimError> {
        if window == 0 || window > MAX_WINDOW {
            return Err(SimError::invalid_config(format!(
                "window size {window} outside 1..={MAX_WINDOW}"
            )));
        }
        if alus == 0 || alus > MAX_INT_ALUS {
            return Err(SimError::invalid_config(format!(
                "ALU count {alus} outside 1..={MAX_INT_ALUS}"
            )));
        }
        if fpus == 0 || fpus > MAX_FPUS {
            return Err(SimError::invalid_config(format!(
                "FPU count {fpus} outside 1..={MAX_FPUS}"
            )));
        }
        let mut cfg = self.clone();
        cfg.window_size = window;
        cfg.int_alus = alus;
        cfg.fpus = fpus;
        Ok(cfg)
    }

    /// Returns a copy clocked at `frequency` with supply `vdd` (the DVS
    /// adaptation). Off-chip latencies stay fixed in nanoseconds, so their
    /// cycle counts scale with the clock.
    pub fn with_dvs(&self, frequency: Hertz, vdd: Volts) -> CoreConfig {
        let mut cfg = self.clone();
        cfg.frequency = frequency;
        cfg.vdd = vdd;
        cfg
    }

    /// Issue width: the sum of all active functional units (§6.1).
    pub fn issue_width(&self) -> u32 {
        self.int_alus + self.fpus + self.addr_gens
    }

    /// Fetch-queue capacity: the fetch-to-dispatch pipeline occupancy
    /// (width × depth) plus one cycle of slack, or Little's law caps fetch
    /// below its width.
    pub fn fetch_queue_capacity(&self) -> u32 {
        self.fetch_width * (self.frontend_latency + 2)
    }

    /// Most ops a processor holds fetched but uncommitted: a full window,
    /// a full fetch queue and one op held back at a fetch stall. A run
    /// that commits `n` instructions pulls at most `n` plus this many ops
    /// from its source.
    pub fn max_in_flight(&self) -> u64 {
        u64::from(self.window_size) + u64::from(self.fetch_queue_capacity()) + 1
    }

    /// L2 hit latency in cycles at the configured frequency.
    pub fn l2_hit_cycles(&self) -> u32 {
        (self.l2_hit_ns * 1e-9 * self.frequency.0).ceil() as u32
    }

    /// Main-memory latency in cycles at the configured frequency.
    pub fn mem_cycles(&self) -> u32 {
        (self.mem_ns * 1e-9 * self.frequency.0).ceil() as u32
    }

    /// Fraction of each structure that is powered on, relative to the most
    /// aggressive configuration. Powered-down resources have no current
    /// flow or supply, so their electromigration/TDDB FIT contribution and
    /// their leakage scale with this fraction (§6.1).
    pub fn powered_fraction(&self, structure: Structure) -> f64 {
        match structure {
            Structure::IntAlu => self.int_alus as f64 / MAX_INT_ALUS as f64,
            Structure::Fpu => self.fpus as f64 / MAX_FPUS as f64,
            Structure::Window => self.window_size as f64 / MAX_WINDOW as f64,
            _ => 1.0,
        }
    }

    /// Validates the whole configuration.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] when any width/size is zero, a
    /// cache geometry is invalid, or the frequency/voltage is non-positive.
    pub fn validate(&self) -> Result<(), SimError> {
        if self.frequency.0 <= 0.0 || !self.frequency.0.is_finite() {
            return Err(SimError::invalid_config("frequency must be positive"));
        }
        if self.vdd.0 <= 0.0 || !self.vdd.0.is_finite() {
            return Err(SimError::invalid_config("vdd must be positive"));
        }
        for (label, v) in [
            ("fetch_width", self.fetch_width),
            ("retire_width", self.retire_width),
            ("window_size", self.window_size),
            ("int_regs", self.int_regs),
            ("fp_regs", self.fp_regs),
            ("mem_queue", self.mem_queue),
            ("int_alus", self.int_alus),
            ("fpus", self.fpus),
            ("addr_gens", self.addr_gens),
            ("l1d_ports", self.l1d_ports),
            ("mshrs", self.mshrs),
            ("bpred counters", self.bpred.counters),
        ] {
            if v == 0 {
                return Err(SimError::invalid_config(format!(
                    "{label} must be non-zero"
                )));
            }
        }
        if self.int_regs < 64 || self.fp_regs < 64 {
            // Physical registers must at least cover the architectural state.
            return Err(SimError::invalid_config(
                "physical register files must hold the 64 architectural registers",
            ));
        }
        self.l1d.validate("l1d")?;
        self.l1i.validate("l1i")?;
        self.l2.validate("l2")?;
        if self.l2_hit_ns <= 0.0 || self.mem_ns <= self.l2_hit_ns {
            return Err(SimError::invalid_config(
                "memory latency must exceed L2 latency, both positive",
            ));
        }
        Ok(())
    }
}

impl Default for CoreConfig {
    fn default() -> Self {
        CoreConfig::base()
    }
}

/// Everything about a [`CoreConfig`] that cycle-level timing can observe.
///
/// The processor model uses `vdd` only for validation — voltage feeds
/// power and reliability, never cycle counts — so two configurations with
/// equal timing keys produce bit-identical [`IntervalStats`] for the same
/// instruction stream. That makes this the cache key for timing reuse
/// across a DVS voltage grid: N voltages at one frequency share one key.
///
/// Float fields (frequency, off-chip nanosecond latencies) are keyed by
/// their IEEE-754 bit patterns, so equality here is exactly "the timing
/// model sees the same numbers", with no rounding-induced aliasing.
///
/// [`IntervalStats`]: crate::IntervalStats
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimingKey {
    frequency_bits: u64,
    fetch_width: u32,
    retire_width: u32,
    frontend_latency: u32,
    mispredict_redirect: u32,
    window_size: u32,
    int_regs: u32,
    fp_regs: u32,
    mem_queue: u32,
    int_alus: u32,
    fpus: u32,
    addr_gens: u32,
    bpred: BpredConfig,
    l1d: CacheConfig,
    l1i: CacheConfig,
    l2: CacheConfig,
    l1d_ports: u32,
    l1_hit_cycles: u32,
    l2_hit_ns_bits: u64,
    mem_ns_bits: u64,
    mshrs: u32,
    prefetch_next_line: bool,
}

impl CoreConfig {
    /// The timing-relevant projection of this configuration: every field
    /// except `vdd`. See [`TimingKey`].
    pub fn timing_key(&self) -> TimingKey {
        TimingKey {
            frequency_bits: self.frequency.0.to_bits(),
            fetch_width: self.fetch_width,
            retire_width: self.retire_width,
            frontend_latency: self.frontend_latency,
            mispredict_redirect: self.mispredict_redirect,
            window_size: self.window_size,
            int_regs: self.int_regs,
            fp_regs: self.fp_regs,
            mem_queue: self.mem_queue,
            int_alus: self.int_alus,
            fpus: self.fpus,
            addr_gens: self.addr_gens,
            bpred: self.bpred,
            l1d: self.l1d,
            l1i: self.l1i,
            l2: self.l2,
            l1d_ports: self.l1d_ports,
            l1_hit_cycles: self.l1_hit_cycles,
            l2_hit_ns_bits: self.l2_hit_ns.to_bits(),
            mem_ns_bits: self.mem_ns.to_bits(),
            mshrs: self.mshrs,
            prefetch_next_line: self.prefetch_next_line,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_matches_table1() {
        let c = CoreConfig::base();
        assert_eq!(c.frequency, Hertz::from_ghz(4.0));
        assert_eq!(c.vdd, Volts(1.0));
        assert_eq!(c.fetch_width, 8);
        assert_eq!(c.window_size, 128);
        assert_eq!(c.int_regs, 192);
        assert_eq!(c.fp_regs, 192);
        assert_eq!(c.mem_queue, 32);
        assert_eq!(c.int_alus, 6);
        assert_eq!(c.fpus, 4);
        assert_eq!(c.addr_gens, 2);
        assert_eq!(c.l1d.size_bytes, 64 * 1024);
        assert_eq!(c.l1d.assoc, 2);
        assert_eq!(c.l1i.size_bytes, 32 * 1024);
        assert_eq!(c.l2.size_bytes, 1024 * 1024);
        assert_eq!(c.l2.assoc, 4);
        assert_eq!(c.mshrs, 12);
        assert_eq!(c.bpred.counters, 8192); // 2 KB of 2-bit counters
        assert_eq!(c.bpred.ras_entries, 32);
        c.validate().unwrap();
    }

    #[test]
    fn latencies_scale_with_frequency() {
        let base = CoreConfig::base();
        // Table 1 contention-less latencies at 4 GHz.
        assert_eq!(base.l2_hit_cycles(), 20);
        assert_eq!(base.mem_cycles(), 102);
        let slow = base.with_dvs(Hertz::from_ghz(2.0), Volts(0.8));
        assert_eq!(slow.l2_hit_cycles(), 10);
        assert_eq!(slow.mem_cycles(), 51);
        let fast = base.with_dvs(Hertz::from_ghz(5.0), Volts(1.15));
        assert_eq!(fast.l2_hit_cycles(), 25);
        assert_eq!(fast.mem_cycles(), 128);
    }

    #[test]
    fn adaptation_bounds() {
        let base = CoreConfig::base();
        assert!(base.with_adaptation(0, 2, 1).is_err());
        assert!(base.with_adaptation(16, 0, 1).is_err());
        assert!(base.with_adaptation(16, 2, 0).is_err());
        assert!(base.with_adaptation(256, 2, 1).is_err());
        assert!(base.with_adaptation(16, 8, 1).is_err());
        assert!(base.with_adaptation(16, 2, 8).is_err());
        let c = base.with_adaptation(32, 4, 2).unwrap();
        assert_eq!(c.window_size, 32);
        assert_eq!(c.issue_width(), 8);
        c.validate().unwrap();
    }

    #[test]
    fn powered_fraction_tracks_adaptation() {
        let c = CoreConfig::base().with_adaptation(16, 3, 1).unwrap();
        assert!((c.powered_fraction(Structure::Window) - 0.125).abs() < 1e-12);
        assert!((c.powered_fraction(Structure::IntAlu) - 0.5).abs() < 1e-12);
        assert!((c.powered_fraction(Structure::Fpu) - 0.25).abs() < 1e-12);
        assert_eq!(c.powered_fraction(Structure::Dcache), 1.0);
    }

    #[test]
    fn cache_sets() {
        let c = CoreConfig::base();
        assert_eq!(c.l1d.sets().unwrap(), 512);
        assert_eq!(c.l1i.sets().unwrap(), 256);
        assert_eq!(c.l2.sets().unwrap(), 4096);
    }

    #[test]
    fn cache_sets_rejects_invalid_geometry_instead_of_panicking() {
        // Regression: `sets()` used to divide by `assoc * line_bytes`
        // unconditionally, panicking on zeroed geometry.
        for bad in [
            CacheConfig {
                size_bytes: 1024,
                assoc: 0,
                line_bytes: 64,
            },
            CacheConfig {
                size_bytes: 1024,
                assoc: 2,
                line_bytes: 0,
            },
            CacheConfig {
                size_bytes: 0,
                assoc: 2,
                line_bytes: 64,
            },
            CacheConfig {
                size_bytes: 3000,
                assoc: 2,
                line_bytes: 64,
            },
            CacheConfig {
                size_bytes: 64,
                assoc: 4,
                line_bytes: 64,
            },
        ] {
            assert!(bad.sets().is_err(), "{bad:?} must be rejected");
            assert!(
                CacheConfig::new(bad.size_bytes, bad.assoc, bad.line_bytes).is_err(),
                "{bad:?} must not construct"
            );
        }
    }

    #[test]
    fn cache_config_new_validates() {
        let c = CacheConfig::new(64 * 1024, 2, 64).unwrap();
        assert_eq!(c, CoreConfig::base().l1d);
        assert_eq!(c.sets().unwrap(), 512);
    }

    #[test]
    fn validate_rejects_bad_cache() {
        let mut c = CoreConfig::base();
        c.l1d.size_bytes = 3000;
        assert!(c.validate().is_err());
    }

    #[test]
    fn validate_rejects_zero_frequency() {
        let mut c = CoreConfig::base();
        c.frequency = Hertz(0.0);
        assert!(c.validate().is_err());
    }

    #[test]
    fn validate_rejects_tiny_regfile() {
        let mut c = CoreConfig::base();
        c.int_regs = 32;
        assert!(c.validate().is_err());
    }

    #[test]
    fn timing_key_ignores_vdd_only() {
        let base = CoreConfig::base();
        // Voltage changes at fixed frequency share a key...
        let dvs = base.with_dvs(base.frequency, Volts(0.85));
        assert_eq!(base.timing_key(), dvs.timing_key());
        // ...while every timing-visible knob produces a distinct key.
        let freq = base.with_dvs(Hertz::from_ghz(3.5), base.vdd);
        assert_ne!(base.timing_key(), freq.timing_key());
        let arch = base.with_adaptation(64, 4, 2).unwrap();
        assert_ne!(base.timing_key(), arch.timing_key());
        let mut mem = base.clone();
        mem.mem_ns = 30.0;
        assert_ne!(base.timing_key(), mem.timing_key());
        let mut pf = base.clone();
        pf.prefetch_next_line = true;
        assert_ne!(base.timing_key(), pf.timing_key());
    }
}
