//! `sim-obs`: a lightweight, std-only tracing and metrics substrate for
//! the timing → power → thermal → RAMP pipeline and the DRM sweep engine.
//!
//! Three primitives, one global dispatcher:
//!
//! * **Spans** — RAII guards ([`span!`]) with monotonic timing, a
//!   process-unique id, a per-thread parent stack (so nested stages link
//!   up), and a cheap per-thread id.
//! * **Metrics** — typed counters, gauges, and histograms recorded into
//!   lock-free per-thread shards (each thread owns its atomic cells; a
//!   flush aggregates across shards), mirroring the sharding idiom of
//!   `drm::batch`.
//! * **Sinks** — pluggable [`Sink`] implementations: disabled (the
//!   default: a single relaxed atomic load, zero allocations), an
//!   in-memory aggregator ([`MemorySink`]) for tests and summary lines, a
//!   JSONL event writer ([`JsonlSink`]) for offline analysis with
//!   [`report`], and a stderr logger ([`StderrSink`]) gated by `RAMP_LOG`.
//!
//! On top of the cumulative core sit the live-telemetry layers: a
//! fixed-capacity ring of periodic snapshots sampled by a background
//! ticker ([`window`]), SLO evaluation over that ring ([`slo`]), and a
//! Chrome/Perfetto trace-event exporter ([`trace_event`],
//! `RAMP_TRACE_OUT=<path.json>`). None of them touch the recording hot
//! path — they only read snapshots.
//!
//! # Overhead contract
//!
//! When no sink is installed and recording is disabled (the default),
//! every macro compiles to a branch on one relaxed atomic load: no
//! allocation, no clock read, no lock. The disabled fast path is verified
//! by a counting-allocator test (`tests/no_alloc.rs`) and budgeted at
//! < 2% end-to-end throughput in `bench/benches/pipeline_end_to_end.rs`.
//!
//! # Precedence of the knobs
//!
//! * `--trace <path>` / `RAMP_TRACE=<path>` installs a [`JsonlSink`] and
//!   enables recording.
//! * `--metrics` / `RAMP_METRICS=1` installs a [`MemorySink`] aggregator
//!   and enables recording.
//! * `RAMP_LOG=off|error|warn|info|debug` independently gates
//!   human-readable stderr diagnostics (via [`StderrSink`]); it does not
//!   enable spans or metrics. Log events also land in any installed
//!   trace sink, so a JSONL trace captures them too.
//!
//! # Examples
//!
//! ```
//! use std::sync::Arc;
//!
//! let sink = Arc::new(sim_obs::MemorySink::new());
//! sim_obs::install_sink(sink.clone());
//! sim_obs::set_enabled(true);
//! {
//!     let _span = sim_obs::span!("thermal.solve");
//!     sim_obs::counter!("thermal.solves", 1);
//!     sim_obs::hist!("thermal.residual_k", 0.02);
//! }
//! sim_obs::flush();
//! assert_eq!(sink.spans().len(), 1);
//! assert_eq!(sink.spans()[0].name, "thermal.solve");
//! # sim_obs::reset_for_tests();
//! ```

pub mod json;
pub mod metrics;
pub mod report;
pub mod sink;
pub mod slo;
pub mod span;
pub mod trace_event;
pub mod window;

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::{Arc, OnceLock, PoisonError, RwLock};
use std::time::Instant;

pub use metrics::{Histogram, Metric, MetricValue, StageTimes};
pub use sink::{JsonlSink, LogEvent, MemorySink, NullSink, Sink, SpanEvent, StderrSink};
pub use slo::{FitBurnObjective, SloObjective, SloSet, SloStatus};
pub use span::SpanGuard;
pub use trace_event::TraceEventSink;
pub use window::{TickSnapshot, Ticker, WindowDelta, WindowRing};

/// Master switch for span and metric recording.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Current log level (a [`Level`] as `u8`).
static LOG_LEVEL: AtomicU8 = AtomicU8::new(0);

/// Installed sinks. The write lock is taken only on install/clear; event
/// dispatch takes the read lock.
static SINKS: RwLock<Vec<Arc<dyn Sink>>> = RwLock::new(Vec::new());

/// Process start, the zero point of every span's `start_ns`.
static PROCESS_EPOCH: OnceLock<Instant> = OnceLock::new();

/// Severity of a human-readable diagnostic, ordered `Error < Warn < Info
/// < Debug`. `Off` disables logging entirely.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Level {
    /// No diagnostics.
    Off = 0,
    /// Unrecoverable problems.
    Error = 1,
    /// Suspicious but survivable conditions.
    Warn = 2,
    /// High-level progress.
    Info = 3,
    /// Detailed per-stage chatter.
    Debug = 4,
}

impl Level {
    /// Parses `off|error|warn|info|debug` (case-insensitive). Unknown
    /// strings read as `Off`.
    #[must_use]
    pub fn parse(s: &str) -> Level {
        match s.to_ascii_lowercase().as_str() {
            "error" => Level::Error,
            "warn" | "warning" => Level::Warn,
            "info" => Level::Info,
            "debug" | "trace" => Level::Debug,
            _ => Level::Off,
        }
    }

    fn from_u8(v: u8) -> Level {
        match v {
            1 => Level::Error,
            2 => Level::Warn,
            3 => Level::Info,
            4 => Level::Debug,
            _ => Level::Off,
        }
    }

    /// Short lowercase name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Level::Off => "off",
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
        }
    }
}

impl fmt::Display for Level {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// True when span/metric recording is on. One relaxed atomic load — this
/// is the whole disabled-path cost of every `sim-obs` macro.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns span/metric recording on or off.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Sets the diagnostic log level.
pub fn set_log_level(level: Level) {
    LOG_LEVEL.store(level as u8, Ordering::Relaxed);
}

/// The current diagnostic log level.
pub fn log_level() -> Level {
    Level::from_u8(LOG_LEVEL.load(Ordering::Relaxed))
}

/// True when a diagnostic at `level` would be emitted.
#[inline]
pub fn log_enabled(level: Level) -> bool {
    level != Level::Off && level <= log_level()
}

/// Installs a sink; events are fanned out to every installed sink.
/// Installing a sink does *not* flip [`enabled`] — callers decide
/// (`RAMP_LOG` wants logs without span/metric overhead).
pub fn install_sink(sink: Arc<dyn Sink>) {
    SINKS
        .write()
        .unwrap_or_else(PoisonError::into_inner)
        .push(sink);
}

/// Nanoseconds since the process epoch (first call wins the zero point).
#[must_use]
pub fn since_epoch_ns() -> u64 {
    PROCESS_EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Runs `f` over every installed sink.
pub(crate) fn each_sink(f: impl Fn(&dyn Sink)) {
    let sinks = SINKS.read().unwrap_or_else(PoisonError::into_inner);
    for sink in sinks.iter() {
        f(sink.as_ref());
    }
}

/// Emits a diagnostic to every sink. Prefer the [`log_info!`]-family
/// macros, which skip formatting when the level is off.
pub fn log(level: Level, target: &str, args: fmt::Arguments<'_>) {
    let event = LogEvent {
        level,
        target: target.to_owned(),
        message: args.to_string(),
    };
    each_sink(|s| s.on_log(&event));
}

/// Aggregates the metric shards into one snapshot and hands it (plus a
/// flush) to every sink. Returns the snapshot for callers that want to
/// render it themselves.
pub fn flush() -> Vec<Metric> {
    let snapshot = metrics::snapshot();
    each_sink(|s| {
        s.on_metrics(&snapshot);
        s.on_flush();
    });
    snapshot
}

/// Reads `RAMP_LOG` and, when it names an active level, installs a
/// [`StderrSink`] at that level. Returns the level in effect. Idempotent
/// per process (a second call changes the level but installs no second
/// sink).
pub fn init_log_from_env() -> Level {
    static STDERR_INSTALLED: AtomicBool = AtomicBool::new(false);
    let level = std::env::var("RAMP_LOG")
        .map(|v| Level::parse(&v))
        .unwrap_or(Level::Off);
    set_log_level(level);
    if level != Level::Off && !STDERR_INSTALLED.swap(true, Ordering::SeqCst) {
        install_sink(Arc::new(StderrSink::new()));
    }
    level
}

/// Tears down all global state: sinks removed, recording disabled, log
/// level off, metric registry cleared. Test-only by convention.
pub fn reset_for_tests() {
    set_enabled(false);
    set_log_level(Level::Off);
    SINKS
        .write()
        .unwrap_or_else(PoisonError::into_inner)
        .clear();
    metrics::reset();
}

/// Opens a span: an RAII guard that, when recording is enabled, emits a
/// [`SpanEvent`] (name, thread, parent span, monotonic start + duration)
/// to every sink on drop. Disabled: no clock read, no allocation.
///
/// ```
/// let _span = sim_obs::span!("eval.timing");
/// ```
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        if $crate::enabled() {
            $crate::span::SpanGuard::active($name)
        } else {
            $crate::span::SpanGuard::disabled()
        }
    };
}

/// Adds `delta` to the named counter (per-thread shard; aggregated on
/// [`flush`]). The name expression is not evaluated when disabled.
#[macro_export]
macro_rules! counter {
    ($name:expr, $delta:expr) => {
        if $crate::enabled() {
            $crate::metrics::counter_add(&$name, $delta);
        }
    };
}

/// Sets the named gauge to `value` (last write across threads wins).
#[macro_export]
macro_rules! gauge {
    ($name:expr, $value:expr) => {
        if $crate::enabled() {
            $crate::metrics::gauge_set(&$name, $value);
        }
    };
}

/// Records `value` into the named histogram (count/sum/min/max plus
/// power-of-two buckets).
#[macro_export]
macro_rules! hist {
    ($name:expr, $value:expr) => {
        if $crate::enabled() {
            $crate::metrics::hist_record(&$name, $value);
        }
    };
}

/// Emits an `error`-level diagnostic: `log_error!("drm.batch", "lost {n}")`.
#[macro_export]
macro_rules! log_error {
    ($target:expr, $($arg:tt)+) => {
        if $crate::log_enabled($crate::Level::Error) {
            $crate::log($crate::Level::Error, $target, format_args!($($arg)+));
        }
    };
}

/// Emits a `warn`-level diagnostic.
#[macro_export]
macro_rules! log_warn {
    ($target:expr, $($arg:tt)+) => {
        if $crate::log_enabled($crate::Level::Warn) {
            $crate::log($crate::Level::Warn, $target, format_args!($($arg)+));
        }
    };
}

/// Emits an `info`-level diagnostic.
#[macro_export]
macro_rules! log_info {
    ($target:expr, $($arg:tt)+) => {
        if $crate::log_enabled($crate::Level::Info) {
            $crate::log($crate::Level::Info, $target, format_args!($($arg)+));
        }
    };
}

/// Emits a `debug`-level diagnostic.
#[macro_export]
macro_rules! log_debug {
    ($target:expr, $($arg:tt)+) => {
        if $crate::log_enabled($crate::Level::Debug) {
            $crate::log($crate::Level::Debug, $target, format_args!($($arg)+));
        }
    };
}

#[cfg(test)]
pub(crate) mod test_lock {
    use std::sync::{Mutex, MutexGuard, PoisonError};

    /// Serializes tests that touch the global dispatcher/registry.
    static LOCK: Mutex<()> = Mutex::new(());

    pub fn hold() -> MutexGuard<'static, ()> {
        LOCK.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_parsing_and_order() {
        assert_eq!(Level::parse("DEBUG"), Level::Debug);
        assert_eq!(Level::parse("warn"), Level::Warn);
        assert_eq!(Level::parse("nonsense"), Level::Off);
        assert!(Level::Error < Level::Debug);
        assert_eq!(Level::from_u8(Level::Info as u8), Level::Info);
    }

    #[test]
    fn disabled_by_default_and_toggles() {
        let _guard = test_lock::hold();
        reset_for_tests();
        assert!(!enabled());
        set_enabled(true);
        assert!(enabled());
        reset_for_tests();
        assert!(!enabled());
    }

    #[test]
    fn log_gating_respects_level() {
        let _guard = test_lock::hold();
        reset_for_tests();
        assert!(!log_enabled(Level::Error));
        set_log_level(Level::Warn);
        assert!(log_enabled(Level::Error));
        assert!(log_enabled(Level::Warn));
        assert!(!log_enabled(Level::Info));
        reset_for_tests();
    }

    #[test]
    fn memory_sink_receives_logs_and_metrics() {
        let _guard = test_lock::hold();
        reset_for_tests();
        let sink = Arc::new(MemorySink::new());
        install_sink(sink.clone());
        set_enabled(true);
        set_log_level(Level::Info);
        log_info!("test.target", "hello {}", 42);
        log_debug!("test.target", "filtered out");
        counter!("lib.test.counter", 3);
        flush();
        let logs = sink.logs();
        assert_eq!(logs.len(), 1);
        assert_eq!(logs[0].message, "hello 42");
        assert_eq!(logs[0].target, "test.target");
        let metrics = sink.metrics();
        assert!(metrics
            .iter()
            .any(|m| m.name == "lib.test.counter" && m.value == MetricValue::Counter(3)));
        reset_for_tests();
    }

    #[test]
    fn epoch_is_monotonic() {
        let a = since_epoch_ns();
        let b = since_epoch_ns();
        assert!(b >= a);
    }
}
