//! Pluggable event sinks: null, in-memory aggregator, stderr logger, and
//! JSONL writer.
//!
//! Sinks receive three event kinds — spans, logs, and metric snapshots —
//! and must be `Send + Sync` (events arrive from any thread).

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::{Mutex, PoisonError};

use crate::json::JsonObject;
use crate::metrics::{Metric, MetricValue};
use crate::Level;

/// A completed span, emitted when its guard drops.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanEvent {
    /// Process-unique span id (1-based).
    pub id: u64,
    /// Id of the enclosing span on the same thread, or 0 for a root.
    pub parent: u64,
    /// Dense id of the emitting thread.
    pub thread: u64,
    /// Stage name, e.g. `thermal.solve`.
    pub name: String,
    /// Monotonic nanoseconds since process epoch at open.
    pub start_ns: u64,
    /// Wall duration of the span in nanoseconds.
    pub duration_ns: u64,
}

/// A human-readable diagnostic.
#[derive(Debug, Clone, PartialEq)]
pub struct LogEvent {
    /// Severity.
    pub level: Level,
    /// Subsystem, e.g. `drm.batch`.
    pub target: String,
    /// Formatted message.
    pub message: String,
}

/// Receives observability events. All methods have no-op defaults so a
/// sink implements only what it cares about.
pub trait Sink: Send + Sync {
    /// A span closed.
    fn on_span(&self, _event: &SpanEvent) {}
    /// A diagnostic was logged.
    fn on_log(&self, _event: &LogEvent) {}
    /// A metric snapshot was aggregated (on [`crate::flush`]).
    fn on_metrics(&self, _snapshot: &[Metric]) {}
    /// A flush completed; persist buffered output.
    fn on_flush(&self) {}
}

/// Discards everything. Useful to exercise dispatch overhead without
/// side effects.
#[derive(Debug, Default)]
pub struct NullSink;

impl NullSink {
    /// A new null sink.
    #[must_use]
    pub fn new() -> NullSink {
        NullSink
    }
}

impl Sink for NullSink {}

/// Buffers every event in memory — the test aggregator, and the backing
/// store for in-process summary tables (bench sweep summaries).
#[derive(Debug, Default)]
pub struct MemorySink {
    spans: Mutex<Vec<SpanEvent>>,
    logs: Mutex<Vec<LogEvent>>,
    metrics: Mutex<Vec<Metric>>,
}

impl MemorySink {
    /// A new, empty sink.
    #[must_use]
    pub fn new() -> MemorySink {
        MemorySink::default()
    }

    /// All spans received so far.
    #[must_use]
    pub fn spans(&self) -> Vec<SpanEvent> {
        self.spans
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// All diagnostics received so far.
    #[must_use]
    pub fn logs(&self) -> Vec<LogEvent> {
        self.logs
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// The most recent metric snapshot (empty before the first flush).
    #[must_use]
    pub fn metrics(&self) -> Vec<Metric> {
        self.metrics
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// The latest value of one counter, if present in the last snapshot.
    #[must_use]
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.metrics().into_iter().find_map(|m| match m.value {
            MetricValue::Counter(v) if m.name == name => Some(v),
            _ => None,
        })
    }

    /// The latest value of one gauge, if present in the last snapshot.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.metrics().into_iter().find_map(|m| match m.value {
            MetricValue::Gauge(v) if m.name == name => Some(v),
            _ => None,
        })
    }

    /// The latest histogram under `name`, if present in the last snapshot.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<crate::Histogram> {
        self.metrics().into_iter().find_map(|m| match m.value {
            MetricValue::Histogram(h) if m.name == name => Some(*h),
            _ => None,
        })
    }

    /// Drops all buffered events.
    pub fn clear(&self) {
        self.spans
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clear();
        self.logs
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clear();
        self.metrics
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clear();
    }
}

impl Sink for MemorySink {
    fn on_span(&self, event: &SpanEvent) {
        self.spans
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(event.clone());
    }

    fn on_log(&self, event: &LogEvent) {
        self.logs
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(event.clone());
    }

    fn on_metrics(&self, snapshot: &[Metric]) {
        *self.metrics.lock().unwrap_or_else(PoisonError::into_inner) = snapshot.to_vec();
    }
}

/// Writes diagnostics to stderr as
/// `ramp[+<seconds>s][level] target: message`. Spans and metrics are
/// ignored — this sink exists for `RAMP_LOG`.
///
/// The leading `+<seconds>` is monotonic time since the process epoch
/// (millisecond resolution), so interleaved lines from concurrent
/// threads carry a total order even though stderr itself preserves only
/// per-write atomicity.
#[derive(Debug, Default)]
pub struct StderrSink;

impl StderrSink {
    /// A new stderr sink.
    #[must_use]
    pub fn new() -> StderrSink {
        StderrSink
    }
}

/// Formats one `RAMP_LOG` stderr line with its monotonic elapsed-time
/// prefix. Split out from the sink so the format is testable (and
/// parseable by [`parse_log_elapsed`]).
#[must_use]
pub fn format_log_line(elapsed_ns: u64, event: &LogEvent) -> String {
    format!(
        "ramp[+{:.3}s][{}] {}: {}",
        elapsed_ns as f64 / 1e9,
        event.level,
        event.target,
        event.message
    )
}

/// Parses the elapsed seconds back out of a [`format_log_line`] line;
/// `None` when the line does not carry the prefix.
#[must_use]
pub fn parse_log_elapsed(line: &str) -> Option<f64> {
    let rest = line.strip_prefix("ramp[+")?;
    let (seconds, _) = rest.split_once("s][")?;
    seconds.parse().ok()
}

impl Sink for StderrSink {
    fn on_log(&self, event: &LogEvent) {
        eprintln!("{}", format_log_line(crate::since_epoch_ns(), event));
    }
}

/// Streams every event as one JSON object per line — the `--trace`
/// format consumed by `ramp report` (see `crate::report`).
///
/// Line schema (flat objects, `type` discriminates):
///
/// ```json
/// {"type":"meta","version":1,"clock":"monotonic-ns"}
/// {"type":"span","id":7,"parent":3,"thread":2,"name":"eval.timing","start_ns":123,"duration_ns":456}
/// {"type":"log","level":"info","target":"drm.batch","message":"..."}
/// {"type":"counter","name":"drm.cache.hits","value":42}
/// {"type":"gauge","name":"fit.total","value":812.5}
/// {"type":"hist","name":"thermal.temp.fpu","count":3,"sum":1070.2,"min":350.1,"max":361.0,"mean":356.733}
/// ```
///
/// Floats are serialized with Rust's shortest-round-trip `Display`, so a
/// parsed gauge compares bit-exactly with the recorded value.
pub struct JsonlSink {
    out: Mutex<BufWriter<File>>,
}

impl JsonlSink {
    /// Creates (truncating) `path` and writes the meta header line.
    pub fn create(path: &Path) -> std::io::Result<JsonlSink> {
        let file = File::create(path)?;
        let mut out = BufWriter::new(file);
        let mut meta = JsonObject::new();
        meta.str("type", "meta");
        meta.u64("version", 1);
        meta.str("clock", "monotonic-ns");
        writeln!(out, "{}", meta.finish())?;
        Ok(JsonlSink {
            out: Mutex::new(out),
        })
    }

    fn write_line(&self, line: &str) {
        let mut out = self.out.lock().unwrap_or_else(PoisonError::into_inner);
        // Tracing must never take the simulation down with it.
        let _ = writeln!(out, "{line}");
    }
}

impl Sink for JsonlSink {
    fn on_span(&self, event: &SpanEvent) {
        let mut o = JsonObject::new();
        o.str("type", "span");
        o.u64("id", event.id);
        o.u64("parent", event.parent);
        o.u64("thread", event.thread);
        o.str("name", &event.name);
        o.u64("start_ns", event.start_ns);
        o.u64("duration_ns", event.duration_ns);
        self.write_line(&o.finish());
    }

    fn on_log(&self, event: &LogEvent) {
        let mut o = JsonObject::new();
        o.str("type", "log");
        o.str("level", event.level.name());
        o.str("target", &event.target);
        o.str("message", &event.message);
        self.write_line(&o.finish());
    }

    fn on_metrics(&self, snapshot: &[Metric]) {
        for metric in snapshot {
            let mut o = JsonObject::new();
            match &metric.value {
                MetricValue::Counter(v) => {
                    o.str("type", "counter");
                    o.str("name", &metric.name);
                    o.u64("value", *v);
                }
                MetricValue::Gauge(v) => {
                    o.str("type", "gauge");
                    o.str("name", &metric.name);
                    o.f64("value", *v);
                }
                MetricValue::Histogram(h) => {
                    o.str("type", "hist");
                    o.str("name", &metric.name);
                    o.u64("count", h.count());
                    o.f64("sum", h.sum());
                    o.f64("min", h.min());
                    o.f64("max", h.max());
                    o.f64("mean", h.mean());
                }
            }
            self.write_line(&o.finish());
        }
    }

    fn on_flush(&self) {
        let mut out = self.out.lock().unwrap_or_else(PoisonError::into_inner);
        let _ = out.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_sink_accessors() {
        let sink = MemorySink::new();
        sink.on_span(&SpanEvent {
            id: 1,
            parent: 0,
            thread: 1,
            name: "s".into(),
            start_ns: 0,
            duration_ns: 10,
        });
        sink.on_log(&LogEvent {
            level: Level::Warn,
            target: "t".into(),
            message: "m".into(),
        });
        sink.on_metrics(&[
            Metric {
                name: "c".into(),
                value: MetricValue::Counter(4),
            },
            Metric {
                name: "g".into(),
                value: MetricValue::Gauge(2.5),
            },
        ]);
        assert_eq!(sink.spans().len(), 1);
        assert_eq!(sink.logs().len(), 1);
        assert_eq!(sink.counter("c"), Some(4));
        assert_eq!(sink.gauge("g"), Some(2.5));
        assert_eq!(sink.counter("missing"), None);
        sink.clear();
        assert!(sink.spans().is_empty());
        assert!(sink.metrics().is_empty());
    }

    #[test]
    fn stderr_log_prefix_round_trips() {
        let event = LogEvent {
            level: Level::Info,
            target: "drm.batch".to_owned(),
            message: "evaluated 7 points".to_owned(),
        };
        let line = format_log_line(12_345_678_900, &event);
        assert!(
            line.ends_with("[info] drm.batch: evaluated 7 points"),
            "{line}"
        );
        let secs = parse_log_elapsed(&line).expect("prefix parses");
        assert!((secs - 12.346).abs() < 1e-9, "{secs}");
        // Prefixes order lines across threads.
        let earlier = format_log_line(1_000_000, &event);
        assert!(parse_log_elapsed(&earlier).unwrap() < secs);
        // Lines without the prefix refuse to parse.
        assert_eq!(parse_log_elapsed("ramp[info] x: y"), None);
        assert_eq!(parse_log_elapsed("unrelated"), None);
    }

    #[test]
    fn jsonl_sink_writes_parseable_lines() {
        let path =
            std::env::temp_dir().join(format!("sim-obs-sink-test-{}.jsonl", std::process::id()));
        let sink = JsonlSink::create(&path).unwrap();
        sink.on_span(&SpanEvent {
            id: 3,
            parent: 1,
            thread: 2,
            name: "eval \"quoted\"".into(),
            start_ns: 5,
            duration_ns: 9,
        });
        sink.on_metrics(&[Metric {
            name: "g".into(),
            value: MetricValue::Gauge(0.1 + 0.2),
        }]);
        sink.on_flush();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        let meta = crate::json::parse_object(lines[0]).unwrap();
        assert_eq!(meta.get_str("type"), Some("meta"));
        let span = crate::json::parse_object(lines[1]).unwrap();
        assert_eq!(span.get_str("name"), Some("eval \"quoted\""));
        assert_eq!(span.get_u64("duration_ns"), Some(9));
        let gauge = crate::json::parse_object(lines[2]).unwrap();
        // Shortest-round-trip floats parse back bit-exactly.
        assert_eq!(gauge.get_f64("value"), Some(0.1 + 0.2));
    }
}
