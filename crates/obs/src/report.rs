//! Offline analysis of a JSONL trace: the flamegraph-style per-stage
//! wall-time summary and the hottest-structure table behind
//! `ramp report`.
//!
//! Self (exclusive) time per stage is computed bottom-up: each span's
//! self time is its duration minus the summed durations of its direct
//! children, and stages aggregate self time across all spans sharing a
//! name. Shares are self time over total self time, so the stage table
//! always sums to 100%.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::path::Path;

use crate::json::{parse_object, ParsedObject};
use crate::metrics::MetricValue;
use crate::sink::{LogEvent, SpanEvent};
use crate::Level;

/// A metric line read back from a trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceMetric {
    /// Metric name.
    pub name: String,
    /// Parsed value (histograms carry summary stats only).
    pub value: TraceMetricValue,
}

/// A trace metric's value. Histogram lines keep their summary statistics
/// (buckets are not serialized).
#[derive(Debug, Clone, PartialEq)]
pub enum TraceMetricValue {
    /// A summed counter.
    Counter(u64),
    /// The final gauge value (bit-exact: floats are serialized with
    /// shortest-round-trip formatting).
    Gauge(f64),
    /// Histogram summary: `(count, sum, min, max, mean)`.
    HistSummary {
        /// Sample count.
        count: u64,
        /// Sum of samples.
        sum: f64,
        /// Smallest sample.
        min: f64,
        /// Largest sample.
        max: f64,
        /// Mean sample.
        mean: f64,
    },
}

/// Everything parsed from one JSONL trace file.
#[derive(Debug, Default, Clone)]
pub struct Trace {
    /// All spans, in file order.
    pub spans: Vec<SpanEvent>,
    /// All diagnostics, in file order.
    pub logs: Vec<LogEvent>,
    /// All metric lines; later flushes of the same name supersede
    /// earlier ones (last wins, matching snapshot semantics).
    pub metrics: Vec<TraceMetric>,
    /// Lines that failed to parse (line number, content).
    pub malformed: Vec<(usize, String)>,
}

impl Trace {
    /// The final value of a metric by name.
    #[must_use]
    pub fn metric(&self, name: &str) -> Option<&TraceMetricValue> {
        // Last occurrence wins: each flush rewrites the snapshot.
        self.metrics
            .iter()
            .rev()
            .find(|m| m.name == name)
            .map(|m| &m.value)
    }

    /// The final value of a gauge by name.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Option<f64> {
        match self.metric(name) {
            Some(TraceMetricValue::Gauge(v)) => Some(*v),
            _ => None,
        }
    }

    /// The final value of a counter by name.
    #[must_use]
    pub fn counter(&self, name: &str) -> Option<u64> {
        match self.metric(name) {
            Some(TraceMetricValue::Counter(v)) => Some(*v),
            _ => None,
        }
    }
}

fn metric_from(obj: &ParsedObject, kind: &str) -> Option<TraceMetric> {
    let name = obj.get_str("name")?.to_owned();
    let value = match kind {
        "counter" => TraceMetricValue::Counter(obj.get_u64("value")?),
        "gauge" => TraceMetricValue::Gauge(obj.get_f64("value")?),
        "hist" => TraceMetricValue::HistSummary {
            count: obj.get_u64("count")?,
            sum: obj.get_f64("sum")?,
            min: obj.get_f64("min").unwrap_or(f64::INFINITY),
            max: obj.get_f64("max").unwrap_or(f64::NEG_INFINITY),
            mean: obj.get_f64("mean")?,
        },
        _ => return None,
    };
    Some(TraceMetric { name, value })
}

/// Parses JSONL trace text (see [`crate::JsonlSink`] for the schema).
#[must_use]
pub fn parse_trace(text: &str) -> Trace {
    let mut trace = Trace::default();
    for (idx, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let Some(obj) = parse_object(line) else {
            trace.malformed.push((idx + 1, line.to_owned()));
            continue;
        };
        match obj.get_str("type") {
            Some("span") => {
                let span = (|| {
                    Some(SpanEvent {
                        id: obj.get_u64("id")?,
                        parent: obj.get_u64("parent")?,
                        thread: obj.get_u64("thread")?,
                        name: obj.get_str("name")?.to_owned(),
                        start_ns: obj.get_u64("start_ns")?,
                        duration_ns: obj.get_u64("duration_ns")?,
                    })
                })();
                match span {
                    Some(s) => trace.spans.push(s),
                    None => trace.malformed.push((idx + 1, line.to_owned())),
                }
            }
            Some("log") => {
                let level = Level::parse(obj.get_str("level").unwrap_or(""));
                trace.logs.push(LogEvent {
                    level,
                    target: obj.get_str("target").unwrap_or("").to_owned(),
                    message: obj.get_str("message").unwrap_or("").to_owned(),
                });
            }
            Some(kind @ ("counter" | "gauge" | "hist")) => match metric_from(&obj, kind) {
                Some(m) => trace.metrics.push(m),
                None => trace.malformed.push((idx + 1, line.to_owned())),
            },
            Some("meta") => {}
            _ => trace.malformed.push((idx + 1, line.to_owned())),
        }
    }
    trace
}

/// Reads and parses a trace file.
pub fn read_trace(path: &Path) -> std::io::Result<Trace> {
    Ok(parse_trace(&std::fs::read_to_string(path)?))
}

/// One row of the per-stage wall-time summary.
#[derive(Debug, Clone, PartialEq)]
pub struct StageRow {
    /// Span name.
    pub name: String,
    /// Number of spans with this name.
    pub count: u64,
    /// Total (inclusive) nanoseconds across those spans.
    pub total_ns: u64,
    /// Self (exclusive) nanoseconds: total minus direct children.
    pub self_ns: u64,
    /// Share of global self time, in percent. All rows sum to 100.
    pub share_pct: f64,
}

/// Aggregates spans into per-stage rows, ordered by descending self
/// time. Shares are fractions of total self time and sum to 100% (when
/// any time was recorded at all).
#[must_use]
pub fn stage_summary(spans: &[SpanEvent]) -> Vec<StageRow> {
    let mut child_ns: HashMap<u64, u64> = HashMap::new();
    for span in spans {
        if span.parent != 0 {
            *child_ns.entry(span.parent).or_insert(0) += span.duration_ns;
        }
    }
    let mut stages: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
    for span in spans {
        let children = child_ns.get(&span.id).copied().unwrap_or(0);
        // Clock jitter can make summed children exceed the parent.
        let self_ns = span.duration_ns.saturating_sub(children);
        let entry = stages.entry(&span.name).or_insert((0, 0, 0));
        entry.0 += 1;
        entry.1 += span.duration_ns;
        entry.2 += self_ns;
    }
    let total_self: u64 = stages.values().map(|(_, _, s)| *s).sum();
    let mut rows: Vec<StageRow> = stages
        .into_iter()
        .map(|(name, (count, total_ns, self_ns))| StageRow {
            name: name.to_owned(),
            count,
            total_ns,
            self_ns,
            share_pct: if total_self == 0 {
                0.0
            } else {
                self_ns as f64 / total_self as f64 * 100.0
            },
        })
        .collect();
    rows.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then(a.name.cmp(&b.name)));
    rows
}

/// One row of the hottest-structure table, from `thermal.temp.<s>`
/// histograms.
#[derive(Debug, Clone, PartialEq)]
pub struct HotStructure {
    /// Structure name (e.g. `fp-reg-file`).
    pub structure: String,
    /// Peak temperature seen, Kelvin.
    pub max_k: f64,
    /// Mean temperature, Kelvin.
    pub mean_k: f64,
    /// Number of samples.
    pub samples: u64,
}

/// Extracts per-structure temperature statistics, hottest (by peak)
/// first.
#[must_use]
pub fn hottest_structures(trace: &Trace) -> Vec<HotStructure> {
    let mut seen: BTreeMap<&str, &TraceMetricValue> = BTreeMap::new();
    for m in &trace.metrics {
        if let Some(structure) = m.name.strip_prefix("thermal.temp.") {
            seen.insert(structure, &m.value); // last flush wins
        }
    }
    let mut rows: Vec<HotStructure> = seen
        .into_iter()
        .filter_map(|(structure, value)| match value {
            TraceMetricValue::HistSummary {
                count, max, mean, ..
            } => Some(HotStructure {
                structure: structure.to_owned(),
                max_k: *max,
                mean_k: *mean,
                samples: *count,
            }),
            _ => None,
        })
        .collect();
    rows.sort_by(|a, b| {
        b.max_k
            .partial_cmp(&a.max_k)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.structure.cmp(&b.structure))
    });
    rows
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// Renders the full `ramp report` text: stage table, hottest structures
/// (top `top_n`), FIT gauges if present, and trace totals.
#[must_use]
pub fn render(trace: &Trace, top_n: usize) -> String {
    let mut out = String::new();
    let stages = stage_summary(&trace.spans);
    let _ = writeln!(
        out,
        "trace: {} spans, {} metrics, {} log lines{}",
        trace.spans.len(),
        trace.metrics.len(),
        trace.logs.len(),
        if trace.malformed.is_empty() {
            String::new()
        } else {
            format!(" ({} malformed lines skipped)", trace.malformed.len())
        }
    );
    let _ = writeln!(out);
    let _ = writeln!(out, "stage time (self = excluding child stages)");
    let _ = writeln!(
        out,
        "  {:<28} {:>8} {:>12} {:>12} {:>7}",
        "stage", "count", "total", "self", "share"
    );
    if stages.is_empty() {
        let _ = writeln!(out, "  (no spans in trace)");
    }
    for row in &stages {
        let _ = writeln!(
            out,
            "  {:<28} {:>8} {:>12} {:>12} {:>6.2}%",
            row.name,
            row.count,
            fmt_ns(row.total_ns),
            fmt_ns(row.self_ns),
            row.share_pct
        );
    }
    let share_total: f64 = stages.iter().map(|r| r.share_pct).sum();
    if !stages.is_empty() {
        let _ = writeln!(
            out,
            "  {:<28} {:>8} {:>12} {:>12} {:>6.2}%",
            "", "", "", "", share_total
        );
    }

    let hot = hottest_structures(trace);
    if !hot.is_empty() {
        let _ = writeln!(out);
        let _ = writeln!(out, "hottest structures (top {top_n})");
        let _ = writeln!(
            out,
            "  {:<16} {:>10} {:>10} {:>8}",
            "structure", "peak K", "mean K", "samples"
        );
        for row in hot.iter().take(top_n) {
            let _ = writeln!(
                out,
                "  {:<16} {:>10.2} {:>10.2} {:>8}",
                row.structure, row.max_k, row.mean_k, row.samples
            );
        }
    }

    let reuse: Vec<(&str, Option<u64>, Option<u64>)> = vec![
        (
            "eval cache (hit/miss)",
            trace.counter("drm.cache.hits"),
            trace.counter("drm.cache.misses"),
        ),
        (
            "timing cache (hit/miss)",
            trace.counter("drm.timing_cache.hit"),
            trace.counter("drm.timing_cache.miss"),
        ),
        (
            "thermal LU (reused/solves)",
            trace.counter("thermal.factor_reuse"),
            trace.counter("thermal.solves"),
        ),
    ];
    if reuse.iter().any(|(_, a, b)| a.is_some() || b.is_some()) {
        let _ = writeln!(out);
        let _ = writeln!(out, "caches and reuse");
        for (label, a, b) in reuse {
            if a.is_none() && b.is_none() {
                continue;
            }
            let a = a.unwrap_or(0);
            let b = b.unwrap_or(0);
            let denom = a + if label.starts_with("thermal") { 0 } else { b };
            let rate = if label.starts_with("thermal") {
                // Reused factorizations per solve.
                if b == 0 {
                    0.0
                } else {
                    a as f64 / b as f64 * 100.0
                }
            } else if denom == 0 {
                0.0
            } else {
                a as f64 / denom as f64 * 100.0
            };
            let _ = writeln!(out, "  {label:<28} {a:>10} / {b:<10} {rate:>6.1}%");
        }
    }

    // The two-phase surrogate search summary, present when a DRM search
    // ran with the surrogate enabled: how many candidates the analytical
    // first pass scored, how few survived to the cycle-level second
    // pass, and how far the predictions strayed from the exact results.
    if let Some(scored) = trace.counter("surrogate.score") {
        let promoted = trace.counter("surrogate.promoted").unwrap_or(0);
        let verified = trace.counter("surrogate.verified").unwrap_or(0);
        let calibrations = trace.counter("surrogate.calibrations").unwrap_or(0);
        let pruned_pct = if scored == 0 {
            0.0
        } else {
            (1.0 - promoted as f64 / scored as f64) * 100.0
        };
        let _ = writeln!(out);
        let _ = writeln!(out, "surrogate search");
        let _ = writeln!(out, "  {:<28} {scored:>10}", "candidates scored");
        let _ = writeln!(
            out,
            "  {:<28} {promoted:>10} ({pruned_pct:.1}% pruned)",
            "promoted to exact"
        );
        let _ = writeln!(out, "  {:<28} {verified:>10}", "exact evals verified");
        let _ = writeln!(out, "  {:<28} {calibrations:>10}", "calibration tables");
        for (label, name) in [
            ("rel error perf (mean/max)", "surrogate.error.rel_perf"),
            ("rel error temp (mean/max)", "surrogate.error.rel_temp"),
            ("rel error fit (mean/max)", "surrogate.error.rel_fit"),
        ] {
            if let Some(TraceMetricValue::HistSummary { mean, max, .. }) = trace.metric(name) {
                let _ = writeln!(out, "  {label:<28} {mean:>10.4} / {max:<10.4}");
            }
        }
    }

    // Slice-checkpoint reuse, present when a sliced evaluation ran with a
    // checkpoint directory: cuts persist warm state, resumes read it back
    // for the parallel slice path.
    let cuts = trace.counter("slice.cut");
    let resumes = trace.counter("slice.resume");
    if cuts.is_some() || resumes.is_some() {
        let cut = cuts.unwrap_or(0);
        let resume = resumes.unwrap_or(0);
        let bytes = trace.counter("slice.bytes").unwrap_or(0);
        let _ = writeln!(out);
        let _ = writeln!(out, "slices and checkpoints");
        let _ = writeln!(
            out,
            "  {:<28} {cut:>10} / {resume:<10}",
            "checkpoints (cut/resumed)"
        );
        let _ = writeln!(out, "  {:<28} {bytes:>10}", "checkpoint bytes moved");
    }

    // The serving layer's traffic summary, present when the trace came
    // from `ramp serve`. Evaluation work done on behalf of clients still
    // lands in the "caches and reuse" section above — the server shares
    // the same engine counters — so this section only adds the
    // network-facing view: traffic, shedding, batching, latency.
    if let Some(requests) = trace.counter("server.requests") {
        let _ = writeln!(out);
        let _ = writeln!(out, "server");
        let _ = writeln!(out, "  {:<28} {requests:>10}", "requests (lines received)");
        let counters = [
            ("connections", "server.connections"),
            ("shed (busy responses)", "server.shed"),
            ("protocol errors", "server.protocol_errors"),
        ];
        for (label, name) in counters {
            if let Some(v) = trace.counter(name) {
                let _ = writeln!(out, "  {label:<28} {v:>10}");
            }
        }
        if let Some(TraceMetricValue::HistSummary { count, sum, .. }) =
            trace.metric("server.batch.size")
        {
            let occupancy = if *count == 0 {
                0.0
            } else {
                sum / *count as f64
            };
            let _ = writeln!(
                out,
                "  {:<28} {count:>10} ({occupancy:.1} req/batch)",
                "batches"
            );
        }
        if let Some(TraceMetricValue::HistSummary {
            count,
            min,
            max,
            mean,
            ..
        }) = trace.metric("server.request.latency_ms")
        {
            let _ = writeln!(
                out,
                "  {:<28} {count:>10} (mean {mean:.2} ms, min {min:.2}, max {max:.2})",
                "queued request latency"
            );
        }
        if let Some(depth) = trace.gauge("server.queue.depth") {
            let _ = writeln!(out, "  {:<28} {depth:>10.0}", "final queue depth");
        }
    }

    // Service-level objectives, present when a telemetry-enabled run
    // published `slo.*` gauges (the server's SLO ticker, or any direct
    // `SloSet::evaluate` caller). One row per objective; `slo.fit` is
    // the FIT-budget burn objective and reports fractions, not ms.
    let mut slo_names: Vec<&str> = trace
        .metrics
        .iter()
        .filter_map(|m| {
            m.name
                .strip_prefix("slo.")
                .and_then(|rest| rest.strip_suffix(".ok"))
        })
        .collect();
    slo_names.sort_unstable();
    slo_names.dedup();
    if !slo_names.is_empty() {
        let _ = writeln!(out);
        let _ = writeln!(out, "service-level objectives");
        for name in slo_names {
            let ok = trace.gauge(&format!("slo.{name}.ok")).unwrap_or(1.0) >= 0.5;
            let remaining = trace
                .gauge(&format!("slo.{name}.budget_remaining"))
                .unwrap_or(0.0);
            let detail = if name == "fit" {
                let burn = trace.gauge("slo.fit.burn").unwrap_or(0.0);
                let max = trace.gauge("slo.fit.max_burn").unwrap_or(0.0);
                format!(
                    "burn {:.1}% of the {:.0}% allowed",
                    burn * 100.0,
                    max * 100.0
                )
            } else {
                let attained = trace
                    .gauge(&format!("slo.{name}.attained_ms"))
                    .unwrap_or(0.0);
                let target = trace.gauge(&format!("slo.{name}.target_ms")).unwrap_or(0.0);
                format!("attained {attained:.2} ms vs {target:.2} ms target")
            };
            let _ = writeln!(
                out,
                "  {name:<16} {:<9} {detail}, {:.0}% budget left",
                if ok { "met" } else { "VIOLATED" },
                remaining * 100.0
            );
        }
    }

    // The fleet population summary, present when the trace came from a
    // `ramp fleet` run (or the server's `fleet` verb).
    if let Some(dies) = trace.counter("fleet.dies") {
        let _ = writeln!(out);
        let _ = writeln!(out, "fleet population");
        let _ = writeln!(out, "  {:<28} {dies:>10}", "dies sampled");
        if let Some(violations) = trace.counter("fleet.violations") {
            let frac = trace.gauge("fleet.violation_fraction").unwrap_or(0.0);
            let _ = writeln!(
                out,
                "  {:<28} {violations:>10} ({:.2}% of the fleet)",
                "FIT-budget violations",
                frac * 100.0
            );
        }
        if let (Some(p50), Some(p95)) = (trace.gauge("fleet.fit_p50"), trace.gauge("fleet.fit_p95"))
        {
            let _ = writeln!(out, "  {:<28} {p50:>10.0} / {p95:<10.0}", "FIT p50 / p95");
        }
        let life: Vec<(&str, Option<f64>)> = vec![
            ("p1", trace.gauge("fleet.life_p1_y")),
            ("p5", trace.gauge("fleet.life_p5_y")),
            ("p50", trace.gauge("fleet.life_p50_y")),
            ("p95", trace.gauge("fleet.life_p95_y")),
        ];
        if life.iter().any(|(_, v)| v.is_some()) {
            let curve: Vec<String> = life
                .iter()
                .filter_map(|(q, v)| v.map(|v| format!("{q} {v:.1}")))
                .collect();
            let _ = writeln!(out, "  {:<28} {}", "lifetime years", curve.join(" | "));
        }
        if let Some(rate) = trace.gauge("fleet.dies_per_sec") {
            let _ = writeln!(out, "  {:<28} {:>10.0}", "dies per second", rate);
        }
    }

    let fits: Vec<(&str, f64)> = trace
        .metrics
        .iter()
        .filter_map(|m| match &m.value {
            TraceMetricValue::Gauge(v) if m.name.starts_with("fit.structure.") => {
                Some((m.name.strip_prefix("fit.structure.").unwrap(), *v))
            }
            _ => None,
        })
        .collect();
    if let Some(total) = trace.gauge("fit.total") {
        let _ = writeln!(out);
        let _ = writeln!(out, "reliability (FIT)");
        let mut latest: BTreeMap<&str, f64> = BTreeMap::new();
        for (name, v) in fits {
            latest.insert(name, v);
        }
        let mut rows: Vec<(&str, f64)> = latest.into_iter().collect();
        rows.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        for (name, v) in rows.iter().take(top_n) {
            let _ = writeln!(out, "  {name:<16} {v:>12.3}");
        }
        let _ = writeln!(out, "  {:<16} {total:>12.3}", "total");
    }
    out
}

/// Convenience used by metric tests: snapshot value as trace value.
#[must_use]
pub fn trace_value(value: &MetricValue) -> TraceMetricValue {
    match value {
        MetricValue::Counter(v) => TraceMetricValue::Counter(*v),
        MetricValue::Gauge(v) => TraceMetricValue::Gauge(*v),
        MetricValue::Histogram(h) => TraceMetricValue::HistSummary {
            count: h.count(),
            sum: h.sum(),
            min: h.min(),
            max: h.max(),
            mean: h.mean(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &str, duration_ns: u64) -> SpanEvent {
        SpanEvent {
            id,
            parent,
            thread: 1,
            name: name.to_owned(),
            start_ns: 0,
            duration_ns,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children() {
        let spans = vec![
            span(1, 0, "eval", 100),
            span(2, 1, "eval.timing", 60),
            span(3, 1, "eval.thermal", 30),
            span(4, 3, "thermal.solve", 25),
        ];
        let rows = stage_summary(&spans);
        let get = |n: &str| rows.iter().find(|r| r.name == n).unwrap();
        assert_eq!(get("eval").self_ns, 10);
        assert_eq!(get("eval.timing").self_ns, 60);
        assert_eq!(get("eval.thermal").self_ns, 5);
        assert_eq!(get("thermal.solve").self_ns, 25);
        let share: f64 = rows.iter().map(|r| r.share_pct).sum();
        assert!((share - 100.0).abs() < 1e-9);
        // Ordered by descending self time.
        assert_eq!(rows[0].name, "eval.timing");
    }

    #[test]
    fn self_time_saturates_on_jitter() {
        // Children sum past the parent (clock jitter): no underflow.
        let spans = vec![span(1, 0, "p", 10), span(2, 1, "c", 15)];
        let rows = stage_summary(&spans);
        assert_eq!(rows.iter().find(|r| r.name == "p").unwrap().self_ns, 0);
    }

    #[test]
    fn parse_trace_round_trips_and_last_metric_wins() {
        let text = concat!(
            "{\"type\":\"meta\",\"version\":1,\"clock\":\"monotonic-ns\"}\n",
            "{\"type\":\"span\",\"id\":1,\"parent\":0,\"thread\":1,\"name\":\"eval\",\"start_ns\":0,\"duration_ns\":50}\n",
            "{\"type\":\"counter\",\"name\":\"drm.cache.hits\",\"value\":1}\n",
            "{\"type\":\"counter\",\"name\":\"drm.cache.hits\",\"value\":7}\n",
            "{\"type\":\"gauge\",\"name\":\"fit.total\",\"value\":812.25}\n",
            "{\"type\":\"log\",\"level\":\"info\",\"target\":\"t\",\"message\":\"m\"}\n",
            "not json\n",
        );
        let trace = parse_trace(text);
        assert_eq!(trace.spans.len(), 1);
        assert_eq!(trace.counter("drm.cache.hits"), Some(7));
        assert_eq!(trace.gauge("fit.total"), Some(812.25));
        assert_eq!(trace.logs.len(), 1);
        assert_eq!(trace.malformed.len(), 1);
        assert_eq!(trace.malformed[0].0, 7);
    }

    #[test]
    fn render_includes_stages_structures_and_fit() {
        let text = concat!(
            "{\"type\":\"span\",\"id\":1,\"parent\":0,\"thread\":1,\"name\":\"eval\",\"start_ns\":0,\"duration_ns\":1000}\n",
            "{\"type\":\"hist\",\"name\":\"thermal.temp.fpu\",\"count\":2,\"sum\":700.0,\"min\":345.0,\"max\":355.0,\"mean\":350.0}\n",
            "{\"type\":\"hist\",\"name\":\"thermal.temp.icache\",\"count\":2,\"sum\":690.0,\"min\":340.0,\"max\":350.0,\"mean\":345.0}\n",
            "{\"type\":\"gauge\",\"name\":\"fit.structure.fpu\",\"value\":120.5}\n",
            "{\"type\":\"gauge\",\"name\":\"fit.total\",\"value\":812.25}\n",
        );
        let trace = parse_trace(text);
        let hot = hottest_structures(&trace);
        assert_eq!(hot[0].structure, "fpu");
        assert_eq!(hot[0].max_k, 355.0);
        let text = render(&trace, 5);
        assert!(text.contains("eval"));
        assert!(text.contains("100.00%"));
        assert!(text.contains("fpu"));
        assert!(text.contains("812.250"));
    }

    #[test]
    fn render_handles_empty_trace() {
        let text = render(&Trace::default(), 5);
        assert!(text.contains("no spans"));
        assert!(!text.contains("caches and reuse"));
    }

    #[test]
    fn render_includes_cache_and_reuse_counters() {
        let text = concat!(
            "{\"type\":\"counter\",\"name\":\"drm.cache.hits\",\"value\":6}\n",
            "{\"type\":\"counter\",\"name\":\"drm.cache.misses\",\"value\":2}\n",
            "{\"type\":\"counter\",\"name\":\"drm.timing_cache.hit\",\"value\":3}\n",
            "{\"type\":\"counter\",\"name\":\"drm.timing_cache.miss\",\"value\":1}\n",
            "{\"type\":\"counter\",\"name\":\"thermal.solves\",\"value\":40}\n",
            "{\"type\":\"counter\",\"name\":\"thermal.factor_reuse\",\"value\":40}\n",
        );
        let trace = parse_trace(text);
        let out = render(&trace, 5);
        assert!(out.contains("caches and reuse"), "{out}");
        assert!(out.contains("eval cache (hit/miss)"), "{out}");
        assert!(out.contains("timing cache (hit/miss)"), "{out}");
        assert!(out.contains("thermal LU (reused/solves)"), "{out}");
        // 6 hits of 8 lookups and 3 of 4; every solve reused a factor.
        assert!(out.contains("75.0%"), "{out}");
        assert!(out.contains("100.0%"), "{out}");
    }

    #[test]
    fn render_includes_surrogate_section_when_present() {
        let text = concat!(
            "{\"type\":\"counter\",\"name\":\"surrogate.score\",\"value\":198}\n",
            "{\"type\":\"counter\",\"name\":\"surrogate.promoted\",\"value\":9}\n",
            "{\"type\":\"counter\",\"name\":\"surrogate.verified\",\"value\":9}\n",
            "{\"type\":\"counter\",\"name\":\"surrogate.calibrations\",\"value\":1}\n",
            "{\"type\":\"hist\",\"name\":\"surrogate.error.rel_perf\",",
            "\"count\":9,\"sum\":0.18,\"min\":0.001,\"max\":0.05,\"mean\":0.02}\n",
            "{\"type\":\"hist\",\"name\":\"surrogate.error.rel_fit\",",
            "\"count\":9,\"sum\":0.36,\"min\":0.002,\"max\":0.09,\"mean\":0.04}\n",
        );
        let trace = parse_trace(text);
        let out = render(&trace, 5);
        assert!(out.contains("surrogate search"), "{out}");
        assert!(out.contains("candidates scored"), "{out}");
        assert!(out.contains("198"), "{out}");
        // 9 promoted of 198 scored → 95.5% pruned.
        assert!(out.contains("(95.5% pruned)"), "{out}");
        assert!(out.contains("exact evals verified"), "{out}");
        assert!(out.contains("calibration tables"), "{out}");
        assert!(out.contains("rel error perf (mean/max)"), "{out}");
        assert!(out.contains("0.0200 / 0.0500"), "{out}");
        assert!(out.contains("rel error fit (mean/max)"), "{out}");
        // The temp histogram was absent, so its row is too.
        assert!(!out.contains("rel error temp"), "{out}");
        // No surrogate.score counter, no section.
        let plain = render(&parse_trace(""), 5);
        assert!(!plain.contains("surrogate search"), "{plain}");
    }

    #[test]
    fn render_includes_slice_section_when_present() {
        let text = concat!(
            "{\"type\":\"counter\",\"name\":\"slice.cut\",\"value\":4}\n",
            "{\"type\":\"counter\",\"name\":\"slice.resume\",\"value\":8}\n",
            "{\"type\":\"counter\",\"name\":\"slice.bytes\",\"value\":123456}\n",
        );
        let trace = parse_trace(text);
        let out = render(&trace, 5);
        assert!(out.contains("slices and checkpoints"), "{out}");
        assert!(out.contains("checkpoints (cut/resumed)"), "{out}");
        assert!(out.contains("4"), "{out}");
        assert!(out.contains("/ 8"), "{out}");
        assert!(out.contains("123456"), "{out}");
        // No slice.* counters, no section.
        let plain = render(&parse_trace(""), 5);
        assert!(!plain.contains("slices and checkpoints"), "{plain}");
    }

    #[test]
    fn render_includes_fleet_section_when_present() {
        let text = concat!(
            "{\"type\":\"counter\",\"name\":\"fleet.dies\",\"value\":100000}\n",
            "{\"type\":\"counter\",\"name\":\"fleet.violations\",\"value\":1234}\n",
            "{\"type\":\"gauge\",\"name\":\"fleet.violation_fraction\",\"value\":0.01234}\n",
            "{\"type\":\"gauge\",\"name\":\"fleet.fit_p50\",\"value\":3100.0}\n",
            "{\"type\":\"gauge\",\"name\":\"fleet.fit_p95\",\"value\":4400.0}\n",
            "{\"type\":\"gauge\",\"name\":\"fleet.life_p1_y\",\"value\":11.5}\n",
            "{\"type\":\"gauge\",\"name\":\"fleet.life_p5_y\",\"value\":14.25}\n",
            "{\"type\":\"gauge\",\"name\":\"fleet.life_p50_y\",\"value\":24.0}\n",
            "{\"type\":\"gauge\",\"name\":\"fleet.life_p95_y\",\"value\":39.5}\n",
            "{\"type\":\"gauge\",\"name\":\"fleet.dies_per_sec\",\"value\":240000.0}\n",
        );
        let trace = parse_trace(text);
        let out = render(&trace, 5);
        assert!(out.contains("fleet population"), "{out}");
        assert!(out.contains("dies sampled"), "{out}");
        assert!(out.contains("(1.23% of the fleet)"), "{out}");
        assert!(out.contains("3100"), "{out}");
        assert!(
            out.contains("p1 11.5 | p5 14.2 | p50 24.0 | p95 39.5"),
            "{out}"
        );
        assert!(out.contains("dies per second"), "{out}");
        // A trace without fleet.dies gets no fleet section.
        let plain = render(&parse_trace(""), 5);
        assert!(!plain.contains("fleet population"), "{plain}");
    }

    #[test]
    fn render_includes_slo_section_when_present() {
        let text = concat!(
            "{\"type\":\"gauge\",\"name\":\"slo.eval.attained_ms\",\"value\":4.5}\n",
            "{\"type\":\"gauge\",\"name\":\"slo.eval.target_ms\",\"value\":50.0}\n",
            "{\"type\":\"gauge\",\"name\":\"slo.eval.budget_remaining\",\"value\":0.91}\n",
            "{\"type\":\"gauge\",\"name\":\"slo.eval.ok\",\"value\":1.0}\n",
            "{\"type\":\"gauge\",\"name\":\"slo.fit.burn\",\"value\":0.8}\n",
            "{\"type\":\"gauge\",\"name\":\"slo.fit.max_burn\",\"value\":0.5}\n",
            "{\"type\":\"gauge\",\"name\":\"slo.fit.budget_remaining\",\"value\":-0.6}\n",
            "{\"type\":\"gauge\",\"name\":\"slo.fit.ok\",\"value\":0.0}\n",
        );
        let trace = parse_trace(text);
        let out = render(&trace, 5);
        assert!(out.contains("service-level objectives"), "{out}");
        assert!(out.contains("attained 4.50 ms vs 50.00 ms target"), "{out}");
        assert!(out.contains("met"), "{out}");
        assert!(out.contains("VIOLATED"), "{out}");
        assert!(out.contains("burn 80.0% of the 50% allowed"), "{out}");
        // No slo.* gauges, no section.
        let plain = render(&parse_trace(""), 5);
        assert!(!plain.contains("service-level objectives"), "{plain}");
    }

    #[test]
    fn render_includes_server_section_when_present() {
        let text = concat!(
            "{\"type\":\"counter\",\"name\":\"server.requests\",\"value\":12}\n",
            "{\"type\":\"counter\",\"name\":\"server.connections\",\"value\":3}\n",
            "{\"type\":\"counter\",\"name\":\"server.shed\",\"value\":1}\n",
            "{\"type\":\"counter\",\"name\":\"server.protocol_errors\",\"value\":2}\n",
            "{\"type\":\"gauge\",\"name\":\"server.queue.depth\",\"value\":0.0}\n",
            "{\"type\":\"hist\",\"name\":\"server.batch.size\",",
            "\"count\":4,\"sum\":10.0,\"min\":1.0,\"max\":4.0,\"mean\":2.5}\n",
            "{\"type\":\"hist\",\"name\":\"server.request.latency_ms\",",
            "\"count\":10,\"sum\":42.0,\"min\":1.5,\"max\":9.25,\"mean\":4.2}\n",
        );
        let trace = parse_trace(text);
        let out = render(&trace, 5);
        assert!(out.contains("server"), "{out}");
        assert!(out.contains("requests (lines received)"), "{out}");
        assert!(out.contains("shed (busy responses)"), "{out}");
        assert!(out.contains("protocol errors"), "{out}");
        // 10 batched requests over 4 batches.
        assert!(out.contains("(2.5 req/batch)"), "{out}");
        assert!(out.contains("mean 4.20 ms"), "{out}");
        assert!(out.contains("final queue depth"), "{out}");
        // A trace without server.requests gets no server section.
        let plain = render(&parse_trace(""), 5);
        assert!(!plain.contains("requests (lines received)"), "{plain}");
    }
}
