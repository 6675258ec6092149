//! One measured run of one workload: set-up, rounds for the measured
//! phase, and the metrics that come out of it.

use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use sim_obs::report::StageRow;
use sim_obs::{MemorySink, Metric, MetricValue, TraceEventSink};

use crate::probes;
use crate::spec::{MetricDef, Workload, END_TO_END, PER_LAYER, SELF_PCT_PREFIX};
use crate::stats::{median, peak_rss_mb, quantile};
use crate::trace;
use crate::workloads::{Bench, Ctx};

/// Set-ups per run; `setup_s` is their median. Five keep one or two
/// set-ups slowed by the host from moving it.
pub const SETUPS: usize = 5;

/// One reported value.
#[derive(Debug, Clone, PartialEq)]
pub struct Measurement {
    /// The metric.
    pub def: MetricDef,
    /// Its value.
    pub value: f64,
    /// Samples behind it.
    pub n: u64,
}

/// Everything one run reports.
#[derive(Debug)]
pub struct Report {
    /// Operations attempted in the measured phase.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Rounds run.
    pub rounds: usize,
    /// Digest of round 0's outputs.
    pub digest: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced
    /// run), in `spec` order.
    pub metrics: Vec<Measurement>,
    /// Self time per span name (traced run only).
    pub self_time: Vec<StageRow>,
}

/// Measures `workload`. With `trace`, even rounds are traced into memory
/// (and exported to `<out>/trace-<workload>.json`), odd rounds are not,
/// and the layer probes run afterwards; without it nothing is traced.
///
/// # Errors
///
/// Returns a message when set-up fails or any output check fails.
pub fn measure(
    workload: Workload,
    ctx: &Ctx,
    seconds: f64,
    trace: bool,
    out: &Path,
) -> Result<Report, String> {
    let mut setups = Vec::with_capacity(SETUPS);
    let mut bench = None;
    for _ in 0..SETUPS {
        drop(bench.take());
        let start = Instant::now();
        bench = Some(Bench::setup(workload, ctx)?);
        setups.push(start.elapsed().as_secs_f64());
    }
    let mut bench = bench.expect("at least one set-up");

    let memory = if trace {
        let memory = Arc::new(MemorySink::new());
        sim_obs::install_sink(memory.clone());
        std::fs::create_dir_all(out).map_err(|e| format!("{}: {e}", out.display()))?;
        let path = out.join(format!("trace-{}.json", workload.name()));
        let export =
            TraceEventSink::create(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        sim_obs::install_sink(Arc::new(export));
        Some(memory)
    } else {
        None
    };

    let min_rounds = if trace { 2 } else { 1 };
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let (mut attempted, mut failed, mut wall) = (0, 0, 0.0);
    let mut digest = 0;
    let mut rounds = 0;
    let start = Instant::now();
    loop {
        let on = trace && rounds % 2 == 0;
        sim_obs::set_enabled(on);
        let round = bench.round(rounds);
        sim_obs::set_enabled(false);
        let round = round?;
        if rounds == 0 {
            digest = round.digest;
        } else if bench.repeats() && round.digest != digest {
            return Err(format!(
                "round {rounds} produced digest {:016x}, round 0 produced {digest:016x}",
                round.digest
            ));
        }
        attempted += round.attempted;
        failed += round.failed;
        wall += round.wall;
        if on { &mut traced } else { &mut untraced }.extend(round.latencies);
        rounds += 1;
        if rounds >= min_rounds && start.elapsed() >= Duration::from_secs_f64(seconds) {
            break;
        }
    }
    let rss = peak_rss_mb().ok_or("cannot read VmHWM from /proc/self/status")?;
    let counts = bench.finish()?;
    let ops = (untraced.len() + traced.len()) as u64;

    let mut values: HashMap<&str, (f64, u64)> = HashMap::new();
    let mut self_time = Vec::new();
    if let Some(memory) = memory {
        let snapshot = sim_obs::flush();
        let counter = |name: &str| {
            snapshot
                .iter()
                .find_map(|m: &Metric| match m.value {
                    MetricValue::Counter(c) if m.name == name => Some(c as f64),
                    _ => None,
                })
                .unwrap_or(0.0)
        };
        let per = |x: f64, n: f64| if n > 0.0 { x / n } else { 0.0 };
        let traced_ops = traced.len() as f64;
        let s = counts.sweep;
        let ops_f = ops as f64;
        for (name, value) in [
            (
                "drm.decision.sim_minst_per_s",
                per(counts.sim_instructions as f64 / 1e6, counts.decision_wall),
            ),
            (
                "drm.batch.timing_runs_per_op",
                per(s.timing_runs as f64, ops_f),
            ),
            (
                "drm.batch.timing_reuses_per_op",
                per(s.timing_reuses as f64, ops_f),
            ),
            (
                "drm.batch.eval_hit_rate",
                per(s.cache_hits as f64, (s.cache_hits + s.evaluations) as f64),
            ),
            (
                "drm.batch.worker_util",
                per(
                    s.busy.as_secs_f64(),
                    s.wall.as_secs_f64() * s.workers as f64,
                ),
            ),
            (
                "drm.surrogate.scored_per_op",
                per(counter("surrogate.score"), traced_ops),
            ),
            (
                "drm.surrogate.promoted_per_op",
                per(counter("surrogate.promoted"), traced_ops),
            ),
            (
                "drm.surrogate.verified_per_op",
                per(counter("surrogate.verified"), traced_ops),
            ),
            (
                "drm.surrogate.calibrations_per_op",
                per(counter("surrogate.calibrations"), traced_ops),
            ),
            (
                "drm.surrogate.promote_ratio",
                per(counter("surrogate.promoted"), counter("surrogate.score")),
            ),
            ("server.batch_occupancy", counts.server.batch_occupancy()),
            ("server.shed", counts.server.shed as f64),
        ] {
            values.insert(name, (value, ops));
        }
        values.insert(
            "obs.trace_overhead_pct",
            ((median(&traced) / median(&untraced) - 1.0) * 100.0, ops),
        );
        let spans = memory.spans();
        let n_spans = spans.len() as u64;
        self_time = trace::self_time(spans);
        for def in &PER_LAYER {
            if let Some(span) = def.name.strip_prefix(SELF_PCT_PREFIX) {
                values.insert(def.name, (trace::share_pct(&self_time, span), n_spans));
            }
        }
        let mut rows = Vec::new();
        probes::run(ctx, &mut rows)?;
        let apps = ctx.scale.apps().len() as u64;
        for (name, value) in rows {
            values.insert(name, (value, apps));
        }
    } else {
        let ms: Vec<f64> = untraced.iter().map(|s| s * 1e3).collect();
        values.insert("setup_s", (median(&setups), SETUPS as u64));
        values.insert("latency_ms_p50", (quantile(&ms, 0.5), ops));
        values.insert("latency_ms_p90", (quantile(&ms, 0.9), ops));
        values.insert("ops_per_s", (ops as f64 / wall, ops));
        values.insert("peak_rss_mb", (rss, 1));
    }

    let defs: &[MetricDef] = if trace { &PER_LAYER } else { &END_TO_END };
    let metrics = defs
        .iter()
        .map(|&def| {
            let (value, n) = values
                .get(def.name)
                .copied()
                .ok_or_else(|| format!("metric {} was not measured", def.name))?;
            Ok(Measurement { def, value, n })
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(Report {
        attempted,
        failed,
        rounds,
        digest,
        metrics,
        self_time,
    })
}
