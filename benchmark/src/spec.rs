//! What the benchmark runs and what it reports: workloads, sizes, metric
//! names/units/directions and the recorded output digests. Bounds live
//! in `BENCHMARK.json` only; a test keeps the two in step.

use drm::EvalParams;
use workload::App;

/// The workload seed used when none is given, and the one whose output
/// digests are recorded in [`EXPECTED_DIGESTS`].
pub const DEFAULT_SEED: u64 = 12_345;

/// Seconds one measured phase lasts (`run_seconds` in `BENCHMARK.json`).
pub const DEFAULT_SECONDS: u64 = 10;

/// The `T_qual` a single DRM decision is qualified at: the paper's
/// "average application" point (345 K nominal, 366 K on this substrate).
pub const T_DECISION_K: f64 = 366.0;

/// The four Figure 2 qualification temperatures (bench-suite's
/// `FIG2_SWEEP`), hottest first.
pub const T_SWEEP_K: [f64; 4] = [405.0, 394.0, 366.0, 340.0];

/// DVS grid step of the figure reproductions, GHz (11 frequencies).
pub const DVS_STEP_GHZ: f64 = 0.25;

/// The benchmark's workloads, in run order.
pub const WORKLOADS: [Workload; 4] = [
    Workload::DrmExhaustive,
    Workload::DrmSurrogate,
    Workload::Fleet,
    Workload::ServeWarm,
];

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Exhaustive ArchDVS DRM decisions, one cold oracle each.
    DrmExhaustive,
    /// The same decisions through the surrogate search, over four `T_qual`.
    DrmSurrogate,
    /// Fleet Monte Carlo at the base operating point, one per app.
    Fleet,
    /// Closed-loop clients against a warm in-process evaluation server.
    ServeWarm,
}

impl Workload {
    /// The workload's name on the command line and in results.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::DrmExhaustive => "drm-exhaustive",
            Workload::DrmSurrogate => "drm-surrogate",
            Workload::Fleet => "fleet",
            Workload::ServeWarm => "serve-warm",
        }
    }

    /// Looks a workload up by name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        WORKLOADS.into_iter().find(|w| w.name() == name)
    }

    /// What one operation (one latency sample) of the workload is.
    #[must_use]
    pub fn op(self) -> &'static str {
        match self {
            Workload::DrmExhaustive | Workload::DrmSurrogate => "DRM decision",
            Workload::Fleet => "fleet run",
            Workload::ServeWarm => "request",
        }
    }
}

/// Input size of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The benchmark proper.
    Full,
    /// One app, 10⁴ dies and 50 requests: a seconds-long in-process gate
    /// for the tests.
    Smoke,
}

impl Scale {
    /// Looks a scale up by name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Scale> {
        match name {
            "full" => Some(Scale::Full),
            "smoke" => Some(Scale::Smoke),
            _ => None,
        }
    }

    /// The applications every workload iterates over.
    #[must_use]
    pub fn apps(self) -> Vec<App> {
        match self {
            Scale::Full => App::ALL.to_vec(),
            Scale::Smoke => vec![App::Gzip],
        }
    }

    /// Simulation lengths: a fifth of `EvalParams::quick()`'s
    /// instructions, so one round of nine exhaustive decisions (198
    /// timing runs each) fits a measured phase twice; smoke runs shrink
    /// them further. Everything else is `quick()`.
    #[must_use]
    pub fn eval_params(self, seed: u64) -> EvalParams {
        let (warmup, measure) = match self {
            Scale::Full => (6_000, 24_000),
            Scale::Smoke => (1_000, 4_000),
        };
        EvalParams {
            warmup_instructions: warmup,
            measure_instructions: measure,
            interval_instructions: measure / 4,
            seed,
            ..EvalParams::quick()
        }
    }

    /// Virtual dies per fleet run.
    #[must_use]
    pub fn fleet_dies(self) -> u64 {
        match self {
            Scale::Full => 400_000,
            Scale::Smoke => 10_000,
        }
    }

    /// Requests each client sends per round of the serve workload.
    #[must_use]
    pub fn requests_per_client(self) -> usize {
        match self {
            Scale::Full => 400,
            Scale::Smoke => 25,
        }
    }
}

/// The `--threads` the digests were recorded at: each serve client sends
/// its own request stream, so the requests depend on the client count.
pub const DIGEST_THREADS: usize = 2;

/// Output digests of the first round of each workload at [`Scale::Full`],
/// [`DEFAULT_SEED`] and [`DIGEST_THREADS`]. A simulator, model or server
/// change that alters any output bit changes these; a pure speed-up must
/// not.
pub const EXPECTED_DIGESTS: [(Workload, u64); 4] = [
    (Workload::DrmExhaustive, 0xaa94_321c_f019_5377),
    (Workload::DrmSurrogate, 0x5500_68f7_176d_fafc),
    (Workload::Fleet, 0x8eb2_36f1_d8e2_707b),
    (Workload::ServeWarm, 0xc4b0_4d5c_dfdd_7fc0),
];

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// `lower` / `higher`, as in `BENCHMARK.json`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A reported metric: name, unit and direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
    }
}

/// End-to-end metrics, measured untraced on every workload. An
/// operation is one DRM decision, one fleet run or one request.
pub const END_TO_END: [MetricDef; 5] = [
    lower("setup_s", "s"),
    lower("latency_ms_p50", "ms"),
    lower("latency_ms_p90", "ms"),
    higher("ops_per_s", "1/s"),
    lower("peak_rss_mb", "MB"),
];

/// Prefix of the per-layer rows that report one span name's self time
/// as a share of all self time in the traced run.
pub const SELF_PCT_PREFIX: &str = "trace.self_pct.";

/// Per-layer metrics: counts from the traced run, probes that time one
/// layer's public functions on the workload's own inputs with tracing
/// off, and the traced self-time shares of the spans at layer
/// boundaries.
pub const PER_LAYER: [MetricDef; 49] = [
    lower("workload.stream.ns_per_op", "ns"),
    lower("cpu.core.ns_per_inst", "ns"),
    lower("cpu.core.ns_per_cycle", "ns"),
    lower("cpu.prewarm_ms", "ms"),
    lower("cpu.mem.ns_per_access", "ns"),
    lower("cpu.bpred.ns_per_branch", "ns"),
    lower("cpu.sim.cycles", "count"),
    lower("model.ipc_err_pct", "%"),
    lower("power.us_per_interval", "us"),
    lower("thermal.solve_us", "us"),
    lower("thermal.factor_ms", "ms"),
    lower("scenario.load_ms", "ms"),
    lower("ramp.fit_us", "us"),
    lower("ramp.qualify_us", "us"),
    lower("drm.eval.timing_ms", "ms"),
    lower("drm.eval.finish_us", "us"),
    higher("drm.decision.sim_minst_per_s", "Minst/s"),
    lower("drm.batch.timing_runs_per_op", "count"),
    higher("drm.batch.timing_reuses_per_op", "count"),
    higher("drm.batch.eval_hit_rate", "ratio"),
    higher("drm.batch.worker_util", "ratio"),
    lower("drm.oracle.select_ms", "ms"),
    lower("drm.surrogate.scored_per_op", "count"),
    lower("drm.surrogate.promoted_per_op", "count"),
    lower("drm.surrogate.verified_per_op", "count"),
    lower("drm.surrogate.calibrations_per_op", "count"),
    lower("drm.surrogate.promote_ratio", "ratio"),
    lower("drm.fleet.ns_per_die_1w", "ns"),
    higher("drm.fleet.scaling", "ratio"),
    lower("common.sketch.insert_ns", "ns"),
    lower("common.rng.ns_per_draw", "ns"),
    lower("server.codec.parse_ns", "ns"),
    lower("server.codec.reply_ns", "ns"),
    lower("server.ping_rtt_us", "us"),
    lower("server.queue_ms", "ms"),
    higher("server.batch_occupancy", "ratio"),
    lower("server.shed", "count"),
    lower("obs.trace_overhead_pct", "%"),
    lower("trace.self_pct.bench.decision", "%"),
    lower("trace.self_pct.bench.fleet", "%"),
    lower("trace.self_pct.bench.request", "%"),
    lower("trace.self_pct.oracle.best", "%"),
    lower("trace.self_pct.drm.batch", "%"),
    lower("trace.self_pct.drm.worker", "%"),
    lower("trace.self_pct.eval.timing", "%"),
    lower("trace.self_pct.eval.sink", "%"),
    lower("trace.self_pct.eval.thermal", "%"),
    lower("trace.self_pct.drm.fleet.worker", "%"),
    lower("trace.self_pct.server.batch", "%"),
];
