//! End-to-end observability: run the real pipeline with a JSONL trace
//! sink attached, read the trace back, and check that (a) the report's
//! per-stage shares sum to 100% and (b) the FIT gauges in the trace
//! reproduce `ApplicationFit::total()` bit-for-bit (within 1e-9).
//!
//! The sim-obs dispatcher is process-global, so every test here holds
//! [`OBS_LOCK`] to serialize against the others.

use drm::{
    run_fleet, ArchPoint, BatchEngine, DvsPoint, EvalParams, Evaluator, FleetConfig, Strategy,
};
use ramp::{FailureParams, Mechanism, QualificationPoint, ReliabilityModel};
use sim_common::{Floorplan, Kelvin, Structure};
use sim_cpu::CoreConfig;
use sim_obs::report;
use std::sync::{Arc, Mutex, MutexGuard};
use workload::App;

/// Serializes tests that install global sinks / toggle global enable.
static OBS_LOCK: Mutex<()> = Mutex::new(());

fn hold_obs_lock() -> MutexGuard<'static, ()> {
    OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn model() -> ReliabilityModel {
    ReliabilityModel::qualify(
        FailureParams::ramp_65nm(),
        &QualificationPoint::at_temperature(Kelvin(345.0), 0.35),
        &Floorplan::r10000_65nm().area_shares(),
        4000.0,
    )
    .unwrap()
}

#[test]
fn trace_round_trip_reproduces_fit_and_stage_shares() {
    let _guard = hold_obs_lock();
    sim_obs::reset_for_tests();
    let path = std::env::temp_dir().join(format!(
        "ramp-observability-test-{}.jsonl",
        std::process::id()
    ));
    let sink = sim_obs::JsonlSink::create(&path).expect("create trace file");
    sim_obs::install_sink(Arc::new(sink));
    sim_obs::set_enabled(true);

    let evaluator = Evaluator::ibm_65nm(EvalParams::quick()).unwrap();
    let ev = evaluator.evaluate(App::Gzip, &CoreConfig::base()).unwrap();
    let m = model();
    let app_fit = ev.application_fit(&m);
    sim_obs::flush();
    sim_obs::reset_for_tests();

    let trace = report::read_trace(&path).expect("read trace back");
    std::fs::remove_file(&path).ok();
    assert!(
        trace.malformed.is_empty(),
        "malformed trace lines: {:?}",
        trace.malformed
    );

    // Spans: the evaluation stages are present and nested under `eval`.
    let eval_span = trace
        .spans
        .iter()
        .find(|s| s.name == "eval")
        .expect("eval span in trace");
    for stage in ["eval.timing", "eval.sink", "eval.thermal"] {
        let span = trace
            .spans
            .iter()
            .find(|s| s.name == stage)
            .unwrap_or_else(|| panic!("{stage} span in trace"));
        assert_eq!(span.parent, eval_span.id, "{stage} nests under eval");
        assert!(span.duration_ns <= eval_span.duration_ns);
    }

    // Report: stage shares sum to ~100% and every row is non-negative.
    let stages = report::stage_summary(&trace.spans);
    assert!(!stages.is_empty());
    let share: f64 = stages.iter().map(|r| r.share_pct).sum();
    assert!(
        (share - 100.0).abs() < 1e-6,
        "stage shares sum to {share}, expected 100"
    );

    // FIT gauges reproduce the scored ApplicationFit within 1e-9 (floats
    // are serialized with shortest-round-trip formatting, so this is in
    // fact bit-exact).
    let total = trace.gauge("fit.total").expect("fit.total gauge");
    assert!(
        (total - app_fit.total().value()).abs() < 1e-9,
        "trace fit.total {total} vs ApplicationFit::total() {}",
        app_fit.total().value()
    );
    let mut structure_sum = 0.0;
    for s in Structure::ALL {
        let g = trace
            .gauge(&format!("fit.structure.{}", s.name()))
            .unwrap_or_else(|| panic!("fit.structure.{} gauge", s.name()));
        assert!(
            (g - app_fit.structure_total(s).value()).abs() < 1e-9,
            "structure {} gauge mismatch",
            s.name()
        );
        structure_sum += g;
    }
    assert!(
        (structure_sum - app_fit.total().value()).abs() < 1e-9,
        "per-structure gauges sum to {structure_sum}, expected {}",
        app_fit.total().value()
    );
    for mech in Mechanism::ALL {
        let g = trace
            .gauge(&format!("fit.mechanism.{}", mech.name()))
            .unwrap_or_else(|| panic!("fit.mechanism.{} gauge", mech.name()));
        assert!((g - app_fit.mechanism_total(mech).value()).abs() < 1e-9);
    }

    // Hottest-structure table: every structure has a temperature
    // histogram with one sample per measured interval, at plausible
    // junction temperatures.
    let hot = report::hottest_structures(&trace);
    assert_eq!(hot.len(), Structure::COUNT);
    for row in &hot {
        assert_eq!(row.samples, ev.intervals.len() as u64);
        assert!(
            (300.0..500.0).contains(&row.max_k),
            "{}: peak {} K",
            row.structure,
            row.max_k
        );
        assert!(row.mean_k <= row.max_k + 1e-9);
    }
    // Peak ordering matches the evaluation's own maximum temperature.
    assert!((hot[0].max_k - ev.max_temperature().0).abs() < 1e-9);

    // Pipeline counters flowed end to end: workload → cpu → power →
    // thermal → tracker.
    for counter in [
        "workload.ops.total",
        "cpu.intervals",
        "cpu.instructions",
        "power.evals",
        "thermal.solves",
        "ramp.tracker.intervals",
        "drm.evals",
    ] {
        let v = trace
            .counter(counter)
            .unwrap_or_else(|| panic!("{counter} missing from trace"));
        assert!(v > 0, "{counter} is zero");
    }
    // The tracker scored one interval per measured interval.
    assert_eq!(
        trace.counter("ramp.tracker.intervals"),
        Some(ev.intervals.len() as u64)
    );

    // The rendered report is well-formed and mentions the key sections.
    let rendered = report::render(&trace, 5);
    assert!(rendered.contains("stage time"));
    assert!(rendered.contains("eval.timing"));
    assert!(rendered.contains("hottest structures"));
    assert!(rendered.contains("reliability (FIT)"));
}

/// A parallel fleet run exported through the trace-event sink gives each
/// worker thread its own named lane: `fleet-worker-N` metadata events,
/// one per worker, each lane carrying at least one `drm.fleet.worker`
/// span.
#[test]
fn fleet_trace_event_export_names_a_lane_per_worker() {
    let _guard = hold_obs_lock();
    sim_obs::reset_for_tests();
    let path = std::env::temp_dir().join(format!(
        "ramp-fleet-trace-event-{}.json",
        std::process::id()
    ));
    let sink = sim_obs::TraceEventSink::create(&path).expect("create trace-event file");
    sim_obs::install_sink(Arc::new(sink));
    sim_obs::set_enabled(true);

    const WORKERS: usize = 4;
    let engine = BatchEngine::with_workers(
        Evaluator::ibm_65nm(EvalParams::quick()).expect("evaluator"),
        WORKERS,
    )
    .with_base_config(CoreConfig::base());
    let base = CoreConfig::base();
    let arch = ArchPoint {
        window: base.window_size,
        alus: base.int_alus,
        fpus: base.fpus,
    };
    let dvs = DvsPoint {
        frequency: base.frequency,
        vdd: base.vdd,
    };
    let config = FleetConfig {
        // Enough batches (4096 dies each) that all four workers spawn.
        dies: 4 * 4096,
        ..FleetConfig::default()
    };
    let summary = run_fleet(&engine, App::Gzip, arch, dvs, &model(), &config).expect("fleet");
    assert_eq!(summary.workers, WORKERS);
    sim_obs::flush();
    sim_obs::reset_for_tests();

    let text = std::fs::read_to_string(&path).expect("read trace-event file");
    std::fs::remove_file(&path).ok();

    // One named lane per worker: the `thread_name` metadata events carry
    // the spawn names, and each worker's lane opens its span.
    let mut lane_names = Vec::new();
    for line in text.lines().filter(|l| l.contains("\"thread_name\"")) {
        if let Some(name) = line
            .split("\"args\":{\"name\":\"")
            .nth(1)
            .and_then(|rest| rest.split('"').next())
        {
            lane_names.push(name.to_owned());
        }
    }
    let worker_spans = text
        .matches("\"ph\":\"B\",\"name\":\"drm.fleet.worker\"")
        .count();
    for w in 0..WORKERS {
        let lane = format!("fleet-worker-{w}");
        assert!(
            lane_names.iter().any(|n| n == &lane),
            "missing lane `{lane}` (lanes: {lane_names:?})"
        );
    }
    assert!(
        worker_spans >= WORKERS,
        "expected at least one drm.fleet.worker span per worker, got {worker_spans}"
    );
}

/// The value of counter `name` in `snapshot`, if it was recorded.
fn counter(snapshot: &[sim_obs::Metric], name: &str) -> Option<u64> {
    snapshot.iter().find_map(|m| match m.value {
        sim_obs::MetricValue::Counter(c) if m.name == name => Some(c),
        _ => None,
    })
}

/// One app's 198-candidate ArchDVS pass records exactly one op tape, long
/// enough that no timing run outlives it: with the pass's tape the only
/// stream generation, `workload.ops.total` (ops generated) equals
/// `drm.batch.tape_ops` (ops recorded), so no run went live. A second pass
/// at new voltages finds every timing run cached and records no tape.
#[test]
fn one_app_candidate_pass_records_one_tape_and_never_goes_live() {
    let _guard = hold_obs_lock();
    sim_obs::reset_for_tests();
    sim_obs::set_enabled(true);

    let params = EvalParams {
        warmup_instructions: 500,
        measure_instructions: 2_000,
        interval_instructions: 1_000,
        ..EvalParams::quick()
    };
    let engine = BatchEngine::with_workers(Evaluator::ibm_65nm(params).expect("evaluator"), 2);
    let jobs: Vec<_> = Strategy::ArchDvs
        .candidates(0.25)
        .into_iter()
        .map(|(arch, dvs)| (App::Art, arch, dvs))
        .collect();
    assert_eq!(jobs.len(), 198);
    let summary = engine.evaluate_all(&jobs).expect("candidate pass");
    assert_eq!(summary.timing_runs, 198);
    let snapshot = sim_obs::flush();
    sim_obs::reset_for_tests();

    assert_eq!(counter(&snapshot, "drm.batch.tapes"), Some(1));
    // The base configuration has the deepest window of the space.
    let tape_ops = 500 + 2_000 + CoreConfig::base().max_in_flight();
    assert_eq!(counter(&snapshot, "drm.batch.tape_ops"), Some(tape_ops));
    assert_eq!(
        counter(&snapshot, "workload.ops.total"),
        Some(tape_ops),
        "a timing run generated ops past its tape"
    );

    // Timing ignores the supply voltage, so shifting every candidate's
    // voltage gives 198 cold evaluations whose timing is all cached.
    sim_obs::set_enabled(true);
    let shifted: Vec<_> = jobs
        .iter()
        .map(|&(app, arch, dvs)| {
            let vdd = sim_common::Volts(dvs.vdd.0 + 0.01);
            (app, arch, DvsPoint { vdd, ..dvs })
        })
        .collect();
    let summary = engine.evaluate_all(&shifted).expect("timing-warm pass");
    assert_eq!((summary.evaluations, summary.timing_runs), (198, 0));
    let snapshot = sim_obs::flush();
    sim_obs::reset_for_tests();
    assert_eq!(counter(&snapshot, "drm.batch.tapes").unwrap_or(0), 0);
    assert_eq!(counter(&snapshot, "workload.ops.total").unwrap_or(0), 0);
}
