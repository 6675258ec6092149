//! Parallel-vs-sequential parity: the batch engine must be a pure
//! performance optimization. Every evaluation, and every DRM decision
//! derived from one, must be bit-identical whatever the worker count.

use drm::{ArchPoint, DvsPoint, EvalParams, Evaluator, Oracle, Strategy};
use workload::App;

fn grid() -> Vec<(App, ArchPoint, DvsPoint)> {
    let mut jobs = Vec::new();
    for app in [App::MpgDec, App::Twolf] {
        for (arch, dvs) in Strategy::Dvs.candidates(0.5) {
            jobs.push((app, arch, dvs));
        }
        jobs.push((app, ArchPoint::most_aggressive(), DvsPoint::base()));
    }
    jobs
}

fn oracle(workers: usize) -> Oracle {
    Oracle::with_workers(
        Evaluator::ibm_65nm(EvalParams::quick()).expect("evaluator"),
        workers,
    )
}

/// Every operating point evaluates to exactly the same result with one
/// worker and with four.
#[test]
fn evaluations_are_worker_count_invariant() {
    let jobs = grid();
    let seq = oracle(1);
    let par = oracle(4);
    let s1 = seq.prefetch(&jobs).expect("sequential sweep");
    let s4 = par.prefetch(&jobs).expect("parallel sweep");
    assert_eq!(s1.workers, 1);
    assert_eq!(s4.workers, 4);
    assert_eq!(
        s1.evaluations, s4.evaluations,
        "same deduplicated job count"
    );
    for &(app, arch, dvs) in &jobs {
        let a = seq.evaluation(app, arch, dvs).expect("cached");
        let b = par.evaluation(app, arch, dvs).expect("cached");
        assert_eq!(*a, *b, "{app} {arch} @ {:.2} GHz", dvs.frequency.to_ghz());
    }
}

/// The oracle's DRM choice — the quantity the paper's figures rest on —
/// does not depend on the worker count either.
#[test]
fn drm_choice_is_worker_count_invariant() {
    use ramp::{FailureParams, QualificationPoint, ReliabilityModel};
    use sim_common::{Floorplan, Kelvin};

    let model = ReliabilityModel::qualify(
        FailureParams::ramp_65nm(),
        &QualificationPoint::at_temperature(Kelvin(380.0), 0.4),
        &Floorplan::r10000_65nm().area_shares(),
        4000.0,
    )
    .expect("qualification");
    let seq = oracle(1);
    let par = oracle(4);
    let a = seq
        .best(App::Gzip, Strategy::Dvs, &model, 0.5)
        .expect("sequential search");
    let b = par
        .best(App::Gzip, Strategy::Dvs, &model, 0.5)
        .expect("parallel search");
    assert_eq!(a, b);
}

/// Parity must survive observability: with metrics and span recording
/// enabled, one worker and four workers still produce bit-identical
/// evaluations (instrumentation reads simulation state but never feeds
/// back into it).
#[test]
fn parity_holds_with_metrics_enabled() {
    let sink = std::sync::Arc::new(sim_obs::MemorySink::new());
    sim_obs::install_sink(sink.clone());
    sim_obs::set_enabled(true);

    let jobs = grid();
    let seq = oracle(1);
    let par = oracle(4);
    seq.prefetch(&jobs).expect("sequential sweep");
    par.prefetch(&jobs).expect("parallel sweep");
    for &(app, arch, dvs) in &jobs {
        let a = seq.evaluation(app, arch, dvs).expect("cached");
        let b = par.evaluation(app, arch, dvs).expect("cached");
        assert_eq!(*a, *b, "{app} {arch} @ {:.2} GHz", dvs.frequency.to_ghz());
        // The sim-obs diagnostics themselves are populated either way.
        assert!(a.stats.wall() > std::time::Duration::ZERO);
        assert!(b.stats.fixed_point_iterations() > 0);
    }

    // The shards from both sweeps (including exited worker threads)
    // aggregate into one snapshot containing the pipeline's metrics.
    let snapshot = sim_obs::flush();
    for name in ["drm.evals", "drm.batch.evaluations", "thermal.solves"] {
        assert!(
            snapshot.iter().any(|m| m.name == name),
            "{name} missing from metrics snapshot"
        );
    }
    assert!(!sink.spans().is_empty(), "worker spans were recorded");
    sim_obs::set_enabled(false);
}

/// Timing reuse across a DVS voltage grid is a pure performance
/// optimization: every evaluation matches the scalar path (a fresh
/// `Evaluator` run that re-simulates timing for every point) bit for
/// bit, with 1 worker and with 4 — and each engine performs exactly one
/// cycle-level timing run per (app, arch, frequency), asserted via the
/// timing-cache counters.
#[test]
fn voltage_grid_timing_reuse_is_bit_identical_to_scalar_path() {
    use sim_common::{Hertz, Volts};

    let apps = [App::MpgDec, App::Twolf];
    let freqs = [3.0, 4.0];
    let vdds = [0.85, 0.95, 1.05, 1.15];
    let arch = ArchPoint::most_aggressive();
    let mut jobs = Vec::new();
    for app in apps {
        for ghz in freqs {
            for vdd in vdds {
                jobs.push((
                    app,
                    arch,
                    DvsPoint {
                        frequency: Hertz::from_ghz(ghz),
                        vdd: Volts(vdd),
                    },
                ));
            }
        }
    }

    let evaluator = Evaluator::ibm_65nm(EvalParams::quick()).expect("evaluator");
    let seq = oracle(1);
    let par = oracle(4);
    let s1 = seq.prefetch(&jobs).expect("sequential sweep");
    let s4 = par.prefetch(&jobs).expect("parallel sweep");

    // One timing run per (app, arch, frequency), however many voltages
    // and workers: 2 apps × 2 frequencies = 4 runs for 16 evaluations.
    let groups = (apps.len() * freqs.len()) as u64;
    for (label, oracle, summary) in [("1 worker", &seq, s1), ("4 workers", &par, s4)] {
        assert_eq!(summary.evaluations, jobs.len() as u64, "{label}");
        assert_eq!(summary.timing_runs, groups, "{label}");
        assert_eq!(summary.timing_reuses, jobs.len() as u64 - groups, "{label}");
        let timing = oracle.engine().timing_cache();
        assert_eq!(timing.misses(), groups, "{label}: timing-cache misses");
        assert_eq!(timing.len(), groups as usize, "{label}: cached runs");
        assert_eq!(
            timing.hits(),
            jobs.len() as u64 - groups,
            "{label}: timing-cache hits"
        );
    }

    for &(app, arch, dvs) in &jobs {
        let config = arch
            .apply(&sim_cpu::CoreConfig::base(), dvs)
            .expect("config");
        let scalar = evaluator.evaluate(app, &config).expect("scalar evaluation");
        let a = seq.evaluation(app, arch, dvs).expect("cached");
        let b = par.evaluation(app, arch, dvs).expect("cached");
        assert_eq!(*a, scalar, "{app} @ {:.2} V (1 worker)", dvs.vdd.0);
        assert_eq!(*b, scalar, "{app} @ {:.2} V (4 workers)", dvs.vdd.0);
    }
}

/// Op tapes are a pure performance optimization: a batch pass whose
/// timing runs all replay one recorded tape of the app's stream matches a
/// fresh per-config `Evaluator::evaluate` (which generates the stream
/// live) bit for bit, with 1 worker and with 4. The points span the
/// smallest and largest windows, so the tape must cover the deepest
/// in-flight bound of the pass.
#[test]
fn taped_batch_pass_is_bit_identical_to_per_config_evaluation() {
    let app = App::Equake;
    let mut jobs = Vec::new();
    for arch in [ArchPoint::ALL[0], ArchPoint::ALL[8], ArchPoint::ALL[17]] {
        for ghz in [3.0, 4.5] {
            jobs.push((app, arch, DvsPoint::at_ghz(ghz).expect("dvs point")));
        }
    }
    let evaluator = Evaluator::ibm_65nm(EvalParams::quick()).expect("evaluator");
    let seq = oracle(1);
    let par = oracle(4);
    seq.prefetch(&jobs).expect("sequential sweep");
    par.prefetch(&jobs).expect("parallel sweep");
    for &(app, arch, dvs) in &jobs {
        let config = arch
            .apply(&sim_cpu::CoreConfig::base(), dvs)
            .expect("config");
        let scalar = evaluator.evaluate(app, &config).expect("scalar evaluation");
        let at = dvs.frequency.to_ghz();
        let a = seq.evaluation(app, arch, dvs).expect("cached");
        let b = par.evaluation(app, arch, dvs).expect("cached");
        assert_eq!(*a, scalar, "{app} {arch} @ {at:.2} GHz (1 worker)");
        assert_eq!(*b, scalar, "{app} {arch} @ {at:.2} GHz (4 workers)");
    }
}

/// Sliced evaluation is a pure performance optimization: against an
/// unsliced evaluator of the same operating point, a sliced one — cold
/// (cut pass) or warm (parallel checkpoint resume), with 1 worker or 4 —
/// produces a bit-identical [`drm::Evaluation`].
#[test]
fn sliced_evaluation_is_bit_identical_at_any_worker_count() {
    use drm::SliceParams;

    let params = EvalParams::quick();
    let dir = std::env::temp_dir().join(format!("ramp-parity-slice-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = sim_cpu::CoreConfig::base();
    let app = App::Gzip;
    let want = Evaluator::ibm_65nm(params)
        .expect("evaluator")
        .evaluate(app, &config)
        .expect("unsliced evaluation");
    for workers in [1, 4] {
        let sliced = Evaluator::ibm_65nm(params)
            .expect("evaluator")
            .with_slice(
                SliceParams::new(params.interval_instructions)
                    .with_dir(&dir)
                    .with_workers(workers),
            )
            .expect("slice params");
        // First pass at each worker count finds the checkpoints cut by
        // the previous one (cold cut on the very first), so both the cut
        // and the parallel-resume paths are exercised.
        let got = sliced.evaluate(app, &config).expect("sliced evaluation");
        assert_eq!(
            got, want,
            "sliced evaluation diverged at {workers} worker(s)"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Re-running a sweep over an already-warm cache performs no new
/// evaluations and only counts hits.
#[test]
fn warm_sweep_is_pure_cache_hits() {
    let jobs = grid();
    let o = oracle(2);
    let cold = o.prefetch(&jobs).expect("cold sweep");
    assert!(cold.evaluations > 0);
    let evals_after_cold = o.evaluations_performed();
    let warm = o.prefetch(&jobs).expect("warm sweep");
    assert_eq!(o.evaluations_performed(), evals_after_cold, "no new work");
    assert_eq!(warm.cache_hits as usize, evals_after_cold, "all hits");
}
