//! Surrogate-vs-exhaustive parity: the two-phase search must be a pure
//! performance optimization. Every DRM decision — the oracle's choice,
//! the DTM operating point, the intra-application schedule — must be
//! bit-identical with the surrogate on and off, at any worker count.
//! The promoted subset re-runs the same exact evaluations through the
//! same selection loop, so even the floats must match to the last bit.

use drm::{dtm_best_dvs, intra_app_best, EvalParams, Evaluator, Oracle, Strategy, SurrogateParams};
use ramp::{FailureParams, QualificationPoint, ReliabilityModel};
use sim_common::{Floorplan, Kelvin};
use workload::App;

fn oracle(workers: usize, surrogate: bool) -> Oracle {
    let o = Oracle::with_workers(
        Evaluator::ibm_65nm(EvalParams::quick()).expect("evaluator"),
        workers,
    );
    if surrogate {
        o.with_surrogate(SurrogateParams::default())
            .expect("surrogate params")
    } else {
        o
    }
}

fn model(t_qual: f64) -> ReliabilityModel {
    ReliabilityModel::qualify(
        FailureParams::ramp_65nm(),
        &QualificationPoint::at_temperature(Kelvin(t_qual), 0.35),
        &Floorplan::r10000_65nm().area_shares(),
        4000.0,
    )
    .expect("qualification")
}

/// The oracle's DRM choice is bit-identical with and without the
/// surrogate — generous and harsh qualification, 1 worker and 4.
#[test]
fn oracle_choice_is_bit_identical_with_surrogate() {
    for t_qual in [340.0, 390.0] {
        let m = model(t_qual);
        for workers in [1, 4] {
            let exact = oracle(workers, false)
                .best(App::Gzip, Strategy::Dvs, &m, 0.5)
                .expect("exhaustive search");
            let two_phase = oracle(workers, true)
                .best(App::Gzip, Strategy::Dvs, &m, 0.5)
                .expect("surrogate search");
            assert_eq!(
                exact.arch, two_phase.arch,
                "T_qual {t_qual}, {workers} workers"
            );
            assert_eq!(
                exact.dvs, two_phase.dvs,
                "T_qual {t_qual}, {workers} workers"
            );
            assert_eq!(exact.feasible, two_phase.feasible);
            assert_eq!(
                exact.relative_performance.to_bits(),
                two_phase.relative_performance.to_bits(),
                "relative performance differs at T_qual {t_qual}, {workers} workers"
            );
            assert_eq!(
                exact.fit.value().to_bits(),
                two_phase.fit.value().to_bits(),
                "FIT differs at T_qual {t_qual}, {workers} workers"
            );
        }
    }
}

/// The architecture-only strategy (frequency fixed, 18 candidates)
/// exercises the window/ALU/FPU axis of the CPI regression; the choice
/// is still bit-identical.
#[test]
fn arch_strategy_choice_is_bit_identical_with_surrogate() {
    let m = model(370.0);
    for workers in [1, 4] {
        let exact = oracle(workers, false)
            .best(App::Twolf, Strategy::Arch, &m, 0.5)
            .expect("exhaustive search");
        let two_phase = oracle(workers, true)
            .best(App::Twolf, Strategy::Arch, &m, 0.5)
            .expect("surrogate search");
        assert_eq!(exact, two_phase, "{workers} workers");
        assert_eq!(
            exact.relative_performance.to_bits(),
            two_phase.relative_performance.to_bits()
        );
        assert_eq!(exact.fit.value().to_bits(), two_phase.fit.value().to_bits());
    }
}

/// The DTM comparison point — highest frequency under the thermal
/// constraint — is bit-identical with the surrogate's temperature-bound
/// promotion in front of it.
#[test]
fn dtm_choice_is_bit_identical_with_surrogate() {
    for t_max in [355.0, 372.0] {
        for workers in [1, 4] {
            let exact = dtm_best_dvs(&oracle(workers, false), App::MpgDec, Kelvin(t_max), 0.5)
                .expect("exhaustive DTM");
            let two_phase = dtm_best_dvs(&oracle(workers, true), App::MpgDec, Kelvin(t_max), 0.5)
                .expect("surrogate DTM");
            assert_eq!(exact.dvs, two_phase.dvs, "T_max {t_max}, {workers} workers");
            assert_eq!(exact.feasible, two_phase.feasible);
            assert_eq!(
                exact.max_temperature.0.to_bits(),
                two_phase.max_temperature.0.to_bits(),
                "peak temperature differs at T_max {t_max}, {workers} workers"
            );
        }
    }
}

/// The intra-application schedule — a per-interval selection over the
/// same candidate grid — is bit-identical, switch count and all.
#[test]
fn intra_app_schedule_is_bit_identical_with_surrogate() {
    let m = model(380.0);
    for workers in [1, 4] {
        let exact = intra_app_best(&oracle(workers, false), App::Gzip, Strategy::Dvs, &m, 0.5)
            .expect("exhaustive schedule");
        let two_phase = intra_app_best(&oracle(workers, true), App::Gzip, Strategy::Dvs, &m, 0.5)
            .expect("surrogate schedule");
        assert_eq!(
            exact.per_interval, two_phase.per_interval,
            "{workers} workers"
        );
        assert_eq!(exact.switches, two_phase.switches);
        assert_eq!(exact.feasible, two_phase.feasible);
        assert_eq!(
            exact.relative_performance.to_bits(),
            two_phase.relative_performance.to_bits()
        );
        assert_eq!(exact.fit.value().to_bits(), two_phase.fit.value().to_bits());
    }
}

/// A shared surrogate attached to per-request oracles (the server-slot
/// pattern) keeps its calibrated tables across oracles over the same
/// engine — and the choices stay bit-identical to exhaustive search.
#[test]
fn shared_surrogate_across_oracles_is_bit_identical() {
    use std::sync::Arc;

    let m = model(365.0);
    let exact = oracle(2, false)
        .best(App::Twolf, Strategy::Dvs, &m, 0.5)
        .expect("exhaustive search");

    let shared = Arc::new(drm::Surrogate::new(SurrogateParams::default()).expect("surrogate"));
    let engine = drm::BatchEngine::with_workers(
        Evaluator::ibm_65nm(EvalParams::quick()).expect("evaluator"),
        2,
    );
    for round in 0..2 {
        let o = Oracle::from_engine(engine.clone()).with_shared_surrogate(Arc::clone(&shared));
        let choice = o
            .best(App::Twolf, Strategy::Dvs, &m, 0.5)
            .expect("surrogate search");
        assert_eq!(exact, choice, "round {round}");
    }
    // One calibration serves both rounds.
    assert_eq!(shared.calibrated_apps(), 1);
}

/// The surrogate earns its keep in timing runs, the deterministic half of
/// its speedup: over the full 198-candidate ArchDVS grid at one worker it
/// promotes only a handful of candidates into the cycle-level simulator,
/// under a quarter of what the exhaustive search simulates. Measured
/// before this test existed, at these settings: exhaustive 198 timing
/// runs, surrogate 14.
#[test]
fn surrogate_pays_under_a_quarter_of_the_timing_runs() {
    // Shorter runs than `quick()`: the counts, not the bits, are checked.
    const TINY: EvalParams = EvalParams {
        warmup_instructions: 5_000,
        measure_instructions: 20_000,
        interval_instructions: 5_000,
        seed: 3,
        leakage_iterations: 2,
        prewarm_bytes: 1 << 20,
    };
    let m = model(370.0);
    let timing_runs = |surrogate: bool| {
        let o = Oracle::with_workers(Evaluator::ibm_65nm(TINY).expect("evaluator"), 1);
        let o = if surrogate {
            o.with_surrogate(SurrogateParams::default())
                .expect("surrogate params")
        } else {
            o
        };
        o.best(App::Gzip, Strategy::ArchDvs, &m, 0.25)
            .expect("ArchDVS search");
        o.summary().timing_runs
    };
    let (exhaustive, two_phase) = (timing_runs(false), timing_runs(true));
    assert_eq!(exhaustive, 198, "one timing run per ArchDVS candidate");
    assert!(
        4 * two_phase < exhaustive,
        "surrogate paid {two_phase} timing runs, exhaustive {exhaustive}"
    );
}

/// The DTM and intra-application surrogate searches pay an exact amount
/// of work: timing runs, cached evaluations, evaluation-cache hits and
/// timing-cache reuses per search, on a fresh one-worker oracle. The
/// oracle's count is bounded by the test above; these two had no pin, so
/// a change that promotes, verifies or looks up one point more or less
/// fails here. Recorded with the surrogate enabled, at these settings.
#[test]
fn surrogate_dtm_and_intra_searches_pay_pinned_work() {
    let work = |o: &Oracle| {
        let s = o.summary();
        (
            s.timing_runs,
            o.evaluations_performed(),
            s.cache_hits,
            s.timing_reuses,
        )
    };
    for (t_max, want) in [(355.0, (9, 9, 16, 1)), (385.0, (8, 8, 16, 1))] {
        let o = oracle(1, true);
        dtm_best_dvs(&o, App::MpgDec, Kelvin(t_max), 0.25).expect("surrogate DTM");
        assert_eq!(work(&o), want, "DTM at T_max {t_max}");
    }
    let o = oracle(1, true);
    intra_app_best(&o, App::Gzip, Strategy::Dvs, &model(380.0), 0.25).expect("surrogate schedule");
    assert_eq!(work(&o), (11, 11, 20, 1), "intra-application gzip DVS");
}
