//! Bit-level goldens for the fleet Monte Carlo: every statistic of a
//! [`FleetSummary`] (by `to_bits`), over die counts that end on, just
//! before and just past a lane group and a [`drm::DIE_BATCH`] boundary,
//! at 1, 2 and 3 workers. Each digest is FNV-1a over the summaries'
//! bit text, so a change of a single bit in any die's FIT or lifetime
//! that reaches a statistic fails here. A change that moves them on
//! purpose must re-record the digests and say why.

use drm::{
    fnv1a64, run_fleet, ArchPoint, BatchEngine, DvsPoint, EvalParams, Evaluator, FleetConfig,
    FleetStats, FleetSummary, VariationParams,
};
use ramp::{FailureParams, QualificationPoint, ReliabilityModel};
use sim_common::{Floorplan, Kelvin};
use workload::App;

fn model() -> ReliabilityModel {
    ReliabilityModel::qualify(
        FailureParams::ramp_65nm(),
        &QualificationPoint::at_temperature(Kelvin(370.0), 0.35),
        &Floorplan::r10000_65nm().area_shares(),
        4000.0,
    )
    .expect("qualification")
}

fn engine(workers: usize) -> BatchEngine {
    BatchEngine::with_workers(
        Evaluator::ibm_65nm(EvalParams::quick()).expect("evaluator"),
        workers,
    )
}

fn stats_bits(s: &FleetStats) -> String {
    [s.mean, s.min, s.max, s.p1, s.p5, s.p50, s.p95]
        .map(|v| format!("{:016x}", v.to_bits()))
        .join(",")
}

/// Every field of the summary but the diagnostics that vary run to run
/// (`workers`, `wall`).
fn summary_bits(s: &FleetSummary) -> String {
    format!(
        "{}|{}|{:016x}|{}|{}|{:016x}|{}\n",
        s.dies,
        s.violations,
        s.target_fit.to_bits(),
        stats_bits(&s.fit),
        stats_bits(&s.lifetime_years),
        s.rank_error.to_bits(),
        s.timing_runs,
    )
}

fn fleet_text(engine: &BatchEngine, model: &ReliabilityModel, config: &FleetConfig) -> String {
    let summary = run_fleet(
        engine,
        App::Twolf,
        ArchPoint::most_aggressive(),
        DvsPoint::base(),
        model,
        config,
    )
    .expect("fleet run");
    summary_bits(&summary)
}

fn digest(text: &str) -> String {
    format!("{:016x}", fnv1a64(text.as_bytes()))
}

/// Die counts around lane-group and batch boundaries, at every worker
/// count: the text is the same at 1, 2 and 3 workers, and pinned.
#[test]
fn fleet_summaries_match_the_recorded_digest() {
    let m = model();
    let mut texts = Vec::new();
    for workers in [1, 2, 3] {
        let e = engine(workers);
        let mut text = String::new();
        for dies in [1, 7, 9, 4095, 4097, 20003] {
            let config = FleetConfig {
                dies,
                ..FleetConfig::default()
            };
            text.push_str(&fleet_text(&e, &m, &config));
        }
        texts.push(text);
    }
    assert_eq!(texts[0], texts[1], "1 vs 2 workers");
    assert_eq!(texts[0], texts[2], "1 vs 3 workers");
    assert_eq!(digest(&texts[0]), "119710017783f4ae");
}

/// A fleet without variation, and one whose leakage-β spread is wide
/// enough that about a fifth of its dies clamp β at zero.
#[test]
fn edge_variations_match_the_recorded_digest() {
    let m = model();
    let e = engine(2);
    let none = FleetConfig {
        dies: 4097,
        variation: VariationParams::none(),
        ..FleetConfig::default()
    };
    let clamped = FleetConfig {
        dies: 4097,
        variation: VariationParams {
            sigma_beta: 0.02,
            ..VariationParams::default()
        },
        ..FleetConfig::default()
    };
    let text = fleet_text(&e, &m, &none) + &fleet_text(&e, &m, &clamped);
    assert_eq!(digest(&text), "8b0116d4ae0d1bbc");
}
