//! Bit-level goldens for the three consumers of the leakage ↔
//! temperature fixed point: full evaluations (both §6.3 passes), the
//! surrogate's analytical scores and the reactive controller's epoch
//! loop. Each digest is FNV-1a over the `{:?}` text of the results, so
//! any change of a single bit in a temperature, power or FIT fails here.
//! A change that moves them on purpose must re-record the digests and
//! say why.

use drm::{
    fnv1a64, ArchPoint, BatchEngine, ControllerParams, DvsPoint, EvalParams, Evaluator,
    ReactiveDrm, Strategy, Surrogate, SurrogateParams,
};
use ramp::{FailureParams, QualificationPoint, ReliabilityModel};
use sim_common::{Floorplan, Hertz, Kelvin, Volts};
use sim_cpu::CoreConfig;
use workload::App;

fn digest(text: &str) -> String {
    format!("{:016x}", fnv1a64(text.as_bytes()))
}

/// Every app at the base point and at 5 GHz / 1.11 V (past thermal
/// runaway on the hot apps): the per-interval profiles and the sink.
#[test]
fn evaluations_match_the_recorded_digest() {
    let evaluator = Evaluator::ibm_65nm(EvalParams::quick()).expect("evaluator");
    let base = CoreConfig::base();
    let hot = base.with_dvs(Hertz::from_ghz(5.0), Volts(1.11));
    let mut text = String::new();
    for app in App::ALL {
        for config in [&base, &hot] {
            let ev = evaluator.evaluate(app, config).expect("evaluation");
            text.push_str(&format!("{:?}|{:?}\n", ev.intervals, ev.sink_temperature));
        }
    }
    assert_eq!(digest(&text), "af2bd03415ca3696");
}

/// The surrogate's score of every ArchDVS candidate of one app.
#[test]
fn surrogate_scores_match_the_recorded_digest() {
    let engine = BatchEngine::new(Evaluator::ibm_65nm(EvalParams::quick()).expect("evaluator"));
    let surrogate = Surrogate::new(SurrogateParams::default()).expect("surrogate");
    let candidates = Strategy::ArchDvs.candidates(0.25);
    assert_eq!(candidates.len(), 198);
    let table = surrogate
        .table_for(
            &engine,
            App::Gzip,
            &candidates,
            (ArchPoint::most_aggressive(), DvsPoint::base()),
        )
        .expect("calibration");
    let mut text = String::new();
    for &(arch, dvs) in &candidates {
        let config = arch.apply(engine.base_config(), dvs).expect("config");
        text.push_str(&format!("{:?}\n", table.score(engine.evaluator(), &config)));
    }
    assert_eq!(digest(&text), "8ab8517710011fbc");
}

/// The reactive controller's full trace for two apps.
#[test]
fn controller_traces_match_the_recorded_digest() {
    let model = ReliabilityModel::qualify(
        FailureParams::ramp_65nm(),
        &QualificationPoint::at_temperature(Kelvin(370.0), 0.4),
        &Floorplan::r10000_65nm().area_shares(),
        4000.0,
    )
    .expect("qualification");
    let drm = ReactiveDrm::ibm_65nm(ControllerParams::quick()).expect("controller");
    let mut text = String::new();
    for app in [App::MpgDec, App::Bzip2] {
        let trace = drm.run(app, &model).expect("controller run");
        text.push_str(&format!("{trace:?}\n"));
    }
    assert_eq!(digest(&text), "8acad69e51817b7c");
}
