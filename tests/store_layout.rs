//! The run store's per-shape layout: an engine opens only its own run
//! shape's directory under a store root, so a record of another shape is
//! never parsed. The `drm.store.*` counters are process-global, so this
//! file holds a single test.

use drm::{
    ArchPoint, BatchEngine, DvsPoint, EvalParams, Evaluator, RunDigest, RunStore, StoreRecord,
    TimingCacheKey,
};
use sim_obs::MetricValue;
use workload::App;

fn counter(snapshot: &[sim_obs::Metric], name: &str) -> u64 {
    snapshot
        .iter()
        .find(|m| m.name == name)
        .map_or(0, |m| match m.value {
            MetricValue::Counter(v) => v,
            _ => panic!("{name} is not a counter"),
        })
}

#[test]
fn an_engine_parses_no_record_of_another_shape() {
    let root = std::env::temp_dir().join(format!("ramp-store-layout-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let quick = EvalParams::quick();
    let engine = |params| BatchEngine::with_workers(Evaluator::ibm_65nm(params).unwrap(), 1);
    let job = (App::Gzip, ArchPoint::most_aggressive(), DvsPoint::base());

    // The engine's own shape holds one record it can serve.
    let writer = engine(quick).with_store(RunStore::open(&root, &quick, "writer").unwrap());
    writer.evaluate_all(&[job]).unwrap();
    let config = job.1.apply(writer.base_config(), job.2).unwrap();
    let run = writer
        .timing_cache()
        .get(&TimingCacheKey::new(job.0, &config))
        .unwrap();

    // Ten other shapes (seeds 1..=10) hold three records each.
    for seed in 1..=10 {
        let params = EvalParams { seed, ..quick };
        let store = RunStore::open(&root, &params, "other").unwrap();
        for r in 0..3 {
            store
                .append(&StoreRecord {
                    digest: RunDigest(seed << 8 | r),
                    app: job.0,
                    arch: job.1,
                    dvs: job.2,
                    run: (*run).clone(),
                })
                .unwrap();
        }
    }
    let shapes = std::fs::read_dir(&root).unwrap().count();
    assert_eq!(shapes, 11);

    sim_obs::reset_for_tests();
    sim_obs::set_enabled(true);
    let reader = engine(quick).with_store(RunStore::open(&root, &quick, "reader").unwrap());
    let snapshot = sim_obs::flush();
    sim_obs::reset_for_tests();
    assert_eq!(counter(&snapshot, "drm.store.records_loaded"), 1);
    assert_eq!(counter(&snapshot, "drm.store.prewarmed"), 1);
    assert_eq!(counter(&snapshot, "drm.store.foreign"), 0);
    assert_eq!(reader.store().unwrap().len(), 1);
    let summary = reader.evaluate_all(&[job]).unwrap();
    assert_eq!(summary.timing_runs, 0, "the stored point re-simulated");
    std::fs::remove_dir_all(&root).unwrap();
}
