//! Cluster-vs-direct parity: the sweep fabric must be a pure transport
//! too. Whatever the shard count, and whoever dies along the way, the
//! folded sweep choice, evaluation counters, and fleet population must
//! be bit-identical to a single in-process engine — and a shard
//! restarted against a populated evaluation store must answer stored
//! points without re-running timing.
//!
//! The shards are real `Server`s on ephemeral loopback ports, addressed
//! through `cluster.addr` exactly as external `ramp serve` workers are.

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use drm::{
    run_fleet, ArchPoint, BatchEngine, DrmChoice, DvsPoint, EvalParams, Evaluator, FleetConfig,
    Oracle, Strategy, SweepSummary,
};
use scenario::{ClusterSpec, Scenario};
use sim_cluster::{ClusterEvent, ClusterSweep, Coordinator};
use sim_server::{Server, ServerConfig};
use workload::App;

/// Evaluation lengths small enough that a full parity pass stays in CI
/// budget on one core; parity is about bits, not simulation length.
const TINY: EvalParams = EvalParams {
    warmup_instructions: 5_000,
    measure_instructions: 20_000,
    interval_instructions: 5_000,
    seed: 3,
    leakage_iterations: 2,
    prewarm_bytes: 1 << 20,
};

fn tiny_config() -> ServerConfig {
    ServerConfig {
        eval: Some(TINY),
        ..ServerConfig::default()
    }
}

fn direct_evaluator() -> Evaluator {
    Scenario::paper_default()
        .evaluator_with(TINY)
        .expect("evaluator")
}

/// Starts `n` paper-default worker shards on ephemeral ports and a
/// coordinator addressing them through the scenario's `[cluster]`
/// section.
fn start_cluster(n: usize, config: &ServerConfig) -> (Vec<Server>, Coordinator) {
    let servers: Vec<Server> = (0..n)
        .map(|_| {
            Server::start(Scenario::paper_default(), config.clone(), "127.0.0.1:0")
                .expect("shard start")
        })
        .collect();
    let mut scn = Scenario::paper_default();
    scn.cluster = Some(ClusterSpec {
        shard_addrs: servers.iter().map(|s| s.local_addr().to_string()).collect(),
    });
    (servers, Coordinator::start(scn).expect("coordinator start"))
}

/// Shuts every shard down and waits for them to drain.
fn stop(servers: Vec<Server>) {
    for server in &servers {
        server.shutdown();
    }
    for server in servers {
        server.join();
    }
}

/// The direct single-process reference: one 1-worker engine evaluates
/// the deduplicated grid in a single pass (the counter reference), then
/// an oracle over the warm engine selects (the choice reference).
fn direct_reference(app: App, strategy: Strategy) -> (DrmChoice, SweepSummary) {
    let scn = Scenario::paper_default();
    let model = scn.model().expect("model");
    let candidates = scn.candidates(strategy, None).expect("grid");
    let base = (scn.base_arch(), scn.base_dvs());

    // The same first-seen dedup the coordinator performs before routing.
    let mut seen = HashSet::new();
    let mut jobs: Vec<(App, ArchPoint, DvsPoint)> = Vec::new();
    for &(arch, dvs) in candidates.iter().chain(std::iter::once(&base)) {
        let key = (
            arch.window,
            arch.alus,
            arch.fpus,
            dvs.frequency.0.to_bits(),
            dvs.vdd.0.to_bits(),
        );
        if seen.insert(key) {
            jobs.push((app, arch, dvs));
        }
    }

    let engine =
        BatchEngine::with_workers(direct_evaluator(), 1).with_base_config(scn.core.clone());
    let pass = engine.evaluate_all(&jobs).expect("direct pass");
    let choice = Oracle::from_engine(engine)
        .best_among(app, &candidates, base, &model)
        .expect("direct selection");
    (choice, pass)
}

/// Counter parity (wall/busy are timing, not semantics) plus bit parity
/// of the selected operating point.
fn assert_parity(label: &str, cluster: &ClusterSweep, direct: &(DrmChoice, SweepSummary)) {
    let (choice, pass) = direct;
    for (key, got, want) in [
        ("evaluations", cluster.summary.evaluations, pass.evaluations),
        ("cache_hits", cluster.summary.cache_hits, pass.cache_hits),
        ("timing_runs", cluster.summary.timing_runs, pass.timing_runs),
        (
            "timing_reuses",
            cluster.summary.timing_reuses,
            pass.timing_reuses,
        ),
    ] {
        assert_eq!(got, want, "{label}: `{key}` differs");
    }
    assert_eq!(cluster.choice.arch, choice.arch, "{label}: arch differs");
    for (key, got, want) in [
        (
            "freq",
            cluster.choice.dvs.frequency.0,
            choice.dvs.frequency.0,
        ),
        ("vdd", cluster.choice.dvs.vdd.0, choice.dvs.vdd.0),
        (
            "relative_performance",
            cluster.choice.relative_performance,
            choice.relative_performance,
        ),
        ("fit", cluster.choice.fit.value(), choice.fit.value()),
    ] {
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "{label}: `{key}` differs (cluster {got}, direct {want})"
        );
    }
    assert_eq!(
        cluster.choice.feasible, choice.feasible,
        "{label}: feasibility differs"
    );
}

/// Cold 2-shard and 4-shard sweeps both fold to the exact single-process
/// result: same selected point bits, same evaluation counters, no unit
/// evaluated twice anywhere.
#[test]
fn sharded_sweep_matches_direct_at_any_shard_count() {
    let direct = direct_reference(App::Gzip, Strategy::Dvs);
    for shards in [2, 4] {
        let (servers, cluster) = start_cluster(shards, &tiny_config());
        let swept = cluster
            .sweep(App::Gzip, Strategy::Dvs, None)
            .expect("cluster sweep");
        assert_eq!(swept.redispatched, 0, "{shards} shards: healthy run");
        assert_eq!(swept.summary.workers, shards);
        assert_parity(&format!("{shards} shards"), &swept, &direct);
        stop(servers);
    }
}

/// Killing a worker shard mid-sweep loses nothing: the survivors re-run
/// everything the dead shard ever touched, and the folded result is
/// still bit-identical to the direct single-process sweep.
#[test]
fn killing_a_shard_mid_sweep_preserves_parity() {
    // The worker only notices a shutdown on a read-timeout poll, so keep
    // the poll short: the chaos observer sleeps past it after the kill,
    // and the coordinator's next unit then hits a closed connection.
    const POLL: Duration = Duration::from_millis(50);
    let config = ServerConfig {
        read_timeout: POLL,
        ..tiny_config()
    };
    let (servers, mut cluster) = start_cluster(2, &config);
    let servers = Arc::new(servers);

    let killed = Arc::new(AtomicBool::new(false));
    let deaths = Arc::new(AtomicUsize::new(0));
    {
        let killed = Arc::clone(&killed);
        let deaths = Arc::clone(&deaths);
        let servers = Arc::clone(&servers);
        cluster.set_observer(move |event| match *event {
            ClusterEvent::UnitDone { shard, .. } => {
                // Assassinate whichever shard answers first, right after
                // its first unit — mid-queue, results already produced.
                if !killed.swap(true, Ordering::SeqCst) {
                    servers[shard].shutdown();
                    std::thread::sleep(3 * POLL);
                }
            }
            ClusterEvent::ShardDead { redispatched, .. } => {
                assert!(redispatched > 0, "a dead shard had work to re-route");
                deaths.fetch_add(1, Ordering::SeqCst);
            }
        });
    }

    let swept = cluster
        .sweep(App::Gzip, Strategy::Dvs, None)
        .expect("sweep survives the kill");
    assert_eq!(deaths.load(Ordering::SeqCst), 1, "exactly one shard died");
    assert!(swept.redispatched > 0, "the dead shard's units re-routed");
    assert_eq!(swept.summary.workers, 1, "one survivor finished the job");
    assert_parity(
        "post-kill survivor",
        &swept,
        &direct_reference(App::Gzip, Strategy::Dvs),
    );
    drop(cluster);
    stop(Arc::into_inner(servers).expect("the observer released the shards"));
}

/// A populated evaluation store makes restarts cheap: a fresh cluster
/// (at a different shard count) whose workers open the same
/// `ServerConfig::store_dir` pre-warms from the shared directory and
/// answers its first sweep with zero new timing runs — and still the
/// exact direct bits.
#[test]
fn restarted_cluster_prewarms_from_the_shared_store() {
    let dir = std::env::temp_dir().join(format!("ramp-cluster-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("store dir");
    let direct = direct_reference(App::Gzip, Strategy::Dvs);
    let config = ServerConfig {
        store_dir: Some(dir.clone()),
        ..tiny_config()
    };

    // Cold 2-shard run: every timing run lands in the shared store.
    let (servers, cold) = start_cluster(2, &config);
    let first = cold
        .sweep(App::Gzip, Strategy::Dvs, None)
        .expect("cold sweep");
    assert_parity("cold store-backed", &first, &direct);
    assert!(first.summary.timing_runs > 0, "cold run must simulate");
    let stored: u64 = cold
        .status()
        .iter()
        .filter(|s| s.alive)
        .map(|s| s.store_records)
        .sum();
    assert_eq!(
        stored, first.summary.timing_runs,
        "every timing run must be persisted"
    );
    stop(servers);

    // Restart at a different shard count against the same directory:
    // pre-warmed timing caches answer everything without simulating.
    let (servers, warm) = start_cluster(4, &config);
    let second = warm
        .sweep(App::Gzip, Strategy::Dvs, None)
        .expect("warm sweep");
    assert_eq!(
        second.summary.timing_runs, 0,
        "stored points must not re-simulate"
    );
    assert!(
        second.summary.timing_reuses > 0,
        "the first sweep after restart must reuse stored runs"
    );
    assert_eq!(
        second.summary.evaluations, first.summary.evaluations,
        "the evaluation cache is per-process: points re-evaluate (cheaply)"
    );
    assert_eq!(second.choice, first.choice, "the decision must not move");
    stop(servers);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Sharded fleet Monte Carlo folds batch sketches in batch-index order,
/// so the population summary — percentiles, violations, rank error —
/// equals a direct in-process `run_fleet` over the same dies.
#[test]
fn sharded_fleet_matches_direct_population() {
    let scn = Scenario::paper_default();
    let model = scn.model().expect("model");
    // > DIE_BATCH dies so the population genuinely splits across units.
    let config = FleetConfig {
        dies: 10_000,
        seed: 7,
        ..scn.fleet
    };

    let engine =
        BatchEngine::with_workers(direct_evaluator(), 1).with_base_config(scn.core.clone());
    let direct = run_fleet(
        &engine,
        App::Twolf,
        scn.base_arch(),
        scn.base_dvs(),
        &model,
        &config,
    )
    .expect("direct fleet");

    let (servers, cluster) = start_cluster(2, &tiny_config());
    let fleet = cluster.fleet(App::Twolf, &config).expect("cluster fleet");
    assert_eq!(fleet.batches, 3, "10k dies split into three 4096-die units");
    assert_eq!(fleet.redispatched, 0);
    // FleetSummary's equality is semantic: population statistics, not
    // worker counts or wall clock.
    assert_eq!(fleet.summary, direct, "population statistics diverged");

    // Variation magnitudes cannot ride the wire; an inconsistent config
    // must be rejected, not silently evaluated against the wrong fleet.
    let mut skewed = config;
    skewed.variation.sigma_leakage *= 2.0;
    let err = match cluster.fleet(App::Twolf, &skewed) {
        Ok(_) => panic!("skewed variation must be rejected"),
        Err(e) => e,
    };
    assert!(err.to_string().contains("variation"), "{err}");
    stop(servers);
}
