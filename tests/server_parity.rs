//! Server-vs-direct parity: the network service must be a pure
//! transport. Every number a client reads off the wire — evaluations,
//! FIT budgets, sweep decisions — must be bit-identical to calling the
//! evaluator in-process, whatever the concurrency, and no byte sequence
//! a client sends may take the server down.

use std::io::Write as _;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use drm::{run_fleet, BatchEngine, EvalParams, Evaluator, FleetConfig};
use ramp::Mechanism;
use scenario::Scenario;
use sim_common::textfmt::corrupt;
use sim_server::{Client, Reply, Server, ServerConfig, Status, WATCH_FRAME_KIND};
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

fn start_server(config: ServerConfig) -> Server {
    Server::start(Scenario::paper_default(), config, "127.0.0.1:0").expect("server start")
}

fn direct_evaluator() -> Evaluator {
    Scenario::paper_default()
        .evaluator_with(TINY)
        .expect("evaluator")
}

/// The operating points parity is checked at: the scenario default, an
/// on-grid DVS point, and an off-default architecture.
const POINTS: &[&str] = &[
    "eval gzip",
    "eval gzip freq=3500000000",
    "eval mpgdec window=64 alus=4 fpus=2",
];

/// `eval` responses over the socket carry exactly the bits the direct
/// evaluator produces — shortest-round-trip float formatting on the wire
/// must lose nothing.
#[test]
fn eval_matches_direct_evaluation_bit_for_bit() {
    let server = start_server(tiny_config());
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let scn = Scenario::paper_default();
    let evaluator = direct_evaluator();

    for line in POINTS {
        let reply = client.request(line).expect("request");
        assert!(reply.is_ok(), "{line}: {}", reply.raw);

        // Reconstruct the direct in-process evaluation at the echoed
        // operating point.
        let app = App::ALL
            .into_iter()
            .find(|a| a.name() == reply.get("app").unwrap())
            .expect("echoed app");
        let mut arch = scn.base_arch();
        arch.window = reply.u64("window").unwrap() as u32;
        arch.alus = reply.u64("alus").unwrap() as u32;
        arch.fpus = reply.u64("fpus").unwrap() as u32;
        let dvs = if line.contains("freq=") {
            scn.dvs.at_ghz(3.5).expect("grid point")
        } else {
            scn.base_dvs()
        };
        let config = arch.apply(&scn.core, dvs).expect("config");
        let ev = evaluator.evaluate(app, &config).expect("direct evaluation");

        for (key, direct) in [
            ("ipc", ev.ipc),
            ("bips", ev.bips),
            ("power_w", ev.average_power().0),
            ("tmax_k", ev.max_temperature().0),
            ("sink_k", ev.sink_temperature.0),
        ] {
            let wire = reply.f64(key).expect(key);
            assert_eq!(
                wire.to_bits(),
                direct.to_bits(),
                "{line}: `{key}` differs (wire {wire}, direct {direct})"
            );
        }
        assert_eq!(reply.u64("intervals").unwrap() as usize, ev.intervals.len());
    }
}

/// A slice-enabled scenario is a pure performance vehicle on the server
/// too: with checkpoints pre-cut so the server's very first evaluation
/// takes the parallel resume path, `eval` answers carry exactly the bits
/// a direct *unsliced* evaluation produces.
#[test]
fn sliced_scenario_matches_direct_evaluation_bit_for_bit() {
    use drm::SliceParams;

    let dir = std::env::temp_dir().join(format!("ramp-server-slice-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let scn = Scenario::paper_default();
    let config = scn
        .base_arch()
        .apply(&scn.core, scn.base_dvs())
        .expect("config");

    // Cut the checkpoints up front (sequential pass) so the server's
    // engine resumes them in parallel on its first request.
    let slice = SliceParams::new(2 * TINY.interval_instructions)
        .with_dir(&dir)
        .with_workers(2);
    direct_evaluator()
        .timing_run_sliced(&App::Gzip.profile(), &config, &slice)
        .expect("cut pass");

    let mut sliced_scn = Scenario::paper_default();
    sliced_scn.eval = TINY;
    sliced_scn.slice = Some(scenario::SliceSpec {
        instructions: slice.instructions,
        checkpoint_dir: Some(dir.to_string_lossy().into_owned()),
    });
    sliced_scn.validate().expect("slice-enabled scenario");
    let server = Server::start(sliced_scn, tiny_config(), "127.0.0.1:0").expect("server start");
    let mut client = Client::connect(server.local_addr()).expect("connect");

    let ev = direct_evaluator()
        .evaluate(App::Gzip, &config)
        .expect("direct evaluation");
    let reply = client.request("eval gzip").expect("request");
    assert!(reply.is_ok(), "{}", reply.raw);
    for (key, direct) in [
        ("ipc", ev.ipc),
        ("bips", ev.bips),
        ("power_w", ev.average_power().0),
        ("tmax_k", ev.max_temperature().0),
        ("sink_k", ev.sink_temperature.0),
    ] {
        let wire = reply.f64(key).expect(key);
        assert_eq!(
            wire.to_bits(),
            direct.to_bits(),
            "sliced server `{key}` differs (wire {wire}, direct {direct})"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A surrogate-enabled scenario is a pure performance vehicle on the
/// server too: a `sweep` routed through the uploaded scenario's
/// two-phase search answers exactly the bits an exhaustive in-process
/// search over the same grid produces.
#[test]
fn surrogate_sweep_matches_direct_exhaustive_search_bit_for_bit() {
    use drm::{Oracle, Strategy};

    let server = start_server(tiny_config());
    let mut client = Client::connect(server.local_addr()).expect("connect");

    let mut surr = Scenario::paper_default();
    surr.name = "surrogate-on".to_owned();
    surr.surrogate = Some(scenario::SurrogateSpec::default());
    let upload = client
        .upload_scenario("surr", &surr.to_text())
        .expect("upload");
    assert!(upload.is_ok(), "{}", upload.raw);

    let reply = client
        .request("sweep gzip strategy=dvs scenario=surr")
        .expect("request");
    assert!(reply.is_ok(), "{}", reply.raw);

    // The exhaustive search the wire answer must reproduce: no
    // surrogate, same engine parameters, same candidate grid.
    let scn = Scenario::paper_default();
    let model = scn.model().expect("model");
    let engine =
        BatchEngine::with_workers(direct_evaluator(), 1).with_base_config(scn.core.clone());
    let candidates = scn.candidates(Strategy::Dvs, None).expect("grid");
    let choice = Oracle::from_engine(engine)
        .best_among(
            App::Gzip,
            &candidates,
            (scn.base_arch(), scn.base_dvs()),
            &model,
        )
        .expect("direct exhaustive search");

    assert_eq!(reply.u64("window").unwrap() as u32, choice.arch.window);
    assert_eq!(reply.u64("alus").unwrap() as u32, choice.arch.alus);
    assert_eq!(reply.u64("fpus").unwrap() as u32, choice.arch.fpus);
    assert_eq!(
        reply.f64("freq_ghz").unwrap().to_bits(),
        choice.dvs.frequency.to_ghz().to_bits()
    );
    assert_eq!(
        reply.f64("vdd").unwrap().to_bits(),
        choice.dvs.vdd.0.to_bits()
    );
    for (key, direct) in [
        ("relative_performance", choice.relative_performance),
        ("fit", choice.fit.value()),
    ] {
        let wire = reply.f64(key).expect(key);
        assert_eq!(
            wire.to_bits(),
            direct.to_bits(),
            "surrogate sweep `{key}` differs (wire {wire}, direct {direct})"
        );
    }
    assert_eq!(
        reply.get("feasible").unwrap(),
        if choice.feasible { "true" } else { "false" }
    );
}

/// `fit` responses — per-mechanism budgets, total, MTTF, feasibility —
/// match the direct reliability-model application bit for bit.
#[test]
fn fit_matches_direct_model_application_bit_for_bit() {
    let server = start_server(tiny_config());
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let scn = Scenario::paper_default();
    let model = scn.model().expect("model");
    let evaluator = direct_evaluator();

    let reply = client.request("fit twolf").expect("request");
    assert!(reply.is_ok(), "{}", reply.raw);
    let config = scn
        .base_arch()
        .apply(&scn.core, scn.base_dvs())
        .expect("config");
    let ev = evaluator
        .evaluate(App::Twolf, &config)
        .expect("direct evaluation");
    let fit = ev.application_fit(&model);
    for mechanism in Mechanism::ALL {
        assert_eq!(
            reply.f64(mechanism.name()).unwrap().to_bits(),
            fit.mechanism_total(mechanism).value().to_bits(),
            "{} budget differs",
            mechanism.name()
        );
    }
    assert_eq!(
        reply.f64("total").unwrap().to_bits(),
        fit.total().value().to_bits()
    );
    assert_eq!(
        reply.f64("mttf_h").unwrap().to_bits(),
        fit.total().to_mttf().0.to_bits()
    );
    assert_eq!(
        reply.get("feasible").unwrap(),
        if fit.meets(model.target_fit()) {
            "true"
        } else {
            "false"
        }
    );
}

/// `fleet` responses — population percentiles, violation counts, rank
/// error — match an in-process `run_fleet` over the same die population
/// bit for bit. The fleet RNG is seeded per die, so this also pins the
/// wire format against any scheduling or formatting drift.
#[test]
fn fleet_matches_direct_population_bit_for_bit() {
    let server = start_server(tiny_config());
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let scn = Scenario::paper_default();
    let model = scn.model().expect("model");

    let reply = client
        .request("fleet twolf dies=2000 seed=7")
        .expect("request");
    assert!(reply.is_ok(), "{}", reply.raw);

    let engine =
        BatchEngine::with_workers(direct_evaluator(), 1).with_base_config(scn.core.clone());
    let config = FleetConfig {
        dies: 2000,
        seed: 7,
        ..scn.fleet
    };
    let summary = run_fleet(
        &engine,
        App::Twolf,
        scn.base_arch(),
        scn.base_dvs(),
        &model,
        &config,
    )
    .expect("direct fleet");

    assert_eq!(reply.u64("dies").unwrap(), summary.dies);
    assert_eq!(reply.u64("violations").unwrap(), summary.violations);
    for (key, direct) in [
        ("violation_fraction", summary.violation_fraction()),
        ("target", summary.target_fit),
        ("fit_mean", summary.fit.mean),
        ("fit_p50", summary.fit.p50),
        ("fit_p95", summary.fit.p95),
        ("life_mean_y", summary.lifetime_years.mean),
        ("life_p1_y", summary.lifetime_years.p1),
        ("life_p5_y", summary.lifetime_years.p5),
        ("life_p50_y", summary.lifetime_years.p50),
        ("life_p95_y", summary.lifetime_years.p95),
        ("rank_error", summary.rank_error),
    ] {
        let wire = reply.f64(key).expect(key);
        assert_eq!(
            wire.to_bits(),
            direct.to_bits(),
            "`{key}` differs (wire {wire}, direct {direct})"
        );
    }

    // Semantic errors land on the offending token, not the connection.
    let bad = client.request("fleet twolf shape=0.01").expect("request");
    assert_eq!(bad.status, Status::Err, "{}", bad.raw);
    assert!(bad.raw.contains("fleet.shape"), "{}", bad.raw);
}

/// Four clients hammering the same points concurrently race the shared
/// caches and the micro-batcher; everyone must read byte-identical
/// responses, and a warm cache must absorb all of the duplicate work.
#[test]
fn concurrent_clients_get_identical_answers() {
    let server = start_server(tiny_config());
    let addr = server.local_addr();

    fn one_client(addr: std::net::SocketAddr, n: usize) -> Vec<String> {
        let mut client = Client::connect(addr).expect("connect");
        POINTS
            .iter()
            .map(|line| {
                let raw = client.request_raw(line).expect("request");
                assert!(raw.starts_with("ok "), "client {n}: {raw}");
                raw
            })
            .collect()
    }

    // Warm the shared cache with one sequential pass first: the eval
    // cache computes misses without holding a lock, so a fully-cold
    // concurrent start may legitimately evaluate a point twice. Against
    // a warm cache the accounting below is exact.
    let warm = one_client(addr, 0);
    assert_eq!(server.sweep_summary().evaluations, POINTS.len() as u64);

    let handles: Vec<_> = (1..5)
        .map(|n| std::thread::spawn(move || one_client(addr, n)))
        .collect();
    for handle in handles {
        let transcript = handle.join().expect("client thread");
        assert_eq!(
            transcript, warm,
            "concurrent client diverged from the sequential pass"
        );
    }

    // 4 clients × 3 points all served from the shared cache: no new
    // evaluations, no new timing runs.
    let summary = server.sweep_summary();
    assert_eq!(summary.evaluations, POINTS.len() as u64);
    assert_eq!(summary.timing_runs, POINTS.len() as u64);
    assert!(summary.cache_hits >= 12, "expected ≥12 warm hits");
    server.shutdown();
    server.join();
}

/// A full queue answers `busy` (with the configured depth) instead of
/// blocking, and the connection stays usable for later requests.
#[test]
fn full_queue_sheds_with_busy_and_recovers() {
    let server = start_server(ServerConfig {
        queue_depth: 1,
        drain_workers: 1,
        linger: Duration::ZERO,
        eval: Some(TINY),
        ..ServerConfig::default()
    });
    let addr = server.local_addr();

    // Occupy the single drain worker with a long request, then park a
    // second one in the single queue slot.
    let sleeper = |ms: u64| {
        std::thread::spawn(move || {
            let mut c = Client::connect(addr).expect("connect");
            let reply = c.request(&format!("sleep ms={ms}")).expect("sleep");
            assert!(reply.is_ok(), "{}", reply.raw);
        })
    };
    let t1 = sleeper(600);
    std::thread::sleep(Duration::from_millis(150));
    let t2 = sleeper(600);
    std::thread::sleep(Duration::from_millis(150));

    // Worker busy + queue full: admission control sheds this request.
    let mut shed = Client::connect(addr).expect("connect");
    let reply = shed.request("sleep ms=1").expect("request");
    assert_eq!(reply.status, Status::Busy, "{}", reply.raw);
    assert_eq!(reply.u64("queue_depth").unwrap(), 1, "{}", reply.raw);

    // The shed connection is not penalized: unqueued requests still
    // answer immediately, and queued ones succeed once the jam clears.
    shed.ping().expect("ping after busy");
    t1.join().expect("sleeper 1");
    t2.join().expect("sleeper 2");
    let retry = shed.request("sleep ms=1").expect("retry");
    assert!(retry.is_ok(), "{}", retry.raw);

    assert_eq!(server.stats().shed, 1);
    server.shutdown();
    server.join();
}

/// 300 seeded corruptions of canonical request lines — dropped,
/// duplicated and cut tokens, hostile numbers — each get exactly one
/// `ok`/`err`/`busy` response per line and never kill the connection loop.
#[test]
fn protocol_fuzz_never_kills_the_connection() {
    let server = start_server(tiny_config());
    let mut client = Client::connect(server.local_addr()).expect("connect");
    // Verbs with effects that would stall or end the fuzz loop
    // (`shutdown`, `sleep`, `scenario`, streaming `watch`) stay out.
    const CANONICAL: &[&str] = &[
        "ping",
        "stats",
        "eval gzip freq=4000000000 vdd=1 window=128 alus=6 fpus=4",
        "fit gzip tqual=394 alpha=0.48 target=4000",
        "sweep gzip strategy=dvs tqual=370",
        "fleet twolf dies=5000 seed=7",
    ];
    for i in 0..300u64 {
        let canonical = CANONICAL[i as usize % CANONICAL.len()];
        let mutated = corrupt(canonical, 0x5eed + i);
        for line in mutated.lines() {
            let verb = line.split_whitespace().next().unwrap_or("");
            if ["shutdown", "sleep", "scenario", "watch"].contains(&verb) {
                continue;
            }
            let raw = client
                .request_raw(line)
                .unwrap_or_else(|e| panic!("case {i} `{line}` broke the connection: {e}"));
            let reply = Reply::parse(&raw)
                .unwrap_or_else(|e| panic!("case {i} `{line}` got unparsable reply `{raw}`: {e}"));
            assert!(
                matches!(reply.status, Status::Ok | Status::Err | Status::Busy),
                "case {i}: {raw}"
            );
        }
    }
    // The connection and the server both survived the abuse.
    client.ping().expect("ping after fuzzing");
    assert_eq!(server.stats().connections, 1);
}

/// A server restarted on the same `store_dir` pre-warms its timing cache
/// from the runs the first one stored: the same sweep then runs no timing
/// simulation and answers bit-identically.
#[test]
fn restarted_server_prewarms_from_the_store() {
    let dir = std::env::temp_dir().join(format!("ramp-server-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("store dir");
    let config = ServerConfig {
        store_dir: Some(dir.clone()),
        ..tiny_config()
    };
    let sweep_once = || {
        let server = start_server(config.clone());
        let mut client = Client::connect(server.local_addr()).expect("connect");
        let reply = client
            .request_raw("sweep gzip strategy=dvs")
            .expect("sweep");
        let stats = client.request("stats").expect("stats");
        client.request("shutdown").expect("shutdown");
        server.join();
        (reply, stats)
    };

    let (cold, stats) = sweep_once();
    assert!(cold.starts_with("ok sweep "), "{cold}");
    let runs = stats.u64("timing_runs").expect("timing_runs");
    assert!(runs > 0, "a cold sweep must simulate");
    assert_eq!(
        stats.u64("store_records").expect("store_records"),
        runs,
        "every timing run must be stored"
    );

    let (warm, stats) = sweep_once();
    assert_eq!(stats.u64("timing_runs").expect("timing_runs"), 0);
    assert!(stats.u64("timing_reuses").expect("timing_reuses") > 0);
    assert_eq!(warm, cold, "the stored runs must answer bit-identically");
    let _ = std::fs::remove_dir_all(&dir);
}

/// An uploaded scenario is a first-class engine: evaluating through it
/// returns the same bits as the built-in default built from the same
/// text, and re-uploading identical text is idempotent.
#[test]
fn scenario_upload_round_trips() {
    let server = start_server(tiny_config());
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let text = Scenario::paper_default().to_text();

    let upload = client.upload_scenario("alt", &text).expect("upload");
    assert!(upload.is_ok(), "{}", upload.raw);
    let again = client.upload_scenario("alt", &text).expect("re-upload");
    assert!(again.is_ok(), "idempotent re-upload: {}", again.raw);

    let via_default = client.request_raw("eval gzip").expect("default eval");
    let via_alt = client
        .request_raw("eval gzip scenario=alt")
        .expect("alt eval");
    assert!(via_alt.starts_with("ok "), "{via_alt}");
    assert_eq!(
        via_default, via_alt,
        "identical scenario text must evaluate to identical bytes"
    );

    let missing = client
        .request("eval gzip scenario=ghost")
        .expect("unknown scenario");
    assert_eq!(missing.status, Status::Err, "{}", missing.raw);
}

/// A network client cannot choose where the server writes: an uploaded
/// scenario naming a checkpoint directory is refused with one `err`
/// line, nothing is created, and the connection keeps serving.
#[test]
fn upload_naming_a_path_is_refused() {
    let dir = std::env::temp_dir().join(format!("ramp-upload-ckpt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let server = start_server(tiny_config());
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let mut evil = Scenario::paper_default();
    evil.slice = Some(scenario::SliceSpec {
        instructions: 2 * evil.eval.interval_instructions,
        checkpoint_dir: Some(dir.to_string_lossy().into_owned()),
    });

    let upload = client
        .upload_scenario("evil", &evil.to_text())
        .expect("upload");
    assert_eq!(upload.status, Status::Err, "{}", upload.raw);
    assert!(
        upload.raw.contains("slice.checkpoint_dir"),
        "{}",
        upload.raw
    );
    let eval = client
        .request("eval gzip scenario=evil")
        .expect("eval through the refused scenario");
    assert_eq!(eval.status, Status::Err, "{}", eval.raw);
    assert!(!dir.exists(), "a refused upload must not touch the disk");
    client.ping().expect("ping after the refused upload");
}

/// `stats` reports wall-clock uptime (monotonically advancing) and the
/// instantaneous queue depth alongside the traffic counters.
#[test]
fn stats_reports_uptime_and_queue_depth() {
    let server = start_server(tiny_config());
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let first = client.request("stats").expect("stats");
    assert!(first.is_ok(), "{}", first.raw);
    let t0 = first.f64("uptime_s").expect("uptime_s missing");
    assert!(t0 >= 0.0, "{}", first.raw);
    assert!(first.u64("queue_len").is_ok(), "{}", first.raw);
    std::thread::sleep(Duration::from_millis(60));
    let second = client.request("stats").expect("stats");
    let t1 = second.f64("uptime_s").expect("uptime_s missing");
    assert!(
        t1 >= t0 + 0.05,
        "uptime must advance monotonically ({t0} -> {t1})"
    );
}

/// A 100 ms telemetry tick — window-ring snapshots, SLO evaluation,
/// per-verb latency histograms — must not perturb one bit of what
/// clients read off the wire: a ticking server and a telemetry-free
/// server answer the same requests with identical bytes.
#[test]
fn telemetry_ticks_leave_responses_bit_identical() {
    sim_obs::set_enabled(true);
    let plain = start_server(ServerConfig {
        telemetry_tick: None,
        ..tiny_config()
    });
    let ticking = start_server(ServerConfig {
        telemetry_tick: Some(Duration::from_millis(100)),
        ..tiny_config()
    });
    let mut a = Client::connect(plain.local_addr()).expect("connect plain");
    let mut b = Client::connect(ticking.local_addr()).expect("connect ticking");
    for line in POINTS {
        let ra = a.request_raw(line).expect("plain request");
        // Let ticks land between (and during) the telemetered requests.
        std::thread::sleep(Duration::from_millis(120));
        let rb = b.request_raw(line).expect("ticking request");
        assert!(rb.starts_with("ok "), "{rb}");
        assert_eq!(ra, rb, "telemetry changed the wire bytes for `{line}`");
    }
    let telemetry = ticking.state().telemetry().expect("telemetry enabled");
    assert!(
        telemetry.ring().window().is_some(),
        "no telemetry tick landed during the test"
    );
}

/// `watch` streams consecutive frames whose per-counter deltas are
/// exactly the differences of the cumulative totals they ride with —
/// summed over the stream they reproduce the final totals — and the
/// closing `watch-end` summary agrees.
#[test]
fn watch_frames_deltas_sum_to_totals() {
    let server = start_server(tiny_config());
    let addr = server.local_addr();

    // Background traffic so the counters actually move mid-stream.
    let stop = Arc::new(AtomicBool::new(false));
    let traffic = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut c = Client::connect(addr).expect("traffic connect");
            while !stop.load(Ordering::Relaxed) {
                c.ping().expect("traffic ping");
                std::thread::sleep(Duration::from_millis(5));
            }
        })
    };

    let mut watcher = Client::connect(addr).expect("watcher connect");
    watcher
        .send_line("watch interval_ms=50 frames=12")
        .expect("subscribe");
    let mut frames: Vec<Reply> = Vec::new();
    let end = loop {
        let reply = watcher.next_reply().expect("stream reply");
        assert!(reply.is_ok(), "{}", reply.raw);
        if reply.kind == "watch-end" {
            break reply;
        }
        assert_eq!(reply.kind, WATCH_FRAME_KIND, "{}", reply.raw);
        frames.push(reply);
    };
    stop.store(true, Ordering::Relaxed);
    traffic.join().expect("traffic thread");

    assert_eq!(frames.len(), 12, "subscription asked for exactly 12 frames");
    assert_eq!(end.u64("frames").unwrap(), 12, "{}", end.raw);
    for (i, frame) in frames.iter().enumerate() {
        assert_eq!(frame.u64("seq").unwrap(), i as u64 + 1, "{}", frame.raw);
    }
    for pair in frames.windows(2) {
        assert!(
            pair[1].f64("uptime_s").unwrap() >= pair[0].f64("uptime_s").unwrap(),
            "uptime went backwards"
        );
    }
    for key in ["requests", "shed", "errors", "batches", "batched_requests"] {
        let cum = |f: &Reply| {
            f.u64(key)
                .unwrap_or_else(|_| panic!("{key} missing: {}", f.raw))
        };
        let delta = |f: &Reply| {
            f.u64(&format!("d_{key}"))
                .unwrap_or_else(|_| panic!("d_{key} missing: {}", f.raw))
        };
        for pair in frames.windows(2) {
            assert_eq!(
                delta(&pair[1]),
                cum(&pair[1]) - cum(&pair[0]),
                "frame {} `{key}` delta is not the cumulative difference",
                pair[1].u64("seq").unwrap()
            );
        }
        // The deltas reconstruct the stream end-to-end: their sum is the
        // final total minus the subscription-time baseline.
        let baseline = cum(&frames[0]) - delta(&frames[0]);
        let sum: u64 = frames.iter().map(delta).sum();
        assert_eq!(
            sum,
            cum(frames.last().unwrap()) - baseline,
            "`{key}` deltas do not sum to the total"
        );
    }
    // Pings every 5 ms across 12 × 50 ms frames: traffic moved.
    let first = frames.first().unwrap();
    let last = frames.last().unwrap();
    assert!(
        last.u64("requests").unwrap() > first.u64("requests").unwrap(),
        "counters never moved during the stream"
    );
    // The closing summary carries the final cumulative total.
    assert!(
        end.u64("requests").unwrap() >= last.u64("requests").unwrap(),
        "{}",
        end.raw
    );

    // The connection survives the stream: plain requests still work.
    watcher.ping().expect("ping after watch");
    server.shutdown();
    server.join();
}

/// `shutdown` drains in-flight work, the joined server reports its
/// traffic, and the port stops accepting.
#[test]
fn shutdown_drains_and_closes_the_port() {
    let server = start_server(tiny_config());
    let addr = server.local_addr();

    // Park a request in flight, then shut down from a second connection:
    // the drain must answer the sleeper before the workers exit.
    let sleeper = std::thread::spawn(move || {
        let mut c = Client::connect(addr).expect("connect");
        c.request("sleep ms=300").expect("drained reply")
    });
    std::thread::sleep(Duration::from_millis(100));
    let mut c = Client::connect(addr).expect("connect");
    let reply = c.request("shutdown").expect("shutdown");
    assert!(reply.is_ok(), "{}", reply.raw);

    let drained = sleeper.join().expect("sleeper thread");
    assert!(drained.is_ok(), "in-flight work dropped: {}", drained.raw);
    let stats = server.join();
    assert_eq!(stats.connections, 2);
    assert!(stats.requests >= 2);

    // The listener is gone: a fresh TCP connect (or its greeting) fails.
    let refused = match TcpStream::connect_timeout(&addr, Duration::from_secs(2)) {
        Err(_) => true,
        // The OS may briefly accept into a dead backlog; no greeting ever
        // arrives, so a read times out or returns EOF.
        Ok(stream) => {
            stream
                .set_read_timeout(Some(Duration::from_millis(500)))
                .unwrap();
            let mut probe = stream;
            probe.write_all(b"ping\n").ok();
            let mut buf = [0u8; 64];
            use std::io::Read as _;
            !matches!(probe.read(&mut buf), Ok(n) if n > 0)
        }
    };
    assert!(refused, "server kept answering after shutdown");
}
