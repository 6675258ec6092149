//! Layer probes: each times one layer's public functions from outside, on
//! the workload's own applications and seed, with tracing off.

use std::hint::black_box;
use std::time::{Duration, Instant};

use drm::{run_fleet, BatchEngine, FleetConfig, Strategy};
use scenario::Scenario;
use sim_common::{Kelvin, QuantileSketch, StructureMap, Watts, Xoshiro256pp};
use sim_cpu::{Bpred, DataAccess, MemHierarchy, MemLatencies, Processor};
use sim_server::{parse_request, Client, Reply, Server, ServerConfig};
use sim_thermal::ThermalModel;
use workload::{InstructionSource, OpClass, RecordedTrace, SyntheticStream};

use crate::spec::{DVS_STEP_GHZ, T_DECISION_K, T_SWEEP_K};
use crate::stats::{median, median_secs, ns_per};
use crate::workloads::{Ctx, RequestGen};

/// Base address of the synthetic data segment, as the evaluator's timing
/// stage prewarms it. The replayed runs below must reproduce the
/// evaluator's interval statistics exactly, which checks this value.
const DATA_BASE: u64 = 0x1000_0000;

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Runs every probe and appends `(metric, value)` rows.
///
/// # Errors
///
/// Returns a message when a layer call fails or a replayed run differs
/// from the evaluator's.
pub fn run(ctx: &Ctx, out: &mut Vec<(&'static str, f64)>) -> Result<(), String> {
    let scn = ctx.scenario();
    setup_layers(&scn, out)?;
    cpu_and_models(ctx, &scn, out)?;
    oracle_select(ctx, &scn, out)?;
    fleet(ctx, &scn, out)?;
    common(ctx, out);
    server(ctx, &scn, out)
}

/// Scenario parsing, thermal prefactoring and model qualification: the
/// work every set-up repeats.
fn setup_layers(scn: &Scenario, out: &mut Vec<(&'static str, f64)>) -> Result<(), String> {
    let text = scn.to_text();
    Scenario::from_text(&text).map_err(err)?;
    out.push((
        "scenario.load_ms",
        1e3 * median_secs(20, || {
            black_box(Scenario::from_text(&text).expect("scenario parses"));
        }),
    ));
    out.push((
        "thermal.factor_ms",
        1e3 * median_secs(50, || {
            black_box(
                ThermalModel::new(scn.thermal.clone(), scn.floorplan.clone())
                    .expect("thermal model"),
            );
        }),
    ));
    scn.model().map_err(err)?;
    out.push((
        "ramp.qualify_us",
        1e6 * median_secs(50, || {
            for t in T_SWEEP_K {
                black_box(
                    scn.model_at(Kelvin(t), scn.qualification.alpha)
                        .expect("model qualifies"),
                );
            }
        }) / T_SWEEP_K.len() as f64,
    ));
    Ok(())
}

/// The timing stage layer by layer — synthetic stream, cycle-level core
/// on a recorded replay of the same ops, caches, branch predictor — and
/// the power, thermal and FIT stages on the resulting intervals.
fn cpu_and_models(
    ctx: &Ctx,
    scn: &Scenario,
    out: &mut Vec<(&'static str, f64)>,
) -> Result<(), String> {
    let params = scn.eval;
    let evaluator = scn.evaluator().map_err(err)?;
    let model = scn
        .model_at(Kelvin(T_DECISION_K), scn.qualification.alpha)
        .map_err(err)?;
    let config = scn.core.clone();
    let latencies = MemLatencies {
        l1_hit: config.l1_hit_cycles,
        l2_hit: config.l2_hit_cycles(),
        memory: config.mem_cycles(),
    };
    let (mut timing_ms, mut prewarm_ms, mut finish_us, mut fit_us) =
        (vec![], vec![], vec![], vec![]);
    let (mut stream, mut core, mut mem, mut bpred) = (
        Duration::ZERO,
        Duration::ZERO,
        Duration::ZERO,
        Duration::ZERO,
    );
    let (mut power, mut thermal) = (Duration::ZERO, Duration::ZERO);
    let (mut ops, mut insts, mut cycles, mut accesses, mut branches, mut solves) =
        (0u64, 0, 0, 0, 0, 0);
    let (mut sim_cycles, mut ipc_err) = (0u64, Vec::new());
    for app in ctx.scale.apps() {
        let profile = app.profile();
        let start = Instant::now();
        let timing = evaluator.timing_run(&profile, &config).map_err(err)?;
        timing_ms.push(start.elapsed().as_secs_f64() * 1e3);

        // The evaluator's timing sequence on a synthetic stream...
        let resident = profile.data_working_set.min(params.prewarm_bytes);
        let stream_src = SyntheticStream::new(profile.clone(), params.seed);
        let mut cpu = Processor::new(config.clone(), stream_src).map_err(err)?;
        let start = Instant::now();
        cpu.prewarm(DATA_BASE, resident, 0, profile.code_footprint);
        prewarm_ms.push(start.elapsed().as_secs_f64() * 1e3);
        let warm = cpu.run_instructions(params.warmup_instructions);
        let run = cpu.run(params.measure_instructions, params.interval_instructions);
        if run.intervals() != timing.intervals() {
            return Err(format!(
                "{app}: the synthetic core run differs from timing_run"
            ));
        }
        let consumed = cpu.source().emitted();

        // ...and on a replay of exactly the ops it consumed, so the core
        // is timed without the stream.
        let trace = RecordedTrace::record(
            &mut SyntheticStream::new(profile.clone(), params.seed),
            usize::try_from(consumed).map_err(err)?,
        );
        let mut replay = Processor::new(config.clone(), trace.replayer()).map_err(err)?;
        replay.prewarm(DATA_BASE, resident, 0, profile.code_footprint);
        let start = Instant::now();
        let replay_warm = replay.run_instructions(params.warmup_instructions);
        let replay_run = replay.run(params.measure_instructions, params.interval_instructions);
        core += start.elapsed();
        if replay_warm != warm || replay_run.intervals() != run.intervals() {
            return Err(format!(
                "{app}: the replayed core run differs from the synthetic one"
            ));
        }
        insts += params.warmup_instructions + params.measure_instructions;
        cycles += warm.cycles + run.cycles();
        sim_cycles += run.cycles();
        ipc_err.push((run.ipc() - app.paper_ipc()).abs() / app.paper_ipc() * 100.0);

        let mut fresh = SyntheticStream::new(profile.clone(), params.seed);
        let start = Instant::now();
        for _ in 0..consumed {
            black_box(fresh.next_op());
        }
        stream += start.elapsed();
        ops += consumed;

        let mut hierarchy =
            MemHierarchy::new(config.l1i, config.l1d, config.l2, latencies, config.mshrs)
                .map_err(err)?;
        let mut now = 0u64;
        let start = Instant::now();
        for op in trace.ops() {
            if let Some(addr) = op.addr {
                while let DataAccess::Retry =
                    hierarchy.access_data(now, addr, op.class == OpClass::Store)
                {
                    now += 8;
                }
                now += 1;
                accesses += 1;
            }
        }
        mem += start.elapsed();

        let mut predictor = Bpred::new(config.bpred);
        let start = Instant::now();
        for op in trace.ops().iter().filter(|op| op.class == OpClass::Branch) {
            black_box(predictor.predict(op.pc));
            predictor.update(op.pc, op.taken);
            branches += 1;
        }
        bpred += start.elapsed();

        // Power and pinned-sink thermal solves over the run's intervals,
        // repeated for a measurable sample.
        let power_model = evaluator.power_model();
        let thermal_model = evaluator.thermal_model();
        let sink = thermal_model.steady_sink_temperature(Watts(30.0));
        let mut temps = StructureMap::splat(Kelvin(345.0));
        for _ in 0..50 {
            for iv in timing.intervals() {
                let start = Instant::now();
                let breakdown = power_model.power(&config, &iv.activity, &temps);
                power += start.elapsed();
                let start = Instant::now();
                temps = thermal_model.steady_state_with_sink(&breakdown.per_structure(), sink);
                thermal += start.elapsed();
                solves += 1;
            }
        }

        let ev = evaluator
            .evaluate_with_timing(&profile, &config, &timing)
            .map_err(err)?;
        finish_us.push(
            1e6 * median_secs(5, || {
                black_box(
                    evaluator
                        .evaluate_with_timing(&profile, &config, &timing)
                        .expect("evaluation"),
                );
            }),
        );
        fit_us.push(
            1e6 * median_secs(20, || {
                black_box(ev.application_fit(&model));
            }),
        );
    }
    out.push(("workload.stream.ns_per_op", ns_per(stream, ops)));
    out.push(("cpu.core.ns_per_inst", ns_per(core, insts)));
    out.push(("cpu.core.ns_per_cycle", ns_per(core, cycles)));
    out.push(("cpu.prewarm_ms", median(&prewarm_ms)));
    out.push(("cpu.mem.ns_per_access", ns_per(mem, accesses)));
    out.push(("cpu.bpred.ns_per_branch", ns_per(bpred, branches)));
    out.push(("cpu.sim.cycles", sim_cycles as f64));
    out.push((
        "model.ipc_err_pct",
        ipc_err.iter().sum::<f64>() / ipc_err.len() as f64,
    ));
    out.push(("power.us_per_interval", ns_per(power, solves) / 1e3));
    out.push(("thermal.solve_us", ns_per(thermal, solves) / 1e3));
    out.push(("ramp.fit_us", median(&fit_us)));
    out.push(("drm.eval.timing_ms", median(&timing_ms)));
    out.push(("drm.eval.finish_us", median(&finish_us)));
    Ok(())
}

/// A warm `Oracle::best`: every candidate cached, so this is selection
/// (FIT scoring of 198 evaluations) alone.
fn oracle_select(
    ctx: &Ctx,
    scn: &Scenario,
    out: &mut Vec<(&'static str, f64)>,
) -> Result<(), String> {
    let oracle = scn.oracle(ctx.threads).map_err(err)?;
    let model = scn
        .model_at(Kelvin(T_DECISION_K), scn.qualification.alpha)
        .map_err(err)?;
    let app = ctx.scale.apps()[0];
    oracle
        .best(app, Strategy::ArchDvs, &model, DVS_STEP_GHZ)
        .map_err(err)?;
    out.push((
        "drm.oracle.select_ms",
        1e3 * median_secs(5, || {
            black_box(
                oracle
                    .best(app, Strategy::ArchDvs, &model, DVS_STEP_GHZ)
                    .expect("warm decision"),
            );
        }),
    ));
    Ok(())
}

/// The fleet die loop on one worker and on `--threads` workers; the two
/// populations must be identical.
fn fleet(ctx: &Ctx, scn: &Scenario, out: &mut Vec<(&'static str, f64)>) -> Result<(), String> {
    let model = scn.model().map_err(err)?;
    let evaluator = scn.evaluator().map_err(err)?;
    let (arch, dvs) = (scn.base_arch(), scn.base_dvs());
    let app = ctx.scale.apps()[0];
    let config = FleetConfig {
        dies: ctx.scale.fleet_dies() / 2,
        seed: ctx.seed,
        ..scn.fleet
    };
    let warm = FleetConfig {
        dies: 1_000,
        ..config
    };
    let mut runs = Vec::new();
    for workers in [1, ctx.threads] {
        let engine = BatchEngine::with_workers(evaluator.clone(), workers)
            .with_base_config(scn.core.clone());
        run_fleet(&engine, app, arch, dvs, &model, &warm).map_err(err)?;
        runs.push(run_fleet(&engine, app, arch, dvs, &model, &config).map_err(err)?);
    }
    if runs[0] != runs[1] {
        return Err("the fleet population depends on the worker count".to_owned());
    }
    out.push(("drm.fleet.ns_per_die_1w", ns_per(runs[0].wall, config.dies)));
    out.push((
        "drm.fleet.scaling",
        runs[0].wall.as_secs_f64() / runs[1].wall.as_secs_f64(),
    ));
    Ok(())
}

/// The shared sketch and RNG under the fleet's per-die loop.
fn common(ctx: &Ctx, out: &mut Vec<(&'static str, f64)>) {
    const DRAWS: u64 = 2_000_000;
    let mut rng = Xoshiro256pp::seed_from_u64(ctx.seed);
    let start = Instant::now();
    for _ in 0..DRAWS {
        black_box(rng.next_f64());
    }
    out.push(("common.rng.ns_per_draw", ns_per(start.elapsed(), DRAWS)));
    let values: Vec<f64> = (0..DRAWS / 4).map(|_| rng.next_f64()).collect();
    let mut sketch = QuantileSketch::new();
    let start = Instant::now();
    for &v in &values {
        sketch.insert(v);
    }
    out.push((
        "common.sketch.insert_ns",
        ns_per(start.elapsed(), values.len() as u64),
    ));
    black_box(sketch.quantile(0.5));
}

/// The request codec on the serve mix, and a sequential client against
/// a fresh server: `ping` is answered on the connection thread (the
/// transport floor), a warm `eval` goes through the queue, the linger
/// window and a batch.
fn server(ctx: &Ctx, scn: &Scenario, out: &mut Vec<(&'static str, f64)>) -> Result<(), String> {
    let mut gen = RequestGen::new(scn, ctx.scale.apps(), ctx.seed, 0)?;
    let lines: Vec<String> = (0..2_000).map(|_| gen.next().1).collect();
    for line in &lines {
        parse_request(line).map_err(|e| e.to_line())?;
    }
    out.push((
        "server.codec.parse_ns",
        1e9 * median_secs(5, || {
            for line in &lines {
                black_box(parse_request(line).expect("request parses"));
            }
        }) / lines.len() as f64,
    ));

    let config = ServerConfig {
        jobs: ctx.threads,
        drain_workers: ctx.threads,
        eval: Some(scn.eval),
        ..ServerConfig::default()
    };
    let server = Server::start(scn.clone(), config, "127.0.0.1:0").map_err(err)?;
    let result = (|| {
        let mut client = Client::connect(server.local_addr()).map_err(err)?;
        let warm = format!("eval {} freq=4000000000", ctx.scale.apps()[0].name());
        let mut replies = vec![client.request_raw(&warm).map_err(err)?];
        let mut rtt = |line: &str, n: usize, replies: &mut Vec<String>| {
            let mut times = Vec::with_capacity(n);
            for _ in 0..n {
                let start = Instant::now();
                let reply = client.request_raw(line).map_err(err)?;
                times.push(start.elapsed().as_secs_f64());
                if !reply.starts_with("ok") {
                    return Err(format!("`{line}` failed: {reply}"));
                }
                replies.push(reply);
            }
            Ok::<f64, String>(median(&times))
        };
        let ping = rtt("ping", 300, &mut Vec::new())?;
        let eval = rtt(&warm, 100, &mut replies)?;
        Ok::<_, String>((ping, eval, replies))
    })();
    server.shutdown();
    server.join();
    let (ping, eval, replies) = result?;
    out.push(("server.ping_rtt_us", ping * 1e6));
    out.push(("server.queue_ms", (eval - ping) * 1e3));
    out.push((
        "server.codec.reply_ns",
        1e9 * median_secs(5, || {
            for reply in &replies {
                black_box(Reply::parse(reply).expect("reply parses"));
            }
        }) / replies.len() as f64,
    ));
    Ok(())
}
