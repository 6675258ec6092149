//! Subcommand implementations.
//!
//! Every command builds from a [`Scenario`]: the global `--scenario <file>`
//! option loads one from disk, and without it the paper's own setup
//! ([`Scenario::paper_default`]) applies, so `ramp fit` and
//! `ramp fit --scenario examples/scenarios/paper.scn` are byte-identical.
//! Per-command options (`--ghz`, `--tqual`, ...) are deltas on top of the
//! scenario's values.

use drm::scaling::{required_qualification_temperature, scaling_study, TechnologyNode};
use drm::{
    intra_app_best, BatchEngine, ControllerParams, EvalParams, FleetConfig, Oracle, ReactiveDrm,
    RunDigest, RunStore, SensorParams, SliceParams, Strategy,
};
use ramp::{Mechanism, QualificationPoint, ReliabilityModel};
use scenario::{Qualification, Scenario};
use sim_common::{Kelvin, SimError, Structure};
use sim_cpu::CoreConfig;
use sim_server::{Client, Reply, Server, ServerConfig, WATCH_FRAME_KIND};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;
use workload::{App, AppProfile};

use crate::args::Args;

/// Loads the scenario the command builds from: `--scenario <file>` when
/// given, the paper's setup otherwise.
fn scenario_from(args: &Args) -> Result<Scenario, SimError> {
    match args.get("scenario") {
        Some(path) => Scenario::load(path),
        None => Ok(Scenario::paper_default()),
    }
}

/// Resolves the workload suite: `--profile <file>` (text format) wins over
/// `--app <name>`; without either, every workload in the scenario runs.
fn workloads_from(args: &Args, scn: &Scenario) -> Result<Vec<AppProfile>, SimError> {
    if let Some(path) = args.get("profile") {
        let text = std::fs::read_to_string(path)
            .map_err(|e| SimError::invalid_config(format!("cannot read profile `{path}`: {e}")))?;
        Ok(vec![workload::profile_from_text(&text)?])
    } else if args.get("app").is_some() {
        Ok(vec![args.app()?.profile()])
    } else {
        Ok(scn.profiles())
    }
}

/// Prints the global help text.
pub fn print_help() {
    println!("ramp — lifetime reliability-aware microprocessor toolkit");
    println!("(reproduction of Srinivasan et al., ISCA 2004)");
    println!();
    println!("USAGE: ramp <command> [--option value] [--flag]");
    println!();
    println!("COMMANDS");
    println!("  list        the nine Table 2 workloads and the modeled structures");
    println!("  evaluate    run a workload on a configuration: IPC, power, temperature");
    println!("              [--app <name> | --profile <file>]  [--ghz G] [--window N]");
    println!("              [--alus N] [--fpus N] [--prefetch] [--quick]");
    println!("  fit         lifetime reliability of a run against a qualification");
    println!("              [--app <name> | --profile <file>]  [--tqual K] [--alpha A]");
    println!("              [--target FIT] [--ghz G]");
    println!("  drm         oracular DRM choice for an application");
    println!("              --app <name> [--tqual K] [--strategy arch|dvs|archdvs]");
    println!("              [--step GHz] [--intra] [--jobs N]");
    println!("  dtm         DVS-for-DTM choice under a thermal limit");
    println!("              --app <name> --tmax K [--step GHz] [--jobs N]");
    println!("  sweep       evaluate a strategy's whole candidate grid in parallel");
    println!("              and rank the operating points against a qualification");
    println!("              --app <name> [--tqual K] [--strategy arch|dvs|archdvs]");
    println!("              [--step GHz] [--jobs N] [--top N]");
    println!("  fleet       population Monte Carlo: stream virtual dies with");
    println!("              process variation through one operating point");
    println!("              --app <name> [--dies N] [--seed N] [--shape B]");
    println!("              [--tqual K] [--alpha A] [--target FIT] [--ghz G]");
    println!("              [--window N] [--alus N] [--fpus N] [--jobs N] [--quick]");
    println!("  controller  reactive DRM run (optionally with a thermal limit");
    println!("              and realistic sensors)");
    println!("              --app <name> [--tqual K] [--tmax K] [--sensors] [--insts N]");
    println!("  scaling     the same design across 90/65/45 nm");
    println!("              --app <name> [--tqual K]");
    println!("  scenario    work with scenario files (the text experiment format)");
    println!("              validate <file...> | print [<file>] | run <file> [--quick]");
    println!("  checkpoint  cut or inspect slice checkpoints (sliced evaluation)");
    println!("              save [--app <name> | --profile <file>] [--slice N]");
    println!("              [--dir <path>] [--ghz G] [--window N] [--alus N]");
    println!("              [--fpus N] [--jobs N] [--quick]");
    println!("              | info [--dir <path>]");
    println!("  serve       run the network evaluation service (ramp-serve/1)");
    println!("              [--addr host:port] [--jobs N] [--queue-depth N]");
    println!("              [--workers N] [--stop-file <path>]");
    println!("              [--tick-ms N (0 = no telemetry)]");
    println!("              [--store-dir <dir>] [--quick]");
    println!("  client      talk to a running server; prints the raw response");
    println!("              [--addr host:port] ping | stats | shutdown");
    println!("              | eval <app> [--ghz G] [--vdd V] [--window N] [--alus N]");
    println!("                [--fpus N] [--use <scenario>]");
    println!("              | fit <app> [eval opts] [--tqual K] [--alpha A] [--target FIT]");
    println!("              | sweep <app> [--strategy arch|dvs|archdvs] [--step GHz]");
    println!("                [--tqual K] [--alpha A] [--target FIT] [--use <scenario>]");
    println!("              | fleet <app> [eval opts] [--dies N] [--seed N] [--shape B]");
    println!("              | upload <name> <file.scn> | raw <tokens...>");
    println!("              (`stats` also prints uptime/queue/batching lines)");
    println!("  top         live dashboard over a server's `watch` stream:");
    println!("              request rates, queue depth, latency quantiles, SLOs");
    println!("              [--addr host:port] [--interval-ms N] [--frames N]");
    println!("              [--once  (print one frame and exit)]");
    println!("  report      summarize a recorded trace: per-stage wall time,");
    println!("              hottest structures, reliability gauges, SLO status");
    println!("              <trace.jsonl> [--top N]");
    println!();
    println!("GLOBAL OPTIONS (any command)");
    println!("  --scenario <file.scn> build everything from a scenario file instead");
    println!("                        of the built-in paper setup");
    println!("  --trace <path.jsonl>  record spans/metrics/logs to a JSONL trace");
    println!("  --metrics             print the aggregated metric snapshot on exit");
    println!("  RAMP_TRACE_OUT=<path> export a Chrome/Perfetto trace-event JSON");
    println!("                        file (open in about:tracing or ui.perfetto.dev)");
    println!();
    println!("Add --quick to any simulation command for shorter runs.");
    println!("--jobs N sets the batch engine's worker-thread count (unset =");
    println!("all cores; an explicit 0 is rejected); sweeps end with a one-line");
    println!("summary of the parallel pass (evaluations, cache hits, evals/s,");
    println!("speedup).");
    println!("Set RAMP_LOG=off|error|warn|info|debug for diagnostics on stderr.");
}

/// Dispatches a parsed command line.
///
/// # Errors
///
/// Returns [`SimError`] for unknown commands, bad options, or failures in
/// the underlying pipeline.
pub fn dispatch(args: &Args) -> Result<(), SimError> {
    setup_observability(args)?;
    let result = match args.command() {
        "list" => {
            args.expect_only(&[])?;
            list(args)
        }
        "evaluate" => evaluate(args),
        "fit" => fit(args),
        "drm" => drm_cmd(args),
        "dtm" => dtm_cmd(args),
        "sweep" => sweep_cmd(args),
        "fleet" => fleet_cmd(args),
        "controller" => controller(args),
        "scaling" => scaling(args),
        "scenario" => scenario_cmd(args),
        "checkpoint" => checkpoint_cmd(args),
        "serve" => serve_cmd(args),
        "client" => client_cmd(args),
        "top" => top_cmd(args),
        "report" => report_cmd(args),
        other => Err(SimError::invalid_config(format!(
            "unknown command `{other}`; try `ramp help`"
        ))),
    };
    finish_observability(args);
    result
}

/// Installs the sinks requested by the global `--trace`/`--metrics`
/// options and enables recording when either is present. `RAMP_LOG`
/// (handled in `main`) is independent: it controls stderr logging and
/// takes effect even without these options.
fn setup_observability(args: &Args) -> Result<(), SimError> {
    let mut enable = false;
    if let Some(path) = args.get("trace") {
        let sink = sim_obs::JsonlSink::create(Path::new(path)).map_err(|e| {
            SimError::invalid_config(format!("cannot create trace file `{path}`: {e}"))
        })?;
        sim_obs::install_sink(Arc::new(sink));
        enable = true;
    }
    if let Ok(path) = std::env::var("RAMP_TRACE_OUT") {
        if !path.is_empty() {
            let sink = sim_obs::TraceEventSink::create(Path::new(&path)).map_err(|e| {
                SimError::invalid_config(format!("cannot create trace-event file `{path}`: {e}"))
            })?;
            sim_obs::install_sink(Arc::new(sink));
            enable = true;
        }
    }
    if args.flag("metrics") {
        enable = true;
    }
    if enable {
        sim_obs::set_enabled(true);
    }
    Ok(())
}

/// Flushes the recorded metrics to the installed sinks and, under
/// `--metrics`, prints the aggregated snapshot.
fn finish_observability(args: &Args) {
    if !sim_obs::enabled() {
        return;
    }
    let snapshot = sim_obs::flush();
    if args.flag("metrics") && !snapshot.is_empty() {
        println!();
        println!("metrics ({} series):", snapshot.len());
        for m in &snapshot {
            match &m.value {
                sim_obs::MetricValue::Counter(c) => println!("  {:<28} {c}", m.name),
                sim_obs::MetricValue::Gauge(g) => println!("  {:<28} {g:.6}", m.name),
                sim_obs::MetricValue::Histogram(h) => println!(
                    "  {:<28} n={} mean={:.4} min={:.4} max={:.4}",
                    m.name,
                    h.count(),
                    h.mean(),
                    h.min(),
                    h.max()
                ),
            }
        }
    }
}

/// `ramp report <trace.jsonl> [--top N]`: offline summary of a recorded
/// trace — per-stage wall-time shares, hottest structures, FIT gauges.
fn report_cmd(args: &Args) -> Result<(), SimError> {
    args.expect_options(&["top"])?;
    args.expect_positionals(1)?;
    let path = args
        .positional(0)
        .ok_or_else(|| SimError::invalid_config("usage: ramp report <trace.jsonl> [--top N]"))?;
    let top = args.u64_or("top", 5)? as usize;
    let trace = sim_obs::report::read_trace(Path::new(path))
        .map_err(|e| SimError::invalid_config(format!("cannot read trace `{path}`: {e}")))?;
    if !trace.malformed.is_empty() {
        eprintln!(
            "warning: {} malformed line(s) skipped (first at line {})",
            trace.malformed.len(),
            trace.malformed[0].0
        );
    }
    print!("{}", sim_obs::report::render(&trace, top.max(1)));
    Ok(())
}

fn eval_params(args: &Args, scn: &Scenario) -> EvalParams {
    if args.flag("quick") {
        EvalParams::quick()
    } else {
        scn.eval
    }
}

/// Builds the oracle over the scenario's stack, honouring `--jobs`
/// (absent = all cores; an explicit 0 is rejected at parse time).
fn oracle_from(args: &Args, scn: &Scenario) -> Result<Oracle, SimError> {
    scn.oracle_with(eval_params(args, scn), args.jobs()?)
}

/// The processor to evaluate: the scenario's core with `--ghz`,
/// `--window`, `--alus`, `--fpus` and `--prefetch` applied on top.
fn config_from(args: &Args, scn: &Scenario) -> Result<CoreConfig, SimError> {
    let base = scn.base_arch();
    let dvs = match args.get("ghz") {
        None => scn.base_dvs(),
        Some(_) => scn.dvs.at_ghz(args.f64_or("ghz", 0.0)?)?,
    };
    let arch = drm::ArchPoint {
        window: args.u64_or("window", u64::from(base.window))? as u32,
        alus: args.u64_or("alus", u64::from(base.alus))? as u32,
        fpus: args.u64_or("fpus", u64::from(base.fpus))? as u32,
    };
    let mut cfg = arch.apply(&scn.core, dvs)?;
    if args.flag("prefetch") {
        cfg.prefetch_next_line = true;
    }
    Ok(cfg)
}

/// The reliability model: the scenario's qualification with `--tqual`,
/// `--alpha` and `--target` applied on top.
fn model_from(args: &Args, scn: &Scenario) -> Result<ReliabilityModel, SimError> {
    let qualification = Qualification {
        t_qual: Kelvin(args.f64_or("tqual", scn.qualification.t_qual.0)?),
        alpha: args.f64_or("alpha", scn.qualification.alpha)?,
        target_fit: args.f64_or("target", scn.qualification.target_fit)?,
    };
    Scenario {
        qualification,
        ..scn.clone()
    }
    .model()
}

/// `--step` as an override of the scenario's DVS grid granularity;
/// rejected before any grid code can assert on it.
fn step_from(args: &Args) -> Result<Option<f64>, SimError> {
    let Some(raw) = args.get("step") else {
        return Ok(None);
    };
    let step = args.f64_or("step", 0.0)?;
    if !step.is_finite() || step <= 0.0 {
        return Err(SimError::invalid_config(format!(
            "--step expects a positive frequency step in GHz, got `{raw}`"
        )));
    }
    Ok(Some(step))
}

fn list(args: &Args) -> Result<(), SimError> {
    let scn = scenario_from(args)?;
    println!("Workloads (Table 2):");
    for app in App::ALL {
        println!(
            "  {:8}  {:11}  paper IPC {:.1}, paper power {:.1} W",
            app.name(),
            if app.is_multimedia() {
                "multimedia"
            } else {
                "Spec2000"
            },
            app.paper_ipc(),
            app.paper_power_watts()
        );
    }
    println!();
    println!("Modeled structures (floorplan areas):");
    for s in Structure::ALL {
        println!(
            "  {:12} {:5.2} mm^2",
            s.name(),
            scn.floorplan.block(s).area().0
        );
    }
    Ok(())
}

fn evaluate(args: &Args) -> Result<(), SimError> {
    args.expect_only(&[
        "app", "profile", "ghz", "window", "alus", "fpus", "prefetch", "quick",
    ])?;
    let scn = scenario_from(args)?;
    let cfg = config_from(args, &scn)?;
    let evaluator = scn.evaluator_with(eval_params(args, &scn))?;
    for (i, profile) in workloads_from(args, &scn)?.iter().enumerate() {
        if i > 0 {
            println!();
        }
        let ev = evaluator.evaluate_profile(profile, &cfg)?;
        println!(
            "{} on w{}/a{}/f{} @ {:.2} GHz / {:.3} V",
            profile.name,
            cfg.window_size,
            cfg.int_alus,
            cfg.fpus,
            cfg.frequency.to_ghz(),
            cfg.vdd.0
        );
        println!("  IPC            {:.3}", ev.ipc);
        println!("  performance    {:.2} BIPS", ev.bips);
        println!("  average power  {:.1}", ev.average_power());
        println!("  peak temp      {:.1}", ev.max_temperature());
        println!("  heat sink      {:.1}", ev.sink_temperature);
    }
    Ok(())
}

fn fit(args: &Args) -> Result<(), SimError> {
    args.expect_only(&[
        "app", "profile", "tqual", "alpha", "target", "ghz", "window", "alus", "fpus", "prefetch",
        "quick",
    ])?;
    let scn = scenario_from(args)?;
    let cfg = config_from(args, &scn)?;
    let model = model_from(args, &scn)?;
    let evaluator = scn.evaluator_with(eval_params(args, &scn))?;
    for (i, profile) in workloads_from(args, &scn)?.iter().enumerate() {
        if i > 0 {
            println!();
        }
        let ev = evaluator.evaluate_profile(profile, &cfg)?;
        let fit = ev.application_fit(&model);
        println!(
            "{} vs T_qual {:.0} (target {:.0} FIT)",
            profile.name,
            model.qualification().temperature.0,
            model.target_fit().value()
        );
        for m in Mechanism::ALL {
            println!(
                "  {:18} {:8.0} FIT",
                m.to_string(),
                fit.mechanism_total(m).value()
            );
        }
        println!("  {:18} {:8.0} FIT", "total", fit.total().value());
        println!("  MTTF               {}", fit.total().to_mttf());
        println!(
            "  verdict            {}",
            if fit.meets(model.target_fit()) {
                "meets the target"
            } else {
                "EXCEEDS the target (DRM would throttle)"
            }
        );
    }
    Ok(())
}

fn parse_strategy(args: &Args) -> Result<Strategy, SimError> {
    match args.get("strategy").unwrap_or("archdvs") {
        s if s.eq_ignore_ascii_case("arch") => Ok(Strategy::Arch),
        s if s.eq_ignore_ascii_case("dvs") => Ok(Strategy::Dvs),
        s if s.eq_ignore_ascii_case("archdvs") => Ok(Strategy::ArchDvs),
        other => Err(SimError::invalid_config(format!(
            "unknown strategy `{other}` (arch, dvs, archdvs)"
        ))),
    }
}

fn drm_cmd(args: &Args) -> Result<(), SimError> {
    args.expect_only(&[
        "app", "tqual", "alpha", "target", "strategy", "step", "quick", "intra", "jobs",
    ])?;
    let scn = scenario_from(args)?;
    let app = args.app()?;
    let model = model_from(args, &scn)?;
    let strategy = parse_strategy(args)?;
    let step = step_from(args)?;
    let oracle = oracle_from(args, &scn)?;
    if args.flag("intra") {
        let choice = intra_app_best(
            &oracle,
            app,
            strategy,
            &model,
            step.unwrap_or(scn.dvs.step_ghz),
        )?;
        println!(
            "{app} @ T_qual {:.0}: intra-application {strategy} schedule",
            model.qualification().temperature.0
        );
        println!("  performance    {:.3}x base", choice.relative_performance);
        println!("  FIT            {:.0}", choice.fit.value());
        println!("  switches       {}", choice.switches);
        println!("  feasible       {}", choice.feasible);
    } else {
        let candidates = scn.candidates(strategy, step)?;
        let choice =
            oracle.best_among(app, &candidates, (scn.base_arch(), scn.base_dvs()), &model)?;
        println!(
            "{app} @ T_qual {:.0}: best {strategy} configuration",
            model.qualification().temperature.0
        );
        println!(
            "  configuration  {} @ {:.2} GHz / {:.3} V",
            choice.arch,
            choice.dvs.frequency.to_ghz(),
            choice.dvs.vdd.0
        );
        println!("  performance    {:.3}x base", choice.relative_performance);
        println!("  FIT            {:.0}", choice.fit.value());
        println!("  feasible       {}", choice.feasible);
    }
    Ok(())
}

fn dtm_cmd(args: &Args) -> Result<(), SimError> {
    args.expect_only(&["app", "tmax", "step", "quick", "jobs"])?;
    let scn = scenario_from(args)?;
    let app = args.app()?;
    let t_max = Kelvin(args.f64_or("tmax", 380.0)?);
    let step = step_from(args)?.unwrap_or(scn.dvs.step_ghz);
    let oracle = oracle_from(args, &scn)?;
    let choice = drm::dtm_best_dvs(&oracle, app, t_max, step)?;
    println!("{app} under DTM with T_max {:.0}:", t_max.0);
    println!(
        "  frequency      {:.2} GHz / {:.3} V",
        choice.dvs.frequency.to_ghz(),
        choice.dvs.vdd.0
    );
    println!("  peak temp      {:.1}", choice.max_temperature);
    println!("  feasible       {}", choice.feasible);
    Ok(())
}

/// `ramp sweep`: evaluate a strategy's entire candidate grid through the
/// parallel batch engine, rank the operating points against the
/// qualification, and report the realized parallelism.
fn sweep_cmd(args: &Args) -> Result<(), SimError> {
    args.expect_only(&[
        "app", "tqual", "alpha", "target", "strategy", "step", "jobs", "top", "quick",
    ])?;
    let scn = scenario_from(args)?;
    let app = args.app()?;
    let model = model_from(args, &scn)?;
    let strategy = parse_strategy(args)?;
    let step = step_from(args)?;
    let top = args.u64_or("top", 10)? as usize;
    let oracle = oracle_from(args, &scn)?;

    let candidates = scn.candidates(strategy, step)?;
    let (base_arch, base_dvs) = (scn.base_arch(), scn.base_dvs());
    let mut jobs: Vec<_> = candidates.iter().map(|&(a, d)| (app, a, d)).collect();
    jobs.push((app, base_arch, base_dvs));
    let summary = oracle.prefetch(&jobs)?;

    let base_bips = oracle.evaluation(app, base_arch, base_dvs)?.bips;
    let target = model.target_fit();
    let mut rows = Vec::with_capacity(candidates.len());
    for (arch, dvs) in candidates {
        let ev = oracle.evaluation(app, arch, dvs)?;
        let fit = ev.application_fit(&model).total();
        rows.push((arch, dvs, ev.bips / base_bips, fit, fit <= target));
    }
    rows.sort_by(|a, b| b.2.total_cmp(&a.2));

    println!(
        "{app}: {strategy} grid, {} operating points @ T_qual {:.0} (target {:.0} FIT)",
        rows.len(),
        model.qualification().temperature.0,
        target.value()
    );
    println!(
        "  {:>16} {:>7} {:>7} {:>8} {:>10}  ",
        "config", "f(GHz)", "Vdd", "perf", "FIT"
    );
    for (arch, dvs, perf, fit, feasible) in rows.iter().take(top.max(1)) {
        println!(
            "  {:>16} {:>7.2} {:>7.3} {:>8.3} {:>10.0} {}",
            arch.to_string(),
            dvs.frequency.to_ghz(),
            dvs.vdd.0,
            perf,
            fit.value(),
            if *feasible { "" } else { "!" }
        );
    }
    let shown = top.max(1).min(rows.len());
    if shown < rows.len() {
        println!(
            "  ... ({} more; raise --top to see them)",
            rows.len() - shown
        );
    }
    println!("  ('!' marks points whose FIT exceeds the qualification target)");
    println!();
    println!("{summary}");
    Ok(())
}

/// `ramp fleet`: population Monte Carlo at one operating point — sample
/// per-die process variation over the scenario's fleet configuration and
/// report the percentile curves and the FIT-budget violation fraction.
fn fleet_cmd(args: &Args) -> Result<(), SimError> {
    args.expect_only(&[
        "app", "dies", "seed", "shape", "tqual", "alpha", "target", "ghz", "window", "alus",
        "fpus", "jobs", "quick",
    ])?;
    let scn = scenario_from(args)?;
    let app = args.app()?;
    let model = model_from(args, &scn)?;
    let config = FleetConfig {
        dies: args.u64_or("dies", scn.fleet.dies)?,
        seed: args.u64_or("seed", scn.fleet.seed)?,
        shape: args.f64_or("shape", scn.fleet.shape)?,
        variation: scn.fleet.variation,
    };
    let base = scn.base_arch();
    let dvs = match args.get("ghz") {
        None => scn.base_dvs(),
        Some(_) => scn.dvs.at_ghz(args.f64_or("ghz", 0.0)?)?,
    };
    let arch = drm::ArchPoint {
        window: args.u64_or("window", u64::from(base.window))? as u32,
        alus: args.u64_or("alus", u64::from(base.alus))? as u32,
        fpus: args.u64_or("fpus", u64::from(base.fpus))? as u32,
    };
    let engine =
        BatchEngine::with_workers(scn.evaluator_with(eval_params(args, &scn))?, args.jobs()?)
            .with_base_config(scn.core.clone());
    let summary = drm::run_fleet(&engine, app, arch, dvs, &model, &config)?;

    let v = &config.variation;
    println!(
        "{app} fleet: {} dies on {arch} @ {:.2} GHz, T_qual {:.0} (target {:.0} FIT)",
        summary.dies,
        dvs.frequency.to_ghz(),
        model.qualification().temperature.0,
        summary.target_fit
    );
    println!(
        "  variation      sigma leak {} / beta {} / ea {} / geom {}  (seed {}, shape {})",
        v.sigma_leakage, v.sigma_beta, v.sigma_ea, v.sigma_geometry, config.seed, config.shape
    );
    let f = &summary.fit;
    println!(
        "  FIT            mean {:.0} | p5 {:.0} | p50 {:.0} | p95 {:.0} | max {:.0}",
        f.mean, f.p5, f.p50, f.p95, f.max
    );
    let l = &summary.lifetime_years;
    println!(
        "  lifetime (y)   p1 {:.1} | p5 {:.1} | p50 {:.1} | p95 {:.1}",
        l.p1, l.p5, l.p50, l.p95
    );
    println!(
        "  violations     {} dies ({:.2}% over the {:.0} FIT budget)",
        summary.violations,
        100.0 * summary.violation_fraction(),
        summary.target_fit
    );
    println!(
        "  percentiles    sketch rank error <= {:.3}% of the population",
        100.0 * summary.rank_error
    );
    println!(
        "  throughput     {:.0}k dies/s on {} worker(s); {} cycle-level timing run(s)",
        summary.dies_per_second() / 1e3,
        summary.workers,
        summary.timing_runs
    );
    Ok(())
}

fn controller(args: &Args) -> Result<(), SimError> {
    args.expect_only(&[
        "app", "tqual", "alpha", "target", "tmax", "sensors", "insts", "epoch", "quick",
    ])?;
    let scn = scenario_from(args)?;
    let app = args.app()?;
    let model = model_from(args, &scn)?;
    let params = ControllerParams {
        total_instructions: args.u64_or("insts", 600_000)?,
        epoch_instructions: args.u64_or("epoch", 20_000)?,
        thermal_limit: args.get("tmax").map(|_| ()).map_or(Ok(None), |()| {
            args.f64_or("tmax", 385.0).map(|t| Some(Kelvin(t)))
        })?,
        sensors: if args.flag("sensors") {
            Some(SensorParams::thermal_diode())
        } else {
            None
        },
        ..ControllerParams::quick()
    };
    let trace = ReactiveDrm::ibm_65nm(params)?.run(app, &model)?;
    println!(
        "{app} under reactive DRM (T_qual {:.0}{}{}):",
        model.qualification().temperature.0,
        params
            .thermal_limit
            .map(|t| format!(", T_max {:.0}", t.0))
            .unwrap_or_default(),
        if params.sensors.is_some() {
            ", thermal-diode sensors"
        } else {
            ""
        }
    );
    println!("  epochs         {}", trace.epochs.len());
    println!("  mean frequency {:.2} GHz", trace.average_ghz());
    println!("  DVS switches   {}", trace.frequency_changes);
    println!(
        "  final FIT      {:.0} (target {:.0})",
        trace.final_fit.value(),
        model.target_fit().value()
    );
    println!("  performance    {:.2} BIPS", trace.bips);
    if params.thermal_limit.is_some() {
        println!("  thermal viol.  {} epoch(s)", trace.thermal_violations);
    }
    Ok(())
}

fn scaling(args: &Args) -> Result<(), SimError> {
    args.expect_only(&["app", "tqual", "alpha", "quick"])?;
    let scn = scenario_from(args)?;
    let app = args.app()?;
    let alpha = args.f64_or("alpha", scn.qualification.alpha)?;
    let t_qual = Kelvin(args.f64_or("tqual", scn.qualification.t_qual.0)?);
    let qual = QualificationPoint::at_temperature(t_qual, alpha);
    let params = eval_params(args, &scn);
    let rows = scaling_study(app, &TechnologyNode::all(), &qual, params)?;
    println!(
        "{app} across process generations (T_qual {:.0}):",
        qual.temperature.0
    );
    println!(
        "  {:>6} {:>8} {:>9} {:>9} {:>10} {:>10}",
        "node", "f (GHz)", "P (W)", "Tmax (K)", "FIT", "req Tq (K)"
    );
    for row in rows {
        let req = required_qualification_temperature(&row.node, app, alpha, params)?;
        println!(
            "  {:>6} {:>8.1} {:>9.1} {:>9.1} {:>10.0} {:>10.1}",
            row.node.name,
            row.node.frequency.to_ghz(),
            row.evaluation.average_power().0,
            row.evaluation.max_temperature().0,
            row.fit.value(),
            req.0
        );
    }
    Ok(())
}

/// `ramp scenario <validate|print|run> ...`: work with scenario files
/// directly.
fn scenario_cmd(args: &Args) -> Result<(), SimError> {
    args.expect_options(&["quick", "jobs", "top"])?;
    let usage = "usage: ramp scenario validate <file...> | print [<file>] | run <file>";
    let action = args
        .positional(0)
        .ok_or_else(|| SimError::invalid_config(usage))?;
    match action {
        "validate" => {
            let mut i = 1;
            let mut any = false;
            while let Some(path) = args.positional(i) {
                let scn = Scenario::load(path)?;
                println!(
                    "{path}: ok ({}: {} workloads, {} adaptation points)",
                    scn.name,
                    scn.workloads.len(),
                    scn.arch_points.len()
                );
                any = true;
                i += 1;
            }
            if !any {
                return Err(SimError::invalid_config(
                    "scenario validate needs at least one file",
                ));
            }
            Ok(())
        }
        "print" => {
            args.expect_positionals(2)?;
            let scn = match args.positional(1).or_else(|| args.get("scenario")) {
                Some(path) => Scenario::load(path)?,
                None => Scenario::paper_default(),
            };
            print!("{}", scn.to_text());
            Ok(())
        }
        "run" => {
            args.expect_positionals(2)?;
            let path = args
                .positional(1)
                .or_else(|| args.get("scenario"))
                .ok_or_else(|| SimError::invalid_config("scenario run needs a file"))?;
            let scn = Scenario::load(path)?;
            run_scenario(args, &scn)
        }
        other => Err(SimError::invalid_config(format!(
            "unknown scenario action `{other}`; {usage}"
        ))),
    }
}

/// `ramp checkpoint <save|info>`: cut the slice checkpoints for an
/// operating point, or summarize the cuts under a store root.
fn checkpoint_cmd(args: &Args) -> Result<(), SimError> {
    args.expect_options(&[
        "app", "profile", "scenario", "slice", "dir", "ghz", "window", "alus", "fpus", "prefetch",
        "jobs", "quick",
    ])?;
    let usage = "usage: ramp checkpoint save [--app <name> | --profile <file>] \
                 [--slice N] [--dir <path>] | info [--dir <path>]";
    let action = args
        .positional(0)
        .ok_or_else(|| SimError::invalid_config(usage))?;
    args.expect_positionals(1)?;
    match action {
        "save" => checkpoint_save(args),
        "info" => checkpoint_info(args),
        other => Err(SimError::invalid_config(format!(
            "unknown checkpoint action `{other}`; {usage}"
        ))),
    }
}

/// The store root for `ramp checkpoint`: `--dir` wins over the
/// scenario's `slice.checkpoint_dir`.
fn checkpoint_dir_from<'a>(args: &'a Args, scn: &'a Scenario) -> Result<&'a str, SimError> {
    args.get("dir")
        .or_else(|| scn.slice.as_ref().and_then(|s| s.checkpoint_dir.as_deref()))
        .ok_or_else(|| {
            SimError::invalid_config(
                "no checkpoint directory: give --dir <path> or a scenario whose \
                 [slice] section sets slice.checkpoint_dir",
            )
        })
}

/// `ramp checkpoint save`: run the sequential cut pass for every
/// requested workload, persisting one checkpoint per slice boundary.
/// Re-running against a complete cut set is a cheap no-op resume.
fn checkpoint_save(args: &Args) -> Result<(), SimError> {
    let scn = scenario_from(args)?;
    let params = eval_params(args, &scn);
    let cfg = config_from(args, &scn)?;
    let instructions = match args.get("slice") {
        Some(_) => args.positive_u64_or("slice", 1)?,
        None => scn.slice.as_ref().map(|s| s.instructions).ok_or_else(|| {
            SimError::invalid_config(
                "no slice length: give --slice N or a scenario with a [slice] section",
            )
        })?,
    };
    let dir = checkpoint_dir_from(args, &scn)?;
    let workers = match args.jobs()? {
        0 => drm::default_workers(),
        n => n,
    };
    let slice = SliceParams::new(instructions)
        .with_dir(dir)
        .with_workers(workers);
    let evaluator = scn.evaluator_with(params)?;
    let store = RunStore::open_shape(Path::new(dir), &params)?;
    for profile in workloads_from(args, &scn)? {
        let run = evaluator.timing_run_sliced(&profile, &cfg, &slice)?;
        let digest = RunDigest::new(&profile, &cfg, &params);
        // The run just cut or resumed every slice, so each cut exists.
        let files: Vec<_> = (0..drm::slice_lengths(params.measure_instructions, instructions)
            .len())
            .map(|k| store.cut_path(digest, instructions, k))
            .collect();
        let bytes: u64 = files
            .iter()
            .map(|path| std::fs::metadata(path).map_or(0, |m| m.len()))
            .sum();
        println!(
            "{}: {} slice(s) of {} instructions -> {dir} (digest {digest})",
            profile.name,
            files.len(),
            instructions
        );
        println!(
            "  {} checkpoint file(s), {bytes} bytes; {} intervals, IPC {:.3}",
            files.len(),
            run.intervals().len(),
            run.ipc()
        );
    }
    Ok(())
}

/// `ramp checkpoint info`: parse, verify and summarize every checkpoint
/// in every shape directory of a store root.
fn checkpoint_info(args: &Args) -> Result<(), SimError> {
    let scn = scenario_from(args)?;
    let dir = checkpoint_dir_from(args, &scn)?;
    if !Path::new(dir).is_dir() {
        return Err(SimError::invalid_config(format!(
            "checkpoint directory `{dir}` does not exist"
        )));
    }
    let entries = RunStore::list_cuts(Path::new(dir))?;
    let mut bytes = 0u64;
    for (path, _) in &entries {
        bytes += std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
    }
    println!(
        "checkpoints in {dir}: {} file(s), {bytes} bytes",
        entries.len()
    );
    for (path, chk) in &entries {
        println!(
            "  {}  cut @ {} instructions (workload {}, seed {})",
            path.strip_prefix(dir).unwrap_or(path).display(),
            chk.instructions(),
            chk.workload,
            chk.seed
        );
    }
    Ok(())
}

/// The address `ramp serve` binds and `ramp client` dials when `--addr`
/// is not given.
const DEFAULT_ADDR: &str = "127.0.0.1:4590";

/// `ramp serve`: run the network evaluation service until a client sends
/// `shutdown` or the stop-file appears, then print the traffic summary
/// and the standard sweep line (so server-path evaluations show up in
/// the same "timing N runs, M reused" accounting as local sweeps).
fn serve_cmd(args: &Args) -> Result<(), SimError> {
    args.expect_only(&[
        "addr",
        "jobs",
        "queue-depth",
        "workers",
        "stop-file",
        "tick-ms",
        "store-dir",
        "quick",
    ])?;
    let scn = scenario_from(args)?;
    let defaults = ServerConfig::default();
    // `--tick-ms 0` disables the telemetry ticker (and with it `watch`
    // quantiles and SLO evaluation); any other value is the ring period.
    let telemetry_tick = match args.u64_or("tick-ms", 1_000)? {
        0 => None,
        ms => Some(Duration::from_millis(ms)),
    };
    let config = ServerConfig {
        jobs: args.jobs()?,
        queue_depth: args.positive_u64_or("queue-depth", defaults.queue_depth as u64)? as usize,
        drain_workers: args.positive_u64_or("workers", defaults.drain_workers as u64)? as usize,
        stop_file: args.get("stop-file").map(PathBuf::from),
        eval: args.flag("quick").then(EvalParams::quick),
        store_dir: args.get("store-dir").map(PathBuf::from),
        telemetry_tick,
        ..defaults
    };
    let addr = args.get("addr").unwrap_or(DEFAULT_ADDR);
    let server = Server::start(scn, config, addr)?;
    println!(
        "{} listening on {}",
        sim_server::PROTOCOL_VERSION,
        server.local_addr()
    );
    // Supervisors (and scripts/check.sh) poll stdout for the line above
    // to learn the resolved ephemeral port — it must not sit in a buffer.
    let _ = std::io::stdout().flush();
    let state = Arc::clone(server.state());
    let stats = server.join();
    println!(
        "server: {} connections | {} requests | {} shed | {} errors | {} batches ({:.1} req/batch)",
        stats.connections,
        stats.requests,
        stats.shed,
        stats.errors,
        stats.batches,
        stats.batch_occupancy(),
    );
    println!("{}", state.sweep_summary());
    Ok(())
}

/// `ramp client`: one request against a running server; prints the raw
/// response line and fails (non-zero exit) unless the server answered
/// `ok`.
fn client_cmd(args: &Args) -> Result<(), SimError> {
    args.expect_options(&[
        "addr", "ghz", "vdd", "window", "alus", "fpus", "tqual", "alpha", "target", "strategy",
        "step", "use", "dies", "seed", "shape",
    ])?;
    let usage = "usage: ramp client [--addr host:port] ping | stats | shutdown \
                 | eval <app> | fit <app> | sweep <app> | fleet <app> \
                 | upload <name> <file.scn> | raw <tokens...>";
    let action = args
        .positional(0)
        .ok_or_else(|| SimError::invalid_config(usage))?;
    let addr = args.get("addr").unwrap_or(DEFAULT_ADDR);
    let mut client = Client::connect(addr)?;
    let response = match action {
        "ping" | "stats" | "shutdown" => {
            args.expect_positionals(1)?;
            client.request_raw(action)?
        }
        "raw" => {
            let mut line = String::new();
            let mut i = 1;
            while let Some(token) = args.positional(i) {
                if i > 1 {
                    line.push(' ');
                }
                line.push_str(token);
                i += 1;
            }
            if line.is_empty() {
                return Err(SimError::invalid_config("raw needs the request tokens"));
            }
            client.request_raw(&line)?
        }
        "upload" => {
            args.expect_positionals(3)?;
            let name = args
                .positional(1)
                .ok_or_else(|| SimError::invalid_config("upload needs a scenario name"))?;
            let path = args
                .positional(2)
                .ok_or_else(|| SimError::invalid_config("upload needs a scenario file"))?;
            let text = std::fs::read_to_string(path).map_err(|e| {
                SimError::invalid_config(format!("cannot read scenario `{path}`: {e}"))
            })?;
            client.upload_scenario(name, &text)?.raw
        }
        "eval" | "fit" | "sweep" | "fleet" => {
            args.expect_positionals(2)?;
            let request = build_request(args, action)?;
            client.request_raw(&request)?
        }
        other => {
            return Err(SimError::invalid_config(format!(
                "unknown client action `{other}`; {usage}"
            )))
        }
    };
    println!("{response}");
    if response.starts_with("ok") {
        if action == "stats" {
            if let Ok(reply) = Reply::parse(&response) {
                print_stats_summary(&reply);
            }
        }
        Ok(())
    } else {
        Err(SimError::invalid_config(
            "server did not answer `ok` (response printed above)",
        ))
    }
}

/// Human-readable rendering of a `stats` reply, printed below the raw
/// response line (which scripts keep parsing).
fn print_stats_summary(reply: &Reply) {
    let u64_of = |key: &str| reply.u64(key).unwrap_or(0);
    if let Ok(uptime) = reply.f64("uptime_s") {
        println!("  uptime        {uptime:.1} s");
    }
    println!(
        "  requests      {} ({} errors, {} shed)",
        u64_of("requests"),
        u64_of("errors"),
        u64_of("shed")
    );
    println!("  queue depth   {}", u64_of("queue_len"));
    let batches = u64_of("batches");
    let occupancy = if batches > 0 {
        u64_of("batched_requests") as f64 / batches as f64
    } else {
        0.0
    };
    println!(
        "  batching      {batches} batches, {occupancy:.2} req/batch, {} inline",
        u64_of("inline")
    );
}

/// `ramp top`: live dashboard over a running server's `watch` stream.
/// Subscribes with the requested interval and redraws one screenful per
/// frame; `--once` grabs a single frame and exits (for scripts), and
/// `--frames N` stops after N frames.
fn top_cmd(args: &Args) -> Result<(), SimError> {
    args.expect_only(&["addr", "interval-ms", "frames", "once"])?;
    let addr = args.get("addr").unwrap_or(DEFAULT_ADDR);
    let once = args.flag("once");
    let interval_ms = args.u64_or("interval-ms", if once { 50 } else { 1_000 })?;
    let frames = if once { 1 } else { args.u64_or("frames", 0)? };
    let mut client = Client::connect(addr)?;
    client.send_line(&format!("watch interval_ms={interval_ms} frames={frames}"))?;
    loop {
        let reply = client.next_reply()?;
        if !reply.is_ok() {
            return Err(SimError::invalid_config(format!(
                "server refused watch: {}",
                reply.raw
            )));
        }
        if reply.kind == "watch-end" {
            if !once {
                println!(
                    "watch ended: {} frame(s), {} request(s) served since startup",
                    reply.u64("frames")?,
                    reply.u64("requests")?
                );
            }
            return Ok(());
        }
        if reply.kind != WATCH_FRAME_KIND {
            return Err(SimError::invalid_config(format!(
                "unexpected watch reply `{}`",
                reply.raw
            )));
        }
        if !once {
            // Redraw in place (clear + home) so the dashboard refreshes
            // like `top` without pulling in a terminal library.
            print!("\x1b[2J\x1b[H");
        }
        render_top_frame(addr, &reply)?;
        let _ = std::io::stdout().flush();
    }
}

/// One dashboard screenful from a `watch-frame/1` reply.
fn render_top_frame(addr: &str, f: &Reply) -> Result<(), SimError> {
    let interval_s = f.u64("interval_ms")? as f64 / 1e3;
    let rate = |d: u64| {
        if interval_s > 0.0 {
            d as f64 / interval_s
        } else {
            0.0
        }
    };
    println!(
        "ramp top — {addr} | frame {} | uptime {:.1} s",
        f.u64("seq")?,
        f.f64("uptime_s")?
    );
    println!(
        "  requests  {:>9} total {:>9.1}/s   errors {} (+{})   shed {} (+{})",
        f.u64("requests")?,
        rate(f.u64("d_requests")?),
        f.u64("errors")?,
        f.u64("d_errors")?,
        f.u64("shed")?,
        f.u64("d_shed")?
    );
    println!(
        "  queue     {:>9} deep  {:>9.1} batches/s  {:.2} req/batch",
        f.u64("queue_len")?,
        rate(f.u64("d_batches")?),
        f.f64("batch_occupancy")?
    );
    match (
        f.get("latency_p50_ms"),
        f.get("latency_p99_ms"),
        f.get("latency_p999_ms"),
    ) {
        (Some(p50), Some(p99), Some(p999)) => {
            println!("  latency   p50 {p50} ms | p99 {p99} ms | p999 {p999} ms  (windowed)");
        }
        _ => println!("  latency   (telemetry window still filling)"),
    }
    if f.get("slo_objectives").is_some() {
        let objectives = f.u64("slo_objectives")?;
        let violated = f.u64("slo_violated")?;
        println!(
            "  slo       {objectives} objective(s), {violated} violated{}",
            if violated > 0 { "  !" } else { "" }
        );
    } else {
        println!("  slo       (no objectives evaluated yet)");
    }
    Ok(())
}

/// Builds an `eval`/`fit`/`sweep` request line from the client options.
fn build_request(args: &Args, verb: &str) -> Result<String, SimError> {
    let app = args
        .positional(1)
        .ok_or_else(|| SimError::invalid_config(format!("client {verb} needs an application")))?;
    let mut line = format!("{verb} {app}");
    if args.get("ghz").is_some() {
        let ghz = args.f64_or("ghz", 0.0)?;
        line.push_str(&format!(" freq={}", ghz * 1e9));
    }
    for key in ["vdd", "tqual", "alpha", "target", "step", "shape"] {
        // Verb-specific keys are forwarded as-is; the server's strict
        // grammar rejects them on the wrong verb with a positioned error.
        if args.get(key).is_some() {
            line.push_str(&format!(" {key}={}", args.f64_or(key, 0.0)?));
        }
    }
    for key in ["window", "alus", "fpus", "dies", "seed"] {
        if args.get(key).is_some() {
            line.push_str(&format!(" {key}={}", args.u64_or(key, 0)?));
        }
    }
    if let Some(strategy) = args.get("strategy") {
        line.push_str(&format!(" strategy={strategy}"));
    }
    if let Some(name) = args.get("use") {
        line.push_str(&format!(" scenario={name}"));
    }
    Ok(line)
}

/// Runs a whole scenario: every workload in the suite on the scenario's
/// processor, scored against the scenario's qualification.
fn run_scenario(args: &Args, scn: &Scenario) -> Result<(), SimError> {
    let model = scn.model()?;
    let evaluator = scn.evaluator_with(eval_params(args, scn))?;
    let target = model.target_fit();
    println!(
        "scenario {}: {} workloads on {:.2} GHz / {:.3} V @ T_qual {:.0} (target {:.0} FIT)",
        scn.name,
        scn.workloads.len(),
        scn.core.frequency.to_ghz(),
        scn.core.vdd.0,
        model.qualification().temperature.0,
        target.value()
    );
    println!(
        "  {:>10} {:>7} {:>9} {:>9} {:>10}  ",
        "workload", "BIPS", "P (W)", "Tmax (K)", "FIT"
    );
    let mut worst = 0.0_f64;
    for profile in scn.profiles() {
        let ev = evaluator.evaluate_profile(&profile, &scn.core)?;
        let fit = ev.application_fit(&model).total();
        worst = worst.max(fit.value());
        println!(
            "  {:>10} {:>7.2} {:>9.1} {:>9.1} {:>10.0} {}",
            profile.name,
            ev.bips,
            ev.average_power().0,
            ev.max_temperature().0,
            fit.value(),
            if fit <= target { "" } else { "!" }
        );
    }
    println!(
        "  verdict: worst-case {worst:.0} FIT {} the {:.0} FIT budget",
        if worst <= target.value() {
            "meets"
        } else {
            "EXCEEDS"
        },
        target.value()
    );
    Ok(())
}
