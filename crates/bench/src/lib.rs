//! `bench-suite`: the harness that regenerates every table and figure of
//! the ISCA-04 RAMP/DRM paper.
//!
//! One binary per artifact:
//!
//! | Binary   | Paper artifact | What it prints |
//! |----------|----------------|----------------|
//! | `table1` | Table 1        | the base processor parameters |
//! | `table2` | Table 2        | per-app IPC and base power |
//! | `fig1`   | Figure 1       | app FIT vs `T_qual` on three processors |
//! | `fig2`   | Figure 2       | ArchDVS DRM performance, all apps × 4 `T_qual` |
//! | `fig3`   | Figure 3       | Arch vs DVS vs ArchDVS for bzip2 vs `T_qual` |
//! | `fig4`   | Figure 4       | DVS frequency chosen by DRM vs DTM per app |
//!
//! Further binaries (`scaling`, `sensitivity`, `extensions`, `ablation`)
//! print the extension and ablation studies called out in DESIGN.md.
//! Performance numbers live in the `ramp-bench` package under
//! `benchmark/`, not here.
//!
//! Every figure driver shares one [`Oracle`] whose batch engine fans
//! evaluations across `RAMP_JOBS` worker threads (0 or unset = all
//! cores) and ends with a one-line sweep summary. A driver runs in two
//! phases: a prefetch that evaluates every point it needs in one batch
//! pass, then a sequential row phase that only reads the cache and
//! scores. The engine's workers are thus the only threads that evaluate,
//! so the summary's busy time never exceeds workers × wall.
//!
//! ## The `T_qual` axis mapping
//!
//! The paper chose its qualification temperatures relative to the thermal
//! range its simulator produced (coolest app ≈ 325 K, hottest ≈ 400 K).
//! Our substrate's range is 351–405 K, so each sweep point is mapped to
//! the same *semantic* landmark (see EXPERIMENTS.md):
//!
//! | Paper | Meaning | Ours |
//! |-------|---------|------|
//! | 400 K | worst-case observed temperature | 405 K |
//! | 370 K | hottest apps just meet the target at base | 394 K |
//! | 345 K | the "average application" point | 366 K |
//! | 325 K | drastic underdesign | 340 K |

use std::path::Path;
use std::sync::{Arc, Once};

use drm::{compare_drm_dtm, DrmChoice, DrmDtmPoint, EvalParams, Oracle, Strategy};
use ramp::ReliabilityModel;
use scenario::Scenario;
use sim_common::{Kelvin, SimError};
use workload::App;

/// Our analogue of the paper's 400 K point: the worst-case (hottest
/// observed) temperature on the base processor.
pub const T_WORST_CASE: f64 = 405.0;
/// Our analogue of the paper's 370 K: the hottest applications just meet
/// the FIT target at base settings ("application-oriented" qualification).
pub const T_APP_ORIENTED: f64 = 394.0;
/// Our analogue of the paper's 345 K: qualification for the average
/// application.
pub const T_AVERAGE_APP: f64 = 366.0;
/// Our analogue of the paper's 325 K: drastic underdesign.
pub const T_UNDERDESIGNED: f64 = 340.0;

/// The four Figure 2 sweep points, hottest (most expensive) first, paired
/// with the paper's nominal temperature for reporting.
pub const FIG2_SWEEP: [(f64, f64); 4] = [
    (T_WORST_CASE, 400.0),
    (T_APP_ORIENTED, 370.0),
    (T_AVERAGE_APP, 345.0),
    (T_UNDERDESIGNED, 325.0),
];

/// The six Figure 3/Figure 4 sweep points (ours, paper's nominal).
pub const FIG34_SWEEP: [(f64, f64); 6] = [
    (340.0, 325.0),
    (350.0, 335.0),
    (366.0, 345.0),
    (380.0, 360.0),
    (394.0, 370.0),
    (405.0, 400.0),
];

/// DVS grid granularity used by the figure reproductions, GHz.
pub const DVS_STEP_GHZ: f64 = 0.25;

/// Simulation lengths: `EvalParams::standard()` by default, or
/// `EvalParams::quick()` when the `RAMP_FAST` environment variable is set
/// (for smoke-testing the binaries).
pub fn eval_params() -> EvalParams {
    if std::env::var_os("RAMP_FAST").is_some() {
        EvalParams::quick()
    } else {
        EvalParams::standard()
    }
}

/// Sweep worker count: `RAMP_JOBS` when set (0 = all cores), otherwise
/// every available core.
pub fn sweep_workers() -> usize {
    std::env::var("RAMP_JOBS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(0)
}

/// Installs the observability sinks requested by the environment, once
/// per process: `RAMP_TRACE=<path.jsonl>` records a JSONL trace of the
/// run (readable with `ramp report`), and `RAMP_METRICS=1` turns on the
/// shared metric aggregator so [`print_sweep_summary`] reports from the
/// batch engine's own counters. Called automatically by [`make_oracle`],
/// so every figure driver shares one aggregator.
pub fn init_observability() {
    static OBS_INIT: Once = Once::new();
    OBS_INIT.call_once(|| {
        let mut enable = false;
        if let Some(path) = std::env::var_os("RAMP_TRACE") {
            match sim_obs::JsonlSink::create(Path::new(&path)) {
                Ok(sink) => {
                    sim_obs::install_sink(Arc::new(sink));
                    enable = true;
                }
                Err(e) => eprintln!("warning: cannot create RAMP_TRACE file: {e}"),
            }
        }
        if let Some(path) = std::env::var_os("RAMP_TRACE_OUT") {
            match sim_obs::TraceEventSink::create(Path::new(&path)) {
                Ok(sink) => {
                    sim_obs::install_sink(Arc::new(sink));
                    enable = true;
                }
                Err(e) => eprintln!("warning: cannot create RAMP_TRACE_OUT file: {e}"),
            }
        }
        if std::env::var_os("RAMP_METRICS").is_some_and(|v| !v.is_empty()) {
            enable = true;
        }
        if enable {
            sim_obs::set_enabled(true);
        }
    });
}

/// Prints the driver's one-line sweep summary (jobs, evals, cache hits,
/// evals/s, wall time, realized speedup) to stderr: its timings differ
/// run to run, and a driver's stdout must not.
///
/// With metrics enabled (`RAMP_METRICS`/`RAMP_TRACE`), the line is
/// rebuilt from the sim-obs aggregator — the same `drm.batch.*` counters
/// a trace records — so the printed summary and the trace cannot drift
/// apart. Otherwise it falls back to the oracle's own bookkeeping.
pub fn print_sweep_summary(oracle: &Oracle) {
    if sim_obs::enabled() {
        let snapshot = sim_obs::flush();
        let counter = |name: &str| {
            snapshot.iter().find_map(|m| match m.value {
                sim_obs::MetricValue::Counter(c) if m.name == name => Some(c),
                _ => None,
            })
        };
        if let (Some(evals), Some(hits), Some(wall_ns), Some(busy_ns)) = (
            counter("drm.batch.evaluations"),
            counter("drm.batch.warm_hits"),
            counter("drm.batch.wall_ns"),
            counter("drm.batch.busy_ns"),
        ) {
            // `drm.batch.evaluations` counts only cold jobs fanned out
            // (the batch engine dedups warm keys into `warm_hits`), and
            // `drm.batch.timing_runs` how many of those actually paid for
            // a cycle-level timing simulation (the rest reused one).
            let runs = counter("drm.batch.timing_runs").unwrap_or(evals);
            let wall_s = wall_ns as f64 / 1e9;
            eprintln!(
                "sweep: {} jobs | {evals} evals, {hits} cache hits | timing {runs} runs, {} reused | {:.1} evals/s | wall {:.2} s | speedup {:.2}x",
                oracle.workers(),
                evals.saturating_sub(runs),
                if wall_s > 0.0 { evals as f64 / wall_s } else { 0.0 },
                wall_s,
                if wall_ns > 0 { busy_ns as f64 / wall_ns as f64 } else { 1.0 },
            );
            return;
        }
    }
    eprintln!("{}", oracle.summary());
}

/// The scenario every figure driver builds from: `RAMP_SCENARIO=<file>`
/// when set, the paper's own setup otherwise.
///
/// # Errors
///
/// Propagates scenario load errors.
pub fn base_scenario() -> Result<Scenario, SimError> {
    match std::env::var("RAMP_SCENARIO") {
        Ok(path) if !path.is_empty() => Scenario::load(&path),
        _ => Ok(Scenario::paper_default()),
    }
}

/// Builds a reliability model qualified at `t_qual` with the given
/// suite-maximum activity (§3.7: the scenario's FIT budget, even
/// mechanism split, area-proportional structure split) over the
/// [`base_scenario`]'s processor and floorplan.
///
/// # Errors
///
/// Propagates qualification errors.
pub fn qualified_model(t_qual: f64, alpha_qual: f64) -> Result<ReliabilityModel, SimError> {
    base_scenario()?.model_at(Kelvin(t_qual), alpha_qual)
}

/// Creates a fresh oracle over the [`base_scenario`]'s stack, sized by
/// [`sweep_workers`].
///
/// # Errors
///
/// Propagates construction errors.
pub fn make_oracle() -> Result<Oracle, SimError> {
    init_observability();
    let scn = base_scenario()?;
    let params = if std::env::var_os("RAMP_FAST").is_some() {
        EvalParams::quick()
    } else {
        scn.eval
    };
    scn.oracle_with(params, sweep_workers())
}

/// The suite-maximum activity factor `α_qual` (§3.7), measured on the base
/// processor over all nine applications.
///
/// # Errors
///
/// Propagates evaluation errors.
pub fn suite_alpha_qual(oracle: &Oracle) -> Result<f64, SimError> {
    oracle.suite_max_activity(&App::ALL)
}

/// Table 2's rows, `(app, IPC, average power in W)`, read from the cache
/// [`Oracle::suite_max_activity`] filled.
///
/// # Errors
///
/// Propagates evaluation errors.
pub fn table2_rows(oracle: &Oracle, apps: &[App]) -> Result<Vec<(App, f64, f64)>, SimError> {
    apps.iter()
        .map(|&app| {
            let ev = oracle.base_evaluation(app)?;
            Ok((app, ev.ipc, ev.average_power().0))
        })
        .collect()
}

/// Figure 2's rows: the ArchDVS DRM choice of every app at each
/// [`FIG2_SWEEP`] point, scored from the cache the ArchDVS
/// [`Oracle::prefetch_suite`] filled.
///
/// # Errors
///
/// Propagates qualification and evaluation errors.
pub fn fig2_rows(
    oracle: &Oracle,
    apps: &[App],
    alpha_qual: f64,
) -> Result<Vec<(App, Vec<DrmChoice>)>, SimError> {
    let models = FIG2_SWEEP
        .iter()
        .map(|&(t_qual, _)| qualified_model(t_qual, alpha_qual))
        .collect::<Result<Vec<_>, _>>()?;
    apps.iter()
        .map(|&app| {
            let row = models
                .iter()
                .map(|model| oracle.best(app, Strategy::ArchDvs, model, DVS_STEP_GHZ))
                .collect::<Result<_, _>>()?;
            Ok((app, row))
        })
        .collect()
}

/// Figure 4's rows: DRM vs DTM at each [`FIG34_SWEEP`] point for every
/// app, from the cache the DVS [`Oracle::prefetch_suite`] filled.
///
/// # Errors
///
/// Propagates qualification and evaluation errors.
pub fn fig4_rows(
    oracle: &Oracle,
    apps: &[App],
    alpha_qual: f64,
) -> Result<Vec<(App, Vec<DrmDtmPoint>)>, SimError> {
    let models = FIG34_SWEEP
        .iter()
        .map(|&(t, _)| Ok((t, qualified_model(t, alpha_qual)?)))
        .collect::<Result<Vec<_>, SimError>>()?;
    apps.iter()
        .map(|&app| {
            let row = models
                .iter()
                .map(|(t, model)| compare_drm_dtm(oracle, app, Kelvin(*t), model, DVS_STEP_GHZ))
                .collect::<Result<_, _>>()?;
            Ok((app, row))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ramp::FIT_TARGET_STANDARD;

    #[test]
    fn sweeps_are_descending_and_in_range() {
        let mut last = f64::INFINITY;
        for (t, _) in FIG2_SWEEP {
            assert!(t < last);
            assert!((330.0..=410.0).contains(&t));
            last = t;
        }
        let mut last = 0.0;
        for (t, _) in FIG34_SWEEP {
            assert!(t > last);
            last = t;
        }
    }

    #[test]
    fn qualified_model_round_trips_target() {
        let m = qualified_model(T_AVERAGE_APP, 0.4).unwrap();
        assert_eq!(m.target_fit().value(), FIT_TARGET_STANDARD);
    }

    #[test]
    fn row_phases_add_no_timing_run() {
        use drm::Evaluator;
        let params = EvalParams {
            warmup_instructions: 500,
            measure_instructions: 2_000,
            interval_instructions: 1_000,
            ..EvalParams::quick()
        };
        let oracle = Oracle::with_workers(Evaluator::ibm_65nm(params).unwrap(), 2);
        let apps = [App::Gzip];
        let timing_runs = || oracle.summary().timing_runs;

        let alpha = oracle.suite_max_activity(&apps).unwrap();
        let before = timing_runs();
        let rows = table2_rows(&oracle, &apps).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(timing_runs(), before, "table2 rows simulated");

        oracle
            .prefetch_suite(&apps, Strategy::Dvs, DVS_STEP_GHZ)
            .unwrap();
        let before = timing_runs();
        let rows = fig4_rows(&oracle, &apps, alpha).unwrap();
        assert_eq!(rows[0].1.len(), FIG34_SWEEP.len());
        assert_eq!(timing_runs(), before, "fig4 rows simulated");

        oracle
            .prefetch_suite(&apps, Strategy::ArchDvs, DVS_STEP_GHZ)
            .unwrap();
        let before = timing_runs();
        let rows = fig2_rows(&oracle, &apps, alpha).unwrap();
        assert_eq!(rows[0].1.len(), FIG2_SWEEP.len());
        assert_eq!(timing_runs(), before, "fig2 rows simulated");
    }
}
