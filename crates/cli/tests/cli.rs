//! End-to-end tests of the `ramp` CLI binary.

use std::process::Command;

fn ramp(args: &[&str]) -> (bool, String, String) {
    ramp_env(args, &[])
}

fn ramp_env(args: &[&str], env: &[(&str, &str)]) -> (bool, String, String) {
    let exe = env!("CARGO_BIN_EXE_ramp");
    let mut cmd = Command::new(exe);
    cmd.args(args);
    for (k, v) in env {
        cmd.env(k, v);
    }
    let out = cmd.output().expect("spawn ramp");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn help_lists_commands() {
    let (ok, stdout, _) = ramp(&["help"]);
    assert!(ok);
    for cmd in [
        "list",
        "evaluate",
        "fit",
        "drm",
        "dtm",
        "controller",
        "scaling",
    ] {
        assert!(stdout.contains(cmd), "help is missing `{cmd}`");
    }
}

#[test]
fn list_names_all_workloads_and_structures() {
    let (ok, stdout, _) = ramp(&["list"]);
    assert!(ok);
    for app in ["MPGdec", "bzip2", "art"] {
        assert!(stdout.contains(app));
    }
    assert!(stdout.contains("fpu"));
    assert!(stdout.contains("dcache"));
}

#[test]
fn evaluate_reports_metrics() {
    let (ok, stdout, _) = ramp(&["evaluate", "--app", "twolf", "--quick"]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("IPC"));
    assert!(stdout.contains("average power"));
    assert!(stdout.contains("peak temp"));
}

#[test]
fn fit_reports_mechanisms_and_verdict() {
    let (ok, stdout, _) = ramp(&["fit", "--app", "art", "--tqual", "394", "--quick"]);
    assert!(ok, "{stdout}");
    for m in [
        "electromigration",
        "stress-migration",
        "tddb",
        "thermal-cycling",
    ] {
        assert!(stdout.contains(m), "missing {m}: {stdout}");
    }
    assert!(stdout.contains("MTTF"));
    assert!(stdout.contains("meets the target"));
}

#[test]
fn drm_finds_a_configuration() {
    let (ok, stdout, _) = ramp(&[
        "drm",
        "--app",
        "twolf",
        "--tqual",
        "405",
        "--strategy",
        "dvs",
        "--step",
        "0.5",
        "--quick",
    ]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("GHz"));
    assert!(stdout.contains("feasible"));
}

#[test]
fn unknown_inputs_fail_cleanly() {
    let (ok, _, stderr) = ramp(&["fit", "--app", "doom", "--quick"]);
    assert!(!ok);
    assert!(stderr.contains("unknown application"), "{stderr}");

    let (ok, _, stderr) = ramp(&["transmogrify"]);
    assert!(!ok);
    assert!(stderr.contains("unknown command"));

    let (ok, _, stderr) = ramp(&["evaluate", "--app", "art", "--tqaul", "394", "--quick"]);
    assert!(!ok);
    assert!(stderr.contains("unknown option"), "{stderr}");
}

#[test]
fn evaluate_rejects_out_of_range_dvs() {
    let (ok, _, stderr) = ramp(&["evaluate", "--app", "art", "--ghz", "9.0", "--quick"]);
    assert!(!ok);
    assert!(stderr.contains("DVS range"), "{stderr}");
}

/// `--trace` records a JSONL trace, and `report` summarizes it offline:
/// stage-time table, hottest structures, and reliability gauges.
#[test]
fn trace_then_report_round_trip() {
    let path = std::env::temp_dir().join(format!("ramp-cli-trace-{}.jsonl", std::process::id()));
    let path_s = path.to_str().expect("utf-8 temp path");
    let (ok, stdout, stderr) = ramp(&[
        "fit", "--app", "gzip", "--tqual", "394", "--quick", "--trace", path_s,
    ]);
    assert!(ok, "fit --trace failed: {stdout}\n{stderr}");
    assert!(path.exists(), "trace file was not written");

    let (ok, report, stderr) = ramp(&["report", path_s, "--top", "3"]);
    std::fs::remove_file(&path).ok();
    assert!(ok, "report failed: {report}\n{stderr}");
    assert!(report.contains("stage time"), "{report}");
    assert!(report.contains("eval.timing"), "{report}");
    assert!(report.contains("hottest structures"), "{report}");
    assert!(report.contains("reliability (FIT)"), "{report}");

    let (ok, _, stderr) = ramp(&["report", "/nonexistent/trace.jsonl"]);
    assert!(!ok);
    assert!(stderr.contains("cannot read trace"), "{stderr}");
}

/// `--metrics` prints the aggregated snapshot after the command's own
/// output, with counters from every pipeline layer.
#[test]
fn metrics_flag_prints_aggregated_snapshot() {
    let (ok, stdout, _) = ramp(&["evaluate", "--app", "gzip", "--quick", "--metrics"]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("metrics ("), "{stdout}");
    for series in [
        "workload.ops.total",
        "cpu.intervals",
        "power.evals",
        "thermal.solves",
    ] {
        assert!(stdout.contains(series), "missing {series}: {stdout}");
    }
}

/// The repo-relative path to a checked-in scenario file (tests run with
/// the crate root as working directory).
fn scn(name: &str) -> String {
    format!("../../examples/scenarios/{name}")
}

/// `--scenario` with the checked-in paper scenario is byte-identical to
/// running without it: the file *is* the built-in default. Without
/// `--app`, both sides run the scenario's whole workload suite.
#[test]
fn fit_with_paper_scenario_matches_builtin_default_bit_for_bit() {
    let (ok, plain, stderr) = ramp(&["fit", "--quick"]);
    assert!(ok, "{plain}\n{stderr}");
    let (ok, via_file, stderr) = ramp(&["fit", "--scenario", &scn("paper.scn"), "--quick"]);
    assert!(ok, "{via_file}\n{stderr}");
    assert_eq!(
        plain, via_file,
        "paper.scn diverged from the built-in default"
    );
    // The suite ran: first and last Table 2 applications are both present.
    assert!(plain.contains("MPGdec"), "{plain}");
    assert!(plain.contains("ammp"), "{plain}");
}

/// `scenario print` emits the text form, which `scenario validate`
/// accepts back, and `validate` checks every checked-in example.
#[test]
fn scenario_print_validate_round_trip() {
    let (ok, printed, _) = ramp(&["scenario", "print"]);
    assert!(ok);
    assert!(printed.contains("scenario.name paper-default"), "{printed}");
    let path = std::env::temp_dir().join(format!("ramp-cli-scn-{}.scn", std::process::id()));
    std::fs::write(&path, &printed).expect("write temp scenario");
    let path_s = path.to_str().expect("utf-8 temp path");
    let (ok, stdout, stderr) = ramp(&["scenario", "validate", path_s]);
    std::fs::remove_file(&path).ok();
    assert!(ok, "{stdout}\n{stderr}");
    assert!(stdout.contains("ok"), "{stdout}");

    for file in ["paper.scn", "hot-lowcost.scn", "server-overdesign.scn"] {
        let (ok, stdout, stderr) = ramp(&["scenario", "validate", &scn(file)]);
        assert!(ok, "{file}: {stdout}\n{stderr}");
    }
}

/// `scenario run` scores a whole suite against its qualification.
#[test]
fn scenario_run_scores_the_suite() {
    // A one-workload variant keeps the test fast: the paper scenario with
    // the suite replaced by gzip alone.
    let paper = std::fs::read_to_string(scn("paper.scn")).expect("read paper.scn");
    let small: String = paper
        .lines()
        .filter(|l| !l.starts_with("workload "))
        .map(|l| format!("{l}\n"))
        .collect::<String>()
        + "workload gzip\n";
    let path = std::env::temp_dir().join(format!("ramp-cli-run-{}.scn", std::process::id()));
    std::fs::write(&path, small).expect("write temp scenario");
    let path_s = path.to_str().expect("utf-8 temp path");
    let (ok, stdout, stderr) = ramp(&["scenario", "run", path_s, "--quick"]);
    std::fs::remove_file(&path).ok();
    assert!(ok, "{stdout}\n{stderr}");
    assert!(stdout.contains("1 workloads"), "{stdout}");
    assert!(stdout.contains("gzip"), "{stdout}");
    assert!(stdout.contains("verdict"), "{stdout}");
}

/// `ramp dtm` and `ramp drm --intra` search the scenario's DVS range, as
/// `ramp drm` does: with `dvs.max_ghz` narrowed to 4.5, DTM at a loose
/// `T_max` stops at 4.50 GHz, where the paper's grid would reach 4.75.
#[test]
fn dtm_and_intra_search_the_scenario_dvs_range() {
    let paper = std::fs::read_to_string(scn("paper.scn")).expect("read paper.scn");
    assert!(paper.contains("\ndvs.max_ghz 5\n"), "paper.scn changed");
    let narrow = paper.replace("\ndvs.max_ghz 5\n", "\ndvs.max_ghz 4.5\n");
    let path = std::env::temp_dir().join(format!("ramp-cli-dvs-{}.scn", std::process::id()));
    std::fs::write(&path, narrow).expect("write temp scenario");
    let path_s = path.to_str().expect("utf-8 temp path");
    let dtm = ramp(&[
        "dtm",
        "--app",
        "gzip",
        "--tmax",
        "400",
        "--quick",
        "--scenario",
        path_s,
    ]);
    let intra = ramp(&[
        "drm",
        "--intra",
        "--app",
        "gzip",
        "--strategy",
        "dvs",
        "--quick",
        "--scenario",
        path_s,
    ]);
    std::fs::remove_file(&path).ok();
    let (ok, stdout, stderr) = dtm;
    assert!(ok, "{stdout}\n{stderr}");
    let ghz: f64 = stdout
        .lines()
        .find_map(|l| l.trim().strip_prefix("frequency"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("no frequency line: {stdout}"));
    assert!(ghz <= 4.5, "DTM chose {ghz} GHz outside the scenario range");
    let (ok, stdout, stderr) = intra;
    assert!(ok, "{stdout}\n{stderr}");
    assert!(
        stdout.contains("intra-application DVS schedule"),
        "{stdout}"
    );
}

/// Malformed scenario input fails with the file name and a line number,
/// and bad `scenario` subcommand usage fails with the usage string —
/// never a panic.
#[test]
fn scenario_errors_are_clean() {
    // A complete scenario with one value corrupted fails naming the line.
    let paper = std::fs::read_to_string(scn("paper.scn")).expect("read paper.scn");
    let (lineno, _) = paper
        .lines()
        .enumerate()
        .find(|(_, l)| l.starts_with("core.vdd "))
        .expect("paper.scn has core.vdd");
    let bad = paper.replace("core.vdd 1", "core.vdd not-a-number");
    let path = std::env::temp_dir().join(format!("ramp-cli-bad-{}.scn", std::process::id()));
    std::fs::write(&path, bad).expect("write");
    let path_s = path.to_str().expect("utf-8 temp path");
    let (ok, _, stderr) = ramp(&["fit", "--scenario", path_s, "--quick"]);
    std::fs::remove_file(&path).ok();
    assert!(!ok);
    assert!(
        stderr.contains(&format!("line {}", lineno + 1)),
        "expected `line {}` in: {stderr}",
        lineno + 1
    );

    let (ok, _, stderr) = ramp(&["scenario"]);
    assert!(!ok);
    assert!(stderr.contains("usage"), "{stderr}");

    let (ok, _, stderr) = ramp(&["scenario", "frobnicate"]);
    assert!(!ok);
    assert!(stderr.contains("unknown scenario action"), "{stderr}");

    let (ok, _, stderr) = ramp(&["scenario", "run"]);
    assert!(!ok);
    assert!(stderr.contains("needs a file"), "{stderr}");

    let (ok, _, stderr) = ramp(&["fit", "--scenario", "/nonexistent.scn", "--quick"]);
    assert!(!ok);
    assert!(stderr.contains("cannot read scenario"), "{stderr}");
}

/// `--step` is validated before it reaches any grid code.
#[test]
fn non_positive_step_is_rejected() {
    for step in ["0", "-0.5", "nan"] {
        let (ok, _, stderr) = ramp(&["dtm", "--app", "gzip", "--step", step, "--quick"]);
        assert!(!ok, "--step {step} was accepted");
        assert!(stderr.contains("--step"), "{stderr}");
    }
}

/// `RAMP_LOG` controls stderr diagnostics independently of `--trace`.
#[test]
fn ramp_log_env_enables_stderr_diagnostics() {
    let (ok, _, quiet) = ramp_env(&["list"], &[("RAMP_LOG", "off")]);
    assert!(ok);
    assert!(
        quiet.is_empty(),
        "RAMP_LOG=off must keep stderr clean: {quiet}"
    );

    let (ok, _, stderr) = ramp_env(
        &["evaluate", "--app", "gzip", "--quick"],
        &[("RAMP_LOG", "debug")],
    );
    assert!(ok);
    assert!(
        stderr.contains("ramp["),
        "RAMP_LOG=debug produced no diagnostics: {stderr}"
    );
}

#[test]
fn explicit_zero_jobs_and_queue_depth_fail_at_parse_time() {
    let (ok, _, stderr) = ramp(&["sweep", "--app", "gzip", "--jobs", "0", "--quick"]);
    assert!(!ok);
    assert!(stderr.contains("--jobs must be at least 1"), "{stderr}");

    let (ok, _, stderr) = ramp(&["serve", "--addr", "127.0.0.1:0", "--queue-depth", "0"]);
    assert!(!ok);
    assert!(
        stderr.contains("--queue-depth must be at least 1"),
        "{stderr}"
    );
}

#[test]
fn client_without_a_server_fails_cleanly() {
    // Port 9 (discard) is unbound; the client must fail with a clear
    // connection error, not hang or panic.
    let (ok, _, stderr) = ramp(&["client", "--addr", "127.0.0.1:9", "ping"]);
    assert!(!ok);
    assert!(stderr.contains("cannot connect"), "{stderr}");

    let (ok, _, stderr) = ramp(&["client"]);
    assert!(!ok);
    assert!(stderr.contains("usage: ramp client"), "{stderr}");
}

#[test]
fn serve_help_mentions_the_server_commands() {
    let (ok, stdout, _) = ramp(&["help"]);
    assert!(ok);
    assert!(stdout.contains("serve"), "{stdout}");
    assert!(stdout.contains("client"), "{stdout}");
    assert!(stdout.contains("--queue-depth"), "{stdout}");
}
