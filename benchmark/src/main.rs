//! `ramp-bench`: the end-to-end and per-layer benchmark of the RAMP/DRM
//! stack. See `benchmark/README.md` for the workloads, metrics and
//! bounds.
//!
//! ```text
//! ramp-bench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//!            [--threads T] [--scale full|smoke] [--out DIR]
//! ramp-bench run [--seed N] [--seconds S] [--threads T] [--scale ...] [--out DIR]
//! ramp-bench compare <A/results.json>... vs <B/results.json>... [--spec BENCHMARK.json]
//! ```
//!
//! The first form measures one workload and prints, last, one JSON line
//! `{"correct", "attempted", "failed", "metrics"}`: end-to-end metrics
//! untraced (`--trace 0`) or per-layer metrics from a traced run plus
//! layer probes (`--trace 1`). `run` measures every workload both ways in
//! fresh child processes and writes `<DIR>/results.json`; `compare`
//! judges two sets of such results against the bounds in
//! `BENCHMARK.json`.

mod compare;
mod json;
mod probes;
mod runner;
mod spec;
mod stats;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use json::Json;
use runner::Report;
use spec::{
    Scale, Workload, DEFAULT_SECONDS, DEFAULT_SEED, DIGEST_THREADS, EXPECTED_DIGESTS, WORKLOADS,
};
use workloads::Ctx;

/// Where traces and `run` results go unless `--out` says otherwise.
const DEFAULT_OUT: &str = ".bench_out";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => run_all(&args[1..]),
        Some("compare") => compare::main(&args[1..]),
        _ => measure_one(&args),
    };
    match result {
        Ok(code) => code,
        Err(message) => {
            eprintln!("ramp-bench: {message}");
            ExitCode::from(2)
        }
    }
}

/// Parsed `--key value` options shared by the measuring commands.
struct Options {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    threads: usize,
    scale: Scale,
    out: PathBuf,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS as f64,
        trace: false,
        threads: stats::nproc().min(2),
        scale: Scale::Full,
        out: PathBuf::from(DEFAULT_OUT),
    };
    let mut it = args.iter();
    while let Some(key) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{key} needs a value"))?
            .as_str();
        let bad = || format!("bad value `{value}` for {key}");
        match key.as_str() {
            "--workload" => {
                opts.workload = Some(Workload::parse(value).ok_or_else(|| {
                    let names: Vec<_> = WORKLOADS.iter().map(|w| w.name()).collect();
                    format!("unknown workload `{value}` (known: {})", names.join(", "))
                })?);
            }
            "--seed" => opts.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                opts.seconds = value.parse().map_err(|_| bad())?;
                if !(opts.seconds >= 0.0 && opts.seconds.is_finite()) {
                    return Err(bad());
                }
            }
            "--trace" => {
                opts.trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--threads" => {
                opts.threads = value.parse().map_err(|_| bad())?;
                if opts.threads == 0 {
                    return Err(bad());
                }
            }
            "--scale" => opts.scale = Scale::parse(value).ok_or_else(bad)?,
            "--out" => opts.out = PathBuf::from(value),
            _ => return Err(format!("unknown option `{key}`")),
        }
    }
    Ok(opts)
}

/// Measures one workload and prints its metrics, then the result line.
fn measure_one(args: &[String]) -> Result<ExitCode, String> {
    let opts = parse_options(args)?;
    let workload = opts
        .workload
        .ok_or("--workload is required (or use `run` / `compare`)")?;
    let ctx = Ctx {
        seed: opts.seed,
        threads: opts.threads,
        scale: opts.scale,
    };
    println!(
        "host nproc={} cpu=\"{}\" rustc=\"{}\" commit={} threads={}",
        stats::nproc(),
        stats::cpu_model(),
        stats::rustc_version(),
        stats::git_commit(),
        ctx.threads
    );
    let outcome =
        runner::measure(workload, &ctx, opts.seconds, opts.trace, &opts.out).and_then(|report| {
            check_expected_digest(workload, &ctx, report.digest)?;
            Ok(report)
        });
    let report = match outcome {
        Ok(report) => report,
        Err(message) => {
            eprintln!("ramp-bench: {}: {message}", workload.name());
            println!("{}", result_line(false, 0, 0, &Json::Obj(Vec::new())));
            return Ok(ExitCode::FAILURE);
        }
    };
    print_report(workload, &ctx, opts.trace, &report);
    Ok(ExitCode::SUCCESS)
}

/// At the recorded seed, scale and thread count, round 0's outputs must
/// be bit-identical to the recorded ones.
fn check_expected_digest(workload: Workload, ctx: &Ctx, digest: u64) -> Result<(), String> {
    if ctx.seed != DEFAULT_SEED || ctx.scale != Scale::Full || ctx.threads != DIGEST_THREADS {
        return Ok(());
    }
    let expected = EXPECTED_DIGESTS
        .iter()
        .find(|(w, _)| *w == workload)
        .map(|(_, d)| *d)
        .expect("every workload has a recorded digest");
    if digest == expected {
        Ok(())
    } else {
        Err(format!(
            "output digest {digest:016x} differs from the recorded {expected:016x}"
        ))
    }
}

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Json) -> String {
    Json::Obj(vec![
        ("correct".to_owned(), Json::Bool(correct)),
        ("attempted".to_owned(), Json::Num(attempted as f64)),
        ("failed".to_owned(), Json::Num(failed as f64)),
        ("metrics".to_owned(), metrics.clone()),
    ])
    .to_line()
}

fn print_report(workload: Workload, ctx: &Ctx, traced: bool, report: &Report) {
    println!(
        "workload {} seed={} scale={:?} trace={} rounds={} op=\"{}\" attempted={} failed={}",
        workload.name(),
        ctx.seed,
        ctx.scale,
        u8::from(traced),
        report.rounds,
        workload.op(),
        report.attempted,
        report.failed
    );
    println!("digest {:016x}", report.digest);
    if traced {
        println!("self-time by span (self time over all traced self time):");
        for row in &report.self_time {
            println!(
                "self {} count={} total_ms={:.3} self_ms={:.3} share_pct={:.2}",
                row.name,
                row.count,
                row.total_ns as f64 / 1e6,
                row.self_ns as f64 / 1e6,
                row.share_pct
            );
        }
    }
    let mut metrics = Vec::new();
    for m in &report.metrics {
        println!("metric {} {} {} n={}", m.def.name, m.value, m.def.unit, m.n);
        metrics.push((
            m.def.name.to_owned(),
            Json::Obj(vec![
                ("value".to_owned(), Json::Num(m.value)),
                ("unit".to_owned(), Json::Str(m.def.unit.to_owned())),
            ]),
        ));
    }
    println!(
        "{}",
        result_line(true, report.attempted, report.failed, &Json::Obj(metrics))
    );
}

/// What `run` reads back from one child's standard output.
struct ChildResult {
    digest: String,
    correct: bool,
    attempted: f64,
    failed: f64,
    metrics: Vec<(String, Json)>,
    self_time: Vec<Json>,
}

fn run_child(exe: &Path, args: &[String]) -> Result<ChildResult, String> {
    let output = Command::new(exe)
        .args(args)
        .output()
        .map_err(|e| format!("cannot run {}: {e}", exe.display()))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    eprint!("{}", String::from_utf8_lossy(&output.stderr));
    let last = stdout.lines().last().unwrap_or_default();
    let result = Json::parse(last).map_err(|e| format!("child printed no result ({e})"))?;
    let mut child = ChildResult {
        digest: String::new(),
        correct: result.get("correct") == Some(&Json::Bool(true)) && output.status.success(),
        attempted: result
            .get("attempted")
            .and_then(Json::as_f64)
            .unwrap_or(0.0),
        failed: result.get("failed").and_then(Json::as_f64).unwrap_or(0.0),
        metrics: Vec::new(),
        self_time: Vec::new(),
    };
    for line in stdout.lines() {
        let mut words = line.split_whitespace();
        match words.next() {
            Some("digest") => child.digest = words.next().unwrap_or_default().to_owned(),
            Some("metric") => {
                let (Some(name), Some(value), Some(unit), Some(n)) =
                    (words.next(), words.next(), words.next(), words.next())
                else {
                    continue;
                };
                let value: f64 = value
                    .parse()
                    .map_err(|_| format!("bad metric line `{line}`"))?;
                let n: f64 = n
                    .trim_start_matches("n=")
                    .parse()
                    .map_err(|_| format!("bad metric line `{line}`"))?;
                child.metrics.push((
                    name.to_owned(),
                    Json::Obj(vec![
                        ("value".to_owned(), Json::Num(value)),
                        ("unit".to_owned(), Json::Str(unit.to_owned())),
                        ("n".to_owned(), Json::Num(n)),
                    ]),
                ));
            }
            Some("self") => {
                let mut row = vec![(
                    "span".to_owned(),
                    Json::Str(words.next().unwrap_or_default().to_owned()),
                )];
                for field in words {
                    if let Some((k, v)) = field.split_once('=') {
                        row.push((k.to_owned(), Json::Num(v.parse().unwrap_or(0.0))));
                    }
                }
                child.self_time.push(Json::Obj(row));
            }
            _ => {}
        }
    }
    Ok(child)
}

/// `run`: every workload untraced, then traced, each in a fresh child
/// process; the two digests of each workload must agree.
fn run_all(args: &[String]) -> Result<ExitCode, String> {
    let opts = parse_options(args)?;
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    std::fs::create_dir_all(&opts.out).map_err(|e| format!("{}: {e}", opts.out.display()))?;
    let mut ok = true;
    let mut workloads = Vec::new();
    for workload in opts.workload.map_or(WORKLOADS.to_vec(), |w| vec![w]) {
        let child_args = |trace: &str| {
            vec![
                "--workload".to_owned(),
                workload.name().to_owned(),
                "--seed".to_owned(),
                opts.seed.to_string(),
                "--seconds".to_owned(),
                opts.seconds.to_string(),
                "--threads".to_owned(),
                opts.threads.to_string(),
                "--scale".to_owned(),
                if opts.scale == Scale::Full {
                    "full"
                } else {
                    "smoke"
                }
                .to_owned(),
                "--out".to_owned(),
                opts.out.display().to_string(),
                "--trace".to_owned(),
                trace.to_owned(),
            ]
        };
        let plain = run_child(&exe, &child_args("0"))?;
        let traced = run_child(&exe, &child_args("1"))?;
        let digests_agree = plain.digest == traced.digest && !plain.digest.is_empty();
        let correct = plain.correct && traced.correct && digests_agree;
        if !digests_agree {
            eprintln!(
                "ramp-bench: {}: untraced digest {} differs from traced digest {}",
                workload.name(),
                plain.digest,
                traced.digest
            );
        }
        ok &= correct;
        println!(
            "workload {} correct={correct} digest={} attempted={} failed={}",
            workload.name(),
            plain.digest,
            plain.attempted,
            plain.failed
        );
        for (name, m) in plain.metrics.iter().chain(&traced.metrics) {
            let field = |k: &str| m.get(k).map(Json::to_line).unwrap_or_default();
            println!(
                "  {name} {} {} n={}",
                field("value"),
                m.get("unit").and_then(Json::as_str).unwrap_or_default(),
                field("n")
            );
        }
        workloads.push((
            workload.name().to_owned(),
            Json::Obj(vec![
                ("correct".to_owned(), Json::Bool(correct)),
                ("digest".to_owned(), Json::Str(plain.digest)),
                ("digest_traced".to_owned(), Json::Str(traced.digest)),
                ("attempted".to_owned(), Json::Num(plain.attempted)),
                ("failed".to_owned(), Json::Num(plain.failed)),
                ("metrics".to_owned(), Json::Obj(plain.metrics)),
                ("layers".to_owned(), Json::Obj(traced.metrics)),
                ("self_time".to_owned(), Json::Arr(traced.self_time)),
            ]),
        ));
    }
    let results = Json::Obj(vec![
        (
            "host".to_owned(),
            Json::Obj(vec![
                ("nproc".to_owned(), Json::Num(stats::nproc() as f64)),
                ("cpu".to_owned(), Json::Str(stats::cpu_model())),
                ("rustc".to_owned(), Json::Str(stats::rustc_version())),
                ("commit".to_owned(), Json::Str(stats::git_commit())),
                ("threads".to_owned(), Json::Num(opts.threads as f64)),
            ]),
        ),
        ("seed".to_owned(), Json::Num(opts.seed as f64)),
        ("seconds".to_owned(), Json::Num(opts.seconds)),
        ("workloads".to_owned(), Json::Obj(workloads)),
    ]);
    let path = opts.out.join("results.json");
    std::fs::write(&path, results.to_pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use spec::{MetricDef, END_TO_END, PER_LAYER};

    fn names(metrics: &[runner::Measurement]) -> Vec<&'static str> {
        metrics.iter().map(|m| m.def.name).collect()
    }

    fn def_names(defs: &[MetricDef]) -> Vec<&'static str> {
        defs.iter().map(|d| d.name).collect()
    }

    /// Every workload runs in-process at smoke scale, untraced and traced,
    /// passes its output checks with no failed operation, and the two runs
    /// agree on the output digest. One test, because tracing state is
    /// process-global.
    #[test]
    fn every_workload_passes_its_gate_at_smoke_scale() {
        let out = std::env::temp_dir().join(format!("ramp-bench-test-{}", std::process::id()));
        let ctx = Ctx {
            seed: 2004,
            threads: 2,
            scale: Scale::Smoke,
        };
        for workload in WORKLOADS {
            let plain = runner::measure(workload, &ctx, 0.0, false, &out)
                .unwrap_or_else(|e| panic!("{}: {e}", workload.name()));
            let traced = runner::measure(workload, &ctx, 0.0, true, &out)
                .unwrap_or_else(|e| panic!("{} traced: {e}", workload.name()));
            sim_obs::reset_for_tests();
            assert_eq!(plain.digest, traced.digest, "{}", workload.name());
            assert!(plain.attempted > 0 && plain.failed == 0 && traced.failed == 0);
            assert_eq!(names(&plain.metrics), def_names(&END_TO_END));
            assert_eq!(names(&traced.metrics), def_names(&PER_LAYER));
            for m in &plain.metrics {
                assert!(
                    m.value > 0.0,
                    "{}: {} = {}",
                    workload.name(),
                    m.def.name,
                    m.value
                );
            }
            assert!(out
                .join(format!("trace-{}.json", workload.name()))
                .is_file());
        }
        let _ = std::fs::remove_dir_all(&out);
    }

    /// The names, units and directions the benchmark emits are exactly the
    /// ones `BENCHMARK.json` declares, in the same order, and every name
    /// is one the benchmark contract accepts.
    #[test]
    fn emitted_metrics_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        let spec = Json::parse(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String, String)> {
            spec.get(key)
                .and_then(Json::as_array)
                .unwrap_or_else(|| panic!("no `{key}` list"))
                .iter()
                .map(|m| {
                    let field = |k| {
                        m.get(k)
                            .and_then(Json::as_str)
                            .unwrap_or_default()
                            .to_owned()
                    };
                    (field("name"), field("unit"), field("better"))
                })
                .collect()
        };
        let declared = |defs: &[MetricDef]| -> Vec<(String, String, String)> {
            defs.iter()
                .map(|d| {
                    (
                        d.name.to_owned(),
                        d.unit.to_owned(),
                        d.better.name().to_owned(),
                    )
                })
                .collect()
        };
        assert_eq!(listed("end_to_end"), declared(&END_TO_END));
        assert_eq!(listed("per_layer"), declared(&PER_LAYER));
        let workloads: Vec<_> = spec
            .get("workloads")
            .and_then(Json::as_array)
            .expect("workloads list")
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::as_str))
            .collect();
        let ours: Vec<_> = WORKLOADS.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, ours);
        assert_eq!(
            spec.get("run_seconds").and_then(Json::as_f64),
            Some(DEFAULT_SECONDS as f64)
        );
        let valid = |name: &str| {
            !name.is_empty()
                && name.len() <= 64
                && name.starts_with(|c: char| c.is_ascii_alphanumeric())
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
        };
        for name in ours
            .iter()
            .chain(&def_names(&END_TO_END))
            .chain(&def_names(&PER_LAYER))
        {
            assert!(valid(name), "invalid name `{name}`");
        }
    }
}
