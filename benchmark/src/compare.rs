//! `compare`: judges two sets of `results.json` files (a parent's runs
//! and a change's runs) metric by metric and workload by workload,
//! against the bounds in `BENCHMARK.json`.

use std::process::ExitCode;

use crate::json::Json;
use crate::spec::Better;
use crate::stats::quantile;

/// The outcome for one metric on one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Better than the parent by more than the bound.
    Improved,
    /// Within the bound of the parent.
    Unchanged,
    /// Worse than the parent by more than the bound.
    Regressed,
    /// Either side's spread is wider than the bound and the runs
    /// overlap, so no claim either way holds.
    Unresolved,
}

/// Median and quartiles of one side.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Summary {
    /// Summarizes one side's values.
    #[must_use]
    pub fn of(values: &[f64]) -> Summary {
        Summary {
            q1: quantile(values, 0.25),
            median: quantile(values, 0.5),
            q3: quantile(values, 0.75),
        }
    }

    /// Quartile distance as a share of the median.
    #[must_use]
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// Relative change of `b`'s median from `a`'s, signed so that positive
/// means worse.
#[must_use]
pub fn worsening(a: &Summary, b: &Summary, better: Better) -> f64 {
    if a.median == 0.0 {
        return 0.0;
    }
    let change = (b.median - a.median) / a.median.abs();
    match better {
        Better::Lower => change,
        Better::Higher => -change,
    }
}

/// Classifies `b` (the change) against `a` (the parent). When either
/// side spreads wider than `bound`, only a complete separation of the
/// runs decides; otherwise the medians are compared against `bound`.
#[must_use]
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    let (sa, sb) = (Summary::of(a), Summary::of(b));
    let worse = worsening(&sa, &sb, better);
    let beats = |x: f64, y: f64| match better {
        Better::Lower => x < y,
        Better::Higher => x > y,
    };
    if sa.spread().max(sb.spread()) > bound {
        if b.iter().all(|&y| a.iter().all(|&x| beats(y, x))) {
            Verdict::Improved
        } else if b.iter().all(|&y| a.iter().all(|&x| beats(x, y))) {
            Verdict::Regressed
        } else {
            Verdict::Unresolved
        }
    } else if worse > bound {
        Verdict::Regressed
    } else if -worse > bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

/// Any rise in the failure ratio is a regression.
#[must_use]
pub fn judge_failures(a: &[(f64, f64)], b: &[(f64, f64)]) -> Verdict {
    let worst = |side: &[(f64, f64)]| {
        side.iter()
            .map(|&(failed, attempted)| failed / attempted.max(1.0))
            .fold(0.0, f64::max)
    };
    if worst(b) > worst(a) {
        Verdict::Regressed
    } else {
        Verdict::Unchanged
    }
}

/// One end-to-end metric as `BENCHMARK.json` defines it.
struct Bound {
    name: String,
    better: Better,
    bound: f64,
}

fn read_json(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn bounds(spec: &Json) -> Result<Vec<Bound>, String> {
    spec.get("end_to_end")
        .and_then(Json::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(Json::as_str)
                .ok_or("metric without a name")?;
            let better = m.get("better").and_then(Json::as_str);
            let better = [Better::Lower, Better::Higher]
                .into_iter()
                .find(|b| Some(b.name()) == better)
                .ok_or_else(|| format!("{name}: `better` must be lower or higher"))?;
            let bound = m
                .get("bound")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("{name}: no bound"))?;
            Ok(Bound {
                name: name.to_owned(),
                better,
                bound,
            })
        })
        .collect()
}

/// The workload names in one results file, in file order.
fn workload_names(results: &Json) -> Vec<String> {
    results
        .get("workloads")
        .and_then(Json::as_object)
        .map(|w| w.iter().map(|(name, _)| name.clone()).collect())
        .unwrap_or_default()
}

/// `compare <A.json>... vs <B.json>... [--spec BENCHMARK.json]`. Exits
/// non-zero when any metric regressed.
///
/// # Errors
///
/// Returns a message for unreadable files or a malformed command line.
pub fn main(args: &[String]) -> Result<ExitCode, String> {
    let mut spec_path = "BENCHMARK.json".to_owned();
    let (mut a, mut b, mut seen_vs) = (Vec::new(), Vec::new(), false);
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--spec" => spec_path = it.next().ok_or("--spec needs a path")?.clone(),
            "vs" => seen_vs = true,
            path if seen_vs => b.push(read_json(path)?),
            path => a.push(read_json(path)?),
        }
    }
    if a.is_empty() || b.is_empty() {
        return Err("usage: compare <A/results.json>... vs <B/results.json>...".to_owned());
    }
    let bounds = bounds(&read_json(&spec_path)?)?;
    let mut regressed = false;
    println!(
        "{:<15} {:<15} {:>28} {:>28} {:>8}  verdict",
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "change"
    );
    for workload in workload_names(&a[0]) {
        let side = |files: &[Json], metric: &str| -> Vec<f64> {
            files
                .iter()
                .filter_map(|f| {
                    f.get("workloads")?
                        .get(&workload)?
                        .get("metrics")?
                        .get(metric)?
                        .get("value")?
                        .as_f64()
                })
                .collect()
        };
        for bound in &bounds {
            let (va, vb) = (side(&a, &bound.name), side(&b, &bound.name));
            if va.is_empty() || vb.is_empty() {
                println!("{workload:<15} {:<15} missing on one side", bound.name);
                continue;
            }
            let (sa, sb) = (Summary::of(&va), Summary::of(&vb));
            let verdict = judge(&va, &vb, bound.better, bound.bound);
            regressed |= verdict == Verdict::Regressed;
            let fmt = |s: &Summary| format!("{:.4} [{:.4}, {:.4}]", s.median, s.q1, s.q3);
            println!(
                "{workload:<15} {:<15} {:>28} {:>28} {:>+7.2}%  {verdict:?}",
                bound.name,
                fmt(&sa),
                fmt(&sb),
                100.0 * (sb.median - sa.median) / sa.median
            );
        }
        let failures = |files: &[Json]| -> Vec<(f64, f64)> {
            files
                .iter()
                .filter_map(|f| {
                    let w = f.get("workloads")?.get(&workload)?;
                    Some((w.get("failed")?.as_f64()?, w.get("attempted")?.as_f64()?))
                })
                .collect()
        };
        let verdict = judge_failures(&failures(&a), &failures(&b));
        regressed |= verdict == Verdict::Regressed;
        println!(
            "{workload:<15} {:<15} {:>67}  {verdict:?}",
            "error_ratio", ""
        );
    }
    Ok(if regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn medians_within_the_bound_are_unchanged() {
        let a = [100.0, 101.0, 99.0, 100.5];
        let b = [102.0, 103.0, 101.0, 102.5];
        assert_eq!(judge(&a, &b, Better::Lower, 0.05), Verdict::Unchanged);
    }

    #[test]
    fn direction_decides_between_regressed_and_improved() {
        let a = [100.0, 101.0, 99.0, 100.5];
        let b = [110.0, 111.0, 109.0, 110.5];
        assert_eq!(judge(&a, &b, Better::Lower, 0.05), Verdict::Regressed);
        assert_eq!(judge(&a, &b, Better::Higher, 0.05), Verdict::Improved);
        assert_eq!(judge(&b, &a, Better::Lower, 0.05), Verdict::Improved);
    }

    #[test]
    fn wide_spread_is_unresolved_unless_the_runs_separate() {
        let a = [80.0, 100.0, 120.0, 90.0, 110.0];
        let b = [95.0, 115.0, 135.0, 105.0, 125.0];
        assert_eq!(judge(&a, &b, Better::Lower, 0.05), Verdict::Unresolved);
        let far = [200.0, 230.0, 260.0];
        assert_eq!(judge(&a, &far, Better::Lower, 0.05), Verdict::Regressed);
        assert_eq!(judge(&far, &a, Better::Lower, 0.05), Verdict::Improved);
    }

    #[test]
    fn any_rise_in_failures_regresses() {
        assert_eq!(
            judge_failures(&[(0.0, 100.0)], &[(0.0, 90.0)]),
            Verdict::Unchanged
        );
        assert_eq!(
            judge_failures(&[(0.0, 100.0)], &[(1.0, 1e6)]),
            Verdict::Regressed
        );
        assert_eq!(
            judge_failures(&[(2.0, 100.0)], &[(1.0, 100.0)]),
            Verdict::Unchanged
        );
    }

    #[test]
    fn summary_spread_is_relative() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!((s.q1, s.median, s.q3), (2.0, 3.0, 4.0));
        assert!((s.spread() - 2.0 / 3.0).abs() < 1e-12);
    }
}
