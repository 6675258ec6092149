//! Randomized property tests of the scenario text format, on the same
//! seeded-loop harness as `workload/tests/prop.rs`: every valid scenario —
//! however its knobs are turned — must round-trip through the text format
//! bit-identically, and corrupted files must fail with line numbers.
//! Corruptions come from the shared generator of `sim_common::textfmt`.

use drm::{ArchPoint, DvsRange, EvalParams};
use scenario::{Qualification, Scenario, SliceSpec, SurrogateSpec, WorkloadSpec};
use sim_common::{Hertz, Kelvin, Volts, Xoshiro256pp};
use workload::{App, OpClass, OpMix};

/// A scenario with every layer independently perturbed. Values are drawn
/// straight from the RNG — arbitrary `f64`s must survive the format, not
/// just round numbers.
fn random_scenario(rng: &mut Xoshiro256pp, i: usize) -> Scenario {
    let mut s = Scenario::paper_default();
    s.name = format!("rand-{i}");

    let ghz = rng.gen_f64(2.0..6.0);
    s.core.frequency = Hertz::from_ghz(ghz);
    s.core.vdd = Volts(rng.gen_f64(0.8..1.3));
    s.core.window_size = [128, 96, 64][rng.gen_usize(0..3)];
    s.core.int_alus = rng.gen_usize(2..7) as u32;
    s.core.fpus = rng.gen_usize(1..5) as u32;
    s.core.mshrs = rng.gen_usize(4..24) as u32;
    s.core.l1d.size_bytes = 1 << rng.gen_usize(13..17);
    s.core.l2_hit_ns = rng.gen_f64(3.0..8.0);
    s.core.mem_ns = rng.gen_f64(20.0..40.0);
    s.core.prefetch_next_line = rng.gen_bool(0.5);

    s.dvs = DvsRange {
        base_ghz: ghz,
        base_vdd: s.core.vdd.0,
        min_ghz: ghz * rng.gen_f64(0.5..0.8),
        max_ghz: ghz * rng.gen_f64(1.1..1.4),
        step_ghz: rng.gen_f64(0.1..0.6),
        ..DvsRange::paper()
    };

    s.power.idle_fraction = rng.gen_f64(0.05..0.2);
    s.power.leakage_density = rng.gen_f64(0.3..0.8);
    s.power.leakage_beta = rng.gen_f64(0.01..0.03);
    s.thermal.r_sink_ambient = rng.gen_f64(0.3..2.5);
    s.thermal.ambient = Kelvin(rng.gen_f64(300.0..330.0));
    s.failure.em_ea = rng.gen_f64(0.7..1.1);
    s.failure.tc_q = rng.gen_f64(2.0..3.0);

    s.qualification = Qualification {
        t_qual: Kelvin(rng.gen_f64(325.0..405.0)),
        alpha: rng.gen_f64(0.3..0.7),
        target_fit: rng.gen_f64(1_000.0..10_000.0),
    };

    let n_apps = rng.gen_usize(1..App::ALL.len());
    s.workloads = App::ALL[..n_apps]
        .iter()
        .map(|&a| WorkloadSpec::Builtin(a))
        .collect();
    if rng.gen_bool(0.5) {
        // An inline profile with random (normalized) mix fractions.
        let mut profile = App::ALL[rng.gen_usize(0..App::ALL.len())].profile();
        profile.name = format!("inline-{i}");
        profile.phases.clear();
        profile.mix = OpMix::from_weights(OpClass::ALL.map(|c| (c, rng.gen_f64(0.01..1.0))))
            .expect("positive weights");
        profile.data_working_set = rng.gen_u64(1 << 18..1 << 24);
        profile.spatial_fraction = rng.gen_f64(0.5..0.99);
        s.workloads.push(WorkloadSpec::Inline(profile));
    }

    let n_points = rng.gen_usize(1..ArchPoint::ALL.len());
    s.arch_points = ArchPoint::ALL[..n_points].to_vec();

    let measure = rng.gen_u64(100_000..800_000);
    s.eval = EvalParams {
        warmup_instructions: rng.gen_u64(10_000..100_000),
        measure_instructions: measure,
        interval_instructions: measure / rng.gen_u64(2..10),
        seed: rng.next_u64(),
        leakage_iterations: rng.gen_usize(1..5) as u32,
        prewarm_bytes: rng.gen_u64(0..1 << 22),
    };
    if rng.gen_bool(0.5) {
        // A slice section: the length must be a multiple of the interval.
        s.slice = Some(SliceSpec {
            instructions: s.eval.interval_instructions * rng.gen_u64(1..5),
            checkpoint_dir: rng.gen_bool(0.5).then(|| format!("ckpt/rand-{i}")),
        });
    }
    if rng.gen_bool(0.5) {
        // A surrogate section, sometimes disabled (the kill switch must
        // survive the round trip too).
        s.surrogate = Some(SurrogateSpec {
            enabled: rng.gen_bool(0.75),
            top_k: rng.gen_usize(1..32) as u32,
            calibration_apps: rng.gen_usize(1..4) as u32,
        });
    }
    s
}

/// print → parse reproduces every random scenario bit-identically, and the
/// printed form is a fixed point of the round trip.
#[test]
fn random_scenarios_round_trip_bit_identically() {
    let mut rng = Xoshiro256pp::seed_from_u64(0x5001);
    for i in 0..64 {
        let original = random_scenario(&mut rng, i);
        original
            .validate()
            .unwrap_or_else(|e| panic!("case {i} generated an invalid scenario: {e}"));
        let text = original.to_text();
        let reparsed = Scenario::from_text(&text)
            .unwrap_or_else(|e| panic!("case {i} failed to reparse: {e}\n{text}"));
        assert_eq!(reparsed, original, "case {i} did not round-trip\n{text}");
        assert_eq!(
            reparsed.to_text(),
            text,
            "case {i} print is not a fixed point"
        );
    }
}

/// Seeded corruptions of the canonical file (dropped, duplicated or
/// swapped lines and tokens, hostile numbers, lines cut mid-token) either
/// parse or fail. None panics, and every error that quotes an offending
/// token names its line; only whole-document errors — a missing key or
/// `power.pmax` line, a failed semantic check — have no line to name.
#[test]
fn corrupted_files_fail_with_line_numbers() {
    let text = Scenario::paper_default().to_text();
    for seed in 0..500 {
        let bad = sim_common::textfmt::corrupt(&text, seed);
        if let Err(e) = Scenario::from_text(&bad) {
            let msg = e.to_string();
            assert!(
                msg.contains("line ") || msg.contains("missing") || !msg.contains('`'),
                "seed {seed}: {msg}"
            );
        }
    }
}

/// Deleting any single required `section.key` line fails loudly, naming
/// the missing key.
#[test]
fn every_required_key_is_enforced() {
    let text = Scenario::paper_default().to_text();
    for (i, line) in text.lines().enumerate() {
        let body = line.split('#').next().unwrap_or("").trim();
        let Some(key) = body.split_whitespace().next() else {
            continue;
        };
        if !key.contains('.') || key == "floorplan.block" || key == "power.pmax" {
            continue;
        }
        let without: String = text
            .lines()
            .enumerate()
            .filter(|(j, _)| *j != i)
            .map(|(_, l)| format!("{l}\n"))
            .collect();
        let err = Scenario::from_text(&without)
            .map(|_| ())
            .expect_err(&format!("deleting `{key}` parsed anyway"))
            .to_string();
        assert!(
            err.contains(&format!("missing required key `{key}`")),
            "deleting `{key}` gave an unrelated error: {err}"
        );
    }
}
