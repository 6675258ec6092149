//! Randomized property tests of the synthetic workload generator: any
//! valid profile must yield a deterministic, well-formed instruction
//! stream. Cases are drawn from the in-tree deterministic PRNG.

use sim_common::Xoshiro256pp;
use workload::{
    App, AppProfile, InstructionSource, OpClass, OpMix, RegClass, SyntheticStream, DATA_BASE,
};

fn random_profile(rng: &mut Xoshiro256pp) -> AppProfile {
    let int_w = rng.gen_f64(0.2..0.6);
    let fp_w = rng.gen_f64(0.0..0.3);
    let load_w = rng.gen_f64(0.1..0.35);
    let store_w = rng.gen_f64(0.02..0.12);
    let br_w = rng.gen_f64(0.03..0.18);
    let dep = rng.gen_f64(2.0..20.0);
    let fpl = rng.gen_f64(0.0..1.0);
    let noise = rng.gen_f64(0.0..0.2);
    let bias = rng.gen_f64(0.3..0.9);
    let hot = rng.gen_f64(0.5..0.98);
    let spatial = rng.gen_f64(0.0..0.3);
    let streams = rng.gen_usize(1..8);
    let code_kb = rng.gen_u64(12..64);
    let mid = ((1.0 - hot) * 0.5).min(0.2);
    AppProfile {
        name: "generated".to_owned(),
        mix: OpMix::from_weights([
            (OpClass::IntAlu, int_w),
            (OpClass::FpAdd, fp_w * 0.6),
            (OpClass::FpMul, fp_w * 0.4),
            (OpClass::Load, load_w),
            (OpClass::Store, store_w),
            (OpClass::Branch, br_w),
        ])
        .expect("weights are positive"),
        dep_mean_int: dep,
        dep_mean_fp: dep,
        fp_load_fraction: fpl,
        code_footprint: code_kb * 1024,
        branch_taken_bias: bias,
        branch_noise: noise,
        hot_fraction: hot,
        hot_bytes: 8 * 1024,
        mid_fraction: mid,
        mid_bytes: 256 * 1024,
        data_working_set: 4 * 1024 * 1024,
        spatial_fraction: spatial,
        access_streams: streams,
        phases: Vec::new(),
    }
}

/// Same profile + seed ⇒ identical stream; different seeds diverge.
#[test]
fn determinism() {
    let mut rng = Xoshiro256pp::seed_from_u64(0x2001);
    for _ in 0..32 {
        let profile = random_profile(&mut rng);
        let seed = rng.gen_u64(0..1_000_000);
        let mut a = SyntheticStream::new(profile.clone(), seed);
        let mut b = SyntheticStream::new(profile.clone(), seed);
        let mut diverged_from_other_seed = false;
        let mut c = SyntheticStream::new(profile, seed.wrapping_add(1));
        for _ in 0..2_000 {
            let oa = a.next_op();
            assert_eq!(oa, b.next_op());
            if oa != c.next_op() {
                diverged_from_other_seed = true;
            }
        }
        assert!(diverged_from_other_seed);
    }
}

/// Every generated op is well formed: PCs aligned and inside the code
/// footprint, data addresses inside the working set, operand register
/// classes consistent with the op class.
#[test]
fn ops_are_well_formed() {
    let mut rng = Xoshiro256pp::seed_from_u64(0x2002);
    for _ in 0..32 {
        let profile = random_profile(&mut rng);
        let seed = rng.gen_u64(0..1_000_000);
        let footprint = profile.code_footprint;
        let ws = profile.data_working_set;
        let mut stream = SyntheticStream::new(profile, seed);
        for _ in 0..5_000 {
            let op = stream.next_op();
            assert_eq!(op.pc % 4, 0);
            assert!(op.pc < footprint);
            match op.class {
                OpClass::Load | OpClass::Store => {
                    let addr = op.addr.expect("memory op has an address");
                    assert!(addr >= DATA_BASE && addr < DATA_BASE + ws);
                }
                _ => assert!(op.addr.is_none()),
            }
            if op.class.is_fp() {
                assert_eq!(op.dest.expect("fp ops write").class(), RegClass::Fp);
                for s in op.sources() {
                    assert_eq!(s.class(), RegClass::Fp);
                }
            }
            if op.class == OpClass::Branch {
                assert!(op.dest.is_none());
            }
            if matches!(
                op.class,
                OpClass::IntAlu | OpClass::IntMul | OpClass::IntDiv
            ) {
                assert_eq!(op.dest.expect("int ops write").class(), RegClass::Int);
            }
        }
    }
}

/// The realized class mix converges to the requested mix.
#[test]
fn mix_converges() {
    let mut rng = Xoshiro256pp::seed_from_u64(0x2003);
    for _ in 0..8 {
        let profile = random_profile(&mut rng);
        let seed = rng.gen_u64(0..100);
        let mix = profile.mix;
        let mut stream = SyntheticStream::new(profile, seed);
        let n = 60_000;
        let mut counts = std::collections::HashMap::new();
        for _ in 0..n {
            *counts.entry(stream.next_op().class).or_insert(0u64) += 1;
        }
        for class in OpClass::ALL {
            let observed = *counts.get(&class).unwrap_or(&0) as f64 / n as f64;
            let expected = mix.fraction(class);
            assert!(
                (observed - expected).abs() < 0.05,
                "{class}: observed {observed:.3} vs expected {expected:.3}"
            );
        }
    }
}

#[test]
fn paper_profiles_satisfy_the_same_properties() {
    // The calibrated profiles go through the identical well-formedness
    // checks as the generated ones.
    for app in App::ALL {
        let profile = app.profile();
        let footprint = profile.code_footprint;
        let mut stream = SyntheticStream::new(profile, 99);
        for _ in 0..5_000 {
            let op = stream.next_op();
            assert_eq!(op.pc % 4, 0);
            assert!(op.pc < footprint, "{app}: pc outside footprint");
        }
    }
}

/// Seeded corruptions of every paper profile's canonical text either
/// parse or fail; none panics, and every error that quotes an offending
/// token names its line.
#[test]
fn corrupted_profiles_never_panic() {
    for (i, app) in App::ALL.iter().enumerate() {
        let text = workload::profile_to_text(&app.profile());
        for seed in 0..60 {
            let bad = sim_common::textfmt::corrupt(&text, (i as u64) << 32 | seed);
            if let Err(e) = workload::profile_from_text(&bad) {
                let msg = e.to_string();
                assert!(
                    msg.contains("line ") || msg.contains("missing") || !msg.contains('`'),
                    "{app} seed {seed}: {msg}"
                );
            }
        }
    }
}
