//! `Processor::prewarm` writes the warmed cache contents directly. This
//! seeded property test checks it against the line-by-line walk it
//! replaces: every data line from the top of the range down through L2
//! and L1D, then every code line upward through L2 and L1I, each as an
//! ordinary cache access. Over random power-of-two geometries and
//! ranges, the prewarmed processor's `state()` (every line's index, tag
//! and LRU stamp, and each cache's clock) must equal the walk's, and no
//! cache statistic may survive the prewarm.

use sim_common::Xoshiro256pp;
use sim_cpu::{Cache, CacheConfig, CacheStats, CoreConfig, MemHierarchyState, Processor};
use workload::{App, SyntheticStream};

/// The reference: the walk over fresh caches.
fn walk(
    config: &CoreConfig,
    base: u64,
    bytes: u64,
    code_base: u64,
    code_bytes: u64,
) -> MemHierarchyState {
    let (mut l1i, mut l1d, mut l2) = (
        Cache::new(config.l1i).unwrap(),
        Cache::new(config.l1d).unwrap(),
        Cache::new(config.l2).unwrap(),
    );
    let line = u64::from(config.l1d.line_bytes);
    let mut addr = base.saturating_add(bytes.saturating_sub(1)) & !(line - 1);
    while addr >= base {
        l2.access(addr, false);
        l1d.access(addr, false);
        match addr.checked_sub(line) {
            Some(a) => addr = a,
            None => break,
        }
    }
    let mut addr = code_base;
    while addr < code_base.saturating_add(code_bytes) {
        l2.access(addr, false);
        l1i.access(addr, false);
        addr += u64::from(config.l1i.line_bytes);
    }
    MemHierarchyState {
        l1i: l1i.state(),
        l1d: l1d.state(),
        l2: l2.state(),
        mshrs: Vec::new(),
        l2_inst_refs: 0,
        prefetches: 0,
    }
}

/// A random power-of-two geometry: 1-8 ways, 1-4096 sets, `line` bytes
/// per line (a single set of 1-byte lines is not a valid cache).
fn geometry(rng: &mut Xoshiro256pp, line: u32) -> CacheConfig {
    let assoc = 1u32 << rng.gen_u64(0..4);
    let min_sets = if line == 1 { 1 } else { 0 };
    let sets = 1u64 << rng.gen_u64(min_sets..13);
    CacheConfig::new(sets * u64::from(assoc) * u64::from(line), assoc, line).unwrap()
}

/// A range of about `lines` lines of `line` bytes at `start`: empty,
/// smaller than one set, about one way of the cache, or larger than the
/// whole cache, with unaligned ends about half the time.
fn range(rng: &mut Xoshiro256pp, start: u64, line: u64, cache_lines: u64) -> (u64, u64) {
    let lines = match rng.gen_u64(0..4) {
        0 => 0,
        1 => rng.gen_u64(1..9),
        2 => rng.gen_u64(1..cache_lines + 2),
        _ => rng.gen_u64(cache_lines..2 * cache_lines + 2),
    };
    let skew = |rng: &mut Xoshiro256pp| {
        if rng.gen_bool(0.5) {
            rng.gen_u64(0..line)
        } else {
            0
        }
    };
    let base = start + skew(rng);
    (base, (lines * line + skew(rng)).saturating_sub(skew(rng)))
}

fn check(config: CoreConfig, base: u64, bytes: u64, code_base: u64, code_bytes: u64) {
    let stream = || SyntheticStream::new(App::Gzip.profile(), 1);
    let mut cpu = Processor::new(config.clone(), stream()).unwrap();
    cpu.prewarm(base, bytes, code_base, code_bytes);
    let mut expected = Processor::new(config.clone(), stream()).unwrap().state();
    expected.mem = walk(&config, base, bytes, code_base, code_bytes);
    let case = format!(
        "l1i {:?} l1d {:?} l2 {:?}, data {base:#x}+{bytes:#x}, code {code_base:#x}+{code_bytes:#x}",
        config.l1i, config.l1d, config.l2
    );
    assert_eq!(cpu.state(), expected, "{case}");
    let stats = cpu.take_interval();
    for s in [stats.l1i, stats.l1d, stats.l2] {
        assert_eq!(
            s,
            CacheStats::default(),
            "{case}: statistics survived the prewarm"
        );
    }
}

/// Random geometries and ranges: one line size across the three caches
/// (every caller's layout) or line sizes up to 4x apart, and a code range
/// below the data or inside it.
#[test]
fn prewarm_equals_the_walk() {
    let mut rng = Xoshiro256pp::seed_from_u64(0x9e3a);
    for case in 0..200 {
        let shared = 1u32 << rng.gen_u64(0..13);
        let mut line = || {
            if case % 2 == 0 {
                shared
            } else {
                (shared << rng.gen_u64(0..3)).min(4096)
            }
        };
        let lines = [line(), line(), line()];
        let mut config = CoreConfig::base();
        (config.l1i, config.l1d, config.l2) = (
            geometry(&mut rng, lines[0]),
            geometry(&mut rng, lines[1]),
            geometry(&mut rng, lines[2]),
        );
        let (i_line, d_line) = (u64::from(lines[0]), u64::from(lines[1]));
        let l2_bytes = config.l2.size_bytes;
        let data_start = (1 << 40) + rng.gen_u64(0..1 << 20) * d_line;
        let (base, bytes) = range(&mut rng, data_start, d_line, l2_bytes / d_line);
        let code_start = if case % 4 == 3 {
            data_start + rng.gen_u64(0..bytes / i_line + 1) * i_line
        } else {
            rng.gen_u64(0..1 << 20) * i_line
        };
        let (code_base, code_bytes) = range(&mut rng, code_start, i_line, l2_bytes / i_line);
        check(config, base, bytes, code_base, code_bytes);
    }
}

/// The paper's geometry with each app's footprint, as the evaluator
/// prewarms it.
#[test]
fn prewarm_equals_the_walk_for_every_app() {
    for app in App::ALL {
        let profile = app.profile();
        for resident in [
            0,
            48 * 1024,
            512 * 1024,
            profile.data_working_set.min(2 << 20),
        ] {
            check(
                CoreConfig::base(),
                0x1000_0000,
                resident,
                0,
                profile.code_footprint,
            );
        }
    }
}
