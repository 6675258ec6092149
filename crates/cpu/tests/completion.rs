//! Completions scheduled far ahead of the current cycle: an issued slot
//! restored hundreds or thousands of cycles before its result arrives,
//! and a main memory slower than several hundred cycles. Each must
//! complete at exactly its ready cycle, neither early nor late. The
//! interval digests were recorded from the binary-heap completion queue
//! the pipeline used before its per-cycle buckets.

use sim_common::fnv1a64;
use sim_cpu::{CoreConfig, ExecPhase, Processor};
use workload::{App, ArchReg, InstructionSource, MicroOp, OpClass, RegClass, SyntheticStream};

fn warmed(app: App, config: &CoreConfig) -> Processor<SyntheticStream> {
    let profile = app.profile();
    let mut cpu =
        Processor::new(config.clone(), SyntheticStream::new(profile.clone(), 12345)).unwrap();
    cpu.prewarm(0x1000_0000, 512 * 1024, 0, profile.code_footprint);
    cpu
}

/// A cut whose head slot is issued and due `delay` cycles after the cut,
/// and whose next slot is issued and already past due, resumes with the
/// head committing at exactly `now + delay`; the following intervals
/// match the recorded digests.
#[test]
fn restored_completion_far_past_the_cut_is_exact() {
    const EXPECTED: [(u64, u64); 3] = [
        (300, 0x5031_189d_8f7f_f42f),
        (777, 0x6333_c168_2e9c_d340),
        (5_000, 0x9e2e_a6b5_045c_d39d),
    ];
    let config = CoreConfig::base();
    let mut actual = Vec::new();
    for (delay, _) in EXPECTED {
        let mut cpu = warmed(App::Gzip, &config);
        cpu.run_instructions(20_000);
        let mut cut = cpu.state();
        assert!(
            cut.window.len() >= 2,
            "the cut must hold two in-flight slots"
        );
        let now = cut.now;
        cut.window[0].phase = ExecPhase::Issued;
        cut.window[0].ready_cycle = now + delay;
        cut.window[1].phase = ExecPhase::Issued;
        cut.window[1].ready_cycle = now - 3;
        let stream =
            SyntheticStream::restore(App::Gzip.profile(), 12345, &cpu.source().state()).unwrap();
        let mut resumed = Processor::new(config.clone(), stream).unwrap();
        resumed.restore_state(&cut).unwrap();
        let head = resumed.run_instructions(1);
        assert_eq!(
            head.cycles,
            delay + 1,
            "head due {delay} cycles after the cut"
        );
        let rest = resumed.run_instructions(10_000);
        actual.push((delay, fnv1a64(format!("{head:?}{rest:?}").as_bytes())));
    }
    assert_eq!(actual, EXPECTED);
}

/// One cold load, then an endless run of independent ALU ops.
struct ColdLoad {
    pc: u64,
}

impl InstructionSource for ColdLoad {
    fn next_op(&mut self) -> MicroOp {
        let pc = self.pc;
        self.pc = (self.pc + 4) % 4096;
        let reg = ArchReg::new(RegClass::Int, (pc / 4 % 16) as u16);
        MicroOp {
            pc,
            class: if pc == 0 {
                OpClass::Load
            } else {
                OpClass::IntAlu
            },
            dest: Some(reg),
            srcs: [None, None],
            addr: (pc == 0).then_some(0x2000_0000),
            taken: false,
        }
    }

    fn name(&self) -> &str {
        "cold-load"
    }
}

/// A memory latency of 1 201 cycles (300 ns at 4 GHz, rounded up) delays
/// the first commit by exactly its difference to the base 102 cycles, and
/// two apps' intervals match the recorded digests.
#[test]
fn memory_latency_longer_than_the_bucket_count_is_exact() {
    const EXPECTED: [(App, u64); 2] = [
        (App::Art, 0x1ab0_2222_dee7_d593),
        (App::Twolf, 0xaee9_c5da_3866_7835),
    ];
    let mut slow = CoreConfig::base();
    slow.mem_ns = 300.0;
    assert_eq!(slow.mem_cycles(), 1_201);
    let first_commit = |config: &CoreConfig| {
        let mut cpu = Processor::new(config.clone(), ColdLoad { pc: 0 }).unwrap();
        cpu.prewarm(0x1000_0000, 0, 0, 4096);
        cpu.run_instructions(1).cycles
    };
    let base = first_commit(&CoreConfig::base());
    assert_eq!(first_commit(&slow) - base, 1_201 - 102);
    let actual: Vec<(App, u64)> = EXPECTED
        .iter()
        .map(|&(app, _)| {
            let mut cpu = warmed(app, &slow);
            let run = cpu.run(30_000, 10_000);
            (app, fnv1a64(format!("{:?}", run.intervals()).as_bytes()))
        })
        .collect();
    assert_eq!(actual, EXPECTED);
}
