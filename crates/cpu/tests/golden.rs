//! Golden digests of the cycle-level core. Every app runs under the base
//! configuration, a shrunken adaptation and a DVS point; the FNV-1a digest
//! of each interval's statistics pins simulated timing bit for bit, so a
//! change to the pipeline's scheduling shows here before it reaches a
//! sweep.

use sim_common::{fnv1a64, Hertz, Volts};
use sim_cpu::{CoreConfig, Processor};
use workload::{App, SyntheticStream};

/// One digest per configuration of [`configs`], per app in `App::ALL`
/// order.
const EXPECTED: [(App, [u64; 3]); 9] = [
    (
        App::MpgDec,
        [
            0x5d20_7f9a_9c48_d862,
            0xe6bb_f335_3842_7e23,
            0x4dd5_b103_cd09_19bb,
        ],
    ),
    (
        App::Mp3Dec,
        [
            0x5ffc_95c4_5e09_bb2d,
            0x709d_477d_9dd2_3c27,
            0xd963_e31d_85cf_79e6,
        ],
    ),
    (
        App::H263Enc,
        [
            0x3940_9d1d_b7e0_98f4,
            0xcb52_419c_7b39_c956,
            0xd39a_938b_dccb_7def,
        ],
    ),
    (
        App::Bzip2,
        [
            0xdf3a_e1ca_5f58_e24b,
            0x14c5_fe54_c232_3018,
            0xaed0_39bf_3324_5a7b,
        ],
    ),
    (
        App::Gzip,
        [
            0xc25e_0d82_2ad8_4823,
            0xacd1_cff8_81d2_2bef,
            0xad39_b157_47e2_985d,
        ],
    ),
    (
        App::Twolf,
        [
            0x5dd0_e5f8_23b3_9b57,
            0x5683_88ee_3de8_2782,
            0x65ab_9459_834f_6aea,
        ],
    ),
    (
        App::Art,
        [
            0x662a_f042_051c_ca8b,
            0xa864_6dc6_50ea_7708,
            0x2dec_89e7_b4c1_d9e1,
        ],
    ),
    (
        App::Equake,
        [
            0xa2d3_72f0_7dc6_2b3e,
            0xccce_acd3_3fde_bac0,
            0xeba9_4511_da6e_e6fc,
        ],
    ),
    (
        App::Ammp,
        [
            0x42b9_c10b_9192_ce14,
            0xe7e5_eb2d_25ba_4f66,
            0xa8fd_264c_3592_3ae1,
        ],
    ),
];

fn configs() -> [CoreConfig; 3] {
    let base = CoreConfig::base();
    [
        base.clone(),
        base.with_adaptation(16, 2, 1).unwrap(),
        base.with_dvs(Hertz::from_ghz(5.0), Volts(1.1)),
    ]
}

/// Digest of 30 000 instructions after the evaluator's warm start.
fn digest(app: App, config: &CoreConfig) -> u64 {
    let profile = app.profile();
    let stream = SyntheticStream::new(profile.clone(), 12345);
    let mut cpu = Processor::new(config.clone(), stream).unwrap();
    let resident = profile.data_working_set.min(2 * 1024 * 1024);
    cpu.prewarm(0x1000_0000, resident, 0, profile.code_footprint);
    let stats = cpu.run_instructions(30_000);
    fnv1a64(format!("{stats:?}").as_bytes())
}

#[test]
fn interval_stats_match_the_recorded_digests() {
    let configs = configs();
    let actual: Vec<(App, [u64; 3])> = App::ALL
        .iter()
        .map(|&app| (app, configs.each_ref().map(|c| digest(app, c))))
        .collect();
    assert_eq!(actual, EXPECTED, "simulated timing drifted");
}
