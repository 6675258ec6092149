//! A small, dependency-free text format for workload profiles.
//!
//! Downstream users can describe their own applications in a plain text
//! file and run the full pipeline on them (`ramp evaluate --profile f`):
//!
//! ```text
//! # my-codec.profile
//! name            my-codec
//! dep_mean_int    12
//! dep_mean_fp     10
//! fp_load_fraction 0.3
//! code_footprint  24576
//! branch_taken_bias 0.6
//! branch_noise    0.03
//! hot_fraction    0.94
//! hot_bytes       8192
//! mid_fraction    0.03
//! mid_bytes       196608
//! data_working_set 1048576
//! spatial_fraction 0.9
//! access_streams  4
//! mix int-alu 0.45
//! mix fp-add 0.1
//! mix load 0.25
//! mix store 0.08
//! mix branch 0.1
//! mix call 0.01
//! mix return 0.01
//! phase instructions=150000
//! phase instructions=50000 working_set=2097152 spatial=0.97
//! ```
//!
//! The grammar is the shared line format of [`sim_common::textfmt`]:
//! unknown keys and repeated scalars are line-numbered errors, scalars the
//! file omits take the parser's defaults, and the parsed profile is
//! validated with [`AppProfile::validate`].

use crate::op::OpClass;
use crate::profile::{AppProfile, OpMix, PhaseSegment};
use sim_common::textfmt::{lines, Doc, Line, Schema};
use sim_common::SimError;

static SCHEMA: Schema = Schema {
    singles: &[
        "name",
        "dep_mean_int",
        "dep_mean_fp",
        "fp_load_fraction",
        "code_footprint",
        "branch_taken_bias",
        "branch_noise",
        "hot_fraction",
        "hot_bytes",
        "mid_fraction",
        "mid_bytes",
        "data_working_set",
        "spatial_fraction",
        "access_streams",
    ],
    repeated: &["mix", "phase"],
    missing: "required key",
};

/// Parses a profile from the text format.
///
/// # Errors
///
/// Returns [`SimError::InvalidConfig`] for syntax errors, unknown or
/// duplicate keys, missing required fields, or a profile failing
/// validation.
pub fn profile_from_text(text: &str) -> Result<AppProfile, SimError> {
    profile_from_lines(lines(text))
}

/// Parses a profile from already-scanned lines, so a profile embedded in
/// a larger file reports that file's line numbers.
///
/// # Errors
///
/// As [`profile_from_text`].
pub fn profile_from_lines<'a>(
    lines: impl IntoIterator<Item = Line<'a>>,
) -> Result<AppProfile, SimError> {
    let mut doc = Doc::new(&SCHEMA);
    for line in lines {
        doc.insert(line)?;
    }
    let name = doc.value("name")?;
    let mut mix_weights = Vec::new();
    for line in doc.repeated("mix") {
        let class = line.expect_len(2)?.values[0];
        let class = OpClass::from_name(class)
            .ok_or_else(|| line.err(format!("unknown op class `{class}`")))?;
        mix_weights.push((class, line.at(1)?));
    }
    if mix_weights.is_empty() {
        return Err(SimError::invalid_config(
            "at least one `mix` line is required",
        ));
    }
    let phases = doc
        .repeated("phase")
        .iter()
        .map(phase_from_line)
        .collect::<Result<_, _>>()?;
    let mut get = |key: &str, default: f64| doc.opt_value(key).map(|v| v.unwrap_or(default));
    let profile = AppProfile {
        name,
        mix: OpMix::from_weights(mix_weights)?,
        dep_mean_int: get("dep_mean_int", 8.0)?,
        dep_mean_fp: get("dep_mean_fp", 7.0)?,
        fp_load_fraction: get("fp_load_fraction", 0.0)?,
        code_footprint: get("code_footprint", 32.0 * 1024.0)? as u64,
        branch_taken_bias: get("branch_taken_bias", 0.6)?,
        branch_noise: get("branch_noise", 0.05)?,
        hot_fraction: get("hot_fraction", 0.93)?,
        hot_bytes: get("hot_bytes", 16.0 * 1024.0)? as u64,
        mid_fraction: get("mid_fraction", 0.04)?,
        mid_bytes: get("mid_bytes", 384.0 * 1024.0)? as u64,
        data_working_set: get("data_working_set", 2.0 * 1024.0 * 1024.0)? as u64,
        spatial_fraction: get("spatial_fraction", 0.8)?,
        access_streams: get("access_streams", 4.0)? as usize,
        phases,
    };
    profile.validate()?;
    Ok(profile)
}

/// A `phase key=value...` line.
fn phase_from_line(line: &Line<'_>) -> Result<PhaseSegment, SimError> {
    let mut segment = PhaseSegment {
        instructions: 0,
        mix: None,
        working_set: None,
        spatial_fraction: None,
    };
    for kv in &line.values {
        let (k, v) = kv
            .split_once('=')
            .ok_or_else(|| line.err(format!("phase expects key=value, got `{kv}`")))?;
        match k {
            "instructions" => segment.instructions = line.parse(v)?,
            "working_set" => segment.working_set = Some(line.parse(v)?),
            "spatial" => segment.spatial_fraction = Some(line.parse(v)?),
            other => return Err(line.err(format!("unknown phase key `{other}`"))),
        }
    }
    Ok(segment)
}

/// Serializes a profile to the text format (round-trips through
/// [`profile_from_text`] up to mix normalization).
pub fn profile_to_text(profile: &AppProfile) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "name {}", profile.name);
    let _ = writeln!(out, "dep_mean_int {}", profile.dep_mean_int);
    let _ = writeln!(out, "dep_mean_fp {}", profile.dep_mean_fp);
    let _ = writeln!(out, "fp_load_fraction {}", profile.fp_load_fraction);
    let _ = writeln!(out, "code_footprint {}", profile.code_footprint);
    let _ = writeln!(out, "branch_taken_bias {}", profile.branch_taken_bias);
    let _ = writeln!(out, "branch_noise {}", profile.branch_noise);
    let _ = writeln!(out, "hot_fraction {}", profile.hot_fraction);
    let _ = writeln!(out, "hot_bytes {}", profile.hot_bytes);
    let _ = writeln!(out, "mid_fraction {}", profile.mid_fraction);
    let _ = writeln!(out, "mid_bytes {}", profile.mid_bytes);
    let _ = writeln!(out, "data_working_set {}", profile.data_working_set);
    let _ = writeln!(out, "spatial_fraction {}", profile.spatial_fraction);
    let _ = writeln!(out, "access_streams {}", profile.access_streams);
    for class in OpClass::ALL {
        let f = profile.mix.fraction(class);
        if f > 0.0 {
            let _ = writeln!(out, "mix {class} {f}");
        }
    }
    for phase in &profile.phases {
        let _ = write!(out, "phase instructions={}", phase.instructions);
        if let Some(ws) = phase.working_set {
            let _ = write!(out, " working_set={ws}");
        }
        if let Some(sp) = phase.spatial_fraction {
            let _ = write!(out, " spatial={sp}");
        }
        let _ = writeln!(out);
        // Phase-specific mixes are not representable in the text format;
        // they are dropped (documented limitation).
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::App;

    const EXAMPLE: &str = r"
# a made-up codec
name            my-codec
dep_mean_int    12
dep_mean_fp     10
fp_load_fraction 0.3
code_footprint  24576
branch_noise    0.03
hot_fraction    0.94
mid_fraction    0.03
data_working_set 1048576
mix int-alu 0.45
mix fp-add 0.1
mix load 0.25
mix store 0.08
mix branch 0.1   # comments allowed anywhere
phase instructions=150000
phase instructions=50000 working_set=2097152 spatial=0.97
";

    #[test]
    fn parses_the_example() {
        let p = profile_from_text(EXAMPLE).unwrap();
        assert_eq!(p.name, "my-codec");
        assert_eq!(p.dep_mean_int, 12.0);
        assert_eq!(p.code_footprint, 24576);
        assert_eq!(p.phases.len(), 2);
        assert_eq!(p.phases[1].working_set, Some(2_097_152));
        assert_eq!(p.phases[1].spatial_fraction, Some(0.97));
        // Mix normalized: int-alu weight 0.45 of 0.98 total.
        assert!((p.mix.fraction(OpClass::IntAlu) - 0.45 / 0.98).abs() < 1e-9);
        // Defaults fill unspecified fields.
        assert_eq!(p.access_streams, 4);
    }

    #[test]
    fn round_trips_paper_profiles() {
        for app in App::ALL {
            let original = app.profile();
            let text = profile_to_text(&original);
            let parsed = profile_from_text(&text).unwrap_or_else(|e| panic!("{app}: {e}\n{text}"));
            assert_eq!(parsed.name, original.name);
            assert_eq!(parsed.code_footprint, original.code_footprint);
            assert_eq!(parsed.data_working_set, original.data_working_set);
            assert_eq!(parsed.phases.len(), original.phases.len());
            for class in OpClass::ALL {
                assert!(
                    (parsed.mix.fraction(class) - original.mix.fraction(class)).abs() < 1e-9,
                    "{app}: {class}"
                );
            }
        }
    }

    #[test]
    fn rejects_unknown_keys_and_classes() {
        assert!(profile_from_text("name x\nmix int-alu 1\nfrobnicate 3")
            .unwrap_err()
            .to_string()
            .contains("unknown key"));
        assert!(profile_from_text("name x\nmix warp-drive 1")
            .unwrap_err()
            .to_string()
            .contains("unknown op class"));
        assert!(
            profile_from_text("name x\nmix int-alu 1\nphase instructions=5 color=red")
                .unwrap_err()
                .to_string()
                .contains("unknown phase key")
        );
    }

    #[test]
    fn rejects_missing_requireds_and_bad_numbers() {
        assert!(profile_from_text("mix int-alu 1")
            .unwrap_err()
            .to_string()
            .contains("name"));
        assert!(profile_from_text("name x")
            .unwrap_err()
            .to_string()
            .contains("mix"));
        assert!(profile_from_text("name x\nmix int-alu abc").is_err());
        assert!(profile_from_text("name x\nmix int-alu 1\ndep_mean_int zero").is_err());
        // Validation still applies: a zero-length phase is rejected.
        assert!(profile_from_text("name x\nmix int-alu 1\nphase instructions=0").is_err());
    }

    #[test]
    fn rejects_trailing_tokens() {
        assert!(profile_from_text("name x y\nmix int-alu 1").is_err());
    }

    #[test]
    fn rejects_duplicate_keys() {
        let err = profile_from_text("name a\nmix int-alu 1\nname b")
            .unwrap_err()
            .to_string();
        assert!(
            err.contains("line 3: duplicate key `name` (first at line 1)"),
            "{err}"
        );
        let err = profile_from_text("name a\ndep_mean_int 3\nmix int-alu 1\ndep_mean_int 4")
            .unwrap_err()
            .to_string();
        assert!(
            err.contains("line 4: duplicate key `dep_mean_int` (first at line 2)"),
            "{err}"
        );
    }
}
