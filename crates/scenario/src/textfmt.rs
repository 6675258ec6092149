//! The plain-text scenario format.
//!
//! The grammar is the shared line format of [`sim_common::textfmt`]:
//! `#` comments, whitespace-separated tokens, and unknown keys, duplicate
//! keys and trailing tokens are line-numbered errors. Every scalar is
//! written with Rust's shortest round-trip float formatting, so
//! `parse(print(s)) == s` bit-identically.
//!
//! The format is flat `section.key value...` lines:
//!
//! ```text
//! scenario.name my-experiment
//! core.frequency_hz 4000000000
//! core.l1d 65536 2 64              # size assoc line_bytes
//! dvs.min_ghz 2.5
//! power.pmax int-alu 11            # one line per structure
//! floorplan.die 4.5 4.5
//! floorplan.block icache 0 0 2 1.5 # structure x y w h (mm)
//! qual.t_qual_k 394
//! arch 128 6 4                     # window alus fpus, repeated
//! workload gzip                    # built-in app, repeated
//! profile begin                    # or an inline workload profile
//! name my-codec
//! mix int-alu 1
//! profile end
//! ```
//!
//! All scalar keys are required — a scenario file is a complete experiment
//! record, not a patch. The one exception is the optional `[slo]` section
//! (`slo.verb <verb> <quantile> <target_ms>` lines plus `slo.fit_burn`),
//! which declares service-level objectives for the evaluation server and
//! may be omitted entirely. `ramp scenario print` emits the canonical
//! form to start from.

use std::fmt::Write as _;

use drm::{ArchPoint, DvsRange, EvalParams, FleetConfig, VariationParams};
use ramp::FailureParams;
use sim_common::textfmt::{lines, Doc, Line, Schema};
use sim_common::{
    Block, Floorplan, Hertz, Kelvin, Rect, SimError, Structure, StructureMap, Volts, Watts,
};
use sim_cpu::{BpredConfig, CacheConfig, CoreConfig};
use sim_power::PowerParams;
use sim_thermal::ThermalParams;
use workload::textfmt::{profile_from_lines, profile_to_text};
use workload::App;

use crate::{
    ClusterSpec, Qualification, Scenario, SliceSpec, SloPolicy, SloVerb, SurrogateSpec,
    WorkloadSpec,
};

/// The format's keys. Singletons are required — a scenario file is a
/// complete experiment record, not a patch — except those of the opt-in
/// `[slo]`, `[slice]`, `[surrogate]` and `[cluster]` sections. `workload`
/// lines and inline `profile` blocks are order-sensitive and read before
/// the document is filed (see [`scan`]).
static SCHEMA: Schema = Schema {
    singles: &[
        "scenario.name",
        "core.frequency_hz",
        "core.vdd",
        "core.fetch_width",
        "core.retire_width",
        "core.frontend_latency",
        "core.mispredict_redirect",
        "core.window",
        "core.int_regs",
        "core.fp_regs",
        "core.mem_queue",
        "core.int_alus",
        "core.fpus",
        "core.addr_gens",
        "core.bpred_counters",
        "core.bpred_ras",
        "core.l1d",
        "core.l1i",
        "core.l2",
        "core.l1d_ports",
        "core.l1_hit_cycles",
        "core.l2_hit_ns",
        "core.mem_ns",
        "core.mshrs",
        "core.prefetch_next_line",
        "dvs.base_ghz",
        "dvs.base_vdd",
        "dvs.min_ghz",
        "dvs.max_ghz",
        "dvs.step_ghz",
        "dvs.v_intercept",
        "dvs.v_slope",
        "power.idle_fraction",
        "power.leakage_density",
        "power.leakage_ref_k",
        "power.leakage_beta",
        "power.base_vdd",
        "power.base_frequency_hz",
        "thermal.r_vertical_per_area",
        "thermal.r_lateral_per_edge",
        "thermal.r_spreader_sink",
        "thermal.r_sink_ambient",
        "thermal.c_block_per_area",
        "thermal.c_spreader",
        "thermal.c_sink",
        "thermal.ambient_k",
        "floorplan.die",
        "failure.em_n",
        "failure.em_ea",
        "failure.sm_n",
        "failure.sm_ea",
        "failure.sm_t0_k",
        "failure.tddb_a",
        "failure.tddb_b",
        "failure.tddb_x",
        "failure.tddb_y",
        "failure.tddb_z",
        "failure.tc_q",
        "failure.tc_ambient_k",
        "qual.t_qual_k",
        "qual.alpha",
        "qual.target_fit",
        "eval.warmup_instructions",
        "eval.measure_instructions",
        "eval.interval_instructions",
        "eval.seed",
        "eval.leakage_iterations",
        "eval.prewarm_bytes",
        "fleet.dies",
        "fleet.seed",
        "fleet.shape",
        "fleet.sigma_leakage",
        "fleet.sigma_beta",
        "fleet.sigma_ea",
        "fleet.sigma_geometry",
        "slo.fit_burn",
        "slice.instructions",
        "slice.checkpoint_dir",
        "surrogate.enabled",
        "surrogate.top_k",
        "surrogate.calibration_apps",
    ],
    repeated: &[
        "power.pmax",
        "floorplan.block",
        "arch",
        "slo.verb",
        "cluster.addr",
    ],
    missing: "required key",
};

/// Files every line of `text`, collecting the workload suite in file
/// order: `workload <app>` lines and `profile begin` ... `profile end`
/// blocks (whose lines keep the file's line numbers).
fn scan(text: &str) -> Result<(Doc<'_>, Vec<WorkloadSpec>), SimError> {
    let mut doc = Doc::new(&SCHEMA);
    let mut workloads = Vec::new();
    let mut lines = lines(text);
    while let Some(line) = lines.next() {
        match line.key {
            "profile" => {
                if line.values != ["begin"] {
                    return Err(
                        line.err("expected `profile begin` to open an inline profile block")
                    );
                }
                let mut body = Vec::new();
                loop {
                    let Some(inner) = lines.next() else {
                        return Err(line.err("`profile begin` without `profile end`"));
                    };
                    match (inner.key, inner.values.as_slice()) {
                        ("profile", ["end"]) => break,
                        ("profile", ["begin"]) => return Err(inner.err("nested `profile begin`")),
                        _ => body.push(inner),
                    }
                }
                let profile = profile_from_lines(body).map_err(|e| {
                    SimError::invalid_config(format!(
                        "inline profile starting at line {}: {e}",
                        line.no + 1
                    ))
                })?;
                workloads.push(WorkloadSpec::Inline(profile));
            }
            "workload" => {
                let name = line.expect_len(1)?.values[0];
                let app = App::ALL
                    .into_iter()
                    .find(|a| a.name().eq_ignore_ascii_case(name))
                    .ok_or_else(|| line.err(format!("unknown built-in workload `{name}`")))?;
                workloads.push(WorkloadSpec::Builtin(app));
            }
            _ => doc.insert(line)?,
        }
    }
    Ok((doc, workloads))
}

fn cache_from_line(line: &Line<'_>) -> Result<CacheConfig, SimError> {
    line.expect_len(3)?;
    let config = CacheConfig {
        size_bytes: line.at(0)?,
        assoc: line.at(1)?,
        line_bytes: line.at(2)?,
    };
    config.validate(line.key).map_err(|e| line.err(e))?;
    Ok(config)
}

/// The structure named by a line's first value (arity already checked).
fn structure_at(line: &Line<'_>) -> Result<Structure, SimError> {
    let name = line.values[0];
    Structure::from_name(name)
        .ok_or_else(|| line.err(format!("`{}`: unknown structure `{name}`", line.key)))
}

/// Parses a scenario from the text format.
///
/// # Errors
///
/// Returns [`SimError::InvalidConfig`] with a line number for syntax
/// errors (unknown/duplicate/malformed keys), and a descriptive message
/// for missing keys or failed semantic validation.
pub fn scenario_from_text(text: &str) -> Result<Scenario, SimError> {
    let (mut s, workloads) = scan(text)?;
    let name = s.value("scenario.name")?;

    let core = CoreConfig {
        frequency: Hertz(s.value("core.frequency_hz")?),
        vdd: Volts(s.value("core.vdd")?),
        fetch_width: s.value("core.fetch_width")?,
        retire_width: s.value("core.retire_width")?,
        frontend_latency: s.value("core.frontend_latency")?,
        mispredict_redirect: s.value("core.mispredict_redirect")?,
        window_size: s.value("core.window")?,
        int_regs: s.value("core.int_regs")?,
        fp_regs: s.value("core.fp_regs")?,
        mem_queue: s.value("core.mem_queue")?,
        int_alus: s.value("core.int_alus")?,
        fpus: s.value("core.fpus")?,
        addr_gens: s.value("core.addr_gens")?,
        bpred: BpredConfig {
            counters: s.value("core.bpred_counters")?,
            ras_entries: s.value("core.bpred_ras")?,
        },
        l1d: cache_from_line(&s.take("core.l1d")?)?,
        l1i: cache_from_line(&s.take("core.l1i")?)?,
        l2: cache_from_line(&s.take("core.l2")?)?,
        l1d_ports: s.value("core.l1d_ports")?,
        l1_hit_cycles: s.value("core.l1_hit_cycles")?,
        l2_hit_ns: s.value("core.l2_hit_ns")?,
        mem_ns: s.value("core.mem_ns")?,
        mshrs: s.value("core.mshrs")?,
        prefetch_next_line: s.value("core.prefetch_next_line")?,
    };

    let dvs = DvsRange {
        base_ghz: s.value("dvs.base_ghz")?,
        base_vdd: s.value("dvs.base_vdd")?,
        min_ghz: s.value("dvs.min_ghz")?,
        max_ghz: s.value("dvs.max_ghz")?,
        step_ghz: s.value("dvs.step_ghz")?,
        v_intercept: s.value("dvs.v_intercept")?,
        v_slope: s.value("dvs.v_slope")?,
    };

    let mut pmax: StructureMap<Option<Watts>> = StructureMap::from_fn(|_| None);
    for line in s.repeated("power.pmax") {
        let structure = structure_at(line.expect_len(2)?)?;
        if pmax[structure].replace(Watts(line.at(1)?)).is_some() {
            return Err(line.err(format!("duplicate `power.pmax {structure}`")));
        }
    }
    if let Some(structure) = Structure::ALL.into_iter().find(|&st| pmax[st].is_none()) {
        let msg = format!("missing `power.pmax {structure}` line");
        return Err(SimError::invalid_config(msg));
    }
    let power = PowerParams {
        pmax_dynamic: pmax.map(|_, w| (*w).expect("checked complete")),
        idle_fraction: s.value("power.idle_fraction")?,
        leakage_density: s.value("power.leakage_density")?,
        leakage_ref: Kelvin(s.value("power.leakage_ref_k")?),
        leakage_beta: s.value("power.leakage_beta")?,
        base_vdd: Volts(s.value("power.base_vdd")?),
        base_frequency: Hertz(s.value("power.base_frequency_hz")?),
    };

    let thermal = ThermalParams {
        r_vertical_per_area: s.value("thermal.r_vertical_per_area")?,
        r_lateral_per_edge: s.value("thermal.r_lateral_per_edge")?,
        r_spreader_sink: s.value("thermal.r_spreader_sink")?,
        r_sink_ambient: s.value("thermal.r_sink_ambient")?,
        c_block_per_area: s.value("thermal.c_block_per_area")?,
        c_spreader: s.value("thermal.c_spreader")?,
        c_sink: s.value("thermal.c_sink")?,
        ambient: Kelvin(s.value("thermal.ambient_k")?),
    };

    let die = s.take("floorplan.die")?;
    die.expect_len(2)?;
    let mut floorplan_blocks = Vec::new();
    for line in s.repeated("floorplan.block") {
        let structure = structure_at(line.expect_len(5)?)?;
        let [x, y, w, h] = [1, 2, 3, 4].map(|i| line.at::<f64>(i));
        let (x, y, w, h) = (x?, y?, w?, h?);
        if !(w > 0.0 && h > 0.0 && w.is_finite() && h.is_finite()) {
            return Err(line.err(format!(
                "`floorplan.block {structure}` must have positive finite extent"
            )));
        }
        floorplan_blocks.push(Block {
            structure,
            rect: Rect { x, y, w, h },
        });
    }
    let floorplan = Floorplan::new(floorplan_blocks, die.at(0)?, die.at(1)?)?;

    let failure = FailureParams {
        em_n: s.value("failure.em_n")?,
        em_ea: s.value("failure.em_ea")?,
        sm_n: s.value("failure.sm_n")?,
        sm_ea: s.value("failure.sm_ea")?,
        sm_t0: Kelvin(s.value("failure.sm_t0_k")?),
        tddb_a: s.value("failure.tddb_a")?,
        tddb_b: s.value("failure.tddb_b")?,
        tddb_x: s.value("failure.tddb_x")?,
        tddb_y: s.value("failure.tddb_y")?,
        tddb_z: s.value("failure.tddb_z")?,
        tc_q: s.value("failure.tc_q")?,
        tc_ambient: Kelvin(s.value("failure.tc_ambient_k")?),
    };

    let qualification = Qualification {
        t_qual: Kelvin(s.value("qual.t_qual_k")?),
        alpha: s.value("qual.alpha")?,
        target_fit: s.value("qual.target_fit")?,
    };

    let eval = EvalParams {
        warmup_instructions: s.value("eval.warmup_instructions")?,
        measure_instructions: s.value("eval.measure_instructions")?,
        interval_instructions: s.value("eval.interval_instructions")?,
        seed: s.value("eval.seed")?,
        leakage_iterations: s.value("eval.leakage_iterations")?,
        prewarm_bytes: s.value("eval.prewarm_bytes")?,
    };

    let fleet = FleetConfig {
        dies: s.value("fleet.dies")?,
        seed: s.value("fleet.seed")?,
        shape: s.value("fleet.shape")?,
        variation: VariationParams {
            sigma_leakage: s.value("fleet.sigma_leakage")?,
            sigma_beta: s.value("fleet.sigma_beta")?,
            sigma_ea: s.value("fleet.sigma_ea")?,
            sigma_geometry: s.value("fleet.sigma_geometry")?,
        },
    };

    let mut arch_points = Vec::new();
    for line in s.repeated("arch") {
        line.expect_len(3)?;
        let point = ArchPoint {
            window: line.at(0)?,
            alus: line.at(1)?,
            fpus: line.at(2)?,
        };
        if arch_points.contains(&point) {
            return Err(line.err(format!("duplicate adaptation point {point}")));
        }
        arch_points.push(point);
    }

    let mut slo_verbs = Vec::new();
    for line in s.repeated("slo.verb") {
        line.expect_len(3)?;
        slo_verbs.push(SloVerb {
            verb: line.values[0].to_owned(),
            quantile: line.at(1)?,
            target_ms: line.at(2)?,
        });
    }
    let max_fit_burn = s.opt_value("slo.fit_burn")?;
    let slo = if slo_verbs.is_empty() && max_fit_burn.is_none() {
        None
    } else {
        Some(SloPolicy {
            verbs: slo_verbs,
            max_fit_burn,
        })
    };

    let slice_instructions = s.opt_value("slice.instructions")?;
    let slice_dir = s.opt_value("slice.checkpoint_dir")?;
    let slice = match (slice_instructions, slice_dir) {
        (Some(instructions), checkpoint_dir) => Some(SliceSpec {
            instructions,
            checkpoint_dir,
        }),
        (None, Some(_)) => {
            return Err(SimError::invalid_config(
                "`slice.checkpoint_dir` requires `slice.instructions`",
            ))
        }
        (None, None) => None,
    };

    let surrogate_enabled = s.opt_value("surrogate.enabled")?;
    let surrogate_top_k = s.opt_value("surrogate.top_k")?;
    let surrogate_cal = s.opt_value("surrogate.calibration_apps")?;
    let surrogate = match surrogate_enabled {
        Some(enabled) => {
            let defaults = SurrogateSpec::default();
            Some(SurrogateSpec {
                enabled,
                top_k: surrogate_top_k.unwrap_or(defaults.top_k),
                calibration_apps: surrogate_cal.unwrap_or(defaults.calibration_apps),
            })
        }
        None => {
            for (key, present) in [
                ("surrogate.top_k", surrogate_top_k.is_some()),
                ("surrogate.calibration_apps", surrogate_cal.is_some()),
            ] {
                if present {
                    return Err(SimError::invalid_config(format!(
                        "`{key}` requires `surrogate.enabled`"
                    )));
                }
            }
            None
        }
    };

    let shard_addrs = s
        .repeated("cluster.addr")
        .iter()
        .map(Line::one)
        .collect::<Result<Vec<String>, _>>()?;
    let cluster = (!shard_addrs.is_empty()).then_some(ClusterSpec { shard_addrs });

    let scenario = Scenario {
        name,
        core,
        dvs,
        power,
        thermal,
        floorplan,
        failure,
        qualification,
        workloads,
        arch_points,
        eval,
        fleet,
        slo,
        slice,
        surrogate,
        cluster,
    };
    scenario.validate()?;
    Ok(scenario)
}

/// Serializes a scenario to the text format; parsing the result with
/// [`scenario_from_text`] reproduces the input bit-identically.
pub fn scenario_to_text(scenario: &Scenario) -> String {
    let mut out = String::new();
    let w = &mut out;
    let _ = writeln!(
        w,
        "# RAMP scenario — edit freely; `ramp scenario validate` checks it."
    );
    let _ = writeln!(w, "scenario.name {}", scenario.name);

    let c = &scenario.core;
    let _ = writeln!(w, "\n# Processor (Table 1)");
    let _ = writeln!(w, "core.frequency_hz {}", c.frequency.0);
    let _ = writeln!(w, "core.vdd {}", c.vdd.0);
    let _ = writeln!(w, "core.fetch_width {}", c.fetch_width);
    let _ = writeln!(w, "core.retire_width {}", c.retire_width);
    let _ = writeln!(w, "core.frontend_latency {}", c.frontend_latency);
    let _ = writeln!(w, "core.mispredict_redirect {}", c.mispredict_redirect);
    let _ = writeln!(w, "core.window {}", c.window_size);
    let _ = writeln!(w, "core.int_regs {}", c.int_regs);
    let _ = writeln!(w, "core.fp_regs {}", c.fp_regs);
    let _ = writeln!(w, "core.mem_queue {}", c.mem_queue);
    let _ = writeln!(w, "core.int_alus {}", c.int_alus);
    let _ = writeln!(w, "core.fpus {}", c.fpus);
    let _ = writeln!(w, "core.addr_gens {}", c.addr_gens);
    let _ = writeln!(w, "core.bpred_counters {}", c.bpred.counters);
    let _ = writeln!(w, "core.bpred_ras {}", c.bpred.ras_entries);
    for (key, cache) in [("core.l1d", c.l1d), ("core.l1i", c.l1i), ("core.l2", c.l2)] {
        let _ = writeln!(
            w,
            "{key} {} {} {}  # size assoc line_bytes",
            cache.size_bytes, cache.assoc, cache.line_bytes
        );
    }
    let _ = writeln!(w, "core.l1d_ports {}", c.l1d_ports);
    let _ = writeln!(w, "core.l1_hit_cycles {}", c.l1_hit_cycles);
    let _ = writeln!(w, "core.l2_hit_ns {}", c.l2_hit_ns);
    let _ = writeln!(w, "core.mem_ns {}", c.mem_ns);
    let _ = writeln!(w, "core.mshrs {}", c.mshrs);
    let _ = writeln!(w, "core.prefetch_next_line {}", c.prefetch_next_line);

    let d = &scenario.dvs;
    let _ = writeln!(
        w,
        "\n# DVS range: V(f) = base_vdd * (v_intercept + v_slope * f / base_ghz)"
    );
    let _ = writeln!(w, "dvs.base_ghz {}", d.base_ghz);
    let _ = writeln!(w, "dvs.base_vdd {}", d.base_vdd);
    let _ = writeln!(w, "dvs.min_ghz {}", d.min_ghz);
    let _ = writeln!(w, "dvs.max_ghz {}", d.max_ghz);
    let _ = writeln!(w, "dvs.step_ghz {}", d.step_ghz);
    let _ = writeln!(w, "dvs.v_intercept {}", d.v_intercept);
    let _ = writeln!(w, "dvs.v_slope {}", d.v_slope);

    let p = &scenario.power;
    let _ = writeln!(w, "\n# Power model");
    for (structure, watts) in p.pmax_dynamic.iter() {
        let _ = writeln!(w, "power.pmax {structure} {}", watts.0);
    }
    let _ = writeln!(w, "power.idle_fraction {}", p.idle_fraction);
    let _ = writeln!(w, "power.leakage_density {}", p.leakage_density);
    let _ = writeln!(w, "power.leakage_ref_k {}", p.leakage_ref.0);
    let _ = writeln!(w, "power.leakage_beta {}", p.leakage_beta);
    let _ = writeln!(w, "power.base_vdd {}", p.base_vdd.0);
    let _ = writeln!(w, "power.base_frequency_hz {}", p.base_frequency.0);

    let t = &scenario.thermal;
    let _ = writeln!(w, "\n# Package / thermal network");
    let _ = writeln!(w, "thermal.r_vertical_per_area {}", t.r_vertical_per_area);
    let _ = writeln!(w, "thermal.r_lateral_per_edge {}", t.r_lateral_per_edge);
    let _ = writeln!(w, "thermal.r_spreader_sink {}", t.r_spreader_sink);
    let _ = writeln!(w, "thermal.r_sink_ambient {}", t.r_sink_ambient);
    let _ = writeln!(w, "thermal.c_block_per_area {}", t.c_block_per_area);
    let _ = writeln!(w, "thermal.c_spreader {}", t.c_spreader);
    let _ = writeln!(w, "thermal.c_sink {}", t.c_sink);
    let _ = writeln!(w, "thermal.ambient_k {}", t.ambient.0);

    let f = &scenario.floorplan;
    let _ = writeln!(w, "\n# Floorplan (mm)");
    let _ = writeln!(w, "floorplan.die {} {}", f.die_width(), f.die_height());
    for block in f.blocks() {
        let r = block.rect;
        let _ = writeln!(
            w,
            "floorplan.block {} {} {} {} {}",
            block.structure, r.x, r.y, r.w, r.h
        );
    }

    let m = &scenario.failure;
    let _ = writeln!(w, "\n# Failure mechanisms");
    let _ = writeln!(w, "failure.em_n {}", m.em_n);
    let _ = writeln!(w, "failure.em_ea {}", m.em_ea);
    let _ = writeln!(w, "failure.sm_n {}", m.sm_n);
    let _ = writeln!(w, "failure.sm_ea {}", m.sm_ea);
    let _ = writeln!(w, "failure.sm_t0_k {}", m.sm_t0.0);
    let _ = writeln!(w, "failure.tddb_a {}", m.tddb_a);
    let _ = writeln!(w, "failure.tddb_b {}", m.tddb_b);
    let _ = writeln!(w, "failure.tddb_x {}", m.tddb_x);
    let _ = writeln!(w, "failure.tddb_y {}", m.tddb_y);
    let _ = writeln!(w, "failure.tddb_z {}", m.tddb_z);
    let _ = writeln!(w, "failure.tc_q {}", m.tc_q);
    let _ = writeln!(w, "failure.tc_ambient_k {}", m.tc_ambient.0);

    let q = &scenario.qualification;
    let _ = writeln!(w, "\n# Qualification and FIT budget");
    let _ = writeln!(w, "qual.t_qual_k {}", q.t_qual.0);
    let _ = writeln!(w, "qual.alpha {}", q.alpha);
    let _ = writeln!(w, "qual.target_fit {}", q.target_fit);

    let e = &scenario.eval;
    let _ = writeln!(w, "\n# Evaluation lengths");
    let _ = writeln!(w, "eval.warmup_instructions {}", e.warmup_instructions);
    let _ = writeln!(w, "eval.measure_instructions {}", e.measure_instructions);
    let _ = writeln!(w, "eval.interval_instructions {}", e.interval_instructions);
    let _ = writeln!(w, "eval.seed {}", e.seed);
    let _ = writeln!(w, "eval.leakage_iterations {}", e.leakage_iterations);
    let _ = writeln!(w, "eval.prewarm_bytes {}", e.prewarm_bytes);

    if let Some(slice) = &scenario.slice {
        let _ = writeln!(w, "\n# Sliced evaluation: checkpointed continuation");
        let _ = writeln!(w, "slice.instructions {}", slice.instructions);
        if let Some(dir) = &slice.checkpoint_dir {
            let _ = writeln!(w, "slice.checkpoint_dir {dir}");
        }
    }

    if let Some(surrogate) = &scenario.surrogate {
        let _ = writeln!(w, "\n# Surrogate-accelerated DRM search");
        let _ = writeln!(w, "surrogate.enabled {}", surrogate.enabled);
        let _ = writeln!(w, "surrogate.top_k {}", surrogate.top_k);
        let _ = writeln!(
            w,
            "surrogate.calibration_apps {}",
            surrogate.calibration_apps
        );
    }

    if let Some(cluster) = &scenario.cluster {
        let _ = writeln!(w, "\n# Distributed sweep fabric");
        for addr in &cluster.shard_addrs {
            let _ = writeln!(w, "cluster.addr {addr}");
        }
    }

    let fl = &scenario.fleet;
    let _ = writeln!(w, "\n# Fleet population Monte Carlo");
    let _ = writeln!(w, "fleet.dies {}", fl.dies);
    let _ = writeln!(w, "fleet.seed {}", fl.seed);
    let _ = writeln!(w, "fleet.shape {}", fl.shape);
    let _ = writeln!(w, "fleet.sigma_leakage {}", fl.variation.sigma_leakage);
    let _ = writeln!(w, "fleet.sigma_beta {}", fl.variation.sigma_beta);
    let _ = writeln!(w, "fleet.sigma_ea {}", fl.variation.sigma_ea);
    let _ = writeln!(w, "fleet.sigma_geometry {}", fl.variation.sigma_geometry);

    if let Some(slo) = &scenario.slo {
        let _ = writeln!(w, "\n# Service-level objectives: verb quantile target_ms");
        for v in &slo.verbs {
            let _ = writeln!(w, "slo.verb {} {} {}", v.verb, v.quantile, v.target_ms);
        }
        if let Some(burn) = slo.max_fit_burn {
            let _ = writeln!(w, "slo.fit_burn {burn}");
        }
    }

    let _ = writeln!(w, "\n# DRM adaptation space: window alus fpus");
    for point in &scenario.arch_points {
        let _ = writeln!(w, "arch {} {} {}", point.window, point.alus, point.fpus);
    }

    let _ = writeln!(w, "\n# Workload suite, in run order");
    for spec in &scenario.workloads {
        match spec {
            WorkloadSpec::Builtin(app) => {
                let _ = writeln!(w, "workload {}", app.name());
            }
            WorkloadSpec::Inline(profile) => {
                let _ = writeln!(w, "profile begin");
                let _ = write!(w, "{}", profile_to_text(profile));
                let _ = writeln!(w, "profile end");
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_round_trips_bit_identically() {
        let original = Scenario::paper_default();
        let text = scenario_to_text(&original);
        let reparsed = scenario_from_text(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
        assert_eq!(reparsed, original);
        // And the canonical print is a fixed point.
        assert_eq!(scenario_to_text(&reparsed), text);
    }

    #[test]
    fn fleet_section_round_trips_and_validates() {
        let mut s = Scenario::paper_default();
        s.fleet.dies = 2_000_000;
        s.fleet.seed = 99;
        s.fleet.shape = 3.5;
        s.fleet.variation.sigma_leakage = 0.4;
        let text = scenario_to_text(&s);
        let reparsed = scenario_from_text(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
        assert_eq!(reparsed, s);

        let bad = text.replace("fleet.shape 3.5", "fleet.shape 0.01");
        let err = scenario_from_text(&bad).unwrap_err().to_string();
        assert!(err.contains("fleet.shape"), "{err}");

        let missing: String = text
            .lines()
            .filter(|l| !l.starts_with("fleet.dies"))
            .map(|l| format!("{l}\n"))
            .collect();
        let err = scenario_from_text(&missing).unwrap_err().to_string();
        assert!(err.contains("missing required key `fleet.dies`"), "{err}");
    }

    #[test]
    fn slo_section_round_trips_and_validates() {
        use crate::{SloPolicy, SloVerb};
        let mut s = Scenario::paper_default();
        s.slo = Some(SloPolicy {
            verbs: vec![
                SloVerb {
                    verb: "eval".to_owned(),
                    quantile: 0.99,
                    target_ms: 250.0,
                },
                SloVerb {
                    verb: "fleet".to_owned(),
                    quantile: 0.5,
                    target_ms: 2000.0,
                },
            ],
            max_fit_burn: Some(1.25),
        });
        let text = scenario_to_text(&s);
        assert!(text.contains("slo.verb eval 0.99 250"), "{text}");
        assert!(text.contains("slo.fit_burn 1.25"), "{text}");
        let reparsed = scenario_from_text(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
        assert_eq!(reparsed, s);
        assert_eq!(scenario_to_text(&reparsed), text);

        // Bad objectives are rejected with the scenario's own messages.
        let bad = text.replace("slo.verb eval 0.99 250", "slo.verb eval 1.5 250");
        let err = scenario_from_text(&bad).unwrap_err().to_string();
        assert!(err.contains("quantile"), "{err}");
        let bad = text.replace("slo.fit_burn 1.25", "slo.fit_burn -1");
        let err = scenario_from_text(&bad).unwrap_err().to_string();
        assert!(err.contains("fit_burn"), "{err}");
        let bad = text.replace(
            "slo.verb fleet 0.5 2000",
            "slo.verb eval 0.5 2000", // duplicate verb
        );
        let err = scenario_from_text(&bad).unwrap_err().to_string();
        assert!(err.contains("duplicate slo objective"), "{err}");
    }

    #[test]
    fn scenarios_without_slo_lines_have_no_slo_section() {
        // The section is optional: the paper default prints no `slo.`
        // lines and parses back to `slo: None` (the pre-section format is
        // preserved bit-for-bit).
        let text = scenario_to_text(&Scenario::paper_default());
        assert!(!text.contains("slo."), "{text}");
        let reparsed = scenario_from_text(&text).unwrap();
        assert_eq!(reparsed.slo, None);
    }

    #[test]
    fn slice_section_round_trips_and_validates() {
        let mut s = Scenario::paper_default();
        // standard(): interval 60k — slice must be a multiple.
        s.slice = Some(SliceSpec {
            instructions: 120_000,
            checkpoint_dir: Some("checkpoints/paper".to_owned()),
        });
        let text = scenario_to_text(&s);
        assert!(text.contains("slice.instructions 120000"), "{text}");
        assert!(
            text.contains("slice.checkpoint_dir checkpoints/paper"),
            "{text}"
        );
        let reparsed = scenario_from_text(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
        assert_eq!(reparsed, s);
        assert_eq!(scenario_to_text(&reparsed), text);

        // The directory is optional within the section...
        s.slice = Some(SliceSpec {
            instructions: 60_000,
            checkpoint_dir: None,
        });
        let text = scenario_to_text(&s);
        assert!(!text.contains("slice.checkpoint_dir"), "{text}");
        assert_eq!(scenario_from_text(&text).unwrap(), s);

        // ...but a directory alone is not a slice section.
        let mut text = scenario_to_text(&Scenario::paper_default());
        text.push_str("slice.checkpoint_dir lonely\n");
        let err = scenario_from_text(&text).unwrap_err().to_string();
        assert!(err.contains("requires `slice.instructions`"), "{err}");

        // Unaligned slice lengths fail scenario validation.
        let mut text = scenario_to_text(&Scenario::paper_default());
        text.push_str("slice.instructions 90001\n");
        let err = scenario_from_text(&text).unwrap_err().to_string();
        assert!(err.contains("multiple of the interval"), "{err}");
    }

    #[test]
    fn surrogate_section_round_trips_and_validates() {
        let mut s = Scenario::paper_default();
        s.surrogate = Some(SurrogateSpec {
            enabled: true,
            top_k: 12,
            calibration_apps: 2,
        });
        let text = scenario_to_text(&s);
        assert!(text.contains("surrogate.enabled true"), "{text}");
        assert!(text.contains("surrogate.top_k 12"), "{text}");
        assert!(text.contains("surrogate.calibration_apps 2"), "{text}");
        let reparsed = scenario_from_text(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
        assert_eq!(reparsed, s);
        assert_eq!(scenario_to_text(&reparsed), text);

        // A disabled section still round-trips (kill switch is recorded).
        s.surrogate = Some(SurrogateSpec {
            enabled: false,
            ..SurrogateSpec::default()
        });
        let text = scenario_to_text(&s);
        assert!(text.contains("surrogate.enabled false"), "{text}");
        assert_eq!(scenario_from_text(&text).unwrap(), s);

        // `enabled` alone picks up the defaults.
        let mut text = scenario_to_text(&Scenario::paper_default());
        text.push_str("surrogate.enabled true\n");
        let reparsed = scenario_from_text(&text).unwrap();
        assert_eq!(reparsed.surrogate, Some(SurrogateSpec::default()));

        // A tuning key without `enabled` is not a section.
        let mut text = scenario_to_text(&Scenario::paper_default());
        text.push_str("surrogate.top_k 4\n");
        let err = scenario_from_text(&text).unwrap_err().to_string();
        assert!(err.contains("requires `surrogate.enabled`"), "{err}");

        // Zero budgets fail scenario validation.
        let mut text = scenario_to_text(&Scenario::paper_default());
        text.push_str("surrogate.enabled true\nsurrogate.top_k 0\n");
        let err = scenario_from_text(&text).unwrap_err().to_string();
        assert!(err.contains("top_k"), "{err}");

        // Non-boolean values are rejected with a line number.
        let mut text = scenario_to_text(&Scenario::paper_default());
        text.push_str("surrogate.enabled maybe\n");
        let err = scenario_from_text(&text).unwrap_err().to_string();
        assert!(err.contains("must be `true` or `false`"), "{err}");
    }

    #[test]
    fn cluster_section_round_trips_and_validates() {
        let mut s = Scenario::paper_default();
        s.cluster = Some(ClusterSpec {
            shard_addrs: vec!["127.0.0.1:7101".to_owned(), "127.0.0.1:7102".to_owned()],
        });
        let text = scenario_to_text(&s);
        assert!(text.contains("cluster.addr 127.0.0.1:7101"), "{text}");
        let reparsed = scenario_from_text(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
        assert_eq!(reparsed, s);
        assert_eq!(scenario_to_text(&reparsed), text);

        // Shard counts and store directories are not scenario settings
        // (workers are addressed; the store is `ramp serve --store-dir`):
        // both keys are unknown, reported with their line.
        for key in ["cluster.shards 2", "cluster.store_dir evalstore"] {
            let mut text = scenario_to_text(&Scenario::paper_default());
            let line = text.lines().count() + 1;
            text.push_str(key);
            text.push('\n');
            let err = scenario_from_text(&text).unwrap_err().to_string();
            assert!(err.contains("unknown key"), "{err}");
            assert!(err.contains(&format!("line {line}")), "{err}");
        }
    }

    #[test]
    fn scenarios_without_cluster_lines_have_no_cluster_section() {
        let text = scenario_to_text(&Scenario::paper_default());
        assert!(!text.contains("cluster."), "{text}");
        assert_eq!(scenario_from_text(&text).unwrap().cluster, None);
    }

    #[test]
    fn scenarios_without_surrogate_lines_have_no_surrogate_section() {
        let text = scenario_to_text(&Scenario::paper_default());
        assert!(!text.contains("surrogate."), "{text}");
        assert_eq!(scenario_from_text(&text).unwrap().surrogate, None);
    }

    #[test]
    fn scenarios_without_slice_lines_have_no_slice_section() {
        let text = scenario_to_text(&Scenario::paper_default());
        assert!(!text.contains("slice."), "{text}");
        assert_eq!(scenario_from_text(&text).unwrap().slice, None);
    }

    #[test]
    fn inline_profiles_round_trip() {
        let mut s = Scenario::paper_default();
        s.workloads
            .push(WorkloadSpec::Inline(App::Equake.profile()));
        let text = scenario_to_text(&s);
        let reparsed = scenario_from_text(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
        assert_eq!(reparsed, s);
    }

    #[test]
    fn unknown_keys_report_line_numbers() {
        let mut text = scenario_to_text(&Scenario::paper_default());
        text.push_str("core.warp_drive 9\n");
        let lines = text.lines().count();
        let err = scenario_from_text(&text).unwrap_err().to_string();
        assert!(err.contains(&format!("line {lines}")), "{err}");
        assert!(err.contains("unknown key"), "{err}");
    }

    #[test]
    fn duplicate_keys_report_both_lines() {
        let mut text = scenario_to_text(&Scenario::paper_default());
        text.push_str("qual.alpha 0.5\n");
        let err = scenario_from_text(&text).unwrap_err().to_string();
        assert!(err.contains("duplicate key `qual.alpha`"), "{err}");
        assert!(err.contains("first at line"), "{err}");
    }

    #[test]
    fn missing_keys_are_named() {
        let text: String = scenario_to_text(&Scenario::paper_default())
            .lines()
            .filter(|l| !l.starts_with("qual.t_qual_k"))
            .map(|l| format!("{l}\n"))
            .collect();
        let err = scenario_from_text(&text).unwrap_err().to_string();
        assert!(
            err.contains("missing required key `qual.t_qual_k`"),
            "{err}"
        );
    }

    #[test]
    fn malformed_values_report_line_numbers() {
        let text = scenario_to_text(&Scenario::paper_default());
        let bad = text.replace("qual.alpha 0.48", "qual.alpha high");
        let err = scenario_from_text(&bad).unwrap_err().to_string();
        assert!(err.contains("must be a number"), "{err}");
        assert!(err.contains("line "), "{err}");

        let bad = text.replace("core.mshrs 12", "core.mshrs 12 13");
        let err = scenario_from_text(&bad).unwrap_err().to_string();
        assert!(err.contains("expects 1 value"), "{err}");
    }

    #[test]
    fn unterminated_profile_block_is_an_error() {
        let mut text = scenario_to_text(&Scenario::paper_default());
        text.push_str("profile begin\nname dangling\nmix int-alu 1\n");
        let err = scenario_from_text(&text).unwrap_err().to_string();
        assert!(err.contains("without `profile end`"), "{err}");
    }

    #[test]
    fn bad_inline_profile_points_at_block() {
        let mut text = scenario_to_text(&Scenario::paper_default());
        text.push_str("profile begin\nname broken\nmix warp-drive 1\nprofile end\n");
        let err = scenario_from_text(&text).unwrap_err().to_string();
        assert!(err.contains("inline profile starting at line"), "{err}");
        assert!(err.contains("unknown op class"), "{err}");
    }

    #[test]
    fn unknown_structure_and_workload_are_rejected() {
        let text = scenario_to_text(&Scenario::paper_default());
        let bad = text.replace("power.pmax fpu 11", "power.pmax gpu 11");
        let err = scenario_from_text(&bad).unwrap_err().to_string();
        assert!(err.contains("unknown structure `gpu`"), "{err}");

        let bad = text.replace("workload gzip", "workload doom");
        let err = scenario_from_text(&bad).unwrap_err().to_string();
        assert!(err.contains("unknown built-in workload `doom`"), "{err}");
    }

    #[test]
    fn duplicate_pmax_and_arch_are_rejected() {
        let mut text = scenario_to_text(&Scenario::paper_default());
        text.push_str("power.pmax fpu 3\n");
        let err = scenario_from_text(&text).unwrap_err().to_string();
        assert!(err.contains("duplicate `power.pmax fpu`"), "{err}");

        let mut text = scenario_to_text(&Scenario::paper_default());
        text.push_str("arch 128 6 4\n");
        let err = scenario_from_text(&text).unwrap_err().to_string();
        assert!(err.contains("duplicate adaptation point"), "{err}");
    }
}
