//! `scenario`: one description of a whole experiment.
//!
//! The paper's methodology is a single fixed processor (Table 1) over nine
//! applications, but every interesting question — §7's sensitivity to
//! `T_qual` and package cost, different adaptation spaces, different
//! workload suites — is a *different operating scenario* over the same
//! pipeline. A [`Scenario`] captures everything that was previously
//! hard-coded across six crates:
//!
//! * the processor ([`CoreConfig`], cpu) and its DVS range
//!   ([`DvsRange`], drm);
//! * the power model calibration ([`PowerParams`], power);
//! * the package ([`ThermalParams`], thermal) and floorplan geometry
//!   ([`Floorplan`], common);
//! * the failure-mechanism device models ([`FailureParams`]), the
//!   qualification point and the FIT budget ([`Qualification`], core);
//! * the workload suite — built-in profile names and/or inline
//!   [`AppProfile`]s ([`WorkloadSpec`], workload);
//! * the DRM microarchitectural adaptation space ([`ArchPoint`]s, drm)
//!   and the evaluation lengths ([`EvalParams`]).
//!
//! [`Scenario::paper_default`] reproduces the paper's setup exactly; every
//! constructor elsewhere in the stack builds from it. Scenarios serialize
//! to a human-readable text format (see [`textfmt`]) with strict
//! validation and line-numbered parse errors, so new experiments are text
//! files, not recompiles:
//!
//! ```text
//! ramp scenario run examples/scenarios/paper.scn
//! ramp fit --scenario examples/scenarios/server-overdesign.scn
//! ```
//!
//! # Examples
//!
//! ```
//! use scenario::Scenario;
//! let s = Scenario::paper_default();
//! s.validate()?;
//! // The text format round-trips bit-identically.
//! let reparsed = Scenario::from_text(&s.to_text())?;
//! assert_eq!(reparsed, s);
//! # Ok::<(), sim_common::SimError>(())
//! ```

pub mod textfmt;

use drm::{
    ArchPoint, BatchEngine, DvsPoint, DvsRange, EvalParams, Evaluator, FleetConfig, Oracle,
    SliceParams, Strategy, SurrogateParams,
};
use ramp::{FailureParams, QualificationPoint, ReliabilityModel, FIT_TARGET_STANDARD};
use sim_common::{Floorplan, Kelvin, SimError};
use sim_cpu::CoreConfig;
use sim_power::{PowerModel, PowerParams};
use sim_thermal::{ThermalModel, ThermalParams};
use workload::{App, AppProfile};

/// The reliability qualification of a scenario: the conditions the
/// processor is qualified at (§3.7) and the chip-wide FIT budget.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Qualification {
    /// Qualification temperature `T_qual`.
    pub t_qual: Kelvin,
    /// Activity factor assumed at qualification (the suite's worst-case
    /// sustained activity, `alpha_qual`).
    pub alpha: f64,
    /// Chip-wide failure-rate target in FIT.
    pub target_fit: f64,
}

impl Qualification {
    /// Validates the qualification point.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] for a non-positive temperature
    /// or FIT target, or an activity outside `(0, 1]`.
    pub fn validate(&self) -> Result<(), SimError> {
        if !self.t_qual.0.is_finite() || self.t_qual.0 <= 0.0 {
            return Err(SimError::invalid_config(
                "qualification temperature must be positive",
            ));
        }
        if !self.alpha.is_finite() || self.alpha <= 0.0 || self.alpha > 1.0 {
            return Err(SimError::invalid_config(
                "qualification activity must be in (0, 1]",
            ));
        }
        if !self.target_fit.is_finite() || self.target_fit <= 0.0 {
            return Err(SimError::invalid_config("FIT target must be positive"));
        }
        Ok(())
    }
}

/// One per-verb latency objective of a scenario's optional `[slo]`
/// section: "quantile `quantile` of the server's `verb` latency stays
/// below `target_ms`", evaluated over the server's sliding telemetry
/// window (`sim_obs` metric `server.request.latency_ms.<verb>`).
#[derive(Debug, Clone, PartialEq)]
pub struct SloVerb {
    /// The server verb the objective applies to (`eval`, `fit`, `sweep`,
    /// `fleet`, `sleep`).
    pub verb: String,
    /// The objective quantile in `(0, 1)`, e.g. `0.99`.
    pub quantile: f64,
    /// The latency target in milliseconds.
    pub target_ms: f64,
}

/// Service-level objectives a serving scenario declares. Absent in the
/// paper default — `[slo]` lines are optional, and a scenario without
/// them serializes without the section, bit-identically to before the
/// section existed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SloPolicy {
    /// Per-verb latency objectives.
    pub verbs: Vec<SloVerb>,
    /// Allowed burn of the qualified FIT budget as a fraction (1.0 = the
    /// whole [`Qualification::target_fit`] budget), tracked against the
    /// last reported `fit.total` gauge.
    pub max_fit_burn: Option<f64>,
}

impl SloPolicy {
    /// Validates the objectives.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] for an empty policy, a
    /// duplicate verb, a quantile outside `(0, 1)`, or a non-positive
    /// target.
    pub fn validate(&self) -> Result<(), SimError> {
        if self.verbs.is_empty() && self.max_fit_burn.is_none() {
            return Err(SimError::invalid_config(
                "slo section declares no objectives (add `slo.verb` or `slo.fit_burn`)",
            ));
        }
        for (i, v) in self.verbs.iter().enumerate() {
            if v.verb.is_empty() || v.verb.split_whitespace().count() != 1 {
                return Err(SimError::invalid_config(
                    "slo verb must be a single non-empty token",
                ));
            }
            if self.verbs[..i].iter().any(|prev| prev.verb == v.verb) {
                return Err(SimError::invalid_config(format!(
                    "duplicate slo objective for verb `{}`",
                    v.verb
                )));
            }
            if !(v.quantile > 0.0 && v.quantile < 1.0) {
                return Err(SimError::invalid_config(format!(
                    "slo quantile for `{}` must be in (0, 1)",
                    v.verb
                )));
            }
            if !v.target_ms.is_finite() || v.target_ms <= 0.0 {
                return Err(SimError::invalid_config(format!(
                    "slo target for `{}` must be a positive latency in ms",
                    v.verb
                )));
            }
        }
        if let Some(burn) = self.max_fit_burn {
            if !burn.is_finite() || burn <= 0.0 {
                return Err(SimError::invalid_config(
                    "slo.fit_burn must be a positive fraction of the FIT budget",
                ));
            }
        }
        Ok(())
    }
}

/// Sliced-evaluation settings of a scenario's optional `[slice]` section:
/// every timing run of the scenario's evaluators is cut into checkpointed
/// slices (see `drm::slice`), bit-identically to the unsliced pipeline.
/// Absent in the paper default — a scenario without the section
/// serializes without `slice.` lines, bit-identically to before the
/// section existed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SliceSpec {
    /// Instructions per slice (`slice.instructions`); must be a positive
    /// multiple of the evaluation's `interval_instructions`.
    pub instructions: u64,
    /// Directory persisted checkpoints live in
    /// (`slice.checkpoint_dir`). Without it the run is still sliced but
    /// nothing is persisted, so nothing can resume in parallel.
    pub checkpoint_dir: Option<String>,
}

impl SliceSpec {
    /// The [`SliceParams`] this spec resolves to, with `workers` threads
    /// for the parallel resume path.
    #[must_use]
    pub fn params(&self, workers: usize) -> SliceParams {
        let params = SliceParams::new(self.instructions).with_workers(workers);
        match &self.checkpoint_dir {
            Some(dir) => params.with_dir(dir),
            None => params,
        }
    }

    /// Validates the slice shape against the scenario's evaluation
    /// lengths.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] when the slice length is not a
    /// positive multiple of the interval length, or the checkpoint
    /// directory is not a single non-empty token (the text format is
    /// whitespace-separated, so such a path could not round-trip).
    pub fn validate(&self, eval: &EvalParams) -> Result<(), SimError> {
        self.params(1).validate(eval)?;
        if let Some(dir) = &self.checkpoint_dir {
            if dir.is_empty() || dir.split_whitespace().count() != 1 {
                return Err(SimError::invalid_config(
                    "slice.checkpoint_dir must be a single non-empty token",
                ));
            }
        }
        Ok(())
    }
}

/// Two-phase surrogate search settings of a scenario's optional
/// `[surrogate]` section: DRM searches (oracle, DTM, intra-application)
/// first score every candidate with a calibrated analytical model and
/// promote only the provable frontier to cycle-level evaluation (see
/// `drm::surrogate`). Absent in the paper default — a scenario without
/// the section serializes without `surrogate.` lines, bit-identically to
/// before the section existed, and searches run exhaustively.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SurrogateSpec {
    /// Master switch (`surrogate.enabled`); `false` keeps the section in
    /// the file but runs every search exhaustively.
    pub enabled: bool,
    /// Conservative promotion floor (`surrogate.top_k`).
    pub top_k: u32,
    /// Applications that must be calibrated before pruning activates
    /// (`surrogate.calibration_apps`).
    pub calibration_apps: u32,
}

impl Default for SurrogateSpec {
    fn default() -> SurrogateSpec {
        SurrogateSpec {
            enabled: true,
            top_k: 8,
            calibration_apps: 1,
        }
    }
}

impl SurrogateSpec {
    /// The [`SurrogateParams`] this spec resolves to.
    #[must_use]
    pub fn params(&self) -> SurrogateParams {
        SurrogateParams {
            top_k: self.top_k as usize,
            calibration_apps: self.calibration_apps as usize,
        }
    }

    /// Validates the knobs.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] when a knob is zero.
    pub fn validate(&self) -> Result<(), SimError> {
        self.params().validate()
    }
}

/// Distributed-sweep settings of a scenario's optional `[cluster]`
/// section: the addresses of the `ramp serve` worker shards a
/// coordinator (`ramp cluster serve`) routes work to. Absent in the paper
/// default — a scenario without the section serializes without
/// `cluster.` lines, and everything runs single-process.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ClusterSpec {
    /// Worker shard addresses (`cluster.addr`, repeatable, in shard
    /// order).
    pub shard_addrs: Vec<String>,
}

impl ClusterSpec {
    /// Validates the cluster shape.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] when no address is given or an
    /// address would not survive the whitespace-separated text format.
    pub fn validate(&self) -> Result<(), SimError> {
        if self.shard_addrs.is_empty() {
            return Err(SimError::invalid_config(
                "cluster section declares no workers (add `cluster.addr`)",
            ));
        }
        for addr in &self.shard_addrs {
            if addr.is_empty() || addr.split_whitespace().count() != 1 {
                return Err(SimError::invalid_config(
                    "cluster.addr must be a single non-empty token",
                ));
            }
        }
        Ok(())
    }
}

/// One entry of a scenario's workload suite.
// Inline profiles are ~240 bytes vs the Builtin discriminant, but a suite
// holds at most a handful of config-time entries; boxing would only add
// indirection to every accessor.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadSpec {
    /// A built-in paper application, referenced by name.
    Builtin(App),
    /// A user-supplied profile, inlined in the scenario file.
    Inline(AppProfile),
}

impl WorkloadSpec {
    /// The workload's display name.
    pub fn name(&self) -> &str {
        match self {
            WorkloadSpec::Builtin(app) => app.name(),
            WorkloadSpec::Inline(profile) => &profile.name,
        }
    }

    /// The full profile (built-ins resolve to their paper calibration).
    pub fn profile(&self) -> AppProfile {
        match self {
            WorkloadSpec::Builtin(app) => app.profile(),
            WorkloadSpec::Inline(profile) => profile.clone(),
        }
    }

    /// The built-in [`App`], when this entry is one.
    pub fn builtin(&self) -> Option<App> {
        match self {
            WorkloadSpec::Builtin(app) => Some(*app),
            WorkloadSpec::Inline(_) => None,
        }
    }
}

/// A complete experiment description. See the [crate docs](self) for the
/// role of each field; [`Scenario::paper_default`] is the canonical
/// instance every other configuration is a delta against.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Scenario name (one token; used in reports and filenames).
    pub name: String,
    /// The processor under study.
    pub core: CoreConfig,
    /// The DVS frequency/voltage range around the core's nominal point.
    pub dvs: DvsRange,
    /// Power-model calibration.
    pub power: PowerParams,
    /// Package thermal parameters.
    pub thermal: ThermalParams,
    /// Die floorplan.
    pub floorplan: Floorplan,
    /// Failure-mechanism device models.
    pub failure: FailureParams,
    /// Qualification conditions and FIT budget.
    pub qualification: Qualification,
    /// Workload suite, in run order.
    pub workloads: Vec<WorkloadSpec>,
    /// DRM microarchitectural adaptation space.
    pub arch_points: Vec<ArchPoint>,
    /// Simulation lengths and seeds.
    pub eval: EvalParams,
    /// Fleet population Monte Carlo: die count, seed, wear-out shape and
    /// die-to-die variation magnitudes.
    pub fleet: FleetConfig,
    /// Optional service-level objectives for the evaluation server.
    pub slo: Option<SloPolicy>,
    /// Optional sliced evaluation (checkpointed workload continuation).
    pub slice: Option<SliceSpec>,
    /// Optional two-phase surrogate search for DRM verbs.
    pub surrogate: Option<SurrogateSpec>,
    /// Optional distributed-sweep fabric (coordinator/worker shards).
    pub cluster: Option<ClusterSpec>,
}

impl Scenario {
    /// The paper's complete setup: Table 1 processor, 65 nm power and
    /// thermal calibrations, the R10000-style floorplan, RAMP failure
    /// parameters, qualification at 394 K with the suite's worst sustained
    /// activity (0.48) against the 4000 FIT budget, all nine applications,
    /// and the §6.1 18-point adaptation space.
    pub fn paper_default() -> Scenario {
        Scenario {
            name: "paper-default".to_owned(),
            core: CoreConfig::base(),
            dvs: DvsRange::paper(),
            power: PowerParams::ibm_65nm(),
            thermal: ThermalParams::hotspot_65nm(),
            floorplan: Floorplan::r10000_65nm(),
            failure: FailureParams::ramp_65nm(),
            qualification: Qualification {
                t_qual: Kelvin(394.0),
                alpha: 0.48,
                target_fit: FIT_TARGET_STANDARD,
            },
            workloads: App::ALL.into_iter().map(WorkloadSpec::Builtin).collect(),
            arch_points: ArchPoint::ALL.to_vec(),
            eval: EvalParams::standard(),
            fleet: FleetConfig::default(),
            slo: None,
            slice: None,
            surrogate: None,
            cluster: None,
        }
    }

    /// Validates every layer of the scenario.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] when any section fails its own
    /// validation, the suite or adaptation space is empty, or an
    /// adaptation point does not apply to the processor.
    pub fn validate(&self) -> Result<(), SimError> {
        if self.name.is_empty() || self.name.split_whitespace().count() != 1 {
            return Err(SimError::invalid_config(
                "scenario name must be a single non-empty token",
            ));
        }
        self.core.validate()?;
        self.dvs.validate()?;
        self.power.validate()?;
        self.thermal.validate()?;
        self.failure.validate()?;
        self.qualification.validate()?;
        // The floorplan was validated at construction; geometry is
        // immutable behind accessors.
        if self.workloads.is_empty() {
            return Err(SimError::invalid_config(
                "scenario has no workloads (add `workload <name>` or an inline profile)",
            ));
        }
        for w in &self.workloads {
            if let WorkloadSpec::Inline(profile) = w {
                profile.validate()?;
                if profile.phases.iter().any(|p| p.mix.is_some()) {
                    // The profile text format cannot carry per-phase op
                    // mixes, so such a profile would not survive
                    // serialization; reference a built-in by name instead.
                    return Err(SimError::invalid_config(format!(
                        "inline profile `{}` has phase-specific op mixes, which the \
                         scenario text format cannot represent",
                        profile.name
                    )));
                }
            }
        }
        if self.arch_points.is_empty() {
            return Err(SimError::invalid_config(
                "scenario has no adaptation points (add `arch <window> <alus> <fpus>`)",
            ));
        }
        let base_dvs = self.dvs.base_point();
        for p in &self.arch_points {
            p.apply(&self.core, base_dvs)
                .map_err(|e| SimError::invalid_config(format!("adaptation point {p}: {e}")))?;
        }
        self.eval.validate()?;
        self.fleet.validate()?;
        if let Some(slo) = &self.slo {
            slo.validate()?;
        }
        if let Some(slice) = &self.slice {
            slice.validate(&self.eval)?;
        }
        if let Some(surrogate) = &self.surrogate {
            surrogate.validate()?;
        }
        if let Some(cluster) = &self.cluster {
            cluster.validate()?;
        }
        Ok(())
    }

    /// Parses a scenario from its text form. See [`textfmt`].
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] with a line number for syntax
    /// errors, and the failing section's message for semantic errors.
    pub fn from_text(text: &str) -> Result<Scenario, SimError> {
        textfmt::scenario_from_text(text)
    }

    /// Serializes to the text form; [`Scenario::from_text`] of the result
    /// reproduces `self` bit-identically.
    pub fn to_text(&self) -> String {
        textfmt::scenario_to_text(self)
    }

    /// Reads and parses a scenario file.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] when the file cannot be read or
    /// fails to parse/validate.
    pub fn load(path: &str) -> Result<Scenario, SimError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| SimError::invalid_config(format!("cannot read scenario {path}: {e}")))?;
        Scenario::from_text(&text).map_err(|e| SimError::invalid_config(format!("{path}: {e}")))
    }

    /// The most aggressive microarchitectural point: the processor itself.
    pub fn base_arch(&self) -> ArchPoint {
        ArchPoint {
            window: self.core.window_size,
            alus: self.core.int_alus,
            fpus: self.core.fpus,
        }
    }

    /// The base DVS operating point of the range.
    pub fn base_dvs(&self) -> DvsPoint {
        self.dvs.base_point()
    }

    /// The power model over this scenario's calibration and floorplan.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] when the parameters are invalid.
    pub fn power_model(&self) -> Result<PowerModel, SimError> {
        PowerModel::new(self.power.clone(), self.floorplan.clone())
    }

    /// The thermal model over this scenario's package and floorplan.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] when the parameters are invalid.
    pub fn thermal_model(&self) -> Result<ThermalModel, SimError> {
        ThermalModel::new(self.thermal.clone(), self.floorplan.clone())
    }

    /// The full-stack evaluator with the scenario's own [`EvalParams`].
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] when any layer's parameters are
    /// invalid.
    pub fn evaluator(&self) -> Result<Evaluator, SimError> {
        self.evaluator_with(self.eval)
    }

    /// The full-stack evaluator with explicit [`EvalParams`] (e.g. the
    /// quick settings for tests).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] when any layer's parameters are
    /// invalid.
    pub fn evaluator_with(&self, params: EvalParams) -> Result<Evaluator, SimError> {
        let evaluator = Evaluator::new(self.power_model()?, self.thermal_model()?, params)?;
        match &self.slice {
            // The scenario's `[slice]` section makes every evaluator —
            // and everything built on one (batch engine, oracle, server
            // verbs) — run sliced, with the default worker count for the
            // parallel resume path.
            Some(spec) => evaluator.with_slice(spec.params(drm::default_workers())),
            None => Ok(evaluator),
        }
    }

    /// The conditions the processor is qualified at: `T_qual` with the
    /// scenario's own nominal voltage, frequency and qualification
    /// activity.
    pub fn qualification_point(&self) -> QualificationPoint {
        QualificationPoint {
            temperature: self.qualification.t_qual,
            vdd: self.core.vdd,
            frequency: self.core.frequency,
            activity: self.qualification.alpha,
        }
    }

    /// The reliability model qualified for this scenario (§3.7):
    /// per-structure/mechanism constants calibrated so the scenario's
    /// processor exactly consumes the FIT budget at the qualification
    /// point, distributed by floorplan area.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] when qualification fails.
    pub fn model(&self) -> Result<ReliabilityModel, SimError> {
        ReliabilityModel::qualify(
            self.failure,
            &self.qualification_point(),
            &self.floorplan.area_shares(),
            self.qualification.target_fit,
        )
    }

    /// A reliability model qualified at a different `T_qual`/activity
    /// (the §7 sensitivity sweeps vary these while everything else stays
    /// fixed).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] when qualification fails.
    pub fn model_at(&self, t_qual: Kelvin, alpha: f64) -> Result<ReliabilityModel, SimError> {
        Scenario {
            qualification: Qualification {
                t_qual,
                alpha,
                ..self.qualification
            },
            ..self.clone()
        }
        .model()
    }

    /// A DRM oracle whose engine evaluates candidates against this
    /// scenario's processor, with `workers` parallel evaluation threads.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] when any layer's parameters are
    /// invalid.
    pub fn oracle(&self, workers: usize) -> Result<Oracle, SimError> {
        self.attach_surrogate(Oracle::from_engine(
            BatchEngine::with_workers(self.evaluator()?, workers)
                .with_base_config(self.core.clone()),
        ))
    }

    /// Like [`Scenario::oracle`] but with explicit [`EvalParams`].
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] when any layer's parameters are
    /// invalid.
    pub fn oracle_with(&self, params: EvalParams, workers: usize) -> Result<Oracle, SimError> {
        self.attach_surrogate(Oracle::from_engine(
            BatchEngine::with_workers(self.evaluator_with(params)?, workers)
                .with_base_config(self.core.clone()),
        ))
    }

    /// Attaches the scenario's `[surrogate]` section, when present and
    /// enabled, to a freshly built oracle.
    fn attach_surrogate(&self, oracle: Oracle) -> Result<Oracle, SimError> {
        match &self.surrogate {
            Some(spec) if spec.enabled => oracle.with_surrogate(spec.params()),
            _ => Ok(oracle),
        }
    }

    /// The candidate set a DRM strategy may choose from under this
    /// scenario: the scenario's adaptation space crossed with its DVS
    /// grid. `step_override` substitutes a different grid granularity
    /// (e.g. the CLI's `--step`).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] when the space is empty or the
    /// range is invalid.
    pub fn candidates(
        &self,
        strategy: Strategy,
        step_override: Option<f64>,
    ) -> Result<Vec<(ArchPoint, DvsPoint)>, SimError> {
        let range = match step_override {
            Some(step_ghz) => DvsRange {
                step_ghz,
                ..self.dvs
            },
            None => self.dvs,
        };
        strategy.candidates_with(&self.arch_points, self.base_arch(), self.base_dvs(), &range)
    }

    /// The resolved profiles of the workload suite, in run order.
    pub fn profiles(&self) -> Vec<AppProfile> {
        self.workloads.iter().map(WorkloadSpec::profile).collect()
    }
}

impl Default for Scenario {
    fn default() -> Self {
        Scenario::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_common::Volts;

    #[test]
    fn paper_default_validates() {
        Scenario::paper_default().validate().unwrap();
    }

    #[test]
    fn paper_default_matches_legacy_constructors() {
        let s = Scenario::paper_default();
        assert_eq!(s.core, CoreConfig::base());
        assert_eq!(s.dvs, DvsRange::paper());
        assert_eq!(s.power, PowerParams::ibm_65nm());
        assert_eq!(s.thermal, ThermalParams::hotspot_65nm());
        assert_eq!(s.floorplan, Floorplan::r10000_65nm());
        assert_eq!(s.failure, FailureParams::ramp_65nm());
        assert_eq!(s.qualification.target_fit, FIT_TARGET_STANDARD);
        assert_eq!(s.workloads.len(), 9);
        assert_eq!(s.arch_points.len(), 18);
        assert_eq!(s.base_arch(), ArchPoint::most_aggressive());
        assert_eq!(s.base_dvs(), DvsPoint::base());
    }

    #[test]
    fn qualification_point_matches_legacy_helper() {
        // `QualificationPoint::at_temperature` hard-codes the paper's
        // 1.0 V / 4 GHz; the scenario derives them from its core, which
        // must agree for the paper default.
        let s = Scenario::paper_default();
        let q = s.qualification_point();
        let legacy = QualificationPoint::at_temperature(Kelvin(394.0), 0.48);
        assert_eq!(q.temperature, legacy.temperature);
        assert_eq!(q.vdd, legacy.vdd);
        assert_eq!(q.frequency, legacy.frequency);
        assert_eq!(q.activity, legacy.activity);
    }

    #[test]
    fn model_matches_legacy_construction() {
        let s = Scenario::paper_default();
        let from_scenario = s.model().unwrap();
        let legacy = ReliabilityModel::qualify(
            FailureParams::ramp_65nm(),
            &QualificationPoint::at_temperature(Kelvin(394.0), 0.48),
            &Floorplan::r10000_65nm().area_shares(),
            FIT_TARGET_STANDARD,
        )
        .unwrap();
        // Spot-check equality through behavior: both models are built from
        // identical inputs, so their qualified budgets agree.
        assert_eq!(
            format!("{from_scenario:?}"),
            format!("{legacy:?}"),
            "scenario-built model must equal the legacy construction"
        );
    }

    #[test]
    fn candidates_match_builtin_strategies() {
        let s = Scenario::paper_default();
        for strategy in Strategy::ALL {
            assert_eq!(
                s.candidates(strategy, Some(0.25)).unwrap(),
                strategy.candidates(0.25),
                "{strategy}"
            );
        }
        // The scenario's own step matches the paper grid too.
        assert_eq!(
            s.candidates(Strategy::Dvs, None).unwrap(),
            Strategy::Dvs.candidates(0.25)
        );
    }

    #[test]
    fn validation_rejects_broken_scenarios() {
        let mut s = Scenario::paper_default();
        s.name = "two tokens".to_owned();
        assert!(s.validate().is_err());

        let mut s = Scenario::paper_default();
        s.workloads.clear();
        assert!(s.validate().is_err());

        let mut s = Scenario::paper_default();
        s.arch_points.clear();
        assert!(s.validate().is_err());

        let mut s = Scenario::paper_default();
        s.arch_points.push(ArchPoint {
            window: 512,
            alus: 6,
            fpus: 4,
        });
        assert!(s.validate().is_err());

        let mut s = Scenario::paper_default();
        s.core.vdd = Volts(-1.0);
        assert!(s.validate().is_err());

        let mut s = Scenario::paper_default();
        s.qualification.alpha = 1.5;
        assert!(s.validate().is_err());

        let mut s = Scenario::paper_default();
        s.fleet.dies = 0;
        assert!(s.validate().is_err());

        let mut s = Scenario::paper_default();
        s.fleet.variation.sigma_ea = -0.1;
        assert!(s.validate().is_err());

        // Slice length must land on interval boundaries, and the
        // checkpoint directory must survive tokenization.
        let mut s = Scenario::paper_default();
        s.slice = Some(SliceSpec {
            instructions: 90_001,
            checkpoint_dir: None,
        });
        assert!(s.validate().is_err());
        let mut s = Scenario::paper_default();
        s.slice = Some(SliceSpec {
            instructions: 120_000,
            checkpoint_dir: Some("two tokens".to_owned()),
        });
        assert!(s.validate().is_err());
        let mut s = Scenario::paper_default();
        s.slice = Some(SliceSpec {
            instructions: 120_000,
            checkpoint_dir: Some("checkpoints".to_owned()),
        });
        s.validate().unwrap();

        // Surrogate budgets must be positive; a disabled section is
        // still checked (it documents an experiment that can be
        // re-enabled without edits elsewhere).
        let mut s = Scenario::paper_default();
        s.surrogate = Some(SurrogateSpec {
            enabled: true,
            top_k: 0,
            calibration_apps: 1,
        });
        assert!(s.validate().is_err());
        let mut s = Scenario::paper_default();
        s.surrogate = Some(SurrogateSpec {
            enabled: false,
            top_k: 8,
            calibration_apps: 0,
        });
        assert!(s.validate().is_err());
        let mut s = Scenario::paper_default();
        s.surrogate = Some(SurrogateSpec::default());
        s.validate().unwrap();

        // A cluster section needs at least one token-safe address.
        let mut s = Scenario::paper_default();
        s.cluster = Some(ClusterSpec::default());
        assert!(s.validate().is_err(), "no workers");
        s.cluster = Some(ClusterSpec {
            shard_addrs: vec!["two tokens".to_owned()],
        });
        assert!(s.validate().is_err(), "an address must be one token");
        s.cluster = Some(ClusterSpec {
            shard_addrs: vec!["127.0.0.1:7777".to_owned()],
        });
        s.validate().unwrap();
    }

    #[test]
    fn surrogate_spec_reaches_the_oracle() {
        // `Scenario::oracle` honors the section: enabled → two-phase
        // oracle; disabled or absent → the exact-only oracle.
        let mut s = Scenario::paper_default();
        s.eval = EvalParams::quick();
        assert!(s.oracle(1).unwrap().surrogate().is_none());
        s.surrogate = Some(SurrogateSpec::default());
        assert!(s.oracle(1).unwrap().surrogate().is_some());
        s.surrogate = Some(SurrogateSpec {
            enabled: false,
            ..SurrogateSpec::default()
        });
        assert!(s.oracle(1).unwrap().surrogate().is_none());
    }

    #[test]
    fn workload_spec_resolution() {
        let builtin = WorkloadSpec::Builtin(App::Gzip);
        assert_eq!(builtin.name(), "gzip");
        assert_eq!(builtin.profile(), App::Gzip.profile());
        assert_eq!(builtin.builtin(), Some(App::Gzip));

        let inline = WorkloadSpec::Inline(App::Art.profile());
        assert_eq!(inline.name(), "art");
        assert_eq!(inline.builtin(), None);
    }
}
