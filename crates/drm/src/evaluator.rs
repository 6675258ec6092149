//! The full-stack evaluation pipeline: workload → timing → power →
//! temperature → operating conditions (§6.3).
//!
//! One [`Evaluation`] captures everything RAMP needs about a
//! (workload, configuration) pair — per-interval activity, power,
//! temperature, and performance. Reliability is *not* baked in: the same
//! evaluation can be scored against any [`ReliabilityModel`] (any
//! `T_qual`), which is what makes the oracular DRM sweeps affordable.
//!
//! The thermal methodology follows §6.3: a first pass fixes the
//! steady-state heat-sink temperature from average power, the second
//! solves per-interval temperatures with the sink pinned there, and both
//! iterate the leakage/temperature fixed point ([`crate::solve`]).

use std::fmt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

use ramp::{ApplicationFit, ReliabilityModel, StructureConditions};
use sim_common::{fnv1a64, Kelvin, Seconds, SimError, Structure, StructureMap, Watts};
use sim_cpu::{Checkpoint, CoreConfig, IntervalStats, Processor};
use sim_obs::StageTimes;
use sim_power::PowerModel;
use sim_thermal::ThermalModel;
use workload::{App, AppProfile, OpTape, SyntheticStream, DATA_BASE};

use crate::slice::{slice_lengths, CheckpointStore, SliceParams};
use crate::solve::{SolveReport, Solver};

/// Simulation lengths and seeds for one evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvalParams {
    /// Instructions run (and discarded) to warm microarchitectural state.
    pub warmup_instructions: u64,
    /// Instructions measured.
    pub measure_instructions: u64,
    /// Instructions per measurement interval (§3.6 samples conditions at a
    /// fixed granularity).
    pub interval_instructions: u64,
    /// Workload seed.
    pub seed: u64,
    /// Iterations of the leakage/temperature fixed point.
    pub leakage_iterations: u32,
    /// Bytes of the data working set prefilled before warmup (capped by
    /// the profile's working set).
    pub prewarm_bytes: u64,
}

impl EvalParams {
    /// Fast settings for tests and examples (hundreds of milliseconds per
    /// evaluation).
    pub fn quick() -> EvalParams {
        EvalParams {
            warmup_instructions: 30_000,
            measure_instructions: 120_000,
            interval_instructions: 30_000,
            seed: 12_345,
            leakage_iterations: 3,
            prewarm_bytes: 2 * 1024 * 1024,
        }
    }

    /// Settings used by the paper-figure reproductions: long enough for
    /// stable averages over the multimedia frame phases.
    pub fn standard() -> EvalParams {
        EvalParams {
            warmup_instructions: 100_000,
            measure_instructions: 600_000,
            interval_instructions: 60_000,
            seed: 12_345,
            leakage_iterations: 3,
            prewarm_bytes: 2 * 1024 * 1024,
        }
    }

    /// Validates the parameters.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] when a length is zero or the
    /// interval exceeds the measurement length.
    pub fn validate(&self) -> Result<(), SimError> {
        if self.measure_instructions == 0 || self.interval_instructions == 0 {
            return Err(SimError::invalid_config(
                "measurement and interval lengths must be non-zero",
            ));
        }
        if self.interval_instructions > self.measure_instructions {
            return Err(SimError::invalid_config(
                "interval longer than the whole measurement",
            ));
        }
        if self.leakage_iterations == 0 {
            return Err(SimError::invalid_config(
                "at least one leakage iteration is required",
            ));
        }
        Ok(())
    }
}

impl Default for EvalParams {
    fn default() -> Self {
        EvalParams::standard()
    }
}

/// Digest of everything a cycle-level timing run depends on: the
/// workload profile's full content, the timing-relevant configuration
/// ([`CoreConfig::timing_key`]) and the run shape (warmup, measurement,
/// interval, seed and prewarm). It keys both on-disk forms of a run —
/// evaluation-store records and slice checkpoints — so neither can serve
/// a run of another profile, core or shape.
///
/// Supply voltage and `leakage_iterations` are left out: neither moves a
/// cycle, so one digest covers a whole DVS voltage grid, as one
/// [`TimingRun`] does.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RunDigest(pub u64);

impl RunDigest {
    /// FNV-1a over one versioned canonical text of the run's inputs.
    #[must_use]
    pub fn new(profile: &AppProfile, config: &CoreConfig, params: &EvalParams) -> RunDigest {
        let canonical = format!(
            "ramp-run/1|{profile:?}|{:?}|warmup={}|measure={}|interval={}|seed={}|prewarm={}",
            config.timing_key(),
            params.warmup_instructions,
            params.measure_instructions,
            params.interval_instructions,
            params.seed,
            params.prewarm_bytes,
        );
        RunDigest(fnv1a64(canonical.as_bytes()))
    }
}

impl fmt::Display for RunDigest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// Wall-time and solver diagnostics for one evaluation: per-stage wall
/// times in a [`StageTimes`] (keyed by the same names the evaluation's
/// spans use) and the leakage/temperature fixed point's [`SolveReport`]
/// over both passes.
///
/// Diagnostics only: two evaluations of the same (workload, config) pair
/// are *equal* even when their wall times differ, so `EvalStats` compares
/// as always-equal and derived [`Evaluation`] equality stays exact on the
/// simulated quantities (determinism and parity tests rely on this).
#[derive(Debug, Clone, Default)]
pub struct EvalStats {
    /// Wall time per pipeline stage: `eval.timing` (stream generation +
    /// cycle simulation), `eval.sink` (pass 1, the §6.3 sink fixed
    /// point), and `eval.thermal` (pass 2, per-interval solves).
    pub stages: StageTimes,
    /// The fixed point over the pass-1 sink solve and every pass-2
    /// interval: worst final residual, clamped temperatures, iterations.
    pub fixed_point: SolveReport,
}

impl EvalStats {
    /// Total wall time of the evaluation (sum over stages).
    #[must_use]
    pub fn wall(&self) -> Duration {
        self.stages.total()
    }

    /// Wall time of the timing pass.
    #[must_use]
    pub fn timing(&self) -> Duration {
        self.stages.get("eval.timing")
    }

    /// Wall time of the power/thermal passes (sink init + per-interval
    /// leakage/temperature fixed point).
    #[must_use]
    pub fn power_thermal(&self) -> Duration {
        self.stages.get("eval.sink") + self.stages.get("eval.thermal")
    }

    /// Leakage/temperature fixed-point iterations executed across both
    /// passes.
    #[must_use]
    pub fn fixed_point_iterations(&self) -> u64 {
        self.fixed_point.iterations
    }
}

impl PartialEq for EvalStats {
    fn eq(&self, _: &EvalStats) -> bool {
        true
    }
}

/// One measured interval: timing, power, temperature, and the operating
/// conditions RAMP consumes.
#[derive(Debug, Clone, PartialEq)]
pub struct IntervalProfile {
    /// Wall-clock duration of the interval at the configured frequency.
    pub duration: Seconds,
    /// Committed instructions.
    pub instructions: u64,
    /// IPC over the interval.
    pub ipc: f64,
    /// Total power (dynamic + leakage).
    pub power: Watts,
    /// Per-structure operating conditions for the reliability model.
    /// Temperatures live here too — see
    /// [`temperatures`](IntervalProfile::temperatures).
    pub conditions: StructureMap<StructureConditions>,
}

impl IntervalProfile {
    /// Per-structure temperatures, derived from [`conditions`]
    /// (`conditions` carries the full operating point, so storing the
    /// temperatures a second time would only duplicate state).
    ///
    /// [`conditions`]: IntervalProfile::conditions
    pub fn temperatures(&self) -> StructureMap<Kelvin> {
        StructureMap::from_fn(|s| self.conditions[s].temperature)
    }
}

/// The complete profile of one (workload, configuration) pair.
#[derive(Debug, Clone, PartialEq)]
pub struct Evaluation {
    /// Workload name.
    pub workload: String,
    /// The evaluated configuration.
    pub config: CoreConfig,
    /// Whole-run IPC.
    pub ipc: f64,
    /// Billions of instructions per second (IPC × frequency): the
    /// performance metric used for relative comparisons.
    pub bips: f64,
    /// Heat-sink temperature from the two-pass initialization.
    pub sink_temperature: Kelvin,
    /// Per-interval profiles.
    pub intervals: Vec<IntervalProfile>,
    /// Wall-time / work diagnostics (ignored by equality).
    pub stats: EvalStats,
}

impl Evaluation {
    /// Performance relative to a baseline evaluation of the same workload
    /// (1.0 = equal).
    pub fn relative_performance(&self, base: &Evaluation) -> f64 {
        self.bips / base.bips
    }

    /// Scores this evaluation against a reliability model: the
    /// application's FIT (§3.6).
    pub fn application_fit(&self, model: &ReliabilityModel) -> ApplicationFit {
        let mut tracker = ramp::FitTracker::new();
        for iv in &self.intervals {
            tracker.record(model, iv.duration, &iv.conditions);
        }
        tracker.finish(model)
    }

    /// Hottest structure temperature observed in any interval.
    ///
    /// An evaluation with no measured intervals has no interval
    /// temperatures to take a maximum over; the heat-sink temperature —
    /// the one temperature such an evaluation still carries — is
    /// returned instead of an unphysical `-inf` sentinel.
    pub fn max_temperature(&self) -> Kelvin {
        if self.intervals.is_empty() {
            return self.sink_temperature;
        }
        let mut max = Kelvin(f64::NEG_INFINITY);
        for iv in &self.intervals {
            for (_, c) in iv.conditions.iter() {
                max = max.max(c.temperature);
            }
        }
        max
    }

    /// Time-weighted average total power.
    pub fn average_power(&self) -> Watts {
        let total_time: f64 = self.intervals.iter().map(|i| i.duration.0).sum();
        if total_time <= 0.0 {
            return Watts(0.0);
        }
        Watts(
            self.intervals
                .iter()
                .map(|i| i.power.0 * i.duration.0)
                .sum::<f64>()
                / total_time,
        )
    }

    /// Highest activity factor of any structure in any interval (the
    /// paper's `α_qual` is the maximum across the application suite).
    ///
    /// An evaluation with no measured intervals reports `0.0`: nothing
    /// ran, so nothing toggled.
    pub fn max_activity(&self) -> f64 {
        self.intervals
            .iter()
            .flat_map(|i| i.conditions.iter().map(|(_, c)| c.activity))
            .fold(0.0, f64::max)
    }
}

/// The cycle-level timing stage of an evaluation, separated out so it can
/// be cached and shared.
///
/// Timing depends on a [`CoreConfig`] only through its
/// [`timing_key`](CoreConfig::timing_key) — voltage feeds power and
/// reliability, never cycle counts — so one `TimingRun` can seed
/// [`Evaluator::evaluate_with_timing`] for every voltage of a DVS grid at
/// the same frequency, bit-identically to re-simulating each point.
#[derive(Debug, Clone)]
pub struct TimingRun {
    intervals: Vec<IntervalStats>,
    wall: Duration,
}

impl TimingRun {
    /// Reassembles a run from its parts — the deserialization entry
    /// point for the persistent evaluation store, which reconstructs
    /// runs bit-identically from disk records.
    #[must_use]
    pub fn from_parts(intervals: Vec<IntervalStats>, wall: Duration) -> TimingRun {
        TimingRun { intervals, wall }
    }

    /// Per-interval timing statistics.
    pub fn intervals(&self) -> &[IntervalStats] {
        &self.intervals
    }

    /// Whole-run IPC: identical arithmetic to `RunStats::ipc` over the
    /// same intervals (total instructions over total cycles).
    pub fn ipc(&self) -> f64 {
        let cycles: u64 = self.intervals.iter().map(|iv| iv.cycles).sum();
        if cycles == 0 {
            0.0
        } else {
            self.intervals.iter().map(|iv| iv.instructions).sum::<u64>() as f64 / cycles as f64
        }
    }

    /// Wall time of the cycle simulation that produced this run (carried
    /// into [`EvalStats`] so reused timing still reports its true cost).
    pub fn wall(&self) -> Duration {
        self.wall
    }
}

/// The evaluator: power and thermal models plus simulation parameters.
#[derive(Debug, Clone)]
pub struct Evaluator {
    power: PowerModel,
    thermal: ThermalModel,
    params: EvalParams,
    slice: Option<SliceParams>,
}

impl Evaluator {
    /// Creates an evaluator.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] when the parameters fail
    /// [`EvalParams::validate`].
    pub fn new(
        power: PowerModel,
        thermal: ThermalModel,
        params: EvalParams,
    ) -> Result<Evaluator, SimError> {
        params.validate()?;
        Ok(Evaluator {
            power,
            thermal,
            params,
            slice: None,
        })
    }

    /// The default 65 nm stack with the given simulation lengths.
    pub fn ibm_65nm(params: EvalParams) -> Result<Evaluator, SimError> {
        Evaluator::new(PowerModel::ibm_65nm(), ThermalModel::hotspot_65nm(), params)
    }

    /// The power model in use.
    pub fn power_model(&self) -> &PowerModel {
        &self.power
    }

    /// The thermal model in use.
    pub fn thermal_model(&self) -> &ThermalModel {
        &self.thermal
    }

    /// The simulation parameters.
    pub fn params(&self) -> &EvalParams {
        &self.params
    }

    /// The leakage/temperature fixed point at `config`.
    pub(crate) fn solver<'a>(&'a self, config: &'a CoreConfig) -> Solver<'a> {
        Solver {
            power: &self.power,
            thermal: &self.thermal,
            config,
            iterations: self.params.leakage_iterations,
        }
    }

    /// Enables sliced timing: every timing run of this evaluator — and of
    /// anything built on it (batch engine, oracle, server) — is cut into
    /// checkpointed slices and, when a complete persisted cut set exists,
    /// resumed in parallel. Results are bit-identical to the unsliced
    /// path at any worker count.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] when `slice` fails
    /// [`SliceParams::validate`] against this evaluator's parameters.
    pub fn with_slice(mut self, slice: SliceParams) -> Result<Evaluator, SimError> {
        slice.validate(&self.params)?;
        self.slice = Some(slice);
        Ok(self)
    }

    /// The slice parameters, when sliced timing is enabled.
    pub fn slice(&self) -> Option<&SliceParams> {
        self.slice.as_ref()
    }

    /// Evaluates a paper workload on `config`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] when the configuration is
    /// invalid.
    pub fn evaluate(&self, app: App, config: &CoreConfig) -> Result<Evaluation, SimError> {
        self.evaluate_profile(&app.profile(), config)
    }

    /// Evaluates an arbitrary workload profile on `config`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] when the configuration or
    /// profile is invalid.
    pub fn evaluate_profile(
        &self,
        profile: &AppProfile,
        config: &CoreConfig,
    ) -> Result<Evaluation, SimError> {
        profile.validate()?;
        let _eval_span = sim_obs::span!("eval");
        let timing = self.run_timing(profile, config)?;
        self.finish_evaluation(profile, config, &timing)
    }

    /// Runs only the cycle-level timing stage for `profile` on `config`.
    ///
    /// The result depends on `config` only through
    /// [`CoreConfig::timing_key`], so it can be cached and fed to
    /// [`evaluate_with_timing`](Evaluator::evaluate_with_timing) for any
    /// configuration sharing that key (any voltage at the same frequency
    /// and microarchitecture).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] when the configuration or
    /// profile is invalid.
    pub fn timing_run(
        &self,
        profile: &AppProfile,
        config: &CoreConfig,
    ) -> Result<TimingRun, SimError> {
        profile.validate()?;
        self.run_timing(profile, config)
    }

    /// Evaluates `profile` on `config` reusing an already-computed timing
    /// stage — the power/thermal passes of
    /// [`evaluate_profile`](Evaluator::evaluate_profile) without the
    /// cycle simulation. Bit-identical to a full evaluation when `timing`
    /// came from a configuration with the same
    /// [`timing_key`](CoreConfig::timing_key).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] when the configuration or
    /// profile is invalid.
    pub fn evaluate_with_timing(
        &self,
        profile: &AppProfile,
        config: &CoreConfig,
        timing: &TimingRun,
    ) -> Result<Evaluation, SimError> {
        profile.validate()?;
        // The full path validates through `Processor::new`; the reuse
        // path skips the processor, so validate explicitly.
        config.validate()?;
        let _eval_span = sim_obs::span!("eval");
        self.finish_evaluation(profile, config, timing)
    }

    /// Runs the timing stage sliced, regardless of whether this evaluator
    /// was built [`with_slice`](Evaluator::with_slice): the measured run
    /// is cut into `slice.instructions`-sized slices at interval
    /// boundaries. When `slice.checkpoint_dir` holds a complete persisted
    /// cut set for this run's [`RunDigest`] and slice length the slices are
    /// restored and simulated in parallel on `slice.workers` threads;
    /// otherwise a sequential cut pass runs the workload once, persisting
    /// a checkpoint at every cut so later runs can resume in parallel.
    ///
    /// Either path returns a [`TimingRun`] bit-identical to
    /// [`timing_run`](Evaluator::timing_run).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] when the configuration,
    /// profile, or slice shape is invalid, or when a checkpoint file is
    /// present but corrupt or mismatched.
    pub fn timing_run_sliced(
        &self,
        profile: &AppProfile,
        config: &CoreConfig,
        slice: &SliceParams,
    ) -> Result<TimingRun, SimError> {
        profile.validate()?;
        self.run_timing_sliced(profile, config, slice)
    }

    /// The timing stage. Dispatches to the sliced path when the evaluator
    /// carries slice parameters; otherwise a lone run feeds the core from
    /// an empty tape, which is the live stream from its first op.
    fn run_timing(&self, profile: &AppProfile, config: &CoreConfig) -> Result<TimingRun, SimError> {
        match &self.slice {
            Some(slice) => self.run_timing_sliced(profile, config, slice),
            None => self.run_timing_tape(
                &OpTape::record(profile.clone(), self.params.seed, 0),
                config,
            ),
        }
    }

    /// The unsliced timing stage: tape source → prewarm → warmup →
    /// measured cycle simulation. The core replays the tape and continues
    /// the live stream past its end, so the run is bit-identical at any
    /// tape length; a batch pass records one tape per app and hands it to
    /// every run. Opens the `eval.timing` span but not the outer `eval`
    /// span, so callers control the nesting.
    pub(crate) fn run_timing_tape(
        &self,
        tape: &OpTape,
        config: &CoreConfig,
    ) -> Result<TimingRun, SimError> {
        debug_assert_eq!(tape.seed(), self.params.seed, "tape from another seed");
        let start = Instant::now();
        let _timing_span = sim_obs::span!("eval.timing");
        let profile = tape.profile();
        let mut cpu = Processor::new(config.clone(), tape.source())?;

        // Steady-state warm start: prefill the resident footprint and run
        // the warmup, discarding its statistics.
        let resident = profile.data_working_set.min(self.params.prewarm_bytes);
        cpu.prewarm(DATA_BASE, resident, 0, profile.code_footprint);
        if self.params.warmup_instructions > 0 {
            let _ = cpu.run_instructions(self.params.warmup_instructions);
        }

        // Timing pass: collect per-interval activity.
        let run = cpu.run(
            self.params.measure_instructions,
            self.params.interval_instructions,
        );
        Ok(TimingRun {
            intervals: run.intervals().to_vec(),
            wall: start.elapsed(),
        })
    }

    /// The sliced timing stage (see
    /// [`timing_run_sliced`](Evaluator::timing_run_sliced)).
    fn run_timing_sliced(
        &self,
        profile: &AppProfile,
        config: &CoreConfig,
        slice: &SliceParams,
    ) -> Result<TimingRun, SimError> {
        slice.validate(&self.params)?;
        config.validate()?;
        let start = Instant::now();
        let _timing_span = sim_obs::span!("eval.timing");
        let lens = slice_lengths(self.params.measure_instructions, slice.instructions);
        // The digest is computed only when a checkpoint directory can use it.
        let store = match &slice.checkpoint_dir {
            Some(dir) => Some((
                CheckpointStore::new(dir)?,
                RunDigest::new(profile, config, &self.params),
            )),
            None => None,
        };
        if let Some((store, digest)) = &store {
            if let Some(cuts) = store.load_run(*digest, slice.instructions, lens.len())? {
                let intervals = self.run_slices(profile, config, &cuts, &lens, slice.workers)?;
                return Ok(TimingRun {
                    intervals,
                    wall: start.elapsed(),
                });
            }
        }
        self.run_timing_cut(
            profile,
            config,
            &lens,
            store.as_ref(),
            slice.instructions,
            start,
        )
    }

    /// The sequential cut pass: one full-length run, persisting a
    /// checkpoint at every slice boundary (cut `k` is the state *before*
    /// slice `k`, i.e. after warmup plus `k` slices of measurement). The
    /// per-interval statistics come out of the same `run_instructions`
    /// call sequence the unsliced path makes, so the result is
    /// bit-identical by construction.
    fn run_timing_cut(
        &self,
        profile: &AppProfile,
        config: &CoreConfig,
        lens: &[u64],
        store: Option<&(CheckpointStore, RunDigest)>,
        slice_instructions: u64,
        start: Instant,
    ) -> Result<TimingRun, SimError> {
        let stream = SyntheticStream::new(profile.clone(), self.params.seed);
        let mut cpu = Processor::new(config.clone(), stream)?;
        let resident = profile.data_working_set.min(self.params.prewarm_bytes);
        cpu.prewarm(DATA_BASE, resident, 0, profile.code_footprint);
        if self.params.warmup_instructions > 0 {
            let _ = cpu.run_instructions(self.params.warmup_instructions);
        }
        let mut intervals = Vec::with_capacity(
            (self.params.measure_instructions / self.params.interval_instructions + 1) as usize,
        );
        for (k, &len) in lens.iter().enumerate() {
            if let Some((store, digest)) = store {
                let checkpoint = Checkpoint {
                    workload: profile.name.clone(),
                    seed: self.params.seed,
                    fingerprint: digest.0,
                    stream: cpu.source().state(),
                    pipeline: cpu.state(),
                };
                store.save(&checkpoint, slice_instructions, k)?;
            }
            let mut remaining = len;
            while remaining > 0 {
                let n = remaining.min(self.params.interval_instructions);
                intervals.push(cpu.run_instructions(n));
                remaining -= n;
            }
        }
        Ok(TimingRun {
            intervals,
            wall: start.elapsed(),
        })
    }

    /// The parallel resume path: every slice restores its checkpoint and
    /// simulates independently; per-slice interval statistics are folded
    /// back in slice order. A checkpoint that does not fit the processor
    /// fails naming its file.
    fn run_slices(
        &self,
        profile: &AppProfile,
        config: &CoreConfig,
        cuts: &[(PathBuf, Checkpoint)],
        lens: &[u64],
        workers: usize,
    ) -> Result<Vec<IntervalStats>, SimError> {
        // A valid cut set partitions the measurement: cut k must sit at
        // exactly warmup + k slices of committed instructions.
        let mut expected = self.params.warmup_instructions;
        for (k, (_, cut)) in cuts.iter().enumerate() {
            if cut.instructions() != expected {
                return Err(SimError::invalid_config(format!(
                    "checkpoint {k} cut at {} instructions, expected {expected}",
                    cut.instructions()
                )));
            }
            expected += lens[k];
        }
        let seed = self.params.seed;
        let interval = self.params.interval_instructions;
        let count = cuts.len();
        let workers = workers.max(1).min(count);
        let next = AtomicUsize::new(0);
        let (tx, rx) = mpsc::channel();
        thread::scope(|scope| {
            for w in 0..workers {
                let tx = tx.clone();
                let next = &next;
                thread::Builder::new()
                    .name(format!("drm-slice-{w}"))
                    .spawn_scoped(scope, move || loop {
                        let k = next.fetch_add(1, Ordering::Relaxed);
                        if k >= count {
                            break;
                        }
                        let (path, cut) = &cuts[k];
                        let result = run_one_slice(profile, seed, config, cut, lens[k], interval)
                            .map_err(|e| {
                                SimError::invalid_config(format!("{}: {e}", path.display()))
                            });
                        if tx.send((k, result)).is_err() {
                            break;
                        }
                    })
                    .expect("failed to spawn slice worker");
            }
        });
        drop(tx);
        let mut per_slice: Vec<Option<Vec<IntervalStats>>> = vec![None; count];
        for (k, result) in rx {
            per_slice[k] = Some(result?);
        }
        let mut intervals =
            Vec::with_capacity((self.params.measure_instructions / interval + 1) as usize);
        for (k, stats) in per_slice.into_iter().enumerate() {
            match stats {
                Some(stats) => intervals.extend(stats),
                None => {
                    return Err(SimError::invalid_config(format!(
                        "slice {k} produced no result"
                    )))
                }
            }
        }
        Ok(intervals)
    }

    /// The power/thermal stages (§6.3 passes 1 and 2) over a finished
    /// timing run. Opens no `eval` span of its own — both public entry
    /// points wrap it in one.
    fn finish_evaluation(
        &self,
        profile: &AppProfile,
        config: &CoreConfig,
        timing_run: &TimingRun,
    ) -> Result<Evaluation, SimError> {
        let mut stages = StageTimes::new();
        stages.record("eval.timing", timing_run.wall);
        let timing = &timing_run.intervals;

        // Pass 1 (§6.3): iterate average power ↔ sink temperature to find
        // the steady-state heat-sink operating point; the sink follows the
        // duration-weighted average power over the intervals.
        let sink_start = Instant::now();
        let sink_span = sim_obs::span!("eval.sink");
        let solver = self.solver(config);
        let mut temps_guess = vec![StructureMap::splat(Kelvin(345.0)); timing.len()];
        let dt = |iv: &IntervalStats| iv.cycles as f64 / config.frequency.0;
        let time: f64 = timing.iter().map(dt).sum();
        let (sink, mut fixed_point) = solver.sink_pass(
            timing.iter().map(|iv| &iv.activity),
            &mut temps_guess,
            |powers| {
                let energy: f64 = powers
                    .iter()
                    .zip(timing)
                    .map(|(p, iv)| p.total().0 * dt(iv))
                    .sum();
                Watts(if time > 0.0 { energy / time } else { 0.0 })
            },
        );
        sim_obs::hist!("eval.sink.residual_k", fixed_point.residual_k);
        drop(sink_span);
        stages.record("eval.sink", sink_start.elapsed());

        // Pass 2: final per-interval temperatures and conditions with the
        // sink pinned, iterating the leakage fixed point per interval.
        let thermal_start = Instant::now();
        let thermal_span = sim_obs::span!("eval.thermal");
        let mut intervals = Vec::with_capacity(timing.len());
        let mut temps = StructureMap::splat(sink);
        // Hoisted out of the per-interval loop: when metrics are off this
        // is the whole cost of instrumentation here, and when they are on
        // the histogram names are formatted once per evaluation instead
        // of once per structure per interval.
        let temp_metric_names: Option<Vec<String>> = sim_obs::enabled().then(|| {
            Structure::ALL
                .into_iter()
                .map(|s| format!("thermal.temp.{}", s.name()))
                .collect()
        });
        for iv in timing {
            let (breakdown, report) = solver.pinned(&iv.activity, sink, &mut temps);
            sim_obs::hist!("eval.thermal.residual_k", report.residual_k);
            fixed_point.merge(report);
            if let Some(names) = &temp_metric_names {
                // Per-structure temperature distributions over intervals.
                for (s, t) in temps.iter() {
                    sim_obs::hist!(names[s.index()], t.0);
                }
            }
            let duration = Seconds(dt(iv));
            let conditions = StructureMap::from_fn(|s| StructureConditions {
                temperature: temps[s],
                vdd: config.vdd,
                frequency: config.frequency,
                activity: iv.activity[s],
                powered_fraction: config.powered_fraction(s),
            });
            intervals.push(IntervalProfile {
                duration,
                instructions: iv.instructions,
                ipc: iv.ipc(),
                power: breakdown.total(),
                conditions,
            });
        }
        drop(thermal_span);
        stages.record("eval.thermal", thermal_start.elapsed());

        let stats = EvalStats {
            stages,
            fixed_point,
        };
        let wall_ms = stats.wall().as_secs_f64() * 1e3;
        let ipc = timing_run.ipc();
        let ev = Evaluation {
            workload: profile.name.clone(),
            config: config.clone(),
            ipc,
            bips: ipc * config.frequency.to_ghz(),
            sink_temperature: sink,
            intervals,
            stats,
        };
        sim_obs::counter!("drm.evals", 1);
        sim_obs::hist!("drm.eval.wall_ms", wall_ms);
        sim_obs::log_debug!(
            "drm.eval",
            "{} @ {:.2} GHz: IPC {ipc:.3}, peak {:.1} K, {:?}, {wall_ms:.1} ms",
            profile.name,
            config.frequency.to_ghz(),
            ev.max_temperature().0,
            ev.stats.fixed_point,
        );
        Ok(ev)
    }
}

/// Restores one checkpoint and simulates its slice, returning the slice's
/// interval statistics. The restored processor replays exactly the
/// `run_instructions` call sequence the sequential run makes over the same
/// instructions (slice lengths are multiples of the interval length, so
/// interval boundaries coincide), which is what makes slice parity
/// bit-exact.
fn run_one_slice(
    profile: &AppProfile,
    seed: u64,
    config: &CoreConfig,
    cut: &Checkpoint,
    len: u64,
    interval: u64,
) -> Result<Vec<IntervalStats>, SimError> {
    let stream = SyntheticStream::restore(profile.clone(), seed, &cut.stream)?;
    let mut cpu = Processor::new(config.clone(), stream)?;
    cpu.restore_state(&cut.pipeline)?;
    let mut out = Vec::with_capacity((len / interval + 1) as usize);
    let mut remaining = len;
    while remaining > 0 {
        let n = remaining.min(interval);
        out.push(cpu.run_instructions(n));
        remaining -= n;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dvs::DvsPoint;
    use crate::space::ArchPoint;
    use ramp::{FailureParams, QualificationPoint, ReliabilityModel};
    use sim_common::{Floorplan, Hertz, Volts};

    fn evaluator() -> Evaluator {
        Evaluator::ibm_65nm(EvalParams::quick()).unwrap()
    }

    fn model(t_qual: f64) -> ReliabilityModel {
        ReliabilityModel::qualify(
            FailureParams::ramp_65nm(),
            &QualificationPoint::at_temperature(Kelvin(t_qual), 0.35),
            &Floorplan::r10000_65nm().area_shares(),
            4000.0,
        )
        .unwrap()
    }

    #[test]
    fn base_evaluation_is_sane() {
        let ev = evaluator()
            .evaluate(App::Gzip, &CoreConfig::base())
            .unwrap();
        assert!(ev.ipc > 0.5 && ev.ipc < 8.0, "ipc {}", ev.ipc);
        assert!((ev.bips - ev.ipc * 4.0).abs() < 1e-9);
        assert!(!ev.intervals.is_empty());
        let p = ev.average_power().0;
        assert!((8.0..60.0).contains(&p), "power {p} W");
        let t = ev.max_temperature().0;
        assert!((330.0..430.0).contains(&t), "temp {t} K");
        assert!(ev.sink_temperature.0 > 318.15);
    }

    #[test]
    fn hot_app_is_hotter_and_hungrier_than_cool_app() {
        let e = evaluator();
        let hot = e.evaluate(App::MpgDec, &CoreConfig::base()).unwrap();
        let cool = e.evaluate(App::Twolf, &CoreConfig::base()).unwrap();
        assert!(hot.average_power() > cool.average_power());
        assert!(hot.max_temperature() > cool.max_temperature());
    }

    #[test]
    fn lower_frequency_runs_cooler_and_slower() {
        let e = evaluator();
        let base = e.evaluate(App::Bzip2, &CoreConfig::base()).unwrap();
        let slow_cfg = ArchPoint::most_aggressive()
            .apply(&CoreConfig::base(), DvsPoint::at_ghz(2.5).unwrap())
            .unwrap();
        let slow = e.evaluate(App::Bzip2, &slow_cfg).unwrap();
        assert!(slow.bips < base.bips);
        assert!(slow.max_temperature() < base.max_temperature());
        assert!(slow.average_power().0 < 0.6 * base.average_power().0);
    }

    #[test]
    fn lower_frequency_reduces_fit() {
        let e = evaluator();
        let m = model(345.0);
        let base = e.evaluate(App::Equake, &CoreConfig::base()).unwrap();
        let slow_cfg = ArchPoint::most_aggressive()
            .apply(&CoreConfig::base(), DvsPoint::at_ghz(3.0).unwrap())
            .unwrap();
        let slow = e.evaluate(App::Equake, &slow_cfg).unwrap();
        assert!(
            slow.application_fit(&m).total() < base.application_fit(&m).total(),
            "DVS down must reduce FIT"
        );
    }

    #[test]
    fn smaller_microarchitecture_reduces_fit_and_performance() {
        let e = evaluator();
        let m = model(345.0);
        let base = e.evaluate(App::MpgDec, &CoreConfig::base()).unwrap();
        let small_cfg = ArchPoint {
            window: 16,
            alus: 2,
            fpus: 1,
        }
        .apply(&CoreConfig::base(), DvsPoint::base())
        .unwrap();
        let small = e.evaluate(App::MpgDec, &small_cfg).unwrap();
        assert!(small.relative_performance(&base) < 1.0);
        assert!(small.application_fit(&m).total() < base.application_fit(&m).total());
    }

    #[test]
    fn evaluation_is_deterministic() {
        let e = evaluator();
        let a = e.evaluate(App::Ammp, &CoreConfig::base()).unwrap();
        let b = e.evaluate(App::Ammp, &CoreConfig::base()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn stats_are_populated_and_ignored_by_equality() {
        let e = evaluator();
        let a = e.evaluate(App::Gzip, &CoreConfig::base()).unwrap();
        assert!(a.stats.wall() > Duration::ZERO);
        assert!(a.stats.timing() > Duration::ZERO);
        assert!(a.stats.wall() >= a.stats.timing());
        assert!(a.stats.power_thermal() > Duration::ZERO);
        // The pass-1 sink solve plus one solve per interval (quick(): 4
        // intervals), 3 iterations each; the base point never clamps.
        assert_eq!(a.stats.fixed_point_iterations(), 3 * (1 + 4));
        assert_eq!(a.stats.fixed_point.clamped, 0);
        assert!(a.stats.fixed_point.residual_k > 0.0);
        // Stage names line up with the emitted span names.
        let stages: Vec<_> = a.stats.stages.iter().map(|(n, _)| n).collect();
        assert_eq!(stages, ["eval.timing", "eval.sink", "eval.thermal"]);
        // Equality must not depend on wall time: compare against a copy
        // with zeroed stats.
        let mut b = a.clone();
        b.stats = EvalStats::default();
        assert_eq!(a, b);
    }

    /// At the paper's default lengths and base point no app's fixed
    /// point reaches the junction ceiling.
    #[test]
    fn paper_default_base_points_never_clamp() {
        let e = Evaluator::ibm_65nm(EvalParams::standard()).unwrap();
        for app in App::ALL {
            let ev = e.evaluate(app, &CoreConfig::base()).unwrap();
            let report = ev.stats.fixed_point;
            assert_eq!(report.clamped, 0, "{app}: {report:?}");
            assert!(ev.max_temperature().0 < crate::solve::MAX_JUNCTION_K);
        }
    }

    /// 5 GHz at 1.11 V on the hottest app is past thermal runaway: the
    /// ceiling clamps, and the report says so.
    #[test]
    fn a_runaway_point_reports_its_clamps() {
        let hot = CoreConfig::base().with_dvs(Hertz::from_ghz(5.0), Volts(1.11));
        let ev = evaluator().evaluate(App::MpgDec, &hot).unwrap();
        assert!(
            ev.stats.fixed_point.clamped > 0,
            "{:?}",
            ev.stats.fixed_point
        );
        assert_eq!(ev.max_temperature(), Kelvin(crate::solve::MAX_JUNCTION_K));
    }

    #[test]
    fn tape_fed_timing_matches_the_live_stream_at_any_tape_length() {
        let params = EvalParams {
            warmup_instructions: 2_000,
            measure_instructions: 8_000,
            interval_instructions: 2_000,
            ..EvalParams::quick()
        };
        let e = Evaluator::ibm_65nm(params).unwrap();
        let profile = App::Twolf.profile();
        let config = CoreConfig::base();
        let live = e.timing_run(&profile, &config).unwrap();
        let full = 10_000 + config.max_in_flight() as usize;
        // Empty, running out mid-measurement, and covering the whole run.
        for len in [0, 3_000, full] {
            let tape = OpTape::record(profile.clone(), params.seed, len);
            let run = e.run_timing_tape(&tape, &config).unwrap();
            assert_eq!(run.intervals(), live.intervals(), "tape of {len} ops");
        }
    }

    #[test]
    fn timing_reuse_is_bit_identical_across_a_voltage_grid() {
        let e = evaluator();
        let profile = App::H263Enc.profile();
        let freq = Hertz::from_ghz(3.5);
        let base = CoreConfig::base();
        let timing = e
            .timing_run(&profile, &base.with_dvs(freq, Volts(1.0)))
            .unwrap();
        for vdd in [0.85, 0.95, 1.05, 1.15] {
            let config = base.with_dvs(freq, Volts(vdd));
            assert_eq!(
                config.timing_key(),
                base.with_dvs(freq, Volts(1.0)).timing_key()
            );
            let reused = e.evaluate_with_timing(&profile, &config, &timing).unwrap();
            let fresh = e.evaluate_profile(&profile, &config).unwrap();
            assert_eq!(reused, fresh, "vdd {vdd}");
        }
    }

    #[test]
    fn evaluate_with_timing_validates_config() {
        let e = evaluator();
        let profile = App::Gzip.profile();
        let timing = e.timing_run(&profile, &CoreConfig::base()).unwrap();
        let mut bad = CoreConfig::base();
        bad.vdd = sim_common::Volts(0.0);
        assert!(e.evaluate_with_timing(&profile, &bad, &timing).is_err());
    }

    #[test]
    fn interval_temperatures_derive_from_conditions() {
        let e = evaluator();
        let ev = e.evaluate(App::Gzip, &CoreConfig::base()).unwrap();
        for iv in &ev.intervals {
            let temps = iv.temperatures();
            for (s, c) in iv.conditions.iter() {
                assert_eq!(temps[s], c.temperature);
            }
        }
        assert!(ev.max_temperature() >= ev.intervals[0].temperatures()[Structure::Bpred]);
    }

    #[test]
    fn fit_scoring_is_reusable_across_qualification_points() {
        // One evaluation scored against models at different T_qual: the
        // cheaper qualification must report a (proportionally) higher FIT.
        let e = evaluator();
        let ev = e.evaluate(App::Gzip, &CoreConfig::base()).unwrap();
        let expensive = ev.application_fit(&model(400.0)).total();
        let cheap = ev.application_fit(&model(330.0)).total();
        assert!(cheap > expensive);
    }

    #[test]
    fn interval_durations_match_cycles() {
        let e = evaluator();
        let ev = e.evaluate(App::Art, &CoreConfig::base()).unwrap();
        for iv in &ev.intervals {
            assert!(iv.duration.0 > 0.0);
            assert_eq!(iv.instructions, e.params().interval_instructions);
        }
    }

    #[test]
    fn empty_interval_sentinels() {
        // Regression: an evaluation stripped of intervals used to report
        // max_temperature() == -inf. The documented sentinels are the
        // sink temperature and zero activity.
        let e = evaluator();
        let mut ev = e.evaluate(App::Gzip, &CoreConfig::base()).unwrap();
        ev.intervals.clear();
        assert_eq!(ev.max_temperature(), ev.sink_temperature);
        assert!(ev.max_temperature().0.is_finite());
        assert_eq!(ev.max_activity(), 0.0);
        assert_eq!(ev.average_power(), Watts(0.0));
    }

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("ramp-slice-eval-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn sliced_timing_without_checkpoints_is_bit_identical() {
        // No checkpoint directory: the cut pass still partitions the run
        // into slices but persists nothing; parity must hold regardless.
        let e = evaluator();
        let sliced = e.clone().with_slice(SliceParams::new(30_000)).unwrap();
        let plain = e.evaluate(App::Art, &CoreConfig::base()).unwrap();
        let cut = sliced.evaluate(App::Art, &CoreConfig::base()).unwrap();
        assert_eq!(plain, cut);
    }

    #[test]
    fn sliced_resume_is_bit_identical_at_any_worker_count() {
        let dir = temp_dir("resume");
        let e = evaluator();
        let plain = e.evaluate(App::MpgDec, &CoreConfig::base()).unwrap();
        // First sliced run: no cut set yet → sequential cut pass that
        // persists one checkpoint per slice (quick(): 120k/30k → 4).
        let slice = SliceParams::new(30_000).with_dir(&dir);
        let sliced = e.clone().with_slice(slice.clone()).unwrap();
        let cut = sliced.evaluate(App::MpgDec, &CoreConfig::base()).unwrap();
        assert_eq!(plain, cut);
        let store = CheckpointStore::new(&dir).unwrap();
        assert_eq!(store.list().unwrap().len(), 4);
        // Later runs restore the cuts and fan the slices out in parallel.
        for workers in [1, 4] {
            let resumed = e
                .clone()
                .with_slice(slice.clone().with_workers(workers))
                .unwrap()
                .evaluate(App::MpgDec, &CoreConfig::base())
                .unwrap();
            assert_eq!(plain, resumed, "workers {workers}");
        }
        // A measurement-length change is another run: it cuts a set of
        // its own next to the first and keeps parity there too.
        let mut short_params = *e.params();
        short_params.measure_instructions = 60_000;
        let short = Evaluator::ibm_65nm(short_params).unwrap();
        let short_plain = short.evaluate(App::MpgDec, &CoreConfig::base()).unwrap();
        let short_sliced = short
            .clone()
            .with_slice(slice.with_workers(2))
            .unwrap()
            .evaluate(App::MpgDec, &CoreConfig::base())
            .unwrap();
        assert_eq!(short_plain, short_sliced);
        assert_eq!(store.list().unwrap().len(), 4 + 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_checkpoint_that_does_not_fit_fails_naming_its_file() {
        let dir = temp_dir("misfit");
        let slice = SliceParams::new(30_000).with_dir(&dir);
        let sliced = evaluator().with_slice(slice).unwrap();
        sliced.evaluate(App::Gzip, &CoreConfig::base()).unwrap();
        // One integer unit short: the file parses, the processor refuses it.
        let (path, _) = CheckpointStore::new(&dir)
            .unwrap()
            .list()
            .unwrap()
            .pop()
            .unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let misfit: String = text
            .lines()
            .map(|l| {
                let l = if l.starts_with("pipe.int_free ") {
                    "pipe.int_free 1 0"
                } else {
                    l
                };
                format!("{l}\n")
            })
            .collect();
        std::fs::write(&path, misfit).unwrap();
        let err = sliced
            .evaluate(App::Gzip, &CoreConfig::base())
            .unwrap_err()
            .to_string();
        assert!(err.contains(&path.display().to_string()), "{err}");
        assert!(err.contains("integer unit count mismatch"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sliced_timing_run_matches_timing_run() {
        let dir = temp_dir("timing");
        let e = evaluator();
        let profile = App::Gzip.profile();
        let config = CoreConfig::base();
        let plain = e.timing_run(&profile, &config).unwrap();
        let slice = SliceParams::new(60_000).with_dir(&dir).with_workers(2);
        // Cut pass, then resume pass.
        let cut = e.timing_run_sliced(&profile, &config, &slice).unwrap();
        let resumed = e.timing_run_sliced(&profile, &config, &slice).unwrap();
        assert_eq!(plain.intervals(), cut.intervals());
        assert_eq!(plain.intervals(), resumed.intervals());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Two profiles with one name and one stream count but different
    /// content share a checkpoint directory: each sliced run resumes only
    /// its own cuts and equals its own unsliced run.
    #[test]
    fn profiles_sharing_a_name_never_share_cuts() {
        let dir = temp_dir("same-name");
        let e = evaluator();
        let config = CoreConfig::base();
        let builtin = App::Gzip.profile();
        let variant = AppProfile {
            dep_mean_int: builtin.dep_mean_int + 2.0,
            branch_noise: builtin.branch_noise / 2.0,
            ..builtin.clone()
        };
        assert_eq!(variant.name, builtin.name);
        assert_eq!(variant.access_streams, builtin.access_streams);
        let slice = SliceParams::new(30_000).with_dir(&dir).with_workers(2);
        for profile in [&builtin, &variant, &builtin, &variant] {
            let plain = e.timing_run(profile, &config).unwrap();
            let sliced = e.timing_run_sliced(profile, &config, &slice).unwrap();
            assert_eq!(plain.intervals(), sliced.intervals());
        }
        let plain = e.timing_run(&builtin, &config).unwrap();
        let other = e.timing_run(&variant, &config).unwrap();
        assert_ne!(
            plain.intervals(),
            other.intervals(),
            "the profiles must differ"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The run digest is pinned, covers every input a timing run depends
    /// on, and leaves out what never moves a cycle.
    #[test]
    fn run_digest_covers_every_timing_input() {
        let profile = App::Gzip.profile();
        let base = CoreConfig::base();
        let params = EvalParams::quick();
        let digest = RunDigest::new(&profile, &base, &params);
        assert_eq!(digest, RunDigest(0xe91b_5a56_8571_c529));
        assert_eq!(digest.to_string(), format!("{:016x}", digest.0));
        // Profile content separates under the same name.
        let variant = AppProfile {
            hot_fraction: profile.hot_fraction / 2.0,
            ..profile.clone()
        };
        assert_ne!(digest, RunDigest::new(&variant, &base, &params));
        // A timing-key field separates.
        let arch = base.with_adaptation(64, 4, 2).unwrap();
        assert_ne!(digest, RunDigest::new(&profile, &arch, &params));
        let slower = base.with_dvs(sim_common::Hertz::from_ghz(3.0), base.vdd);
        assert_ne!(digest, RunDigest::new(&profile, &slower, &params));
        // Every run-shape field separates.
        for shape in [
            EvalParams {
                warmup_instructions: params.warmup_instructions + 1,
                ..params
            },
            EvalParams {
                measure_instructions: params.measure_instructions * 2,
                ..params
            },
            EvalParams {
                interval_instructions: params.interval_instructions / 2,
                ..params
            },
            EvalParams {
                seed: params.seed + 1,
                ..params
            },
            EvalParams {
                prewarm_bytes: params.prewarm_bytes / 2,
                ..params
            },
        ] {
            assert_ne!(digest, RunDigest::new(&profile, &base, &shape), "{shape:?}");
        }
        // Voltage and leakage iterations never move a cycle.
        let dvs = base.with_dvs(base.frequency, sim_common::Volts(0.85));
        assert_eq!(digest, RunDigest::new(&profile, &dvs, &params));
        let leakage = EvalParams {
            leakage_iterations: params.leakage_iterations + 4,
            ..params
        };
        assert_eq!(digest, RunDigest::new(&profile, &base, &leakage));
        // The nine built-in apps have distinct digests.
        let digests: std::collections::HashSet<RunDigest> = App::ALL
            .iter()
            .map(|app| RunDigest::new(&app.profile(), &base, &params))
            .collect();
        assert_eq!(App::ALL.len(), 9);
        assert_eq!(digests.len(), 9);
    }

    #[test]
    fn with_slice_rejects_unaligned_slices() {
        // quick(): interval 30k — a 45k slice cannot cut on a boundary.
        assert!(evaluator().with_slice(SliceParams::new(45_000)).is_err());
        assert!(evaluator().with_slice(SliceParams::new(0)).is_err());
    }

    #[test]
    fn params_validation() {
        assert!(EvalParams {
            measure_instructions: 0,
            ..EvalParams::quick()
        }
        .validate()
        .is_err());
        assert!(EvalParams {
            interval_instructions: 1_000_000,
            ..EvalParams::quick()
        }
        .validate()
        .is_err());
        assert!(EvalParams {
            leakage_iterations: 0,
            ..EvalParams::quick()
        }
        .validate()
        .is_err());
    }
}
