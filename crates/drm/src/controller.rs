//! A reactive, interval-based DRM control algorithm.
//!
//! The paper's evaluation uses an oracle (§5) and leaves "specific adaptive
//! control algorithms" to future work. This module implements the natural
//! first such algorithm: RAMP runs online (counters + sensors feeding a
//! [`ramp::FitTracker`]), and at every control epoch the controller
//! compares the reliability budget consumed so far against the target and
//! steps the DVS level down when over budget and up when there is
//! headroom. Because reliability — like energy, unlike temperature — can
//! be banked over time (§4), the controller regulates the *time-averaged*
//! FIT rather than an instantaneous quantity.

use ramp::{Fit, FitTracker, ReliabilityModel, StructureConditions};
use sim_common::{Kelvin, Seconds, SimError, StructureMap, Watts};
use sim_cpu::{CoreConfig, Processor};
use sim_power::PowerModel;
use sim_thermal::ThermalModel;
use workload::{App, SyntheticStream, DATA_BASE};

use crate::dvs::{DVS_MAX_GHZ, DVS_MIN_GHZ};
use crate::sensors::{SensorBank, SensorParams};
use crate::solve::{Solver, MAX_JUNCTION_K};

/// Parameters of the reactive controller.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ControllerParams {
    /// Instructions per control epoch.
    pub epoch_instructions: u64,
    /// Total instructions to run.
    pub total_instructions: u64,
    /// DVS step per control action, GHz.
    pub dvs_step_ghz: f64,
    /// Hysteresis band: step up only when the consumed budget is below
    /// `(1 − hysteresis) ×` target (prevents oscillation).
    pub hysteresis: f64,
    /// Workload seed.
    pub seed: u64,
    /// Leakage/temperature fixed-point iterations per epoch.
    pub leakage_iterations: u32,
    /// Bytes of the data working set prefilled before the run.
    pub prewarm_bytes: u64,
    /// Optional thermal design point: when set, the controller also
    /// enforces `T_max` like a DTM policy, stepping down whenever the
    /// epoch's peak temperature exceeds it (§7.3: "future systems must
    /// provide mechanisms to support both together").
    pub thermal_limit: Option<Kelvin>,
    /// Optional sensor model: when set, the controller *decides* from
    /// quantized/noisy/lagged sensor readings while the reported FIT uses
    /// the true temperatures — quantifying the guard band real hardware
    /// RAMP needs (§3).
    pub sensors: Option<SensorParams>,
}

impl ControllerParams {
    /// Fast settings for tests and examples.
    pub fn quick() -> ControllerParams {
        ControllerParams {
            epoch_instructions: 20_000,
            total_instructions: 400_000,
            dvs_step_ghz: 0.25,
            hysteresis: 0.05,
            seed: 12_345,
            leakage_iterations: 2,
            prewarm_bytes: 2 * 1024 * 1024,
            thermal_limit: None,
            sensors: None,
        }
    }

    /// Validates the parameters.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] for zero lengths, a non-positive
    /// step, or hysteresis outside `[0, 1)`.
    pub fn validate(&self) -> Result<(), SimError> {
        if self.epoch_instructions == 0 || self.total_instructions == 0 {
            return Err(SimError::invalid_config("epoch and total must be non-zero"));
        }
        if self.epoch_instructions > self.total_instructions {
            return Err(SimError::invalid_config("epoch longer than the run"));
        }
        if !self.dvs_step_ghz.is_finite() || self.dvs_step_ghz <= 0.0 {
            return Err(SimError::invalid_config("DVS step must be positive"));
        }
        if !(0.0..1.0).contains(&self.hysteresis) {
            return Err(SimError::invalid_config("hysteresis must be in [0,1)"));
        }
        if self.leakage_iterations == 0 {
            return Err(SimError::invalid_config(
                "need at least one leakage iteration",
            ));
        }
        if let Some(t) = self.thermal_limit {
            if !(t.0 > 0.0 && t.0.is_finite()) {
                return Err(SimError::invalid_config("thermal limit must be positive"));
            }
        }
        if let Some(sensors) = self.sensors {
            sensors.validate()?;
        }
        Ok(())
    }
}

impl Default for ControllerParams {
    fn default() -> Self {
        ControllerParams::quick()
    }
}

/// One control epoch in the trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochRecord {
    /// Frequency the epoch ran at, GHz.
    pub ghz: f64,
    /// Running time-averaged FIT after this epoch.
    pub fit_so_far: Fit,
    /// Epoch wall-clock duration.
    pub duration: Seconds,
    /// Peak structure temperature during the epoch.
    pub peak_temperature: Kelvin,
    /// Epoch IPC.
    pub ipc: f64,
}

/// The result of a reactive DRM run.
#[derive(Debug, Clone, PartialEq)]
pub struct ControlTrace {
    /// Per-epoch records in order.
    pub epochs: Vec<EpochRecord>,
    /// Final time-averaged application FIT.
    pub final_fit: Fit,
    /// Achieved performance, billions of instructions per second.
    pub bips: f64,
    /// Number of DVS transitions the controller issued.
    pub frequency_changes: u32,
    /// Epochs whose peak temperature exceeded the thermal limit (always 0
    /// when no limit is configured; transiently nonzero while the
    /// controller reacts).
    pub thermal_violations: u32,
}

impl ControlTrace {
    /// Time-averaged frequency over the run, GHz.
    pub fn average_ghz(&self) -> f64 {
        let time: f64 = self.epochs.iter().map(|e| e.duration.0).sum();
        if time <= 0.0 {
            return 0.0;
        }
        self.epochs
            .iter()
            .map(|e| e.ghz * e.duration.0)
            .sum::<f64>()
            / time
    }
}

/// The reactive DRM controller: power + thermal models and control
/// parameters.
#[derive(Debug, Clone)]
pub struct ReactiveDrm {
    power: PowerModel,
    thermal: ThermalModel,
    params: ControllerParams,
}

impl ReactiveDrm {
    /// Creates a controller.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] when the parameters fail
    /// [`ControllerParams::validate`].
    pub fn new(
        power: PowerModel,
        thermal: ThermalModel,
        params: ControllerParams,
    ) -> Result<ReactiveDrm, SimError> {
        params.validate()?;
        Ok(ReactiveDrm {
            power,
            thermal,
            params,
        })
    }

    /// The default 65 nm stack.
    pub fn ibm_65nm(params: ControllerParams) -> Result<ReactiveDrm, SimError> {
        ReactiveDrm::new(PowerModel::ibm_65nm(), ThermalModel::hotspot_65nm(), params)
    }

    /// Runs `app` under reactive DRM against `model`'s FIT target.
    ///
    /// # Errors
    ///
    /// Propagates configuration errors.
    pub fn run(&self, app: App, model: &ReliabilityModel) -> Result<ControlTrace, SimError> {
        let profile = app.profile();
        let stream = SyntheticStream::new(profile.clone(), self.params.seed);
        let mut config = CoreConfig::base();
        let mut ghz = config.frequency.to_ghz();
        let mut cpu = Processor::new(config.clone(), stream)?;
        let resident = profile.data_working_set.min(self.params.prewarm_bytes);
        cpu.prewarm(DATA_BASE, resident, 0, profile.code_footprint);

        let target = model.target_fit();
        let step_up_threshold = Fit(target.value() * (1.0 - self.params.hysteresis));

        let mut tracker = FitTracker::new();
        // The controller's view of the world: identical to `tracker` with
        // ideal sensors, noisier otherwise.
        let mut decision_tracker = FitTracker::new();
        let mut sensor_bank = match self.params.sensors {
            Some(params) => Some(SensorBank::new(params, self.params.seed ^ 0x5E_A5_ED)?),
            None => None,
        };
        let mut epochs = Vec::new();
        let mut frequency_changes = 0u32;
        let mut thermal_violations = 0u32;
        let mut total_energy = 0.0f64;
        let mut total_time = 0.0f64;
        let mut total_instructions = 0u64;
        let mut temps = StructureMap::splat(Kelvin(345.0));
        let mut sink = self.thermal.steady_sink_temperature(Watts(25.0));

        let mut remaining = self.params.total_instructions;
        while remaining > 0 {
            let n = remaining.min(self.params.epoch_instructions);
            let stats = cpu.run_instructions(n);
            remaining -= n;
            total_instructions += n;

            // Power/temperature for the epoch (sink pinned at the running
            // estimate, leakage fixed point).
            let solver = Solver {
                power: &self.power,
                thermal: &self.thermal,
                config: &config,
                iterations: self.params.leakage_iterations,
            };
            let (breakdown, _) = solver.pinned(&stats.activity, sink, &mut temps);
            let duration = Seconds(stats.cycles as f64 / config.frequency.0);
            total_energy += breakdown.total().0 * duration.0;
            total_time += duration.0;
            sink = self
                .thermal
                .steady_sink_temperature(Watts(total_energy / total_time))
                .min(Kelvin(MAX_JUNCTION_K));

            let conditions = StructureMap::from_fn(|s| StructureConditions {
                temperature: temps[s],
                vdd: config.vdd,
                frequency: config.frequency,
                activity: stats.activity[s],
                powered_fraction: config.powered_fraction(s),
            });
            tracker.record(model, duration, &conditions);

            // What the controller actually sees.
            let sensed_temps = match sensor_bank.as_mut() {
                Some(bank) => bank.sample(&temps),
                None => temps,
            };
            let sensed_conditions = StructureMap::from_fn(|s| StructureConditions {
                temperature: sensed_temps[s],
                ..conditions[s]
            });
            decision_tracker.record(model, duration, &sensed_conditions);
            let fit_so_far = decision_tracker.running_total(model);

            // Decisions use the sensed peak; the trace reports the truth.
            let peak = sensed_temps
                .iter()
                .map(|(_, t)| t.0)
                .fold(f64::MIN, f64::max);
            let true_peak = temps.iter().map(|(_, t)| t.0).fold(f64::MIN, f64::max);
            epochs.push(EpochRecord {
                ghz,
                fit_so_far,
                duration,
                peak_temperature: Kelvin(true_peak),
                ipc: stats.ipc(),
            });

            // Control action: bank or spend reliability budget, and never
            // step into (or stay in) thermal violation when a limit is set.
            let over_thermal = self
                .params
                .thermal_limit
                .is_some_and(|limit| peak > limit.0);
            if over_thermal {
                thermal_violations += 1;
            }
            // Step up only with margin below the thermal limit, or the
            // controller would oscillate across it on FIT headroom alone.
            let thermal_headroom = self
                .params
                .thermal_limit
                .is_none_or(|limit| peak < limit.0 - 3.0);
            let step = self.params.dvs_step_ghz;
            let new_ghz = if fit_so_far > target || over_thermal {
                (ghz - step).max(DVS_MIN_GHZ)
            } else if fit_so_far < step_up_threshold && thermal_headroom {
                (ghz + step).min(DVS_MAX_GHZ)
            } else {
                ghz
            };
            if (new_ghz - ghz).abs() > 1e-9 {
                ghz = new_ghz;
                let vdd = sim_common::Volts(crate::dvs::voltage_for_frequency(ghz));
                let f = sim_common::Hertz::from_ghz(ghz);
                cpu.set_dvs(f, vdd)?;
                config.frequency = f;
                config.vdd = vdd;
                frequency_changes += 1;
            }
        }

        Ok(ControlTrace {
            final_fit: tracker.running_total(model),
            bips: if total_time > 0.0 {
                total_instructions as f64 / total_time / 1e9
            } else {
                0.0
            },
            epochs,
            frequency_changes,
            thermal_violations,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ramp::{FailureParams, QualificationPoint, ReliabilityModel};
    use sim_common::Floorplan;

    fn model(t_qual: f64) -> ReliabilityModel {
        ReliabilityModel::qualify(
            FailureParams::ramp_65nm(),
            &QualificationPoint::at_temperature(Kelvin(t_qual), 0.35),
            &Floorplan::r10000_65nm().area_shares(),
            4000.0,
        )
        .unwrap()
    }

    fn controller() -> ReactiveDrm {
        ReactiveDrm::ibm_65nm(ControllerParams::quick()).unwrap()
    }

    #[test]
    fn overdesigned_processor_gets_overclocked() {
        // At T_qual = 400 K there is headroom; the controller should spend
        // it by raising the frequency above the 4 GHz base.
        let trace = controller().run(App::Twolf, &model(400.0)).unwrap();
        assert!(
            trace.average_ghz() > 4.1,
            "average {:.2} GHz",
            trace.average_ghz()
        );
        assert!(trace.frequency_changes > 0);
    }

    #[test]
    fn underdesigned_processor_gets_throttled() {
        // At T_qual = 325 K a hot app must be slowed below base.
        let trace = controller().run(App::MpgDec, &model(325.0)).unwrap();
        assert!(
            trace.average_ghz() < 4.0,
            "average {:.2} GHz",
            trace.average_ghz()
        );
    }

    #[test]
    fn final_fit_lands_near_target() {
        // The regulator steers the time-averaged FIT toward the target
        // (within a tolerance; the grid is discrete and the run short).
        let trace = controller().run(App::Gzip, &model(350.0)).unwrap();
        let fit = trace.final_fit.value();
        assert!(
            fit < 4000.0 * 1.3,
            "final FIT {fit:.0} overshoots the 4000 target"
        );
        assert!(
            fit > 4000.0 * 0.3,
            "final FIT {fit:.0} leaves headroom unspent"
        );
    }

    #[test]
    fn trace_shape_is_consistent() {
        let params = ControllerParams::quick();
        let trace = ReactiveDrm::ibm_65nm(params)
            .unwrap()
            .run(App::Ammp, &model(370.0))
            .unwrap();
        assert_eq!(
            trace.epochs.len() as u64,
            params.total_instructions / params.epoch_instructions
        );
        assert!(trace.bips > 0.0);
        for e in &trace.epochs {
            assert!((DVS_MIN_GHZ..=DVS_MAX_GHZ).contains(&e.ghz));
            assert!(e.duration.0 > 0.0);
        }
    }

    #[test]
    fn combined_drm_dtm_respects_the_thermal_limit() {
        // §7.3: DRM alone violates a tight thermal limit on a hot app at a
        // generous qualification; the combined controller pulls frequency
        // down until the limit holds.
        let limit = Kelvin(385.0);
        let drm_only = controller().run(App::MpgDec, &model(405.0)).unwrap();
        let hot_epochs = drm_only
            .epochs
            .iter()
            .filter(|e| e.peak_temperature > limit)
            .count();
        assert!(
            hot_epochs > drm_only.epochs.len() / 2,
            "premise: DRM-only should run hot ({hot_epochs} hot epochs)"
        );
        let combined = ReactiveDrm::ibm_65nm(ControllerParams {
            thermal_limit: Some(limit),
            ..ControllerParams::quick()
        })
        .unwrap()
        .run(App::MpgDec, &model(405.0))
        .unwrap();
        // After the transient, epochs obey the limit: violations are a
        // small fraction of the run, and the final epochs are compliant.
        assert!(
            (combined.thermal_violations as usize) < combined.epochs.len() / 2,
            "{} of {} epochs violated",
            combined.thermal_violations,
            combined.epochs.len()
        );
        let tail = &combined.epochs[combined.epochs.len().saturating_sub(3)..];
        for e in tail {
            assert!(
                e.peak_temperature.0 <= limit.0 + 2.0,
                "late epoch still hot: {:?}",
                e.peak_temperature
            );
        }
        assert!(combined.average_ghz() < drm_only.average_ghz());
    }

    #[test]
    fn noisy_sensors_still_regulate_but_less_precisely() {
        // With realistic sensors the controller's decisions are made from
        // corrupted readings; the physically accrued FIT must still land
        // in a sane band around the target, and the run must not diverge.
        let base = ControllerParams::quick();
        let ideal = ReactiveDrm::ibm_65nm(base)
            .unwrap()
            .run(App::Gzip, &model(366.0))
            .unwrap();
        let sensed = ReactiveDrm::ibm_65nm(ControllerParams {
            sensors: Some(crate::sensors::SensorParams::thermal_diode()),
            ..base
        })
        .unwrap()
        .run(App::Gzip, &model(366.0))
        .unwrap();
        // Same physics, so performance and FIT stay within a modest band
        // of the ideal-sensor run.
        assert!(
            (sensed.average_ghz() - ideal.average_ghz()).abs() < 0.5,
            "sensed {:.2} vs ideal {:.2} GHz",
            sensed.average_ghz(),
            ideal.average_ghz()
        );
        assert!(sensed.final_fit.value() < 2.0 * ideal.final_fit.value().max(1000.0));
    }

    #[test]
    fn params_validation() {
        let ok = ControllerParams::quick();
        assert!(ok.validate().is_ok());
        assert!(ControllerParams {
            epoch_instructions: 0,
            ..ok
        }
        .validate()
        .is_err());
        assert!(ControllerParams {
            dvs_step_ghz: 0.0,
            ..ok
        }
        .validate()
        .is_err());
        assert!(ControllerParams {
            hysteresis: 1.0,
            ..ok
        }
        .validate()
        .is_err());
        assert!(ControllerParams {
            epoch_instructions: ok.total_instructions + 1,
            ..ok
        }
        .validate()
        .is_err());
    }
}
