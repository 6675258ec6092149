//! Dynamic thermal management (DTM) and its comparison with DRM (§7.3).
//!
//! DTM picks the highest frequency whose peak on-chip temperature stays at
//! or below the thermal design point `T_max`; DRM picks the highest
//! frequency whose application FIT stays within the reliability target for
//! a processor qualified at `T_qual`. The paper's Figure 4 shows that
//! neither subsumes the other: at high temperature settings DTM's
//! frequency violates the reliability requirement, at low settings DRM's
//! frequency violates the thermal limit, and the crossover moves with the
//! application.

use ramp::{Fit, ReliabilityModel};
use sim_common::{Kelvin, SimError};
use workload::App;

use crate::dvs::DvsPoint;
use crate::oracle::{select, Oracle};
use crate::space::{ArchPoint, Strategy};
use crate::surrogate::Objective;

/// The frequency a DTM policy settles on for one application.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DtmChoice {
    /// Chosen DVS point (on the base microarchitecture).
    pub dvs: DvsPoint,
    /// Peak structure temperature at that point.
    pub max_temperature: Kelvin,
    /// True when the thermal constraint is met; when even the lowest
    /// frequency exceeds `T_max`, the lowest frequency is returned with
    /// `feasible = false`.
    pub feasible: bool,
}

/// DTM via DVS: the highest frequency keeping the peak temperature at or
/// below `t_max` (§7.3, curve DVS-Temp), over the paper's DVS grid.
///
/// # Errors
///
/// Propagates evaluation errors.
pub fn dtm_best_dvs(
    oracle: &Oracle,
    app: App,
    t_max: Kelvin,
    dvs_step_ghz: f64,
) -> Result<DtmChoice, SimError> {
    let base = (ArchPoint::most_aggressive(), DvsPoint::base());
    dtm_best_among(
        oracle,
        app,
        &Strategy::Dvs.candidates(dvs_step_ghz),
        base,
        t_max,
    )
}

/// Like [`dtm_best_dvs`], but over an explicit DVS candidate list with an
/// explicit base operating point (e.g. a scenario's DVS range). DTM
/// adapts only the frequency, so candidates are ranked by it alone.
///
/// # Errors
///
/// Propagates evaluation errors; returns [`SimError::Infeasible`] when
/// `candidates` is empty.
pub fn dtm_best_among(
    oracle: &Oracle,
    app: App,
    candidates: &[(ArchPoint, DvsPoint)],
    base: (ArchPoint, DvsPoint),
    t_max: Kelvin,
) -> Result<DtmChoice, SimError> {
    let choices = oracle
        .search(app, candidates, base, Objective::Thermal(t_max))?
        .into_iter()
        .map(|(i, ev)| {
            let peak = ev.max_temperature();
            DtmChoice {
                dvs: candidates[i].1,
                max_temperature: peak,
                feasible: peak <= t_max,
            }
        });
    select(choices, |c| {
        (c.feasible, c.dvs.frequency.0, c.max_temperature.0)
    })
    .ok_or_else(|| SimError::infeasible("empty DVS grid"))
}

/// One row of the Figure 4 comparison at a single temperature setting.
#[derive(Debug, Clone, PartialEq)]
pub struct DrmDtmPoint {
    /// The temperature used as both `T_qual` (DRM) and `T_max` (DTM).
    pub temperature: Kelvin,
    /// Frequency chosen by DVS-for-DRM (GHz).
    pub drm_ghz: f64,
    /// Frequency chosen by DVS-for-DTM (GHz).
    pub dtm_ghz: f64,
    /// Peak temperature at the DRM-chosen frequency.
    pub drm_peak_temperature: Kelvin,
    /// Application FIT at the DTM-chosen frequency, scored against the
    /// DRM model.
    pub dtm_fit: Fit,
    /// True when the DRM choice exceeds the thermal limit `T_max` — DRM
    /// does not subsume DTM.
    pub drm_violates_thermal: bool,
    /// True when the DTM choice exceeds the reliability target — DTM does
    /// not subsume DRM.
    pub dtm_violates_reliability: bool,
}

/// Computes one Figure 4 point: DVS-Rel vs DVS-Temp at `temperature` for
/// `app`, with `model` qualified at that temperature.
///
/// # Errors
///
/// Propagates evaluation errors.
pub fn compare_drm_dtm(
    oracle: &Oracle,
    app: App,
    temperature: Kelvin,
    model: &ReliabilityModel,
    dvs_step_ghz: f64,
) -> Result<DrmDtmPoint, SimError> {
    let drm = oracle.best(app, Strategy::Dvs, model, dvs_step_ghz)?;
    let dtm = dtm_best_dvs(oracle, app, temperature, dvs_step_ghz)?;
    let arch = ArchPoint::most_aggressive();
    let drm_peak = oracle.evaluation(app, arch, drm.dvs)?.max_temperature();
    let dtm_fit = oracle
        .evaluation(app, arch, dtm.dvs)?
        .application_fit(model)
        .total();
    Ok(DrmDtmPoint {
        temperature,
        drm_ghz: drm.dvs.frequency.to_ghz(),
        dtm_ghz: dtm.dvs.frequency.to_ghz(),
        drm_peak_temperature: drm_peak,
        dtm_fit,
        drm_violates_thermal: drm_peak > temperature,
        dtm_violates_reliability: dtm_fit > model.target_fit(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluator::{EvalParams, Evaluator};
    use ramp::{FailureParams, QualificationPoint};
    use sim_common::Floorplan;

    fn oracle() -> Oracle {
        Oracle::new(Evaluator::ibm_65nm(EvalParams::quick()).unwrap())
    }

    fn model(t_qual: f64, alpha: f64) -> ReliabilityModel {
        ReliabilityModel::qualify(
            FailureParams::ramp_65nm(),
            &QualificationPoint::at_temperature(Kelvin(t_qual), alpha),
            &Floorplan::r10000_65nm().area_shares(),
            4000.0,
        )
        .unwrap()
    }

    #[test]
    fn dtm_frequency_is_monotonic_in_t_max() {
        let o = oracle();
        let f_low = dtm_best_dvs(&o, App::Bzip2, Kelvin(345.0), 0.5).unwrap();
        let f_high = dtm_best_dvs(&o, App::Bzip2, Kelvin(400.0), 0.5).unwrap();
        assert!(f_high.dvs.frequency >= f_low.dvs.frequency);
    }

    #[test]
    fn dtm_respects_thermal_limit_when_feasible() {
        let o = oracle();
        let choice = dtm_best_dvs(&o, App::MpgDec, Kelvin(380.0), 0.5).unwrap();
        if choice.feasible {
            assert!(choice.max_temperature <= Kelvin(380.0));
        }
    }

    #[test]
    fn infeasible_thermal_limit_falls_back_to_coolest() {
        let o = oracle();
        // 320 K is barely above ambient: unattainable at any frequency.
        let choice = dtm_best_dvs(&o, App::MpgDec, Kelvin(320.0), 0.5).unwrap();
        assert!(!choice.feasible);
        assert!(
            (choice.dvs.frequency.to_ghz() - 2.5).abs() < 1e-9,
            "fallback must be the slowest grid point"
        );
    }

    #[test]
    fn comparison_reports_consistent_flags() {
        let o = oracle();
        let t = Kelvin(360.0);
        let m = model(360.0, 0.35);
        let point = compare_drm_dtm(&o, App::Gzip, t, &m, 0.5).unwrap();
        assert_eq!(point.drm_violates_thermal, point.drm_peak_temperature > t);
        assert_eq!(
            point.dtm_violates_reliability,
            point.dtm_fit > m.target_fit()
        );
    }
}
