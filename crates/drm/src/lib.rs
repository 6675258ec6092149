//! `drm`: Dynamic Reliability Management (§4–§7 of the ISCA-04 paper).
//!
//! DRM lets a processor qualified for reliability at a chosen operating
//! point — rather than the worst case — adapt at runtime so every workload
//! still meets the lifetime FIT target:
//!
//! * on an **over-designed** processor (high `T_qual`), applications run
//!   below the qualification conditions, leaving reliability headroom that
//!   DRM converts into performance (e.g. overclocking via DVS);
//! * on an **under-designed** processor (low `T_qual`, cheaper to
//!   qualify), DRM throttles hot applications just enough to stay within
//!   the FIT budget.
//!
//! This crate assembles the full stack (synthetic workloads → `sim-cpu`
//! timing → `sim-power` → `sim-thermal` → `ramp` reliability) and provides:
//!
//! * [`Evaluator`] — the §6.3 methodology: two-pass heat-sink
//!   initialization, leakage/temperature fixed point, per-interval
//!   operating conditions;
//! * [`ArchPoint`] / [`DvsPoint`] / [`Strategy`] — the §6.1 adaptation
//!   space (18 microarchitectural configurations, 2.5–5 GHz DVS with the
//!   Pentium-M-extrapolated V(f));
//! * [`BatchEngine`] — a std-only scoped-thread worker pool that
//!   pre-evaluates whole candidate sweeps in parallel, filling the shared
//!   thread-safe [`EvalCache`] keyed on the full operating point;
//! * [`Oracle`] — the §5 oracular DRM study with shared-cache evaluation
//!   (all methods take `&self`, so one oracle serves many threads);
//! * [`dtm`] — dynamic thermal management and the §7.3 DRM-vs-DTM
//!   comparison;
//! * [`controller`] — a reactive interval-based DRM controller (the
//!   paper's "future work": an actual control algorithm rather than an
//!   oracle).
//!
//! # Examples
//!
//! ```no_run
//! use drm::{EvalParams, Evaluator, Oracle, Strategy};
//! use ramp::{FailureParams, QualificationPoint, ReliabilityModel};
//! use sim_common::{Floorplan, Kelvin};
//! use workload::App;
//!
//! let oracle = Oracle::new(Evaluator::ibm_65nm(EvalParams::quick())?);
//! let model = ReliabilityModel::qualify(
//!     FailureParams::ramp_65nm(),
//!     &QualificationPoint::at_temperature(Kelvin(370.0), 0.35),
//!     &Floorplan::r10000_65nm().area_shares(),
//!     4000.0,
//! )?;
//! let choice = oracle.best(App::Bzip2, Strategy::ArchDvs, &model, 0.5)?;
//! println!(
//!     "bzip2 @ 370 K: {} + {:.2} GHz → {:.2}x",
//!     choice.arch,
//!     choice.dvs.frequency.to_ghz(),
//!     choice.relative_performance
//! );
//! # Ok::<(), sim_common::SimError>(())
//! ```

pub mod batch;
pub mod controller;
pub mod dtm;
pub mod dvs;
pub mod evaluator;
pub mod fleet;
pub mod intra;
pub mod mix;
pub mod oracle;
pub mod scaling;
pub mod sensors;
pub mod slice;
pub mod solve;
pub mod space;
pub mod store;
pub mod surrogate;

pub use batch::{
    default_workers, BatchEngine, EvalCache, EvalKey, SweepSummary, TimingCache, TimingCacheKey,
};
pub use controller::{ControlTrace, ControllerParams, ReactiveDrm};
pub use dtm::{compare_drm_dtm, dtm_best_among, dtm_best_dvs, DrmDtmPoint, DtmChoice};
pub use dvs::{frequency_grid, voltage_for_frequency, DvsPoint, DvsRange};
pub use evaluator::{
    EvalParams, EvalStats, Evaluation, Evaluator, IntervalProfile, RunDigest, TimingRun,
};
pub use fleet::{
    fleet_partial, fleet_summarize, run_fleet, FleetConfig, FleetPartial, FleetStats, FleetSummary,
    VariationParams, DIE_BATCH,
};
pub use intra::{intra_app_best, intra_app_best_among, IntraAppChoice};
pub use mix::WorkloadMix;
pub use oracle::{DrmChoice, Oracle};
pub use scaling::{scaling_study, ScalingRow, TechnologyNode};
pub use sensors::{SensorBank, SensorParams};
pub use sim_common::fnv1a64;
pub use slice::{slice_lengths, SliceParams};
pub use solve::{SolveReport, MAX_JUNCTION_K};
pub use space::{ArchPoint, Strategy};
pub use store::{RunStore, StoreRecord, STORE_EXTENSION, STORE_HEADER};
pub use surrogate::{AppTable, Surrogate, SurrogateParams, SurrogateScore};
