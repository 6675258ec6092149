//! `sim-thermal`: a floorplan-driven RC thermal network (the HotSpot-like
//! substrate of the RAMP/DRM reproduction).
//!
//! The die is modeled as one thermal node per floorplan block, connected
//! laterally to adjacent blocks (conductance proportional to the shared
//! edge length) and vertically to a heat spreader node, which connects to a
//! heat-sink node, which convects to ambient — the same lumped-RC
//! abstraction HotSpot uses at block granularity.
//!
//! [`ThermalModel::steady_state`] gives the equilibrium temperatures for
//! a constant power map (LU factors of the small node system, computed at
//! construction); [`ThermalModel::transient_step`] integrates explicitly
//! for time-varying power. Neither iterates: the leakage ↔ temperature
//! fixed point over these solves lives in `drm::solve`.
//!
//! The heat sink's thermal time constant (tens of seconds) is far larger
//! than anything a simulation can cover, so the paper runs every experiment
//! twice: the first pass collects average power to compute a steady-state
//! heat-sink temperature, which initializes the second pass (§6.3).
//! [`ThermalModel::steady_sink_temperature`] and
//! [`ThermalModel::steady_state_with_sink`] implement exactly that
//! protocol.
//!
//! # Examples
//!
//! ```
//! use sim_common::{Kelvin, Structure, StructureMap, Watts};
//! use sim_thermal::ThermalModel;
//!
//! let model = ThermalModel::hotspot_65nm();
//! let mut power = StructureMap::splat(Watts(2.0));
//! power[Structure::Fpu] = Watts(6.0);
//! let temps = model.steady_state(&power);
//! assert!(temps[Structure::Fpu] > temps[Structure::Icache]);
//! assert!(temps[Structure::Fpu] > Kelvin(318.0)); // above ambient
//! ```

pub mod model;

pub use model::{ThermalModel, ThermalParams, ThermalState};
