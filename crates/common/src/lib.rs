//! Shared foundation types for the RAMP/DRM reproduction.
//!
//! This crate holds the vocabulary that every layer of the stack speaks:
//!
//! * [`units`] — thin, type-safe newtypes for the physical quantities that
//!   flow between the timing, power, thermal, and reliability models
//!   ([`Kelvin`], [`Volts`], [`Hertz`], [`Watts`], ...).
//! * [`structure`] — the discrete processor [`Structure`]s that RAMP models
//!   (ALUs, FPUs, register files, branch predictor, caches, load-store queue,
//!   instruction window), plus [`StructureMap`], a dense per-structure table.
//! * [`floorplan`] — rectangular block geometry for the thermal model,
//!   including the default MIPS-R10000-like core floorplan from the paper
//!   (4.5 mm x 4.5 mm at 65 nm).
//! * [`rng`] — deterministic in-tree pseudo-random generation
//!   ([`splitmix64`], [`Xoshiro256pp`]) so seeded simulation streams never
//!   depend on an external crate.
//! * [`quantile`] — the one quantile convention every layer shares: an
//!   exact interpolating [`quantile_sorted`] for in-memory samples and a
//!   deterministic streaming [`QuantileSketch`] for fleet-scale
//!   populations.
//! * [`textfmt`] — the one line-format core every text format is built
//!   on: line scanner, typed fields, token cursor, checksummed record
//!   lines, and the seeded corruption generator their tests share.
//! * [`error`] — the common [`SimError`] type.
//!
//! # Examples
//!
//! ```
//! use sim_common::{Floorplan, Kelvin, Structure};
//!
//! let plan = Floorplan::r10000_65nm();
//! assert!((plan.total_area().0 - 20.25).abs() < 1e-9);
//! assert!(plan.block(Structure::Fpu).area().0 > 0.0);
//! let t = Kelvin(358.0);
//! assert!(t > Kelvin(300.0));
//! ```

pub mod error;
pub mod floorplan;
pub mod quantile;
pub mod rng;
pub mod structure;
pub mod textfmt;
pub mod units;

pub use error::SimError;
pub use floorplan::{Block, Floorplan, Rect};
pub use quantile::{quantile_sorted, QuantileSketch};
pub use rng::{splitmix64, Xoshiro256pp};
pub use structure::{Structure, StructureMap};
pub use textfmt::fnv1a64;
pub use units::{Hertz, Kelvin, Seconds, SquareMillimeters, Volts, Watts};
