//! # everest-autotuner
//!
//! A mARGOt-style dynamic autotuning framework (paper §VI-C, Gadioli et
//! al., IEEE TC 2019): application-level selection of the best knob
//! configuration (parameters, code variants like CPU vs FPGA kernels)
//! given runtime metrics and the execution environment.
//!
//! * [`types`] — knobs, configurations, operating points with feature
//!   regions, constraints and objectives;
//! * [`tuner`] — constraint-aware selection with EMA-based online
//!   correction of design-time expectations (the adaptation mechanism
//!   behind experiment E9).
//!
//! # Examples
//!
//! ```
//! # use std::error::Error;
//! # fn main() -> Result<(), Box<dyn Error>> {
//! use everest_autotuner::tuner::Autotuner;
//! use everest_autotuner::types::{config, Constraint, Features, Objective, OperatingPoint};
//!
//! let mut tuner = Autotuner::new();
//! tuner.add_point(
//!     OperatingPoint::new(config([("variant", "fpga")]))
//!         .expect("time_us", 500.0)
//!         .expect("energy_j", 1.2),
//! );
//! tuner.add_point(
//!     OperatingPoint::new(config([("variant", "cpu")]))
//!         .expect("time_us", 4_000.0)
//!         .expect("energy_j", 3.0),
//! );
//! tuner.add_constraint(Constraint::le("time_us", 2_000.0));
//! tuner.set_objective(Objective::minimize("energy_j"));
//! let best = tuner.best(&Features::new())?;
//! assert_eq!(best["variant"].to_string(), "fpga");
//! # Ok(())
//! # }
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod tuner;
pub mod types;

pub use tuner::{Autotuner, TuneError, TunerSlot};
pub use types::{
    config, Configuration, Constraint, Direction, Features, KnobValue, Objective, OperatingPoint,
};
