//! # everest-usecases
//!
//! The four EVEREST application use cases (paper §II), built on the
//! simulation substrates documented in DESIGN.md:
//!
//! * [`weather`] — the WRF stand-in: a mini numerical model whose
//!   radiation step runs the EKL RRTMG-style kernel, with station
//!   observations and the three ensemble strategies of §VIII;
//! * [`energy`] — renewable-energy prediction: wind-farm power curves,
//!   historical data generation and Kernel Ridge backtesting (§II-B);
//! * [`airquality`] — Gaussian-plume dispersion (ADMS role), ensemble
//!   exceedance forecasts and the emission-reduction decision (§II-C);
//! * [`traffic`] — the traffic ecosystem: road network, FCD generator,
//!   HMM map matching (including the ConDRust Fig. 4 operators) and
//!   PTDR Monte Carlo routing (§II-D).
//!
//! # Examples
//!
//! ```
//! use everest_usecases::traffic::{build_route, monte_carlo, RoadNetwork};
//!
//! let net = RoadNetwork::grid(10, 10, 100.0);
//! let route = build_route(&net, 0, 25);
//! let dist = monte_carlo(&net, &route, 8.0, 1000, 42);
//! assert!(dist.quantile(0.95) >= dist.quantile(0.5));
//! ```

#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod airquality;
pub mod energy;
pub mod traffic;
pub mod weather;
