//! # everest-health
//!
//! The closed-loop self-healing layer of the EVEREST SDK reproduction:
//! the paper (§VII) makes anomaly detection a first-class service, and
//! this crate turns it from an offline report into a control loop.
//!
//! * [`monitor`] — the streaming [`HealthMonitor`]: per-node sliding
//!   windows over achieved task latencies, link factors and accelerator
//!   inflation, scored online by an `everest-anomaly` z-score
//!   ([`everest_anomaly::detectors::ScalarZScore`]), emitting typed
//!   [`HealthVerdict`]s (straggler, gray link, degrading VF) the
//!   moment evidence crosses threshold;
//! * [`breaker`] — per-node [`CircuitBreaker`]s
//!   (closed / open / half-open with probe placements and exponential
//!   re-open windows) on the virtual clock;
//! * [`verdict`] — the verdict vocabulary shared with the scheduler.
//!
//! Everything is deterministic: decisions are pure functions of the fed
//! samples and the configuration. The monitor mirrors what it sees into
//! `everest-telemetry` (`health.*` names, documented in
//! `docs/OBSERVABILITY.md`) but never reads the registry back, so
//! identical campaigns reach identical verdicts even on a shared
//! registry. The scheduler side of the loop lives in
//! `everest-runtime::scheduler` (`run_self_healing`), and the fault
//! kinds this layer exists to catch are the *gray* members of
//! `everest-faults::FaultKind`.
//!
//! # Examples
//!
//! ```
//! use everest_health::{HealthConfig, HealthMonitor, VerdictKind};
//! use everest_telemetry::Registry;
//!
//! let mut monitor = HealthMonitor::new(2, HealthConfig::default(), 7, Registry::new());
//! for i in 0..8 {
//!     let at_us = 1_000.0 * (i + 1) as f64;
//!     monitor.record_task(0, 1.0, at_us); // healthy
//!     monitor.record_task(1, 4.0, at_us); // 4x slower than modelled
//! }
//! let verdicts = monitor.drain_new();
//! assert_eq!(verdicts.len(), 1);
//! assert_eq!(verdicts[0].node, 1);
//! assert_eq!(verdicts[0].kind, VerdictKind::Straggler);
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod breaker;
pub mod monitor;
pub mod verdict;

pub use breaker::{Admission, BreakerConfig, BreakerState, CircuitBreaker};
pub use monitor::{HealthConfig, HealthMonitor};
pub use verdict::{HealthVerdict, VerdictKind};
