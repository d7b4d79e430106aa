//! # everest-faults
//!
//! Deterministic fault injection and recovery primitives for the
//! EVEREST SDK reproduction.
//!
//! The paper's virtualized runtime (§VI) claims failure rescheduling
//! around node loss; a workflow SDK is only credible at production
//! scale when faults are first-class and recovery is *testable*. This
//! crate supplies the shared vocabulary every layer speaks:
//!
//! * [`FaultPlan`] / [`FaultSpec`] / [`FaultKind`] — seeded, timed
//!   fault campaigns: node crashes, link flaps, DMA/sync timeouts,
//!   partial-reconfiguration failures, transient kernel errors, memory
//!   ECC events, VF hot-unplugs — plus *gray* degradations (slow
//!   nodes, lossy links, creeping VF latency) that raise no error and
//!   are only catchable by online detection;
//! * [`FaultEffects`] — what a plan's standing effects (link, slow-node
//!   and creep windows, VF loss) cost node *n* at time *t*, declared
//!   once for the scheduler and the serve engine;
//! * [`RetryPolicy`] — per-task retry budgets with deterministic
//!   exponential backoff + jitter;
//! * [`RecoveryStats`] — what recovery cost a run (retries, backoff
//!   time, FPGA→CPU degradations, quarantines, lineage re-execution);
//! * [`DetRng`] — the SplitMix64 stream everything draws from, so a
//!   seed replays a whole chaos campaign byte-identically.
//!
//! Crashes and transients are events each tier handles when they fire
//! (the scheduler's `apply_faults`, the serve engine's `handle_fault`);
//! the fault model is documented in `docs/RESILIENCE.md`.
//!
//! # Examples
//!
//! ```
//! use everest_faults::{FaultEffects, FaultKind, FaultPlan, FaultSpec};
//!
//! let plan = FaultPlan::new(42).with_fault(FaultSpec::new(
//!     1_000.0,
//!     0,
//!     FaultKind::SlowNode { factor: 3.0, duration_us: 500.0 },
//! ));
//! let effects = FaultEffects::from_plan(&plan, 2);
//! assert_eq!(effects.slow_factor(0, 500.0), 1.0); // not yet
//! assert_eq!(effects.slow_factor(0, 1_200.0), 3.0); // in the window
//! assert_eq!(effects.slow_factor(0, 1_500.0), 1.0); // window over
//! assert_eq!(effects.slow_factor(1, 1_200.0), 1.0); // another node
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod effects;
pub mod plan;
pub mod retry;
pub mod rng;

pub use effects::FaultEffects;
pub use plan::{FaultKind, FaultPlan, FaultSpec};
pub use retry::{RecoveryStats, RetryPolicy};
pub use rng::DetRng;
