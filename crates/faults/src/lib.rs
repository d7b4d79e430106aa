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
//!   once for the scheduler, the serve engine and the device model;
//! * [`FaultInjector`] — arms a plan against one node; platform
//!   operations ([`FaultOp`]) consult it and turn fired faults into
//!   typed errors or latency penalties;
//! * [`RetryPolicy`] — per-task retry budgets with deterministic
//!   exponential backoff + jitter;
//! * [`RecoveryStats`] — what recovery cost a run (retries, backoff
//!   time, FPGA→CPU degradations, quarantines, lineage re-execution);
//! * [`DetRng`] — the SplitMix64 stream everything draws from, so a
//!   seed replays a whole chaos campaign byte-identically.
//!
//! Every fired fault is also recorded to `everest-telemetry` (counter
//! `faults.injected`, event `faults.inject`); the stable names are
//! documented in `docs/OBSERVABILITY.md`, and the fault model itself in
//! `docs/RESILIENCE.md`.
//!
//! # Examples
//!
//! ```
//! use everest_faults::{FaultInjector, FaultKind, FaultOp, FaultPlan, FaultSpec};
//!
//! let plan = FaultPlan::new(42)
//!     .with_fault(FaultSpec::new(1_000.0, 0, FaultKind::TransientKernelError));
//! let injector = FaultInjector::for_node(plan, 0);
//! assert!(injector.fire(FaultOp::Kernel, 500.0).is_none()); // not due
//! let fault = injector.fire(FaultOp::Kernel, 1_500.0).unwrap();
//! assert_eq!(fault.kind.id(), "transient_kernel_error");
//! assert!(injector.fire(FaultOp::Kernel, 1_500.0).is_none()); // fires once
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod effects;
pub(crate) mod inject;
pub mod plan;
pub mod retry;
pub mod rng;

pub use effects::FaultEffects;
pub use inject::{FaultInjector, FaultOp};
pub use plan::{FaultKind, FaultPlan, FaultSpec};
pub use retry::{RecoveryStats, RetryPolicy};
pub use rng::DetRng;
