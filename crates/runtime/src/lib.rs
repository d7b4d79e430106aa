//! # everest-runtime
//!
//! The EVEREST virtualized runtime environment (paper §VI):
//!
//! * [`task`] — Dask-like task graphs with the EVEREST resource-request
//!   extensions (FPGA implementations, core counts, output sizes);
//! * [`cluster`] — heterogeneous cluster models (CPU and FPGA nodes);
//! * [`scheduler`] — the resource manager: dependency-respecting
//!   placement, load balancing, transfer-aware scheduling, and
//!   lineage-based rescheduling around node failures;
//! * [`virt`] — the SR-IOV virtualization layer of Fig. 6: PF/VF
//!   management with dynamic hot-plug, libvirt-style queries, and the
//!   near-native-passthrough vs emulated-I/O performance model.
//!
//! The scheduler also closes the self-healing loop
//! ([`Scheduler::run_self_healing`]): an `everest-health` monitor
//! watches committed placements online, convicts gray failures
//! (stragglers, lossy links, degrading VFs) the plan never reports as
//! errors, and drives circuit breakers, probe placements, proactive
//! migration and periodic campaign checkpoints. See
//! `docs/RESILIENCE.md`.
//!
//! # Examples
//!
//! ```
//! # use std::error::Error;
//! # fn main() -> Result<(), Box<dyn Error>> {
//! use everest_runtime::cluster::Cluster;
//! use everest_runtime::scheduler::{Policy, Scheduler};
//! use everest_runtime::task::{TaskGraph, TaskSpec};
//!
//! let mut graph = TaskGraph::new();
//! let prep = graph.add(TaskSpec::new("prepare", 500.0))?;
//! let sim = graph.add(TaskSpec::new("simulate", 20_000.0).after([prep]).with_fpga(900.0))?;
//! graph.add(TaskSpec::new("report", 300.0).after([sim]))?;
//!
//! let scheduler = Scheduler::new(Cluster::everest(2, 1, 8), Policy::Heft);
//! let result = scheduler.run(&graph);
//! assert_eq!(result.entries.len(), 3);
//! assert!(result.makespan_us < 25_000.0); // the FPGA took the slow task
//! # Ok(())
//! # }
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod cluster;
pub mod events;
pub mod scheduler;
pub mod task;
pub mod virt;

pub use cluster::{Cluster, NodeSpec};
pub use events::{EventQueue, EventToken, QueueStats};
pub use scheduler::{
    CampaignCheckpoint, Failure, HealPolicy, HealStats, HealedOutcome, Policy, RecoveryConfig,
    ScheduleEntry, Scheduler, SimulationResult,
};
pub use task::{TaskGraph, TaskId, TaskSpec};
pub use virt::{IoMode, NodeStatus, PhysicalNode, VirtError};

// Fault-plan vocabulary, re-exported so runtime users can drive
// `Scheduler::run_with_plan` without naming `everest-faults` directly.
pub use everest_faults::{
    DetRng, FaultInjector, FaultKind, FaultOp, FaultPlan, FaultSpec, RecoveryStats, RetryPolicy,
};

// Health vocabulary, re-exported so runtime users can tune
// `Scheduler::run_self_healing` without naming `everest-health`
// directly.
pub use everest_health::{BreakerConfig, BreakerState, HealthConfig, HealthVerdict, VerdictKind};
