//! # everest-serve
//!
//! The multi-tenant request-serving front end of the EVEREST SDK: the
//! missing layer between "millions of users" (ROADMAP north star) and
//! the virtualized runtime of paper §VI. Where the scheduler runs
//! closed, pre-planned campaigns, this crate takes an *open-loop
//! stream of requests* and turns it into placed work:
//!
//! * [`admission`] — per-tenant token buckets plus shared queue-depth
//!   backpressure; refusals are typed ([`ShedReason`]) so clients can
//!   tell "slow down" from "saturated" from "too late";
//! * [`wfq`] — start-time fair queueing across tenants: service share
//!   proportional to weight, no starvation for any positive weight;
//! * [`batcher`] — dynamic batching per kernel class (close on size or
//!   wait-timeout), amortising FPGA launch overhead across requests;
//! * [`engine`] — the seeded, virtual-clock discrete-event simulation
//!   tying it together with `everest-health` circuit breakers,
//!   `everest-faults` chaos plans, an `everest-autotuner` operating
//!   point for batch size vs latency, and `serve.*` telemetry;
//! * [`lifecycle`] — optional request-lifecycle robustness: per-tenant
//!   retry budgets with seeded backoff, hedged dispatch for
//!   latency-critical classes, an AIMD concurrency limiter, and
//!   brownout degradation tiers driven by cluster health;
//! * [`ledger`] — the [`ServeOutcome`] a run returns: every counter
//!   declared once, with its records and the conservation check.
//!
//! Determinism is the design axiom: a run is a pure function of its
//! [`ServeConfig`] and fault plan, so `basecamp serve` replays
//! byte-identically and CI can diff two runs of the same seed. See
//! `docs/SERVING.md` for the architecture and knob reference.
//!
//! # Examples
//!
//! ```
//! use everest_serve::{ServeConfig, ServeEngine};
//!
//! let outcome = ServeEngine::new(ServeConfig {
//!     offered_rps: 6_000.0,
//!     horizon_us: 50_000.0,
//!     ..ServeConfig::default()
//! })
//! .run();
//! assert!(outcome.conserved());
//! assert!(outcome.completed > 0);
//! assert!(outcome.latency_quantile(0.99).expect("completions") > 0.0);
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod admission;
pub mod batcher;
mod config;
pub mod engine;
pub mod ledger;
pub mod lifecycle;
mod pricing;
pub mod request;
mod tuning;
pub mod wfq;

pub use admission::{AdmissionConfig, AdmissionController, TokenBucket};
pub use batcher::{Batch, BatchPolicy, DynamicBatcher, OfferOutcome};
pub use config::{ServeConfig, ServeConfigError};
pub use engine::ServeEngine;
pub use everest_cluster::ClusterConfig;
pub use ledger::{BatchRecord, Layer, LedgerRow, Metric, Role, ServeOutcome, TenantOutcome};
pub use lifecycle::{
    AimdLimiter, BrownoutConfig, BrownoutController, HedgeConfig, LatencyWindow, LifecycleConfig,
    LimiterConfig, RetryBudget, RetryConfig,
};
pub use request::{
    ArrivalStream, ArrivalTrace, ClassKind, KernelClass, Request, ShedReason, TenantSpec,
};
pub use wfq::WeightedFairQueue;
