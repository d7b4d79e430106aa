//! # everest-sdk
//!
//! The EVEREST System Development Kit (Pilato et al., DATE 2024): a
//! framework for big-data applications on FPGA-based clusters,
//! reproduced in Rust over simulation substrates (see DESIGN.md).
//!
//! The SDK wraps the whole stack behind the [`basecamp::Basecamp`] entry
//! point (§IV):
//!
//! * **Compilation** — EKL kernels ([`everest_ekl`]) and ConDRust
//!   coordination programs ([`everest_condrust`]) enter the MLIR-style
//!   dialect stack ([`everest_ir`]), are lowered to loops, synthesized
//!   by the HLS engine ([`everest_hls`]) and wrapped into optimized FPGA
//!   system architectures by Olympus ([`everest_olympus`]) for the
//!   target platforms ([`everest_platform`]).
//! * **Deployment** — [`workflow`] implements LEXIS-style workflow
//!   descriptors whose steps can be marked for FPGA offloading.
//! * **Execution** — the virtualized runtime ([`everest_runtime`])
//!   schedules workflows over heterogeneous clusters, with SR-IOV
//!   virtualization and the dynamic autotuner
//!   ([`everest_autotuner`]); the multi-tenant serving front end
//!   ([`everest_serve`]) feeds it admission-controlled, fairly
//!   queued, dynamically batched request streams.
//! * **Services** — anomaly detection with AutoML
//!   ([`everest_anomaly`]); the application use cases live in
//!   [`everest_usecases`].
//! * **Observability** — every layer reports spans, metrics and events
//!   into a shared registry ([`everest_telemetry`]); `basecamp --trace`
//!   exports a Chrome-trace timeline and `docs/OBSERVABILITY.md` is the
//!   name contract.
//!
//! # Examples
//!
//! Compile the paper's RRTMG kernel for an Alveo u55c and inspect the
//! flow's outputs:
//!
//! ```
//! # use std::error::Error;
//! # fn main() -> Result<(), Box<dyn Error>> {
//! use everest_ekl::rrtmg::{major_absorber_source, RrtmgDims};
//! use everest_sdk::basecamp::{Basecamp, CompileOptions};
//!
//! let basecamp = Basecamp::new();
//! let dims = RrtmgDims { nlay: 8, ngpt: 4, ntemp: 5, npres: 10, neta: 4, nflav: 2 };
//! let kernel = basecamp.compile_kernel(&major_absorber_source(dims), CompileOptions::default())?;
//! assert!(kernel.hls.cycles > 0);
//! assert!(kernel.architecture.is_some());
//! # Ok(())
//! # }
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod basecamp;
pub mod chaos;
pub mod error;
pub mod heal;
pub mod query;
pub mod serve;
pub mod workflow;

pub use basecamp::{Basecamp, CompileOptions, CompiledKernel, CoordinationProgram, Target};
pub use chaos::{run_chaos, ChaosOptions, ChaosReport};
pub use error::SdkError;
pub use heal::{run_heal, HealOptions, HealReport};
pub use query::{query_class, run_query, QueryOptions, QueryReport};
pub use serve::{run_serve, try_run_serve, ServeOptions, ServeReport};
pub use workflow::{Workflow, WorkflowStep};

// Re-export the component crates under the SDK umbrella.
pub use everest_anomaly;
pub use everest_autotuner;
pub use everest_condrust;
pub use everest_ekl;
pub use everest_hls;
pub use everest_ir;
pub use everest_olympus;
pub use everest_platform;
pub use everest_query;
pub use everest_runtime;
pub use everest_serve;
pub use everest_telemetry;
pub use everest_usecases;

/// Compile-tests every fenced `rust` block in the README.
#[cfg(doctest)]
#[doc = include_str!("../../../README.md")]
mod readme_doctests {}

/// Compile-tests every fenced `rust` block in EXPERIMENTS.md.
#[cfg(doctest)]
#[doc = include_str!("../../../EXPERIMENTS.md")]
mod experiments_doctests {}
