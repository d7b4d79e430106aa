//! # everest-olympus
//!
//! Platform-aware FPGA system-architecture generation (paper §V-C,
//! refs \[16\]\[19\]\[24\]\[25\]\[26\]). Olympus takes synthesized kernels
//! (`everest-hls`), a platform model (`everest-platform`) and produces an
//! optimized data-movement architecture:
//!
//! * [`arch`] — the architecture model and its knobs: kernel
//!   replication, memory lanes, data packing (Iris), double buffering
//!   and PLM sharing;
//! * [`perf`] — batch makespan estimation with read/execute/write
//!   overlap;
//! * [`builder`] — feasibility checking, `olympus`-dialect IR emission
//!   and a generated host driver for the simulated XRT runtime;
//! * [`optimize`] — design-space exploration returning the
//!   makespan-optimal feasible configuration;
//! * [`dosa`] — DOSA-style pipeline partitioning across network-attached
//!   cloudFPGA nodes with ZRLMPI communication costs.
//!
//! # Examples
//!
//! ```
//! # use std::error::Error;
//! # fn main() -> Result<(), Box<dyn Error>> {
//! use everest_ekl::{check::check, lower::lower_to_loops, parser::parse};
//! use everest_hls::engine::{synthesize, HlsOptions};
//! use everest_olympus::arch::KernelSpec;
//! use everest_olympus::optimize::explore;
//! use everest_platform::device::FpgaDevice;
//!
//! let program = check(&parse(
//!     "kernel saxpy {
//!        index i : 0..1024
//!        input a : [i]
//!        input x : [i]
//!        let y[i] = 2.0 * a[i] + x[i]
//!        output y
//!      }",
//! )?)?;
//! let module = lower_to_loops(&program)?;
//! let report = synthesize(&module, "saxpy", HlsOptions::default())?;
//! let kernel = KernelSpec::from_report(report, 0.66);
//! let result = explore(&kernel, &FpgaDevice::alveo_u55c(), 256)?;
//! assert!(result.best_makespan.total_us > 0.0);
//! # Ok(())
//! # }
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod arch;
pub mod builder;
pub mod dosa;
pub mod optimize;
pub mod perf;

pub use arch::{KernelSpec, SystemArchitecture, SystemConfig};
pub use builder::{emit_ir, generate, run_host_driver, BuildError};
pub use dosa::{partition, DosaError, Partitioning};
pub use optimize::{explore, Exploration};
pub use perf::{estimate_makespan, MakespanReport};
