//! # everest-hls
//!
//! A high-level synthesis engine over `everest-ir` loop-level IR — the
//! role Vitis HLS and Bambu play inside the EVEREST SDK (paper §IV): it
//! turns compiled kernels into accelerator models with cycle counts,
//! initiation intervals and FPGA resource estimates.
//!
//! Components:
//!
//! * [`resources`] — functional-unit cost library (f32/f64/fixed/posit);
//! * [`cdfg`] — control/data-flow graph with memory dependences, one
//!   CSR array of predecessors per block, built through tables indexed
//!   by op and value id that one synthesis sizes once;
//! * [`schedule`] — ASAP/ALAP and resource-constrained list scheduling,
//!   plus functional-unit binding, into storage the caller keeps;
//! * [`transform`] — verified loop unrolling;
//! * [`engine`] — the synthesis driver: loop pipelining with II search
//!   (resource MII vs recurrence MII), nested-loop latency roll-up,
//!   area estimation and [`engine::HlsReport`].
//!
//! # Examples
//!
//! ```
//! # use std::error::Error;
//! # fn main() -> Result<(), Box<dyn Error>> {
//! use everest_ekl::{check::check, lower::lower_to_loops, parser::parse};
//! use everest_hls::engine::{synthesize, HlsOptions};
//!
//! let program = check(&parse(
//!     "kernel scale {
//!        index i : 0..128
//!        input a : [i]
//!        let y[i] = 2.0 * a[i]
//!        output y
//!      }",
//! )?)?;
//! let module = lower_to_loops(&program)?;
//! let report = synthesize(&module, "scale", HlsOptions::default())?;
//! assert!(report.cycles > 128); // at least one cycle per element
//! assert!(report.area.luts > 0);
//! # Ok(())
//! # }
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod cdfg;
pub mod engine;
pub mod resources;
pub mod schedule;
pub mod transform;

pub use engine::{synthesize, synthesize_many, HlsOptions, HlsReport, LoopReport};
pub use resources::{CostLibrary, NumericFormat, Resources};
