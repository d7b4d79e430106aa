//! # everest-analysis
//!
//! Diagnostics-collecting static analysis for the EVEREST SDK.
//!
//! Verification ([`verify_module`](everest_ir::verify::verify_module))
//! answers "is this module structurally legal?" and stops at the first
//! violation. This crate answers a different question — "is this module
//! *sensible* for the FPGA flow?" — and keeps going: every lint walks
//! the whole module (or ConDRust dataflow graph) and records all of its
//! findings as structured [`Diagnostic`]s carrying the op's structural
//! [`OpPath`](everest_ir::location::OpPath), the same location type
//! verification errors use.
//!
//! ## Lint set
//!
//! | analysis | lint ids |
//! |---|---|
//! | [`TypeCheck`] | `type-mismatch` |
//! | [`MemorySpaceCheck`] | `memory-space` |
//! | [`MemrefLifetime`] | `memref-use-after-free`, `memref-double-free`, `memref-leak`, `memref-out-of-bounds` |
//! | [`DfgStructure`] | `dfg-multiple-writers`, `dfg-unbuffered-cycle`, `dfg-dangling-port`, `dfg-channel-capacity` |
//! | [`HlsPreSynthesis`] | `hls-loop-invariant`, `hls-unpipelinable` |
//! | [`IntervalAnalysis`] | `interval-out-of-bounds`, `interval-dead-branch` |
//! | [`MemorySpaceEscape`] | `memory-space-escape` |
//! | [`WorstCaseLatency`] | `latency-deadline`, `latency-unbounded` |
//! | [`analyze_condrust_graph`] | `condrust-shared-state`, `condrust-dead-node` |
//!
//! The last four rows are powered by the generic [`fixpoint`] worklist
//! solver: interval propagation proves out-of-bounds accesses and dead
//! branches, channel-capacity analysis upgrades cycle detection into
//! deadlock/buffer-sizing proofs, escape analysis tracks host/fabric
//! data provenance through arbitrary value flow, and the latency
//! analysis propagates per-op HLS cycle estimates to provable
//! worst-case bounds per kernel (see [`latency::module_worst_case_us`],
//! which `everest-serve` consults at admission). The framework and the
//! abstract domains are documented in `docs/ANALYSIS.md`.
//!
//! Each lint id declares the [`Severity`] its findings are reported at
//! (`warn` or `deny`, like `rustc` lint levels).
//!
//! ## Examples
//!
//! ```
//! use everest_analysis::{Analyzer, Severity};
//! use everest_ir::dialects::core;
//! use everest_ir::module::Module;
//! use everest_ir::registry::Context;
//! use everest_ir::types::Type;
//!
//! let ctx = Context::with_all_dialects();
//! let mut m = Module::new();
//! let top = m.top_block();
//! let i = core::const_index(&mut m, top, 1);
//! // Float arithmetic on index values: legal arity, nonsense types.
//! m.build_op("arith.addf", [i, i], [Type::Index]).append_to(top);
//!
//! let report = Analyzer::with_default_lints().run(&ctx, &m);
//! assert!(report.has_denials());
//! assert_eq!(report.by_lint("type-mismatch").len(), 1);
//! println!("{}", report.to_text());
//! ```
//!
//! To analyze a ConDRust program before lowering, call
//! [`Analyzer::run_graph`].

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod dataflow;
pub mod diagnostics;
pub mod escape;
pub mod fixpoint;
pub mod hls;
pub mod interval;
pub mod latency;
pub mod lifetime;
pub mod lint;
pub mod report;
pub mod typecheck;

pub use dataflow::{analyze_condrust_graph, DfgStructure};
pub use diagnostics::{Diagnostic, Severity};
pub use escape::MemorySpaceEscape;
pub use fixpoint::{solve, Fixpoint, FlowGraph, Lattice};
pub use hls::HlsPreSynthesis;
pub use interval::{Interval, IntervalAnalysis};
pub use latency::{LatencyBound, WorstCaseLatency};
pub use lifetime::MemrefLifetime;
pub use lint::{Analyzer, Collector, Lint, LintInfo};
pub use report::AnalysisReport;
pub use typecheck::{MemorySpaceCheck, TypeCheck};
