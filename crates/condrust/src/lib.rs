//! # everest-condrust
//!
//! The ConDRust coordination language (paper §V-A.2, Fig. 4; Suchert et
//! al., ECOOP 2023): an imperative subset of Rust compiled to a
//! *provably deterministic* parallel dataflow graph.
//!
//! Pipeline:
//!
//! 1. [`lang`] parses the Rust subset (loop bodies of operator calls,
//!    state threads, filtered pushes);
//! 2. [`graph`] extracts the dataflow graph;
//! 3. [`exec`] runs it — [`exec::run_sequential`] defines the semantics,
//!    [`exec::run_parallel`] exploits pipeline + data parallelism and is
//!    guaranteed (and property-tested) to produce the identical result;
//! 4. [`lower`] emits the `dfg` dialect of `everest-ir`, the entry point
//!    into the EVEREST hardware generation flow.
//!
//! # Examples
//!
//! ```
//! # use std::error::Error;
//! # fn main() -> Result<(), Box<dyn Error>> {
//! use everest_condrust::{exec, graph::DataflowGraph, lang, registry::Registry, value::Value};
//!
//! let function = lang::parse_function(
//!     "fn pipeline(xs: Vec<f64>) -> Vec<f64> {
//!          let mut out = Vec::new();
//!          for x in xs {
//!              let y = square(x);
//!              out.push(y);
//!          }
//!          out
//!      }",
//! )?;
//! let graph = DataflowGraph::from_function(&function)?;
//! let mut registry = Registry::new();
//! registry.register_pure("square", |args| {
//!     let x = args[0].as_f64().expect("float input");
//!     Value::F64(x * x)
//! });
//! let input: Vec<Value> = (1..=4).map(|v| Value::F64(v as f64)).collect();
//! let sequential = exec::run_sequential(&graph, &registry, &input)?;
//! let parallel = exec::run_parallel(&graph, &registry, &input, 4)?;
//! assert_eq!(sequential, parallel); // determinism
//! # Ok(())
//! # }
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod exec;
pub mod graph;
pub mod lang;
pub mod lower;
pub mod registry;
pub mod value;

pub use exec::{run_parallel, run_sequential, ExecError};
pub use graph::DataflowGraph;
pub use lang::parse_function;
pub use registry::Registry;
pub use value::Value;
