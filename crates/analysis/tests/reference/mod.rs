//! The fixpoint layer the CSR graph replaced, kept as the reference the
//! two value-level analyses are held to
//! (`value_analyses_solve_as_through_the_adjacency_list_graph` in
//! `solver_props.rs`): the same states, step count and convergence; and
//! the map-based dataflow structure lint the dense-table one replaced;
//! and the per-op verifiers and `type-mismatch` lint the declared
//! constraint lists replaced (`constraint_props.rs`); and the analyzer
//! run loop that ran every lint on every module over a walk of its own
//! (`analyzer_props.rs`).

// Kept whole: not every method it had is called from here.
#![allow(dead_code)]

pub(crate) mod analyzer;
pub(crate) mod dataflow;
pub(crate) mod escape;
pub(crate) mod fixpoint;
pub(crate) mod interval;
pub(crate) mod typecheck;
pub(crate) mod verifiers;
