//! # everest-query
//!
//! The big-data front door of the EVEREST SDK: a SQL layer (ROADMAP
//! item 2, in the DataFusion mold) that turns declarative analytic
//! queries into placeable, HLS-schedulable `dfg` kernels.
//!
//! The pipeline:
//!
//! ```text
//! SQL text ──parse──▶ AST ──plan──▶ LogicalPlan
//!                                      │
//!                             optimize (4 rules, each
//!                             property-proven equivalent)
//!                                      │
//!                   ┌──────────────────┴──────────────┐
//!              execute (deterministic           lower (dfg graph +
//!              in-memory ground truth)          per-op HLS kernels)
//! ```
//!
//! * [`parser`] / [`planner`] — SQL (SELECT/WHERE/GROUP BY/ORDER
//!   BY/LIMIT, inner JOIN) to a resolved [`plan::LogicalPlan`]; every
//!   failure is a structured [`QueryError`] with a byte offset, never
//!   a panic (property-tested over arbitrary inputs);
//! * [`optimizer`] — constant folding, predicate pushdown, projection
//!   pruning, and cardinality-based join reordering, each proven
//!   semantics-preserving against the executor;
//! * [`exec`] — the deterministic columnar executor, over the typed
//!   column image [`Catalog::register`] builds of each table;
//! * [`lower`] — logical plan → `dfg.graph` with HLS-synthesized
//!   per-operator kernels, feeding the existing verify → analysis →
//!   Olympus path;
//! * [`datasets`] — seeded catalogs over the traffic, air-quality,
//!   and renewable-energy use cases.
//!
//! Plan text and EXPLAIN JSON are canonical
//! ([`plan::LogicalPlan::normalize`]) and byte-stable, diffed by the
//! `query-gate` CI job against `ci/query/` goldens.
//!
//! # Examples
//!
//! ```
//! use everest_query::datasets::Dataset;
//! use everest_query::optimizer::Optimizer;
//!
//! let catalog = Dataset::Energy.catalog(42).expect("catalog");
//! let plan = everest_query::plan_sql(
//!     &catalog,
//!     "SELECT count(*) AS n FROM wind_power WHERE power_mw > 1.0",
//! )
//! .expect("plans");
//! let optimized = Optimizer::for_catalog(&catalog).optimize(&plan);
//! let batch = everest_query::run(&catalog, &optimized).expect("executes");
//! assert_eq!(batch.columns, vec!["n".to_string()]);
//! assert_eq!(batch.rows.len(), 1);
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod datasets;
pub mod error;
pub mod exec;
pub mod lower;
pub mod optimizer;
pub mod parser;
pub mod plan;
pub mod planner;
pub mod table;
pub mod token;

pub use error::{QueryError, QueryResult};
pub use exec::Batch;
pub use lower::{LoweredQuery, QueryKernel};
pub use optimizer::Optimizer;
pub use plan::{AggFunc, BinOp, Expr, LogicalPlan};
pub use table::{Catalog, DataType, Field, Schema, Table, Value};

/// Parses and plans SQL against a catalog (`query.parse` span).
pub fn plan_sql(catalog: &Catalog, sql: &str) -> QueryResult<LogicalPlan> {
    let span = everest_telemetry::span("query.parse");
    let plan = planner::plan_owned(catalog, parser::parse(sql)?)?;
    span.arg("op", plan.op_name());
    Ok(plan)
}

/// Executes a plan (`query.execute` span, `query.queries` /
/// `query.rows_scanned` / `query.rows_out` counters).
pub fn run(catalog: &Catalog, plan: &LogicalPlan) -> QueryResult<Batch> {
    let span = everest_telemetry::span("query.execute");
    let (batch, scanned) = exec::execute_counted(plan, catalog)?;
    span.arg("rows_scanned", scanned)
        .arg("rows", batch.rows.len() as u64);
    everest_telemetry::counter_add("query.queries", 1);
    everest_telemetry::counter_add("query.rows_scanned", scanned);
    everest_telemetry::counter_add("query.rows_out", batch.rows.len() as u64);
    Ok(batch)
}
