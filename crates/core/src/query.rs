//! `basecamp query`: the analytic-query driver.
//!
//! One call runs the whole EVEREST query path end to end:
//!
//! 1. build the seeded use-case catalog ([`everest_query::datasets`]);
//! 2. parse and plan the SQL;
//! 3. optimize (unless disabled) with the property-proven rewrite
//!    rules;
//! 4. execute on the deterministic in-memory engine (ground truth);
//! 5. lower to a `dfg` graph of HLS-synthesized operator kernels;
//! 6. verify the graph, run the analysis lints over it, and generate
//!    an Olympus memory architecture for the dominant kernel;
//! 7. derive a serving [`KernelClass`] (kind
//!    [`ClassKind::Query`](everest_serve::ClassKind)) with a
//!    statically proven latency bound, ready to register with the
//!    serve tier.
//!
//! Everything is a pure function of `(dataset, seed, sql, optimize)`,
//! so the rendered summary and EXPLAIN JSON replay byte-identically —
//! the `query-gate` CI job runs the same query twice and diffs the
//! bytes, then diffs them against the committed `ci/query/` goldens.

use everest_analysis::{AnalysisReport, Analyzer};
use everest_hls::HlsOptions;
use everest_ir::registry::Context;
use everest_ir::verify::verify_module;
use everest_olympus::{KernelSpec, SystemArchitecture, SystemConfig};
use everest_platform::device::FpgaDevice;
use everest_query::datasets::Dataset;
use everest_query::lower::{lower, LoweredQuery};
use everest_query::optimizer::Optimizer;
use everest_query::{Batch, LogicalPlan};
use everest_serve::{BatchPolicy, ClassKind, KernelClass, ServeConfig};
use serde::{Serialize, Value};
use serde_json::{compact, fixed, int};

use crate::error::SdkError;

/// Options for one query run.
#[derive(Debug, Clone)]
pub struct QueryOptions {
    /// Seed for the dataset generators.
    pub seed: u64,
    /// Dataset family (`traffic`, `airquality`, `energy`).
    pub dataset: String,
    /// The SQL text.
    pub sql: String,
    /// Whether the rewrite rules run (off for A/B plan comparisons).
    pub optimize: bool,
}

impl Default for QueryOptions {
    fn default() -> QueryOptions {
        QueryOptions {
            seed: 42,
            dataset: "energy".to_string(),
            sql: "SELECT count(*) FROM wind_power".to_string(),
            optimize: true,
        }
    }
}

/// Everything a query run produced.
#[derive(Debug, Clone)]
pub struct QueryReport {
    /// The options the run was derived from.
    pub options: QueryOptions,
    /// The planner's unoptimized plan.
    pub plan: LogicalPlan,
    /// The plan actually executed and lowered (equals `plan` when
    /// optimization is off).
    pub optimized: LogicalPlan,
    /// The result rows from the deterministic executor.
    pub batch: Batch,
    /// The `dfg` lowering with per-operator HLS kernels.
    pub lowered: LoweredQuery,
    /// Analysis-lint findings over the lowered graph.
    pub analysis: AnalysisReport,
    /// Olympus memory architecture generated for the dominant kernel.
    pub architecture: SystemArchitecture,
    /// The serving class the query registers as.
    pub class: KernelClass,
}

impl QueryReport {
    /// Canonical EXPLAIN JSON: both plans plus kernel and schedule
    /// facts, each plan [normalized](LogicalPlan::normalize) and written
    /// compact. Byte-stable for a given `(dataset, seed, sql, optimize)`.
    pub fn explain_json(&self) -> String {
        let kernels = self.lowered.kernels.iter().map(|k| {
            Value::Object(vec![
                ("name".into(), k.name.to_value()),
                ("op".into(), k.op.to_value()),
                ("rows".into(), k.rows.to_value()),
                ("cycles".into(), int(k.hls.cycles)),
            ])
        });
        let config = &self.architecture.config;
        let olympus = Value::Object(vec![
            ("replication".into(), config.replication.to_value()),
            ("lanes".into(), config.lanes_per_replica.to_value()),
            ("pack_bytes".into(), int(config.pack_bytes)),
        ]);
        let bound = self.class.static_bound_us;
        let serve_class = Value::Object(vec![
            ("name".into(), self.class.name.to_value()),
            ("kind".into(), self.class.kind.id().to_value()),
            ("static_bound_us".into(), bound.map_or(Value::Null, fixed)),
        ]);
        serde_json::to_string_trace(&Value::Object(vec![
            ("dataset".into(), self.options.dataset.to_value()),
            ("seed".into(), int(self.options.seed)),
            ("sql".into(), self.options.sql.to_value()),
            ("optimize".into(), Value::Bool(self.options.optimize)),
            ("plan".into(), compact(&self.plan.normalize())),
            ("optimized".into(), compact(&self.optimized.normalize())),
            ("rows".into(), self.batch.rows.len().to_value()),
            ("kernels".into(), Value::Array(kernels.collect())),
            ("total_cycles".into(), int(self.lowered.total_cycles())),
            (
                "analysis_findings".into(),
                self.analysis.diagnostics.len().to_value(),
            ),
            ("olympus".into(), olympus),
            ("serve_class".into(), serve_class),
        ]))
    }

    /// Human-readable run summary (also byte-stable).
    pub fn summary(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "query: {} over '{}' (seed {})\n",
            self.options.sql, self.options.dataset, self.options.seed
        ));
        out.push_str(&format!(
            "plan ({}optimized):\n{}",
            if self.options.optimize { "" } else { "un" },
            self.optimized.normalize().to_text()
        ));
        out.push_str(&format!(
            "result: {} row(s) x {} column(s)\n",
            self.batch.rows.len(),
            self.batch.columns.len()
        ));
        out.push_str(&format!(
            "lowered: {} dfg kernel(s), {} scheduled cycle(s)\n",
            self.lowered.kernels.len(),
            self.lowered.total_cycles()
        ));
        if let Some(dominant) = self.lowered.dominant_kernel() {
            out.push_str(&format!(
                "dominant kernel: {} ({} cycles, {:.2} us)\n",
                dominant.name, dominant.hls.cycles, dominant.hls.time_us
            ));
        }
        out.push_str(&format!(
            "analysis: {} finding(s)\n",
            self.analysis.diagnostics.len()
        ));
        out.push_str(&format!(
            "olympus: replication {} x {} lane(s), pack {} B\n",
            self.architecture.config.replication,
            self.architecture.config.lanes_per_replica,
            self.architecture.config.pack_bytes
        ));
        out.push_str(&format!(
            "serve class: {} (kind {}, static bound {})\n",
            self.class.name,
            self.class.kind.id(),
            match self.class.static_bound_us {
                Some(b) => format!("{b:.3} us"),
                None => "unproven".to_string(),
            }
        ));
        out
    }
}

/// Derives the serving class a lowered query registers as: per-request
/// costs from the dominant kernel's HLS schedule, kind
/// [`ClassKind::Query`], and a statically proven worst-case latency
/// bound from the analysis fixpoint over the kernel's loop module — the
/// bound the kernel carries from when it was compiled
/// ([`QueryKernel::static_bound_us`](everest_query::QueryKernel::static_bound_us)),
/// what [`bind_static_latency`](crate::serve::bind_static_latency) would
/// prove again.
pub fn query_class(lowered: &LoweredQuery) -> KernelClass {
    let (fpga_us, payload, bound_us) = match lowered.dominant_kernel() {
        Some(k) => (
            k.hls.time_us.max(1.0),
            k.hls.bytes_per_call,
            k.static_bound_us,
        ),
        None => (1.0, 0, None),
    };
    // CPU fallback is an order of magnitude slower than the fabric;
    // the deadline leaves 20x headroom over the dominant kernel so the
    // class is servable but still sheddable under deep overload.
    let class = KernelClass::new(
        "query",
        fpga_us * 10.0,
        fpga_us,
        fpga_us * 0.5,
        (fpga_us * 20.0).max(10_000.0),
        payload.max(1_024),
    )
    .with_kind(ClassKind::Query);
    match bound_us {
        Some(bound_us) => class.with_static_bound(bound_us),
        None => class,
    }
}

/// Appends the query class (and an aligned batch policy) to a serving
/// configuration; arrival classes are drawn uniformly, so the class
/// receives traffic in any subsequent run.
pub fn register_query_class(config: &mut ServeConfig, lowered: &LoweredQuery) {
    config.classes.push(query_class(lowered));
    config.batch.push(BatchPolicy::new(8, 800.0));
}

/// Runs one analytic query end to end. Deterministic for a given set
/// of options.
pub fn run_query(options: &QueryOptions) -> Result<QueryReport, SdkError> {
    let span = everest_telemetry::span("basecamp.query");
    span.arg("seed", options.seed)
        .arg("dataset", options.dataset.as_str())
        .arg("optimize", u64::from(options.optimize));
    let dataset = Dataset::from_name(&options.dataset)
        .ok_or_else(|| SdkError::Frontend(format!("unknown dataset '{}'", options.dataset)))?;
    let catalog = dataset
        .catalog(options.seed)
        .map_err(|e| SdkError::Frontend(format!("dataset '{}': {e}", options.dataset)))?;
    let plan = everest_query::plan_sql(&catalog, &options.sql)
        .map_err(|e| SdkError::Frontend(e.to_string()))?;
    let optimizer = Optimizer::for_catalog(&catalog);
    let optimized = if options.optimize {
        optimizer.optimize(&plan)
    } else {
        plan.clone()
    };
    let batch =
        everest_query::run(&catalog, &optimized).map_err(|e| SdkError::Frontend(e.to_string()))?;
    let lowered = lower(&optimized, &optimizer, &HlsOptions::default())
        .map_err(|e| SdkError::Frontend(e.to_string()))?;
    let context = Context::with_all_dialects();
    verify_module(&context, &lowered.module).map_err(SdkError::Ir)?;
    let analysis = Analyzer::with_default_lints().run(&context, &lowered.module);
    let dominant = lowered
        .dominant_kernel()
        .ok_or_else(|| SdkError::Frontend("query lowered to no kernels".to_string()))?;
    let spec = KernelSpec::from_report(dominant.hls.clone(), 0.6);
    let architecture =
        everest_olympus::generate(spec, &FpgaDevice::alveo_u55c(), SystemConfig::default())
            .map_err(SdkError::Olympus)?;
    let class = query_class(&lowered);
    span.arg("kernels", lowered.kernels.len() as u64)
        .arg("rows", batch.rows.len() as u64);
    Ok(QueryReport {
        options: options.clone(),
        plan,
        optimized,
        batch,
        lowered,
        analysis,
        architecture,
        class,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use everest_serve::ServeEngine;

    #[test]
    fn query_runs_end_to_end_on_every_dataset() {
        let cases = [
            (
                "traffic",
                "SELECT count(*) FROM segments WHERE length_m > 100",
            ),
            (
                "airquality",
                "SELECT day, max(prob) FROM air_quality GROUP BY day",
            ),
            (
                "energy",
                "SELECT count(*), avg(power_mw) FROM wind_power WHERE wind_ms > 4",
            ),
        ];
        for (dataset, sql) in cases {
            let report = run_query(&QueryOptions {
                seed: 42,
                dataset: dataset.to_string(),
                sql: sql.to_string(),
                optimize: true,
            })
            .expect("query runs");
            assert!(!report.lowered.kernels.is_empty(), "{dataset}");
            assert!(!report.batch.rows.is_empty(), "{dataset}");
            assert_eq!(report.class.kind, ClassKind::Query);
        }
    }

    #[test]
    fn the_class_bound_is_the_one_the_kernel_was_compiled_with() {
        for dataset in ["traffic", "airquality", "energy"] {
            let options = QueryOptions {
                dataset: dataset.to_string(),
                sql: match dataset {
                    "traffic" => "SELECT count(*) FROM segments",
                    "airquality" => "SELECT day, max(prob) FROM air_quality GROUP BY day",
                    _ => "SELECT hour FROM wind_power ORDER BY hour LIMIT 3",
                }
                .to_string(),
                ..QueryOptions::default()
            };
            let report = run_query(&options).expect("query runs");
            let dominant = report.lowered.dominant_kernel().expect("a kernel");
            let proven = crate::serve::bind_static_latency(
                KernelClass::new("probe", 1.0, 1.0, 1.0, 1.0, 1),
                &dominant.module,
            );
            assert!(proven.static_bound_us.is_some(), "{dataset}");
            assert_eq!(
                report.class.static_bound_us, proven.static_bound_us,
                "{dataset}"
            );
        }
    }

    #[test]
    fn query_report_is_byte_stable() {
        let options = QueryOptions::default();
        let a = run_query(&options).expect("first run");
        let b = run_query(&options).expect("second run");
        assert_eq!(a.explain_json(), b.explain_json());
        assert_eq!(a.summary(), b.summary());
    }

    #[test]
    fn optimizer_toggle_changes_plan_not_rows() {
        let mut options = QueryOptions {
            seed: 7,
            dataset: "energy".to_string(),
            sql: "SELECT hour FROM wind_power WHERE power_mw > 0.5 AND 1 < 2".to_string(),
            optimize: true,
        };
        let on = run_query(&options).expect("optimized run");
        options.optimize = false;
        let off = run_query(&options).expect("unoptimized run");
        assert_eq!(on.batch, off.batch, "optimization must not change rows");
        assert_ne!(
            on.optimized.to_text(),
            off.optimized.to_text(),
            "the constant-foldable predicate should differ"
        );
    }

    #[test]
    fn query_class_serves_traffic() {
        let report = run_query(&QueryOptions::default()).expect("query runs");
        let mut config = ServeConfig::default();
        register_query_class(&mut config, &report.lowered);
        assert_eq!(config.classes.len(), config.batch.len());
        let query_index = config.classes.len() - 1;
        assert_eq!(config.classes[query_index].kind, ClassKind::Query);
        let outcome = ServeEngine::new(config).run();
        assert!(outcome.completed > 0, "the cluster serves");
        let served_query = outcome
            .batches
            .iter()
            .any(|b| b.class == query_index && !b.failed);
        assert!(served_query, "the query class receives and completes work");
    }
}
