//! E19 [§IV] — Analytic queries lowered to dfg kernels. Shows the
//! everest-query front-end running one SQL query per use-case dataset
//! end to end: parse → plan → property-proven rewrite rules → the
//! deterministic executor, then lowering to a verified `dfg` graph of
//! HLS-scheduled operator kernels with an Olympus memory architecture
//! and a `ClassKind::Query` serving class. The headline figure is the
//! schedule-cycle speedup the optimizer buys over the whole suite.

use crate::{rule, Report};
use everest_query::datasets::Dataset;
use everest_query::optimizer::Optimizer;
use everest_sdk::query::{run_query, QueryOptions};

const SEED: u64 = 42;
/// The queries the `query-gate` CI job and `tests/query_gate.rs` pin.
const SUITE: [(&str, &str); 3] = [
    (
        "traffic",
        include_str!("../../../ci/query/traffic_join.sql"),
    ),
    (
        "airquality",
        include_str!("../../../ci/query/airquality_daily.sql"),
    ),
    (
        "energy",
        include_str!("../../../ci/query/energy_capacity.sql"),
    ),
];

fn options(dataset: &str, sql: &str, optimize: bool) -> QueryOptions {
    QueryOptions {
        seed: SEED,
        dataset: dataset.to_string(),
        sql: sql.trim().to_string(),
        optimize,
    }
}

pub(crate) fn series(r: &mut Report) {
    r.banner("E19", "IV", "SQL queries lowered to dfg kernel pipelines");

    r.pin(format!(
        "{:>10} {:>6} {:>8} {:>10} {:>12} {:>9} {:>9}",
        "dataset", "rows", "kernels", "cycles", "cycles(raw)", "speedup", "bound_us"
    ));
    r.pin(rule(72));
    let (mut rows, mut kernels, mut cycles, mut cycles_raw, mut findings) = (0, 0, 0, 0, 0);
    for (dataset, sql) in SUITE {
        let on = run_query(&options(dataset, sql, true)).expect("query runs optimized");
        let off = run_query(&options(dataset, sql, false)).expect("query runs unoptimized");
        assert_eq!(
            on.batch, off.batch,
            "{dataset}: the rewrite rules must not change the result"
        );
        assert!(
            off.lowered.total_cycles() >= on.lowered.total_cycles(),
            "{dataset}: the optimizer must not inflate the schedule"
        );
        r.pin(format!(
            "{:>10} {:>6} {:>8} {:>10} {:>12} {:>8.2}x {:>9.1}",
            dataset,
            on.batch.rows.len(),
            on.lowered.kernels.len(),
            on.lowered.total_cycles(),
            off.lowered.total_cycles(),
            off.lowered.total_cycles() as f64 / on.lowered.total_cycles().max(1) as f64,
            on.class.static_bound_us.unwrap_or(0.0),
        ));
        rows += on.batch.rows.len();
        kernels += on.lowered.kernels.len();
        cycles += on.lowered.total_cycles();
        cycles_raw += off.lowered.total_cycles();
        findings += on.analysis.diagnostics.len();
    }
    assert!(
        0 < cycles && cycles <= cycles_raw,
        "the optimizer must not inflate the suite's schedule: {cycles_raw} -> {cycles}"
    );
    r.pin(format!(
        "{:>10} {:>6} {:>8} {:>10} {:>12} {:>8.2}x",
        "total",
        rows,
        kernels,
        cycles,
        cycles_raw,
        cycles_raw as f64 / cycles as f64
    ));
    r.pin(format!("analysis findings across the suite: {findings}"));

    // Determinism: the whole pipeline — catalog, plans, EXPLAIN JSON,
    // lowering — replays byte-identically from the same seed.
    let (dataset, sql) = SUITE[0];
    let a = run_query(&options(dataset, sql, true)).expect("first replay");
    let b = run_query(&options(dataset, sql, true)).expect("second replay");
    assert_eq!(
        a.explain_json(),
        b.explain_json(),
        "EXPLAIN JSON must replay byte-identically"
    );
    r.pin("\nsame-seed replay: EXPLAIN JSON byte-identical");
}

pub(crate) fn timings(r: &mut Report) {
    // Executor throughput: plan + optimize + execute against a
    // prebuilt catalog (dataset generation priced out).
    let catalog = Dataset::Energy.catalog(SEED).expect("catalog");
    r.time("e19_query/energy_aggregate_query", || {
        let plan = everest_query::plan_sql(&catalog, SUITE[2].1.trim()).expect("plans");
        let optimized = Optimizer::for_catalog(&catalog).optimize(&plan);
        everest_query::run(&catalog, &optimized).expect("executes")
    });

    // The full end-to-end path including lowering, HLS synthesis of
    // every operator kernel, analysis lints and Olympus generation.
    let (dataset, sql) = SUITE[0];
    r.time("e19_query/traffic_join_end_to_end", || {
        run_query(&options(dataset, sql, true)).expect("query runs")
    });
}
