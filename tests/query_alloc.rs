//! What one small query allocates, stage by stage, through the chain
//! the `query_small` benchmark workload times: plan, optimize, run,
//! lower, verify, analyze, Olympus and the serving class.
//!
//! A small query's cost is its names, not its rows: the executor is the
//! only stage whose work grows with the data, and every other stage is
//! held here to a count of heap blocks. The twelve queries are the
//! workload's twelve templates with fixed constants.
//!
//! This test binary (and no other: the SDK itself never installs an
//! allocator) counts heap allocations through its own global allocator.
//! One `#[test]`, so nothing else allocates while it measures.

// The crate denies `unsafe_code` (workspace lints); implementing
// `GlobalAlloc` is the one thing here that cannot be written without it.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use everest_analysis::{Analyzer, DfgStructure};
use everest_hls::HlsOptions;
use everest_ir::registry::Context;
use everest_ir::verify::verify_module;
use everest_olympus::{KernelSpec, SystemConfig};
use everest_platform::device::FpgaDevice;
use everest_query::datasets::Dataset;
use everest_query::lower::lower;
use everest_query::optimizer::Optimizer;
use everest_query::Catalog;
use everest_sdk::query_class;

struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call forwards to `System` with the layout it was given;
// the counter is a statistic and publishes no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's contract for `alloc` is `System`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc`
        // above with this layout.
        unsafe { System.dealloc(ptr, layout) };
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `dealloc`; `new_size` is the caller's to vouch for.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations (and reallocations) made while `work` runs.
fn allocations<T>(work: impl FnOnce() -> T) -> (usize, T) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let result = work();
    (ALLOCATIONS.load(Ordering::Relaxed) - before, result)
}

/// The workload's twelve templates, one constant draw each, over the
/// catalogs in the order of [`CATALOGS`].
const QUERIES: [(usize, &str); 12] = [
    (0, "SELECT count(*), avg(power_mw) FROM wind_power WHERE wind_ms > 10.5 AND availability > 0.75"),
    (0, "SELECT hour, power_mw FROM wind_power WHERE power_mw > 22.5 ORDER BY power_mw DESC LIMIT 5"),
    (0, "SELECT max(power_mw), min(wind_ms) FROM wind_power WHERE hour >= 120"),
    (0, "SELECT power_mw * 1.25 + 1 AS scaled FROM wind_power WHERE availability > 0.7 LIMIT 6"),
    (1, "SELECT day, max(prob), avg(peak) FROM air_quality WHERE prob >= 0.12 AND true GROUP BY day ORDER BY day"),
    (1, "SELECT receptor, avg(peak) AS mean_peak FROM air_quality WHERE peak > 25.5 GROUP BY receptor ORDER BY mean_peak DESC"),
    (1, "SELECT count(*) FROM air_quality WHERE peak > capacity_limit * 0.85"),
    (1, "SELECT day, receptor, prob FROM air_quality WHERE east_m > 1500 AND 1 + 1 = 2 ORDER BY prob DESC LIMIT 7"),
    (2, "SELECT t.traj_id, sum(s.length_m) AS dist FROM traj_segments t JOIN segments s ON t.seg_id = s.seg_id WHERE s.length_m > 200.5 GROUP BY t.traj_id ORDER BY dist DESC LIMIT 4"),
    (2, "SELECT count(*) FROM segments WHERE length_m > 250.25 AND speed_kmh < 40.5"),
    (2, "SELECT from_node, count(*) AS n, avg(speed_kmh) FROM segments GROUP BY from_node ORDER BY n DESC LIMIT 8"),
    (2, "SELECT seg_id, length_m / speed_kmh AS cost FROM segments WHERE speed_kmh > 25.5 ORDER BY cost LIMIT 9"),
];

const CATALOGS: [Dataset; 3] = [Dataset::Energy, Dataset::AirQuality, Dataset::Traffic];

/// The stages, in the order the chain runs them, then the two parts
/// pinned on their own.
const STAGES: [&str; 10] = [
    "plan",
    "optimize",
    "run",
    "lower",
    "verify",
    "analyze",
    "olympus",
    "class",
    "tokenize",
    "dfg-structure",
];

/// Allocations of each of [`STAGES`] for one query.
fn stage_allocations(catalog: &Catalog, sql: &str) -> [usize; STAGES.len()] {
    let mut counts = [0; STAGES.len()];
    let (n, plan) = allocations(|| everest_query::plan_sql(catalog, sql).expect("plans"));
    counts[0] = n;
    let (n, (optimizer, optimized)) = allocations(|| {
        let optimizer = Optimizer::for_catalog(catalog);
        let optimized = optimizer.optimize(&plan);
        (optimizer, optimized)
    });
    counts[1] = n;
    let (n, batch) = allocations(|| everest_query::run(catalog, &optimized).expect("runs"));
    counts[2] = n;
    let (n, lowered) =
        allocations(|| lower(&optimized, &optimizer, &HlsOptions::default()).expect("lowers"));
    counts[3] = n;
    let (n, context) = allocations(|| {
        let context = Context::with_all_dialects();
        verify_module(&context, &lowered.module).expect("verifies");
        context
    });
    counts[4] = n;
    let (n, report) = allocations(|| Analyzer::with_default_lints().run(&context, &lowered.module));
    counts[5] = n;
    let (n, architecture) = allocations(|| {
        let dominant = lowered.dominant_kernel().expect("a kernel");
        let spec = KernelSpec::from_report(dominant.hls.clone(), 0.6);
        everest_olympus::generate(spec, &FpgaDevice::alveo_u55c(), SystemConfig::default())
            .expect("generates")
    });
    counts[6] = n;
    let (n, class) = allocations(|| query_class(&lowered));
    counts[7] = n;
    let (n, tokens) = allocations(|| everest_query::token::tokenize(sql).map(|t| t.len()));
    counts[8] = n;
    let dfg = Analyzer::new().with_lint(Box::new(DfgStructure));
    let (n, dfg_report) = allocations(|| dfg.run(&context, &lowered.module));
    counts[9] = n;
    assert!(!batch.rows.is_empty() || batch.columns.len() > 1, "{sql}");
    assert!(!report.has_denials() && dfg_report.is_clean(), "{sql}");
    assert!(architecture.config.replication > 0 && class.static_bound_us.is_some());
    assert!(tokens.is_ok_and(|n| n > 4), "{sql}");
    counts
}

#[test]
fn a_small_query_allocates_for_its_rows_not_its_names() {
    let catalogs: Vec<Catalog> = CATALOGS
        .iter()
        .map(|d| d.catalog(42).expect("catalog"))
        .collect();
    // Twice through first: the shared kernel table, the dialect table
    // and telemetry's counters fill once per process.
    for _ in 0..2 {
        for (dataset, sql) in QUERIES {
            stage_allocations(&catalogs[dataset], sql);
        }
    }
    let mut totals = [0usize; STAGES.len()];
    for (dataset, sql) in QUERIES {
        for (total, n) in totals
            .iter_mut()
            .zip(stage_allocations(&catalogs[dataset], sql))
        {
            *total += n;
        }
    }
    let mean = totals.map(|total| total as f64 / QUERIES.len() as f64);
    for (stage, mean) in STAGES.iter().zip(mean) {
        println!("{stage:>14}: {mean:7.2} allocations a query");
    }
    let chain: f64 = mean[..8].iter().sum();
    println!("{:>14}: {chain:7.2} allocations a query", "chain");

    // 466 with a `String` per identifier, an optimizer that rebuilt the
    // tree per rule, a `String` key per kernel lookup, the dfg lint on
    // maps and the static bound proven again per query; 203.7 with every
    // lint run on every graph; 146.6, then 141.3 now.
    assert!(chain <= 161.0, "{chain:.2} allocations a query");
    // One module sized from the plan, a stream type found by a scan
    // (30.3 before; 19.2).
    assert!(mean[3] <= 21.0, "lower: {:.2} allocations", mean[3]);
    // One walk, and only the lints whose op kinds the graph holds run
    // (50.0 before; 4).
    assert!(mean[5] <= 4.4, "analyze: {:.2} allocations", mean[5]);
    // The token vector, and nothing per token (24.75 before).
    assert!(mean[8] <= 3.0, "tokenize: {:.2} allocations", mean[8]);
    // One clone of the plan, then rewrites in place (127.7 before; 32).
    assert!(mean[1] <= 35.0, "optimize: {:.2} allocations", mean[1]);
    // Dense tables sized once per graph, the writer and reader runs in
    // one list, no actor graph for a graph whose channels all run
    // forward (53.1, then 20 before; 4).
    assert!(mean[9] <= 4.4, "dfg-structure: {:.2} allocations", mean[9]);
    // Names borrowed from the plan until the batch, no growth of the
    // join's output, one hash table per grouping or join (34.67 before;
    // 29.42).
    assert!(mean[2] <= 32.4, "run: {:.2} allocations", mean[2]);
    // The bound is read off the shared kernel, not proven again (22).
    assert!(mean[7] <= 1.0, "class: {:.2} allocations", mean[7]);
}
