//! Local mirror of the CI `query-gate` job: the EXPLAIN JSON that
//! `basecamp query --json` emits for the corpus under `ci/query/` must
//! reproduce the checked-in expectations byte-for-byte, and a same-seed
//! replay must be byte-identical.
//!
//! CI diffs the CLI output against the expectation files; this test
//! performs the same comparison through the library API so a drift is
//! caught by `cargo test` before the workflow ever runs.

use everest_sdk::query::{run_query, QueryOptions};

const CORPUS: &[(&str, &str, &str)] = &[
    (
        "traffic",
        include_str!("../ci/query/traffic_join.sql"),
        include_str!("../ci/query/expected_traffic_join.json"),
    ),
    (
        "airquality",
        include_str!("../ci/query/airquality_daily.sql"),
        include_str!("../ci/query/expected_airquality_daily.json"),
    ),
    (
        "energy",
        include_str!("../ci/query/energy_capacity.sql"),
        include_str!("../ci/query/expected_energy_capacity.json"),
    ),
];

fn gate_options(dataset: &str, sql: &str) -> QueryOptions {
    QueryOptions {
        dataset: dataset.to_string(),
        sql: sql.trim().to_string(),
        ..QueryOptions::default()
    }
}

#[test]
fn explain_json_matches_the_checked_in_expectations() {
    for (dataset, sql, expected) in CORPUS {
        let report = run_query(&gate_options(dataset, sql)).expect("gate query runs");
        // The CLI writes `explain_json().trim_end()` plus a newline;
        // mirror that framing exactly.
        assert_eq!(
            format!("{}\n", report.explain_json().trim_end()),
            **expected,
            "{dataset} expectation drifted; regenerate per ci/query/README.md"
        );
    }
}

#[test]
fn same_seed_explain_replays_byte_identically() {
    for (dataset, sql, _) in CORPUS {
        let options = gate_options(dataset, sql);
        let a = run_query(&options).expect("first replay");
        let b = run_query(&options).expect("second replay");
        assert_eq!(
            a.explain_json(),
            b.explain_json(),
            "{dataset}: EXPLAIN JSON must replay byte-identically"
        );
    }
}

#[test]
fn gate_queries_pass_verification_and_lints_cleanly() {
    for (dataset, sql, _) in CORPUS {
        let report = run_query(&gate_options(dataset, sql)).expect("gate query runs");
        assert!(
            !report.analysis.has_denials(),
            "{dataset}: gate query must stay deny-free"
        );
        assert!(
            !report.lowered.kernels.is_empty(),
            "{dataset}: gate query must lower to at least one kernel"
        );
    }
}

/// Everything a gate query lowers to — the `dfg` graph and each
/// operator kernel — survives the textual form unchanged.
#[test]
fn lowered_graphs_and_kernels_round_trip_through_text() {
    use everest_ir::parse::parse_module;
    use everest_ir::print::print_module;

    for (dataset, sql, _) in CORPUS {
        let report = run_query(&gate_options(dataset, sql)).expect("gate query runs");
        let kernels = report.lowered.kernels.iter().map(|k| (&k.name, &k.module));
        let graph = "query".to_string();
        for (name, module) in std::iter::once((&graph, &report.lowered.module)).chain(kernels) {
            let text = print_module(module);
            let parsed = parse_module(&text)
                .unwrap_or_else(|e| panic!("{dataset}/{name} does not parse back: {e}\n{text}"));
            assert_eq!(print_module(&parsed), text, "{dataset}/{name}");
        }
    }
}
