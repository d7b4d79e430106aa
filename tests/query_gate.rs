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
        // The CLI writes `explain_json()` plus a newline; mirror that
        // framing exactly.
        assert_eq!(
            format!("{}\n", report.explain_json()),
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
/// operator kernel — survives the textual form unchanged, and analyzes
/// as it did before it was printed.
#[test]
fn lowered_graphs_and_kernels_round_trip_through_text() {
    use everest_ir::parse::parse_module;
    use everest_ir::print::print_module;

    let basecamp = everest_sdk::Basecamp::new();

    for (dataset, sql, _) in CORPUS {
        let report = run_query(&gate_options(dataset, sql)).expect("gate query runs");
        let kernels = report.lowered.kernels.iter().map(|k| (&k.name, &k.module));
        let graph = "query".to_string();
        for (name, module) in std::iter::once((&graph, &report.lowered.module)).chain(kernels) {
            let text = print_module(module);
            let parsed = parse_module(&text)
                .unwrap_or_else(|e| panic!("{dataset}/{name} does not parse back: {e}\n{text}"));
            assert_eq!(print_module(&parsed), text, "{dataset}/{name}");
            let lints = basecamp.analyze_module(module).to_json();
            assert_eq!(
                basecamp.analyze_module(&parsed).to_json(),
                lints,
                "{dataset}/{name}"
            );
        }
    }
}

/// FNV-1a over 64-bit words, eight bytes at a time, low byte first.
fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for word in words {
        for byte in word.to_le_bytes() {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

fn state_words(state: &everest_usecases::weather::State) -> impl Iterator<Item = u64> + '_ {
    [
        &state.u,
        &state.v,
        &state.temp,
        &state.pressure,
        &state.humidity,
    ]
    .into_iter()
    .flat_map(|field| field.data.iter().map(|value| value.to_bits()))
    .chain([state.time_h.to_bits()])
}

/// The catalog rows do not depend on what radiation computes (they read
/// the winds and the RNG), so the states the weather model reaches are
/// pinned beside them: every field of a 48 h forecast and of a small
/// ensemble, by bits, plus every catalog's rows at two seeds. The file
/// was cut before the EKL evaluator under the radiation step was
/// replaced; a digest that moves means the simulation changed.
#[test]
fn weather_states_and_catalog_rows_match_the_pinned_digests() {
    use everest_query::datasets::Dataset;
    use everest_query::table::Value;
    use everest_usecases::weather::{run_ensemble, EnsembleStrategy, ModelConfig, WeatherModel};

    let model = WeatherModel::new(ModelConfig::default());
    let (forecast, _) = model.forecast(&model.initial_condition(42), 48);
    let (members, _) = run_ensemble(EnsembleStrategy::FieldPerturbations, 3, 12, 7);
    let mut digests = vec![
        (
            "forecast_seed42_48h".to_string(),
            fnv1a(state_words(&forecast)),
        ),
        (
            "ensemble_field_perturbations_3x12h_seed7".to_string(),
            fnv1a(members.iter().flat_map(state_words)),
        ),
    ];
    for dataset in Dataset::ALL {
        for seed in [42, 7] {
            let catalog = dataset.catalog(seed).expect("catalog builds");
            let mut words = Vec::new();
            for name in catalog.table_names() {
                let table = catalog.get(&name).expect("listed table");
                words.push(table.rows.len() as u64);
                for value in table.rows.iter().flatten() {
                    match value {
                        Value::Int(v) => words.extend([0, *v as u64]),
                        Value::Float(v) => words.extend([1, v.to_bits()]),
                        Value::Bool(v) => words.extend([2, u64::from(*v)]),
                        Value::Str(v) => {
                            words.push(3);
                            words.extend(v.bytes().map(u64::from));
                        }
                    }
                }
            }
            digests.push((
                format!("catalog_{}_seed{seed}", dataset.name()),
                fnv1a(words),
            ));
        }
    }
    let lines: Vec<String> = digests
        .iter()
        .map(|(name, digest)| format!("  \"{name}\": \"{digest:016x}\""))
        .collect();
    let rendered = format!("{{\n{}\n}}\n", lines.join(",\n"));
    assert_eq!(
        rendered,
        include_str!("../ci/query/state_digests.json"),
        "the weather states or catalog rows moved; got:\n{rendered}"
    );
}
