//! Property suites for the query front-end.
//!
//! Satellite guarantees from the PR contract:
//!
//! 1. **Parser totality** — for any generated input, the parser either
//!    produces a plan whose canonical text is stable under repeated
//!    normalization, or returns a structured [`QueryError`] with a
//!    byte offset inside the input. It never panics.
//! 2. **Optimizer equivalence** — every rewrite rule (constant
//!    folding, predicate pushdown, projection pruning, join
//!    reordering) and the full pipeline preserve the executor's row
//!    multiset on randomly generated tables.
//! 3. **Kernel reuse is invisible** — `lower` shares compiled operator
//!    kernels per shape across calls, options and threads; what it
//!    returns never depends on what was lowered before.
//!
//! The vendored proptest shim has no combinator strategies, so the
//! SQL generator draws raw integers and maps them onto grammar
//! fragments by hand — same coverage, simpler machinery.

use proptest::prelude::*;

use std::sync::{Arc, Barrier};

use everest_hls::{HlsOptions, HlsReport};
use everest_ir::print::print_module;
use everest_query::exec::{execute, row_multiset};
use everest_query::lower::{lower, LoweredQuery};
use everest_query::optimizer::{fold_constants, prune_projections, pushdown_predicates, Optimizer};
use everest_query::planner::plan_query;
use everest_query::table::{Catalog, DataType, Field, Schema, Table, Value};
use everest_query::{parser, plan::LogicalPlan, QueryError};

// ---------------------------------------------------------------------------
// Seeded SQL generation
// ---------------------------------------------------------------------------

const COLUMNS: [&str; 5] = ["k", "v", "t.k", "d.v", "missing"];
const LITERALS: [&str; 6] = ["0", "42", "-7", "1.25", "'x'", "true"];
const CMPS: [&str; 6] = ["=", "!=", "<", "<=", ">", ">="];
const AGG_FNS: [&str; 4] = ["sum", "avg", "min", "max"];
const SOUP_TOKENS: [&str; 23] = [
    "SELECT", "FROM", "WHERE", "JOIN", "ON", "GROUP", "BY", "ORDER", "LIMIT", "AND", "OR", "NOT",
    "(", ")", ",", "*", "=", "<>", "t", "k", "42", "1.5", "'s'",
];

fn pick<'a>(options: &[&'a str], draw: u64) -> &'a str {
    options[(draw % options.len() as u64) as usize]
}

/// Builds SQL-shaped text from raw integer draws: a mix of well-formed
/// queries and token soup. The point is coverage of the parser's error
/// paths, not validity.
fn render_sql(draws: &[u64]) -> String {
    let mut it = draws.iter().copied();
    let mut next = || it.next().unwrap_or(0);
    if next() % 5 < 3 {
        // Well-formed-ish query over t (possibly with bad columns).
        let mut items = Vec::new();
        for _ in 0..(next() % 2 + 1) {
            let d = next();
            items.push(match d % 4 {
                0 => "count(*)".to_string(),
                1 => format!("{}({})", pick(&AGG_FNS, next()), pick(&COLUMNS, next())),
                2 => "*".to_string(),
                _ => pick(&COLUMNS, next()).to_string(),
            });
        }
        let mut sql = format!(
            "SELECT {} FROM t WHERE {} {} {}",
            items.join(", "),
            pick(&COLUMNS, next()),
            pick(&CMPS, next()),
            pick(&LITERALS, next()),
        );
        if next() % 2 == 0 {
            sql.push_str(&format!(" GROUP BY {}", pick(&COLUMNS, next())));
        }
        if next() % 2 == 0 {
            sql.push_str(&format!(" LIMIT {}", next() % 20));
        }
        sql
    } else {
        // Token soup: grammatical fragments in arbitrary order.
        let len = (next() % 12) as usize;
        (0..len)
            .map(|_| pick(&SOUP_TOKENS, next()))
            .collect::<Vec<_>>()
            .join(" ")
    }
}

/// Arbitrary printable text (plus occasional raw control bytes) for
/// tokenizer totality.
fn render_bytes(draws: &[u64]) -> String {
    draws
        .iter()
        .map(|d| {
            let c = (d % 96) as u8 + 0x20;
            if d % 37 == 0 {
                '\u{7f}'
            } else {
                c as char
            }
        })
        .collect()
}

fn props_catalog() -> Catalog {
    let mut catalog = Catalog::new();
    let schema = Schema::new(vec![
        Field::new("k", DataType::Int),
        Field::new("v", DataType::Float),
    ]);
    let rows: Vec<Vec<Value>> = (0..30)
        .map(|i| vec![Value::Int(i % 5), Value::Float(i as f64 * 0.5 - 3.0)])
        .collect();
    catalog.register("t", Table::new(schema.clone(), rows).expect("table"));
    let rows: Vec<Vec<Value>> = (0..5)
        .map(|i| vec![Value::Int(i), Value::Float(i as f64)])
        .collect();
    catalog.register("d", Table::new(schema, rows).expect("table"));
    catalog
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The parser is total: any input either parses or yields a
    /// structured error carrying a byte offset inside the input.
    #[test]
    fn parser_never_panics(draws in proptest::collection::vec(any::<u64>(), 1..24)) {
        let sql = render_sql(&draws);
        match parser::parse(&sql) {
            Ok(query) => {
                // Planning may still fail (unknown columns etc.), but
                // must fail structurally, not by panicking.
                let catalog = props_catalog();
                match plan_query(&catalog, &query) {
                    Ok(plan) => {
                        // Canonical text is stable: printing is
                        // idempotent through normalize().
                        let text = plan.normalize().to_text();
                        prop_assert_eq!(&text, &plan.normalize().normalize().to_text());
                        prop_assert!(!text.is_empty());
                    }
                    Err(QueryError::Plan { message }) => prop_assert!(!message.is_empty()),
                    Err(QueryError::Exec { message }) => prop_assert!(!message.is_empty()),
                    Err(other) => {
                        let off = other.offset();
                        prop_assert!(off.is_some_and(|o| o <= sql.len()), "{}", other);
                    }
                }
            }
            Err(err) => {
                prop_assert!(
                    err.offset().is_some_and(|o| o <= sql.len()),
                    "error offset must land inside '{}': {}",
                    sql,
                    err
                );
            }
        }
    }

    /// Arbitrary character strings (not just token-shaped ones) never
    /// panic the tokenizer or parser.
    #[test]
    fn parser_total_on_arbitrary_bytes(draws in proptest::collection::vec(any::<u64>(), 0..40)) {
        let sql = render_bytes(&draws);
        match parser::parse(&sql) {
            Ok(_) => {}
            Err(err) => {
                prop_assert!(err.offset().is_some_and(|o| o <= sql.len()), "{}", err);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Optimizer equivalence
// ---------------------------------------------------------------------------

/// Queries whose plans exercise every rewrite rule: constant-foldable
/// arithmetic, pushable predicates, prunable projections, and joins
/// with asymmetric cardinalities.
const EQUIVALENCE_QUERIES: &[&str] = &[
    "SELECT k, v FROM t WHERE v > 1 + 2",
    "SELECT k FROM t WHERE v > 0 AND k < 4",
    "SELECT v * 2 FROM t WHERE true AND v > 0.5",
    "SELECT k, count(*) FROM t GROUP BY k",
    "SELECT k, sum(v), avg(v) FROM t WHERE k >= 1 GROUP BY k ORDER BY k",
    "SELECT t.k, d.v FROM t JOIN d ON t.k = d.k WHERE t.v > 0",
    "SELECT t.k, sum(t.v) FROM t JOIN d ON t.k = d.k GROUP BY t.k ORDER BY t.k LIMIT 3",
    "SELECT count(*) FROM t WHERE v > 100",
    "SELECT k FROM t ORDER BY k DESC LIMIT 4",
    "SELECT d.k FROM d JOIN t ON d.k = t.k WHERE d.v <= 3 AND t.v > -10",
];

fn all_rewrites(optimizer: &Optimizer, plan: &LogicalPlan) -> Vec<(&'static str, LogicalPlan)> {
    vec![
        ("fold_constants", fold_constants(plan)),
        ("pushdown_predicates", pushdown_predicates(plan)),
        ("prune_projections", prune_projections(plan)),
        ("reorder_joins", optimizer.reorder_joins(plan)),
        ("optimize", optimizer.optimize(plan)),
    ]
}

#[test]
fn each_rewrite_rule_preserves_semantics() {
    let catalog = props_catalog();
    let optimizer = Optimizer::for_catalog(&catalog);
    for sql in EQUIVALENCE_QUERIES {
        let query = parser::parse(sql).expect("parses");
        let plan = plan_query(&catalog, &query).expect("plans");
        let base = execute(&plan, &catalog)
            .unwrap_or_else(|e| panic!("baseline for '{sql}' executes: {e}"));
        for (rule, rewritten) in all_rewrites(&optimizer, &plan) {
            let after = execute(&rewritten, &catalog)
                .unwrap_or_else(|e| panic!("{rule} broke '{sql}': {e}"));
            assert_eq!(
                base.columns, after.columns,
                "{rule} changed columns of {sql}"
            );
            assert_eq!(
                row_multiset(&base),
                row_multiset(&after),
                "{rule} changed rows of {sql}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Equivalence holds over random table contents, not just the
    /// fixed seed: the full pipeline and each rule individually agree
    /// with the unoptimized executor on every generated table.
    #[test]
    fn rules_preserve_semantics_on_random_tables(
        t_rows in proptest::collection::vec((0i64..6, -50i64..50), 0..25),
        d_rows in proptest::collection::vec((0i64..6, -50i64..50), 0..8),
        query_draw in 0usize..1000,
    ) {
        let schema = Schema::new(vec![
            Field::new("k", DataType::Int),
            Field::new("v", DataType::Float),
        ]);
        let mut catalog = Catalog::new();
        let rows = t_rows
            .iter()
            .map(|(k, v)| vec![Value::Int(*k), Value::Float(*v as f64 * 0.25)])
            .collect();
        catalog.register("t", Table::new(schema.clone(), rows).expect("table"));
        let rows = d_rows
            .iter()
            .map(|(k, v)| vec![Value::Int(*k), Value::Float(*v as f64 * 0.25)])
            .collect();
        catalog.register("d", Table::new(schema, rows).expect("table"));
        let optimizer = Optimizer::for_catalog(&catalog);
        let sql = EQUIVALENCE_QUERIES[query_draw % EQUIVALENCE_QUERIES.len()];
        let query = parser::parse(sql).expect("parses");
        let plan = plan_query(&catalog, &query).expect("plans");
        let base = execute(&plan, &catalog).expect("baseline executes");
        for (rule, rewritten) in all_rewrites(&optimizer, &plan) {
            let after = execute(&rewritten, &catalog)
                .unwrap_or_else(|e| panic!("{rule} broke {sql}: {e}"));
            prop_assert_eq!(&base.columns, &after.columns, "{} columns on {}", rule, sql);
            prop_assert_eq!(
                row_multiset(&base),
                row_multiset(&after),
                "{} rows on {}",
                rule,
                sql
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Kernel reuse
// ---------------------------------------------------------------------------

/// Everything a caller can read off a lowered query, as owned data.
type Fingerprint = (String, Vec<(String, String, HlsReport)>);

fn fingerprint(lowered: &LoweredQuery) -> Fingerprint {
    let kernels = lowered
        .kernels
        .iter()
        .map(|k| (k.name.clone(), print_module(&k.module), k.hls.clone()))
        .collect();
    (print_module(&lowered.module), kernels)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Lowering twice, under other options in between, and from four
    /// threads racing on shapes nobody compiled yet, gives one answer.
    /// (That the shared kernel equals a fresh compile is the unit test
    /// next to the table in `lower.rs`.)
    #[test]
    fn kernel_reuse_is_invisible(draws in proptest::collection::vec(any::<u64>(), 1..24)) {
        let catalog = props_catalog();
        let optimizer = Optimizer::for_catalog(&catalog);
        // The generated query when it plans, otherwise one of the
        // fixed corpus (joins, sorts) picked by the same draws.
        let generated = parser::parse(&render_sql(&draws))
            .ok()
            .and_then(|q| plan_query(&catalog, &q).ok());
        let plan = generated.unwrap_or_else(|| {
            let sql = pick(EQUIVALENCE_QUERIES, draws[0]);
            plan_query(&catalog, &parser::parse(sql).expect("parses")).expect("plans")
        });
        let plans = [optimizer.optimize(&plan), plan];
        let default = HlsOptions::default();
        // A clock no other case uses: the threads below start cold.
        let tuned = HlsOptions {
            unroll: 2,
            licm: true,
            clock_ns: 2.0 + (draws[0] % 4096) as f64 / 4096.0,
            ..default
        };
        let lower_all = || -> Vec<Fingerprint> {
            let mut out = Vec::new();
            for plan in &plans {
                for options in [&default, &tuned] {
                    out.push(fingerprint(&lower(plan, &optimizer, options).expect("lowers")));
                }
            }
            out
        };

        let barrier = Barrier::new(4);
        let threaded: Vec<Vec<Fingerprint>> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        lower_all()
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("worker lowers"))
                .collect()
        });
        let single = lower_all();
        prop_assert_eq!(&single, &lower_all());
        for worker in &threaded {
            prop_assert_eq!(worker, &single);
        }

        // Tuned and default lowerings never hand out each other's kernels.
        for plan in &plans {
            let with_default = lower(plan, &optimizer, &default).expect("lowers");
            let with_tuned = lower(plan, &optimizer, &tuned).expect("lowers");
            prop_assert_eq!(with_default.kernels.len(), with_tuned.kernels.len());
            for (d, t) in with_default.kernels.iter().zip(&with_tuned.kernels) {
                prop_assert!(!Arc::ptr_eq(d, t), "{} shared across options", d.name);
                for (kernel, options) in [(d, &default), (t, &tuned)] {
                    let time_us = kernel.hls.cycles as f64 * options.clock_ns / 1000.0;
                    prop_assert_eq!(kernel.hls.time_us, time_us, "{}", kernel.name);
                }
            }
        }
    }
}
