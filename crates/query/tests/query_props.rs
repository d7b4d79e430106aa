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
//! 4. **The columnar executor is the row interpreter** — on random
//!    schemas, tables and plans, `exec::execute` and the row-at-a-time
//!    reference in `naive/` return the same columns and the same rows
//!    in the same order, bit for bit, or both fail.
//! 5. **The owned-rewrite optimizer is the clone-per-rule one** — on the
//!    same random plans, each rule and the pipeline return the plan the
//!    optimizer kept in `reference/optimizer.rs` returns, with the same
//!    plan text.
//! 6. **The borrowing lexer is the owned one** — on arbitrary text and
//!    on grammar soup, `token::tokenize` and the lexer kept in
//!    `reference/token.rs` return the same token kinds, payloads and
//!    offsets, or the same error.
//! 7. **Property 4 reaches every typed loop** — the cases it draws run
//!    each comparison and arithmetic loop the executor picks by column
//!    kind and read, global aggregates over rows and over none, groups
//!    of several keys and of many, join keys repeated on both sides, a
//!    `LIMIT` cutting a tie of its `ORDER BY`, and float sums whose bits
//!    show the order they were added in.
//!
//! The vendored proptest shim has no combinator strategies, so the
//! SQL generator draws raw integers and maps them onto grammar
//! fragments by hand — same coverage, simpler machinery.

mod naive;
mod reference;

use proptest::prelude::*;

use std::sync::{Arc, Barrier};

use everest_hls::{HlsOptions, HlsReport};
use everest_ir::print::print_module;
use everest_query::exec::{execute, row_multiset};
use everest_query::lower::{lower, LoweredQuery};
use everest_query::optimizer::{fold_constants, prune_projections, pushdown_predicates, Optimizer};
use everest_query::planner::plan_query;
use everest_query::table::{Catalog, DataType, Field, Schema, Table, Value};
use everest_query::token::{tokenize, TokenKind};
use everest_query::{parser, plan::LogicalPlan, AggFunc, Batch, BinOp, Expr, QueryError};

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

// ---------------------------------------------------------------------------
// Columnar executor == row reference
// ---------------------------------------------------------------------------

/// Raw draws handed out one at a time; zeros once they run out.
struct Draws<'a> {
    raw: std::slice::Iter<'a, u64>,
    /// Whether numbers come from the whole range or stay small.
    extremes: bool,
    /// Whether floats stay finite: drawn per table, so that some float
    /// columns hold no `NaN` and no infinity, and their sums show the
    /// order they were added in.
    finite: bool,
}

impl Draws<'_> {
    fn next(&mut self) -> u64 {
        self.raw.next().copied().unwrap_or(0)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn one_in(&mut self, n: usize) -> bool {
        self.below(n) == 0
    }

    fn pick<'t, T>(&mut self, options: &'t [T]) -> &'t T {
        &options[self.below(options.len())]
    }

    /// Few distinct values, so keys repeat and joins match, with both
    /// ends of the range among them when `extremes` is on. No two of
    /// them widen to one float: which of two such ints a float equals
    /// is the one thing `Value::cmp` leaves to the order of insertion.
    fn int(&mut self) -> i64 {
        const INTS: [i64; 9] = [-7, -1, 0, 1, 2, 3, 5, i64::MIN, i64::MAX];
        INTS[self.below(if self.extremes { 9 } else { 7 })]
    }

    /// Every float oddity, values equal to the ints above, and `1e16`,
    /// which a `1.0` added before it changes and one added after it does
    /// not: a sum in another order has other bits. `NaN` is
    /// the one this machine's arithmetic produces, not `f64::NAN`: when
    /// an addition meets two different `NaN`s, which of them it returns
    /// depends on the operand order the compiler picked, and a sum over
    /// `-inf`, `inf` and a `NaN` of other bits would differ in sign
    /// between two builds of the same loop.
    fn float(&mut self) -> f64 {
        let zero = std::hint::black_box(0.0_f64);
        let floats = [
            zero / std::hint::black_box(0.0),
            f64::NEG_INFINITY,
            f64::INFINITY,
            -7.0,
            -0.0,
            0.0,
            0.25,
            1.0,
            2.0,
            2.5,
            5.0,
            1.0e16,
            i64::MAX as f64,
        ];
        let odd = if self.finite { 3 } else { 0 };
        floats[odd + self.below(if self.extremes { 13 - odd } else { 12 - odd })]
    }
}

const STRS: [&str; 5] = ["", "a", "ab", "b", "x"];
const TYPES: [DataType; 3] = [DataType::Int, DataType::Float, DataType::Str];

fn random_value(ty: DataType, draws: &mut Draws) -> Value {
    match ty {
        DataType::Int => Value::Int(draws.int()),
        DataType::Float => Value::Float(draws.float()),
        DataType::Str => Value::Str(draws.pick(&STRS).to_string()),
        DataType::Bool => Value::Bool(draws.one_in(2)),
    }
}

/// Registers `name(k, v, c2..)`: two to four columns of random types
/// and up to `max_rows` rows, possibly none. With `alter`, some values
/// are then overwritten through the table's public fields with values
/// of other types — the one way a column stops being a typed vector.
fn random_table(
    catalog: &mut Catalog,
    name: &str,
    max_rows: usize,
    alter: bool,
    draws: &mut Draws,
) {
    let names = ["k", "v", "c2", "c3"];
    draws.finite = draws.one_in(2);
    let fields: Vec<Field> = (0..2 + draws.below(3))
        .map(|i| Field::new(names[i], *draws.pick(&TYPES)))
        .collect();
    let rows = (0..draws.below(max_rows + 1))
        .map(|_| fields.iter().map(|f| random_value(f.ty, draws)).collect())
        .collect();
    let mut table = Table::new(Schema::new(fields), rows).expect("rows match the schema");
    if alter {
        // Numbers only in half the tables: an `Int` equal to a `Float`
        // in one column is what tells first-of-equals from last.
        let kinds = [
            DataType::Int,
            DataType::Float,
            DataType::Str,
            DataType::Bool,
        ];
        let kinds = &kinds[..if draws.one_in(2) { 2 } else { 4 }];
        for row in &mut table.rows {
            for value in row.iter_mut() {
                if draws.one_in(3) {
                    *value = random_value(*draws.pick(kinds), draws);
                }
            }
        }
    }
    catalog.register(name, table);
}

fn binary(op: BinOp, lhs: Expr, rhs: Expr) -> Expr {
    Expr::Binary {
        op,
        lhs: Box::new(lhs),
        rhs: Box::new(rhs),
    }
}

/// A scalar expression over `columns`, every name bound. Types are
/// not: it may well add a string to a number, which must then fail in
/// both executors on the same inputs.
fn random_value_expr(columns: &[String], depth: usize, draws: &mut Draws) -> Expr {
    let column = |draws: &mut Draws| Expr::Column(draws.pick(columns).clone());
    match draws.below(if depth == 0 { 5 } else { 8 }) {
        0..=2 => column(draws),
        3 => Expr::Int(draws.int()),
        4 => match draws.below(3) {
            0 => Expr::Float(draws.float()),
            1 => Expr::Str(draws.pick(&STRS).to_string()),
            _ => Expr::Bool(draws.one_in(2)),
        },
        5 => Expr::Neg(Box::new(random_value_expr(columns, depth - 1, draws))),
        _ => binary(
            *draws.pick(&[BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Div]),
            random_value_expr(columns, depth - 1, draws),
            random_value_expr(columns, depth - 1, draws),
        ),
    }
}

/// A predicate over `columns`: comparisons under `AND` / `OR` / `NOT`,
/// with now and then a constant or a non-boolean where a boolean goes —
/// what tells an executor that short-circuits by row from one that
/// does not. A comparison's operands are one or two levels deep, so
/// arithmetic on computed values also runs under a row list.
fn random_predicate(columns: &[String], depth: usize, draws: &mut Draws) -> Expr {
    const CMP: [BinOp; 6] = [
        BinOp::Eq,
        BinOp::Ne,
        BinOp::Lt,
        BinOp::Le,
        BinOp::Gt,
        BinOp::Ge,
    ];
    match draws.below(if depth == 0 { 6 } else { 10 }) {
        0..=3 => {
            let depth = 1 + draws.below(2);
            binary(
                *draws.pick(&CMP),
                random_value_expr(columns, depth, draws),
                random_value_expr(columns, depth, draws),
            )
        }
        4 => Expr::Bool(draws.one_in(2)),
        5 => random_value_expr(columns, 1, draws),
        6 => Expr::Not(Box::new(random_predicate(columns, depth - 1, draws))),
        _ => binary(
            *draws.pick(&[BinOp::And, BinOp::Or]),
            random_predicate(columns, depth - 1, draws),
            random_predicate(columns, depth - 1, draws),
        ),
    }
}

/// A scan of `table` under `alias`: every column, or a pushed-down
/// projection of some of them in any order.
fn random_scan(catalog: &Catalog, table: &str, alias: &str, draws: &mut Draws) -> LogicalPlan {
    let fields = &catalog.get(table).expect("registered").schema.fields;
    let projection: Option<Vec<usize>> = draws.one_in(2).then(|| {
        (0..1 + draws.below(fields.len()))
            .map(|_| draws.below(fields.len()))
            .collect()
    });
    let indices = projection.clone().unwrap_or((0..fields.len()).collect());
    LogicalPlan::Scan {
        table: table.to_string(),
        columns: indices
            .iter()
            .map(|&i| format!("{alias}.{}", fields[i].name))
            .collect(),
        projection,
    }
}

/// A plan built operator by operator, bottom up: scan, nested filters,
/// join, project, aggregate, sort, limit — each stage present or not.
fn random_plan(catalog: &Catalog, draws: &mut Draws) -> LogicalPlan {
    let mut plan = random_scan(catalog, "t", "t", draws);
    for _ in 0..draws.below(3) {
        plan = LogicalPlan::Filter {
            predicate: random_predicate(&plan.schema(), 2, draws),
            input: Box::new(plan),
        };
    }
    if draws.one_in(2) {
        let right = random_scan(catalog, "d", "d", draws);
        let (left_key, right_key) = (
            draws.pick(&plan.schema()).clone(),
            draws.pick(&right.schema()).clone(),
        );
        plan = LogicalPlan::Join {
            left: Box::new(plan),
            right: Box::new(right),
            left_key,
            right_key,
        };
    }
    if draws.one_in(3) {
        let columns = plan.schema();
        let exprs = (0..1 + draws.below(3))
            .map(|i| match draws.below(3) {
                0 => (random_value_expr(&columns, 2, draws), format!("e{i}")),
                1 => (random_predicate(&columns, 1, draws), format!("p{i}")),
                _ => {
                    let name = draws.pick(&columns).clone();
                    (Expr::Column(name.clone()), name)
                }
            })
            .collect();
        plan = LogicalPlan::Project {
            input: Box::new(plan),
            exprs,
        };
    }
    if draws.one_in(2) {
        let columns = plan.schema();
        let group_by = (0..draws.below(3))
            .map(|_| random_value_expr(&columns, draws.below(2), draws))
            .collect();
        const FUNCS: [AggFunc; 5] = [
            AggFunc::Count,
            AggFunc::Sum,
            AggFunc::Avg,
            AggFunc::Min,
            AggFunc::Max,
        ];
        let aggs = (0..1 + draws.below(3))
            .map(|_| Expr::Agg {
                func: *draws.pick(&FUNCS),
                arg: (!draws.one_in(5))
                    .then(|| Box::new(random_value_expr(&columns, draws.below(2), draws))),
            })
            .collect();
        plan = LogicalPlan::Aggregate {
            input: Box::new(plan),
            group_by,
            aggs,
        };
    }
    if draws.one_in(2) {
        let columns = plan.schema();
        let keys = (0..1 + draws.below(2))
            .map(|_| {
                (
                    random_value_expr(&columns, draws.below(2), draws),
                    draws.one_in(2),
                )
            })
            .collect();
        plan = LogicalPlan::Sort {
            input: Box::new(plan),
            keys,
        };
    }
    if draws.one_in(2) {
        plan = LogicalPlan::Limit {
            input: Box::new(plan),
            n: draws.below(12),
        };
    }
    plan
}

/// `Value`'s own equality calls `Int(2)` and `Float(2.0)` equal; this
/// one is identity, floats by their bits. Any two `NaN`s pass: negation
/// can still make two of different sign meet in an addition (see
/// [`floats`]), and then the sign of the result is the compiler's.
fn identical(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Int(a), Value::Int(b)) => a == b,
        (Value::Float(a), Value::Float(b)) => {
            a.to_bits() == b.to_bits() || a.is_nan() && b.is_nan()
        }
        (Value::Str(a), Value::Str(b)) => a == b,
        (Value::Bool(a), Value::Bool(b)) => a == b,
        _ => false,
    }
}

fn identical_batches(a: &Batch, b: &Batch) -> bool {
    a.columns == b.columns
        && a.rows.len() == b.rows.len()
        && a.rows
            .iter()
            .zip(&b.rows)
            .all(|(x, y)| x.len() == y.len() && x.iter().zip(y).all(|(p, q)| identical(p, q)))
}

/// The draws the plans of a case take: the case's own, each through
/// SplitMix64's finalizer, so the plans start at the first draw however
/// many the tables used, and do not read the values the tables read.
fn plan_draws(draws: &[u64]) -> Vec<u64> {
    let mix = |mut z: u64| {
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    draws.iter().map(|&d| mix(d)).collect()
}

/// One generated case: random tables `t` and `d`, then the SQL the
/// draws render (when it plans) and one corpus query, each as planned
/// and as optimized, and three plans built directly. The corpus pick
/// and the three plans read [`plan_draws`].
fn generated_case(draws: &[u64], alter: bool) -> (Catalog, Vec<LogicalPlan>) {
    // An altered column can hold an `Int` beside a `Float`; with ints
    // past 2^53 there too, `Value::cmp` is no longer transitive and a
    // sort's answer depends on its algorithm. Typed columns cannot.
    let mut tables = Draws {
        raw: draws.iter(),
        extremes: !alter,
        finite: false,
    };
    let mut catalog = Catalog::new();
    random_table(&mut catalog, "t", 40, alter, &mut tables);
    random_table(&mut catalog, "d", 12, alter, &mut tables);
    let plan_draws = plan_draws(draws);
    let mut it = Draws {
        raw: plan_draws.iter(),
        ..tables
    };
    let optimizer = Optimizer::for_catalog(&catalog);
    let mut plans = Vec::new();
    for sql in [&render_sql(draws), pick(EQUIVALENCE_QUERIES, it.next())] {
        if let Some(plan) = parser::parse(sql)
            .ok()
            .and_then(|query| plan_query(&catalog, &query).ok())
        {
            plans.push(optimizer.optimize(&plan));
            plans.push(plan);
        }
    }
    for _ in 0..3 {
        plans.push(random_plan(&catalog, &mut it));
    }
    (catalog, plans)
}

/// Runs one generated case through both executors.
fn check_against_the_row_reference(draws: &[u64], alter: bool) -> Result<(), String> {
    let (catalog, plans) = generated_case(draws, alter);
    for plan in &plans {
        let verdict = match (naive::execute(plan, &catalog), execute(plan, &catalog)) {
            (Ok(want), Ok(got)) if identical_batches(&want, &got) => continue,
            (Err(_), Err(_)) => continue,
            (want, got) => format!("reference: {want:?}\ncolumnar: {got:?}"),
        };
        let tables: Vec<_> = ["t", "d"].iter().map(|t| catalog.get(t)).collect();
        return Err(format!("{}{verdict}\n{tables:?}", plan.to_text()));
    }
    Ok(())
}

/// Cases each executor property runs.
const EXECUTOR_CASES: u32 = 3072;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(EXECUTOR_CASES))]

    /// Same columns, same rows in the same order with floats compared
    /// by their bits, or an error from both.
    #[test]
    fn columnar_executor_matches_the_row_reference(
        draws in proptest::collection::vec(any::<u64>(), 120..400),
    ) {
        let outcome = check_against_the_row_reference(&draws, false);
        prop_assert!(outcome.is_ok(), "{}", outcome.unwrap_err());
    }

    /// `Table::new` checks every value against its field, so only a
    /// table altered through its public fields afterwards has a column
    /// that is not a typed vector. Such a column is carried as plain
    /// values, under the same operators with the same results.
    #[test]
    fn altered_tables_run_on_untyped_columns(
        draws in proptest::collection::vec(any::<u64>(), 120..400),
    ) {
        let outcome = check_against_the_row_reference(&draws, true);
        prop_assert!(outcome.is_ok(), "{}", outcome.unwrap_err());
    }
}

/// The kind of one operand column, as the executor dispatches on it.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    Int,
    Float,
    Str,
    Bool,
    /// Plain values: a column of an altered table, or computed from one.
    Values,
}

/// How an operand's rows are read: a literal's one value, a computed
/// column row by row, or a column through the selection's row list.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Read {
    Broadcast,
    Identity,
    Via,
}

/// A relation as the classifier sees it: its columns' kinds, whether its
/// selection is a row list, and how many rows it holds.
struct Shape {
    names: Vec<String>,
    kinds: Vec<Kind>,
    via: bool,
    rows: usize,
}

impl Shape {
    fn read(&self) -> Read {
        if self.via {
            Read::Via
        } else {
            Read::Identity
        }
    }
}

/// Names the typed loops `exec::execute` runs on generated plans, one
/// string per loop: comparison and arithmetic by the kinds and reads of
/// their operands, global aggregates by function and whether any row
/// came in, and the group, join and top-k cases the hash table and the
/// selection have to get right. An operator counts only when its input
/// holds rows, and a plan only when the row reference runs it.
struct Reach<'c> {
    catalog: &'c Catalog,
    loops: std::collections::BTreeSet<String>,
}

impl Reach<'_> {
    fn record(&mut self, live: bool, cell: String) {
        if live {
            self.loops.insert(cell);
        }
    }

    /// The kind and read of `expr` on `rel`'s rows read `read`.
    fn vector(&mut self, expr: &Expr, rel: &Shape, read: Read, live: bool) -> (Kind, Read) {
        match expr {
            Expr::Column(name) => {
                let at = rel.names.iter().position(|n| n == name).expect("bound");
                (rel.kinds[at], read)
            }
            Expr::Int(_) => (Kind::Int, Read::Broadcast),
            Expr::Float(_) => (Kind::Float, Read::Broadcast),
            Expr::Str(_) => (Kind::Str, Read::Broadcast),
            Expr::Bool(_) => (Kind::Bool, Read::Broadcast),
            Expr::Binary {
                op: BinOp::And | BinOp::Or,
                ..
            }
            | Expr::Not(_) => {
                self.select(expr, rel, read, live);
                (Kind::Bool, Read::Identity)
            }
            Expr::Binary { op, lhs, rhs } => {
                let (l, r) = (
                    self.vector(lhs, rel, read, live),
                    self.vector(rhs, rel, read, live),
                );
                if op.is_predicate() {
                    self.record(live, format!("compare {l:?} {r:?}"));
                    return (Kind::Bool, Read::Identity);
                }
                self.record(live, format!("arith {l:?} {r:?}"));
                self.record(live, format!("arith {} {:?} {:?}", op.symbol(), l.0, r.0));
                let kind = match (l.0, r.0) {
                    (Kind::Int, Kind::Int) if *op != BinOp::Div => Kind::Int,
                    (Kind::Int | Kind::Float, Kind::Int | Kind::Float) => Kind::Float,
                    _ => Kind::Values,
                };
                (kind, Read::Identity)
            }
            Expr::Neg(inner) => match self.vector(inner, rel, read, live).0 {
                kind @ (Kind::Int | Kind::Float) => (kind, Read::Identity),
                _ => (Kind::Values, Read::Identity),
            },
            Expr::Agg { .. } => (Kind::Values, Read::Identity),
        }
    }

    /// What selecting the rows `expr` holds on reads: `AND` and `OR`
    /// take their right side on a row list.
    fn select(&mut self, expr: &Expr, rel: &Shape, read: Read, live: bool) {
        match expr {
            Expr::Binary {
                op: BinOp::And | BinOp::Or,
                lhs,
                rhs,
            } => {
                self.select(lhs, rel, read, live);
                self.select(rhs, rel, Read::Via, live);
            }
            Expr::Not(inner) => self.select(inner, rel, read, live),
            _ => {
                self.vector(expr, rel, read, live);
            }
        }
    }

    fn shape(&mut self, plan: &LogicalPlan) -> Option<Shape> {
        let rows = naive::execute(plan, self.catalog).ok()?.rows.len();
        Some(match plan {
            LogicalPlan::Scan {
                table, projection, ..
            } => {
                let t = self.catalog.get(table).expect("registered");
                let kind_of = |i: usize| {
                    let ty = t.schema.fields[i].ty;
                    let typed = t.rows.iter().all(|row| row[i].data_type() == ty);
                    match ty {
                        _ if !typed => Kind::Values,
                        DataType::Int => Kind::Int,
                        DataType::Float => Kind::Float,
                        DataType::Str => Kind::Str,
                        DataType::Bool => Kind::Bool,
                    }
                };
                let all: Vec<usize> = (0..t.schema.fields.len()).collect();
                let indices = projection.as_ref().unwrap_or(&all);
                Shape {
                    names: plan.schema(),
                    kinds: indices.iter().map(|&i| kind_of(i)).collect(),
                    via: false,
                    rows,
                }
            }
            LogicalPlan::Filter { input, predicate } => {
                let rel = self.shape(input)?;
                self.select(predicate, &rel, rel.read(), rel.rows > 0);
                Shape {
                    via: true,
                    rows,
                    ..rel
                }
            }
            LogicalPlan::Project { input, exprs } => {
                let rel = self.shape(input)?;
                let plain = exprs.iter().all(|(e, _)| matches!(e, Expr::Column(_)));
                let kinds = exprs
                    .iter()
                    .map(|(e, _)| self.vector(e, &rel, rel.read(), rel.rows > 0).0)
                    .collect();
                Shape {
                    names: plan.schema(),
                    kinds,
                    via: plain && rel.via,
                    rows,
                }
            }
            LogicalPlan::Aggregate {
                input,
                group_by,
                aggs,
            } => {
                let rel = self.shape(input)?;
                let live = rel.rows > 0;
                let mut kinds: Vec<Kind> = group_by
                    .iter()
                    .map(|e| self.vector(e, &rel, rel.read(), live).0)
                    .collect();
                for (position, agg) in aggs.iter().enumerate() {
                    let Expr::Agg { func, arg } = agg else {
                        return None;
                    };
                    let arg = arg
                        .as_ref()
                        .map(|a| self.vector(a, &rel, rel.read(), live).0);
                    kinds.push(match func {
                        AggFunc::Count => Kind::Int,
                        AggFunc::Sum | AggFunc::Avg => Kind::Float,
                        _ if !live => Kind::Float,
                        _ => arg.unwrap_or(Kind::Values),
                    });
                    if group_by.is_empty() {
                        self.loops.insert(format!(
                            "global {func:?} over {}",
                            if live { "rows" } else { "nothing" }
                        ));
                    }
                    if *func == AggFunc::Sum && arg == Some(Kind::Float) && rel.rows > 1 {
                        let sums = naive::execute(plan, self.catalog).expect("ran above");
                        let at = group_by.len() + position;
                        let big = |row: &Vec<Value>| matches!(row[at], Value::Float(x) if x.is_finite() && x.abs() > 1e15);
                        let groups = if group_by.is_empty() {
                            "global"
                        } else {
                            "grouped"
                        };
                        self.record(
                            sums.rows.iter().any(big),
                            format!("a {groups} float sum past 1e15"),
                        );
                    }
                }
                self.record(
                    live && group_by.len() > 1,
                    "groups of several keys".to_string(),
                );
                self.record(
                    group_by.len() == 1 && rows >= 8,
                    "eight or more groups".to_string(),
                );
                Shape {
                    names: plan.schema(),
                    kinds,
                    via: false,
                    rows,
                }
            }
            LogicalPlan::Join {
                left,
                right,
                left_key,
                right_key,
            } => {
                let (l, r) = (self.shape(left)?, self.shape(right)?);
                let values = |side: &LogicalPlan, key: &str| -> Vec<Value> {
                    let batch = naive::execute(side, self.catalog).expect("ran above");
                    let at = batch.columns.iter().position(|c| c == key).expect("bound");
                    batch.rows.into_iter().map(|row| row[at].clone()).collect()
                };
                let (lv, rv) = (values(left, left_key), values(right, right_key));
                let twice =
                    |values: &[Value], v: &Value| values.iter().filter(|w| *w == v).count() > 1;
                let both = lv.iter().any(|v| twice(&lv, v) && twice(&rv, v));
                self.record(both, "a key twice on both sides of a join".to_string());
                Shape {
                    names: plan.schema(),
                    kinds: l.kinds.iter().chain(&r.kinds).copied().collect(),
                    via: false,
                    rows,
                }
            }
            LogicalPlan::Sort { input, keys } => {
                let rel = self.shape(input)?;
                for (key, _) in keys {
                    self.vector(key, &rel, rel.read(), rel.rows > 0);
                }
                Shape {
                    via: true,
                    rows,
                    ..rel
                }
            }
            LogicalPlan::Limit { input, n } => {
                let rel = self.shape(input)?;
                if let LogicalPlan::Sort { keys, .. } = &**input {
                    self.record(
                        *n < rel.rows,
                        "a limit under the rows of a sort".to_string(),
                    );
                    let sorted = naive::execute(input, self.catalog).expect("ran above");
                    let key = |row: usize| -> Vec<Value> {
                        let row = &sorted.rows[row];
                        let value = |(k, _): &(Expr, bool)| naive::eval(k, &sorted.columns, row);
                        keys.iter().map(|k| value(k).expect("ran above")).collect()
                    };
                    let tie = *n > 0 && *n < rel.rows && key(*n - 1) == key(*n);
                    self.record(tie, "a limit cutting a tie of a sort".to_string());
                }
                Shape { rows, ..rel }
            }
        })
    }
}

/// The draws case `case` of the property `test` in this file runs on.
fn property_draws(test: &str, case: u32) -> Vec<u64> {
    let mut rng = TestRng::for_case(&format!("query_props::{test}"), case);
    proptest::collection::vec(any::<u64>(), 120..400).generate(&mut rng)
}

/// The generator behind the two executor properties reaches every typed
/// loop the executor picks: comparisons and arithmetic over every pair
/// of typed kinds and reads, each arithmetic operator on each pair of
/// numeric kinds, every global aggregate over rows and over none, groups
/// of several keys and of many, join keys repeated on both sides and a
/// `LIMIT` cutting a tie of the `ORDER BY` above it. No executor path
/// switches on a table's size, so its small tables reach them all.
#[test]
fn the_executor_properties_reach_every_typed_loop() {
    const READS: [Read; 3] = [Read::Broadcast, Read::Identity, Read::Via];
    const NUMBERS: [(Kind, Kind); 4] = [
        (Kind::Int, Kind::Int),
        (Kind::Int, Kind::Float),
        (Kind::Float, Kind::Int),
        (Kind::Float, Kind::Float),
    ];
    let mut want = std::collections::BTreeSet::new();
    for (l, r) in NUMBERS.iter().chain(&[(Kind::Str, Kind::Str)]) {
        for (lr, rr) in READS.iter().flat_map(|a| READS.iter().map(move |b| (a, b))) {
            // Nothing computes a string, so the two string columns of a
            // comparison are read through one selection alike.
            let mixed = matches!(
                (lr, rr),
                (Read::Identity, Read::Via) | (Read::Via, Read::Identity)
            );
            if !(*l == Kind::Str && mixed) {
                want.insert(format!("compare ({l:?}, {lr:?}) ({r:?}, {rr:?})"));
            }
            if *l != Kind::Str {
                want.insert(format!("arith ({l:?}, {lr:?}) ({r:?}, {rr:?})"));
            }
        }
        for op in [BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Div] {
            if *l != Kind::Str {
                want.insert(format!("arith {} {l:?} {r:?}", op.symbol()));
            }
        }
    }
    want.insert("compare (Bool, Broadcast) (Bool, Broadcast)".to_string());
    for func in [
        AggFunc::Count,
        AggFunc::Sum,
        AggFunc::Avg,
        AggFunc::Min,
        AggFunc::Max,
    ] {
        for input in ["rows", "nothing"] {
            want.insert(format!("global {func:?} over {input}"));
        }
    }
    for case in [
        "a global float sum past 1e15",
        "a grouped float sum past 1e15",
        "groups of several keys",
        "eight or more groups",
        "a key twice on both sides of a join",
        "a limit under the rows of a sort",
        "a limit cutting a tie of a sort",
    ] {
        want.insert(case.to_string());
    }

    let mut reached = std::collections::BTreeSet::new();
    let properties = [
        ("columnar_executor_matches_the_row_reference", false),
        ("altered_tables_run_on_untyped_columns", true),
    ];
    for (test, alter) in properties {
        for case in 0..EXECUTOR_CASES {
            let (catalog, plans) = generated_case(&property_draws(test, case), alter);
            let mut reach = Reach {
                catalog: &catalog,
                loops: std::collections::BTreeSet::new(),
            };
            for plan in &plans {
                reach.shape(plan);
            }
            reached.append(&mut reach.loops);
        }
    }
    let missing: Vec<&String> = want.difference(&reached).collect();
    assert!(missing.is_empty(), "never reached: {missing:#?}");
}

// ---------------------------------------------------------------------------
// Optimizer and lexer == the kept references
// ---------------------------------------------------------------------------

/// Each rule and the pipeline, as the optimizer and as the reference
/// rewrite `plan`: the same plan (by `==`, and by its debug text, which
/// also tells a NaN literal from itself) and the same plan text.
fn rewrites_as_the_reference(catalog: &Catalog, plan: &LogicalPlan) -> Result<(), String> {
    use reference::optimizer as naive_rules;
    let optimizer = Optimizer::for_catalog(catalog);
    let reference = naive_rules::Optimizer::for_catalog(catalog);
    let rewrites = [
        (
            "fold_constants",
            fold_constants(plan),
            naive_rules::fold_constants(plan),
        ),
        (
            "pushdown_predicates",
            pushdown_predicates(plan),
            naive_rules::pushdown_predicates(plan),
        ),
        (
            "prune_projections",
            prune_projections(plan),
            naive_rules::prune_projections(plan),
        ),
        (
            "reorder_joins",
            optimizer.reorder_joins(plan),
            reference.reorder_joins(plan),
        ),
        (
            "optimize",
            optimizer.optimize(plan),
            reference.optimize(plan),
        ),
    ];
    for (rule, got, want) in rewrites {
        let (got_debug, want_debug) = (format!("{got:?}"), format!("{want:?}"));
        let equal = got == want || want_debug.contains("NaN");
        if !equal || got_debug != want_debug || got.to_text() != want.to_text() {
            return Err(format!(
                "{rule} of\n{}rewrote to\n{}the reference to\n{}",
                plan.to_text(),
                got.to_text(),
                want.to_text()
            ));
        }
    }
    Ok(())
}

#[test]
fn the_corpus_rewrites_as_through_the_reference() {
    let catalog = props_catalog();
    let optimizer = Optimizer::for_catalog(&catalog);
    for sql in EQUIVALENCE_QUERIES {
        let plan = plan_query(&catalog, &parser::parse(sql).expect("parses")).expect("plans");
        for plan in [optimizer.optimize(&plan), plan] {
            let outcome = rewrites_as_the_reference(&catalog, &plan);
            assert!(outcome.is_ok(), "{sql}: {}", outcome.unwrap_err());
        }
    }
}

/// Text over an alphabet that lexes (keywords in any case, digits,
/// quotes, operators) and one that does not (non-ASCII letters and
/// spaces, control bytes, `!` alone).
fn render_alphabet(draws: &[u64]) -> String {
    const ALPHABET: [&str; 40] = [
        "SELECT",
        "select",
        "FrOm",
        "where",
        "AS",
        "and",
        "t",
        "k",
        "_x1",
        "v",
        "0",
        "7",
        "42",
        "1.5",
        "3.",
        "99999999999999999999",
        "'",
        "'a b'",
        " ",
        "\t",
        "\n",
        ",",
        ".",
        "*",
        "(",
        ")",
        "+",
        "-",
        "/",
        "=",
        "!=",
        "!",
        "<",
        "<=",
        "<>",
        ">",
        ">=",
        "é",
        "\u{a0}",
        "\u{1}",
    ];
    draws.iter().map(|&d| pick(&ALPHABET, d)).collect()
}

/// The lexer and the reference agree on `sql`: same kinds, payloads and
/// offsets, or the same error.
fn lexes_as_the_reference(sql: &str) -> Result<(), String> {
    use reference::token::TokenKind as Owned;
    let owned = |kind: TokenKind<'_>| match kind {
        TokenKind::Keyword(k) => Owned::Keyword(k),
        TokenKind::Ident(s) => Owned::Ident(s.to_string()),
        TokenKind::Int(v) => Owned::Int(v),
        TokenKind::Float(v) => Owned::Float(v),
        TokenKind::Str(s) => Owned::Str(s.to_string()),
        TokenKind::Comma => Owned::Comma,
        TokenKind::Dot => Owned::Dot,
        TokenKind::Star => Owned::Star,
        TokenKind::LParen => Owned::LParen,
        TokenKind::RParen => Owned::RParen,
        TokenKind::Plus => Owned::Plus,
        TokenKind::Minus => Owned::Minus,
        TokenKind::Slash => Owned::Slash,
        TokenKind::Eq => Owned::Eq,
        TokenKind::Ne => Owned::Ne,
        TokenKind::Lt => Owned::Lt,
        TokenKind::Le => Owned::Le,
        TokenKind::Gt => Owned::Gt,
        TokenKind::Ge => Owned::Ge,
    };
    let got = tokenize(sql).map(|tokens| {
        tokens
            .into_iter()
            .map(|t| (owned(t.kind), t.offset))
            .collect::<Vec<_>>()
    });
    let want = reference::token::tokenize(sql).map(|tokens| {
        tokens
            .into_iter()
            .map(|t| (t.kind, t.offset))
            .collect::<Vec<_>>()
    });
    if got == want {
        Ok(())
    } else {
        Err(format!(
            "{sql:?}: lexed to {got:?}, the reference to {want:?}"
        ))
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Rule by rule and as a pipeline, on the plans the executor
    /// property runs (planned, optimized and built directly).
    #[test]
    fn optimizer_rewrites_as_the_clone_per_rule_reference(
        draws in proptest::collection::vec(any::<u64>(), 120..400),
    ) {
        let (catalog, plans) = generated_case(&draws, false);
        for plan in &plans {
            let outcome = rewrites_as_the_reference(&catalog, plan);
            prop_assert!(outcome.is_ok(), "{}", outcome.unwrap_err());
        }
    }

    /// On arbitrary printable bytes, grammar soup and text mixing what
    /// lexes with what does not.
    #[test]
    fn lexer_tokenizes_as_the_owned_reference(
        draws in proptest::collection::vec(any::<u64>(), 0..48),
    ) {
        for sql in [render_bytes(&draws), render_sql(&draws), render_alphabet(&draws)] {
            let outcome = lexes_as_the_reference(&sql);
            prop_assert!(outcome.is_ok(), "{}", outcome.unwrap_err());
        }
    }
}
