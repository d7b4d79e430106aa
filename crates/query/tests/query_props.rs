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

    /// Every float oddity, and values equal to the ints above. `NaN` is
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
            i64::MAX as f64,
        ];
        floats[self.below(if self.extremes { 12 } else { 11 })]
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
/// does not.
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
        0..=3 => binary(
            *draws.pick(&CMP),
            random_value_expr(columns, 1, draws),
            random_value_expr(columns, 1, draws),
        ),
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

/// One generated case: random tables `t` and `d`, then the SQL the
/// draws render (when it plans) and one corpus query, each as planned
/// and as optimized, and three plans built directly.
fn generated_case(draws: &[u64], alter: bool) -> (Catalog, Vec<LogicalPlan>) {
    // An altered column can hold an `Int` beside a `Float`; with ints
    // past 2^53 there too, `Value::cmp` is no longer transitive and a
    // sort's answer depends on its algorithm. Typed columns cannot.
    let mut it = Draws {
        raw: draws.iter(),
        extremes: !alter,
    };
    let mut catalog = Catalog::new();
    random_table(&mut catalog, "t", 40, alter, &mut it);
    random_table(&mut catalog, "d", 12, alter, &mut it);
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

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
