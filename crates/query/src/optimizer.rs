//! Rule-based logical-plan optimizer.
//!
//! Four rewrite rules, each individually proven semantics-preserving
//! by the property suite (`tests/query_props.rs`: optimized and
//! unoptimized plans produce identical row multisets on seeded
//! tables):
//!
//! 1. [`fold_constants`] — literal arithmetic/comparisons evaluated at
//!    plan time with *exactly* the executor's semantics (shared
//!    [`crate::exec::arith`], wrapping ints, short-circuit AND/OR);
//! 2. [`pushdown_predicates`] — adjacent filters merge (inner
//!    conjunct first, preserving short-circuit order) and conjuncts
//!    referencing only one join side move below the join;
//! 3. [`prune_projections`] — required-column analysis sets
//!    `Scan.projection` so base tables are read narrow;
//! 4. [`Optimizer::reorder_joins`] — the smaller estimated side
//!    becomes the hash-build side, with an identity `Project` wrapper
//!    restoring the original column order.
//!
//! [`Optimizer::optimize`] applies them in the order fold → pushdown →
//! prune → reorder (prune before reorder so the reorder wrapper does
//! not pin already-pruned columns).
//!
//! # Owned rewrites
//!
//! `optimize` clones its input once; every rule then rewrites that
//! owned tree where it stands. A folded expression replaces its node,
//! a merged or pushed filter moves its input's box instead of copying
//! the subtree, and pruning tracks required columns as names borrowed
//! from the expressions that read them, in one buffer for the whole
//! walk. The public per-rule functions clone and rewrite the same way.
//! The clone-per-rule optimizer this replaced is kept in
//! `tests/reference/optimizer.rs`, and the property suite holds every
//! rule and the pipeline to it: equal plans and equal plan text.

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::exec::arith;
use crate::plan::{conjoin, split_conjunction, BinOp, Expr, LogicalPlan};
use crate::table::{Catalog, Value};

/// `true` when the expression is syntactically guaranteed to evaluate
/// to a boolean (or error) — the precondition for AND/OR identity
/// folding to preserve executor semantics outside filter positions.
fn returns_bool(expr: &Expr) -> bool {
    match expr {
        Expr::Bool(_) | Expr::Not(_) => true,
        Expr::Binary { op, .. } => op.is_predicate(),
        Expr::Column(_)
        | Expr::Int(_)
        | Expr::Float(_)
        | Expr::Str(_)
        | Expr::Neg(_)
        | Expr::Agg { .. } => false,
    }
}

fn literal_value(expr: &Expr) -> Option<Value> {
    match expr {
        Expr::Int(v) => Some(Value::Int(*v)),
        Expr::Float(v) => Some(Value::Float(*v)),
        Expr::Str(v) => Some(Value::Str(v.clone())),
        Expr::Bool(v) => Some(Value::Bool(*v)),
        _ => None,
    }
}

fn value_to_expr(value: Value) -> Expr {
    match value {
        Value::Int(v) => Expr::Int(v),
        Value::Float(v) => Expr::Float(v),
        Value::Str(v) => Expr::Str(v),
        Value::Bool(v) => Expr::Bool(v),
    }
}

/// Takes a node out of the tree, leaving a scan that owns nothing.
fn take(plan: &mut LogicalPlan) -> LogicalPlan {
    let empty = LogicalPlan::Scan {
        table: String::new(),
        columns: Vec::new(),
        projection: None,
    };
    std::mem::replace(plan, empty)
}

/// A node's inputs, in order.
fn inputs_mut(plan: &mut LogicalPlan) -> impl Iterator<Item = &mut LogicalPlan> {
    let (first, second) = match plan {
        LogicalPlan::Scan { .. } => (None, None),
        LogicalPlan::Join { left, right, .. } => (Some(&mut **left), Some(&mut **right)),
        LogicalPlan::Filter { input, .. }
        | LogicalPlan::Project { input, .. }
        | LogicalPlan::Aggregate { input, .. }
        | LogicalPlan::Sort { input, .. }
        | LogicalPlan::Limit { input, .. } => (Some(&mut **input), None),
    };
    first.into_iter().chain(second)
}

/// What a binary node with folded operands folds to.
enum Folded {
    /// A literal.
    Value(Value),
    /// Its left operand (the right was an identity).
    Lhs,
    /// Its right operand (the left was an identity).
    Rhs,
}

/// How a binary node whose operands are folded folds, if it does.
fn fold_binary(op: BinOp, lhs: &Expr, rhs: &Expr) -> Option<Folded> {
    // Short-circuit identities. The left operand is evaluated first at
    // runtime, so a literal left side folds freely; a literal identity
    // is only dropped when the surviving operand is guaranteed
    // boolean-shaped (otherwise folding could turn a type error into a
    // value).
    if op == BinOp::And {
        match (lhs, rhs) {
            (Expr::Bool(false), _) => return Some(Folded::Value(Value::Bool(false))),
            (Expr::Bool(true), other) if returns_bool(other) => return Some(Folded::Rhs),
            (other, Expr::Bool(true)) if returns_bool(other) => return Some(Folded::Lhs),
            _ => {}
        }
    }
    if op == BinOp::Or {
        match (lhs, rhs) {
            (Expr::Bool(true), _) => return Some(Folded::Value(Value::Bool(true))),
            (Expr::Bool(false), other) if returns_bool(other) => return Some(Folded::Rhs),
            (other, Expr::Bool(false)) if returns_bool(other) => return Some(Folded::Lhs),
            _ => {}
        }
    }
    let (a, b) = (literal_value(lhs)?, literal_value(rhs)?);
    let folded = match op {
        BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div => arith(op, &a, &b).ok(),
        BinOp::Eq => Some(Value::Bool(a == b)),
        BinOp::Ne => Some(Value::Bool(a != b)),
        BinOp::Lt => Some(Value::Bool(a < b)),
        BinOp::Le => Some(Value::Bool(a <= b)),
        BinOp::Gt => Some(Value::Bool(a > b)),
        BinOp::Ge => Some(Value::Bool(a >= b)),
        BinOp::And | BinOp::Or => match (a, b) {
            (Value::Bool(x), Value::Bool(y)) => {
                Some(Value::Bool(if op == BinOp::And { x && y } else { x || y }))
            }
            _ => None,
        },
    };
    folded.map(Folded::Value)
}

/// Folds constant sub-expressions, mirroring executor semantics
/// exactly (shared arithmetic, short-circuit logical operators).
pub fn fold_expr(expr: &Expr) -> Expr {
    let mut folded = expr.clone();
    fold_in_place(&mut folded);
    folded
}

/// [`fold_expr`] on an expression it owns: a folded node is replaced
/// where it stands, and the operand an identity keeps moves up.
fn fold_in_place(expr: &mut Expr) {
    let folded = match expr {
        Expr::Column(_) | Expr::Int(_) | Expr::Float(_) | Expr::Str(_) | Expr::Bool(_) => return,
        Expr::Binary { op, lhs, rhs } => {
            fold_in_place(lhs);
            fold_in_place(rhs);
            match fold_binary(*op, lhs, rhs) {
                Some(Folded::Value(v)) => value_to_expr(v),
                Some(Folded::Lhs) => std::mem::replace(&mut **lhs, Expr::Bool(false)),
                Some(Folded::Rhs) => std::mem::replace(&mut **rhs, Expr::Bool(false)),
                None => return,
            }
        }
        Expr::Not(inner) => {
            fold_in_place(inner);
            match **inner {
                Expr::Bool(v) => Expr::Bool(!v),
                _ => return,
            }
        }
        Expr::Neg(inner) => {
            fold_in_place(inner);
            match **inner {
                Expr::Int(v) => Expr::Int(v.wrapping_neg()),
                Expr::Float(v) => Expr::Float(-v),
                _ => return,
            }
        }
        Expr::Agg { arg, .. } => {
            if let Some(a) = arg {
                fold_in_place(a);
            }
            return;
        }
    };
    *expr = folded;
}

/// Rule 1 on a plan it owns.
fn fold_plan(plan: &mut LogicalPlan) {
    match plan {
        LogicalPlan::Filter { predicate, .. } => fold_in_place(predicate),
        LogicalPlan::Project { exprs, .. } => {
            exprs.iter_mut().for_each(|(e, _)| fold_in_place(e));
        }
        LogicalPlan::Aggregate { group_by, aggs, .. } => {
            group_by.iter_mut().chain(aggs).for_each(fold_in_place);
        }
        LogicalPlan::Sort { keys, .. } => keys.iter_mut().for_each(|(e, _)| fold_in_place(e)),
        LogicalPlan::Scan { .. } | LogicalPlan::Join { .. } | LogicalPlan::Limit { .. } => {}
    }
    inputs_mut(plan).for_each(fold_plan);
}

/// Rule 1: constant folding over every expression in the plan.
pub fn fold_constants(plan: &LogicalPlan) -> LogicalPlan {
    let mut plan = plan.clone();
    fold_plan(&mut plan);
    plan
}

/// Rule 2 on a plan it owns, inputs first.
fn push_down(plan: &mut LogicalPlan) {
    inputs_mut(plan).for_each(push_down);
    let movable = matches!(
        plan,
        LogicalPlan::Filter { input, .. }
            if matches!(**input, LogicalPlan::Filter { .. } | LogicalPlan::Join { .. })
    );
    if movable {
        if let LogicalPlan::Filter { input, predicate } = take(plan) {
            *plan = filter_pushed(input, predicate);
        }
    }
}

/// What rule 2 makes of `predicate` filtering `input`, which it has
/// already rewritten (and so does not walk again): merged into the
/// filters below it, split across a join below those.
fn filter_pushed(mut input: Box<LogicalPlan>, mut predicate: Expr) -> LogicalPlan {
    loop {
        match *input {
            // The inner filter ran first at runtime; its conjuncts stay
            // on the left of the merged conjunction so short-circuit
            // evaluation order is unchanged.
            LogicalPlan::Filter {
                input: inner,
                predicate: inner_predicate,
            } => {
                predicate = Expr::Binary {
                    op: BinOp::And,
                    lhs: Box::new(inner_predicate),
                    rhs: Box::new(predicate),
                };
                input = inner;
            }
            LogicalPlan::Join {
                left,
                right,
                left_key,
                right_key,
            } => {
                let mut conjuncts = Vec::new();
                split_conjunction(predicate, &mut conjuncts);
                let mut push_left = Vec::new();
                let mut push_right = Vec::new();
                let mut keep = Vec::new();
                for conjunct in conjuncts {
                    if reads_only(&conjunct, &left) {
                        push_left.push(conjunct);
                    } else if reads_only(&conjunct, &right) {
                        push_right.push(conjunct);
                    } else {
                        keep.push(conjunct);
                    }
                }
                let joined = LogicalPlan::Join {
                    left: filtered(left, push_left),
                    right: filtered(right, push_right),
                    left_key,
                    right_key,
                };
                if keep.is_empty() {
                    return joined;
                }
                return LogicalPlan::Filter {
                    input: Box::new(joined),
                    predicate: conjoin(keep),
                };
            }
            _ => return LogicalPlan::Filter { input, predicate },
        }
    }
}

/// `side` under the conjunction of `conjuncts`, pushed down; `side`
/// itself when there are none.
fn filtered(side: Box<LogicalPlan>, conjuncts: Vec<Expr>) -> Box<LogicalPlan> {
    if conjuncts.is_empty() {
        side
    } else {
        Box::new(filter_pushed(side, conjoin(conjuncts)))
    }
}

/// Whether `expr` reads at least one column and only columns `side`
/// outputs.
fn reads_only(expr: &Expr, side: &LogicalPlan) -> bool {
    let (mut any, mut all) = (false, true);
    expr.visit_columns(&mut |name| {
        any = true;
        all = all && side.has_column(name);
    });
    any && all
}

/// Rule 2: merges adjacent filters and pushes conjuncts that
/// reference only one side of a join below that join.
pub fn pushdown_predicates(plan: &LogicalPlan) -> LogicalPlan {
    let mut plan = plan.clone();
    push_down(&mut plan);
    plan
}

/// The output columns a node's consumer reads.
#[derive(Debug, Clone, Copy)]
enum Required {
    /// The root's: its output stays as it is, a scan's projection too.
    Root,
    /// Every output column.
    All,
    /// Columns named in the pruning buffer from this index on. A name
    /// the node does not output is ignored, so a node passes its
    /// consumer's names on to its inputs unfiltered.
    Named(usize),
}

/// Rule 3: required-column analysis; sets `Scan.projection` so base
/// tables are read narrow. The root keeps its full output schema.
pub fn prune_projections(plan: &LogicalPlan) -> LogicalPlan {
    let mut plan = plan.clone();
    prune(&mut plan, Required::Root, &mut Vec::new());
    plan
}

/// Rule 3 on a plan it owns. `names` holds the required column names,
/// borrowed from the expressions and join keys that read them; each
/// node appends its own and truncates them away on the way back up.
fn prune<'p>(plan: &'p mut LogicalPlan, required: Required, names: &mut Vec<&'p str>) {
    let start = names.len();
    // What a filter, join or sort, which passes its consumer's needs
    // on, requires of its input: all of it at the root or below a
    // consumer reading everything, else the consumer's names and its
    // own.
    let widened = |required| match required {
        Required::Root | Required::All => Required::All,
        Required::Named(from) => Required::Named(from),
    };
    match plan {
        LogicalPlan::Scan {
            columns,
            projection,
            ..
        } => {
            let wanted = match required {
                Required::Root => return,
                Required::All => &[][..],
                Required::Named(from) => &names[from..],
            };
            let keeps = |name: &String| {
                matches!(required, Required::All) || wanted.contains(&name.as_str())
            };
            // Keep the required columns (at least one, so row counts
            // survive for `count(*)`), in base-table order.
            let keep_first = !columns.iter().any(keeps);
            let base = |j: usize| projection.as_ref().map_or(j, |indices| indices[j]);
            let mut indices = Vec::with_capacity(columns.len());
            let mut j = 0;
            columns.retain(|name| {
                let kept = if keep_first { j == 0 } else { keeps(name) };
                if kept {
                    indices.push(base(j));
                }
                j += 1;
                kept
            });
            if !indices.is_sorted() {
                let mut paired: Vec<(usize, String)> =
                    indices.drain(..).zip(columns.drain(..)).collect();
                paired.sort_by_key(|(index, _)| *index);
                (indices, *columns) = paired.into_iter().unzip();
            }
            *projection = Some(indices);
        }
        LogicalPlan::Filter { input, predicate } => {
            let required = widened(required);
            if let Required::Named(_) = required {
                let predicate: &'p Expr = predicate;
                predicate.visit_columns(&mut |name| names.push(name));
            }
            prune(input, required, names);
        }
        LogicalPlan::Project { input, exprs } => {
            let exprs: &'p [(Expr, String)] = exprs;
            for (expr, _) in exprs {
                expr.visit_columns(&mut |name| names.push(name));
            }
            prune(input, Required::Named(start), names);
        }
        LogicalPlan::Aggregate {
            input,
            group_by,
            aggs,
        } => {
            let (group_by, aggs): (&'p [Expr], &'p [Expr]) = (group_by, aggs);
            for expr in group_by.iter().chain(aggs) {
                expr.visit_columns(&mut |name| names.push(name));
            }
            prune(input, Required::Named(start), names);
        }
        LogicalPlan::Join {
            left,
            right,
            left_key,
            right_key,
        } => {
            let required = widened(required);
            if let Required::Named(_) = required {
                names.push(left_key);
                names.push(right_key);
            }
            prune(left, required, names);
            prune(right, required, names);
        }
        LogicalPlan::Sort { input, keys } => {
            let required = widened(required);
            if let Required::Named(_) = required {
                let keys: &'p [(Expr, bool)] = keys;
                for (expr, _) in keys {
                    expr.visit_columns(&mut |name| names.push(name));
                }
            }
            prune(input, required, names);
        }
        LogicalPlan::Limit { input, .. } => prune(input, required, names),
    }
    names.truncate(start);
}

/// The optimizer: rule pipeline plus the cardinality estimates the
/// join-reorder rule consumes.
#[derive(Debug, Clone, Default)]
pub struct Optimizer {
    /// Rows per table, shared with the catalog it came from.
    stats: Arc<BTreeMap<String, usize>>,
}

impl Optimizer {
    /// Creates an optimizer from table row-count statistics.
    pub fn new(stats: BTreeMap<String, usize>) -> Optimizer {
        Optimizer {
            stats: Arc::new(stats),
        }
    }

    /// Creates an optimizer with the catalog's row counts (shared with
    /// the catalog, not copied).
    pub fn for_catalog(catalog: &Catalog) -> Optimizer {
        Optimizer {
            stats: catalog.shared_stats(),
        }
    }

    /// Estimated output rows of a plan node. Deliberately crude —
    /// base-table counts with fixed selectivities — but deterministic
    /// and good enough to order joins.
    pub fn estimate_rows(&self, plan: &LogicalPlan) -> f64 {
        match plan {
            LogicalPlan::Scan { table, .. } => {
                self.stats.get(table).copied().unwrap_or(1_000) as f64
            }
            LogicalPlan::Filter { input, .. } => self.estimate_rows(input) / 3.0,
            LogicalPlan::Project { input, .. } => self.estimate_rows(input),
            LogicalPlan::Aggregate {
                input, group_by, ..
            } => {
                if group_by.is_empty() {
                    1.0
                } else {
                    (self.estimate_rows(input) / 2.0).max(1.0)
                }
            }
            // System-R style equi-join estimate: |L|*|R| / max(V(L,k),
            // V(R,k)) with the distinct-key count of a side approximated
            // by its row count, which collapses to min(|L|, |R|). The
            // min form keeps a pushed-down filter's selectivity visible
            // above the join, so pushdown never inflates downstream
            // cardinalities (and hence kernel extents) relative to the
            // unoptimized plan.
            LogicalPlan::Join { left, right, .. } => {
                self.estimate_rows(left).min(self.estimate_rows(right))
            }
            LogicalPlan::Sort { input, .. } => self.estimate_rows(input),
            LogicalPlan::Limit { input, n } => self.estimate_rows(input).min(*n as f64),
        }
    }

    /// Rule 4: puts the smaller estimated side of every join on the
    /// build (right) side. A swapped join is wrapped in an identity
    /// `Project` restoring the original column order, so the rewrite
    /// is invisible to parents and output schemas.
    pub fn reorder_joins(&self, plan: &LogicalPlan) -> LogicalPlan {
        let mut plan = plan.clone();
        self.reorder(&mut plan);
        plan
    }

    /// Rule 4 on a plan it owns, inputs first.
    fn reorder(&self, plan: &mut LogicalPlan) {
        inputs_mut(plan).for_each(|input| self.reorder(input));
        let LogicalPlan::Join {
            left,
            right,
            left_key,
            right_key,
        } = plan
        else {
            return;
        };
        if self.estimate_rows(left) >= self.estimate_rows(right) {
            return;
        }
        let mut exprs = Vec::new();
        for side in [&**left, &**right] {
            exprs.extend(
                side.schema()
                    .into_iter()
                    .map(|name| (Expr::Column(name.clone()), name)),
            );
        }
        std::mem::swap(left, right);
        std::mem::swap(left_key, right_key);
        let swapped = take(plan);
        *plan = LogicalPlan::Project {
            input: Box::new(swapped),
            exprs,
        };
    }

    /// Full pipeline: fold → pushdown → prune → reorder, on one copy of
    /// `plan` rewritten in place.
    pub fn optimize(&self, plan: &LogicalPlan) -> LogicalPlan {
        let span = everest_telemetry::span("query.optimize");
        let mut plan = plan.clone();
        fold_plan(&mut plan);
        push_down(&mut plan);
        prune(&mut plan, Required::Root, &mut Vec::with_capacity(8));
        self.reorder(&mut plan);
        span.arg("op", plan.op_name());
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{execute, row_multiset};
    use crate::parser::parse;
    use crate::planner::plan_query;
    use crate::table::{DataType, Field, Schema, Table};

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        let big = Schema::new(vec![
            Field::new("k", DataType::Int),
            Field::new("v", DataType::Float),
            Field::new("w", DataType::Float),
        ]);
        let rows: Vec<Vec<Value>> = (0..20)
            .map(|i| {
                vec![
                    Value::Int(i % 5),
                    Value::Float(i as f64),
                    Value::Float((i * i) as f64),
                ]
            })
            .collect();
        c.register("big", Table::new(big, rows).expect("table"));
        let small = Schema::new(vec![
            Field::new("k", DataType::Int),
            Field::new("name", DataType::Str),
        ]);
        let rows = (0..5)
            .map(|i| vec![Value::Int(i), Value::Str(format!("n{i}"))])
            .collect();
        c.register("small", Table::new(small, rows).expect("table"));
        c
    }

    fn check_equivalent(sql: &str, rule: impl Fn(&LogicalPlan) -> LogicalPlan) {
        let catalog = catalog();
        let q = parse(sql).expect("parses");
        let plan = plan_query(&catalog, &q).expect("plans");
        let rewritten = rule(&plan);
        let base = execute(&plan, &catalog).expect("base executes");
        let opt = execute(&rewritten, &catalog).expect("rewritten executes");
        assert_eq!(base.columns, opt.columns, "schema preserved for {sql}");
        assert_eq!(
            row_multiset(&base),
            row_multiset(&opt),
            "rows preserved for {sql}"
        );
    }

    #[test]
    fn folding_preserves_rows() {
        check_equivalent(
            "SELECT k, v * (2 + 3) FROM big WHERE v > 1 AND 1 < 2",
            fold_constants,
        );
    }

    #[test]
    fn folding_evaluates_literal_arithmetic() {
        let folded = fold_expr(&Expr::Binary {
            op: BinOp::Add,
            lhs: Box::new(Expr::Int(2)),
            rhs: Box::new(Expr::Int(3)),
        });
        assert_eq!(folded, Expr::Int(5));
    }

    #[test]
    fn pushdown_moves_single_side_conjuncts_below_join() {
        let catalog = catalog();
        let q = parse(
            "SELECT big.v FROM big JOIN small ON big.k = small.k \
             WHERE big.v > 3 AND small.name != 'n0'",
        )
        .expect("parses");
        let plan = plan_query(&catalog, &q).expect("plans");
        let pushed = pushdown_predicates(&plan);
        let text = pushed.to_text();
        let join_line = text
            .lines()
            .position(|l| l.contains("Join:"))
            .expect("join");
        let filter_lines: Vec<usize> = text
            .lines()
            .enumerate()
            .filter(|(_, l)| l.contains("Filter:"))
            .map(|(i, _)| i)
            .collect();
        assert!(
            filter_lines.iter().all(|&i| i > join_line),
            "filters below the join:\n{text}"
        );
        check_equivalent(
            "SELECT big.v FROM big JOIN small ON big.k = small.k \
             WHERE big.v > 3 AND small.name != 'n0'",
            pushdown_predicates,
        );
    }

    #[test]
    fn prune_sets_scan_projection() {
        let catalog = catalog();
        let q = parse("SELECT k FROM big WHERE v > 3").expect("parses");
        let plan = plan_query(&catalog, &q).expect("plans");
        let pruned = prune_projections(&plan);
        assert!(
            pruned.to_text().contains("projection=[big.k, big.v]"),
            "{}",
            pruned.to_text()
        );
        check_equivalent("SELECT k FROM big WHERE v > 3", prune_projections);
    }

    #[test]
    fn prune_keeps_a_column_for_count_star() {
        check_equivalent("SELECT count(*) FROM big", prune_projections);
    }

    #[test]
    fn reorder_puts_smaller_side_on_build() {
        let catalog = catalog();
        let optimizer = Optimizer::for_catalog(&catalog);
        let q = parse("SELECT small.name FROM small JOIN big ON small.k = big.k").expect("parses");
        let plan = plan_query(&catalog, &q).expect("plans");
        let reordered = optimizer.reorder_joins(&plan);
        // small (5 rows) was the probe side; it must become the build
        // side, with big probing.
        let text = reordered.to_text();
        let scans: Vec<&str> = text
            .lines()
            .filter(|l| l.trim_start().starts_with("Scan:"))
            .collect();
        assert!(scans[0].contains("big"), "{text}");
        check_equivalent(
            "SELECT small.name FROM small JOIN big ON small.k = big.k",
            |p| optimizer.reorder_joins(p),
        );
    }

    #[test]
    fn full_pipeline_preserves_rows_and_schema() {
        let catalog = catalog();
        let optimizer = Optimizer::for_catalog(&catalog);
        check_equivalent(
            "SELECT big.k, sum(big.v) AS total FROM big JOIN small ON big.k = small.k \
             WHERE big.w >= 0 AND small.name != 'n9' AND 2 > 1 \
             GROUP BY big.k ORDER BY total DESC LIMIT 3",
            |p| optimizer.optimize(p),
        );
    }
}
