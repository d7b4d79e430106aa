//! The optimizer the in-place one replaced: every rule rebuilds the
//! whole tree from a borrowed input, and pruning keeps owned
//! `BTreeSet<String>` column sets. Kept as the reference the optimizer
//! is held to (`optimizer_rewrites_as_the_clone_per_rule_reference` in
//! `query_props.rs`): equal plans, rule by rule and for the pipeline.

use std::collections::{BTreeMap, BTreeSet};

use everest_query::exec::arith;
use everest_query::plan::{conjoin, split_conjunction, BinOp, Expr, LogicalPlan};
use everest_query::table::{Catalog, Value};

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

/// Folds constant sub-expressions, mirroring executor semantics
/// exactly (shared arithmetic, short-circuit logical operators).
pub(crate) fn fold_expr(expr: &Expr) -> Expr {
    match expr {
        Expr::Column(_) | Expr::Int(_) | Expr::Float(_) | Expr::Str(_) | Expr::Bool(_) => {
            expr.clone()
        }
        Expr::Binary { op, lhs, rhs } => {
            let lhs = fold_expr(lhs);
            let rhs = fold_expr(rhs);
            // Short-circuit identities. The left operand is evaluated
            // first at runtime, so a literal left side folds freely; a
            // literal identity is only dropped when the surviving
            // operand is guaranteed boolean-shaped (otherwise folding
            // could turn a type error into a value).
            if *op == BinOp::And {
                match (&lhs, &rhs) {
                    (Expr::Bool(false), _) => return Expr::Bool(false),
                    (Expr::Bool(true), other) if returns_bool(other) => return other.clone(),
                    (other, Expr::Bool(true)) if returns_bool(other) => return other.clone(),
                    _ => {}
                }
            }
            if *op == BinOp::Or {
                match (&lhs, &rhs) {
                    (Expr::Bool(true), _) => return Expr::Bool(true),
                    (Expr::Bool(false), other) if returns_bool(other) => return other.clone(),
                    (other, Expr::Bool(false)) if returns_bool(other) => return other.clone(),
                    _ => {}
                }
            }
            if let (Some(a), Some(b)) = (literal_value(&lhs), literal_value(&rhs)) {
                let folded = match op {
                    BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div => arith(*op, &a, &b).ok(),
                    BinOp::Eq => Some(Value::Bool(a == b)),
                    BinOp::Ne => Some(Value::Bool(a != b)),
                    BinOp::Lt => Some(Value::Bool(a < b)),
                    BinOp::Le => Some(Value::Bool(a <= b)),
                    BinOp::Gt => Some(Value::Bool(a > b)),
                    BinOp::Ge => Some(Value::Bool(a >= b)),
                    BinOp::And | BinOp::Or => match (a, b) {
                        (Value::Bool(x), Value::Bool(y)) => {
                            Some(Value::Bool(if *op == BinOp::And { x && y } else { x || y }))
                        }
                        _ => None,
                    },
                };
                if let Some(v) = folded {
                    return value_to_expr(v);
                }
            }
            Expr::Binary {
                op: *op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            }
        }
        Expr::Not(inner) => {
            let inner = fold_expr(inner);
            if let Expr::Bool(v) = inner {
                Expr::Bool(!v)
            } else {
                Expr::Not(Box::new(inner))
            }
        }
        Expr::Neg(inner) => {
            let inner = fold_expr(inner);
            match inner {
                Expr::Int(v) => Expr::Int(v.wrapping_neg()),
                Expr::Float(v) => Expr::Float(-v),
                other => Expr::Neg(Box::new(other)),
            }
        }
        Expr::Agg { func, arg } => Expr::Agg {
            func: *func,
            arg: arg.as_ref().map(|a| Box::new(fold_expr(a))),
        },
    }
}

fn map_exprs(plan: &LogicalPlan, f: &impl Fn(&Expr) -> Expr) -> LogicalPlan {
    match plan {
        LogicalPlan::Scan { .. } => plan.clone(),
        LogicalPlan::Filter { input, predicate } => LogicalPlan::Filter {
            input: Box::new(map_exprs(input, f)),
            predicate: f(predicate),
        },
        LogicalPlan::Project { input, exprs } => LogicalPlan::Project {
            input: Box::new(map_exprs(input, f)),
            exprs: exprs.iter().map(|(e, name)| (f(e), name.clone())).collect(),
        },
        LogicalPlan::Aggregate {
            input,
            group_by,
            aggs,
        } => LogicalPlan::Aggregate {
            input: Box::new(map_exprs(input, f)),
            group_by: group_by.iter().map(f).collect(),
            aggs: aggs.iter().map(f).collect(),
        },
        LogicalPlan::Join {
            left,
            right,
            left_key,
            right_key,
        } => LogicalPlan::Join {
            left: Box::new(map_exprs(left, f)),
            right: Box::new(map_exprs(right, f)),
            left_key: left_key.clone(),
            right_key: right_key.clone(),
        },
        LogicalPlan::Sort { input, keys } => LogicalPlan::Sort {
            input: Box::new(map_exprs(input, f)),
            keys: keys.iter().map(|(e, desc)| (f(e), *desc)).collect(),
        },
        LogicalPlan::Limit { input, n } => LogicalPlan::Limit {
            input: Box::new(map_exprs(input, f)),
            n: *n,
        },
    }
}

/// Rule 1: constant folding over every expression in the plan.
pub(crate) fn fold_constants(plan: &LogicalPlan) -> LogicalPlan {
    map_exprs(plan, &fold_expr)
}

/// Rule 2: merges adjacent filters and pushes conjuncts that
/// reference only one side of a join below that join.
pub(crate) fn pushdown_predicates(plan: &LogicalPlan) -> LogicalPlan {
    match plan {
        LogicalPlan::Filter { input, predicate } => {
            match pushdown_predicates(input) {
                // Inner filter ran first at runtime; keep its
                // conjuncts on the left of the merged conjunction so
                // short-circuit evaluation order is unchanged.
                LogicalPlan::Filter {
                    input: inner,
                    predicate: inner_pred,
                } => {
                    let merged = Expr::Binary {
                        op: BinOp::And,
                        lhs: Box::new(inner_pred),
                        rhs: Box::new(predicate.clone()),
                    };
                    pushdown_predicates(&LogicalPlan::Filter {
                        input: inner,
                        predicate: merged,
                    })
                }
                LogicalPlan::Join {
                    left,
                    right,
                    left_key,
                    right_key,
                } => {
                    let left_schema: BTreeSet<String> = left.schema().into_iter().collect();
                    let right_schema: BTreeSet<String> = right.schema().into_iter().collect();
                    let mut conjuncts = Vec::new();
                    split_conjunction(predicate.clone(), &mut conjuncts);
                    let mut push_left = Vec::new();
                    let mut push_right = Vec::new();
                    let mut keep = Vec::new();
                    for conjunct in conjuncts {
                        let cols = conjunct.columns();
                        if !cols.is_empty() && cols.iter().all(|c| left_schema.contains(c)) {
                            push_left.push(conjunct);
                        } else if !cols.is_empty() && cols.iter().all(|c| right_schema.contains(c))
                        {
                            push_right.push(conjunct);
                        } else {
                            keep.push(conjunct);
                        }
                    }
                    let left = wrap_filter(*left, push_left);
                    let right = wrap_filter(*right, push_right);
                    let joined = LogicalPlan::Join {
                        left: Box::new(pushdown_predicates(&left)),
                        right: Box::new(pushdown_predicates(&right)),
                        left_key,
                        right_key,
                    };
                    wrap_filter(joined, keep)
                }
                other => LogicalPlan::Filter {
                    input: Box::new(other),
                    predicate: predicate.clone(),
                },
            }
        }
        LogicalPlan::Scan { .. } => plan.clone(),
        LogicalPlan::Project { input, exprs } => LogicalPlan::Project {
            input: Box::new(pushdown_predicates(input)),
            exprs: exprs.clone(),
        },
        LogicalPlan::Aggregate {
            input,
            group_by,
            aggs,
        } => LogicalPlan::Aggregate {
            input: Box::new(pushdown_predicates(input)),
            group_by: group_by.clone(),
            aggs: aggs.clone(),
        },
        LogicalPlan::Join {
            left,
            right,
            left_key,
            right_key,
        } => LogicalPlan::Join {
            left: Box::new(pushdown_predicates(left)),
            right: Box::new(pushdown_predicates(right)),
            left_key: left_key.clone(),
            right_key: right_key.clone(),
        },
        LogicalPlan::Sort { input, keys } => LogicalPlan::Sort {
            input: Box::new(pushdown_predicates(input)),
            keys: keys.clone(),
        },
        LogicalPlan::Limit { input, n } => LogicalPlan::Limit {
            input: Box::new(pushdown_predicates(input)),
            n: *n,
        },
    }
}

fn wrap_filter(plan: LogicalPlan, conjuncts: Vec<Expr>) -> LogicalPlan {
    if conjuncts.is_empty() {
        plan
    } else {
        LogicalPlan::Filter {
            input: Box::new(plan),
            predicate: conjoin(conjuncts),
        }
    }
}

/// Rule 3: required-column analysis; sets `Scan.projection` so base
/// tables are read narrow. `required = None` keeps a node's full
/// output schema (the root call).
pub(crate) fn prune_projections(plan: &LogicalPlan) -> LogicalPlan {
    prune(plan, None)
}

fn prune(plan: &LogicalPlan, required: Option<&BTreeSet<String>>) -> LogicalPlan {
    match plan {
        LogicalPlan::Scan {
            table,
            columns,
            projection,
        } => {
            let Some(required) = required else {
                return plan.clone();
            };
            // Map each currently-exposed column back to its base-table
            // index, keep the required ones (at least one, so row
            // counts survive for `count(*)`), in base order.
            let base_index = |j: usize| match projection {
                Some(indices) => indices[j],
                None => j,
            };
            let mut kept: Vec<(usize, String)> = columns
                .iter()
                .enumerate()
                .filter(|(_, name)| required.contains(*name))
                .map(|(j, name)| (base_index(j), name.clone()))
                .collect();
            if kept.is_empty() && !columns.is_empty() {
                kept.push((base_index(0), columns[0].clone()));
            }
            kept.sort_by_key(|(index, _)| *index);
            LogicalPlan::Scan {
                table: table.clone(),
                columns: kept.iter().map(|(_, name)| name.clone()).collect(),
                projection: Some(kept.into_iter().map(|(i, _)| i).collect()),
            }
        }
        LogicalPlan::Filter { input, predicate } => {
            let mut needed: BTreeSet<String> = match required {
                Some(set) => set.clone(),
                None => input.schema().into_iter().collect(),
            };
            needed.extend(predicate.columns());
            LogicalPlan::Filter {
                input: Box::new(prune(input, Some(&needed))),
                predicate: predicate.clone(),
            }
        }
        LogicalPlan::Project { input, exprs } => {
            let mut needed = BTreeSet::new();
            for (expr, _) in exprs {
                needed.extend(expr.columns());
            }
            LogicalPlan::Project {
                input: Box::new(prune(input, Some(&needed))),
                exprs: exprs.clone(),
            }
        }
        LogicalPlan::Aggregate {
            input,
            group_by,
            aggs,
        } => {
            let mut needed = BTreeSet::new();
            for expr in group_by.iter().chain(aggs) {
                needed.extend(expr.columns());
            }
            LogicalPlan::Aggregate {
                input: Box::new(prune(input, Some(&needed))),
                group_by: group_by.clone(),
                aggs: aggs.clone(),
            }
        }
        LogicalPlan::Join {
            left,
            right,
            left_key,
            right_key,
        } => {
            let mut needed: BTreeSet<String> = match required {
                Some(set) => set.clone(),
                None => plan.schema().into_iter().collect(),
            };
            needed.insert(left_key.clone());
            needed.insert(right_key.clone());
            let left_schema: BTreeSet<String> = left.schema().into_iter().collect();
            let right_schema: BTreeSet<String> = right.schema().into_iter().collect();
            let left_needed: BTreeSet<String> =
                needed.intersection(&left_schema).cloned().collect();
            let right_needed: BTreeSet<String> =
                needed.intersection(&right_schema).cloned().collect();
            LogicalPlan::Join {
                left: Box::new(prune(left, Some(&left_needed))),
                right: Box::new(prune(right, Some(&right_needed))),
                left_key: left_key.clone(),
                right_key: right_key.clone(),
            }
        }
        LogicalPlan::Sort { input, keys } => {
            let mut needed: BTreeSet<String> = match required {
                Some(set) => set.clone(),
                None => input.schema().into_iter().collect(),
            };
            for (expr, _) in keys {
                needed.extend(expr.columns());
            }
            LogicalPlan::Sort {
                input: Box::new(prune(input, Some(&needed))),
                keys: keys.clone(),
            }
        }
        LogicalPlan::Limit { input, n } => LogicalPlan::Limit {
            input: Box::new(prune(input, required)),
            n: *n,
        },
    }
}

/// The optimizer: rule pipeline plus the cardinality estimates the
/// join-reorder rule consumes.
#[derive(Debug, Clone, Default)]
pub(crate) struct Optimizer {
    stats: BTreeMap<String, usize>,
}

impl Optimizer {
    /// Creates an optimizer from table row-count statistics.
    pub(crate) fn new(stats: BTreeMap<String, usize>) -> Optimizer {
        Optimizer { stats }
    }

    /// Creates an optimizer with the catalog's row counts.
    pub(crate) fn for_catalog(catalog: &Catalog) -> Optimizer {
        Optimizer::new(catalog.stats())
    }

    /// Estimated output rows of a plan node. Deliberately crude —
    /// base-table counts with fixed selectivities — but deterministic
    /// and good enough to order joins.
    pub(crate) fn estimate_rows(&self, plan: &LogicalPlan) -> f64 {
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
    pub(crate) fn reorder_joins(&self, plan: &LogicalPlan) -> LogicalPlan {
        match plan {
            LogicalPlan::Join {
                left,
                right,
                left_key,
                right_key,
            } => {
                let left = self.reorder_joins(left);
                let right = self.reorder_joins(right);
                if self.estimate_rows(&left) < self.estimate_rows(&right) {
                    let original: Vec<String> =
                        left.schema().into_iter().chain(right.schema()).collect();
                    let swapped = LogicalPlan::Join {
                        left: Box::new(right),
                        right: Box::new(left),
                        left_key: right_key.clone(),
                        right_key: left_key.clone(),
                    };
                    LogicalPlan::Project {
                        input: Box::new(swapped),
                        exprs: original
                            .into_iter()
                            .map(|name| (Expr::Column(name.clone()), name))
                            .collect(),
                    }
                } else {
                    LogicalPlan::Join {
                        left: Box::new(left),
                        right: Box::new(right),
                        left_key: left_key.clone(),
                        right_key: right_key.clone(),
                    }
                }
            }
            LogicalPlan::Scan { .. } => plan.clone(),
            LogicalPlan::Filter { input, predicate } => LogicalPlan::Filter {
                input: Box::new(self.reorder_joins(input)),
                predicate: predicate.clone(),
            },
            LogicalPlan::Project { input, exprs } => LogicalPlan::Project {
                input: Box::new(self.reorder_joins(input)),
                exprs: exprs.clone(),
            },
            LogicalPlan::Aggregate {
                input,
                group_by,
                aggs,
            } => LogicalPlan::Aggregate {
                input: Box::new(self.reorder_joins(input)),
                group_by: group_by.clone(),
                aggs: aggs.clone(),
            },
            LogicalPlan::Sort { input, keys } => LogicalPlan::Sort {
                input: Box::new(self.reorder_joins(input)),
                keys: keys.clone(),
            },
            LogicalPlan::Limit { input, n } => LogicalPlan::Limit {
                input: Box::new(self.reorder_joins(input)),
                n: *n,
            },
        }
    }

    /// Full pipeline: fold → pushdown → prune → reorder.
    pub(crate) fn optimize(&self, plan: &LogicalPlan) -> LogicalPlan {
        let folded = fold_constants(plan);
        let pushed = pushdown_predicates(&folded);
        let pruned = prune_projections(&pushed);
        self.reorder_joins(&pruned)
    }
}
