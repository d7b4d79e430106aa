//! The row-at-a-time interpreter `everest_query::exec` replaced, kept
//! verbatim as the reference the columnar executor is held to
//! (`columnar_executor_matches_the_row_reference` in `query_props.rs`).
//!
//! One heap row of tagged values per tuple, every column reference
//! resolved by a string compare per row: slow, and obviously right. It
//! panics where the executor returns an error — a `Scan` projecting an
//! index the table does not have, or naming more columns than it reads —
//! so the property only hands it plans that are well formed there.

use std::collections::BTreeMap;

use everest_query::plan::{AggFunc, BinOp, Expr, LogicalPlan};
use everest_query::table::{Catalog, Value};
use everest_query::{Batch, QueryError, QueryResult};

/// Evaluates an expression over one row. Aggregate calls are invalid
/// here — they are handled by the `Aggregate` operator.
pub(crate) fn eval(expr: &Expr, columns: &[String], row: &[Value]) -> QueryResult<Value> {
    match expr {
        Expr::Column(name) => match columns.iter().position(|c| c == name) {
            Some(i) => Ok(row[i].clone()),
            None => Err(QueryError::Exec {
                message: format!("column '{name}' missing at execution"),
            }),
        },
        Expr::Int(v) => Ok(Value::Int(*v)),
        Expr::Float(v) => Ok(Value::Float(*v)),
        Expr::Str(v) => Ok(Value::Str(v.clone())),
        Expr::Bool(v) => Ok(Value::Bool(*v)),
        Expr::Binary { op, lhs, rhs } => eval_binary(*op, lhs, rhs, columns, row),
        Expr::Not(inner) => match eval(inner, columns, row)? {
            Value::Bool(v) => Ok(Value::Bool(!v)),
            other => Err(QueryError::Exec {
                message: format!("NOT expects a boolean, got {}", other.data_type()),
            }),
        },
        Expr::Neg(inner) => match eval(inner, columns, row)? {
            Value::Int(v) => Ok(Value::Int(v.wrapping_neg())),
            Value::Float(v) => Ok(Value::Float(-v)),
            other => Err(QueryError::Exec {
                message: format!("'-' expects a number, got {}", other.data_type()),
            }),
        },
        Expr::Agg { .. } => Err(QueryError::Exec {
            message: "aggregate call outside an Aggregate operator".to_string(),
        }),
    }
}

fn eval_binary(
    op: BinOp,
    lhs: &Expr,
    rhs: &Expr,
    columns: &[String],
    row: &[Value],
) -> QueryResult<Value> {
    // Logical operators short-circuit, matching the constant folder.
    if op == BinOp::And || op == BinOp::Or {
        let left = match eval(lhs, columns, row)? {
            Value::Bool(v) => v,
            other => {
                return Err(QueryError::Exec {
                    message: format!(
                        "{} expects booleans, got {}",
                        op.symbol(),
                        other.data_type()
                    ),
                })
            }
        };
        if op == BinOp::And && !left {
            return Ok(Value::Bool(false));
        }
        if op == BinOp::Or && left {
            return Ok(Value::Bool(true));
        }
        return match eval(rhs, columns, row)? {
            Value::Bool(v) => Ok(Value::Bool(v)),
            other => Err(QueryError::Exec {
                message: format!(
                    "{} expects booleans, got {}",
                    op.symbol(),
                    other.data_type()
                ),
            }),
        };
    }
    let left = eval(lhs, columns, row)?;
    let right = eval(rhs, columns, row)?;
    match op {
        BinOp::Eq => Ok(Value::Bool(left == right)),
        BinOp::Ne => Ok(Value::Bool(left != right)),
        BinOp::Lt => Ok(Value::Bool(left < right)),
        BinOp::Le => Ok(Value::Bool(left <= right)),
        BinOp::Gt => Ok(Value::Bool(left > right)),
        BinOp::Ge => Ok(Value::Bool(left >= right)),
        BinOp::Add | BinOp::Sub | BinOp::Mul => arith(op, &left, &right),
        BinOp::Div => match (left.as_f64(), right.as_f64()) {
            (Some(a), Some(b)) => Ok(Value::Float(a / b)),
            _ => Err(QueryError::Exec {
                message: "'/' expects numbers".to_string(),
            }),
        },
        BinOp::And | BinOp::Or => unreachable!("handled above"),
    }
}

/// Numeric arithmetic: int op int stays int (wrapping), anything
/// involving a float widens to float. Shared with the constant folder
/// so folding never changes a result.
pub(crate) fn arith(op: BinOp, left: &Value, right: &Value) -> QueryResult<Value> {
    match (left, right) {
        (Value::Int(a), Value::Int(b)) => {
            let v = match op {
                BinOp::Add => a.wrapping_add(*b),
                BinOp::Sub => a.wrapping_sub(*b),
                BinOp::Mul => a.wrapping_mul(*b),
                _ => {
                    return Err(QueryError::Exec {
                        message: format!("'{}' is not integer arithmetic", op.symbol()),
                    })
                }
            };
            Ok(Value::Int(v))
        }
        _ => match (left.as_f64(), right.as_f64()) {
            (Some(a), Some(b)) => {
                let v = match op {
                    BinOp::Add => a + b,
                    BinOp::Sub => a - b,
                    BinOp::Mul => a * b,
                    _ => {
                        return Err(QueryError::Exec {
                            message: format!("'{}' is not arithmetic", op.symbol()),
                        })
                    }
                };
                Ok(Value::Float(v))
            }
            _ => Err(QueryError::Exec {
                message: format!(
                    "'{}' expects numbers, got {} and {}",
                    op.symbol(),
                    left.data_type(),
                    right.data_type()
                ),
            }),
        },
    }
}

#[derive(Debug, Clone)]
enum Acc {
    Count(u64),
    Sum(f64),
    Avg { sum: f64, n: u64 },
    Min(Option<Value>),
    Max(Option<Value>),
}

impl Acc {
    fn new(func: AggFunc) -> Acc {
        match func {
            AggFunc::Count => Acc::Count(0),
            AggFunc::Sum => Acc::Sum(0.0),
            AggFunc::Avg => Acc::Avg { sum: 0.0, n: 0 },
            AggFunc::Min => Acc::Min(None),
            AggFunc::Max => Acc::Max(None),
        }
    }

    fn update(&mut self, value: Option<&Value>) -> QueryResult<()> {
        match self {
            Acc::Count(n) => *n += 1,
            Acc::Sum(sum) => {
                *sum += numeric(value)?;
            }
            Acc::Avg { sum, n } => {
                *sum += numeric(value)?;
                *n += 1;
            }
            Acc::Min(slot) => {
                let v = required(value)?;
                let replace = slot.as_ref().is_none_or(|cur| v < cur);
                if replace {
                    *slot = Some(v.clone());
                }
            }
            Acc::Max(slot) => {
                let v = required(value)?;
                let replace = slot.as_ref().is_none_or(|cur| v > cur);
                if replace {
                    *slot = Some(v.clone());
                }
            }
        }
        Ok(())
    }

    fn finish(&self) -> Value {
        match self {
            Acc::Count(n) => Value::Int(*n as i64),
            Acc::Sum(sum) => Value::Float(*sum),
            Acc::Avg { sum, n } => {
                if *n == 0 {
                    Value::Float(0.0)
                } else {
                    Value::Float(*sum / *n as f64)
                }
            }
            Acc::Min(slot) | Acc::Max(slot) => slot.clone().unwrap_or(Value::Float(0.0)),
        }
    }
}

fn numeric(value: Option<&Value>) -> QueryResult<f64> {
    match value.and_then(Value::as_f64) {
        Some(v) => Ok(v),
        None => Err(QueryError::Exec {
            message: "aggregate expects a numeric argument".to_string(),
        }),
    }
}

fn required(value: Option<&Value>) -> QueryResult<&Value> {
    value.ok_or_else(|| QueryError::Exec {
        message: "aggregate expects an argument".to_string(),
    })
}

/// Executes a plan against a catalog.
pub(crate) fn execute(plan: &LogicalPlan, catalog: &Catalog) -> QueryResult<Batch> {
    match plan {
        LogicalPlan::Scan {
            table,
            columns,
            projection,
        } => {
            let t = catalog.get(table).ok_or_else(|| QueryError::Exec {
                message: format!("unknown table '{table}' at execution"),
            })?;
            let rows = match projection {
                None => t.rows.clone(),
                Some(indices) => t
                    .rows
                    .iter()
                    .map(|row| indices.iter().map(|&i| row[i].clone()).collect())
                    .collect(),
            };
            Ok(Batch {
                columns: columns.clone(),
                rows,
            })
        }
        LogicalPlan::Filter { input, predicate } => {
            let batch = execute(input, catalog)?;
            let mut rows = Vec::new();
            for row in batch.rows {
                match eval(predicate, &batch.columns, &row)? {
                    Value::Bool(true) => rows.push(row),
                    Value::Bool(false) => {}
                    other => {
                        return Err(QueryError::Exec {
                            message: format!(
                                "filter predicate must be boolean, got {}",
                                other.data_type()
                            ),
                        })
                    }
                }
            }
            Ok(Batch {
                columns: batch.columns,
                rows,
            })
        }
        LogicalPlan::Project { input, exprs } => {
            let batch = execute(input, catalog)?;
            let mut rows = Vec::with_capacity(batch.rows.len());
            for row in &batch.rows {
                let mut out = Vec::with_capacity(exprs.len());
                for (expr, _) in exprs {
                    out.push(eval(expr, &batch.columns, row)?);
                }
                rows.push(out);
            }
            Ok(Batch {
                columns: exprs.iter().map(|(_, name)| name.clone()).collect(),
                rows,
            })
        }
        LogicalPlan::Aggregate {
            input,
            group_by,
            aggs,
        } => {
            let batch = execute(input, catalog)?;
            let funcs: Vec<(AggFunc, Option<&Expr>)> = aggs
                .iter()
                .map(|agg| match agg {
                    Expr::Agg { func, arg } => Ok((*func, arg.as_deref())),
                    other => Err(QueryError::Exec {
                        message: format!("'{}' is not an aggregate call", other.text()),
                    }),
                })
                .collect::<QueryResult<_>>()?;
            let mut groups: BTreeMap<Vec<Value>, Vec<Acc>> = BTreeMap::new();
            for row in &batch.rows {
                let mut key = Vec::with_capacity(group_by.len());
                for expr in group_by {
                    key.push(eval(expr, &batch.columns, row)?);
                }
                let accs = groups
                    .entry(key)
                    .or_insert_with(|| funcs.iter().map(|(f, _)| Acc::new(*f)).collect());
                for (acc, (_, arg)) in accs.iter_mut().zip(&funcs) {
                    let value = match arg {
                        Some(expr) => Some(eval(expr, &batch.columns, row)?),
                        None => None,
                    };
                    acc.update(value.as_ref())?;
                }
            }
            // A global aggregate over empty input still yields one
            // row of neutral values.
            if groups.is_empty() && group_by.is_empty() {
                groups.insert(
                    Vec::new(),
                    funcs.iter().map(|(f, _)| Acc::new(*f)).collect(),
                );
            }
            let columns = plan.schema();
            let rows = groups
                .into_iter()
                .map(|(mut key, accs)| {
                    key.extend(accs.iter().map(Acc::finish));
                    key
                })
                .collect();
            Ok(Batch { columns, rows })
        }
        LogicalPlan::Join {
            left,
            right,
            left_key,
            right_key,
        } => {
            let lbatch = execute(left, catalog)?;
            let rbatch = execute(right, catalog)?;
            let li = lbatch
                .columns
                .iter()
                .position(|c| c == left_key)
                .ok_or_else(|| QueryError::Exec {
                    message: format!("join key '{left_key}' missing on left side"),
                })?;
            let ri = rbatch
                .columns
                .iter()
                .position(|c| c == right_key)
                .ok_or_else(|| QueryError::Exec {
                    message: format!("join key '{right_key}' missing on right side"),
                })?;
            let mut build: BTreeMap<Value, Vec<usize>> = BTreeMap::new();
            for (idx, row) in rbatch.rows.iter().enumerate() {
                build.entry(row[ri].clone()).or_default().push(idx);
            }
            let mut columns = lbatch.columns.clone();
            columns.extend(rbatch.columns.iter().cloned());
            let mut rows = Vec::new();
            for lrow in &lbatch.rows {
                if let Some(matches) = build.get(&lrow[li]) {
                    for &idx in matches {
                        let mut row = lrow.clone();
                        row.extend(rbatch.rows[idx].iter().cloned());
                        rows.push(row);
                    }
                }
            }
            Ok(Batch { columns, rows })
        }
        LogicalPlan::Sort { input, keys } => {
            let batch = execute(input, catalog)?;
            let mut decorated: Vec<(Vec<Value>, Vec<Value>)> = Vec::with_capacity(batch.rows.len());
            for row in batch.rows {
                let mut key = Vec::with_capacity(keys.len());
                for (expr, _) in keys {
                    key.push(eval(expr, &batch.columns, &row)?);
                }
                decorated.push((key, row));
            }
            decorated.sort_by(|(a, _), (b, _)| {
                for (i, (_, desc)) in keys.iter().enumerate() {
                    let ord = a[i].cmp(&b[i]);
                    let ord = if *desc { ord.reverse() } else { ord };
                    if ord != std::cmp::Ordering::Equal {
                        return ord;
                    }
                }
                std::cmp::Ordering::Equal
            });
            Ok(Batch {
                columns: batch.columns,
                rows: decorated.into_iter().map(|(_, row)| row).collect(),
            })
        }
        LogicalPlan::Limit { input, n } => {
            let mut batch = execute(input, catalog)?;
            batch.rows.truncate(*n);
            Ok(batch)
        }
    }
}
