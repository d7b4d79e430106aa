//! Name resolution: AST → logical plan.
//!
//! The planner qualifies every column with its table (or alias)
//! qualifier, checks the query's shape (equi-joins only, aggregate
//! select lists restricted to group keys and aggregate calls), and
//! produces the canonical [`LogicalPlan`] tree:
//!
//! ```text
//! Limit(Sort(Project(Aggregate?(Filter?(Join*(Scan))))))
//! ```

use crate::error::{QueryError, QueryResult};
use crate::parser::{Query, SelectItem, TableRef};
use crate::plan::{qualified, BinOp, Expr, LogicalPlan};
use crate::table::Catalog;

/// Resolves a column reference against a schema (owned or borrowed
/// names), returning the canonical name. Bare references match any
/// qualified name with the same final segment, provided the match is
/// unique.
fn resolve_column<S: AsRef<str>>(schema: &[S], reference: &str) -> QueryResult<String> {
    if schema.iter().any(|name| name.as_ref() == reference) {
        return Ok(reference.to_string());
    }
    if !reference.contains('.') {
        let suffix_matches = |name: &&S| {
            name.as_ref()
                .rsplit_once('.')
                .is_some_and(|(_, suffix)| suffix == reference)
        };
        let mut matches = schema.iter().filter(suffix_matches);
        match (matches.next(), matches.next()) {
            (Some(only), None) => return Ok(only.as_ref().to_string()),
            (None, _) => {}
            (Some(_), Some(_)) => {
                let names: Vec<&str> = schema
                    .iter()
                    .filter(suffix_matches)
                    .map(AsRef::as_ref)
                    .collect();
                return Err(QueryError::Plan {
                    message: format!(
                        "column '{reference}' is ambiguous: matches {}",
                        names.join(", ")
                    ),
                });
            }
        }
    }
    let available: Vec<&str> = schema.iter().map(AsRef::as_ref).collect();
    Err(QueryError::Plan {
        message: format!(
            "unknown column '{reference}' (available: {})",
            available.join(", ")
        ),
    })
}

/// Rewrites every column reference in an expression the planner owns
/// to its canonical resolved name: a name that is already canonical
/// stays where it is, and no node is rebuilt.
fn resolve_in_place<S: AsRef<str>>(schema: &[S], expr: &mut Expr) -> QueryResult<()> {
    match expr {
        Expr::Column(name) => {
            if !schema.iter().any(|c| c.as_ref() == name) {
                *name = resolve_column(schema, name)?;
            }
        }
        Expr::Int(_) | Expr::Float(_) | Expr::Str(_) | Expr::Bool(_) => {}
        Expr::Binary { lhs, rhs, .. } => {
            resolve_in_place(schema, lhs)?;
            resolve_in_place(schema, rhs)?;
        }
        Expr::Not(inner) | Expr::Neg(inner) => resolve_in_place(schema, inner)?,
        Expr::Agg { arg, .. } => {
            if let Some(a) = arg {
                resolve_in_place(schema, a)?;
            }
        }
    }
    Ok(())
}

/// Builds a qualified scan for a table reference.
fn scan_for(catalog: &Catalog, table_ref: TableRef) -> QueryResult<LogicalPlan> {
    let Some(table) = catalog.get(&table_ref.table) else {
        return Err(QueryError::Plan {
            message: format!(
                "unknown table '{}' (available: {})",
                table_ref.table,
                catalog.table_names().join(", ")
            ),
        });
    };
    let qualifier = table_ref.qualifier();
    let columns = table
        .schema
        .fields
        .iter()
        .map(|f| qualified(qualifier, &f.name))
        .collect();
    Ok(LogicalPlan::Scan {
        table: table_ref.table,
        columns,
        projection: None,
    })
}

/// Plans a parsed query against a catalog, from a copy of it
/// ([`plan_sql`](crate::plan_sql) plans the query it parsed without
/// one).
pub fn plan_query(catalog: &Catalog, query: &Query) -> QueryResult<LogicalPlan> {
    plan_owned(catalog, query.clone())
}

/// Plans a parsed query the caller gives up, building the plan out of
/// its parts: each expression is resolved where it stands and moves
/// into the plan, and each qualified column name is built once, by the
/// scan that reads it. Resolution looks names up in the borrowed
/// schemas of the plan built so far ([`LogicalPlan::schema_names`]).
pub(crate) fn plan_owned(catalog: &Catalog, query: Query) -> QueryResult<LogicalPlan> {
    let Query {
        star,
        items,
        from,
        joins,
        filter,
        group_by,
        order_by,
        limit,
    } = query;
    // FROM and JOINs: qualifiers must be distinct.
    for (i, join) in joins.iter().enumerate() {
        let q = join.table.qualifier();
        let earlier = std::iter::once(&from).chain(joins[..i].iter().map(|j| &j.table));
        if earlier.map(TableRef::qualifier).any(|seen| seen == q) {
            return Err(QueryError::Plan {
                message: format!("duplicate table qualifier '{q}'"),
            });
        }
    }
    let mut plan = scan_for(catalog, from)?;
    for join in joins {
        let right = scan_for(catalog, join.table)?;
        let (left_key, right_key) =
            equi_keys(&join.on, &plan.schema_names(), &right.schema_names())?;
        plan = LogicalPlan::Join {
            left: Box::new(plan),
            right: Box::new(right),
            left_key,
            right_key,
        };
    }

    // WHERE.
    if let Some(mut predicate) = filter {
        resolve_in_place(&plan.schema_names(), &mut predicate)?;
        if predicate.has_agg() {
            return Err(QueryError::Plan {
                message: "aggregate calls are not allowed in WHERE".to_string(),
            });
        }
        plan = LogicalPlan::Filter {
            input: Box::new(plan),
            predicate,
        };
    }

    let schema = plan.schema_names();
    let has_agg = !group_by.is_empty() || items.iter().any(|item| item.expr.has_agg());

    let plan = if has_agg {
        if star {
            return Err(QueryError::Plan {
                message: "SELECT * cannot be combined with GROUP BY".to_string(),
            });
        }
        let mut group_by = group_by;
        for expr in &mut group_by {
            resolve_in_place(&schema, expr)?;
        }
        let group_texts: Vec<String> = group_by.iter().map(Expr::text).collect();
        let mut aggs: Vec<Expr> = Vec::new();
        let mut agg_texts: Vec<String> = Vec::new();
        let mut project = Vec::with_capacity(items.len());
        for SelectItem { mut expr, alias } in items {
            resolve_in_place(&schema, &mut expr)?;
            let text = expr.text();
            if !group_texts.contains(&text) {
                if !matches!(expr, Expr::Agg { .. }) {
                    return Err(QueryError::Plan {
                        message: format!(
                            "'{text}' must be a GROUP BY expression or an aggregate call"
                        ),
                    });
                }
                if !agg_texts.contains(&text) {
                    aggs.push(expr);
                    agg_texts.push(text.clone());
                }
            }
            let name = alias.unwrap_or_else(|| text.clone());
            project.push((Expr::Column(text), name));
        }
        drop(schema);
        LogicalPlan::Project {
            input: Box::new(LogicalPlan::Aggregate {
                input: Box::new(plan),
                group_by,
                aggs,
            }),
            exprs: project,
        }
    } else if star {
        let exprs = schema
            .iter()
            .map(|name| (Expr::Column(name.to_string()), name.to_string()))
            .collect();
        drop(schema);
        LogicalPlan::Project {
            input: Box::new(plan),
            exprs,
        }
    } else {
        let mut exprs = Vec::with_capacity(items.len());
        for SelectItem { mut expr, alias } in items {
            resolve_in_place(&schema, &mut expr)?;
            let name = alias.unwrap_or_else(|| expr.text());
            exprs.push((expr, name));
        }
        drop(schema);
        LogicalPlan::Project {
            input: Box::new(plan),
            exprs,
        }
    };

    // ORDER BY resolves against the select-list output schema.
    let mut plan = plan;
    if !order_by.is_empty() {
        let mut keys = order_by;
        let out_schema = plan.schema_names();
        for (expr, _) in &mut keys {
            resolve_in_place(&out_schema, expr)?;
        }
        drop(out_schema);
        plan = LogicalPlan::Sort {
            input: Box::new(plan),
            keys,
        };
    }
    if let Some(n) = limit {
        plan = LogicalPlan::Limit {
            input: Box::new(plan),
            n,
        };
    }
    Ok(plan)
}

/// Extracts the equi-join keys from an `ON` condition of the form
/// `left.col = right.col` (either operand order).
fn equi_keys<S: AsRef<str>>(
    on: &Expr,
    left_schema: &[S],
    right_schema: &[S],
) -> QueryResult<(String, String)> {
    let (lhs, rhs) = match on {
        Expr::Binary {
            op: BinOp::Eq,
            lhs,
            rhs,
        } => (lhs.as_ref(), rhs.as_ref()),
        other => {
            return Err(QueryError::Plan {
                message: format!(
                    "JOIN condition must be an equality of two columns, got {}",
                    other.text()
                ),
            })
        }
    };
    let (a, b) = match (lhs, rhs) {
        (Expr::Column(a), Expr::Column(b)) => (a, b),
        _ => {
            return Err(QueryError::Plan {
                message: "JOIN condition must compare two columns".to_string(),
            })
        }
    };
    // Try (a in left, b in right), then the swapped assignment.
    if let (Ok(l), Ok(r)) = (
        resolve_column(left_schema, a),
        resolve_column(right_schema, b),
    ) {
        return Ok((l, r));
    }
    if let (Ok(l), Ok(r)) = (
        resolve_column(left_schema, b),
        resolve_column(right_schema, a),
    ) {
        return Ok((l, r));
    }
    Err(QueryError::Plan {
        message: format!("JOIN keys '{a}' and '{b}' must resolve to one column on each side"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use crate::table::{DataType, Field, Schema, Table, Value};

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        let schema = Schema::new(vec![
            Field::new("a", DataType::Int),
            Field::new("b", DataType::Float),
        ]);
        let rows = vec![vec![Value::Int(1), Value::Float(2.0)]];
        c.register(
            "t",
            Table::new(schema.clone(), rows.clone()).expect("table"),
        );
        c.register("u", Table::new(schema, rows).expect("table"));
        c
    }

    #[test]
    fn qualifies_bare_columns() {
        let q = parse("SELECT a FROM t WHERE b > 1").expect("parses");
        let plan = plan_query(&catalog(), &q).expect("plans");
        assert!(plan.to_text().contains("Filter: (t.b > 1)"));
        assert_eq!(plan.schema(), vec!["t.a".to_string()]);
    }

    #[test]
    fn bare_column_ambiguous_after_join_is_an_error() {
        let q = parse("SELECT a FROM t JOIN u ON t.a = u.a").expect("parses");
        let err = plan_query(&catalog(), &q).expect_err("ambiguous");
        assert!(err.to_string().contains("ambiguous"));
    }

    #[test]
    fn group_by_requires_keys_or_aggregates() {
        let q = parse("SELECT b FROM t GROUP BY a").expect("parses");
        assert!(plan_query(&catalog(), &q).is_err());
        let q = parse("SELECT a, sum(b) FROM t GROUP BY a").expect("parses");
        assert!(plan_query(&catalog(), &q).is_ok());
    }

    #[test]
    fn non_equi_join_is_rejected() {
        let q = parse("SELECT t.a FROM t JOIN u ON t.a > u.a").expect("parses");
        assert!(plan_query(&catalog(), &q).is_err());
    }

    #[test]
    fn unknown_table_names_available() {
        let q = parse("SELECT a FROM missing").expect("parses");
        let err = plan_query(&catalog(), &q).expect_err("unknown table");
        assert!(err.to_string().contains("available: t, u"));
    }
}
