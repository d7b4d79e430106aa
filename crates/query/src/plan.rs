//! Logical plans and scalar expressions.
//!
//! The SQL planner produces this representation; the optimizer
//! rewrites it; the executor and the dfg lowering consume it. Plan
//! text and JSON are canonical and byte-stable:
//! [`LogicalPlan::normalize`] applies
//! `AnalysisReport::normalize()`-style canonical ordering so `EXPLAIN`
//! output is diffable in CI (`ci/query/` golden corpus).

use std::borrow::Cow;
use std::fmt::Write as _;

use serde::Serialize;

use crate::table::Value;

/// Binary operators, numeric and logical.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `=`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `AND`
    And,
    /// `OR`
    Or,
}

impl BinOp {
    /// SQL spelling.
    pub fn symbol(&self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Eq => "=",
            BinOp::Ne => "!=",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::And => "AND",
            BinOp::Or => "OR",
        }
    }

    /// `true` for comparison and logical operators (result is boolean).
    pub fn is_predicate(&self) -> bool {
        match self {
            BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div => false,
            BinOp::Eq
            | BinOp::Ne
            | BinOp::Lt
            | BinOp::Le
            | BinOp::Gt
            | BinOp::Ge
            | BinOp::And
            | BinOp::Or => true,
        }
    }
}

/// Aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// `COUNT(*)` / `COUNT(expr)`
    Count,
    /// `SUM(expr)`
    Sum,
    /// `MIN(expr)`
    Min,
    /// `MAX(expr)`
    Max,
    /// `AVG(expr)`
    Avg,
}

impl AggFunc {
    /// SQL spelling, lower-case.
    pub fn name(&self) -> &'static str {
        match self {
            AggFunc::Count => "count",
            AggFunc::Sum => "sum",
            AggFunc::Min => "min",
            AggFunc::Max => "max",
            AggFunc::Avg => "avg",
        }
    }

    /// Parses a function name (case-insensitive).
    pub fn from_name(name: &str) -> Option<AggFunc> {
        [
            AggFunc::Count,
            AggFunc::Sum,
            AggFunc::Min,
            AggFunc::Max,
            AggFunc::Avg,
        ]
        .into_iter()
        .find(|func| func.name().eq_ignore_ascii_case(name))
    }
}

/// A scalar expression over a plan node's columns.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A column reference. After planning this is a canonical
    /// qualified name (`table.column`) or a derived output name.
    Column(String),
    /// An integer literal.
    Int(i64),
    /// A float literal.
    Float(f64),
    /// A string literal.
    Str(String),
    /// A boolean literal (constant folding only; not in the grammar).
    Bool(bool),
    /// A binary operation.
    Binary {
        /// The operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
    /// Logical negation.
    Not(Box<Expr>),
    /// Arithmetic negation.
    Neg(Box<Expr>),
    /// An aggregate call; `None` argument means `COUNT(*)`.
    Agg {
        /// The aggregate function.
        func: AggFunc,
        /// The argument, absent for `COUNT(*)`.
        arg: Option<Box<Expr>>,
    },
}

impl Expr {
    /// Canonical text of the expression — the name a derived column
    /// gets when no alias is given, and the byte-stable spelling used
    /// by plan text and JSON.
    pub fn text(&self) -> String {
        let mut out = String::new();
        self.write_text(&mut out);
        out
    }

    /// Appends [`text`](Self::text) to `out`.
    fn write_text(&self, out: &mut String) {
        match self {
            Expr::Column(name) => out.push_str(name),
            Expr::Int(v) => {
                let _ = write!(out, "{v}");
            }
            Expr::Float(v) => {
                let _ = write!(out, "{}", Value::Float(*v));
            }
            Expr::Str(v) => {
                out.push('\'');
                out.push_str(v);
                out.push('\'');
            }
            Expr::Bool(v) => {
                let _ = write!(out, "{v}");
            }
            Expr::Binary { op, lhs, rhs } => {
                out.push('(');
                lhs.write_text(out);
                out.push(' ');
                out.push_str(op.symbol());
                out.push(' ');
                rhs.write_text(out);
                out.push(')');
            }
            Expr::Not(inner) => {
                out.push_str("(NOT ");
                inner.write_text(out);
                out.push(')');
            }
            Expr::Neg(inner) => {
                out.push_str("(- ");
                inner.write_text(out);
                out.push(')');
            }
            Expr::Agg { func, arg } => {
                out.push_str(func.name());
                match arg {
                    Some(a) => {
                        out.push('(');
                        a.write_text(out);
                        out.push(')');
                    }
                    None => out.push_str("(*)"),
                }
            }
        }
    }

    /// Calls `f` with every column name the expression references, left
    /// to right, borrowed.
    pub fn visit_columns<'e>(&'e self, f: &mut impl FnMut(&'e str)) {
        match self {
            Expr::Column(name) => f(name),
            Expr::Int(_) | Expr::Float(_) | Expr::Str(_) | Expr::Bool(_) => {}
            Expr::Binary { lhs, rhs, .. } => {
                lhs.visit_columns(f);
                rhs.visit_columns(f);
            }
            Expr::Not(inner) | Expr::Neg(inner) => inner.visit_columns(f),
            Expr::Agg { arg, .. } => {
                if let Some(a) = arg {
                    a.visit_columns(f);
                }
            }
        }
    }

    /// Collects every column name referenced by the expression.
    pub fn columns_into(&self, out: &mut Vec<String>) {
        self.visit_columns(&mut |name| out.push(name.to_string()));
    }

    /// Column names referenced by the expression.
    pub fn columns(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.columns_into(&mut out);
        out
    }

    /// `true` when the expression contains an aggregate call.
    pub fn has_agg(&self) -> bool {
        match self {
            Expr::Agg { .. } => true,
            Expr::Column(_) | Expr::Int(_) | Expr::Float(_) | Expr::Str(_) | Expr::Bool(_) => false,
            Expr::Binary { lhs, rhs, .. } => lhs.has_agg() || rhs.has_agg(),
            Expr::Not(inner) | Expr::Neg(inner) => inner.has_agg(),
        }
    }
}

/// A relational operator tree.
#[derive(Debug, Clone, PartialEq)]
pub enum LogicalPlan {
    /// Read a base table. `columns` is the qualified output schema;
    /// `projection` (set by the pruning rule) restricts which of the
    /// table's columns are actually read.
    Scan {
        /// Base table name.
        table: String,
        /// Qualified output column names (`table.column` or
        /// `alias.column`), post-projection.
        columns: Vec<String>,
        /// Indices into the *base table schema* to read; `None` reads
        /// every column.
        projection: Option<Vec<usize>>,
    },
    /// Keep rows satisfying the predicate.
    Filter {
        /// The input plan.
        input: Box<LogicalPlan>,
        /// Boolean predicate over the input columns.
        predicate: Expr,
    },
    /// Compute output expressions.
    Project {
        /// The input plan.
        input: Box<LogicalPlan>,
        /// `(expression, output name)` pairs.
        exprs: Vec<(Expr, String)>,
    },
    /// Group and aggregate.
    Aggregate {
        /// The input plan.
        input: Box<LogicalPlan>,
        /// Grouping expressions (output columns named by their text).
        group_by: Vec<Expr>,
        /// Aggregate expressions, each an `Expr::Agg`.
        aggs: Vec<Expr>,
    },
    /// Inner equi-join.
    Join {
        /// Left (probe) side.
        left: Box<LogicalPlan>,
        /// Right (build) side.
        right: Box<LogicalPlan>,
        /// Join key column on the left schema.
        left_key: String,
        /// Join key column on the right schema.
        right_key: String,
    },
    /// Sort by keys; `true` means descending.
    Sort {
        /// The input plan.
        input: Box<LogicalPlan>,
        /// `(key expression, descending)` pairs, major key first.
        keys: Vec<(Expr, bool)>,
    },
    /// Keep the first `n` rows.
    Limit {
        /// The input plan.
        input: Box<LogicalPlan>,
        /// Row budget.
        n: usize,
    },
}

impl LogicalPlan {
    /// Output column names of this node.
    pub fn schema(&self) -> Vec<String> {
        let mut names = Vec::new();
        self.visit_schema(&mut |name| names.push(name.into_owned()));
        names
    }

    /// [`schema`](Self::schema) without copying a name some node already
    /// holds: a scan's columns and a projection's output names are
    /// borrowed, and only an aggregate's (the text of its expressions)
    /// are built.
    pub fn schema_names(&self) -> Vec<Cow<'_, str>> {
        let mut names = Vec::new();
        self.visit_schema(&mut |name| names.push(name));
        names
    }

    fn visit_schema<'p>(&'p self, f: &mut impl FnMut(Cow<'p, str>)) {
        match self {
            LogicalPlan::Scan { columns, .. } => {
                for name in columns {
                    f(Cow::Borrowed(name));
                }
            }
            LogicalPlan::Project { exprs, .. } => {
                for (_, name) in exprs {
                    f(Cow::Borrowed(name));
                }
            }
            LogicalPlan::Aggregate { group_by, aggs, .. } => {
                for expr in group_by.iter().chain(aggs) {
                    f(Cow::Owned(expr.text()));
                }
            }
            LogicalPlan::Join { left, right, .. } => {
                left.visit_schema(f);
                right.visit_schema(f);
            }
            LogicalPlan::Filter { input, .. }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::Limit { input, .. } => input.visit_schema(f),
        }
    }

    /// Whether `name` is one of this node's output columns: what
    /// `schema().contains(name)` answers, without building the list.
    pub fn has_column(&self, name: &str) -> bool {
        match self {
            LogicalPlan::Scan { columns, .. } => columns.iter().any(|c| c == name),
            LogicalPlan::Project { exprs, .. } => exprs.iter().any(|(_, c)| c == name),
            LogicalPlan::Aggregate { group_by, aggs, .. } => {
                group_by.iter().chain(aggs).any(|e| e.text() == name)
            }
            LogicalPlan::Join { left, right, .. } => {
                left.has_column(name) || right.has_column(name)
            }
            LogicalPlan::Filter { input, .. }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::Limit { input, .. } => input.has_column(name),
        }
    }

    /// Child plans, in order.
    pub fn children(&self) -> Vec<&LogicalPlan> {
        match self {
            LogicalPlan::Scan { .. } => Vec::new(),
            LogicalPlan::Filter { input, .. }
            | LogicalPlan::Project { input, .. }
            | LogicalPlan::Aggregate { input, .. }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::Limit { input, .. } => vec![input],
            LogicalPlan::Join { left, right, .. } => vec![left, right],
        }
    }

    /// One-line description of this node (no children).
    pub fn describe(&self) -> String {
        match self {
            LogicalPlan::Scan {
                table,
                columns,
                projection,
            } => match projection {
                Some(_) => format!("Scan: {table} projection=[{}]", columns.join(", ")),
                None => format!("Scan: {table}"),
            },
            LogicalPlan::Filter { predicate, .. } => {
                format!("Filter: {}", predicate.text())
            }
            LogicalPlan::Project { exprs, .. } => {
                let items: Vec<String> = exprs
                    .iter()
                    .map(|(e, name)| {
                        let text = e.text();
                        if &text == name {
                            text
                        } else {
                            format!("{text} AS {name}")
                        }
                    })
                    .collect();
                format!("Project: {}", items.join(", "))
            }
            LogicalPlan::Aggregate { group_by, aggs, .. } => {
                let groups: Vec<String> = group_by.iter().map(Expr::text).collect();
                let calls: Vec<String> = aggs.iter().map(Expr::text).collect();
                format!(
                    "Aggregate: group_by=[{}] aggs=[{}]",
                    groups.join(", "),
                    calls.join(", ")
                )
            }
            LogicalPlan::Join {
                left_key,
                right_key,
                ..
            } => format!("Join: {left_key} = {right_key}"),
            LogicalPlan::Sort { keys, .. } => {
                let items: Vec<String> = keys
                    .iter()
                    .map(|(e, desc)| format!("{} {}", e.text(), if *desc { "DESC" } else { "ASC" }))
                    .collect();
                format!("Sort: {}", items.join(", "))
            }
            LogicalPlan::Limit { n, .. } => format!("Limit: {n}"),
        }
    }

    /// Indented plan text, root first.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        self.write_text(&mut out, 0);
        out
    }

    fn write_text(&self, out: &mut String, depth: usize) {
        for _ in 0..depth {
            out.push_str("  ");
        }
        out.push_str(&self.describe());
        out.push('\n');
        for child in self.children() {
            child.write_text(out, depth + 1);
        }
    }

    /// Canonicalizes the plan for byte-stable output: conjunction
    /// chains are flattened and reordered by canonical text, scan
    /// projections are sorted, and equal-key join spellings are left
    /// as planned. Idempotent; semantics-preserving (AND is
    /// commutative and associative, and projection order is
    /// normalized together with the column list).
    #[must_use]
    pub fn normalize(&self) -> LogicalPlan {
        match self.clone() {
            LogicalPlan::Scan {
                table,
                mut columns,
                projection,
            } => {
                let projection = match projection {
                    Some(mut indices) => {
                        // Keep columns and indices aligned while
                        // sorting by base-table column index.
                        let mut paired: Vec<(usize, String)> =
                            indices.drain(..).zip(columns.drain(..)).collect();
                        paired.sort_by_key(|(index, _)| *index);
                        columns = paired.iter().map(|(_, c)| c.clone()).collect();
                        Some(paired.into_iter().map(|(i, _)| i).collect())
                    }
                    None => None,
                };
                LogicalPlan::Scan {
                    table,
                    columns,
                    projection,
                }
            }
            LogicalPlan::Filter { input, predicate } => LogicalPlan::Filter {
                input: Box::new(input.normalize()),
                predicate: normalize_predicate(predicate),
            },
            LogicalPlan::Project { input, exprs } => LogicalPlan::Project {
                input: Box::new(input.normalize()),
                exprs,
            },
            LogicalPlan::Aggregate {
                input,
                group_by,
                aggs,
            } => LogicalPlan::Aggregate {
                input: Box::new(input.normalize()),
                group_by,
                aggs,
            },
            LogicalPlan::Join {
                left,
                right,
                left_key,
                right_key,
            } => LogicalPlan::Join {
                left: Box::new(left.normalize()),
                right: Box::new(right.normalize()),
                left_key,
                right_key,
            },
            LogicalPlan::Sort { input, keys } => LogicalPlan::Sort {
                input: Box::new(input.normalize()),
                keys,
            },
            LogicalPlan::Limit { input, n } => LogicalPlan::Limit {
                input: Box::new(input.normalize()),
                n,
            },
        }
    }

    /// Short operator name for JSON / telemetry.
    pub fn op_name(&self) -> &'static str {
        match self {
            LogicalPlan::Scan { .. } => "scan",
            LogicalPlan::Filter { .. } => "filter",
            LogicalPlan::Project { .. } => "project",
            LogicalPlan::Aggregate { .. } => "aggregate",
            LogicalPlan::Join { .. } => "join",
            LogicalPlan::Sort { .. } => "sort",
            LogicalPlan::Limit { .. } => "limit",
        }
    }
}

/// Flattens a conjunction chain, sorts the conjuncts by canonical
/// text, and rebuilds a right-leaning AND chain. Normalizes nested
/// predicates recursively.
fn normalize_predicate(expr: Expr) -> Expr {
    let mut conjuncts = Vec::new();
    split_conjunction(expr, &mut conjuncts);
    conjuncts.sort_by_key(|conjunct| conjunct.text());
    conjoin(conjuncts)
}

/// Splits `a AND b AND c` into its conjuncts.
pub fn split_conjunction(expr: Expr, out: &mut Vec<Expr>) {
    match expr {
        Expr::Binary {
            op: BinOp::And,
            lhs,
            rhs,
        } => {
            split_conjunction(*lhs, out);
            split_conjunction(*rhs, out);
        }
        other => out.push(other),
    }
}

/// Rebuilds a conjunction from conjuncts (right-leaning). An empty
/// list becomes `true`.
pub fn conjoin(mut conjuncts: Vec<Expr>) -> Expr {
    match conjuncts.pop() {
        None => Expr::Bool(true),
        Some(mut acc) => {
            while let Some(next) = conjuncts.pop() {
                acc = Expr::Binary {
                    op: BinOp::And,
                    lhs: Box::new(next),
                    rhs: Box::new(acc),
                };
            }
            acc
        }
    }
}

/// `qualifier.column`, in one allocation of the exact size.
pub(crate) fn qualified(qualifier: &str, column: &str) -> String {
    let mut name = String::with_capacity(qualifier.len() + 1 + column.len());
    name.push_str(qualifier);
    name.push('.');
    name.push_str(column);
    name
}

/// The plan as JSON: `{"op","detail","schema","children"}`, children in
/// plan order. EXPLAIN writes the [normalized](LogicalPlan::normalize)
/// plan compact, so the bytes are canonical.
impl Serialize for LogicalPlan {
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(vec![
            ("op".into(), self.op_name().to_value()),
            ("detail".into(), self.describe().to_value()),
            ("schema".into(), self.schema().to_value()),
            ("children".into(), self.children().to_value()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan() -> LogicalPlan {
        LogicalPlan::Scan {
            table: "t".to_string(),
            columns: vec!["t.a".to_string(), "t.b".to_string()],
            projection: None,
        }
    }

    #[test]
    fn plan_text_is_indented_root_first() {
        let plan = LogicalPlan::Filter {
            input: Box::new(scan()),
            predicate: Expr::Binary {
                op: BinOp::Gt,
                lhs: Box::new(Expr::Column("t.a".to_string())),
                rhs: Box::new(Expr::Int(3)),
            },
        };
        let text = plan.to_text();
        assert_eq!(text, "Filter: (t.a > 3)\n  Scan: t\n");
    }

    #[test]
    fn normalize_orders_conjuncts_canonically() {
        let a = Expr::Binary {
            op: BinOp::Gt,
            lhs: Box::new(Expr::Column("t.b".to_string())),
            rhs: Box::new(Expr::Int(1)),
        };
        let b = Expr::Binary {
            op: BinOp::Lt,
            lhs: Box::new(Expr::Column("t.a".to_string())),
            rhs: Box::new(Expr::Int(9)),
        };
        let one = LogicalPlan::Filter {
            input: Box::new(scan()),
            predicate: Expr::Binary {
                op: BinOp::And,
                lhs: Box::new(a.clone()),
                rhs: Box::new(b.clone()),
            },
        };
        let two = LogicalPlan::Filter {
            input: Box::new(scan()),
            predicate: Expr::Binary {
                op: BinOp::And,
                lhs: Box::new(b),
                rhs: Box::new(a),
            },
        };
        assert_eq!(one.normalize(), two.normalize());
        assert_eq!(one.normalize().to_value(), two.normalize().to_value());
    }

    #[test]
    fn normalize_is_idempotent() {
        let plan = LogicalPlan::Limit {
            input: Box::new(LogicalPlan::Sort {
                input: Box::new(scan()),
                keys: vec![(Expr::Column("t.a".to_string()), true)],
            }),
            n: 5,
        };
        assert_eq!(plan.normalize(), plan.normalize().normalize());
    }

    #[test]
    fn json_escapes_quotes() {
        let plan = LogicalPlan::Scan {
            table: "a\"b".to_string(),
            columns: vec!["a\"b.c".to_string()],
            projection: None,
        };
        assert_eq!(
            serde_json::to_string(&plan).unwrap(),
            r#"{"op":"scan","detail":"Scan: a\"b","schema":["a\"b.c"],"children":[]}"#
        );
    }
}
