//! Deterministic in-memory executor, one column at a time.
//!
//! The executor is the semantic ground truth the optimizer is proven
//! against: for every rewrite rule, the property suite checks that
//! optimized and unoptimized plans produce identical row sets on
//! seeded tables. Determinism comes from `BTreeMap` grouping, stable
//! sorts and `f64::total_cmp` ordering — no hash-order or NaN surprises.
//!
//! Operators exchange a relation: columns shared with the catalog's
//! column image (or computed, one typed vector per expression) and a
//! selection naming the rows in play. A scan copies nothing, a filter
//! shrinks the selection, a sort permutes it, and [`Batch`] rows are
//! built once, at the root, from the rows that survive. Each operator
//! resolves the names it uses once, before it looks at a row. The
//! row-at-a-time interpreter this replaced lives on in `tests/naive/`
//! as the reference `tests/query_props.rs` holds this one to: same
//! columns, same rows in the same order, bit for bit.
//!
//! Semantics notes (documented in `docs/QUERY.md`):
//! * integer arithmetic wraps (matching the constant folder);
//! * `/` always produces a float;
//! * `AND` / `OR` evaluate their right side only on the rows their left
//!   side leaves undecided;
//! * a global aggregate over an empty input yields one row of neutral
//!   values (`count = 0`, `sum`/`avg`/`min`/`max` = `0.0`).

use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::sync::Arc;

use crate::error::{QueryError, QueryResult};
use crate::plan::{AggFunc, BinOp, Expr, LogicalPlan};
use crate::table::{Catalog, Column, Value};

/// A result set: named columns plus row-major values.
#[derive(Debug, Clone, PartialEq)]
pub struct Batch {
    /// Output column names.
    pub columns: Vec<String>,
    /// Row-major values.
    pub rows: Vec<Vec<Value>>,
}

impl Batch {
    /// Renders the batch as aligned text (header, rule, rows).
    pub fn to_text(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(String::len).collect();
        let rendered: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|row| row.iter().map(|v| format!("{v}")).collect())
            .collect();
        for row in &rendered {
            for (i, cell) in row.iter().enumerate() {
                if cell.len() > widths[i] {
                    widths[i] = cell.len();
                }
            }
        }
        let mut out = String::new();
        let header: Vec<String> = self
            .columns
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{c:<width$}", width = widths[i]))
            .collect();
        out.push_str(header.join("  ").trim_end());
        out.push('\n');
        out.push_str(
            &"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1)),
        );
        out.push('\n');
        for row in &rendered {
            let line: Vec<String> = row
                .iter()
                .enumerate()
                .map(|(i, cell)| format!("{cell:<width$}", width = widths[i]))
                .collect();
            out.push_str(line.join("  ").trim_end());
            out.push('\n');
        }
        out
    }
}

/// Canonical multiset view of a batch's rows (sorted row text) —
/// the equality the optimizer-equivalence property tests compare,
/// since rewrites may reorder rows of unordered queries.
pub fn row_multiset(batch: &Batch) -> Vec<String> {
    let mut rows: Vec<String> = batch
        .rows
        .iter()
        .map(|row| {
            row.iter()
                .map(|v| format!("{v}"))
                .collect::<Vec<_>>()
                .join("|")
        })
        .collect();
    rows.sort();
    rows
}

fn exec_error(message: String) -> QueryError {
    QueryError::Exec { message }
}

/// The integer form of `+`, `-` and `*`: wrapping. `/` has none.
fn int_op(op: BinOp) -> Option<fn(i64, i64) -> i64> {
    Some(match op {
        BinOp::Add => i64::wrapping_add,
        BinOp::Sub => i64::wrapping_sub,
        BinOp::Mul => i64::wrapping_mul,
        _ => return None,
    })
}

/// The float form of the four arithmetic operators.
fn float_op(op: BinOp) -> Option<fn(f64, f64) -> f64> {
    Some(match op {
        BinOp::Add => |a, b| a + b,
        BinOp::Sub => |a, b| a - b,
        BinOp::Mul => |a, b| a * b,
        BinOp::Div => |a, b| a / b,
        _ => return None,
    })
}

/// Numeric arithmetic: int op int stays int (wrapping), `/` and
/// anything involving a float widen to float. Shared with the constant
/// folder so folding never changes a result.
pub fn arith(op: BinOp, left: &Value, right: &Value) -> QueryResult<Value> {
    if let (Value::Int(a), Value::Int(b), Some(f)) = (left, right, int_op(op)) {
        return Ok(Value::Int(f(*a, *b)));
    }
    match (left.as_f64(), right.as_f64(), float_op(op)) {
        (Some(a), Some(b), Some(f)) => Ok(Value::Float(f(a, b))),
        (_, _, None) => Err(exec_error(format!("'{}' is not arithmetic", op.symbol()))),
        _ => Err(exec_error(format!(
            "'{}' expects numbers, got {} and {}",
            op.symbol(),
            left.data_type(),
            right.data_type()
        ))),
    }
}

/// `true` when comparison `op` holds of two values ordered `ord`.
fn holds(op: BinOp, ord: Ordering) -> bool {
    match op {
        BinOp::Eq => ord.is_eq(),
        BinOp::Ne => ord.is_ne(),
        BinOp::Lt => ord.is_lt(),
        BinOp::Le => ord.is_le(),
        BinOp::Gt => ord.is_gt(),
        BinOp::Ge => ord.is_ge(),
        _ => false,
    }
}

/// The rows of a relation an operator works on, in output order and
/// each at most once.
#[derive(Debug)]
enum Sel {
    /// Rows `0..n`.
    Prefix(usize),
    /// These rows.
    Rows(Vec<usize>),
}

impl Sel {
    fn len(&self) -> usize {
        match self {
            Sel::Prefix(n) => *n,
            Sel::Rows(rows) => rows.len(),
        }
    }

    fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        let map = self.map();
        (0..self.len()).map(move |i| map.at(i))
    }

    fn map(&self) -> Map<'_> {
        match self {
            Sel::Prefix(_) => Map::Identity,
            Sel::Rows(rows) => Map::Via(rows),
        }
    }

    /// For each row of `self`, whether it is in `part` — a subsequence
    /// of `self`, as everything `select` returns is.
    fn marks(&self, part: &Sel) -> Vec<bool> {
        let mut part = part.iter().peekable();
        self.iter()
            .map(|row| part.next_if_eq(&row).is_some())
            .collect()
    }

    /// The rows of `self` that are not in its subsequence `part`.
    fn without(&self, part: &Sel) -> Sel {
        let kept = self.iter().zip(self.marks(part));
        Sel::Rows(
            kept.filter(|(_, marked)| !marked)
                .map(|(row, _)| row)
                .collect(),
        )
    }
}

/// Where row `i` of a selection sits in a column.
#[derive(Debug, Clone, Copy)]
enum Map<'a> {
    /// A literal: every row reads position 0.
    Broadcast,
    /// Row `i` is position `i`.
    Identity,
    /// Row `i` is position `rows[i]`.
    Via(&'a [usize]),
}

impl Map<'_> {
    #[inline]
    fn at(self, i: usize) -> usize {
        match self {
            Map::Broadcast => 0,
            Map::Identity => i,
            Map::Via(rows) => rows[i],
        }
    }
}

/// One expression's values on a selection: an input column read
/// through the selection, a one-value literal, or a computed column
/// with one value per selected row.
#[derive(Debug)]
struct Vector<'a> {
    col: Cow<'a, Column>,
    map: Map<'a>,
}

impl<'a> Vector<'a> {
    fn literal(col: Column) -> Vector<'a> {
        Vector {
            col: Cow::Owned(col),
            map: Map::Broadcast,
        }
    }

    fn computed(col: Column) -> Vector<'a> {
        Vector {
            col: Cow::Owned(col),
            map: Map::Identity,
        }
    }

    /// The values of rows `0..n` as a column.
    fn into_column(self, n: usize) -> Column {
        match (self.col, self.map) {
            (Cow::Owned(col), Map::Identity) => col,
            (col, map) => col.gather((0..n).map(|i| map.at(i))),
        }
    }

    /// The value of row `i`.
    fn value(&self, i: usize) -> Value {
        self.col.value(self.map.at(i))
    }
}

/// One `u64` per row of each part — a vector and how many rows of it —
/// ordered as `Value::cmp` orders the rows' values, across the parts.
/// Sorting, grouping, joining and `min`/`max` work on these codes, not
/// on values: typed columns of one kind are encoded in a pass, anything
/// else is ranked.
fn order_codes(parts: &[(&Vector, usize)]) -> Vec<u64> {
    const SIGN: u64 = 1 << 63;
    let kind = |part: &(&Vector, usize)| std::mem::discriminant(&*part.0.col);
    let one_kind = parts.windows(2).all(|w| kind(&w[0]) == kind(&w[1]));
    let mut codes = Vec::with_capacity(parts.iter().map(|(_, n)| n).sum());
    for (v, n) in parts {
        let at = (0..*n).map(|i| v.map.at(i));
        match &*v.col {
            Column::Int(a) if one_kind => codes.extend(at.map(|p| a[p] as u64 ^ SIGN)),
            // The key `f64::total_cmp` compares as `i64`.
            Column::Float(a) if one_kind => codes.extend(at.map(|p| {
                let bits = a[p].to_bits() as i64;
                (bits ^ (((bits >> 63) as u64) >> 1) as i64) as u64 ^ SIGN
            })),
            Column::Bool(a) if one_kind => codes.extend(at.map(|p| u64::from(a[p]))),
            _ => return rank_codes(parts),
        }
    }
    codes
}

/// [`order_codes`] for any columns: the dense rank of each row's value.
fn rank_codes(parts: &[(&Vector, usize)]) -> Vec<u64> {
    let rows = parts.iter().flat_map(|(v, n)| (0..*n).map(|i| v.value(i)));
    let values: Vec<Value> = rows.collect();
    dense_rank(values.len(), |a, b| values[a].cmp(&values[b]))
}

/// For each of `n` rows, how many distinct rows order before it.
fn dense_rank(n: usize, cmp: impl Fn(usize, usize) -> Ordering) -> Vec<u64> {
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| cmp(a, b));
    let mut ranks = vec![0; n];
    for pair in order.windows(2) {
        ranks[pair[1]] = ranks[pair[0]] + u64::from(cmp(pair[0], pair[1]).is_ne());
    }
    ranks
}

/// One code per row that orders `n` rows as their keys do, key by key,
/// key `k` downwards when `descending(k)`: the key's own codes when
/// there is one key, the rank of the row's tuple of codes when there
/// are several.
fn row_codes(keys: &[Vector], descending: impl Fn(usize) -> bool, n: usize) -> Vec<u64> {
    let mut per_key: Vec<Vec<u64>> = keys
        .iter()
        .enumerate()
        .map(|(k, vector)| {
            let mut codes = order_codes(&[(vector, n)]);
            if descending(k) {
                codes.iter_mut().for_each(|code| *code = !*code);
            }
            codes
        })
        .collect();
    if per_key.len() == 1 {
        return per_key.swap_remove(0);
    }
    dense_rank(n, |a, b| {
        let by_key = per_key.iter().map(|codes| codes[a].cmp(&codes[b]));
        by_key.fold(Ordering::Equal, Ordering::then)
    })
}

/// Numeric read access to a typed `Int` or `Float` column.
enum Nums<'a> {
    Int(&'a [i64]),
    Float(&'a [f64]),
}

impl Nums<'_> {
    fn of(col: &Column) -> Option<Nums<'_>> {
        match col {
            Column::Int(v) => Some(Nums::Int(v)),
            Column::Float(v) => Some(Nums::Float(v)),
            Column::Str(_) | Column::Bool(_) | Column::Mixed(_) => None,
        }
    }

    #[inline]
    fn at(&self, at: usize) -> f64 {
        match self {
            Nums::Int(v) => v[at] as f64,
            Nums::Float(v) => v[at],
        }
    }
}

/// Calls `each(i, ordering)` with `Value::cmp` of row `i` of `l` against
/// row `i` of `r`, for rows `0..n`: one typed pass for numeric columns,
/// a value at a time for the rest.
fn compare(l: &Vector, r: &Vector, n: usize, mut each: impl FnMut(usize, Ordering)) {
    let rows = (0..n).map(|i| (i, l.map.at(i), r.map.at(i)));
    if let (Column::Int(a), Column::Int(b)) = (&*l.col, &*r.col) {
        rows.for_each(|(i, p, q)| each(i, a[p].cmp(&b[q])));
    } else if let (Column::Float(a), Column::Float(b)) = (&*l.col, &*r.col) {
        rows.for_each(|(i, p, q)| each(i, a[p].total_cmp(&b[q])));
    } else if let (Some(a), Some(b)) = (Nums::of(&l.col), Nums::of(&r.col)) {
        rows.for_each(|(i, p, q)| each(i, a.at(p).total_cmp(&b.at(q))));
    } else {
        rows.for_each(|(i, ..)| each(i, l.value(i).cmp(&r.value(i))));
    }
}

/// `l op r` on rows `0..n`, by the rules of [`arith`].
fn arith_columns(op: BinOp, l: &Vector, r: &Vector, n: usize) -> QueryResult<Column> {
    if let (Column::Int(a), Column::Int(b), Some(f)) = (&*l.col, &*r.col, int_op(op)) {
        let ints = (0..n).map(|i| f(a[l.map.at(i)], b[r.map.at(i)]));
        return Ok(Column::Int(ints.collect()));
    }
    if let (Some(a), Some(b), Some(f)) = (Nums::of(&l.col), Nums::of(&r.col), float_op(op)) {
        let floats = (0..n).map(|i| f(a.at(l.map.at(i)), b.at(r.map.at(i))));
        return Ok(Column::Float(floats.collect()));
    }
    let values = (0..n).map(|i| arith(op, &l.value(i), &r.value(i)));
    values.collect::<QueryResult<_>>().map(Column::Mixed)
}

/// `-v` on rows `0..n`.
fn negate(v: &Vector, n: usize) -> QueryResult<Column> {
    let rows = (0..n).map(|i| v.map.at(i));
    Ok(match &*v.col {
        Column::Int(a) => Column::Int(rows.map(|p| a[p].wrapping_neg()).collect()),
        Column::Float(a) => Column::Float(rows.map(|p| -a[p]).collect()),
        col => Column::Mixed(
            rows.map(|p| match col.value(p) {
                Value::Int(x) => Ok(Value::Int(x.wrapping_neg())),
                Value::Float(x) => Ok(Value::Float(-x)),
                other => Err(exec_error(format!(
                    "'-' expects a number, got {}",
                    other.data_type()
                ))),
            })
            .collect::<QueryResult<_>>()?,
        ),
    })
}

/// Groups `n` rows by their keys: each row's group, groups numbered in
/// ascending key order — the order they are emitted in — and each
/// group's first row. Without keys, every row is in group 0.
fn group_rows(keys: &[Vector], n: usize) -> (Vec<usize>, Vec<usize>) {
    let mut group_of = vec![0; n];
    let mut firsts = Vec::new();
    if keys.is_empty() {
        return (group_of, firsts);
    }
    // Number the groups as they first appear, then renumber them.
    let mut ids: BTreeMap<u64, usize> = BTreeMap::new();
    for (row, code) in row_codes(keys, |_| false, n).into_iter().enumerate() {
        group_of[row] = *ids.entry(code).or_insert_with(|| {
            firsts.push(row);
            firsts.len() - 1
        });
    }
    let mut rank = vec![0; firsts.len()];
    let firsts = ids.values().enumerate().map(|(ordinal, &id)| {
        rank[id] = ordinal;
        firsts[id]
    });
    let firsts = firsts.collect();
    group_of.iter_mut().for_each(|g| *g = rank[*g]);
    (group_of, firsts)
}

/// One aggregate over rows `0..group_of.len()` of `arg`, row `i`
/// folding into group `group_of[i]` — in row order, so a float sum is
/// accumulated exactly as a loop over the group's rows would.
fn fold(
    func: AggFunc,
    arg: Option<&Vector>,
    group_of: &[usize],
    groups: usize,
) -> QueryResult<Column> {
    Ok(match func {
        AggFunc::Count => {
            let mut counts = vec![0i64; groups];
            for &g in group_of {
                counts[g] += 1;
            }
            Column::Int(counts)
        }
        AggFunc::Sum | AggFunc::Avg => {
            let not_numeric = || exec_error("aggregate expects a numeric argument".to_string());
            let mut sums = vec![0.0f64; groups];
            let mut counts = vec![0u64; groups];
            let nums = arg.and_then(|v| Nums::of(&v.col).map(|nums| (nums, v.map)));
            for (i, &g) in group_of.iter().enumerate() {
                sums[g] += match (&nums, arg) {
                    (Some((nums, map)), _) => nums.at(map.at(i)),
                    (None, Some(v)) => v.value(i).as_f64().ok_or_else(not_numeric)?,
                    (None, None) => return Err(not_numeric()),
                };
                counts[g] += 1;
            }
            if func == AggFunc::Avg {
                for (sum, &n) in sums.iter_mut().zip(&counts) {
                    if n > 0 {
                        *sum /= n as f64;
                    }
                }
            }
            Column::Float(sums)
        }
        AggFunc::Min | AggFunc::Max => {
            let codes = arg.map(|v| order_codes(&[(v, group_of.len())]));
            let mut best: Vec<Option<usize>> = vec![None; groups];
            for (i, &g) in group_of.iter().enumerate() {
                let codes = codes
                    .as_ref()
                    .ok_or_else(|| exec_error("aggregate expects an argument".to_string()))?;
                // Strictly better only: of equal values the first stays.
                let better = |held: usize| match func {
                    AggFunc::Min => codes[i] < codes[held],
                    _ => codes[i] > codes[held],
                };
                if best[g].is_none_or(better) {
                    best[g] = Some(i);
                }
            }
            match (arg, best.into_iter().collect::<Option<Vec<usize>>>()) {
                (Some(v), Some(rows)) => v.col.gather(rows.into_iter().map(|i| v.map.at(i))),
                // Only the neutral row of an empty input has no best.
                _ => Column::Float(vec![0.0; groups]),
            }
        }
    })
}

/// What operators exchange: named columns and the rows of them in play.
struct Relation {
    names: Vec<String>,
    cols: Vec<Arc<Column>>,
    sel: Sel,
}

impl Relation {
    fn index_of(&self, name: &str) -> Option<usize> {
        self.names.iter().position(|c| c == name)
    }

    /// Column `index` on the relation's own rows.
    fn vector(&self, index: usize) -> Vector<'_> {
        Vector {
            col: Cow::Borrowed(&*self.cols[index]),
            map: self.sel.map(),
        }
    }

    /// The column an expression's `name` refers to.
    fn column(&self, name: &str) -> QueryResult<&Arc<Column>> {
        match self.index_of(name) {
            Some(index) => Ok(&self.cols[index]),
            None => Err(exec_error(format!("column '{name}' missing at execution"))),
        }
    }

    /// The values of `expr` on the rows of `sel`.
    fn eval<'a>(&'a self, expr: &Expr, sel: &'a Sel) -> QueryResult<Vector<'a>> {
        let n = sel.len();
        Ok(match expr {
            Expr::Column(name) => Vector {
                col: Cow::Borrowed(&**self.column(name)?),
                map: sel.map(),
            },
            Expr::Int(v) => Vector::literal(Column::Int(vec![*v])),
            Expr::Float(v) => Vector::literal(Column::Float(vec![*v])),
            Expr::Str(v) => Vector::literal(Column::Str(vec![v.clone()])),
            Expr::Bool(v) => Vector::literal(Column::Bool(vec![*v])),
            Expr::Binary {
                op: BinOp::And | BinOp::Or,
                ..
            }
            | Expr::Not(_) => {
                let chosen = self.select(expr, sel, "")?;
                Vector::computed(Column::Bool(sel.marks(&chosen)))
            }
            Expr::Binary { op, lhs, rhs } => {
                let (l, r) = (self.eval(lhs, sel)?, self.eval(rhs, sel)?);
                Vector::computed(if op.is_predicate() {
                    let mut bools = Vec::with_capacity(n);
                    compare(&l, &r, n, |_, ord| bools.push(holds(*op, ord)));
                    Column::Bool(bools)
                } else {
                    arith_columns(*op, &l, &r, n)?
                })
            }
            Expr::Neg(inner) => Vector::computed(negate(&self.eval(inner, sel)?, n)?),
            Expr::Agg { .. } if n == 0 => Vector::computed(Column::Mixed(Vec::new())),
            Expr::Agg { .. } => {
                return Err(exec_error(
                    "aggregate call outside an Aggregate operator".to_string(),
                ))
            }
        })
    }

    /// The rows of `sel` on which `expr` is true, in `sel`'s order.
    /// `AND` evaluates its right side on the rows its left side kept and
    /// `OR` on the rows it dropped — a row's error is raised exactly when
    /// evaluating that row alone would raise it. `role` words the error
    /// for a value that is not a boolean.
    fn select(&self, expr: &Expr, sel: &Sel, role: &str) -> QueryResult<Sel> {
        match expr {
            Expr::Binary {
                op: op @ (BinOp::And | BinOp::Or),
                lhs,
                rhs,
            } => {
                let role = if *op == BinOp::And {
                    "AND expects booleans"
                } else {
                    "OR expects booleans"
                };
                let left = self.select(lhs, sel, role)?;
                if *op == BinOp::And {
                    return self.select(rhs, &left, role);
                }
                let undecided = sel.without(&left);
                let neither = undecided.without(&self.select(rhs, &undecided, role)?);
                Ok(sel.without(&neither))
            }
            Expr::Not(inner) => {
                Ok(sel.without(&self.select(inner, sel, "NOT expects a boolean")?))
            }
            Expr::Binary { op, lhs, rhs } if op.is_predicate() => {
                let (l, r) = (self.eval(lhs, sel)?, self.eval(rhs, sel)?);
                let (map, mut rows) = (sel.map(), Vec::with_capacity(sel.len()));
                compare(&l, &r, sel.len(), |i, ord| {
                    if holds(*op, ord) {
                        rows.push(map.at(i));
                    }
                });
                Ok(Sel::Rows(rows))
            }
            _ => {
                let v = self.eval(expr, sel)?;
                let mut rows = Vec::with_capacity(sel.len());
                for (i, row) in sel.iter().enumerate() {
                    match v.value(i) {
                        Value::Bool(true) => rows.push(row),
                        Value::Bool(false) => {}
                        other => {
                            return Err(exec_error(format!("{role}, got {}", other.data_type())))
                        }
                    }
                }
                Ok(Sel::Rows(rows))
            }
        }
    }

    /// The selected rows as a batch: the one place rows are built.
    fn into_batch(self) -> Batch {
        let rows = self.sel.iter();
        Batch {
            rows: rows
                .map(|row| self.cols.iter().map(|col| col.value(row)).collect())
                .collect(),
            columns: self.names,
        }
    }
}

/// Executes a plan against a catalog.
pub fn execute(plan: &LogicalPlan, catalog: &Catalog) -> QueryResult<Batch> {
    relation(plan, catalog).map(Relation::into_batch)
}

fn relation(plan: &LogicalPlan, catalog: &Catalog) -> QueryResult<Relation> {
    match plan {
        LogicalPlan::Scan {
            table,
            columns,
            projection,
        } => {
            let (t, image) = catalog
                .columns(table)
                .ok_or_else(|| exec_error(format!("unknown table '{table}' at execution")))?;
            let image = image.as_ref().map_err(Clone::clone)?;
            let cols: Vec<Arc<Column>> = match projection {
                None => image.clone(),
                Some(indices) => indices
                    .iter()
                    .map(|&i| {
                        image.get(i).cloned().ok_or_else(|| {
                            exec_error(format!(
                                "scan of '{table}' reads column {i}, the table has {}",
                                image.len()
                            ))
                        })
                    })
                    .collect::<QueryResult<_>>()?,
            };
            if columns.len() != cols.len() {
                return Err(exec_error(format!(
                    "scan of '{table}' names {} columns and reads {}",
                    columns.len(),
                    cols.len()
                )));
            }
            Ok(Relation {
                names: columns.clone(),
                cols,
                sel: Sel::Prefix(t.rows.len()),
            })
        }
        LogicalPlan::Filter { input, predicate } => {
            let rel = relation(input, catalog)?;
            let sel = rel.select(predicate, &rel.sel, "filter predicate must be boolean")?;
            Ok(Relation { sel, ..rel })
        }
        LogicalPlan::Project { input, exprs } => {
            let rel = relation(input, catalog)?;
            let n = rel.sel.len();
            // Plain columns are shared as they are. Computed ones are
            // positional: beside them, under a selection that is not a
            // prefix, the plain ones are gathered to match.
            let plain = exprs.iter().all(|(e, _)| matches!(e, Expr::Column(_)));
            let share = plain || matches!(rel.sel, Sel::Prefix(_));
            let mut cols = Vec::with_capacity(exprs.len());
            for (expr, _) in exprs {
                cols.push(match expr {
                    Expr::Column(name) if share => Arc::clone(rel.column(name)?),
                    _ => Arc::new(rel.eval(expr, &rel.sel)?.into_column(n)),
                });
            }
            Ok(Relation {
                names: exprs.iter().map(|(_, name)| name.clone()).collect(),
                cols,
                sel: if plain { rel.sel } else { Sel::Prefix(n) },
            })
        }
        LogicalPlan::Aggregate {
            input,
            group_by,
            aggs,
        } => {
            let rel = relation(input, catalog)?;
            let funcs: Vec<(AggFunc, Option<&Expr>)> = aggs
                .iter()
                .map(|agg| match agg {
                    Expr::Agg { func, arg } => Ok((*func, arg.as_deref())),
                    other => Err(exec_error(format!(
                        "'{}' is not an aggregate call",
                        other.text()
                    ))),
                })
                .collect::<QueryResult<_>>()?;
            let keys: Vec<Vector> = group_by
                .iter()
                .map(|expr| rel.eval(expr, &rel.sel))
                .collect::<QueryResult<_>>()?;
            let (group_of, firsts) = group_rows(&keys, rel.sel.len());
            // Without keys there is one group, even of no rows: a global
            // aggregate over empty input yields one row of neutral values.
            let groups = if keys.is_empty() { 1 } else { firsts.len() };
            let mut cols: Vec<Arc<Column>> = keys
                .iter()
                .map(|key| Arc::new(key.col.gather(firsts.iter().map(|&i| key.map.at(i)))))
                .collect();
            for (func, arg) in funcs {
                let arg = arg.map(|expr| rel.eval(expr, &rel.sel)).transpose()?;
                cols.push(Arc::new(fold(func, arg.as_ref(), &group_of, groups)?));
            }
            Ok(Relation {
                names: plan.schema(),
                cols,
                sel: Sel::Prefix(groups),
            })
        }
        LogicalPlan::Join {
            left,
            right,
            left_key,
            right_key,
        } => {
            let l = relation(left, catalog)?;
            let r = relation(right, catalog)?;
            let key_of = |rel: &Relation, key: &str, side: &str| {
                rel.index_of(key)
                    .ok_or_else(|| exec_error(format!("join key '{key}' missing on {side} side")))
            };
            let (li, ri) = (
                key_of(&l, left_key, "left")?,
                key_of(&r, right_key, "right")?,
            );
            let (lkey, rkey) = (l.vector(li), r.vector(ri));
            // Right rows in key order, equal keys in row order; each left
            // row then finds its matches as one run of that order.
            let codes = order_codes(&[(&lkey, l.sel.len()), (&rkey, r.sel.len())]);
            let (lcodes, rcodes) = codes.split_at(l.sel.len());
            let mut build: Vec<(u64, usize)> = rcodes.iter().copied().zip(r.sel.iter()).collect();
            build.sort_by_key(|&(code, _)| code);
            let (mut lrows, mut rrows) = (Vec::new(), Vec::new());
            for (lrow, code) in l.sel.iter().zip(lcodes) {
                let start = build.partition_point(|(built, _)| built < code);
                let run = build[start..].iter();
                for &(_, rrow) in run.take_while(|(built, _)| built == code) {
                    lrows.push(lrow);
                    rrows.push(rrow);
                }
            }
            let gathered = |rel: &Relation, rows: &[usize]| -> Vec<Arc<Column>> {
                let cols = rel.cols.iter();
                cols.map(|col| Arc::new(col.gather(rows.iter().copied())))
                    .collect()
            };
            let mut cols = gathered(&l, &lrows);
            cols.extend(gathered(&r, &rrows));
            let mut names = l.names;
            names.extend(r.names);
            Ok(Relation {
                names,
                cols,
                sel: Sel::Prefix(lrows.len()),
            })
        }
        LogicalPlan::Sort { input, keys } => {
            let rel = relation(input, catalog)?;
            let vectors: Vec<Vector> = keys
                .iter()
                .map(|(expr, _)| rel.eval(expr, &rel.sel))
                .collect::<QueryResult<_>>()?;
            let codes = row_codes(&vectors, |k| keys[k].1, rel.sel.len());
            let mut order: Vec<usize> = (0..codes.len()).collect();
            order.sort_by_key(|&i| codes[i]);
            let map = rel.sel.map();
            let sel = Sel::Rows(order.into_iter().map(|i| map.at(i)).collect());
            drop(vectors);
            Ok(Relation { sel, ..rel })
        }
        LogicalPlan::Limit { input, n } => {
            let mut rel = relation(input, catalog)?;
            match &mut rel.sel {
                Sel::Prefix(len) => *len = (*len).min(*n),
                Sel::Rows(rows) => rows.truncate(*n),
            }
            Ok(rel)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use crate::planner::plan_query;
    use crate::table::{DataType, Field, Schema, Table};

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        let schema = Schema::new(vec![
            Field::new("k", DataType::Int),
            Field::new("v", DataType::Float),
        ]);
        let rows = vec![
            vec![Value::Int(1), Value::Float(10.0)],
            vec![Value::Int(2), Value::Float(20.0)],
            vec![Value::Int(1), Value::Float(30.0)],
        ];
        c.register("t", Table::new(schema, rows).expect("table"));
        c
    }

    fn run(sql: &str) -> Batch {
        let catalog = catalog();
        let q = parse(sql).expect("parses");
        let plan = plan_query(&catalog, &q).expect("plans");
        execute(&plan, &catalog).expect("executes")
    }

    #[test]
    fn filter_project_limit() {
        let batch = run("SELECT v FROM t WHERE k = 1 LIMIT 1");
        assert_eq!(batch.rows, vec![vec![Value::Float(10.0)]]);
    }

    #[test]
    fn group_by_sums_deterministically() {
        let batch = run("SELECT k, sum(v) AS total FROM t GROUP BY k ORDER BY k");
        assert_eq!(
            batch.rows,
            vec![
                vec![Value::Int(1), Value::Float(40.0)],
                vec![Value::Int(2), Value::Float(20.0)],
            ]
        );
    }

    #[test]
    fn count_star_and_avg() {
        let batch = run("SELECT count(*), avg(v) FROM t");
        assert_eq!(batch.rows, vec![vec![Value::Int(3), Value::Float(20.0)]]);
    }

    #[test]
    fn global_aggregate_on_empty_input_is_one_neutral_row() {
        let batch = run("SELECT count(*), sum(v) FROM t WHERE k = 99");
        assert_eq!(batch.rows, vec![vec![Value::Int(0), Value::Float(0.0)]]);
    }

    #[test]
    fn self_join_matches_keys() {
        let batch = run("SELECT a.k, b.v FROM t a JOIN t b ON a.k = b.k ORDER BY a.k, b.v");
        // k=1 has two rows on each side -> 4 matches; k=2 -> 1.
        assert_eq!(batch.rows.len(), 5);
    }

    #[test]
    fn sort_desc_uses_total_order() {
        let batch = run("SELECT k FROM t ORDER BY k DESC");
        assert_eq!(batch.rows[0], vec![Value::Int(2)]);
    }

    fn scan(columns: &[&str], projection: Option<Vec<usize>>) -> LogicalPlan {
        LogicalPlan::Scan {
            table: "t".to_string(),
            columns: columns.iter().map(|c| c.to_string()).collect(),
            projection,
        }
    }

    fn column(name: &str) -> Expr {
        Expr::Column(name.to_string())
    }

    fn exec_message(plan: &LogicalPlan, catalog: &Catalog) -> String {
        match execute(plan, catalog) {
            Err(QueryError::Exec { message }) => message,
            other => panic!("expected an execution error, got {other:?}"),
        }
    }

    #[test]
    fn a_projection_past_the_table_is_an_error_not_a_panic() {
        let plan = scan(&["t.k", "t.x"], Some(vec![0, 2]));
        let message = exec_message(&plan, &catalog());
        assert_eq!(message, "scan of 't' reads column 2, the table has 2");
    }

    #[test]
    fn a_scan_naming_other_than_the_columns_it_reads_is_an_error() {
        let catalog = catalog();
        // One name too many used to index past the row in `eval`.
        let wide = LogicalPlan::Filter {
            input: Box::new(scan(&["t.k", "t.v", "t.w"], None)),
            predicate: Expr::Binary {
                op: BinOp::Gt,
                lhs: Box::new(column("t.w")),
                rhs: Box::new(Expr::Int(0)),
            },
        };
        let message = exec_message(&wide, &catalog);
        assert_eq!(message, "scan of 't' names 3 columns and reads 2");
        let narrow = scan(&["t.k"], Some(vec![0, 1]));
        let message = exec_message(&narrow, &catalog);
        assert_eq!(message, "scan of 't' names 1 columns and reads 2");
    }

    #[test]
    fn a_scan_of_a_table_with_a_short_row_is_an_error() {
        let schema = Schema::new(vec![Field::new("k", DataType::Int)]);
        let mut table = Table::new(schema, vec![vec![Value::Int(1)]]).expect("table");
        table.rows[0].clear();
        let mut catalog = Catalog::new();
        catalog.register("t", table);
        let message = exec_message(&scan(&["t.k"], None), &catalog);
        assert_eq!(
            message,
            "table 't' row 0 has 0 values, schema has 1 columns"
        );
    }

    #[test]
    fn unbound_names_are_errors_before_any_row_is_touched() {
        // An empty table: nothing here can fail on a row.
        let mut catalog = Catalog::new();
        let schema = Schema::new(vec![Field::new("k", DataType::Int)]);
        catalog.register("t", Table::new(schema, Vec::new()).expect("table"));
        let t = || Box::new(scan(&["t.k"], None));
        let missing = || column("t.gone");
        let sum_of = |arg: Expr| Expr::Agg {
            func: AggFunc::Sum,
            arg: Some(Box::new(arg)),
        };
        let join = |left_key: &str, right_key: &str| LogicalPlan::Join {
            left: t(),
            right: t(),
            left_key: left_key.to_string(),
            right_key: right_key.to_string(),
        };
        let cases = [
            (
                join("t.gone", "t.k"),
                "join key 't.gone' missing on left side",
            ),
            (
                join("t.k", "t.gone"),
                "join key 't.gone' missing on right side",
            ),
            (
                LogicalPlan::Sort {
                    input: t(),
                    keys: vec![(missing(), false)],
                },
                "column 't.gone' missing at execution",
            ),
            (
                LogicalPlan::Aggregate {
                    input: t(),
                    group_by: vec![missing()],
                    aggs: vec![sum_of(column("t.k"))],
                },
                "column 't.gone' missing at execution",
            ),
            (
                LogicalPlan::Aggregate {
                    input: t(),
                    group_by: Vec::new(),
                    aggs: vec![sum_of(missing())],
                },
                "column 't.gone' missing at execution",
            ),
            (
                LogicalPlan::Filter {
                    input: t(),
                    predicate: missing(),
                },
                "column 't.gone' missing at execution",
            ),
            (
                LogicalPlan::Project {
                    input: t(),
                    exprs: vec![(missing(), "gone".to_string())],
                },
                "column 't.gone' missing at execution",
            ),
        ];
        for (plan, message) in cases {
            assert_eq!(exec_message(&plan, &catalog), message, "{}", plan.to_text());
        }
    }

    #[test]
    fn order_codes_order_rows_as_value_cmp_does() {
        let ints = vec![0, -1, i64::MAX, i64::MIN, 7, 7];
        let floats = vec![
            0.0,
            -0.0,
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            1.5,
            1.5,
            f64::MIN_POSITIVE,
        ];
        let bools = vec![true, false, true];
        let strs = vec!["b".to_string(), String::new(), "ab".to_string()];
        let mixed = vec![
            Value::Float(2.0),
            Value::Int(2),
            Value::Str("x".to_string()),
            Value::Bool(false),
            Value::Int(-3),
        ];
        let columns = [
            (ints.len(), Column::Int(ints)),
            (floats.len(), Column::Float(floats)),
            (bools.len(), Column::Bool(bools)),
            (strs.len(), Column::Str(strs)),
            (mixed.len(), Column::Mixed(mixed)),
        ];
        for (len, col) in columns {
            let vector = Vector::computed(col);
            let codes = order_codes(&[(&vector, len)]);
            for i in 0..len {
                for j in 0..len {
                    let want = vector.value(i).cmp(&vector.value(j));
                    assert_eq!(codes[i].cmp(&codes[j]), want, "{vector:?} rows {i}, {j}");
                }
            }
        }
    }

    #[test]
    fn min_and_max_keep_the_first_of_equal_values() {
        // An `Int` equal to a `Float` in one column: only a table altered
        // after `Table::new` has that, and only there does it show which
        // of two equal values an aggregate kept.
        let schema = Schema::new(vec![Field::new("v", DataType::Float)]);
        let rows = vec![vec![Value::Float(2.0)], vec![Value::Float(2.0)]];
        for int_first in [true, false] {
            let mut table = Table::new(schema.clone(), rows.clone()).expect("table");
            table.rows[usize::from(!int_first)][0] = Value::Int(2);
            let mut catalog = Catalog::new();
            catalog.register("t", table);
            let agg = |func| Expr::Agg {
                func,
                arg: Some(Box::new(column("t.v"))),
            };
            let plan = LogicalPlan::Aggregate {
                input: Box::new(scan(&["t.v"], None)),
                group_by: Vec::new(),
                aggs: vec![agg(AggFunc::Min), agg(AggFunc::Max)],
            };
            let batch = execute(&plan, &catalog).expect("executes");
            let kept = if int_first {
                DataType::Int
            } else {
                DataType::Float
            };
            assert_eq!(batch.rows[0][0].data_type(), kept);
            assert_eq!(batch.rows[0][1].data_type(), kept);
        }
    }
}
