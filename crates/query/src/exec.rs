//! Deterministic in-memory executor, one column at a time.
//!
//! The executor is the semantic ground truth the optimizer is proven
//! against: for every rewrite rule, the property suite checks that
//! optimized and unoptimized plans produce identical row sets on
//! seeded tables. Determinism comes from ordering codes, stable sorts
//! and `f64::total_cmp` with every `NaN` one value: groups are numbered
//! in ascending key order and join matches kept in row order, and the
//! hash table that finds a key's group or matches is only ever looked
//! up, never iterated.
//!
//! Operators exchange a relation: columns shared with the catalog's
//! column image (or computed, one typed vector per expression) and a
//! selection naming the rows in play. A scan copies nothing, a filter
//! shrinks the selection, a sort permutes it, and [`Batch`] rows are
//! built once, at the root, from the rows that survive. Each operator
//! resolves the names it uses once, before it looks at a row, and picks
//! one typed loop for the kinds of its columns and the maps of its
//! selection — never one per row. The row-at-a-time interpreter this
//! replaced lives on in `tests/naive/` as the reference
//! `tests/query_props.rs` holds this one to: same columns, same rows in
//! the same order, bit for bit.
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
use std::sync::Arc;

use crate::error::{QueryError, QueryResult};
use crate::plan::{AggFunc, BinOp, Expr, LogicalPlan};
use crate::table::{cmp_f64, Catalog, Column, Value};

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

    /// The rows of `self` at the ascending indices `kept` (of `0..len`).
    fn pick(&self, mut kept: Vec<usize>) -> Sel {
        if let Sel::Rows(rows) = self {
            kept.iter_mut().for_each(|i| *i = rows[*i]);
        }
        Sel::Rows(kept)
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

/// A [`Map`] as a type: the loops below are compiled once for each kind
/// of map they read through, so no row asks which kind it is.
trait At: Copy {
    fn at(self, i: usize) -> usize;
}

/// [`Map::Broadcast`].
#[derive(Clone, Copy)]
struct Zero;

/// [`Map::Identity`].
#[derive(Clone, Copy)]
struct Same;

/// [`Map::Via`].
#[derive(Clone, Copy)]
struct Through<'a>(&'a [usize]);

impl At for Zero {
    #[inline(always)]
    fn at(self, _: usize) -> usize {
        0
    }
}

impl At for Same {
    #[inline(always)]
    fn at(self, i: usize) -> usize {
        i
    }
}

impl At for Through<'_> {
    #[inline(always)]
    fn at(self, i: usize) -> usize {
        self.0[i]
    }
}

/// Runs `$body` with `$at` bound to the [`At`] type of `$map`.
macro_rules! with_at {
    ($map:expr, $at:ident => $body:expr) => {
        match $map {
            Map::Broadcast => {
                let $at = Zero;
                $body
            }
            Map::Identity => {
                let $at = Same;
                $body
            }
            Map::Via(rows) => {
                let $at = Through(rows);
                $body
            }
        }
    };
}

/// A typed slice read through a map: one side of a loop.
type Side<'a, A> = (&'a [A], Map<'a>);

/// `f` of row `i` of `a`, for rows `0..n`, appended to `out`.
fn extend_rows<'a, A, T>(out: &mut Vec<T>, a: Side<'a, A>, n: usize, f: impl Fn(&'a A) -> T) {
    let col = a.0;
    with_at!(a.1, p => out.extend((0..n).map(|i| f(&col[p.at(i)]))));
}

/// `f` of row `i` of `a`, for rows `0..n`.
fn map_rows<A, T>(a: Side<A>, n: usize, f: impl Fn(&A) -> T) -> Vec<T> {
    let mut out = Vec::with_capacity(n);
    extend_rows(&mut out, a, n, f);
    out
}

/// `f` of row `i` of `a` and row `i` of `b`, for rows `0..n`.
fn zip_rows<A, B, T>(a: Side<A>, b: Side<B>, n: usize, f: impl Fn(&A, &B) -> T) -> Vec<T> {
    let (x, y) = (a.0, b.0);
    with_at!(a.1, p => with_at!(b.1, q => {
        (0..n).map(|i| f(&x[p.at(i)], &y[q.at(i)])).collect()
    }))
}

/// `f` folded over rows `0..n` of `a`, in row order, from `init`.
fn fold_rows<A, T>(a: Side<A>, n: usize, init: T, mut f: impl FnMut(T, usize, &A) -> T) -> T {
    let col = a.0;
    with_at!(a.1, p => (0..n).fold(init, |acc, i| f(acc, i, &col[p.at(i)])))
}

/// The rows `i` of `0..n` on which `keep` holds of row `i` of `a` and row
/// `i` of `b`, ascending. Every row is written and the count advanced
/// by the verdict, so no branch depends on the data.
fn rows_where<A, B>(a: Side<A>, b: Side<B>, n: usize, keep: impl Fn(&A, &B) -> bool) -> Vec<usize> {
    let (x, y) = (a.0, b.0);
    let mut rows = vec![0; n];
    let mut kept = 0;
    with_at!(a.1, p => with_at!(b.1, q => {
        for i in 0..n {
            rows[kept] = i;
            kept += usize::from(keep(&x[p.at(i)], &y[q.at(i)]));
        }
    }));
    rows.truncate(kept);
    rows
}

/// The other side of a one-sided [`rows_where`].
const NOTHING: Side<'static, ()> = (&[()], Map::Broadcast);

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
            (col, map) => with_at!(map, p => col.gather((0..n).map(|i| p.at(i)))),
        }
    }

    /// The value of row `i`.
    fn value(&self, i: usize) -> Value {
        self.col.value(self.map.at(i))
    }
}

/// Flips the sign bit: `i64` order as `u64` order.
const SIGN: u64 = 1 << 63;

/// The code of an `Int`: ordered as the ints are.
#[inline]
fn int_code(x: i64) -> u64 {
    x as u64 ^ SIGN
}

/// The code of a `Float`: ordered as [`cmp_f64`] orders the floats
/// (`f64::total_cmp`'s own key, compared as `u64`, of one `NaN`).
#[inline]
fn float_code(x: f64) -> u64 {
    let bits = if x.is_nan() { f64::NAN } else { x }.to_bits() as i64;
    (bits ^ (((bits >> 63) as u64) >> 1) as i64) as u64 ^ SIGN
}

/// One `u64` per row of each part — a vector and how many rows of it —
/// ordered as `Value::cmp` orders the rows' values, across the parts.
/// Sorting, grouping, joining and `min`/`max` work on these codes, not
/// on values: typed numbers and bools of one kind are encoded in a
/// pass, strings ranked as `&str`, anything else ranked as values.
fn order_codes(parts: &[(&Vector, usize)]) -> Vec<u64> {
    let kind = |part: &(&Vector, usize)| std::mem::discriminant(&*part.0.col);
    if !parts.windows(2).all(|w| kind(&w[0]) == kind(&w[1])) {
        return rank_codes(parts);
    }
    let mut codes = Vec::with_capacity(parts.iter().map(|(_, n)| n).sum());
    for (v, n) in parts {
        match &*v.col {
            Column::Int(a) => extend_rows(&mut codes, (a, v.map), *n, |&x| int_code(x)),
            Column::Float(a) => extend_rows(&mut codes, (a, v.map), *n, |&x| float_code(x)),
            Column::Bool(a) => extend_rows(&mut codes, (a, v.map), *n, |&x| u64::from(x)),
            Column::Str(_) => return str_codes(parts),
            Column::Mixed(_) => return rank_codes(parts),
        }
    }
    codes
}

/// [`order_codes`] for `Str` columns: the dense rank of each row's
/// string, compared in place.
fn str_codes(parts: &[(&Vector, usize)]) -> Vec<u64> {
    let mut strs: Vec<&str> = Vec::with_capacity(parts.iter().map(|(_, n)| n).sum());
    for (v, n) in parts {
        if let Column::Str(a) = &*v.col {
            extend_rows(&mut strs, (a, v.map), *n, String::as_str);
        }
    }
    dense_rank(strs.len(), |a, b| strs[a].cmp(strs[b]))
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

/// The fixed odd multiplier of [`CodeTable`]'s hash: 2^64 over the
/// golden ratio.
const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// Distinct codes, numbered as they first arrive: open addressing with
/// linear probing in a power-of-two table at most half full, each code
/// slotted by the top bits of its product with [`GOLDEN`]. The hash is
/// the same in every run and the table is only looked up, never
/// iterated, so nothing about a result depends on it.
struct CodeTable {
    /// One more than the number of the code in each slot; 0 when empty.
    slots: Vec<usize>,
    /// The codes, by number.
    codes: Vec<u64>,
    shift: u32,
}

impl CodeTable {
    /// A table for up to `n` distinct codes.
    fn with_room(n: usize) -> CodeTable {
        let slots = (2 * n).max(2).next_power_of_two();
        CodeTable {
            slots: vec![0; slots],
            codes: Vec::with_capacity(n),
            shift: u64::BITS - slots.trailing_zeros(),
        }
    }

    /// The number of `code`, or the empty slot where it would go.
    #[inline]
    fn find(&self, code: u64) -> Result<usize, usize> {
        let mask = self.slots.len() - 1;
        let mut slot = (code.wrapping_mul(GOLDEN) >> self.shift) as usize;
        loop {
            match self.slots[slot] {
                0 => return Err(slot),
                id if self.codes[id - 1] == code => return Ok(id - 1),
                _ => slot = (slot + 1) & mask,
            }
        }
    }

    /// The number of `code`, numbering it next when it is new.
    fn number(&mut self, code: u64) -> usize {
        self.find(code).unwrap_or_else(|slot| {
            self.codes.push(code);
            self.slots[slot] = self.codes.len();
            self.codes.len() - 1
        })
    }

    /// The number of `code`, if it has one.
    fn get(&self, code: u64) -> Option<usize> {
        self.find(code).ok()
    }
}

/// `l op r` on rows `0..n`, by the rules of [`arith`]: one loop per
/// operator, kinds and maps.
fn arith_columns(op: BinOp, l: &Vector, r: &Vector, n: usize) -> QueryResult<Column> {
    let (lm, rm) = (l.map, r.map);
    let floats = match (&*l.col, &*r.col) {
        (Column::Int(a), Column::Int(b)) => {
            let (a, b) = ((a.as_slice(), lm), (b.as_slice(), rm));
            match op {
                BinOp::Add => return Ok(Column::Int(zip_rows(a, b, n, |x, y| x.wrapping_add(*y)))),
                BinOp::Sub => return Ok(Column::Int(zip_rows(a, b, n, |x, y| x.wrapping_sub(*y)))),
                BinOp::Mul => return Ok(Column::Int(zip_rows(a, b, n, |x, y| x.wrapping_mul(*y)))),
                _ => float_rows(op, a, b, n),
            }
        }
        (Column::Int(a), Column::Float(b)) => float_rows(op, (a, lm), (b, rm), n),
        (Column::Float(a), Column::Int(b)) => float_rows(op, (a, lm), (b, rm), n),
        (Column::Float(a), Column::Float(b)) => float_rows(op, (a, lm), (b, rm), n),
        _ => None,
    };
    match floats {
        Some(floats) => Ok(Column::Float(floats)),
        None => value_arith(op, l, r, n),
    }
}

/// A number `/` and mixed arithmetic widen to `f64`.
trait Widen: Copy {
    fn widen(self) -> f64;
}

impl Widen for i64 {
    #[inline(always)]
    fn widen(self) -> f64 {
        self as f64
    }
}

impl Widen for f64 {
    #[inline(always)]
    fn widen(self) -> f64 {
        self
    }
}

/// `a op b` on rows `0..n`, widened to floats; `None` when `op` is not
/// arithmetic.
fn float_rows<A: Widen, B: Widen>(op: BinOp, a: Side<A>, b: Side<B>, n: usize) -> Option<Vec<f64>> {
    Some(match op {
        BinOp::Add => zip_rows(a, b, n, |x, y| x.widen() + y.widen()),
        BinOp::Sub => zip_rows(a, b, n, |x, y| x.widen() - y.widen()),
        BinOp::Mul => zip_rows(a, b, n, |x, y| x.widen() * y.widen()),
        BinOp::Div => zip_rows(a, b, n, |x, y| x.widen() / y.widen()),
        _ => return None,
    })
}

/// `l op r` on rows `0..n`, a value at a time.
fn value_arith(op: BinOp, l: &Vector, r: &Vector, n: usize) -> QueryResult<Column> {
    let values = (0..n).map(|i| arith(op, &l.value(i), &r.value(i)));
    values.collect::<QueryResult<_>>().map(Column::Mixed)
}

/// The rows `i` of `0..n` on which comparison `op` holds of row `i` of
/// `l` and of `r`, ascending: one branch-free loop per pair of kinds
/// and maps for typed columns, a value at a time for the rest.
fn compare(op: BinOp, l: &Vector, r: &Vector, n: usize) -> Vec<usize> {
    // The orderings `op` accepts, one bit each: less, equal, greater.
    let accepts: u8 = match op {
        BinOp::Lt => 0b001,
        BinOp::Le => 0b011,
        BinOp::Eq => 0b010,
        BinOp::Ge => 0b110,
        BinOp::Gt => 0b100,
        BinOp::Ne => 0b101,
        _ => 0,
    };
    let holds = move |ord: Ordering| (accepts >> (ord as i8 + 1)) & 1 == 1;
    let (lm, rm) = (l.map, r.map);
    match (&*l.col, &*r.col) {
        (Column::Int(a), Column::Int(b)) => rows_where((a, lm), (b, rm), n, |x, y| holds(x.cmp(y))),
        (Column::Float(a), Column::Float(b)) => {
            rows_where((a, lm), (b, rm), n, |x, y| holds(cmp_f64(*x, *y)))
        }
        (Column::Int(a), Column::Float(b)) => {
            rows_where((a, lm), (b, rm), n, |x, y| holds(cmp_f64(*x as f64, *y)))
        }
        (Column::Float(a), Column::Int(b)) => {
            rows_where((a, lm), (b, rm), n, |x, y| holds(cmp_f64(*x, *y as f64)))
        }
        (Column::Str(a), Column::Str(b)) => rows_where((a, lm), (b, rm), n, |x, y| holds(x.cmp(y))),
        (Column::Bool(a), Column::Bool(b)) => {
            rows_where((a, lm), (b, rm), n, |x, y| holds(x.cmp(y)))
        }
        _ => (0..n)
            .filter(|&i| holds(l.value(i).cmp(&r.value(i))))
            .collect(),
    }
}

/// `-v` on rows `0..n`.
fn negate(v: &Vector, n: usize) -> QueryResult<Column> {
    Ok(match &*v.col {
        Column::Int(a) => Column::Int(map_rows((a, v.map), n, |x| x.wrapping_neg())),
        Column::Float(a) => Column::Float(map_rows((a, v.map), n, |x| -x)),
        _ => Column::Mixed(
            (0..n)
                .map(|i| match v.value(i) {
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

/// Groups rows by their codes: each row's group, groups numbered in
/// ascending code order — the order they are emitted in — and each
/// group's first row.
fn group_rows(codes: &[u64]) -> (Vec<usize>, Vec<usize>) {
    // Number the groups as they first appear, then renumber them.
    let mut table = CodeTable::with_room(codes.len());
    let mut firsts = Vec::with_capacity(codes.len());
    let mut group_of = Vec::with_capacity(codes.len());
    for (row, &code) in codes.iter().enumerate() {
        let group = table.number(code);
        if group == firsts.len() {
            firsts.push(row);
        }
        group_of.push(group);
    }
    // The codes are distinct: sorting them alone orders the groups.
    let mut ascending = table.codes.clone();
    ascending.sort_unstable();
    let mut rank = vec![0; firsts.len()];
    let mut ordered = Vec::with_capacity(firsts.len());
    for (ordinal, &code) in ascending.iter().enumerate() {
        if let Some(group) = table.get(code) {
            rank[group] = ordinal;
            ordered.push(firsts[group]);
        }
    }
    group_of.iter_mut().for_each(|g| *g = rank[*g]);
    (group_of, ordered)
}

fn not_numeric() -> QueryError {
    exec_error("aggregate expects a numeric argument".to_string())
}

fn no_argument() -> QueryError {
    exec_error("aggregate expects an argument".to_string())
}

/// `min` or `max` of each group as the index of its first best row.
fn best_rows(
    func: AggFunc,
    codes: &[u64],
    group_of: &[usize],
    groups: usize,
) -> Vec<Option<usize>> {
    // `max` is the `min` of the complemented codes.
    let flip = if func == AggFunc::Min { 0 } else { u64::MAX };
    let mut best: Vec<Option<(u64, usize)>> = vec![None; groups];
    for (i, (&code, &g)) in codes.iter().zip(group_of).enumerate() {
        // Strictly better only: of equal values the first stays.
        if best[g].is_none_or(|(held, _)| code ^ flip < held) {
            best[g] = Some((code ^ flip, i));
        }
    }
    best.into_iter().map(|b| b.map(|(_, i)| i)).collect()
}

/// One aggregate of rows `0..n` of `arg`, all in one group: the global
/// aggregate, folded in row order with its accumulator in a local.
fn fold_all(func: AggFunc, arg: Option<&Vector>, n: usize) -> QueryResult<Column> {
    Ok(match func {
        AggFunc::Count => Column::Int(vec![n as i64]),
        AggFunc::Sum | AggFunc::Avg => {
            let sum = match arg.map(|v| (&*v.col, v)) {
                _ if n == 0 => 0.0,
                Some((Column::Int(a), v)) => fold_rows((a, v.map), n, 0.0, |s, _, &x| s + x as f64),
                Some((Column::Float(a), v)) => fold_rows((a, v.map), n, 0.0, |s, _, &x| s + x),
                Some((_, v)) => (0..n).try_fold(0.0, |s, i| {
                    Ok::<_, QueryError>(s + v.value(i).as_f64().ok_or_else(not_numeric)?)
                })?,
                None => return Err(not_numeric()),
            };
            let divide = func == AggFunc::Avg && n > 0;
            Column::Float(vec![if divide { sum / n as f64 } else { sum }])
        }
        AggFunc::Min | AggFunc::Max => {
            let Some(v) = arg.filter(|_| n > 0) else {
                // Only the neutral row of an empty input has no best.
                return if n == 0 {
                    Ok(Column::Float(vec![0.0]))
                } else {
                    Err(no_argument())
                };
            };
            // `max` is the `min` of the complemented codes, and of equal
            // values `min_by_key` keeps the first.
            let flip = if func == AggFunc::Min { 0 } else { u64::MAX };
            let codes = order_codes(&[(v, n)]);
            let codes = codes.iter().map(|code| code ^ flip).enumerate();
            let best = codes.min_by_key(|&(_, code)| code).map_or(0, |(i, _)| i);
            v.col.gather(std::iter::once(v.map.at(best)))
        }
    })
}

/// One aggregate over rows `0..group_of.len()` of `arg`, row `i`
/// folding into group `group_of[i]` — in row order, so a float sum is
/// accumulated exactly as a loop over the group's rows would.
fn fold_groups(
    func: AggFunc,
    arg: Option<&Vector>,
    group_of: &[usize],
    groups: usize,
) -> QueryResult<Column> {
    let n = group_of.len();
    let counts = || {
        let mut counts = vec![0i64; groups];
        group_of.iter().for_each(|&g| counts[g] += 1);
        counts
    };
    Ok(match func {
        AggFunc::Count => Column::Int(counts()),
        AggFunc::Sum | AggFunc::Avg => {
            let mut sums = vec![0.0f64; groups];
            match arg.map(|v| (&*v.col, v)) {
                _ if n == 0 => {}
                Some((Column::Int(a), v)) => {
                    fold_rows((a, v.map), n, (), |(), i, &x| sums[group_of[i]] += x as f64);
                }
                Some((Column::Float(a), v)) => {
                    fold_rows((a, v.map), n, (), |(), i, &x| sums[group_of[i]] += x);
                }
                Some((_, v)) => {
                    for (i, &g) in group_of.iter().enumerate() {
                        sums[g] += v.value(i).as_f64().ok_or_else(not_numeric)?;
                    }
                }
                None => return Err(not_numeric()),
            }
            if func == AggFunc::Avg {
                for (sum, n) in sums.iter_mut().zip(counts()) {
                    *sum /= n as f64;
                }
            }
            Column::Float(sums)
        }
        AggFunc::Min | AggFunc::Max => {
            let v = match arg {
                Some(v) => v,
                None if n == 0 => return Ok(Column::Float(Vec::new())),
                None => return Err(no_argument()),
            };
            let codes = order_codes(&[(v, n)]);
            let best = best_rows(func, &codes, group_of, groups);
            // Every group holds a row, so every group has a best.
            v.col
                .gather(best.into_iter().flatten().map(|i| v.map.at(i)))
        }
    })
}

/// What operators exchange: named columns and the rows of them in play.
/// The names are the plan's own, copied once, into the [`Batch`].
struct Relation<'p> {
    names: Vec<Cow<'p, str>>,
    cols: Vec<Arc<Column>>,
    sel: Sel,
}

impl Relation<'_> {
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
                    let mut bools = vec![false; n];
                    compare(*op, &l, &r, n)
                        .into_iter()
                        .for_each(|i| bools[i] = true);
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
                Ok(sel.pick(compare(*op, &l, &r, sel.len())))
            }
            _ => {
                let (v, n) = (self.eval(expr, sel)?, sel.len());
                let kept = match &*v.col {
                    Column::Bool(a) => rows_where((a, v.map), NOTHING, n, |&x, ()| x),
                    _ => {
                        let mut kept = Vec::with_capacity(n);
                        for i in 0..n {
                            match v.value(i) {
                                Value::Bool(true) => kept.push(i),
                                Value::Bool(false) => {}
                                other => {
                                    return Err(exec_error(format!(
                                        "{role}, got {}",
                                        other.data_type()
                                    )))
                                }
                            }
                        }
                        kept
                    }
                };
                Ok(sel.pick(kept))
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
            columns: self.names.into_iter().map(Cow::into_owned).collect(),
        }
    }
}

/// Executes a plan against a catalog.
pub fn execute(plan: &LogicalPlan, catalog: &Catalog) -> QueryResult<Batch> {
    execute_counted(plan, catalog).map(|(batch, _)| batch)
}

/// Executes a plan against a catalog; also returns the base-table rows
/// under every `Scan` of it, what enters the executor as `Batch::rows`
/// is what leaves it.
pub(crate) fn execute_counted(plan: &LogicalPlan, catalog: &Catalog) -> QueryResult<(Batch, u64)> {
    let mut scanned = 0;
    let rel = relation(plan, catalog, &mut scanned)?;
    Ok((rel.into_batch(), scanned))
}

/// The relation `plan` computes, adding the rows each scan reads to
/// `scanned`.
fn relation<'p>(
    plan: &'p LogicalPlan,
    catalog: &Catalog,
    scanned: &mut u64,
) -> QueryResult<Relation<'p>> {
    let mut child = |plan: &'p LogicalPlan| relation(plan, catalog, scanned);
    match plan {
        LogicalPlan::Scan {
            table,
            columns,
            projection,
        } => scan(catalog, table, columns, projection.as_deref(), scanned),
        LogicalPlan::Filter { input, predicate } => {
            let rel = child(input)?;
            let sel = rel.select(predicate, &rel.sel, "filter predicate must be boolean")?;
            Ok(Relation { sel, ..rel })
        }
        LogicalPlan::Project { input, exprs } => {
            let rel = child(input)?;
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
                names: exprs.iter().map(|(_, name)| Cow::from(name)).collect(),
                cols,
                sel: if plain { rel.sel } else { Sel::Prefix(n) },
            })
        }
        LogicalPlan::Aggregate {
            input,
            group_by,
            aggs,
        } => aggregate(child(input)?, group_by, aggs, plan.schema_names()),
        LogicalPlan::Join {
            left,
            right,
            left_key,
            right_key,
        } => {
            let l = child(left)?;
            let r = child(right)?;
            join(l, r, left_key, right_key)
        }
        LogicalPlan::Sort { input, keys } => sort(child(input)?, keys, None),
        LogicalPlan::Limit { input, n } => {
            // The first `n` rows of a sort are its top `n`: select them,
            // then sort only those.
            if let LogicalPlan::Sort { input, keys } = &**input {
                return sort(child(input)?, keys, Some(*n));
            }
            let mut rel = child(input)?;
            match &mut rel.sel {
                Sel::Prefix(len) => *len = (*len).min(*n),
                Sel::Rows(rows) => rows.truncate(*n),
            }
            Ok(rel)
        }
    }
}

/// The columns of `table` a scan reads, every row in play.
fn scan<'p>(
    catalog: &Catalog,
    table: &str,
    columns: &'p [String],
    projection: Option<&[usize]>,
    scanned: &mut u64,
) -> QueryResult<Relation<'p>> {
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
    *scanned += t.rows.len() as u64;
    Ok(Relation {
        names: columns.iter().map(Cow::from).collect(),
        cols,
        sel: Sel::Prefix(t.rows.len()),
    })
}

/// `aggs` of `rel`'s rows, grouped by `group_by`, as columns `names`.
fn aggregate<'p>(
    rel: Relation,
    group_by: &[Expr],
    aggs: &[Expr],
    names: Vec<Cow<'p, str>>,
) -> QueryResult<Relation<'p>> {
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
    let n = rel.sel.len();
    let keys: Vec<Vector> = group_by
        .iter()
        .map(|expr| rel.eval(expr, &rel.sel))
        .collect::<QueryResult<_>>()?;
    let mut cols: Vec<Arc<Column>> = Vec::with_capacity(keys.len() + funcs.len());
    // Without keys there is one group, even of no rows: a global
    // aggregate over empty input yields one row of neutral values.
    let grouped = (!keys.is_empty()).then(|| {
        let (group_of, firsts) = group_rows(&row_codes(&keys, |_| false, n));
        for key in &keys {
            cols.push(Arc::new(
                key.col.gather(firsts.iter().map(|&i| key.map.at(i))),
            ));
        }
        (group_of, firsts.len())
    });
    for (func, arg) in funcs {
        let arg = arg.map(|expr| rel.eval(expr, &rel.sel)).transpose()?;
        cols.push(Arc::new(match &grouped {
            Some((group_of, groups)) => fold_groups(func, arg.as_ref(), group_of, *groups)?,
            None => fold_all(func, arg.as_ref(), n)?,
        }));
    }
    let groups = grouped.map_or(1, |(_, groups)| groups);
    Ok(Relation {
        names,
        cols,
        sel: Sel::Prefix(groups),
    })
}

/// The rows of `l` and `r` whose keys are equal: for each left row in
/// order, its matching right rows in right-row order.
fn join<'p>(
    l: Relation<'p>,
    r: Relation<'p>,
    left_key: &str,
    right_key: &str,
) -> QueryResult<Relation<'p>> {
    let key_of = |rel: &Relation, key: &str, side: &str| {
        rel.index_of(key)
            .ok_or_else(|| exec_error(format!("join key '{key}' missing on {side} side")))
    };
    let (li, ri) = (
        key_of(&l, left_key, "left")?,
        key_of(&r, right_key, "right")?,
    );
    let (ln, rn) = (l.sel.len(), r.sel.len());
    let codes = order_codes(&[(&l.vector(li), ln), (&r.vector(ri), rn)]);
    let (lcodes, rcodes) = codes.split_at(ln);
    // Each right key's rows as a chain, `first[k]` then `next[row]`,
    // built back to front so the chain runs in row order.
    const END: usize = usize::MAX;
    let (mut keys, mut first, mut next) = (CodeTable::with_room(rn), Vec::new(), vec![END; rn]);
    for (i, &code) in rcodes.iter().enumerate().rev() {
        let k = keys.number(code);
        if k == first.len() {
            first.push(END);
        }
        next[i] = first[k];
        first[k] = i;
    }
    let (lmap, rmap) = (l.sel.map(), r.sel.map());
    let (mut lrows, mut rrows) = (Vec::with_capacity(ln), Vec::with_capacity(ln));
    for (i, &code) in lcodes.iter().enumerate() {
        let Some(k) = keys.get(code) else { continue };
        let mut j = first[k];
        while j != END {
            lrows.push(lmap.at(i));
            rrows.push(rmap.at(j));
            j = next[j];
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

/// `rel` ordered by `keys`, ties in input order; with a `limit`, only
/// its first `limit` rows. Every key is evaluated on every row first, so
/// a row the limit drops still raises its error.
fn sort<'p>(
    rel: Relation<'p>,
    keys: &[(Expr, bool)],
    limit: Option<usize>,
) -> QueryResult<Relation<'p>> {
    let vectors: Vec<Vector> = keys
        .iter()
        .map(|(expr, _)| rel.eval(expr, &rel.sel))
        .collect::<QueryResult<_>>()?;
    let codes = row_codes(&vectors, |k| keys[k].1, rel.sel.len());
    drop(vectors);
    // `(code, position)` pairs are distinct, so an unstable selection and
    // sort of them order ties as a stable sort would.
    let mut order: Vec<(u64, usize)> = codes.into_iter().zip(0..).collect();
    if let Some(k) = limit.filter(|&k| k < order.len()) {
        order.select_nth_unstable(k);
        order.truncate(k);
    }
    order.sort_unstable();
    let map = rel.sel.map();
    let sel = Sel::Rows(order.into_iter().map(|(_, i)| map.at(i)).collect());
    Ok(Relation { sel, ..rel })
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
