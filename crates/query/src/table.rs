//! In-memory tables, typed values, and the catalog.
//!
//! Tables are row-major and immutable once registered; the catalog is
//! a `BTreeMap` so iteration order (and therefore every derived
//! artifact — plan text, EXPLAIN JSON, execution output) is
//! deterministic. Beside each registered table the catalog keeps its
//! *column image* — one typed vector per field — which is
//! what the executor reads; `Table.rows` stays the stored input.

use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use crate::error::{QueryError, QueryResult};

/// Column types supported by the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataType {
    /// 64-bit signed integer.
    Int,
    /// 64-bit float.
    Float,
    /// UTF-8 string.
    Str,
    /// Boolean (produced by predicates; not a storage type in the
    /// seeded datasets, but first-class in expressions).
    Bool,
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataType::Int => write!(f, "int"),
            DataType::Float => write!(f, "float"),
            DataType::Str => write!(f, "str"),
            DataType::Bool => write!(f, "bool"),
        }
    }
}

/// A runtime value.
#[derive(Debug, Clone)]
pub enum Value {
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// UTF-8 string.
    Str(String),
    /// Boolean.
    Bool(bool),
}

impl Value {
    /// The value's type.
    pub fn data_type(&self) -> DataType {
        match self {
            Value::Int(_) => DataType::Int,
            Value::Float(_) => DataType::Float,
            Value::Str(_) => DataType::Str,
            Value::Bool(_) => DataType::Bool,
        }
    }

    /// Numeric view (ints widen to float); `None` for strings/bools.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(v) => Some(*v as f64),
            Value::Float(v) => Some(*v),
            Value::Str(_) | Value::Bool(_) => None,
        }
    }

    fn rank(&self) -> u8 {
        match self {
            Value::Bool(_) => 0,
            Value::Int(_) | Value::Float(_) => 1,
            Value::Str(_) => 2,
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Value) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Value) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    /// Total order: bools < numerics < strings; numerics compare via
    /// `f64::total_cmp` after widening, except int-int which compares
    /// exactly. Deterministic for any pair, NaN included.
    fn cmp(&self, other: &Value) -> Ordering {
        match (self, other) {
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            (Value::Int(a), Value::Float(b)) => (*a as f64).total_cmp(b),
            (Value::Float(a), Value::Int(b)) => a.total_cmp(&(*b as f64)),
            (Value::Float(a), Value::Float(b)) => a.total_cmp(b),
            _ => self.rank().cmp(&other.rank()),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v) => {
                if v.fract() == 0.0 && v.is_finite() && v.abs() < 1.0e15 {
                    write!(f, "{v:.1}")
                } else {
                    write!(f, "{v}")
                }
            }
            Value::Str(v) => write!(f, "'{v}'"),
            Value::Bool(v) => write!(f, "{v}"),
        }
    }
}

/// A named, typed column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Field {
    /// Column name (bare; qualification happens at plan time).
    pub name: String,
    /// Column type.
    pub ty: DataType,
}

impl Field {
    /// Creates a field.
    pub fn new(name: &str, ty: DataType) -> Field {
        Field {
            name: name.to_string(),
            ty,
        }
    }
}

/// An ordered list of fields.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Schema {
    /// The fields, in column order.
    pub fields: Vec<Field>,
}

impl Schema {
    /// Creates a schema from fields.
    pub fn new(fields: Vec<Field>) -> Schema {
        Schema { fields }
    }

    /// Index of a field by exact name.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.fields.iter().position(|f| f.name == name)
    }
}

/// An immutable in-memory table.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    /// Column layout.
    pub schema: Schema,
    /// Row-major data; every row has `schema.fields.len()` values.
    pub rows: Vec<Vec<Value>>,
}

impl Table {
    /// Creates a table, checking every row's arity and every value's
    /// type against the schema.
    pub fn new(schema: Schema, rows: Vec<Vec<Value>>) -> QueryResult<Table> {
        let arity = schema.fields.len();
        for (i, row) in rows.iter().enumerate() {
            if row.len() != arity {
                return Err(QueryError::Plan {
                    message: format!(
                        "row {i} has {} values, schema has {arity} columns",
                        row.len()
                    ),
                });
            }
            for (field, value) in schema.fields.iter().zip(row) {
                if value.data_type() != field.ty {
                    return Err(QueryError::Plan {
                        message: format!(
                            "row {i} column '{}' is declared {}, found {}",
                            field.name,
                            field.ty,
                            value.data_type()
                        ),
                    });
                }
            }
        }
        Ok(Table { schema, rows })
    }
}

/// One column of values: a table field's slice of the column image, or
/// what an operator computed for its selected rows.
///
/// A column whose values are all of one type is a plain typed vector.
/// [`Table::new`] guarantees that for every field, so `Mixed` holds only
/// columns of tables altered through their public fields afterwards
/// (and what is computed from them); it carries the same operators, one
/// [`Value`] at a time.
#[derive(Debug, Clone)]
pub(crate) enum Column {
    /// All [`Value::Int`].
    Int(Vec<i64>),
    /// All [`Value::Float`].
    Float(Vec<f64>),
    /// All [`Value::Str`].
    Str(Vec<String>),
    /// All [`Value::Bool`].
    Bool(Vec<bool>),
    /// Anything else.
    Mixed(Vec<Value>),
}

/// Collects `values` into the typed column `variant` when each of them
/// is a `Value::variant`.
macro_rules! typed {
    ($values:expr, $variant:ident, $get:expr) => {
        $values
            .clone()
            .map(|v| match v {
                Value::$variant(x) => Some($get(x)),
                _ => None,
            })
            .collect::<Option<Vec<_>>>()
            .map(Column::$variant)
    };
}

impl Column {
    /// The column of `values`: typed `ty` when they all are, `Mixed`
    /// otherwise.
    fn of<'v>(ty: DataType, values: impl Iterator<Item = &'v Value> + Clone) -> Column {
        match ty {
            DataType::Int => typed!(values, Int, |x: &i64| *x),
            DataType::Float => typed!(values, Float, |x: &f64| *x),
            DataType::Str => typed!(values, Str, String::clone),
            DataType::Bool => typed!(values, Bool, |x: &bool| *x),
        }
        .unwrap_or_else(|| Column::Mixed(values.cloned().collect()))
    }

    /// The value at position `at`.
    pub(crate) fn value(&self, at: usize) -> Value {
        match self {
            Column::Int(v) => Value::Int(v[at]),
            Column::Float(v) => Value::Float(v[at]),
            Column::Str(v) => Value::Str(v[at].clone()),
            Column::Bool(v) => Value::Bool(v[at]),
            Column::Mixed(v) => v[at].clone(),
        }
    }

    /// The values at `positions`, in that order, as a column of the
    /// same kind.
    pub(crate) fn gather(&self, positions: impl Iterator<Item = usize>) -> Column {
        match self {
            Column::Int(v) => Column::Int(positions.map(|p| v[p]).collect()),
            Column::Float(v) => Column::Float(positions.map(|p| v[p]).collect()),
            Column::Str(v) => Column::Str(positions.map(|p| v[p].clone()).collect()),
            Column::Bool(v) => Column::Bool(positions.map(|p| v[p]).collect()),
            Column::Mixed(v) => Column::Mixed(positions.map(|p| v[p].clone()).collect()),
        }
    }
}

/// A registered table's column image, or why it has none.
pub(crate) type ColumnImage = QueryResult<Vec<Arc<Column>>>;

/// Builds the column image of `table`. Only a table altered after
/// [`Table::new`] can have a row of the wrong arity; `register` cannot
/// refuse it, so executing a scan of it does.
fn column_image(name: &str, table: &Table) -> ColumnImage {
    let arity = table.schema.fields.len();
    if let Some(i) = table.rows.iter().position(|row| row.len() != arity) {
        return Err(QueryError::Exec {
            message: format!(
                "table '{name}' row {i} has {} values, schema has {arity} columns",
                table.rows[i].len()
            ),
        });
    }
    Ok(table
        .schema
        .fields
        .iter()
        .enumerate()
        .map(|(j, field)| Arc::new(Column::of(field.ty, table.rows.iter().map(|row| &row[j]))))
        .collect())
}

/// The table registry queries resolve against.
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    tables: BTreeMap<String, (Table, ColumnImage)>,
    /// Rows per table, kept beside the tables so an optimizer shares it.
    stats: Arc<BTreeMap<String, usize>>,
}

impl Catalog {
    /// Creates an empty catalog.
    pub fn new() -> Catalog {
        Catalog::default()
    }

    /// Registers (or replaces) a table under a name, building its
    /// column image.
    pub fn register(&mut self, name: &str, table: Table) {
        let image = column_image(name, &table);
        Arc::make_mut(&mut self.stats).insert(name.to_string(), table.rows.len());
        self.tables.insert(name.to_string(), (table, image));
    }

    /// Looks a table up by name.
    pub fn get(&self, name: &str) -> Option<&Table> {
        self.tables.get(name).map(|(table, _)| table)
    }

    /// A table and its column image, by name.
    pub(crate) fn columns(&self, name: &str) -> Option<(&Table, &ColumnImage)> {
        self.tables.get(name).map(|(table, image)| (table, image))
    }

    /// Registered table names, sorted.
    pub fn table_names(&self) -> Vec<String> {
        self.tables.keys().cloned().collect()
    }

    /// Row-count statistics per table — the cardinality estimates the
    /// optimizer's join-reorder rule consumes.
    pub fn stats(&self) -> BTreeMap<String, usize> {
        BTreeMap::clone(&self.stats)
    }

    /// [`stats`](Self::stats), shared rather than copied.
    pub(crate) fn shared_stats(&self) -> Arc<BTreeMap<String, usize>> {
        Arc::clone(&self.stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_order_is_total_and_deterministic() {
        let mut vals = [
            Value::Str("b".to_string()),
            Value::Float(f64::NAN),
            Value::Int(3),
            Value::Float(1.5),
            Value::Bool(true),
        ];
        vals.sort();
        assert_eq!(vals[0], Value::Bool(true));
        assert_eq!(vals[1], Value::Float(1.5));
        assert_eq!(vals[2], Value::Int(3));
        assert_eq!(vals[4], Value::Str("b".to_string()));
    }

    #[test]
    fn int_float_compare_numerically() {
        assert_eq!(Value::Int(2), Value::Float(2.0));
        assert!(Value::Int(2) < Value::Float(2.5));
    }

    #[test]
    fn table_checks_row_arity() {
        let schema = Schema::new(vec![Field::new("a", DataType::Int)]);
        let err = Table::new(schema, vec![vec![Value::Int(1), Value::Int(2)]]);
        assert!(err.is_err());
    }

    #[test]
    fn table_checks_every_value_against_its_field() {
        let schema = Schema::new(vec![
            Field::new("a", DataType::Int),
            Field::new("b", DataType::Float),
        ]);
        let rows = vec![
            vec![Value::Int(1), Value::Float(1.0)],
            vec![Value::Int(2), Value::Int(2)],
        ];
        let err = Table::new(schema, rows).expect_err("an int in a float column");
        let message = "row 1 column 'b' is declared float, found int".to_string();
        assert_eq!(err, QueryError::Plan { message });
    }

    #[test]
    fn only_a_table_altered_after_construction_has_an_untyped_column() {
        let schema = Schema::new(vec![
            Field::new("a", DataType::Int),
            Field::new("b", DataType::Str),
        ]);
        let rows = vec![
            vec![Value::Int(1), Value::Str("x".to_string())],
            vec![Value::Int(2), Value::Str("y".to_string())],
        ];
        let mut table = Table::new(schema, rows).expect("table");
        let mut catalog = Catalog::new();
        catalog.register("typed", table.clone());
        table.rows[1][0] = Value::Float(2.5);
        catalog.register("altered", table.clone());
        table.rows[0].pop();
        catalog.register("ragged", table);

        let image = |name: &str| catalog.columns(name).expect("registered").1.clone();
        let typed = image("typed").expect("image");
        assert!(matches!(&*typed[0], Column::Int(v) if v == &[1, 2]));
        assert!(matches!(&*typed[1], Column::Str(v) if v == &["x", "y"]));
        let altered = image("altered").expect("image");
        assert!(matches!(&*altered[0], Column::Mixed(v) if v[1].data_type() == DataType::Float));
        assert!(matches!(&*altered[1], Column::Str(_)));
        // `register` cannot refuse a row of the wrong arity; a scan does.
        let message = "table 'ragged' row 0 has 1 values, schema has 2 columns".to_string();
        assert_eq!(image("ragged").err(), Some(QueryError::Exec { message }));
    }
}
