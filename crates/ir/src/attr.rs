//! Attributes: compile-time constant metadata attached to operations.

use std::collections::BTreeMap;
use std::fmt;

use crate::types::Type;

/// A compile-time constant attached to an operation under a name.
///
/// Attributes carry everything that is known statically: constant values,
/// symbol names, index maps for Einstein-notation contractions, platform
/// parameters, and so on.
#[derive(Debug, Clone, PartialEq)]
pub enum Attribute {
    /// A 64-bit signed integer.
    Int(i64),
    /// A 64-bit float.
    Float(f64),
    /// A string.
    Str(String),
    /// A boolean.
    Bool(bool),
    /// A type attribute (e.g. the function type of a `func.func`).
    Ty(Type),
    /// A homogeneous or heterogeneous list.
    Array(Vec<Attribute>),
    /// A nested dictionary.
    Dict(BTreeMap<String, Attribute>),
    /// A reference to a symbol defined elsewhere (`@name`).
    SymbolRef(String),
    /// Dense floating-point data (constant tensors).
    DenseF64(Vec<f64>),
    /// Dense integer data (index tables, lookup tables).
    DenseI64(Vec<i64>),
}

impl Attribute {
    /// Returns the integer payload, if this is an [`Attribute::Int`].
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Attribute::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// Returns the float payload, accepting both `Float` and `Int`.
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Attribute::Float(v) => Some(*v),
            Attribute::Int(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// Returns the string payload, if this is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Attribute::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Returns the boolean payload, if this is a `Bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Attribute::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Returns the type payload, if this is a `Ty`.
    pub fn as_type(&self) -> Option<&Type> {
        match self {
            Attribute::Ty(t) => Some(t),
            _ => None,
        }
    }

    /// Returns the array payload, if this is an `Array`.
    pub fn as_array(&self) -> Option<&[Attribute]> {
        match self {
            Attribute::Array(a) => Some(a),
            _ => None,
        }
    }

    /// Returns the symbol name, if this is a `SymbolRef`.
    pub fn as_symbol(&self) -> Option<&str> {
        match self {
            Attribute::SymbolRef(s) => Some(s),
            _ => None,
        }
    }

    /// Returns dense f64 data, if this is a `DenseF64`.
    pub fn as_dense_f64(&self) -> Option<&[f64]> {
        match self {
            Attribute::DenseF64(d) => Some(d),
            _ => None,
        }
    }

    /// Returns dense i64 data, if this is a `DenseI64`.
    pub fn as_dense_i64(&self) -> Option<&[i64]> {
        match self {
            Attribute::DenseI64(d) => Some(d),
            _ => None,
        }
    }

    /// Builds an array attribute of integers.
    pub fn int_array<I: IntoIterator<Item = i64>>(values: I) -> Attribute {
        Attribute::Array(values.into_iter().map(Attribute::Int).collect())
    }

    /// Builds an array attribute of strings.
    pub fn str_array<I, S>(values: I) -> Attribute
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        Attribute::Array(
            values
                .into_iter()
                .map(|s| Attribute::Str(s.into()))
                .collect(),
        )
    }

    /// Converts this attribute into its hashable structural mirror,
    /// suitable for use in map keys (e.g. CSE equivalence classes).
    pub fn structural_key(&self) -> AttrKey {
        match self {
            Attribute::Int(v) => AttrKey::Int(*v),
            Attribute::Float(v) => AttrKey::Float(v.to_bits()),
            Attribute::Str(s) => AttrKey::Str(s.clone()),
            Attribute::Bool(b) => AttrKey::Bool(*b),
            Attribute::Ty(t) => AttrKey::Ty(t.clone()),
            Attribute::Array(items) => {
                AttrKey::Array(items.iter().map(Attribute::structural_key).collect())
            }
            Attribute::Dict(entries) => AttrKey::Dict(
                entries
                    .iter()
                    .map(|(k, v)| (k.clone(), v.structural_key()))
                    .collect(),
            ),
            Attribute::SymbolRef(s) => AttrKey::SymbolRef(s.clone()),
            Attribute::DenseF64(data) => {
                AttrKey::DenseF64(data.iter().map(|v| v.to_bits()).collect())
            }
            Attribute::DenseI64(data) => AttrKey::DenseI64(data.clone()),
        }
    }
}

/// A hashable structural mirror of [`Attribute`].
///
/// `Attribute` itself cannot implement `Eq`/`Hash` because it carries
/// `f64` payloads; the mirror keys floats by their bit pattern, which
/// distinguishes every attribute that prints differently (unlike
/// string-rendering, which conflates e.g. `Int(1)` with `Float(1.0)`
/// or `Str("1")`).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AttrKey {
    /// Mirror of [`Attribute::Int`].
    Int(i64),
    /// Mirror of [`Attribute::Float`], keyed by bit pattern.
    Float(u64),
    /// Mirror of [`Attribute::Str`].
    Str(String),
    /// Mirror of [`Attribute::Bool`].
    Bool(bool),
    /// Mirror of [`Attribute::Ty`].
    Ty(Type),
    /// Mirror of [`Attribute::Array`].
    Array(Vec<AttrKey>),
    /// Mirror of [`Attribute::Dict`] (sorted by key, as `BTreeMap` iterates).
    Dict(Vec<(String, AttrKey)>),
    /// Mirror of [`Attribute::SymbolRef`].
    SymbolRef(String),
    /// Mirror of [`Attribute::DenseF64`], keyed by bit patterns.
    DenseF64(Vec<u64>),
    /// Mirror of [`Attribute::DenseI64`].
    DenseI64(Vec<i64>),
}

impl From<i64> for Attribute {
    fn from(v: i64) -> Self {
        Attribute::Int(v)
    }
}

impl From<f64> for Attribute {
    fn from(v: f64) -> Self {
        Attribute::Float(v)
    }
}

impl From<bool> for Attribute {
    fn from(v: bool) -> Self {
        Attribute::Bool(v)
    }
}

impl From<&str> for Attribute {
    fn from(v: &str) -> Self {
        Attribute::Str(v.to_string())
    }
}

impl From<String> for Attribute {
    fn from(v: String) -> Self {
        Attribute::Str(v)
    }
}

impl From<Type> for Attribute {
    fn from(v: Type) -> Self {
        Attribute::Ty(v)
    }
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

impl fmt::Display for Attribute {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Attribute::Int(v) => write!(f, "{v}"),
            Attribute::Float(v) => {
                // Every spelling keeps a '.' or an 'e', which is how the
                // parser tells a float from an integer.
                if v.fract() != 0.0 || !v.is_finite() {
                    write!(f, "{v}")
                } else if v.abs() < 1e15 {
                    write!(f, "{v:.1}")
                } else {
                    write!(f, "{v:e}")
                }
            }
            Attribute::Str(s) => write!(f, "\"{}\"", escape(s)),
            Attribute::Bool(b) => write!(f, "{b}"),
            Attribute::Ty(t) => write!(f, "{t}"),
            Attribute::Array(items) => {
                write!(f, "[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{item}")?;
                }
                write!(f, "]")
            }
            Attribute::Dict(map) => {
                write!(f, "{{")?;
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{k} = {v}")?;
                }
                write!(f, "}}")
            }
            Attribute::SymbolRef(s) => write!(f, "@{s}"),
            Attribute::DenseF64(d) => {
                write!(f, "dense_f64<")?;
                for (i, v) in d.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, ">")
            }
            Attribute::DenseI64(d) => {
                write!(f, "dense_i64<")?;
                for (i, v) in d.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, ">")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors_return_expected_payloads() {
        assert_eq!(Attribute::Int(3).as_int(), Some(3));
        assert_eq!(Attribute::Int(3).as_float(), Some(3.0));
        assert_eq!(Attribute::Float(2.5).as_float(), Some(2.5));
        assert_eq!(Attribute::from("hi").as_str(), Some("hi"));
        assert_eq!(Attribute::Bool(true).as_bool(), Some(true));
        assert_eq!(Attribute::SymbolRef("k".into()).as_symbol(), Some("k"));
        assert_eq!(Attribute::Float(2.5).as_int(), None);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Attribute::Int(-4).to_string(), "-4");
        assert_eq!(Attribute::Float(1.0).to_string(), "1.0");
        assert_eq!(Attribute::Float(0.25).to_string(), "0.25");
        assert_eq!(Attribute::from("a\"b").to_string(), "\"a\\\"b\"");
        assert_eq!(Attribute::int_array([1, 2]).to_string(), "[1, 2]");
        assert_eq!(Attribute::SymbolRef("main".into()).to_string(), "@main");
        assert_eq!(
            Attribute::DenseI64(vec![1, 2, 3]).to_string(),
            "dense_i64<1, 2, 3>"
        );
    }

    #[test]
    fn dict_display_is_sorted() {
        let mut map = BTreeMap::new();
        map.insert("b".to_string(), Attribute::Int(2));
        map.insert("a".to_string(), Attribute::Int(1));
        assert_eq!(Attribute::Dict(map).to_string(), "{a = 1, b = 2}");
    }

    #[test]
    fn str_array_builder() {
        let attr = Attribute::str_array(["x", "y"]);
        assert_eq!(attr.to_string(), "[\"x\", \"y\"]");
    }

    #[test]
    fn dense_accessors() {
        let d = Attribute::DenseF64(vec![1.0, 2.0]);
        assert_eq!(d.as_dense_f64(), Some(&[1.0, 2.0][..]));
        assert_eq!(d.as_dense_i64(), None);
    }
}
