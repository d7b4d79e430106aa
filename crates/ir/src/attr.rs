//! Attributes: compile-time constant metadata attached to operations.

use std::collections::BTreeMap;
use std::fmt;
use std::hash::{Hash, Hasher};

use crate::intern::Symbol;
use crate::types::{write_i64, write_list, Type};

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
    /// A type attribute (e.g. the function type of a `func.func`),
    /// boxed so that the largest payload is a `String` or a `Vec`.
    Ty(Box<Type>),
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

    /// Returns dense f64 data, if this is a `DenseF64`.
    pub(crate) fn as_dense_f64(&self) -> Option<&[f64]> {
        match self {
            Attribute::DenseF64(d) => Some(d),
            _ => None,
        }
    }

    /// Returns dense i64 data, if this is a `DenseI64`.
    pub(crate) fn as_dense_i64(&self) -> Option<&[i64]> {
        match self {
            Attribute::DenseI64(d) => Some(d),
            _ => None,
        }
    }

    /// Structural equality: the relation [`AttrKey`] has, decided in
    /// place. Floats compare by bit pattern — `0.0` and `-0.0` differ, a
    /// NaN equals the same NaN — and variants never mix (`Int(1)`,
    /// `Float(1.0)`, `Str("1")` and `Bool(true)` are four attributes),
    /// so two attributes are equal exactly when they print the same.
    /// This is what CSE merges on; `==` is IEEE on floats and is not.
    pub(crate) fn structural_eq(&self, other: &Attribute) -> bool {
        use Attribute::*;
        let bits_eq = |a: &[f64], b: &[f64]| {
            a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
        };
        match (self, other) {
            (Int(a), Int(b)) => a == b,
            (Float(a), Float(b)) => a.to_bits() == b.to_bits(),
            (Str(a), Str(b)) | (SymbolRef(a), SymbolRef(b)) => a == b,
            (Bool(a), Bool(b)) => a == b,
            (Ty(a), Ty(b)) => a == b,
            (Array(a), Array(b)) => {
                a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.structural_eq(y))
            }
            (Dict(a), Dict(b)) => {
                a.len() == b.len()
                    && a.iter()
                        .zip(b)
                        .all(|((ka, va), (kb, vb))| ka == kb && va.structural_eq(vb))
            }
            (DenseF64(a), DenseF64(b)) => bits_eq(a, b),
            (DenseI64(a), DenseI64(b)) => a == b,
            _ => false,
        }
    }

    /// Feeds `state` what [`Attribute::structural_eq`] compares: the
    /// variant, then the payload with floats as bit patterns. Equal
    /// attributes hash equally; nothing is cloned.
    pub(crate) fn structural_hash<H: Hasher>(&self, state: &mut H) {
        std::mem::discriminant(self).hash(state);
        match self {
            Attribute::Int(v) => v.hash(state),
            Attribute::Float(v) => v.to_bits().hash(state),
            Attribute::Str(s) | Attribute::SymbolRef(s) => s.hash(state),
            Attribute::Bool(b) => b.hash(state),
            Attribute::Ty(t) => t.hash(state),
            Attribute::Array(items) => {
                items.len().hash(state);
                items.iter().for_each(|item| item.structural_hash(state));
            }
            Attribute::Dict(entries) => {
                entries.len().hash(state);
                for (k, v) in entries {
                    k.hash(state);
                    v.structural_hash(state);
                }
            }
            Attribute::DenseF64(data) => {
                data.len().hash(state);
                data.iter().for_each(|v| v.to_bits().hash(state));
            }
            Attribute::DenseI64(data) => data.hash(state),
        }
    }

    /// Converts this attribute into its hashable structural mirror: an
    /// owned copy whose derived `Eq` / `Hash` are the relation
    /// `Attribute::structural_eq` / `Attribute::structural_hash`
    /// decide in place. Tests hold the two to each other.
    pub fn structural_key(&self) -> AttrKey {
        match self {
            Attribute::Int(v) => AttrKey::Int(*v),
            Attribute::Float(v) => AttrKey::Float(v.to_bits()),
            Attribute::Str(s) => AttrKey::Str(s.clone()),
            Attribute::Bool(b) => AttrKey::Bool(*b),
            Attribute::Ty(t) => AttrKey::Ty(Type::clone(t)),
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

/// The named attributes of one operation, kept sorted by the name's
/// *text*, so iteration — and with it the printed IR — is in the
/// byte-wise order a `BTreeMap<String, _>` gives.
///
/// Most ops carry zero or one attribute (every `arith.constant` its
/// `value`). The map holds one entry in place, with no heap block, and
/// spills to a vector of 40-byte entries from the second on; an empty
/// map owns no heap memory either. A `BTreeMap<String, Attribute>` was
/// a ~1 KB leaf plus one `String` per key. Names are interned
/// [`Symbol`]s: cloning a map copies no text and comparing two names
/// is a pointer compare. They join the process-wide interner, which is
/// never freed — attribute names are a closed vocabulary in every
/// producer in this repository, but
/// [`parse_module`](crate::parse::parse_module) interns whatever names
/// its input spells (bounded by the input's size).
///
/// # Examples
///
/// ```
/// use everest_ir::attr::{AttrMap, Attribute};
///
/// let mut attrs = AttrMap::new();
/// attrs.insert("value", Attribute::Int(1));
/// attrs.insert("sym_name", Attribute::from("k"));
/// assert_eq!(attrs.insert("value", Attribute::Int(2)), Some(Attribute::Int(1)));
/// assert_eq!(attrs.get("value"), Some(&Attribute::Int(2)));
/// let names: Vec<&str> = attrs.iter().map(|(name, _)| name).collect();
/// assert_eq!(names, ["sym_name", "value"]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct AttrMap {
    entries: Entries,
}

/// The storage of an [`AttrMap`]: one entry in place, or a sorted
/// vector (empty, and unallocated, for a map with no entries).
#[derive(Debug, Clone)]
enum Entries {
    One((Symbol, Attribute)),
    Many(Vec<(Symbol, Attribute)>),
}

impl AttrMap {
    /// An empty map; allocates nothing.
    pub fn new() -> Self {
        Self::default()
    }

    /// The entries in byte-wise order of their names, as a slice.
    fn entries(&self) -> &[(Symbol, Attribute)] {
        match &self.entries {
            Entries::One(entry) => std::slice::from_ref(entry),
            Entries::Many(entries) => entries,
        }
    }

    fn entries_mut(&mut self) -> &mut [(Symbol, Attribute)] {
        match &mut self.entries {
            Entries::One(entry) => std::slice::from_mut(entry),
            Entries::Many(entries) => entries,
        }
    }

    /// The attribute stored under `name`.
    pub fn get(&self, name: &str) -> Option<&Attribute> {
        self.entries()
            .iter()
            .find(|(key, _)| key.as_str() == name)
            .map(|(_, value)| value)
    }

    /// `true` when an attribute is stored under `name`.
    pub fn contains_key(&self, name: &str) -> bool {
        self.get(name).is_some()
    }

    /// Stores `value` under `name`, returning what it replaced.
    pub fn insert(&mut self, name: impl Into<Symbol>, value: Attribute) -> Option<Attribute> {
        let name = name.into();
        let found = self
            .entries()
            .binary_search_by(|(key, _)| key.as_str().cmp(name.as_str()));
        let at = match found {
            Ok(at) => return Some(std::mem::replace(&mut self.entries_mut()[at].1, value)),
            Err(at) => at,
        };
        self.entries = match std::mem::take(&mut self.entries) {
            Entries::Many(entries) if entries.capacity() == 0 => Entries::One((name, value)),
            Entries::One(first) => {
                let mut entries = Vec::with_capacity(2);
                entries.push(first);
                entries.insert(at, (name, value));
                Entries::Many(entries)
            }
            Entries::Many(mut entries) => {
                entries.insert(at, (name, value));
                Entries::Many(entries)
            }
        };
        None
    }

    /// The entries in byte-wise order of their names.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (&'static str, &Attribute)> {
        self.entries()
            .iter()
            .map(|(key, value)| (key.as_str(), value))
    }

    /// Removes every entry, keeping a spilled map's allocation.
    pub fn clear(&mut self) {
        match &mut self.entries {
            Entries::One(_) => self.entries = Entries::default(),
            Entries::Many(entries) => entries.clear(),
        }
    }

    /// `true` when the map has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries().is_empty()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries().len()
    }

    /// [`Attribute::structural_eq`] over whole maps: the same names
    /// carrying structurally equal values.
    pub(crate) fn structural_eq(&self, other: &AttrMap) -> bool {
        let (ours, theirs) = (self.entries(), other.entries());
        ours.len() == theirs.len()
            && ours
                .iter()
                .zip(theirs)
                .all(|((ka, va), (kb, vb))| ka == kb && va.structural_eq(vb))
    }

    /// Feeds `state` every name and value, as
    /// [`Attribute::structural_hash`] does one value.
    pub(crate) fn structural_hash<H: Hasher>(&self, state: &mut H) {
        for (key, value) in self.entries() {
            key.hash(state);
            value.structural_hash(state);
        }
    }
}

impl Default for Entries {
    fn default() -> Self {
        Entries::Many(Vec::new())
    }
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
        Attribute::Ty(Box::new(v))
    }
}

/// Writes `s` with a backslash before every backslash and `"`, copying
/// the runs between them: nothing is allocated.
fn write_escaped<W: fmt::Write>(out: &mut W, s: &str) -> fmt::Result {
    let mut run = 0;
    for (i, byte) in s.bytes().enumerate() {
        if byte == b'\\' || byte == b'"' {
            out.write_str(&s[run..i])?;
            out.write_char('\\')?;
            // The escaped byte starts the next run.
            run = i;
        }
    }
    out.write_str(&s[run..])
}

impl Attribute {
    /// Writes the attribute as printed IR spells it. This is the one
    /// spelling: `Display` calls it, and the module printer calls it
    /// straight into its output. Floats go through `core::fmt` (`{v}`,
    /// `{v:.1}` or `{v:e}`); everything else is written directly.
    pub(crate) fn write_to<W: fmt::Write>(&self, out: &mut W) -> fmt::Result {
        match self {
            Attribute::Int(v) => write_i64(out, *v),
            Attribute::Float(v) => {
                // Every spelling keeps a '.' or an 'e', which is how the
                // parser tells a float from an integer.
                if v.fract() != 0.0 || !v.is_finite() {
                    write!(out, "{v}")
                } else if v.abs() < 1e15 {
                    write!(out, "{v:.1}")
                } else {
                    write!(out, "{v:e}")
                }
            }
            Attribute::Str(s) => {
                out.write_char('"')?;
                write_escaped(out, s)?;
                out.write_char('"')
            }
            Attribute::Bool(b) => out.write_str(if *b { "true" } else { "false" }),
            Attribute::Ty(t) => t.write_to(out),
            Attribute::Array(items) => {
                out.write_char('[')?;
                write_list(out, items, |out, item| item.write_to(out))?;
                out.write_char(']')
            }
            Attribute::Dict(map) => {
                out.write_char('{')?;
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.write_str(", ")?;
                    }
                    out.write_str(k)?;
                    out.write_str(" = ")?;
                    v.write_to(out)?;
                }
                out.write_char('}')
            }
            Attribute::SymbolRef(s) => {
                out.write_char('@')?;
                out.write_str(s)
            }
            Attribute::DenseF64(d) => {
                out.write_str("dense_f64<")?;
                write_list(out, d, |out, v| write!(out, "{v}"))?;
                out.write_char('>')
            }
            Attribute::DenseI64(d) => {
                out.write_str("dense_i64<")?;
                write_list(out, d, |out, v| write_i64(out, *v))?;
                out.write_char('>')
            }
        }
    }
}

impl fmt::Display for Attribute {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write_to(f)
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
        assert_eq!(Attribute::Float(2.5).as_int(), None);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Attribute::Int(-4).to_string(), "-4");
        assert_eq!(Attribute::Float(1.0).to_string(), "1.0");
        assert_eq!(Attribute::Float(0.25).to_string(), "0.25");
        assert_eq!(Attribute::from("a\"b").to_string(), "\"a\\\"b\"");
        assert_eq!(
            Attribute::Array(vec![Attribute::Int(1), Attribute::Int(2)]).to_string(),
            "[1, 2]"
        );
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
    fn dense_accessors() {
        let d = Attribute::DenseF64(vec![1.0, 2.0]);
        assert_eq!(d.as_dense_f64(), Some(&[1.0, 2.0][..]));
        assert_eq!(d.as_dense_i64(), None);
    }

    /// Pairs a careless comparison conflates, nested ones included.
    fn colliding() -> Vec<Attribute> {
        let dict = |k: &str, v: Attribute| Attribute::Dict([(k.to_string(), v)].into());
        vec![
            Attribute::Float(0.0),
            Attribute::Float(-0.0),
            Attribute::Float(f64::NAN),
            Attribute::Float(f64::from_bits(f64::NAN.to_bits() ^ 1)),
            Attribute::Int(1),
            Attribute::Float(1.0),
            Attribute::Str("1".into()),
            Attribute::SymbolRef("1".into()),
            Attribute::Bool(true),
            Attribute::from(Type::F64),
            Attribute::from(Type::F32),
            Attribute::Array(vec![]),
            Attribute::Array(vec![Attribute::Int(1)]),
            Attribute::Array(vec![Attribute::Float(1.0)]),
            Attribute::Array(vec![Attribute::Int(1), Attribute::Int(1)]),
            Attribute::DenseF64(vec![]),
            Attribute::DenseF64(vec![0.0]),
            Attribute::DenseF64(vec![-0.0]),
            Attribute::DenseI64(vec![]),
            Attribute::DenseI64(vec![0]),
            dict("x", Attribute::Int(1)),
            dict("x", Attribute::Float(1.0)),
            dict("y", Attribute::Int(1)),
            Attribute::Dict(BTreeMap::new()),
        ]
    }

    #[test]
    fn structural_eq_and_hash_decide_the_attr_key_relation_in_place() {
        use std::collections::hash_map::DefaultHasher;
        let hash_of = |a: &Attribute| {
            let mut state = DefaultHasher::new();
            a.structural_hash(&mut state);
            state.finish()
        };
        let all = colliding();
        for a in &all {
            for b in &all {
                let same = a.structural_key() == b.structural_key();
                assert_eq!(a.structural_eq(b), same, "{a} vs {b}");
                assert_eq!(hash_of(a) == hash_of(b), same, "{a} vs {b}");
            }
            assert!(a.structural_eq(&a.clone()), "{a}");
        }
    }

    #[test]
    fn attr_map_iterates_in_byte_order_of_the_names() {
        let mut attrs = AttrMap::new();
        // Interned, and inserted, in an order that is not theirs.
        for name in ["value", "b", "a", "Z", "a_b", "a.b", "aa"] {
            assert_eq!(attrs.insert(name, Attribute::from(name)), None);
        }
        let names: Vec<&str> = attrs.iter().map(|(name, _)| name).collect();
        assert_eq!(names, ["Z", "a", "a.b", "a_b", "aa", "b", "value"]);
        assert_eq!(attrs.len(), 7);
        assert_eq!(attrs.get("a.b"), Some(&Attribute::from("a.b")));
        assert_eq!(attrs.get("missing"), None);
        assert!(attrs.contains_key("Z") && !attrs.contains_key("z"));
        attrs.clear();
        assert!(attrs.is_empty());
    }

    #[test]
    fn attr_map_equality_follows_names_and_structure() {
        let one = |name: &str, value: Attribute| {
            let mut attrs = AttrMap::new();
            attrs.insert(name, value);
            attrs
        };
        let base = one("value", Attribute::Float(0.0));
        assert!(base.structural_eq(&one("value", Attribute::Float(0.0))));
        assert!(!base.structural_eq(&one("value", Attribute::Float(-0.0))));
        assert!(!base.structural_eq(&one("tag", Attribute::Float(0.0))));
        assert!(!base.structural_eq(&AttrMap::new()));
        let nan = one("value", Attribute::Float(f64::NAN));
        assert!(nan.structural_eq(&nan.clone()));
    }

    /// The clone and drop savings rest on these: a later field or a
    /// fatter key would undo them silently.
    #[test]
    fn attr_map_is_one_40_byte_entry_in_place() {
        assert_eq!(std::mem::size_of::<AttrMap>(), 40);
        assert_eq!(std::mem::size_of::<(Symbol, Attribute)>(), 40);
        assert_eq!(std::mem::size_of::<Attribute>(), 32);
    }

    #[test]
    fn attr_map_holds_one_entry_in_place_and_spills_at_the_second() {
        let mut attrs = AttrMap::new();
        assert!(matches!(attrs.entries, Entries::Many(ref v) if v.capacity() == 0));
        attrs.insert("value", Attribute::Int(1));
        assert!(matches!(attrs.entries, Entries::One(_)));
        assert_eq!(
            attrs.insert("value", Attribute::Int(2)),
            Some(Attribute::Int(1))
        );
        assert!(matches!(attrs.entries, Entries::One(_)));
        for name in ["a", "z"] {
            attrs.insert(name, Attribute::from(name));
        }
        assert!(matches!(attrs.entries, Entries::Many(_)));
        let names: Vec<&str> = attrs.iter().map(|(name, _)| name).collect();
        assert_eq!(names, ["a", "value", "z"]);
        assert_eq!(attrs.get("value"), Some(&Attribute::Int(2)));
        attrs.clear();
        assert!(attrs.is_empty());
    }
}
