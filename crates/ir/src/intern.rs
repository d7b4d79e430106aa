//! Interned operation and attribute names.
//!
//! Op names are a tiny closed vocabulary (`"arith.addf"`, `"scf.for"`,
//! ...) and so are attribute names (`"value"`, `"sym_name"`, ...), yet
//! the pre-interning IR cloned them as `String`s on every op build, CSE
//! key, and pass dispatch — a heap allocation per touch on the hottest
//! compiler paths. A [`Symbol`] is a process-wide interned name: 24
//! bytes (a `u32` id, padding, and the `&'static str`), `Copy`,
//! equality and hashing on the dense id, with the backing text leaked
//! once per distinct name so [`Symbol::as_str`] is a free pointer read
//! (no lock, no lookup).
//!
//! Deliberate non-features:
//!
//! * **No `Ord`.** Symbol ids are assigned in first-intern order, which
//!   depends on execution order; sorting by id would be
//!   nondeterministic across runs. Anything needing a stable order
//!   (printing, error listings) must sort by [`Symbol::as_str`].
//! * **No eviction.** The vocabulary is bounded by the dialect
//!   registry; leaking it for the process lifetime is the point. The
//!   text parser interns every op and attribute name it reads, so on
//!   hostile text the table grows with the distinct names in the input
//!   (bounded by its size, never freed).
//!
//! # Examples
//!
//! ```
//! use everest_ir::intern::Symbol;
//!
//! let a = Symbol::new("arith.addf");
//! let b = Symbol::new("arith.addf");
//! assert_eq!(a, b); // same id: interning dedupes
//! assert_eq!(a, "arith.addf"); // compares against plain strings
//! assert_eq!(a.as_str(), "arith.addf");
//! assert_eq!(a.split('.').next(), Some("arith")); // derefs to `str`
//! ```

use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};

/// A process-wide interned string, used for operation and attribute
/// names.
///
/// Equality and hashing compare the `u32` id (two symbols are equal iff
/// their text is equal); `Deref<Target = str>` and [`Symbol::as_str`]
/// recover the text without touching the interner.
#[derive(Clone, Copy)]
pub struct Symbol {
    id: u32,
    text: &'static str,
}

struct Interner {
    map: HashMap<&'static str, Symbol>,
}

fn interner() -> &'static Mutex<Interner> {
    static INTERNER: OnceLock<Mutex<Interner>> = OnceLock::new();
    INTERNER.get_or_init(|| {
        Mutex::new(Interner {
            map: HashMap::new(),
        })
    })
}

impl Symbol {
    /// Interns `name`, returning the canonical symbol for it. The first
    /// intern of a distinct name leaks one copy of the text; every
    /// subsequent intern is a map hit.
    pub fn new(name: &str) -> Symbol {
        let mut interner = interner().lock().expect("symbol interner poisoned");
        if let Some(&sym) = interner.map.get(name) {
            return sym;
        }
        let text: &'static str = Box::leak(name.to_owned().into_boxed_str());
        let sym = Symbol {
            id: interner.map.len() as u32,
            text,
        };
        interner.map.insert(text, sym);
        sym
    }

    /// The interned text. `&'static` because interned names live for
    /// the process: callers can hold the `&str` without borrowing the
    /// symbol.
    pub fn as_str(&self) -> &'static str {
        self.text
    }

    /// The symbol's dense id: `0, 1, 2, ...` in first-intern order, so
    /// a table indexed by it (the registry's op specs) has a slot for
    /// every symbol interned before it was sized and none past its end
    /// for one interned later. Ids depend on execution order — which
    /// name the process happened to intern first — so they are an
    /// index, never an order: anything that must come out the same on
    /// every run sorts by [`Symbol::as_str`] (the type has no `Ord` for
    /// that reason).
    pub fn index(&self) -> usize {
        self.id as usize
    }
}

impl std::ops::Deref for Symbol {
    type Target = str;

    fn deref(&self) -> &str {
        self.text
    }
}

impl PartialEq for Symbol {
    fn eq(&self, other: &Symbol) -> bool {
        self.id == other.id
    }
}

impl Eq for Symbol {}

impl std::hash::Hash for Symbol {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.id.hash(state);
    }
}

impl PartialEq<str> for Symbol {
    fn eq(&self, other: &str) -> bool {
        self.text == other
    }
}

impl PartialEq<&str> for Symbol {
    fn eq(&self, other: &&str) -> bool {
        self.text == *other
    }
}

impl PartialEq<String> for Symbol {
    fn eq(&self, other: &String) -> bool {
        self.text == other.as_str()
    }
}

impl PartialEq<Symbol> for str {
    fn eq(&self, other: &Symbol) -> bool {
        self == other.text
    }
}

impl PartialEq<Symbol> for &str {
    fn eq(&self, other: &Symbol) -> bool {
        *self == other.text
    }
}

impl PartialEq<Symbol> for String {
    fn eq(&self, other: &Symbol) -> bool {
        self.as_str() == other.text
    }
}

impl std::fmt::Display for Symbol {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.text)
    }
}

impl std::fmt::Debug for Symbol {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:?}", self.text)
    }
}

impl From<&str> for Symbol {
    fn from(name: &str) -> Symbol {
        Symbol::new(name)
    }
}

impl From<&String> for Symbol {
    fn from(name: &String) -> Symbol {
        Symbol::new(name)
    }
}

impl From<String> for Symbol {
    fn from(name: String) -> Symbol {
        Symbol::new(&name)
    }
}

impl std::borrow::Borrow<str> for Symbol {
    fn borrow(&self) -> &str {
        self.text
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_dedupes_and_preserves_text() {
        let a = Symbol::new("test.intern_a");
        let b = Symbol::new("test.intern_a");
        let c = Symbol::new("test.intern_b");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.as_str(), "test.intern_a");
        // The leaked text is shared, not re-leaked per intern.
        assert!(std::ptr::eq(a.as_str(), b.as_str()));
    }

    #[test]
    fn indices_are_dense_and_name_the_symbol() {
        let a = Symbol::new("test.index_a");
        let b = Symbol::new("test.index_b");
        assert_eq!(Symbol::new("test.index_a").index(), a.index());
        assert_ne!(a.index(), b.index());
        // Dense: a fresh name takes the next free id, so every id in
        // use is below the number of distinct names interned so far.
        let table_len = interner().lock().unwrap().map.len();
        assert!(a.index() < table_len && b.index() < table_len);
        assert_eq!(std::mem::size_of::<Symbol>(), 24);
    }

    #[test]
    fn compares_against_strings_both_ways() {
        let s = Symbol::new("test.compare");
        assert_eq!(s, "test.compare");
        assert_eq!("test.compare", s);
        assert_eq!(s, String::from("test.compare"));
        assert_eq!(String::from("test.compare"), s);
        assert!(s != "test.other");
    }

    #[test]
    fn derefs_to_str_methods() {
        let s = Symbol::new("dialect.op_name");
        assert!(s.starts_with("dialect."));
        assert_eq!(s.len(), "dialect.op_name".len());
        assert_eq!(format!("{s}"), "dialect.op_name");
        assert_eq!(format!("{s:?}"), "\"dialect.op_name\"");
    }

    #[test]
    fn hashing_follows_equality() {
        use std::collections::HashMap;
        let mut map: HashMap<Symbol, usize> = HashMap::new();
        map.insert(Symbol::new("test.hash"), 1);
        assert_eq!(map.get(&Symbol::new("test.hash")), Some(&1));
        assert_eq!(map.get(&Symbol::new("test.hash_other")), None);
    }

    #[test]
    fn concurrent_interning_is_consistent() {
        let handles: Vec<_> = (0..4)
            .map(|_| std::thread::spawn(|| Symbol::new("test.concurrent")))
            .collect();
        let symbols: Vec<Symbol> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert!(symbols.windows(2).all(|w| w[0] == w[1]));
    }
}
