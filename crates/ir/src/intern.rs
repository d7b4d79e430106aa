//! Interned operation and attribute names.
//!
//! Op names are a tiny closed vocabulary (`"arith.addf"`, `"scf.for"`,
//! ...) and so are attribute names (`"value"`, `"sym_name"`, ...), yet
//! the pre-interning IR cloned them as `String`s on every op build, CSE
//! key, and pass dispatch — a heap allocation per touch on the hottest
//! compiler paths. A [`Symbol`] is a process-wide interned name: one
//! pointer (8 bytes) to a static entry holding its `u32` id and its
//! `&'static str`, `Copy`, equality on the pointer and hashing on the
//! dense id, with the entry static (or leaked once per distinct name)
//! so [`Symbol::as_str`] is two pointer reads (no lock, no lookup).
//!
//! Two paths lead to a symbol:
//!
//! * **Registered names, lock-free.** The 61 op kinds
//!   [`Context::with_all_dialects`](crate::registry::Context::with_all_dialects)
//!   registers and the attribute names their specs require are a
//!   constant table, seeded into the interner at ids `0..74` in table
//!   order. [`Symbol::new`] finds them by one multiply-shift hash of the
//!   name's length and last eight bytes into a 256-slot open-addressing
//!   index built at compile time: no lock, no SipHash, nothing leaked.
//!   Every op a flow builds and every attribute a spec demands takes
//!   this path.
//! * **Everything else, under a mutex.** Any other name — an attribute
//!   only some producers set (`capacity`, `deadline_us`, ...), a test
//!   dialect's op, whatever a textual module spells — is looked up in a
//!   `Mutex<HashMap>` with the default hasher and, the first time,
//!   leaked and given the next id. A text can spell any name, so this
//!   map keeps SipHash.
//!
//! Deliberate non-features:
//!
//! * **No `Ord`.** Past the table, symbol ids are assigned in
//!   first-intern order, which depends on execution order; sorting by
//!   id would be nondeterministic across runs. Anything needing a
//!   stable order (printing, error listings) must sort by
//!   [`Symbol::as_str`].
//! * **No eviction.** The vocabulary is bounded by the dialect
//!   registry; leaking it for the process lifetime is the point. The
//!   text parser interns every op and attribute name it reads, so on
//!   hostile text the locked map grows with the distinct names in the
//!   input (bounded by its size, never freed).
//!
//! # Examples
//!
//! ```
//! use everest_ir::Symbol;
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
/// Equality compares the entry's address and hashing its `u32` id (two
/// symbols are equal iff their text is equal); `Deref<Target = str>`
/// and [`Symbol::as_str`] recover the text without touching the
/// interner.
#[derive(Clone, Copy)]
pub struct Symbol(&'static Entry);

/// What a [`Symbol`] points at: one per distinct name, for the process.
struct Entry {
    id: u32,
    text: &'static str,
}

/// The names [`Symbol::new`] answers without the lock, at ids
/// `0..REGISTERED.len()` in this order: every op kind
/// `Context::with_all_dialects` registers, then every attribute name an
/// `OpSpec` of theirs requires. An op or required attribute added to or
/// removed from a dialect in [`crate::dialects`] is added to or removed
/// from this list too; `registry`'s tests hold the two to each other,
/// both ways.
pub(crate) const REGISTERED: [&str; 74] = [
    // func
    "func.func",
    "func.return",
    "func.call",
    // arith
    "arith.constant",
    "arith.addf",
    "arith.subf",
    "arith.mulf",
    "arith.divf",
    "arith.maxf",
    "arith.minf",
    "arith.addi",
    "arith.subi",
    "arith.muli",
    "arith.divsi",
    "arith.remsi",
    "arith.andi",
    "arith.ori",
    "arith.xori",
    "arith.negf",
    "arith.absf",
    "arith.sqrt",
    "arith.exp",
    "arith.log",
    "arith.cmpf",
    "arith.cmpi",
    "arith.select",
    "arith.index_cast",
    "arith.sitofp",
    "arith.fptosi",
    "arith.extf",
    "arith.truncf",
    // scf
    "scf.for",
    "scf.if",
    "scf.yield",
    // memref
    "memref.alloc",
    "memref.dealloc",
    "memref.load",
    "memref.store",
    "memref.copy",
    // dfg
    "dfg.graph",
    "dfg.channel",
    "dfg.node",
    "dfg.feed",
    "dfg.sink",
    "dfg.yield",
    // base2
    "base2.quantize",
    "base2.dequantize",
    "base2.add",
    "base2.sub",
    "base2.mul",
    "base2.div",
    "base2.convert",
    // olympus
    "olympus.system",
    "olympus.kernel",
    "olympus.plm",
    "olympus.dma",
    "olympus.replicate",
    "olympus.lane",
    "olympus.pack",
    "olympus.double_buffer",
    "olympus.yield",
    // attributes the specs require
    "sym_name",
    "function_type",
    "callee",
    "value",
    "predicate",
    "name",
    "platform",
    "banks",
    "direction",
    "factor",
    "kernel",
    "width_bits",
    "layout",
];

/// The entries of the [`REGISTERED`] names, in table order.
static ENTRIES: [Entry; REGISTERED.len()] = {
    let mut entries = [const { Entry { id: 0, text: "" } }; REGISTERED.len()];
    let mut id = 0;
    while id < REGISTERED.len() {
        entries[id] = Entry {
            id: id as u32,
            text: REGISTERED[id],
        };
        id += 1;
    }
    entries
};

/// `log2` of the index's slot count: 256 slots for 74 names, so a
/// probe rarely looks past its first slot.
const SLOT_BITS: u32 = 8;

/// `SLOTS[h]` is `1 +` the [`REGISTERED`] position of a name hashed to
/// `h` or probed on to it, `0` an empty slot.
static SLOTS: [u8; 1 << SLOT_BITS] = {
    let mut slots = [0u8; 1 << SLOT_BITS];
    let mut id = 0;
    while id < REGISTERED.len() {
        let mut at = slot_of(REGISTERED[id].as_bytes());
        while slots[at] != 0 {
            at = (at + 1) % slots.len();
        }
        slots[at] = id as u8 + 1;
        id += 1;
    }
    slots
};

/// `a == b` for byte slices, in a `const fn`.
const fn same_bytes(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut at = 0;
    while at < a.len() {
        if a[at] != b[at] {
            return false;
        }
        at += 1;
    }
    true
}

/// The home slot of a name: its length plus its last eight bytes read
/// as one big-endian word (the whole name when shorter), spread by a
/// Fibonacci multiply. Registered names share prefixes (`arith.`), not
/// tails, and a collision only costs a probe.
const fn slot_of(name: &[u8]) -> usize {
    let n = name.len();
    // Eight bytes or more: one load. Fewer: byte by byte.
    let word = if n >= 8 {
        u64::from_be_bytes([
            name[n - 8],
            name[n - 7],
            name[n - 6],
            name[n - 5],
            name[n - 4],
            name[n - 3],
            name[n - 2],
            name[n - 1],
        ])
    } else {
        let mut word = 0u64;
        let mut at = 0;
        while at < n {
            word = (word << 8) | name[at] as u64;
            at += 1;
        }
        word
    };
    let mixed = word
        .wrapping_add(n as u64)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15);
    (mixed >> (64 - SLOT_BITS)) as usize
}

/// The symbol of a [`REGISTERED`] name, found without the lock; `None`
/// for every other name, which this never interns.
pub(crate) fn registered(name: &str) -> Option<Symbol> {
    let mut at = slot_of(name.as_bytes());
    loop {
        let id = SLOTS[at].checked_sub(1)? as usize;
        if REGISTERED[id] == name {
            return Some(Symbol(&ENTRIES[id]));
        }
        at = (at + 1) % SLOTS.len();
    }
}

struct Interner {
    map: HashMap<&'static str, Symbol>,
}

fn interner() -> &'static Mutex<Interner> {
    static INTERNER: OnceLock<Mutex<Interner>> = OnceLock::new();
    INTERNER.get_or_init(|| {
        let map = REGISTERED
            .iter()
            .map(|&name| (name, registered(name).expect("seeded by name")))
            .collect();
        Mutex::new(Interner { map })
    })
}

impl Symbol {
    /// Interns `name`, returning the canonical symbol for it. A
    /// registered op or required attribute name is answered from a
    /// constant table without the lock; any other name takes the
    /// interner's mutex, and its first intern leaks one copy of the
    /// text.
    pub fn new(name: &str) -> Symbol {
        registered(name).unwrap_or_else(|| Symbol::intern(name))
    }

    /// The symbol of a registered name — an op kind the
    /// dialects register or an attribute name their specs require —
    /// found by a scan of the table when the call is evaluated, so a
    /// `const` of one costs nothing at run time. Builders that name the
    /// same ops over and over keep their names in such constants.
    ///
    /// # Panics
    ///
    /// Panics for any other name; in a `const`, that is a compile
    /// error.
    ///
    /// # Examples
    ///
    /// ```
    /// use everest_ir::Symbol;
    ///
    /// const LOAD: Symbol = Symbol::registered("memref.load");
    /// assert_eq!(LOAD, Symbol::new("memref.load"));
    /// ```
    pub const fn registered(name: &str) -> Symbol {
        let mut id = 0;
        while id < REGISTERED.len() {
            if same_bytes(REGISTERED[id].as_bytes(), name.as_bytes()) {
                return Symbol(&ENTRIES[id]);
            }
            id += 1;
        }
        panic!("not a registered op or attribute name")
    }

    /// The locked path: a map hit, or a fresh id and a leaked entry.
    fn intern(name: &str) -> Symbol {
        let mut interner = interner().lock().expect("symbol interner poisoned");
        if let Some(&sym) = interner.map.get(name) {
            return sym;
        }
        let text: &'static str = Box::leak(name.to_owned().into_boxed_str());
        let sym = Symbol(Box::leak(Box::new(Entry {
            id: interner.map.len() as u32,
            text,
        })));
        interner.map.insert(text, sym);
        sym
    }

    /// The locked path even for a registered name, which the seeding
    /// must have given the table's id.
    #[cfg(test)]
    pub(crate) fn intern_locked(name: &str) -> Symbol {
        Symbol::intern(name)
    }

    /// Whether `name` has been interned, without interning it.
    #[cfg(test)]
    pub(crate) fn is_interned(name: &str) -> bool {
        registered(name).is_some() || interner().lock().unwrap().map.contains_key(name)
    }

    /// The interned text. `&'static` because interned names live for
    /// the process: callers can hold the `&str` without borrowing the
    /// symbol.
    pub fn as_str(&self) -> &'static str {
        self.0.text
    }

    /// The symbol's dense id: the registered names first, at fixed ids
    /// `0..74`, then `74, 75, ...` in first-intern order, so a table
    /// indexed by it (the registry's op specs) has a slot for every
    /// symbol interned before it was sized and none past its end for
    /// one interned later. Past the registered names, ids depend on
    /// execution order — which name the process happened to intern
    /// first — so they are an index, never an order: anything that must
    /// come out the same on every run sorts by [`Symbol::as_str`] (the
    /// type has no `Ord` for that reason).
    pub const fn index(&self) -> usize {
        self.0.id as usize
    }
}

impl std::ops::Deref for Symbol {
    type Target = str;

    fn deref(&self) -> &str {
        self.0.text
    }
}

impl PartialEq for Symbol {
    fn eq(&self, other: &Symbol) -> bool {
        std::ptr::eq(self.0, other.0)
    }
}

impl Eq for Symbol {}

impl std::hash::Hash for Symbol {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.0.id.hash(state);
    }
}

impl PartialEq<str> for Symbol {
    fn eq(&self, other: &str) -> bool {
        self.0.text == other
    }
}

impl PartialEq<&str> for Symbol {
    fn eq(&self, other: &&str) -> bool {
        self.0.text == *other
    }
}

impl PartialEq<String> for Symbol {
    fn eq(&self, other: &String) -> bool {
        self.0.text == other.as_str()
    }
}

impl PartialEq<Symbol> for str {
    fn eq(&self, other: &Symbol) -> bool {
        self == other.0.text
    }
}

impl PartialEq<Symbol> for &str {
    fn eq(&self, other: &Symbol) -> bool {
        *self == other.0.text
    }
}

impl PartialEq<Symbol> for String {
    fn eq(&self, other: &Symbol) -> bool {
        self.as_str() == other.0.text
    }
}

impl std::fmt::Display for Symbol {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.0.text)
    }
}

impl std::fmt::Debug for Symbol {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:?}", self.0.text)
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
        self.0.text
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
        assert_eq!(std::mem::size_of::<Symbol>(), 8);
    }

    #[test]
    fn the_table_finds_each_registered_name_at_its_position_and_nothing_else() {
        for (id, &name) in REGISTERED.iter().enumerate() {
            let symbol = registered(name).expect("in the table");
            assert_eq!((symbol.index(), symbol.as_str()), (id, name));
        }
        let mut distinct = REGISTERED.to_vec();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), REGISTERED.len());
        // Near misses: a changed last byte, one byte short or long at
        // either end, another case, the empty name.
        for name in [
            "arith.addg",
            "arith.add",
            "arith.addff",
            "xarith.addf",
            "rith.addf",
            "ARITH.ADDF",
            "values",
            "",
            "test.not_registered",
        ] {
            assert!(registered(name).is_none(), "{name:?}");
        }
    }

    #[test]
    fn names_off_the_table_intern_past_it() {
        let name = "test.off_the_table";
        assert!(!Symbol::is_interned(name));
        let symbol = Symbol::new(name);
        assert!(symbol.index() >= REGISTERED.len());
        assert!(Symbol::is_interned(name));
        assert_eq!(Symbol::intern_locked("value"), Symbol::new("value"));
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
