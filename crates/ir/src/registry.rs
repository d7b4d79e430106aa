//! Dialect and operation registry.
//!
//! A [`Context`] holds the set of registered dialects. Each dialect
//! declares its operations through [`OpSpec`]s: operand/result arity,
//! region count, required attributes, structural traits, the op's
//! type and attribute rules as a list of [`Constraint`]s and what it
//! does to memory as a list of [`Effect`]s. The
//! [verifier](crate::verify) checks every op in a module against these
//! specs — exactly the role MLIR's ODS-generated verifiers play — and
//! the `type-mismatch` lint of `everest-analysis` reads the same
//! constraint lists, so each rule is declared once, beside its op.
//! Passes, lints and HLS read the effects through
//! [`Context::reads_only`], [`Context::may_write`] and
//! [`Context::access`], never through op names.

use std::collections::BTreeMap;
use std::sync::{Arc, LazyLock};

use crate::constraint::{Constraint, Effect, Port};
use crate::ids::ValueId;
use crate::intern::Symbol;
use crate::module::Operation;

/// The effects of an op that declares none of its own, and of an
/// unregistered op: it may write every value it takes or defines.
const UNKNOWN: &[Effect] = &[Effect::Write(Port::All)];

/// Structural traits an operation can declare.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum OpTrait {
    /// Must be the last op in its block.
    Terminator,
    /// The op's regions may not capture values from enclosing scopes.
    IsolatedFromAbove,
    /// The op folds to a constant (has a `value` attribute).
    ConstantLike,
    /// Commutative binary op (operand order irrelevant for CSE).
    Commutative,
}

/// Arity constraint for operands or results.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arity {
    /// Exactly `n`.
    Exact(usize),
    /// At least `n`.
    AtLeast(usize),
    /// Anything.
    Variadic,
}

impl Arity {
    /// Returns `true` when `n` satisfies the constraint.
    pub fn check(&self, n: usize) -> bool {
        match self {
            Arity::Exact(k) => n == *k,
            Arity::AtLeast(k) => n >= *k,
            Arity::Variadic => true,
        }
    }
}

/// Static description of one operation kind.
#[derive(Debug, Clone)]
pub struct OpSpec {
    /// Op name without the dialect prefix.
    pub name: String,
    /// Operand arity constraint.
    pub operands: Arity,
    /// Result arity constraint.
    pub results: Arity,
    /// Number of regions the op must carry.
    pub num_regions: usize,
    /// Attribute names that must be present.
    pub required_attrs: Vec<String>,
    /// Structural traits.
    pub traits: Vec<OpTrait>,
    /// Type and attribute rules, checked in order.
    pub constraints: &'static [Constraint],
    /// What the op does to memory. An op that does not say may write
    /// every value it takes or defines.
    pub effects: &'static [Effect],
}

impl OpSpec {
    /// Creates a spec with the given arities and no further constraints.
    pub fn new(name: &str, operands: Arity, results: Arity) -> Self {
        OpSpec {
            name: name.to_string(),
            operands,
            results,
            num_regions: 0,
            required_attrs: Vec::new(),
            traits: Vec::new(),
            constraints: &[],
            effects: UNKNOWN,
        }
    }

    /// Sets the exact region count.
    pub(crate) fn with_regions(mut self, n: usize) -> Self {
        self.num_regions = n;
        self
    }

    /// Adds a required attribute.
    pub(crate) fn with_attr(mut self, name: &str) -> Self {
        self.required_attrs.push(name.to_string());
        self
    }

    /// Adds a trait.
    pub(crate) fn with_trait(mut self, t: OpTrait) -> Self {
        self.traits.push(t);
        self
    }

    /// Sets the op's type and attribute rules.
    pub(crate) fn with_constraints(mut self, constraints: &'static [Constraint]) -> Self {
        self.constraints = constraints;
        self
    }

    /// Sets what the op does to memory; `&[]` for none.
    pub(crate) fn with_effects(mut self, effects: &'static [Effect]) -> Self {
        self.effects = effects;
        self
    }

    /// Returns `true` if the spec declares the trait.
    pub fn has_trait(&self, t: OpTrait) -> bool {
        self.traits.contains(&t)
    }
}

/// A dialect: a namespace of operation specs.
#[derive(Debug, Clone)]
pub struct Dialect {
    /// Namespace prefix (`"arith"`, `"olympus"`, ...).
    pub name: String,
    /// One-line description shown in diagnostics and docs.
    pub description: String,
    ops: BTreeMap<String, OpSpec>,
}

impl Dialect {
    /// Creates an empty dialect.
    pub fn new(name: &str, description: &str) -> Self {
        Dialect {
            name: name.to_string(),
            description: description.to_string(),
            ops: BTreeMap::new(),
        }
    }

    /// Registers an op spec.
    ///
    /// # Panics
    ///
    /// Panics if the op name was already registered (a programming error
    /// in dialect definitions).
    pub fn register(&mut self, spec: OpSpec) {
        let prev = self.ops.insert(spec.name.clone(), spec);
        assert!(prev.is_none(), "duplicate op registration");
    }

    /// Iterates all specs in the dialect.
    pub fn iter(&self) -> impl Iterator<Item = &OpSpec> {
        self.ops.values()
    }

    /// Number of registered ops.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Returns `true` if no ops are registered.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

/// The registry of dialects available to verification and passes.
///
/// Alongside the per-dialect spec trees, the context keeps a flat table
/// of specs indexed by the interned full op name's dense id
/// ([`Symbol::index`]), so the hot queries passes and the verifier issue
/// per op — `Context::spec_of`, [`Context::has_trait`] — are one
/// bounds-checked load, with no hashing and no name split. The table is
/// plain data extended at registration time, so a `&Context` stays
/// `Sync` and can be shared across pass-manager worker threads.
///
/// A `Context` is a handle: clones share one registry, and
/// `Context::register_dialect` copies it first when another handle
/// still points at it, so an extension is private to its caller.
#[derive(Debug, Clone, Default)]
pub struct Context {
    registry: Arc<Registry>,
}

#[derive(Debug, Clone, Default)]
struct Registry {
    dialects: BTreeMap<String, Dialect>,
    /// `specs[name.index()]` is the spec registered under `name`. A
    /// symbol that names no registered op reads `None`, either from its
    /// slot or — interned after the last registration — past the end.
    specs: Vec<Option<OpSpec>>,
}

impl Context {
    /// Creates an empty context (no dialects).
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a context with every EVEREST and core dialect registered.
    ///
    /// This is the configuration the SDK's `basecamp` entry point uses.
    /// The registry is built once per process; every call returns a
    /// handle to it.
    pub fn with_all_dialects() -> Self {
        static STANDARD: LazyLock<Context> = LazyLock::new(|| {
            let mut ctx = Context::new();
            for d in crate::dialects::all_dialects() {
                ctx.register_dialect(d);
            }
            ctx
        });
        STANDARD.clone()
    }

    /// Registers a dialect.
    ///
    /// # Panics
    ///
    /// Panics if a dialect with the same name is already present.
    pub(crate) fn register_dialect(&mut self, dialect: Dialect) {
        assert!(
            !self.registry.dialects.contains_key(&dialect.name),
            "duplicate dialect registration"
        );
        let registry = Arc::make_mut(&mut self.registry);
        for spec in dialect.iter() {
            let slot = Symbol::new(&format!("{}.{}", dialect.name, spec.name)).index();
            if registry.specs.len() <= slot {
                registry.specs.resize(slot + 1, None);
            }
            registry.specs[slot] = Some(spec.clone());
        }
        registry.dialects.insert(dialect.name.clone(), dialect);
    }

    /// Looks up a dialect by name.
    pub fn dialect(&self, name: &str) -> Option<&Dialect> {
        self.registry.dialects.get(name)
    }

    /// Resolves the spec for an interned op name: one load from the
    /// table indexed by the symbol's id. `None` for unregistered ops.
    pub(crate) fn spec_of(&self, name: Symbol) -> Option<&OpSpec> {
        self.registry.specs.get(name.index())?.as_ref()
    }

    /// Fast-path trait query keyed on the interned op name; the form
    /// passes use per visited op.
    pub fn has_trait(&self, name: Symbol, t: OpTrait) -> bool {
        self.spec_of(name).is_some_and(|s| s.has_trait(t))
    }

    /// The type and attribute rules an op kind declares; none for an
    /// unregistered one.
    pub fn constraints(&self, name: Symbol) -> &'static [Constraint] {
        self.spec_of(name).map_or(&[], |s| s.constraints)
    }

    /// What an op kind does to memory; an unregistered one may write
    /// every value it takes or defines.
    pub fn effects(&self, name: Symbol) -> &'static [Effect] {
        self.spec_of(name).map_or(UNKNOWN, |s| s.effects)
    }

    /// Whether an op kind is registered and declares no effect but
    /// `Read`s: the ops DCE may erase, CSE merge and `licm` hoist.
    pub fn reads_only(&self, name: Symbol) -> bool {
        (self.spec_of(name)).is_some_and(|s| s.effects.iter().all(|e| matches!(e, Effect::Read(_))))
    }

    /// Whether `op` may write `buffer`: a declared `Write` or `Free` port
    /// of it holds `buffer`, or it has regions (whose ops may name any
    /// value). Distinct SSA buffers are taken not to alias: allocations
    /// are fresh and kernel arguments follow the HLS no-alias
    /// convention. A buffer a read-only op picks (an `arith.select` of
    /// two) breaks that, and nothing here sees through it.
    pub fn may_write(&self, op: &Operation, buffer: ValueId) -> bool {
        !op.regions.is_empty()
            || self.effects(op.name).iter().any(|e| {
                matches!(e, Effect::Write(_) | Effect::Free(_))
                    && e.port().values(op).any(|v| v == buffer)
            })
    }

    /// The subscripted access `op` makes, when its kind declares a
    /// [`Constraint::MemrefAccess`]: its first effect, the buffer that
    /// effect's operand holds, and the subscripts after it.
    pub fn access<'o>(&self, op: &'o Operation) -> Option<(Effect, ValueId, &'o [ValueId])> {
        let spec = (self.spec_of(op.name))
            .filter(|spec| spec.constraints.contains(&Constraint::MemrefAccess))?;
        let (effect, _, buffer, indices) = crate::constraint::first_access(op, spec.effects)?;
        Some((effect, buffer, indices))
    }

    /// Names of all registered dialects.
    pub fn dialect_names(&self) -> Vec<&str> {
        self.registry.dialects.keys().map(String::as_str).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_dialect() -> Dialect {
        let mut d = Dialect::new("toy", "a test dialect");
        d.register(OpSpec::new("add", Arity::Exact(2), Arity::Exact(1)).with_effects(&[]));
        d.register(
            OpSpec::new("ret", Arity::Variadic, Arity::Exact(0)).with_trait(OpTrait::Terminator),
        );
        d
    }

    #[test]
    fn arity_checks() {
        assert!(Arity::Exact(2).check(2));
        assert!(!Arity::Exact(2).check(3));
        assert!(Arity::AtLeast(1).check(5));
        assert!(!Arity::AtLeast(1).check(0));
        assert!(Arity::Variadic.check(0));
    }

    #[test]
    fn context_resolves_specs() {
        let mut ctx = Context::new();
        ctx.register_dialect(sample_dialect());
        assert!(ctx.spec_of(Symbol::new("toy.add")).is_some());
        assert!(ctx.reads_only(Symbol::new("toy.add")));
        assert!(ctx.spec_of(Symbol::new("toy.mul")).is_none());
        assert!(ctx.spec_of(Symbol::new("other.add")).is_none());
        assert!(ctx.spec_of(Symbol::new("noperiod")).is_none());
    }

    #[test]
    fn trait_query_on_unknown_op_is_false() {
        let ctx = Context::new();
        assert!(!ctx.has_trait(Symbol::new("toy.ret"), OpTrait::Terminator));
        assert!(!ctx.reads_only(Symbol::new("toy.add")));
    }

    /// Every full op name `ctx` registers, in dialect order.
    fn op_names(ctx: &Context) -> Vec<String> {
        let dialects = ctx
            .dialect_names()
            .into_iter()
            .map(|d| ctx.dialect(d).unwrap());
        dialects
            .flat_map(|d| d.iter().map(|spec| format!("{}.{}", d.name, spec.name)))
            .collect()
    }

    #[test]
    fn registered_names_take_the_same_id_without_the_lock_as_with_it() {
        let ctx = Context::with_all_dialects();
        let mut names = op_names(&ctx);
        assert_eq!(names.len(), 61);
        let dialects = ctx
            .dialect_names()
            .into_iter()
            .map(|d| ctx.dialect(d).unwrap());
        for attr in dialects.flat_map(|d| d.iter().flat_map(|s| s.required_attrs.clone())) {
            if !names.contains(&attr) {
                names.push(attr);
            }
        }
        let mut ids = Vec::new();
        for name in &names {
            let fast = crate::intern::registered(name)
                .unwrap_or_else(|| panic!("{name} is not in the lock-free table"));
            assert_eq!(fast.as_str(), name);
            assert_eq!(fast.index(), Symbol::intern_locked(name).index(), "{name}");
            assert_eq!(fast.index(), Symbol::new(name).index(), "{name}");
            ids.push(fast.index());
        }
        // The table holds these names and no others, at ids 0..n.
        ids.sort_unstable();
        assert_eq!(ids, (0..names.len()).collect::<Vec<_>>());
        assert_eq!(crate::intern::REGISTERED.len(), names.len());
        // The standard spec table is exactly as long as the op names.
        assert_eq!(ctx.registry.specs.len(), 61);

        // An unregistered name still interns, past the table, and
        // collides with nothing.
        let other = Symbol::new("toy.not_in_the_table");
        assert!(crate::intern::registered(other.as_str()).is_none());
        assert!(other.index() >= names.len());
        assert_eq!(other, Symbol::new("toy.not_in_the_table"));
        assert!(names.iter().all(|name| Symbol::new(name) != other));
    }

    #[test]
    #[should_panic(expected = "duplicate op registration")]
    fn duplicate_op_panics() {
        let mut d = sample_dialect();
        d.register(OpSpec::new("add", Arity::Exact(2), Arity::Exact(1)));
    }

    #[test]
    fn standard_handles_share_storage_and_extension_is_private() {
        let mut extended = Context::with_all_dialects();
        let untouched = Context::with_all_dialects();
        assert!(Arc::ptr_eq(&extended.registry, &untouched.registry));

        extended.register_dialect(sample_dialect());
        assert!(!Arc::ptr_eq(&extended.registry, &untouched.registry));
        let add = Symbol::new("toy.add");
        assert!(extended.dialect("toy").is_some());
        assert!(extended.spec_of(add).is_some());
        assert!(extended.reads_only(add));
        assert!(extended.dialect("arith").is_some(), "the copy is complete");
        for other in [untouched, Context::with_all_dialects()] {
            assert!(other.dialect("toy").is_none());
            assert!(other.spec_of(add).is_none());
        }

        // A handle nobody else holds extends in place, as before.
        let mut own = Context::new();
        own.register_dialect(sample_dialect());
        let before = Arc::as_ptr(&own.registry);
        own.register_dialect(Dialect::new("toy2", "another test dialect"));
        assert_eq!(before, Arc::as_ptr(&own.registry));
    }

    #[test]
    fn unregistered_symbols_read_no_spec_inside_the_table_and_past_it() {
        // Interned before the table is sized: a hole inside it.
        let early = Symbol::new("late.never_registered");
        let mut ctx = Context::new();
        let mut dialect = Dialect::new("late", "sized after `early` was interned");
        dialect.register(OpSpec::new("op", Arity::Exact(0), Arity::Exact(0)));
        ctx.register_dialect(dialect);
        let registered = Symbol::new("late.op");
        assert!(early.index() < registered.index());
        assert_eq!(ctx.registry.specs.len(), registered.index() + 1);
        assert_eq!(ctx.spec_of(registered).map(|s| s.name.as_str()), Some("op"));
        assert!(ctx.spec_of(early).is_none());
        // Interned after it: past its end.
        let after = Symbol::new("late.interned_after_registration");
        assert!(after.index() >= ctx.registry.specs.len());
        assert!(ctx.spec_of(after).is_none());
        assert!(!ctx.reads_only(after));
    }

    /// The ops DCE may erase, CSE merge and `licm` hoist, spelled out:
    /// a declaration that moves one in or out of this set changes what
    /// those passes do to every module that holds it.
    const READS_ONLY: &[&str] = &[
        "arith.absf",
        "arith.addf",
        "arith.addi",
        "arith.andi",
        "arith.cmpf",
        "arith.cmpi",
        "arith.constant",
        "arith.divf",
        "arith.divsi",
        "arith.exp",
        "arith.extf",
        "arith.fptosi",
        "arith.index_cast",
        "arith.log",
        "arith.maxf",
        "arith.minf",
        "arith.mulf",
        "arith.muli",
        "arith.negf",
        "arith.ori",
        "arith.remsi",
        "arith.select",
        "arith.sitofp",
        "arith.sqrt",
        "arith.subf",
        "arith.subi",
        "arith.truncf",
        "arith.xori",
        "base2.add",
        "base2.convert",
        "base2.dequantize",
        "base2.div",
        "base2.mul",
        "base2.quantize",
        "base2.sub",
        "memref.load",
    ];

    #[test]
    fn the_read_only_set_is_pinned_and_every_other_op_writes() {
        let ctx = Context::with_all_dialects();
        let names = op_names(&ctx);
        let reads_only: Vec<&str> = (names.iter().map(String::as_str))
            .filter(|&name| ctx.reads_only(Symbol::new(name)))
            .collect();
        let mut sorted = reads_only.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, READS_ONLY);
        for name in names
            .iter()
            .filter(|name| !READS_ONLY.contains(&name.as_str()))
        {
            let effects = ctx.effects(Symbol::new(name));
            assert!(
                (effects.iter()).any(|e| matches!(e, Effect::Write(_) | Effect::Free(_))),
                "{name} declares {effects:?}: DCE, CSE or licm could move it"
            );
        }
        // A read-only op with effects reads through a subscripted access.
        for name in READS_ONLY {
            for effect in ctx.effects(Symbol::new(name)) {
                assert!(
                    matches!(effect, Effect::Read(Port::Operand(0, _))),
                    "{name}"
                );
            }
        }
    }

    #[test]
    fn may_write_reads_declared_ports_regions_and_unknown_ops() {
        use crate::types::{MemorySpace, Type};
        let ctx = Context::with_all_dialects();
        let mut m = crate::module::Module::new();
        let top = m.top_block();
        let ty = Type::memref(&[4], Type::F64, MemorySpace::Plm);
        let a = crate::dialects::core::alloc(&mut m, top, ty.clone());
        let b = crate::dialects::core::alloc(&mut m, top, ty);
        let copy = m.build_op("memref.copy", [a, b], []).append_to(top);
        let free = m.build_op("memref.dealloc", [a], []).append_to(top);
        let unknown = m.build_op("toy.touch", [b], []).append_to(top);
        let op = |id| m.op(id).unwrap();
        assert!(!ctx.may_write(op(copy), a) && ctx.may_write(op(copy), b));
        assert!(ctx.may_write(op(free), a) && !ctx.may_write(op(free), b));
        assert!(ctx.may_write(op(unknown), b) && !ctx.may_write(op(unknown), a));
        assert!(!ctx.reads_only(Symbol::new("toy.touch")));
        assert_eq!(ctx.access(op(copy)), None);
    }

    #[test]
    #[should_panic(expected = "duplicate dialect registration")]
    fn duplicate_dialect_panics_on_a_shared_handle() {
        let mut ctx = Context::with_all_dialects();
        ctx.register_dialect(Dialect::new("arith", "already there"));
    }

    #[test]
    fn context_is_send_and_sync() {
        fn pass_manager_worker<T: Send + Sync>() {}
        pass_manager_worker::<Context>();
    }

    #[test]
    fn all_dialects_context_contains_everest_stack() {
        let ctx = Context::with_all_dialects();
        let names = ["arith", "base2", "dfg", "func", "memref", "olympus", "scf"];
        assert_eq!(ctx.dialect_names(), names);
    }
}
