//! Declared op contracts: the type and attribute rules an
//! [`OpSpec`](crate::registry::OpSpec) lists beside its arity, regions
//! and required attributes, and the [`Effect`]s it has on memory.
//!
//! Each rule is data, declared once in its op's spec, and [`Constraint::check`]
//! is the one evaluator: the [verifier](crate::verify) stops at an op's
//! first violated rule, and the `type-mismatch` lint of `everest-analysis`
//! reports every violated rule of every op. The evaluator is total on any
//! op, verified or not: a rule whose port the op does not have (an arity
//! violation the structural check reports) holds vacuously.

use crate::ids::ValueId;
use crate::intern::Symbol;
use crate::module::{Module, Operation};
use crate::types::{MemorySpace, Type, TypeId};

/// The `func.return` a function's blocks end with.
const RETURN: Symbol = Symbol::registered("func.return");

/// Which of an op's values a type rule reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Port {
    /// Operand `i`, called by the name in messages.
    Operand(usize, &'static str),
    /// Result `i`, called by the name in messages.
    Result(usize, &'static str),
    /// Every operand.
    Operands,
    /// Every operand and every result.
    All,
}

impl Port {
    /// The port's values in `op`; none when `op` has no value there.
    pub fn values(self, op: &Operation) -> impl Iterator<Item = ValueId> + '_ {
        let none: &[ValueId] = &[];
        let (operands, results) = match self {
            Port::Operand(i, _) => (op.operands.get(i..=i).unwrap_or(none), none),
            Port::Result(i, _) => (none, op.results.get(i..=i).unwrap_or(none)),
            Port::Operands => (&op.operands[..], none),
            Port::All => (&op.operands[..], &op.results[..]),
        };
        operands.iter().chain(results).copied()
    }

    fn name(self) -> &'static str {
        match self {
            Port::Operand(_, name) | Port::Result(_, name) => name,
            Port::Operands => "operands",
            Port::All => "ports",
        }
    }
}

/// What an op does to memory at one of its ports, declared once in its
/// [`OpSpec`](crate::registry::OpSpec) (MLIR's memory-effect interface).
/// The port names the buffer or stream the effect is on. An op that
/// declares none is free of effects; one that declares only `Read`s is
/// read-only, which is what DCE, CSE and `licm` may erase, merge and
/// hoist ([`Context::reads_only`](crate::registry::Context::reads_only)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Effect {
    /// Reads the port's buffer.
    Read(Port),
    /// Writes the port's buffer.
    Write(Port),
    /// Allocates the port's buffer.
    Alloc(Port),
    /// Frees the port's buffer.
    Free(Port),
}

impl Effect {
    /// The port the effect is on.
    pub fn port(self) -> Port {
        let (Effect::Read(port) | Effect::Write(port) | Effect::Alloc(port) | Effect::Free(port)) =
            self;
        port
    }
}

/// A set of types a port may hold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TypeClass {
    /// `f32` or `f64`.
    Float,
    /// A float or a `base2` format: what `arith` float ops take.
    FloatLike,
    /// An integer of any width, or `index`.
    IntOrIndex,
    /// `i1`.
    I1,
    /// `index`.
    Index,
    /// A `base2` fixed-point or posit format.
    Base2,
    /// A memref in any space.
    MemRef,
    /// A memref in PLM.
    PlmMemRef,
    /// A `dfg` stream.
    Stream,
    /// A `dfg` stream or token.
    StreamOrToken,
}

impl TypeClass {
    /// Whether the class holds the type `id` stands for in `module`; the
    /// fixed `index`, `i1` and `f64` ids answer without the table.
    fn admits(self, module: &Module, id: TypeId) -> bool {
        let ty = || module.ty(id);
        match self {
            TypeClass::Float => id == TypeId::F64 || *ty() == Type::F32,
            TypeClass::FloatLike => id == TypeId::F64 || ty().is_float_like(),
            TypeClass::IntOrIndex => id == TypeId::INDEX || matches!(ty(), Type::Int(_)),
            TypeClass::I1 => id == TypeId::I1,
            TypeClass::Index => id == TypeId::INDEX,
            TypeClass::Base2 => matches!(ty(), Type::Fixed(_) | Type::Posit(_)),
            TypeClass::MemRef => matches!(ty(), Type::MemRef { .. }),
            TypeClass::PlmMemRef => {
                matches!(ty(), Type::MemRef { space, .. } if *space == MemorySpace::Plm)
            }
            TypeClass::Stream => matches!(ty(), Type::Stream(_)),
            TypeClass::StreamOrToken => matches!(ty(), Type::Stream(_) | Type::Token),
        }
    }

    /// The class's name for one value, then for many.
    fn names(self) -> (&'static str, &'static str) {
        match self {
            TypeClass::Float => ("float", "floats"),
            TypeClass::FloatLike => ("float", "floats or base2 types"),
            TypeClass::IntOrIndex => ("integer", "integers or indices"),
            TypeClass::I1 => ("i1", "i1 values"),
            TypeClass::Index => ("index", "indices"),
            TypeClass::Base2 => ("base2", "base2 types"),
            TypeClass::MemRef => ("memref", "memrefs"),
            TypeClass::PlmMemRef => ("plm-space memref", "plm-space memrefs"),
            TypeClass::Stream => ("stream", "streams"),
            TypeClass::StreamOrToken => ("stream/token", "streams or tokens"),
        }
    }
}

/// What an attribute's value must be, when the op carries it. Whether
/// it must be there is the spec's `required_attrs`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttrRule {
    /// An integer above zero.
    Positive,
    /// An integer power of two.
    PowerOfTwo,
    /// One of these strings.
    OneOf(&'static [&'static str]),
}

/// One rule of an op's contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Constraint {
    /// Every operand and result has one type.
    SameTypes,
    /// Two single ports have one type.
    Equal(Port, Port),
    /// The port's values are in the class.
    Class(Port, TypeClass),
    /// A memref access: the operand the op's first [`Effect`] is on is
    /// a memref, the operands after it are its index-typed subscripts,
    /// one a dimension, and the element type is that of result 0 (a
    /// `Read`) or of operand 0 (a `Write`).
    MemrefAccess,
    /// The named attribute satisfies the rule.
    Attr(&'static str, AttrRule),
    /// `func.func`: `function_type` is a function type whose inputs the
    /// entry block's arguments match.
    FuncEntryArgs,
    /// `func.func`: every block ending in `func.return` returns the
    /// signature's output types.
    ReturnsMatchSignature,
    /// `scf.for`: one result an iter arg, and a body block taking the
    /// induction variable and the iter args.
    ForBody,
}

impl Constraint {
    /// Checks the rule against `op`, a live op of `module` whose kind
    /// declares `effects`; the error is the message a diagnostic carries.
    ///
    /// # Errors
    ///
    /// Returns what the op violates.
    pub fn check(&self, module: &Module, op: &Operation, effects: &[Effect]) -> Result<(), String> {
        match *self {
            Constraint::SameTypes => {
                let mut types = op.operands.iter().chain(&op.results);
                let Some(&first) = types.next() else {
                    return Ok(());
                };
                let first = module.value_type_id(first);
                match types.find(|&&v| module.value_type_id(v) != first) {
                    Some(&v) => Err(format!(
                        "operand/result types differ: {} vs {}",
                        module.ty(first),
                        module.value_type(v)
                    )),
                    None => Ok(()),
                }
            }
            Constraint::Equal(a, b) => match (a.values(op).next(), b.values(op).next()) {
                (Some(x), Some(y)) if module.value_type_id(x) != module.value_type_id(y) => {
                    Err(format!(
                        "{} and {} types differ: {} vs {}",
                        a.name(),
                        b.name(),
                        module.value_type(x),
                        module.value_type(y)
                    ))
                }
                _ => Ok(()),
            },
            Constraint::Class(port, class) => {
                let Some(id) = port
                    .values(op)
                    .map(|v| module.value_type_id(v))
                    .find(|&id| !class.admits(module, id))
                else {
                    return Ok(());
                };
                let ty = module.ty(id);
                let (one, many) = class.names();
                Err(match port {
                    Port::Operand(..) | Port::Result(..) => {
                        format!("{} must be {one}, got {ty}", port.name())
                    }
                    Port::Operands | Port::All => {
                        format!("{} must be {many}, got non-{one} type {ty}", port.name())
                    }
                })
            }
            Constraint::MemrefAccess => memref_access(module, op, effects),
            Constraint::Attr(name, rule) => attr_rule(op, name, rule),
            Constraint::FuncEntryArgs => func_entry_args(module, op),
            Constraint::ReturnsMatchSignature => returns_match_signature(module, op),
            Constraint::ForBody => for_body(module, op),
        }
    }
}

/// The access `op` makes through the first of `effects`, when that one
/// is on an operand `base`: the effect, `base`, the operand and the
/// subscripts after it.
pub(crate) fn first_access<'o>(
    op: &'o Operation,
    effects: &[Effect],
) -> Option<(Effect, usize, ValueId, &'o [ValueId])> {
    let &effect = effects.first()?;
    let Port::Operand(base, _) = effect.port() else {
        return None;
    };
    let (&buffer, indices) = op.operands.get(base..)?.split_first()?;
    Some((effect, base, buffer, indices))
}

fn memref_access(module: &Module, op: &Operation, effects: &[Effect]) -> Result<(), String> {
    let Some((effect, base, memref, indices)) = first_access(op, effects) else {
        return Ok(());
    };
    let ty = module.value_type(memref);
    let Type::MemRef { shape, elem, .. } = ty else {
        return Err(format!("operand {base} must be a memref, got {ty}"));
    };
    if indices.len() != shape.len() {
        return Err(format!(
            "memref of rank {} indexed with {} indices",
            shape.len(),
            indices.len()
        ));
    }
    if let Some(&v) = indices
        .iter()
        .find(|&&v| module.value_type_id(v) != TypeId::INDEX)
    {
        let ty = module.value_type(v);
        return Err(format!("memref index must be index-typed, got {ty}"));
    }
    let (what, value) = match effect {
        Effect::Read(_) => ("result", op.results.first()),
        _ => ("stored", op.operands.first()),
    };
    match value.map(|&v| module.value_type(v)) {
        Some(ty) if ty != elem.as_ref() => Err(format!(
            "{what} type {ty} does not match element type {elem}"
        )),
        _ => Ok(()),
    }
}

fn attr_rule(op: &Operation, name: &str, rule: AttrRule) -> Result<(), String> {
    let Some(attr) = op.attr(name) else {
        return Ok(());
    };
    match rule {
        AttrRule::Positive | AttrRule::PowerOfTwo => {
            let Some(v) = attr.as_int() else {
                return Err(format!("missing '{name}' integer attribute"));
            };
            match rule {
                AttrRule::Positive if v <= 0 => Err(format!("{name} must be positive, got {v}")),
                AttrRule::PowerOfTwo if v <= 0 || !(v as u64).is_power_of_two() => {
                    Err(format!("{name} must be a power of two, got {v}"))
                }
                _ => Ok(()),
            }
        }
        AttrRule::OneOf(allowed) => {
            let Some(v) = attr.as_str() else {
                return Err(format!("missing '{name}' string attribute"));
            };
            if allowed.contains(&v) {
                return Ok(());
            }
            let (last, rest) = allowed.split_last().unwrap_or((&"", &[]));
            Err(format!(
                "{name} must be {} or {last}, got '{v}'",
                rest.join(", ")
            ))
        }
    }
}

/// The `function_type` of a `func.func`, a [`Type::Function`]; `None`
/// when it has none.
fn signature(op: &Operation) -> Result<Option<&Type>, String> {
    match op.attr("function_type").map(|attr| attr.as_type()) {
        None => Ok(None),
        Some(Some(ty @ Type::Function { .. })) => Ok(Some(ty)),
        Some(Some(_)) => Err("'function_type' must be a function type".into()),
        Some(None) => Err("missing 'function_type' type attribute".into()),
    }
}

fn func_entry_args(module: &Module, op: &Operation) -> Result<(), String> {
    let Some(Type::Function { inputs, .. }) = signature(op)? else {
        return Ok(());
    };
    let Some(&region) = op.regions.first() else {
        return Ok(());
    };
    let Some(&entry) = module.region(region).blocks.first() else {
        return Err("function body must have an entry block".into());
    };
    let args = &module.block(entry).args;
    if args.len() != inputs.len() {
        return Err(format!(
            "entry block has {} arguments but function type expects {}",
            args.len(),
            inputs.len()
        ));
    }
    match args
        .iter()
        .zip(inputs)
        .find(|&(&arg, expected)| module.value_type(arg) != expected)
    {
        Some((&arg, expected)) => Err(format!(
            "entry argument type {} does not match function type {expected}",
            module.value_type(arg)
        )),
        None => Ok(()),
    }
}

fn returns_match_signature(module: &Module, op: &Operation) -> Result<(), String> {
    let (Ok(Some(Type::Function { outputs, .. })), Some(&region)) =
        (signature(op), op.regions.first())
    else {
        return Ok(());
    };
    let returns = module.region(region).blocks.iter().filter_map(|&block| {
        let last = *module.block(block).ops.last()?;
        module.op(last).filter(|ret| ret.name == RETURN)
    });
    for ret in returns {
        let got = ret.operands.iter().map(|&v| module.value_type(v));
        if ret.operands.len() != outputs.len() || got.clone().zip(outputs).any(|(g, w)| g != w) {
            return Err(format!(
                "return types {:?} do not match signature outputs {:?}",
                got.map(Type::to_string).collect::<Vec<_>>(),
                outputs.iter().map(Type::to_string).collect::<Vec<_>>()
            ));
        }
    }
    Ok(())
}

fn for_body(module: &Module, op: &Operation) -> Result<(), String> {
    let iter_args = op.operands.len().saturating_sub(3);
    if op.results.len() != iter_args {
        return Err(format!(
            "scf.for with {iter_args} iter args must have {iter_args} results, got {}",
            op.results.len()
        ));
    }
    let Some(&region) = op.regions.first() else {
        return Ok(());
    };
    let Some(&entry) = module.region(region).blocks.first() else {
        return Err("scf.for body must have an entry block".into());
    };
    let args = module.block(entry).args.len();
    if args != 1 + iter_args {
        return Err(format!(
            "scf.for body must take induction variable plus {iter_args} iter args, got {args}"
        ));
    }
    Ok(())
}
