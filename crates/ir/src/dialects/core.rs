//! Core (green, MLIR-mirroring) dialects: `func`, `arith`, `scf` and
//! `memref`.
//!
//! These reproduce the subset of upstream MLIR that the EVEREST lowerings
//! target: structured control flow and scalar arithmetic are what the HLS
//! backend ([`everest-hls`](https://crates.io)) schedules.

use crate::attr::Attribute;
use crate::constraint::{Constraint, Port, TypeClass};
use crate::ids::{BlockId, OpId, ValueId};
use crate::intern::Symbol;
use crate::module::{single_result, Module};
use crate::registry::{Arity, Dialect, OpSpec, OpTrait};
use crate::types::{Type, TypeId};

/// The names the builders below give every op they build.
const CONSTANT: Symbol = Symbol::registered("arith.constant");
const VALUE: Symbol = Symbol::registered("value");
const FOR: Symbol = Symbol::registered("scf.for");

// ---------------------------------------------------------------------------
// func
// ---------------------------------------------------------------------------

/// The `func` dialect: functions, returns and calls.
pub(crate) fn func_dialect() -> Dialect {
    let mut d = Dialect::new("func", "functions and calls");
    d.register(
        OpSpec::new("func", Arity::Exact(0), Arity::Exact(0))
            .with_regions(1)
            .with_attr("sym_name")
            .with_attr("function_type")
            .with_trait(OpTrait::Symbol)
            .with_trait(OpTrait::IsolatedFromAbove)
            .with_constraints(&[Constraint::FuncEntryArgs, Constraint::ReturnsMatchSignature]),
    );
    d.register(
        OpSpec::new("return", Arity::Variadic, Arity::Exact(0)).with_trait(OpTrait::Terminator),
    );
    d.register(OpSpec::new("call", Arity::Variadic, Arity::Variadic).with_attr("callee"));
    d
}

/// Builds a `func.func` with an entry block; returns `(op, entry_block)`.
pub fn build_func(
    m: &mut Module,
    parent: BlockId,
    name: &str,
    inputs: &[Type],
    outputs: &[Type],
) -> (OpId, BlockId) {
    let fty = Type::Function {
        inputs: inputs.to_vec(),
        outputs: outputs.to_vec(),
    };
    let f = m
        .build_op("func.func", [], [])
        .attr("sym_name", name)
        .attr("function_type", fty)
        .regions(1)
        .append_to(parent);
    let region = m.op(f).expect("just built").regions[0];
    let entry = m.add_block(region, inputs);
    (f, entry)
}

// ---------------------------------------------------------------------------
// arith
// ---------------------------------------------------------------------------

/// The `arith` dialect: scalar integer/float arithmetic and comparisons.
pub(crate) fn arith_dialect() -> Dialect {
    let mut d = Dialect::new("arith", "scalar arithmetic");
    d.register(
        OpSpec::new("constant", Arity::Exact(0), Arity::Exact(1))
            .with_attr("value")
            .with_trait(OpTrait::Pure)
            .with_trait(OpTrait::ConstantLike),
    );
    const FLOAT: &[Constraint] = &[
        Constraint::SameTypes,
        Constraint::Class(Port::Operands, TypeClass::FloatLike),
    ];
    const INT: &[Constraint] = &[
        Constraint::SameTypes,
        Constraint::Class(Port::Operands, TypeClass::IntOrIndex),
    ];
    for (names, arity, commutative, rules) in [
        (&["addf", "mulf", "maxf", "minf"][..], 2, true, FLOAT),
        (&["subf", "divf"], 2, false, FLOAT),
        (&["negf", "absf", "sqrt", "exp", "log"], 1, false, FLOAT),
        (&["addi", "muli", "andi", "ori", "xori"], 2, true, INT),
        (&["subi", "divsi", "remsi"], 2, false, INT),
    ] {
        for &name in names {
            let mut spec = OpSpec::new(name, Arity::Exact(arity), Arity::Exact(1))
                .with_trait(OpTrait::Pure)
                .with_constraints(rules);
            if commutative {
                spec = spec.with_trait(OpTrait::Commutative);
            }
            d.register(spec);
        }
    }
    for name in ["cmpf", "cmpi"] {
        d.register(
            OpSpec::new(name, Arity::Exact(2), Arity::Exact(1))
                .with_attr("predicate")
                .with_trait(OpTrait::Pure)
                .with_constraints(&[Constraint::Class(Port::Result(0, "result"), TypeClass::I1)]),
        );
    }
    d.register(
        OpSpec::new("select", Arity::Exact(3), Arity::Exact(1))
            .with_trait(OpTrait::Pure)
            .with_constraints(&[
                Constraint::Class(Port::Operand(0, "condition"), TypeClass::I1),
                Constraint::Equal(
                    Port::Operand(1, "true value"),
                    Port::Operand(2, "false value"),
                ),
            ]),
    );
    for name in ["index_cast", "sitofp", "fptosi", "extf", "truncf"] {
        d.register(OpSpec::new(name, Arity::Exact(1), Arity::Exact(1)).with_trait(OpTrait::Pure));
    }
    d
}

/// Builds an `arith.constant` float and returns its result value.
pub fn const_f64(m: &mut Module, block: BlockId, v: f64) -> ValueId {
    let op = m
        .build_op(CONSTANT, [], [])
        .result(TypeId::F64)
        .attr(VALUE, Attribute::Float(v))
        .append_to(block);
    single_result(m, op)
}

/// Builds an `arith.constant` index and returns its result value.
pub fn const_index(m: &mut Module, block: BlockId, v: i64) -> ValueId {
    let op = m
        .build_op(CONSTANT, [], [])
        .result(TypeId::INDEX)
        .attr(VALUE, Attribute::Int(v))
        .append_to(block);
    single_result(m, op)
}

/// Builds a binary `arith` op (e.g. `"arith.addf"`) and returns its result.
pub fn binary(
    m: &mut Module,
    block: BlockId,
    name: impl Into<Symbol>,
    lhs: ValueId,
    rhs: ValueId,
) -> ValueId {
    let ty = m.value_type_id(lhs);
    let op = m.build_op(name, [lhs, rhs], []).result(ty).append_to(block);
    single_result(m, op)
}

// ---------------------------------------------------------------------------
// scf
// ---------------------------------------------------------------------------

/// The `scf` dialect: structured control flow (`for`, `if`, `yield`).
pub(crate) fn scf_dialect() -> Dialect {
    let mut d = Dialect::new("scf", "structured control flow");
    d.register(
        OpSpec::new("for", Arity::AtLeast(3), Arity::Variadic)
            .with_regions(1)
            .with_constraints(&[
                Constraint::ForBody,
                Constraint::Class(Port::Operand(0, "lb"), TypeClass::Index),
                Constraint::Class(Port::Operand(1, "ub"), TypeClass::Index),
                Constraint::Class(Port::Operand(2, "step"), TypeClass::Index),
            ]),
    );
    d.register(OpSpec::new("if", Arity::Exact(1), Arity::Variadic).with_regions(2));
    d.register(
        OpSpec::new("yield", Arity::Variadic, Arity::Exact(0)).with_trait(OpTrait::Terminator),
    );
    d
}

/// Builds an `scf.for` over `[lb, ub) step` with no iter args; returns the
/// loop op and the body block (whose first argument is the induction
/// variable).
pub fn build_for(
    m: &mut Module,
    block: BlockId,
    lb: ValueId,
    ub: ValueId,
    step: ValueId,
) -> (OpId, BlockId) {
    let op = m
        .build_op(FOR, [lb, ub, step], [])
        .regions(1)
        .append_to(block);
    let region = m.op(op).expect("just built").regions[0];
    let body = m.add_block(region, &[Type::Index]);
    (op, body)
}

// ---------------------------------------------------------------------------
// memref
// ---------------------------------------------------------------------------

/// The `memref` dialect: mutable buffers.
pub(crate) fn memref_dialect() -> Dialect {
    let mut d = Dialect::new("memref", "mutable buffers");
    d.register(OpSpec::new("alloc", Arity::Exact(0), Arity::Exact(1)));
    d.register(OpSpec::new("dealloc", Arity::Exact(1), Arity::Exact(0)));
    d.register(
        OpSpec::new("load", Arity::AtLeast(1), Arity::Exact(1))
            .with_trait(OpTrait::Pure)
            .with_constraints(&[Constraint::MemrefAccess { base: 0 }]),
    );
    d.register(
        OpSpec::new("store", Arity::AtLeast(2), Arity::Exact(0))
            .with_constraints(&[Constraint::MemrefAccess { base: 1 }]),
    );
    d.register(OpSpec::new("copy", Arity::Exact(2), Arity::Exact(0)));
    d
}

/// Builds a `memref.alloc` of the given type; returns the buffer value.
pub fn alloc(m: &mut Module, block: BlockId, ty: Type) -> ValueId {
    let op = m.build_op("memref.alloc", [], [ty]).append_to(block);
    single_result(m, op)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::verify_module;

    fn ctx() -> crate::registry::Context {
        crate::registry::Context::with_all_dialects()
    }

    #[test]
    fn build_and_verify_function_with_loop() {
        let mut m = Module::new();
        let top = m.top_block();
        let (_f, entry) = build_func(&mut m, top, "axpy", &[Type::F64], &[Type::F64]);
        let x = m.block(entry).args[0];
        let lb = const_index(&mut m, entry, 0);
        let ub = const_index(&mut m, entry, 16);
        let step = const_index(&mut m, entry, 1);
        let (_loop, body) = build_for(&mut m, entry, lb, ub, step);
        m.build_op("scf.yield", [], []).append_to(body);
        m.build_op("func.return", [x], []).append_to(entry);
        verify_module(&ctx(), &m).unwrap();
    }

    #[test]
    fn func_with_wrong_entry_arity_fails_verification() {
        let mut m = Module::new();
        let top = m.top_block();
        let fty = Type::Function {
            inputs: vec![Type::F64, Type::F64],
            outputs: vec![],
        };
        let f = m
            .build_op("func.func", [], [])
            .attr("sym_name", "bad")
            .attr("function_type", fty)
            .regions(1)
            .append_to(top);
        let region = m.op(f).unwrap().regions[0];
        let entry = m.add_block(region, &[Type::F64]); // one arg, type wants two
        m.build_op("func.return", [], []).append_to(entry);
        let err = verify_module(&ctx(), &m).unwrap_err();
        assert!(err.to_string().contains("entry block has 1 arguments"));
    }

    #[test]
    fn scf_for_missing_induction_arg_fails() {
        let mut m = Module::new();
        let top = m.top_block();
        let lb = const_index(&mut m, top, 0);
        let ub = const_index(&mut m, top, 4);
        let step = const_index(&mut m, top, 1);
        let op = m
            .build_op("scf.for", [lb, ub, step], [])
            .regions(1)
            .append_to(top);
        let region = m.op(op).unwrap().regions[0];
        let body = m.add_block(region, &[]); // missing induction variable
        m.build_op("scf.yield", [], []).append_to(body);
        let err = verify_module(&ctx(), &m).unwrap_err();
        assert!(err.to_string().contains("induction variable"));
    }

    #[test]
    fn load_store_type_checks() {
        let mut m = Module::new();
        let top = m.top_block();
        let buf = alloc(
            &mut m,
            top,
            Type::memref(&[8], Type::F64, crate::types::MemorySpace::Plm),
        );
        let i = const_index(&mut m, top, 0);
        let load = m
            .build_op("memref.load", [buf, i], [Type::F64])
            .append_to(top);
        let v = single_result(&m, load);
        m.build_op("memref.store", [v, buf, i], []).append_to(top);
        verify_module(&ctx(), &m).unwrap();
    }

    #[test]
    fn load_with_wrong_rank_fails() {
        let mut m = Module::new();
        let top = m.top_block();
        let buf = alloc(
            &mut m,
            top,
            Type::memref(&[8, 8], Type::F64, crate::types::MemorySpace::Device),
        );
        let i = const_index(&mut m, top, 0);
        m.build_op("memref.load", [buf, i], [Type::F64])
            .append_to(top);
        let err = verify_module(&ctx(), &m).unwrap_err();
        assert!(err.to_string().contains("rank 2 indexed with 1"));
    }

    #[test]
    fn same_type_verifier_rejects_mixed_addf() {
        let mut m = Module::new();
        let top = m.top_block();
        let a = const_f64(&mut m, top, 1.0);
        let bop = m
            .build_op("arith.constant", [], [Type::F32])
            .attr("value", Attribute::Float(2.0))
            .append_to(top);
        let b = single_result(&m, bop);
        m.build_op("arith.addf", [a, b], [Type::F64]).append_to(top);
        let err = verify_module(&ctx(), &m).unwrap_err();
        assert!(err.to_string().contains("types differ"));
    }
}
