//! The `type-mismatch` lint before it read the declared `Constraint`
//! lists: its own op-name tables and four checks, kept verbatim apart
//! from imports and the one check that asked for the
//! `SameOperandResultTypes` trait, which is gone: it reads the table of
//! the ops that declared it, and leaves its context unused.

use everest_analysis::{Collector, Lint, LintInfo, Severity};
use everest_ir::ids::OpId;
use everest_ir::module::{Module, Operation};
use everest_ir::registry::Context;
use everest_ir::types::Type;

use super::verifiers;

const FLOAT_OPS: &[&str] = &[
    "arith.addf",
    "arith.subf",
    "arith.mulf",
    "arith.divf",
    "arith.maxf",
    "arith.minf",
    "arith.negf",
    "arith.absf",
    "arith.sqrt",
    "arith.exp",
    "arith.log",
];

const INT_OPS: &[&str] = &[
    "arith.addi",
    "arith.subi",
    "arith.muli",
    "arith.divsi",
    "arith.remsi",
    "arith.andi",
    "arith.ori",
    "arith.xori",
];

/// Validates operand/result types against what each dialect op expects.
///
/// This is the collecting counterpart of the per-op verifiers: it runs
/// the same kind of checks but records *every* mismatch in the module
/// instead of failing at the first one, and adds checks the verifiers
/// do not express (float ops on non-float types, index-typed loop
/// bounds, return types against the function signature).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct TypeCheck;

const TYPECHECK_LINTS: &[LintInfo] = &[LintInfo {
    id: "type-mismatch",
    description: "operand or result type violates the op's dialect contract",
    default_severity: Severity::Deny,
}];

const ID: &str = "type-mismatch";

impl Lint for TypeCheck {
    fn name(&self) -> &'static str {
        "type-check"
    }

    fn lints(&self) -> &'static [LintInfo] {
        TYPECHECK_LINTS
    }

    fn run(&self, ctx: &Context, module: &Module, out: &mut Collector<'_>) {
        for op in module.walk_ops() {
            let Some(operation) = module.op(op) else {
                continue;
            };
            check_same_operand_result_types(ctx, module, op, operation, out);
            check_arith(module, op, operation, out);
            check_memref_access(module, op, operation, out);
            check_loop_bounds(module, op, operation, out);
            check_return_types(module, op, operation, out);
        }
    }
}

fn check_same_operand_result_types(
    _ctx: &Context,
    module: &Module,
    op: OpId,
    operation: &Operation,
    out: &mut Collector<'_>,
) {
    if !verifiers::SAME_OPERAND_RESULT_TYPES.contains(&operation.name.as_str()) {
        return;
    }
    let mut types = operation
        .operands
        .iter()
        .chain(&operation.results)
        .map(|&v| module.value_type(v));
    let Some(first) = types.next() else {
        return;
    };
    for t in types {
        if t != first {
            out.emit(
                ID,
                op,
                format!("operand/result types differ: {first} vs {t}"),
            );
            return;
        }
    }
}

fn check_arith(module: &Module, op: OpId, operation: &Operation, out: &mut Collector<'_>) {
    if FLOAT_OPS.contains(&operation.name.as_str()) {
        for &v in &operation.operands {
            let ty = module.value_type(v);
            if !ty.is_float_like() {
                out.emit(ID, op, format!("float arithmetic on non-float type {ty}"));
                return;
            }
        }
    }
    if INT_OPS.contains(&operation.name.as_str()) {
        for &v in &operation.operands {
            let ty = module.value_type(v);
            if !matches!(ty, Type::Int(_) | Type::Index) {
                out.emit(
                    ID,
                    op,
                    format!("integer arithmetic on non-integer type {ty}"),
                );
                return;
            }
        }
    }
    if matches!(operation.name.as_str(), "arith.cmpf" | "arith.cmpi") {
        if let Some(&r) = operation.results.first() {
            let ty = module.value_type(r);
            if *ty != Type::Int(1) {
                out.emit(ID, op, format!("comparison must produce i1, got {ty}"));
            }
        }
    }
    if operation.name == "arith.select" && operation.operands.len() == 3 {
        let cond = module.value_type(operation.operands[0]);
        if *cond != Type::Int(1) {
            out.emit(ID, op, format!("select condition must be i1, got {cond}"));
        }
        let a = module.value_type(operation.operands[1]);
        let b = module.value_type(operation.operands[2]);
        if a != b {
            out.emit(
                ID,
                op,
                format!("select arms have different types: {a} vs {b}"),
            );
        }
    }
}

fn check_memref_access(module: &Module, op: OpId, operation: &Operation, out: &mut Collector<'_>) {
    let (base_index, index_start) = match operation.name.as_str() {
        "memref.load" => (0, 1),
        "memref.store" => (1, 2),
        _ => return,
    };
    if operation.operands.len() <= base_index {
        return;
    }
    let base = module.value_type(operation.operands[base_index]);
    let Type::MemRef { elem, .. } = base else {
        out.emit(ID, op, format!("expected a memref operand, got {base}"));
        return;
    };
    for &idx in &operation.operands[index_start..] {
        let ty = module.value_type(idx);
        if *ty != Type::Index {
            out.emit(
                ID,
                op,
                format!("memref index must be index-typed, got {ty}"),
            );
        }
    }
    match operation.name.as_str() {
        "memref.load" => {
            if let Some(&r) = operation.results.first() {
                let rty = module.value_type(r);
                if rty != elem.as_ref() {
                    out.emit(
                        ID,
                        op,
                        format!("load result {rty} does not match element type {elem}"),
                    );
                }
            }
        }
        "memref.store" => {
            let sty = module.value_type(operation.operands[0]);
            if sty != elem.as_ref() {
                out.emit(
                    ID,
                    op,
                    format!("stored value {sty} does not match element type {elem}"),
                );
            }
        }
        _ => {}
    }
}

fn check_loop_bounds(module: &Module, op: OpId, operation: &Operation, out: &mut Collector<'_>) {
    if operation.name != "scf.for" || operation.operands.len() < 3 {
        return;
    }
    for (&v, role) in operation.operands[..3].iter().zip(["lb", "ub", "step"]) {
        let ty = module.value_type(v);
        if *ty != Type::Index {
            out.emit(
                ID,
                op,
                format!("scf.for {role} must be index-typed, got {ty}"),
            );
        }
    }
}

fn check_return_types(module: &Module, op: OpId, operation: &Operation, out: &mut Collector<'_>) {
    if operation.name != "func.func" {
        return;
    }
    let Some(Type::Function { outputs, .. }) =
        operation.attr("function_type").and_then(|a| a.as_type())
    else {
        return;
    };
    let Some(&region) = operation.regions.first() else {
        return;
    };
    for &block in &module.region(region).blocks {
        let Some(&last) = module.block(block).ops.last() else {
            continue;
        };
        let Some(ret) = module.op(last) else {
            continue;
        };
        if ret.name != "func.return" {
            continue;
        }
        let got: Vec<&Type> = ret.operands.iter().map(|&v| module.value_type(v)).collect();
        if got.len() != outputs.len() || got.iter().zip(outputs).any(|(g, w)| **g != *w) {
            out.emit(
                ID,
                op,
                format!(
                    "return types {:?} do not match signature outputs {:?}",
                    got.iter().map(|t| t.to_string()).collect::<Vec<_>>(),
                    outputs.iter().map(|t| t.to_string()).collect::<Vec<_>>()
                ),
            );
        }
    }
}
