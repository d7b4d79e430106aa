//! Type checking lints: operand/result types against dialect
//! expectations, and memory-space consistency at kernel boundaries.

use everest_ir::ids::OpId;
use everest_ir::module::{Module, Operation};
use everest_ir::registry::{Context, OpTrait};
use everest_ir::types::{MemorySpace, Type};

use crate::diagnostics::Severity;
use crate::lint::{Collector, Lint, LintInfo};

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
    ctx: &Context,
    module: &Module,
    op: OpId,
    operation: &Operation,
    out: &mut Collector<'_>,
) {
    if !ctx.has_trait(operation.name, OpTrait::SameOperandResultTypes) {
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

/// Memory-space consistency at kernel boundaries (paper §V-C: Olympus
/// distinguishes host, device and PLM memories when generating the
/// data-movement architecture).
///
/// Flags host-space buffers handed directly to FPGA kernels, DMA ops
/// whose declared direction contradicts their operand spaces, and
/// cross-space `memref.copy` that should be an `olympus.dma`.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct MemorySpaceCheck;

const MEMSPACE_LINTS: &[LintInfo] = &[LintInfo {
    id: "memory-space",
    description: "memory-space mismatch at a kernel or DMA boundary",
    default_severity: Severity::Warn,
}];

const MS: &str = "memory-space";

fn space_of(module: &Module, v: everest_ir::ids::ValueId) -> Option<MemorySpace> {
    match module.value_type(v) {
        Type::MemRef { space, .. } => Some(*space),
        _ => None,
    }
}

impl Lint for MemorySpaceCheck {
    fn name(&self) -> &'static str {
        "memory-space-check"
    }

    fn lints(&self) -> &'static [LintInfo] {
        MEMSPACE_LINTS
    }

    fn run(&self, _ctx: &Context, module: &Module, out: &mut Collector<'_>) {
        for op in module.walk_ops() {
            let Some(operation) = module.op(op) else {
                continue;
            };
            match operation.name.as_str() {
                "olympus.kernel" => {
                    for &v in &operation.operands {
                        if space_of(module, v) == Some(MemorySpace::Host) {
                            out.emit(
                                MS,
                                op,
                                "kernel consumes a host-space buffer directly; \
                                 stage it through device memory or PLM via DMA",
                            );
                        }
                    }
                }
                "olympus.dma" => {
                    let Some(dir) = operation.str_attr("direction") else {
                        continue;
                    };
                    if operation.operands.len() != 2 {
                        continue;
                    }
                    let src = space_of(module, operation.operands[0]);
                    let dst = space_of(module, operation.operands[1]);
                    let (Some(src), Some(dst)) = (src, dst) else {
                        continue;
                    };
                    let ok = match dir {
                        "h2d" => src == MemorySpace::Host && dst != MemorySpace::Host,
                        "d2h" => src != MemorySpace::Host && dst == MemorySpace::Host,
                        "d2d" => src != MemorySpace::Host && dst != MemorySpace::Host,
                        _ => true,
                    };
                    if !ok {
                        out.emit(
                            MS,
                            op,
                            format!(
                                "dma direction '{dir}' contradicts operand spaces {src} -> {dst}"
                            ),
                        );
                    }
                }
                "memref.copy" => {
                    if operation.operands.len() != 2 {
                        continue;
                    }
                    let src = space_of(module, operation.operands[0]);
                    let dst = space_of(module, operation.operands[1]);
                    if let (Some(src), Some(dst)) = (src, dst) {
                        if src != dst {
                            out.emit(
                                MS,
                                op,
                                format!(
                                    "copy crosses memory spaces ({src} -> {dst}); \
                                     use olympus.dma so the transfer is scheduled"
                                ),
                            );
                        }
                    }
                }
                _ => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use everest_ir::attr::Attribute;
    use everest_ir::dialects::core;

    use crate::lint::Analyzer;

    fn ctx() -> Context {
        Context::with_all_dialects()
    }

    fn typecheck(m: &Module) -> crate::report::AnalysisReport {
        Analyzer::new()
            .with_lint(Box::new(TypeCheck))
            .run(&ctx(), m)
    }

    fn memspace(m: &Module) -> crate::report::AnalysisReport {
        Analyzer::new()
            .with_lint(Box::new(MemorySpaceCheck))
            .run(&ctx(), m)
    }

    #[test]
    fn clean_arithmetic_module_has_no_findings() {
        let mut m = Module::new();
        let top = m.top_block();
        let a = core::const_f64(&mut m, top, 1.0);
        let b = core::const_f64(&mut m, top, 2.0);
        core::binary(&mut m, top, "arith.addf", a, b);
        assert!(typecheck(&m).is_clean());
    }

    #[test]
    fn float_op_on_index_operands_is_flagged() {
        let mut m = Module::new();
        let top = m.top_block();
        let i = core::const_index(&mut m, top, 1);
        let j = core::const_index(&mut m, top, 2);
        // Same operand/result types (all index), so only the float check
        // can catch this.
        m.build_op("arith.addf", [i, j], [Type::Index])
            .append_to(top);
        let report = typecheck(&m);
        assert_eq!(report.by_lint("type-mismatch").len(), 1);
        assert!(report.diagnostics[0].message.contains("non-float"));
        assert!(report.has_denials(), "type-mismatch defaults to deny");
    }

    #[test]
    fn all_mismatches_are_collected_not_just_the_first() {
        let mut m = Module::new();
        let top = m.top_block();
        let i = core::const_index(&mut m, top, 1);
        let f = core::const_f64(&mut m, top, 1.0);
        m.build_op("arith.addf", [i, i], [Type::Index])
            .append_to(top);
        m.build_op("arith.addi", [f, f], [Type::F64]).append_to(top);
        let report = typecheck(&m);
        assert_eq!(report.diagnostics.len(), 2, "{}", report.to_text());
    }

    #[test]
    fn mismatched_same_type_trait_is_flagged() {
        let mut m = Module::new();
        let top = m.top_block();
        let a = core::const_f64(&mut m, top, 1.0);
        let b = core::const_f64(&mut m, top, 2.0);
        m.build_op("arith.addf", [a, b], [Type::F32]).append_to(top);
        let report = typecheck(&m);
        assert!(!report.is_clean());
        assert!(report.diagnostics[0].message.contains("differ"));
    }

    #[test]
    fn return_type_mismatch_is_flagged_with_path() {
        let mut m = Module::new();
        let top = m.top_block();
        let (_f, entry) = core::build_func(&mut m, top, "f", &[], &[Type::F64]);
        let i = core::const_index(&mut m, entry, 3);
        m.build_op("func.return", [i], []).append_to(entry);
        let report = typecheck(&m);
        assert_eq!(report.diagnostics.len(), 1);
        assert!(report.diagnostics[0].message.contains("signature"));
        assert!(report.diagnostics[0].path.is_some());
    }

    #[test]
    fn loop_bounds_must_be_index_typed() {
        let mut m = Module::new();
        let top = m.top_block();
        let lb = core::const_index(&mut m, top, 0);
        let ub = core::const_f64(&mut m, top, 4.0);
        let step = core::const_index(&mut m, top, 1);
        let for_op = m
            .build_op("scf.for", [lb, ub, step], [])
            .regions(1)
            .append_to(top);
        let region = m.op(for_op).unwrap().regions[0];
        let body = m.add_block(region, &[Type::Index]);
        m.build_op("scf.yield", [], []).append_to(body);
        let report = typecheck(&m);
        assert_eq!(report.diagnostics.len(), 1);
        assert!(report.diagnostics[0].message.contains("ub"));
    }

    #[test]
    fn host_buffer_into_kernel_is_flagged() {
        let mut m = Module::new();
        let top = m.top_block();
        let host = core::alloc(
            &mut m,
            top,
            Type::memref(&[8], Type::F64, MemorySpace::Host),
        );
        m.build_op("olympus.kernel", [host], [])
            .attr("callee", Attribute::SymbolRef("k".into()))
            .append_to(top);
        let report = memspace(&m);
        assert_eq!(report.by_lint("memory-space").len(), 1);
        assert!(report.diagnostics[0].message.contains("host-space"));
    }

    #[test]
    fn staged_kernel_io_is_clean() {
        let mut m = Module::new();
        let top = m.top_block();
        let host = core::alloc(
            &mut m,
            top,
            Type::memref(&[8], Type::F64, MemorySpace::Host),
        );
        let dev = core::alloc(
            &mut m,
            top,
            Type::memref(&[8], Type::F64, MemorySpace::Device),
        );
        m.build_op("olympus.dma", [host, dev], [])
            .attr("direction", "h2d")
            .append_to(top);
        m.build_op("olympus.kernel", [dev], [])
            .attr("callee", Attribute::SymbolRef("k".into()))
            .append_to(top);
        assert!(memspace(&m).is_clean());
    }

    #[test]
    fn dma_direction_contradicting_spaces_is_flagged() {
        let mut m = Module::new();
        let top = m.top_block();
        let host = core::alloc(
            &mut m,
            top,
            Type::memref(&[8], Type::F64, MemorySpace::Host),
        );
        let dev = core::alloc(
            &mut m,
            top,
            Type::memref(&[8], Type::F64, MemorySpace::Device),
        );
        m.build_op("olympus.dma", [dev, host], [])
            .attr("direction", "h2d")
            .append_to(top);
        let report = memspace(&m);
        assert_eq!(report.diagnostics.len(), 1);
        assert!(report.diagnostics[0].message.contains("h2d"));
    }

    #[test]
    fn cross_space_copy_is_flagged() {
        let mut m = Module::new();
        let top = m.top_block();
        let dev = core::alloc(
            &mut m,
            top,
            Type::memref(&[4], Type::F64, MemorySpace::Device),
        );
        let plm = core::alloc(&mut m, top, Type::memref(&[4], Type::F64, MemorySpace::Plm));
        m.build_op("memref.copy", [dev, plm], []).append_to(top);
        let report = memspace(&m);
        assert_eq!(report.diagnostics.len(), 1);
        assert!(report.diagnostics[0].message.contains("olympus.dma"));
    }
}
