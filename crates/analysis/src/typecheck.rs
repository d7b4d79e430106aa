//! Type checking lints: every op against the type and attribute rules
//! its spec declares, and memory-space consistency at kernel
//! boundaries.

use everest_ir::module::Module;
use everest_ir::registry::Context;
use everest_ir::types::{MemorySpace, Type};

use crate::diagnostics::Severity;
use crate::lint::{Collector, Lint, LintInfo};

/// The collecting form of the verifier's type and attribute rules: one
/// `type-mismatch` finding per [`Constraint`](everest_ir::constraint::Constraint)
/// an op violates, from the same lists its
/// [`OpSpec`](everest_ir::registry::OpSpec) declares, in every op of the
/// module instead of at the first.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct TypeCheck;

const TYPECHECK_LINTS: &[LintInfo] = &[LintInfo {
    id: "type-mismatch",
    description: "operand, result or attribute violates the op's declared contract",
    default_severity: Severity::Deny,
}];

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
            for constraint in ctx.constraints(operation.name) {
                if let Err(message) = constraint.check(module, operation) {
                    out.emit("type-mismatch", op, message);
                }
            }
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
