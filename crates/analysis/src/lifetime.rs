//! Memref lifetime analysis: use-after-dealloc, double-dealloc, leaked
//! allocations and statically out-of-bounds constant accesses.

use std::collections::HashSet;

use everest_ir::ids::ValueId;
use everest_ir::module::{Module, Operation, ValueDef};
use everest_ir::registry::Context;
use everest_ir::types::Type;

use crate::diagnostics::Severity;
use crate::lint::{Collector, Lint, LintInfo};

/// Lifetime analysis over `memref` buffers.
///
/// Walks the module in program order tracking each buffer's state
/// (live, freed), checks every constant-indexed access against the
/// static shape, and reports allocations that neither escape nor get
/// deallocated.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct MemrefLifetime;

const LIFETIME_LINTS: &[LintInfo] = &[
    LintInfo {
        id: "memref-use-after-free",
        description: "buffer used after memref.dealloc",
        default_severity: Severity::Deny,
    },
    LintInfo {
        id: "memref-double-free",
        description: "buffer deallocated twice",
        default_severity: Severity::Deny,
    },
    LintInfo {
        id: "memref-leak",
        description: "allocation neither deallocated nor escaping",
        default_severity: Severity::Warn,
    },
    LintInfo {
        id: "memref-out-of-bounds",
        description: "constant index provably outside the static shape",
        default_severity: Severity::Deny,
    },
];

/// Ops whose use of a buffer hands it to another owner, so the
/// allocation is not this scope's to free.
const ESCAPE_OPS: &[&str] = &[
    "func.return",
    "olympus.dma",
    "scf.yield",
    "dfg.yield",
    "olympus.yield",
    "func.call",
    "olympus.kernel",
];

impl Lint for MemrefLifetime {
    fn name(&self) -> &'static str {
        "memref-lifetime"
    }

    fn lints(&self) -> &'static [LintInfo] {
        LIFETIME_LINTS
    }

    fn run(&self, _ctx: &Context, module: &Module, out: &mut Collector<'_>) {
        check_free_order(module, out);
        check_leaks(module, out);
        check_bounds(module, out);
    }
}

/// Use-after-free and double-free, over the module's program order.
fn check_free_order(module: &Module, out: &mut Collector<'_>) {
    let mut freed: HashSet<ValueId> = HashSet::new();
    for op in module.walk_ops() {
        let Some(operation) = module.op(op) else {
            continue;
        };
        if operation.name == "memref.dealloc" {
            let Some(&buf) = operation.operands.first() else {
                continue;
            };
            if !freed.insert(buf) {
                out.emit(
                    "memref-double-free",
                    op,
                    "buffer was already deallocated earlier in the program",
                );
            }
            continue;
        }
        for &v in &operation.operands {
            if freed.contains(&v) {
                out.emit(
                    "memref-use-after-free",
                    op,
                    "operand buffer was deallocated earlier in the program",
                );
            }
        }
    }
}

/// Allocations with no dealloc and no escaping use.
fn check_leaks(module: &Module, out: &mut Collector<'_>) {
    // One sweep over every live op, attached or not, marks the values
    // some user deallocates or hands to another owner.
    let mut released = vec![false; module.num_values()];
    for (_, user) in module.live_ops() {
        if user.name == "memref.dealloc" || ESCAPE_OPS.contains(&user.name.as_str()) {
            for v in &user.operands {
                if let Some(slot) = released.get_mut(v.index()) {
                    *slot = true;
                }
            }
        }
    }
    for op in module.walk_ops() {
        let Some(operation) = module.op(op) else {
            continue;
        };
        if operation.name != "memref.alloc" {
            continue;
        }
        let Some(&buf) = operation.results.first() else {
            continue;
        };
        if !released[buf.index()] {
            out.emit(
                "memref-leak",
                op,
                "allocation is never deallocated and never escapes this module",
            );
        }
    }
}

/// Constant-index accesses checked against static shapes.
fn check_bounds(module: &Module, out: &mut Collector<'_>) {
    for op in module.walk_ops() {
        let Some(operation) = module.op(op) else {
            continue;
        };
        let (base_index, index_start) = match operation.name.as_str() {
            "memref.load" => (0, 1),
            "memref.store" => (1, 2),
            _ => continue,
        };
        if operation.operands.len() <= base_index {
            continue;
        }
        let Type::MemRef { shape, .. } = module.value_type(operation.operands[base_index]) else {
            continue;
        };
        let indices = &operation.operands[index_start..];
        for (dim, &idx) in shape.iter().zip(indices) {
            let (Some(extent), Some(value)) = (dim, constant_index(module, idx)) else {
                continue;
            };
            if value < 0 || value as u64 >= *extent {
                out.emit(
                    "memref-out-of-bounds",
                    op,
                    format!("index {value} outside dimension of extent {extent}"),
                );
            }
        }
    }
}

/// The constant value of `v`, when it is defined by an `arith.constant`.
fn constant_index(module: &Module, v: ValueId) -> Option<i64> {
    let ValueDef::OpResult { op, .. } = module.value(v).def else {
        return None;
    };
    let operation: &Operation = module.op(op)?;
    if operation.name != "arith.constant" {
        return None;
    }
    operation.int_attr("value")
}

#[cfg(test)]
mod tests {
    use super::*;
    use everest_ir::dialects::core;
    use everest_ir::types::MemorySpace;

    use crate::lint::Analyzer;
    use crate::report::AnalysisReport;

    fn run(m: &Module) -> AnalysisReport {
        Analyzer::new()
            .with_lint(Box::new(MemrefLifetime))
            .run(&Context::with_all_dialects(), m)
    }

    fn buf_ty() -> Type {
        Type::memref(&[8], Type::F64, MemorySpace::Host)
    }

    #[test]
    fn balanced_alloc_use_dealloc_is_clean() {
        let mut m = Module::new();
        let top = m.top_block();
        let buf = core::alloc(&mut m, top, buf_ty());
        let i = core::const_index(&mut m, top, 3);
        let v = core::const_f64(&mut m, top, 1.0);
        m.build_op("memref.store", [v, buf, i], []).append_to(top);
        m.build_op("memref.dealloc", [buf], []).append_to(top);
        assert!(run(&m).is_clean());
    }

    #[test]
    fn use_after_dealloc_is_flagged() {
        let mut m = Module::new();
        let top = m.top_block();
        let buf = core::alloc(&mut m, top, buf_ty());
        let i = core::const_index(&mut m, top, 0);
        m.build_op("memref.dealloc", [buf], []).append_to(top);
        m.build_op("memref.load", [buf, i], [Type::F64])
            .append_to(top);
        let report = run(&m);
        assert_eq!(report.by_lint("memref-use-after-free").len(), 1);
        assert!(report.has_denials());
    }

    #[test]
    fn double_dealloc_is_flagged() {
        let mut m = Module::new();
        let top = m.top_block();
        let buf = core::alloc(&mut m, top, buf_ty());
        m.build_op("memref.dealloc", [buf], []).append_to(top);
        m.build_op("memref.dealloc", [buf], []).append_to(top);
        let report = run(&m);
        assert_eq!(report.by_lint("memref-double-free").len(), 1);
    }

    #[test]
    fn leaked_allocation_is_flagged_but_escaping_one_is_not() {
        let mut m = Module::new();
        let top = m.top_block();
        // Leaked: never used again.
        core::alloc(&mut m, top, buf_ty());
        // Escaping: passed to a kernel, whose runtime owns staging.
        let staged = core::alloc(&mut m, top, buf_ty());
        m.build_op("olympus.kernel", [staged], [])
            .attr("callee", everest_ir::Attribute::SymbolRef("k".into()))
            .append_to(top);
        let report = run(&m);
        assert_eq!(report.by_lint("memref-leak").len(), 1);
    }

    #[test]
    fn every_alloc_is_judged_by_its_own_users_attached_or_not() {
        let mut m = Module::new();
        let top = m.top_block();
        let (_f, entry) = core::build_func(&mut m, top, "f", &[], &[]);
        let freed_in_loop = core::alloc(&mut m, entry, buf_ty());
        let returned = core::alloc(&mut m, entry, buf_ty());
        let leaked = core::alloc(&mut m, entry, buf_ty());
        let freed_by_detached = core::alloc(&mut m, entry, buf_ty());
        let lb = core::const_index(&mut m, entry, 0);
        let (_loop, body) = core::build_for(&mut m, entry, lb, lb, lb);
        // A user in another block releases it; a plain use does not.
        m.build_op("memref.dealloc", [freed_in_loop], [])
            .append_to(body);
        m.build_op("memref.load", [leaked, lb], [Type::F64])
            .append_to(body);
        m.build_op("scf.yield", [], []).append_to(body);
        m.build_op("func.return", [returned], []).append_to(entry);
        // A rewrite in flight: built, not yet inserted, still a user.
        m.build_op("memref.dealloc", [freed_by_detached], [])
            .detached();
        let report = run(&m);
        let leaks = report.by_lint("memref-leak");
        assert_eq!(leaks.len(), 1);
        let leaked_at = leaks[0].path.as_ref().unwrap().leaf().unwrap().position;
        assert_eq!(leaked_at, 2, "the third alloc of the entry block");
    }

    #[test]
    fn constant_index_out_of_bounds_is_flagged() {
        let mut m = Module::new();
        let top = m.top_block();
        let buf = core::alloc(&mut m, top, buf_ty());
        let i = core::const_index(&mut m, top, 8); // extent is 8: max valid 7
        m.build_op("memref.load", [buf, i], [Type::F64])
            .append_to(top);
        m.build_op("memref.dealloc", [buf], []).append_to(top);
        let report = run(&m);
        assert_eq!(report.by_lint("memref-out-of-bounds").len(), 1);
        assert!(report.diagnostics[0].message.contains("index 8"));
    }

    #[test]
    fn in_bounds_and_dynamic_indices_are_clean() {
        let mut m = Module::new();
        let top = m.top_block();
        let buf = core::alloc(&mut m, top, buf_ty());
        let i = core::const_index(&mut m, top, 7);
        m.build_op("memref.load", [buf, i], [Type::F64])
            .append_to(top);
        // Dynamic index: computed, not a constant — no static claim.
        let j = core::binary(&mut m, top, "arith.addi", i, i);
        m.build_op("memref.load", [buf, j], [Type::F64])
            .append_to(top);
        m.build_op("memref.dealloc", [buf], []).append_to(top);
        assert!(run(&m).is_clean());
    }
}
