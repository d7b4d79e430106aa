//! HLS pre-synthesis lints: patterns that inflate the initiation
//! interval or block loop pipelining when the module reaches the HLS
//! engine.

use everest_ir::ids::{OpId, ValueId};
use everest_ir::module::{Module, Operation, ValueDef};
use everest_ir::registry::{Context, OpTrait};

use crate::diagnostics::Severity;
use crate::lint::{Collector, Lint, LintInfo};

/// Pre-synthesis checks over `scf.for` loops.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct HlsPreSynthesis;

const HLS_LINTS: &[LintInfo] = &[
    LintInfo {
        id: "hls-loop-invariant",
        description: "loop-invariant computation re-evaluated every iteration",
        default_severity: Severity::Warn,
    },
    LintInfo {
        id: "hls-unpipelinable",
        description: "pattern that prevents pipelining the loop (II > 1)",
        default_severity: Severity::Warn,
    },
];

impl Lint for HlsPreSynthesis {
    fn name(&self) -> &'static str {
        "hls-presynthesis"
    }

    fn lints(&self) -> &'static [LintInfo] {
        HLS_LINTS
    }

    fn run(&self, ctx: &Context, module: &Module, out: &mut Collector<'_>) {
        // Built at the first loop: a module without one pays nothing.
        let mut sets = None;
        for op in module.walk_ops() {
            let Some(operation) = module.op(op) else {
                continue;
            };
            if operation.name == "scf.for" {
                let (inside, loaded) =
                    sets.get_or_insert_with(|| (ValueSet::new(module), ValueSet::new(module)));
                check_loop(ctx, module, op, operation, inside, loaded, out);
            }
        }
    }
}

/// A set of a module's values that is emptied in O(1): one stamp per
/// [`ValueId`], a member when it carries the current generation. The
/// lint asks two such sets of every loop, so they are allocated once a
/// run instead of hashed once a loop.
struct ValueSet {
    stamps: Vec<u32>,
    generation: u32,
}

impl ValueSet {
    fn new(module: &Module) -> Self {
        ValueSet {
            stamps: vec![0; module.num_values()],
            generation: 1,
        }
    }

    fn clear(&mut self) {
        self.generation += 1;
    }

    fn insert(&mut self, v: ValueId) {
        self.stamps[v.index()] = self.generation;
    }

    fn contains(&self, v: ValueId) -> bool {
        self.stamps[v.index()] == self.generation
    }
}

fn check_loop(
    ctx: &Context,
    module: &Module,
    for_op: OpId,
    operation: &Operation,
    inside: &mut ValueSet,
    loaded: &mut ValueSet,
    out: &mut Collector<'_>,
) {
    // Everything defined inside the loop (op results and block args of
    // every nested block, including inner loops).
    let body_ops = module.walk_nested(for_op);
    inside.clear();
    for &region in &operation.regions {
        collect_block_args(module, region, inside);
    }
    for &op in &body_ops {
        if let Some(o) = module.op(op) {
            for &r in &o.results {
                inside.insert(r);
            }
        }
    }

    let induction = operation
        .regions
        .first()
        .and_then(|&r| module.region(r).blocks.first())
        .and_then(|&b| module.block(b).args.first())
        .copied();

    for &op in &body_ops {
        let Some(o) = module.op(op) else {
            continue;
        };
        check_invariant(ctx, op, o, inside, out);
        check_inner_trip_count(ctx, module, op, o, out);
    }
    check_memory_dependency(module, &body_ops, induction, loaded, out);
}

fn collect_block_args(module: &Module, region: everest_ir::ids::RegionId, inside: &mut ValueSet) {
    for &block in &module.region(region).blocks {
        for &arg in &module.block(block).args {
            inside.insert(arg);
        }
        for &op in &module.block(block).ops {
            if let Some(o) = module.op(op) {
                for &nested in &o.regions {
                    collect_block_args(module, nested, inside);
                }
            }
        }
    }
}

/// A pure, non-constant op whose operands all come from outside the
/// loop recomputes the same value every iteration: HLS replicates the
/// datapath (or lengthens the II) for work LICM could hoist.
fn check_invariant(
    ctx: &Context,
    op: OpId,
    operation: &Operation,
    inside: &ValueSet,
    out: &mut Collector<'_>,
) {
    if !ctx.has_trait(operation.name, OpTrait::Pure)
        || ctx.has_trait(operation.name, OpTrait::ConstantLike)
        || !operation.regions.is_empty()
        || operation.operands.is_empty()
    {
        return;
    }
    if operation.operands.iter().all(|&v| !inside.contains(v)) {
        out.emit(
            "hls-loop-invariant",
            op,
            "operands are all loop-invariant; hoist this op out of the \
             loop before synthesis",
        );
    }
}

/// An inner loop whose upper bound is not a compile-time constant
/// cannot be unrolled or flattened, so the enclosing loop cannot be
/// pipelined with a fixed initiation interval.
fn check_inner_trip_count(
    ctx: &Context,
    module: &Module,
    op: OpId,
    operation: &Operation,
    out: &mut Collector<'_>,
) {
    if operation.name != "scf.for" || operation.operands.len() < 2 {
        return;
    }
    let ub = operation.operands[1];
    let ValueDef::OpResult { op: def, .. } = module.value(ub).def else {
        // Upper bound is a block argument: data-dependent trip count.
        out.emit(
            "hls-unpipelinable",
            op,
            "inner loop trip count is data-dependent; the outer loop \
             cannot be pipelined with a fixed initiation interval",
        );
        return;
    };
    let constant = module
        .op(def)
        .is_some_and(|o| ctx.has_trait(o.name, OpTrait::ConstantLike));
    if !constant {
        out.emit(
            "hls-unpipelinable",
            op,
            "inner loop upper bound is computed at runtime; the outer \
             loop cannot be pipelined with a fixed initiation interval",
        );
    }
}

/// A buffer both stored through a computed index and loaded in the same
/// loop body carries a potential inter-iteration dependency through
/// memory, forcing II > 1.
fn check_memory_dependency(
    module: &Module,
    body_ops: &[OpId],
    induction: Option<ValueId>,
    loaded: &mut ValueSet,
    out: &mut Collector<'_>,
) {
    loaded.clear();
    for &op in body_ops {
        let Some(o) = module.op(op) else {
            continue;
        };
        if o.name == "memref.load" {
            if let Some(&buf) = o.operands.first() {
                loaded.insert(buf);
            }
        }
    }
    for &op in body_ops {
        let Some(o) = module.op(op) else {
            continue;
        };
        if o.name != "memref.store" || o.operands.len() < 3 {
            continue;
        }
        let buf = o.operands[1];
        if !loaded.contains(buf) {
            continue;
        }
        let computed_index = o.operands[2..]
            .iter()
            .any(|&idx| Some(idx) != induction && !is_constant(module, idx));
        if computed_index {
            out.emit(
                "hls-unpipelinable",
                op,
                "store through a computed index into a buffer also read in \
                 this loop: potential loop-carried dependency (II > 1)",
            );
        }
    }
}

fn is_constant(module: &Module, v: ValueId) -> bool {
    let ValueDef::OpResult { op, .. } = module.value(v).def else {
        return false;
    };
    module.op(op).is_some_and(|o| o.name == "arith.constant")
}

#[cfg(test)]
mod tests {
    use super::*;
    use everest_ir::dialects::core;
    use everest_ir::types::{MemorySpace, Type};

    use crate::lint::Analyzer;
    use crate::report::AnalysisReport;

    fn run(m: &Module) -> AnalysisReport {
        Analyzer::new()
            .with_lint(Box::new(HlsPreSynthesis))
            .run(&Context::with_all_dialects(), m)
    }

    fn loop_bounds(m: &mut Module, top: everest_ir::BlockId) -> (ValueId, ValueId, ValueId) {
        (
            core::const_index(m, top, 0),
            core::const_index(m, top, 8),
            core::const_index(m, top, 1),
        )
    }

    #[test]
    fn loop_invariant_computation_is_flagged() {
        let mut m = Module::new();
        let top = m.top_block();
        let x = core::const_f64(&mut m, top, 3.0);
        let (lb, ub, step) = loop_bounds(&mut m, top);
        let (_f, body) = core::build_for(&mut m, top, lb, ub, step);
        // x * x does not depend on the induction variable.
        core::binary(&mut m, body, "arith.mulf", x, x);
        m.build_op("scf.yield", [], []).append_to(body);
        let report = run(&m);
        assert_eq!(report.by_lint("hls-loop-invariant").len(), 1);
        assert!(report.diagnostics[0].message.contains("hoist"));
    }

    #[test]
    fn induction_dependent_computation_is_clean() {
        let mut m = Module::new();
        let top = m.top_block();
        let (lb, ub, step) = loop_bounds(&mut m, top);
        let (_f, body) = core::build_for(&mut m, top, lb, ub, step);
        let iv = m.block(body).args[0];
        core::binary(&mut m, body, "arith.addi", iv, iv);
        m.build_op("scf.yield", [], []).append_to(body);
        let report = run(&m);
        assert!(report.by_lint("hls-loop-invariant").is_empty());
    }

    #[test]
    fn runtime_trip_count_inner_loop_is_flagged() {
        let mut m = Module::new();
        let top = m.top_block();
        let (lb, ub, step) = loop_bounds(&mut m, top);
        let (_outer, body) = core::build_for(&mut m, top, lb, ub, step);
        let iv = m.block(body).args[0];
        // Inner loop bound depends on the outer induction variable.
        let (_inner, inner_body) = core::build_for(&mut m, body, lb, iv, step);
        m.build_op("scf.yield", [], []).append_to(inner_body);
        m.build_op("scf.yield", [], []).append_to(body);
        let report = run(&m);
        assert_eq!(report.by_lint("hls-unpipelinable").len(), 1);
        assert!(report.diagnostics[0]
            .message
            .contains("initiation interval"));
    }

    #[test]
    fn constant_trip_count_inner_loop_is_clean() {
        let mut m = Module::new();
        let top = m.top_block();
        let (lb, ub, step) = loop_bounds(&mut m, top);
        let (_outer, body) = core::build_for(&mut m, top, lb, ub, step);
        let (_inner, inner_body) = core::build_for(&mut m, body, lb, ub, step);
        m.build_op("scf.yield", [], []).append_to(inner_body);
        m.build_op("scf.yield", [], []).append_to(body);
        assert!(run(&m).by_lint("hls-unpipelinable").is_empty());
    }

    #[test]
    fn computed_index_store_with_load_is_flagged() {
        let mut m = Module::new();
        let top = m.top_block();
        let buf = core::alloc(&mut m, top, Type::memref(&[8], Type::F64, MemorySpace::Plm));
        let one = core::const_index(&mut m, top, 1);
        let (lb, ub, step) = loop_bounds(&mut m, top);
        let (_f, body) = core::build_for(&mut m, top, lb, ub, step);
        let iv = m.block(body).args[0];
        let v = m
            .build_op("memref.load", [buf, iv], [Type::F64])
            .append_to(body);
        let v = everest_ir::module::single_result(&m, v);
        // Store to buf[iv + 1]: loop-carried dependency with the load.
        let shifted = core::binary(&mut m, body, "arith.addi", iv, one);
        m.build_op("memref.store", [v, buf, shifted], [])
            .append_to(body);
        m.build_op("scf.yield", [], []).append_to(body);
        let report = run(&m);
        assert_eq!(report.by_lint("hls-unpipelinable").len(), 1);
        assert!(report.diagnostics[0].message.contains("loop-carried"));
    }

    #[test]
    fn streaming_store_through_induction_variable_is_clean() {
        let mut m = Module::new();
        let top = m.top_block();
        let buf = core::alloc(&mut m, top, Type::memref(&[8], Type::F64, MemorySpace::Plm));
        let (lb, ub, step) = loop_bounds(&mut m, top);
        let (_f, body) = core::build_for(&mut m, top, lb, ub, step);
        let iv = m.block(body).args[0];
        let v = m
            .build_op("memref.load", [buf, iv], [Type::F64])
            .append_to(body);
        let v = everest_ir::module::single_result(&m, v);
        m.build_op("memref.store", [v, buf, iv], []).append_to(body);
        m.build_op("scf.yield", [], []).append_to(body);
        assert!(run(&m).by_lint("hls-unpipelinable").is_empty());
    }
}
