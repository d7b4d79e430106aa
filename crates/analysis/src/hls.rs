//! HLS pre-synthesis lints: patterns that inflate the initiation
//! interval or block loop pipelining when the module reaches the HLS
//! engine.

use everest_ir::constraint::Effect;
use everest_ir::ids::{OpId, ValueId};
use everest_ir::module::{Module, Operation, ValueDef};
use everest_ir::registry::{Context, OpTrait};

use crate::diagnostics::Severity;
use crate::lint::{Collector, Lint, LintInfo, OpKinds};

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

    /// Every check is of a loop's body.
    fn ops(&self) -> OpKinds {
        const OPS: OpKinds = OpKinds::of(&["scf.for"]);
        OPS
    }

    fn run(&self, ctx: &Context, module: &Module, out: &mut Collector<'_>) {
        // Built at the first loop: a module without one pays nothing.
        let mut sets = None;
        let walk = out.walk();
        for (at, &op) in walk.iter().enumerate() {
            let Some(operation) = module.op(op) else {
                continue;
            };
            if operation.name == "scf.for" {
                let (inside, buffers) =
                    sets.get_or_insert_with(|| (ValueSet::new(module), ValueSet::new(module)));
                let body_ops = out.nested(at);
                check_loop(ctx, module, operation, body_ops, inside, buffers, out);
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

/// The checks of one loop, whose nested ops (at any depth, in
/// pre-order) are `body_ops`; `buffers` is scratch for the buffers the
/// loop writes, then for those it loads.
fn check_loop(
    ctx: &Context,
    module: &Module,
    operation: &Operation,
    body_ops: &[OpId],
    inside: &mut ValueSet,
    buffers: &mut ValueSet,
    out: &mut Collector<'_>,
) {
    // Everything defined inside the loop (the block args of its blocks
    // and of every nested op's, and the nested ops' results), and what
    // it may write: a region op's own ops are in `body_ops` too, so only
    // what the ops without regions may write counts.
    let ops = || body_ops.iter().filter_map(|&op| Some((op, module.op(op)?)));
    inside.clear();
    buffers.clear();
    for o in std::iter::once(operation).chain(ops().map(|(_, o)| o)) {
        let blocks = o.regions.iter().flat_map(|&r| &module.region(r).blocks);
        for &arg in blocks.flat_map(|&b| &module.block(b).args) {
            inside.insert(arg);
        }
    }
    for (_, o) in ops() {
        for &v in o.operands.iter().chain(&o.results) {
            if o.regions.is_empty() && ctx.may_write(module, o, v) {
                buffers.insert(v);
            }
        }
        for &r in &o.results {
            inside.insert(r);
        }
    }

    let induction = operation
        .regions
        .first()
        .and_then(|&r| module.region(r).blocks.first())
        .and_then(|&b| module.block(b).args.first())
        .copied();

    for (op, o) in ops() {
        check_invariant(ctx, op, o, inside, buffers, out);
        check_inner_trip_count(ctx, module, op, o, out);
    }
    check_memory_dependency(ctx, module, body_ops, induction, buffers, out);
}

/// A read-only, non-constant op whose operands all come from outside
/// the loop, and whose buffer, if it reads one, the loop does not write
/// (`written`), recomputes the same value every iteration: HLS
/// replicates the datapath (or lengthens the II) for work LICM could
/// hoist.
fn check_invariant(
    ctx: &Context,
    op: OpId,
    operation: &Operation,
    inside: &ValueSet,
    written: &ValueSet,
    out: &mut Collector<'_>,
) {
    if !ctx.reads_only(operation.name)
        || ctx.has_trait(operation.name, OpTrait::ConstantLike)
        || !operation.regions.is_empty()
        || operation.operands.is_empty()
    {
        return;
    }
    let mut reads = (ctx.effects(operation.name).iter()).flat_map(|e| e.port().values(operation));
    if operation.operands.iter().all(|&v| !inside.contains(v))
        && !reads.any(|buffer| written.contains(buffer))
    {
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
    ctx: &Context,
    module: &Module,
    body_ops: &[OpId],
    induction: Option<ValueId>,
    loaded: &mut ValueSet,
    out: &mut Collector<'_>,
) {
    loaded.clear();
    let accesses = || {
        let ops = body_ops.iter().filter_map(|&op| Some((op, module.op(op)?)));
        ops.filter_map(|(op, o)| Some((op, ctx.access(o)?)))
    };
    for (_, (effect, buf, _)) in accesses() {
        if let Effect::Read(_) = effect {
            loaded.insert(buf);
        }
    }
    for (op, (effect, buf, indices)) in accesses() {
        if !matches!(effect, Effect::Write(_)) || indices.is_empty() || !loaded.contains(buf) {
            continue;
        }
        let computed_index = indices
            .iter()
            .any(|&idx| Some(idx) != induction && module.constant(idx).is_none());
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

    /// `sum(j)(m[i, j] * a[i])` as `lower_to_loops` emits it: the `j`
    /// loop loads `m[i, j]`, `a[i]` when `with_operand`, and the rank-0
    /// accumulator, and stores the accumulator back.
    fn sum_nest(with_operand: bool) -> Module {
        let mut m = Module::new();
        let top = m.top_block();
        let matrix = core::alloc(
            &mut m,
            top,
            Type::memref(&[8, 8], Type::F64, MemorySpace::Plm),
        );
        let a = core::alloc(&mut m, top, Type::memref(&[8], Type::F64, MemorySpace::Plm));
        let acc = core::alloc(&mut m, top, Type::memref(&[], Type::F64, MemorySpace::Plm));
        let (lb, ub, step) = loop_bounds(&mut m, top);
        let (_i_loop, i_body) = core::build_for(&mut m, top, lb, ub, step);
        let i = m.block(i_body).args[0];
        let (_j_loop, body) = core::build_for(&mut m, i_body, lb, ub, step);
        let j = m.block(body).args[0];
        let load = |m: &mut Module, operands: &[ValueId]| {
            let op = m
                .build_op("memref.load", operands.to_vec(), [Type::F64])
                .append_to(body);
            everest_ir::module::single_result(m, op)
        };
        let mut term = load(&mut m, &[matrix, i, j]);
        if with_operand {
            let a_i = load(&mut m, &[a, i]);
            term = core::binary(&mut m, body, "arith.mulf", term, a_i);
        }
        let partial = load(&mut m, &[acc]);
        let total = core::binary(&mut m, body, "arith.addf", partial, term);
        m.build_op("memref.store", [total, acc], []).append_to(body);
        m.build_op("scf.yield", [], []).append_to(body);
        m.build_op("scf.yield", [], []).append_to(i_body);
        m
    }

    #[test]
    fn an_accumulator_load_the_loop_stores_back_is_not_invariant() {
        assert!(run(&sum_nest(false))
            .by_lint("hls-loop-invariant")
            .is_empty());
    }

    #[test]
    fn an_operand_subscripted_by_outer_indices_only_is_still_invariant() {
        let m = sum_nest(true);
        let report = run(&m);
        let found = report.by_lint("hls-loop-invariant");
        assert_eq!(found.len(), 1, "{:?}", report.diagnostics);
        // The load of `a[i]`, the second op of the `j` loop's body.
        let path = found[0].path.as_ref().expect("anchored").to_string();
        assert!(path.ends_with("op1(memref.load)"), "{path}");
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
