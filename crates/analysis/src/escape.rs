//! Memory-space escape analysis: a provenance fixpoint over SSA values
//! that tracks which memory spaces a value's *data* may originate from.
//!
//! The syntactic `memory-space` lint (`crate::typecheck`) inspects
//! one op at a time: a host-typed operand on `olympus.kernel`, a
//! mismatched `olympus.dma` direction, a cross-space `memref.copy`.
//! What it cannot see is data that *flows*: a scalar loaded from a host
//! buffer, carried through arithmetic or loop iter-args, and stored
//! element-wise into device or PLM memory — a CPU bounce that defeats
//! the DMA architecture without any single op looking wrong.
//!
//! This analysis runs a union-of-spaces fixpoint on the
//! [`crate::fixpoint`] solver. Every SSA value gets the set of spaces
//! its data may come from: a buffer seeds its declared space and
//! absorbs everything stored or copied into it; loads inherit the
//! buffer's set; arithmetic and aliasing ops union their operands.
//! `olympus.dma` deliberately does *not* propagate — the DMA engine is
//! the sanctioned host/fabric crossing, so data that moved through it
//! is laundered clean.
//!
//! Findings (`memory-space-escape`, warn):
//!
//! * a `memref.store` that moves host-origin data into fabric memory
//!   (device/PLM) or fabric-origin data back into host memory,
//!   element-wise, without an intervening DMA;
//! * an `olympus.kernel` operand whose data provenance includes the
//!   host even though its declared space is fabric-side (the direct
//!   host-typed-operand case stays with the syntactic lint).
//!
//! On-fabric crossings (device ↔ PLM) are normal datapath traffic and
//! are never reported.

use everest_ir::constraint::{Effect, Port};
use everest_ir::ids::{OpId, ValueId};
use everest_ir::module::{Module, Operation};
use everest_ir::registry::Context;
use everest_ir::types::{MemorySpace, Type};

use crate::diagnostics::Severity;
use crate::fixpoint::{solve, Fixpoint, FlowGraph, Lattice};
use crate::interval::direct_yields;
use crate::lint::{Collector, Lint, LintInfo, OpKinds};

/// Lints implemented by [`MemorySpaceEscape`].
pub(crate) const ESCAPE_LINTS: &[LintInfo] = &[LintInfo {
    id: "memory-space-escape",
    description: "data crosses the host/fabric boundary without going through olympus.dma",
    default_severity: Severity::Warn,
}];

const ID: &str = "memory-space-escape";

/// A set of memory spaces, as a bitmask lattice (union = join).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SpaceSet(u8);

const HOST: u8 = 1 << 0;
const DEVICE: u8 = 1 << 1;
const PLM: u8 = 1 << 2;

impl SpaceSet {
    /// The singleton set for one space.
    pub fn of(space: MemorySpace) -> SpaceSet {
        SpaceSet(match space {
            MemorySpace::Host => HOST,
            MemorySpace::Device => DEVICE,
            MemorySpace::Plm => PLM,
        })
    }

    /// True when the set may include host memory.
    pub(crate) fn has_host(&self) -> bool {
        self.0 & HOST != 0
    }

    /// True when the set may include fabric memory (device or PLM).
    pub(crate) fn has_fabric(&self) -> bool {
        self.0 & (DEVICE | PLM) != 0
    }

    fn describe(&self) -> String {
        let mut names = Vec::new();
        if self.0 & HOST != 0 {
            names.push("host");
        }
        if self.0 & DEVICE != 0 {
            names.push("device");
        }
        if self.0 & PLM != 0 {
            names.push("plm");
        }
        names.join("+")
    }
}

impl Lattice for SpaceSet {
    fn bottom() -> SpaceSet {
        SpaceSet(0)
    }

    fn join(&self, other: &SpaceSet) -> SpaceSet {
        SpaceSet(self.0 | other.0)
    }
}

fn declared_space(module: &Module, value: ValueId) -> Option<MemorySpace> {
    match module.value_type(value) {
        Type::MemRef { space, .. } => Some(*space),
        _ => None,
    }
}

/// The provenance flow of a module as `(source, target)` value pairs:
/// the data of `target` may come from `source`. Every value's rule is
/// then uniform — its seed unioned with the facts of what it reads —
/// which keeps the transfer trivially monotone, and "what it reads" is
/// the flow graph's predecessor list, so no second copy is kept.
fn flow_edges(ctx: &Context, module: &Module, walk: &[OpId]) -> Vec<(u32, u32)> {
    let mut edges = Vec::with_capacity(2 * module.num_values());
    let mut flow = |source: ValueId, target: ValueId| {
        edges.push((source.index() as u32, target.index() as u32));
    };
    for &op_id in walk {
        let Some(operation) = module.op(op_id) else {
            continue;
        };
        match operation.name.as_str() {
            // DMA is the sanctioned crossing: provenance is laundered,
            // nothing propagates.
            "olympus.dma" => {}
            "scf.for" => {
                // Loop results and iter-args alias their init and yield
                // values, like the interval analysis.
                let yields = direct_yields(module, operation);
                let inits = &operation.operands[3.min(operation.operands.len())..];
                let mut alias = |index: usize, target: ValueId| {
                    if let Some(&init) = inits.get(index) {
                        flow(init, target);
                    }
                    for y in yields.clone() {
                        if let Some(&v) = y.operands.get(index) {
                            flow(v, target);
                        }
                    }
                };
                for (index, &result) in operation.results.iter().enumerate() {
                    alias(index, result);
                }
                if let Some(&region) = operation.regions.first() {
                    if let Some(&entry) = module.region(region).blocks.first() {
                        for (index, &arg) in module.block(entry).args.iter().enumerate().skip(1) {
                            alias(index - 1, arg);
                        }
                    }
                }
            }
            // Default: a buffer written at operand `b` takes the data of
            // the operands before it (a store's value, a copy's
            // source), and every result's data may come from any
            // operand (loads inherit the buffer, arithmetic unions
            // inputs, selects and casts alias).
            _ => {
                for (written, data) in written_data(ctx, operation) {
                    for &source in data {
                        flow(source, written);
                    }
                }
                for &result in &operation.results {
                    for &operand in &operation.operands {
                        flow(operand, result);
                    }
                }
            }
        }
    }
    edges
}

/// The buffers `operation` writes at a declared operand `b`, each with
/// the operands before it: the data written into it.
fn written_data<'o>(
    ctx: &Context,
    operation: &'o Operation,
) -> impl Iterator<Item = (ValueId, &'o [ValueId])> + 'o {
    let operands = &operation.operands[..];
    (ctx.effects(operation.name).iter()).filter_map(move |effect| match *effect {
        Effect::Write(Port::Operand(b, _)) => Some((*operands.get(b)?, &operands[..b])),
        _ => None,
    })
}

/// Computes the provenance fixpoint for every SSA value.
pub fn compute(module: &Module) -> Fixpoint<SpaceSet> {
    compute_over(&Context::with_all_dialects(), module, &module.walk_ops())
}

/// [`compute`] over `walk`, the module's ops in pre-order.
fn compute_over(ctx: &Context, module: &Module, walk: &[OpId]) -> Fixpoint<SpaceSet> {
    let n = module.num_values();
    // Buffers seed their declared space (their initial contents live
    // there); everything else starts empty.
    let seeds: Vec<SpaceSet> = (0..n)
        .map(|index| {
            declared_space(module, ValueId::from_raw(index as u32))
                .map_or_else(SpaceSet::bottom, SpaceSet::of)
        })
        .collect();
    let edges = flow_edges(ctx, module, walk);
    // Height-3 lattice: a generous linear budget always converges.
    let budget = 8 * (n + edges.len()) + 8;
    let graph = FlowGraph::from_edges(n, edges);
    solve(
        &graph,
        vec![SpaceSet::bottom(); n],
        |node, states: &[SpaceSet]| {
            graph
                .preds(node)
                .iter()
                .fold(seeds[node], |acc, &source| acc.join(&states[source]))
        },
        budget,
    )
}

/// The memory-space escape lint. See the module docs.
#[derive(Debug, Default)]
pub struct MemorySpaceEscape;

impl Lint for MemorySpaceEscape {
    fn name(&self) -> &'static str {
        "memory-space-escape"
    }

    fn lints(&self) -> &'static [LintInfo] {
        ESCAPE_LINTS
    }

    /// Findings sit on stores and kernel launches only.
    fn ops(&self) -> OpKinds {
        const OPS: OpKinds = OpKinds::of(&["memref.store", "olympus.kernel"]);
        OPS
    }

    fn run(&self, ctx: &Context, module: &Module, out: &mut Collector<'_>) {
        let facts = compute_over(ctx, module, out.walk()).states;
        let of = |v: ValueId| facts.get(v.index()).copied().unwrap_or_default();
        for &op_id in out.walk() {
            let Some(operation) = module.op(op_id) else {
                continue;
            };
            match operation.name.as_str() {
                // An element-wise store: an access that writes the value
                // before its buffer.
                _ if ctx
                    .access(operation)
                    .is_some_and(|(e, ..)| matches!(e, Effect::Write(_))) =>
                {
                    let Some((base, &[value])) = written_data(ctx, operation).next() else {
                        continue;
                    };
                    let Some(dst_space) = declared_space(module, base) else {
                        continue;
                    };
                    let provenance = of(value);
                    if dst_space != MemorySpace::Host && provenance.has_host() {
                        out.emit(
                            ID,
                            op_id,
                            format!(
                                "host-origin data (provenance {}) is stored element-wise \
                                 into {dst_space} memory; stage the transfer through \
                                 olympus.dma",
                                provenance.describe()
                            ),
                        );
                    } else if dst_space == MemorySpace::Host && provenance.has_fabric() {
                        out.emit(
                            ID,
                            op_id,
                            format!(
                                "fabric-origin data (provenance {}) is read back \
                                 element-wise into host memory; stage the transfer \
                                 through olympus.dma",
                                provenance.describe()
                            ),
                        );
                    }
                }
                "olympus.kernel" => {
                    for &operand in &operation.operands {
                        let Some(space) = declared_space(module, operand) else {
                            continue;
                        };
                        // The direct host-typed case belongs to the
                        // syntactic memory-space lint.
                        if space != MemorySpace::Host && of(operand).has_host() {
                            out.emit(
                                ID,
                                op_id,
                                format!(
                                    "{space}-space kernel buffer carries host-origin data \
                                     (provenance {}) that never passed through olympus.dma",
                                    of(operand).describe()
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
    use everest_ir::dialects::core::{alloc, const_f64, const_index};

    use crate::lint::Analyzer;

    fn analyzer() -> Analyzer {
        Analyzer::new().with_lint(Box::new(MemorySpaceEscape))
    }

    fn memref(space: MemorySpace) -> Type {
        Type::memref(&[8], Type::F64, space)
    }

    /// load host → store device: the CPU bounce the syntactic lint
    /// cannot see (every individual op is well-typed).
    #[test]
    fn cpu_bounce_from_host_to_device_is_flagged() {
        let ctx = Context::with_all_dialects();
        let mut m = Module::new();
        let top = m.top_block();
        let host = alloc(&mut m, top, memref(MemorySpace::Host));
        let dev = alloc(&mut m, top, memref(MemorySpace::Device));
        let i = const_index(&mut m, top, 0);
        let loaded = m
            .build_op("memref.load", vec![host, i], vec![Type::F64])
            .append_to(top);
        let loaded = everest_ir::module::single_result(&m, loaded);
        m.build_op("memref.store", vec![loaded, dev, i], vec![])
            .append_to(top);
        let report = analyzer().run(&ctx, &m);
        assert_eq!(report.by_lint(ID).len(), 1, "{}", report.to_text());
    }

    /// The same movement through olympus.dma is clean: DMA launders.
    #[test]
    fn dma_staged_transfer_is_clean() {
        let ctx = Context::with_all_dialects();
        let mut m = Module::new();
        let top = m.top_block();
        let host = alloc(&mut m, top, memref(MemorySpace::Host));
        let dev = alloc(&mut m, top, memref(MemorySpace::Device));
        m.build_op("olympus.dma", vec![host, dev], vec![])
            .attr("direction", "h2d")
            .append_to(top);
        let i = const_index(&mut m, top, 0);
        let loaded = m
            .build_op("memref.load", vec![dev, i], vec![Type::F64])
            .append_to(top);
        let loaded = everest_ir::module::single_result(&m, loaded);
        let plm = alloc(&mut m, top, memref(MemorySpace::Plm));
        m.build_op("memref.store", vec![loaded, plm, i], vec![])
            .append_to(top);
        let report = analyzer().run(&ctx, &m);
        assert!(report.is_clean(), "{}", report.to_text());
    }

    /// Device → PLM element traffic is normal on-fabric datapath.
    #[test]
    fn on_fabric_crossing_is_not_reported() {
        let ctx = Context::with_all_dialects();
        let mut m = Module::new();
        let top = m.top_block();
        let dev = alloc(&mut m, top, memref(MemorySpace::Device));
        let plm = alloc(&mut m, top, memref(MemorySpace::Plm));
        let i = const_index(&mut m, top, 0);
        let loaded = m
            .build_op("memref.load", vec![dev, i], vec![Type::F64])
            .append_to(top);
        let loaded = everest_ir::module::single_result(&m, loaded);
        m.build_op("memref.store", vec![loaded, plm, i], vec![])
            .append_to(top);
        let report = analyzer().run(&ctx, &m);
        assert!(report.is_clean(), "{}", report.to_text());
    }

    /// Host provenance carried through arithmetic is still tracked.
    #[test]
    fn provenance_survives_arithmetic() {
        let ctx = Context::with_all_dialects();
        let mut m = Module::new();
        let top = m.top_block();
        let host = alloc(&mut m, top, memref(MemorySpace::Host));
        let dev = alloc(&mut m, top, memref(MemorySpace::Device));
        let i = const_index(&mut m, top, 0);
        let loaded = m
            .build_op("memref.load", vec![host, i], vec![Type::F64])
            .append_to(top);
        let loaded = everest_ir::module::single_result(&m, loaded);
        let two = const_f64(&mut m, top, 2.0);
        let scaled = m
            .build_op("arith.mulf", vec![loaded, two], vec![Type::F64])
            .append_to(top);
        let scaled = everest_ir::module::single_result(&m, scaled);
        m.build_op("memref.store", vec![scaled, dev, i], vec![])
            .append_to(top);
        let report = analyzer().run(&ctx, &m);
        assert_eq!(report.by_lint(ID).len(), 1, "{}", report.to_text());
    }

    /// A device buffer filled by memref.copy from host carries host
    /// provenance into the kernel it is passed to.
    #[test]
    fn host_data_reaching_a_kernel_without_dma_is_flagged() {
        let ctx = Context::with_all_dialects();
        let mut m = Module::new();
        let top = m.top_block();
        let host = alloc(&mut m, top, memref(MemorySpace::Host));
        let dev = alloc(&mut m, top, memref(MemorySpace::Device));
        m.build_op("memref.copy", vec![host, dev], vec![])
            .append_to(top);
        m.build_op("olympus.kernel", vec![dev], vec![])
            .attr("callee", everest_ir::attr::Attribute::SymbolRef("k".into()))
            .append_to(top);
        let report = analyzer().run(&ctx, &m);
        // One finding at the kernel (the cross-space copy itself is the
        // syntactic lint's business).
        assert_eq!(report.by_lint(ID).len(), 1, "{}", report.to_text());
    }
}
