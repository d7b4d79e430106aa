//! Memory-space escape analysis: a provenance fixpoint over SSA values
//! that tracks which memory spaces a value's *data* may originate from.
//!
//! The syntactic `memory-space` lint ([`crate::typecheck`]) inspects
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

use everest_ir::ids::ValueId;
use everest_ir::module::{Module, Operation};
use everest_ir::registry::Context;
use everest_ir::types::{MemorySpace, Type};

use crate::diagnostics::Severity;
use crate::fixpoint::{solve, FlowGraph, Lattice};
use crate::lint::{Collector, Lint, LintInfo};

/// Lints implemented by [`MemorySpaceEscape`].
pub const ESCAPE_LINTS: &[LintInfo] = &[LintInfo {
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
    pub fn has_host(&self) -> bool {
        self.0 & HOST != 0
    }

    /// True when the set may include fabric memory (device or PLM).
    pub fn has_fabric(&self) -> bool {
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

/// Per-value provenance rule: a constant seed unioned with the facts of
/// `sources`. Uniform shape keeps the transfer trivially monotone.
#[derive(Debug, Clone, Default)]
struct Rule {
    seed: SpaceSet,
    sources: Vec<ValueId>,
}

fn build_rules(module: &Module) -> Vec<Rule> {
    let mut rules: Vec<Rule> = vec![Rule::default(); module.num_values()];
    // Buffers seed their declared space (their initial contents live
    // there); everything else starts empty.
    for (index, rule) in rules.iter_mut().enumerate() {
        let value = ValueId::from_raw(index as u32);
        if let Some(space) = declared_space(module, value) {
            rule.seed = SpaceSet::of(space);
        }
    }
    for op_id in module.walk_ops() {
        let Some(operation) = module.op(op_id) else {
            continue;
        };
        match operation.name.as_str() {
            // Stores flow the stored value's provenance into the buffer.
            "memref.store" => {
                if let [value, base, ..] = operation.operands.as_slice() {
                    rules[base.index()].sources.push(*value);
                }
            }
            // Copies flow the source buffer's provenance into the
            // destination buffer.
            "memref.copy" => {
                if let [src, dst, ..] = operation.operands.as_slice() {
                    rules[dst.index()].sources.push(*src);
                }
            }
            // DMA is the sanctioned crossing: provenance is laundered,
            // nothing propagates.
            "olympus.dma" => {}
            "scf.for" => {
                // Loop results and iter-args alias their init and yield
                // values, like the interval analysis.
                let yields: Vec<&Operation> = operation
                    .regions
                    .iter()
                    .flat_map(|&r| module.region(r).blocks.iter())
                    .flat_map(|&b| module.block(b).ops.iter())
                    .filter_map(|&o| module.op(o))
                    .filter(|o| o.name == "scf.yield")
                    .collect();
                let inits = &operation.operands[3.min(operation.operands.len())..];
                for (index, &result) in operation.results.iter().enumerate() {
                    if let Some(&init) = inits.get(index) {
                        rules[result.index()].sources.push(init);
                    }
                    for y in &yields {
                        if let Some(&v) = y.operands.get(index) {
                            rules[result.index()].sources.push(v);
                        }
                    }
                }
                if let Some(&region) = operation.regions.first() {
                    if let Some(&entry) = module.region(region).blocks.first() {
                        for (index, &arg) in module.block(entry).args.iter().enumerate().skip(1) {
                            if let Some(&init) = inits.get(index - 1) {
                                rules[arg.index()].sources.push(init);
                            }
                            for y in &yields {
                                if let Some(&v) = y.operands.get(index - 1) {
                                    rules[arg.index()].sources.push(v);
                                }
                            }
                        }
                    }
                }
            }
            // Default: every result's data may come from any operand
            // (loads inherit the buffer, arithmetic unions inputs,
            // selects and casts alias).
            _ => {
                for &result in &operation.results {
                    rules[result.index()]
                        .sources
                        .extend(operation.operands.iter().copied());
                }
            }
        }
    }
    rules
}

/// Computes the provenance fixpoint for every SSA value.
pub fn compute(module: &Module) -> Vec<SpaceSet> {
    let rules = build_rules(module);
    let n = rules.len();
    let mut graph = FlowGraph::new(n);
    let mut edges = 0usize;
    for (index, rule) in rules.iter().enumerate() {
        for &source in &rule.sources {
            graph.add_edge(source.index(), index);
            edges += 1;
        }
    }
    // Height-3 lattice: a generous linear budget always converges.
    let budget = 8 * (n + edges) + 8;
    solve(
        &graph,
        vec![SpaceSet::bottom(); n],
        |node, states: &[SpaceSet]| {
            rules[node]
                .sources
                .iter()
                .fold(rules[node].seed, |acc, v| acc.join(&states[v.index()]))
        },
        budget,
    )
    .states
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

    fn run(&self, _ctx: &Context, module: &Module, out: &mut Collector<'_>) {
        let facts = compute(module);
        let of = |v: ValueId| facts.get(v.index()).copied().unwrap_or_default();
        for op_id in module.walk_ops() {
            let Some(operation) = module.op(op_id) else {
                continue;
            };
            match operation.name.as_str() {
                "memref.store" => {
                    let [value, base, ..] = operation.operands.as_slice() else {
                        continue;
                    };
                    let Some(dst_space) = declared_space(module, *base) else {
                        continue;
                    };
                    let provenance = of(*value);
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
