//! The provenance fixpoint of `everest_analysis::escape` as of the
//! commit before the CSR graph: a `Vec` of sources per value, the same
//! pairs fed to the graph a second time.

use everest_analysis::escape::SpaceSet;
use everest_analysis::{Fixpoint, Lattice};
use everest_ir::ids::ValueId;
use everest_ir::module::{Module, Operation};
use everest_ir::types::{MemorySpace, Type};

use super::fixpoint::{solve, FlowGraph};

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
pub(crate) fn compute(module: &Module) -> Fixpoint<SpaceSet> {
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
}
