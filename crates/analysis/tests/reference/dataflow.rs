//! The dataflow structure lint the dense-table one replaced: a
//! `BTreeMap` of channel uses keyed by value, `HashMap` successor and
//! in-degree tables for the capacity-1 cycle check, and a `BTreeMap`
//! from actor to index for the capacity analysis. Kept as the reference
//! `DfgStructure` is held to (`dfg_structure_finds_what_the_map_reference_finds`
//! in `solver_props.rs`): equal normalized diagnostics.

use std::collections::{BTreeMap, HashMap};

use everest_analysis::{solve, Collector, FlowGraph, Lattice, Lint, LintInfo, Severity};
use everest_ir::ids::{OpId, ValueId};
use everest_ir::module::Module;
use everest_ir::registry::Context;

#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct DfgStructure;

const DFG_LINTS: &[LintInfo] = &[
    LintInfo {
        id: "dfg-multiple-writers",
        description: "two producers write one FIFO: nondeterministic merge",
        default_severity: Severity::Deny,
    },
    LintInfo {
        id: "dfg-unbuffered-cycle",
        description: "cycle through capacity-1 channels: deadlock risk",
        default_severity: Severity::Warn,
    },
    LintInfo {
        id: "dfg-dangling-port",
        description: "channel with no writer or no reader",
        default_severity: Severity::Warn,
    },
    LintInfo {
        id: "dfg-channel-capacity",
        description: "cycle deadlock / buffer-sizing analysis with minimal-capacity suggestions",
        default_severity: Severity::Warn,
    },
];

impl Lint for DfgStructure {
    fn name(&self) -> &'static str {
        "dfg-structure"
    }

    fn lints(&self) -> &'static [LintInfo] {
        DFG_LINTS
    }

    fn run(&self, ctx: &Context, module: &Module, out: &mut Collector<'_>) {
        let _ = ctx;
        for op in module.walk_ops() {
            let Some(operation) = module.op(op) else {
                continue;
            };
            if operation.name == "dfg.graph" {
                analyze_graph_op(module, op, out);
            }
        }
    }
}

#[derive(Debug, Default)]
struct ChannelUse {
    /// Ops producing into this channel.
    writers: Vec<OpId>,
    /// Ops consuming from this channel.
    readers: Vec<OpId>,
    /// FIFO capacity (`capacity` attr; 1 when absent).
    capacity: i64,
    /// The defining `dfg.channel` op.
    def: Option<OpId>,
}

fn analyze_graph_op(module: &Module, graph: OpId, out: &mut Collector<'_>) {
    let mut channels: BTreeMap<ValueId, ChannelUse> = BTreeMap::new();
    let body_ops = module.walk_nested(graph);

    for &op in &body_ops {
        let Some(operation) = module.op(op) else {
            continue;
        };
        match operation.name.as_str() {
            "dfg.channel" => {
                if let Some(&c) = operation.results.first() {
                    let entry = channels.entry(c).or_default();
                    entry.capacity = operation.int_attr("capacity").unwrap_or(1);
                    entry.def = Some(op);
                }
            }
            "dfg.feed" => {
                if let Some(&c) = operation.operands.first() {
                    channels.entry(c).or_default().writers.push(op);
                }
            }
            "dfg.sink" => {
                if let Some(&c) = operation.operands.first() {
                    channels.entry(c).or_default().readers.push(op);
                }
            }
            "dfg.node" => {
                let Some((&output, inputs)) = operation.operands.split_last() else {
                    continue;
                };
                channels.entry(output).or_default().writers.push(op);
                for &c in inputs {
                    channels.entry(c).or_default().readers.push(op);
                }
            }
            _ => {}
        }
    }

    for usage in channels.values() {
        let Some(def) = usage.def else {
            continue;
        };
        if usage.writers.len() > 1 {
            out.emit(
                "dfg-multiple-writers",
                def,
                format!(
                    "{} producers write this channel; FIFO merge order is nondeterministic",
                    usage.writers.len()
                ),
            );
        }
        if usage.writers.is_empty() {
            out.emit("dfg-dangling-port", def, "channel is never written");
        }
        if usage.readers.is_empty() {
            out.emit("dfg-dangling-port", def, "channel is never read");
        }
    }

    check_unbuffered_cycles(&channels, out);
    check_channel_capacity(module, &channels, out);
}

/// Deadlock heuristic: consider only edges through channels whose FIFO
/// capacity is 1 (rendezvous semantics). Any node cycle in that
/// subgraph can fill-and-block regardless of schedule, so every node
/// on such a cycle is flagged.
fn check_unbuffered_cycles(channels: &BTreeMap<ValueId, ChannelUse>, out: &mut Collector<'_>) {
    // Edges writer -> reader over capacity-1 channels.
    let mut succs: HashMap<OpId, Vec<OpId>> = HashMap::new();
    let mut indegree: HashMap<OpId, usize> = HashMap::new();
    for usage in channels.values() {
        if usage.capacity > 1 {
            continue;
        }
        for &w in &usage.writers {
            for &r in &usage.readers {
                succs.entry(w).or_default().push(r);
                *indegree.entry(r).or_insert(0) += 1;
                indegree.entry(w).or_insert(0);
            }
        }
    }
    // Kahn pruning: whatever survives sits on a cycle.
    let mut queue: Vec<OpId> = indegree
        .iter()
        .filter(|(_, &d)| d == 0)
        .map(|(&n, _)| n)
        .collect();
    while let Some(n) = queue.pop() {
        indegree.remove(&n);
        for &s in succs.get(&n).into_iter().flatten() {
            if let Some(d) = indegree.get_mut(&s) {
                *d -= 1;
                if *d == 0 {
                    queue.push(s);
                }
            }
        }
    }
    let mut cyclic: Vec<OpId> = indegree.into_keys().collect();
    cyclic.sort();
    for op in cyclic {
        out.emit(
            "dfg-unbuffered-cycle",
            op,
            "node sits on a cycle of capacity-1 channels; the FIFOs can \
             fill and block in a ring (deadlock)",
        );
    }
}

/// Token-reachability lattice: false = no token can ever arrive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct TokenReach(bool);

impl Lattice for TokenReach {
    fn bottom() -> TokenReach {
        TokenReach(false)
    }
    fn join(&self, other: &TokenReach) -> TokenReach {
        TokenReach(self.0 || other.0)
    }
}

/// Channel-capacity analysis: a token-reachability fixpoint plus a
/// strongly-connected-component sweep over the actor graph.
///
/// * A nontrivial SCC (a ring of actors) that no `dfg.feed` can reach
///   carries no tokens ever: a certain token deadlock, reported on
///   every actor of the ring.
/// * A reachable ring with total internal FIFO capacity `C` over `L`
///   actors needs at least `L + 1` slots for a wavefront to circulate
///   without fill-and-block; rings below that get a minimal-capacity
///   suggestion on the ring's first channel definition.
fn check_channel_capacity(
    module: &Module,
    channels: &BTreeMap<ValueId, ChannelUse>,
    out: &mut Collector<'_>,
) {
    // Actor universe, deterministically ordered by OpId.
    let mut actor_set: Vec<OpId> = Vec::new();
    for usage in channels.values() {
        actor_set.extend(usage.writers.iter().copied());
        actor_set.extend(usage.readers.iter().copied());
    }
    actor_set.sort();
    actor_set.dedup();
    let index_of: BTreeMap<OpId, usize> =
        actor_set.iter().enumerate().map(|(i, &o)| (o, i)).collect();
    let is_feed = |op: OpId| module.op(op).is_some_and(|o| o.name == "dfg.feed");

    // Edges writer -> reader through every channel (any capacity).
    let mut edges = Vec::new();
    for usage in channels.values() {
        for &w in &usage.writers {
            for &r in &usage.readers {
                edges.push((index_of[&w] as u32, index_of[&r] as u32));
            }
        }
    }
    let graph = FlowGraph::from_edges(actor_set.len(), edges);

    // Fixpoint: a token can reach an actor iff it is a feed or any
    // predecessor can produce (optimistic single-token reachability).
    let budget = 4 * (actor_set.len() + 1) * (actor_set.len() + 1);
    let reach = solve(
        &graph,
        vec![TokenReach::bottom(); actor_set.len()],
        |node, states: &[TokenReach]| {
            if is_feed(actor_set[node]) {
                TokenReach(true)
            } else {
                graph
                    .preds(node)
                    .iter()
                    .fold(TokenReach::bottom(), |acc, &p| acc.join(&states[p]))
            }
        },
        budget,
    );

    for scc in strongly_connected(&graph) {
        let nontrivial = scc.len() > 1 || scc.first().is_some_and(|&n| graph.succs(n).contains(&n));
        if !nontrivial {
            continue;
        }
        let reachable = scc.iter().any(|&n| reach.states[n].0);
        if !reachable {
            let mut ring: Vec<OpId> = scc.iter().map(|&n| actor_set[n]).collect();
            ring.sort();
            for op in ring {
                out.emit(
                    "dfg-channel-capacity",
                    op,
                    "actor sits on a ring no feed can reach; no token can ever \
                     enter the cycle (certain deadlock) — feed the ring or seed \
                     an initial token",
                );
            }
            continue;
        }
        // Internal capacity of the ring: channels whose writer and
        // reader both sit inside the SCC.
        let in_scc = |op: &OpId| index_of.get(op).is_some_and(|i| scc.contains(i));
        let mut capacity = 0i64;
        let mut anchor: Option<OpId> = None;
        for usage in channels.values() {
            if usage.writers.iter().any(in_scc) && usage.readers.iter().any(in_scc) {
                capacity += usage.capacity.max(0);
                if let Some(def) = usage.def {
                    anchor = Some(anchor.map_or(def, |a: OpId| a.min(def)));
                }
            }
        }
        let needed = scc.len() as i64 + 1;
        if capacity < needed {
            let Some(def) = anchor else {
                continue;
            };
            out.emit(
                "dfg-channel-capacity",
                def,
                format!(
                    "ring of {} actors has total FIFO capacity {capacity}; a \
                     circulating wavefront needs at least {needed} slots to avoid \
                     fill-and-block — raise total ring capacity by {}",
                    scc.len(),
                    needed - capacity
                ),
            );
        }
    }
}

/// Iterative Kosaraju SCC over a [`FlowGraph`], deterministic in node
/// index order. Returns components as sorted index lists.
fn strongly_connected(graph: &FlowGraph) -> Vec<Vec<usize>> {
    let n = graph.len();
    // Pass 1: finish order by iterative DFS on successors.
    let mut visited = vec![false; n];
    let mut finish: Vec<usize> = Vec::with_capacity(n);
    for root in 0..n {
        if visited[root] {
            continue;
        }
        let mut stack: Vec<(usize, usize)> = vec![(root, 0)];
        visited[root] = true;
        while let Some(&(node, next)) = stack.last() {
            if next < graph.succs(node).len() {
                stack.last_mut().expect("nonempty").1 += 1;
                let succ = graph.succs(node)[next];
                if !visited[succ] {
                    visited[succ] = true;
                    stack.push((succ, 0));
                }
            } else {
                finish.push(node);
                stack.pop();
            }
        }
    }
    // Pass 2: DFS on predecessors in reverse finish order.
    let mut component = vec![usize::MAX; n];
    let mut count = 0usize;
    for &root in finish.iter().rev() {
        if component[root] != usize::MAX {
            continue;
        }
        let mut stack = vec![root];
        component[root] = count;
        while let Some(node) = stack.pop() {
            for &pred in graph.preds(node) {
                if component[pred] == usize::MAX {
                    component[pred] = count;
                    stack.push(pred);
                }
            }
        }
        count += 1;
    }
    let mut sccs: Vec<Vec<usize>> = vec![Vec::new(); count];
    for (node, &c) in component.iter().enumerate() {
        sccs[c].push(node);
    }
    for scc in &mut sccs {
        scc.sort_unstable();
    }
    sccs
}
