//! Dataflow structure lints: channel races, deadlock-prone cycles and
//! dangling ports over the `dfg` dialect, plus the same class of
//! checks over ConDRust [`DataflowGraph`]s before lowering.
//!
//! Beyond the one-walk structural checks, `dfg-channel-capacity` runs a
//! token-reachability fixpoint on the [`crate::fixpoint`] solver to
//! turn the syntactic "capacity-1 cycle" heuristic into a real
//! deadlock/buffer-sizing analysis: rings no feed can reach are certain
//! deadlocks, and reachable rings get a minimal-capacity suggestion.

use std::collections::BTreeMap;

use everest_condrust::graph::{DataflowGraph, NodeKind};
use everest_ir::ids::{OpId, ValueId};
use everest_ir::module::Module;
use everest_ir::registry::Context;

use crate::diagnostics::{Diagnostic, Severity};
use crate::fixpoint::{solve, FlowGraph, Lattice};
use crate::lint::{Collector, Lint, LintInfo, OpKinds};
use crate::report::AnalysisReport;

/// Structural analysis of `dfg.graph` ops.
///
/// The lowering convention (see `everest-condrust`) is that a
/// `dfg.node`'s operands are its input channels followed by its own
/// output channel last; `dfg.feed` writes its operand channel and
/// `dfg.sink` reads it.
#[derive(Debug, Clone, Copy, Default)]
pub struct DfgStructure;

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

    /// Every check is of a graph's body.
    fn ops(&self) -> OpKinds {
        const OPS: OpKinds = OpKinds::of(&["dfg.graph"]);
        OPS
    }

    fn run(&self, ctx: &Context, module: &Module, out: &mut Collector<'_>) {
        let _ = ctx;
        let walk = out.walk();
        for (at, &op) in walk.iter().enumerate() {
            if module.op(op).is_some_and(|o| o.name == "dfg.graph") {
                analyze_graph_op(module, out.nested(at), out);
            }
        }
    }
}

/// Marks an unused slot of a dense table.
const NONE: u32 = u32::MAX;

/// What an op of a graph does to one channel.
#[derive(Debug, Clone, Copy)]
enum Use {
    /// A `dfg.channel` defines it, with this FIFO capacity (`capacity`
    /// attr; 1 when absent).
    Define(i64),
    /// A `dfg.feed`, or a `dfg.node` through its last operand, writes it.
    Write,
    /// A `dfg.sink`, or a `dfg.node` through any other operand, reads it.
    Read,
}

/// Calls `f` with every channel use of `ops`, in order.
fn for_each_use(module: &Module, ops: &[OpId], mut f: impl FnMut(OpId, ValueId, Use)) {
    for &op in ops {
        let Some(operation) = module.op(op) else {
            continue;
        };
        match operation.name.as_str() {
            "dfg.channel" => {
                if let Some(&c) = operation.results.first() {
                    f(
                        op,
                        c,
                        Use::Define(operation.int_attr("capacity").unwrap_or(1)),
                    );
                }
            }
            "dfg.feed" => {
                if let Some(&c) = operation.operands.first() {
                    f(op, c, Use::Write);
                }
            }
            "dfg.sink" => {
                if let Some(&c) = operation.operands.first() {
                    f(op, c, Use::Read);
                }
            }
            "dfg.node" => {
                if let Some((&output, inputs)) = operation.operands.split_last() {
                    f(op, output, Use::Write);
                    for &c in inputs {
                        f(op, c, Use::Read);
                    }
                }
            }
            _ => {}
        }
    }
}

/// One channel of a graph.
#[derive(Debug, Clone, Copy)]
struct Channel {
    /// FIFO capacity: the defining op's, 0 for a value no `dfg.channel`
    /// of the graph defines.
    capacity: i64,
    /// The defining `dfg.channel` op.
    def: Option<OpId>,
    /// Start and length of its run of writers in [`Channels::users`].
    writers: [u32; 2],
    /// Start and length of its run of readers in [`Channels::users`].
    readers: [u32; 2],
}

/// The channels of one `dfg.graph` in dense tables sized once for the
/// graph: one record per channel in value order, and every channel's
/// writers (then, past every writer, its readers) as one run of a flat
/// list, in walk order.
#[derive(Debug)]
struct Channels {
    list: Vec<Channel>,
    users: Vec<OpId>,
}

impl Channels {
    /// Three passes over the graph's ops: which values are channels,
    /// how many writers and readers each has, then who they are.
    fn of(module: &Module, ops: &[OpId]) -> Channels {
        let mut slot = vec![NONE; module.num_values()];
        let mut count = 0;
        for_each_use(module, ops, |_, value, _| {
            let index = &mut slot[value.index()];
            count += usize::from(*index == NONE);
            *index = 0;
        });
        let mut list = Vec::with_capacity(count);
        for index in slot.iter_mut().filter(|index| **index != NONE) {
            *index = list.len() as u32;
            list.push(Channel {
                capacity: 0,
                def: None,
                writers: [0; 2],
                readers: [0; 2],
            });
        }
        for_each_use(module, ops, |op, value, usage| {
            let channel = &mut list[slot[value.index()] as usize];
            match usage {
                Use::Define(capacity) => {
                    channel.capacity = capacity;
                    channel.def = Some(op);
                }
                Use::Write => channel.writers[1] += 1,
                Use::Read => channel.readers[1] += 1,
            }
        });
        // Runs one after another, every writer's before every reader's;
        // the lengths count again as cursors.
        let all_writers: u32 = list.iter().map(|c| c.writers[1]).sum();
        let (mut writers, mut readers) = (0, all_writers);
        for channel in &mut list {
            let counts = (channel.writers[1], channel.readers[1]);
            channel.writers = [writers, 0];
            channel.readers = [readers, 0];
            writers += counts.0;
            readers += counts.1;
        }
        // Every place is written below: the runs cover the list.
        let mut users = vec![OpId::from_raw(0); readers as usize];
        for_each_use(module, ops, |op, value, usage| {
            let channel = &mut list[slot[value.index()] as usize];
            let [start, len] = match usage {
                Use::Define(_) => return,
                Use::Write => &mut channel.writers,
                Use::Read => &mut channel.readers,
            };
            users[(*start + *len) as usize] = op;
            *len += 1;
        });
        Channels { list, users }
    }

    fn writers(&self, channel: &Channel) -> &[OpId] {
        let [start, len] = channel.writers;
        &self.users[start as usize..(start + len) as usize]
    }

    fn readers(&self, channel: &Channel) -> &[OpId] {
        let [start, len] = channel.readers;
        &self.users[start as usize..(start + len) as usize]
    }

    /// Whether every channel's writers all come before its readers in
    /// op order. Then every writer → reader edge runs forward in a
    /// total order, so the actor graph has no cycle, no ring and no
    /// edge to itself — the shape every lowering in the repository
    /// builds, which the cycle checks need not look at.
    fn all_forward(&self) -> bool {
        self.list.iter().all(|channel| {
            let last_writer = self.writers(channel).iter().map(|op| op.index()).max();
            let first_reader = self.readers(channel).iter().map(|op| op.index()).min();
            match (last_writer, first_reader) {
                (Some(w), Some(r)) => w < r,
                _ => true,
            }
        })
    }

    /// Writer → reader edges through every channel whose capacity
    /// passes `keep`, between actor indices.
    fn edges(&self, actors: &Actors, keep: impl Fn(i64) -> bool) -> Vec<(u32, u32)> {
        let kept = || self.list.iter().filter(|c| keep(c.capacity));
        let count = kept()
            .map(|c| self.writers(c).len() * self.readers(c).len())
            .sum();
        let mut edges = Vec::with_capacity(count);
        for channel in kept() {
            for &w in self.writers(channel) {
                for &r in self.readers(channel) {
                    edges.push((actors.index[w.index()], actors.index[r.index()]));
                }
            }
        }
        edges
    }
}

/// The ops that write or read a channel of a graph, numbered in op
/// order, with the number of each op in a table indexed by `OpId`.
#[derive(Debug)]
struct Actors {
    index: Vec<u32>,
    ops: Vec<OpId>,
}

impl Actors {
    fn of(module: &Module, channels: &Channels) -> Actors {
        let mut index = vec![NONE; module.num_op_slots()];
        let mut count = 0;
        for op in &channels.users {
            count += usize::from(index[op.index()] == NONE);
            index[op.index()] = 0;
        }
        let mut ops = Vec::with_capacity(count);
        for (raw, slot) in index.iter_mut().enumerate() {
            if *slot != NONE {
                *slot = ops.len() as u32;
                ops.push(OpId::from_raw(raw as u32));
            }
        }
        Actors { index, ops }
    }
}

/// The lints over one `dfg.graph`, given every op nested under it.
fn analyze_graph_op(module: &Module, body_ops: &[OpId], out: &mut Collector<'_>) {
    let channels = Channels::of(module, body_ops);

    for channel in &channels.list {
        let Some(def) = channel.def else {
            continue;
        };
        let writers = channels.writers(channel).len();
        if writers > 1 {
            out.emit(
                "dfg-multiple-writers",
                def,
                format!(
                    "{writers} producers write this channel; FIFO merge order is nondeterministic"
                ),
            );
        }
        if writers == 0 {
            out.emit("dfg-dangling-port", def, "channel is never written");
        }
        if channels.readers(channel).is_empty() {
            out.emit("dfg-dangling-port", def, "channel is never read");
        }
    }

    if channels.all_forward() {
        return;
    }
    let actors = Actors::of(module, &channels);
    check_unbuffered_cycles(&channels, &actors, out);
    check_channel_capacity(module, &channels, &actors, out);
}

/// Deadlock heuristic: consider only edges through channels whose FIFO
/// capacity is 1 (rendezvous semantics). Any node cycle in that
/// subgraph can fill-and-block regardless of schedule, so every node
/// on such a cycle is flagged.
fn check_unbuffered_cycles(channels: &Channels, actors: &Actors, out: &mut Collector<'_>) {
    // Edges writer -> reader over capacity-1 channels.
    let edges = channels.edges(actors, |capacity| capacity <= 1);
    if edges.is_empty() {
        return;
    }
    let graph = FlowGraph::from_edges(actors.ops.len(), edges);
    // Kahn pruning: whatever survives sits on a cycle.
    let mut indegree: Vec<usize> = (0..graph.len()).map(|n| graph.preds(n).len()).collect();
    let mut queue: Vec<usize> = (0..graph.len()).filter(|&n| indegree[n] == 0).collect();
    while let Some(n) = queue.pop() {
        for &s in graph.succs(n) {
            indegree[s] -= 1;
            if indegree[s] == 0 {
                queue.push(s);
            }
        }
    }
    for (n, _) in indegree.iter().enumerate().filter(|(_, &d)| d > 0) {
        out.emit(
            "dfg-unbuffered-cycle",
            actors.ops[n],
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
    channels: &Channels,
    actors: &Actors,
    out: &mut Collector<'_>,
) {
    let is_feed = |op: OpId| module.op(op).is_some_and(|o| o.name == "dfg.feed");

    // Edges writer -> reader through every channel (any capacity).
    let n = actors.ops.len();
    let graph = FlowGraph::from_edges(n, channels.edges(actors, |_| true));
    let components = Components::of(&graph);
    let self_edge = |node: usize| graph.succs(node).contains(&node);
    if components.count == n && !(0..n).any(self_edge) {
        // Every component one actor on no edge to itself: no ring.
        return;
    }

    // Fixpoint: a token can reach an actor iff it is a feed or any
    // predecessor can produce (optimistic single-token reachability).
    let budget = 4 * (n + 1) * (n + 1);
    let reach = solve(
        &graph,
        vec![TokenReach::bottom(); n],
        |node, states: &[TokenReach]| {
            if is_feed(actors.ops[node]) {
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

    let (start, nodes) = components.runs();
    for (c, run) in start.windows(2).enumerate() {
        let scc = &nodes[run[0]..run[1]];
        let nontrivial = scc.len() > 1 || scc.first().is_some_and(|&n| self_edge(n));
        if !nontrivial {
            continue;
        }
        let reachable = scc.iter().any(|&n| reach.states[n].0);
        if !reachable {
            // Actors are numbered in op order: the ring is sorted.
            for &node in scc {
                out.emit(
                    "dfg-channel-capacity",
                    actors.ops[node],
                    "actor sits on a ring no feed can reach; no token can ever \
                     enter the cycle (certain deadlock) — feed the ring or seed \
                     an initial token",
                );
            }
            continue;
        }
        // Internal capacity of the ring: channels whose writer and
        // reader both sit inside the SCC.
        let in_scc = |op: &OpId| components.of[actors.index[op.index()] as usize] == c;
        let mut capacity = 0i64;
        let mut anchor: Option<OpId> = None;
        for channel in &channels.list {
            if channels.writers(channel).iter().any(in_scc)
                && channels.readers(channel).iter().any(in_scc)
            {
                capacity += channel.capacity.max(0);
                if let Some(def) = channel.def {
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

/// The strongly connected components of a [`FlowGraph`] (iterative
/// Kosaraju), numbered in the order the second pass finds them.
#[derive(Debug)]
struct Components {
    /// The component of each node.
    of: Vec<usize>,
    count: usize,
}

impl Components {
    fn of(graph: &FlowGraph) -> Components {
        let n = graph.len();
        // Pass 1: finish order by iterative DFS on successors.
        let mut visited = vec![false; n];
        let mut finish: Vec<usize> = Vec::with_capacity(n);
        let mut stack: Vec<(usize, usize)> = Vec::new();
        for root in 0..n {
            if visited[root] {
                continue;
            }
            stack.push((root, 0));
            visited[root] = true;
            while let Some((node, next)) = stack.last_mut() {
                let node = *node;
                if let Some(&succ) = graph.succs(node).get(*next) {
                    *next += 1;
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
        let mut of = vec![usize::MAX; n];
        let mut count = 0usize;
        let mut stack: Vec<usize> = Vec::new();
        for &root in finish.iter().rev() {
            if of[root] != usize::MAX {
                continue;
            }
            stack.push(root);
            of[root] = count;
            while let Some(node) = stack.pop() {
                for &pred in graph.preds(node) {
                    if of[pred] == usize::MAX {
                        of[pred] = count;
                        stack.push(pred);
                    }
                }
            }
            count += 1;
        }
        Components { of, count }
    }

    /// Every component's nodes, ascending, as one run of `nodes` each:
    /// component `c` is `nodes[start[c]..start[c + 1]]`. A counting
    /// sort of the nodes by component.
    fn runs(&self) -> (Vec<usize>, Vec<usize>) {
        let mut start = vec![0usize; self.count + 1];
        for &c in &self.of {
            start[c + 1] += 1;
        }
        for c in 0..self.count {
            start[c + 1] += start[c];
        }
        let mut next = start.clone();
        let mut nodes = vec![0usize; self.of.len()];
        for (node, &c) in self.of.iter().enumerate() {
            nodes[next[c]] = node;
            next[c] += 1;
        }
        (start, nodes)
    }
}

// ---------------------------------------------------------------------------
// ConDRust graph lints
// ---------------------------------------------------------------------------

/// Checks an extracted ConDRust dataflow graph before lowering.
///
/// * `condrust-shared-state`: two `StatefulMap` nodes built from the
///   same state constructor mutate one state object; replicating or
///   reordering them races, so the executor must serialize them —
///   usually a porting mistake.
/// * `condrust-dead-node`: a non-sink node whose output no one
///   consumes is dead work in every iteration.
///
/// Both are warnings.
pub(crate) fn analyze_condrust_graph(graph: &DataflowGraph) -> AnalysisReport {
    let mut report = AnalysisReport::new();
    let mut emit = |id: &str, message: String| {
        report.diagnostics.push(Diagnostic {
            lint: id.to_string(),
            severity: Severity::Warn,
            op: None,
            path: None,
            message,
        });
    };

    // Shared state: group stateful nodes by constructor.
    let mut by_ctor: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for node in &graph.nodes {
        if let NodeKind::StatefulMap { ctor, .. } = &node.kind {
            by_ctor.entry(ctor.as_str()).or_default().push(&node.label);
        }
    }
    for (ctor, labels) in by_ctor {
        if labels.len() > 1 {
            emit(
                "condrust-shared-state",
                format!(
                    "state '{ctor}' is mutated by {} operators ({}); they \
                     serialize the pipeline and race under replication",
                    labels.len(),
                    labels.join(", ")
                ),
            );
        }
    }

    // Dead nodes: outputs nobody consumes.
    let consumers = graph.consumers();
    for node in &graph.nodes {
        if matches!(node.kind, NodeKind::Sink) {
            continue;
        }
        if consumers[node.id].is_empty() {
            emit(
                "condrust-dead-node",
                format!(
                    "operator '{}' computes a value no downstream node consumes",
                    node.label
                ),
            );
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use everest_condrust::parse_function;
    use everest_ir::attr::Attribute;
    use everest_ir::dialects::dataflow::{build_channel, build_graph};
    use everest_ir::types::Type;

    use crate::lint::Analyzer;

    fn run(m: &Module) -> AnalysisReport {
        Analyzer::new()
            .with_lint(Box::new(DfgStructure))
            .run(&Context::with_all_dialects(), m)
    }

    fn node(m: &mut Module, block: everest_ir::BlockId, operands: Vec<ValueId>, callee: &str) {
        m.build_op("dfg.node", operands, [])
            .attr("callee", Attribute::SymbolRef(callee.into()))
            .append_to(block);
    }

    #[test]
    fn well_formed_pipeline_is_clean() {
        let mut m = Module::new();
        let top = m.top_block();
        let (_g, body) = build_graph(&mut m, top, "pipe");
        let c0 = build_channel(&mut m, body, Type::F64, 16);
        let c1 = build_channel(&mut m, body, Type::F64, 16);
        m.build_op("dfg.feed", [c0], [])
            .attr("name", "in")
            .append_to(body);
        node(&mut m, body, vec![c0, c1], "stage");
        m.build_op("dfg.sink", [c1], [])
            .attr("name", "out")
            .append_to(body);
        m.build_op("dfg.yield", [], []).append_to(body);
        let report = run(&m);
        assert!(report.is_clean(), "{}", report.to_text());
    }

    #[test]
    fn two_writers_on_one_channel_are_flagged() {
        let mut m = Module::new();
        let top = m.top_block();
        let (_g, body) = build_graph(&mut m, top, "race");
        let c0 = build_channel(&mut m, body, Type::F64, 16);
        let out_c = build_channel(&mut m, body, Type::F64, 16);
        m.build_op("dfg.feed", [c0], [])
            .attr("name", "in")
            .append_to(body);
        // Both nodes write out_c (last operand).
        node(&mut m, body, vec![c0, out_c], "a");
        node(&mut m, body, vec![c0, out_c], "b");
        m.build_op("dfg.sink", [out_c], [])
            .attr("name", "out")
            .append_to(body);
        m.build_op("dfg.yield", [], []).append_to(body);
        let report = run(&m);
        assert_eq!(report.by_lint("dfg-multiple-writers").len(), 1);
        assert!(report.has_denials());
        assert!(report.diagnostics[0].message.contains("2 producers"));
    }

    #[test]
    fn unread_and_unwritten_channels_are_flagged() {
        let mut m = Module::new();
        let top = m.top_block();
        let (_g, body) = build_graph(&mut m, top, "dangling");
        let c0 = build_channel(&mut m, body, Type::F64, 16);
        let c1 = build_channel(&mut m, body, Type::F64, 16);
        // c0 written but never read; c1 read but never written.
        m.build_op("dfg.feed", [c0], [])
            .attr("name", "in")
            .append_to(body);
        m.build_op("dfg.sink", [c1], [])
            .attr("name", "out")
            .append_to(body);
        m.build_op("dfg.yield", [], []).append_to(body);
        let report = run(&m);
        assert_eq!(report.by_lint("dfg-dangling-port").len(), 2);
    }

    #[test]
    fn capacity_one_cycle_is_flagged_but_buffered_cycle_is_not() {
        // a -> b -> a through capacity-1 channels: flagged.
        let mut m = Module::new();
        let top = m.top_block();
        let (_g, body) = build_graph(&mut m, top, "ring");
        let ab = build_channel(&mut m, body, Type::F64, 1);
        let ba = build_channel(&mut m, body, Type::F64, 1);
        node(&mut m, body, vec![ba, ab], "a");
        node(&mut m, body, vec![ab, ba], "b");
        m.build_op("dfg.yield", [], []).append_to(body);
        let report = run(&m);
        assert_eq!(report.by_lint("dfg-unbuffered-cycle").len(), 2);

        // Same ring with deep FIFOs: not flagged.
        let mut m2 = Module::new();
        let top2 = m2.top_block();
        let (_g2, body2) = build_graph(&mut m2, top2, "ring2");
        let ab2 = build_channel(&mut m2, body2, Type::F64, 64);
        let ba2 = build_channel(&mut m2, body2, Type::F64, 64);
        node(&mut m2, body2, vec![ba2, ab2], "a");
        node(&mut m2, body2, vec![ab2, ba2], "b");
        m2.build_op("dfg.yield", [], []).append_to(body2);
        assert!(run(&m2).by_lint("dfg-unbuffered-cycle").is_empty());
    }

    #[test]
    fn unfed_ring_is_a_certain_token_deadlock() {
        let mut m = Module::new();
        let top = m.top_block();
        let (_g, body) = build_graph(&mut m, top, "ring");
        let ab = build_channel(&mut m, body, Type::F64, 64);
        let ba = build_channel(&mut m, body, Type::F64, 64);
        node(&mut m, body, vec![ba, ab], "a");
        node(&mut m, body, vec![ab, ba], "b");
        m.build_op("dfg.yield", [], []).append_to(body);
        let report = run(&m);
        let findings = report.by_lint("dfg-channel-capacity");
        assert_eq!(findings.len(), 2, "{}", report.to_text());
        assert!(findings[0].message.contains("no feed can reach"));
    }

    #[test]
    fn fed_ring_gets_a_minimal_capacity_suggestion() {
        // feed -> a <-> b with two capacity-1 ring channels: reachable,
        // but 2 slots for a 2-actor ring (needs 3).
        let mut m = Module::new();
        let top = m.top_block();
        let (_g, body) = build_graph(&mut m, top, "fedring");
        let input = build_channel(&mut m, body, Type::F64, 16);
        let ab = build_channel(&mut m, body, Type::F64, 1);
        let ba = build_channel(&mut m, body, Type::F64, 1);
        m.build_op("dfg.feed", [input], [])
            .attr("name", "in")
            .append_to(body);
        node(&mut m, body, vec![input, ba, ab], "a");
        node(&mut m, body, vec![ab, ba], "b");
        m.build_op("dfg.yield", [], []).append_to(body);
        let report = run(&m);
        let findings = report.by_lint("dfg-channel-capacity");
        assert_eq!(findings.len(), 1, "{}", report.to_text());
        assert!(
            findings[0].message.contains("needs at least 3 slots"),
            "{}",
            findings[0].message
        );
        assert!(findings[0]
            .message
            .contains("raise total ring capacity by 1"));
    }

    #[test]
    fn fed_ring_with_enough_slack_is_not_flagged() {
        let mut m = Module::new();
        let top = m.top_block();
        let (_g, body) = build_graph(&mut m, top, "buffered");
        let input = build_channel(&mut m, body, Type::F64, 16);
        let ab = build_channel(&mut m, body, Type::F64, 2);
        let ba = build_channel(&mut m, body, Type::F64, 2);
        m.build_op("dfg.feed", [input], [])
            .attr("name", "in")
            .append_to(body);
        node(&mut m, body, vec![input, ba, ab], "a");
        node(&mut m, body, vec![ab, ba], "b");
        m.build_op("dfg.yield", [], []).append_to(body);
        let report = run(&m);
        assert!(
            report.by_lint("dfg-channel-capacity").is_empty(),
            "{}",
            report.to_text()
        );
    }

    #[test]
    fn condrust_clean_pipeline_has_no_findings() {
        let f = parse_function(
            "fn f(xs: Vec<f64>) -> Vec<f64> {
                let mut out = Vec::new();
                for x in xs {
                    let y = g(x);
                    out.push(y);
                }
                out
            }",
        )
        .unwrap();
        let g = DataflowGraph::from_function(&f).unwrap();
        let report = analyze_condrust_graph(&g);
        assert!(report.is_clean(), "{}", report.to_text());
    }

    #[test]
    fn condrust_shared_state_and_dead_node_are_flagged() {
        let f = parse_function(
            "fn f(xs: Vec<f64>) -> Vec<f64> {
                let mut out = Vec::new();
                let mut acc = mk_acc();
                for x in xs {
                    let a = acc.fold(x);
                    let b = acc.scale(x);
                    let dead = h(x);
                    out.push(b);
                }
                out
            }",
        )
        .unwrap();
        let g = DataflowGraph::from_function(&f).unwrap();
        let report = analyze_condrust_graph(&g);
        assert_eq!(report.by_lint("condrust-shared-state").len(), 1);
        // `a` and `dead` both have no consumers.
        assert_eq!(report.by_lint("condrust-dead-node").len(), 2);
        assert!(report.by_lint("condrust-shared-state")[0]
            .message
            .contains("mk_acc"));
    }
}
