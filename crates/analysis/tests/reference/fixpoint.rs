//! `everest_analysis::fixpoint::FlowGraph` as of the commit before it
//! became CSR — two `Vec<Vec<usize>>` and a linear `contains` per
//! `add_edge`, obviously first-insertion order without duplicates — and
//! the worklist solver over it.

use everest_analysis::{Fixpoint, Lattice};

/// The dependency graph a fixpoint runs over.
#[derive(Debug, Clone, Default)]
pub(crate) struct FlowGraph {
    succs: Vec<Vec<usize>>,
    preds: Vec<Vec<usize>>,
}

impl FlowGraph {
    /// Creates a graph with `nodes` nodes and no edges.
    pub(crate) fn new(nodes: usize) -> FlowGraph {
        FlowGraph {
            succs: vec![Vec::new(); nodes],
            preds: vec![Vec::new(); nodes],
        }
    }

    /// Number of nodes.
    pub(crate) fn len(&self) -> usize {
        self.succs.len()
    }

    /// True when the graph has no nodes.
    pub(crate) fn is_empty(&self) -> bool {
        self.succs.is_empty()
    }

    /// Adds a dependency edge `from -> to` ("`to` reads `from`").
    /// Duplicate edges are kept out so re-queueing stays linear.
    pub(crate) fn add_edge(&mut self, from: usize, to: usize) {
        assert!(from < self.len() && to < self.len(), "edge out of bounds");
        if !self.succs[from].contains(&to) {
            self.succs[from].push(to);
            self.preds[to].push(from);
        }
    }

    /// Successors of `node` (nodes that read its fact).
    pub(crate) fn succs(&self, node: usize) -> &[usize] {
        &self.succs[node]
    }

    /// Predecessors of `node` (nodes whose facts it reads).
    pub(crate) fn preds(&self, node: usize) -> &[usize] {
        &self.preds[node]
    }
}

/// `everest_analysis::solve`, line for line, over the graph above.
///
/// `seed` provides the initial per-node facts (use
/// [`Lattice::bottom`] for "no information"). `transfer` maps a node
/// index and the current state vector to the node's new fact; the
/// solver joins that fact into the node's state and, on change,
/// re-queues the node's successors, first in first out.
///
/// `max_steps` bounds the total number of transfer applications; pass
/// e.g. `64 * graph.len()` for analyses whose lattice height is small
/// and check [`Fixpoint::converged`] on the way out.
pub(crate) fn solve<L, F>(
    graph: &FlowGraph,
    seed: Vec<L>,
    mut transfer: F,
    max_steps: usize,
) -> Fixpoint<L>
where
    L: Lattice,
    F: FnMut(usize, &[L]) -> L,
{
    assert_eq!(seed.len(), graph.len(), "seed must cover every node");
    let mut states = seed;
    let mut queued = vec![true; graph.len()];
    let mut worklist: std::collections::VecDeque<usize> = (0..graph.len()).collect();
    let mut steps = 0usize;
    while let Some(node) = worklist.pop_front() {
        queued[node] = false;
        if steps >= max_steps {
            return Fixpoint {
                states,
                steps,
                converged: false,
            };
        }
        steps += 1;
        let fact = transfer(node, &states);
        if states[node].join_with(&fact) {
            for &dep in graph.succs(node) {
                if !queued[dep] {
                    queued[dep] = true;
                    worklist.push_back(dep);
                }
            }
        }
    }
    Fixpoint {
        states,
        steps,
        converged: true,
    }
}
