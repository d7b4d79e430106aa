//! Generic fixpoint dataflow framework: a join-semilattice trait and a
//! deterministic worklist solver shared by every flow-sensitive lint.
//!
//! The solver is deliberately small and graph-shaped rather than
//! CFG-shaped: analyses build a [`FlowGraph`] whose nodes are whatever
//! the analysis ranges over — SSA values for interval propagation,
//! dataflow-graph actors for channel productivity, kernel symbols for
//! latency — and an edge `u -> v` means "the fact at `v` depends on the
//! fact at `u`", so `v` must be revisited whenever `u` changes.
//!
//! Transfer functions receive the *whole* state vector, not just the
//! join of predecessors. That generality is what lets one solver serve
//! interval arithmetic (`add` needs both operand states separately),
//! min-over-inputs channel productivity, and max-over-paths latency.
//!
//! Determinism and termination:
//!
//! * the worklist is seeded with every node in index order and
//!   deduplicated, so a run is a pure function of the graph and the
//!   transfer function — no hashing, no pointer order;
//! * for a monotone transfer function over a finite-height lattice the
//!   solver reaches the unique least fixpoint, whatever order the
//!   edges were inserted in (property-tested in
//!   `tests/solver_props.rs`);
//! * a step budget bounds divergent transfer functions: if the budget
//!   is exhausted the result is flagged `converged == false` and the
//!   caller must degrade gracefully (e.g. report "unbounded").

/// A join-semilattice: partially ordered facts with a least element and
/// a least upper bound.
///
/// Implementations must satisfy the usual laws (join is associative,
/// commutative, idempotent; `bottom` is its identity) and transfer
/// functions built on top must be monotone for the solver's
/// order-independence guarantee to hold.
pub trait Lattice: Clone + PartialEq + std::fmt::Debug {
    /// The least element: "no information yet".
    fn bottom() -> Self;

    /// Least upper bound of `self` and `other`.
    fn join(&self, other: &Self) -> Self;

    /// Joins `other` into `self`, returning whether `self` changed.
    /// The default goes through [`Lattice::join`]; override for speed.
    fn join_with(&mut self, other: &Self) -> bool {
        let joined = self.join(other);
        if joined == *self {
            false
        } else {
            *self = joined;
            true
        }
    }
}

/// The dependency graph a fixpoint runs over, in compressed sparse
/// rows: one offset array and one target array per direction, built
/// once from the whole edge list. A node costs eight bytes whether or
/// not it has edges, so a graph over every SSA value of a module is two
/// allocations a direction, not one per value.
#[derive(Debug, Clone)]
pub struct FlowGraph {
    succ_offsets: Vec<u32>,
    succs: Vec<usize>,
    pred_offsets: Vec<u32>,
    preds: Vec<usize>,
}

impl Default for FlowGraph {
    fn default() -> Self {
        FlowGraph::new(0)
    }
}

impl FlowGraph {
    /// Creates a graph with `nodes` nodes and no edges.
    pub fn new(nodes: usize) -> FlowGraph {
        FlowGraph::from_edges(nodes, Vec::new())
    }

    /// Creates a graph with `nodes` nodes and a dependency edge
    /// `from -> to` ("`to` reads `from`") for each `(from, to)` pair.
    ///
    /// A pair that repeats an earlier one is dropped, so re-queueing
    /// stays linear; what is left keeps its order: [`FlowGraph::succs`]
    /// of a node lists its readers, and [`FlowGraph::preds`] what it
    /// reads, in the order the pairs first named them.
    ///
    /// # Panics
    ///
    /// Panics if a pair names a node outside `0..nodes`.
    pub fn from_edges(nodes: usize, mut edges: Vec<(u32, u32)>) -> FlowGraph {
        const DROPPED: u32 = u32::MAX;
        assert!(
            edges
                .iter()
                .all(|&(from, to)| (from as usize) < nodes && (to as usize) < nodes),
            "edge out of bounds"
        );
        assert!(edges.len() < DROPPED as usize, "edge count fits 32 bits");
        // Bucket the pairs by source, stably: a counting sort.
        let mut succ_offsets = vec![0u32; nodes + 1];
        for &(from, _) in &edges {
            succ_offsets[from as usize + 1] += 1;
        }
        for node in 0..nodes {
            succ_offsets[node + 1] += succ_offsets[node];
        }
        let mut next = succ_offsets.clone();
        let mut by_source = vec![0u32; edges.len()];
        for (index, &(from, _)) in edges.iter().enumerate() {
            by_source[next[from as usize] as usize] = index as u32;
            next[from as usize] += 1;
        }
        // One source's pairs now sit together, so "has this source named
        // this target before" is one stamp per target. Repeats are marked
        // in the pair list, the survivors compacted into `succs`. (The
        // cursor array is done with; its storage holds the stamps.)
        let mut named_by = next;
        named_by.clear();
        named_by.resize(nodes, DROPPED);
        let mut succs = Vec::with_capacity(edges.len());
        let mut pred_offsets = vec![0u32; nodes + 1];
        for from in 0..nodes {
            let bucket = succ_offsets[from] as usize..succ_offsets[from + 1] as usize;
            succ_offsets[from] = succs.len() as u32;
            for &index in &by_source[bucket] {
                let to = edges[index as usize].1 as usize;
                if named_by[to] == from as u32 {
                    edges[index as usize].0 = DROPPED;
                } else {
                    named_by[to] = from as u32;
                    succs.push(to);
                    pred_offsets[to + 1] += 1;
                }
            }
        }
        succ_offsets[nodes] = succs.len() as u32;
        // The survivors again, in the order they were given, by target.
        for node in 0..nodes {
            pred_offsets[node + 1] += pred_offsets[node];
        }
        let mut next = named_by; // and now the cursors again
        next.clear();
        next.extend_from_slice(&pred_offsets[..nodes]);
        let mut preds = vec![0usize; succs.len()];
        for &(from, to) in &edges {
            if from != DROPPED {
                preds[next[to as usize] as usize] = from as usize;
                next[to as usize] += 1;
            }
        }
        FlowGraph {
            succ_offsets,
            succs,
            pred_offsets,
            preds,
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.succ_offsets.len() - 1
    }

    /// True when the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Successors of `node` (nodes that read its fact).
    pub fn succs(&self, node: usize) -> &[usize] {
        &self.succs[self.succ_offsets[node] as usize..self.succ_offsets[node + 1] as usize]
    }

    /// Predecessors of `node` (nodes whose facts it reads).
    pub fn preds(&self, node: usize) -> &[usize] {
        &self.preds[self.pred_offsets[node] as usize..self.pred_offsets[node + 1] as usize]
    }
}

/// The result of a solver run.
#[derive(Debug, Clone)]
pub struct Fixpoint<L> {
    /// Per-node facts at the fixpoint (or at budget exhaustion).
    pub states: Vec<L>,
    /// Number of transfer-function applications performed.
    pub steps: usize,
    /// False when the step budget ran out before stabilising. Callers
    /// must treat the states as an under-approximation in that case.
    pub converged: bool,
}

/// Runs a worklist fixpoint over `graph`.
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
pub fn solve<L, F>(
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

#[cfg(test)]
mod tests {
    use super::*;

    /// Reachability: the simplest useful lattice (false < true).
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct Reach(bool);

    impl Lattice for Reach {
        fn bottom() -> Reach {
            Reach(false)
        }
        fn join(&self, other: &Reach) -> Reach {
            Reach(self.0 || other.0)
        }
    }

    fn diamond() -> FlowGraph {
        // 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3, and an unreachable node 4.
        FlowGraph::from_edges(5, vec![(0, 1), (0, 2), (1, 3), (2, 3)])
    }

    fn reach_transfer(root: usize) -> impl Fn(usize, &[Reach]) -> Reach {
        move |node, states: &[Reach]| {
            if node == root {
                Reach(true)
            } else {
                // Reachable iff any predecessor is; preds are encoded in
                // the closure by the test graphs being forward graphs.
                Reach(states[node].0)
            }
        }
    }

    #[test]
    fn forward_reachability_reaches_the_obvious_fixpoint() {
        let g = diamond();
        let transfer = |node: usize, states: &[Reach]| {
            if node == 0 {
                Reach(true)
            } else {
                g.preds(node)
                    .iter()
                    .fold(Reach::bottom(), |acc, &p| acc.join(&states[p]))
            }
        };
        let result = solve(&g, vec![Reach::bottom(); g.len()], transfer, 1_000);
        assert!(result.converged);
        assert_eq!(
            result.states,
            vec![
                Reach(true),
                Reach(true),
                Reach(true),
                Reach(true),
                Reach(false)
            ]
        );
    }

    #[test]
    fn step_budget_flags_divergence() {
        // A transfer that never stabilises on a cycle of a lattice with
        // no top: model it by a counter lattice capped only by budget.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        struct Count(u64);
        impl Lattice for Count {
            fn bottom() -> Count {
                Count(0)
            }
            fn join(&self, other: &Count) -> Count {
                Count(self.0.max(other.0))
            }
        }
        let g = FlowGraph::from_edges(2, vec![(0, 1), (1, 0)]);
        let result = solve(
            &g,
            vec![Count::bottom(); 2],
            |node, states: &[Count]| Count(states[node].0 + 1),
            64,
        );
        assert!(!result.converged);
        assert_eq!(result.steps, 64);
    }

    #[test]
    fn empty_graph_converges_immediately() {
        let g = FlowGraph::new(0);
        let result = solve(&g, Vec::<Reach>::new(), reach_transfer(0), 10);
        assert!(result.converged);
        assert!(result.states.is_empty());
    }
}
