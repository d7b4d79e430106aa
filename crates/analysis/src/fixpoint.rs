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

/// The dependency graph a fixpoint runs over.
#[derive(Debug, Clone, Default)]
pub struct FlowGraph {
    succs: Vec<Vec<usize>>,
    preds: Vec<Vec<usize>>,
}

impl FlowGraph {
    /// Creates a graph with `nodes` nodes and no edges.
    pub fn new(nodes: usize) -> FlowGraph {
        FlowGraph {
            succs: vec![Vec::new(); nodes],
            preds: vec![Vec::new(); nodes],
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.succs.len()
    }

    /// True when the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.succs.is_empty()
    }

    /// Adds a dependency edge `from -> to` ("`to` reads `from`").
    /// Duplicate edges are kept out so re-queueing stays linear.
    pub fn add_edge(&mut self, from: usize, to: usize) {
        assert!(from < self.len() && to < self.len(), "edge out of bounds");
        if !self.succs[from].contains(&to) {
            self.succs[from].push(to);
            self.preds[to].push(from);
        }
    }

    /// Successors of `node` (nodes that read its fact).
    pub fn succs(&self, node: usize) -> &[usize] {
        &self.succs[node]
    }

    /// Predecessors of `node` (nodes whose facts it reads).
    pub fn preds(&self, node: usize) -> &[usize] {
        &self.preds[node]
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
        let mut g = FlowGraph::new(5);
        g.add_edge(0, 1);
        g.add_edge(0, 2);
        g.add_edge(1, 3);
        g.add_edge(2, 3);
        g
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
        let mut g = FlowGraph::new(2);
        g.add_edge(0, 1);
        g.add_edge(1, 0);
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
