//! Property tests for the fixpoint worklist solver: on random graphs
//! with monotone transfer functions the solver must terminate within
//! its budget, reach the fixpoint an independent graph search finds,
//! and reach the same one whatever order the edges were inserted in —
//! the classical confluence property of Kleene iteration over a
//! finite-height lattice.

use proptest::prelude::*;

use everest_analysis::{solve, FlowGraph, Lattice};

/// Reachability-from-roots: the simplest useful join-semilattice.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Reach(bool);

impl Lattice for Reach {
    fn bottom() -> Reach {
        Reach(false)
    }

    fn join(&self, other: &Reach) -> Reach {
        Reach(self.0 || other.0)
    }
}

/// Longest-known-distance capped at the node count: finite height, so
/// iteration converges even on cyclic graphs, but the cap is reached
/// through genuinely order-dependent intermediate states.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Depth(u32);

impl Lattice for Depth {
    fn bottom() -> Depth {
        Depth(0)
    }

    fn join(&self, other: &Depth) -> Depth {
        Depth(self.0.max(other.0))
    }
}

fn graph_from_edges(n: usize, edges: &[(usize, usize)]) -> FlowGraph {
    let mut graph = FlowGraph::new(n);
    for &(from, to) in edges {
        graph.add_edge(from % n, to % n);
    }
    graph
}

/// Node count plus raw edge endpoints; `graph_from_edges` folds the
/// endpoints into range with `% n`, so any drawn pair is a valid edge.
fn arbitrary_edges(max_nodes: usize) -> impl Strategy<Value = (usize, Vec<(usize, usize)>)> {
    (
        2..max_nodes,
        proptest::collection::vec((0usize..64, 0usize..64), 0..3 * max_nodes),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Reachability on arbitrary (cyclic) graphs: the solver stays
    /// inside the budget and marks exactly the nodes a plain depth-first
    /// search from the roots visits.
    #[test]
    fn reachability_fixpoint_is_what_a_graph_search_finds(
        shape in arbitrary_edges(24),
        roots in proptest::collection::vec(0usize..24, 1..4),
    ) {
        let (n, edges) = shape;
        let graph = graph_from_edges(n, &edges);
        let mut seed = vec![Reach(false); n];
        for &root in &roots {
            seed[root % n] = Reach(true);
        }
        let mut searched = seed.clone();
        let mut stack: Vec<usize> = roots.iter().map(|root| root % n).collect();
        while let Some(node) = stack.pop() {
            for &succ in graph.succs(node) {
                if !std::mem::replace(&mut searched[succ].0, true) {
                    stack.push(succ);
                }
            }
        }
        let budget = 4 * (n + edges.len()) * (n + 1) + 16;
        let solved = solve(
            &graph,
            seed,
            |node, states: &[Reach]| {
                let mut fact = states[node].clone();
                for &pred in graph.preds(node) {
                    fact = fact.join(&states[pred]);
                }
                fact
            },
            budget,
        );
        prop_assert!(solved.converged, "budget exceeded");
        prop_assert_eq!(solved.states, searched);
    }

    /// Confluence for a taller lattice (capped longest distance) whose
    /// intermediate states genuinely depend on visiting order: the same
    /// edges inserted in reverse — so every adjacency list, and with it
    /// the order nodes are re-queued in, is reversed — reach the same
    /// fixpoint.
    #[test]
    fn edge_insertion_order_does_not_change_the_depth_fixpoint(
        shape in arbitrary_edges(16),
    ) {
        let (n, edges) = shape;
        let cap = n as u32;
        let in_order = graph_from_edges(n, &edges);
        let reversed: Vec<(usize, usize)> = edges.iter().rev().copied().collect();
        let in_reverse = graph_from_edges(n, &reversed);
        let budget = 4 * (n + edges.len()) * (n + 1) + 16;
        let run = |graph: &FlowGraph| {
            solve(
                graph,
                vec![Depth(0); n],
                |node, states: &[Depth]| {
                    let mut fact = states[node].clone();
                    for &pred in graph.preds(node) {
                        fact = fact.join(&Depth((states[pred].0 + 1).min(cap)));
                    }
                    fact
                },
                budget,
            )
        };
        let (a, b) = (run(&in_order), run(&in_reverse));
        prop_assert!(a.converged && b.converged, "budget exceeded");
        prop_assert_eq!(a.states, b.states);
    }
}
