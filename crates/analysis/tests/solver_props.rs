//! Property tests for the fixpoint worklist solver: on random graphs
//! with monotone transfer functions the solver must terminate within
//! its budget, reach the fixpoint an independent graph search finds,
//! and reach the same one whatever order the edges were inserted in —
//! the classical confluence property of Kleene iteration over a
//! finite-height lattice.
//!
//! The CSR [`FlowGraph`] itself is held to the adjacency-list graph it
//! replaced (`tests/reference/`): the same successor and predecessor
//! sequences for any edge list, and through the two value-level
//! analyses the same states in the same number of steps. The dataflow
//! structure lint on dense tables is held to the map-based one it
//! replaced: the same normalized findings on random `dfg` graphs.

mod golden;
mod reference;

use proptest::prelude::*;

use everest_analysis::{escape, interval, solve, Analyzer, DfgStructure, FlowGraph, Lattice};
use everest_ekl::{check::check, lower::lower_to_loops, parser::parse};
use everest_ir::attr::Attribute;
use everest_ir::dialects::core;
use everest_ir::dialects::dataflow::{build_channel, build_graph};
use everest_ir::ids::ValueId;
use everest_ir::module::{single_result, Module};
use everest_ir::registry::Context;
use everest_ir::types::Type;

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
    let edges = edges
        .iter()
        .map(|&(from, to)| ((from % n) as u32, (to % n) as u32))
        .collect();
    FlowGraph::from_edges(n, edges)
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

    /// Duplicates, self-loops and all: each node's successors and
    /// predecessors are what one `contains`-guarded push per edge
    /// leaves, in that order. (Endpoints are drawn from 0..64 and
    /// folded by `% n` with `n < 24`, so repeats are the common case.)
    #[test]
    fn csr_graph_lists_what_the_adjacency_lists_list(shape in arbitrary_edges(24)) {
        let (n, edges) = shape;
        let graph = graph_from_edges(n, &edges);
        let mut naive = reference::fixpoint::FlowGraph::new(n);
        for &(from, to) in &edges {
            naive.add_edge(from % n, to % n);
        }
        prop_assert_eq!(graph.len(), naive.len());
        for node in 0..n {
            prop_assert_eq!(graph.succs(node), naive.succs(node), "succs of {}", node);
            prop_assert_eq!(graph.preds(node), naive.preds(node), "preds of {}", node);
        }
    }
}

/// Modules for the value-level analyses: the golden module, and lowered
/// EKL kernels with loops, reductions, selects and copies.
fn analysed_modules() -> Vec<everest_ir::module::Module> {
    let mut modules = vec![golden::buggy_module()];
    for source in [
        "kernel axpy {
           index i : 0..64
           input a : [i]
           input x : [i]
           let y[i] = 2.0 * a[i] + x[i] * x[i]
           output y
         }",
        "kernel mixed {
           index i : 0..16
           index j : 0..4
           input a : [i]
           input m : [i, j]
           let s0[i] = select(a[i] <= 0.3, a[i], 0.2 * a[i])
           let s1[i] = sum(j)(0.2 * m[i, j] * s0[i]) + 0.1 * a[i]
           let t[i, j] = m[i, j] * s1[i] + s0[i]
           let d = sum(i)(sum(j)(t[i, j] * t[i, j]))
           let out[i] = d * s1[i]
           output out
         }",
    ] {
        let program = check(&parse(source).expect("parses")).expect("checks");
        modules.push(lower_to_loops(&program).expect("lowers"));
    }
    modules
}

#[test]
fn value_analyses_solve_as_through_the_adjacency_list_graph() {
    for module in analysed_modules() {
        let values = module.num_values();
        assert!(values > 10);

        let got = escape::compute(&module);
        let want = reference::escape::compute(&module);
        assert_eq!(got.states, want.states);
        assert_eq!((got.steps, got.converged), (want.steps, want.converged));
        assert!(got.steps > values, "some value was revisited");

        let got = interval::compute(&module);
        let want = reference::interval::compute(&module);
        let states: Vec<_> = (0..values)
            .map(|index| got.of(ValueId::from_raw(index as u32)))
            .collect();
        assert_eq!(states, want.states);
        assert_eq!((got.steps, got.converged), (want.steps, want.converged));
    }
}

/// A module of one or two `dfg.graph`s (the second inside the first or
/// beside it) built from raw draws: channels of capacity -1 to 16 or
/// none, now and then a value no `dfg.channel` defines, and feeds, sinks
/// and nodes over channels picked at random — so cycles, rings with and
/// without a feed, several writers on one channel and channels nobody
/// reads or writes are all common.
fn random_dfg_module(draws: &[u64]) -> Module {
    let mut draws = draws.iter().copied();
    let mut below = |n: usize| (draws.next().unwrap_or(0) % n as u64) as usize;
    let mut m = Module::new();
    let mut parent = m.top_block();
    for g in 0..1 + below(2) {
        let (_, body) = build_graph(&mut m, parent, &format!("g{g}"));
        let mut channels = Vec::new();
        for _ in 0..1 + below(7) {
            channels.push(match below(9) {
                0 => {
                    let stream = Type::Stream(Box::new(Type::F64));
                    let op = m.build_op("dfg.channel", [], [stream]).append_to(body);
                    single_result(&m, op)
                }
                1 => core::const_f64(&mut m, body, 0.0),
                k => build_channel(&mut m, body, Type::F64, [-1, 0, 1, 1, 1, 2, 16][k - 2]),
            });
        }
        for _ in 0..below(10) {
            let c = channels[below(channels.len())];
            match below(5) {
                0 => {
                    m.build_op("dfg.feed", [c], [])
                        .attr("name", "in")
                        .append_to(body);
                }
                1 => {
                    m.build_op("dfg.sink", [c], [])
                        .attr("name", "out")
                        .append_to(body);
                }
                _ => {
                    let mut operands: Vec<ValueId> = (0..below(3))
                        .map(|_| channels[below(channels.len())])
                        .collect();
                    operands.push(c);
                    m.build_op("dfg.node", operands, [])
                        .attr("callee", Attribute::SymbolRef("k".into()))
                        .append_to(body);
                }
            }
        }
        m.build_op("dfg.yield", [], []).append_to(body);
        if below(2) == 0 {
            parent = body;
        }
    }
    m
}

/// Both lints' normalized findings on the module.
fn dfg_findings(
    module: &Module,
) -> (
    everest_analysis::AnalysisReport,
    everest_analysis::AnalysisReport,
) {
    let ctx = Context::with_all_dialects();
    let dense = Analyzer::new().with_lint(Box::new(DfgStructure));
    let maps = Analyzer::new().with_lint(Box::new(reference::dataflow::DfgStructure));
    (dense.run(&ctx, module), maps.run(&ctx, module))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The same findings, in the same normalized order, as through the
    /// channel map, the hash-map Kahn pruning and the per-component
    /// vectors of the lint it replaced.
    #[test]
    fn dfg_structure_finds_what_the_map_reference_finds(
        draws in proptest::collection::vec(any::<u64>(), 8..96),
    ) {
        let module = random_dfg_module(&draws);
        let (dense, maps) = dfg_findings(&module);
        prop_assert_eq!(&dense, &maps, "{}", everest_ir::print::print_module(&module));
    }
}

/// The generator reaches every finding the lint has, so the property
/// above compares all of them.
#[test]
fn random_dfg_graphs_raise_every_structure_finding() {
    let mut seen = std::collections::BTreeSet::new();
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    for _ in 0..256 {
        let draws: Vec<u64> = (0..64)
            .map(|_| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1);
                state >> 11
            })
            .collect();
        let (dense, maps) = dfg_findings(&random_dfg_module(&draws));
        assert_eq!(dense, maps);
        seen.extend(
            dense
                .diagnostics
                .iter()
                .map(|d| (d.lint.clone(), d.message.clone())),
        );
    }
    let lints: std::collections::BTreeSet<&str> = seen.iter().map(|(l, _)| l.as_str()).collect();
    assert_eq!(
        lints.into_iter().collect::<Vec<_>>(),
        [
            "dfg-channel-capacity",
            "dfg-dangling-port",
            "dfg-multiple-writers",
            "dfg-unbuffered-cycle"
        ]
    );
    // Both kinds of ring: one no feed reaches, one too small for its
    // wavefront.
    assert!(seen.iter().any(|(_, m)| m.contains("no feed can reach")));
    assert!(seen
        .iter()
        .any(|(_, m)| m.contains("raise total ring capacity")));
}
