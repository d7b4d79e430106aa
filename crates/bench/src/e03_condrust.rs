//! E3 [Fig. 4, §V-A.2] — ConDRust determinism and scaling: the
//! map-matching pipeline at increasing replication, with bit-identical
//! outputs across all configurations.

use std::sync::Arc;
use std::time::Instant;

use crate::{rule, Report};
use everest_condrust::exec::{run_parallel, run_sequential};
use everest_condrust::graph::DataflowGraph;
use everest_condrust::lang::parse_function;
use everest_condrust::value::Value;
use everest_usecases::traffic::mapmatch::{
    condrust_registry, sample_value, MatchConfig, CONDRUST_MAP_MATCH,
};
use everest_usecases::traffic::{generate_trajectories, FcdConfig, RoadNetwork};

fn workload(n_points: usize) -> (DataflowGraph, everest_condrust::Registry, Vec<Value>) {
    let net = Arc::new(RoadNetwork::grid(20, 20, 100.0));
    let hops = (n_points / 2).max(4);
    let trajectories = generate_trajectories(
        &net,
        FcdConfig {
            hops,
            ..FcdConfig::default()
        },
        1,
        42,
    );
    let items: Vec<Value> = trajectories[0]
        .samples
        .iter()
        .take(n_points)
        .map(sample_value)
        .collect();
    let f = parse_function(CONDRUST_MAP_MATCH).expect("fig. 4 parses");
    let graph = DataflowGraph::from_function(&f).expect("graph extracts");
    let registry = condrust_registry(net, MatchConfig::default());
    (graph, registry, items)
}

pub(crate) fn series(r: &mut Report) {
    r.banner(
        "E3",
        "Fig. 4 / V-A.2",
        "ConDRust deterministic parallel map matching",
    );
    let (graph, registry, items) = workload(2000);
    let cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    r.pin("pipeline: source -> candidates (replicable) -> hmm state thread -> sink");
    r.pin(format!(
        "input: {} GPS samples; the determinism column is the paper's\n\
         guarantee and must hold at every configuration\n",
        items.len()
    ));
    let t = Instant::now();
    let reference = run_sequential(&graph, &registry, &items).expect("runs");
    let seq_ms = t.elapsed().as_secs_f64() * 1000.0;
    r.pin(format!("{:>12} {:>14}", "replication", "deterministic"));
    r.pin(rule(27));
    r.pin(format!("{:>12} {:>14}", "sequential", "reference"));
    r.host(format!(
        "host exposes {cores} core(s) — speedup is bounded by min(cores, replication)"
    ));
    r.host(format!(
        "{:>12} {:>12} {:>10}",
        "replication", "time", "speedup"
    ));
    r.host(rule(36));
    r.host(format!(
        "{:>12} {:>9.1} ms {:>10}",
        "sequential", seq_ms, "1.0x"
    ));
    for replication in [1usize, 2, 4, 8] {
        let t = Instant::now();
        let out = run_parallel(&graph, &registry, &items, replication).expect("runs");
        let ms = t.elapsed().as_secs_f64() * 1000.0;
        r.pin(format!(
            "{:>12} {:>14}",
            replication,
            if out == reference { "yes" } else { "NO!" }
        ));
        r.host(format!(
            "{:>12} {:>9.1} ms {:>9.1}x",
            replication,
            ms,
            seq_ms / ms
        ));
        assert_eq!(out, reference, "determinism violated");
    }
}

pub(crate) fn timings(r: &mut Report) {
    let (graph, registry, items) = workload(500);
    r.time("e03_condrust/sequential_500", || {
        run_sequential(&graph, &registry, &items).expect("runs")
    });
    r.time("e03_condrust/parallel4_500", || {
        run_parallel(&graph, &registry, &items, 4).expect("runs")
    });
}
