//! E8 [§VI-A] — The resource manager: dependency-respecting placement,
//! load balancing, transfer-aware scheduling and failure rescheduling on
//! a 200-task workflow.

use crate::{rule, Report};
use everest_runtime::{Cluster, FaultPlan, Policy, RecoveryConfig, Scheduler, TaskGraph, TaskSpec};

/// A 200-task ensemble-like workflow: 20 chains of 10 tasks with mixed
/// durations, cross-links and data volumes.
fn workflow() -> TaskGraph {
    let mut graph = TaskGraph::new();
    let src = graph
        .add(TaskSpec::new("ingest", 500.0).with_output_bytes(8 << 20))
        .expect("ok");
    let mut heads = Vec::new();
    for chain in 0..20 {
        let mut prev = src;
        for step in 0..10 {
            let us = if step % 3 == 0 { 8_000.0 } else { 1_500.0 };
            let mut spec = TaskSpec::new(&format!("c{chain}s{step}"), us)
                .after([prev])
                .with_output_bytes(1 << 18);
            if step == 4 {
                spec = spec.with_fpga(us / 20.0);
            }
            prev = graph.add(spec).expect("ok");
        }
        heads.push(prev);
    }
    graph
        .add(TaskSpec::new("merge", 2_000.0).after(heads))
        .expect("ok");
    graph
}

pub(crate) fn series(r: &mut Report) {
    r.banner(
        "E8",
        "VI-A",
        "resource manager: scheduling, balancing, recovery",
    );
    let graph = workflow();
    r.pin(format!(
        "workflow: {} tasks (20 chains x 10 + ingest + merge)\n",
        graph.len()
    ));
    r.pin(format!(
        "{:>6} {:>12} {:>14} {:>14} {:>11}",
        "nodes", "policy", "makespan", "transfers", "imbalance"
    ));
    r.pin(rule(62));
    for nodes in [2usize, 4, 8, 16] {
        for (label, policy) in [("rr", Policy::RoundRobin), ("heft", Policy::Heft)] {
            let cluster = Cluster::everest(nodes - 1, 1, 4);
            let result = Scheduler::new(cluster, policy).run(&graph);
            r.pin(format!(
                "{:>6} {:>12} {:>11.1} ms {:>11.1} ms {:>11.3}",
                nodes,
                label,
                result.makespan_us / 1000.0,
                result.transfer_us / 1000.0,
                result.load_imbalance()
            ));
        }
    }

    r.pin("\nfailure rescheduling (4 nodes, heft; the busiest node dies):");
    let cluster = Cluster::everest(3, 1, 4);
    let scheduler = Scheduler::new(cluster, Policy::Heft);
    let clean = scheduler.run(&graph);
    // kill the node carrying the most work
    let busiest = clean
        .node_busy_us
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map(|(n, _)| n)
        .expect("nodes exist");
    for frac in [0.25, 0.5, 0.75] {
        let crash = FaultPlan::single_node_crash(0, busiest, clean.makespan_us * frac);
        let failed = scheduler.run_with_plan(&graph, &crash, &RecoveryConfig::default());
        r.pin(format!(
            "  node {busiest} dies at {:>3.0}% of makespan: {:>7.1} ms (+{:>4.1}%), {} tasks recovered",
            frac * 100.0,
            failed.makespan_us / 1000.0,
            100.0 * (failed.makespan_us - clean.makespan_us) / clean.makespan_us,
            failed.recovered_tasks
        ));
    }
}

pub(crate) fn timings(r: &mut Report) {
    let graph = workflow();
    let scheduler = Scheduler::new(Cluster::everest(7, 1, 4), Policy::Heft);
    r.time("e08_scheduler/heft_200_tasks_8_nodes", || {
        scheduler.run(&graph)
    });
    let clean = scheduler.run(&graph);
    r.time("e08_scheduler/recovery_200_tasks", || {
        let crash = FaultPlan::single_node_crash(0, 0, clean.makespan_us * 0.5);
        scheduler.run_with_plan(&graph, &crash, &RecoveryConfig::default())
    });
}
