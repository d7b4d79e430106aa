//! Property tests over the resource manager: for random task graphs,
//! clusters and failures, scheduling invariants must hold.

use proptest::prelude::*;

use everest_runtime::{Cluster, FaultPlan, Policy, RecoveryConfig, Scheduler, TaskGraph, TaskSpec};

/// Builds a random DAG from a shape vector: each entry adds a task with
/// up to two dependencies on earlier tasks.
fn random_graph(shape: &[(u8, u8, u16, bool)]) -> TaskGraph {
    let mut graph = TaskGraph::new();
    for (k, &(d1, d2, us, fpga)) in shape.iter().enumerate() {
        let mut deps = Vec::new();
        if k > 0 {
            deps.push(d1 as usize % k);
            let second = d2 as usize % k;
            if !deps.contains(&second) {
                deps.push(second);
            }
        }
        let mut spec = TaskSpec::new(&format!("t{k}"), 10.0 + us as f64)
            .after(deps)
            .with_output_bytes(us as u64 * 1024);
        if fpga {
            spec = spec.with_fpga(5.0 + us as f64 / 10.0);
        }
        graph.add(spec).expect("deps reference earlier tasks");
    }
    graph
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn schedules_respect_dependencies_and_complete(
        shape in proptest::collection::vec((any::<u8>(), any::<u8>(), 1u16..2000, any::<bool>()), 1..40),
        cpu_nodes in 1usize..5,
        fpga_nodes in 0usize..3,
        policy_heft in any::<bool>(),
    ) {
        let graph = random_graph(&shape);
        let policy = if policy_heft { Policy::Heft } else { Policy::RoundRobin };
        let cluster = Cluster::everest(cpu_nodes, fpga_nodes, 2);
        let result = Scheduler::new(cluster, policy).run(&graph);

        // Every task scheduled exactly once.
        prop_assert_eq!(result.entries.len(), graph.len());
        let mut seen = vec![false; graph.len()];
        for e in &result.entries {
            prop_assert!(!seen[e.task], "task scheduled twice");
            seen[e.task] = true;
        }
        // Dependencies precede their consumers.
        let finish: std::collections::HashMap<_, _> =
            result.entries.iter().map(|e| (e.task, e.finish_us)).collect();
        let start: std::collections::HashMap<_, _> =
            result.entries.iter().map(|e| (e.task, e.start_us)).collect();
        for (id, spec) in graph.iter() {
            for &d in &spec.deps {
                prop_assert!(start[&id] + 1e-9 >= finish[&d],
                    "task {} starts before dep {} finishes", id, d);
            }
        }
        // Makespan is the max finish.
        let max_finish = result.entries.iter().map(|e| e.finish_us).fold(0.0, f64::max);
        prop_assert!((result.makespan_us - max_finish).abs() < 1e-9);
        // FPGA entries only on FPGA nodes.
        for e in &result.entries {
            if e.on_fpga {
                prop_assert!(e.node >= cpu_nodes, "fpga task on cpu node");
            }
        }
    }

    #[test]
    fn failure_recovery_always_completes(
        shape in proptest::collection::vec((any::<u8>(), any::<u8>(), 1u16..1000, any::<bool>()), 2..25),
        fail_node in 0usize..4,
        fail_frac in 0.1f64..0.9,
    ) {
        let graph = random_graph(&shape);
        let cluster = Cluster::everest(3, 1, 2);
        let scheduler = Scheduler::new(cluster, Policy::Heft);
        let clean = scheduler.run(&graph);
        let (node, at_us) = (fail_node % 4, clean.makespan_us * fail_frac);
        let crash = FaultPlan::single_node_crash(0, node, at_us);
        let failed = scheduler.run_with_plan(&graph, &crash, &RecoveryConfig::default());
        // All tasks still complete, none finishing on the dead node after
        // the failure time.
        prop_assert_eq!(failed.entries.len(), graph.len());
        for e in &failed.entries {
            if e.node == node {
                prop_assert!(e.finish_us <= at_us + 1e-9,
                    "task finishes on dead node after failure");
            }
        }
        prop_assert!(failed.makespan_us + 1e-9 >= clean.makespan_us);
    }

    #[test]
    fn heft_never_loses_badly_to_round_robin(
        shape in proptest::collection::vec((any::<u8>(), any::<u8>(), 1u16..2000, any::<bool>()), 5..30),
    ) {
        let graph = random_graph(&shape);
        let cluster = Cluster::everest(3, 1, 2);
        let heft = Scheduler::new(cluster.clone(), Policy::Heft).run(&graph);
        let rr = Scheduler::new(cluster, Policy::RoundRobin).run(&graph);
        // HEFT is a heuristic, but it should never be more than 2x worse
        // than blind round robin on these workloads.
        prop_assert!(heft.makespan_us <= rr.makespan_us * 2.0 + 1e-6,
            "heft {} vs rr {}", heft.makespan_us, rr.makespan_us);
    }
}
