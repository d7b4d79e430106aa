//! Property tests over the fault-injection and recovery machinery:
//! for random graphs, clusters and fault plans the resilience
//! invariants of `docs/RESILIENCE.md` must hold.

use std::sync::Arc;

use proptest::prelude::*;

use everest_runtime::{
    Cluster, FaultKind, FaultPlan, FaultSpec, Policy, RecoveryConfig, RetryPolicy, Scheduler,
    SimulationResult, TaskGraph, TaskSpec,
};
use everest_telemetry::Registry;

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

/// Field-wise equality for `SimulationResult` (virtual times are exact,
/// so bitwise comparison is the right notion here).
fn assert_same_result(a: &SimulationResult, b: &SimulationResult) -> Result<(), TestCaseError> {
    prop_assert_eq!(&a.entries, &b.entries);
    prop_assert_eq!(a.makespan_us, b.makespan_us);
    prop_assert_eq!(a.transfer_us, b.transfer_us);
    prop_assert_eq!(a.recovered_tasks, b.recovered_tasks);
    prop_assert_eq!(&a.node_busy_us, &b.node_busy_us);
    prop_assert_eq!(&a.recovery, &b.recovery);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// (a) The same seed and plan replay to an identical result AND an
    /// identical telemetry event sequence — determinism covers the
    /// observability side channel, not just the schedule.
    #[test]
    fn same_seed_and_plan_replay_identically(
        shape in proptest::collection::vec((any::<u8>(), any::<u8>(), 1u16..1500, any::<bool>()), 2..25),
        seed in any::<u64>(),
        faults in 1usize..10,
    ) {
        let graph = random_graph(&shape);
        let cluster = Cluster::everest(2, 2, 2);
        let probe = Scheduler::new(cluster.clone(), Policy::Heft).run(&graph);
        let plan = FaultPlan::random_campaign(seed, 4, probe.makespan_us, faults);
        let config = RecoveryConfig::default();

        let run = |registry: &Arc<Registry>| {
            Scheduler::new(cluster.clone(), Policy::Heft)
                .with_telemetry(Arc::clone(registry))
                .run_with_plan(&graph, &plan, &config)
        };
        let (reg_a, reg_b) = (Registry::new(), Registry::new());
        let first = run(&reg_a);
        let second = run(&reg_b);

        assert_same_result(&first, &second)?;
        // Wall-clock timestamps differ; names and details must not.
        let trace = |reg: &Arc<Registry>| -> Vec<(String, String)> {
            reg.events().into_iter().map(|e| (e.name, e.detail)).collect()
        };
        prop_assert_eq!(trace(&reg_a), trace(&reg_b));
    }

    /// (b) A plan holding a node crash (and maybe a second one) is
    /// recovered through lineage alone: every task completes, nothing
    /// finishes on a dead node after its crash, the recovered
    /// accounting matches the lineage set, and since a crash-only plan
    /// has no transients, retries and quarantine never fire — turning
    /// them off changes nothing.
    #[test]
    fn single_crash_plan_matches_lineage_recovery(
        shape in proptest::collection::vec((any::<u8>(), any::<u8>(), 1u16..1000, any::<bool>()), 2..25),
        fail_node in 0usize..4,
        fail_frac in 0.1f64..0.9,
        // Half the cases add a second crash (nodes 4..8 mean none).
        second_node in 0usize..8,
        second_frac in 0.1f64..0.9,
    ) {
        let graph = random_graph(&shape);
        let cluster = Cluster::everest(3, 1, 2);
        let scheduler = Scheduler::new(cluster, Policy::Heft);
        let clean = scheduler.run(&graph);
        let mut crashes = vec![(fail_node, clean.makespan_us * fail_frac)];
        if second_node < 4 {
            crashes.push((second_node, clean.makespan_us * second_frac));
        }
        let mut plan = FaultPlan::single_node_crash(1, crashes[0].0, crashes[0].1);
        for &(node, at_us) in &crashes[1..] {
            plan.push(FaultSpec::new(at_us, node, FaultKind::NodeCrash));
        }
        let planned = scheduler.run_with_plan(&graph, &plan, &RecoveryConfig::default());

        prop_assert_eq!(planned.entries.len(), graph.len());
        for e in &planned.entries {
            for &(node, at_us) in &crashes {
                if e.node == node {
                    prop_assert!(e.finish_us <= at_us + 1e-9,
                        "task {} finishes on the dead node after the crash", e.task);
                }
            }
        }
        let lineage_only = RecoveryConfig {
            retry: RetryPolicy::none(),
            quarantine_threshold: u32::MAX,
        };
        assert_same_result(&planned, &scheduler.run_with_plan(&graph, &plan, &lineage_only))?;
        prop_assert_eq!(planned.recovered_tasks, planned.recovery.recovered.len());
        let mut sorted = planned.recovery.recovered.clone();
        sorted.sort_unstable();
        prop_assert_eq!(&sorted, &planned.recovery.recovered,
            "recovered task ids must be reported sorted");
    }

    /// (c) Faults never make the schedule faster.
    #[test]
    fn faults_never_beat_the_clean_makespan(
        shape in proptest::collection::vec((any::<u8>(), any::<u8>(), 1u16..1500, any::<bool>()), 2..25),
        seed in any::<u64>(),
        faults in 0usize..12,
    ) {
        let graph = random_graph(&shape);
        let cluster = Cluster::everest(2, 2, 2);
        let scheduler = Scheduler::new(cluster, Policy::Heft);
        let clean = scheduler.run(&graph);
        let plan = FaultPlan::random_campaign(seed, 4, clean.makespan_us * 0.9, faults);
        let faulty = scheduler.run_with_plan(&graph, &plan, &RecoveryConfig::default());
        prop_assert_eq!(faulty.entries.len(), graph.len());
        prop_assert!(faulty.makespan_us + 1e-9 >= clean.makespan_us,
            "plan {:?} sped the schedule up: {} < {}",
            plan, faulty.makespan_us, clean.makespan_us);
    }
}
