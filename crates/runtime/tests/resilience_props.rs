//! Property tests over the fault-injection and recovery machinery:
//! for random graphs, clusters and fault plans the resilience
//! invariants of `docs/RESILIENCE.md` must hold.

use std::sync::Arc;

use proptest::prelude::*;

use everest_runtime::{
    Cluster, DetRng, FaultKind, FaultPlan, FaultSpec, HealPolicy, Policy, RecoveryConfig,
    RetryPolicy, Scheduler, SimulationResult, TaskGraph, TaskSpec,
};
use everest_telemetry::Registry;

/// The random DAG shapes every property draws from.
fn shapes(max_us: u16) -> impl Strategy<Value = Vec<(u8, u8, u16, bool)>> {
    proptest::collection::vec(
        (any::<u8>(), any::<u8>(), 1u16..max_us, any::<bool>()),
        2..25,
    )
}

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

/// The graph `basecamp chaos` schedules: `tasks` tasks of 0.5-5 ms,
/// 40 % with an accelerator implementation, each on up to three earlier
/// ones.
fn chaos_workload(seed: u64, tasks: usize) -> TaskGraph {
    let mut rng = DetRng::new(seed).fork(0x3A05);
    let mut graph = TaskGraph::new();
    for i in 0..tasks {
        let cpu_us = rng.range_f64(500.0, 5_000.0);
        let mut spec = TaskSpec::new(&format!("t{i}"), cpu_us)
            .with_output_bytes(1u64 << (10 + rng.index(10) as u32));
        if rng.next_unit() < 0.4 {
            spec = spec.with_fpga(cpu_us / 8.0);
        }
        if i > 0 {
            let want = rng.index(i.min(3)) + 1;
            let mut deps: Vec<usize> = Vec::new();
            for _ in 0..want {
                let d = rng.index(i);
                if !deps.contains(&d) {
                    deps.push(d);
                }
            }
            spec = spec.after(deps);
        }
        graph.add(spec).expect("deps point at earlier tasks");
    }
    graph
}

/// Each `scheduler.*` counter a run left in `registry`, against the
/// count the result it returned reports.
fn counters_and_result(
    registry: &Registry,
    result: &SimulationResult,
) -> Vec<(&'static str, u64, u64)> {
    [
        ("scheduler.tasks_scheduled", result.entries.len()),
        ("scheduler.retries", result.recovery.retries),
        (
            "scheduler.quarantined_nodes",
            result.recovery.quarantined_nodes.len(),
        ),
        ("scheduler.degraded_tasks", result.recovery.degraded_to_cpu),
        ("scheduler.recovered_tasks", result.recovered_tasks),
        ("scheduler.migrations", result.heal.migrations),
        ("scheduler.breaker_opens", result.heal.breaker_opens),
        ("scheduler.checkpoints", result.heal.checkpoints_taken),
    ]
    .into_iter()
    .map(|(name, count)| (name, registry.counter(name), count as u64))
    .collect()
}

/// A gray campaign, a typed one (at most one crash) and a crash of the
/// node that ran task 0 just after it finished, which strands task 0's
/// output whenever a consumer starts elsewhere later.
fn gray_and_crash_plan(graph: &TaskGraph, cluster: &Cluster, seed: u64) -> FaultPlan {
    let clean = Scheduler::new(cluster.clone(), Policy::Heft).run(graph);
    let nodes = cluster.nodes.len();
    let mut plan = FaultPlan::random_gray_campaign(seed, nodes, 2.0 * clean.makespan_us, 4);
    for fault in FaultPlan::random_campaign(seed ^ 1, nodes, clean.makespan_us, 4).faults() {
        plan.push(fault.clone());
    }
    let src = clean
        .entries
        .iter()
        .find(|e| e.task == 0)
        .expect("task 0 ran");
    plan.push(FaultSpec::new(
        src.finish_us + 1.0,
        src.node,
        FaultKind::NodeCrash,
    ));
    plan
}

/// Checkpoint every three completions, so small graphs checkpoint.
fn dense_checkpoints() -> HealPolicy {
    HealPolicy {
        checkpoint_every_tasks: 3,
        ..HealPolicy::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// (a) The same seed and plan replay to an identical result AND an
    /// identical telemetry event sequence — determinism covers the
    /// observability side channel, not just the schedule.
    #[test]
    fn same_seed_and_plan_replay_identically(
        shape in shapes(1500),
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

        prop_assert_eq!(&first, &second);
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
        shape in shapes(1000),
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
        prop_assert_eq!(&planned, &scheduler.run_with_plan(&graph, &plan, &lineage_only));
        prop_assert_eq!(planned.recovered_tasks, planned.recovery.recovered.len());
        let mut sorted = planned.recovery.recovered.clone();
        sorted.sort_unstable();
        prop_assert_eq!(&sorted, &planned.recovery.recovered,
            "recovered task ids must be reported sorted");
    }

    /// (c) Faults never make the schedule faster.
    #[test]
    fn faults_never_beat_the_clean_makespan(
        shape in shapes(1500),
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

    /// (d) Every `scheduler.*` counter reads the count of the result the
    /// run returned: once per run, for the final schedule only (not the
    /// lineage fixpoint's discarded passes), resumed runs included.
    #[test]
    fn scheduler_counters_read_the_returned_result(
        shape in shapes(1500),
        seed in any::<u64>(),
        faults in 1usize..10,
        cut in any::<usize>(),
    ) {
        let graph = random_graph(&shape);
        let cluster = Cluster::everest(2, 2, 2);
        let config = RecoveryConfig::default();
        let on = |registry: &Arc<Registry>| {
            Scheduler::new(cluster.clone(), Policy::Heft).with_telemetry(Arc::clone(registry))
        };
        let probe = Scheduler::new(cluster.clone(), Policy::Heft).run(&graph);

        let plan = FaultPlan::random_campaign(seed, 4, probe.makespan_us, faults);
        let registry = Registry::new();
        let result = on(&registry).run_with_plan(&graph, &plan, &config);
        for (name, counted, reported) in counters_and_result(&registry, &result) {
            prop_assert_eq!(counted, reported, "run_with_plan: {}", name);
        }

        let plan = gray_and_crash_plan(&graph, &cluster, seed);
        let registry = Registry::new();
        let healed = on(&registry).run_self_healing(&graph, &plan, &config, &dense_checkpoints());
        for (name, counted, reported) in counters_and_result(&registry, &healed.result) {
            prop_assert_eq!(counted, reported, "run_self_healing: {}", name);
        }
        if !healed.checkpoints.is_empty() {
            let from = &healed.checkpoints[cut % healed.checkpoints.len()];
            let registry = Registry::new();
            let resumed =
                on(&registry).resume_self_healing(&graph, &plan, &config, &dense_checkpoints(), from);
            for (name, counted, reported) in counters_and_result(&registry, &resumed) {
                prop_assert_eq!(counted, reported, "resume_self_healing: {}", name);
            }
        }
    }
}

/// (d) on the chaos shape `basecamp chaos --seed 0 --nodes 8 --tasks 200
/// --faults 24` runs, where the lineage fixpoint discards passes.
#[test]
fn chaos_counters_read_the_returned_result() {
    let graph = chaos_workload(0, 200);
    let scheduler = Scheduler::new(Cluster::everest(4, 4, 4), Policy::Heft);
    let clean = scheduler.run(&graph);
    let plan = FaultPlan::random_campaign(0, 8, clean.makespan_us * 0.8, 24);
    let registry = Registry::new();
    let result = scheduler
        .with_telemetry(Arc::clone(&registry))
        .run_with_plan(&graph, &plan, &RecoveryConfig::default());
    assert!(result.recovered_tasks > 0, "the crash must strand data");
    for (name, counted, reported) in counters_and_result(&registry, &result) {
        assert_eq!(counted, reported, "{name}");
    }
}

/// (e) Resuming a self-healing run from any of its checkpoints gives
/// the uninterrupted run's result, checkpoints of a later lineage pass
/// included (a run that recovered tasks returns only the checkpoints of
/// its final pass, which is not the first).
#[test]
fn resume_from_every_checkpoint_reproduces_the_run() {
    let cluster = Cluster::everest(2, 2, 2);
    let scheduler = Scheduler::new(cluster.clone(), Policy::Heft);
    let config = RecoveryConfig::default();
    let mut later_pass = 0;
    for case in 0..24 {
        let mut rng = TestRng::for_case("resume_from_every_checkpoint", case);
        let graph = random_graph(&shapes(1500).generate(&mut rng));
        let plan = gray_and_crash_plan(&graph, &cluster, rng.next_u64());
        let full = scheduler.run_self_healing(&graph, &plan, &config, &dense_checkpoints());
        for from in &full.checkpoints {
            let resumed =
                scheduler.resume_self_healing(&graph, &plan, &config, &dense_checkpoints(), from);
            assert!(
                resumed == full.result,
                "case {case}: resume from completed={}",
                from.completed_tasks
            );
        }
        later_pass += usize::from(full.result.recovered_tasks > 0 && !full.checkpoints.is_empty());
    }
    assert!(
        later_pass >= 12,
        "{later_pass} of 24 cases resumed a later pass"
    );
}
