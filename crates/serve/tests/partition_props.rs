//! Property tests for the partition-tolerance layer: for arbitrary
//! seeded partition chaos (symmetric and asymmetric cuts, message
//! delay and loss, optionally stacked on crash/gray campaigns), the
//! engine must keep the conservation invariant — every offered request
//! reaches exactly one terminal state, with no double execution across
//! a failover-and-heal cycle — and same-seed runs must replay
//! identically, outcome for outcome.

use proptest::prelude::*;

use everest_faults::FaultPlan;
use everest_serve::{ClusterConfig, LifecycleConfig, ServeConfig, ServeEngine};

fn config(seed: u64, nodes: usize, lifecycle: bool) -> ServeConfig {
    ServeConfig {
        seed,
        nodes,
        offered_rps: 1_500.0 * nodes as f64,
        horizon_us: 50_000.0,
        cluster: Some(ClusterConfig),
        lifecycle: if lifecycle {
            LifecycleConfig::all_on()
        } else {
            LifecycleConfig::default()
        },
        ..ServeConfig::default()
    }
}

fn chaos(seed: u64, nodes: usize, cycles: usize, faults: usize) -> FaultPlan {
    let mut plan = FaultPlan::random_partition_campaign(seed, nodes, 50_000.0, cycles);
    if faults > 0 {
        for fault in FaultPlan::random_campaign(seed ^ 0xC1A0, nodes, 50_000.0, faults).faults() {
            plan.push(fault.clone());
        }
    }
    plan
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// (a) Conservation under arbitrary partition chaos: cuts, heals,
    /// failovers and fenced orphans never lose or double-count a
    /// request. Fenced-leg bookkeeping stays consistent with the
    /// batch trace, and cancelled completions mean the completed
    /// count equals the latency vector exactly (each request served
    /// at most once).
    #[test]
    fn partition_chaos_conserves(
        seed in any::<u64>(),
        nodes in 2usize..7,
        cycles in 1usize..4,
        faults in 0usize..5,
        lifecycle in any::<bool>(),
    ) {
        let outcome = ServeEngine::new(config(seed, nodes, lifecycle))
            .with_plan(chaos(seed, nodes, cycles, faults))
            .run();
        prop_assert!(outcome.conserved(), "conservation violated: {outcome:?}");
        prop_assert_eq!(
            outcome.batches.iter().filter(|b| b.fenced).count() as u64,
            outcome.fenced_batches
        );
        prop_assert_eq!(outcome.completed as usize, outcome.latencies_us.len());
    }

    /// (b) Same-seed replay equality extends through membership,
    /// failover and fencing: two runs of the same config and plan are
    /// equal outcome-for-outcome, batch-for-batch, epoch-for-epoch.
    #[test]
    fn partition_chaos_replays_identically(
        seed in any::<u64>(),
        nodes in 2usize..7,
        cycles in 1usize..4,
        lifecycle in any::<bool>(),
    ) {
        let cfg = config(seed, nodes, lifecycle);
        let plan = chaos(seed, nodes, cycles, 2);
        let a = ServeEngine::new(cfg.clone()).with_plan(plan.clone()).run();
        let b = ServeEngine::new(cfg).with_plan(plan).run();
        prop_assert_eq!(a, b);
    }
}
