//! Property tests over the serving queues and the full engine: the
//! fairness and conservation invariants of `docs/SERVING.md` must hold
//! for random tenant tables, loads, and chaos plans.

use proptest::prelude::*;

use everest_faults::FaultPlan;
use everest_serve::lifecycle::{RETRY_BUDGET_CAP, RETRY_REFILL_PER_SUCCESS};
use everest_serve::{
    BatchPolicy, KernelClass, LifecycleConfig, Request, ServeConfig, ServeEngine, WeightedFairQueue,
};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// (a) WFQ never starves a nonzero-weight tenant: with every
    /// tenant continuously backlogged, after `pops` services each
    /// tenant has been served at least its floor share (minus a small
    /// rounding slack from tag quantisation).
    #[test]
    fn wfq_never_starves_a_nonzero_weight_tenant(
        raw_weights in proptest::collection::vec(1u32..9, 2..6),
        pops in 50usize..201,
    ) {
        let weights: Vec<f64> = raw_weights.iter().map(|&w| w as f64).collect();
        let total: f64 = weights.iter().sum();
        let mut wfq = WeightedFairQueue::new(&weights);
        // Keep every tenant backlogged for the whole experiment.
        for (tenant, _) in weights.iter().enumerate() {
            for k in 0..pops {
                wfq.push(Request {
                    id: (tenant * pops + k) as u64,
                    tenant,
                    class: 0,
                    arrival_us: 0.0,
                    attempt: 0,
                });
            }
        }
        for _ in 0..pops {
            prop_assert!(wfq.pop().is_some());
        }
        let served = wfq.served();
        for (tenant, &weight) in weights.iter().enumerate() {
            let floor_share = (pops as f64 * weight / total).floor() as u64;
            let slack = weights.len() as u64 + 2;
            prop_assert!(
                served[tenant] + slack >= floor_share,
                "tenant {tenant} (w={weight}) served {} of {pops}, floor share {floor_share}",
                served[tenant]
            );
        }
    }

    /// (b) Conservation: for random configurations — with and without
    /// a random chaos plan — every offered request reaches exactly one
    /// terminal state (completed, shed, or failed), and the same seed
    /// replays to the identical outcome.
    #[test]
    fn engine_conserves_requests_and_replays_identically(
        seed in any::<u64>(),
        nodes in 1usize..7,
        offered_khz in 2u64..21,
        faults in 0usize..7,
    ) {
        let config = ServeConfig {
            seed,
            nodes,
            offered_rps: offered_khz as f64 * 1_000.0,
            horizon_us: 30_000.0,
            ..ServeConfig::default()
        };
        let plan = if faults > 0 {
            FaultPlan::random_campaign(seed, nodes, config.horizon_us, faults)
        } else {
            FaultPlan::new(seed)
        };
        let run = || {
            ServeEngine::new(config.clone())
                .with_plan(plan.clone())
                .run()
        };
        let first = run();
        let second = run();
        prop_assert!(first.conserved(), "conservation violated: {first:?}");
        prop_assert_eq!(first.offered, second.offered);
        prop_assert_eq!(first, second);
    }

    /// (d) Request-lifecycle invariants under arbitrary seeded chaos
    /// with every robustness feature enabled: retries never exceed the
    /// per-tenant budget earned (cap plus refill per success; storms of
    /// up to 64 faults so that the 32-token cap can be spent), hedged
    /// duplicates never double-count a completion (`conserved()` plus
    /// the completed/latency cross-check), and the same seed replays
    /// to the identical outcome.
    #[test]
    fn lifecycle_respects_budgets_and_counts_hedges_once(
        seed in any::<u64>(),
        nodes in 2usize..7,
        offered_khz in 2u64..21,
        faults in 8usize..65,
    ) {
        let mut config = ServeConfig {
            seed,
            nodes,
            offered_rps: offered_khz as f64 * 1_000.0,
            horizon_us: 30_000.0,
            lifecycle: LifecycleConfig::all_on(),
            ..ServeConfig::default()
        };
        config.classes[0] = config.classes[0].clone().latency_critical();
        let plan = FaultPlan::random_campaign(seed, nodes, config.horizon_us, faults);
        let run = || {
            ServeEngine::new(config.clone())
                .with_plan(plan.clone())
                .run()
        };
        let outcome = run();
        prop_assert!(outcome.conserved(), "conservation violated: {outcome:?}");
        // A hedge duplicate must never add a second completion: every
        // completion carries exactly one latency sample.
        prop_assert_eq!(outcome.completed as usize, outcome.latencies_us.len());
        prop_assert!(outcome.hedge_wins <= outcome.hedges);
        // Budget: a tenant can spend at most its starting cap plus
        // what its completions earned back.
        for tenant in &outcome.tenants {
            let earned = RETRY_BUDGET_CAP + tenant.completed as f64 * RETRY_REFILL_PER_SUCCESS;
            prop_assert!(
                tenant.retried as f64 <= earned + 1e-9,
                "tenant {} retried {} with cap {} + {} completions refilling {}",
                tenant.name, tenant.retried, RETRY_BUDGET_CAP,
                tenant.completed, RETRY_REFILL_PER_SUCCESS
            );
        }
        prop_assert_eq!(outcome.clone(), run());
    }

    /// (c) Static deadline feasibility is all-or-nothing per class:
    /// when the proven worst-case bound exceeds the class deadline,
    /// every request of the class is shed `StaticallyInfeasible` at
    /// the door (none is admitted, none reaches a batch); when the
    /// bound is within the deadline, the static path sheds nothing.
    #[test]
    fn static_infeasibility_sheds_exactly_the_proven_late_class(
        seed in any::<u64>(),
        offered_khz in 2u64..13,
        bound_over in any::<bool>(),
    ) {
        let deadline_us = 5_000.0;
        let bound_us = if bound_over { deadline_us * 1.8 } else { deadline_us * 0.4 };
        let class = KernelClass::new("infer", 400.0, 40.0, 120.0, deadline_us, 4_096)
            .with_static_bound(bound_us);
        let config = ServeConfig {
            seed,
            classes: vec![class],
            batch: vec![BatchPolicy::new(8, 400.0)],
            offered_rps: offered_khz as f64 * 1_000.0,
            horizon_us: 30_000.0,
            ..ServeConfig::default()
        };
        let outcome = ServeEngine::new(config).run();
        prop_assert!(outcome.conserved(), "conservation violated: {outcome:?}");
        if bound_over {
            prop_assert_eq!(outcome.shed_static, outcome.offered);
            prop_assert_eq!(outcome.admitted, 0);
            prop_assert!(outcome.batches.is_empty());
        } else {
            prop_assert_eq!(outcome.shed_static, 0);
        }
    }
}
