//! E17 [§VI] — Request-lifecycle robustness: per-tenant retry budgets,
//! hedged dispatch, the AIMD concurrency limiter, and brownout
//! degradation tiers. Shows goodput under a transient-fault storm
//! improving with retries on, tail latency under a gray straggler
//! collapsing with hedging on, typed overload shedding from the
//! limiter, and the brownout ladder climbing as the cluster dies —
//! with request conservation holding in every configuration.

use crate::{rule, Report};
use everest_runtime::{FaultKind, FaultPlan, FaultSpec};
use everest_sdk::serve::{run_serve, ServeOptions};
use everest_serve::{BatchPolicy, KernelClass, LifecycleConfig, ServeConfig, ServeEngine};

/// A storm of transient kernel errors landing while batches are in
/// flight: the retryable fault class.
fn transient_storm(nodes: usize) -> FaultPlan {
    let mut plan = FaultPlan::new(21);
    for i in 0..10 {
        plan.push(FaultSpec {
            at_us: 6_000.0 + 4_500.0 * i as f64,
            node: i % nodes,
            kind: FaultKind::TransientKernelError,
        });
    }
    plan
}

fn lifecycle_base() -> ServeConfig {
    ServeConfig {
        seed: 7,
        offered_rps: 6_000.0,
        horizon_us: 60_000.0,
        ..ServeConfig::default()
    }
}

pub(crate) fn series(r: &mut Report) {
    r.banner("E17", "VI", "request-lifecycle robustness under chaos");

    // Goodput under a transient-fault storm: retries off vs on. A
    // failed batch re-enqueues its requests (seeded backoff, budget
    // permitting, deadline permitting), so goodput recovers instead of
    // the failures going terminal.
    r.pin("retry budgets under a 10-fault transient storm (seed 7, 4 nodes, 60 ms):\n");
    r.pin(format!(
        "{:>9} {:>10} {:>8} {:>10} {:>8} {:>8}",
        "retries", "completed", "failed", "shed-ddl", "retried", "denied"
    ));
    r.pin(rule(60));
    let baseline = ServeEngine::new(lifecycle_base())
        .with_plan(transient_storm(4))
        .run();
    let retried = ServeEngine::new(ServeConfig {
        lifecycle: LifecycleConfig {
            retry: true,
            ..LifecycleConfig::default()
        },
        ..lifecycle_base()
    })
    .with_plan(transient_storm(4))
    .run();
    for (name, o) in [("off", &baseline), ("on", &retried)] {
        r.pin(format!(
            "{:>9} {:>10} {:>8} {:>10} {:>8} {:>8}",
            name, o.completed, o.failed, o.shed_deadline, o.retries, o.retry_denied
        ));
        assert!(o.conserved(), "retries {name}: conservation violated");
    }
    assert!(
        baseline.failed > 0,
        "the storm must fail in-flight work to measure recovery"
    );
    assert!(retried.retries > 0, "the storm must trigger retries");
    assert!(
        retried.completed > baseline.completed,
        "retry budgets must improve goodput under the storm ({} vs {})",
        retried.completed,
        baseline.completed
    );
    assert!(
        retried.failed < baseline.failed,
        "retries must recover fault-failed requests ({} vs {})",
        retried.failed,
        baseline.failed
    );

    // Hedged dispatch against a gray straggler. The health monitor is
    // blinded so the breaker never isolates the slow node: hedging is
    // the only line of defense, exactly the gray window it exists for.
    // A single latency-critical class so the quantiles read on exactly
    // the population hedging protects (analytics batches never hedge).
    let hedge_base = || ServeConfig {
        seed: 17,
        classes: vec![
            KernelClass::new("infer", 400.0, 40.0, 120.0, 5_000.0, 4_096).latency_critical(),
        ],
        batch: vec![BatchPolicy::new(8, 400.0)],
        offered_rps: 2_000.0,
        horizon_us: 80_000.0,
        health: everest_runtime::HealthConfig {
            min_samples: usize::MAX,
            ..everest_runtime::HealthConfig::default()
        },
        ..ServeConfig::default()
    };
    let slow_node = || {
        FaultPlan::new(17).with_fault(FaultSpec {
            at_us: 5_000.0,
            node: 2,
            kind: FaultKind::SlowNode {
                factor: 8.0,
                duration_us: 70_000.0,
            },
        })
    };
    let unhedged = ServeEngine::new(hedge_base()).with_plan(slow_node()).run();
    let hedged = ServeEngine::new(ServeConfig {
        lifecycle: LifecycleConfig {
            hedge: true,
            ..LifecycleConfig::default()
        },
        ..hedge_base()
    })
    .with_plan(slow_node())
    .run();
    r.pin("\nhedged dispatch vs an 8x gray straggler (breaker blinded, 2000 rps):\n");
    for (name, o) in [("unhedged", &unhedged), ("hedged", &hedged)] {
        r.pin(format!(
            "  {:<9}: p50 {:>8.1} us, p99 {:>9.1} us, {} hedges ({} wins, {} cancelled)",
            name,
            o.latency_quantile(0.50).unwrap_or(0.0),
            o.latency_quantile(0.99).unwrap_or(0.0),
            o.hedges,
            o.hedge_wins,
            o.hedge_cancelled
        ));
        assert!(o.conserved(), "{name}: conservation violated");
    }
    assert!(hedged.hedges > 0, "the straggler must trigger hedges");
    assert!(
        hedged.hedge_wins > 0,
        "duplicates must win against an 8x straggler"
    );
    let (p99_off, p99_on) = (
        unhedged.latency_quantile(0.99).unwrap_or(0.0),
        hedged.latency_quantile(0.99).unwrap_or(0.0),
    );
    assert!(
        p99_on < p99_off,
        "hedging must cut the gray-straggler tail ({p99_on:.1} vs {p99_off:.1} us)"
    );

    // The AIMD limiter under deep overload: the door is pulled in and
    // the refusals are typed Overloaded, distinct from QueueFull.
    let overloaded = ServeEngine::new(ServeConfig {
        offered_rps: 30_000.0,
        horizon_us: 80_000.0,
        lifecycle: LifecycleConfig {
            limiter: true,
            ..LifecycleConfig::default()
        },
        ..ServeConfig::default()
    })
    .run();
    r.pin(format!(
        "\nAIMD limiter at 3x overload: completed {}, shed {} overloaded / {} queue-full, p99 {:.1} us",
        overloaded.completed,
        overloaded.shed_overloaded,
        overloaded.shed_queue_full,
        overloaded.latency_quantile(0.99).unwrap_or(0.0)
    ));
    assert!(overloaded.conserved(), "limiter: conservation violated");
    assert!(
        overloaded.shed_overloaded > 0,
        "deep overload must trip the limiter's door cap"
    );
    assert!(
        overloaded.completed > 0,
        "the limiter throttles, not starves"
    );

    // The brownout ladder: crash 3 of 4 nodes and the controller walks
    // tier 0 -> 3, shrinking batch ceilings, disabling hedging, and
    // finally shedding the lowest-weight tenant.
    let mut crash_plan = FaultPlan::new(23);
    for node in 0..3 {
        crash_plan.push(FaultSpec {
            at_us: 10_000.0,
            node,
            kind: FaultKind::NodeCrash,
        });
    }
    let browned = ServeEngine::new(ServeConfig {
        lifecycle: LifecycleConfig {
            brownout: true,
            ..LifecycleConfig::default()
        },
        ..lifecycle_base()
    })
    .with_plan(crash_plan)
    .run();
    r.pin(format!(
        "\nbrownout with 3 of 4 nodes crashed: {} transitions, peak tier {}, {} brownout sheds",
        browned.brownout_transitions, browned.brownout_peak_tier, browned.shed_brownout
    ));
    assert!(browned.conserved(), "brownout: conservation violated");
    assert_eq!(browned.brownout_peak_tier, 3, "3 of 4 nodes down is tier 3");
    assert!(
        browned.shed_brownout > 0,
        "tier 3 must shed the lowest-weight tenant"
    );
    assert!(
        browned.completed > 0,
        "the surviving node must keep serving through the brownout"
    );

    // The headline: the default campaign under a 6-fault chaos plan,
    // retries and hedging on, next to the same campaign with both off.
    let lifecycle_on = ServeOptions {
        chaos: 6,
        retries: true,
        hedge: true,
        ..ServeOptions::default()
    };
    let on = run_serve(&lifecycle_on).outcome;
    let off = run_serve(&ServeOptions {
        retries: false,
        hedge: false,
        ..lifecycle_on
    })
    .outcome;
    r.pin(format!(
        "\nheadline campaign (seed {}, load {:.1}, {} faults, {} offered): retries + hedge vs both off\n",
        lifecycle_on.seed, lifecycle_on.load, lifecycle_on.chaos, on.offered
    ));
    r.pin("lifecycle  completed  failed  retried  denied  hedges  wins    p50 us    p99 us  shed%");
    r.pin(rule(86));
    for (name, o) in [("off", &off), ("on", &on)] {
        r.pin(format!(
            "{:>9} {:>10} {:>7} {:>8} {:>7} {:>7} {:>5} {:>9.1} {:>9.1} {:>5.2}%",
            name,
            o.completed,
            o.failed,
            o.retries,
            o.retry_denied,
            o.hedges,
            o.hedge_wins,
            o.latency_quantile(0.50).unwrap_or(0.0),
            o.latency_quantile(0.99).unwrap_or(0.0),
            o.shed_rate() * 100.0
        ));
        assert!(o.conserved(), "lifecycle {name}: conservation violated");
    }
    assert!(
        on.completed > off.completed,
        "lifecycle goodput must improve on the baseline ({} vs {})",
        on.completed,
        off.completed
    );
}

pub(crate) fn timings(r: &mut Report) {
    r.time("e17_lifecycle/serve_campaign_lifecycle_chaos", || {
        run_serve(&ServeOptions {
            chaos: 6,
            retries: true,
            hedge: true,
            limiter: true,
            brownout: true,
            ..ServeOptions::default()
        })
    });
    r.time("e17_lifecycle/serve_campaign_retries_only_chaos", || {
        run_serve(&ServeOptions {
            chaos: 6,
            retries: true,
            ..ServeOptions::default()
        })
    });
}
