//! E16 [§VI] — Multi-tenant request serving: token-bucket admission,
//! weighted-fair queueing and dynamic batching in front of the
//! virtualized runtime. Sweeps offered load to show the saturation
//! curve (throughput, tail latency, shed rate), shows weighted
//! fairness holding under overload, measures what batching buys over
//! serving singletons, and keeps the accounting conserved under chaos.

use crate::{rule, Report};
use everest_sdk::serve::{run_serve, ServeOptions};
use everest_serve::{BatchPolicy, ServeConfig, ServeEngine};

pub(crate) fn series(r: &mut Report) {
    r.banner("E16", "VI", "multi-tenant serving under offered-load sweep");

    // The saturation curve: offered load as a multiple of nominal
    // cluster capacity. Shed rate must grow monotonically — admission
    // control degrades service predictably instead of collapsing.
    r.pin("offered-load sweep (seed 42, 4 nodes, 3 tenants, 200 ms horizon):\n");
    r.pin(format!(
        "{:>6} {:>9} {:>12} {:>10} {:>10} {:>8} {:>9}",
        "load", "offered", "through rps", "p50 us", "p99 us", "shed%", "slo-viol"
    ));
    r.pin(rule(70));
    let mut prev_shed = 0.0_f64;
    for load in [0.5, 1.0, 2.0, 4.0] {
        let report = run_serve(&ServeOptions {
            load,
            ..ServeOptions::default()
        });
        let o = &report.outcome;
        r.pin(format!(
            "{:>6.1} {:>9} {:>12.1} {:>10.1} {:>10.1} {:>7.1}% {:>9}",
            load,
            o.offered,
            o.throughput_rps(),
            o.latency_quantile(0.50).unwrap_or(0.0),
            o.latency_quantile(0.99).unwrap_or(0.0),
            o.shed_rate() * 100.0,
            o.slo_violations
        ));
        assert!(o.conserved(), "load {load}: conservation violated");
        assert!(
            prev_shed <= o.shed_rate() + 1e-9,
            "load {load}: shed rate must grow monotonically with offered load \
             ({prev_shed:.4} -> {:.4})",
            o.shed_rate()
        );
        prev_shed = o.shed_rate();
    }
    assert!(
        prev_shed > 0.2,
        "4x overload must shed a substantial fraction, got {prev_shed:.4}"
    );

    // Weighted fairness under overload: completions track the 4:2:1
    // weights, and no tenant starves.
    let overloaded = run_serve(&ServeOptions {
        load: 4.0,
        ..ServeOptions::default()
    });
    r.pin("\nweighted fairness at 4x overload (gold w=4, silver w=2, bronze w=1):\n");
    r.pin(format!(
        "{:>8} {:>7} {:>9} {:>10} {:>10} {:>7}",
        "tenant", "weight", "offered", "admitted", "completed", "share%"
    ));
    r.pin(rule(56));
    let total_completed: u64 = overloaded.outcome.tenants.iter().map(|t| t.completed).sum();
    for tenant in &overloaded.outcome.tenants {
        r.pin(format!(
            "{:>8} {:>7.0} {:>9} {:>10} {:>10} {:>6.1}%",
            tenant.name,
            tenant.weight,
            tenant.offered,
            tenant.admitted,
            tenant.completed,
            tenant.completed as f64 / total_completed as f64 * 100.0
        ));
        assert!(
            tenant.completed > 0,
            "tenant {} starved under overload",
            tenant.name
        );
    }
    r.pin(format!(
        "{:>8} {:>7} {:>9} {:>10} {:>10}  100.0%",
        "total",
        "",
        overloaded.outcome.offered,
        overloaded.outcome.admitted,
        overloaded.outcome.completed
    ));
    let gold = overloaded.outcome.tenants[0].completed;
    let bronze = overloaded.outcome.tenants[2].completed;
    assert!(
        gold > bronze,
        "the 4x-weight tenant must complete more than the 1x tenant ({gold} vs {bronze})"
    );

    // What dynamic batching buys: the same offered stream served with
    // batching disabled (ceiling 1) vs the autotuned operating point.
    let base = ServeConfig {
        offered_rps: 8_000.0,
        ..ServeConfig::default()
    };
    let singleton = ServeEngine::new(ServeConfig {
        batch: vec![BatchPolicy::new(1, 0.0), BatchPolicy::new(1, 0.0)],
        autotune: false,
        ..base.clone()
    })
    .run();
    let batched = ServeEngine::new(base).run();
    r.pin("\ndynamic batching vs singleton dispatch (8000 rps offered):\n");
    for (name, o) in [("singleton", &singleton), ("batched", &batched)] {
        r.pin(format!(
            "  {:<9}: completed {:>5}, shed {:>5}, p99 {:>9.1} us, {} batches",
            name,
            o.completed,
            o.shed_total(),
            o.latency_quantile(0.99).unwrap_or(0.0),
            o.batches.len()
        ));
        assert!(o.conserved(), "{name}: conservation violated");
    }
    assert!(
        batched.completed >= singleton.completed,
        "batching must not lose throughput ({} vs {})",
        batched.completed,
        singleton.completed
    );

    // Chaos: random faults mid-campaign. The accounting stays
    // conserved and the cluster keeps serving.
    let chaotic = run_serve(&ServeOptions {
        chaos: 6,
        ..ServeOptions::default()
    });
    r.pin(format!(
        "\nchaos campaign (6 faults): completed {}, failed {}, breaker opens {}, probes {}",
        chaotic.outcome.completed,
        chaotic.outcome.failed,
        chaotic.outcome.breaker_opens,
        chaotic.outcome.probes
    ));
    assert!(chaotic.outcome.conserved(), "chaos: conservation violated");
    assert!(
        chaotic.outcome.completed > 0,
        "the cluster must keep serving under chaos"
    );
}

pub(crate) fn timings(r: &mut Report) {
    r.time("e16_serving/serve_campaign_nominal", || {
        run_serve(&ServeOptions::default())
    });
    r.time("e16_serving/serve_campaign_4x_overload", || {
        run_serve(&ServeOptions {
            load: 4.0,
            ..ServeOptions::default()
        })
    });
}
