//! E18 [§VI] — Partition-tolerant cluster membership and deterministic
//! shard failover. Shows the SWIM-style gossip detector confirming a
//! symmetrically cut minority, leases failing over to survivors with a
//! bumped fencing epoch (orphaned in-flight work re-enqueued, never
//! double-executed), an even split shedding typed `partitioned_away`
//! refusals until the degraded escape hatch opens, and the whole
//! campaign — chaos stacked on partitions — replaying byte-identically
//! from the same seed with request conservation intact.

use crate::{rule, Report};
use everest_runtime::{FaultKind, FaultPlan, FaultSpec};
use everest_sdk::serve::{run_serve, ServeOptions};
use everest_serve::{ClusterConfig, ServeConfig, ServeEngine};

fn partition_base(seed: u64) -> ServeConfig {
    ServeConfig {
        seed,
        offered_rps: 6_000.0,
        horizon_us: 60_000.0,
        cluster: Some(ClusterConfig),
        ..ServeConfig::default()
    }
}

/// One symmetric cut: `group` (bitmask) loses contact with the rest of
/// the cluster at `at_us` and heals `duration_us` later.
fn sym_cut(seed: u64, group: u64, at_us: f64, duration_us: f64) -> FaultPlan {
    FaultPlan::new(seed).with_fault(FaultSpec {
        at_us,
        node: 0,
        kind: FaultKind::PartitionSym { group, duration_us },
    })
}

pub(crate) fn series(r: &mut Report) {
    r.banner(
        "E18",
        "VI",
        "partition-tolerant membership and shard failover",
    );

    // A minority cut on the default 4-node cluster: node 0 is sliced
    // off for 30 ms. The majority keeps quorum, so the detector walks
    // suspect -> confirmed, every shard leased to node 0 fails over
    // with a bumped fencing epoch, and node 0's in-flight batches are
    // fenced — their requests re-enqueued on survivors, each served
    // exactly once.
    r.pin("minority partition (node 0 cut 10-40 ms, seed 7, 4 nodes, 60 ms):\n");
    let baseline = ServeEngine::new(partition_base(7)).run();
    let cut = ServeEngine::new(partition_base(7))
        .with_plan(sym_cut(7, 0x1, 10_000.0, 30_000.0))
        .run();
    r.pin(format!(
        "{:>10} {:>10} {:>9} {:>9} {:>10} {:>8} {:>8}",
        "scenario", "completed", "confirms", "failover", "epoch", "orphans", "fenced"
    ));
    r.pin(rule(72));
    for (name, o) in [("healthy", &baseline), ("cut", &cut)] {
        r.pin(format!(
            "{:>10} {:>10} {:>9} {:>9} {:>10} {:>8} {:>8}",
            name,
            o.completed,
            o.confirms,
            o.failovers,
            o.cluster_epoch,
            o.partition_orphans,
            o.fenced_batches
        ));
        assert!(o.conserved(), "{name}: conservation violated");
    }
    assert_eq!(
        baseline.confirms, 0,
        "a healthy cluster must never confirm a death"
    );
    assert_eq!(
        baseline.shed_partitioned, 0,
        "a healthy cluster must never shed partitioned"
    );
    assert!(cut.confirms > 0, "the cut minority must be confirmed dead");
    assert!(cut.failovers > 0, "confirmed deaths must fail shards over");
    assert!(
        cut.cluster_epoch > 0,
        "failover must bump the fencing epoch"
    );
    assert_eq!(
        cut.batches.iter().filter(|b| b.fenced).count() as u64,
        cut.fenced_batches,
        "fenced-batch accounting must match the batch trace"
    );
    assert!(
        cut.completed > 0,
        "the majority must keep serving through the cut"
    );

    // An even 2-2 split: neither side holds a strict majority, so
    // leases lapse and arrivals for unowned shards are refused with the
    // typed `partitioned_away` shed — until the no-quorum grace expires
    // and the largest component proceeds degraded, re-granting lapsed
    // leases under fresh fencing epochs.
    let split = ServeEngine::new(ServeConfig {
        horizon_us: 120_000.0,
        ..partition_base(11)
    })
    .with_plan(sym_cut(11, 0x3, 10_000.0, 40_000.0))
    .run();
    r.pin(format!(
        "\neven 2-2 split (40 ms, no quorum anywhere): {} shed partitioned, {} degraded grants, epoch {}",
        split.shed_partitioned, split.degraded_grants, split.cluster_epoch
    ));
    assert!(split.conserved(), "split: conservation violated");
    assert!(
        split.shed_partitioned > 0,
        "a quorumless cluster must shed typed, not serve on lapsed leases"
    );
    assert!(
        split.degraded_grants > 0,
        "the grace window must open the degraded escape hatch"
    );
    assert!(
        split.completed > 0,
        "degraded mode must restore service before heal"
    );

    // The full E18 campaign — seeded partition/heal cycles stacked on
    // crash/gray chaos with every lifecycle feature on — must replay
    // byte-for-byte: the trace `basecamp serve --partition-plan` emits
    // is what CI diffs across runs.
    let options = ServeOptions {
        chaos: 4,
        partition: 3,
        retries: true,
        hedge: true,
        limiter: true,
        brownout: true,
        horizon_ms: 80.0,
        ..ServeOptions::default()
    };
    let a = run_serve(&options);
    let b = run_serve(&options);
    assert_eq!(
        a.trace_json(),
        b.trace_json(),
        "partition campaign must replay byte-identically"
    );
    assert!(a.outcome.conserved(), "campaign: conservation violated");
    r.pin(format!(
        "\nfull campaign (3 cycles + 4 faults, all lifecycle on): {} gossip rounds, {} failovers, epoch {}, replay byte-identical",
        a.outcome.gossip_rounds, a.outcome.failovers, a.outcome.cluster_epoch
    ));
}

pub(crate) fn timings(r: &mut Report) {
    r.time("e18_partition/serve_campaign_partition_chaos", || {
        run_serve(&ServeOptions {
            chaos: 4,
            partition: 3,
            retries: true,
            brownout: true,
            ..ServeOptions::default()
        })
    });
    r.time("e18_partition/serve_campaign_partition_only", || {
        run_serve(&ServeOptions {
            partition: 3,
            ..ServeOptions::default()
        })
    });
}
