//! E14 [§VI] — Resilience: the runtime scheduler under seeded fault
//! campaigns. Sweeps the fault count to show graceful degradation
//! (makespan grows, work still completes), then proves the replay
//! guarantee: the same seed yields byte-identical campaign traces.

use crate::{rule, Report};
use everest_sdk::chaos::{run_chaos, ChaosOptions};

pub(crate) fn series(r: &mut Report) {
    r.banner("E14", "VI", "deterministic fault injection and recovery");

    // Makespan and recovery accounting as the campaign intensifies.
    r.pin("fault sweep (seed 42, 4 nodes, 24 tasks):\n");
    r.pin(format!(
        "{:>7} {:>13} {:>9} {:>8} {:>9} {:>12}",
        "faults", "makespan us", "slowdown", "retries", "degraded", "quarantined"
    ));
    r.pin(rule(64));
    for faults in [0usize, 2, 4, 6, 8, 12] {
        let report = run_chaos(&ChaosOptions {
            faults,
            ..ChaosOptions::default()
        });
        let recovery = &report.result.recovery;
        r.pin(format!(
            "{:>7} {:>13.1} {:>8.1}% {:>8} {:>9} {:>12}",
            faults,
            report.result.makespan_us,
            (report.result.makespan_us / report.clean_makespan_us - 1.0) * 100.0,
            recovery.retries,
            recovery.degraded_to_cpu,
            recovery.quarantined_nodes.len()
        ));
        assert!(
            report.result.makespan_us >= report.clean_makespan_us,
            "faults must never speed the schedule up"
        );
    }

    // The replay guarantee the chaos CLI and CI job rely on: the whole
    // campaign — workload, plan, jitter, placement — replays to the
    // same bytes.
    r.pin("\nreplay determinism (byte-identical seeded traces):");
    let seeds: Vec<u64> = (0..10).map(|k| 100 + k * 7919).collect();
    for &seed in &seeds {
        let opts = ChaosOptions {
            seed,
            faults: 8,
            ..ChaosOptions::default()
        };
        let first = run_chaos(&opts).trace_json();
        let second = run_chaos(&opts).trace_json();
        assert_eq!(first, second, "seed {seed}: replay diverged");
    }
    r.pin(format!(
        "  {}/{} seeds replayed byte-identically",
        seeds.len(),
        seeds.len()
    ));
}

pub(crate) fn timings(r: &mut Report) {
    r.time("e14_resilience/campaign_seed42_6faults", || {
        run_chaos(&ChaosOptions::default())
    });
    r.time("e14_resilience/campaign_seed42_clean", || {
        run_chaos(&ChaosOptions {
            faults: 0,
            ..ChaosOptions::default()
        })
    });
}
