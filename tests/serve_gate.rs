//! Local mirror of the CI `serve-replay` and `partition-replay` golden
//! steps: the replay trace `basecamp serve --trace` writes for the two
//! pinned campaigns must reproduce `ci/serve_hedge_golden.json` and
//! `ci/serve_partition_golden.json` byte-for-byte, the traces of
//! fifteen more campaigns must hash to `ci/serve/outcome_digests.txt`,
//! and what those campaigns leave in a fresh telemetry registry must
//! hash to `ci/serve/registry_digests.txt`.
//!
//! CI diffs the CLI output against the golden files; this test performs
//! the same comparison through the library API so a behavioural drift
//! in the serve engine is caught by `cargo test` before the workflow
//! ever runs.

mod common;

use common::fnv1a;
use everest_sdk::serve::{run_serve, ServeOptions};
use everest_serve::ServeEngine;
use everest_telemetry::Registry;

const HEDGE_GOLDEN: &str = include_str!("../ci/serve_hedge_golden.json");
const PARTITION_GOLDEN: &str = include_str!("../ci/serve_partition_golden.json");

/// `basecamp serve --seed 42 --chaos 4 --hedge`.
fn hedge_campaign() -> ServeOptions {
    ServeOptions {
        seed: 42,
        chaos: 4,
        hedge: true,
        ..ServeOptions::default()
    }
}

/// `basecamp serve --seed 42 --chaos 4 --partition-plan 3 --retries
/// --hedge --limiter --brownout`.
fn partition_campaign() -> ServeOptions {
    ServeOptions {
        partition: 3,
        retries: true,
        limiter: true,
        brownout: true,
        ..hedge_campaign()
    }
}

/// The CLI writes `trace_json()` plus a newline; mirror that framing.
fn trace_file(options: &ServeOptions) -> String {
    format!("{}\n", run_serve(options).trace_json())
}

#[test]
fn hedged_campaign_matches_the_checked_in_golden() {
    assert_eq!(
        trace_file(&hedge_campaign()),
        HEDGE_GOLDEN,
        "ci/serve_hedge_golden.json drifted"
    );
}

#[test]
fn partition_campaign_matches_the_checked_in_golden() {
    assert_eq!(
        trace_file(&partition_campaign()),
        PARTITION_GOLDEN,
        "ci/serve_partition_golden.json drifted"
    );
}

/// Three seeds by five flag sets, named as the digest files name them.
fn fifteen_campaigns() -> Vec<(u64, &'static str, ServeOptions)> {
    let chaos = ServeOptions {
        chaos: 6,
        ..ServeOptions::default()
    };
    let lifecycle = ServeOptions {
        retries: true,
        hedge: true,
        limiter: true,
        brownout: true,
        ..chaos
    };
    let flag_sets = [
        ("defaults", ServeOptions::default()),
        ("chaos6", chaos),
        ("chaos6_lifecycle", lifecycle),
        (
            "chaos6_lifecycle_partition3",
            ServeOptions {
                partition: 3,
                ..lifecycle
            },
        ),
        (
            "load4",
            ServeOptions {
                load: 4.0,
                ..ServeOptions::default()
            },
        ),
    ];
    let mut campaigns = Vec::new();
    for seed in [7, 42, 977] {
        for (name, flags) in flag_sets {
            campaigns.push((seed, name, ServeOptions { seed, ..flags }));
        }
    }
    campaigns
}

/// The fifteen campaigns' traces, each pinned by its FNV-1a digest:
/// the two goldens above are one seed each, and a replay property only
/// compares a run with itself. A digest that moves means the engine
/// made a different decision somewhere in that campaign.
#[test]
fn fifteen_campaigns_match_the_pinned_outcome_digests() {
    let mut rendered = String::new();
    for (seed, name, options) in fifteen_campaigns() {
        let trace = run_serve(&options).trace_json();
        rendered.push_str(&format!(
            "seed{seed} {name} {:016x}\n",
            fnv1a(trace.as_bytes())
        ));
    }
    assert_eq!(
        rendered,
        include_str!("../ci/serve/outcome_digests.txt"),
        "a serve campaign's trace moved; got:\n{rendered}"
    );
}

/// Everything a campaign leaves in its registry that is a function of
/// the seed, one line each: counters, gauges, histogram snapshots,
/// monitor windows, and event names and details. Spans and event
/// timestamps are wall-clock and left out, and so is every
/// `autotuner.*` name, whose configuration keys are not part of the
/// serve engine's contract. Floats are written as their bits.
fn registry_text(registry: &Registry) -> String {
    let pinned = |name: &str| !name.starts_with("autotuner.");
    let mut text = String::new();
    for (name, value) in registry.counters_snapshot() {
        if pinned(&name) {
            text.push_str(&format!("counter {name} {value}\n"));
        }
    }
    for (name, value) in registry.gauges_snapshot() {
        if pinned(&name) {
            text.push_str(&format!("gauge {name} {:016x}\n", value.to_bits()));
        }
    }
    for name in registry.histogram_names().into_iter().filter(|n| pinned(n)) {
        let h = registry.histogram(&name).expect("a listed histogram");
        text.push_str(&format!(
            "histogram {name} {} {:016x} {:016x} {:016x}",
            h.count,
            h.sum.to_bits(),
            h.min.to_bits(),
            h.max.to_bits()
        ));
        for (_, count) in &h.buckets {
            text.push_str(&format!(" {count}"));
        }
        text.push('\n');
    }
    for name in registry.monitor_names().into_iter().filter(|n| pinned(n)) {
        let monitor = registry.monitor(&name).expect("a listed monitor");
        // `Monitor`'s Debug form is its window size and values, oldest
        // first, each float in its shortest exact form.
        text.push_str(&format!("monitor {name} {monitor:?}\n"));
    }
    for event in registry.events().iter().filter(|e| pinned(&e.name)) {
        text.push_str(&format!("event {} {}\n", event.name, event.detail));
    }
    text
}

/// The same fifteen campaigns, each rerun on a fresh registry: the
/// traces above never read the registry, so these digests pin what the
/// telemetry handles and the health monitor publish.
#[test]
fn fifteen_campaigns_match_the_pinned_registry_digests() {
    let mut rendered = String::new();
    for (seed, name, options) in fifteen_campaigns() {
        let report = run_serve(&options);
        let registry = Registry::new();
        let outcome = ServeEngine::new(report.config.clone())
            .with_plan(report.plan.clone())
            .with_registry(registry.clone())
            .run();
        assert_eq!(outcome.offered, report.outcome.offered, "seed{seed} {name}");
        rendered.push_str(&format!(
            "seed{seed} {name} {:016x}\n",
            fnv1a(registry_text(&registry).as_bytes())
        ));
    }
    assert_eq!(
        rendered,
        include_str!("../ci/serve/registry_digests.txt"),
        "a serve campaign's registry moved; got:\n{rendered}"
    );
}
