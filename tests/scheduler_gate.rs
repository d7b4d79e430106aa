//! Local mirror of the CI `chaos-replay` and `heal-replay` golden
//! steps: the replay traces `basecamp chaos --trace` and `basecamp heal
//! --trace` write at the default seed must reproduce
//! `ci/chaos_golden.json` and `ci/heal_golden.json` byte-for-byte, and
//! the traces of twelve more campaigns must hash to
//! `ci/scheduler/outcome_digests.txt`.
//!
//! The replay jobs otherwise only diff a run against itself, which
//! catches non-determinism but not drift between commits; these pins
//! cover the scheduler tier's fault recovery and closed healing loop
//! the way `tests/serve_gate.rs` covers the serve tier.

mod common;

use common::fnv1a;
use everest_sdk::{run_chaos, run_heal, ChaosOptions, HealOptions};

const CHAOS_GOLDEN: &str = include_str!("../ci/chaos_golden.json");
const HEAL_GOLDEN: &str = include_str!("../ci/heal_golden.json");

// The CLI writes `trace_json()` plus a newline; both tests mirror that
// framing.

#[test]
fn chaos_campaign_matches_the_checked_in_golden() {
    let trace = run_chaos(&ChaosOptions::default()).trace_json();
    assert_eq!(
        format!("{trace}\n"),
        CHAOS_GOLDEN,
        "ci/chaos_golden.json drifted"
    );
}

#[test]
fn heal_campaign_matches_the_checked_in_golden() {
    let trace = run_heal(&HealOptions::default()).trace_json();
    assert_eq!(
        format!("{trace}\n"),
        HEAL_GOLDEN,
        "ci/heal_golden.json drifted"
    );
}

/// Three seeds by two chaos and two heal shapes, each trace pinned by
/// its FNV-1a digest. A digest that moves means the scheduler placed,
/// recovered or healed differently somewhere in that campaign.
#[test]
fn twelve_campaigns_match_the_pinned_outcome_digests() {
    let big = ChaosOptions {
        nodes: 8,
        tasks: 200,
        faults: 24,
        ..ChaosOptions::default()
    };
    let gray = HealOptions {
        gray_faults: 8,
        ..HealOptions::default()
    };
    let mut rendered = String::new();
    let mut pin = |name: String, trace: String| {
        rendered.push_str(&format!("{name} {:016x}\n", fnv1a(trace.as_bytes())));
    };
    for seed in [7, 42, 1234] {
        for (shape, options) in [
            ("defaults", ChaosOptions::default()),
            ("nodes8_tasks200_faults24", big),
        ] {
            let trace = run_chaos(&ChaosOptions { seed, ..options }).trace_json();
            pin(format!("seed{seed} chaos_{shape}"), trace);
        }
        for (shape, options) in [("defaults", HealOptions::default()), ("gray8", gray)] {
            let trace = run_heal(&HealOptions { seed, ..options }).trace_json();
            pin(format!("seed{seed} heal_{shape}"), trace);
        }
    }
    assert_eq!(
        rendered,
        include_str!("../ci/scheduler/outcome_digests.txt"),
        "a scheduler campaign's trace moved; got:\n{rendered}"
    );
}
