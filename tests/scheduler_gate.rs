//! Local mirror of the CI `chaos-replay` and `heal-replay` golden
//! steps: the replay traces `basecamp chaos --trace` and `basecamp heal
//! --trace` write at the default seed must reproduce
//! `ci/chaos_golden.json` and `ci/heal_golden.json` byte-for-byte.
//!
//! The replay jobs otherwise only diff a run against itself, which
//! catches non-determinism but not drift between commits; these two
//! goldens pin the scheduler tier's fault recovery and closed healing
//! loop the way `tests/serve_gate.rs` pins the serve tier.

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
