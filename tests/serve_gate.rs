//! Local mirror of the CI `serve-replay` and `partition-replay` golden
//! steps: the replay trace `basecamp serve --trace` writes for the two
//! pinned campaigns must reproduce `ci/serve_hedge_golden.json` and
//! `ci/serve_partition_golden.json` byte-for-byte.
//!
//! CI diffs the CLI output against the golden files; this test performs
//! the same comparison through the library API so a behavioural drift
//! in the serve engine is caught by `cargo test` before the workflow
//! ever runs.

use everest_sdk::serve::{run_serve, ServeOptions};

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
