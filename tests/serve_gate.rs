//! Local mirror of the CI `serve-replay` and `partition-replay` golden
//! steps: the replay trace `basecamp serve --trace` writes for the two
//! pinned campaigns must reproduce `ci/serve_hedge_golden.json` and
//! `ci/serve_partition_golden.json` byte-for-byte, and the traces of
//! fifteen more campaigns must hash to `ci/serve/outcome_digests.txt`.
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

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
        (hash ^ u64::from(*byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Three seeds by five flag sets, each trace pinned by its FNV-1a
/// digest: the two goldens above are one seed each, and a replay
/// property only compares a run with itself. A digest that moves means
/// the engine made a different decision somewhere in that campaign.
#[test]
fn fifteen_campaigns_match_the_pinned_outcome_digests() {
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
    let mut rendered = String::new();
    for seed in [7, 42, 977] {
        for (name, flags) in &flag_sets {
            let trace = run_serve(&ServeOptions { seed, ..*flags }).trace_json();
            rendered.push_str(&format!(
                "seed{seed} {name} {:016x}\n",
                fnv1a(trace.as_bytes())
            ));
        }
    }
    assert_eq!(
        rendered,
        include_str!("../ci/serve/outcome_digests.txt"),
        "a serve campaign's trace moved; got:\n{rendered}"
    );
}
