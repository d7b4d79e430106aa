//! Golden-file test for the human-readable lint rendering: a crafted
//! module exercising the fixpoint-powered lints must produce exactly
//! the committed report text. Because `Analyzer::run` normalizes every
//! report, the rendering is byte-stable across lint registration and
//! walk order — exactly the property the CI analysis gate leans on.
//!
//! To regenerate after an intentional message change:
//! `UPDATE_GOLDEN=1 cargo test -p everest-analysis --test golden_lints`

mod golden;

use everest_analysis::Analyzer;
use everest_ir::registry::Context;

use golden::buggy_module;

const GOLDEN_PATH: &str = "tests/golden/buggy_module.txt";

#[test]
fn buggy_module_report_matches_the_golden_file() {
    let ctx = Context::with_all_dialects();
    let module = buggy_module();
    let report = Analyzer::with_default_lints().run(&ctx, &module);
    let text = report.to_text();
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(GOLDEN_PATH);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().expect("parent")).expect("mkdir");
        std::fs::write(&path, &text).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}; run with UPDATE_GOLDEN=1", GOLDEN_PATH));
    assert_eq!(
        text, golden,
        "lint text drifted from {GOLDEN_PATH}; if intentional, regenerate with UPDATE_GOLDEN=1"
    );
}

#[test]
fn buggy_module_report_is_stable_across_reruns() {
    let ctx = Context::with_all_dialects();
    let module = buggy_module();
    let analyzer = Analyzer::with_default_lints();
    let a = analyzer.run(&ctx, &module);
    let b = analyzer.run(&ctx, &module);
    assert_eq!(a.to_json(), b.to_json());
    assert!(!a.by_lint("memory-space-escape").is_empty());
    assert!(!a.by_lint("interval-out-of-bounds").is_empty());
    assert!(!a.by_lint("latency-deadline").is_empty());
}
