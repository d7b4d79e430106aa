//! Local mirror of the CI `analysis-gate` job: the gate inputs under
//! `ci/analysis/` must stay in sync with the sources they mirror, and
//! the analyzer must reproduce the checked-in expectations exactly.
//!
//! CI diffs `basecamp analyze <input> --json` against the expectation
//! files byte-for-byte; this test performs the same comparison through
//! the library API so a drift is caught by `cargo test` before the
//! workflow ever runs.

use everest_sdk::basecamp::{Basecamp, CompileOptions};
use everest_usecases::traffic::mapmatch::CONDRUST_MAP_MATCH;

const PROBE_EKL: &str = include_str!("../ci/analysis/probe.ekl");
const MAPMATCH_RS: &str = include_str!("../ci/analysis/mapmatch.rs");
const EXPECTED_PROBE: &str = include_str!("../ci/analysis/expected_probe.json");
const EXPECTED_MAPMATCH: &str = include_str!("../ci/analysis/expected_mapmatch.json");
const ILL_TYPED_IR: &str = include_str!("../ci/analysis/ill_typed.ir");
const EXPECTED_ILL_TYPED: &str = include_str!("../ci/analysis/expected_ill_typed.json");

/// The coordination gate input is the paper's Fig. 4 program — the
/// same text the use-case crate ships. If one side changes, the other
/// must follow (and the expectation file with it).
#[test]
fn gate_input_mirrors_the_mapmatch_use_case() {
    assert_eq!(
        MAPMATCH_RS.trim(),
        CONDRUST_MAP_MATCH.trim(),
        "ci/analysis/mapmatch.rs drifted from CONDRUST_MAP_MATCH"
    );
}

#[test]
fn probe_kernel_report_matches_the_checked_in_expectation() {
    let basecamp = Basecamp::new();
    let kernel = basecamp
        .compile_kernel(PROBE_EKL, CompileOptions::default())
        .expect("probe.ekl compiles");
    let report = basecamp.analyze_kernel(&kernel);
    assert_eq!(
        report.to_json(),
        EXPECTED_PROBE.trim_end(),
        "probe expectation drifted; regenerate per ci/analysis/README.md"
    );
    assert!(!report.has_denials(), "gate input must stay deny-free");
}

#[test]
fn mapmatch_report_matches_the_checked_in_expectation() {
    let basecamp = Basecamp::new();
    let program = basecamp
        .compile_coordination(MAPMATCH_RS)
        .expect("mapmatch.rs compiles");
    let report = basecamp.analyze_coordination(&program);
    assert_eq!(
        report.to_json(),
        EXPECTED_MAPMATCH.trim_end(),
        "mapmatch expectation drifted; regenerate per ci/analysis/README.md"
    );
    assert!(!report.has_denials(), "gate input must stay deny-free");
}

#[test]
fn ill_typed_report_matches_and_verification_names_its_first_finding() {
    let basecamp = Basecamp::new();
    let module = everest_ir::parse::parse_module(ILL_TYPED_IR).expect("ill_typed.ir parses");
    let report = basecamp.analyze_module(&module);
    assert_eq!(
        report.to_json(),
        EXPECTED_ILL_TYPED.trim_end(),
        "ill_typed expectation drifted; regenerate per ci/analysis/README.md"
    );
    assert!(
        report.has_denials(),
        "every finding is a deny-level type mismatch"
    );
    let err = everest_ir::verify::verify_module(basecamp.context(), &module)
        .expect_err("ill_typed.ir fails verification");
    let first = &report.diagnostics[0];
    assert_eq!(first.lint, "type-mismatch");
    assert!(
        err.to_string().contains(&first.message),
        "{err} does not carry {}",
        first.message
    );
}
