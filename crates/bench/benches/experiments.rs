//! `cargo bench -p everest-bench [-- e07 e16]`: runs the experiments
//! (all of them, or the ids given), prints each report, writes its
//! pinned text to `target/experiments/eNN.txt` and compares that with
//! `ci/experiments/eNN.txt`. Exits non-zero when any pinned line
//! drifted; re-blessing an intended change is
//! `cp target/experiments/*.txt ci/experiments/`.

use std::process::ExitCode;

use everest_bench::{check_pinned, workspace_root, Report, EXPERIMENTS};

fn main() -> ExitCode {
    // Cargo passes `--bench`; everything else is an experiment id.
    let wanted: Vec<String> = std::env::args()
        .skip(1)
        .filter(|a| !a.starts_with('-'))
        .collect();
    if let Some(unknown) = wanted
        .iter()
        .find(|w| EXPERIMENTS.iter().all(|(id, ..)| id != w))
    {
        eprintln!("error: no experiment {unknown:?}; ids are e01, e02, …");
        return ExitCode::FAILURE;
    }

    let out_dir = workspace_root().join("target/experiments");
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("error: cannot create {}: {e}", out_dir.display());
        return ExitCode::FAILURE;
    }
    let mut drifted = Vec::new();
    for &(id, series, timings) in EXPERIMENTS
        .iter()
        .filter(|(id, ..)| wanted.is_empty() || wanted.iter().any(|w| w == id))
    {
        let mut report = Report::default();
        series(&mut report);
        timings(&mut report);
        print!("\n{report}");
        let pinned = report.pinned_text();

        let out = out_dir.join(format!("{id}.txt"));
        if let Err(e) = std::fs::write(&out, pinned) {
            eprintln!("error: cannot write {}: {e}", out.display());
            return ExitCode::FAILURE;
        }
        if let Err(diff) = check_pinned(id, pinned) {
            eprint!("{diff}");
            drifted.push(id);
        }
    }
    if drifted.is_empty() {
        return ExitCode::SUCCESS;
    }
    eprintln!(
        "error: pinned text drifted in {}; if the change is intended, \
         cp target/experiments/*.txt ci/experiments/",
        drifted.join(", ")
    );
    ExitCode::FAILURE
}
