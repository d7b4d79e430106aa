//! The EVEREST experiments.
//!
//! The paper (DATE 2024) is a toolchain overview without numeric tables;
//! every figure and every §VIII claim is reproduced as an experiment
//! here, one row of [`EXPERIMENTS`] each. An experiment is two
//! functions over a [`Report`]: `series` computes the paper-shaped
//! tables and asserts their shape, `timings` measures the
//! representative computation with [`Report::time`].
//!
//! What a series derives from its seeds is *pinned*: committed as
//! `ci/experiments/eNN.txt`, replayed by this crate's tests on every
//! `cargo test`, and by `cargo bench -p everest-bench`, which also runs
//! the timings. Anything read from the host's clock is shown and never
//! compared. EXPERIMENTS.md records claim vs measured for all of them.

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

mod e01_sdk_flow;
mod e02_rrtmg;
mod e03_condrust;
mod e04_dialects;
mod e05_sriov;
mod e06_formats;
mod e07_olympus;
mod e08_scheduler;
mod e09_autotuner;
mod e10_anomaly;
mod e11_ptdr;
mod e12_energy;
mod e13_airquality;
mod e14_resilience;
mod e15_selfheal;
mod e16_serving;
mod e17_lifecycle;
mod e18_partition;
mod e19_query;
mod report;

use std::path::PathBuf;

use everest_ekl::rrtmg::RrtmgDims;
use everest_sdk::basecamp::{Basecamp, CompileOptions, CompiledKernel};

pub(crate) use report::rule;
pub use report::Report;

/// One experiment: its id (`e01` …: what `cargo bench -p everest-bench
/// -- <id>` selects by, and the stem of the pinned file), its `series`,
/// which writes the tables and asserts their shape, and its `timings`,
/// which time the representative computation.
pub type Experiment = (&'static str, fn(&mut Report), fn(&mut Report));

/// Every experiment, in paper order. A module left out of the table
/// fails the build's dead-code lint.
pub const EXPERIMENTS: &[Experiment] = &[
    ("e01", e01_sdk_flow::series, e01_sdk_flow::timings),
    ("e02", e02_rrtmg::series, e02_rrtmg::timings),
    ("e03", e03_condrust::series, e03_condrust::timings),
    ("e04", e04_dialects::series, e04_dialects::timings),
    ("e05", e05_sriov::series, e05_sriov::timings),
    ("e06", e06_formats::series, e06_formats::timings),
    ("e07", e07_olympus::series, e07_olympus::timings),
    ("e08", e08_scheduler::series, e08_scheduler::timings),
    ("e09", e09_autotuner::series, e09_autotuner::timings),
    ("e10", e10_anomaly::series, e10_anomaly::timings),
    ("e11", e11_ptdr::series, e11_ptdr::timings),
    ("e12", e12_energy::series, e12_energy::timings),
    ("e13", e13_airquality::series, e13_airquality::timings),
    ("e14", e14_resilience::series, e14_resilience::timings),
    ("e15", e15_selfheal::series, e15_selfheal::timings),
    ("e16", e16_serving::series, e16_serving::timings),
    ("e17", e17_lifecycle::series, e17_lifecycle::timings),
    ("e18", e18_partition::series, e18_partition::timings),
    ("e19", e19_query::series, e19_query::timings),
];

/// The workspace root, where `ci/experiments/` and `target/` live.
pub fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Compares an experiment's pinned text with `ci/experiments/<id>.txt`.
///
/// # Errors
///
/// A message naming the file: that it cannot be read, or each line at
/// which the two differ.
pub fn check_pinned(id: &str, pinned: &str) -> Result<(), String> {
    let name = format!("ci/experiments/{id}.txt");
    let committed = std::fs::read_to_string(workspace_root().join(&name))
        .map_err(|e| format!("{name}: cannot read the pinned text: {e}"))?;
    line_diff(&name, &committed, pinned)
}

/// `Ok` when the two texts are equal, else every differing line as
/// `name:line`, `-` what is committed and `+` what the run printed.
fn line_diff(name: &str, committed: &str, printed: &str) -> Result<(), String> {
    if committed == printed {
        return Ok(());
    }
    let (old, new): (Vec<&str>, Vec<&str>) =
        (committed.lines().collect(), printed.lines().collect());
    let mut message = String::new();
    for line in 0..old.len().max(new.len()) {
        let (was, is) = (old.get(line), new.get(line));
        if was != is {
            message.push_str(&format!("{name}:{}\n", line + 1));
            for (sign, text) in [('-', was), ('+', is)] {
                if let Some(text) = text {
                    message.push_str(&format!("  {sign} {text}\n"));
                }
            }
        }
    }
    if message.is_empty() {
        message = format!("{name}: differs only in its final newline\n");
    }
    Err(message)
}

/// Small RRTMG dimensions used across experiments (fast, same structure
/// as the full kernel).
pub fn small_dims() -> RrtmgDims {
    RrtmgDims {
        nlay: 16,
        ngpt: 16,
        ntemp: 8,
        npres: 16,
        neta: 6,
        nflav: 2,
    }
}

/// RRTMG dimensions scaled by a g-point count.
pub fn dims_with_gpt(ngpt: usize) -> RrtmgDims {
    RrtmgDims {
        ngpt,
        ..small_dims()
    }
}

/// Compiles the RRTMG kernel with default options.
///
/// # Panics
///
/// Panics when compilation fails (a harness bug).
pub fn compiled_rrtmg(dims: RrtmgDims, options: CompileOptions) -> CompiledKernel {
    let source = everest_ekl::rrtmg::major_absorber_source(dims);
    Basecamp::new()
        .compile_kernel(&source, options)
        .expect("rrtmg compiles")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The four series that cost 61 of the 66 s a debug build spends on
    /// all nineteen; an optimized build replays them too, and so does
    /// `cargo bench -p everest-bench` on every push.
    const SLOW_UNOPTIMIZED: [&str; 4] = ["e03", "e10", "e12", "e13"];

    fn pinned_text_of(series: fn(&mut Report)) -> String {
        let mut report = Report::default();
        series(&mut report);
        report.pinned_text().to_string()
    }

    #[test]
    fn rrtmg_helper_compiles() {
        let k = compiled_rrtmg(
            RrtmgDims {
                nlay: 4,
                ngpt: 2,
                ntemp: 4,
                npres: 8,
                neta: 3,
                nflav: 2,
            },
            CompileOptions::default(),
        );
        assert!(k.hls.cycles > 0);
    }

    #[test]
    fn series_replay_the_pinned_text() {
        let drift: Vec<String> = EXPERIMENTS
            .iter()
            .filter(|(id, ..)| !(cfg!(debug_assertions) && SLOW_UNOPTIMIZED.contains(id)))
            .filter_map(|&(id, series, _)| check_pinned(id, &pinned_text_of(series)).err())
            .collect();
        assert!(
            drift.is_empty(),
            "pinned text drifted; if the change is intended, run `cargo bench -p everest-bench` \
             and copy target/experiments/*.txt over ci/experiments/\n{}",
            drift.concat()
        );
    }

    #[test]
    fn an_edited_or_missing_pinned_file_fails_the_check() {
        let name = "ci/experiments/e07.txt";
        let committed = std::fs::read_to_string(workspace_root().join(name)).expect("committed");
        assert_eq!(line_diff(name, &committed, &committed), Ok(()));

        let edited = committed.replacen("13.63x", "13.64x", 1);
        let message = line_diff(name, &committed, &edited).expect_err("one character differs");
        let line = 1 + committed
            .lines()
            .position(|l| l.contains("13.63x"))
            .expect("the figure is pinned");
        assert!(
            message.starts_with(&format!("{name}:{line}\n")),
            "{message}"
        );
        assert!(message.contains("13.63x") && message.contains("13.64x"));

        let message =
            line_diff(name, &committed, &format!("{committed}extra\n")).expect_err("one line more");
        assert!(message.contains("+ extra"), "{message}");

        let message = check_pinned("e00", "").expect_err("no such file");
        assert!(message.starts_with("ci/experiments/e00.txt:"), "{message}");
    }

    /// The table, the pinned files and EXPERIMENTS.md's summary rows
    /// name the same experiments.
    #[test]
    fn table_files_and_summary_rows_agree() {
        let table: Vec<String> = EXPERIMENTS.iter().map(|(id, ..)| id.to_string()).collect();

        let mut files: Vec<String> = std::fs::read_dir(workspace_root().join("ci/experiments"))
            .expect("ci/experiments exists")
            .map(|entry| entry.expect("readable").file_name())
            .map(|name| name.to_string_lossy().trim_end_matches(".txt").to_string())
            .collect();
        files.sort();
        assert_eq!(files, table, "ci/experiments/ against the table");

        let doc = std::fs::read_to_string(workspace_root().join("EXPERIMENTS.md"))
            .expect("EXPERIMENTS.md");
        let rows: Vec<String> = doc
            .lines()
            .filter_map(|l| l.strip_prefix("| E"))
            .filter_map(|l| l.split(' ').next()?.parse::<u32>().ok())
            .map(|n| format!("e{n:02}"))
            .collect();
        assert_eq!(
            rows, table,
            "EXPERIMENTS.md's summary table against the table"
        );
    }

    #[test]
    fn host_time_is_never_pinned() {
        // Both carry `Instant` figures beside their pinned ones.
        let series: [fn(&mut Report); 2] = [e02_rrtmg::series, e15_selfheal::series];
        for series in series {
            assert_eq!(pinned_text_of(series), pinned_text_of(series));
        }
    }

    #[test]
    fn bench_function_runs_the_routine() {
        let mut report = Report::default();
        let mut count = 0;
        report.time("counting", || count += 1);
        assert_eq!(count, report::REPEATS);
        assert_eq!(report.pinned_text(), "", "a timing is host time");
        assert!(report.to_string().contains("\ncounting"));
    }

    #[test]
    fn unit_formatting_picks_scales() {
        use report::format_seconds;
        assert!(format_seconds(2.5).ends_with(" s"));
        assert!(format_seconds(2.5e-3).ends_with(" ms"));
        assert!(format_seconds(2.5e-6).ends_with(" µs"));
        assert!(format_seconds(2.5e-9).ends_with(" ns"));
    }
}
