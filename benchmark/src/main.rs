//! The repository benchmark. See `benchmark/README.md`.
//!
//! ```text
//! everest-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--quick]
//! everest-benchmark --all           [--seed N] [--seconds S] [--trace 0|1] [--quick]
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`.

mod compile;
mod gen;
mod harness;
mod metrics;
mod query;
mod schedule;
mod serve;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use serde::Value;

use harness::Report;
use metrics::{WorkloadInfo, END_TO_END, PER_LAYER, WORKLOADS};

const USAGE: &str = "usage: everest-benchmark (--workload NAME | --all) \
[--seed N] [--seconds S] [--trace 0|1] [--quick]";

#[derive(Debug, Clone)]
struct Args {
    workload: Option<String>,
    all: bool,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        all: false,
        seed: 42,
        seconds: 10.0,
        trace: false,
        quick: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(value("--workload")?),
            "--all" => args.all = true,
            "--quick" => args.quick = true,
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed takes a whole number".to_string())?;
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds takes a positive number")?;
            }
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                };
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if args.all == args.workload.is_some() {
        return Err("give exactly one of --workload and --all".to_string());
    }
    Ok(args)
}

fn run_workload(info: &WorkloadInfo, args: &Args) -> Report {
    macro_rules! go {
        ($workload:ty) => {
            if args.trace {
                harness::run_traced::<$workload>(args.seed, args.seconds, args.quick)
            } else {
                harness::run::<$workload>(args.seed, args.seconds, args.quick)
            }
        };
    }
    match info.name {
        "serve_saturation" => go!(serve::Serve<serve::Saturation>),
        "serve_nominal" => go!(serve::Serve<serve::Nominal>),
        "serve_chaos" => go!(serve::Serve<serve::Chaos>),
        "compile_corpus" => go!(compile::CompileCorpus),
        "query_scan" => go!(query::QueryScan),
        "query_small" => go!(query::QuerySmall),
        "schedule_recovery" => go!(schedule::ScheduleRecovery),
        other => unreachable!("{other} is in the workload table"),
    }
}

/// First line of a command's standard output, or `unknown`. The
/// checkout the driver measures is not a git repository and may have no
/// `git` at all.
fn first_line_of(program: &str, argv: &[&str]) -> String {
    Command::new(program)
        .args(argv)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|text| text.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn number(v: f64) -> Value {
    Value::Num(v)
}

fn text(s: &str) -> Value {
    Value::Str(s.to_string())
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
fn result_line(report: &Report) -> Value {
    let metrics = report
        .metrics
        .iter()
        .map(|m| {
            let entry = Value::Object(vec![
                ("value".to_string(), number(m.value)),
                ("unit".to_string(), text(m.unit)),
            ]);
            (m.name.to_string(), entry)
        })
        .collect();
    Value::Object(vec![
        ("correct".to_string(), Value::Bool(report.failed == 0)),
        ("attempted".to_string(), number(report.attempted as f64)),
        ("failed".to_string(), number(report.failed as f64)),
        ("metrics".to_string(), Value::Object(metrics)),
    ])
}

fn single(info: &WorkloadInfo, args: &Args) -> ExitCode {
    let report = run_workload(info, args);
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let rustc = first_line_of("rustc", &["-V"]);
    let commit = first_line_of("git", &["rev-parse", "--short", "HEAD"]);

    println!("workload  : {} ({})", info.name, info.why);
    if !info.tracked {
        println!("            not in BENCHMARK.json: measured here and by check.sh only");
    }
    println!(
        "run       : seed {}, {} s, trace {}, quick {}, {} passes, input digest {:016x}",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.quick,
        report.passes,
        report.digest.0
    );
    println!("host      : nproc {nproc}, {rustc}, commit {commit}, one measuring thread");
    println!(
        "operations: {} attempted, {} failed (an operation is {}; work is {})",
        report.attempted, report.failed, info.operation, info.work_unit
    );
    for failure in &report.failures {
        println!("  FAILED  : {failure}");
    }
    for m in &report.metrics {
        let (better, bound) = match END_TO_END.iter().find(|e| e.name == m.name) {
            Some(e) => (e.better, format!(", bound {}", e.bound)),
            None => {
                let layer = PER_LAYER.iter().find(|l| l.name == m.name);
                (layer.expect("metric is in a table").better, String::new())
            }
        };
        println!(
            "  {:<40} {:>16.6} {:<9} better {}{bound}, iqr {:.6}",
            m.name,
            m.value,
            m.unit,
            better.word(),
            m.iqr
        );
    }

    let line = result_line(&report);
    // The full record: the result line plus what identifies the run.
    let record = Value::Object(vec![
        ("workload".to_string(), text(info.name)),
        ("seed".to_string(), number(args.seed as f64)),
        ("seconds".to_string(), number(args.seconds)),
        ("trace".to_string(), Value::Bool(args.trace)),
        ("quick".to_string(), Value::Bool(args.quick)),
        ("passes".to_string(), number(report.passes as f64)),
        (
            "input_digest".to_string(),
            text(&format!("{:016x}", report.digest.0)),
        ),
        ("nproc".to_string(), number(nproc as f64)),
        ("rustc".to_string(), text(&rustc)),
        ("commit".to_string(), text(&commit)),
        (
            "iqr".to_string(),
            Value::Object(
                report
                    .metrics
                    .iter()
                    .map(|m| (m.name.to_string(), number(m.iqr)))
                    .collect(),
            ),
        ),
        (
            "samples".to_string(),
            Value::Object(
                report
                    .samples
                    .iter()
                    .map(|(name, values)| {
                        let values = values.iter().copied().map(number).collect();
                        (name.to_string(), Value::Array(values))
                    })
                    .collect(),
            ),
        ),
        ("result".to_string(), line.clone()),
    ]);
    let dir = out_dir();
    let written = std::fs::create_dir_all(&dir).and_then(|()| {
        let suffix = if args.trace { "layers" } else { "end_to_end" };
        std::fs::write(
            dir.join(format!("result-{}-{suffix}.json", info.name)),
            serde_json::to_string_pretty(&record).expect("serializes") + "\n",
        )?;
        match &report.tracer {
            Some(tracer) => std::fs::write(
                dir.join(format!("trace-{}.json", info.name)),
                tracer.to_json(info.name),
            ),
            None => Ok(()),
        }
    });
    if let Err(e) = written {
        eprintln!("error: cannot write under {}: {e}", dir.display());
        return ExitCode::FAILURE;
    }
    println!("{}", serde_json::to_string(&line).expect("serializes"));
    ExitCode::SUCCESS
}

/// `--all`: every workload in a fresh child process, so that peak
/// memory is per workload and no workload warms another's caches.
fn all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("error: cannot find this executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut attempted = 0.0;
    let mut failed = 0.0;
    let mut metrics = Vec::new();
    for info in WORKLOADS {
        let mut child = Command::new(&exe);
        child
            .args(["--workload", info.name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }]);
        if args.quick {
            child.arg("--quick");
        }
        // `output` waits for the child to end.
        let output = match child.output() {
            Ok(output) => output,
            Err(e) => {
                eprintln!("error: cannot run {}: {e}", info.name);
                return ExitCode::FAILURE;
            }
        };
        let stdout = String::from_utf8_lossy(&output.stdout);
        print!("{stdout}");
        eprint!("{}", String::from_utf8_lossy(&output.stderr));
        let parsed = stdout
            .lines()
            .last()
            .and_then(|line| serde_json::from_str::<Value>(line).ok());
        let Some(result) = parsed.filter(|_| output.status.success()) else {
            eprintln!("error: {} ended without a result", info.name);
            return ExitCode::FAILURE;
        };
        let count = |key: &str| match result.get(key) {
            Some(Value::Num(n)) => *n,
            _ => 0.0,
        };
        attempted += count("attempted");
        failed += count("failed");
        if let Some(Value::Object(entries)) = result.get("metrics") {
            for (name, entry) in entries {
                metrics.push((format!("{}/{name}", info.name), entry.clone()));
            }
        }
        println!();
    }
    let line = Value::Object(vec![
        ("correct".to_string(), Value::Bool(failed == 0.0)),
        ("attempted".to_string(), number(attempted)),
        ("failed".to_string(), number(failed)),
        ("metrics".to_string(), Value::Object(metrics)),
    ]);
    println!("{}", serde_json::to_string(&line).expect("serializes"));
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if cfg!(debug_assertions) {
        eprintln!("error: this is a debug build; measure with `cargo run --release`");
        return ExitCode::from(2);
    }
    if args.all {
        return all(&args);
    }
    let name = args.workload.as_deref().unwrap_or_default();
    match metrics::workload(name) {
        Some(info) => single(info, &args),
        None => {
            let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
            eprintln!(
                "error: unknown workload '{name}'; one of {}",
                names.join(", ")
            );
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| w.to_string()).collect()
    }

    #[test]
    fn driver_command_line_parses() {
        let args = parse_args(&argv(&[
            "--workload",
            "query_scan",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .expect("parses");
        assert_eq!(args.workload.as_deref(), Some("query_scan"));
        assert_eq!((args.seed, args.seconds, args.trace), (7, 10.0, true));
        assert!(!args.quick && !args.all);
    }

    #[test]
    fn bad_command_lines_are_refused() {
        assert!(parse_args(&argv(&[])).is_err());
        assert!(parse_args(&argv(&["--all", "--workload", "x"])).is_err());
        assert!(parse_args(&argv(&["--all", "--trace", "2"])).is_err());
        assert!(parse_args(&argv(&["--all", "--seconds", "0"])).is_err());
        assert!(parse_args(&argv(&["--all", "--seed"])).is_err());
        assert!(parse_args(&argv(&["--all", "--frobnicate"])).is_err());
    }
}
