//! `basecamp` — the single command-line entry point to the EVEREST SDK
//! (paper §IV: "All tools within the SDK are wrapped under the basecamp
//! command, which provides a single point of access to the users").
//!
//! ```text
//! basecamp targets
//! basecamp compile <kernel.ekl> [--target T] [--explore] [--emit-ir] [--trace out.json]
//! basecamp cfdlang <program.cfd> [--target T] [--name N] [--trace out.json]
//! basecamp coordinate <program.rs> [--trace out.json]
//! basecamp analyze <kernel.ekl | program.rs | module.ir> [--json [out.json]] [--trace out.json]
//! basecamp chaos [--seed N] [--nodes N] [--tasks N] [--faults N] [--trace out.json]
//! basecamp heal [--seed N] [--nodes N] [--tasks N] [--gray N] [--trace out.json]
//! basecamp query --sql "SELECT ..." [--dataset D] [--seed N] [--explain] [--json [out.json]] [--no-optimize] [--trace out.json]
//! basecamp serve [--seed N] [--nodes N] [--tenants N] [--load X] [--horizon-ms N] [--chaos N] [--partition-plan N] [--retries] [--hedge] [--limiter] [--brownout] [--trace out.json]
//! ```
//!
//! Every numeric flag has a range (`basecamp` with no arguments prints
//! them); a value outside it exits 1 naming the flag and the range.
//!
//! `--trace` exports the telemetry recorded during the run as Chrome
//! `trace_event` JSON, loadable in `chrome://tracing` or Perfetto; the
//! span, metric and event names are documented in
//! `docs/OBSERVABILITY.md`.

use std::fmt::Display;
use std::ops::RangeInclusive;
use std::process::ExitCode;
use std::str::FromStr;

use everest_sdk::basecamp::{Basecamp, CompileOptions, Target};
use everest_sdk::chaos::ChaosOptions;
use everest_sdk::heal::HealOptions;
use everest_sdk::query::QueryOptions;
use everest_sdk::serve::ServeOptions;

fn usage() -> ExitCode {
    eprintln!(
        "basecamp — the EVEREST SDK entry point

USAGE:
    basecamp targets
        List the supported target platforms.

    basecamp compile <kernel.ekl> [--target <name>] [--explore] [--emit-ir]
        Compile an EKL kernel: frontend -> IR -> HLS -> Olympus.

    basecamp cfdlang <program.cfd> [--target <name>] [--name <kernel>]
        Compile a legacy CFDlang program through the same flow.

    basecamp coordinate <program.rs>
        Compile a ConDRust coordination program to its dataflow graph.

    basecamp analyze <file> [--json [<out.json>]]
        Run the static-analysis lint suite. `.ekl` compiles the kernel
        and analyzes every produced module; `.rs` analyzes the
        coordination pipeline; anything else is parsed as textual IR.
        `--json` emits the full machine-readable report (summary plus
        every diagnostic, in canonical order — byte-stable across
        runs; the CI analysis gate diffs it), to stdout or to the
        given file. Exits 1 when deny-level findings are reported.

    basecamp chaos [--seed <n>] [--nodes <n>] [--tasks <n>] [--faults <n>]
        Run a seeded fault-injection campaign against the runtime
        scheduler and report the recovery accounting. For this
        subcommand `--trace` writes the deterministic replay trace
        (byte-identical for the same options — CI diffs two runs)
        instead of the Chrome timeline. See docs/RESILIENCE.md.

    basecamp heal [--seed <n>] [--nodes <n>] [--tasks <n>] [--gray <n>]
        Run a seeded gray-failure campaign twice — healing off, then
        with the closed-loop health monitor, circuit breakers and
        checkpoint/restart engaged — and report what the loop did.
        Also resumes from the last checkpoint in-process and verifies
        the resumed result matches. Like chaos, `--trace` writes the
        deterministic replay trace. See docs/RESILIENCE.md.

    basecamp serve [--seed <n>] [--nodes <n>] [--tenants <n>] [--load <x>]
                   [--horizon-ms <n>] [--chaos <n>] [--partition-plan <n>]
                   [--retries] [--hedge] [--limiter] [--brownout]
        Run a seeded multi-tenant serving campaign: token-bucket
        admission, weighted-fair queueing and dynamic batching in
        front of the runtime. `--load` is a multiple of nominal
        cluster capacity; `--chaos` injects that many random faults.
        `--partition-plan` turns on the cluster-membership layer
        (SWIM-style gossip, leased shard ownership, fencing epochs)
        and injects that many seeded partition/heal cycles; without
        it the trace bytes are identical to earlier releases. The
        lifecycle switches enable per-tenant retry budgets, hedged
        dispatch for the latency-critical class, the AIMD
        concurrency limiter, and health-driven brownout tiers (all
        off by default; deterministic either way). Like chaos,
        `--trace` writes the deterministic replay trace
        (byte-identical for the same options — CI diffs two runs).
        See docs/SERVING.md and docs/RESILIENCE.md.

    basecamp query --sql <text> [--dataset <name>] [--seed <n>]
                   [--explain] [--json [<out.json>]] [--no-optimize]
        Run an analytic SQL query (SELECT/WHERE/GROUP BY/ORDER
        BY/LIMIT, inner JOIN) over a seeded use-case dataset
        (traffic, airquality, energy), execute it on the
        deterministic engine, and lower it to a verified dfg graph
        of HLS-scheduled kernels with an Olympus memory
        architecture and a serving class. `--explain` prints the
        canonical plan instead of the result rows; `--json` emits
        the byte-stable EXPLAIN JSON the `query-gate` CI job diffs
        against ci/query/ goldens; `--no-optimize` skips the
        rewrite rules for A/B plan comparisons. See docs/QUERY.md.

Every subcommand above also accepts:
    --trace <out.json>
        Write the telemetry recorded during the run as Chrome
        trace_event JSON (open in chrome://tracing or Perfetto). The
        stable span/metric/event names are listed in
        docs/OBSERVABILITY.md.

TARGETS: alveo_u55c (default), alveo_u280, cloudfpga, cpu

NUMERIC FLAGS take a value in their range, or the command exits 1:
    chaos  {}
    heal   {}
    serve  {}
    query  {}",
        flag_ranges(&chaos_flags(&mut ChaosOptions::default())),
        flag_ranges(&heal_flags(&mut HealOptions::default())),
        flag_ranges(&serve_flags(&mut ServeOptions::default())),
        flag_ranges(&query_flags(&mut QueryOptions::default())),
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        return usage();
    };
    match command.as_str() {
        "targets" => {
            println!("alveo_u55c   AMD Alveo u55c (PCIe, 16 GiB HBM2, 32 channels)");
            println!("alveo_u280   AMD Alveo u280 (PCIe, 8 GiB HBM2 + 32 GiB DDR4)");
            println!("cloudfpga    IBM cloudFPGA (network-attached, 10 Gb/s TCP/UDP)");
            println!("cpu          no offloading");
            ExitCode::SUCCESS
        }
        "compile" => compile(&args[1..], Flavor::Ekl),
        "cfdlang" => compile(&args[1..], Flavor::Cfdlang),
        "coordinate" => coordinate(&args[1..]),
        "analyze" => analyze(&args[1..]),
        "chaos" => chaos(&args[1..]),
        "heal" => heal(&args[1..]),
        "serve" => serve(&args[1..]),
        "query" => query(&args[1..]),
        _ => usage(),
    }
}

enum Flavor {
    Ekl,
    Cfdlang,
}

fn parse_flag(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// One numeric flag of a campaign command: its name, the values it
/// accepts (`lo..=hi`, both ends included), and the field of the
/// command's options a value inside that range is stored to.
struct Flag<'a> {
    name: &'static str,
    range: String,
    /// Stores the text if it parses to a value inside the range.
    set: Box<dyn FnMut(&str) -> bool + 'a>,
}

fn row<'a, T>(name: &'static str, slot: &'a mut T, range: RangeInclusive<T>) -> Flag<'a>
where
    T: FromStr + PartialOrd + Display + 'a,
{
    Flag {
        name,
        range: format!("{}..={}", range.start(), range.end()),
        // A NaN is inside no range and an infinity outside every finite
        // one, so "not finite" needs no case of its own.
        set: Box::new(move |text| {
            let value = text.parse().ok().filter(|v| range.contains(v));
            value.map(|v| *slot = v).is_some()
        }),
    }
}

/// The numeric flags of one campaign command. The upper bounds keep the
/// command an interactive one: with every flag of a command at its
/// bound a debug build answers in under twenty seconds (`serve`; one
/// second for `chaos` and `heal`), a release build in about one. The
/// library entry points take anything their own validation accepts.
type FlagTable<'a> = Vec<Flag<'a>>;

const ANY_SEED: RangeInclusive<u64> = 0..=u64::MAX;

fn chaos_flags(o: &mut ChaosOptions) -> FlagTable<'_> {
    vec![
        row("--seed", &mut o.seed, ANY_SEED),
        row("--nodes", &mut o.nodes, 1..=64),
        row("--tasks", &mut o.tasks, 1..=2_000),
        row("--faults", &mut o.faults, 0..=256),
    ]
}

fn heal_flags(o: &mut HealOptions) -> FlagTable<'_> {
    vec![
        row("--seed", &mut o.seed, ANY_SEED),
        row("--nodes", &mut o.nodes, 1..=64),
        row("--tasks", &mut o.tasks, 1..=2_000),
        row("--gray", &mut o.gray_faults, 0..=256),
    ]
}

fn serve_flags(o: &mut ServeOptions) -> FlagTable<'_> {
    vec![
        row("--seed", &mut o.seed, ANY_SEED),
        row("--nodes", &mut o.nodes, 1..=32),
        row("--tenants", &mut o.tenants, 1..=32),
        row("--load", &mut o.load, 0.0..=8.0),
        row("--horizon-ms", &mut o.horizon_ms, 1.0..=2_000.0),
        row("--chaos", &mut o.chaos, 0..=256),
        row("--partition-plan", &mut o.partition, 0..=32),
    ]
}

fn query_flags(o: &mut QueryOptions) -> FlagTable<'_> {
    vec![row("--seed", &mut o.seed, ANY_SEED)]
}

/// Sets every flag of `table` that `args` gives. A flag given without a
/// value, or with one that does not parse or lies outside the flag's
/// range, is an error naming the flag and the range.
fn apply_flags(args: &[String], table: FlagTable<'_>) -> Result<(), String> {
    for mut flag in table {
        let Some(at) = args.iter().position(|a| a == flag.name) else {
            continue;
        };
        let given = args.get(at + 1);
        if !given.is_some_and(|text| (flag.set)(text)) {
            let got = given.map_or("no value".to_string(), |text| format!("{text:?}"));
            let (name, range) = (flag.name, flag.range);
            return Err(format!("{name} wants a number in {range}, got {got}"));
        }
    }
    Ok(())
}

/// `--flag lo..=hi` for every row, as `usage` prints it.
fn flag_ranges(table: &FlagTable<'_>) -> String {
    let rows: Vec<String> = (table.iter())
        .map(|flag| format!("{} {}", flag.name, flag.range))
        .collect();
    rows.join(", ")
}

/// [`apply_flags`], reporting a refusal the way every subcommand does.
fn flags_or_exit(args: &[String], table: FlagTable<'_>) -> Result<(), ExitCode> {
    apply_flags(args, table).map_err(|e| {
        eprintln!("error: {e}");
        ExitCode::FAILURE
    })
}

/// Writes `content` followed by a newline to `path`, or to stdout when
/// `path` is `None` or `-`. Every JSON-producing flag (`--json`,
/// `--trace`) funnels through here so file output behaves identically.
fn write_output(path: Option<&str>, content: &str) -> Result<(), String> {
    match path {
        None | Some("-") => {
            println!("{content}");
            Ok(())
        }
        Some(p) => {
            std::fs::write(p, format!("{content}\n")).map_err(|e| format!("cannot write {p}: {e}"))
        }
    }
}

/// Where `analyze` and `query` send their `--json` document: `None`
/// without the flag, `Some(None)` for stdout (bare `--json`, or
/// `--json -`), `Some(Some(path))` for a file.
fn requested_json(args: &[String]) -> Option<Option<&str>> {
    let at = args.iter().position(|a| a == "--json")?;
    Some(
        args.get(at + 1)
            .filter(|v| !v.starts_with("--"))
            .map(String::as_str),
    )
}

/// Honors `--trace <path>`: exports the global telemetry registry as
/// Chrome trace JSON. Returns `false` when the write failed.
fn write_trace_if_requested(args: &[String]) -> bool {
    let Some(path) = parse_flag(args, "--trace") else {
        return true;
    };
    let trace = everest_telemetry::global().to_chrome_trace();
    match write_output(Some(&path), &trace) {
        Ok(()) => true,
        Err(e) => {
            eprintln!("error: {e}");
            false
        }
    }
}

fn compile(args: &[String], flavor: Flavor) -> ExitCode {
    let Some(path) = args.first().filter(|a| !a.starts_with("--")) else {
        return usage();
    };
    let source = match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let target_name = parse_flag(args, "--target").unwrap_or_else(|| "alveo_u55c".into());
    let target = match Target::parse(&target_name) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let options = CompileOptions {
        target,
        explore: args.iter().any(|a| a == "--explore"),
        ..CompileOptions::default()
    };
    let basecamp = Basecamp::new();
    let result = match flavor {
        Flavor::Ekl => basecamp.compile_kernel(&source, options),
        Flavor::Cfdlang => {
            let name = parse_flag(args, "--name").unwrap_or_else(|| "kernel".into());
            basecamp.compile_cfdlang(&source, &name, options)
        }
    };
    let compiled = match result {
        Ok(k) => k,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("kernel    : {}", compiled.program.name);
    println!("target    : {target_name}");
    println!(
        "hls       : {} cycles, {:.1} us @ {:.0} MHz",
        compiled.hls.cycles, compiled.hls.time_us, compiled.hls.fmax_mhz
    );
    println!(
        "area      : {} LUT / {} FF / {} DSP / {} BRAM",
        compiled.hls.area.luts,
        compiled.hls.area.ffs,
        compiled.hls.area.dsps,
        compiled.hls.area.brams
    );
    if let Some(arch) = &compiled.architecture {
        println!(
            "system    : {} replicas x {} lanes, pack {} B, double-buffer {}",
            arch.config.replication,
            arch.config.lanes_per_replica,
            arch.config.pack_bytes,
            arch.config.double_buffer
        );
        println!(
            "per-call  : {:.2} us (batch estimate)",
            compiled.fpga_time_us.unwrap_or(f64::NAN)
        );
    }
    if args.iter().any(|a| a == "--emit-ir") {
        println!(
            "\n// loop-level IR\n{}",
            Basecamp::print_ir(&compiled.module)
        );
        if let Some(system) = &compiled.system_ir {
            println!("// system architecture\n{}", Basecamp::print_ir(system));
        }
    }
    if !write_trace_if_requested(args) {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn analyze(args: &[String]) -> ExitCode {
    let Some(path) = args.first().filter(|a| !a.starts_with("--")) else {
        return usage();
    };
    let source = match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let basecamp = Basecamp::new();
    let report = if path.ends_with(".ekl") {
        match basecamp.compile_kernel(&source, CompileOptions::default()) {
            Ok(kernel) => basecamp.analyze_kernel(&kernel),
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else if path.ends_with(".rs") {
        match basecamp.compile_coordination(&source) {
            Ok(program) => basecamp.analyze_coordination(&program),
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        match everest_ir::parse::parse_module(&source) {
            Ok(module) => {
                if let Err(e) = everest_ir::verify::verify_module(basecamp.context(), &module) {
                    eprintln!("note: module fails verification: {e}");
                }
                basecamp.analyze_module(&module)
            }
            Err(e) => {
                eprintln!("error: cannot parse {path} as IR: {e}");
                return ExitCode::FAILURE;
            }
        }
    };
    match requested_json(args) {
        Some(path) => {
            if let Err(e) = write_output(path, &report.to_json()) {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
        None => println!("{}", report.to_text()),
    }
    if !write_trace_if_requested(args) {
        return ExitCode::FAILURE;
    }
    if report.has_denials() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// `basecamp chaos`: a seeded fault-injection campaign. Unlike the
/// other subcommands, `--trace` here exports the byte-stable replay
/// trace (virtual times only) rather than the wall-clock Chrome
/// timeline, so two runs with the same options are diffable.
fn chaos(args: &[String]) -> ExitCode {
    let mut options = ChaosOptions::default();
    if let Err(code) = flags_or_exit(args, chaos_flags(&mut options)) {
        return code;
    }
    let report = everest_sdk::chaos::run_chaos(&options);
    println!("{}", report.summary());
    if let Some(path) = parse_flag(args, "--trace") {
        if let Err(e) = write_output(Some(&path), &report.trace_json()) {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

/// `basecamp heal`: a seeded gray-failure campaign with and without
/// the closed healing loop. As with `chaos`, `--trace` exports the
/// byte-stable replay trace rather than the Chrome timeline. Exits
/// non-zero when the in-process checkpoint-resume check diverges.
fn heal(args: &[String]) -> ExitCode {
    let mut options = HealOptions::default();
    if let Err(code) = flags_or_exit(args, heal_flags(&mut options)) {
        return code;
    }
    let report = everest_sdk::heal::run_heal(&options);
    println!("{}", report.summary());
    if let Some(path) = parse_flag(args, "--trace") {
        if let Err(e) = write_output(Some(&path), &report.trace_json()) {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    }
    if report.resume_matched {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `basecamp serve`: a seeded multi-tenant serving campaign. As with
/// `chaos` and `heal`, `--trace` exports the byte-stable replay trace
/// rather than the Chrome timeline. Exits non-zero when request
/// conservation is violated (a request lost or double-counted).
fn serve(args: &[String]) -> ExitCode {
    let mut options = ServeOptions::default();
    if let Err(code) = flags_or_exit(args, serve_flags(&mut options)) {
        return code;
    }
    for (flag, slot) in [
        ("--retries", &mut options.retries as &mut bool),
        ("--hedge", &mut options.hedge),
        ("--limiter", &mut options.limiter),
        ("--brownout", &mut options.brownout),
    ] {
        if args.iter().any(|a| a == flag) {
            *slot = true;
        }
    }
    let report = match everest_sdk::serve::try_run_serve(&options) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("{}", report.summary());
    if let Some(path) = parse_flag(args, "--trace") {
        if let Err(e) = write_output(Some(&path), &report.trace_json()) {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    }
    if report.outcome.conserved() {
        ExitCode::SUCCESS
    } else {
        eprintln!("error: request conservation violated");
        ExitCode::FAILURE
    }
}

fn query(args: &[String]) -> ExitCode {
    let Some(sql) = parse_flag(args, "--sql") else {
        eprintln!("error: query wants --sql <text>");
        return usage();
    };
    let mut options = QueryOptions {
        sql,
        ..QueryOptions::default()
    };
    if let Err(code) = flags_or_exit(args, query_flags(&mut options)) {
        return code;
    }
    if let Some(dataset) = parse_flag(args, "--dataset") {
        options.dataset = dataset;
    }
    if args.iter().any(|a| a == "--no-optimize") {
        options.optimize = false;
    }
    let report = match everest_sdk::query::run_query(&options) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(path) = requested_json(args) {
        if let Err(e) = write_output(path, &report.explain_json()) {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    } else if args.iter().any(|a| a == "--explain") {
        print!("{}", report.summary());
    } else {
        print!("{}", report.batch.to_text());
        print!("{}", report.summary());
    }
    if !write_trace_if_requested(args) {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn coordinate(args: &[String]) -> ExitCode {
    let Some(path) = args.first() else {
        return usage();
    };
    let source = match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let basecamp = Basecamp::new();
    match basecamp.compile_coordination(&source) {
        Ok(program) => {
            println!(
                "dataflow graph '{}': {} nodes ({} replicable)",
                program.graph.name,
                program.graph.nodes.len(),
                program.graph.replicable_nodes()
            );
            println!("\n{}", Basecamp::print_ir(&program.dfg_ir));
            if !write_trace_if_requested(args) {
                return ExitCode::FAILURE;
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_string).collect()
    }

    /// What the command's table says to `line`.
    fn parse(command: &str, line: &str) -> Result<(), String> {
        let args = args(line);
        match command {
            "chaos" => apply_flags(&args, chaos_flags(&mut ChaosOptions::default())),
            "heal" => apply_flags(&args, heal_flags(&mut HealOptions::default())),
            "serve" => apply_flags(&args, serve_flags(&mut ServeOptions::default())),
            "query" => apply_flags(&args, query_flags(&mut QueryOptions::default())),
            other => panic!("no table for {other}"),
        }
    }

    #[test]
    fn every_probe_that_used_to_panic_spin_or_pass_is_refused_by_name_and_range() {
        // (command, arguments, flag the message names, range it names)
        let probes = [
            ("serve", "--nodes 9223372036854775807", "--nodes", "1..=32"),
            ("serve", "--nodes 100000000", "--nodes", "1..=32"),
            ("serve", "--tenants 100000000", "--tenants", "1..=32"),
            ("serve", "--chaos 99999999", "--chaos", "0..=256"),
            (
                "serve",
                "--partition-plan 18446744073709551615",
                "--partition-plan",
                "0..=32",
            ),
            ("chaos", "--faults 100000000", "--faults", "0..=256"),
            ("chaos", "--nodes 100000000", "--nodes", "1..=64"),
            ("heal", "--gray 100000000", "--gray", "0..=256"),
            // A flag with no value used to run the default seed.
            (
                "serve",
                "--hedge --seed",
                "--seed",
                "0..=18446744073709551615",
            ),
            ("serve", "--seed --hedge", "--seed", "got \"--hedge\""),
            // Unparsable, below the range, and not finite.
            ("serve", "--nodes four", "--nodes", "got \"four\""),
            ("serve", "--nodes 0", "--nodes", "1..=32"),
            ("serve", "--tenants -1", "--tenants", "1..=32"),
            ("serve", "--load -0.5", "--load", "0..=8"),
            ("serve", "--load nan", "--load", "0..=8"),
            ("serve", "--load inf", "--load", "0..=8"),
            ("serve", "--horizon-ms 0", "--horizon-ms", "1..=2000"),
            ("serve", "--horizon-ms inf", "--horizon-ms", "1..=2000"),
            ("chaos", "--tasks 0", "--tasks", "1..=2000"),
            ("heal", "--nodes 65", "--nodes", "1..=64"),
            ("query", "--seed 1.5", "--seed", "got \"1.5\""),
        ];
        for (command, line, flag, detail) in probes {
            let error = parse(command, line).expect_err(line);
            assert!(
                error.starts_with(&format!("{flag} wants a number in ")),
                "{line}: {error}"
            );
            assert!(error.contains(detail), "{line}: {error}");
        }
    }

    #[test]
    fn values_inside_the_range_land_in_their_option_bounds_included() {
        let mut options = ServeOptions::default();
        let line = "--seed 18446744073709551615 --nodes 32 --tenants 1 --load 0 \
                    --horizon-ms 2000 --chaos 256 --partition-plan 0 --trace out.json";
        apply_flags(&args(line), serve_flags(&mut options)).expect("all inside");
        let expected = ServeOptions {
            seed: u64::MAX,
            nodes: 32,
            tenants: 1,
            load: 0.0,
            horizon_ms: 2_000.0,
            chaos: 256,
            partition: 0,
            ..ServeOptions::default()
        };
        assert_eq!(options, expected);
        // A flag that is absent leaves its default alone.
        let mut heal = HealOptions::default();
        apply_flags(&args("--gray 9"), heal_flags(&mut heal)).expect("inside");
        assert_eq!(
            (heal.gray_faults, heal.tasks),
            (9, HealOptions::default().tasks)
        );
    }

    #[test]
    fn usage_lists_every_flag_with_its_range() {
        let listed = flag_ranges(&chaos_flags(&mut ChaosOptions::default()));
        assert_eq!(
            listed,
            "--seed 0..=18446744073709551615, --nodes 1..=64, --tasks 1..=2000, --faults 0..=256"
        );
    }
}
