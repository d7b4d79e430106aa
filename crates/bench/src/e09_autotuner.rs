//! E9 [§VI-C] — Dynamic autotuning: the mARGOt-style tuner tracks the
//! environment through three phases (normal, FPGA contention, recovery)
//! and adapts the selected variant; a static choice pays through the
//! contention phase.

use crate::{rule, Report};
use everest_autotuner::{config, Autotuner, Configuration, Features, Objective, OperatingPoint};

const FPGA_US: f64 = 600.0;
const CPU_US: f64 = 9_000.0;
const CONTENTION: f64 = 30.0;

/// Simulated environment: the true execution time of a variant during a
/// phase.
fn true_time(variant: &str, phase: usize) -> f64 {
    match (variant, phase) {
        ("fpga", 1) => FPGA_US * CONTENTION, // contended cluster
        ("fpga", _) => FPGA_US,
        _ => CPU_US,
    }
}

fn make_tuner() -> Autotuner {
    let mut tuner = Autotuner::new();
    tuner.add_point(OperatingPoint::new(config([("variant", "fpga")])).expect("time_us", FPGA_US));
    tuner.add_point(OperatingPoint::new(config([("variant", "cpu")])).expect("time_us", CPU_US));
    tuner.set_objective(Objective::minimize("time_us"));
    tuner
}

fn run_adaptive() -> (f64, Vec<(usize, String)>) {
    let mut tuner = make_tuner();
    let mut total = 0.0;
    let mut switches = Vec::new();
    let mut last = String::new();
    for step in 0..60 {
        let phase = step / 20;
        let cfg: Configuration = tuner.best(&Features::new()).expect("feasible").clone();
        let variant = cfg["variant"].to_string();
        let t = true_time(&variant, phase);
        total += t;
        tuner.observe(&cfg, "time_us", t);
        // Keep the unchosen variant's knowledge fresh with a periodic probe
        // (mARGOt-style exploration).
        if step % 5 == 4 {
            let other = if variant == "fpga" { "cpu" } else { "fpga" };
            let other_cfg = config([("variant", other)]);
            tuner.observe(&other_cfg, "time_us", true_time(other, phase));
        }
        if variant != last {
            switches.push((step, variant.clone()));
            last = variant;
        }
    }
    (total, switches)
}

fn run_static(variant: &str) -> f64 {
    (0..60).map(|step| true_time(variant, step / 20)).sum()
}

pub(crate) fn series(r: &mut Report) {
    r.banner("E9", "VI-C", "dynamic autotuning under FPGA contention");
    r.pin("60 kernel invocations; phase 2 (steps 20-39) contends the FPGA 30x\n");
    let (adaptive_total, switches) = run_adaptive();
    let static_fpga = run_static("fpga");
    let static_cpu = run_static("cpu");
    r.pin(format!("{:<26} {:>14}", "policy", "total time"));
    r.pin(rule(42));
    r.pin(format!(
        "{:<26} {:>11.1} ms",
        "static fpga",
        static_fpga / 1000.0
    ));
    r.pin(format!(
        "{:<26} {:>11.1} ms",
        "static cpu",
        static_cpu / 1000.0
    ));
    r.pin(format!(
        "{:<26} {:>11.1} ms",
        "mARGOt adaptive",
        adaptive_total / 1000.0
    ));
    r.pin("\nvariant switches:");
    for (step, variant) in &switches {
        r.pin(format!("  step {step:>2}: -> {variant}"));
    }
    assert!(
        adaptive_total < static_fpga && adaptive_total < static_cpu * 3.0,
        "adaptation must beat static fpga under contention"
    );
}

pub(crate) fn timings(r: &mut Report) {
    r.time("e09_autotuner/adaptive_60_invocations", run_adaptive);
    let tuner = make_tuner();
    r.time("e09_autotuner/single_decision", || {
        tuner.best(&Features::new()).expect("feasible")
    });
}
