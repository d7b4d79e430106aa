//! The measuring loop shared by every workload: set up, check the
//! outputs, then run passes for the requested time.

use std::time::Instant;

use crate::gen::Digest;
use crate::metrics::{Layers, END_TO_END, PER_LAYER};
use crate::stats;
use crate::trace::Tracer;

/// What one pass did. A pass's duration is the sum of its operation
/// latencies: checks between operations are not timed. A set-up records
/// its steps the same way.
#[derive(Debug, Default)]
pub struct Pass {
    /// Units of work done (see `WorkloadInfo::work_unit`).
    pub work: u64,
    /// Latency of each operation, in milliseconds.
    pub op_ms: Vec<f64>,
    /// Operations that returned an error or whose output differed from
    /// the warm-up pass.
    pub failed: u64,
}

impl Pass {
    /// Times one operation.
    pub fn time<T>(&mut self, op: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = op();
        self.op_ms.push(start.elapsed().as_secs_f64() * 1e3);
        out
    }

    /// Host seconds the operations took.
    pub fn seconds(&self) -> f64 {
        self.op_ms.iter().sum::<f64>() / 1e3
    }
}

/// Result of the output oracles, run once after set-up, untimed.
#[derive(Debug, Default)]
pub struct Oracle {
    /// Checks made.
    pub attempted: u64,
    /// What failed, one line each.
    pub failures: Vec<String>,
}

impl Oracle {
    /// Records one check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }
}

/// One of the seven workloads.
pub trait Workload: Sized {
    /// Generates the inputs from `seed`, builds everything the first
    /// operation needs and runs the warm-up pass. Timed as `setup_s`;
    /// each piece of it that takes time is a step timed through `steps`.
    fn setup(seed: u64, quick: bool, steps: &mut Pass) -> Self;

    /// Digest of the generated inputs.
    fn digest(&self) -> Digest;

    /// Checks the outputs against references that do not come from the
    /// code under test.
    fn verify(&mut self) -> Oracle;

    /// One untraced pass: the same operations on the same inputs every
    /// time, in the same order.
    fn pass(&mut self) -> Pass;

    /// One traced pass: the leading operations of `pass` (all of them,
    /// or the first where the decomposition costs many times the
    /// operation) through each layer's public functions, with a span
    /// around each call, plus the workload's replays and ablations.
    /// `plain` is the untraced pass the harness ran just before, for the
    /// closure figures.
    fn traced_pass(
        &mut self,
        round: usize,
        plain: &Pass,
        tracer: &mut Tracer,
        layers: &mut Layers,
    ) -> Pass;

    /// Exact counts and derived per-layer metrics, after the last pass.
    fn finish(&mut self, tracer: &Tracer, layers: &mut Layers);
}

/// A reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name from the metric tables.
    pub name: &'static str,
    /// Unit from the metric tables.
    pub unit: &'static str,
    /// Median (timed) or exact value.
    pub value: f64,
    /// Inter-quartile range of the samples behind a median.
    pub iqr: f64,
}

/// Everything one run reports.
#[derive(Debug)]
pub struct Report {
    /// Input digest.
    pub digest: Digest,
    /// Timed passes (untraced run) or rounds (traced run).
    pub passes: usize,
    /// Operations and oracle checks attempted.
    pub attempted: u64,
    /// Operations and oracle checks failed.
    pub failed: u64,
    /// What failed.
    pub failures: Vec<String>,
    /// The metrics: end-to-end when tracing is off, per-layer when on.
    pub metrics: Vec<Metric>,
    /// The per-pass samples behind each end-to-end metric.
    pub samples: Vec<(&'static str, Vec<f64>)>,
    /// The spans of a traced run.
    pub tracer: Option<Tracer>,
}

/// Set-up is repeated between passes all through a run, for as long as
/// the set-ups have taken less than this share of what the passes have:
/// its steps meet a quiet moment as an operation does, by being timed
/// often and at different times, not five times in the first seconds.
const SETUP_SHARE: f64 = 0.5;

/// Restarts the kernel's peak-resident-set watermark at the current
/// resident set, so that the next reading is the peak since now.
/// Returns false where the kernel does not offer it.
fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident set of this process since the last reset, from `VmHWM`.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The SDK's process-global telemetry registry keeps every span and
/// sampled latency it is given. A basecamp process compiles, serves or
/// queries once; a benchmark process does so for seconds on end, so
/// each step starts from an empty registry, outside the timed region.
fn clear_telemetry() {
    everest_telemetry::global().reset();
}

/// Keeps, time by time, the smaller of `best` and `times`; the first
/// call fills `best`. False, with `best` as it was, when `times` is not
/// as long as `best`: it timed other steps.
fn keep_fastest(best: &mut Vec<f64>, times: &[f64]) -> bool {
    if best.is_empty() {
        best.extend_from_slice(times);
    } else if best.len() != times.len() {
        return false;
    }
    for (best, time) in best.iter_mut().zip(times) {
        *best = best.min(*time);
    }
    true
}

/// The set-ups of one run. What a set-up costs is taken as an
/// operation's cost is (see `run`): every step keeps its fastest time
/// over the set-ups, and so does the remainder that no step covers, so
/// work moved into set-up shows wherever it is put.
struct SetUps {
    best: Vec<f64>,
    best_rest: f64,
    /// How long each set-up took as a whole.
    seconds: Vec<f64>,
}

impl SetUps {
    fn new() -> SetUps {
        SetUps {
            best: Vec::new(),
            best_rest: f64::INFINITY,
            seconds: Vec::new(),
        }
    }

    /// Sets up, in place of `previous`.
    fn again<W: Workload>(&mut self, seed: u64, quick: bool, previous: Option<W>) -> W {
        // Drop the previous instance first: two live copies would
        // double the peak memory the run reports.
        drop(previous);
        clear_telemetry();
        let mut steps = Pass::default();
        let start = Instant::now();
        let workload = W::setup(seed, quick, &mut steps);
        let whole = start.elapsed().as_secs_f64();
        self.seconds.push(whole);
        self.best_rest = self.best_rest.min(whole - steps.seconds());
        keep_fastest(&mut self.best, &steps.op_ms);
        workload
    }

    fn cost(&self) -> f64 {
        self.best.iter().sum::<f64>() / 1e3 + self.best_rest
    }

    fn spent(&self) -> f64 {
        self.seconds.iter().sum()
    }
}

/// The untraced run: end-to-end metrics.
pub fn run<W: Workload>(seed: u64, seconds: f64, quick: bool) -> Report {
    let mut setups = SetUps::new();
    let mut workload: W = setups.again(seed, quick, None);
    clear_telemetry();
    let oracle = workload.verify();
    let mut attempted = oracle.attempted;
    let mut failed = oracle.failures.len() as u64;

    // Every pass repeats the same operations, so each operation is
    // timed once per pass and keeps its fastest time.
    let mut best: Vec<f64> = Vec::new();
    let mut work = 0;
    let mut rates = Vec::new();
    let mut pass_rss = Vec::new();
    let mut pass_spent = 0.0;
    let started = Instant::now();
    let mut passes = 0;
    while passes < 3 || started.elapsed().as_secs_f64() < seconds {
        // Peak memory is taken pass by pass and reported as the median.
        clear_telemetry();
        let per_pass = reset_peak_rss();
        let pass = workload.pass();
        if per_pass {
            pass_rss.push(peak_rss_mb());
        }
        attempted += pass.op_ms.len() as u64;
        failed += pass.failed;
        if passes == 0 {
            work = pass.work;
        }
        // A pass that did other work than the first is a failure of the
        // workload, not a sample.
        if pass.work != work || !keep_fastest(&mut best, &pass.op_ms) {
            failed += 1;
        }
        rates.push(pass.work as f64 / pass.seconds());
        pass_spent += pass.seconds();
        passes += 1;
        // The smoke mode reports no timing worth having.
        if !quick && setups.spent() < SETUP_SHARE * pass_spent {
            workload = setups.again(seed, quick, Some(workload));
        }
    }
    if pass_rss.is_empty() {
        pass_rss.push(peak_rss_mb());
    }

    // Other tenants of the host only ever slow an operation down, in
    // bursts that last from milliseconds to a minute, so the median of
    // the passes drifts with the bursts. What the program costs is each
    // operation's fastest time: operations are short, so over the run
    // every one of them meets a quiet moment.
    let best_s = best.iter().sum::<f64>() / 1e3;
    let samples = vec![
        ("setup_s", setups.seconds.clone()),
        ("peak_rss_mb", pass_rss),
        ("work_per_s", rates),
        ("op_p50_ms", best.clone()),
        ("op_p90_ms", best),
    ];
    let metrics = END_TO_END
        .iter()
        .zip(&samples)
        .map(|(m, (name, values))| {
            assert_eq!(m.name, *name, "samples follow the metric table");
            let value = match m.name {
                "setup_s" => setups.cost(),
                "work_per_s" => work as f64 / best_s,
                "op_p50_ms" => stats::percentile(values, 0.5),
                "op_p90_ms" => stats::percentile(values, 0.9),
                _ => stats::median(values),
            };
            Metric {
                name: m.name,
                unit: m.unit,
                value,
                iqr: stats::iqr(values),
            }
        })
        .collect();
    Report {
        digest: workload.digest(),
        passes,
        attempted,
        failed,
        failures: oracle.failures,
        metrics,
        samples,
        tracer: None,
    }
}

/// The traced run: per-layer metrics. Each round runs the pass twice,
/// once plain and once with spans, so the tracing overhead is measured
/// on the same inputs.
pub fn run_traced<W: Workload>(seed: u64, seconds: f64, quick: bool) -> Report {
    let mut workload: W = SetUps::new().again(seed, quick, None);
    clear_telemetry();
    let oracle = workload.verify();
    let mut attempted = oracle.attempted;
    let mut failed = oracle.failures.len() as u64;

    let mut tracer = Tracer::new();
    let mut layers = Layers::default();
    let mut plain_s = Vec::new();
    let mut traced_s = Vec::new();
    let started = Instant::now();
    let mut round = 0;
    while round < 2 || started.elapsed().as_secs_f64() < seconds {
        clear_telemetry();
        let plain = workload.pass();
        clear_telemetry();
        let traced = workload.traced_pass(round, &plain, &mut tracer, &mut layers);
        attempted += (plain.op_ms.len() + traced.op_ms.len()) as u64;
        failed += plain.failed + traced.failed;
        // The overhead compares the traced operations with the same
        // operations of the plain pass.
        let same_ops = plain.op_ms.iter().take(traced.op_ms.len());
        plain_s.push(same_ops.sum::<f64>() / 1e3);
        traced_s.push(traced.seconds());
        round += 1;
    }
    clear_telemetry();
    workload.finish(&tracer, &mut layers);
    let plain = stats::median(&plain_s);
    if plain > 0.0 {
        layers.set(
            "trace.overhead_share",
            stats::median(&traced_s) / plain - 1.0,
        );
    }

    let metrics = PER_LAYER
        .iter()
        .map(|m| Metric {
            name: m.name,
            unit: m.unit,
            value: layers.value(m.name),
            iqr: layers.iqr(m.name),
        })
        .collect();
    Report {
        digest: workload.digest(),
        passes: round,
        attempted,
        failed,
        failures: oracle.failures,
        metrics,
        samples: Vec::new(),
        tracer: Some(tracer),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::ScheduleRecovery;

    #[test]
    fn each_step_keeps_its_fastest_time() {
        let mut best = Vec::new();
        assert!(keep_fastest(&mut best, &[3.0, 1.0, 2.0]));
        assert!(keep_fastest(&mut best, &[2.0, 4.0, 2.0]));
        assert_eq!(best, [2.0, 1.0, 2.0]);
        assert!(!keep_fastest(&mut best, &[0.5, 0.5]), "other steps");
        assert_eq!(best, [2.0, 1.0, 2.0]);
    }

    #[test]
    fn set_up_costs_no_more_than_its_fastest_repeat() {
        let mut setups = SetUps::new();
        let mut workload: Option<ScheduleRecovery> = None;
        for _ in 0..3 {
            workload = Some(setups.again(42, true, workload));
        }
        let fastest = setups.seconds.iter().copied().fold(f64::INFINITY, f64::min);
        assert_eq!(setups.seconds.len(), 3);
        assert!(setups.cost() > 0.0 && setups.cost() <= fastest);
        assert!(setups.spent() >= 3.0 * fastest);
    }

    #[test]
    fn untraced_run_emits_every_end_to_end_metric() {
        let report = run::<ScheduleRecovery>(42, 0.01, true);
        let names: Vec<&str> = report.metrics.iter().map(|m| m.name).collect();
        let table: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        assert_eq!(names, table);
        assert_eq!(report.failed, 0, "{:?}", report.failures);
        assert!(report.passes >= 3 && report.attempted > 0);
        // End-to-end metrics are never 0.
        assert!(
            report.metrics.iter().all(|m| m.value > 0.0),
            "{:?}",
            report.metrics
        );
    }

    #[test]
    fn traced_run_emits_every_per_layer_metric() {
        let report = run_traced::<ScheduleRecovery>(42, 0.01, true);
        let names: Vec<&str> = report.metrics.iter().map(|m| m.name).collect();
        let table: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
        assert_eq!(names, table);
        assert_eq!(report.failed, 0, "{:?}", report.failures);
        let value = |name: &str| {
            report
                .metrics
                .iter()
                .find(|m| m.name == name)
                .map(|m| m.value)
        };
        assert!(value("runtime.scheduler.faulted_s") > Some(0.0));
        assert_eq!(value("serve.engine.run_s"), Some(0.0), "layer not reached");
        assert!(report.tracer.is_some_and(|t| !t.spans().is_empty()));
    }
}
