//! The metric and workload tables. `BENCHMARK.json` at the root of the
//! repository lists the same names; a unit test keeps the two equal.

use std::collections::BTreeMap;

use crate::stats;

/// A workload and the reason it exists.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadInfo {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// What one unit of `work_per_s` is on this workload.
    pub work_unit: &'static str,
    /// What one operation (`op_*_ms`, `attempted`, `failed`) is.
    pub operation: &'static str,
    /// One line on why the workload was chosen.
    pub why: &'static str,
    /// Whether `BENCHMARK.json` lists it, so that a driver measures it.
    /// The driver's time limit buys long runs of four workloads or
    /// short runs of seven, and short runs do not hold still on a shared
    /// host; the others run under `--all` and `check.sh`.
    pub tracked: bool,
}

/// The seven workloads, in the order `--all` runs them.
pub const WORKLOADS: &[WorkloadInfo] = &[
    WorkloadInfo {
        name: "serve_saturation",
        work_unit: "simulated events (offered + 2 x batches)",
        operation: "one campaign",
        why: "16 run_serve campaigns a pass at load 4.0, 2500 ms each: about 65% of arrivals are shed at the door, so trace synthesis and admission do most of the work and lifecycle/cluster do none",
        tracked: true,
    },
    WorkloadInfo {
        name: "serve_nominal",
        work_unit: "simulated events (offered + 2 x batches)",
        operation: "one campaign",
        why: "16 run_serve campaigns a pass at load 0.8, 6250 ms each: nothing is shed, every request crosses WFQ, batcher, dispatch and health, so a door optimisation must not move it and a queue one must",
        tracked: true,
    },
    WorkloadInfo {
        name: "serve_chaos",
        work_unit: "simulated events (offered + 2 x batches)",
        operation: "one campaign",
        why: "16 run_serve campaigns a pass at load 1.0, 2500 ms each, with 8 faults, a partition and every lifecycle feature on: only here do faults, lifecycle, breakers and cluster gossip carry the time",
        tracked: false,
    },
    WorkloadInfo {
        name: "compile_corpus",
        work_unit: "kernels through the full flow",
        operation: "one kernel flow",
        why: "compile, canonicalize, analyze and print 48 generated EKL kernels in five size classes plus RRTMG, CFDlang and ConDRust sources: the paper's flow, where super-linear passes show",
        tracked: true,
    },
    WorkloadInfo {
        name: "query_scan",
        work_unit: "base-table rows under every Scan",
        operation: "one query",
        why: "four analytic queries over a generated 400000-row fact table and a 5000-row dimension table: executor-bound, parse/plan/optimize/lower are noise",
        tracked: false,
    },
    WorkloadInfo {
        name: "query_small",
        work_unit: "queries",
        operation: "one query",
        why: "1000 templated queries over the 24 to 336 row use-case catalogs through plan, optimize, run, lower, verify, analyze and Olympus: front end and per-operator synthesis dominate, not the executor",
        tracked: true,
    },
    WorkloadInfo {
        name: "schedule_recovery",
        work_unit: "task placements over every scheduler run of the campaigns",
        operation: "one campaign (chaos or heal)",
        why: "32 run_chaos and run_heal campaign pairs a pass on 8 nodes and 500 tasks: the paper's resource manager and its recovery stack, which no serve workload touches",
        tracked: false,
    },
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<&'static WorkloadInfo> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: reported by every workload when tracing is off.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which it may get worse.
    pub bound: f64,
}

/// Every end-to-end metric is host time or host memory, because only
/// those hold still when the seed changes: the driver bounds the spread
/// over ten seeds. The simulated-clock results differ by tens of percent
/// from one seeded campaign to the next, so they are reported exactly,
/// per seed, as the `virtual.*` per-layer metrics.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "work_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "op_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "op_p90_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// A per-layer metric: reported by every workload when tracing is on,
/// 0 where the workload does not reach the layer.
#[derive(Debug, Clone, Copy)]
pub struct Layer {
    /// Metric name; the prefix is the crate or module measured.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
}

const fn time(name: &'static str) -> Layer {
    Layer {
        name,
        unit: "s",
        better: Better::Lower,
    }
}

const fn count(name: &'static str, better: Better) -> Layer {
    Layer {
        name,
        unit: "count",
        better,
    }
}

const fn ratio(name: &'static str, better: Better) -> Layer {
    Layer {
        name,
        unit: "ratio",
        better,
    }
}

const fn unit(name: &'static str, unit: &'static str, better: Better) -> Layer {
    Layer { name, unit, better }
}

use Better::{Higher, Lower};

/// The per-layer metrics. `*_s` is busy time summed over a pass, median
/// across passes; counts are exact for a seed.
pub const PER_LAYER: &[Layer] = &[
    // serve: replay of the run's own trace through each public type.
    time("serve.request.synthesize_s"),
    count("serve.request.arrivals", Higher),
    time("serve.admission.replay_s"),
    count("serve.admission.admitted", Higher),
    count("serve.admission.shed", Lower),
    ratio("serve.admission.shed_share", Lower),
    time("serve.wfq.replay_s"),
    count("serve.wfq.pops", Higher),
    time("serve.batcher.replay_s"),
    count("serve.batcher.batches", Lower),
    unit("serve.batcher.mean_batch_size", "requests", Higher),
    time("runtime.events.replay_s"),
    count("runtime.events.pushes", Lower),
    count("runtime.events.cancels", Lower),
    time("health.monitor.replay_s"),
    count("health.monitor.observations", Lower),
    count("health.monitor.verdicts", Lower),
    time("telemetry.replay_s"),
    count("telemetry.observations", Lower),
    time("serve.engine.run_s"),
    count("serve.engine.events", Higher),
    unit("serve.engine.ns_per_event", "ns", Lower),
    time("serve.engine.residual_s"),
    count("autotuner.retunes", Lower),
    // serve: ablation, one public config field off.
    time("faults.delta_s"),
    count("faults.injected", Lower),
    time("serve.lifecycle.delta_s"),
    count("serve.lifecycle.retries", Lower),
    count("serve.lifecycle.hedges", Lower),
    ratio("serve.lifecycle.hedge_win_share", Higher),
    count("serve.lifecycle.brownout_transitions", Lower),
    time("cluster.delta_s"),
    count("cluster.gossip_rounds", Lower),
    unit("cluster.us_per_round", "us", Lower),
    count("cluster.failovers", Lower),
    count("cluster.fenced_batches", Lower),
    count("health.breaker_opens", Lower),
    // compile
    time("ekl.parse_s"),
    time("ekl.check_s"),
    time("ekl.lower_s"),
    time("ekl.cfdlang_s"),
    unit("ekl.source_bytes", "B", Lower),
    count("ekl.statements", Higher),
    time("condrust.compile_s"),
    count("condrust.nodes", Higher),
    time("ir.verify_s"),
    time("ir.canonicalize_s"),
    time("ir.print_s"),
    time("ir.parse_s"),
    count("ir.ops_lowered", Lower),
    count("ir.ops_canonical", Lower),
    ratio("ir.canonicalize_shrink_share", Higher),
    unit("ir.canonicalize_scaling", "exponent", Lower),
    time("hls.synthesize_s"),
    unit("hls.cycles", "cycles", Lower),
    unit("hls.ns_per_op", "ns", Lower),
    unit("hls.synthesize_scaling", "exponent", Lower),
    time("olympus.explore_s"),
    count("olympus.points_evaluated", Lower),
    count("olympus.points_pruned", Higher),
    time("olympus.makespan_s"),
    time("olympus.emit_ir_s"),
    time("olympus.generate_s"),
    time("analysis.run_s"),
    count("analysis.findings", Lower),
    unit("analysis.ns_per_op", "ns", Lower),
    unit("analysis.run_scaling", "exponent", Lower),
    ratio("compile.unattributed_share", Lower),
    // query
    time("query.datasets.catalog_s"),
    time("query.token.tokenize_s"),
    time("query.parser.parse_s"),
    time("query.planner.plan_s"),
    time("query.optimizer.optimize_s"),
    ratio("query.optimizer.plans_changed_share", Higher),
    time("query.exec.execute_s"),
    time("query.exec.unoptimized_s"),
    count("query.exec.rows_scanned", Lower),
    count("query.exec.rows_out", Higher),
    unit("query.exec.ns_per_row", "ns", Lower),
    time("query.lower.lower_s"),
    count("query.lower.kernels", Lower),
    unit("query.lower.cycles", "cycles", Lower),
    ratio("query.lower.plan_speedup", Higher),
    time("query.class_s"),
    ratio("query.unattributed_share", Lower),
    // runtime scheduler
    time("runtime.task.build_s"),
    count("runtime.task.tasks", Higher),
    time("runtime.scheduler.clean_s"),
    time("runtime.scheduler.faulted_s"),
    time("runtime.scheduler.healing_s"),
    time("runtime.scheduler.recovery_delta_s"),
    count("runtime.scheduler.recovered_tasks", Lower),
    count("runtime.scheduler.retries", Lower),
    count("runtime.scheduler.quarantines", Lower),
    count("runtime.scheduler.migrations", Lower),
    ratio("runtime.scheduler.load_imbalance", Lower),
    // the benchmark's own cost
    ratio("trace.overhead_share", Lower),
    // simulated clock: exact for a seed, differ between seeds.
    unit("virtual.goodput_rps", "1/s", Higher),
    unit("virtual.p99_us", "us", Lower),
    unit("virtual.cycles", "cycles", Lower),
    unit("virtual.makespan_us", "us", Lower),
];

/// Per-layer measurements of one traced run: timed samples (reported
/// as their median) and exact values (reported as they are).
#[derive(Debug, Default)]
pub struct Layers {
    samples: BTreeMap<&'static str, Vec<f64>>,
    exact: BTreeMap<&'static str, f64>,
}

impl Layers {
    /// Adds one pass's sample of a timed layer metric.
    pub fn sample(&mut self, name: &'static str, value: f64) {
        debug_assert!(is_layer(name), "unknown layer metric {name}");
        self.samples.entry(name).or_default().push(value);
    }

    /// Sets an exact (count or derived) layer metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(is_layer(name), "unknown layer metric {name}");
        self.exact.insert(name, value);
    }

    /// The reported value: exact if set, else the median of the
    /// samples, else 0 (the workload does not reach the layer).
    pub fn value(&self, name: &str) -> f64 {
        if let Some(v) = self.exact.get(name) {
            return *v;
        }
        self.samples.get(name).map_or(0.0, |s| stats::median(s))
    }

    /// Inter-quartile range of a timed metric's samples (0 for exact
    /// values).
    pub fn iqr(&self, name: &str) -> f64 {
        self.samples.get(name).map_or(0.0, |s| stats::iqr(s))
    }
}

fn is_layer(name: &str) -> bool {
    PER_LAYER.iter().any(|l| l.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn names_are_well_formed_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name));
        for name in names {
            assert!(well_formed(name), "{name}");
            assert!(seen.insert(name), "{name} used twice");
        }
        assert!(PER_LAYER.len() <= 128);
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
        assert!(WORKLOADS.iter().all(|w| w.why.len() <= 200), "why fits");
    }

    #[test]
    fn layers_report_median_exact_or_zero() {
        let mut layers = Layers::default();
        layers.sample("ir.verify_s", 3.0);
        layers.sample("ir.verify_s", 1.0);
        layers.sample("ir.verify_s", 2.0);
        layers.set("ir.ops_lowered", 17.0);
        assert_eq!(layers.value("ir.verify_s"), 2.0);
        assert_eq!(layers.value("ir.ops_lowered"), 17.0);
        assert_eq!(layers.value("hls.cycles"), 0.0);
        assert_eq!(layers.iqr("ir.verify_s"), 2.0);
    }

    /// `BENCHMARK.json` and these tables say the same thing.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let doc: serde::Value = serde_json::from_str(&text).expect("valid JSON");
        let list = |key: &str| -> Vec<serde::Value> {
            doc.get(key)
                .and_then(serde::Value::as_array)
                .unwrap_or_else(|| panic!("{key} is an array"))
                .to_vec()
        };
        let text_of = |v: &serde::Value, key: &str| -> String {
            match v.get(key) {
                Some(serde::Value::Str(s)) => s.clone(),
                other => panic!("{key}: expected a string, found {other:?}"),
            }
        };

        let workloads = list("workloads");
        let tracked: Vec<&WorkloadInfo> = WORKLOADS.iter().filter(|w| w.tracked).collect();
        assert_eq!(workloads.len(), tracked.len());
        for (json, ours) in workloads.iter().zip(tracked) {
            assert_eq!(text_of(json, "name"), ours.name);
            assert_eq!(text_of(json, "why"), ours.why);
        }

        let end_to_end = list("end_to_end");
        assert_eq!(end_to_end.len(), END_TO_END.len());
        for (json, ours) in end_to_end.iter().zip(END_TO_END) {
            assert_eq!(text_of(json, "name"), ours.name);
            assert_eq!(text_of(json, "unit"), ours.unit);
            assert_eq!(text_of(json, "better"), ours.better.word());
            assert_eq!(json.get("bound"), Some(&serde::Value::Num(ours.bound)));
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));

        let per_layer = list("per_layer");
        assert_eq!(per_layer.len(), PER_LAYER.len());
        for (json, ours) in per_layer.iter().zip(PER_LAYER) {
            assert_eq!(text_of(json, "name"), ours.name);
            assert_eq!(text_of(json, "unit"), ours.unit);
            assert_eq!(text_of(json, "better"), ours.better.word());
        }
        assert_eq!(list("paths"), vec![serde::Value::Str("benchmark".into())]);
    }
}
