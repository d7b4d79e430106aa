//! Seeded self-healing campaigns: the SDK-level driver for the
//! closed-loop gray-failure machinery (`everest-health` + the runtime
//! scheduler's `run_self_healing`).
//!
//! A campaign synthesizes a reproducible workload from a seed, runs it
//! once clean, once under a gray fault plan with the blind scheduler
//! (the faults raise no errors, so nothing recovers — the makespan
//! just silently inflates), and once with the closed loop engaged:
//! the health monitor convicts the degraded nodes, circuit breakers
//! isolate them, work migrates away, and periodic checkpoints allow
//! byte-identical restarts. The report also resumes the healed run
//! from its last checkpoint in-process and verifies the resumed
//! result is identical — checkpoint/restart is exercised on every
//! `basecamp heal` invocation, not just in tests.
//!
//! Everything derives from the seed, so the exported trace is
//! byte-identical across replays (`basecamp heal --seed N --trace` is
//! diffable; CI relies on this).

use everest_runtime::cluster::Cluster;
use everest_runtime::scheduler::{
    HealPolicy, HealedOutcome, Policy, RecoveryConfig, Scheduler, SimulationResult,
};
use everest_runtime::{BreakerConfig, FaultPlan, HealthConfig};
use serde::{Serialize, Value};
use serde_json::{fixed, int};

use crate::chaos::{plan_rows, schedule_rows, workload};

/// Campaign shape. Everything else derives from `seed`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealOptions {
    /// Master seed for workload, gray plan and monitor forks.
    pub seed: u64,
    /// Cluster size; roughly half the nodes carry an FPGA.
    pub nodes: usize,
    /// Workload size (tasks in the synthetic graph).
    pub tasks: usize,
    /// Gray faults drawn into the plan (the first is always the
    /// campaign's anchored long-lived straggler).
    pub gray_faults: usize,
}

impl Default for HealOptions {
    fn default() -> HealOptions {
        HealOptions {
            seed: 42,
            nodes: 4,
            tasks: 28,
            gray_faults: 4,
        }
    }
}

/// Outcome of one self-healing campaign.
#[derive(Debug, Clone)]
pub struct HealReport {
    /// The options the campaign ran with.
    pub options: HealOptions,
    /// The gray fault plan both faulty runs were exposed to.
    pub plan: FaultPlan,
    /// The policy the healed run used (tuned from the clean horizon).
    pub policy: HealPolicy,
    /// Fault-free baseline makespan (µs).
    pub clean_makespan_us: f64,
    /// The gray run with healing off: no errors, no recovery, just a
    /// silently inflated makespan.
    pub unhealed: SimulationResult,
    /// The gray run with the closed loop engaged, plus its campaign
    /// checkpoints.
    pub healed: HealedOutcome,
    /// Whether resuming from the last checkpoint reproduced the
    /// uninterrupted healed run exactly (verified in-process).
    pub resume_matched: bool,
}

/// Runs one seeded self-healing campaign: clean baseline, gray plan
/// with healing off, the same plan with healing on, and an in-process
/// checkpoint-resume verification. Deterministic for a given set of
/// options.
pub fn run_heal(options: &HealOptions) -> HealReport {
    let span = everest_telemetry::span("basecamp.heal");
    span.arg("seed", options.seed)
        .arg("nodes", options.nodes)
        .arg("tasks", options.tasks)
        .arg("gray_faults", options.gray_faults);
    let nodes = options.nodes.max(1);
    let fpga_nodes = nodes.div_ceil(2);
    let cluster = Cluster::everest(nodes - fpga_nodes, fpga_nodes, 4);
    let scheduler = Scheduler::new(cluster, Policy::Heft);
    let graph = workload(options.seed, options.tasks.max(1));

    let clean = scheduler.run(&graph);
    // Gray windows must outlive the inflated campaign, so the horizon
    // is generous. The campaign anchors a long-lived straggler (the
    // gray-failure motif: one node silently several times slower than
    // its model, reporting no error at all) and draws background gray
    // noise — lossy links, creeping VFs — from the seed on top.
    let horizon = clean.makespan_us * 3.0;
    let plan = FaultPlan::random_gray_campaign(options.seed, nodes, horizon, options.gray_faults);

    // Convict fast (the straggler is blatant, one sample suffices) and
    // keep convicted nodes out for the whole campaign: a probe is a
    // real task that pays the full gray cost, so on a short campaign
    // re-probing a permanent straggler only stretches the makespan.
    let policy = HealPolicy {
        health: HealthConfig {
            min_samples: 1,
            creep_per_ms: 0.2,
            ..HealthConfig::default()
        },
        breaker: BreakerConfig {
            open_us: horizon,
            ..BreakerConfig::default()
        },
        checkpoint_every_tasks: 6,
    };
    let config = RecoveryConfig::default();

    let unhealed = scheduler.run_with_plan(&graph, &plan, &config);
    let healed = scheduler.run_self_healing(&graph, &plan, &config, &policy);
    let resume_matched = healed.checkpoints.last().is_some_and(|last| {
        scheduler.resume_self_healing(&graph, &plan, &config, &policy, last) == healed.result
    });
    span.arg("verdicts", healed.result.heal.verdicts.len())
        .arg("migrations", healed.result.heal.migrations)
        .arg("resume_matched", resume_matched)
        .record_sim_us(healed.result.makespan_us);
    HealReport {
        options: *options,
        plan,
        policy,
        clean_makespan_us: clean.makespan_us,
        unhealed,
        healed,
        resume_matched,
    }
}

impl HealReport {
    /// How much of the gray damage the closed loop healed, in percent
    /// of the blind run's inflation over the clean baseline (100 =
    /// fully healed, 0 = no better than blind).
    pub fn healed_fraction_pct(&self) -> f64 {
        let damage = self.unhealed.makespan_us - self.clean_makespan_us;
        if damage <= 0.0 {
            return 0.0;
        }
        (self.unhealed.makespan_us - self.healed.result.makespan_us) / damage * 100.0
    }

    /// Human-readable summary for the CLI.
    pub fn summary(&self) -> String {
        let h = &self.healed.result.heal;
        let mut out = String::new();
        out.push_str(&format!(
            "campaign          : seed {}, {} nodes, {} tasks, {} gray faults (anchored straggler first)\n",
            self.options.seed, self.options.nodes, self.options.tasks, self.options.gray_faults
        ));
        for fault in self.plan.faults() {
            out.push_str(&format!("  plan            : {}\n", fault.describe()));
        }
        out.push_str(&format!(
            "clean makespan    : {:.1} us\n",
            self.clean_makespan_us
        ));
        out.push_str(&format!(
            "blind makespan    : {:.1} us (healing off; zero faults reported)\n",
            self.unhealed.makespan_us
        ));
        out.push_str(&format!(
            "healed makespan   : {:.1} us ({:.1}% of the gray damage healed)\n",
            self.healed.result.makespan_us,
            self.healed_fraction_pct()
        ));
        for v in &h.verdicts {
            out.push_str(&format!("  verdict         : {}\n", v.describe()));
        }
        out.push_str(&format!("breaker opens     : {}\n", h.breaker_opens));
        out.push_str(&format!(
            "probes            : {} ({} failed)\n",
            h.probes, h.probe_failures
        ));
        out.push_str(&format!("migrations        : {}\n", h.migrations));
        out.push_str(&format!(
            "checkpoints       : {} (every {} tasks)\n",
            h.checkpoints_taken, self.policy.checkpoint_every_tasks
        ));
        out.push_str(&format!(
            "resume check      : {}",
            if self.resume_matched {
                "last checkpoint resumed byte-identically"
            } else {
                "FAILED — resumed run diverged"
            }
        ));
        out
    }

    /// Byte-stable replay trace: only virtual times and seed-derived
    /// state, no wall clock, no hash-map iteration order. Two runs with
    /// the same options produce identical bytes.
    pub fn trace_json(&self) -> String {
        let healed = &self.healed.result;
        let h = &healed.heal;
        let verdicts = h.verdicts.iter().map(|v| Value::Str(v.describe()));
        let heal = Value::Object(vec![
            ("breaker_opens".into(), h.breaker_opens.to_value()),
            ("probes".into(), h.probes.to_value()),
            ("probe_failures".into(), h.probe_failures.to_value()),
            ("migrations".into(), h.migrations.to_value()),
            ("checkpoints_taken".into(), h.checkpoints_taken.to_value()),
        ]);
        serde_json::to_string_trace(&Value::Object(vec![
            ("seed".into(), int(self.options.seed)),
            ("nodes".into(), self.options.nodes.to_value()),
            ("tasks".into(), self.options.tasks.to_value()),
            ("plan".into(), plan_rows(&self.plan)),
            ("clean_makespan_us".into(), fixed(self.clean_makespan_us)),
            ("blind_makespan_us".into(), fixed(self.unhealed.makespan_us)),
            ("healed_makespan_us".into(), fixed(healed.makespan_us)),
            ("verdicts".into(), Value::Array(verdicts.collect())),
            ("schedule".into(), schedule_rows(&healed.entries)),
            ("heal".into(), heal),
            (
                "checkpoints".into(),
                self.healed.checkpoints.len().to_value(),
            ),
            ("resume_matched".into(), Value::Bool(self.resume_matched)),
        ]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use everest_runtime::VerdictKind;

    #[test]
    fn same_seed_yields_byte_identical_traces() {
        let opts = HealOptions::default();
        let a = run_heal(&opts);
        let b = run_heal(&opts);
        assert_eq!(a.trace_json(), b.trace_json());
        assert_eq!(a.summary(), b.summary());
    }

    #[test]
    fn healing_beats_the_blind_run_and_resumes_exactly() {
        // Seeds whose gray damage actually lands on the critical path.
        // (Some campaigns miss it entirely — blind == clean — and then
        // there is nothing for the loop to win back.)
        for seed in [2, 3, 42] {
            let report = run_heal(&HealOptions {
                seed,
                ..HealOptions::default()
            });
            assert_eq!(report.healed.result.entries.len(), report.options.tasks);
            assert!(
                report.healed.result.makespan_us < report.unhealed.makespan_us,
                "seed {seed}: healed {} must beat blind {}",
                report.healed.result.makespan_us,
                report.unhealed.makespan_us
            );
            // Gray faults raise no errors in either faulty run.
            assert_eq!(report.unhealed.recovery.faults_injected, 0);
            assert_eq!(report.healed.result.recovery.faults_injected, 0);
            // The loop closed: conviction, isolation, migration. The
            // campaign's first fault is its anchored straggler.
            let anchor = report.plan.faults()[0].node;
            let h = &report.healed.result.heal;
            assert!(
                h.verdicts
                    .iter()
                    .any(|v| v.node == anchor && v.kind == VerdictKind::Straggler),
                "seed {seed}: the anchored straggler on node {anchor} must be convicted"
            );
            assert!(h.breaker_opens >= 1, "seed {seed}");
            assert!(h.migrations >= 1, "seed {seed}");
            assert!(!report.healed.checkpoints.is_empty(), "seed {seed}");
            assert!(report.resume_matched, "seed {seed}: resume must match");
        }
    }

    #[test]
    fn different_seeds_yield_different_campaigns() {
        let a = run_heal(&HealOptions::default());
        let b = run_heal(&HealOptions {
            seed: 43,
            ..HealOptions::default()
        });
        assert_ne!(a.trace_json(), b.trace_json());
    }

    #[test]
    fn trace_is_valid_json() {
        let report = run_heal(&HealOptions::default());
        let parsed: serde::Value =
            serde_json::from_str(&report.trace_json()).expect("trace must be well-formed JSON");
        assert!(matches!(parsed.get("seed"), Some(serde::Value::Num(n)) if *n == 42.0));
        assert!(parsed.get_or_null("schedule").as_array().is_some());
        assert!(parsed.get_or_null("verdicts").as_array().is_some());
        assert!(matches!(
            parsed.get("resume_matched"),
            Some(serde::Value::Bool(true))
        ));
    }
}
