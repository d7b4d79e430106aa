//! E15 [§VI] — Closed-loop self-healing: the health monitor, circuit
//! breakers and checkpoint/restart under gray-failure campaigns.
//! Sweeps the gray intensity to show the blind-vs-healed makespan gap,
//! proves healing wins on campaigns whose damage hits the critical
//! path, and measures what restarting from the last checkpoint saves
//! over re-executing the whole campaign.

use std::time::Instant;

use crate::{rule, Report};
use everest_runtime::cluster::Cluster;
use everest_runtime::scheduler::{HealPolicy, Policy, RecoveryConfig, Scheduler};
use everest_runtime::task::{TaskGraph, TaskSpec};
use everest_runtime::FaultPlan;
use everest_sdk::heal::{run_heal, HealOptions};

/// A wide fork-join: one seed task, `width` independent bodies, one
/// sink. The shape every straggler hurts and every migration helps.
fn fork_join(width: usize, body_us: f64) -> TaskGraph {
    let mut graph = TaskGraph::new();
    let seed = graph
        .add(TaskSpec::new("seed", 100.0))
        .expect("no dependencies");
    let bodies: Vec<_> = (0..width)
        .map(|i| {
            graph
                .add(TaskSpec::new(&format!("body{i}"), body_us).after([seed]))
                .expect("depends on an earlier task")
        })
        .collect();
    graph
        .add(TaskSpec::new("sink", 100.0).after(bodies))
        .expect("depends on earlier tasks");
    graph
}

/// The checkpoint/restart campaign: a 98-task fork-join under four gray
/// faults, on the scheduler that runs it.
fn restart_campaign() -> (TaskGraph, Scheduler, FaultPlan) {
    (
        fork_join(96, 1_000.0),
        Scheduler::new(Cluster::everest(2, 2, 4), Policy::Heft),
        FaultPlan::random_gray_campaign(42, 4, 90_000.0, 4),
    )
}

pub(crate) fn series(r: &mut Report) {
    r.banner("E15", "VI", "closed-loop self-healing under gray failures");

    // Makespan with healing off vs on as the campaign intensifies.
    // Sparse strong degradations are where the loop wins; under dense
    // gray noise the whole-horizon breakers over-isolate (most of the
    // cluster convicted at once) and healing can lose to the blind
    // scheduler's own load balancing — the operating envelope
    // docs/RESILIENCE.md describes.
    r.pin("gray-intensity sweep (seed 42, 4 nodes, 28 tasks):\n");
    r.pin(format!(
        "{:>6} {:>11} {:>11} {:>8} {:>9} {:>11} {:>12}",
        "gray", "blind us", "healed us", "healed%", "verdicts", "migrations", "checkpoints"
    ));
    r.pin(rule(74));
    for gray_faults in [1usize, 2, 4, 6, 8] {
        let report = run_heal(&HealOptions {
            gray_faults,
            ..HealOptions::default()
        });
        let h = &report.healed.result.heal;
        r.pin(format!(
            "{:>6} {:>11.1} {:>11.1} {:>7.1}% {:>9} {:>11} {:>12}",
            gray_faults,
            report.unhealed.makespan_us,
            report.healed.result.makespan_us,
            report.healed_fraction_pct(),
            h.verdicts.len(),
            h.migrations,
            h.checkpoints_taken
        ));
        assert_eq!(
            report.healed.result.entries.len(),
            28,
            "every task must still complete"
        );
        assert!(report.resume_matched, "checkpoint resume diverged");
    }

    // Campaigns whose gray damage lands on the critical path: healing
    // must strictly win, not just tie.
    r.pin("\nhealing on/off (campaigns whose damage bites):\n");
    r.pin(format!(
        "{:>6} {:>11} {:>11} {:>11} {:>8}",
        "seed", "clean us", "blind us", "healed us", "healed%"
    ));
    r.pin(rule(52));
    for seed in [2u64, 3, 42] {
        let report = run_heal(&HealOptions {
            seed,
            ..HealOptions::default()
        });
        r.pin(format!(
            "{:>6} {:>11.1} {:>11.1} {:>11.1} {:>7.1}%",
            seed,
            report.clean_makespan_us,
            report.unhealed.makespan_us,
            report.healed.result.makespan_us,
            report.healed_fraction_pct()
        ));
        assert!(
            report.healed.result.makespan_us < report.unhealed.makespan_us,
            "seed {seed}: healing must strictly beat the blind run"
        );
    }

    // Checkpoint/restart: what resuming from the last checkpoint saves
    // over re-executing the campaign from scratch.
    let (graph, scheduler, plan) = restart_campaign();
    let config = RecoveryConfig::default();
    let policy = HealPolicy::default();
    let outcome = scheduler.run_self_healing(&graph, &plan, &config, &policy);
    let last = outcome
        .checkpoints
        .last()
        .expect("the campaign must checkpoint");
    let reps = 30;
    let t0 = Instant::now();
    for _ in 0..reps {
        let full = scheduler.run_self_healing(&graph, &plan, &config, &policy);
        assert_eq!(full.result.entries, outcome.result.entries);
    }
    let full_us = t0.elapsed().as_secs_f64() * 1e6 / reps as f64;
    let t1 = Instant::now();
    for _ in 0..reps {
        let resumed = scheduler.resume_self_healing(&graph, &plan, &config, &policy, last);
        assert_eq!(resumed.entries, outcome.result.entries);
        assert_eq!(resumed.makespan_us, outcome.result.makespan_us);
    }
    let resume_us = t1.elapsed().as_secs_f64() * 1e6 / reps as f64;
    r.pin(format!(
        "\ncheckpoint/restart (fork-join 98 tasks, last checkpoint at task {}):",
        last.completed_tasks
    ));
    r.host(format!(
        "checkpoint/restart: full re-execution {full_us:.1} us wall, resume from the last \
         checkpoint {resume_us:.1} us wall ({:.1}x faster, byte-identical result)",
        full_us / resume_us
    ));
}

pub(crate) fn timings(r: &mut Report) {
    r.time("e15_selfheal/heal_campaign_seed42", || {
        run_heal(&HealOptions::default())
    });
    let (graph, scheduler, plan) = restart_campaign();
    let config = RecoveryConfig::default();
    let policy = HealPolicy::default();
    let outcome = scheduler.run_self_healing(&graph, &plan, &config, &policy);
    let last = outcome
        .checkpoints
        .last()
        .expect("the campaign must checkpoint");
    r.time("e15_selfheal/resume_from_last_checkpoint", || {
        scheduler.resume_self_healing(&graph, &plan, &config, &policy, last)
    });
}
