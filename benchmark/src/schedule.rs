//! `schedule_recovery`: the paper's resource manager and its recovery
//! stack, through `run_chaos` and `run_heal`.
//!
//! Both campaigns build their task graph inside the SDK from the seed.
//! To check placements against dependencies, and to time the scheduler's
//! runs one at a time, the benchmark builds the same graph itself
//! through the public `TaskGraph` API; the traced pass proves the copy
//! right by reproducing each campaign's results exactly.

use everest_runtime::cluster::Cluster;
use everest_runtime::scheduler::{Policy, RecoveryConfig, Scheduler, SimulationResult};
use everest_runtime::task::{TaskGraph, TaskSpec};
use everest_runtime::{DetRng, FaultPlan};
use everest_sdk::{run_chaos, run_heal, ChaosOptions, ChaosReport, HealOptions, HealReport};

use crate::gen::{Digest, Rng};
use crate::harness::{Oracle, Pass, Workload};
use crate::metrics::Layers;
use crate::trace::Tracer;

const NODES: usize = 8;
/// A 2000-task chaos campaign costs anywhere between 7 and 190 ms of
/// host time with the luck of its fault plan: too long to meet a quiet
/// moment on a shared host, and a pass holds too few of them for a
/// figure that holds still from seed to seed. 500-task campaigns take a
/// few milliseconds each.
const TASKS: usize = 500;
const FAULTS: usize = 12;
const GRAY_FAULTS: usize = 8;
/// Campaign pairs (one chaos, one heal) in a pass.
const PAIRS: usize = 32;

/// The campaigns' synthetic workload (`everest_sdk::chaos`): a layered
/// DAG mixing CPU-only and FPGA-capable tasks.
fn task_graph(seed: u64, tasks: usize) -> TaskGraph {
    let mut rng = DetRng::new(seed).fork(0x3A05);
    let mut graph = TaskGraph::new();
    for i in 0..tasks {
        let cpu_us = rng.range_f64(500.0, 5_000.0);
        let mut spec = TaskSpec::new(&format!("t{i}"), cpu_us)
            .with_output_bytes(1u64 << (10 + rng.index(10) as u32));
        if rng.next_unit() < 0.4 {
            spec = spec.with_fpga(cpu_us / 8.0);
        }
        if i > 0 {
            let want = rng.index(i.min(3)) + 1;
            let mut deps: Vec<usize> = Vec::new();
            for _ in 0..want {
                let d = rng.index(i);
                if !deps.contains(&d) {
                    deps.push(d);
                }
            }
            spec = spec.after(deps);
        }
        graph
            .add(spec)
            .expect("dependencies point at earlier tasks");
    }
    graph
}

fn scheduler() -> Scheduler {
    let fpga_nodes = NODES.div_ceil(2);
    Scheduler::new(
        Cluster::everest(NODES - fpga_nodes, fpga_nodes, 4),
        Policy::Heft,
    )
}

fn same(a: &SimulationResult, b: &SimulationResult) -> bool {
    a.entries == b.entries && a.makespan_us == b.makespan_us && a.recovery == b.recovery
}

/// Every task has an entry, and the run of a task that its consumers
/// read (its last) starts no earlier than some finished run of each of
/// its dependencies.
fn placements_respect_dependencies(graph: &TaskGraph, result: &SimulationResult) -> bool {
    let mut first_finish = vec![f64::INFINITY; graph.len()];
    let mut last_start = vec![f64::NEG_INFINITY; graph.len()];
    for entry in &result.entries {
        first_finish[entry.task] = first_finish[entry.task].min(entry.finish_us);
        last_start[entry.task] = last_start[entry.task].max(entry.start_us);
    }
    graph.iter().all(|(id, spec)| {
        last_start[id].is_finite()
            && spec
                .deps
                .iter()
                .all(|&dep| first_finish[dep] <= last_start[id] + 1e-6)
    })
}

/// The `schedule_recovery` workload.
pub struct ScheduleRecovery {
    seed: u64,
    tasks: usize,
    pairs: usize,
    digest: Digest,
    /// Makespans of the warm-up campaigns, pair by pair.
    warm: Vec<(u64, u64)>,
    /// The campaigns of the latest pass, kept for the traced pass.
    reports: Vec<(ChaosReport, HealReport)>,
}

fn makespans(chaos: &ChaosReport, heal: &HealReport) -> (u64, u64) {
    (
        chaos.result.makespan_us.to_bits(),
        heal.healed.result.makespan_us.to_bits(),
    )
}

impl ScheduleRecovery {
    /// A run measures a sample of campaigns drawn from its seed and not
    /// one campaign's luck, for the reason `serve` does.
    fn campaign_seed(&self, pair: usize) -> u64 {
        Rng::new(self.seed, 0x5C4ED + pair as u64).next_u64() >> 16
    }

    fn options(&self, pair: usize) -> (ChaosOptions, HealOptions) {
        let seed = self.campaign_seed(pair);
        (
            ChaosOptions {
                seed,
                nodes: NODES,
                tasks: self.tasks,
                faults: FAULTS,
            },
            HealOptions {
                seed,
                nodes: NODES,
                tasks: self.tasks,
                gray_faults: GRAY_FAULTS,
            },
        )
    }

    fn placements(&self, chaos: &ChaosReport, heal: &HealReport) -> u64 {
        // The two fault-free baselines place every task once.
        (2 * self.tasks
            + chaos.result.entries.len()
            + heal.unhealed.entries.len()
            + heal.healed.result.entries.len()) as u64
    }
}

impl Workload for ScheduleRecovery {
    fn setup(seed: u64, quick: bool, steps: &mut Pass) -> ScheduleRecovery {
        let mut workload = ScheduleRecovery {
            seed,
            tasks: if quick { TASKS / 10 } else { TASKS },
            pairs: if quick { PAIRS / 10 } else { PAIRS },
            digest: Digest::default(),
            warm: Vec::new(),
            reports: Vec::new(),
        };
        let mut digest = Digest::default();
        for pair in 0..workload.pairs {
            let (chaos, heal) = workload.options(pair);
            let chaos = steps.time(|| run_chaos(&chaos));
            let heal = steps.time(|| run_heal(&heal));
            workload.warm.push(makespans(&chaos, &heal));
            digest.u64(chaos.options.seed);
            for fault in chaos.plan.faults().iter().chain(heal.plan.faults()) {
                digest.str(&fault.describe());
            }
            digest.f64(chaos.clean_makespan_us);
        }
        workload.digest = digest;
        workload
    }

    fn digest(&self) -> Digest {
        self.digest
    }

    fn verify(&mut self) -> Oracle {
        let mut oracle = Oracle::default();
        for pair in 0..self.pairs {
            let (chaos, heal) = self.options(pair);
            let graph = task_graph(chaos.seed, self.tasks);
            let (chaos, heal) = (run_chaos(&chaos), run_heal(&heal));
            for (label, result) in [
                ("chaos", &chaos.result),
                ("blind", &heal.unhealed),
                ("healed", &heal.healed.result),
            ] {
                oracle.check(placements_respect_dependencies(&graph, result), || {
                    format!(
                        "pair {pair}, {label}: a task is missing or starts before a dependency finishes"
                    )
                });
            }
            oracle.check(heal.resume_matched, || {
                format!("pair {pair}: resuming from the last checkpoint did not reproduce the healed run")
            });
            oracle.check(makespans(&chaos, &heal) == self.warm[pair], || {
                format!("pair {pair}: campaigns differ from the warm-up pass")
            });
        }
        oracle
    }

    fn pass(&mut self) -> Pass {
        let mut pass = Pass::default();
        let mut reports = Vec::new();
        for pair in 0..self.pairs {
            let (chaos, heal) = self.options(pair);
            let chaos = pass.time(|| run_chaos(&chaos));
            let heal = pass.time(|| run_heal(&heal));
            pass.failed += u64::from(!heal.resume_matched);
            pass.failed += u64::from(makespans(&chaos, &heal) != self.warm[pair]);
            pass.work += self.placements(&chaos, &heal);
            reports.push((chaos, heal));
        }
        self.reports = reports;
        pass
    }

    fn traced_pass(
        &mut self,
        round: usize,
        _plain: &Pass,
        tracer: &mut Tracer,
        layers: &mut Layers,
    ) -> Pass {
        let mut pass = Pass::default();
        let reports = std::mem::take(&mut self.reports);
        let tasks = self.tasks;
        let config = RecoveryConfig::default();
        for (pair, (chaos, heal)) in reports.iter().enumerate() {
            let seed = chaos.options.seed;

            // run_chaos, one scheduler run at a time. Even operations
            // are chaos campaigns, odd ones heal campaigns.
            tracer.at(round, 2 * pair);
            let (clean, faulted) = pass.time(|| {
                let scheduler = scheduler();
                let graph = tracer.time("runtime.task.build", || task_graph(seed, tasks));
                let clean = tracer.time("runtime.scheduler.clean", || scheduler.run(&graph));
                let plan = FaultPlan::random_campaign(seed, NODES, clean.makespan_us * 0.8, FAULTS);
                let faulted = tracer.time("runtime.scheduler.faulted", || {
                    scheduler.run_with_plan(&graph, &plan, &config)
                });
                (clean, faulted)
            });
            let ok = clean.makespan_us == chaos.clean_makespan_us && same(&faulted, &chaos.result);
            pass.failed += u64::from(!ok);

            // run_heal likewise; plan and policy are the report's own.
            tracer.at(round, 2 * pair + 1);
            let (clean, blind, healed, resumed) = pass.time(|| {
                let scheduler = scheduler();
                let graph = tracer.time("runtime.task.build", || task_graph(seed, tasks));
                let clean = tracer.time("runtime.scheduler.clean", || scheduler.run(&graph));
                let blind = tracer.time("runtime.scheduler.faulted", || {
                    scheduler.run_with_plan(&graph, &heal.plan, &config)
                });
                let healing = tracer.begin("runtime.scheduler.healing");
                let healed = scheduler.run_self_healing(&graph, &heal.plan, &config, &heal.policy);
                let resumed = healed.checkpoints.last().map(|last| {
                    scheduler.resume_self_healing(&graph, &heal.plan, &config, &heal.policy, last)
                });
                tracer.end(healing);
                (clean, blind, healed, resumed)
            });
            let ok = clean.makespan_us == heal.clean_makespan_us
                && same(&blind, &heal.unhealed)
                && same(&healed.result, &heal.healed.result)
                && resumed.is_some_and(|r| same(&r, &healed.result));
            pass.failed += u64::from(!ok);
            pass.work += self.placements(chaos, heal);
        }
        self.reports = reports;

        let self_s = tracer.self_seconds(round);
        let stage = |name: &str| self_s.get(name).copied().unwrap_or(0.0);
        layers.sample("runtime.task.build_s", stage("runtime.task.build"));
        layers.sample(
            "runtime.scheduler.clean_s",
            stage("runtime.scheduler.clean"),
        );
        layers.sample(
            "runtime.scheduler.faulted_s",
            stage("runtime.scheduler.faulted"),
        );
        layers.sample(
            "runtime.scheduler.healing_s",
            stage("runtime.scheduler.healing"),
        );
        // What the fault plans cost the chaos campaigns: their faulted
        // runs against their clean runs, same graphs.
        let chaos_runs = |name: &str| -> f64 {
            tracer
                .spans()
                .iter()
                .filter(|s| s.pass == round as u32 && s.op % 2 == 0 && s.name == name)
                .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
                .sum()
        };
        layers.sample(
            "runtime.scheduler.recovery_delta_s",
            chaos_runs("runtime.scheduler.faulted") - chaos_runs("runtime.scheduler.clean"),
        );
        pass
    }

    fn finish(&mut self, _tracer: &Tracer, layers: &mut Layers) {
        let reports = std::mem::take(&mut self.reports);
        let chaos = || reports.iter().map(|(chaos, _)| &chaos.result);
        let healed = || reports.iter().map(|(_, heal)| &heal.healed.result);
        let both = || chaos().chain(healed());
        layers.set(
            "runtime.task.tasks",
            (2 * self.tasks * reports.len()) as f64,
        );
        layers.set(
            "runtime.scheduler.recovered_tasks",
            both().map(|r| r.recovered_tasks).sum::<usize>() as f64,
        );
        layers.set(
            "runtime.scheduler.retries",
            both().map(|r| r.recovery.retries).sum::<usize>() as f64,
        );
        layers.set(
            "runtime.scheduler.quarantines",
            both()
                .map(|r| r.recovery.quarantined_nodes.len())
                .sum::<usize>() as f64,
        );
        layers.set(
            "faults.injected",
            both().map(|r| r.recovery.faults_injected).sum::<usize>() as f64,
        );
        layers.set(
            "runtime.scheduler.migrations",
            healed().map(|r| r.heal.migrations).sum::<usize>() as f64,
        );
        layers.set(
            "health.monitor.verdicts",
            healed().map(|r| r.heal.verdicts.len()).sum::<usize>() as f64,
        );
        layers.set(
            "health.breaker_opens",
            healed().map(|r| r.heal.breaker_opens).sum::<usize>() as f64,
        );
        if !reports.is_empty() {
            layers.set(
                "runtime.scheduler.load_imbalance",
                healed().map(SimulationResult::load_imbalance).sum::<f64>() / reports.len() as f64,
            );
        }
        layers.set(
            "virtual.makespan_us",
            both().map(|r| r.makespan_us).sum::<f64>(),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn campaigns_are_a_function_of_the_seed() {
        let digest = |seed| ScheduleRecovery::setup(seed, true, &mut Pass::default()).digest();
        assert_eq!(digest(42), digest(42));
        assert_ne!(digest(42), digest(7));
    }

    #[test]
    fn quick_campaigns_pass_their_oracles() {
        let mut w = ScheduleRecovery::setup(42, true, &mut Pass::default());
        let oracle = w.verify();
        assert!(oracle.failures.is_empty(), "{:?}", oracle.failures);
        assert_eq!(w.pass().failed, 0);
    }

    #[test]
    fn the_copied_graph_reproduces_the_campaign() {
        let mut w = ScheduleRecovery::setup(42, true, &mut Pass::default());
        w.pass();
        let mut tracer = Tracer::new();
        let traced = w.traced_pass(0, &Pass::default(), &mut tracer, &mut Layers::default());
        assert_eq!(traced.op_ms.len(), 2 * w.pairs);
        assert_eq!(
            traced.failed, 0,
            "stage-by-stage results equal the single calls"
        );
    }
}
