//! The EVEREST resource manager (paper §VI-A): schedules workflow tasks
//! onto cluster nodes respecting dependencies and resource requests,
//! load-balances, accounts for data transfers between nodes, and
//! reschedules around node failures (lineage-based re-execution).
//!
//! Failures arrive as seeded fault plans ([`Scheduler::run_with_plan`];
//! a single node death is [`FaultPlan::single_node_crash`]): crashes go
//! through lineage recovery, transient faults trigger per-task retries
//! with deterministic exponential backoff, repeatedly faulting nodes
//! are quarantined, and FPGA tasks degrade gracefully to their CPU
//! implementation when the retry budget runs out or their VF is
//! unplugged. See `docs/RESILIENCE.md`.
//!
//! Gray failures close the loop ([`Scheduler::run_self_healing`]): the
//! planner's estimates stay *gray-blind* (a silently slow node looks
//! healthy to HEFT), while committed placements pay the real, inflated
//! cost — exactly the deception a production straggler plays. An
//! `everest-health` [`HealthMonitor`] watches achieved latencies and
//! link factors online, and its [`HealthVerdict`]s drive per-node
//! circuit breakers, probe placements and proactive migration off
//! suspect nodes. Periodic [`CampaignCheckpoint`]s snapshot the
//! completed-task frontier so a campaign resumes from the last
//! checkpoint instead of re-executing the whole lineage.

use std::sync::Arc;

use everest_faults::{
    DetRng, FaultEffects, FaultKind, FaultPlan, FaultSpec, RecoveryStats, RetryPolicy,
};
use everest_health::{
    Admission, BreakerConfig, BreakerState, CircuitBreaker, HealthConfig, HealthMonitor,
    HealthVerdict,
};
use everest_telemetry::Registry;

use crate::cluster::Cluster;
use crate::task::{TaskGraph, TaskId};

/// Virtual time a DMA engine hangs before the driver declares a
/// timeout (`FaultKind::DmaTimeout`), in µs. Matches the order of
/// magnitude of XRT's default ERT timeout handling.
pub(crate) const DMA_TIMEOUT_PENALTY_US: f64 = 1_000.0;

/// Stall charged when a correctable memory ECC event
/// (`FaultKind::MemoryEcc`) hits a running task, in µs: the memory
/// controller re-reads the line, scrubs the row and replays the
/// in-flight bursts.
pub(crate) const ECC_STALL_US: f64 = 60.0;

/// Repair cost after a failed partial reconfiguration, in µs: the
/// shell is reloaded in full before the task can retry.
pub(crate) const RECONFIG_REPAIR_US: f64 = 5_000.0;

/// A half-open probe whose achieved inflation stays at or below this
/// ratio closes the breaker; above it, the breaker re-trips with a
/// longer window.
const PROBE_OK_RATIO: f64 = 1.3;

/// Placement policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// Cyclic assignment, ignoring load and data locality (baseline).
    RoundRobin,
    /// HEFT-style earliest-finish-time with transfer awareness.
    Heft,
}

/// One scheduled task instance.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduleEntry {
    /// The task.
    pub task: TaskId,
    /// Node index in the cluster.
    pub node: usize,
    /// Start time (µs).
    pub start_us: f64,
    /// Finish time (µs).
    pub finish_us: f64,
    /// Whether the FPGA implementation was used.
    pub on_fpga: bool,
}

/// Result of a simulated execution.
#[derive(Debug, Clone, PartialEq)]
pub struct SimulationResult {
    /// Final placement per task.
    pub entries: Vec<ScheduleEntry>,
    /// Total makespan (µs).
    pub makespan_us: f64,
    /// Sum of inter-node transfer time on the critical paths (µs).
    pub transfer_us: f64,
    /// Tasks re-executed due to the injected failure.
    pub recovered_tasks: usize,
    /// Busy time per node (µs), for load-balance analysis.
    pub node_busy_us: Vec<f64>,
    /// Fault-injection and recovery accounting (all zeros for a
    /// fault-free run).
    pub recovery: RecoveryStats,
    /// Closed-loop healing accounting (all zeros/empty unless the run
    /// came from [`Scheduler::run_self_healing`]).
    pub heal: HealStats,
}

/// What the closed loop did during one simulation: the verdicts the
/// health monitor reached and the control actions they drove.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HealStats {
    /// Every verdict reached, in emission order.
    pub verdicts: Vec<HealthVerdict>,
    /// Circuit-breaker trips (initial opens and failed probes).
    pub breaker_opens: usize,
    /// Half-open probe placements admitted.
    pub probes: usize,
    /// Probes that came back still-degraded (breaker re-opened).
    pub probe_failures: usize,
    /// Tasks placed elsewhere because a breaker refused the node the
    /// planner would have picked.
    pub migrations: usize,
    /// Campaign checkpoints taken.
    pub checkpoints_taken: usize,
}

impl SimulationResult {
    /// Coefficient of variation of node busy times (0 = perfectly
    /// balanced).
    pub fn load_imbalance(&self) -> f64 {
        let n = self.node_busy_us.len() as f64;
        if n == 0.0 {
            return 0.0;
        }
        let mean = self.node_busy_us.iter().sum::<f64>() / n;
        if mean == 0.0 {
            return 0.0;
        }
        let var = self
            .node_busy_us
            .iter()
            .map(|b| (b - mean).powi(2))
            .sum::<f64>()
            / n;
        var.sqrt() / mean
    }
}

/// Tunables for plan-driven fault recovery (see `docs/RESILIENCE.md`).
/// An FPGA task that exhausts its retry budget (or loses its VF)
/// always falls back to its CPU implementation.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryConfig {
    /// Per-task retry budget and backoff shape for transient faults.
    pub retry: RetryPolicy,
    /// Faults a node may absorb before the scheduler quarantines it
    /// (no further placements). `u32::MAX` disables quarantine.
    pub quarantine_threshold: u32,
}

impl Default for RecoveryConfig {
    fn default() -> RecoveryConfig {
        RecoveryConfig {
            retry: RetryPolicy::default(),
            quarantine_threshold: 3,
        }
    }
}

/// Closed-loop self-healing policy for [`Scheduler::run_self_healing`]
/// (see `docs/RESILIENCE.md`, *detection → verdict → action*).
#[derive(Debug, Clone, PartialEq)]
pub struct HealPolicy {
    /// Health-monitor thresholds and window sizes.
    pub health: HealthConfig,
    /// Per-node circuit-breaker tuning.
    pub breaker: BreakerConfig,
    /// Checkpoint cadence in completed tasks (0 disables
    /// checkpointing).
    pub checkpoint_every_tasks: usize,
}

impl Default for HealPolicy {
    /// Default thresholds, checkpoint every 8 completed tasks.
    fn default() -> HealPolicy {
        HealPolicy {
            health: HealthConfig::default(),
            breaker: BreakerConfig::default(),
            checkpoint_every_tasks: 8,
        }
    }
}

/// A periodic seeded snapshot of one self-healing campaign: the
/// completed-task frontier plus everything the pass engine needs to
/// resume deterministically. Taken at scheduling-round boundaries by
/// [`Scheduler::run_self_healing`]; fed back to
/// [`Scheduler::resume_self_healing`] to restart from the frontier
/// instead of re-executing the whole lineage. Resuming reproduces the
/// uninterrupted run's results exactly.
#[derive(Debug, Clone)]
pub struct CampaignCheckpoint {
    /// The plan seed the snapshot belongs to (resume asserts it
    /// matches).
    pub seed: u64,
    /// Tasks committed when the snapshot was taken.
    pub completed_tasks: usize,
    state: Box<EngineSnapshot>,
}

/// Result of a self-healing campaign.
#[derive(Debug, Clone)]
pub struct HealedOutcome {
    /// The simulation result.
    pub result: SimulationResult,
    /// Checkpoints taken, in frontier order.
    pub checkpoints: Vec<CampaignCheckpoint>,
}

/// Plan-derived fault context for one simulation: the events the
/// scheduler handles itself, plus the plan's standing effects.
#[derive(Debug, Clone)]
struct FaultModel {
    /// The plan seed: seeds the health monitor and stamps checkpoints.
    seed: u64,
    /// Fail-stop node crashes, fed to the lineage machinery.
    crashes: Vec<FaultSpec>,
    /// Task-level transient faults (DMA timeouts, kernel errors, ECC
    /// events, reconfiguration failures), in plan order.
    transients: Vec<FaultSpec>,
    /// Fire times of ambient faults (link flaps, VF unplugs), counted
    /// as injected once the makespan reaches them.
    ambient_at_us: Vec<f64>,
    /// What the plan's windows, creeps and VF losses cost each node.
    /// The planner reads only the typed part (`link_factor`,
    /// `fpga_lost_at`); committed placements pay the gray part too.
    effects: FaultEffects,
    /// Jitter stream for deterministic backoff; cloned fresh per pass.
    jitter: DetRng,
}

impl FaultModel {
    /// Sorts a plan's faults by how the scheduler handles them. Faults
    /// naming nodes outside the cluster are ignored.
    fn from_plan(plan: &FaultPlan, n_nodes: usize) -> FaultModel {
        let mut model = FaultModel {
            seed: plan.seed,
            crashes: Vec::new(),
            transients: Vec::new(),
            ambient_at_us: Vec::new(),
            effects: FaultEffects::from_plan(plan, n_nodes),
            jitter: plan.jitter_rng(),
        };
        for f in plan.faults() {
            if f.node >= n_nodes {
                continue;
            }
            match f.kind {
                FaultKind::NodeCrash => model.crashes.push(f.clone()),
                FaultKind::LinkDegrade { .. } | FaultKind::VfUnplug { .. } => {
                    model.ambient_at_us.push(f.at_us);
                }
                // A failed reconfiguration is retried too, after a
                // full reload.
                FaultKind::DmaTimeout
                | FaultKind::PartialReconfigFail
                | FaultKind::TransientKernelError
                | FaultKind::MemoryEcc => model.transients.push(f.clone()),
                // Gray faults raise no error and are never counted as
                // injected: they exist only in `effects`. Network faults
                // target a group boundary and belong to the cluster
                // connectivity model.
                FaultKind::SlowNode { .. }
                | FaultKind::GrayLink { .. }
                | FaultKind::VfCreep { .. }
                | FaultKind::PartitionSym { .. }
                | FaultKind::PartitionAsym { .. }
                | FaultKind::MsgDelay { .. }
                | FaultKind::MsgLoss { .. } => {}
            }
        }
        model
    }
}

/// The full mutable state of one scheduling pass, healing loop
/// included. A fresh state starts a pass; a clone taken mid-pass *is* a
/// campaign checkpoint, and a resume runs the pass on from a clone. Each
/// lineage fixpoint pass starts fresh, so every pass — and every replay
/// with the same plan — is identical.
#[derive(Debug, Clone)]
struct EngineSnapshot {
    /// Per task: forced off the crashed nodes in this pass, because an
    /// earlier pass stranded its output there (none in the first pass).
    forced: Vec<bool>,
    // Recovery state.
    fired: Vec<bool>,
    rng: DetRng,
    stats: RecoveryStats,
    node_faults: Vec<u32>,
    quarantined: Vec<bool>,
    // Resource frontiers and the committed-task frontier.
    core_free: Vec<Vec<f64>>,
    fpga_free: Vec<f64>,
    finish: Vec<Option<f64>>,
    location: Vec<Option<usize>>,
    entries: Vec<ScheduleEntry>,
    node_busy: Vec<f64>,
    transfer_total: f64,
    rr_next: usize,
    /// Position in the rank-ordered task sweep (checkpoints are taken
    /// at commit boundaries, so a resumed pass re-enters the sweep
    /// exactly where the snapshot was cut).
    sweep_pos: usize,
    /// Whether the current sweep has committed anything yet (deadlock
    /// detection must survive a mid-sweep resume).
    progressed: bool,
    /// The closed loop, in self-healing runs.
    heal: Option<HealState>,
}

impl EngineSnapshot {
    /// Latest committed finish time, in µs (0 before any commit).
    fn frontier_us(&self) -> f64 {
        self.entries.iter().map(|e| e.finish_us).fold(0.0, f64::max)
    }

    /// The finished pass as a result. Ambient faults (link flaps, VF
    /// unplugs) and crashes count as injected once the simulated
    /// horizon reaches them; gray faults never do, they raise no error
    /// by construction.
    fn into_result(mut self, model: &FaultModel) -> SimulationResult {
        let makespan_us = self.frontier_us();
        let reached = model
            .ambient_at_us
            .iter()
            .chain(model.crashes.iter().map(|c| &c.at_us));
        self.stats.faults_injected += reached.filter(|&&at| at <= makespan_us).count();
        self.stats.recovered = (0..self.forced.len()).filter(|&t| self.forced[t]).collect();
        SimulationResult {
            entries: self.entries,
            makespan_us,
            transfer_us: self.transfer_total,
            recovered_tasks: self.stats.recovered.len(),
            node_busy_us: self.node_busy,
            recovery: self.stats,
            // Dropping the monitor publishes what its handles buffer.
            heal: self.heal.map(|h| h.stats).unwrap_or_default(),
        }
    }
}

/// The control side of the loop: the monitor, the per-node breakers and
/// the action accounting.
#[derive(Debug, Clone)]
struct HealState {
    monitor: HealthMonitor,
    breakers: Vec<CircuitBreaker>,
    stats: HealStats,
}

/// One placement option for a ready task: the planner's gray-blind
/// estimate (used for ranking) alongside the actualized timing the
/// placement would really pay.
#[derive(Debug, Clone, Copy)]
struct Cand {
    node: usize,
    /// Gray-blind estimated end (ranking key — what HEFT believes).
    est_end_us: f64,
    /// Actual start once gray transfer inflation is paid.
    start_us: f64,
    /// Actual duration once gray compute/VF inflation is paid.
    dur_us: f64,
    on_fpga: bool,
    /// Actual transfer cost charged to the result.
    transfer_us: f64,
    /// Observed-over-planned transfer ratio (1.0 when no transfers).
    link_obs: f64,
}

/// The first of `cands` with the least estimated end among those
/// `admit` lets through: the first wins ties, matching candidate order.
fn first_min(cands: &[Cand], admit: impl Fn(&Cand) -> bool) -> Option<usize> {
    (0..cands.len())
        .filter(|&i| admit(&cands[i]))
        .reduce(|best, i| {
            if cands[i].est_end_us < cands[best].est_end_us {
                i
            } else {
                best
            }
        })
}

/// The scheduler.
#[derive(Debug, Clone)]
pub struct Scheduler {
    /// The cluster.
    pub cluster: Cluster,
    /// Placement policy.
    pub policy: Policy,
    telemetry: Arc<Registry>,
}

impl Scheduler {
    /// Creates a scheduler reporting to the global telemetry registry.
    pub fn new(cluster: Cluster, policy: Policy) -> Scheduler {
        Scheduler {
            cluster,
            policy,
            telemetry: Registry::global(),
        }
    }

    /// Routes this scheduler's telemetry (spans, counters, histograms,
    /// events) to a private registry instead of the process-wide one.
    pub fn with_telemetry(mut self, registry: Arc<Registry>) -> Scheduler {
        self.telemetry = registry;
        self
    }

    /// Simulates the execution of a task graph with no faults: the run
    /// under an empty plan.
    pub fn run(&self, graph: &TaskGraph) -> SimulationResult {
        self.run_with_plan(graph, &FaultPlan::new(0), &RecoveryConfig::default())
    }

    /// Simulates under a seeded fault plan: node crashes go through the
    /// lineage machinery (tasks running on the dead node are killed and
    /// outputs stranded there are recomputed elsewhere), transient
    /// faults trigger per-task retries with deterministic backoff,
    /// repeatedly faulting nodes are quarantined, and FPGA tasks degrade
    /// to their CPU implementation when recovery runs out of budget.
    /// The same plan and config always produce the same
    /// [`SimulationResult`].
    ///
    /// # Panics
    ///
    /// Panics with `scheduler deadlock` when the plan crashes every node
    /// a task could still run on before the work is done.
    pub fn run_with_plan(
        &self,
        graph: &TaskGraph,
        plan: &FaultPlan,
        config: &RecoveryConfig,
    ) -> SimulationResult {
        self.run_traced(graph, plan, config, None, None).result
    }

    /// Runs a seeded campaign with the closed detection → verdict →
    /// action loop engaged: a [`HealthMonitor`] watches every committed
    /// placement, its verdicts trip per-node circuit breakers, breakers
    /// veto (HEFT) placements — migrating work off suspect nodes and
    /// probing them half-open — and the campaign checkpoints its
    /// completed-task frontier every `policy.checkpoint_every_tasks`
    /// completions. Fully deterministic: same graph, plan, config and
    /// policy → same outcome, byte for byte.
    ///
    /// # Panics
    ///
    /// Panics with `scheduler deadlock` when the plan crashes every node
    /// a task could still run on before the work is done.
    pub fn run_self_healing(
        &self,
        graph: &TaskGraph,
        plan: &FaultPlan,
        config: &RecoveryConfig,
        policy: &HealPolicy,
    ) -> HealedOutcome {
        self.run_traced(graph, plan, config, Some(policy), None)
    }

    /// The one traced entry behind `run_with_plan`, `run_self_healing`
    /// (`policy` is `Some`) and `resume_self_healing` (`resume` is
    /// `Some` too): the `scheduler.run` span, the simulation, and every
    /// `scheduler.*` counter, published once from the returned result.
    fn run_traced(
        &self,
        graph: &TaskGraph,
        plan: &FaultPlan,
        config: &RecoveryConfig,
        policy: Option<&HealPolicy>,
        resume: Option<&CampaignCheckpoint>,
    ) -> HealedOutcome {
        let span = self.telemetry.span("scheduler.run");
        span.arg("policy", format!("{:?}", self.policy))
            .arg("tasks", graph.len())
            .arg("nodes", self.cluster.nodes.len());
        match policy {
            Some(_) => span.arg("healing", true),
            None => span.arg("failure_injected", !plan.is_empty()),
        };
        span.arg("faults", plan.len());
        if let Some(from) = resume {
            span.arg("resumed_from", from.completed_tasks);
        }
        let (result, checkpoints) = self.simulate_core(graph, plan, config, policy, resume);
        match policy {
            Some(_) => span
                .arg("verdicts", result.heal.verdicts.len())
                .arg("migrations", result.heal.migrations),
            None => span.arg("recovered", result.recovered_tasks),
        };
        span.record_sim_us(result.makespan_us);
        let (recovery, heal) = (&result.recovery, &result.heal);
        for (name, n) in [
            ("scheduler.tasks_scheduled", result.entries.len()),
            ("scheduler.recovered_tasks", result.recovered_tasks),
            ("scheduler.degraded_tasks", recovery.degraded_to_cpu),
            ("scheduler.retries", recovery.retries),
            (
                "scheduler.quarantined_nodes",
                recovery.quarantined_nodes.len(),
            ),
            ("scheduler.breaker_opens", heal.breaker_opens),
            ("scheduler.migrations", heal.migrations),
            ("scheduler.checkpoints", heal.checkpoints_taken),
        ] {
            self.telemetry.counter_add(name, n as u64);
        }
        HealedOutcome {
            result,
            checkpoints,
        }
    }

    /// Resumes a self-healing campaign from a [`CampaignCheckpoint`]
    /// taken by [`Scheduler::run_self_healing`] with the *same* graph,
    /// plan, config and policy. The resumed run replays only the work
    /// after the checkpoint's frontier and reproduces the uninterrupted
    /// run's [`SimulationResult`] exactly.
    ///
    /// # Panics
    ///
    /// Panics when the checkpoint was taken under a different plan seed.
    pub fn resume_self_healing(
        &self,
        graph: &TaskGraph,
        plan: &FaultPlan,
        config: &RecoveryConfig,
        policy: &HealPolicy,
        from: &CampaignCheckpoint,
    ) -> SimulationResult {
        assert_eq!(
            from.seed, plan.seed,
            "checkpoint taken under a different plan seed"
        );
        self.run_traced(graph, plan, config, Some(policy), Some(from))
            .result
    }

    /// A fresh state for the fixpoint pass that runs `forced` off the
    /// crashed nodes, the healing loop seeded from the plan when
    /// `policy` is set.
    fn fresh_pass(
        &self,
        model: &FaultModel,
        policy: Option<&HealPolicy>,
        forced: Vec<bool>,
    ) -> EngineSnapshot {
        let (n_nodes, graph_len) = (self.cluster.nodes.len(), forced.len());
        EngineSnapshot {
            forced,
            fired: vec![false; model.transients.len()],
            rng: model.jitter.clone(),
            stats: RecoveryStats::default(),
            node_faults: vec![0; n_nodes],
            quarantined: vec![false; n_nodes],
            core_free: (self.cluster.nodes.iter())
                .map(|n| vec![0.0; n.cores as usize])
                .collect(),
            fpga_free: vec![0.0; n_nodes],
            finish: vec![None; graph_len],
            location: vec![None; graph_len],
            entries: Vec::with_capacity(graph_len),
            node_busy: vec![0.0; n_nodes],
            transfer_total: 0.0,
            rr_next: 0,
            sweep_pos: 0,
            progressed: false,
            heal: policy.map(|p| HealState {
                monitor: HealthMonitor::new(
                    n_nodes,
                    p.health.clone(),
                    model.seed,
                    Arc::clone(&self.telemetry),
                ),
                breakers: vec![CircuitBreaker::new(p.breaker); n_nodes],
                stats: HealStats::default(),
            }),
        }
    }

    /// The shared simulation core: the crash-recovery fixpoint around
    /// [`Scheduler::run_pass`], optionally with the closed healing loop
    /// and its checkpoints (`policy`), and a checkpoint to resume from.
    /// The same inputs always produce the same outputs; resuming from a
    /// checkpoint reproduces the uninterrupted run exactly.
    fn simulate_core(
        &self,
        graph: &TaskGraph,
        plan: &FaultPlan,
        config: &RecoveryConfig,
        policy: Option<&HealPolicy>,
        resume: Option<&CampaignCheckpoint>,
    ) -> (SimulationResult, Vec<CampaignCheckpoint>) {
        let model = FaultModel::from_plan(plan, self.cluster.nodes.len());
        let mut pass = match resume {
            Some(from) => (*from.state).clone(),
            None => self.fresh_pass(&model, policy, vec![false; graph.len()]),
        };
        let mut checkpoints = Vec::new();
        // Iterate passes until no task consumes stranded data. The
        // forced set only grows, so this ends within `graph.len()`
        // passes.
        loop {
            // Only checkpoints of the pass that produced the final
            // result are returned (earlier fixpoint passes are drafts).
            checkpoints.clear();
            self.run_pass(graph, &model, policy, config, &mut pass, &mut checkpoints);
            // Force off the dead nodes every dep whose data is stranded
            // on one and whose consumer starts after that node's failure.
            let mut forced = pass.forced.clone();
            for entry in &pass.entries {
                for &dep in &graph.task(entry.task).deps {
                    let stranded = |c: &FaultSpec| {
                        pass.location[dep] == Some(c.node) && entry.start_us > c.at_us
                    };
                    forced[dep] |= model.crashes.iter().any(stranded);
                }
            }
            if forced == pass.forced {
                return (pass.into_result(&model), checkpoints);
            }
            pass = self.fresh_pass(&model, policy, forced);
        }
    }

    /// Runs (or resumes) one scheduling pass over `snap` to completion,
    /// with the healing loop live when the state carries one and its
    /// periodic checkpoints appended to `checkpoints`.
    fn run_pass(
        &self,
        graph: &TaskGraph,
        model: &FaultModel,
        policy: Option<&HealPolicy>,
        config: &RecoveryConfig,
        snap: &mut EngineSnapshot,
        checkpoints: &mut Vec<CampaignCheckpoint>,
    ) {
        let every = policy.map_or(0, |p| p.checkpoint_every_tasks);
        let mut next_mark = (every > 0).then(|| (snap.entries.len() / every + 1) * every);

        // Priority: upward rank descending, stable by id.
        let ranks = graph.upward_ranks();
        let mut order: Vec<TaskId> = (0..graph.len()).collect();
        order.sort_by(|&a, &b| ranks[b].total_cmp(&ranks[a]).then(a.cmp(&b)));

        while snap.entries.len() < graph.len() {
            if snap.sweep_pos == 0 {
                let ready = order
                    .iter()
                    .filter(|&&t| {
                        snap.finish[t].is_none()
                            && graph.task(t).deps.iter().all(|&d| snap.finish[d].is_some())
                    })
                    .count();
                self.telemetry
                    .histogram_record("scheduler.queue_depth", ready as f64);
                snap.progressed = false;
            }
            while snap.sweep_pos < order.len() {
                if snap.entries.len() == graph.len() {
                    snap.sweep_pos = order.len();
                    break;
                }
                // Commit boundary: a consistent frontier, so this is
                // where campaign checkpoints are cut (only healing runs
                // have a cadence, so only they get here).
                if next_mark.is_some_and(|mark| snap.entries.len() >= mark) {
                    if let Some(h) = &mut snap.heal {
                        h.stats.checkpoints_taken += 1;
                    }
                    self.telemetry.event(
                        "scheduler.checkpoint",
                        format!(
                            "completed={} frontier_us={:.1}",
                            snap.entries.len(),
                            snap.frontier_us()
                        ),
                    );
                    checkpoints.push(CampaignCheckpoint {
                        seed: model.seed,
                        completed_tasks: snap.entries.len(),
                        state: Box::new(snap.clone()),
                    });
                    next_mark = Some((snap.entries.len() / every + 1) * every);
                }
                let t = order[snap.sweep_pos];
                snap.sweep_pos += 1;
                if snap.finish[t].is_some() {
                    continue;
                }
                let spec = graph.task(t);
                if !spec.deps.iter().all(|&d| snap.finish[d].is_some()) {
                    continue;
                }
                let candidates = self.candidates(graph, t, snap, model);
                if let (Policy::RoundRobin, Some(&node)) = (self.policy, candidates.first()) {
                    snap.rr_next = node + 1;
                }
                // Evaluate every candidate: the planner's gray-blind
                // estimate ranks them; the actualized timing (what the
                // placement really pays under gray faults) is what gets
                // committed.
                let cands: Vec<Cand> = candidates
                    .into_iter()
                    .map(|node| self.price(graph, t, node, snap, &model.effects))
                    // Respect the failures: cannot finish after death on
                    // a dead node.
                    .filter(|cand| {
                        !model
                            .crashes
                            .iter()
                            .any(|c| cand.node == c.node && cand.start_us + cand.dur_us > c.at_us)
                    })
                    .collect();
                let Some(global) = first_min(&cands, |_| true) else {
                    continue; // try other tasks; maybe later (shouldn't happen)
                };
                // Breakers veto the planner (HEFT only): the task goes
                // to the best-estimated node the breakers admit, probes
                // half-open nodes, and falls back to the raw best when
                // every candidate is refused (never deadlock).
                let admitted = (snap.heal.as_mut())
                    .filter(|_| self.policy == Policy::Heft)
                    .and_then(|h| {
                        let admits = |c: &Cand| h.breakers[c.node].peek(c.start_us);
                        let pick = first_min(&cands, |c| admits(c) != Admission::Refuse)?;
                        Some((pick, admits(&cands[pick]) == Admission::Probe, h))
                    });
                let (chosen, is_probe) = match admitted {
                    Some((pick, probing, h)) => {
                        if pick != global {
                            h.stats.migrations += 1;
                            self.telemetry.event(
                                "scheduler.migrate",
                                format!(
                                    "task={} from_node={} to_node={}",
                                    spec.name, cands[global].node, cands[pick].node
                                ),
                            );
                        }
                        if probing {
                            h.breakers[cands[pick].node].admit(cands[pick].start_us);
                            h.stats.probes += 1;
                            self.telemetry.event(
                                "scheduler.breaker_probe",
                                format!("task={} node={}", spec.name, cands[pick].node),
                            );
                        }
                        (pick, probing)
                    }
                    None => (global, false),
                };
                let c = cands[chosen];
                let node = c.node;
                let start = c.start_us;
                // Plan-driven transients firing inside the execution
                // window stretch (or degrade) the task; re-runs on a
                // gray-slow node stay gray-slow.
                let healthy_dur = spec.healthy_us(c.on_fpga);
                let gray_scale = if healthy_dur > 0.0 {
                    c.dur_us / healthy_dur
                } else {
                    1.0
                };
                let (end, on_fpga) = self.apply_faults(
                    graph,
                    t,
                    node,
                    start,
                    start + c.dur_us,
                    c.on_fpga,
                    model,
                    config,
                    snap,
                    gray_scale,
                );
                // Commit resources.
                if on_fpga {
                    snap.fpga_free[node] = end;
                } else {
                    let cores = spec.cores.min(self.cluster.nodes[node].cores) as usize;
                    let mut idx: Vec<usize> = (0..snap.core_free[node].len()).collect();
                    idx.sort_by(|&a, &b| {
                        snap.core_free[node][a].total_cmp(&snap.core_free[node][b])
                    });
                    for &k in idx.iter().take(cores) {
                        snap.core_free[node][k] = end;
                    }
                }
                snap.node_busy[node] += end - start;
                snap.transfer_total += c.transfer_us;
                snap.finish[t] = Some(end);
                snap.location[t] = Some(node);
                self.telemetry.event(
                    "scheduler.place",
                    format!(
                        "task={} node={node} fpga={on_fpga} start_us={start:.1}",
                        graph.task(t).name
                    ),
                );
                snap.entries.push(ScheduleEntry {
                    task: t,
                    node,
                    start_us: start,
                    finish_us: end,
                    on_fpga,
                });
                snap.progressed = true;
                // Feed the committed placement into the health monitor
                // and let its verdicts drive the breakers.
                if let Some(h) = &mut snap.heal {
                    let expected = spec.healthy_us(on_fpga);
                    let inflation = if expected > 0.0 {
                        (end - start) / expected
                    } else {
                        1.0
                    };
                    h.monitor.record_task(node, inflation, end);
                    if on_fpga {
                        h.monitor.record_fpga(node, inflation, end);
                    }
                    if c.transfer_us > 0.0 {
                        h.monitor.record_link(node, c.link_obs, end);
                    }
                    if is_probe {
                        if inflation <= PROBE_OK_RATIO {
                            h.breakers[node].probe_succeeded();
                            self.telemetry.event(
                                "scheduler.breaker_close",
                                format!("node={node} inflation={inflation:.3}"),
                            );
                        } else {
                            h.breakers[node].probe_failed(end);
                            h.stats.probe_failures += 1;
                            h.stats.breaker_opens += 1;
                            self.telemetry.event(
                                "scheduler.breaker_open",
                                format!("node={node} cause=probe_failed inflation={inflation:.3}"),
                            );
                        }
                    }
                    // Verdict → action: trip the breaker of any node
                    // the monitor just convicted.
                    for v in h.monitor.drain_new() {
                        if h.breakers[v.node].state() == BreakerState::Closed {
                            h.breakers[v.node].trip(v.at_us);
                            h.stats.breaker_opens += 1;
                            self.telemetry
                                .event("scheduler.breaker_open", format!("cause={}", v.describe()));
                        }
                        h.stats.verdicts.push(v);
                    }
                }
            }
            assert!(
                snap.progressed,
                "scheduler deadlock: no task could be placed"
            );
            snap.sweep_pos = 0;
        }
    }

    /// Applies plan-driven transient faults that fire inside the task's
    /// `[start, end)` window (each fires at most once per pass),
    /// charging retries, backoff and degradations. `gray_dur_scale` is
    /// the gray inflation of the committed placement (1.0 when clean):
    /// re-runs on a silently slow node are just as slow as the first
    /// attempt. Returns the adjusted `(finish_us, on_fpga)`.
    #[allow(clippy::too_many_arguments)]
    fn apply_faults(
        &self,
        graph: &TaskGraph,
        task: TaskId,
        node: usize,
        start: f64,
        mut end: f64,
        mut on_fpga: bool,
        model: &FaultModel,
        config: &RecoveryConfig,
        pass: &mut EngineSnapshot,
        gray_dur_scale: f64,
    ) -> (f64, bool) {
        let spec = graph.task(task);
        // A lost VF already forced the placement onto the host cores
        // (see `price`); account for the degradation here.
        if !on_fpga
            && spec.fpga_us.is_some()
            && self.cluster.nodes[node].fpga.is_some()
            && model.effects.fpga_lost_at(node) <= start
        {
            pass.stats.degraded_to_cpu += 1;
            self.telemetry.event(
                "scheduler.degrade",
                format!("task={} node={node} cause=vf_unplug", spec.name),
            );
        }
        let mut attempts = 0u32;
        loop {
            let Some(i) = (0..model.transients.len()).find(|&i| {
                let f = &model.transients[i];
                !pass.fired[i] && f.node == node && f.at_us >= start && f.at_us < end
            }) else {
                return (end, on_fpga);
            };
            let fault = model.transients[i].clone();
            pass.fired[i] = true;
            pass.stats.faults_injected += 1;
            pass.node_faults[node] += 1;
            self.telemetry.event(
                "scheduler.fault",
                format!("{} task={}", fault.describe(), spec.name),
            );
            match fault.kind {
                // Correctable: scrub-and-replay stall, no retry needed.
                FaultKind::MemoryEcc => end += ECC_STALL_US,
                FaultKind::TransientKernelError
                | FaultKind::DmaTimeout
                | FaultKind::PartialReconfigFail => {
                    let mut penalty = 0.0;
                    if fault.kind == FaultKind::DmaTimeout {
                        penalty += DMA_TIMEOUT_PENALTY_US;
                    }
                    if fault.kind == FaultKind::PartialReconfigFail {
                        penalty += RECONFIG_REPAIR_US;
                    }
                    let duration = spec.healthy_us(on_fpga) * gray_dur_scale;
                    if attempts < config.retry.max_retries {
                        let backoff = config.retry.backoff_us(attempts, &mut pass.rng);
                        attempts += 1;
                        pass.stats.retries += 1;
                        pass.stats.backoff_us_total += backoff;
                        self.telemetry
                            .histogram_record("scheduler.backoff_us", backoff);
                        self.telemetry.event(
                            "scheduler.retry",
                            format!(
                                "task={} node={node} attempt={attempts} backoff_us={backoff:.1}",
                                spec.name
                            ),
                        );
                        end = fault.at_us + penalty + backoff + duration;
                    } else if on_fpga {
                        // Budget exhausted: give up on the accelerator
                        // and finish on the host cores.
                        on_fpga = false;
                        pass.stats.degraded_to_cpu += 1;
                        self.telemetry.event(
                            "scheduler.degrade",
                            format!("task={} node={node} cause=retry_budget", spec.name),
                        );
                        end = fault.at_us + penalty + spec.cpu_us * gray_dur_scale;
                    } else {
                        // Nothing left but to grind through the re-run.
                        end = fault.at_us + penalty + duration;
                    }
                }
                // `from_plan` routes only the four transient kinds into
                // `model.transients`; the rest are structurally absent
                // here, spelled out so new kinds are compile errors.
                FaultKind::NodeCrash
                | FaultKind::LinkDegrade { .. }
                | FaultKind::VfUnplug { .. }
                | FaultKind::SlowNode { .. }
                | FaultKind::GrayLink { .. }
                | FaultKind::VfCreep { .. }
                | FaultKind::PartitionSym { .. }
                | FaultKind::PartitionAsym { .. }
                | FaultKind::MsgDelay { .. }
                | FaultKind::MsgLoss { .. } => {}
            }
            self.maybe_quarantine(node, config, pass);
        }
    }

    /// Quarantines a node once it has absorbed enough faults, as long
    /// as at least one other node stays available.
    fn maybe_quarantine(&self, node: usize, config: &RecoveryConfig, pass: &mut EngineSnapshot) {
        if pass.node_faults[node] >= config.quarantine_threshold
            && !pass.quarantined[node]
            && pass.quarantined.iter().filter(|q| !**q).count() > 1
        {
            pass.quarantined[node] = true;
            pass.stats.quarantined_nodes.push(node);
            self.telemetry.event(
                "scheduler.quarantine",
                format!("node={node} faults={}", pass.node_faults[node]),
            );
        }
    }

    /// The nodes `task` may be placed on, in policy order (cyclic from
    /// `rr_next` for round-robin, index order for HEFT): the feasible
    /// nodes that are not quarantined, else the feasible ones — avoiding
    /// quarantine never costs a deadlock — else every node whose cores
    /// are too few, which then runs the task on all it has (as `price`
    /// models). A node the task was forced off by a crash is never a
    /// candidate. Round-robin takes the first node, HEFT ranks them all.
    fn candidates(
        &self,
        graph: &TaskGraph,
        task: TaskId,
        snap: &EngineSnapshot,
        model: &FaultModel,
    ) -> Vec<usize> {
        let spec = graph.task(task);
        let forced = snap.forced[task];
        let n_nodes = self.cluster.nodes.len();
        let first = match self.policy {
            Policy::RoundRobin => snap.rr_next % n_nodes,
            Policy::Heft => 0,
        };
        // Lower tier is preferred; `None` is never a candidate.
        let tier = |node: usize| {
            if forced && model.crashes.iter().any(|c| c.node == node) {
                None
            } else if spec.fpga_us.is_none() && spec.cores > self.cluster.nodes[node].cores {
                Some(2)
            } else {
                Some(u8::from(snap.quarantined[node]))
            }
        };
        let tiered: Vec<(usize, u8)> = (0..n_nodes)
            .map(|k| (first + k) % n_nodes)
            .filter_map(|node| Some((node, tier(node)?)))
            .collect();
        let Some(best) = tiered.iter().map(|&(_, t)| t).min() else {
            return Vec::new();
        };
        let nodes = tiered
            .into_iter()
            .filter(|&(_, t)| t == best)
            .map(|(node, _)| node);
        match self.policy {
            Policy::RoundRobin => nodes.take(1).collect(),
            Policy::Heft => nodes.collect(),
        }
    }

    /// Prices `task` on `node` in one sweep over its dependencies, two
    /// ways at once. The *estimate* is what the planner believes and
    /// ranks by — deliberately gray-blind: typed link flaps and VF
    /// unplugs are modelled (they fire errors the runtime can see), a
    /// silently slow node looks healthy. The *actual* timing is what
    /// the placement really pays and what gets committed: transfers pay
    /// the worse of the typed and gray link factors, compute pays the
    /// slow-node factor, accelerator runs additionally pay VF creep.
    /// The planner's FPGA-or-cores decision stands; only the cost
    /// changes. Without gray faults the two coincide exactly.
    fn price(
        &self,
        graph: &TaskGraph,
        task: TaskId,
        node: usize,
        snap: &EngineSnapshot,
        effects: &FaultEffects,
    ) -> Cand {
        let spec = graph.task(task);
        // Data readiness and transfer cost, as (estimated, actual).
        let (mut est_ready, mut ready) = (0.0f64, 0.0f64);
        let (mut est_transfer, mut transfer) = (0.0f64, 0.0f64);
        for &d in &spec.deps {
            let done = snap.finish[d].expect("dep scheduled");
            let src = snap.location[d].expect("dep scheduled");
            let (mut est_arrival, mut arrival) = (done, done);
            if src != node {
                // A degraded link on either endpoint inflates the transfer.
                let typed = effects
                    .link_factor(src, done)
                    .max(effects.link_factor(node, done));
                let gray = effects
                    .gray_link_factor(src, done)
                    .max(effects.gray_link_factor(node, done));
                let base = self.cluster.transfer_us(graph.task(d).output_bytes);
                est_arrival += base * typed;
                est_transfer += base * typed;
                arrival += base * typed.max(gray);
                transfer += base * typed.max(gray);
            }
            est_ready = est_ready.max(est_arrival);
            ready = ready.max(arrival);
        }
        // Resource readiness + healthy duration. A node whose VF was
        // unplugged before the accelerator would be free degrades to
        // the cores.
        let on_fpga = spec.fpga_us.is_some()
            && self.cluster.nodes[node].fpga.is_some()
            && est_ready.max(snap.fpga_free[node]) < effects.fpga_lost_at(node);
        let resource_ready = if on_fpga {
            snap.fpga_free[node]
        } else {
            let cores = spec.cores.min(self.cluster.nodes[node].cores) as usize;
            let mut free: Vec<f64> = snap.core_free[node].clone();
            free.sort_by(f64::total_cmp);
            free.get(cores.saturating_sub(1))
                .copied()
                .unwrap_or_else(|| free.last().copied().unwrap_or(0.0))
        };
        let healthy_us = spec.healthy_us(on_fpga);
        let start_us = ready.max(resource_ready);
        let mut dur_us = healthy_us * effects.slow_factor(node, start_us);
        if on_fpga {
            dur_us *= effects.creep_factor(node, start_us);
        }
        Cand {
            node,
            est_end_us: est_ready.max(resource_ready) + healthy_us,
            start_us,
            dur_us,
            on_fpga,
            transfer_us: transfer,
            link_obs: if est_transfer > 0.0 {
                transfer / est_transfer
            } else {
                1.0
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use super::*;
    use crate::task::TaskSpec;
    use everest_health::VerdictKind;

    /// A fan-out/fan-in graph of `width` independent middle tasks.
    fn fork_join(width: usize, task_us: f64, bytes: u64) -> TaskGraph {
        let mut g = TaskGraph::new();
        let src = g
            .add(TaskSpec::new("src", 10.0).with_output_bytes(bytes))
            .unwrap();
        let mids: Vec<_> = (0..width)
            .map(|i| {
                g.add(
                    TaskSpec::new(&format!("mid{i}"), task_us)
                        .after([src])
                        .with_output_bytes(bytes),
                )
                .unwrap()
            })
            .collect();
        g.add(TaskSpec::new("join", 10.0).after(mids)).unwrap();
        g
    }

    #[test]
    fn dependencies_are_respected() {
        let g = fork_join(8, 100.0, 0);
        let s = Scheduler::new(Cluster::homogeneous(4, 2), Policy::Heft);
        let r = s.run(&g);
        let by_task: HashMap<TaskId, &ScheduleEntry> =
            r.entries.iter().map(|e| (e.task, e)).collect();
        for (id, spec) in g.iter() {
            for &d in &spec.deps {
                assert!(
                    by_task[&id].start_us >= by_task[&d].finish_us,
                    "task {id} started before dep {d} finished"
                );
            }
        }
    }

    #[test]
    fn more_nodes_reduce_makespan() {
        let g = fork_join(16, 1000.0, 0);
        let small = Scheduler::new(Cluster::homogeneous(2, 2), Policy::Heft).run(&g);
        let large = Scheduler::new(Cluster::homogeneous(8, 2), Policy::Heft).run(&g);
        assert!(
            large.makespan_us < small.makespan_us / 2.0,
            "8 nodes {} vs 2 nodes {}",
            large.makespan_us,
            small.makespan_us
        );
    }

    #[test]
    fn heft_beats_round_robin_on_heterogeneous_durations() {
        let mut g = TaskGraph::new();
        let src = g.add(TaskSpec::new("src", 1.0)).unwrap();
        for i in 0..12 {
            let us = if i % 3 == 0 { 3000.0 } else { 100.0 };
            g.add(TaskSpec::new(&format!("t{i}"), us).after([src]))
                .unwrap();
        }
        let cluster = Cluster::homogeneous(4, 1);
        let heft = Scheduler::new(cluster.clone(), Policy::Heft).run(&g);
        let rr = Scheduler::new(cluster, Policy::RoundRobin).run(&g);
        assert!(
            heft.makespan_us <= rr.makespan_us,
            "heft {} vs rr {}",
            heft.makespan_us,
            rr.makespan_us
        );
        assert!(heft.load_imbalance() <= rr.load_imbalance() + 0.2);
    }

    #[test]
    fn fpga_tasks_prefer_fpga_nodes() {
        let mut g = TaskGraph::new();
        g.add(TaskSpec::new("accel", 10_000.0).with_fpga(500.0))
            .unwrap();
        let s = Scheduler::new(Cluster::everest(2, 1, 8), Policy::Heft);
        let r = s.run(&g);
        assert!(r.entries[0].on_fpga, "task should run on the FPGA node");
        assert!((r.makespan_us - 500.0).abs() < 1.0);
    }

    #[test]
    fn transfer_costs_favor_locality() {
        // chain: a -> b with a huge intermediate; HEFT should colocate.
        let mut g = TaskGraph::new();
        let a = g
            .add(TaskSpec::new("a", 100.0).with_output_bytes(1 << 30))
            .unwrap();
        g.add(TaskSpec::new("b", 100.0).after([a])).unwrap();
        let s = Scheduler::new(Cluster::homogeneous(4, 4), Policy::Heft);
        let r = s.run(&g);
        assert_eq!(
            r.entries[0].node, r.entries[1].node,
            "1 GiB intermediate must keep producer and consumer together"
        );
        assert_eq!(r.transfer_us, 0.0);
    }

    #[test]
    fn failure_triggers_recovery_and_still_completes() {
        let g = fork_join(12, 2000.0, 1 << 10);
        let cluster = Cluster::homogeneous(4, 1);
        let s = Scheduler::new(cluster, Policy::Heft);
        let clean = s.run(&g);
        let crash = FaultPlan::single_node_crash(0, 0, clean.makespan_us * 0.5);
        let failed = s.run_with_plan(&g, &crash, &RecoveryConfig::default());
        // All tasks still complete.
        assert_eq!(failed.entries.len(), g.len());
        // Nothing scheduled on node 0 finishes after the failure.
        for e in &failed.entries {
            if e.node == 0 {
                assert!(e.finish_us <= clean.makespan_us * 0.5 + 1e-9);
            }
        }
        // Failure costs time.
        assert!(failed.makespan_us >= clean.makespan_us);
    }

    #[test]
    fn plan_driven_transients_retry_and_cost_time() {
        use everest_faults::{FaultKind, FaultPlan, FaultSpec};
        let g = fork_join(8, 2000.0, 0);
        let s = Scheduler::new(Cluster::homogeneous(4, 1), Policy::Heft);
        let clean = s.run(&g);
        let plan = FaultPlan::new(11)
            .with_fault(FaultSpec::new(500.0, 0, FaultKind::TransientKernelError))
            .with_fault(FaultSpec::new(700.0, 1, FaultKind::MemoryEcc));
        let faulty = s.run_with_plan(&g, &plan, &RecoveryConfig::default());
        assert_eq!(faulty.entries.len(), g.len(), "all tasks still complete");
        assert!(faulty.makespan_us >= clean.makespan_us);
        assert_eq!(faulty.recovery.faults_injected, 2);
        assert_eq!(faulty.recovery.retries, 1, "kernel error retried once");
        assert!(faulty.recovery.backoff_us_total > 0.0);
        assert!(!faulty.recovery.is_clean());
        assert!(clean.recovery.is_clean());
    }

    #[test]
    fn transient_faults_charge_their_fixed_costs() {
        use everest_faults::{FaultKind, FaultPlan, FaultSpec};
        let mut g = TaskGraph::new();
        g.add(TaskSpec::new("t", 2_000.0)).unwrap();
        let s = Scheduler::new(Cluster::homogeneous(1, 1), Policy::Heft);
        let healthy = s.run(&g).makespan_us;
        // With no retry budget a faulted CPU task re-runs in full from
        // the fault instant, after the kind's fixed cost.
        let config = RecoveryConfig {
            retry: RetryPolicy::none(),
            ..RecoveryConfig::default()
        };
        let at = 500.0;
        for (kind, expected) in [
            (FaultKind::MemoryEcc, healthy + ECC_STALL_US),
            (FaultKind::TransientKernelError, at + healthy),
            (FaultKind::DmaTimeout, at + DMA_TIMEOUT_PENALTY_US + healthy),
            (
                FaultKind::PartialReconfigFail,
                at + RECONFIG_REPAIR_US + healthy,
            ),
        ] {
            let plan = FaultPlan::new(3).with_fault(FaultSpec::new(at, 0, kind.clone()));
            let r = s.run_with_plan(&g, &plan, &config);
            assert_eq!(r.makespan_us, expected, "{kind:?}");
            assert_eq!(r.recovery.faults_injected, 1, "{kind:?}");
        }
    }

    #[test]
    fn same_plan_same_seed_is_identical_across_replays() {
        use everest_faults::FaultPlan;
        let g = fork_join(10, 1500.0, 1 << 16);
        let s = Scheduler::new(Cluster::everest(2, 1, 4), Policy::Heft);
        let plan = FaultPlan::random_campaign(42, 3, 10_000.0, 6);
        let a = s.run_with_plan(&g, &plan, &RecoveryConfig::default());
        let b = s.run_with_plan(&g, &plan, &RecoveryConfig::default());
        assert_eq!(a, b);
    }

    #[test]
    fn vf_unplug_degrades_fpga_task_to_cpu() {
        use everest_faults::{FaultKind, FaultPlan, FaultSpec};
        let mut g = TaskGraph::new();
        g.add(TaskSpec::new("accel", 10_000.0).with_fpga(500.0))
            .unwrap();
        // one FPGA node only, so the task has nowhere else to go
        let s = Scheduler::new(Cluster::everest(0, 1, 8), Policy::Heft);
        let plan =
            FaultPlan::new(9).with_fault(FaultSpec::new(0.0, 0, FaultKind::VfUnplug { vf: 0 }));
        let r = s.run_with_plan(&g, &plan, &RecoveryConfig::default());
        assert!(!r.entries[0].on_fpga, "VF gone: must fall back to CPU");
        assert!((r.makespan_us - 10_000.0).abs() < 1.0);
        assert_eq!(r.recovery.degraded_to_cpu, 1);
        // without the fallback duration the FPGA would have finished in 500
        let clean = s.run(&g);
        assert!(clean.entries[0].on_fpga);
    }

    #[test]
    fn repeated_faults_quarantine_the_node() {
        use everest_faults::{FaultKind, FaultPlan, FaultSpec};
        let mut g = TaskGraph::new();
        for i in 0..12 {
            g.add(TaskSpec::new(&format!("t{i}"), 1_000.0)).unwrap();
        }
        let s = Scheduler::new(Cluster::homogeneous(2, 1), Policy::Heft);
        let plan = FaultPlan::new(5)
            .with_fault(FaultSpec::new(500.0, 0, FaultKind::MemoryEcc))
            .with_fault(FaultSpec::new(1_500.0, 0, FaultKind::MemoryEcc))
            .with_fault(FaultSpec::new(2_500.0, 0, FaultKind::MemoryEcc));
        let r = s.run_with_plan(&g, &plan, &RecoveryConfig::default());
        assert_eq!(r.recovery.quarantined_nodes, vec![0]);
        assert_eq!(r.entries.len(), g.len(), "quarantine must not deadlock");
        // the healthy node absorbs the remaining work
        assert!(r.node_busy_us[1] > r.node_busy_us[0]);
    }

    #[test]
    fn link_flap_inflates_cross_node_transfers() {
        use everest_faults::{FaultKind, FaultPlan, FaultSpec};
        // src on one node fans out to consumers everywhere: transfers
        // during the flap window get slower, so HEFT pays or avoids them.
        let g = fork_join(6, 200.0, 1 << 26);
        let s = Scheduler::new(Cluster::homogeneous(3, 1), Policy::Heft);
        let clean = s.run(&g);
        let plan = FaultPlan::new(21).with_fault(FaultSpec::new(
            0.0,
            0,
            FaultKind::LinkDegrade {
                factor: 8.0,
                duration_us: 1e9,
            },
        ));
        let flap = s.run_with_plan(&g, &plan, &RecoveryConfig::default());
        assert_eq!(flap.entries.len(), g.len());
        assert!(
            flap.makespan_us >= clean.makespan_us,
            "flap {} vs clean {}",
            flap.makespan_us,
            clean.makespan_us
        );
        assert_eq!(flap.recovery.faults_injected, 1);
    }

    #[test]
    fn quarantine_threshold_zero_isolates_on_first_fault() {
        use everest_faults::{FaultKind, FaultPlan, FaultSpec};
        let mut g = TaskGraph::new();
        for i in 0..8 {
            g.add(TaskSpec::new(&format!("t{i}"), 1_000.0)).unwrap();
        }
        let s = Scheduler::new(Cluster::homogeneous(3, 1), Policy::Heft);
        let plan = FaultPlan::new(3).with_fault(FaultSpec::new(100.0, 0, FaultKind::MemoryEcc));
        let config = RecoveryConfig {
            quarantine_threshold: 0,
            ..RecoveryConfig::default()
        };
        let r = s.run_with_plan(&g, &plan, &config);
        assert_eq!(r.entries.len(), g.len(), "threshold 0 must not deadlock");
        assert_eq!(
            r.recovery.quarantined_nodes,
            vec![0],
            "first fault must quarantine immediately at threshold 0"
        );
        // Nothing lands on node 0 after its quarantine.
        let q_at = r
            .entries
            .iter()
            .filter(|e| e.node == 0)
            .map(|e| e.finish_us)
            .fold(0.0, f64::max);
        for e in r.entries.iter().filter(|e| e.node == 0) {
            assert!(e.start_us <= q_at);
        }
    }

    #[test]
    fn all_nodes_faulting_never_quarantines_the_last_one() {
        use everest_faults::{FaultKind, FaultPlan, FaultSpec};
        let mut g = TaskGraph::new();
        for i in 0..10 {
            g.add(TaskSpec::new(&format!("t{i}"), 1_000.0).with_fpga(200.0))
                .unwrap();
        }
        // Every node absorbs enough faults to cross the threshold.
        let mut plan = FaultPlan::new(17);
        for node in 0..2 {
            for k in 0..4 {
                plan.push(FaultSpec::new(
                    100.0 + 200.0 * k as f64,
                    node,
                    FaultKind::TransientKernelError,
                ));
            }
        }
        let s = Scheduler::new(Cluster::everest(0, 2, 2), Policy::Heft);
        let config = RecoveryConfig {
            quarantine_threshold: 1,
            retry: RetryPolicy::none(),
        };
        let r = s.run_with_plan(&g, &plan, &config);
        assert_eq!(r.entries.len(), g.len(), "must not deadlock");
        assert!(
            r.recovery.quarantined_nodes.len() < 2,
            "at least one node must stay available: {:?}",
            r.recovery.quarantined_nodes
        );
        // Retry budget of zero degrades the faulted FPGA tasks to CPU.
        assert!(r.recovery.degraded_to_cpu >= 1);
    }

    #[test]
    fn gray_faults_inflate_cost_without_raising_errors() {
        use everest_faults::{FaultKind, FaultPlan, FaultSpec};
        let g = fork_join(12, 1_000.0, 0);
        let s = Scheduler::new(Cluster::homogeneous(4, 1), Policy::Heft);
        let clean = s.run(&g);
        let plan = FaultPlan::new(31).with_fault(FaultSpec::new(
            0.0,
            0,
            FaultKind::SlowNode {
                factor: 6.0,
                duration_us: 1e9,
            },
        ));
        let gray = s.run_with_plan(&g, &plan, &RecoveryConfig::default());
        assert_eq!(gray.entries.len(), g.len());
        assert!(
            gray.makespan_us > clean.makespan_us,
            "gray straggler must cost real time: {} vs {}",
            gray.makespan_us,
            clean.makespan_us
        );
        // Gray failures are silent: no error is ever raised or counted.
        assert_eq!(gray.recovery.faults_injected, 0);
        assert!(gray.recovery.is_clean());
        // Tasks committed on the slow node really ran slower.
        let slow = gray
            .entries
            .iter()
            .find(|e| e.node == 0 && e.task != 0 && e.task != g.len() - 1)
            .expect("node 0 got at least one middle task");
        assert!((slow.finish_us - slow.start_us) > 5_000.0);
    }

    fn straggler_plan(seed: u64, factor: f64) -> FaultPlan {
        FaultPlan::new(seed).with_fault(FaultSpec::new(
            0.0,
            0,
            FaultKind::SlowNode {
                factor,
                duration_us: 1e9,
            },
        ))
    }

    fn heal_policy() -> HealPolicy {
        HealPolicy {
            health: HealthConfig {
                min_samples: 1,
                ..HealthConfig::default()
            },
            breaker: BreakerConfig {
                // Long isolation: don't pay for probes inside short
                // test campaigns.
                open_us: 30_000.0,
                ..BreakerConfig::default()
            },
            ..HealPolicy::default()
        }
    }

    #[test]
    fn healing_beats_the_blind_scheduler_on_a_gray_straggler() {
        let g = fork_join(48, 1_000.0, 0);
        let s = Scheduler::new(Cluster::homogeneous(4, 1), Policy::Heft);
        let plan = straggler_plan(7, 12.0);
        let config = RecoveryConfig::default();
        let blind = s.run_with_plan(&g, &plan, &config);
        let healed = s.run_self_healing(&g, &plan, &config, &heal_policy());
        assert_eq!(healed.result.entries.len(), g.len());
        assert!(
            healed.result.makespan_us < blind.makespan_us,
            "healed {} must beat blind {}",
            healed.result.makespan_us,
            blind.makespan_us
        );
        let heal = &healed.result.heal;
        assert!(
            heal.verdicts
                .iter()
                .any(|v| v.kind == VerdictKind::Straggler && v.node == 0),
            "monitor must convict the straggler: {:?}",
            heal.verdicts
        );
        assert!(heal.breaker_opens >= 1, "breaker must open");
        assert!(heal.migrations >= 1, "work must migrate off the straggler");
        assert!(!healed.checkpoints.is_empty(), "default policy checkpoints");
    }

    #[test]
    fn probes_readmit_recovered_nodes_and_retrip_slow_ones() {
        let g = fork_join(36, 1_000.0, 0);
        let s = Scheduler::new(Cluster::homogeneous(3, 1), Policy::Heft);
        let config = RecoveryConfig::default();
        let policy = HealPolicy {
            health: HealthConfig {
                min_samples: 1,
                ..HealthConfig::default()
            },
            breaker: BreakerConfig {
                open_us: 2_000.0,
                ..BreakerConfig::default()
            },
            ..HealPolicy::default()
        };
        // Transient gray slowness: by probe time the node is healthy
        // again, so the probe closes the breaker and work returns.
        let transient = FaultPlan::new(5).with_fault(FaultSpec::new(
            0.0,
            0,
            FaultKind::SlowNode {
                factor: 10.0,
                duration_us: 8_000.0,
            },
        ));
        let healed = s.run_self_healing(&g, &transient, &config, &policy);
        assert!(healed.result.heal.probes >= 1, "breaker must probe");
        assert_eq!(
            healed.result.heal.probe_failures, 0,
            "recovered node's probe must succeed"
        );
        let reopened = healed
            .result
            .entries
            .iter()
            .filter(|e| e.node == 0 && e.start_us > 10_000.0)
            .count();
        assert!(reopened >= 1, "closed breaker must readmit work");

        // Permanent gray slowness: the probe is still slow, so the
        // breaker re-trips with a longer window.
        let permanent = straggler_plan(5, 10.0);
        let still_slow = s.run_self_healing(&g, &permanent, &config, &policy);
        assert!(still_slow.result.heal.probes >= 1);
        assert!(
            still_slow.result.heal.probe_failures >= 1,
            "still-degraded probe must fail: {:?}",
            still_slow.result.heal
        );
        assert!(still_slow.result.heal.breaker_opens >= 2, "re-trip");
    }

    #[test]
    fn self_healing_is_deterministic_across_replays() {
        let g = fork_join(24, 1_200.0, 1 << 14);
        let s = Scheduler::new(Cluster::homogeneous(3, 1), Policy::Heft);
        let plan = FaultPlan::random_gray_campaign(19, 3, 20_000.0, 4);
        let config = RecoveryConfig::default();
        let a = s.run_self_healing(&g, &plan, &config, &heal_policy());
        let b = s.run_self_healing(&g, &plan, &config, &heal_policy());
        assert_eq!(a.result, b.result);
        assert_eq!(a.checkpoints.len(), b.checkpoints.len());
    }

    #[test]
    fn resume_from_any_checkpoint_reproduces_the_uninterrupted_run() {
        let g = fork_join(30, 900.0, 1 << 12);
        let s = Scheduler::new(Cluster::homogeneous(4, 1), Policy::Heft);
        let plan = straggler_plan(23, 5.0);
        let config = RecoveryConfig::default();
        let policy = heal_policy();
        let full = s.run_self_healing(&g, &plan, &config, &policy);
        assert!(
            full.checkpoints.len() >= 2,
            "expected several checkpoints, got {}",
            full.checkpoints.len()
        );
        for ckpt in &full.checkpoints {
            let resumed = s.resume_self_healing(&g, &plan, &config, &policy, ckpt);
            assert_eq!(
                resumed, full.result,
                "resume from completed={} must match",
                ckpt.completed_tasks
            );
        }
    }

    #[test]
    fn checkpointed_crash_campaign_resumes_identically() {
        let g = fork_join(16, 1_500.0, 1 << 12);
        let s = Scheduler::new(Cluster::homogeneous(4, 1), Policy::Heft);
        let config = RecoveryConfig::default();
        let policy = HealPolicy {
            checkpoint_every_tasks: 5,
            ..heal_policy()
        };
        let campaign = FaultPlan::random_campaign(42, 4, 9_000.0, 5);
        // The campaign's own crash strands nothing; killing the source's
        // node once its output is in flight makes the lineage fixpoint
        // re-run the source, so checkpoints of a later pass get resumed.
        let src_node = s.run(&g).entries[0].node;
        let stranding =
            campaign
                .clone()
                .with_fault(FaultSpec::new(1_000.0, src_node, FaultKind::NodeCrash));
        for (plan, strands) in [(campaign, false), (stranding, true)] {
            let full = s.run_self_healing(&g, &plan, &config, &policy);
            assert_eq!(full.result.recovered_tasks > 0, strands);
            assert!(full.checkpoints.len() >= 2, "expected several checkpoints");
            assert!(full
                .checkpoints
                .iter()
                .all(|c| c.state.forced.contains(&true) == strands));
            for ckpt in &full.checkpoints {
                let resumed = s.resume_self_healing(&g, &plan, &config, &policy, ckpt);
                assert_eq!(
                    resumed, full.result,
                    "resume from completed={} must match",
                    ckpt.completed_tasks
                );
            }
        }
    }

    #[test]
    fn cores_beyond_every_node_are_clipped_under_both_policies() {
        let mut g = TaskGraph::new();
        let small = g.add(TaskSpec::new("small", 100.0)).unwrap();
        let mut wide = TaskSpec::new("wide", 1_000.0).after([small]);
        wide.cores = 64;
        g.add(wide).unwrap();
        for policy in [Policy::RoundRobin, Policy::Heft] {
            let r = Scheduler::new(Cluster::homogeneous(2, 4), policy).run(&g);
            assert_eq!(
                r.entries.len(),
                g.len(),
                "{policy:?} must place the wide task"
            );
        }
    }

    /// Two crashes on a two-node cluster, before the work is done.
    fn crash_every_node(policy: Policy) {
        let g = fork_join(6, 1_000.0, 1 << 10);
        let s = Scheduler::new(Cluster::homogeneous(2, 1), policy);
        let plan = FaultPlan::single_node_crash(0, 0, 500.0).with_fault(FaultSpec::new(
            500.0,
            1,
            FaultKind::NodeCrash,
        ));
        s.run_with_plan(&g, &plan, &RecoveryConfig::default());
    }

    #[test]
    #[should_panic(expected = "scheduler deadlock")]
    fn heft_deadlocks_when_the_plan_crashes_every_node() {
        crash_every_node(Policy::Heft);
    }

    #[test]
    #[should_panic(expected = "scheduler deadlock")]
    fn round_robin_deadlocks_when_the_plan_crashes_every_node() {
        crash_every_node(Policy::RoundRobin);
    }

    #[test]
    fn stranded_data_is_recomputed() {
        // src on some node produces data consumed late; if src's node dies
        // before the consumer starts, src must be re-executed elsewhere.
        let mut g = TaskGraph::new();
        let src = g
            .add(TaskSpec::new("src", 100.0).with_output_bytes(1 << 20))
            .unwrap();
        // long independent chain keeps the cluster busy
        let mut prev = g.add(TaskSpec::new("c0", 5_000.0)).unwrap();
        for i in 1..4 {
            prev = g
                .add(TaskSpec::new(&format!("c{i}"), 5_000.0).after([prev]))
                .unwrap();
        }
        g.add(TaskSpec::new("late", 100.0).after([src, prev]))
            .unwrap();
        let s = Scheduler::new(Cluster::homogeneous(2, 1), Policy::Heft);
        let clean = s.run(&g);
        let src_node = clean.entries.iter().find(|e| e.task == src).unwrap().node;
        let crash = FaultPlan::single_node_crash(0, src_node, 1_000.0);
        let failed = s.run_with_plan(&g, &crash, &RecoveryConfig::default());
        assert!(
            failed.recovered_tasks >= 1,
            "src output stranded on dead node must be recomputed"
        );
        assert_eq!(failed.entries.len(), g.len());
    }
}
