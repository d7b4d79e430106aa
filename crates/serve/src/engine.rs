//! The serving engine: a seeded discrete-event simulation that pushes
//! an open-loop arrival trace through admission control, weighted-fair
//! queueing and dynamic batching onto a heterogeneous cluster.
//!
//! # Determinism
//!
//! The engine is a pure function of its [`ServeConfig`] and
//! [`everest_faults::FaultPlan`]: the clock is virtual, every random
//! draw comes from forked [`everest_faults::DetRng`] substreams, the
//! event queue breaks timestamp ties by insertion sequence, and all
//! float orderings use `f64::total_cmp`. Two runs with the same inputs
//! produce identical [`ServeOutcome`]s — the property `basecamp serve`
//! replays and CI diffs byte-for-byte.
//!
//! # Hot path
//!
//! The event loop is the SDK's throughput ceiling (the `serve_*`
//! benchmark workloads measure it in wall events per second), so the
//! engine keeps it allocation- and string-free:
//!
//! * arrivals are neither heap events nor a stored trace — the engine
//!   takes them from an [`ArrivalStream`], whose tenant lanes each draw
//!   a block of arrivals ahead in one tight loop and whose merge keeps
//!   one flat array of head times, and compares the stream's next
//!   arrival time (`ArrivalStream::peek_us`) with the next event's
//!   (arrivals win timestamp ties);
//! * batch wait-deadlines are not heap events either: a class has at
//!   most one open batch, so its pending deadline sits in the class's
//!   lane, keyed from the event queue's own sequence counter
//!   ([`everest_runtime::EventQueue::claim_key`]) and merged with the
//!   heap's head by key, and a batch that closes on size just empties
//!   its lane — no push, no cancel;
//! * the remaining dynamic events (completions, hedge timers, retries,
//!   faults, gossip rounds) live in an indexed
//!   [`everest_runtime::EventQueue`], and the engine *cancels* events
//!   that can no longer matter — the completion of a batch a fault
//!   already failed, the losing leg of a hedge race — instead of
//!   popping tombstones; the queue keeps each event's `(time,
//!   sequence)` key inline in its heap, so sifting never reads the slot
//!   table;
//! * an admitted request that nothing waits ahead of, arriving while
//!   the batcher holds fewer ready batches than there are nodes, skips
//!   the fair queue: its SFQ tags are booked as a push then pop would
//!   book them (`WeightedFairQueue::pass_through`) and it goes
//!   straight to the batcher, so the fair queue only ever holds a
//!   backlog;
//! * the pump stops at the first dispatch that starts nothing after a
//!   pull, which is its fixed point, and an empty fair queue answers a
//!   pop at once;
//! * a settled batch hands its request vector back to the batcher for
//!   the next batch to open into;
//! * the `serve.*` / `cluster.*` counters that mirror a
//!   [`ServeOutcome`] field are not touched per event at all: they are
//!   published once, by name, from the counter ledger
//!   ([`crate::ledger`]) after the loop drains. Only the instruments
//!   recorded at event time (`serve.faults`, three gauges, three
//!   histograms) hold pre-resolved handles; the two per-request
//!   histograms are deterministically sampled, and every histogram and
//!   monitor handle buffers its samples and takes its cell's lock once
//!   per 16 of them, flushed when the loop drains;
//! * the [`HealthMonitor`] a completion feeds keeps bounded windows and
//!   refits a one-feature z-score on a flat window that keeps its
//!   capacity, skips the mean and slope that a window of exact `1.0`
//!   samples makes trivial, and skips a refit whose window is bit for
//!   bit the one it last fit on;
//! * the autotuner is fed through resolved slots, cached per class
//!   until a retune changes the active operating point, and decides by
//!   point index.
//!
//! Once warm, a completion allocates nothing but the outcome's own
//! records (`crates/serve/tests/memory.rs` holds a nominal campaign to
//! a small fraction of an allocation a batch). The locks it takes are
//! the tuner's two windows, which publish each observation at once
//! because `Autotuner::monitor` reads them back, and one per 16
//! samples of each buffered handle.
//!
//! Cancelling stale events (and emptying a deadline lane) is
//! outcome-preserving: a stale pop only re-runs the pull/dispatch pump
//! at a later virtual time, and the pump is at a fixed point whenever
//! no node freed and no breaker cooldown elapsed in between —
//! conditions that can only change at a *live* event. `end_us` is the
//! latest time any event or deadline was ever scheduled for, tracked as
//! they are set, so it does not depend on which of them were cancelled.
//!
//! # Memory
//!
//! Apart from the [`ServeOutcome`] it returns, the engine holds what is
//! in flight and nothing else: the arrival stream keeps one drawn-ahead
//! block of at most [`ArrivalStream::BLOCK`] arrivals per tenant, in
//! arrays inline in its lanes, the fair queues are bounded by the
//! admission depth limit, the deadline lanes are one slot per class,
//! and the one table keyed by batch id (in-flight batches) recycles a
//! slot as soon as its batch settles, so it never outgrows one entry
//! per node. A campaign four times as long needs no more memory to
//! run, only a longer outcome.
//!
//! # What the loop holds, and what it asks
//!
//! The loop's own state is the clock and event queue, the door
//! ([`crate::admission`]), the fair queues ([`crate::wfq`]), the batcher
//! ([`crate::batcher`]) and the nodes with their
//! [`CircuitBreaker`]s and in-flight legs; a [`HealthMonitor`] convicts
//! gray failures from achieved batch inflation and trips the breakers,
//! and a [`FaultPlan`] injects crashes, transient errors and gray
//! degradations (the placement model stays gray-blind while actual
//! timings inflate). Everything else is a component the loop asks:
//!
//! * `Lifecycle` — retry budgets with seeded backoff, hedge delays,
//!   the AIMD limiter and the brownout ladder. Always present; each
//!   answer is the neutral one when its feature is off, so a config
//!   without lifecycle features runs exactly the plain loop.
//! * batch tuning — one mARGOt tuner per kernel class; the loop
//!   reports finished batches and applies the ceiling a retune picks,
//!   capped by the brownout tier.
//! * `everest-cluster`'s [`ClusterController`], when
//!   [`ServeConfig::cluster`] is set — SWIM-style gossip on the virtual
//!   clock (the `GossipRound` event) and leased shard ownership. The
//!   loop asks who owns a tenant's shard (no live lease: shed typed,
//!   [`ShedReason::PartitionedAway`]), whether a node is dispatchable,
//!   the fencing epoch to stamp on a leg, and whether a node is
//!   confirmed dead. A confirm flows into the health pipeline as a
//!   [`VerdictKind::Unreachable`] verdict and *fences* the node's
//!   in-flight leg: its completion is cancelled (the partitioned
//!   node's eventual result can never double-count) and its requests
//!   re-enter the fair queue.

use std::sync::Arc;

use everest_cluster::{ClusterController, GOSSIP_PERIOD_US};
use everest_faults::{FaultKind, FaultPlan};
use everest_health::{
    Admission as BreakerAdmission, BreakerConfig, BreakerState, CircuitBreaker, HealthMonitor,
    VerdictKind,
};
use everest_runtime::{EventKey, EventQueue, EventToken};
use everest_telemetry::{CounterHandle, GaugeHandle, HistogramHandle, Registry};

use crate::admission::AdmissionController;
use crate::batcher::{DynamicBatcher, OfferOutcome};
use crate::config::ServeConfig;
use crate::ledger::{BatchRecord, Layer, Metric, ServeOutcome, TenantOutcome};
use crate::lifecycle::{Lifecycle, Retry};
use crate::pricing::Pricing;
use crate::request::{ArrivalStream, Request, ShedReason};
use crate::tuning::BatchTuning;
use crate::wfq::WeightedFairQueue;

/// The serving engine. Build one from a [`ServeConfig`], optionally
/// attach a fault plan and a shared telemetry registry, then
/// [`ServeEngine::run`].
#[derive(Debug)]
pub struct ServeEngine {
    config: ServeConfig,
    plan: FaultPlan,
    registry: Arc<Registry>,
}

impl ServeEngine {
    /// An engine with no faults and a private telemetry registry.
    pub fn new(config: ServeConfig) -> ServeEngine {
        let seed = config.seed;
        ServeEngine {
            config,
            plan: FaultPlan::new(seed),
            registry: Registry::new(),
        }
    }

    /// Injects a chaos plan into the run.
    #[must_use]
    pub fn with_plan(mut self, plan: FaultPlan) -> ServeEngine {
        self.plan = plan;
        self
    }

    /// Records telemetry into a shared registry (e.g. the process
    /// global behind `basecamp --trace`).
    #[must_use]
    pub fn with_registry(mut self, registry: Arc<Registry>) -> ServeEngine {
        self.registry = registry;
        self
    }

    /// Runs the simulation to completion (arrivals exhausted and the
    /// admitted backlog fully drained).
    ///
    /// # Panics
    ///
    /// Panics when the configuration does not [`ServeConfig::validate`];
    /// callers holding outside input check it first.
    pub fn run(&self) -> ServeOutcome {
        if let Err(error) = self.config.validate() {
            panic!("invalid serve configuration: {error}");
        }
        let span = self.registry.span("serve.run");
        span.arg("seed", self.config.seed as f64)
            .arg("nodes", self.config.nodes as f64)
            .arg("offered_rps", self.config.offered_rps);
        let sim = Sim::new(&self.config, &self.plan, self.registry.clone());
        let outcome = sim.run();
        span.arg("completed", outcome.completed as f64)
            .arg("shed", outcome.shed_total() as f64)
            .record_sim_us(outcome.end_us);
        outcome
    }
}

// ---------------------------------------------------------------------
// Events and telemetry
// ---------------------------------------------------------------------

/// Dynamic events on the indexed queue. Arrivals and batch
/// wait-deadlines are deliberately not events: the arrival stream and
/// the per-class deadline lanes are merged in by look-ahead.
#[derive(Debug)]
enum EventKind {
    /// A leg of `batch` finished. `hedged` marks the event scheduled
    /// for a hedge duplicate; after a primary-leg fault promotes the
    /// duplicate, its (still `hedged`) event completes the batch.
    Completion {
        batch: u64,
        hedged: bool,
    },
    Fault(usize),
    /// The hedge delay for `batch` elapsed with the batch still in
    /// flight: dispatch a duplicate if a healthy idle node exists.
    HedgeTimer {
        batch: u64,
    },
    /// A fault-failed request re-enters the fair queue after backoff.
    Retry(Request),
    /// One membership round: probe, merge, expire suspects, renew or
    /// fail over leases. Scheduled only when the cluster layer is on;
    /// reschedules itself while the run still has work to converge on.
    GossipRound,
}

/// A batch's pending wait-deadline. A class has at most one open batch,
/// so it has at most one of these, kept in its lane of
/// [`Sim::deadlines`] rather than pushed on the event queue and
/// cancelled when the batch closes on size. Its key comes from the
/// queue's own sequence counter ([`EventQueue::claim_key`]), so it
/// pops against the queue's events exactly as a pushed event would.
#[derive(Debug, Clone, Copy)]
struct Deadline {
    key: EventKey,
    batch: u64,
}

/// What the loop handles next: the earliest of the arrival stream's
/// head, the deadline lanes and the event queue's head.
#[derive(Debug)]
enum Next {
    Arrival(Request),
    Deadline { class: usize, batch: u64 },
    Queued(EventKind),
}

/// Every Nth per-request observation lands in the `serve.queue_wait_us`
/// and `serve.latency_us` histograms (deterministic, not randomized —
/// replays stay byte-identical). Counters and the outcome's exact
/// latency vector are never sampled.
const REQUEST_SAMPLE_EVERY: u64 = 8;

/// Pre-resolved handles for the `serve.*` instruments recorded at
/// event time: one name lookup each at construction, no lookups on the
/// hot path. Every other `serve.*` / `cluster.*` metric mirrors a
/// [`ServeOutcome`] counter and is published once, by name, from the
/// ledger ([`Sim::flush_metrics`]).
#[derive(Debug)]
struct ServeMetrics {
    faults: CounterHandle,
    queue_depth: GaugeHandle,
    /// Last depth stored to `queue_depth`; the store is skipped while
    /// the depth is unchanged.
    last_depth: usize,
    brownout_tier: GaugeHandle,
    limiter_limit: GaugeHandle,
    queue_wait_us: HistogramHandle,
    latency_us: HistogramHandle,
    batch_size: HistogramHandle,
}

impl ServeMetrics {
    fn new(registry: &Registry) -> ServeMetrics {
        ServeMetrics {
            faults: registry.counter_handle("serve.faults"),
            queue_depth: registry.gauge_handle("serve.queue_depth"),
            last_depth: usize::MAX,
            brownout_tier: registry.gauge_handle("serve.brownout.tier"),
            limiter_limit: registry.gauge_handle("serve.limiter.limit"),
            queue_wait_us: registry
                .histogram_handle_sampled("serve.queue_wait_us", REQUEST_SAMPLE_EVERY),
            latency_us: registry.histogram_handle_sampled("serve.latency_us", REQUEST_SAMPLE_EVERY),
            batch_size: registry.histogram_handle("serve.batch_size"),
        }
    }

    fn publish_depth(&mut self, depth: usize) {
        if depth != self.last_depth {
            self.last_depth = depth;
            self.queue_depth.set(depth as f64);
        }
    }
}

// ---------------------------------------------------------------------
// Simulation state
// ---------------------------------------------------------------------

#[derive(Debug)]
struct NodeState {
    fpga: bool,
    crashed: bool,
    /// The batch whose leg is executing here; an alive node with none
    /// is idle.
    current: Option<u64>,
    breaker: CircuitBreaker,
}

/// One execution of a batch on one node. A batch always has a primary
/// leg; while a hedge race is on it also has a duplicate. Exactly one
/// duplicate may exist per batch (the hedge timer fires once);
/// whichever leg completes first wins and the other is cancelled.
#[derive(Debug)]
struct Leg {
    node: usize,
    start_us: f64,
    expected_us: f64,
    actual_us: f64,
    fpga_path: bool,
    record: usize,
    /// The scheduled completion event, cancelled if the leg is lost to
    /// a fault or a fence first, or the other leg wins the race.
    completion: EventToken,
}

/// Why a leg stopped before its completion event: the one difference
/// between a fault and a membership fence is how the loss is recorded
/// and what becomes of a sole leg's requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LegLoss {
    /// A fault killed the leg: the record is `failed`, and a sole
    /// leg's requests are retried or failed.
    Fault,
    /// A membership confirm fenced the node: the record is `fenced`,
    /// and a sole leg's requests re-enter the fair queue.
    Fence,
}

#[derive(Debug)]
struct Inflight {
    class: usize,
    requests: Vec<Request>,
    probe: bool,
    /// The leg whose completion settles the batch.
    primary: Leg,
    /// The hedge duplicate, once one has been dispatched. Promoted to
    /// `primary` when it wins the race or the primary leg is lost.
    hedge: Option<Leg>,
    /// Pending hedge-delay timer, cancelled when the batch reaches a
    /// terminal state (or consumed when it fires).
    hedge_timer: Option<EventToken>,
}

/// A side table keyed by batch id that holds live entries only. Empty
/// slots are recycled before the table grows, so its length is the
/// most entries that were ever live at once.
#[derive(Debug)]
struct LiveTable<T>(Vec<(u64, Option<T>)>);

impl<T> LiveTable<T> {
    /// Get-or-create the slot of batch `id`: the batch's live entry if
    /// it has one, else an empty slot now keyed to `id`. A stale id
    /// finds `None` as it would in a dense table.
    fn slot(&mut self, id: u64) -> &mut Option<T> {
        let table = &mut self.0;
        let index = (table.iter())
            .position(|(key, value)| *key == id && value.is_some())
            .or_else(|| table.iter().position(|(_, value)| value.is_none()))
            .unwrap_or_else(|| {
                table.push((id, None));
                table.len() - 1
            });
        let (key, value) = &mut table[index];
        *key = id;
        value
    }

    /// The live entry of batch `id`, if any.
    fn get(&self, id: u64) -> Option<&T> {
        (self.0.iter()).find_map(|(key, value)| value.as_ref().filter(|_| *key == id))
    }
}

struct Sim<'a> {
    cfg: &'a ServeConfig,
    plan: &'a FaultPlan,
    registry: Arc<Registry>,
    metrics: ServeMetrics,
    queue: EventQueue<EventKind>,
    /// The open-loop workload, drawn as the loop consumes it; its
    /// `peek_us` is the merge's look-ahead.
    arrivals: ArrivalStream,
    /// Max time any dynamic event was ever scheduled for; keeps
    /// `end_us` independent of which stale events were cancelled.
    max_sched_us: f64,
    admission: AdmissionController,
    wfq: WeightedFairQueue,
    batcher: DynamicBatcher,
    nodes: Vec<NodeState>,
    /// Batches executing, keyed by batch id: at most one per node.
    inflight: LiveTable<Inflight>,
    /// Batches currently executing (primary legs; hedge duplicates do
    /// not count — the limiter bounds admitted work, not copies).
    inflight_count: usize,
    /// The pending wait-deadline of each class's open batch, if any.
    deadlines: Vec<Option<Deadline>>,
    pricing: Pricing,
    monitor: HealthMonitor,
    lifecycle: Lifecycle,
    tuning: BatchTuning,
    /// Partition-tolerant membership + shard leases, when enabled.
    membership: Option<ClusterController>,
    /// Retry events scheduled but not yet fired; a term of the running
    /// conservation check only.
    #[cfg(debug_assertions)]
    pending_retries: u64,
    /// Dispatch scratch (reused across pumps; no per-batch allocation).
    scratch_idle: Vec<usize>,
    scratch_admitted: Vec<usize>,
    outcome: ServeOutcome,
}

impl<'a> Sim<'a> {
    fn new(cfg: &'a ServeConfig, plan: &'a FaultPlan, registry: Arc<Registry>) -> Sim<'a> {
        let pricing = Pricing::new(cfg.nodes, plan);
        let nodes = (pricing.cluster.nodes.iter())
            .map(|spec| NodeState {
                fpga: spec.fpga.is_some(),
                crashed: false,
                current: None,
                breaker: CircuitBreaker::new(BreakerConfig::default()),
            })
            .collect();
        let weights: Vec<f64> = cfg.tenants.iter().map(|t| t.weight).collect();
        let monitor = HealthMonitor::new(cfg.nodes, cfg.health.clone(), cfg.seed, registry.clone());
        let tenants = (cfg.tenants.iter())
            .map(|t| TenantOutcome {
                name: t.name.clone(),
                weight: t.weight,
                ..TenantOutcome::default()
            })
            .collect();
        Sim {
            cfg,
            plan,
            metrics: ServeMetrics::new(&registry),
            queue: EventQueue::with_capacity(64 + plan.len()),
            arrivals: ArrivalStream::new(
                cfg.seed,
                &cfg.tenants,
                &cfg.classes,
                cfg.horizon_us,
                cfg.offered_rps,
            ),
            max_sched_us: 0.0,
            admission: AdmissionController::new(&cfg.tenants, &cfg.classes, &cfg.admission),
            wfq: WeightedFairQueue::new(&weights),
            batcher: DynamicBatcher::new(&cfg.batch),
            nodes,
            inflight: LiveTable(Vec::with_capacity(cfg.nodes)),
            inflight_count: 0,
            deadlines: vec![None; cfg.classes.len()],
            monitor,
            lifecycle: Lifecycle::new(cfg, plan),
            tuning: BatchTuning::new(cfg, &pricing, &registry),
            pricing,
            membership: (cfg.cluster.is_some()).then(|| ClusterController::new(cfg.nodes, plan)),
            #[cfg(debug_assertions)]
            pending_retries: 0,
            scratch_idle: Vec::with_capacity(cfg.nodes),
            scratch_admitted: Vec::with_capacity(cfg.nodes),
            outcome: ServeOutcome {
                tenants,
                horizon_us: cfg.horizon_us,
                final_max_batch: cfg.batch.iter().map(|p| p.max_batch).collect(),
                ..ServeOutcome::default()
            },
            registry,
        }
    }

    fn push_event(&mut self, at_us: f64, kind: EventKind) -> EventToken {
        self.max_sched_us = self.max_sched_us.max(at_us);
        self.queue.push(at_us, kind)
    }

    /// Runs the loop and returns the outcome.
    fn run(mut self) -> ServeOutcome {
        self.drain();
        self.outcome
    }

    /// Runs the event loop until arrivals are exhausted and the backlog
    /// has drained, then completes `self.outcome`.
    fn drain(&mut self) {
        for (index, fault) in self.plan.faults().iter().enumerate() {
            self.push_event(fault.at_us, EventKind::Fault(index));
        }
        if self.membership.is_some() {
            self.push_event(GOSSIP_PERIOD_US, EventKind::GossipRound);
        }
        if self.cfg.autotune {
            for class in 0..self.cfg.classes.len() {
                self.retune(class, 0.0);
            }
        }
        let mut now = 0.0_f64;
        loop {
            #[cfg(debug_assertions)]
            self.assert_running_conservation();
            let Some((at_us, next)) = self.next() else {
                break;
            };
            now = now.max(at_us);
            match next {
                Next::Arrival(request) => {
                    if !self.handle_arrival(request, now) {
                        // Shed at the door: no queue, batcher or node
                        // state changed, so the pump below would run
                        // straight to its entry fixed point. Skipping it
                        // here keeps the (dominant, at saturation) shed
                        // path free of the pull/dispatch scan. The one
                        // time-dependent admit condition — a breaker
                        // cooldown expiring — is re-checked at the next
                        // state-changing event.
                        continue;
                    }
                }
                Next::Deadline { class, batch } => {
                    self.batcher.expire(class, batch, now);
                }
                Next::Queued(kind) => match kind {
                    EventKind::Completion { batch, hedged } => {
                        self.handle_completion(batch, hedged, now);
                    }
                    EventKind::Fault(index) => self.handle_fault(index, now),
                    EventKind::HedgeTimer { batch } => self.handle_hedge_timer(batch, now),
                    EventKind::Retry(request) => self.handle_retry(request),
                    EventKind::GossipRound => self.handle_gossip(now),
                },
            }
            self.pump(now);
            self.metrics.publish_depth(self.queue_depth());
        }
        debug_assert!(
            self.deadlines.iter().all(Option::is_none),
            "no deadline pending"
        );
        debug_assert!(self.wfq.is_empty(), "fair queues drained");
        debug_assert_eq!(self.batcher.pending(), 0, "batcher drained");
        debug_assert!(
            self.inflight.0.iter().all(|(_, slot)| slot.is_none()),
            "no work in flight"
        );
        debug_assert_eq!(self.inflight_count, 0, "inflight count drained");
        self.flush_metrics();
        self.outcome.end_us = now.max(self.max_sched_us).max(self.cfg.horizon_us);
        self.outcome.final_max_batch = (0..self.cfg.classes.len())
            .map(|c| self.batcher.max_batch(c))
            .collect();
    }

    /// Takes what happens next, with its virtual time: the arrival
    /// stream's head, the earliest deadline lane or the event queue's
    /// head. Arrivals win timestamp ties. A deadline and a queued event
    /// order by key, and their keys share the queue's sequence counter,
    /// so at one virtual time they come out in the order they were
    /// scheduled.
    fn next(&mut self) -> Option<(f64, Next)> {
        let lane = (self.deadlines.iter().enumerate())
            .filter_map(|(class, deadline)| Some((class, (*deadline)?)))
            .min_by_key(|(_, deadline)| deadline.key);
        let event_key = match (self.queue.peek_key(), lane) {
            (Some(queued), Some((_, deadline))) => Some(queued.min(deadline.key)),
            (queued, lane) => queued.or(lane.map(|(_, deadline)| deadline.key)),
        };
        if (self.arrivals.peek_us())
            .is_some_and(|at_us| event_key.is_none_or(|key| at_us <= key.at_us()))
        {
            let request = self.arrivals.next()?;
            return Some((request.arrival_us, Next::Arrival(request)));
        }
        let key = event_key?;
        match lane {
            Some((class, deadline)) if deadline.key == key => {
                self.deadlines[class] = None;
                let batch = deadline.batch;
                Some((key.at_us(), Next::Deadline { class, batch }))
            }
            _ => (self.queue.pop()).map(|(at_us, kind)| (at_us, Next::Queued(kind))),
        }
    }

    fn queue_depth(&self) -> usize {
        self.wfq.len() + self.batcher.pending()
    }

    /// Whether every node has crashed: the pump then fails the backlog
    /// instead of moving it.
    fn cluster_lost(&self) -> bool {
        self.nodes.iter().all(|n| n.crashed)
    }

    /// The conservation equations, checked between events rather than
    /// only at the end of the run: every offered request is admitted
    /// or shed at the door, and every admitted request is terminal or
    /// still in the system — queued, batched, executing, or waiting
    /// out a retry backoff. Debug builds only.
    #[cfg(debug_assertions)]
    fn assert_running_conservation(&self) {
        use crate::ledger::Role;
        let o = &self.outcome;
        let refused = o.role_sum(Role::DoorShed);
        assert_eq!(o.offered, o.admitted + refused, "door equation");
        // Each executing batch counts once, on its primary leg's node.
        let executing: usize = (self.nodes.iter().enumerate())
            .filter_map(|(index, node)| {
                let inflight = self.inflight.get(node.current?)?;
                (inflight.primary.node == index).then_some(inflight.requests.len())
            })
            .sum();
        let in_system = (self.queue_depth() + executing) as u64 + self.pending_retries;
        let settled = o.role_sum(Role::Terminal) + o.role_sum(Role::QueueShed);
        assert_eq!(o.admitted, settled + in_system, "queue equation");
    }

    /// End of run: the membership layer's totals join the outcome, then
    /// every ledger counter that has a telemetry mirror is published,
    /// by name, plus the few flushed values that have no outcome field.
    /// Publishing once after the drain instead of incrementing per
    /// request keeps the final registry values identical while keeping
    /// atomic adds (and, here, name lookups) off every arrival and
    /// completion. `cluster.*` rows are skipped with the layer off, so
    /// a features-off run registers none of them. `serve.faults` (no
    /// outcome mirror) and the histograms are recorded at event time;
    /// what their handles and the health monitor's still buffer is
    /// flushed last.
    fn flush_metrics(&mut self) {
        let (o, registry) = (&mut self.outcome, &self.registry);
        if let Some(ctrl) = &self.membership {
            let (swim, lease) = (ctrl.swim_stats(), ctrl.lease_stats());
            o.gossip_rounds = swim.rounds;
            o.suspects = swim.suspects;
            o.confirms = swim.confirms;
            o.refutations = swim.refutations;
            o.failovers = lease.failovers;
            o.degraded_grants = lease.degraded_grants;
            o.cluster_epoch = ctrl.fencing_epoch();
            registry.counter_add("cluster.probes", swim.probes);
            registry.counter_add("cluster.probe_failures", swim.probe_failures);
            registry.counter_add("cluster.lease_renewals", lease.renewals);
        }
        for (row, value) in o.ledger() {
            if row.layer == Layer::Cluster && self.membership.is_none() {
                continue;
            }
            match row.metric {
                Metric::Counter(name) => registry.counter_add(name, value),
                Metric::Gauge(name) => registry.gauge_set(name, value as f64),
                Metric::None => {}
            }
        }
        registry.counter_add("serve.requests_shed", o.shed_total());
        registry.counter_add("serve.batches_dispatched", o.batches.len() as u64);
        // What the buffered handles still hold: all of it is visible
        // before [`ServeEngine::run`] returns.
        self.metrics.queue_wait_us.flush();
        self.metrics.latency_us.flush();
        self.metrics.batch_size.flush();
        self.monitor.flush();
    }

    // -- arrivals ------------------------------------------------------

    /// Returns `true` when the request was admitted (and so changed
    /// queue state); `false` when it was shed at the door.
    fn handle_arrival(&mut self, request: Request, now: f64) -> bool {
        self.outcome.offered += 1;
        self.outcome.tenants[request.tenant].offered += 1;
        // A tier-3 brownout sheds the lowest-weight tenants before any
        // stateful admission check: the sacrifice is a policy fact, so
        // it burns neither a token nor a queue slot.
        let verdict = if self.lifecycle.sheds_at_door(request.tenant) {
            Err(ShedReason::Brownout)
        } else if (self.membership.as_ref())
            .is_some_and(|c| c.tenant_owner(request.tenant, now).is_none())
        {
            // No live lease over the tenant's shard means no node is
            // authorized to execute its work: refuse at the door,
            // typed, before a token or queue slot is spent.
            // Availability returns when the shard fails over (or
            // degraded mode re-grants it).
            Err(ShedReason::PartitionedAway)
        } else {
            let (depth, cap) = (self.queue_depth(), self.lifecycle.door_cap());
            (self.admission).admit(request.tenant, request.class, now, depth, cap)
        };
        if let Err(reason) = verdict {
            self.shed(&request, reason);
            return false;
        }
        self.outcome.admitted += 1;
        self.outcome.tenants[request.tenant].admitted += 1;
        // With nothing queued ahead and room among the ready batches,
        // the pump's pull would pop this request straight back out:
        // hand it to the batcher now, its fair-queue tags booked as
        // that push and pop would book them.
        if self.wfq.is_empty()
            && self.batcher.ready_len() < self.nodes.len()
            && !self.cluster_lost()
        {
            self.wfq.pass_through(&request);
            self.enter_batcher(request, now);
        } else {
            self.wfq.push(request);
        }
        true
    }

    fn shed(&mut self, request: &Request, reason: ShedReason) {
        *self.outcome.shed_slot(reason) += 1;
        self.outcome.tenants[request.tenant].shed += 1;
    }

    fn fail(&mut self, request: &Request) {
        self.outcome.failed += 1;
        self.outcome.tenants[request.tenant].failed += 1;
    }

    // -- the pump: queues → batcher → nodes ----------------------------

    /// Work-conserving transfer: shed lapsed requests, keep the batcher
    /// stocked (bounded so WFQ backlog builds queue-depth backpressure
    /// instead of hiding inside batches), dispatch ready batches onto
    /// idle breaker-admitted nodes. Runs to a fixed point at each event.
    ///
    /// A pull leaves the fair queues empty or the ready batches at one
    /// per node; a dispatch that then starts nothing changes neither,
    /// so another pull would find nothing to do: that is the fixed
    /// point, with no confirming pass.
    fn pump(&mut self, now: f64) {
        if self.cluster_lost() {
            self.drain_all_failed();
            return;
        }
        loop {
            self.pull(now);
            if self.dispatch(now) == 0 {
                break;
            }
        }
    }

    fn pull(&mut self, now: f64) {
        while self.batcher.ready_len() < self.nodes.len() {
            let Some(request) = self.wfq.pop() else {
                break;
            };
            self.enter_batcher(request, now);
        }
    }

    /// Moves a request the fair queue released into the batcher, or
    /// sheds it if its deadline has lapsed. A batch the offer opens
    /// gets a wait-deadline in its class's lane; a batch it closes on
    /// size drops its deadline, which can no longer matter.
    fn enter_batcher(&mut self, request: Request, now: f64) {
        let class = request.class;
        if now > request.arrival_us + self.cfg.classes[class].deadline_us {
            self.shed(&request, ShedReason::DeadlineLapsed);
            return;
        }
        match self.batcher.offer(request, now) {
            OfferOutcome::Opened(batch) => {
                let at_us = now + self.batcher.max_wait_us(class);
                self.max_sched_us = self.max_sched_us.max(at_us);
                let key = self.queue.claim_key(at_us);
                debug_assert!(self.deadlines[class].is_none(), "one open batch a class");
                self.deadlines[class] = Some(Deadline { key, batch });
            }
            OfferOutcome::Closed(batch) => {
                let dropped = self.deadlines[class].take();
                debug_assert!(dropped.is_none_or(|d| d.batch == batch), "the lane's batch");
            }
            OfferOutcome::Joined => {}
        }
    }

    fn dispatch(&mut self, now: f64) -> usize {
        let mut dispatched = 0;
        // The AIMD limiter gates dispatch *ahead* of the breakers: when
        // observed latency says the cluster is saturated, ready batches
        // wait even though idle nodes exist.
        while self.batcher.ready_len() > 0 && !self.lifecycle.dispatch_at_limit(self.inflight_count)
        {
            self.scratch_idle.clear();
            self.scratch_admitted.clear();
            for index in 0..self.nodes.len() {
                if !self.can_start_leg(index) {
                    continue;
                }
                self.scratch_idle.push(index);
                if self.nodes[index].breaker.peek(now) != BreakerAdmission::Refuse {
                    self.scratch_admitted.push(index);
                }
            }
            if self.scratch_idle.is_empty() {
                break;
            }
            // Every idle node breaker-refused: if some other
            // non-crashed node is still working, wait for it; if the
            // whole surviving cluster is refused, availability beats
            // isolation — dispatch anyway rather than deadlock.
            let use_idle = self.scratch_admitted.is_empty();
            let busy = |n: &NodeState| !n.crashed && n.current.is_some();
            if use_idle && self.nodes.iter().any(busy) {
                break;
            }
            let batch = self.batcher.pop_ready().expect("ready batch");
            let size = batch.requests.len();
            let pool = if use_idle {
                &self.scratch_idle
            } else {
                &self.scratch_admitted
            };
            let node = self
                .cheapest_node(pool.iter().copied(), batch.class, size)
                .expect("pool non-empty");
            // `Refuse` only on the availability-override path.
            let probe = self.nodes[node].breaker.admit(now) == BreakerAdmission::Probe;
            self.outcome.probes += u64::from(probe);
            for request in &batch.requests {
                self.metrics.queue_wait_us.record(now - request.arrival_us);
            }
            self.metrics.batch_size.record(size as f64);
            let primary = self.launch_leg(batch.id, batch.class, size, node, probe, false, now);
            let hedge_timer = (self.lifecycle)
                .hedge_delay_us(batch.class, probe, primary.expected_us)
                .map(|delay| {
                    self.push_event(now + delay, EventKind::HedgeTimer { batch: batch.id })
                });
            *self.inflight.slot(batch.id) = Some(Inflight {
                class: batch.class,
                requests: batch.requests,
                probe,
                primary,
                hedge: None,
                hedge_timer,
            });
            self.inflight_count += 1;
            dispatched += 1;
        }
        dispatched
    }

    /// Whether a new leg may start on node `index`: alive, idle,
    /// and — membership gating dispatch ahead of the breakers — a node
    /// the coordinator sees Alive in a component with quorum (or the
    /// degraded escape hatch). A node failing the last test takes no
    /// new work, full stop: the availability-beats-isolation override
    /// in [`Sim::dispatch`] never reaches across a partition.
    fn can_start_leg(&self, index: usize) -> bool {
        let node = &self.nodes[index];
        !node.crashed
            && node.current.is_none()
            && (self.membership.as_ref()).is_none_or(|c| c.dispatchable(index))
    }

    /// The node of `pool` the placement model prices cheapest for the
    /// batch; ties go to the lower index.
    fn cheapest_node(
        &self,
        pool: impl Iterator<Item = usize>,
        class: usize,
        size: usize,
    ) -> Option<usize> {
        pool.min_by(|&a, &b| {
            self.healthy_service_us(a, class, size)
                .total_cmp(&self.healthy_service_us(b, class, size))
                .then(a.cmp(&b))
        })
    }

    /// Starts one leg of `batch` on `node`: prices it (placement model
    /// and gray-aware actual), occupies the node, appends the
    /// [`BatchRecord`] and schedules the completion event. `hedged`
    /// marks the duplicate leg of a hedge race.
    #[allow(clippy::too_many_arguments)]
    fn launch_leg(
        &mut self,
        batch: u64,
        class: usize,
        size: usize,
        node: usize,
        probe: bool,
        hedged: bool,
        now: f64,
    ) -> Leg {
        let expected = self.healthy_service_us(node, class, size);
        let actual = self.actual_service_us(node, class, size, now);
        let finish = now + actual;
        self.nodes[node].current = Some(batch);
        self.outcome.batches.push(BatchRecord {
            id: batch,
            class,
            node,
            size,
            start_us: now,
            finish_us: finish,
            probe,
            failed: false,
            hedge: hedged,
            cancelled: false,
            epoch: (self.membership.as_ref()).map_or(0, ClusterController::fencing_epoch),
            fenced: false,
        });
        Leg {
            node,
            start_us: now,
            expected_us: expected,
            actual_us: actual,
            fpga_path: self.nodes[node].fpga,
            record: self.outcome.batches.len() - 1,
            completion: self.push_event(finish, EventKind::Completion { batch, hedged }),
        }
    }

    /// The dispatcher's placement model for a batch on `node`.
    fn healthy_service_us(&self, node: usize, class: usize, size: usize) -> f64 {
        (self.pricing).healthy_us(&self.cfg.classes[class], self.nodes[node].fpga, size)
    }

    /// What the batch actually costs when started on `node` at `start`.
    fn actual_service_us(&self, node: usize, class: usize, size: usize, start: f64) -> f64 {
        let class = &self.cfg.classes[class];
        (self.pricing).actual_us(class, node, self.nodes[node].fpga, size, start)
    }

    // -- completions ---------------------------------------------------

    fn handle_completion(&mut self, batch: u64, hedged: bool, now: f64) {
        let Some(mut inflight) = self.inflight.slot(batch).take() else {
            // A fault already failed the batch and cancelled its
            // completion; only a reused slot can land here.
            return;
        };
        if let Some(token) = inflight.hedge_timer.take() {
            self.queue.cancel(token);
        }
        // Resolve the hedge race. Four cases: the duplicate won
        // (promote it, cancel the primary), the primary won with the
        // duplicate still running (cancel the duplicate), a promoted
        // duplicate completed as the only surviving leg (`hedged` but
        // no duplicate left), or there never was a race.
        let loser = match inflight.hedge.take() {
            Some(duplicate) if hedged => {
                self.outcome.hedge_wins += 1;
                Some(std::mem::replace(&mut inflight.primary, duplicate))
            }
            other => other,
        };
        if let Some(leg) = loser {
            self.queue.cancel(leg.completion);
            self.nodes[leg.node].current = None;
            self.outcome.batches[leg.record].cancelled = true;
            self.outcome.batches[leg.record].finish_us = now;
            self.outcome.hedge_cancelled += 1;
        }
        let (class, leg) = (inflight.class, &inflight.primary);
        let node = leg.node;
        let deadline_us = self.cfg.classes[class].deadline_us;
        self.nodes[node].current = None;
        let mut latency_sum = 0.0;
        let mut latency_max = 0.0_f64;
        for request in &inflight.requests {
            let latency = now - request.arrival_us;
            latency_sum += latency;
            latency_max = latency_max.max(latency);
            self.outcome.completed += 1;
            self.outcome.tenants[request.tenant].completed += 1;
            self.outcome.latencies_us.push(latency);
            self.metrics.latency_us.record(latency);
            self.outcome.slo_violations += u64::from(latency > deadline_us);
        }
        let service_us = now - leg.start_us;
        let moved = (self.lifecycle).batch_finished(
            class,
            &inflight.requests,
            service_us,
            latency_max,
            deadline_us,
        );
        if let Some(limit) = moved {
            self.metrics.limiter_limit.set(limit as f64);
        }
        self.inflight_count -= 1;
        let size = inflight.requests.len();
        let inflation = if leg.expected_us > 0.0 {
            leg.actual_us / leg.expected_us
        } else {
            1.0
        };
        self.monitor.record_task(node, inflation, now);
        if leg.fpga_path {
            let creep = self.pricing.effects.creep_factor(node, leg.start_us);
            self.monitor.record_fpga(node, creep, now);
        }
        if inflight.probe {
            if inflation <= self.cfg.health.straggler_ratio {
                self.nodes[node].breaker.probe_succeeded();
                self.registry
                    .event("serve.breaker_close", format!("node{node} probe healthy"));
            } else {
                self.nodes[node].breaker.probe_failed(now);
                self.outcome.breaker_opens += 1;
                self.registry
                    .event("serve.breaker_open", format!("node{node} probe still slow"));
            }
        }
        self.apply_verdicts(now);
        let retune_due = self.tuning.batch_finished(
            class,
            self.batcher.max_batch(class),
            latency_sum / size as f64,
            leg.actual_us / size as f64,
        );
        if retune_due {
            self.retune(class, now);
        }
        // Probe results and verdicts above may have moved breakers:
        // re-evaluate the brownout tier at this health edge.
        self.health_moved(now);
        self.batcher.recycle(inflight.requests);
    }

    /// Nodes the brownout ladder counts against the cluster: crashed,
    /// any breaker not Closed, or confirmed dead by membership.
    fn unhealthy(nodes: &[NodeState], membership: Option<&ClusterController>) -> usize {
        let unhealthy = |(index, n): &(usize, &NodeState)| {
            n.crashed
                || n.breaker.state() != BreakerState::Closed
                || membership.is_some_and(|c| c.confirmed_dead(*index))
        };
        nodes.iter().enumerate().filter(unhealthy).count()
    }

    /// Reports a health edge to the brownout ladder. On a tier
    /// transition the batch ceilings are re-capped and the change is
    /// published; recovery walks the ladder back down the same way.
    fn health_moved(&mut self, now: f64) {
        let (nodes, membership) = (&self.nodes, self.membership.as_ref());
        let unhealthy = || Self::unhealthy(nodes, membership);
        let Some((from, to, unhealthy)) = self.lifecycle.health_moved(unhealthy) else {
            return;
        };
        let total = nodes.len();
        self.outcome.brownout_transitions += 1;
        self.outcome.brownout_peak_tier = self.outcome.brownout_peak_tier.max(to);
        self.metrics.brownout_tier.set(f64::from(to));
        self.registry.event(
            "serve.brownout",
            format!("tier {from} -> {to} ({unhealthy}/{total} nodes unhealthy) at={now:.3}"),
        );
        for class in 0..self.cfg.classes.len() {
            self.apply_batch_ceiling(class);
        }
    }

    /// Gives the batcher the brownout-capped view of the chosen batch
    /// ceiling (the choice itself is preserved so a recovery restores
    /// it; without brownout the cap is the identity).
    fn apply_batch_ceiling(&mut self, class: usize) {
        let applied = self.lifecycle.cap_ceiling(self.tuning.chosen(class));
        self.batcher.set_max_batch(class, applied);
    }

    fn retune(&mut self, class: usize, now: f64) {
        self.outcome.retunes += 1;
        self.tuning.retune(class, now);
        self.apply_batch_ceiling(class);
    }

    fn apply_verdicts(&mut self, now: f64) {
        for verdict in self.monitor.drain_new() {
            let node = verdict.node;
            if node >= self.nodes.len() || self.nodes[node].crashed {
                continue;
            }
            if self.nodes[node].breaker.state() == BreakerState::Closed {
                self.nodes[node].breaker.trip(now);
                self.outcome.breaker_opens += 1;
                self.registry.event(
                    "serve.breaker_open",
                    format!("node{node} convicted: {:?}", verdict.kind),
                );
            }
        }
    }

    // -- faults --------------------------------------------------------

    fn handle_fault(&mut self, index: usize, now: f64) {
        let spec = self.plan.faults()[index].clone();
        let node = spec.node;
        if node >= self.nodes.len() {
            return;
        }
        self.metrics.faults.add(1);
        self.registry.event("serve.fault", spec.describe());
        match spec.kind {
            FaultKind::NodeCrash => {
                self.nodes[node].crashed = true;
                self.nodes[node].fpga = false;
                self.lose_leg(node, now, LegLoss::Fault);
            }
            FaultKind::VfUnplug { .. } | FaultKind::PartialReconfigFail => {
                // Only an FPGA-path leg is lost with the VF.
                let lost_inflight =
                    self.nodes[node].fpga && self.leg_on(node).is_some_and(|leg| leg.fpga_path);
                self.nodes[node].fpga = false;
                if lost_inflight {
                    self.lose_leg(node, now, LegLoss::Fault);
                }
            }
            FaultKind::DmaTimeout | FaultKind::TransientKernelError | FaultKind::MemoryEcc => {
                self.lose_leg(node, now, LegLoss::Fault);
            }
            FaultKind::LinkDegrade { .. }
            | FaultKind::GrayLink { .. }
            | FaultKind::SlowNode { .. }
            | FaultKind::VfCreep { .. }
            | FaultKind::PartitionSym { .. }
            | FaultKind::PartitionAsym { .. }
            | FaultKind::MsgDelay { .. }
            | FaultKind::MsgLoss { .. } => {
                // Standing effects: window and creep faults are priced
                // by `self.pricing` whenever a leg starts inside them,
                // and network faults act on the membership layer's
                // message model (`everest_cluster::NetModel`), which the
                // gossip rounds observe on their own cadence. Here
                // there is nothing to apply.
            }
        }
        // Crashes (and the breaker churn faults cause downstream) move
        // cluster health; re-check the brownout tier at the edge.
        self.health_moved(now);
    }

    // -- cluster membership --------------------------------------------

    /// One membership round on the virtual clock: probe and merge the
    /// SWIM views, expire suspects, elect the coordinator, renew or
    /// fail over shard leases — then apply the consequences to the
    /// serving tier. A fresh confirm flows into the health pipeline as
    /// an [`VerdictKind::Unreachable`] verdict (same breaker trip and
    /// brownout feed as a gray conviction) and fences the dead node's
    /// in-flight leg. The round reschedules itself while the run still
    /// has arrivals, queued work, in-flight batches or pending events:
    /// the degraded-mode escape hatch guarantees the backlog drains
    /// even under a permanent partition, so this always terminates.
    fn handle_gossip(&mut self, now: f64) {
        let Some(ctrl) = self.membership.as_mut() else {
            return;
        };
        let crashed: Vec<bool> = self.nodes.iter().map(|n| n.crashed).collect();
        let tick = ctrl.tick(now, &crashed);
        for &node in &tick.newly_dead {
            self.registry.event(
                "cluster.member_dead",
                format!("node{node} confirmed unreachable at={now:.3}"),
            );
            // The confirm is health evidence like any other: it rides
            // the monitor's verdict pipeline so the breaker trips and
            // the brownout ladder sees the node exactly as it would a
            // gray conviction.
            self.monitor.flag(VerdictKind::Unreachable, node, now, 1.0);
            self.lose_leg(node, now, LegLoss::Fence);
        }
        for &node in &tick.revived {
            self.registry.event(
                "cluster.member_revived",
                format!("node{node} rejoined at={now:.3}"),
            );
        }
        for failover in &tick.failovers {
            self.registry.event(
                "cluster.failover",
                format!(
                    "shard={} from=node{} to=node{} epoch={} degraded={}",
                    failover.shard, failover.from, failover.to, failover.epoch, failover.degraded
                ),
            );
        }
        self.apply_verdicts(now);
        self.health_moved(now);
        let live = self.arrivals.peek_us().is_some()
            || self.queue_depth() > 0
            || self.inflight_count > 0
            || self.queue.peek_time().is_some()
            || self.deadlines.iter().any(Option::is_some);
        if live {
            self.push_event(now + GOSSIP_PERIOD_US, EventKind::GossipRound);
        }
    }

    /// The leg executing on `node` right now, if any.
    fn leg_on(&self, node: usize) -> Option<&Leg> {
        let inflight = self.inflight.get(self.nodes[node].current?)?;
        std::iter::once(&inflight.primary)
            .chain(&inflight.hedge)
            .find(|leg| leg.node == node)
    }

    /// Stops whatever leg is executing on `node` right now, for either
    /// cause. A hedged batch only ends with its *last* surviving leg:
    /// losing the primary promotes the duplicate, losing the duplicate
    /// leaves the primary running, and only a sole leg's loss decides
    /// the requests' fate. The lost leg's completion event is
    /// cancelled in every case.
    ///
    /// For [`LegLoss::Fence`] that cancellation *is* the fence. A
    /// partitioned node is not crashed: the simulation's completion
    /// event for its in-flight leg would still fire, and — after the
    /// shard fails over — would complete the same requests a new owner
    /// may also serve. A sole fenced leg's requests re-enter the fair
    /// queue: admitted exactly once, terminal exactly once, no retry
    /// budget burned and no attempt charged — the tenant did nothing
    /// wrong. For [`LegLoss::Fault`] a sole leg's requests are retried
    /// when the retry layer is on and allows it, else failed.
    fn lose_leg(&mut self, node: usize, now: f64, cause: LegLoss) {
        let Some(batch) = self.nodes[node].current.take() else {
            return;
        };
        let Some(mut inflight) = self.inflight.slot(batch).take() else {
            // The slot was already drained (stale `current`).
            return;
        };
        let lost = match inflight.hedge.take() {
            Some(duplicate) => {
                // The other leg survives. If the primary ran here,
                // promote the duplicate (its hedge timer already fired,
                // so it will not be hedged again); else the duplicate
                // itself ran here and the primary keeps running.
                let lost = if inflight.primary.node == node {
                    std::mem::replace(&mut inflight.primary, duplicate)
                } else {
                    duplicate
                };
                *self.inflight.slot(batch) = Some(inflight);
                lost
            }
            None => {
                // The sole surviving leg: the batch is over.
                if let Some(token) = inflight.hedge_timer {
                    self.queue.cancel(token);
                }
                self.inflight_count -= 1;
                match cause {
                    LegLoss::Fault => {
                        for request in &inflight.requests {
                            self.retry_or_fail(*request, now);
                        }
                    }
                    LegLoss::Fence => {
                        self.outcome.partition_orphans += inflight.requests.len() as u64;
                        for &request in &inflight.requests {
                            self.wfq.push(request);
                        }
                    }
                }
                self.batcher.recycle(inflight.requests);
                inflight.primary
            }
        };
        debug_assert_eq!(lost.node, node, "the lost leg ran on the node");
        self.queue.cancel(lost.completion);
        let record = &mut self.outcome.batches[lost.record];
        record.finish_us = now;
        match cause {
            LegLoss::Fault => record.failed = true,
            LegLoss::Fence => {
                record.fenced = true;
                self.outcome.fenced_batches += 1;
            }
        }
    }

    /// A fault took this request's batch: re-enqueued after the backoff
    /// the retry layer grants, else failed terminally (a refusal is
    /// counted; a layer that is off refuses nothing).
    fn retry_or_fail(&mut self, request: Request, now: f64) {
        let deadline_us = self.cfg.classes[request.class].deadline_us;
        let backoff = match self.lifecycle.retry(&request, now, deadline_us) {
            Retry::After(backoff) => backoff,
            verdict => {
                self.outcome.retry_denied += u64::from(verdict == Retry::Denied);
                self.fail(&request);
                return;
            }
        };
        self.outcome.retries += 1;
        self.outcome.tenants[request.tenant].retried += 1;
        #[cfg(debug_assertions)]
        {
            self.pending_retries += 1;
        }
        let mut next = request;
        next.attempt += 1;
        self.push_event(now + backoff, EventKind::Retry(next));
    }

    /// A retry's backoff elapsed: the request re-enters the fair queue.
    /// It was admitted once at the door and stays admitted — the
    /// conservation door equation is untouched, and the queue equation
    /// still holds because the retried request ends completed, failed
    /// or deadline-shed like any other queued request.
    fn handle_retry(&mut self, request: Request) {
        #[cfg(debug_assertions)]
        {
            self.pending_retries -= 1;
        }
        self.wfq.push(request);
    }

    /// The hedge delay elapsed with the batch still in flight: launch
    /// a duplicate on the best healthy idle node, if one exists.
    fn handle_hedge_timer(&mut self, batch: u64, now: f64) {
        let Some(inflight) = self.inflight.slot(batch).as_mut() else {
            // Terminal paths cancel their timer; nothing to do.
            return;
        };
        inflight.hedge_timer = None;
        // The tier may have climbed past hedging since the timer was
        // scheduled.
        if inflight.hedge.is_some() || !self.lifecycle.may_hedge() {
            return;
        }
        let (primary_node, class, size) = (
            inflight.primary.node,
            inflight.class,
            inflight.requests.len(),
        );
        // A duplicate only helps on a node the breakers fully admit:
        // idle, alive, not the primary's node, and not a probe slot.
        let eligible = (0..self.nodes.len()).filter(|&index| {
            index != primary_node
                && self.can_start_leg(index)
                && self.nodes[index].breaker.peek(now) == BreakerAdmission::Admit
        });
        let Some(node) = self.cheapest_node(eligible, class, size) else {
            self.outcome.hedge_denied += 1;
            return;
        };
        let leg = self.launch_leg(batch, class, size, node, false, true, now);
        (self.inflight.slot(batch).as_mut())
            .expect("slot verified live at the top of the handler")
            .hedge = Some(leg);
        self.outcome.hedges += 1;
    }

    /// The whole cluster is gone: every queued or batched request is
    /// terminal `Failed` (conservation still holds; nothing vanishes).
    fn drain_all_failed(&mut self) {
        for request in self.wfq.drain().iter().chain(&self.batcher.drain()) {
            self.fail(request);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        BatchPolicy, ClassKind, ClusterConfig, KernelClass, ServeConfigError, MAX_EXPECTED_ARRIVALS,
    };
    use everest_faults::FaultSpec;
    use everest_health::HealthConfig;

    fn small_config() -> ServeConfig {
        ServeConfig {
            seed: 7,
            offered_rps: 6_000.0,
            horizon_us: 60_000.0,
            ..ServeConfig::default()
        }
    }

    #[test]
    fn run_is_deterministic() {
        let a = ServeEngine::new(small_config()).run();
        let b = ServeEngine::new(small_config()).run();
        assert_eq!(a, b);
        assert!(a.offered > 0);
        assert!(a.completed > 0);
    }

    #[test]
    fn outcome_is_conserved() {
        let outcome = ServeEngine::new(small_config()).run();
        assert!(outcome.conserved(), "conservation: {outcome:?}");
    }

    /// Ceilings that mean "never": batches that close only on their
    /// wait, and a health detector that never refits. Neither reserves
    /// memory by its ceiling.
    #[test]
    fn unbounded_ceilings_run_and_conserve() {
        let outcome = ServeEngine::new(ServeConfig {
            batch: vec![
                BatchPolicy::new(1 << 20, 200.0),
                BatchPolicy::new(1 << 20, 400.0),
            ],
            autotune: false,
            health: HealthConfig {
                refit_every: usize::MAX,
                ..HealthConfig::default()
            },
            ..small_config()
        })
        .run();
        assert!(outcome.conserved(), "conservation: {outcome:?}");
        assert!(outcome.completed > 0);
        assert!(
            outcome.batches.iter().any(|b| b.size > 1),
            "batches still form"
        );
    }

    #[test]
    fn shed_rate_grows_with_offered_load() {
        let mut rates = Vec::new();
        for load in [4_000.0, 10_000.0, 20_000.0, 40_000.0] {
            let outcome = ServeEngine::new(ServeConfig {
                offered_rps: load,
                horizon_us: 100_000.0,
                ..ServeConfig::default()
            })
            .run();
            assert!(outcome.conserved());
            rates.push(outcome.shed_rate());
        }
        for pair in rates.windows(2) {
            assert!(
                pair[0] <= pair[1] + 1e-9,
                "shed rate must be monotone in load: {rates:?}"
            );
        }
        assert!(rates[3] > 0.3, "heavy overload must shed hard: {rates:?}");
    }

    #[test]
    fn batching_amortises_launch_overhead() {
        // Unit batches vs batch-8 ceilings at the same overload: the
        // batched run must complete more requests.
        let unbatched = ServeEngine::new(ServeConfig {
            batch: vec![BatchPolicy::new(1, 0.0), BatchPolicy::new(1, 0.0)],
            autotune: false,
            offered_rps: 20_000.0,
            horizon_us: 100_000.0,
            ..ServeConfig::default()
        })
        .run();
        let batched = ServeEngine::new(ServeConfig {
            autotune: false,
            offered_rps: 20_000.0,
            horizon_us: 100_000.0,
            ..ServeConfig::default()
        })
        .run();
        assert!(
            batched.completed > unbatched.completed,
            "batched {} vs unbatched {}",
            batched.completed,
            unbatched.completed
        );
    }

    #[test]
    fn node_crash_fails_inflight_but_serving_continues() {
        let plan = FaultPlan::new(9).with_fault(FaultSpec {
            at_us: 20_000.0,
            node: 0,
            kind: FaultKind::NodeCrash,
        });
        let outcome = ServeEngine::new(small_config()).with_plan(plan).run();
        assert!(outcome.conserved());
        assert!(outcome.completed > 0, "survivors keep serving");
    }

    #[test]
    fn all_nodes_crashed_fails_the_backlog() {
        let mut plan = FaultPlan::new(11);
        for node in 0..4 {
            plan.push(FaultSpec {
                at_us: 10_000.0,
                node,
                kind: FaultKind::NodeCrash,
            });
        }
        let outcome = ServeEngine::new(small_config()).with_plan(plan).run();
        assert!(outcome.conserved());
        assert!(outcome.failed > 0, "post-crash admissions must fail");
        // No batch ever completes after the crash instant.
        for batch in &outcome.batches {
            assert!(batch.failed || batch.finish_us <= 10_000.0 + 1e-6);
        }
    }

    #[test]
    fn slow_node_trips_a_breaker() {
        let plan = FaultPlan::new(13).with_fault(FaultSpec {
            at_us: 5_000.0,
            node: 1,
            kind: FaultKind::SlowNode {
                factor: 8.0,
                duration_us: 150_000.0,
            },
        });
        let outcome = ServeEngine::new(ServeConfig {
            seed: 13,
            offered_rps: 12_000.0,
            horizon_us: 150_000.0,
            ..ServeConfig::default()
        })
        .with_plan(plan)
        .run();
        assert!(outcome.conserved());
        assert!(
            outcome.breaker_opens > 0,
            "an 8x straggler must be convicted: {outcome:?}"
        );
    }

    #[test]
    fn a_second_steeper_creep_on_a_node_is_the_one_charged() {
        // The scheduler has always charged the worst creep in effect;
        // serve used to keep a node's first onset and drop the rest.
        let cfg = small_config();
        let node = cfg.nodes - 1;
        let creep = |at_us, per_ms| FaultSpec {
            at_us,
            node,
            kind: FaultKind::VfCreep { per_ms },
        };
        let plan = FaultPlan::new(1)
            .with_fault(creep(1_000.0, 0.01))
            .with_fault(creep(2_000.0, 0.5));
        let sim = Sim::new(&cfg, &plan, Registry::new());
        assert!(
            sim.nodes[node].fpga,
            "the last node carries the accelerator"
        );
        // At 4 ms the shallow creep has reached 1.03x, the steep one 2x:
        // one extra healthy compute time on top of the healthy batch.
        let extra = sim.actual_service_us(node, 0, 4, 4_000.0) - sim.healthy_service_us(node, 0, 4);
        assert!(
            (extra - cfg.classes[0].fpga_batch_us(4)).abs() < 1e-9,
            "{extra}"
        );
    }

    #[test]
    fn deadline_pressure_sheds_in_queue() {
        // One slow CPU-only node and a tight deadline: queued requests
        // lapse and are shed rather than served dead.
        let outcome = ServeEngine::new(ServeConfig {
            nodes: 1,
            classes: vec![KernelClass::new(
                "infer", 400.0, 40.0, 120.0, 2_000.0, 4_096,
            )],
            batch: vec![BatchPolicy::new(8, 400.0)],
            offered_rps: 8_000.0,
            horizon_us: 60_000.0,
            ..ServeConfig::default()
        })
        .run();
        assert!(outcome.conserved());
        assert!(outcome.shed_deadline > 0, "{outcome:?}");
    }

    #[test]
    fn autotuner_reacts_to_infeasible_latency() {
        // Impossible deadline: every batched point is infeasible once
        // observations arrive, so the tuner must fall back toward
        // unbatched operation.
        let outcome = ServeEngine::new(ServeConfig {
            classes: vec![KernelClass::new("infer", 400.0, 40.0, 120.0, 300.0, 4_096)],
            batch: vec![BatchPolicy::new(8, 400.0)],
            offered_rps: 6_000.0,
            horizon_us: 80_000.0,
            ..ServeConfig::default()
        })
        .run();
        assert!(outcome.conserved());
        assert!(outcome.retunes > 0);
        assert_eq!(outcome.final_max_batch, vec![1], "{outcome:?}");
    }

    #[test]
    fn statically_infeasible_class_is_fully_shed_at_the_door() {
        // Two classes: one carries a proven worst-case bound above its
        // deadline, the other a bound safely below. The infeasible
        // class must be shed in full — typed, at the door, before any
        // token or queue slot is spent — while the feasible class
        // serves normally and conservation still holds.
        let outcome = ServeEngine::new(ServeConfig {
            classes: vec![
                KernelClass::new("late", 400.0, 40.0, 120.0, 5_000.0, 4_096)
                    .with_static_bound(9_000.0),
                KernelClass::new("ok", 1_600.0, 160.0, 320.0, 20_000.0, 16_384)
                    .with_static_bound(1_000.0),
            ],
            offered_rps: 6_000.0,
            horizon_us: 60_000.0,
            ..ServeConfig::default()
        })
        .run();
        assert!(outcome.conserved(), "{outcome:?}");
        assert!(outcome.shed_static > 0, "{outcome:?}");
        assert!(outcome.completed > 0, "feasible class keeps serving");
        // Nothing of the infeasible class ever reached a batch.
        assert!(outcome.batches.iter().all(|b| b.class != 0));
    }

    use crate::lifecycle::{LifecycleConfig, RETRY_BUDGET_CAP, RETRY_REFILL_PER_SUCCESS};

    /// A burst of transient kernel errors landing while batches are in
    /// flight.
    fn transient_storm() -> FaultPlan {
        let mut plan = FaultPlan::new(21);
        for (i, at_us) in [8_000.0, 14_000.0, 20_000.0, 26_000.0, 32_000.0, 38_000.0]
            .iter()
            .enumerate()
        {
            plan.push(FaultSpec {
                at_us: *at_us,
                node: i % 4,
                kind: FaultKind::TransientKernelError,
            });
        }
        plan
    }

    #[test]
    fn retries_reenqueue_fault_failed_requests() {
        let config = |retry: bool| ServeConfig {
            lifecycle: LifecycleConfig {
                retry,
                ..LifecycleConfig::default()
            },
            ..small_config()
        };
        let baseline = ServeEngine::new(config(false))
            .with_plan(transient_storm())
            .run();
        let retried = ServeEngine::new(config(true))
            .with_plan(transient_storm())
            .run();
        assert!(baseline.conserved() && retried.conserved());
        assert!(baseline.failed > 0, "the storm must hit in-flight work");
        assert!(retried.retries > 0, "{retried:?}");
        assert!(
            retried.failed < baseline.failed,
            "retries must recover some fault-failed requests: {} vs {}",
            retried.failed,
            baseline.failed
        );
        // Replay identity extends to the retry path.
        let again = ServeEngine::new(config(true))
            .with_plan(transient_storm())
            .run();
        assert_eq!(retried, again);
    }

    #[test]
    fn retry_budget_denies_when_spent() {
        // A transient error on every node every 100 us for the whole
        // horizon: no batch is short enough to finish between two, so
        // tenants earn (almost) nothing back and each burns through its
        // starting budget.
        let mut storm = FaultPlan::new(21);
        for tick in 0..600 {
            for node in 0..4 {
                storm.push(FaultSpec {
                    at_us: 100.0 * f64::from(tick),
                    node,
                    kind: FaultKind::TransientKernelError,
                });
            }
        }
        let outcome = ServeEngine::new(ServeConfig {
            lifecycle: LifecycleConfig {
                retry: true,
                ..LifecycleConfig::default()
            },
            ..small_config()
        })
        .with_plan(storm)
        .run();
        assert!(outcome.conserved(), "{outcome:?}");
        assert!(outcome.retry_denied > 0, "{outcome:?}");
        // A tenant retries at most its starting cap plus what its
        // completions earned back ...
        let earned =
            |t: &TenantOutcome| RETRY_BUDGET_CAP + RETRY_REFILL_PER_SUCCESS * t.completed as f64;
        for tenant in &outcome.tenants {
            assert!(tenant.retried as f64 <= earned(tenant), "{tenant:?}");
        }
        // ... and the storm spends every whole token of every tenant.
        assert!(
            (outcome.tenants.iter()).all(|t| t.retried as f64 > earned(t) - 1.0),
            "{:?}",
            outcome.tenants
        );
    }

    #[test]
    fn hedging_races_a_straggling_primary() {
        let config = ServeConfig {
            seed: 17,
            classes: vec![
                KernelClass::new("infer", 400.0, 40.0, 120.0, 5_000.0, 4_096).latency_critical(),
                KernelClass::new("analytics", 1_600.0, 160.0, 320.0, 20_000.0, 16_384)
                    .with_kind(ClassKind::Analytics),
            ],
            offered_rps: 2_000.0,
            horizon_us: 80_000.0,
            // Blind the health monitor: with no straggler verdict the
            // breaker never isolates the slow node, so hedging is the
            // only line of defense — exactly the gray window it exists
            // to cover.
            health: HealthConfig {
                min_samples: usize::MAX,
                ..HealthConfig::default()
            },
            lifecycle: LifecycleConfig {
                hedge: true,
                ..LifecycleConfig::default()
            },
            ..ServeConfig::default()
        };
        let plan = FaultPlan::new(17).with_fault(FaultSpec {
            at_us: 5_000.0,
            node: 2,
            kind: FaultKind::SlowNode {
                factor: 8.0,
                duration_us: 70_000.0,
            },
        });
        let outcome = ServeEngine::new(config.clone())
            .with_plan(plan.clone())
            .run();
        assert!(outcome.conserved(), "{outcome:?}");
        assert!(outcome.hedges > 0, "{outcome:?}");
        assert!(
            outcome.hedge_wins > 0,
            "a healthy duplicate must beat an 8x straggler"
        );
        // The trace carries both legs; completions count exactly once.
        let hedge_records = outcome.batches.iter().filter(|b| b.hedge).count() as u64;
        assert_eq!(hedge_records, outcome.hedges);
        assert_eq!(outcome.completed as usize, outcome.latencies_us.len());
        let again = ServeEngine::new(config).with_plan(plan).run();
        assert_eq!(outcome, again, "hedged runs must replay identically");
    }

    #[test]
    fn limiter_sheds_typed_overload_at_the_door() {
        let outcome = ServeEngine::new(ServeConfig {
            offered_rps: 30_000.0,
            horizon_us: 80_000.0,
            lifecycle: LifecycleConfig {
                limiter: true,
                ..LifecycleConfig::default()
            },
            ..ServeConfig::default()
        })
        .run();
        assert!(outcome.conserved(), "{outcome:?}");
        assert!(outcome.shed_overloaded > 0, "{outcome:?}");
        assert!(outcome.completed > 0, "the limiter throttles, not starves");
    }

    #[test]
    fn brownout_climbs_the_ladder_and_sheds_lowest_weight() {
        let mut plan = FaultPlan::new(23);
        for node in 0..3 {
            plan.push(FaultSpec {
                at_us: 10_000.0,
                node,
                kind: FaultKind::NodeCrash,
            });
        }
        let outcome = ServeEngine::new(ServeConfig {
            lifecycle: LifecycleConfig {
                brownout: true,
                ..LifecycleConfig::default()
            },
            ..small_config()
        })
        .with_plan(plan)
        .run();
        assert!(outcome.conserved(), "{outcome:?}");
        assert!(outcome.brownout_transitions > 0, "{outcome:?}");
        assert_eq!(
            outcome.brownout_peak_tier, 3,
            "3 of 4 nodes down is a tier-3 brownout: {outcome:?}"
        );
        assert!(
            outcome.shed_brownout > 0,
            "tier 3 must shed the bronze tenant: {outcome:?}"
        );
        // Only the lowest-weight tenant is sacrificed.
        for tenant in &outcome.tenants[..2] {
            assert!(tenant.offered > 0);
        }
    }

    #[test]
    fn full_lifecycle_replays_identically_under_chaos() {
        let config = ServeConfig {
            classes: vec![
                KernelClass::new("infer", 400.0, 40.0, 120.0, 5_000.0, 4_096).latency_critical(),
                KernelClass::new("analytics", 1_600.0, 160.0, 320.0, 20_000.0, 16_384)
                    .with_kind(ClassKind::Analytics),
            ],
            lifecycle: LifecycleConfig::all_on(),
            ..small_config()
        };
        let plan = FaultPlan::random_campaign(99, 4, 60_000.0, 6);
        let a = ServeEngine::new(config.clone())
            .with_plan(plan.clone())
            .run();
        let b = ServeEngine::new(config).with_plan(plan).run();
        assert_eq!(a, b);
        assert!(a.conserved(), "{a:?}");
    }

    fn partition_config(seed: u64) -> ServeConfig {
        ServeConfig {
            seed,
            offered_rps: 6_000.0,
            horizon_us: 60_000.0,
            cluster: Some(ClusterConfig),
            ..ServeConfig::default()
        }
    }

    fn sym_partition(seed: u64, group: u64, at_us: f64, duration_us: f64) -> FaultPlan {
        FaultPlan::new(seed).with_fault(FaultSpec {
            at_us,
            node: 0,
            kind: FaultKind::PartitionSym { group, duration_us },
        })
    }

    #[test]
    fn fault_free_cluster_run_grants_and_never_sheds_partitioned() {
        let outcome = ServeEngine::new(partition_config(7)).run();
        assert!(outcome.conserved(), "{outcome:?}");
        assert!(outcome.gossip_rounds > 0, "membership must tick");
        assert_eq!(outcome.shed_partitioned, 0, "healthy leases never shed");
        assert_eq!(outcome.failovers, 0, "healthy leases never move");
        assert_eq!(outcome.cluster_epoch, 0, "no failover, no fence bump");
        assert!(outcome.completed > 0);
    }

    #[test]
    fn minority_partition_fails_over_and_conserves() {
        // Cut node 0 from the other three for 30 ms: suspicion hardens
        // to a confirm, its shard leases lapse and fail over with
        // epoch bumps, and after the heal the run is still conserved —
        // nothing double-executed, nothing lost.
        let plan = sym_partition(31, 0x1, 10_000.0, 30_000.0);
        let config = partition_config(31);
        let a = ServeEngine::new(config.clone())
            .with_plan(plan.clone())
            .run();
        assert!(a.conserved(), "{a:?}");
        assert!(a.confirms > 0, "the cut must be confirmed: {a:?}");
        assert!(a.failovers > 0, "lapsed shards must move: {a:?}");
        assert!(a.cluster_epoch > 0, "every failover bumps the fence");
        assert!(a.completed > 0, "the majority keeps serving");
        assert_eq!(
            a.batches.iter().filter(|b| b.fenced).count() as u64,
            a.fenced_batches,
            "fenced records mirror the counter"
        );
        let b = ServeEngine::new(config).with_plan(plan).run();
        assert_eq!(a, b, "partitioned runs replay identically");
    }

    #[test]
    fn even_split_sheds_typed_until_degraded_mode() {
        // A 2|2 split lasting past the horizon: no component holds
        // quorum, every lease lapses, and arrivals shed typed until
        // the no-quorum grace opens the degraded escape hatch and
        // service resumes under fresh fencing epochs.
        let plan = sym_partition(33, 0x3, 5_000.0, 200_000.0);
        let outcome = ServeEngine::new(ServeConfig {
            horizon_us: 120_000.0,
            ..partition_config(33)
        })
        .with_plan(plan)
        .run();
        assert!(outcome.conserved(), "{outcome:?}");
        assert!(
            outcome.shed_partitioned > 0,
            "a no-quorum outage must shed typed: {outcome:?}"
        );
        assert!(
            outcome.degraded_grants > 0,
            "the escape hatch must open: {outcome:?}"
        );
        assert!(
            outcome.cluster_epoch > 0,
            "degraded re-grants never keep the old fence"
        );
        assert!(outcome.completed > 0, "service resumes degraded");
    }

    #[test]
    fn partition_campaign_replays_and_conserves_with_all_features() {
        let config = ServeConfig {
            classes: vec![
                KernelClass::new("infer", 400.0, 40.0, 120.0, 5_000.0, 4_096).latency_critical(),
                KernelClass::new("analytics", 1_600.0, 160.0, 320.0, 20_000.0, 16_384)
                    .with_kind(ClassKind::Analytics),
            ],
            lifecycle: LifecycleConfig::all_on(),
            ..partition_config(91)
        };
        let mut plan = FaultPlan::random_campaign(91, 4, 60_000.0, 4);
        for fault in FaultPlan::random_partition_campaign(91, 4, 60_000.0, 2).faults() {
            plan.push(fault.clone());
        }
        let a = ServeEngine::new(config.clone())
            .with_plan(plan.clone())
            .run();
        assert!(a.conserved(), "{a:?}");
        let b = ServeEngine::new(config).with_plan(plan).run();
        assert_eq!(a, b, "chaos + partitions must replay identically");
    }

    /// Drives [`Sim::lose_leg`] through every fate by hand: one
    /// two-request batch in flight, optionally hedged, loses the leg on
    /// one of its nodes to a fault or a fence.
    #[test]
    fn lose_leg_settles_every_fate_for_both_causes() {
        struct Case {
            name: &'static str,
            hedged: bool,
            /// Lose the duplicate's node rather than the primary's.
            lose_duplicate: bool,
            /// Index of the lost leg's [`BatchRecord`].
            lost_record: usize,
        }
        let cases = [
            Case {
                name: "sole leg",
                hedged: false,
                lose_duplicate: false,
                lost_record: 0,
            },
            Case {
                name: "primary with surviving hedge",
                hedged: true,
                lose_duplicate: false,
                lost_record: 0,
            },
            Case {
                name: "hedge leg only",
                hedged: true,
                lose_duplicate: true,
                lost_record: 1,
            },
        ];
        // No synthesized arrivals: the test feeds the door by hand.
        let cfg = ServeConfig {
            offered_rps: 0.0,
            batch: vec![BatchPolicy::new(2, 1.0e6), BatchPolicy::new(2, 1.0e6)],
            autotune: false,
            ..ServeConfig::default()
        };
        let plan = FaultPlan::new(1);
        for case in &cases {
            for cause in [LegLoss::Fault, LegLoss::Fence] {
                let label = format!("{} / {cause:?}", case.name);
                let mut sim = Sim::new(&cfg, &plan, Registry::new());
                for id in 0..2 {
                    let request = Request {
                        id,
                        tenant: 0,
                        class: 0,
                        arrival_us: 0.0,
                        attempt: 0,
                    };
                    assert!(sim.handle_arrival(request, 0.0), "{label}: admitted");
                }
                sim.pump(0.0);
                if case.hedged {
                    sim.handle_hedge_timer(0, 10.0);
                }
                let inflight = sim.inflight.get(0).expect("batch 0 dispatched");
                assert_eq!(inflight.hedge.is_some(), case.hedged, "{label}");
                let lost = match &inflight.hedge {
                    Some(duplicate) if case.lose_duplicate => duplicate,
                    _ => &inflight.primary,
                };
                assert_eq!(lost.record, case.lost_record, "{label}");
                let (node, completion) = (lost.node, lost.completion);
                // The engine pumps after every handler that loses a leg.
                sim.lose_leg(node, 20.0, cause);
                sim.pump(20.0);
                assert!(
                    !sim.queue.cancel(completion),
                    "{label}: the lost leg's completion must already be cancelled"
                );
                let fenced = cause == LegLoss::Fence;
                let sole = !case.hedged;
                // The requests complete on a surviving leg or, fenced
                // off a sole leg, on a re-dispatch; only a sole leg
                // lost to a fault (retries off) fails them.
                let survives = case.hedged || fenced;
                let outcome = sim.run();
                assert!(outcome.conserved(), "{label}: {outcome:?}");
                assert_eq!(outcome.admitted, 2, "{label}");
                assert_eq!(outcome.completed, if survives { 2 } else { 0 }, "{label}");
                assert_eq!(outcome.failed, if survives { 0 } else { 2 }, "{label}");
                assert_eq!(outcome.hedges, u64::from(case.hedged), "{label}");
                assert_eq!(outcome.hedge_wins, 0, "{label}: a lost leg is not a race");
                assert_eq!(outcome.hedge_cancelled, 0, "{label}");
                assert_eq!(outcome.fenced_batches, u64::from(fenced), "{label}");
                let orphans = if fenced && sole { 2 } else { 0 };
                assert_eq!(outcome.partition_orphans, orphans, "{label}");
                for (index, record) in outcome.batches.iter().enumerate() {
                    let is_lost = index == case.lost_record;
                    assert_eq!(record.failed, is_lost && !fenced, "{label}: record {index}");
                    assert_eq!(record.fenced, is_lost && fenced, "{label}: record {index}");
                    assert!(!record.cancelled, "{label}: record {index}");
                    if is_lost {
                        assert_eq!(record.finish_us, 20.0, "{label}: lost at the loss time");
                    }
                }
                // Legs of batch 0, plus the re-dispatch of a fenced sole leg.
                let records = 1 + usize::from(case.hedged) + usize::from(fenced && sole);
                assert_eq!(outcome.batches.len(), records, "{label}");
            }
        }
    }

    #[test]
    fn live_tables_never_outgrow_nodes_and_classes() {
        // Slots are recycled and never removed, so a table's length
        // after the run is the most entries it ever held at once. (The
        // wait-deadlines are one lane per class by construction.)
        let all_on = ServeConfig {
            classes: vec![
                KernelClass::new("infer", 400.0, 40.0, 120.0, 5_000.0, 4_096).latency_critical(),
                KernelClass::new("analytics", 1_600.0, 160.0, 320.0, 20_000.0, 16_384)
                    .with_kind(ClassKind::Analytics),
            ],
            lifecycle: LifecycleConfig::all_on(),
            ..partition_config(91)
        };
        let saturated = ServeConfig {
            offered_rps: 40_000.0,
            ..small_config()
        };
        let chaos = FaultPlan::random_campaign(91, 4, 60_000.0, 6);
        for (cfg, plan) in [
            (small_config(), FaultPlan::new(1)),
            (saturated, FaultPlan::new(1)),
            (all_on, chaos),
        ] {
            let mut sim = Sim::new(&cfg, &plan, Registry::new());
            sim.drain();
            assert!(
                sim.outcome.batches.len() > 10 * cfg.nodes,
                "a real campaign"
            );
            assert!(
                sim.inflight.0.len() <= cfg.nodes,
                "{}",
                sim.inflight.0.len()
            );
        }
    }

    /// The event queue's work, counted without a clock: in a
    /// fault-free campaign without hedging or membership, the only
    /// events pushed are the legs' completions, and nothing is ever
    /// cancelled. Arrivals and batch wait-deadlines never touch the
    /// heap.
    #[test]
    fn a_fault_free_campaign_pushes_one_event_a_leg_and_cancels_none() {
        let cfg = small_config();
        let plan = FaultPlan::new(1);
        let mut sim = Sim::new(&cfg, &plan, Registry::new());
        sim.drain();
        let legs = sim.outcome.batches.len() as u64;
        assert!(legs > 10 * cfg.nodes as u64, "a real campaign");
        assert!(
            sim.outcome
                .batches
                .iter()
                .any(|b| b.size < cfg.batch[b.class].max_batch),
            "some batch closed on its wait-deadline"
        );
        let stats = sim.queue.stats();
        assert_eq!(
            (stats.pushes, stats.pops, stats.cancels, stats.reschedules),
            (legs, legs, 0, 0)
        );
    }

    /// A batch wait-deadline and a completion at the same virtual time
    /// come out in the order they were scheduled, whichever was first:
    /// the deadline's key comes from the event queue's own counter.
    #[test]
    fn a_deadline_and_a_completion_at_one_time_pop_in_scheduling_order() {
        let request = |id, class| Request {
            id,
            tenant: 0,
            class,
            arrival_us: 0.0,
            attempt: 0,
        };
        // One CPU node; class 1 closes a batch at once, class 0 waits
        // exactly as long as a one-request class-1 batch runs.
        let probe = ServeConfig {
            nodes: 1,
            offered_rps: 0.0,
            autotune: false,
            ..ServeConfig::default()
        };
        let plan = FaultPlan::new(1);
        let service_us = Sim::new(&probe, &plan, Registry::new()).healthy_service_us(0, 1, 1);
        let cfg = ServeConfig {
            batch: vec![BatchPolicy::new(2, service_us), BatchPolicy::new(1, 0.0)],
            ..probe
        };
        for (first, second, want) in [
            (1, 0, ["completion", "deadline"]),
            (0, 1, ["deadline", "completion"]),
        ] {
            let mut sim = Sim::new(&cfg, &plan, Registry::new());
            for (id, class) in [(0, first), (1, second)] {
                assert!(sim.handle_arrival(request(id, class), 0.0));
                sim.pump(0.0);
            }
            let mut popped = Vec::new();
            for _ in 0..2 {
                let (at_us, next) = sim.next().expect("two things pending");
                assert_eq!(at_us, service_us, "one virtual time");
                popped.push(match next {
                    Next::Deadline { class: 0, batch } => {
                        assert_eq!(batch, u64::from(first == 1));
                        "deadline"
                    }
                    Next::Queued(EventKind::Completion { .. }) => "completion",
                    other => panic!("{other:?}"),
                });
            }
            assert_eq!(popped, want, "class {first} arrived first");
        }
    }

    #[test]
    fn validate_names_what_is_wrong() {
        let with = |edit: fn(&mut ServeConfig)| {
            let mut cfg = ServeConfig::default();
            edit(&mut cfg);
            cfg.validate()
        };
        assert_eq!(with(|_| {}), Ok(()));
        assert_eq!(
            with(|c| c.offered_rps = 0.0),
            Ok(()),
            "no arrivals is a run"
        );
        assert_eq!(with(|c| c.nodes = 0), Err(ServeConfigError::NoNodes));
        assert_eq!(
            with(|c| c.tenants.clear()),
            Err(ServeConfigError::NoTenants)
        );
        assert_eq!(
            with(|c| c.classes.clear()),
            Err(ServeConfigError::NoClasses)
        );
        assert_eq!(
            with(|c| c.batch.truncate(1)),
            Err(ServeConfigError::BatchPolicies {
                classes: 2,
                policies: 1
            })
        );
        for horizon_us in [0.0, -5_000.0, f64::INFINITY, f64::NAN] {
            let cfg = ServeConfig {
                horizon_us,
                ..ServeConfig::default()
            };
            assert!(
                matches!(cfg.validate(), Err(ServeConfigError::Horizon(_))),
                "{horizon_us}"
            );
        }
        for offered_rps in [-1.0, f64::INFINITY, f64::NAN] {
            let cfg = ServeConfig {
                offered_rps,
                ..ServeConfig::default()
            };
            let error = cfg.validate().expect_err("rejected");
            assert!(matches!(error, ServeConfigError::OfferedRate(_)), "{error}");
            assert!(error.to_string().contains("offered load"), "{error}");
        }
        for weight in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            let error = with_weight(1, weight).validate().expect_err("rejected");
            assert!(
                matches!(error, ServeConfigError::TenantWeight { tenant: 1, weight: w }
                    if w.to_bits() == weight.to_bits()),
                "{error}"
            );
            assert!(error.to_string().contains("tenant 1's weight"), "{error}");
        }
        // A negative or zero weight is a tenant with no share, not an
        // error.
        assert_eq!(with_weight(1, -3.0).validate(), Ok(()));
        assert_eq!(with_weight(1, 0.0).validate(), Ok(()));
        // Finite inputs whose campaign would never end (gaps of about
        // 1e-294 us vanish against the clock) or run for minutes.
        for (offered_rps, horizon_us) in [(1e304, 200_000.0), (1e9, 200_000.0), (1e300, 1e300)] {
            let cfg = ServeConfig {
                offered_rps,
                horizon_us,
                ..ServeConfig::default()
            };
            let expected = offered_rps * horizon_us / 1.0e6;
            let error = cfg.validate().expect_err("rejected");
            assert_eq!(error, ServeConfigError::ExpectedArrivals(expected));
            assert!(error.to_string().contains("arrivals"), "{error}");
        }
        let at_the_bound = ServeConfig {
            offered_rps: MAX_EXPECTED_ARRIVALS * 5.0,
            horizon_us: 200_000.0,
            ..ServeConfig::default()
        };
        assert_eq!(at_the_bound.validate(), Ok(()));
    }

    fn with_weight(tenant: usize, weight: f64) -> ServeConfig {
        let mut cfg = ServeConfig::default();
        cfg.tenants[tenant].weight = weight;
        cfg
    }

    #[test]
    #[should_panic(expected = "invalid serve configuration: the arrival horizon")]
    fn run_refuses_a_horizon_that_never_ends() {
        ServeEngine::new(ServeConfig {
            horizon_us: f64::INFINITY,
            ..ServeConfig::default()
        })
        .run();
    }

    #[test]
    fn quantiles_are_ordered() {
        let outcome = ServeEngine::new(small_config()).run();
        let p50 = outcome.latency_quantile(0.5).expect("completions");
        let p99 = outcome.latency_quantile(0.99).expect("completions");
        assert!(p50 <= p99);
        assert!(p50 > 0.0);
    }

    #[test]
    fn cancelled_events_never_linger_in_the_queue() {
        // Under heavy batching, most batches close on size and their
        // wait-deadlines are dropped; the run must end drained and
        // conserved (dropping a deadline is not allowed to perturb the
        // virtual clock).
        let outcome = ServeEngine::new(ServeConfig {
            offered_rps: 20_000.0,
            horizon_us: 100_000.0,
            ..ServeConfig::default()
        })
        .run();
        assert!(outcome.conserved());
        assert!(
            outcome.end_us >= outcome.horizon_us,
            "end_us covers the horizon: {outcome:?}"
        );
        // Deadlines land after the last dispatch when batches close
        // early; end_us still reflects the latest deadline or event
        // ever scheduled, not just the last one processed.
        let last_finish = outcome
            .batches
            .iter()
            .map(|b| b.finish_us)
            .fold(0.0, f64::max);
        assert!(outcome.end_us >= last_finish);
    }
}
