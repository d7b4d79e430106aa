//! What a serving run returns: the [`ServeOutcome`], its per-batch and
//! per-tenant records, and the counter ledger that declares every
//! scalar counter of a run exactly once.
//!
//! Each row of the `ledger!` declaration below names a counter, its
//! doc, its part in the conservation equations ([`Role`]), the
//! telemetry instrument that mirrors it ([`Metric`]), the `(block,
//! key)` it is written under in the `basecamp serve --trace` replay
//! trace, and the engine layer that publishes it ([`Layer`]). From the
//! rows the macro generates the [`ServeOutcome`] fields (all zero by
//! `Default`), the [`ShedReason`] → counter accessor and the
//! [`ServeOutcome::LEDGER`] table; the conservation sums, the
//! end-of-run telemetry flush, the trace blocks and the observability
//! contract test all iterate that table. Adding a counter is one row
//! here plus its increment in the engine.

use crate::lifecycle::nearest_rank;
use crate::request::ShedReason;

/// A counter's part in the conservation equations checked by
/// [`ServeOutcome::conserved`]: `offered == admitted + Σ DoorShed` and
/// `admitted == Σ Terminal + Σ QueueShed`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Refused before admission; terminal.
    DoorShed,
    /// Admitted, then dropped while queued; terminal.
    QueueShed,
    /// Any other terminal state of an admitted request.
    Terminal,
    /// Not a term of either equation.
    None,
}

/// The telemetry instrument a counter is published to, once, after the
/// event loop drains (`docs/OBSERVABILITY.md`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// A monotonic counter of this name.
    Counter(&'static str),
    /// A gauge of this name.
    Gauge(&'static str),
    /// Not published.
    None,
}

/// The engine layer that publishes a counter's metric. `Core` and
/// `Lifecycle` rows are published by every run (a features-off run
/// registers the lifecycle names at zero); `Cluster` rows only when
/// `ServeConfig::cluster` is `Some`. A run with a layer off leaves
/// that layer's counters at zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// Door, fair queue, batcher, dispatch, breakers, autotuner.
    Core,
    /// Retry budgets, hedging, AIMD limiter, brownout tiers.
    Lifecycle,
    /// Gossip membership, shard leases, fencing.
    Cluster,
}

/// One declared counter; see the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LedgerRow {
    /// The [`ServeOutcome`] field name.
    pub field: &'static str,
    /// Conservation role.
    pub role: Role,
    /// Mirroring telemetry instrument.
    pub metric: Metric,
    /// `(block, key)` in the replay trace.
    pub trace: (&'static str, &'static str),
    /// Publishing layer.
    pub layer: Layer,
}

/// One dispatched batch, as recorded in the replay trace (dispatch
/// order; times in virtual µs).
#[derive(Debug, Clone, PartialEq)]
pub struct BatchRecord {
    /// Batcher-unique id.
    pub id: u64,
    /// Kernel-class index.
    pub class: usize,
    /// Serving node index.
    pub node: usize,
    /// Requests coalesced into the batch.
    pub size: usize,
    /// Dispatch time.
    pub start_us: f64,
    /// Completion (or failure) time.
    pub finish_us: f64,
    /// Whether this was a half-open breaker probe.
    pub probe: bool,
    /// Whether a fault killed the batch before completion.
    pub failed: bool,
    /// Whether this record is a hedge duplicate of another record with
    /// the same id (hedged batches appear twice in the trace: primary
    /// leg and hedge leg).
    pub hedge: bool,
    /// Whether this leg lost the hedge race and was cancelled; its
    /// requests completed exactly once, on the winning leg.
    pub cancelled: bool,
    /// Cluster fencing epoch at dispatch time (0 when the cluster
    /// layer is off or no failover has happened yet). Work stamped
    /// with an old epoch is recognizably stale after a failover.
    pub epoch: u64,
    /// Whether a membership confirm fenced this leg: its node was
    /// declared unreachable while the leg was in flight, the
    /// completion was cancelled, and (for a sole surviving leg) the
    /// requests were re-enqueued.
    pub fenced: bool,
}

/// Per-tenant accounting.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TenantOutcome {
    /// Tenant name.
    pub name: String,
    /// WFQ weight (copied for reporting).
    pub weight: f64,
    /// Requests offered by the arrival trace.
    pub offered: u64,
    /// Requests past admission control.
    pub admitted: u64,
    /// Requests served to completion.
    pub completed: u64,
    /// Requests shed (any [`ShedReason`]).
    pub shed: u64,
    /// Requests lost to faults.
    pub failed: u64,
    /// Retry re-enqueues charged to this tenant's budget. Not a
    /// terminal state: a retried request still ends completed, failed
    /// or deadline-shed.
    pub retried: u64,
}

/// Declares the outcome struct. A counter row reads
/// `field: type = Role[(ShedReason)], Metric[("name")], block[("key")], Layer;`
/// — the trace key defaults to the field name.
macro_rules! ledger {
    (
        $(#[$struct_doc:meta])*
        pub struct $name:ident {
            counters {$(
                $(#[$doc:meta])*
                $field:ident : $ty:ty = $role:ident $(($reason:ident))?,
                    $kind:ident $(($metric:literal))?, $block:ident $(($key:literal))?, $layer:ident;
            )*}
            $($(#[$rest_doc:meta])* pub $rest:ident : $rest_ty:ty,)*
        }
    ) => {
        $(#[$struct_doc])*
        #[derive(Debug, Clone, PartialEq, Default)]
        pub struct $name {
            $($(#[$doc])* pub $field: $ty,)*
            $($(#[$rest_doc])* pub $rest: $rest_ty,)*
        }

        impl $name {
            /// One row per scalar counter, in declaration order.
            pub const LEDGER: &'static [LedgerRow] = &[$(LedgerRow {
                field: stringify!($field),
                role: Role::$role,
                metric: Metric::$kind $(($metric))?,
                trace: (stringify!($block), ledger!(@key $field $($key)?)),
                layer: Layer::$layer,
            }),*];

            /// Every ledger row paired with this outcome's value for
            /// it, in declaration order.
            pub fn ledger(&self) -> impl Iterator<Item = (&'static LedgerRow, u64)> {
                Self::LEDGER.iter().zip([$(u64::from(self.$field)),*])
            }

            /// The counter a shed for `reason` increments.
            pub(crate) fn shed_slot(&mut self, reason: ShedReason) -> &mut u64 {
                match reason {
                    $($(ShedReason::$reason => &mut self.$field,)?)*
                }
            }
        }
    };
    (@key $field:ident) => { stringify!($field) };
    (@key $field:ident $key:literal) => { $key };
}

ledger! {
    /// The result of a serving run.
    pub struct ServeOutcome {
        counters {
            /// Requests offered by the arrival trace.
            offered: u64 = None, Counter("serve.requests_offered"), counts, Core;
            /// Requests past admission control.
            admitted: u64 = None, Counter("serve.requests_admitted"), counts, Core;
            /// Requests served to completion.
            completed: u64 = Terminal, Counter("serve.requests_completed"), counts, Core;
            /// Requests lost to faults after admission.
            failed: u64 = Terminal, Counter("serve.requests_failed"), counts, Core;
            /// Sheds at the door: empty token bucket.
            shed_rate_limited: u64 =
                DoorShed(RateLimited), Counter("serve.shed.rate_limited"), counts, Core;
            /// Sheds at the door: queue-depth backpressure.
            shed_queue_full: u64 =
                DoorShed(QueueFull), Counter("serve.shed.queue_full"), counts, Core;
            /// Sheds at the door: class statically proven unable to meet its
            /// deadline (worst-case bound from `everest-analysis` exceeds the
            /// class deadline).
            shed_static: u64 = DoorShed(StaticallyInfeasible),
                Counter("serve.shed.statically_infeasible"), counts, Core;
            /// Sheds at the door: the adaptive concurrency limiter's cap
            /// (observed batch latency says the cluster is past its useful
            /// concurrency).
            shed_overloaded: u64 =
                DoorShed(Overloaded), Counter("serve.shed.overloaded"), counts, Lifecycle;
            /// Sheds at the door: a brownout tier sacrificed the tenant to
            /// keep higher-weight tenants inside their deadlines.
            shed_brownout: u64 =
                DoorShed(Brownout), Counter("serve.shed.brownout"), counts, Lifecycle;
            /// Sheds in queue: class deadline lapsed before dispatch.
            shed_deadline: u64 =
                QueueShed(DeadlineLapsed), Counter("serve.shed.deadline_lapsed"), counts, Core;
            /// Completions that finished past their class deadline.
            slo_violations: u64 = None, Counter("serve.slo_violations"), counts, Core;
            /// Fault-failed requests re-enqueued by the retry layer (charged
            /// to their tenant's retry budget).
            retries: u64 = None, Counter("serve.retry.attempts"), lifecycle, Lifecycle;
            /// Fault-failed requests the retry layer refused (attempt cap or
            /// budget exhausted) and failed terminally.
            retry_denied: u64 = None, Counter("serve.retry.denied"), lifecycle, Lifecycle;
            /// Hedge duplicates dispatched.
            hedges: u64 = None, Counter("serve.hedge.launched"), lifecycle, Lifecycle;
            /// Hedge races the duplicate won.
            hedge_wins: u64 = None, Counter("serve.hedge.wins"), lifecycle, Lifecycle;
            /// Losing legs cancelled after a hedge race resolved (primary or
            /// duplicate).
            hedge_cancelled: u64 = None, Counter("serve.hedge.cancelled"), lifecycle, Lifecycle;
            /// Hedge timers that fired but found no healthy idle node.
            hedge_denied: u64 = None, Counter("serve.hedge.denied"), lifecycle, Lifecycle;
            /// Brownout tier changes during the run.
            brownout_transitions: u64 =
                None, Counter("serve.brownout.transitions"), lifecycle, Lifecycle;
            /// Highest brownout tier the run reached (0 = never browned out).
            brownout_peak_tier: u8 = None, None, lifecycle, Lifecycle;
            /// Breaker trips during the run.
            breaker_opens: u64 = None, Counter("serve.breaker_opens"), breakers("opens"), Core;
            /// Half-open probe dispatches.
            probes: u64 = None, Counter("serve.probes"), breakers, Core;
            /// Gossip rounds the membership layer ran (0 with the cluster
            /// layer off).
            gossip_rounds: u64 = None, Counter("cluster.gossip_rounds"), cluster, Cluster;
            /// Alive→Suspect transitions across all observer views.
            suspects: u64 = None, Counter("cluster.suspects"), cluster, Cluster;
            /// Suspect→Dead confirms (suspicion outlived the suspect timeout).
            confirms: u64 = None, Counter("cluster.confirms"), cluster, Cluster;
            /// Incarnation-bump refutations (a probed node cleared its own
            /// suspicion).
            refutations: u64 = None, Counter("cluster.refutations"), cluster, Cluster;
            /// Shard lease failovers (each bumps the fencing epoch).
            failovers: u64 = None, Counter("cluster.failovers"), cluster, Cluster;
            /// Lease grants made through the degraded-mode escape hatch
            /// (no quorum, grace expired).
            degraded_grants: u64 = None, Counter("cluster.degraded_grants"), cluster, Cluster;
            /// Final fencing epoch (0 when no failover ever happened).
            cluster_epoch: u64 =
                None, Gauge("cluster.fencing_epoch"), cluster("fencing_epoch"), Cluster;
            /// Sheds at the door: the tenant's shard holds no live lease (its
            /// owner is partitioned away, or the coordinator's component lost
            /// quorum) — refused typed, before any token or queue slot is
            /// spent. Published with the rest of the `serve.shed.*` family,
            /// whether or not the cluster layer is on.
            shed_partitioned: u64 = DoorShed(PartitionedAway),
                Counter("serve.shed.partitioned_away"), cluster, Core;
            /// Requests whose in-flight leg was fenced off a confirmed-dead
            /// node and re-enqueued into the fair queue. Not a terminal state:
            /// each re-enqueued request still ends completed, failed or
            /// deadline-shed exactly once.
            partition_orphans: u64 =
                None, Counter("cluster.orphaned_requests"), cluster, Cluster;
            /// Batch legs fenced by a membership confirm (completion
            /// cancelled; the partitioned node's result can never land).
            fenced_batches: u64 = None, Counter("cluster.fenced_batches"), cluster, Cluster;
            /// Autotuner retune evaluations.
            retunes: u64 = None, Counter("serve.retunes"), autotuner, Core;
        }
        /// Per-tenant accounting, in tenant-table order.
        pub tenants: Vec<TenantOutcome>,
        /// Every dispatched batch, in dispatch order.
        pub batches: Vec<BatchRecord>,
        /// End-to-end latency of every completion, in completion order.
        pub latencies_us: Vec<f64>,
        /// Arrival horizon, microseconds.
        pub horizon_us: f64,
        /// Virtual time the last event settled, microseconds.
        pub end_us: f64,
        /// Final autotuned batch ceiling per class.
        pub final_max_batch: Vec<usize>,
    }
}

impl ServeOutcome {
    /// Sum of the counters playing `role` in the conservation equations.
    pub(crate) fn role_sum(&self, role: Role) -> u64 {
        self.ledger()
            .filter(|(row, _)| row.role == role)
            .map(|(_, value)| value)
            .sum()
    }

    /// Requests shed for any reason.
    pub fn shed_total(&self) -> u64 {
        self.role_sum(Role::DoorShed) + self.role_sum(Role::QueueShed)
    }

    /// Shed fraction of offered load, in `[0, 1]`.
    pub fn shed_rate(&self) -> f64 {
        if self.offered == 0 {
            0.0
        } else {
            self.shed_total() as f64 / self.offered as f64
        }
    }

    /// Completed requests per second of virtual run time.
    pub fn throughput_rps(&self) -> f64 {
        if self.end_us <= 0.0 {
            0.0
        } else {
            self.completed as f64 * 1.0e6 / self.end_us
        }
    }

    /// Exact (nearest-rank) latency quantile, `q` in `[0, 1]`.
    pub fn latency_quantile(&self, q: f64) -> Option<f64> {
        nearest_rank(&self.latencies_us, q)
    }

    /// Mean end-to-end latency, microseconds.
    pub fn mean_latency_us(&self) -> Option<f64> {
        if self.latencies_us.is_empty() {
            None
        } else {
            Some(self.latencies_us.iter().sum::<f64>() / self.latencies_us.len() as f64)
        }
    }

    /// The conservation invariant: every offered request reached
    /// exactly one terminal state, globally and per tenant. Retries
    /// and hedges must not bend it: a retried request is still counted
    /// once at the door and reaches one terminal state, and a hedged
    /// batch's requests complete exactly once (on the winning leg).
    /// Partitions must not bend it either: a `PartitionedAway` shed is
    /// a door-side terminal state, and a fenced orphan re-enters the
    /// queue without leaving the `admitted` population.
    pub fn conserved(&self) -> bool {
        let door = self.offered == self.admitted + self.role_sum(Role::DoorShed);
        let queue = self.admitted == self.role_sum(Role::Terminal) + self.role_sum(Role::QueueShed);
        let hedges = self.hedge_wins <= self.hedges
            && self.hedge_cancelled <= self.hedges
            && self.hedge_wins <= self.hedge_cancelled;
        let tenants = self.tenants.iter().all(|t| {
            t.offered == t.completed + t.shed + t.failed && t.admitted >= t.completed + t.failed
        });
        let sums = self.offered == self.tenants.iter().map(|t| t.offered).sum::<u64>()
            && self.completed == self.tenants.iter().map(|t| t.completed).sum::<u64>()
            && self.failed == self.tenants.iter().map(|t| t.failed).sum::<u64>()
            && self.shed_total() == self.tenants.iter().map(|t| t.shed).sum::<u64>()
            && self.completed as usize == self.latencies_us.len()
            && self.retries == self.tenants.iter().map(|t| t.retried).sum::<u64>();
        door && queue && tenants && sums && hedges
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;
    use crate::{ServeConfig, ServeEngine};

    #[test]
    fn rows_are_unambiguous() {
        let rows = ServeOutcome::LEDGER;
        let fields: BTreeSet<_> = rows.iter().map(|r| r.field).collect();
        let keys: BTreeSet<_> = rows.iter().map(|r| r.trace).collect();
        assert_eq!(fields.len(), rows.len(), "a field is declared twice");
        assert_eq!(keys.len(), rows.len(), "two rows share a trace key");
        let names: Vec<&str> = rows
            .iter()
            .filter_map(|r| match r.metric {
                Metric::Counter(name) | Metric::Gauge(name) => Some(name),
                Metric::None => None,
            })
            .collect();
        let unique: BTreeSet<_> = names.iter().collect();
        assert_eq!(unique.len(), names.len(), "two rows share a metric name");
        // Cluster rows publish under `cluster.*`, every other row under
        // `serve.*`: the flush gates the former on the layer being on.
        for row in rows {
            if let Metric::Counter(name) | Metric::Gauge(name) = row.metric {
                let prefix = match row.layer {
                    Layer::Cluster => "cluster.",
                    Layer::Core | Layer::Lifecycle => "serve.",
                };
                assert!(name.starts_with(prefix), "{}: {name}", row.field);
            }
        }
    }

    #[test]
    fn a_layer_that_is_off_leaves_its_counters_at_zero() {
        let outcome = ServeEngine::new(ServeConfig {
            offered_rps: 40_000.0,
            horizon_us: 60_000.0,
            ..ServeConfig::default()
        })
        .run();
        assert!(outcome.shed_total() > 0 && outcome.completed > 0);
        for (row, value) in outcome.ledger() {
            if row.layer != Layer::Core {
                assert_eq!(value, 0, "{} moved with its layer off", row.field);
            }
        }
    }
}
