//! # everest-cluster
//!
//! Deterministic cluster membership and shard failover for the EVEREST
//! SDK reproduction.
//!
//! The paper's target is a multi-node FPGA cluster; at that scale the
//! dominant failures are not device errors but *network* ones —
//! partitions, asymmetric reachability, delay and loss. This crate
//! supplies the membership layer the serving tier stands on, with the
//! same byte-stable replay guarantee as everything else in the stack:
//!
//! * `NetModel` — ground-truth connectivity compiled from the
//!   network [`FaultKind`](everest_faults::FaultKind)s in a
//!   [`everest_faults::FaultPlan`];
//! * `SwimDetector` — a SWIM-style gossip failure detector on the
//!   shared virtual clock: seeded probe targets, suspect→confirm
//!   timeouts, incarnation-number refutation;
//! * [`HashRing`] — consistent-hash placement with virtual nodes
//!   (tenants onto shards, shards onto live nodes), minimal movement
//!   on membership change;
//! * `LeaseTable` — time-bounded shard ownership renewed only from a
//!   quorum component, with a global fencing epoch bumped on every
//!   failover so stale pre-partition work is recognizable after heal;
//! * [`ClusterController`] — the per-campaign composition the serve
//!   engine ticks once per gossip round.
//!
//! The CP stance: while no strict majority component exists, leases
//! starve and requests shed with a typed reason rather than risk
//! split-brain. Liveness is still guaranteed by a bounded escape
//! hatch — after `NO_QUORUM_GRACE_US` without quorum, the largest
//! surviving component proceeds in *degraded* mode (counted, flagged
//! in traces). The full protocol is documented in `docs/RESILIENCE.md`.
//!
//! The layer has no settings: its cadence, timeouts, lease TTL and ring
//! sizes are named constants beside the code that reads them.

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod lease;
pub mod membership;
pub mod net;
pub(crate) mod placement;

pub use lease::{Failover, LeaseStats};
pub use membership::{SwimStats, GOSSIP_PERIOD_US};
pub use placement::HashRing;

use everest_faults::FaultPlan;
use lease::LeaseTable;
use membership::{MemberState, SwimDetector};
use net::NetModel;

/// Ownership shards tenants hash onto.
const SHARDS: u32 = 16;

/// Virtual points per member on both rings.
const VNODES: u32 = 64;

/// How long total quorum loss is tolerated, in virtual µs, before the
/// largest component proceeds in degraded mode.
const NO_QUORUM_GRACE_US: f64 = 25_000.0;

/// What one cluster tick decided.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ClusterTick {
    /// Nodes newly confirmed dead in the coordinator's view.
    pub newly_dead: Vec<usize>,
    /// Nodes newly back from the dead in the coordinator's view.
    pub revived: Vec<usize>,
    /// Shard ownership transfers granted this tick.
    pub failovers: Vec<Failover>,
    /// Whether a strict-majority component exists.
    pub quorum: bool,
    /// Whether grants are flowing through the degraded escape hatch.
    pub degraded: bool,
}

/// The per-campaign composition: detector + rings + leases.
#[derive(Debug, Clone)]
pub struct ClusterController {
    nodes: usize,
    net: NetModel,
    swim: SwimDetector,
    /// Static ring mapping tenant keys onto shard ids.
    tenant_ring: HashRing,
    leases: LeaseTable,
    coordinator: usize,
    quorum: bool,
    degraded: bool,
    quorum_lost_since_us: Option<f64>,
    /// Coordinator-view state per node, refreshed each tick.
    dead: Vec<bool>,
    dispatchable: Vec<bool>,
}

impl ClusterController {
    /// Builds the layer for `nodes` nodes against `plan`'s network
    /// windows, every shard initially placed over the full membership.
    pub fn new(nodes: usize, plan: &FaultPlan) -> ClusterController {
        let node_ring = HashRing::with_members(VNODES, 0..nodes as u32);
        ClusterController {
            net: NetModel::from_plan(plan),
            swim: SwimDetector::new(nodes, plan.seed),
            tenant_ring: HashRing::with_members(VNODES, 0..SHARDS),
            leases: LeaseTable::new(SHARDS, &node_ring),
            coordinator: 0,
            quorum: true,
            degraded: false,
            quorum_lost_since_us: None,
            dead: vec![false; nodes],
            dispatchable: vec![true; nodes],
            nodes,
        }
    }

    /// Runs one gossip round + lease pass at `now_us`. `crashed` is
    /// ground truth (fail-stop nodes neither probe nor answer); every
    /// other belief comes off the simulated wire.
    pub fn tick(&mut self, now_us: f64, crashed: &[bool]) -> ClusterTick {
        self.swim.tick(now_us, &mut self.net, crashed);
        let mut tick = ClusterTick::default();
        // The router colocates with the coordinator: the live node
        // seeing the most fully-`Alive` peers (ties: lowest index).
        // Counting `Alive` rather than non-dead matters during the
        // suspicion window — a cut node suspects the whole majority
        // within a round or two, so its shrinking view can never win
        // the election and steal shards onto the minority side.
        let Some(coordinator) = (0..self.nodes)
            .filter(|&n| !crashed[n])
            .max_by_key(|&n| (self.swim.alive_count(n), usize::MAX - n))
        else {
            // Every node fail-stopped: nothing to coordinate.
            self.dispatchable.iter_mut().for_each(|d| *d = false);
            return tick;
        };
        self.coordinator = coordinator;
        self.quorum = 2 * self.swim.non_dead_count(coordinator) > self.nodes;
        if self.quorum {
            self.quorum_lost_since_us = None;
            self.degraded = false;
        } else {
            let since = *self.quorum_lost_since_us.get_or_insert(now_us);
            self.degraded = now_us - since >= NO_QUORUM_GRACE_US;
        }
        tick.quorum = self.quorum;
        tick.degraded = self.degraded;
        // Coordinator-view refresh: who is dead, who may take work.
        let granting = self.quorum || self.degraded;
        let mut alive = Vec::with_capacity(self.nodes);
        for (n, n_crashed) in crashed.iter().enumerate().take(self.nodes) {
            let state = self.swim.state(coordinator, n);
            let dead_now = state == MemberState::Dead;
            if dead_now && !self.dead[n] {
                tick.newly_dead.push(n);
            }
            if !dead_now && self.dead[n] {
                tick.revived.push(n);
            }
            self.dead[n] = dead_now;
            let fully_alive = state == MemberState::Alive && !*n_crashed;
            self.dispatchable[n] = fully_alive && granting;
            if fully_alive {
                alive.push(n);
            }
        }
        let node_ring = HashRing::with_members(VNODES, alive.iter().map(|&n| n as u32));
        tick.failovers = self
            .leases
            .tick(now_us, &alive, self.quorum, self.degraded, &node_ring);
        tick
    }

    /// The shard `tenant` hashes onto.
    pub(crate) fn shard_of_tenant(&self, tenant: usize) -> u32 {
        self.tenant_ring
            .place(0x7E4A_0000_0000_0000 | tenant as u64)
            .unwrap_or(0)
    }

    /// The live `(owner, epoch)` grant covering `tenant`'s shard at
    /// `now_us`, or `None` when the lease has lapsed (the door sheds
    /// such requests with a typed reason).
    pub fn tenant_owner(&self, tenant: usize, now_us: f64) -> Option<(usize, u64)> {
        self.leases.owner(self.shard_of_tenant(tenant), now_us)
    }

    /// Whether the coordinator will route new work to `node`: fully
    /// `Alive` in the coordinator's view, not crashed, and grants are
    /// flowing (quorum or degraded mode).
    pub fn dispatchable(&self, node: usize) -> bool {
        self.dispatchable[node]
    }

    /// Whether `node` is confirmed dead in the coordinator's view.
    pub fn confirmed_dead(&self, node: usize) -> bool {
        self.dead[node]
    }

    /// Whether a strict-majority component exists (as of last tick).
    pub fn quorum(&self) -> bool {
        self.quorum
    }

    /// The global fencing epoch (bumped once per failover).
    pub fn fencing_epoch(&self) -> u64 {
        self.leases.fencing_epoch()
    }

    /// Detector counters.
    pub fn swim_stats(&self) -> SwimStats {
        self.swim.stats
    }

    /// Lease counters.
    pub fn lease_stats(&self) -> LeaseStats {
        self.leases.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use everest_faults::{FaultKind, FaultSpec};

    fn run_ticks(
        ctl: &mut ClusterController,
        crashed: &[bool],
        from_us: f64,
        rounds: usize,
    ) -> (f64, Vec<ClusterTick>) {
        let mut now = from_us;
        let mut ticks = Vec::new();
        for _ in 0..rounds {
            now += GOSSIP_PERIOD_US;
            ticks.push(ctl.tick(now, crashed));
        }
        (now, ticks)
    }

    #[test]
    fn healthy_cluster_grants_everywhere() {
        let plan = FaultPlan::new(3);
        let mut ctl = ClusterController::new(4, &plan);
        let (now, ticks) = run_ticks(&mut ctl, &[false; 4], 0.0, 10);
        assert!(ticks.iter().all(|t| t.quorum && !t.degraded));
        assert!(ticks.iter().all(|t| t.failovers.is_empty()));
        for node in 0..4 {
            assert!(ctl.dispatchable(node));
        }
        for tenant in 0..32 {
            assert!(ctl.tenant_owner(tenant, now).is_some());
        }
        assert_eq!(ctl.fencing_epoch(), 0);
    }

    #[test]
    fn minority_partition_fails_over_and_heals() {
        // Node 0 cut off for 30ms of a healthy 4-node cluster.
        let plan = FaultPlan::new(7).with_fault(FaultSpec::new(
            2_000.0,
            0,
            FaultKind::PartitionSym {
                group: 0b0001,
                duration_us: 30_000.0,
            },
        ));
        let mut ctl = ClusterController::new(4, &plan);
        let (mid, ticks) = run_ticks(&mut ctl, &[false; 4], 0.0, 12);
        let confirmed: Vec<usize> = ticks.iter().flat_map(|t| t.newly_dead.clone()).collect();
        assert!(confirmed.contains(&0), "the cut node must be confirmed");
        assert!(ctl.quorum(), "3 of 4 keep quorum");
        assert!(!ctl.dispatchable(0));
        let moved: Vec<Failover> = ticks.iter().flat_map(|t| t.failovers.clone()).collect();
        assert!(
            moved
                .iter()
                .all(|f| f.from == 0 && f.to != 0 && !f.degraded),
            "only the cut node's shards move, inside the quorum"
        );
        assert!(ctl.fencing_epoch() > 0, "failover bumps the fence");
        // Every tenant is re-covered by a live grant.
        for tenant in 0..32 {
            let (owner, _) = ctl.tenant_owner(tenant, mid).expect("covered");
            assert_ne!(owner, 0);
        }
        // Heal: run far past the window, node 0 revives and serves.
        let (_, ticks) = run_ticks(&mut ctl, &[false; 4], 40_000.0, 40);
        assert!(
            ticks.iter().any(|t| t.revived.contains(&0)),
            "the healed node must revive"
        );
        assert!(ctl.dispatchable(0));
        let epoch_after_heal = ctl.fencing_epoch();
        let (_, quiet) = run_ticks(&mut ctl, &[false; 4], 90_000.0, 10);
        assert!(quiet.iter().all(|t| t.failovers.is_empty()));
        assert_eq!(
            ctl.fencing_epoch(),
            epoch_after_heal,
            "leases are sticky: no failback churn after heal"
        );
    }

    #[test]
    fn even_split_starves_then_degrades() {
        let plan = FaultPlan::new(5).with_fault(FaultSpec::new(
            1_000.0,
            0,
            FaultKind::PartitionSym {
                group: 0b0011,
                duration_us: 1e9,
            },
        ));
        let mut ctl = ClusterController::new(4, &plan);
        let (now, _) = run_ticks(&mut ctl, &[false; 4], 0.0, 12);
        assert!(!ctl.quorum(), "a 2-2 split has no majority");
        assert!(
            (0..4).all(|n| !ctl.dispatchable(n)),
            "CP stance: no quorum, no dispatch"
        );
        assert!(
            (0..32).all(|t| ctl.tenant_owner(t, now).is_none()),
            "every lease starves without quorum"
        );
        // Grace runs out: the largest component proceeds degraded,
        // re-fencing the lapsed grants it can cover.
        let rounds = (NO_QUORUM_GRACE_US / GOSSIP_PERIOD_US) as usize;
        let (now, ticks) = run_ticks(&mut ctl, &[false; 4], now, rounds);
        assert!(ticks.iter().any(|t| t.degraded));
        assert!(ctl.lease_stats().degraded_grants > 0);
        assert!(
            (0..32).all(|t| ctl.tenant_owner(t, now).is_some()),
            "degraded mode restores coverage"
        );
        assert!(
            (0..4).filter(|&n| ctl.dispatchable(n)).count() == 2,
            "only the surviving component takes work"
        );
    }

    #[test]
    fn same_seed_same_decisions() {
        let run = || {
            let plan = FaultPlan::random_partition_campaign(42, 4, 60_000.0, 2);
            let mut ctl = ClusterController::new(4, &plan);
            let mut crashed = [false; 4];
            let mut log = Vec::new();
            for round in 1..=60 {
                if round == 30 {
                    crashed[3] = true;
                }
                log.push(ctl.tick(round as f64 * 1_000.0, &crashed));
            }
            (
                log,
                ctl.fencing_epoch(),
                ctl.swim_stats(),
                ctl.lease_stats(),
            )
        };
        assert_eq!(run(), run());
    }
}
