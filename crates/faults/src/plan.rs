//! Seeded, fully deterministic fault plans.
//!
//! A [`FaultPlan`] is a list of timed [`FaultSpec`]s plus the seed that
//! parameterizes every random decision made while executing the plan
//! (backoff jitter, campaign synthesis). Two runs of the same plan are
//! required to produce identical behaviour — the scheduler, platform
//! and CLI layers all derive their randomness from the plan seed and
//! virtual time only, never from wall clocks.

use crate::rng::DetRng;

/// What goes wrong. Targets are expressed against the simulated
/// cluster: `node` lives on the enclosing [`FaultSpec`].
#[derive(Debug, Clone, PartialEq)]
pub enum FaultKind {
    /// The node dies and never returns (fail-stop).
    NodeCrash,
    /// The links touching the node degrade: transfers pay `factor`×
    /// their healthy cost for `duration_us` of virtual time.
    LinkDegrade {
        /// Cost multiplier while the flap lasts (≥ 1).
        factor: f64,
        /// How long the degradation lasts, in virtual µs.
        duration_us: f64,
    },
    /// A DMA/sync operation times out; the operation in flight fails
    /// and must be retried.
    DmaTimeout,
    /// Partial reconfiguration of the node's FPGA fails; the
    /// accelerator is lost until repaired (permanent within one run).
    PartialReconfigFail,
    /// A kernel launch hits a transient error (SEU, protocol hiccup);
    /// retrying usually succeeds.
    TransientKernelError,
    /// A memory ECC event: correctable, but the scrub stalls whatever
    /// was executing on the node.
    MemoryEcc,
    /// A virtual function is surprise hot-unplugged from its VM.
    VfUnplug {
        /// VF index on the node's physical function.
        vf: u32,
    },
    /// *Gray* fault: the node's compute throughput silently drops.
    /// Everything executing there takes `factor`× longer for
    /// `duration_us` of virtual time, but no error is ever raised —
    /// the straggler is only catchable by watching achieved latency.
    SlowNode {
        /// Compute-time multiplier while the slowdown lasts (≥ 1).
        factor: f64,
        /// How long the slowdown lasts, in virtual µs.
        duration_us: f64,
    },
    /// *Gray* fault: a lossy, partially partitioned link. Transfers
    /// touching the node silently pay `factor`× their healthy cost;
    /// unlike [`FaultKind::LinkDegrade`] the planner is never told, so
    /// only byte-counter/latency detection can see it.
    GrayLink {
        /// Transfer-cost multiplier while the loss lasts (≥ 1).
        factor: f64,
        /// How long the partition lasts, in virtual µs.
        duration_us: f64,
    },
    /// *Gray* fault: the node's FPGA virtual function degrades
    /// progressively — accelerator latency inflates by `per_ms` per
    /// virtual millisecond since onset, without ever erroring.
    VfCreep {
        /// Added latency fraction per virtual millisecond since onset.
        per_ms: f64,
    },
    /// *Network* fault: a symmetric partition. Nodes whose bit is set
    /// in `group` exchange no messages with the rest of the cluster in
    /// either direction for `duration_us` of virtual time. The spec's
    /// `node` field is ignored (conventionally 0): the target is the
    /// group boundary, not a single node.
    PartitionSym {
        /// Bitmask of partitioned node indices (bit `i` = node `i`).
        group: u64,
        /// How long the partition lasts, in virtual µs.
        duration_us: f64,
    },
    /// *Network* fault: an asymmetric partition. Messages *from* nodes
    /// in `group` to the rest of the cluster are lost while the reverse
    /// direction still delivers — the classic one-way failure that
    /// makes naive failure detectors disagree.
    PartitionAsym {
        /// Bitmask of node indices whose outbound messages are lost.
        group: u64,
        /// How long the asymmetry lasts, in virtual µs.
        duration_us: f64,
    },
    /// *Network* fault: messages crossing the `group` boundary (either
    /// direction) are delayed by `delay_us`. Probes that cannot finish
    /// their round trip inside the prober's timeout read as failures,
    /// so sustained delay manufactures false suspicion.
    MsgDelay {
        /// Bitmask of node indices on the slow side of the boundary.
        group: u64,
        /// Added one-way latency while the window lasts, in µs.
        delay_us: f64,
        /// How long the delay window lasts, in virtual µs.
        duration_us: f64,
    },
    /// *Network* fault: messages crossing the `group` boundary are
    /// dropped independently with probability `loss`, drawn from the
    /// consuming layer's seeded stream.
    MsgLoss {
        /// Bitmask of node indices on the lossy side of the boundary.
        group: u64,
        /// Per-message drop probability in `[0, 1]`.
        loss: f64,
        /// How long the loss window lasts, in virtual µs.
        duration_us: f64,
    },
}

impl FaultKind {
    /// Stable lower-case identifier used in traces, telemetry event
    /// details and the chaos CLI output.
    pub fn id(&self) -> &'static str {
        match self {
            FaultKind::NodeCrash => "node_crash",
            FaultKind::LinkDegrade { .. } => "link_degrade",
            FaultKind::DmaTimeout => "dma_timeout",
            FaultKind::PartialReconfigFail => "partial_reconfig_fail",
            FaultKind::TransientKernelError => "transient_kernel_error",
            FaultKind::MemoryEcc => "memory_ecc",
            FaultKind::VfUnplug { .. } => "vf_unplug",
            FaultKind::SlowNode { .. } => "slow_node",
            FaultKind::GrayLink { .. } => "gray_link",
            FaultKind::VfCreep { .. } => "vf_creep",
            FaultKind::PartitionSym { .. } => "partition_sym",
            FaultKind::PartitionAsym { .. } => "partition_asym",
            FaultKind::MsgDelay { .. } => "msg_delay",
            FaultKind::MsgLoss { .. } => "msg_loss",
        }
    }

    /// Extra parameters rendered into [`FaultSpec::describe`] beyond
    /// the kind id. Only network kinds carry a detail (the group
    /// bitmask and window length); per-node kinds render `None`, which
    /// keeps every pre-0.7.0 trace byte-identical.
    pub fn detail(&self) -> Option<String> {
        match self {
            FaultKind::PartitionSym { group, duration_us }
            | FaultKind::PartitionAsym { group, duration_us } => {
                Some(format!("group={group:#x} duration_us={duration_us:.3}"))
            }
            FaultKind::MsgDelay {
                group,
                delay_us,
                duration_us,
            } => Some(format!(
                "group={group:#x} delay_us={delay_us:.3} duration_us={duration_us:.3}"
            )),
            FaultKind::MsgLoss {
                group,
                loss,
                duration_us,
            } => Some(format!(
                "group={group:#x} loss={loss:.3} duration_us={duration_us:.3}"
            )),
            FaultKind::NodeCrash
            | FaultKind::LinkDegrade { .. }
            | FaultKind::DmaTimeout
            | FaultKind::PartialReconfigFail
            | FaultKind::TransientKernelError
            | FaultKind::MemoryEcc
            | FaultKind::VfUnplug { .. }
            | FaultKind::SlowNode { .. }
            | FaultKind::GrayLink { .. }
            | FaultKind::VfCreep { .. } => None,
        }
    }
}

/// One fault: a kind, a target node and a virtual time.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSpec {
    /// Virtual time at which the fault fires, in µs.
    pub at_us: f64,
    /// Target node index in the simulated cluster.
    pub node: usize,
    /// What happens.
    pub kind: FaultKind,
}

impl FaultSpec {
    /// Creates a fault.
    pub fn new(at_us: f64, node: usize, kind: FaultKind) -> FaultSpec {
        FaultSpec { at_us, node, kind }
    }

    /// Stable one-line rendering used in telemetry event details and
    /// chaos traces: `kind=<id> node=<n> at_us=<t>`, with the network
    /// kinds appending their group parameters.
    pub fn describe(&self) -> String {
        match self.kind.detail() {
            Some(detail) => format!(
                "kind={} node={} at_us={:.3} {}",
                self.kind.id(),
                self.node,
                self.at_us,
                detail
            ),
            None => format!(
                "kind={} node={} at_us={:.3}",
                self.kind.id(),
                self.node,
                self.at_us
            ),
        }
    }
}

/// A seeded sequence of faults, kept sorted by time (ties broken by
/// node index, then insertion order — fully deterministic).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed for every random decision tied to this plan.
    pub seed: u64,
    faults: Vec<FaultSpec>,
}

impl FaultPlan {
    /// An empty plan (no faults; the seed still parameterizes jitter).
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            faults: Vec::new(),
        }
    }

    /// Adds a fault, keeping the plan sorted by `(at_us, node)`.
    pub fn with_fault(mut self, fault: FaultSpec) -> FaultPlan {
        self.push(fault);
        self
    }

    /// Adds a fault in place, keeping the plan sorted by `(at_us, node)`.
    pub fn push(&mut self, fault: FaultSpec) {
        let pos = self
            .faults
            .partition_point(|f| (f.at_us, f.node) <= (fault.at_us, fault.node));
        self.faults.insert(pos, fault);
    }

    /// The faults, sorted by time.
    pub fn faults(&self) -> &[FaultSpec] {
        &self.faults
    }

    /// Number of faults in the plan.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// Whether the plan carries no faults.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Convenience: a plan whose only fault is `node` dying at `at_us`
    /// — how the runtime's scheduler is handed a single node crash.
    pub fn single_node_crash(seed: u64, node: usize, at_us: f64) -> FaultPlan {
        FaultPlan::new(seed).with_fault(FaultSpec::new(at_us, node, FaultKind::NodeCrash))
    }

    /// Synthesizes a random chaos campaign: `count` faults drawn
    /// uniformly over `[0, horizon_us)` against `nodes` nodes, mixing
    /// every fault kind. Entirely determined by `seed`.
    ///
    /// At most one `NodeCrash` is drawn per campaign so that plans stay
    /// survivable on small clusters; the remaining draws are spread
    /// over the recoverable kinds.
    pub fn random_campaign(seed: u64, nodes: usize, horizon_us: f64, count: usize) -> FaultPlan {
        let mut rng = DetRng::new(seed).fork(0xCA05);
        let mut plan = FaultPlan::new(seed);
        if nodes == 0 || horizon_us <= 0.0 {
            return plan;
        }
        let mut crashed = false;
        for _ in 0..count {
            let at_us = rng.range_f64(0.05 * horizon_us, 0.95 * horizon_us);
            let node = rng.index(nodes);
            let kind = match rng.index(if crashed { 5 } else { 6 }) {
                0 => FaultKind::TransientKernelError,
                1 => FaultKind::DmaTimeout,
                2 => FaultKind::MemoryEcc,
                3 => FaultKind::LinkDegrade {
                    factor: 1.0 + rng.range_f64(1.0, 7.0),
                    duration_us: rng.range_f64(0.05, 0.2) * horizon_us,
                },
                4 => FaultKind::VfUnplug {
                    vf: rng.index(4) as u32,
                },
                _ => {
                    crashed = true;
                    FaultKind::NodeCrash
                }
            };
            plan.push(FaultSpec::new(at_us, node, kind));
        }
        plan
    }

    /// Synthesizes a random *gray* campaign: silent degradations only
    /// ([`FaultKind::SlowNode`], [`FaultKind::GrayLink`],
    /// [`FaultKind::VfCreep`]), never a typed error. The first fault is
    /// always a strong long-lived `SlowNode` straggler starting near
    /// `0.02 * horizon_us`, so every campaign contains at least one
    /// degradation a health monitor must be able to catch. Entirely
    /// determined by `seed`.
    pub fn random_gray_campaign(
        seed: u64,
        nodes: usize,
        horizon_us: f64,
        count: usize,
    ) -> FaultPlan {
        let mut rng = DetRng::new(seed).fork(0x6AA7);
        let mut plan = FaultPlan::new(seed);
        if nodes == 0 || horizon_us <= 0.0 || count == 0 {
            return plan;
        }
        let straggler = rng.index(nodes);
        plan.push(FaultSpec::new(
            0.02 * horizon_us,
            straggler,
            FaultKind::SlowNode {
                factor: rng.range_f64(3.0, 6.0),
                duration_us: horizon_us,
            },
        ));
        for _ in 1..count {
            let at_us = rng.range_f64(0.05 * horizon_us, 0.6 * horizon_us);
            let node = rng.index(nodes);
            let kind = match rng.index(3) {
                0 => FaultKind::SlowNode {
                    factor: rng.range_f64(1.5, 3.0),
                    duration_us: rng.range_f64(0.2, 0.5) * horizon_us,
                },
                1 => FaultKind::GrayLink {
                    factor: rng.range_f64(2.0, 8.0),
                    duration_us: rng.range_f64(0.2, 0.6) * horizon_us,
                },
                _ => FaultKind::VfCreep {
                    per_ms: rng.range_f64(0.02, 0.1),
                },
            };
            plan.push(FaultSpec::new(at_us, node, kind));
        }
        plan
    }

    /// Synthesizes a random *partition* campaign: `cycles` back-to-back
    /// partition/heal cycles over `[0, horizon_us)`, alternating
    /// symmetric and asymmetric cuts, each optionally chased by a
    /// message-delay or message-loss window against the same group.
    /// Every cut isolates a strict minority (1..=nodes/2 nodes), so the
    /// remainder always retains quorum and shard failover can proceed.
    /// Entirely determined by `seed`.
    pub fn random_partition_campaign(
        seed: u64,
        nodes: usize,
        horizon_us: f64,
        cycles: usize,
    ) -> FaultPlan {
        let mut rng = DetRng::new(seed).fork(0x9A2717);
        let mut plan = FaultPlan::new(seed);
        if nodes < 2 || horizon_us <= 0.0 || cycles == 0 {
            return plan;
        }
        let slot = horizon_us / cycles as f64;
        let maskable = nodes.min(64);
        for cycle in 0..cycles {
            let base = cycle as f64 * slot;
            let cut = 1 + rng.index((maskable / 2).max(1));
            let mut group = 0u64;
            while (group.count_ones() as usize) < cut {
                group |= 1u64 << rng.index(maskable);
            }
            let at_us = base + rng.range_f64(0.1, 0.25) * slot;
            let duration_us = rng.range_f64(0.25, 0.45) * slot;
            let kind = if cycle % 2 == 0 {
                FaultKind::PartitionSym { group, duration_us }
            } else {
                FaultKind::PartitionAsym { group, duration_us }
            };
            plan.push(FaultSpec::new(at_us, 0, kind));
            let tail_at = base + rng.range_f64(0.72, 0.8) * slot;
            let tail_len = rng.range_f64(0.08, 0.15) * slot;
            match rng.index(3) {
                0 => plan.push(FaultSpec::new(
                    tail_at,
                    0,
                    FaultKind::MsgDelay {
                        group,
                        delay_us: rng.range_f64(400.0, 1_500.0),
                        duration_us: tail_len,
                    },
                )),
                1 => plan.push(FaultSpec::new(
                    tail_at,
                    0,
                    FaultKind::MsgLoss {
                        group,
                        loss: rng.range_f64(0.3, 0.9),
                        duration_us: tail_len,
                    },
                )),
                _ => {}
            }
        }
        plan
    }

    /// The jitter/backoff substream tied to this plan. Forked from the
    /// seed so campaign synthesis and recovery jitter never share draws.
    pub fn jitter_rng(&self) -> DetRng {
        DetRng::new(self.seed).fork(0x1177E5)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_stay_sorted() {
        let plan = FaultPlan::new(1)
            .with_fault(FaultSpec::new(300.0, 1, FaultKind::DmaTimeout))
            .with_fault(FaultSpec::new(100.0, 2, FaultKind::NodeCrash))
            .with_fault(FaultSpec::new(200.0, 0, FaultKind::MemoryEcc));
        let times: Vec<f64> = plan.faults().iter().map(|f| f.at_us).collect();
        assert_eq!(times, vec![100.0, 200.0, 300.0]);
        assert_eq!(plan.len(), 3);
        assert!(!plan.is_empty());
    }

    #[test]
    fn campaigns_replay_exactly() {
        let a = FaultPlan::random_campaign(42, 4, 100_000.0, 8);
        let b = FaultPlan::random_campaign(42, 4, 100_000.0, 8);
        assert_eq!(a, b);
        assert_eq!(a.len(), 8);
        let c = FaultPlan::random_campaign(43, 4, 100_000.0, 8);
        assert_ne!(a, c, "different seeds must differ");
    }

    #[test]
    fn campaigns_crash_at_most_one_node() {
        for seed in 0..32 {
            let plan = FaultPlan::random_campaign(seed, 4, 50_000.0, 10);
            let crashes = plan
                .faults()
                .iter()
                .filter(|f| f.kind == FaultKind::NodeCrash)
                .count();
            assert!(crashes <= 1, "seed {seed} drew {crashes} crashes");
        }
    }

    #[test]
    fn describe_is_stable() {
        let f = FaultSpec::new(1234.5, 2, FaultKind::TransientKernelError);
        assert_eq!(
            f.describe(),
            "kind=transient_kernel_error node=2 at_us=1234.500"
        );
    }

    #[test]
    fn empty_targets_yield_empty_plans() {
        assert!(FaultPlan::random_campaign(1, 0, 1000.0, 5).is_empty());
        assert!(FaultPlan::random_campaign(1, 3, 0.0, 5).is_empty());
        assert!(FaultPlan::random_gray_campaign(1, 0, 1000.0, 5).is_empty());
        assert!(FaultPlan::random_gray_campaign(1, 3, 1000.0, 0).is_empty());
    }

    #[test]
    fn gray_campaigns_are_all_gray_and_anchored() {
        for seed in 0..16 {
            let plan = FaultPlan::random_gray_campaign(seed, 4, 60_000.0, 6);
            assert_eq!(plan.len(), 6);
            assert!(plan.faults().iter().all(|f| matches!(
                f.kind,
                FaultKind::SlowNode { .. } | FaultKind::GrayLink { .. } | FaultKind::VfCreep { .. }
            )));
            // The anchored straggler: earliest fault, strong and long.
            let first = &plan.faults()[0];
            assert_eq!(first.at_us, 0.02 * 60_000.0);
            match first.kind {
                FaultKind::SlowNode {
                    factor,
                    duration_us,
                } => {
                    assert!(factor >= 3.0, "anchor factor {factor}");
                    assert_eq!(duration_us, 60_000.0);
                }
                ref other => panic!("anchor must be SlowNode, got {other:?}"),
            }
        }
        let a = FaultPlan::random_gray_campaign(9, 4, 60_000.0, 6);
        let b = FaultPlan::random_gray_campaign(9, 4, 60_000.0, 6);
        assert_eq!(a, b, "gray campaigns must replay exactly");
    }

    #[test]
    fn partition_campaigns_cut_minorities_and_replay() {
        for seed in 0..16 {
            let plan = FaultPlan::random_partition_campaign(seed, 4, 120_000.0, 3);
            assert!(plan.len() >= 3, "seed {seed}: at least one cut per cycle");
            assert!(plan.faults().iter().all(|f| matches!(
                f.kind,
                FaultKind::PartitionSym { .. }
                    | FaultKind::PartitionAsym { .. }
                    | FaultKind::MsgDelay { .. }
                    | FaultKind::MsgLoss { .. }
            )));
            for f in plan.faults() {
                if let FaultKind::PartitionSym { group, .. }
                | FaultKind::PartitionAsym { group, .. } = f.kind
                {
                    let cut = group.count_ones() as usize;
                    assert!(
                        (1..=2).contains(&cut),
                        "seed {seed}: cut {cut} of 4 is not a strict minority"
                    );
                }
            }
        }
        let a = FaultPlan::random_partition_campaign(9, 4, 120_000.0, 3);
        let b = FaultPlan::random_partition_campaign(9, 4, 120_000.0, 3);
        assert_eq!(a, b, "partition campaigns must replay exactly");
        assert!(FaultPlan::random_partition_campaign(1, 1, 1000.0, 2).is_empty());
        assert!(FaultPlan::random_partition_campaign(1, 4, 0.0, 2).is_empty());
        assert!(FaultPlan::random_partition_campaign(1, 4, 1000.0, 0).is_empty());
    }

    #[test]
    fn network_kinds_describe_their_group() {
        let f = FaultSpec::new(
            500.0,
            0,
            FaultKind::PartitionSym {
                group: 0b0011,
                duration_us: 2_000.0,
            },
        );
        assert_eq!(
            f.describe(),
            "kind=partition_sym node=0 at_us=500.000 group=0x3 duration_us=2000.000"
        );
    }

    #[test]
    fn gray_kinds_have_stable_ids() {
        assert_eq!(
            FaultKind::SlowNode {
                factor: 2.0,
                duration_us: 1.0
            }
            .id(),
            "slow_node"
        );
        assert_eq!(
            FaultKind::GrayLink {
                factor: 2.0,
                duration_us: 1.0
            }
            .id(),
            "gray_link"
        );
        assert_eq!(FaultKind::VfCreep { per_ms: 0.1 }.id(), "vf_creep");
    }
}
