//! Ground-truth connectivity derived from a fault plan's network
//! windows.
//!
//! The cluster layer is the only consumer of the network
//! [`FaultKind`]s: a `NetModel` compiles the plan's partition, delay
//! and loss windows into an oracle answering "does a message from `a`
//! to `b` get through at virtual time `t`?". Probes are the unit of
//! exchange — a probe succeeds only when both directions deliver
//! inside the prober's timeout, with message loss drawn from a stream
//! forked off the plan seed so the same plan replays the same drops.

use everest_faults::{DetRng, FaultKind, FaultPlan};

/// Whether `a` and `b` sit on opposite sides of the `group` bitmask.
fn crosses(group: u64, a: usize, b: usize) -> bool {
    let side = |n: usize| n < 64 && (group >> n) & 1 == 1;
    side(a) != side(b)
}

/// The compiled network-fault windows for one plan.
#[derive(Debug, Clone)]
pub(crate) struct NetModel {
    /// Symmetric cuts: `(from_us, until_us, group)`.
    sym: Vec<(f64, f64, u64)>,
    /// One-way cuts (outbound from `group` lost): `(from_us, until_us, group)`.
    asym: Vec<(f64, f64, u64)>,
    /// Delay windows: `(from_us, until_us, group, delay_us)`.
    delay: Vec<(f64, f64, u64, f64)>,
    /// Loss windows: `(from_us, until_us, group, probability)`.
    loss: Vec<(f64, f64, u64, f64)>,
    /// Seeded stream for per-probe loss draws.
    rng: DetRng,
}

impl NetModel {
    /// Compiles the plan's network faults. Non-network kinds are the
    /// device layers' business and are ignored here.
    pub(crate) fn from_plan(plan: &FaultPlan) -> NetModel {
        let mut model = NetModel {
            sym: Vec::new(),
            asym: Vec::new(),
            delay: Vec::new(),
            loss: Vec::new(),
            rng: DetRng::new(plan.seed).fork(0x7E7A11),
        };
        for f in plan.faults() {
            match f.kind {
                FaultKind::PartitionSym { group, duration_us } => {
                    model.sym.push((f.at_us, f.at_us + duration_us, group));
                }
                FaultKind::PartitionAsym { group, duration_us } => {
                    model.asym.push((f.at_us, f.at_us + duration_us, group));
                }
                FaultKind::MsgDelay {
                    group,
                    delay_us,
                    duration_us,
                } => {
                    model
                        .delay
                        .push((f.at_us, f.at_us + duration_us, group, delay_us.max(0.0)));
                }
                FaultKind::MsgLoss {
                    group,
                    loss,
                    duration_us,
                } => {
                    model
                        .loss
                        .push((f.at_us, f.at_us + duration_us, group, loss.clamp(0.0, 1.0)));
                }
                FaultKind::NodeCrash
                | FaultKind::LinkDegrade { .. }
                | FaultKind::DmaTimeout
                | FaultKind::PartialReconfigFail
                | FaultKind::TransientKernelError
                | FaultKind::MemoryEcc
                | FaultKind::VfUnplug { .. }
                | FaultKind::SlowNode { .. }
                | FaultKind::GrayLink { .. }
                | FaultKind::VfCreep { .. } => {}
            }
        }
        model
    }

    /// One-way hard cut: `true` when a symmetric window separates the
    /// pair, or an asymmetric window has the sender on the cut side.
    pub(crate) fn severed(&self, from: usize, to: usize, now_us: f64) -> bool {
        self.sym
            .iter()
            .any(|&(s, e, g)| now_us >= s && now_us < e && crosses(g, from, to))
            || self.asym.iter().any(|&(s, e, g)| {
                now_us >= s
                    && now_us < e
                    && crosses(g, from, to)
                    && from < 64
                    && (g >> from) & 1 == 1
            })
    }

    /// Worst added one-way latency for a message `from -> to` at `now_us`.
    pub(crate) fn delay_us(&self, from: usize, to: usize, now_us: f64) -> f64 {
        self.delay
            .iter()
            .filter(|&&(s, e, g, _)| now_us >= s && now_us < e && crosses(g, from, to))
            .map(|&(_, _, _, d)| d)
            .fold(0.0, f64::max)
    }

    /// Worst per-message drop probability for `from -> to` at `now_us`.
    pub(crate) fn loss_prob(&self, from: usize, to: usize, now_us: f64) -> f64 {
        self.loss
            .iter()
            .filter(|&&(s, e, g, _)| now_us >= s && now_us < e && crosses(g, from, to))
            .map(|&(_, _, _, p)| p)
            .fold(0.0, f64::max)
    }

    /// One full probe round trip `from -> to -> from` at `now_us`:
    /// fails on a severed direction, on a round-trip delay beyond
    /// `timeout_us`, or on a seeded loss draw.
    pub(crate) fn probe_ok(
        &mut self,
        from: usize,
        to: usize,
        now_us: f64,
        timeout_us: f64,
    ) -> bool {
        if self.severed(from, to, now_us) || self.severed(to, from, now_us) {
            return false;
        }
        if self.delay_us(from, to, now_us) + self.delay_us(to, from, now_us) > timeout_us {
            return false;
        }
        let loss = self
            .loss_prob(from, to, now_us)
            .max(self.loss_prob(to, from, now_us));
        !(loss > 0.0 && self.rng.next_unit() < loss)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use everest_faults::FaultSpec;

    fn plan() -> FaultPlan {
        FaultPlan::new(11)
            .with_fault(FaultSpec::new(
                1_000.0,
                0,
                FaultKind::PartitionSym {
                    group: 0b0001,
                    duration_us: 2_000.0,
                },
            ))
            .with_fault(FaultSpec::new(
                5_000.0,
                0,
                FaultKind::PartitionAsym {
                    group: 0b0010,
                    duration_us: 1_000.0,
                },
            ))
            .with_fault(FaultSpec::new(
                8_000.0,
                0,
                FaultKind::MsgDelay {
                    group: 0b0100,
                    delay_us: 900.0,
                    duration_us: 1_000.0,
                },
            ))
            .with_fault(FaultSpec::new(
                10_000.0,
                0,
                FaultKind::MsgLoss {
                    group: 0b1000,
                    loss: 1.0,
                    duration_us: 1_000.0,
                },
            ))
    }

    #[test]
    fn symmetric_cuts_sever_both_directions() {
        let net = NetModel::from_plan(&plan());
        assert!(!net.severed(0, 1, 500.0), "before the window");
        assert!(net.severed(0, 1, 1_500.0));
        assert!(net.severed(1, 0, 1_500.0));
        assert!(!net.severed(0, 1, 3_000.0), "healed");
        assert!(!net.severed(2, 3, 1_500.0), "same side unaffected");
    }

    #[test]
    fn asymmetric_cuts_sever_outbound_only() {
        let net = NetModel::from_plan(&plan());
        assert!(net.severed(1, 0, 5_500.0), "outbound from the group lost");
        assert!(!net.severed(0, 1, 5_500.0), "inbound still delivers");
        let mut net = net;
        assert!(
            !net.probe_ok(0, 1, 5_500.0, 1e9),
            "a probe still fails: the ack direction is cut"
        );
    }

    #[test]
    fn delay_and_loss_fail_probes() {
        let mut net = NetModel::from_plan(&plan());
        assert!(!net.probe_ok(2, 0, 8_500.0, 1_000.0), "1800us rtt > 1000us");
        assert!(net.probe_ok(2, 0, 8_500.0, 2_000.0), "generous timeout");
        assert!(!net.probe_ok(3, 0, 10_500.0, 1e9), "loss=1.0 always drops");
        assert!(net.probe_ok(3, 0, 12_000.0, 1e9), "window over");
    }
}
