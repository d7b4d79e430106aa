//! What a [`FaultPlan`] costs node *n* at virtual time *t*.
//!
//! The scheduler and the serve engine both replay the same plan, and
//! both charge its *standing* node-scoped effects — typed link flaps,
//! gray lossy links, gray slow nodes, creeping VF latency, VF loss.
//! [`FaultEffects`] compiles those out of a plan once and is the only
//! place that knows the rules:
//!
//! * a window is active for `from <= t < until`;
//! * the worst active factor wins, and a factor never drops below 1.0;
//! * creep is `1 + per_ms · (t − onset) / 1000` strictly after its
//!   onset, the worst onset winning;
//! * faults naming a node outside the cluster are ignored.
//!
//! Everything else in a plan is not a standing effect: crashes and
//! transients are events each tier handles when they fire, and the
//! network kinds belong to `everest_cluster::NetModel`. The table in
//! `docs/RESILIENCE.md` maps every [`FaultKind`] to its class.

use crate::plan::{FaultKind, FaultPlan};

/// A standing cost multiplier: `(from_us, until_us, factor)`.
type Window = (f64, f64, f64);

#[derive(Debug, Clone)]
struct NodeEffects {
    /// `LinkDegrade` windows: typed, so planners may see them.
    link: Vec<Window>,
    /// `GrayLink` windows.
    gray_link: Vec<Window>,
    /// `SlowNode` windows.
    slow: Vec<Window>,
    /// `VfCreep` onsets: `(onset_us, per_ms)`.
    creep: Vec<(f64, f64)>,
    /// Earliest `VfUnplug`; +inf if the VF is never lost.
    fpga_lost_at: f64,
}

fn worst_active(windows: &[Window], t_us: f64) -> f64 {
    windows
        .iter()
        .filter(|&&(from, until, _)| from <= t_us && t_us < until)
        .map(|&(_, _, factor)| factor)
        .fold(1.0, f64::max)
}

/// The standing effects of one plan on each node of an `n_nodes`
/// cluster. Queries take a node index below `n_nodes`.
#[derive(Debug, Clone)]
pub struct FaultEffects {
    nodes: Vec<NodeEffects>,
}

impl FaultEffects {
    /// Compiles the plan's standing node-scoped effects. The match is
    /// exhaustive, so a new fault kind must be classified here.
    pub fn from_plan(plan: &FaultPlan, n_nodes: usize) -> FaultEffects {
        let healthy = NodeEffects {
            link: Vec::new(),
            gray_link: Vec::new(),
            slow: Vec::new(),
            creep: Vec::new(),
            fpga_lost_at: f64::INFINITY,
        };
        let mut nodes = vec![healthy; n_nodes];
        for f in plan.faults() {
            let Some(node) = nodes.get_mut(f.node) else {
                continue;
            };
            let window = |factor: f64, duration_us: f64| (f.at_us, f.at_us + duration_us, factor);
            match f.kind {
                FaultKind::LinkDegrade {
                    factor,
                    duration_us,
                } => node.link.push(window(factor, duration_us)),
                FaultKind::GrayLink {
                    factor,
                    duration_us,
                } => node.gray_link.push(window(factor, duration_us)),
                FaultKind::SlowNode {
                    factor,
                    duration_us,
                } => node.slow.push(window(factor, duration_us)),
                FaultKind::VfCreep { per_ms } => node.creep.push((f.at_us, per_ms)),
                FaultKind::VfUnplug { .. } => {
                    node.fpga_lost_at = node.fpga_lost_at.min(f.at_us);
                }
                // Events, not standing effects: each tier's own handler
                // decides what a crash or a transient costs.
                FaultKind::NodeCrash
                | FaultKind::DmaTimeout
                | FaultKind::PartialReconfigFail
                | FaultKind::TransientKernelError
                | FaultKind::MemoryEcc => {}
                // Group-scoped: `everest_cluster::NetModel`.
                FaultKind::PartitionSym { .. }
                | FaultKind::PartitionAsym { .. }
                | FaultKind::MsgDelay { .. }
                | FaultKind::MsgLoss { .. } => {}
            }
        }
        FaultEffects { nodes }
    }

    /// Typed transfer-cost multiplier on `node` at `t_us`: the worst
    /// `LinkDegrade` window in effect (1.0 when healthy).
    pub fn link_factor(&self, node: usize, t_us: f64) -> f64 {
        worst_active(&self.nodes[node].link, t_us)
    }

    /// Silent transfer-cost multiplier on `node` at `t_us`: the worst
    /// `GrayLink` window in effect (1.0 when healthy).
    pub fn gray_link_factor(&self, node: usize, t_us: f64) -> f64 {
        worst_active(&self.nodes[node].gray_link, t_us)
    }

    /// Silent compute-time multiplier on `node` at `t_us`: the worst
    /// `SlowNode` window in effect (1.0 when healthy).
    pub fn slow_factor(&self, node: usize, t_us: f64) -> f64 {
        worst_active(&self.nodes[node].slow, t_us)
    }

    /// Silent accelerator-latency multiplier on `node` at `t_us`: the
    /// worst `VfCreep` past its onset (1.0 when healthy).
    pub fn creep_factor(&self, node: usize, t_us: f64) -> f64 {
        self.nodes[node]
            .creep
            .iter()
            .filter(|&&(onset, _)| onset < t_us)
            .map(|&(onset, per_ms)| 1.0 + per_ms * (t_us - onset) / 1_000.0)
            .fold(1.0, f64::max)
    }

    /// When `node` loses its FPGA VF to a `VfUnplug`; +inf if never.
    pub fn fpga_lost_at(&self, node: usize) -> f64 {
        self.nodes[node].fpga_lost_at
    }
}
