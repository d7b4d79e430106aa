//! The fault source consulted by platform-layer operations.
//!
//! A [`FaultInjector`] scopes a [`FaultPlan`] to one node and arms each
//! fault exactly once: when an operation's virtual-time window sweeps
//! past a pending fault that applies to that operation kind, the fault
//! fires, is recorded to telemetry, and is returned to the caller —
//! which turns it into a typed error, a latency penalty, or a state
//! change. Clones share the armed/fired state, so one plan drives every
//! session opened against the same simulated device.

use std::sync::{Arc, Mutex};

use crate::effects::FaultEffects;
use crate::plan::{FaultKind, FaultPlan, FaultSpec};

/// The operation classes the platform layer distinguishes when asking
/// whether a fault applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultOp {
    /// A DMA / host-link buffer sync.
    Sync,
    /// A kernel launch.
    Kernel,
    /// A partial reconfiguration.
    PartialReconfig,
    /// A device external-memory stream.
    MemoryStream,
}

fn applies(kind: &FaultKind, op: FaultOp) -> bool {
    match kind {
        // A dead node fails whatever touches it next.
        FaultKind::NodeCrash => true,
        FaultKind::LinkDegrade { .. } | FaultKind::DmaTimeout => op == FaultOp::Sync,
        FaultKind::TransientKernelError => op == FaultOp::Kernel,
        FaultKind::MemoryEcc => matches!(op, FaultOp::Kernel | FaultOp::MemoryStream),
        FaultKind::PartialReconfigFail => op == FaultOp::PartialReconfig,
        // VF loss reaches the scheduler and serve as a standing effect
        // (`FaultEffects::fpga_lost_at`), never as a device-operation
        // fault.
        FaultKind::VfUnplug { .. } => false,
        // Gray faults never fire as events: they are standing latency
        // effects (`FaultEffects`), queried via the gray_*_factor methods.
        FaultKind::SlowNode { .. } | FaultKind::GrayLink { .. } | FaultKind::VfCreep { .. } => {
            false
        }
        // Network faults target the group boundary, not a device: they
        // are consumed only by the cluster connectivity model.
        FaultKind::PartitionSym { .. }
        | FaultKind::PartitionAsym { .. }
        | FaultKind::MsgDelay { .. }
        | FaultKind::MsgLoss { .. } => false,
    }
}

#[derive(Debug)]
struct State {
    plan: FaultPlan,
    fired: Vec<bool>,
}

/// A cloneable, thread-safe handle arming one plan against one node.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    node: usize,
    state: Arc<Mutex<State>>,
    /// The plan's standing latency effects. Immutable, so the gray
    /// queries take no lock.
    effects: Arc<FaultEffects>,
}

impl FaultInjector {
    /// Arms `plan` against node `node`. Faults targeting other nodes
    /// never fire through this injector.
    pub fn for_node(plan: FaultPlan, node: usize) -> FaultInjector {
        let fired = vec![false; plan.len()];
        FaultInjector {
            node,
            effects: Arc::new(FaultEffects::from_plan(&plan, node + 1)),
            state: Arc::new(Mutex::new(State { plan, fired })),
        }
    }

    /// The node this injector is scoped to.
    pub fn node(&self) -> usize {
        self.node
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Fires the earliest pending fault that targets this node, applies
    /// to `op`, and is due by `now_us` (virtual time). Returns `None`
    /// when nothing fires. Each fault fires at most once per arming.
    pub fn fire(&self, op: FaultOp, now_us: f64) -> Option<FaultSpec> {
        let mut state = self.lock();
        let idx = {
            let State { plan, fired } = &mut *state;
            plan.faults().iter().enumerate().position(|(i, f)| {
                !fired[i] && f.node == self.node && f.at_us <= now_us && applies(&f.kind, op)
            })?
        };
        state.fired[idx] = true;
        let fault = state.plan.faults()[idx].clone();
        drop(state);
        everest_telemetry::counter_add("faults.injected", 1);
        everest_telemetry::event("faults.inject", fault.describe());
        Some(fault)
    }

    /// Silent compute-time multiplier for this node at `now_us`: the
    /// worst [`FaultKind::SlowNode`] window in effect (1.0 when
    /// healthy). Gray queries never consume faults, never error and
    /// never reach telemetry — invisibility is the point.
    pub fn gray_compute_factor(&self, now_us: f64) -> f64 {
        self.effects.slow_factor(self.node, now_us)
    }

    /// Silent transfer-cost multiplier for this node at `now_us`: the
    /// worst [`FaultKind::GrayLink`] window in effect (1.0 when
    /// healthy).
    pub fn gray_link_factor(&self, now_us: f64) -> f64 {
        self.effects.gray_link_factor(self.node, now_us)
    }

    /// Silent accelerator-latency multiplier from creeping VF
    /// degradation: `1 + per_ms * elapsed_ms` past the worst
    /// [`FaultKind::VfCreep`] onset (1.0 when healthy).
    pub fn gray_vf_factor(&self, now_us: f64) -> f64 {
        self.effects.creep_factor(self.node, now_us)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fired_count(inj: &FaultInjector) -> usize {
        inj.lock().fired.iter().filter(|&&f| f).count()
    }

    fn plan() -> FaultPlan {
        FaultPlan::new(3)
            .with_fault(FaultSpec::new(100.0, 0, FaultKind::DmaTimeout))
            .with_fault(FaultSpec::new(200.0, 0, FaultKind::TransientKernelError))
            .with_fault(FaultSpec::new(300.0, 1, FaultKind::DmaTimeout))
            .with_fault(FaultSpec::new(400.0, 0, FaultKind::VfUnplug { vf: 2 }))
    }

    #[test]
    fn faults_fire_once_scoped_to_node_and_op() {
        let inj = FaultInjector::for_node(plan(), 0);
        // not due yet
        assert_eq!(inj.fire(FaultOp::Sync, 50.0), None);
        // due, matching op
        let f = inj.fire(FaultOp::Sync, 150.0).expect("fires");
        assert_eq!(f.kind, FaultKind::DmaTimeout);
        // fired: does not fire twice
        assert_eq!(inj.fire(FaultOp::Sync, 150.0), None);
        // kernel fault does not apply to syncs
        assert_eq!(inj.fire(FaultOp::Sync, 500.0), None);
        let k = inj.fire(FaultOp::Kernel, 500.0).expect("fires");
        assert_eq!(k.kind, FaultKind::TransientKernelError);
        // node 1 fault never fires through a node-0 injector
        assert_eq!(fired_count(&inj), 2);
    }

    #[test]
    fn vf_faults_routed_separately() {
        let plan =
            FaultPlan::new(3).with_fault(FaultSpec::new(400.0, 0, FaultKind::VfUnplug { vf: 2 }));
        let inj = FaultInjector::for_node(plan, 0);
        for op in [
            FaultOp::Sync,
            FaultOp::Kernel,
            FaultOp::PartialReconfig,
            FaultOp::MemoryStream,
        ] {
            assert_eq!(inj.fire(op, 10_000.0), None, "{op:?}");
        }
        assert_eq!(fired_count(&inj), 0);
    }

    #[test]
    fn gray_faults_never_fire_but_scale_factors() {
        let plan = FaultPlan::new(7)
            .with_fault(FaultSpec::new(
                100.0,
                0,
                FaultKind::SlowNode {
                    factor: 4.0,
                    duration_us: 200.0,
                },
            ))
            .with_fault(FaultSpec::new(
                100.0,
                0,
                FaultKind::GrayLink {
                    factor: 3.0,
                    duration_us: 100.0,
                },
            ))
            .with_fault(FaultSpec::new(500.0, 0, FaultKind::VfCreep { per_ms: 0.5 }));
        let inj = FaultInjector::for_node(plan, 0);
        // Never consumable as typed events, on any op, at any time.
        for op in [
            FaultOp::Sync,
            FaultOp::Kernel,
            FaultOp::PartialReconfig,
            FaultOp::MemoryStream,
        ] {
            assert_eq!(inj.fire(op, 10_000.0), None);
        }
        assert_eq!(fired_count(&inj), 0);
        // Windowed factors.
        assert_eq!(inj.gray_compute_factor(50.0), 1.0);
        assert_eq!(inj.gray_compute_factor(150.0), 4.0);
        assert_eq!(inj.gray_compute_factor(350.0), 1.0);
        assert_eq!(inj.gray_link_factor(150.0), 3.0);
        assert_eq!(inj.gray_link_factor(250.0), 1.0);
        // Creep grows linearly past onset.
        assert_eq!(inj.gray_vf_factor(500.0), 1.0);
        assert!((inj.gray_vf_factor(1_500.0) - 1.5).abs() < 1e-9);
        // Other nodes see nothing.
        let other = FaultInjector::for_node(
            FaultPlan::new(7).with_fault(FaultSpec::new(
                0.0,
                1,
                FaultKind::SlowNode {
                    factor: 9.0,
                    duration_us: 1e9,
                },
            )),
            0,
        );
        assert_eq!(other.gray_compute_factor(10.0), 1.0);
    }

    #[test]
    fn clones_share_state() {
        let inj = FaultInjector::for_node(plan(), 0);
        let clone = inj.clone();
        clone.fire(FaultOp::Sync, 150.0).expect("fires");
        assert_eq!(inj.fire(FaultOp::Sync, 150.0), None, "shared state");
    }
}
