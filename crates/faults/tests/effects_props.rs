//! Property test for [`FaultEffects`]: every answer agrees with a
//! brute-force scan of `plan.faults()` on random plans — overlapping
//! windows, factors below 1, nodes outside the cluster, several creeps
//! per node — including the boundary instants `t == from`,
//! `t == until` and `t == onset`. The scan below is the reference the
//! compiled model is held to; it is the one other statement of the
//! window and creep rules.

use proptest::prelude::*;

use everest_faults::{DetRng, FaultEffects, FaultKind, FaultPlan, FaultSpec};

/// What node `node` pays at `t`, straight off the fault list:
/// `[typed link, gray link, slow, creep, fpga_lost_at]`.
fn scan(plan: &FaultPlan, node: usize, t: f64) -> [f64; 5] {
    let mut worst = [1.0f64, 1.0, 1.0, 1.0, f64::INFINITY];
    for f in plan.faults().iter().filter(|f| f.node == node) {
        let (slot, factor, until) = match f.kind {
            FaultKind::LinkDegrade {
                factor,
                duration_us,
            } => (0, factor, f.at_us + duration_us),
            FaultKind::GrayLink {
                factor,
                duration_us,
            } => (1, factor, f.at_us + duration_us),
            FaultKind::SlowNode {
                factor,
                duration_us,
            } => (2, factor, f.at_us + duration_us),
            FaultKind::VfCreep { per_ms } => {
                if t > f.at_us {
                    worst[3] = worst[3].max(1.0 + per_ms * (t - f.at_us) / 1_000.0);
                }
                continue;
            }
            FaultKind::VfUnplug { .. } => {
                worst[4] = worst[4].min(f.at_us);
                continue;
            }
            FaultKind::NodeCrash
            | FaultKind::DmaTimeout
            | FaultKind::PartialReconfigFail
            | FaultKind::TransientKernelError
            | FaultKind::MemoryEcc
            | FaultKind::PartitionSym { .. }
            | FaultKind::PartitionAsym { .. }
            | FaultKind::MsgDelay { .. }
            | FaultKind::MsgLoss { .. } => continue,
        };
        if f.at_us <= t && t < until {
            worst[slot] = worst[slot].max(factor);
        }
    }
    worst
}

/// A plan on a coarse time grid, so windows overlap, abut and share
/// boundaries with creep onsets; a third of the faults miss the cluster.
fn random_plan(seed: u64, n_nodes: usize, count: usize) -> FaultPlan {
    let mut rng = DetRng::new(seed);
    let mut plan = FaultPlan::new(seed);
    for _ in 0..count {
        let at_us = 100.0 * rng.index(10) as f64;
        let node = rng.index(n_nodes + n_nodes / 2 + 1);
        let factor = rng.range_f64(0.25, 8.0);
        let duration_us = 100.0 * rng.index(5) as f64;
        let group = rng.index(16) as u64;
        let kind = match rng.index(14) {
            0 => FaultKind::LinkDegrade {
                factor,
                duration_us,
            },
            1 => FaultKind::GrayLink {
                factor,
                duration_us,
            },
            2 | 3 => FaultKind::SlowNode {
                factor,
                duration_us,
            },
            4 | 5 => FaultKind::VfCreep {
                per_ms: rng.range_f64(-0.1, 0.5),
            },
            6 => FaultKind::VfUnplug { vf: 0 },
            7 => FaultKind::NodeCrash,
            8 => FaultKind::DmaTimeout,
            9 => FaultKind::PartialReconfigFail,
            10 => FaultKind::TransientKernelError,
            11 => FaultKind::MemoryEcc,
            12 => FaultKind::PartitionSym { group, duration_us },
            _ => FaultKind::MsgDelay {
                group,
                delay_us: factor,
                duration_us,
            },
        };
        plan.push(FaultSpec::new(at_us, node, kind));
    }
    plan
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn effects_agree_with_a_scan_of_the_plan(
        seed in any::<u64>(),
        n_nodes in 1usize..5,
        count in 0usize..40,
    ) {
        let plan = random_plan(seed, n_nodes, count);
        let effects = FaultEffects::from_plan(&plan, n_nodes);
        // Every grid instant is some window's `from`, `until` or a
        // creep's onset once the plan is dense; the off-grid instants
        // fall strictly inside windows.
        let instants = (0..=16).flat_map(|k| [100.0 * k as f64, 100.0 * k as f64 + 37.5]);
        for t in instants {
            for node in 0..n_nodes {
                let got = [
                    effects.link_factor(node, t),
                    effects.gray_link_factor(node, t),
                    effects.slow_factor(node, t),
                    effects.creep_factor(node, t),
                    effects.fpga_lost_at(node),
                ];
                prop_assert_eq!(got, scan(&plan, node, t), "node {} at t={}", node, t);
                prop_assert!(got[..4].iter().all(|&f| f >= 1.0), "never below 1.0: {:?}", got);
            }
        }
    }
}
