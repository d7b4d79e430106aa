//! What a batch costs on a node: the one spelling of "FPGA-or-CPU batch
//! time plus the transfer of `payload × size`" that the dispatcher's
//! placement model, the actual timings and the tuners' design-time
//! operating points all price from.

use everest_faults::{FaultEffects, FaultPlan};
use everest_runtime::cluster::Cluster;

use crate::request::KernelClass;

#[derive(Debug)]
pub(crate) struct Pricing {
    pub(crate) cluster: Cluster,
    /// What the plan's link, slow-node and creep windows cost each
    /// node; only actual service times consult it.
    pub(crate) effects: FaultEffects,
}

/// CPU cores of every serving node.
const CORES_PER_NODE: u32 = 4;

impl Pricing {
    /// The second half of the nodes carry FPGAs.
    pub(crate) fn new(nodes: usize, plan: &FaultPlan) -> Pricing {
        Pricing {
            cluster: Cluster::everest(nodes - nodes / 2, nodes / 2, CORES_PER_NODE),
            effects: FaultEffects::from_plan(plan, nodes),
        }
    }

    /// Healthy `(compute, transfer)` time of a batch of `size`.
    fn parts_us(&self, class: &KernelClass, fpga: bool, size: usize) -> (f64, f64) {
        let compute = if fpga {
            class.fpga_batch_us(size)
        } else {
            class.cpu_batch_us(size)
        };
        let transfer = self.cluster.transfer_us(class.payload_bytes * size as u64);
        (compute, transfer)
    }

    /// The placement model: healthy service time. Deliberately
    /// gray-blind — slowdowns, lossy links and VF creep never appear
    /// here, only in actual timings; catching the divergence is the
    /// health monitor's job.
    pub(crate) fn healthy_us(&self, class: &KernelClass, fpga: bool, size: usize) -> f64 {
        let (compute, transfer) = self.parts_us(class, fpga, size);
        compute + transfer
    }

    /// What a batch started on `node` at `start_us` actually costs,
    /// with every standing fault effect applied: typed and gray link
    /// windows alike inflate the transfer, creep only an FPGA's compute.
    pub(crate) fn actual_us(
        &self,
        class: &KernelClass,
        node: usize,
        fpga: bool,
        size: usize,
        start_us: f64,
    ) -> f64 {
        let fx = &self.effects;
        let (mut compute, transfer) = self.parts_us(class, fpga, size);
        if fpga {
            compute *= fx.creep_factor(node, start_us);
        }
        let link = (fx.link_factor(node, start_us)).max(fx.gray_link_factor(node, start_us));
        compute * fx.slow_factor(node, start_us) + transfer * link
    }
}
