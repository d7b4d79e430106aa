//! Cluster model: heterogeneous nodes (CPU-only and FPGA-equipped) with
//! an interconnect, matching the EVEREST computing nodes of §III.

use everest_platform::device::FpgaDevice;

/// One computing node.
#[derive(Debug, Clone)]
pub struct NodeSpec {
    /// Node name.
    pub name: String,
    /// CPU cores.
    pub cores: u32,
    /// Attached FPGA, if any.
    pub fpga: Option<FpgaDevice>,
}

impl NodeSpec {
    /// A CPU-only node.
    pub fn cpu(name: &str, cores: u32) -> NodeSpec {
        NodeSpec {
            name: name.to_string(),
            cores,
            fpga: None,
        }
    }

    /// A node with an attached FPGA.
    pub fn with_fpga(name: &str, cores: u32, fpga: FpgaDevice) -> NodeSpec {
        NodeSpec {
            name: name.to_string(),
            cores,
            fpga: Some(fpga),
        }
    }
}

/// The cluster: nodes plus interconnect parameters.
#[derive(Debug, Clone)]
pub struct Cluster {
    /// Nodes.
    pub nodes: Vec<NodeSpec>,
    /// Node-to-node bandwidth in GB/s (e.g. 100 GbE ≈ 12.5).
    pub interconnect_gbps: f64,
    /// Node-to-node latency in microseconds.
    pub interconnect_latency_us: f64,
}

impl Cluster {
    /// A homogeneous CPU cluster.
    pub fn homogeneous(nodes: usize, cores: u32) -> Cluster {
        Cluster {
            nodes: (0..nodes)
                .map(|i| NodeSpec::cpu(&format!("node{i}"), cores))
                .collect(),
            interconnect_gbps: 12.5,
            interconnect_latency_us: 5.0,
        }
    }

    /// An EVEREST-style cluster: `cpu_nodes` CPU nodes plus `fpga_nodes`
    /// Alveo-equipped nodes.
    pub fn everest(cpu_nodes: usize, fpga_nodes: usize, cores: u32) -> Cluster {
        let mut nodes: Vec<NodeSpec> = (0..cpu_nodes)
            .map(|i| NodeSpec::cpu(&format!("cpu{i}"), cores))
            .collect();
        nodes
            .extend((0..fpga_nodes).map(|i| {
                NodeSpec::with_fpga(&format!("fpga{i}"), cores, FpgaDevice::alveo_u55c())
            }));
        Cluster {
            nodes,
            interconnect_gbps: 12.5,
            interconnect_latency_us: 5.0,
        }
    }

    /// Transfer time of `bytes` between two distinct nodes, in µs.
    pub fn transfer_us(&self, bytes: u64) -> f64 {
        if bytes == 0 {
            return self.interconnect_latency_us;
        }
        self.interconnect_latency_us + bytes as f64 / (self.interconnect_gbps * 1000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn everest_cluster_shape() {
        let c = Cluster::everest(2, 2, 16);
        assert_eq!(c.nodes.len(), 4);
        assert!(c.nodes[0].fpga.is_none());
        assert!(c.nodes[2].fpga.is_some());
        assert_eq!(c.nodes[3].name, "fpga1");
    }

    #[test]
    fn transfer_time_model() {
        let c = Cluster::homogeneous(2, 8);
        assert_eq!(c.transfer_us(0), 5.0);
        let t = c.transfer_us(125 << 20); // ~131 MB at 12.5 GB/s ≈ 10.5 ms
        assert!((9_000.0..12_500.0).contains(&t), "got {t}");
    }
}
