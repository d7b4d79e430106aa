//! Host-device and node-node link models: PCIe DMA and the cloudFPGA
//! 10 Gb/s TCP/UDP network stack (paper §III, ref \[20\]).

use crate::device::Attachment;

/// PCIe DMA performance model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PcieModel {
    /// Generation (3 → 8 GT/s/lane, 4 → 16 GT/s/lane).
    pub gen: u8,
    /// Lane count.
    pub lanes: u8,
    /// DMA setup latency in microseconds (descriptor ring + doorbell).
    pub setup_us: f64,
    /// Protocol efficiency (TLP overhead, flow control).
    pub efficiency: f64,
}

impl PcieModel {
    /// Creates a model from generation and lanes with typical overheads.
    pub fn new(gen: u8, lanes: u8) -> Self {
        PcieModel {
            gen,
            lanes,
            setup_us: 5.0,
            efficiency: 0.8,
        }
    }

    /// Raw line rate in GB/s.
    pub(crate) fn line_rate_gbps(&self) -> f64 {
        let per_lane = match self.gen {
            3 => 0.985, // 8 GT/s, 128b/130b
            4 => 1.969,
            5 => 3.938,
            _ => 0.5,
        };
        per_lane * self.lanes as f64
    }

    /// Effective DMA bandwidth in GB/s.
    pub fn effective_gbps(&self) -> f64 {
        self.line_rate_gbps() * self.efficiency
    }

    /// Host↔device transfer time for `bytes`, in microseconds.
    pub fn transfer_time_us(&self, bytes: u64) -> f64 {
        if bytes == 0 {
            return 0.0;
        }
        self.setup_us + bytes as f64 / (self.effective_gbps() * 1000.0)
    }
}

/// Network stack model for network-attached FPGAs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkModel {
    /// Link speed in Gb/s.
    pub gbps: f64,
    /// One-way message latency in microseconds (on-fabric stack: low).
    pub latency_us: f64,
    /// Payload efficiency (headers, retransmits).
    pub efficiency: f64,
    /// MTU in bytes.
    pub mtu: u32,
}

impl NetworkModel {
    /// The cloudFPGA 10 Gb/s TCP/UDP stack.
    pub fn cloudfpga_tcp() -> Self {
        NetworkModel {
            gbps: 10.0,
            latency_us: 10.0,
            efficiency: 0.92,
            mtu: 1500,
        }
    }

    /// Effective payload bandwidth in GB/s (gigaBYTES).
    pub fn effective_gbps(&self) -> f64 {
        self.gbps / 8.0 * self.efficiency
    }

    /// One message of `bytes`, in microseconds.
    pub fn message_time_us(&self, bytes: u64) -> f64 {
        if bytes == 0 {
            return self.latency_us;
        }
        let packets = (bytes as f64 / self.mtu as f64).ceil();
        // per-packet header cost folded into efficiency; latency once
        self.latency_us + bytes as f64 / (self.effective_gbps() * 1000.0) + packets * 0.05
    }
}

/// Builds the appropriate link model for a device attachment.
pub fn link_for(attachment: &Attachment) -> LinkModel {
    match attachment {
        Attachment::Pcie { gen, lanes } => LinkModel::Pcie(PcieModel::new(*gen, *lanes)),
        Attachment::Network { gbps } => LinkModel::Network(NetworkModel {
            gbps: *gbps,
            ..NetworkModel::cloudfpga_tcp()
        }),
    }
}

/// Either link kind.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LinkModel {
    /// PCIe DMA.
    Pcie(PcieModel),
    /// On-fabric network stack.
    Network(NetworkModel),
}

impl LinkModel {
    /// Time to move `bytes` host↔device (or node↔node), in microseconds.
    pub fn transfer_time_us(&self, bytes: u64) -> f64 {
        match self {
            LinkModel::Pcie(p) => p.transfer_time_us(bytes),
            LinkModel::Network(n) => n.message_time_us(bytes),
        }
    }

    /// Effective bandwidth in GB/s.
    pub fn effective_gbps(&self) -> f64 {
        match self {
            LinkModel::Pcie(p) => p.effective_gbps(),
            LinkModel::Network(n) => n.effective_gbps(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::FpgaDevice;

    #[test]
    fn pcie_gen3_x16_is_about_12_gbps_effective() {
        let p = PcieModel::new(3, 16);
        let eff = p.effective_gbps();
        assert!((10.0..14.0).contains(&eff), "got {eff}");
    }

    #[test]
    fn pcie_transfer_amortizes_setup() {
        let p = PcieModel::new(3, 16);
        let small = p.transfer_time_us(4 * 1024);
        let big = p.transfer_time_us(1 << 30);
        // small transfers dominated by setup latency
        assert!(small < 6.0, "got {small}");
        // 1 GiB at ~12.6 GB/s ≈ 85k us
        assert!((70_000.0..120_000.0).contains(&big), "got {big}");
    }

    #[test]
    fn network_latency_dominates_small_messages() {
        let n = NetworkModel::cloudfpga_tcp();
        let t64 = n.message_time_us(64);
        assert!((t64 - n.latency_us).abs() < 1.0, "got {t64}");
        let t1m = n.message_time_us(1 << 20);
        // 1 MiB over ~1.15 GB/s ≈ 900 us
        assert!((500.0..2000.0).contains(&t1m), "got {t1m}");
    }

    #[test]
    fn pcie_beats_network_for_bulk_but_not_small() {
        let pcie = link_for(&FpgaDevice::alveo_u55c().attachment);
        let net = link_for(&FpgaDevice::cloudfpga().attachment);
        // bulk: PCIe much faster
        assert!(pcie.transfer_time_us(1 << 28) < net.transfer_time_us(1 << 28) / 5.0);
        // tiny messages: comparable order (network stack avoids host DMA
        // setup, PCIe pays descriptor setup)
        let p = pcie.transfer_time_us(256);
        let n = net.transfer_time_us(256);
        assert!(n < p * 4.0, "pcie {p} vs net {n}");
    }
}
