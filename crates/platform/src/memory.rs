//! External-memory performance model.
//!
//! Olympus' memory optimizations (paper §V-C, refs \[24\]\[25\]) live or die
//! by how effectively kernels use HBM/DDR bandwidth: short bursts waste
//! most of the channel, wide/packed accesses approach the peak. This
//! model captures that with a burst-efficiency curve calibrated to the
//! shapes reported for Alveo HBM ports.

use crate::device::MemorySystem;

/// An access pattern against external memory.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccessPattern {
    /// Bytes moved per burst (contiguous run).
    pub burst_bytes: u64,
    /// Bus width of the port in bits (AXI data width).
    pub port_width_bits: u32,
    /// Number of channels ("lanes") the transfer is striped across.
    pub lanes: u32,
}

impl Default for AccessPattern {
    fn default() -> Self {
        AccessPattern {
            burst_bytes: 64,
            port_width_bits: 256,
            lanes: 1,
        }
    }
}

/// Memory performance model for one memory system.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemoryModel {
    /// The memory being modelled.
    pub system: MemorySystem,
    /// Fixed per-burst overhead in nanoseconds (arbitration + row logic).
    pub burst_overhead_ns: f64,
}

impl MemoryModel {
    /// Creates the model for a memory system with default overheads.
    pub fn new(system: MemorySystem) -> Self {
        MemoryModel {
            system,
            burst_overhead_ns: 32.0,
        }
    }

    /// Fraction of peak bandwidth achieved by a burst size:
    /// `burst / (burst + latency*BW)` — the classic latency-bandwidth
    /// product. Longer bursts amortize the fixed cost.
    pub fn efficiency(&self, pattern: &AccessPattern) -> f64 {
        let channel_bytes_per_ns = self.system.channel_gbps; // GB/s == B/ns
        let hidden =
            (self.system.latency_ns * 0.25 + self.burst_overhead_ns) * channel_bytes_per_ns;
        let burst = pattern.burst_bytes as f64;
        (burst / (burst + hidden)).clamp(0.0, 1.0)
    }

    /// Effective bandwidth in GB/s for a pattern (lanes capped at the
    /// channel count).
    pub fn effective_gbps(&self, pattern: &AccessPattern) -> f64 {
        let lanes = pattern.lanes.min(self.system.channels) as f64;
        // A port narrower than the channel cannot saturate it.
        let width_cap =
            (pattern.port_width_bits as f64 / 8.0) * (self.system.channel_gbps / 32.0).max(1.0);
        let per_lane = self.system.channel_gbps.min(width_cap.max(1.0)) * self.efficiency(pattern);
        per_lane * lanes
    }

    /// Time to move `bytes` with the given pattern, in microseconds.
    pub fn transfer_time_us(&self, bytes: u64, pattern: &AccessPattern) -> f64 {
        if bytes == 0 {
            return 0.0;
        }
        let gbps = self.effective_gbps(pattern).max(1e-9);
        self.system.latency_ns / 1000.0 + bytes as f64 / (gbps * 1000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::FpgaDevice;

    fn hbm() -> MemoryModel {
        MemoryModel::new(FpgaDevice::alveo_u55c().memories[0])
    }

    #[test]
    fn longer_bursts_are_more_efficient() {
        let m = hbm();
        let short = m.efficiency(&AccessPattern {
            burst_bytes: 64,
            ..AccessPattern::default()
        });
        let long = m.efficiency(&AccessPattern {
            burst_bytes: 4096,
            ..AccessPattern::default()
        });
        assert!(short < long, "{short} !< {long}");
        assert!(long > 0.7, "long bursts should approach peak, got {long}");
        assert!(short < 0.2, "64B bursts waste HBM, got {short}");
    }

    #[test]
    fn lanes_scale_bandwidth_until_channel_count() {
        let m = hbm();
        let p1 = AccessPattern {
            burst_bytes: 4096,
            port_width_bits: 512,
            lanes: 1,
        };
        let p8 = AccessPattern { lanes: 8, ..p1 };
        let p64 = AccessPattern { lanes: 64, ..p1 };
        let b1 = m.effective_gbps(&p1);
        let b8 = m.effective_gbps(&p8);
        let b64 = m.effective_gbps(&p64);
        assert!((b8 / b1 - 8.0).abs() < 0.1);
        // capped at 32 channels
        assert!((b64 / b1 - 32.0).abs() < 0.1);
    }

    #[test]
    fn transfer_time_monotone_in_bytes() {
        let m = hbm();
        let p = AccessPattern::default();
        let t1 = m.transfer_time_us(1 << 20, &p);
        let t2 = m.transfer_time_us(1 << 24, &p);
        assert!(t2 > t1);
        assert_eq!(m.transfer_time_us(0, &p), 0.0);
    }

    #[test]
    fn wide_ports_beat_narrow_ports() {
        let m = hbm();
        let narrow = m.effective_gbps(&AccessPattern {
            burst_bytes: 4096,
            port_width_bits: 32,
            lanes: 1,
        });
        let wide = m.effective_gbps(&AccessPattern {
            burst_bytes: 4096,
            port_width_bits: 512,
            lanes: 1,
        });
        assert!(narrow < wide, "{narrow} !< {wide}");
    }
}
