//! FPGA device descriptors for the EVEREST target systems (paper §III):
//! PCIe-attached AMD Alveo cards (u55c, u280) with XRT, and IBM
//! cloudFPGA network-attached nodes.

/// Programmable-logic resource capacity of a device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DeviceResources {
    /// Lookup tables.
    pub luts: u64,
    /// Flip-flops.
    pub ffs: u64,
    /// DSP slices.
    pub dsps: u64,
    /// 18 Kb BRAM halves.
    pub brams: u64,
    /// UltraRAM blocks.
    pub urams: u64,
}

impl DeviceResources {
    /// Component-wise subtraction, saturating at zero.
    pub fn saturating_sub(self, used: DeviceResources) -> DeviceResources {
        DeviceResources {
            luts: self.luts.saturating_sub(used.luts),
            ffs: self.ffs.saturating_sub(used.ffs),
            dsps: self.dsps.saturating_sub(used.dsps),
            brams: self.brams.saturating_sub(used.brams),
            urams: self.urams.saturating_sub(used.urams),
        }
    }

    /// Whether `need` fits in `self`.
    pub fn contains(&self, need: &DeviceResources) -> bool {
        self.luts >= need.luts
            && self.ffs >= need.ffs
            && self.dsps >= need.dsps
            && self.brams >= need.brams
            && self.urams >= need.urams
    }

    /// Utilization of the scarcest resource, in [0, 1+].
    pub fn utilization_of(&self, used: &DeviceResources) -> f64 {
        let ratios = [
            used.luts as f64 / self.luts.max(1) as f64,
            used.ffs as f64 / self.ffs.max(1) as f64,
            used.dsps as f64 / self.dsps.max(1) as f64,
            used.brams as f64 / self.brams.max(1) as f64,
        ];
        ratios.into_iter().fold(0.0, f64::max)
    }
}

/// External memory technology attached to the device.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MemoryKind {
    /// High-bandwidth memory (many pseudo-channels).
    Hbm2,
    /// DDR4 DIMM channels.
    Ddr4,
}

/// External memory subsystem description.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemorySystem {
    /// Technology.
    pub kind: MemoryKind,
    /// Number of (pseudo-)channels.
    pub channels: u32,
    /// Peak bandwidth per channel in GB/s.
    pub channel_gbps: f64,
    /// Capacity in GiB.
    pub capacity_gib: f64,
    /// Random-access latency in nanoseconds.
    pub latency_ns: f64,
}

impl MemorySystem {
    /// Aggregate peak bandwidth in GB/s.
    pub fn peak_gbps(&self) -> f64 {
        self.channels as f64 * self.channel_gbps
    }
}

/// How the device attaches to the rest of the system.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Attachment {
    /// PCIe-attached accelerator card driven through XRT.
    Pcie {
        /// Generation (3 or 4).
        gen: u8,
        /// Lane count.
        lanes: u8,
    },
    /// Network-attached FPGA with an on-fabric TCP/UDP stack
    /// (IBM cloudFPGA, paper ref \[20\]).
    Network {
        /// Link speed in Gb/s.
        gbps: f64,
    },
}

/// A complete FPGA device model.
#[derive(Debug, Clone, PartialEq)]
pub struct FpgaDevice {
    /// Marketing name (`"alveo_u55c"`, ...).
    pub name: String,
    /// Programmable-logic capacity.
    pub resources: DeviceResources,
    /// External memory subsystems (HBM and/or DDR).
    pub memories: Vec<MemorySystem>,
    /// Host attachment.
    pub attachment: Attachment,
    /// Default kernel clock in MHz.
    pub kernel_clock_mhz: f64,
    /// Configuration (bitstream) size in MiB, for partial-reconfiguration
    /// timing.
    pub bitstream_mib: f64,
}

impl FpgaDevice {
    /// AMD Alveo u55c: HBM2-only card used for the PTDR prototype (§VIII).
    pub fn alveo_u55c() -> FpgaDevice {
        FpgaDevice {
            name: "alveo_u55c".into(),
            resources: DeviceResources {
                luts: 1_304_000,
                ffs: 2_607_000,
                dsps: 9_024,
                brams: 4_032,
                urams: 960,
            },
            memories: vec![MemorySystem {
                kind: MemoryKind::Hbm2,
                channels: 32,
                channel_gbps: 14.375,
                capacity_gib: 16.0,
                latency_ns: 120.0,
            }],
            attachment: Attachment::Pcie { gen: 3, lanes: 16 },
            kernel_clock_mhz: 300.0,
            bitstream_mib: 90.0,
        }
    }

    /// AMD Alveo u280: HBM2 + DDR4 card.
    pub fn alveo_u280() -> FpgaDevice {
        FpgaDevice {
            name: "alveo_u280".into(),
            resources: DeviceResources {
                luts: 1_304_000,
                ffs: 2_607_000,
                dsps: 9_024,
                brams: 4_032,
                urams: 960,
            },
            memories: vec![
                MemorySystem {
                    kind: MemoryKind::Hbm2,
                    channels: 32,
                    channel_gbps: 14.375,
                    capacity_gib: 8.0,
                    latency_ns: 120.0,
                },
                MemorySystem {
                    kind: MemoryKind::Ddr4,
                    channels: 2,
                    channel_gbps: 19.2,
                    capacity_gib: 32.0,
                    latency_ns: 80.0,
                },
            ],
            attachment: Attachment::Pcie { gen: 3, lanes: 16 },
            kernel_clock_mhz: 300.0,
            bitstream_mib: 90.0,
        }
    }

    /// IBM cloudFPGA node: mid-size Kintex with DDR4, network-attached via
    /// a 10 Gb/s on-fabric TCP/UDP stack.
    pub fn cloudfpga() -> FpgaDevice {
        FpgaDevice {
            name: "cloudfpga".into(),
            resources: DeviceResources {
                luts: 331_000,
                ffs: 663_000,
                dsps: 2_760,
                brams: 2_160,
                urams: 0,
            },
            memories: vec![MemorySystem {
                kind: MemoryKind::Ddr4,
                channels: 2,
                channel_gbps: 17.0,
                capacity_gib: 16.0,
                latency_ns: 90.0,
            }],
            attachment: Attachment::Network { gbps: 10.0 },
            kernel_clock_mhz: 156.25,
            bitstream_mib: 30.0,
        }
    }

    /// Total external-memory peak bandwidth in GB/s.
    pub fn total_memory_gbps(&self) -> f64 {
        self.memories.iter().map(MemorySystem::peak_gbps).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_have_sane_magnitudes() {
        let u55c = FpgaDevice::alveo_u55c();
        assert!((u55c.total_memory_gbps() - 460.0).abs() < 1.0);
        assert_eq!(u55c.memories[0].channels, 32);
        assert!(matches!(u55c.attachment, Attachment::Pcie { .. }));

        let cf = FpgaDevice::cloudfpga();
        assert!(matches!(cf.attachment, Attachment::Network { .. }));
        assert!(cf.resources.luts < u55c.resources.luts);
    }

    #[test]
    fn resource_arithmetic() {
        let total = FpgaDevice::alveo_u55c().resources;
        let need = DeviceResources {
            luts: 100_000,
            ffs: 150_000,
            dsps: 512,
            brams: 256,
            urams: 0,
        };
        assert!(total.contains(&need));
        let left = total.saturating_sub(need);
        assert_eq!(left.luts, total.luts - 100_000);
        let too_much = DeviceResources {
            dsps: 100_000,
            ..need
        };
        assert!(!total.contains(&too_much));
    }

    #[test]
    fn utilization_tracks_scarcest_resource() {
        let total = FpgaDevice::alveo_u55c().resources;
        let used = DeviceResources {
            luts: total.luts / 10,
            ffs: total.ffs / 10,
            dsps: total.dsps / 2, // DSPs dominate
            brams: 0,
            urams: 0,
        };
        let u = total.utilization_of(&used);
        assert!((u - 0.5).abs() < 0.01, "got {u}");
    }
}
