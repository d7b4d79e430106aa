//! System-architecture data model.
//!
//! Olympus (paper §V-C, ref \[26\]) takes kernel implementations plus
//! platform details and produces a *system architecture*: the data
//! movement and organization infrastructure around the kernels. These
//! types describe that architecture; `crate::perf` evaluates it and
//! `crate::builder` materializes it as `olympus`-dialect IR.

use everest_hls::{HlsReport, Resources};
use everest_platform::device::DeviceResources;

/// A kernel to integrate, as synthesized by `everest-hls`.
#[derive(Debug, Clone)]
pub struct KernelSpec {
    /// Kernel name (matches the HLS report).
    pub name: String,
    /// Synthesis result (cycles, area, bytes per call).
    pub report: HlsReport,
    /// Input bytes streamed from external memory per invocation.
    pub bytes_in: u64,
    /// Output bytes written back per invocation.
    pub bytes_out: u64,
}

impl KernelSpec {
    /// Builds a spec from an HLS report, splitting its byte traffic into
    /// an input and output share.
    pub fn from_report(report: HlsReport, read_fraction: f64) -> KernelSpec {
        let total = report.bytes_per_call;
        let bytes_in = (total as f64 * read_fraction.clamp(0.0, 1.0)) as u64;
        KernelSpec {
            name: report.kernel.clone(),
            bytes_in,
            bytes_out: total - bytes_in,
            report,
        }
    }

    /// Fabric resources of one kernel instance (converted to platform
    /// resource units).
    pub(crate) fn instance_resources(&self) -> DeviceResources {
        to_device(self.report.area)
    }
}

/// Converts HLS resource usage to platform device-resource units.
pub(crate) fn to_device(r: Resources) -> DeviceResources {
    DeviceResources {
        luts: r.luts,
        ffs: r.ffs,
        dsps: r.dsps,
        brams: r.brams,
        urams: 0,
    }
}

/// The tunable structure Olympus decides (its optimization knobs,
/// §V-C: replication, lanes, packing, double buffering, PLM sharing).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SystemConfig {
    /// Kernel replicas instantiated on the fabric.
    pub replication: u32,
    /// Memory channels ("lanes") dedicated per replica.
    pub lanes_per_replica: u32,
    /// Data-packing burst size in bytes (Iris, ref \[25\]): how many bytes
    /// each memory transaction carries after layout optimization.
    pub pack_bytes: u64,
    /// Double buffering of PLMs (read/execute/write overlap).
    pub double_buffer: bool,
    /// PLM sharing factor in (0, 1]: fraction of naive BRAM kept after
    /// lifetime-based sharing (ref \[16\]). 1.0 = no sharing.
    pub plm_share: f64,
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig {
            replication: 1,
            lanes_per_replica: 1,
            pack_bytes: 64,
            double_buffer: false,
            plm_share: 1.0,
        }
    }
}

/// A generated system architecture for one device.
#[derive(Debug, Clone)]
pub struct SystemArchitecture {
    /// Architecture name.
    pub name: String,
    /// Target platform name.
    pub platform: String,
    /// The kernel integrated.
    pub kernel: KernelSpec,
    /// Chosen configuration.
    pub config: SystemConfig,
    /// Total fabric resources consumed (replicas + infrastructure).
    pub resources: DeviceResources,
}

impl SystemArchitecture {
    /// Resources of the data-movement infrastructure (DMA engines, lane
    /// switches, packing units) — grows with lanes and packing width.
    pub(crate) fn infrastructure_resources(config: &SystemConfig) -> DeviceResources {
        let lanes = (config.replication * config.lanes_per_replica) as u64;
        DeviceResources {
            luts: 5_000 + 2_500 * lanes + (config.pack_bytes / 8) * 64,
            ffs: 8_000 + 3_000 * lanes,
            dsps: 0,
            brams: if config.double_buffer {
                8 * lanes
            } else {
                4 * lanes
            },
            urams: 0,
        }
    }

    /// Computes the total resource footprint of a configuration.
    pub fn footprint(kernel: &KernelSpec, config: &SystemConfig) -> DeviceResources {
        let mut instance = kernel.instance_resources();
        // PLM sharing shrinks kernel BRAM; double buffering doubles it.
        let mut brams = (instance.brams as f64 * config.plm_share).ceil() as u64;
        if config.double_buffer {
            brams *= 2;
        }
        instance.brams = brams;
        let replicas = DeviceResources {
            luts: instance.luts * config.replication as u64,
            ffs: instance.ffs * config.replication as u64,
            dsps: instance.dsps * config.replication as u64,
            brams: instance.brams * config.replication as u64,
            urams: 0,
        };
        let infra = Self::infrastructure_resources(config);
        DeviceResources {
            luts: replicas.luts + infra.luts,
            ffs: replicas.ffs + infra.ffs,
            dsps: replicas.dsps + infra.dsps,
            brams: replicas.brams + infra.brams,
            urams: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use everest_hls::Resources as HlsResources;

    pub(crate) fn fake_report(cycles: u64, bytes: u64) -> HlsReport {
        HlsReport {
            kernel: "k".into(),
            cycles,
            time_us: cycles as f64 / 300.0,
            area: HlsResources {
                luts: 50_000,
                ffs: 70_000,
                dsps: 400,
                brams: 64,
            },
            fmax_mhz: 300.0,
            units: Default::default(),
            loops: Vec::new(),
            bytes_per_call: bytes,
        }
    }

    #[test]
    fn spec_splits_bytes() {
        let spec = KernelSpec::from_report(fake_report(1000, 1000), 0.75);
        assert_eq!(spec.bytes_in, 750);
        assert_eq!(spec.bytes_out, 250);
    }

    #[test]
    fn double_buffering_doubles_plm() {
        let spec = KernelSpec::from_report(fake_report(1000, 1000), 0.5);
        let single = SystemArchitecture::footprint(
            &spec,
            &SystemConfig {
                double_buffer: false,
                ..SystemConfig::default()
            },
        );
        let double = SystemArchitecture::footprint(
            &spec,
            &SystemConfig {
                double_buffer: true,
                ..SystemConfig::default()
            },
        );
        assert!(double.brams > single.brams * 3 / 2);
    }

    #[test]
    fn plm_sharing_reduces_bram() {
        let spec = KernelSpec::from_report(fake_report(1000, 1000), 0.5);
        let naive = SystemArchitecture::footprint(&spec, &SystemConfig::default());
        let shared = SystemArchitecture::footprint(
            &spec,
            &SystemConfig {
                plm_share: 0.5,
                ..SystemConfig::default()
            },
        );
        assert!(shared.brams < naive.brams);
    }

    #[test]
    fn replication_scales_kernel_resources() {
        let spec = KernelSpec::from_report(fake_report(1000, 1000), 0.5);
        let one = SystemArchitecture::footprint(&spec, &SystemConfig::default());
        let four = SystemArchitecture::footprint(
            &spec,
            &SystemConfig {
                replication: 4,
                ..SystemConfig::default()
            },
        );
        assert!(four.dsps == one.dsps * 4);
        assert!(four.luts > one.luts * 3);
    }
}
