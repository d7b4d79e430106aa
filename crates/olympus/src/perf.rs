//! Performance evaluation of system architectures.
//!
//! Computes batch makespans from the platform models: host-link
//! transfers, external-memory streaming (with lanes and packing) and
//! kernel compute (with replication), with or without double-buffered
//! overlap (read/execute/write pipelining, §V-C).

use everest_platform::device::FpgaDevice;
use everest_platform::link::link_for;
use everest_platform::memory::{AccessPattern, MemoryModel};

use crate::arch::{SystemArchitecture, SystemConfig};

/// Breakdown of a batch execution estimate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MakespanReport {
    /// Host→device staging time (µs) for the whole batch.
    pub h2d_us: f64,
    /// Device-memory read streaming time (µs).
    pub read_us: f64,
    /// Aggregate compute time (µs).
    pub compute_us: f64,
    /// Device-memory write streaming time (µs).
    pub write_us: f64,
    /// Device→host drain time (µs).
    pub d2h_us: f64,
    /// Total makespan (µs) after overlap.
    pub total_us: f64,
    /// Fraction of external-memory peak bandwidth used at steady state.
    pub memory_utilization: f64,
}

impl MakespanReport {
    /// Items per second at steady state.
    pub fn throughput(&self, items: u64) -> f64 {
        if self.total_us == 0.0 {
            f64::INFINITY
        } else {
            items as f64 / (self.total_us / 1e6)
        }
    }
}

/// Estimates the makespan of running `items` kernel invocations on the
/// architecture, on the given device.
pub fn estimate_makespan(
    arch: &SystemArchitecture,
    device: &FpgaDevice,
    items: u64,
) -> MakespanReport {
    estimate_with_config(arch, &arch.config, device, items)
}

/// Estimates the makespan for an explicit configuration (used by the
/// design-space exploration before an architecture is committed).
pub(crate) fn estimate_with_config(
    arch: &SystemArchitecture,
    config: &SystemConfig,
    device: &FpgaDevice,
    items: u64,
) -> MakespanReport {
    let kernel = &arch.kernel;
    let link = link_for(&device.attachment);
    let memory = MemoryModel::new(device.memories[0]);

    let total_in = kernel.bytes_in * items;
    let total_out = kernel.bytes_out * items;

    // Host link staging: batch transfers amortize setup.
    let h2d_us = link.transfer_time_us(total_in);
    let d2h_us = link.transfer_time_us(total_out);

    // Device memory streaming with lanes and packing.
    let pattern = AccessPattern {
        burst_bytes: config.pack_bytes.max(1),
        port_width_bits: (config.pack_bytes.min(512) * 8).max(32) as u32,
        lanes: config.replication * config.lanes_per_replica,
    };
    let read_us = memory.transfer_time_us(total_in, &pattern);
    let write_us = memory.transfer_time_us(total_out, &pattern);

    // Compute: replicas share the batch.
    let per_item_us = kernel.report.cycles as f64 / device.kernel_clock_mhz;
    let compute_us = per_item_us * items.div_ceil(config.replication.max(1) as u64) as f64;

    // Overlap: with double buffering the read/execute/write phases of
    // successive items pipeline, so the steady state is the max phase;
    // without it, phases serialize per batch.
    let device_us = if config.double_buffer {
        read_us.max(compute_us).max(write_us)
            + (read_us + write_us + compute_us - read_us.max(compute_us).max(write_us))
                / items.max(1) as f64
    } else {
        read_us + compute_us + write_us
    };
    // Host staging overlaps with device work only partially (prefetch of
    // the next batch); keep it serial for a single batch.
    let total_us = h2d_us + device_us + d2h_us;

    let moved = (total_in + total_out) as f64; // bytes
    let mem_time_s = (read_us + write_us).max(1e-12) / 1e6;
    let achieved_gbps = moved / 1e9 / mem_time_s;
    let memory_utilization = (achieved_gbps / device.total_memory_gbps()).clamp(0.0, 1.0);

    MakespanReport {
        h2d_us,
        read_us,
        compute_us,
        write_us,
        d2h_us,
        total_us,
        memory_utilization,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::{KernelSpec, SystemConfig};
    use everest_hls::{HlsReport, Resources};

    fn report(cycles: u64, bytes: u64) -> HlsReport {
        HlsReport {
            kernel: "k".into(),
            cycles,
            time_us: cycles as f64 / 300.0,
            area: Resources {
                luts: 40_000,
                ffs: 60_000,
                dsps: 300,
                brams: 48,
            },
            fmax_mhz: 300.0,
            units: Default::default(),
            loops: Vec::new(),
            bytes_per_call: bytes,
        }
    }

    fn arch(cycles: u64, bytes: u64, config: SystemConfig) -> SystemArchitecture {
        let kernel = KernelSpec::from_report(report(cycles, bytes), 0.5);
        SystemArchitecture {
            name: "test".into(),
            platform: "alveo_u55c".into(),
            resources: SystemArchitecture::footprint(&kernel, &config),
            kernel,
            config,
        }
    }

    #[test]
    fn replication_helps_compute_bound_kernels() {
        let dev = FpgaDevice::alveo_u55c();
        // 3M cycles, tiny data: compute bound
        let base = estimate_makespan(&arch(3_000_000, 4096, SystemConfig::default()), &dev, 64);
        let replicated = estimate_makespan(
            &arch(
                3_000_000,
                4096,
                SystemConfig {
                    replication: 4,
                    ..SystemConfig::default()
                },
            ),
            &dev,
            64,
        );
        assert!(
            replicated.total_us < base.total_us / 3.0,
            "4x replication on compute-bound: {} vs {}",
            replicated.total_us,
            base.total_us
        );
    }

    #[test]
    fn packing_helps_memory_bound_kernels() {
        let dev = FpgaDevice::alveo_u55c();
        // few cycles, lots of data: memory bound
        let narrow = estimate_makespan(
            &arch(
                1000,
                8 << 20,
                SystemConfig {
                    pack_bytes: 64,
                    ..SystemConfig::default()
                },
            ),
            &dev,
            32,
        );
        let packed = estimate_makespan(
            &arch(
                1000,
                8 << 20,
                SystemConfig {
                    pack_bytes: 4096,
                    ..SystemConfig::default()
                },
            ),
            &dev,
            32,
        );
        assert!(
            packed.read_us < narrow.read_us / 2.0,
            "packing should slash streaming time: {} vs {}",
            packed.read_us,
            narrow.read_us
        );
    }

    #[test]
    fn lanes_scale_memory_bandwidth() {
        let dev = FpgaDevice::alveo_u55c();
        let one = estimate_makespan(
            &arch(
                1000,
                64 << 20,
                SystemConfig {
                    pack_bytes: 4096,
                    lanes_per_replica: 1,
                    ..SystemConfig::default()
                },
            ),
            &dev,
            16,
        );
        let eight = estimate_makespan(
            &arch(
                1000,
                64 << 20,
                SystemConfig {
                    pack_bytes: 4096,
                    lanes_per_replica: 8,
                    ..SystemConfig::default()
                },
            ),
            &dev,
            16,
        );
        assert!(eight.read_us < one.read_us / 6.0);
        assert!(eight.memory_utilization > one.memory_utilization);
    }

    #[test]
    fn double_buffering_overlaps_phases() {
        let dev = FpgaDevice::alveo_u55c();
        // balanced kernel: compute ~ transfer
        let serial = estimate_makespan(
            &arch(
                120_000,
                4 << 20,
                SystemConfig {
                    pack_bytes: 1024,
                    double_buffer: false,
                    ..SystemConfig::default()
                },
            ),
            &dev,
            64,
        );
        let overlapped = estimate_makespan(
            &arch(
                120_000,
                4 << 20,
                SystemConfig {
                    pack_bytes: 1024,
                    double_buffer: true,
                    ..SystemConfig::default()
                },
            ),
            &dev,
            64,
        );
        assert!(
            overlapped.total_us < serial.total_us * 0.75,
            "overlap must hide a phase: {} vs {}",
            overlapped.total_us,
            serial.total_us
        );
    }

    #[test]
    fn throughput_is_items_over_time() {
        let dev = FpgaDevice::alveo_u55c();
        let m = estimate_makespan(&arch(300_000, 1 << 20, SystemConfig::default()), &dev, 100);
        let t = m.throughput(100);
        assert!((t - 100.0 / (m.total_us / 1e6)).abs() < 1e-6);
    }
}
