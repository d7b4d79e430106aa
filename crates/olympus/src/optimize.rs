//! Design-space exploration: Olympus "automatically creates an
//! *optimized* FPGA system architecture" (§V-C). The explorer sweeps
//! replication, lanes, packing, buffering and PLM sharing, keeps
//! feasible points, and returns the makespan-optimal configuration.

use everest_platform::device::{DeviceResources, FpgaDevice};

use crate::arch::{KernelSpec, SystemArchitecture, SystemConfig};
use crate::builder::{assemble, place, BuildError};
use crate::perf::{estimate_with_config, MakespanReport};

/// One evaluated design point.
#[derive(Debug, Clone)]
pub struct DesignPoint {
    /// The configuration.
    pub config: SystemConfig,
    /// Its performance estimate.
    pub makespan: MakespanReport,
    /// Scarcest-resource utilization.
    pub utilization: f64,
}

/// Exploration result: the chosen architecture plus the whole frontier.
#[derive(Debug, Clone)]
pub struct Exploration {
    /// The best architecture.
    pub best: SystemArchitecture,
    /// Its estimate.
    pub best_makespan: MakespanReport,
    /// All feasible points evaluated (for ablation studies).
    pub points: Vec<DesignPoint>,
    /// Number of infeasible configurations pruned.
    pub pruned: usize,
}

/// Explores the design space for `kernel` on `device` over a `items`-item
/// batch.
///
/// # Errors
///
/// Returns [`BuildError`] if not even the minimal configuration fits.
pub fn explore(
    kernel: &KernelSpec,
    device: &FpgaDevice,
    items: u64,
) -> Result<Exploration, BuildError> {
    let telemetry_span = everest_telemetry::span("olympus.explore");
    telemetry_span
        .arg("kernel", kernel.name.as_str())
        .arg("device", device.name.as_str())
        .arg("items", items);
    let mut points = Vec::new();
    let mut pruned = 0usize;
    // One architecture record carries the kernel through the sweep: a
    // design point is priced against it under its own config, and the
    // winner's config and footprint are filled in at the end.
    let mut arch = assemble(
        kernel.clone(),
        device,
        SystemConfig::default(),
        DeviceResources::default(),
    );
    let mut best: Option<(SystemConfig, DeviceResources, MakespanReport)> = None;

    let channels = device.memories[0].channels;
    for replication in [1u32, 2, 4, 8, 16] {
        for lanes in [1u32, 2, 4] {
            if replication * lanes > channels {
                pruned += 1;
                continue;
            }
            for pack in [64u64, 256, 1024, 4096] {
                for double_buffer in [false, true] {
                    for plm_share in [1.0, 0.6] {
                        let config = SystemConfig {
                            replication,
                            lanes_per_replica: lanes,
                            pack_bytes: pack,
                            double_buffer,
                            plm_share,
                        };
                        match place(kernel, device, config) {
                            Ok(footprint) => {
                                let makespan = estimate_with_config(&arch, &config, device, items);
                                let utilization = device.resources.utilization_of(&footprint);
                                points.push(DesignPoint {
                                    config,
                                    makespan,
                                    utilization,
                                });
                                let better = match &best {
                                    None => true,
                                    Some((_, _, current)) => makespan.total_us < current.total_us,
                                };
                                if better {
                                    best = Some((config, footprint, makespan));
                                }
                            }
                            Err(_) => pruned += 1,
                        }
                    }
                }
            }
        }
    }
    everest_telemetry::counter_add("olympus.design_points", points.len() as u64);
    everest_telemetry::counter_add("olympus.pruned_points", pruned as u64);
    telemetry_span
        .arg("feasible", points.len())
        .arg("pruned", pruned);
    let (config, footprint, best_makespan) = best.ok_or_else(|| BuildError::DoesNotFit {
        detail: "no feasible configuration".into(),
    })?;
    arch.config = config;
    arch.resources = footprint;
    telemetry_span.record_sim_us(best_makespan.total_us);
    Ok(Exploration {
        best: arch,
        best_makespan,
        points,
        pruned,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use everest_hls::{HlsReport, Resources};

    fn kernel(cycles: u64, bytes: u64, dsps: u64) -> KernelSpec {
        KernelSpec::from_report(
            HlsReport {
                kernel: "k".into(),
                cycles,
                time_us: cycles as f64 / 300.0,
                area: Resources {
                    luts: 45_000,
                    ffs: 70_000,
                    dsps,
                    brams: 60,
                },
                fmax_mhz: 300.0,
                units: Default::default(),
                loops: Vec::new(),
                bytes_per_call: bytes,
            },
            0.6,
        )
    }

    #[test]
    fn compute_bound_kernels_get_replication() {
        let dev = FpgaDevice::alveo_u55c();
        let result = explore(&kernel(5_000_000, 64 << 10, 400), &dev, 128).unwrap();
        assert!(
            result.best.config.replication >= 4,
            "compute-bound should replicate, got {:?}",
            result.best.config
        );
    }

    #[test]
    fn memory_bound_kernels_get_packing_or_lanes() {
        let dev = FpgaDevice::alveo_u55c();
        let result = explore(&kernel(2_000, 32 << 20, 400), &dev, 64).unwrap();
        let c = result.best.config;
        assert!(
            c.pack_bytes >= 1024 || c.lanes_per_replica * c.replication >= 8,
            "memory-bound should widen memory access, got {c:?}"
        );
    }

    #[test]
    fn best_is_no_worse_than_default() {
        let dev = FpgaDevice::alveo_u55c();
        let k = kernel(400_000, 4 << 20, 400);
        let result = explore(&k, &dev, 64).unwrap();
        let default_point = result
            .points
            .iter()
            .find(|p| p.config == SystemConfig::default())
            .expect("default config is feasible");
        assert!(result.best_makespan.total_us <= default_point.makespan.total_us);
    }

    #[test]
    fn infeasible_points_are_pruned_not_fatal() {
        // cloudFPGA is small: high replication of a DSP-heavy kernel fails
        let dev = FpgaDevice::cloudfpga();
        let result = explore(&kernel(400_000, 1 << 20, 900), &dev, 32).unwrap();
        assert!(result.pruned > 0);
        assert!(!result.points.is_empty());
    }

    #[test]
    fn nothing_fits_reports_error() {
        let dev = FpgaDevice::cloudfpga();
        // kernel larger than the whole device
        let k = KernelSpec::from_report(
            HlsReport {
                kernel: "huge".into(),
                cycles: 1,
                time_us: 0.1,
                area: Resources {
                    luts: 10_000_000,
                    ffs: 0,
                    dsps: 0,
                    brams: 0,
                },
                fmax_mhz: 300.0,
                units: Default::default(),
                loops: Vec::new(),
                bytes_per_call: 64,
            },
            0.5,
        );
        assert!(explore(&k, &dev, 8).is_err());
    }
}
