//! `explore` asks `place` of every design point and builds one
//! architecture; the loop it replaced built one per point through
//! `generate(kernel.clone(), ..)`. That loop is kept here as the
//! reference: same points in the same order, same pruning, same winner,
//! same telemetry.
//!
//! The olympus instrumentation writes to the process-wide registry, so
//! this binary holds one `#[test]` and resets that registry around each
//! side.

use proptest::prelude::*;

use everest_hls::{HlsReport, LoopReport, Resources};
use everest_olympus::optimize::DesignPoint;
use everest_olympus::{
    estimate_makespan, explore, generate, BuildError, Exploration, KernelSpec, MakespanReport,
    SystemArchitecture, SystemConfig,
};
use everest_platform::device::FpgaDevice;
use everest_telemetry::Registry;

/// The sweep as it was written before `place` existed.
fn explore_by_generating(
    kernel: &KernelSpec,
    device: &FpgaDevice,
    items: u64,
) -> Result<Exploration, BuildError> {
    let mut points = Vec::new();
    let mut pruned = 0usize;
    let mut best: Option<(SystemArchitecture, MakespanReport)> = None;
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
                        match generate(kernel.clone(), device, config) {
                            Ok(arch) => {
                                let makespan = estimate_makespan(&arch, device, items);
                                let utilization = device.resources.utilization_of(&arch.resources);
                                points.push(DesignPoint {
                                    config,
                                    makespan,
                                    utilization,
                                });
                                let better = match &best {
                                    None => true,
                                    Some((_, current)) => makespan.total_us < current.total_us,
                                };
                                if better {
                                    best = Some((arch, makespan));
                                }
                            }
                            Err(_) => pruned += 1,
                        }
                    }
                }
            }
        }
    }
    let (best, best_makespan) = best.ok_or_else(|| BuildError::DoesNotFit {
        detail: "no feasible configuration".into(),
    })?;
    Ok(Exploration {
        best,
        best_makespan,
        points,
        pruned,
    })
}

/// What the global registry recorded since its last reset: the two
/// `explore` counters and how many `olympus.generate` spans opened.
fn telemetry() -> (u64, u64, usize) {
    let registry = Registry::global();
    let generated = registry
        .spans()
        .iter()
        .filter(|s| s.name == "olympus.generate")
        .count();
    (
        registry.counter("olympus.design_points"),
        registry.counter("olympus.pruned_points"),
        generated,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn explore_matches_the_generate_per_point_sweep(
        cycles in 1_000u64..10_000_000,
        bytes in 1u64 << 8..1u64 << 26,
        luts in 2_000u64..1_500_000,
        dsps in 0u64..4_000,
        brams in 0u64..1_200,
        loops in proptest::collection::vec((0usize..4, 1u64..512, 1u64..64), 0..6),
        read_fraction in 0.0f64..1.0,
        device in 0usize..3,
        items in 1u64..512,
    ) {
        let device = [
            FpgaDevice::alveo_u55c(),
            FpgaDevice::alveo_u280(),
            FpgaDevice::cloudfpga(),
        ][device]
            .clone();
        let report = HlsReport {
            kernel: "k".into(),
            cycles,
            time_us: cycles as f64 / 300.0,
            area: Resources { luts, ffs: luts * 3 / 2, dsps, brams },
            fmax_mhz: 300.0,
            units: [("arith.mulf".to_string(), dsps / 3), ("memref.load".to_string(), 2)]
                .into_iter()
                .collect(),
            loops: loops
                .iter()
                .map(|&(depth, trip_count, body_cycles)| LoopReport {
                    depth,
                    trip_count,
                    body_cycles,
                    pipelined: depth == 0,
                    ii: 1,
                    total_cycles: trip_count * body_cycles,
                })
                .collect(),
            bytes_per_call: bytes,
        };
        let kernel = KernelSpec::from_report(report, read_fraction);

        Registry::global().reset();
        let want = explore_by_generating(&kernel, &device, items);
        let (_, _, generated_by_reference) = telemetry();
        Registry::global().reset();
        let got = explore(&kernel, &device, items);
        let (design_points, pruned_points, generated) = telemetry();
        prop_assert_eq!(generated, generated_by_reference);

        let (got, want) = match (got, want) {
            (Ok(got), Ok(want)) => (got, want),
            (got, want) => {
                // Nothing fits: the same error, and nothing counted as found.
                prop_assert_eq!(got.err(), want.err());
                prop_assert_eq!(design_points, 0);
                return Ok(());
            }
        };
        prop_assert_eq!((design_points, pruned_points), (want.points.len() as u64, want.pruned as u64));
        prop_assert_eq!(got.pruned, want.pruned);
        prop_assert_eq!(got.best_makespan, want.best_makespan);
        prop_assert_eq!(got.points.len(), want.points.len());
        for (g, w) in got.points.iter().zip(&want.points) {
            prop_assert_eq!(g.config, w.config);
            prop_assert_eq!(g.makespan, w.makespan);
            prop_assert_eq!(g.utilization.to_bits(), w.utilization.to_bits());
        }
        // The winner is what `generate` builds for the winning config.
        let rebuilt = generate(kernel.clone(), &device, got.best.config).expect("it was placed");
        for best in [&want.best, &rebuilt] {
            prop_assert_eq!(&got.best.name, &best.name);
            prop_assert_eq!(&got.best.platform, &best.platform);
            prop_assert_eq!(got.best.config, best.config);
            prop_assert_eq!(got.best.resources, best.resources);
            prop_assert_eq!(&got.best.kernel.name, &best.kernel.name);
            prop_assert_eq!(&got.best.kernel.report, &best.kernel.report);
            prop_assert_eq!(got.best.kernel.bytes_in, best.kernel.bytes_in);
            prop_assert_eq!(got.best.kernel.bytes_out, best.kernel.bytes_out);
        }
    }
}
