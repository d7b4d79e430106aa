//! E7 [§V-C, refs 16/24/25] — Olympus ablation: each data-movement
//! optimization (packing, lanes, replication, double buffering, PLM
//! sharing) toggled on a memory-bound kernel on the u280 HBM system.

use crate::{rule, Report};
use everest_hls::{HlsReport, Resources};
use everest_olympus::{estimate_makespan, generate, KernelSpec, SystemConfig};
use everest_platform::device::FpgaDevice;

/// A memory-bound streaming kernel: little compute, lots of traffic.
fn streaming_kernel() -> KernelSpec {
    KernelSpec::from_report(
        HlsReport {
            kernel: "stream".into(),
            cycles: 40_000,
            time_us: 133.0,
            area: Resources {
                luts: 30_000,
                ffs: 45_000,
                dsps: 128,
                brams: 48,
            },
            fmax_mhz: 300.0,
            units: Default::default(),
            loops: Vec::new(),
            bytes_per_call: 16 << 20,
        },
        0.6,
    )
}

fn configs() -> Vec<(&'static str, SystemConfig)> {
    let base = SystemConfig {
        replication: 1,
        lanes_per_replica: 1,
        pack_bytes: 64,
        double_buffer: false,
        plm_share: 1.0,
    };
    vec![
        ("baseline (64B, 1 lane, 1x)", base),
        (
            "+ packing (4 KiB bursts)",
            SystemConfig {
                pack_bytes: 4096,
                ..base
            },
        ),
        (
            "+ lanes (4 per replica)",
            SystemConfig {
                pack_bytes: 4096,
                lanes_per_replica: 4,
                ..base
            },
        ),
        (
            "+ replication (4x)",
            SystemConfig {
                pack_bytes: 4096,
                lanes_per_replica: 4,
                replication: 4,
                ..base
            },
        ),
        (
            "+ double buffering",
            SystemConfig {
                pack_bytes: 4096,
                lanes_per_replica: 4,
                replication: 4,
                double_buffer: true,
                ..base
            },
        ),
        (
            "+ PLM sharing (0.6)",
            SystemConfig {
                pack_bytes: 4096,
                lanes_per_replica: 4,
                replication: 4,
                double_buffer: true,
                plm_share: 0.6,
            },
        ),
    ]
}

pub(crate) fn series(r: &mut Report) {
    r.banner(
        "E7",
        "V-C [16][24][25]",
        "Olympus memory-architecture ablation (u280, 64-item batch)",
    );
    let device = FpgaDevice::alveo_u280();
    let kernel = streaming_kernel();
    r.pin(format!(
        "{:<28} {:>12} {:>9} {:>9} {:>8}",
        "configuration", "makespan", "speedup", "mem util", "BRAM"
    ));
    r.pin(rule(72));
    let mut base = 0.0;
    for (label, config) in configs() {
        let arch = generate(kernel.clone(), &device, config).expect("fits");
        let m = estimate_makespan(&arch, &device, 64);
        if base == 0.0 {
            base = m.total_us;
        }
        r.pin(format!(
            "{:<28} {:>9.0} us {:>8.2}x {:>8.1}% {:>8}",
            label,
            m.total_us,
            base / m.total_us,
            100.0 * m.memory_utilization,
            arch.resources.brams
        ));
    }
    r.pin("\n(the cumulative stack reproduces the high-bandwidth architectures");
    r.pin(" of refs [24][25]: packing fixes burst efficiency, lanes scale");
    r.pin(" channels, replication scales compute, buffering overlaps phases)");
}

pub(crate) fn timings(r: &mut Report) {
    let device = FpgaDevice::alveo_u280();
    let kernel = streaming_kernel();
    r.time("e07_olympus/design_space_exploration", || {
        everest_olympus::explore(&kernel, &device, 64).expect("explores")
    });
}
