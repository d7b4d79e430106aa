//! E5 [Fig. 6, §VI-B] — SR-IOV virtualization: VF passthrough is
//! near-native while emulated I/O pays per-operation exits; dynamic VF
//! hot-plug mitigates SR-IOV's static configuration.

use crate::{rule, Report};
use everest_platform::device::FpgaDevice;
use everest_platform::xrt::{Direction, XrtDevice};
use everest_runtime::{IoMode, PhysicalNode};

/// Runs a 50-iteration offload loop; returns virtual µs (excluding
/// bitstream programming).
fn offload_loop(session: &mut XrtDevice, kernel_cycles: u64, bytes: u64) -> f64 {
    session.load_bitstream("bench");
    let bo = session.alloc_bo(bytes, 0).expect("fits");
    let t0 = session.now_us();
    for _ in 0..50 {
        session
            .sync_bo(bo.handle, Direction::HostToDevice)
            .expect("ok");
        session.run_kernel("k", kernel_cycles).expect("ok");
        session
            .sync_bo(bo.handle, Direction::DeviceToHost)
            .expect("ok");
    }
    session.now_us() - t0
}

pub(crate) fn series(r: &mut Report) {
    r.banner(
        "E5",
        "Fig. 6 / VI-B",
        "SR-IOV virtualization overhead and VF hot-plug",
    );
    let node = PhysicalNode::new("host0", 32, FpgaDevice::alveo_u55c(), 4);
    let vm_pt = node.start_vm(8, IoMode::VfPassthrough);
    node.plug_vf(vm_pt).expect("vf available");
    let vm_em = node.start_vm(8, IoMode::Emulated);

    r.pin(format!(
        "{:>12} {:>14} {:>14} {:>14} {:>12} {:>12}",
        "buffer", "native", "passthrough", "emulated", "pt ovh", "emu ovh"
    ));
    r.pin(rule(84));
    for (bytes, cycles) in [
        (4u64 << 10, 3_000u64),
        (1 << 20, 30_000),
        (64 << 20, 300_000),
    ] {
        let mut native = XrtDevice::open(FpgaDevice::alveo_u55c());
        let t_native = offload_loop(&mut native, cycles, bytes);
        let mut pt = node.open_accelerator(vm_pt).expect("vf plugged");
        let t_pt = offload_loop(&mut pt, cycles, bytes);
        let mut em = node.open_accelerator(vm_em).expect("emulated path");
        let t_em = offload_loop(&mut em, cycles, bytes);
        r.pin(format!(
            "{:>9} KiB {:>11.1} us {:>11.1} us {:>11.1} us {:>11.2}% {:>11.2}%",
            bytes >> 10,
            t_native,
            t_pt,
            t_em,
            100.0 * (t_pt - t_native) / t_native,
            100.0 * (t_em - t_native) / t_native,
        ));
    }

    r.pin("\nVF lifecycle (management plane):");
    let before = node.management_time_us();
    let vf = node.plug_vf(vm_pt).expect("second vf");
    let plug = node.management_time_us() - before;
    let before = node.management_time_us();
    node.unplug_vf(vm_pt, vf).expect("unplug");
    let unplug = node.management_time_us() - before;
    r.pin(format!("  hot-plug:   {:.0} ms", plug / 1000.0));
    r.pin(format!("  hot-unplug: {:.0} ms", unplug / 1000.0));
    let status = node.status();
    r.pin(format!(
        "  libvirt status: {} VMs, {}/{} VFs free, {} cores free",
        status.vms, status.free_vfs, status.total_vfs, status.free_cores
    ));
}

pub(crate) fn timings(r: &mut Report) {
    r.time("e05_sriov/offload_loop_native_sim", || {
        let mut session = XrtDevice::open(FpgaDevice::alveo_u55c());
        offload_loop(&mut session, 30_000, 1 << 20)
    });
}
