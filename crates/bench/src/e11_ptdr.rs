//! E11 [§VIII traffic] — PTDR on the Alveo u55c model vs the CPU
//! baseline: Monte Carlo samples sweep, route-length sweep, and the
//! virtualization-layer test the prototype ran.

use std::time::Instant;

use crate::{rule, Report};
use everest_platform::device::FpgaDevice;
use everest_platform::xrt::XrtDevice;
use everest_runtime::{IoMode, PhysicalNode};
use everest_usecases::traffic::{build_route, monte_carlo, ptdr, RoadNetwork};

pub(crate) fn series(r: &mut Report) {
    r.banner(
        "E11",
        "VIII traffic",
        "PTDR: CPU Monte Carlo vs Alveo u55c model",
    );
    let net = RoadNetwork::grid(14, 14, 100.0);
    let route = build_route(&net, 0, 50);
    r.pin(format!(
        "route: {} segments, departing 08:00\n",
        route.segments.len()
    ));
    r.pin(format!(
        "{:>9} {:>14} {:>10}",
        "samples", "u55c kernel", "p95 (min)"
    ));
    r.pin(rule(35));
    r.host(format!(
        "{:>9} {:>12} {:>10}",
        "samples", "cpu MC", "speedup"
    ));
    r.host(rule(33));
    for samples in [1_000usize, 10_000, 100_000] {
        let t = Instant::now();
        let dist = monte_carlo(&net, &route, 8.0, samples, 42);
        let cpu_ms = t.elapsed().as_secs_f64() * 1000.0;
        let mut session = XrtDevice::open(FpgaDevice::alveo_u55c());
        session.load_bitstream("ptdr");
        let fpga_us = session
            .run_kernel("ptdr", ptdr::fpga_cycles(&route, samples))
            .expect("runs");
        r.pin(format!(
            "{:>9} {:>11.3} ms {:>10.1}",
            samples,
            fpga_us / 1000.0,
            dist.quantile(0.95)
        ));
        r.host(format!(
            "{:>9} {:>9.1} ms {:>9.0}x",
            samples,
            cpu_ms,
            cpu_ms * 1000.0 / fpga_us
        ));
    }

    r.pin("\nroute-length sweep (10k samples):");
    r.pin(format!("{:>10} {:>14}", "segments", "u55c kernel"));
    r.pin(rule(25));
    r.host(format!("{:>10} {:>12}", "segments", "cpu MC"));
    r.host(rule(23));
    for hops in [10usize, 30, 100] {
        let route = build_route(&net, 0, hops);
        let t = Instant::now();
        let _ = monte_carlo(&net, &route, 8.0, 10_000, 7);
        let cpu_ms = t.elapsed().as_secs_f64() * 1000.0;
        let mut session = XrtDevice::open(FpgaDevice::alveo_u55c());
        session.load_bitstream("ptdr");
        let fpga_us = session
            .run_kernel("ptdr", ptdr::fpga_cycles(&route, 10_000))
            .expect("runs");
        r.pin(format!("{:>10} {:>11.3} ms", hops, fpga_us / 1000.0));
        r.host(format!("{hops:>10} {cpu_ms:>9.1} ms"));
    }

    // The §VIII sentence: "We also tested this component with the
    // virtualization layer."
    r.pin("\nthrough the virtualization layer (VF passthrough):");
    let node = PhysicalNode::new("fpga0", 16, FpgaDevice::alveo_u55c(), 2);
    let vm = node.start_vm(4, IoMode::VfPassthrough);
    node.plug_vf(vm).expect("vf");
    let mut session = node.open_accelerator(vm).expect("opens");
    session.load_bitstream("ptdr");
    let native_cycles = ptdr::fpga_cycles(&route, 10_000);
    let t_vm = session.run_kernel("ptdr", native_cycles).expect("runs");
    let mut bare = XrtDevice::open(FpgaDevice::alveo_u55c());
    bare.load_bitstream("ptdr");
    let t_bare = bare.run_kernel("ptdr", native_cycles).expect("runs");
    r.pin(format!(
        "  bare metal {:.3} ms vs in-VM {:.3} ms ({:+.2}%)",
        t_bare / 1000.0,
        t_vm / 1000.0,
        100.0 * (t_vm - t_bare) / t_bare
    ));
}

pub(crate) fn timings(r: &mut Report) {
    let net = RoadNetwork::grid(14, 14, 100.0);
    let route = build_route(&net, 0, 50);
    r.time("e11_ptdr/cpu_monte_carlo_10k", || {
        monte_carlo(&net, &route, 8.0, 10_000, 42)
    });
}
