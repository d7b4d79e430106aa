//! E1 [Fig. 2, §IV] — End-to-end SDK flow through `basecamp`:
//! per-stage compile-time breakdown (frontend → IR → HLS → Olympus) for
//! both target platforms, plus the wall time of the full flow.

use std::time::Instant;

use crate::{compiled_rrtmg, rule, small_dims, Report};
use everest_sdk::basecamp::{Basecamp, CompileOptions, Target};

pub(crate) fn series(r: &mut Report) {
    r.banner("E1", "Fig. 2 / IV", "end-to-end SDK flow through basecamp");
    let source = everest_ekl::rrtmg::major_absorber_source(small_dims());
    r.pin(format!(
        "kernel: RRTMG major absorber ({} EKL source lines)",
        source.lines().count()
    ));
    r.host(format!(
        "{:<22} {:>14} {:>14}",
        "stage", "alveo_u55c", "cloudfpga"
    ));
    r.host(rule(54));

    let mut stage_times = [Vec::new(), Vec::new()];
    for (col, target) in [Target::AlveoU55c, Target::CloudFpga].iter().enumerate() {
        // frontend
        let t = Instant::now();
        let kernel = everest_ekl::parser::parse(&source).expect("parses");
        let program = everest_ekl::check::check(&kernel).expect("checks");
        stage_times[col].push(t.elapsed());
        // lowering + verify
        let t = Instant::now();
        let module = everest_ekl::lower::lower_to_loops(&program).expect("lowers");
        let ctx = everest_ir::registry::Context::with_all_dialects();
        everest_ir::verify::verify_module(&ctx, &module).expect("verifies");
        stage_times[col].push(t.elapsed());
        // HLS
        let t = Instant::now();
        let report =
            everest_hls::synthesize(&module, &program.name, everest_hls::HlsOptions::default())
                .expect("synthesizes");
        stage_times[col].push(t.elapsed());
        // Olympus
        let t = Instant::now();
        let device = target.device().expect("fpga target");
        let spec = everest_olympus::KernelSpec::from_report(report, 0.7);
        let _arch = everest_olympus::explore(&spec, &device, 64).expect("explores");
        stage_times[col].push(t.elapsed());
    }
    for (row, stage) in [
        "frontend (EKL)",
        "lowering + verify",
        "HLS synthesis",
        "olympus DSE",
    ]
    .iter()
    .enumerate()
    {
        r.host(format!(
            "{:<22} {:>11.2} ms {:>11.2} ms",
            stage,
            stage_times[0][row].as_secs_f64() * 1000.0,
            stage_times[1][row].as_secs_f64() * 1000.0
        ));
    }

    let compiled = compiled_rrtmg(small_dims(), CompileOptions::default());
    r.pin("\nartifacts produced:");
    r.pin(format!(
        "  loop IR:        {} ops",
        compiled.module.num_ops()
    ));
    r.pin(format!(
        "  HLS:            {} cycles, {:.1} us",
        compiled.hls.cycles, compiled.hls.time_us
    ));
    let arch = compiled.architecture.as_ref().expect("fpga target");
    r.pin(format!(
        "  system:         {} replicas, pack {} B, per-call {:.2} us",
        arch.config.replication,
        arch.config.pack_bytes,
        compiled.fpga_time_us.expect("fpga target")
    ));
}

pub(crate) fn timings(r: &mut Report) {
    let source = everest_ekl::rrtmg::major_absorber_source(small_dims());
    let basecamp = Basecamp::new();
    r.time("e01_sdk_flow/compile_rrtmg_u55c", || {
        basecamp
            .compile_kernel(&source, CompileOptions::default())
            .expect("compiles")
    });
}
