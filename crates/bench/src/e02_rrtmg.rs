//! E2 [Fig. 3, §V-A.1] — RRTMG major absorber: the 13-line EKL kernel vs
//! the ~200-line Fortran-shaped loop nest, correctness and throughput
//! across g-point counts, plus the u55c system-model estimate.

use std::time::Instant;

use crate::{compiled_rrtmg, dims_with_gpt, rule, Report};
use everest_ekl::interp::evaluate;
use everest_ekl::rrtmg::{
    input_map, major_absorber_program, major_absorber_reference, major_absorber_source,
    synthetic_inputs,
};
use everest_sdk::basecamp::CompileOptions;

pub(crate) fn series(r: &mut Report) {
    r.banner(
        "E2",
        "Fig. 3 / V-A.1",
        "EKL RRTMG kernel vs reference loop nest",
    );
    let src = major_absorber_source(dims_with_gpt(16));
    r.pin(format!(
        "expressiveness: {} EKL lines replace the ~200-line Fortran loop nest",
        src.lines().filter(|l| !l.trim().is_empty()).count()
    ));
    r.pin(format!(
        "\n{:>6} {:>12} {:>14}",
        "ngpt", "max rel err", "u55c model"
    ));
    r.pin(rule(34));
    r.host(format!(
        "{:>6} {:>14} {:>14}",
        "ngpt", "ekl interp", "reference"
    ));
    r.host(rule(36));
    for ngpt in [8, 16, 32, 64] {
        let dims = dims_with_gpt(ngpt);
        let program = major_absorber_program(dims);
        let inputs = synthetic_inputs(dims);
        let map = input_map(&inputs);

        let t = Instant::now();
        let outputs = evaluate(&program, &map).expect("evaluates");
        let interp_ms = t.elapsed().as_secs_f64() * 1000.0;

        let t = Instant::now();
        let reference = major_absorber_reference(dims, &inputs);
        let ref_ms = t.elapsed().as_secs_f64() * 1000.0;

        let got = &outputs["tau_abs"].data;
        let max_rel = got
            .iter()
            .zip(&reference)
            .map(|(g, w)| (g - w).abs() / w.abs().max(1e-30))
            .fold(0.0f64, f64::max);

        let compiled = compiled_rrtmg(dims, CompileOptions::default());
        let fpga_ms = compiled.fpga_time_us.expect("fpga") / 1000.0;
        r.pin(format!("{ngpt:>6} {max_rel:>12.2e} {fpga_ms:>11.4} ms"));
        r.host(format!("{ngpt:>6} {interp_ms:>11.2} ms {ref_ms:>11.3} ms"));
    }
    r.pin("\n(the EKL interpreter is a semantics oracle, not a production path;");
    r.pin(" the compiled u55c model shows the deployed kernel's per-call time)");
}

pub(crate) fn timings(r: &mut Report) {
    let dims = dims_with_gpt(16);
    let program = major_absorber_program(dims);
    let inputs = synthetic_inputs(dims);
    let map = input_map(&inputs);
    r.time("e02_rrtmg/ekl_interp_ngpt16", || {
        evaluate(&program, &map).expect("evaluates")
    });
    r.time("e02_rrtmg/reference_ngpt16", || {
        major_absorber_reference(dims, &inputs)
    });
}
