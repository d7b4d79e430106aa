//! E6 [§VIII highlight] — Custom data formats: "custom data formats can
//! significantly speed up the computation, trading off resource
//! requirements and accuracy". The RRTMG kernel is resynthesized under
//! base2 fixed-point and posit formats; accuracy is measured by
//! quantizing the kernel's inputs bit-accurately and comparing against
//! the f64 result.

use crate::{rule, small_dims, Report};
use everest_hls::{synthesize, HlsOptions, NumericFormat};
use everest_ir::base2::{Fixed, Posit};
use everest_ir::{FixedFormat, PositFormat};

fn quantize(value: f64, format: NumericFormat) -> f64 {
    match format {
        NumericFormat::F64 => value,
        NumericFormat::F32 => value as f32 as f64,
        NumericFormat::Fixed(f) => Fixed::from_f64(value, f).to_f64(),
        NumericFormat::Posit(p) => Posit::from_f64(value, p).to_f64(),
    }
}

/// Max relative tau error when the kernel's real-valued inputs are
/// carried in the given format.
fn accuracy_loss(format: NumericFormat) -> f64 {
    let dims = small_dims();
    let program = everest_ekl::rrtmg::major_absorber_program(dims);
    let inputs = everest_ekl::rrtmg::synthetic_inputs(dims);
    let reference =
        everest_ekl::interp::evaluate(&program, &everest_ekl::rrtmg::input_map(&inputs))
            .expect("f64 reference")["tau_abs"]
            .data
            .clone();

    let mut quantized = inputs.clone();
    for tensor in [
        &mut quantized.press,
        &mut quantized.r_mix,
        &mut quantized.f_major,
        &mut quantized.k_major,
    ] {
        for v in &mut tensor.data {
            *v = quantize(*v, format);
        }
    }
    let got = everest_ekl::interp::evaluate(&program, &everest_ekl::rrtmg::input_map(&quantized))
        .expect("quantized run")["tau_abs"]
        .data
        .clone();
    got.iter()
        .zip(&reference)
        .map(|(g, w)| (g - w).abs() / w.abs().max(1e-30))
        .fold(0.0f64, f64::max)
}

pub(crate) fn series(r: &mut Report) {
    r.banner(
        "E6",
        "VIII",
        "custom data formats: speed / resources / accuracy",
    );
    let dims = small_dims();
    let program = everest_ekl::rrtmg::major_absorber_program(dims);
    let module = everest_ekl::lower::lower_to_loops(&program).expect("lowers");

    let formats: Vec<(&str, NumericFormat)> = vec![
        ("f64", NumericFormat::F64),
        ("f32", NumericFormat::F32),
        (
            "fixed<s15.16>",
            NumericFormat::Fixed(FixedFormat::signed(15, 16)),
        ),
        (
            "fixed<s7.8>",
            NumericFormat::Fixed(FixedFormat::signed(7, 8)),
        ),
        ("posit<32,2>", NumericFormat::Posit(PositFormat::new(32, 2))),
        ("posit<16,1>", NumericFormat::Posit(PositFormat::new(16, 1))),
    ];
    r.pin(format!(
        "{:<14} {:>10} {:>9} {:>8} {:>9} {:>8} {:>12}",
        "format", "cycles", "speedup", "DSP", "LUT", "BRAM", "max rel err"
    ));
    r.pin(rule(76));
    let mut base_cycles = 0u64;
    for (name, format) in &formats {
        let report = synthesize(
            &module,
            "major_absorber",
            HlsOptions {
                format: *format,
                ..HlsOptions::default()
            },
        )
        .expect("synthesizes");
        if base_cycles == 0 {
            base_cycles = report.cycles;
        }
        let err = accuracy_loss(*format);
        r.pin(format!(
            "{:<14} {:>10} {:>8.2}x {:>8} {:>9} {:>8} {:>12.2e}",
            name,
            report.cycles,
            base_cycles as f64 / report.cycles as f64,
            report.area.dsps,
            report.area.luts,
            report.area.brams,
            err
        ));
    }
    r.pin("\n(narrower formats cut cycles and DSPs; the accuracy column shows");
    r.pin(" the price — the trade-off of the paper's technical highlight)");
}

pub(crate) fn timings(r: &mut Report) {
    let program = everest_ekl::rrtmg::major_absorber_program(small_dims());
    let module = everest_ekl::lower::lower_to_loops(&program).expect("lowers");
    for (label, format) in [
        ("f64", NumericFormat::F64),
        ("fixed16", NumericFormat::Fixed(FixedFormat::signed(7, 8))),
    ] {
        r.time(&format!("e06_formats/synthesize_{label}"), || {
            synthesize(
                &module,
                "major_absorber",
                HlsOptions {
                    format,
                    ..HlsOptions::default()
                },
            )
            .expect("synthesizes")
        });
    }
}
