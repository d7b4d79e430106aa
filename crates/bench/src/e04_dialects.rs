//! E4 [Fig. 5, §V-B] — The MLIR dialect stack: inventory, lowering-path
//! verification and round-trips for every flow the SDK produces, plus
//! canonicalization-pipeline cost. EKL lowers from its checked AST
//! straight to loops and CFDlang translates to EKL first, so Fig. 5's
//! tensor level is not an IR level of its own here.

use std::time::Instant;

use crate::{compiled_rrtmg, rule, small_dims, Report};
use everest_ir::pass::canonicalization_pipeline;
use everest_ir::registry::Context;
use everest_ir::Module;
use everest_sdk::basecamp::{Basecamp, CompileOptions};

/// The contraction `everest_ekl::cfdlang`'s module documentation shows.
const CFDLANG_MATMUL: &str = "var input  A : [4 8]
var input  B : [8 2]
var output C : [4 2]
C = A . B
";

pub fn series(r: &mut Report) {
    r.banner(
        "E4",
        "Fig. 5 / V-B",
        "EVEREST dialect stack: inventory and lowering paths",
    );
    let ctx = Context::with_all_dialects();
    r.pin(format!("{:<12} {:>6}  description", "dialect", "ops"));
    r.pin(rule(64));
    for name in ctx.dialect_names() {
        let d = ctx.dialect(name).expect("listed");
        r.pin(format!("{:<12} {:>6}  {}", d.name, d.len(), d.description));
    }

    r.pin("\nlowering paths exercised (each verifies + round-trips):");
    let basecamp = Basecamp::new();
    let t = Instant::now();
    let compiled = compiled_rrtmg(small_dims(), CompileOptions::default());
    r.host(format!(
        "ekl -> scf/arith/memref lowered in {:.1} ms",
        t.elapsed().as_secs_f64() * 1000.0
    ));
    r.pin(format!(
        "  ekl -> scf/arith/memref             : {} ops",
        compiled.module.num_ops()
    ));
    let t = Instant::now();
    let cfd = basecamp
        .compile_cfdlang(CFDLANG_MATMUL, "cfd_matmul", CompileOptions::default())
        .expect("compiles");
    r.host(format!(
        "cfdlang -> ekl -> scf/arith/memref lowered in {:.1} ms",
        t.elapsed().as_secs_f64() * 1000.0
    ));
    round_trip(&ctx, &cfd.module);
    r.pin(format!(
        "  cfdlang -> ekl -> scf/arith/memref  : {} ops",
        cfd.module.num_ops()
    ));
    let t = Instant::now();
    let coordination = basecamp
        .compile_coordination(everest_usecases::traffic::mapmatch::CONDRUST_MAP_MATCH)
        .expect("compiles");
    r.host(format!(
        "condrust -> dfg lowered in {:.1} ms",
        t.elapsed().as_secs_f64() * 1000.0
    ));
    r.pin(format!(
        "  condrust -> dfg                     : {} ops",
        coordination.dfg_ir.num_ops()
    ));
    let sys = compiled.system_ir.as_ref().expect("fpga target");
    r.pin(format!(
        "  hls + platform -> olympus           : {} ops",
        sys.num_ops()
    ));

    for (label, module) in [
        ("loop ir", &compiled.module),
        ("dfg ir", &coordination.dfg_ir),
        ("olympus ir", sys),
    ] {
        let lines = round_trip(&ctx, module);
        r.pin(format!("  round-trip {label}: ok ({lines} text lines)"));
    }
}

/// Prints `module`, parses the text back and verifies it; returns the
/// number of text lines.
fn round_trip(ctx: &Context, module: &Module) -> usize {
    let text = everest_ir::print::print_module(module);
    let parsed = everest_ir::parse::parse_module(&text).expect("parses back");
    assert_eq!(everest_ir::print::print_module(&parsed), text);
    everest_ir::verify::verify_module(ctx, &parsed).expect("verifies");
    text.lines().count()
}

pub fn timings(r: &mut Report) {
    let ctx = Context::with_all_dialects();
    let compiled = compiled_rrtmg(small_dims(), CompileOptions::default());
    let text = everest_ir::print::print_module(&compiled.module);
    r.time("e04_dialects/verify_rrtmg_module", || {
        everest_ir::verify::verify_module(&ctx, &compiled.module).expect("ok");
    });
    r.time("e04_dialects/parse_rrtmg_text", || {
        everest_ir::parse::parse_module(&text).expect("parses")
    });
    r.time("e04_dialects/canonicalize_rrtmg", || {
        let mut m = compiled.module.clone();
        canonicalization_pipeline().run(&ctx, &mut m).expect("runs")
    });
}
