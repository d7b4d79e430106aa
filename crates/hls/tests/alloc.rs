//! `synthesize` borrows the module it is given: with the default
//! options it copies nothing, so what it allocates follows the function
//! it schedules and not the module around it; the options that rewrite
//! the IR (`unroll`, `licm`) work on a private copy and leave the
//! caller's module as it was. What it does allocate is sized per
//! synthesis — the CDFG tables, one frame per nesting level, the
//! scheduler's scratch — so a kernel of many small loops costs well
//! under an allocation an op, and twice the loops nowhere near twice
//! the allocations.
//!
//! This test binary (and no other: the SDK itself never installs an
//! allocator) counts heap allocations through its own global allocator.
//! One `#[test]`, so nothing else allocates while it measures.

// This crate denies `unsafe_code` (workspace lints); implementing
// `GlobalAlloc` is the one thing here that cannot be written without it.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use everest_ekl::{check::check, lower::lower_to_loops, parser::parse};
use everest_hls::engine::{synthesize, HlsOptions};
use everest_hls::transform::unroll_innermost;
use everest_ir::dialects::core;
use everest_ir::module::{single_result, Module};
use everest_ir::pass::{LoopInvariantCodeMotion, Pass};
use everest_ir::print::print_module;
use everest_ir::registry::Context;
use everest_ir::types::{MemorySpace, Type};

struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call forwards to `System` with the layout it was given;
// the counter is a statistic and publishes no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's contract for `alloc` is `System`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc`
        // above with this layout.
        unsafe { System.dealloc(ptr, layout) };
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `dealloc`; `new_size` is the caller's to vouch for.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations (and reallocations) made while `work` runs.
fn allocations<T>(work: impl FnOnce() -> T) -> (usize, T) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let result = work();
    (ALLOCATIONS.load(Ordering::Relaxed) - before, result)
}

/// `func @<name>(%buf)`: `for i in 0..64 { buf[i] = (c * buf[i]) * ... }`
/// with `statements` load-multiply-store groups in the body, each
/// scaled by a constant the loop does not need to recompute.
fn add_function(m: &mut Module, name: &str, statements: usize) {
    let top = m.top_block();
    let ty = Type::memref(&[64], Type::F64, MemorySpace::Device);
    let (_f, entry) = core::build_func(m, top, name, &[ty], &[]);
    let buf = m.block(entry).args[0];
    let lb = core::const_index(m, entry, 0);
    let ub = core::const_index(m, entry, 64);
    let step = core::const_index(m, entry, 1);
    let (_loop, body) = core::build_for(m, entry, lb, ub, step);
    let iv = m.block(body).args[0];
    for n in 0..statements {
        let scale = core::const_f64(m, body, n as f64 + 0.5);
        let load = m
            .build_op("memref.load", [buf, iv], [Type::F64])
            .append_to(body);
        let loaded = single_result(m, load);
        let product = core::binary(m, body, "arith.mulf", scale, loaded);
        m.build_op("memref.store", [product, buf, iv], [])
            .append_to(body);
    }
    m.build_op("scf.yield", [], []).append_to(body);
    m.build_op("func.return", [], []).append_to(entry);
}

/// The kernel under test, `k`, after `ballast` statements of a function
/// synthesis never looks at.
fn module_with_ballast(ballast: usize) -> Module {
    let mut m = Module::new();
    add_function(&mut m, "k", 3);
    add_function(&mut m, "ballast", ballast);
    m
}

/// A lowered EKL kernel of `statements` lets — elementwise, `select`
/// and `sum` in turn, each its own loop nest — as the compile corpus
/// generates them.
fn generated_kernel(statements: usize) -> Module {
    let mut src = String::from(
        "kernel g {\n  index i : 0..16\n  index j : 0..4\n  \
         input a : [i]\n  input b : [i]\n  input m : [i, j]\n",
    );
    for k in 0..statements {
        let prev = if k == 0 {
            "a".to_string()
        } else {
            format!("s{}", k - 1)
        };
        src += &match k % 3 {
            0 => format!("  let s{k}[i] = 0.5 * {prev}[i] + 0.25 * b[i]\n"),
            1 => format!("  let s{k}[i] = select({prev}[i] <= 0.5, b[i], 0.25 * {prev}[i])\n"),
            _ => format!("  let s{k}[i] = sum(j)(0.25 * m[i, j] * {prev}[i]) + 0.5 * a[i]\n"),
        };
    }
    src += &format!("  output s{}\n}}\n", statements - 1);
    let program = check(&parse(&src).expect("parses")).expect("checks");
    lower_to_loops(&program).expect("lowers")
}

#[test]
fn synthesize_borrows_its_input_and_copies_only_to_rewrite() {
    // The first call also pays for the telemetry registry's tables.
    synthesize(&module_with_ballast(1), "k", HlsOptions::default()).expect("synthesizes");

    let mut counts = Vec::new();
    for ballast in [16, 2048] {
        let module = module_with_ballast(ballast);
        let (count, report) = allocations(|| synthesize(&module, "k", HlsOptions::default()));
        assert_eq!(report.expect("synthesizes").loops.len(), 1);
        counts.push(count);
    }
    // `Module::clone` alone is three allocations an op (operands,
    // results, attributes): 128 times the ballast would show as tens of
    // thousands. What is left is the span log growing now and then.
    assert!(
        counts[1] <= counts[0] + 2,
        "allocations beside 16 and 2048 ballast statements: {counts:?}"
    );

    // Tables per synthesis, not per block or per node: a kernel of 64
    // loop nests makes about an allocation per eight ops (4.7 an op with
    // a hash map per block and a `Vec` per node; measured 158 for 1,278
    // ops), and one of 128 pays for little more than its longer report
    // (166).
    let mut counts = Vec::new();
    for statements in [64, 128] {
        let module = generated_kernel(statements);
        let ops = module.num_ops();
        let (count, report) = allocations(|| synthesize(&module, "g", HlsOptions::default()));
        assert!(report.expect("synthesizes").loops.len() >= statements);
        assert!(
            count * 4 <= ops,
            "{count} allocations for the {ops} ops of {statements} statements"
        );
        counts.push(count);
    }
    assert!(
        counts[1] * 2 <= counts[0] * 3,
        "allocations for 64 and 128 statements: {counts:?}"
    );

    // Every option set leaves the caller's module printing what it did,
    // and the rewriting ones report what the rewritten copy reports.
    let module = module_with_ballast(4);
    let text = print_module(&module);
    let revision = module.revision();
    let ctx = Context::with_all_dialects();
    for (unroll, licm) in [(1, false), (2, false), (4, false), (1, true), (4, true)] {
        let options = HlsOptions {
            unroll,
            licm,
            ..HlsOptions::default()
        };
        let got = synthesize(&module, "k", options).expect("synthesizes");
        let mut rewritten = module.clone();
        unroll_innermost(&mut rewritten, "k", unroll).expect("unrolls");
        if licm {
            LoopInvariantCodeMotion
                .run(&ctx, &mut rewritten)
                .expect("hoists");
        }
        assert_eq!(
            rewritten.revision() != revision,
            unroll > 1 || licm,
            "the rewriting options are the ones that need a copy"
        );
        let want = synthesize(&rewritten, "k", HlsOptions::default()).expect("synthesizes");
        assert_eq!(got, want, "unroll {unroll}, licm {licm}");
        assert_eq!(print_module(&module), text, "unroll {unroll}, licm {licm}");
    }
}
