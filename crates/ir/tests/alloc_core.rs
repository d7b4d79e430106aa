//! What the per-op primitives allocate: canonicalization a handful of
//! tables per pass, `Module::clone` an op's attributes and regions but
//! not its operands and results, `verify_module` its scope table.
//!
//! This test binary (and no other: the SDK itself never installs an
//! allocator) counts heap allocations through its own global allocator.
//! One `#[test]`, so nothing else allocates while it measures.

// This crate denies `unsafe_code` (workspace lints); implementing
// `GlobalAlloc` is the one thing here that cannot be written without it.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use everest_ekl::check::check;
use everest_ekl::lower::lower_to_loops;
use everest_ekl::parser::parse;
use everest_ir::dialects::core;
use everest_ir::module::Module;
use everest_ir::pass::canonicalization_pipeline;
use everest_ir::registry::Context;
use everest_ir::types::{MemorySpace, Type};
use everest_ir::verify::verify_module;

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

/// `func @k(%buf, %out)`: a loop whose body loads, multiplies and
/// stores `statements` times — regions, block arguments, attributes
/// and memref types, as a lowered kernel has. Every statement loads the
/// same element of `buf` and stores to `out`, so CSE has a duplicate to
/// merge in each.
fn kernel(statements: usize) -> Module {
    let mut m = Module::new();
    let top = m.top_block();
    let ty = Type::memref(&[64], Type::F64, MemorySpace::Device);
    let (_f, entry) = core::build_func(&mut m, top, "k", &[ty.clone(), ty], &[]);
    let (buf, out) = (m.block(entry).args[0], m.block(entry).args[1]);
    let lb = core::const_index(&mut m, entry, 0);
    let ub = core::const_index(&mut m, entry, 64);
    let step = core::const_index(&mut m, entry, 1);
    let (_loop, body) = core::build_for(&mut m, entry, lb, ub, step);
    let iv = m.block(body).args[0];
    for n in 0..statements {
        let scale = core::const_f64(&mut m, body, n as f64 + 0.5);
        let load = m
            .build_op("memref.load", [buf, iv], [Type::F64])
            .append_to(body);
        let loaded = everest_ir::module::single_result(&m, load);
        let product = core::binary(&mut m, body, "arith.mulf", scale, loaded);
        m.build_op("memref.store", [product, out, iv], [])
            .append_to(body);
    }
    m.build_op("scf.yield", [], []).append_to(body);
    m.build_op("func.return", [], []).append_to(entry);
    m
}

#[test]
fn passes_clone_and_verify_allocate_per_module_not_per_op() {
    let ctx = Context::with_all_dialects();
    let pipeline = canonicalization_pipeline();
    let mut pipeline_counts = Vec::new();
    for statements in [64, 128] {
        let module = kernel(statements);
        let ops = module.num_ops();

        // Six passes, a verification before them and one after the first
        // that changes the module: a use-count vector, a walk and a dead
        // list per DCE round, CSE's forwarding table, its three reused
        // vectors and its list of duplicates, the spans and the
        // statistics — 66 for the run, where a key per pure op (two
        // vectors and a cloned payload, in both CSE runs) and walks that
        // regrew made 427 (1.6 an op).
        let mut canonical = module.clone();
        let (count, stats) = allocations(|| pipeline.run(&ctx, &mut canonical));
        let merged: usize = stats.expect("runs").iter().map(|(_, s)| s.ops_erased).sum();
        assert_eq!(merged, statements - 1, "the repeated loads merge");
        assert!(
            count * 10 <= ops * 3,
            "{count} allocations to canonicalize {ops} ops"
        );
        pipeline_counts.push(count);

        // The payloads that own memory (a `sym_name`, a function type
        // of two memrefs and the attribute vector of the one op with
        // two), the four arenas and a block's op list: 15 allocations
        // for either size (13 with one memref argument),
        // nothing an op. A constant's one attribute is held in the op,
        // a value holds a uniqued type id (the table is shared with the
        // source), and a loop's region list, its region's block list
        // and its body's argument list hold their one id in place; with
        // an attribute vector a constant cost one more an op (88 and
        // 152). Operands and results are held in the op; as `Vec`s they
        // were two more an op, 476 and 924. A map that owned a `String`
        // per key made it 545 and 1,057.
        let (count, copy) = allocations(|| module.clone());
        assert_eq!(copy.num_ops(), ops);
        assert!(
            count <= 16,
            "{count} allocations to clone {ops} ops of {statements} statements"
        );

        // The scope table, and nothing else on a module that verifies.
        let (count, verified) = allocations(|| verify_module(&ctx, &module));
        verified.expect("verifies");
        assert_eq!(count, 1, "verify_module allocations");
    }
    // Twice the statements may double what is sized by the module (the
    // tables grow a step further) but adds nothing per op.
    assert!(
        pipeline_counts[1] * 10 <= pipeline_counts[0] * 22,
        "allocations for 64 and 128 statements: {pipeline_counts:?}"
    );

    // A lowered kernel of the benchmark's shapes (elementwise, select
    // and sum statements): what is left is a loop body's op list, the
    // function's attributes and the four arenas, at most 0.35
    // allocations an op (23 for 84 ops; 0.10 an op on the benchmark's
    // 48 generated kernels of seed 42). Where each constant's
    // attribute, each memref-typed value and a loop's region, block
    // and argument lists were heap blocks of their own, the 48 kernels
    // made 0.76.
    let program = check(&parse(MIXED).expect("parses")).expect("checks");
    let module = lower_to_loops(&program).expect("lowers");
    let ops = module.num_ops();
    let (count, copy) = allocations(|| module.clone());
    assert_eq!(copy.num_ops(), ops);
    assert!(
        count * 100 <= ops * 35,
        "{count} allocations to clone {ops} lowered ops"
    );
}

/// Elementwise, `select` and `sum` statements, as the benchmark draws.
const MIXED: &str = "kernel mixed {
  index i : 0..16
  index j : 0..4
  input a : [i]
  input m : [i, j]
  let s0[i] = 0.5 * a[i] + 0.25
  let s1[i] = select(s0[i] <= 0.3, a[i], 0.3 * s0[i])
  let s2[i] = sum(j)(0.2 * m[i, j] * s1[i]) + 0.1 * a[i]
  let s3[i] = sum(j)(m[i, j]) * s2[i]
  output s3
}";
