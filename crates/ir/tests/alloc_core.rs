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

/// `func @k(%buf)`: a loop whose body loads, multiplies and stores
/// `statements` times — regions, block arguments, attributes and
/// memref types, as a lowered kernel has. Every statement loads the
/// same element, so CSE has a duplicate to merge in each.
fn kernel(statements: usize) -> Module {
    let mut m = Module::new();
    let top = m.top_block();
    let ty = Type::memref(&[64], Type::F64, MemorySpace::Device);
    let (_f, entry) = core::build_func(&mut m, top, "k", &[ty], &[]);
    let buf = m.block(entry).args[0];
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
        m.build_op("memref.store", [product, buf, iv], [])
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

        // An attribute vector where an op has attributes (one constant
        // a statement), the payloads that own memory (a `sym_name`, a
        // function type), a region list where an op has regions, the
        // four arenas and the two lists of a block: 88 and 152
        // allocations for the two sizes (0.33 and 0.29 an op). Operands
        // and results are held in the op; as `Vec`s they were two more
        // an op, 476 and 924. A map that owned a `String` per key made
        // it 545 and 1,057.
        let (count, copy) = allocations(|| module.clone());
        assert_eq!(copy.num_ops(), ops);
        assert!(
            count <= statements + 24,
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
}
