//! What `print_module` allocates is the text it returns and one print
//! number per value: nothing per operation it visits. What
//! `parse_module` allocates is the module it returns, near enough: at
//! most twice what cloning that module does.
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
use everest_ir::parse::parse_module;
use everest_ir::print::print_module;
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

/// `func @k(%buf)`: a loop whose body loads, multiplies and stores
/// `statements` times — regions, block arguments, attributes and
/// memref types, as a lowered kernel has.
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
fn print_and_parse_allocate_about_what_the_module_holds() {
    let mut counts = Vec::new();
    for statements in [64, 1024] {
        let module = kernel(statements);
        let (count, text) = allocations(|| print_module(&module));
        // One line an op, two more for each of the two regions, and the
        // module's own braces.
        assert_eq!(text.lines().count(), module.num_ops() + 6);
        counts.push(count);
        // Tokens are slices of the text and an op's operand types are
        // checked, not built: what parsing allocates is the module, its
        // attributes and the `%N` table.
        let (cloned, _) = allocations(|| module.clone());
        let (parsed, module) = allocations(|| parse_module(&text));
        assert_eq!(print_module(&module.expect("printed text parses")), text);
        assert!(
            parsed <= 2 * cloned,
            "{statements} statements: parse made {parsed} allocations, clone {cloned}"
        );
    }
    // The value-number table and the output buffer, which is sized from
    // the op count and so grows a step or two at most (four in all here);
    // sixteen times the ops may cost one doubling more, not 960 x 2.3.
    assert!(
        counts[0] <= 6 && counts[1] <= counts[0] + 1,
        "allocations for 64 and 1024 statements: {counts:?}"
    );
}
