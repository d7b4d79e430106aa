//! What `print_module` allocates is the text it returns and one print
//! number per value: nothing per operation it visits. What
//! `parse_module` allocates is the module it returns, near enough: at
//! most twice what cloning that module does, and the doublings of the
//! lists it cannot size ahead. What a lowered module holds is about the
//! bytes of its ops and values.
//!
//! This test binary (and no other: the SDK itself never installs an
//! allocator) counts heap allocations through its own global allocator.
//! One `#[test]`, so nothing else allocates while it measures.

// This crate denies `unsafe_code` (workspace lints); implementing
// `GlobalAlloc` is the one thing here that cannot be written without it.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, AtomicUsize, Ordering};

use everest_ekl::rrtmg::{major_absorber_program, RrtmgDims};
use everest_ir::dialects::core;
use everest_ir::module::Module;
use everest_ir::parse::parse_module;
use everest_ir::print::print_module;
use everest_ir::types::{MemorySpace, Type};

struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);
/// Bytes allocated and not yet freed.
static LIVE: AtomicIsize = AtomicIsize::new(0);

// SAFETY: every call forwards to `System` with the layout it was given;
// the counter is a statistic and publishes no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        // SAFETY: the caller's contract for `alloc` is `System`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc`
        // above with this layout.
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) };
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        LIVE.fetch_add(
            new_size as isize - layout.size() as isize,
            Ordering::Relaxed,
        );
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

/// Bytes `work` leaves allocated: what the value it returns holds.
fn live_bytes<T>(work: impl FnOnce() -> T) -> (isize, T) {
    let before = LIVE.load(Ordering::Relaxed);
    let result = work();
    (LIVE.load(Ordering::Relaxed) - before, result)
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
    let mut parse_counts = Vec::new();
    for statements in [64, 1024] {
        let module = kernel(statements);
        let (count, text) = allocations(|| print_module(&module));
        // One line an op, two more for each of the two regions, and the
        // module's own braces.
        assert_eq!(text.lines().count(), module.num_ops() + 6);
        counts.push(count);
        // Tokens are slices of the text and an op's operand types are
        // checked, not built: what parsing allocates is the module, its
        // attributes and the `%N` table, plus the doublings of a block's
        // op list, which a clone copies at its length but the parser
        // cannot size without reading ahead. Clone makes 13 for either
        // size (88 and 1,048 when a constant's attribute, a memref type
        // and a loop's lists were heap blocks of their own), parse 30
        // and 34 (105 and 1,073).
        let (cloned, _) = allocations(|| module.clone());
        let (parsed, module) = allocations(|| parse_module(&text));
        let ops = module.as_ref().map_or(0, Module::num_ops);
        assert_eq!(print_module(&module.expect("printed text parses")), text);
        let doublings = (usize::BITS - ops.leading_zeros()) as usize;
        assert!(
            parsed <= 2 * cloned + doublings,
            "{statements} statements: parse made {parsed} allocations, clone {cloned}"
        );
        parse_counts.push(parsed);
    }
    // Nothing per op: sixteen times the ops doubles the one list that
    // grows with them four times more (34 against 30).
    assert!(
        parse_counts[1] <= parse_counts[0] + 6,
        "parse allocations for 64 and 1024 statements: {parse_counts:?}"
    );
    // The value-number table and the output buffer, which is sized from
    // the op count and so grows a step or two at most (four in all here);
    // sixteen times the ops may cost one doubling more, not 960 x 2.3.
    assert!(
        counts[0] <= 6 && counts[1] <= counts[0] + 1,
        "allocations for 64 and 1024 statements: {counts:?}"
    );

    // RRTMG lowered: 78 ops in 17,524 bytes, 225 an op. An op is 128
    // bytes and a value 16, types are uniqued, a constant's attribute
    // and a loop's lists are held in place, and the arenas are reserved
    // for the ops outside the loop nests too. Where a value held a
    // 48-byte type, a constant a 72-byte attribute block, and 78 ops
    // outgrew a reservation of 72 to 144 slots: 29,160 bytes, 373 an
    // op. The printed text is 6,705 bytes, 86 an op: the module is
    // 2.6x its text.
    let program = major_absorber_program(RrtmgDims::default());
    let (bytes, module) = live_bytes(|| everest_ekl::lower::lower_to_loops(&program));
    let module = module.expect("RRTMG lowers");
    let ops = module.num_ops() as isize;
    let text = print_module(&module).len() as isize;
    assert_eq!(ops, 78);
    assert!(
        bytes * 10 <= ops * 225 * 11,
        "RRTMG lowered holds {bytes} bytes for {ops} ops and {text} bytes of text"
    );
}
