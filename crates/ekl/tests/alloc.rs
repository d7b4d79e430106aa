//! What `Plan::run` allocates is a function of the program's `let`s,
//! not of how many elements or instructions they have: the result
//! tensors and one scratch frame, nothing per element or per node.
//!
//! This test binary (and no other: the SDK itself never installs an
//! allocator) counts heap allocations through its own global allocator.
//! One `#[test]`, so nothing else allocates while it measures.

// This crate denies `unsafe_code` (workspace lints); implementing
// `GlobalAlloc` is the one thing here that cannot be written without it.
#![allow(unsafe_code)]

mod reference;

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use everest_ekl::interp::{Plan, Tensor};
use everest_ekl::rrtmg::{input_map, major_absorber_program, synthetic_inputs, RrtmgDims};

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

#[test]
fn run_allocates_per_let_and_the_tree_walker_per_element() {
    let mut plan_counts = Vec::new();
    let mut reference_counts = Vec::new();
    for nlay in [16, 64] {
        let dims = RrtmgDims {
            nlay,
            ngpt: 4,
            ntemp: 6,
            npres: 12,
            neta: 5,
            nflav: 2,
        };
        let program = major_absorber_program(dims);
        let tables = synthetic_inputs(dims);
        let named = input_map(&tables);
        let borrowed: Vec<&Tensor> = program.inputs.iter().map(|name| &named[name]).collect();
        let plan = Plan::bind(&program).expect("binds");

        let (count, outputs) = allocations(|| plan.run(&borrowed).expect("runs"));
        let (reference_count, reference) =
            allocations(|| reference::evaluate(&program, &named).expect("evaluates"));
        assert_eq!(outputs.len(), program.lets.len());
        for (stmt, tensor) in program.lets.iter().zip(&outputs) {
            assert_eq!(*tensor, reference[&stmt.name], "{}", stmt.name);
        }
        plan_counts.push(count);
        reference_counts.push(reference_count);
    }
    // Three lets of rank one or two: a shape and a data vector each, the
    // vector that holds them, and the frame's three (registers, loop
    // slots, memo cells).
    let lets = 3;
    assert_eq!(plan_counts, [2 * lets + 4, 2 * lets + 4]);
    // The tree-walker: a subscript vector per load and a `String` per
    // index per iteration, so four times the layers is four times the
    // allocations.
    assert!(
        reference_counts[0] > 1_000 && reference_counts[1] > 3 * reference_counts[0],
        "{reference_counts:?}"
    );
}
