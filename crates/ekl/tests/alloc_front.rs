//! What the front end allocates per lowered op: `parse` the AST and one
//! token vector, nothing per token; `lower_to_loops` what the ops it
//! builds own beyond their operands and results, into arenas it sized
//! before it started.
//!
//! This test binary (and no other: the SDK itself never installs an
//! allocator) counts heap allocations through its own global allocator.
//! One `#[test]`, so nothing else allocates while it measures.

// This crate denies `unsafe_code` (workspace lints); implementing
// `GlobalAlloc` is the one thing here that cannot be written without it.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};

use everest_ekl::check::check;
use everest_ekl::lower::lower_to_loops;
use everest_ekl::parser::parse;

struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);
/// Reallocations of a block already [`ARENA_BYTES`] long.
static ARENA_REGROWTHS: AtomicUsize = AtomicUsize::new(0);

/// Smaller than the smallest arena `Module::with_capacity` reserves for
/// the 64-statement kernels below (193 regions of 32 bytes), larger than
/// any other vector lowering grows (the entry block's op list, 2 KB).
const ARENA_BYTES: usize = 4096;

// SAFETY: every call forwards to `System` with the layout it was given;
// the counters are statistics and publish no other data.
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
        if layout.size() >= ARENA_BYTES {
            ARENA_REGROWTHS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: as for `dealloc`; `new_size` is the caller's to vouch for.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations and arena regrowths made while `work` runs.
fn allocations<T>(work: impl FnOnce() -> T) -> (usize, usize, T) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let regrown = ARENA_REGROWTHS.load(Ordering::Relaxed);
    let result = work();
    (
        ALLOCATIONS.load(Ordering::Relaxed) - before,
        ARENA_REGROWTHS.load(Ordering::Relaxed) - regrown,
        result,
    )
}

/// A straight-line kernel in the shapes the repository benchmark
/// generates — elementwise, `select`, `sum` — or, when `heavy`, of
/// statements several times the size the lowering's estimate assumes.
fn kernel_source(statements: usize, heavy: bool) -> String {
    let mut src = String::from(
        "kernel k {\n  index i : 0..16\n  index j : 0..4\n  \
         input a : [i]\n  input b : [i]\n  input m : [i, j]\n",
    );
    for k in 0..statements {
        let prev = match k {
            0 => "a[i]".to_string(),
            _ => format!("s{}[i]", k - 1),
        };
        let c = 0.1 + (k % 7) as f64 * 0.05;
        let _ = match (heavy, k % 4) {
            (true, _) => {
                let terms = vec![format!("{c:.3} * {prev} * b[i]"); 12].join(" + ");
                writeln!(src, "  let s{k}[i] = {terms}")
            }
            (_, 0 | 1) => writeln!(src, "  let s{k}[i] = {c:.3} * {prev} + 0.250 * b[i]"),
            (_, 2) => writeln!(
                src,
                "  let s{k}[i] = select({prev} <= {c:.3}, b[i], 0.300 * {prev})"
            ),
            _ => writeln!(
                src,
                "  let s{k}[i] = sum(j)(0.200 * m[i, j] * {prev}) + {c:.3} * a[i]"
            ),
        };
    }
    let _ = writeln!(src, "  output s{}\n}}", statements - 1);
    src
}

#[test]
fn parse_allocates_the_ast_and_lowering_sizes_its_arenas_once() {
    let source = kernel_source(64, false);
    let (parsing, _, kernel) = allocations(|| parse(&source));
    let kernel = kernel.expect("parses");
    let program = check(&kernel).expect("checks");
    let (lowering, regrown, module) = allocations(|| lower_to_loops(&program));
    let module = module.expect("lowers");
    let ops = module.num_ops();

    // A box or a name per AST node, a vector per subscript list and the
    // token vector's doublings: 1.0 a lowered op. The lexer that copied
    // the source into a `Vec<char>` and owned every word, and the
    // parser that cloned each token it consumed, made 2.5.
    assert!(
        parsing * 10 <= ops * 13,
        "{parsing} allocations to parse what lowers to {ops} ops"
    );
    // 64 statements at under 24 ops each: every arena was reserved
    // whole before the first op was built.
    assert!(ops <= 24 * program.lets.len(), "{ops} ops");
    assert_eq!(regrown, 0, "arena regrowths in lower_to_loops");
    // What is left an op is its attribute vector (a constant's value),
    // a region list (a loop's), a block's lists and the types that own
    // memory (a memref's shape): 1.66 an op. Operands, results and the
    // builder's result types were three `Vec`s more: 3.48 on the
    // benchmark's corpus.
    assert!(
        lowering * 10 <= ops * 20,
        "{lowering} allocations to lower to {ops} ops"
    );

    // The hint is a reservation, not a limit: statements three times as
    // heavy still lower, by doubling the arenas as any vector grows.
    let heavy = check(&parse(&kernel_source(64, true)).expect("parses")).expect("checks");
    let (_, regrown, module) = allocations(|| lower_to_loops(&heavy));
    let module = module.expect("lowers");
    assert!(module.num_ops() > 2 * 24 * heavy.lets.len());
    assert!(regrown > 0, "the detector saw no arena grow");
}
