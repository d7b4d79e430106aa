//! What `Analyzer::run` allocates follows what it finds, not what it
//! reads: the fixpoint analyses keep one CSR graph and one fact vector
//! per solve instead of a `Vec` per SSA value, and the interval facts
//! are solved once per run however many lints read them.
//!
//! This test binary (and no other: the SDK itself never installs an
//! allocator) counts heap allocations through its own global allocator.
//! One `#[test]`, so nothing else allocates while it measures.

// This crate denies `unsafe_code` (workspace lints); implementing
// `GlobalAlloc` is the one thing here that cannot be written without it.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use everest_analysis::escape::MemorySpaceEscape;
use everest_analysis::Analyzer;
use everest_ekl::{check::check, lower::lower_to_loops, parser::parse};
use everest_ir::module::Module;
use everest_ir::registry::Context;

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

/// A lowered EKL kernel of `statements` lets — elementwise, `select`
/// and `sum` in turn, each its own loop nest — as the compile corpus
/// generates them (the kernel `everest-hls`' allocation test uses).
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
fn analysis_allocates_per_finding_not_per_value() {
    let ctx = Context::with_all_dialects();
    let module = generated_kernel(64);
    let ops = module.num_ops();

    // 3.6 allocations an op with an adjacency list per value, a source
    // `Vec` per rule and the interval fixpoint solved twice.
    let analyzer = Analyzer::with_default_lints();
    let (count, report) = allocations(|| analyzer.run(&ctx, &module));
    assert!(!report.has_denials(), "{}", report.to_text());
    assert!(
        count <= 2 * ops,
        "{count} allocations for {ops} ops under the default lints"
    );

    // The escape analysis alone: edges, two CSR directions, the facts
    // and the op walk, whatever the module's size (1.5 an op before).
    let escape = Analyzer::new().with_lint(Box::new(MemorySpaceEscape));
    let (count, report) = allocations(|| escape.run(&ctx, &module));
    assert!(report.is_clean(), "{}", report.to_text());
    assert!(
        count * 10 <= 3 * ops,
        "{count} allocations for {ops} ops under memory-space-escape"
    );
}
