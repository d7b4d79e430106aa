//! What recording one span allocates.
//!
//! A compile pass records one `olympus.generate` span for every design
//! point Olympus evaluates — 10,752 of the 11,616 spans one pass over
//! the benchmark's 48 generated kernels records — so a span's cost is
//! what it allocates. On a warm registry (its span and arg vectors grown
//! once, this thread's span stack too) a span with two numeric args and
//! one `&str` arg, the shape of `olympus.generate`, allocates once: the
//! `String` its `&str` arg becomes. The store it replaced allocated 6
//! times for the same span (measured with this test against that
//! store): the name, three key strings, the string payload and a
//! `BTreeMap` leaf.
//!
//! This test binary (and no other: the SDK itself never installs an
//! allocator) counts heap allocations through its own global allocator.
//! One `#[test]`, so nothing else allocates while it measures.

// The crate denies `unsafe_code` (workspace lints); implementing
// `GlobalAlloc` is the one thing here that cannot be written without it.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use everest_telemetry::Registry;

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

/// Spans recorded per measurement: a kernel's sweep at the default
/// target evaluates 224 design points.
const SPANS: usize = 224;

/// Records `SPANS` spans of the `olympus.generate` shape under an open
/// parent and returns the allocations they made.
fn sweep(registry: &std::sync::Arc<Registry>, kernel: &str) -> usize {
    let _explore = registry.span("olympus.explore");
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for point in 0..SPANS {
        let span = registry.span("olympus.generate");
        span.arg("kernel", kernel)
            .arg("replication", (point % 8) as u64)
            .arg("lanes", (point / 8) as u64);
    }
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

#[test]
fn a_warm_span_allocates_only_its_string_payload() {
    let registry = Registry::new();
    let kernel = String::from("conv2d");
    // Cold: the span and arg vectors, the thread's stack and its id.
    sweep(&registry, &kernel);
    // Warm: a reset keeps every vector's capacity, as the benchmark's
    // per-pass reset of the global registry does.
    registry.reset();
    let allocations = sweep(&registry, &kernel);
    let per_span = allocations as f64 / SPANS as f64;
    println!("{allocations} allocations over {SPANS} spans: {per_span:.2} a span");
    assert!(
        allocations <= SPANS,
        "{allocations} allocations over {SPANS} spans ({per_span:.2} a span): \
         a warm span may allocate only its string payload"
    );
    // Everything was recorded.
    let spans = registry.spans();
    assert_eq!(spans.len(), SPANS + 1);
    assert_eq!(spans[1].args.len(), 3);
    assert_eq!(spans[SPANS].parent, Some(0));
}
