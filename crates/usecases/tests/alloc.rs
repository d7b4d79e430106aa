//! What a warm `WeatherModel::step` allocates does not grow with the
//! grid: the two advection copies, the heating field and, under the EKL
//! scheme, the kernel's inputs, outputs and frame. Neighbour indices
//! are computed where they are read, never kept in per-step tables.
//!
//! This test binary (and no other: the SDK itself never installs an
//! allocator) counts heap allocations through its own global allocator.
//! One `#[test]`, so nothing else allocates while it measures.

// This crate denies `unsafe_code` (workspace lints); implementing
// `GlobalAlloc` is the one thing here that cannot be written without it.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use everest_usecases::weather::{ModelConfig, RadiationScheme, WeatherModel};

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
fn a_warm_step_allocates_per_field_not_per_cell() {
    let mut counts = Vec::new();
    for radiation in [RadiationScheme::Ekl, RadiationScheme::Parameterized] {
        for (nx, ny) in [(24, 16), (48, 32)] {
            let model = WeatherModel::new(ModelConfig {
                nx,
                ny,
                radiation,
                ..ModelConfig::default()
            });
            let mut state = model.initial_condition(42);
            // The first step binds the kernel for this layer count.
            model.step(&mut state);
            let (count, _) = allocations(|| model.step(&mut state));
            counts.push(count);
        }
    }
    // Measured before neighbour reads went direct, and the bound: 21 per
    // EKL step and 3 per parameterized step, at both grid sizes. The
    // EKL step's are the two advection copies, the two layer-mean
    // vectors, `press`'s shape, `r_mix`'s clone (two), the sorted
    // pressures, `press_trop`'s value, the kernel's three `let`s (six),
    // its result vector and three frame vectors, the absorption profile
    // and the heating field; the parameterized step's are the two copies
    // and the heating field.
    let bound = [21, 21, 3, 3];
    assert!(
        counts
            .iter()
            .zip(bound)
            .all(|(&count, limit)| count <= limit),
        "EKL 24x16, 48x32, parameterized 24x16, 48x32: {counts:?} > {bound:?}"
    );
    assert!(
        counts[0] == counts[1] && counts[2] == counts[3],
        "{counts:?}"
    );
}
