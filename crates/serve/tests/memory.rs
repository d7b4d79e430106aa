//! The engine's memory is what is in flight: a campaign four times as
//! long must not need more memory to *run*, only a longer outcome.
//!
//! This test binary (and no other: the SDK itself never installs an
//! allocator) counts live heap bytes through its own global allocator.
//! One `#[test]`, so nothing else allocates while it measures.

// This crate denies `unsafe_code` (workspace lints); implementing
// `GlobalAlloc` is the one thing here that cannot be written without it.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use everest_serve::{BatchRecord, ServeConfig, ServeEngine, ServeOutcome, TenantOutcome};

struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(by: usize) {
    let live = LIVE.fetch_add(by, Ordering::Relaxed) + by;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every call forwards to `System` with the layout it was given;
// the counters are statistics and publish no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's contract for `alloc` is `System`'s.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc`
        // above with this layout.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as for `dealloc`; `new_size` is the caller's to vouch for.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
            }
        }
        new
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Heap bytes the returned outcome holds: the part of the peak that is
/// the campaign's result, not the engine's working set.
fn outcome_bytes(outcome: &ServeOutcome) -> usize {
    outcome.batches.capacity() * size_of::<BatchRecord>()
        + outcome.latencies_us.capacity() * size_of::<f64>()
        + outcome.tenants.capacity() * size_of::<TenantOutcome>()
        + outcome.final_max_batch.capacity() * size_of::<usize>()
}

/// Peak live bytes during one `ServeEngine::run`, over what was live
/// before it, minus what the outcome keeps.
fn engine_private_peak(load: f64, horizon_us: f64) -> (usize, u64) {
    let engine = ServeEngine::new(ServeConfig {
        offered_rps: 10_000.0 * load,
        horizon_us,
        ..ServeConfig::default()
    });
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let outcome = engine.run();
    let peak = PEAK.load(Ordering::Relaxed) - before;
    assert!(outcome.conserved());
    (
        peak.saturating_sub(outcome_bytes(&outcome)),
        outcome.offered,
    )
}

#[test]
fn engine_memory_does_not_grow_with_the_horizon() {
    const HORIZON_US: f64 = 250_000.0;
    // The default cluster's nominal capacity is 10 k rps: 4.0 is the
    // door-bound regime (most arrivals shed), 0.8 the one where every
    // request crosses every queue.
    for load in [4.0, 0.8] {
        let (short, offered_short) = engine_private_peak(load, HORIZON_US);
        let (long, offered_long) = engine_private_peak(load, 4.0 * HORIZON_US);
        assert!(
            offered_long > 3 * offered_short,
            "the long campaign is about four times the work: {offered_short} vs {offered_long}"
        );
        // Slack. The outcome's vectors are subtracted at their final
        // capacity, so `Vec` doubling in them cancels out; what is left
        // is the engine's bounded state — fair queues up to the depth
        // limit, monitor windows, tuner tables, a few event strings —
        // whose size depends on where in those windows a campaign
        // happens to stop. A quarter over the short campaign plus
        // 16 KiB covers that. A stored trace costs 40 B an arrival and
        // a by-batch-id table 200 B a batch, hundreds of KiB at these
        // sizes: the commit before the stream measured 887 KB at H and
        // 3.0 MB at 4H under load 4.0 (294 KB and 1.06 MB under 0.8),
        // this one 50 KB (40 KB) at either horizon.
        let allowed = short + short / 4 + 16 * 1024;
        assert!(
            long <= allowed,
            "load {load}: engine-private peak {short} B at H, {long} B at 4H (allowed {allowed})"
        );
        println!("load {load}: engine-private peak {short} B at H, {long} B at 4H");
    }
}
