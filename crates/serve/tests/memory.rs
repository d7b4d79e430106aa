//! The engine's memory is what is in flight: a campaign four times as
//! long must not need more memory to *run*, only a longer outcome; and
//! once warm, its per-batch completion path (health monitor included)
//! and its arrival stream allocate nothing.
//!
//! This test binary (and no other: the SDK itself never installs an
//! allocator) counts live heap bytes and allocations through its own
//! global allocator. Its tests take one lock, so nothing else allocates
//! while one of them measures.

// This crate denies `unsafe_code` (workspace lints); implementing
// `GlobalAlloc` is the one thing here that cannot be written without it.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use everest_health::{HealthConfig, HealthMonitor};
use everest_serve::{
    ArrivalStream, BatchRecord, ServeConfig, ServeEngine, ServeOutcome, TenantOutcome,
};
use everest_telemetry::Registry;

struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
thread_local! {
    /// This thread's allocations, and reallocations that grew a block:
    /// the test harness's own threads allocate while a test measures.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

/// Held by every test while it measures.
static MEASURING: Mutex<()> = Mutex::new(());

fn measuring() -> std::sync::MutexGuard<'static, ()> {
    MEASURING.lock().unwrap_or_else(|e| e.into_inner())
}

fn grew(by: usize) {
    // A const-initialised `Cell` has no destructor, so this never
    // fails; `try_with` only keeps the allocator panic-free.
    let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
    let live = LIVE.fetch_add(by, Ordering::Relaxed) + by;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

/// Allocations `f` makes on this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCATIONS.with(Cell::get);
    let value = f();
    (value, ALLOCATIONS.with(Cell::get) - before)
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
            if new_size > layout.size() {
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
    let _measuring = measuring();
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

#[test]
fn a_warm_health_monitor_allocates_nothing_per_sample() {
    let _measuring = measuring();
    let mut monitor = HealthMonitor::new(4, HealthConfig::default(), 42, Registry::new());
    // Healthy samples, exact and noisy: windows fill and wrap, the
    // detector refits, means and slopes are computed; nothing convicts.
    let feed = |monitor: &mut HealthMonitor, from: u32, to: u32| {
        for i in from..to {
            let at_us = 1_000.0 * f64::from(i);
            let node = (i % 4) as usize;
            let wiggle = 0.01 * f64::from(i % 5);
            let inflation = if i % 3 == 0 { 1.0 } else { 1.0 + wiggle };
            monitor.record_task(node, inflation, at_us);
            monitor.record_fpga(node, if i % 2 == 0 { 1.0 } else { 1.0 - wiggle }, at_us);
        }
    };
    feed(&mut monitor, 0, 400);
    let ((), allocations) = allocations(|| feed(&mut monitor, 400, 20_400));
    assert!(monitor.verdicts().is_empty(), "{:?}", monitor.verdicts());
    assert_eq!(
        allocations, 0,
        "40 000 warm samples allocated {allocations} times"
    );
}

#[test]
fn an_arrival_stream_allocates_its_lanes_once_and_nothing_per_arrival() {
    let _measuring = measuring();
    // The door-bound load: 40 k rps over 250 ms, about 10 000 arrivals,
    // so every lane refills its block dozens of times or more.
    let cfg = ServeConfig::default();
    let (mut stream, at_start) = allocations(|| {
        ArrivalStream::new(cfg.seed, &cfg.tenants, &cfg.classes, 250_000.0, 40_000.0)
    });
    assert_eq!(at_start, 2, "one lane vector and one head vector");
    let (arrivals, per_run) = allocations(|| stream.by_ref().count());
    assert!(arrivals > 8_000, "{arrivals} arrivals");
    assert_eq!(
        per_run, 0,
        "{arrivals} arrivals allocated {per_run} times after the start"
    );
}

/// Allocations of one nominal campaign (load 0.8: every request is
/// admitted, batched, dispatched and completed) and its batch count.
fn campaign_allocations(horizon_us: f64) -> (usize, usize) {
    let engine = ServeEngine::new(ServeConfig {
        offered_rps: 8_000.0,
        horizon_us,
        ..ServeConfig::default()
    });
    let (outcome, allocations) = allocations(|| engine.run());
    assert!(outcome.conserved());
    (allocations, outcome.batches.len())
}

#[test]
fn a_nominal_campaign_allocates_a_small_constant_per_batch() {
    let _measuring = measuring();
    // What a campaign costs beyond its set-up: the difference between
    // a long and a short one. Left at the margin are the outcome's own
    // vectors doubling a few more times, and the strings of the events
    // a retune that changes a batch ceiling records — a few dozen a
    // campaign, not one a batch. The request vectors, the health
    // monitor's rows and the tuner's keys that cost 3.6 allocations a
    // batch here before are gone.
    let (short, short_batches) = campaign_allocations(250_000.0);
    let (long, long_batches) = campaign_allocations(1_000_000.0);
    let per_batch = (long - short) as f64 / (long_batches - short_batches) as f64;
    println!(
        "{short} allocations for {short_batches} batches, {long} for {long_batches}: \
         {per_batch:.4} a batch at the margin"
    );
    assert!(
        per_batch <= 0.25,
        "{per_batch:.4} allocations a batch at the margin ({short} / {short_batches} batches, \
         {long} / {long_batches})"
    );
}
