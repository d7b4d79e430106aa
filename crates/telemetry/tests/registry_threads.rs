//! Concurrency coverage for the shared registry: spans, counters and
//! events recorded from many threads at once must never be lost, torn,
//! or cross-parented between threads.

use std::sync::Arc;

use everest_telemetry::Registry;

const THREADS: usize = 8;
const SPANS_PER_THREAD: usize = 64;

#[test]
fn concurrent_span_creation_is_race_free() {
    let registry = Registry::new();
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let registry: &Arc<Registry> = &registry;
            scope.spawn(move || {
                for i in 0..SPANS_PER_THREAD {
                    let outer = registry.span(format!("worker{t}.outer"));
                    outer.arg("iteration", i);
                    let _inner = registry.span(format!("worker{t}.inner"));
                    registry.counter_add("work.items", 1);
                }
            });
        }
    });

    let spans = registry.spans();
    assert_eq!(spans.len(), THREADS * SPANS_PER_THREAD * 2);
    assert_eq!(
        registry.counter("work.items"),
        (THREADS * SPANS_PER_THREAD) as u64
    );
    // Every span closed, ids unique and dense.
    let mut seen = vec![false; spans.len()];
    for s in &spans {
        assert!(s.end_us.is_some(), "span {} left open", s.name);
        assert!(!seen[s.id as usize], "duplicate span id {}", s.id);
        seen[s.id as usize] = true;
    }
    // Parenthood never crosses threads: each inner span's parent is an
    // outer span recorded by the same worker on the same thread.
    for s in spans.iter().filter(|s| s.name.ends_with(".inner")) {
        let parent = &spans[s.parent.expect("inner spans have parents") as usize];
        assert_eq!(parent.tid, s.tid, "parent on a different thread");
        assert_eq!(
            parent.name.trim_end_matches("outer"),
            s.name.trim_end_matches("inner"),
            "parent from a different worker"
        );
    }
}

#[test]
fn concurrent_metrics_accumulate_exactly() {
    let registry = Registry::new();
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            let registry: &Arc<Registry> = &registry;
            scope.spawn(move || {
                for i in 0..1000u64 {
                    registry.counter_add("hits", 1);
                    registry.histogram_record("latency", i as f64);
                    registry.observe("window", i as f64);
                }
            });
        }
    });
    assert_eq!(registry.counter("hits"), (THREADS * 1000) as u64);
    let h = registry.histogram("latency").expect("recorded");
    assert_eq!(h.count, (THREADS * 1000) as u64);
    assert_eq!(h.min, 0.0);
    assert_eq!(h.max, 999.0);
    let m = registry.monitor("window").expect("recorded");
    assert_eq!(m.count(), m.window().min(THREADS * 1000));
}

#[test]
fn concurrent_export_does_not_tear() {
    let registry = Registry::new();
    std::thread::scope(|scope| {
        {
            let registry: &Arc<Registry> = &registry;
            scope.spawn(move || {
                for i in 0..200 {
                    let _s = registry.span("writer.span");
                    registry.event("writer.event", format!("{i}"));
                }
            });
        }
        {
            let registry: &Arc<Registry> = &registry;
            scope.spawn(move || {
                for _ in 0..50 {
                    // An export taken mid-write must be one whole
                    // JSON document.
                    let trace = registry.to_chrome_trace();
                    assert!(
                        trace.starts_with('{') && trace.ends_with('}'),
                        "torn: {trace}"
                    );
                }
            });
        }
    });
}
