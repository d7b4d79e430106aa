//! The Chrome `trace_event` sink emits real JSON: it must parse back
//! through `serde_json` into a typed document and survive a
//! serialize → parse → serialize round trip unchanged.

use serde::{Deserialize, Serialize};

use everest_telemetry::Registry;

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[allow(non_snake_case)]
struct ChromeTrace {
    displayTimeUnit: String,
    traceEvents: Vec<TraceEvent>,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct TraceEvent {
    name: String,
    cat: String,
    ph: String,
    pid: u64,
    tid: u64,
    ts: f64,
    /// Present only on `"ph":"X"` (complete) events.
    dur: Option<f64>,
    /// Present only on `"ph":"i"` (instant) events.
    s: Option<String>,
}

fn populated_registry() -> std::sync::Arc<Registry> {
    let r = Registry::new();
    {
        let compile = r.span("demo.compile");
        compile.record_cycles(4_096);
        compile.arg("target", "alveo \"u55c\"");
        let _hls = r.span("demo.hls");
        r.histogram_record("demo.latency_us", 17.25);
    }
    r.event("demo.hotplug", "vf=1 vm=0\nline two");
    r.counter_add("demo.bytes", 1 << 20);
    r.gauge_set("demo.depth", 2.5);
    r
}

#[test]
fn chrome_trace_round_trips_through_serde_json() {
    let registry = populated_registry();
    let emitted = registry.to_chrome_trace();

    let parsed: ChromeTrace = serde_json::from_str(&emitted).expect("sink emits valid JSON");
    assert_eq!(parsed.displayTimeUnit, "ms");
    // 2 spans (X) + 1 instant (i) + 1 counter (C) + 1 gauge (C).
    assert_eq!(parsed.traceEvents.len(), 5);

    let spans: Vec<&TraceEvent> = parsed.traceEvents.iter().filter(|e| e.ph == "X").collect();
    assert_eq!(spans.len(), 2);
    for span in &spans {
        assert!(span.dur.expect("complete events carry dur") >= 0.0);
        assert_eq!(span.cat, "span");
    }
    assert!(spans.iter().any(|s| s.name == "demo.compile"));

    let instants: Vec<&TraceEvent> = parsed.traceEvents.iter().filter(|e| e.ph == "i").collect();
    assert_eq!(instants.len(), 1);
    assert_eq!(instants[0].s.as_deref(), Some("t"));

    assert_eq!(parsed.traceEvents.iter().filter(|e| e.ph == "C").count(), 2);

    // Full round trip: reserialize the typed document and parse again.
    let reserialized = serde_json::to_string(&parsed).expect("serializes");
    let reparsed: ChromeTrace = serde_json::from_str(&reserialized).expect("round trips");
    assert_eq!(parsed, reparsed);
}

#[test]
fn span_names_in_trace_match_registry() {
    let registry = populated_registry();
    let parsed: ChromeTrace =
        serde_json::from_str(&registry.to_chrome_trace()).expect("valid JSON");
    let mut trace_names: Vec<String> = parsed
        .traceEvents
        .iter()
        .filter(|e| e.ph == "X")
        .map(|e| e.name.clone())
        .collect();
    trace_names.sort();
    let mut span_names: Vec<String> = registry.spans().into_iter().map(|s| s.name).collect();
    span_names.sort();
    assert_eq!(trace_names, span_names);
}
