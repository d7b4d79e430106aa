//! # everest-telemetry
//!
//! The observability backbone of the EVEREST SDK reproduction: one
//! thread-safe [`Registry`] of **spans**, **metrics**
//! and **events** shared by every layer of the stack, so a single
//! compile → deploy → execute flow can be inspected end to end.
//!
//! The paper's runtime layer (§VI: HEFT scheduling, SR-IOV
//! virtualization, mARGOt autotuning) makes all of its decisions from
//! *monitored* quantities; this crate gives those quantities one
//! interoperable surface instead of per-component private counters.
//!
//! ## Model
//!
//! * **Spans** ([`Registry::span`]) — a monotonic tree of timed
//!   regions. Each span records wall-clock start/end (µs since the
//!   registry's epoch), the recording thread, its parent (the
//!   innermost span open on the same thread *and the same registry*),
//!   and typed key/value arguments — including simulated durations
//!   such as HLS cycle counts ([`SpanGuard::record_cycles`]).
//! * **Metrics** — monotonic `u64` counters
//!   ([`Registry::counter_add`]), last-value `f64` gauges
//!   ([`Registry::gauge_set`]), log-bucketed histograms
//!   ([`Registry::histogram_record`]), and sliding-window [`Monitor`]s
//!   ([`Registry::observe`]) — the mARGOt-style windowed statistics
//!   the autotuner corrects its expectations with.
//! * **Events** ([`Registry::event`]) — a bounded ring buffer of
//!   timestamped point occurrences (VM boots, VF hot-plugs, operating
//!   point switches).
//!
//! ## Sinks
//!
//! Two export formats, both derivable from any registry at any time:
//!
//! * [`Registry::to_text`] — human-readable span tree plus metric
//!   tables;
//! * [`Registry::to_chrome_trace`] — Chrome `trace_event` JSON, loadable
//!   in `chrome://tracing` or [Perfetto](https://ui.perfetto.dev) for
//!   flamegraph viewing (surfaced as `basecamp ... --trace out.json`).
//!
//! The stable span/metric/event name catalogue — the contract every
//! sink consumer can rely on — is documented in `docs/OBSERVABILITY.md`
//! at the repository root and enforced by an integration test.
//!
//! ## Global registry
//!
//! Instrumented components default to the process-wide registry
//! ([`Registry::global`]); free functions ([`span`], [`counter_add`],
//! [`event`], ...) are shorthands for it. Components that accept an
//! injected `Arc<Registry>` (e.g. `Basecamp::with_telemetry`) record
//! their own spans there instead, which keeps unit tests isolated.
//!
//! # Examples
//!
//! ```
//! use everest_telemetry::Registry;
//!
//! let registry = Registry::new();
//! {
//!     let compile = registry.span("demo.compile");
//!     compile.record_cycles(1_024);
//!     let _inner = registry.span("demo.schedule");
//!     registry.counter_add("demo.kernels", 1);
//! } // guards drop: spans end
//! let spans = registry.spans();
//! assert_eq!(spans.len(), 2);
//! assert_eq!(spans[1].parent, Some(spans[0].id));
//! assert!(registry.to_chrome_trace().contains("\"traceEvents\""));
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod monitor;
pub mod registry;
pub(crate) mod sinks;

pub use monitor::Monitor;
pub use registry::{
    ArgValue, CounterHandle, EventRecord, GaugeHandle, HistogramHandle, HistogramSnapshot,
    MonitorHandle, Registry, SpanGuard, SpanRecord,
};

use std::sync::Arc;

/// Opens a span on the [global registry](Registry::global).
///
/// The span ends when the returned guard drops.
pub fn span(name: impl Into<std::borrow::Cow<'static, str>>) -> SpanGuard {
    Registry::global_ref().span(name)
}

/// Increments a monotonic counter on the global registry.
pub fn counter_add(name: &str, delta: u64) {
    Registry::global_ref().counter_add(name, delta);
}

/// Sets a gauge on the global registry.
pub fn gauge_set(name: &str, value: f64) {
    Registry::global_ref().gauge_set(name, value);
}

/// Records a histogram observation on the global registry.
pub fn histogram_record(name: &str, value: f64) {
    Registry::global_ref().histogram_record(name, value);
}

/// Feeds a sliding-window monitor on the global registry.
pub fn observe(name: &str, value: f64) {
    Registry::global_ref().observe(name, value);
}

/// Appends an event to the global registry's ring buffer.
pub fn event(name: &str, detail: impl Into<String>) {
    Registry::global_ref().event(name, detail);
}

/// A clone of the global registry handle, for components that hold an
/// `Arc<Registry>` field defaulting to the process-wide instance.
pub fn global() -> Arc<Registry> {
    Registry::global()
}
