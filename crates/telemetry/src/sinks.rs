//! Export sinks: human text tree and Chrome `trace_event` JSON.
//!
//! Both serialize snapshots of a [`Registry`], so concurrent
//! recording never tears an individual record in the export. JSON
//! is emitted with a small built-in writer (escaped strings, finite
//! numbers only) to keep this crate dependency-free; the Chrome trace
//! output is verified to round-trip through `serde_json` in tests.
//!
//! The formats are part of the observability contract documented in
//! `docs/OBSERVABILITY.md`.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::registry::{ArgValue, EventRecord, Registry, SpanRecord};

/// Escapes `s` as JSON string contents (without surrounding quotes).
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Formats a finite JSON number; non-finite values become 0 (JSON has
/// no NaN/Infinity).
fn json_f64(v: f64) -> String {
    if !v.is_finite() {
        return "0".to_string();
    }
    // Trim the noise: three decimals is sub-nanosecond for µs stamps.
    let s = format!("{v:.3}");
    let s = s.trim_end_matches('0').trim_end_matches('.');
    if s.is_empty() || s == "-" {
        "0".to_string()
    } else {
        s.to_string()
    }
}

fn json_arg(value: &ArgValue) -> String {
    match value {
        ArgValue::U64(v) => v.to_string(),
        ArgValue::F64(v) => json_f64(*v),
        ArgValue::Str(v) => format!("\"{}\"", json_escape(v)),
        ArgValue::Bool(v) => v.to_string(),
    }
}

fn json_args(args: &BTreeMap<String, ArgValue>) -> String {
    let fields: Vec<String> = args
        .iter()
        .map(|(k, v)| format!("\"{}\":{}", json_escape(k), json_arg(v)))
        .collect();
    format!("{{{}}}", fields.join(","))
}

impl Registry {
    /// Renders the registry as a human-readable report: the span tree
    /// (indented by nesting, one line per span with duration and args)
    /// followed by counters, gauges, histograms, monitors and the
    /// event tail.
    pub fn to_text(&self) -> String {
        let spans = self.spans();
        let counters = self.counters_snapshot();
        let gauges = self.gauges_snapshot();
        let monitors: Vec<(String, crate::monitor::Monitor)> = self
            .monitor_names()
            .into_iter()
            .filter_map(|name| self.monitor(&name).map(|m| (name, m)))
            .collect();
        let events: Vec<EventRecord> = self.events();

        let mut out = String::new();
        out.push_str("spans:\n");
        let mut children: BTreeMap<Option<u32>, Vec<&SpanRecord>> = BTreeMap::new();
        for s in &spans {
            children.entry(s.parent).or_default().push(s);
        }
        fn emit(
            out: &mut String,
            children: &BTreeMap<Option<u32>, Vec<&SpanRecord>>,
            parent: Option<u32>,
            depth: usize,
        ) {
            let Some(list) = children.get(&parent) else {
                return;
            };
            for s in list {
                let dur = s
                    .duration_us()
                    .map(|d| format!("{d:.1} us"))
                    .unwrap_or_else(|| "open".to_string());
                let args = if s.args.is_empty() {
                    String::new()
                } else {
                    let rendered: Vec<String> =
                        s.args.iter().map(|(k, v)| format!("{k}={v}")).collect();
                    format!("  [{}]", rendered.join(" "))
                };
                let _ = writeln!(
                    out,
                    "{:indent$}{} ({}){}",
                    "",
                    s.name,
                    dur,
                    args,
                    indent = depth * 2
                );
                emit(out, children, Some(s.id), depth + 1);
            }
        }
        emit(&mut out, &children, None, 1);

        if !counters.is_empty() {
            out.push_str("counters:\n");
            for (name, value) in &counters {
                let _ = writeln!(out, "  {name} = {value}");
            }
        }
        if !gauges.is_empty() {
            out.push_str("gauges:\n");
            for (name, value) in &gauges {
                let _ = writeln!(out, "  {name} = {value}");
            }
        }
        let histograms: Vec<String> = self.histogram_names();
        if !histograms.is_empty() {
            out.push_str("histograms:\n");
            for name in &histograms {
                if let Some(h) = self.histogram(name) {
                    let _ = writeln!(
                        out,
                        "  {name}: n={} mean={:.2} p50={:.2} p95={:.2} p99={:.2} min={:.2} max={:.2}",
                        h.count,
                        h.mean().unwrap_or(0.0),
                        h.p50().unwrap_or(0.0),
                        h.p95().unwrap_or(0.0),
                        h.p99().unwrap_or(0.0),
                        h.min,
                        h.max
                    );
                }
            }
        }
        if !monitors.is_empty() {
            out.push_str("monitors:\n");
            for (name, m) in &monitors {
                let _ = writeln!(
                    out,
                    "  {name}: n={} mean={:.2} last={:.2}",
                    m.count(),
                    m.mean().unwrap_or(0.0),
                    m.last().unwrap_or(0.0)
                );
            }
        }
        if !events.is_empty() {
            out.push_str("events:\n");
            for e in &events {
                let _ = writeln!(out, "  {:>12.1} us  {}  {}", e.ts_us, e.name, e.detail);
            }
        }
        out
    }

    /// Renders the registry as Chrome `trace_event` JSON: complete
    /// (`"ph":"X"`) events for spans (open spans are closed at the
    /// export timestamp), instant (`"ph":"i"`) events for ring events,
    /// and counter (`"ph":"C"`) samples with the final counter and
    /// gauge values. Load the output in `chrome://tracing` or
    /// <https://ui.perfetto.dev>.
    pub fn to_chrome_trace(&self) -> String {
        let now = self.now_us();
        let mut events: Vec<String> = Vec::new();
        let mut max_ts = 0.0f64;
        for s in self.spans() {
            let end = s.end_us.unwrap_or(now);
            max_ts = max_ts.max(end);
            events.push(format!(
                "{{\"name\":\"{}\",\"cat\":\"span\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{},\"dur\":{},\"args\":{}}}",
                json_escape(&s.name),
                s.tid,
                json_f64(s.start_us),
                json_f64(end - s.start_us),
                json_args(&s.args),
            ));
        }
        for e in self.events() {
            max_ts = max_ts.max(e.ts_us);
            events.push(format!(
                "{{\"name\":\"{}\",\"cat\":\"event\",\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":{},\"ts\":{},\"args\":{{\"detail\":\"{}\"}}}}",
                json_escape(&e.name),
                e.tid,
                json_f64(e.ts_us),
                json_escape(&e.detail),
            ));
        }
        for name in self.counter_names() {
            events.push(format!(
                "{{\"name\":\"{}\",\"cat\":\"counter\",\"ph\":\"C\",\"pid\":1,\"tid\":0,\"ts\":{},\"args\":{{\"value\":{}}}}}",
                json_escape(&name),
                json_f64(max_ts),
                self.counter(&name),
            ));
        }
        for name in self.gauge_names() {
            events.push(format!(
                "{{\"name\":\"{}\",\"cat\":\"gauge\",\"ph\":\"C\",\"pid\":1,\"tid\":0,\"ts\":{},\"args\":{{\"value\":{}}}}}",
                json_escape(&name),
                json_f64(max_ts),
                json_f64(self.gauge(&name).unwrap_or(0.0)),
            ));
        }
        format!(
            "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[{}]}}",
            events.join(",")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_tree_shows_nesting_and_metrics() {
        let r = Registry::new();
        {
            let outer = r.span("compile");
            outer.record_cycles(42);
            let _inner = r.span("schedule");
        }
        r.counter_add("kernels", 1);
        r.gauge_set("util", 0.5);
        r.histogram_record("lat", 10.0);
        r.observe("mon", 2.0);
        r.event("boot", "vm0");
        let text = r.to_text();
        assert!(text.contains("  compile"));
        assert!(text.contains("    schedule"), "nesting indents: {text}");
        assert!(text.contains("cycles=42"));
        assert!(text.contains("kernels = 1"));
        assert!(text.contains("util = 0.5"));
        assert!(text.contains("lat: n=1"));
        assert!(text.contains("mon: n=1"));
        assert!(text.contains("boot"));
    }

    #[test]
    fn chrome_trace_has_expected_phases() {
        let r = Registry::new();
        {
            let _s = r.span("stage");
        }
        r.event("tick", "");
        r.counter_add("bytes", 1024);
        r.gauge_set("depth", 3.0);
        let trace = r.to_chrome_trace();
        assert!(trace.contains("\"traceEvents\""));
        assert!(trace.contains("\"ph\":\"X\""));
        assert!(trace.contains("\"ph\":\"i\""));
        assert!(trace.contains("\"ph\":\"C\""));
        assert!(trace.contains("\"name\":\"stage\""));
    }

    #[test]
    fn open_spans_are_closed_at_export() {
        let r = Registry::new();
        let _open = r.span("still-running");
        let trace = r.to_chrome_trace();
        assert!(trace.contains("still-running"));
        // "dur" must be present and non-negative even for open spans.
        assert!(trace.contains("\"dur\":"));
    }

    #[test]
    fn non_finite_numbers_never_reach_json() {
        assert_eq!(json_f64(f64::NAN), "0");
        assert_eq!(json_f64(f64::INFINITY), "0");
        assert_eq!(json_f64(1.25), "1.25");
        assert_eq!(json_f64(3.0), "3");
        assert_eq!(json_f64(-0.5), "-0.5");
    }
}
