//! Export sinks: human text tree and Chrome `trace_event` JSON.
//!
//! Both serialize snapshots of a [`Registry`], so concurrent
//! recording never tears an individual record in the export. The
//! Chrome trace is a `serde::Value` tree printed compact by the
//! workspace's one JSON writer, `serde_json`: times are microseconds to
//! three decimals with trailing zeros trimmed (sub-nanosecond for µs
//! stamps), and a non-finite number prints as `0`, since JSON has no
//! NaN or Infinity.
//!
//! The formats are part of the observability contract documented in
//! `docs/OBSERVABILITY.md`.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use serde::Value;
use serde_json::{int, trimmed};

use crate::registry::{ArgValue, EventRecord, Registry, SpanRecord};

/// A span's args as one JSON object, in key order.
fn args(args: &BTreeMap<String, ArgValue>) -> Value {
    let value = |arg: &ArgValue| match arg {
        ArgValue::U64(v) => int(*v),
        ArgValue::F64(v) => trimmed(*v),
        ArgValue::Str(v) => Value::Str(v.clone()),
        ArgValue::Bool(v) => Value::Bool(*v),
    };
    Value::Object(args.iter().map(|(k, v)| (k.clone(), value(v))).collect())
}

/// One `trace_event`: `name`, `cat` and `ph`, then `rest` in order.
fn event(name: &str, cat: &str, ph: &str, rest: Vec<(&str, Value)>) -> Value {
    let head = [("name", name), ("cat", cat), ("ph", ph)].map(|(k, v)| (k, Value::Str(v.into())));
    let fields = head.into_iter().chain(rest);
    Value::Object(fields.map(|(k, v)| (k.into(), v)).collect())
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
        let mut events = Vec::new();
        let mut max_ts = 0.0f64;
        for s in self.spans() {
            let end = s.end_us.unwrap_or(now);
            max_ts = max_ts.max(end);
            events.push(event(
                &s.name,
                "span",
                "X",
                vec![
                    ("pid", int(1)),
                    ("tid", int(s.tid)),
                    ("ts", trimmed(s.start_us)),
                    ("dur", trimmed(end - s.start_us)),
                    ("args", args(&s.args)),
                ],
            ));
        }
        for e in self.events() {
            max_ts = max_ts.max(e.ts_us);
            let detail = Value::Object(vec![("detail".into(), Value::Str(e.detail))]);
            events.push(event(
                &e.name,
                "event",
                "i",
                vec![
                    ("s", Value::Str("t".into())),
                    ("pid", int(1)),
                    ("tid", int(e.tid)),
                    ("ts", trimmed(e.ts_us)),
                    ("args", detail),
                ],
            ));
        }
        // Counters, then gauges: one sample each, at the last timestamp.
        let counters = self.counters_snapshot().into_iter();
        let gauges = self.gauges_snapshot().into_iter();
        let counters = counters.map(|(name, v)| (name, "counter", int(v)));
        let gauges = gauges.map(|(name, v)| (name, "gauge", trimmed(v)));
        for (name, cat, value) in counters.chain(gauges) {
            let args = Value::Object(vec![("value".into(), value)]);
            let at = [
                ("pid", int(1)),
                ("tid", int(0)),
                ("ts", trimmed(max_ts)),
                ("args", args),
            ];
            events.push(event(&name, cat, "C", at.into()));
        }
        let trace = Value::Object(vec![
            ("displayTimeUnit".into(), Value::Str("ms".into())),
            ("traceEvents".into(), Value::Array(events)),
        ]);
        serde_json::to_string(&trace).expect("a Value tree always serializes")
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
        let r = Registry::new();
        let gauges = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1.25, 3.0, -0.5];
        for (i, value) in gauges.into_iter().enumerate() {
            r.gauge_set(&format!("g{i}"), value);
        }
        let trace = r.to_chrome_trace();
        let values: Vec<&str> = trace
            .split("\"value\":")
            .skip(1)
            .map(|rest| &rest[..rest.find('}').expect("the args object closes")])
            .collect();
        assert_eq!(values, ["0", "0", "0", "1.25", "3", "-0.5"]);
    }

    /// Only counters and gauges, so every sample sits at `ts` 0.
    #[test]
    fn counter_and_gauge_samples_are_pinned() {
        let r = Registry::new();
        r.counter_add("bytes \"in\"", u64::MAX);
        r.gauge_set("depth", f64::NAN);
        r.gauge_set("util", 0.25);
        assert_eq!(
            r.to_chrome_trace(),
            concat!(
                r#"{"displayTimeUnit":"ms","traceEvents":["#,
                r#"{"name":"bytes \"in\"","cat":"counter","ph":"C","pid":1,"tid":0,"ts":0,"#,
                r#""args":{"value":18446744073709551615}},"#,
                r#"{"name":"depth","cat":"gauge","ph":"C","pid":1,"tid":0,"ts":0,"#,
                r#""args":{"value":0}},"#,
                r#"{"name":"util","cat":"gauge","ph":"C","pid":1,"tid":0,"ts":0,"#,
                r#""args":{"value":0.25}}]}"#,
            )
        );
    }
}
