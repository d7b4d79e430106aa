//! Span recording for the traced run.
//!
//! Spans are recorded by the benchmark's own code, around its calls
//! into each layer's public functions; nothing inside the SDK changes.
//! They are held in memory and written when the workload ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span. `parent` indexes into the same span list.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Traced pass the span belongs to.
    pub pass: u32,
    /// Operation within the pass (kernel, query or campaign index).
    pub op: u32,
    /// Layer name, e.g. `ir.canonicalize`.
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// The span that was open when this one began.
    pub parent: Option<usize>,
}

/// In-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    pass: u32,
    op: u32,
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            pass: 0,
            op: 0,
        }
    }

    /// Sets the pass and operation stamped on the spans that follow.
    pub fn at(&mut self, pass: usize, op: usize) {
        self.pass = pass as u32;
        self.op = op as u32;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            pass: self.pass,
            op: self.op,
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        id
    }

    /// Closes the span `begin` returned. Spans close innermost first.
    pub fn end(&mut self, id: usize) {
        let end_ns = self.now_ns();
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = end_ns;
    }

    /// Records a span around `f`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    /// Every span recorded so far, in the order they began.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per layer name over the spans of one pass, in seconds.
    pub fn self_seconds(&self, pass: usize) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for (name, ns) in self_time_ns(&self.spans, pass as u32) {
            out.insert(name, ns as f64 / 1e9);
        }
        out
    }

    /// The trace file: one JSON object per span.
    pub fn to_json(&self, workload: &str) -> String {
        let mut out = String::with_capacity(64 + self.spans.len() * 96);
        let _ = write!(out, "{{\"workload\": \"{workload}\", \"spans\": [");
        for (id, span) in self.spans.iter().enumerate() {
            if id > 0 {
                out.push(',');
            }
            let parent = match span.parent {
                Some(p) => p.to_string(),
                None => "null".to_string(),
            };
            let _ = write!(
                out,
                "\n{{\"id\": {id}, \"pass\": {}, \"op\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}}}",
                span.pass, span.op, span.name, span.start_ns, span.end_ns
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

/// A layer's self time is its spans' duration minus the part of that
/// interval their direct children cover. Children never overlap one
/// another here (one thread, spans close innermost first), so the
/// covered part is the sum of the children's durations.
pub fn self_time_ns(spans: &[Span], pass: u32) -> BTreeMap<&'static str, u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            child_ns[parent] += span.end_ns - span.start_ns;
        }
    }
    let mut out: BTreeMap<&'static str, u64> = BTreeMap::new();
    for (id, span) in spans.iter().enumerate() {
        if span.pass == pass {
            let duration = span.end_ns - span.start_ns;
            *out.entry(span.name).or_default() += duration.saturating_sub(child_ns[id]);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            pass: 0,
            op: 0,
            name,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("flow", 0, 100, None),
            span("parse", 10, 30, Some(0)),
            span("lower", 40, 90, Some(0)),
            span("verify", 50, 60, Some(2)),
        ];
        let self_ns = self_time_ns(&spans, 0);
        assert_eq!(self_ns["flow"], 100 - 20 - 50);
        assert_eq!(self_ns["parse"], 20);
        assert_eq!(self_ns["lower"], 50 - 10);
        assert_eq!(self_ns["verify"], 10);
        let total: u64 = self_ns.values().sum();
        assert_eq!(total, 100, "self times partition the root span");
    }

    #[test]
    fn self_time_sums_same_named_spans_and_filters_by_pass() {
        let mut spans = vec![span("hls", 0, 10, None), span("hls", 20, 25, None)];
        spans.push(Span {
            pass: 1,
            ..span("hls", 30, 100, None)
        });
        assert_eq!(self_time_ns(&spans, 0)["hls"], 15);
        assert_eq!(self_time_ns(&spans, 1)["hls"], 70);
    }

    #[test]
    fn tracer_nests_spans_under_the_open_one() {
        let mut tracer = Tracer::new();
        tracer.at(2, 7);
        let outer = tracer.begin("outer");
        tracer.time("inner", || std::hint::black_box(1 + 1));
        tracer.end(outer);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!((spans[1].pass, spans[1].op), (2, 7));
        assert!(spans[0].end_ns >= spans[1].end_ns);
        assert!(tracer.to_json("w").contains("\"name\": \"inner\""));
    }
}
