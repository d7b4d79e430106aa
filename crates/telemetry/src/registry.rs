//! The thread-safe span/metric/event registry.
//!
//! One [`Registry`] holds everything a flow records: an append-only
//! span tree, typed metrics (counters, gauges, histograms,
//! sliding-window monitors) and a bounded event ring. All mutation goes
//! through one internal mutex, so records from concurrent threads
//! interleave without tearing; span parenthood is tracked per thread
//! (a span's parent is the innermost span still open on the *same*
//! thread and the *same* registry).
//!
//! Spans are kept compact, since a compile flow records one for every
//! design point Olympus evaluates: each span is a fixed-size record
//! (its name as a `Cow<'static, str>`, so a literal is never copied,
//! its parent, thread, start and end), and every span's args share one
//! flat vector of `(span, key, value)` with `&'static str` keys.
//! [`Registry::spans`] assembles the public [`SpanRecord`]s from them
//! when it is read.

use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use crate::monitor::Monitor;

/// Default sliding window for [`Registry::observe`].
pub(crate) const DEFAULT_MONITOR_WINDOW: usize = 64;

/// Default capacity of the event ring buffer.
const DEFAULT_EVENT_CAPACITY: usize = 1024;

/// Histogram bucket base: bucket `i` covers values `<= BASE^i`.
const BUCKET_BASE: f64 = 4.0;

/// Number of finite histogram buckets (the last bucket is +inf).
const BUCKETS: usize = 22;

/// A typed span argument / annotation value.
#[derive(Debug, Clone, PartialEq)]
pub enum ArgValue {
    /// Unsigned integer (counts, cycles, bytes).
    U64(u64),
    /// Floating point (times, rates).
    F64(f64),
    /// Free-form text (names, configurations).
    Str(String),
    /// Boolean flag.
    Bool(bool),
}

impl std::fmt::Display for ArgValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArgValue::U64(v) => write!(f, "{v}"),
            ArgValue::F64(v) => write!(f, "{v}"),
            ArgValue::Str(v) => write!(f, "{v}"),
            ArgValue::Bool(v) => write!(f, "{v}"),
        }
    }
}

impl From<u64> for ArgValue {
    fn from(v: u64) -> ArgValue {
        ArgValue::U64(v)
    }
}

impl From<usize> for ArgValue {
    fn from(v: usize) -> ArgValue {
        ArgValue::U64(v as u64)
    }
}

impl From<f64> for ArgValue {
    fn from(v: f64) -> ArgValue {
        ArgValue::F64(v)
    }
}

impl From<&str> for ArgValue {
    fn from(v: &str) -> ArgValue {
        ArgValue::Str(v.to_string())
    }
}

impl From<String> for ArgValue {
    fn from(v: String) -> ArgValue {
        ArgValue::Str(v)
    }
}

impl From<bool> for ArgValue {
    fn from(v: bool) -> ArgValue {
        ArgValue::Bool(v)
    }
}

/// One recorded span: a timed region of the flow.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Registry-unique span id (creation order).
    pub id: u32,
    /// Parent span id: the innermost span that was open on the same
    /// thread when this one started.
    pub parent: Option<u32>,
    /// Stable span name (see `docs/OBSERVABILITY.md`).
    pub name: String,
    /// Small integer id of the recording thread.
    pub tid: u64,
    /// Start, µs since the registry epoch.
    pub start_us: f64,
    /// End, µs since the registry epoch (`None` while still open).
    pub end_us: Option<f64>,
    /// Typed annotations (cycle counts, configuration, sizes).
    pub args: BTreeMap<String, ArgValue>,
}

impl SpanRecord {
    /// Wall-clock duration in µs (`None` while the span is open).
    pub fn duration_us(&self) -> Option<f64> {
        self.end_us.map(|e| e - self.start_us)
    }
}

/// One recorded point event.
#[derive(Debug, Clone, PartialEq)]
pub struct EventRecord {
    /// Stable event name.
    pub name: String,
    /// Timestamp, µs since the registry epoch.
    pub ts_us: f64,
    /// Small integer id of the recording thread.
    pub tid: u64,
    /// Free-form detail text.
    pub detail: String,
}

/// Internal histogram state with logarithmic buckets.
#[derive(Debug, Clone)]
struct Histogram {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
    /// `buckets[i]` counts values `<= BUCKET_BASE^i`; one extra
    /// overflow bucket at the end.
    buckets: [u64; BUCKETS + 1],
}

impl Histogram {
    fn new() -> Histogram {
        Histogram {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            buckets: [0; BUCKETS + 1],
        }
    }

    fn record(&mut self, value: f64) {
        if !value.is_finite() {
            return;
        }
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        self.buckets[bucket(value)] += 1;
    }
}

/// The bucket of a finite `value`: the smallest `i` with
/// `value <= BUCKET_BASE^i` (`4^i = 2^(2i)`), or the overflow bucket
/// past the last. Read off the float's exponent instead of multiplying
/// bounds up from 1: a value above 1 in `[2^e, 2^(e+1))` first fits
/// under `2^e` when it is exactly that power, else under `2^(e+1)`.
fn bucket(value: f64) -> usize {
    if value <= 1.0 {
        return 0;
    }
    let bits = value.to_bits();
    let exponent = (bits >> 52) - 1023;
    let fraction = bits & ((1 << 52) - 1);
    let power = exponent + u64::from(fraction != 0);
    (power.div_ceil(2) as usize).min(BUCKETS)
}

/// A read-only snapshot of one histogram.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Number of recorded values.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: f64,
    /// Smallest recorded value.
    pub min: f64,
    /// Largest recorded value.
    pub max: f64,
    /// `(upper_bound, count)` pairs; the last bound is `f64::INFINITY`.
    pub buckets: Vec<(f64, u64)>,
}

impl HistogramSnapshot {
    /// Mean of recorded values (`None` when empty).
    pub fn mean(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.sum / self.count as f64)
        }
    }

    /// Estimated quantile `q` in `[0, 1]` (`None` when empty).
    ///
    /// Walks the log-spaced buckets to the one holding the
    /// nearest-rank sample, then interpolates linearly inside it. The
    /// bucket edges are clamped by the exact recorded `min`/`max` (the
    /// overflow bucket in particular has no finite upper bound of its
    /// own), so the estimate always lands in `[min, max]` and is exact
    /// at `q = 0` and `q = 1`.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        let mut lower = 0.0_f64;
        for &(bound, count) in &self.buckets {
            if seen + count >= rank {
                let lo = lower.max(self.min);
                let hi = bound.min(self.max);
                if count == 0 || hi <= lo {
                    return Some(hi.clamp(self.min, self.max));
                }
                let fraction = (rank - seen) as f64 / count as f64;
                return Some((lo + fraction * (hi - lo)).clamp(self.min, self.max));
            }
            seen += count;
            lower = bound;
        }
        Some(self.max)
    }

    /// Estimated median.
    pub fn p50(&self) -> Option<f64> {
        self.quantile(0.50)
    }

    /// Estimated 95th percentile.
    pub fn p95(&self) -> Option<f64> {
        self.quantile(0.95)
    }

    /// Estimated 99th percentile.
    pub fn p99(&self) -> Option<f64> {
        self.quantile(0.99)
    }
}

/// One recorded span as the registry keeps it: 64 bytes and no heap
/// memory of its own unless its name was built at run time. Its id is
/// its index; its args live in [`Inner::args`].
#[derive(Debug)]
struct Span {
    name: Cow<'static, str>,
    parent: Option<u32>,
    tid: u32,
    start_us: f64,
    end_us: Option<f64>,
}

/// A span arg: the span's id, the key and the value.
type SpanArg = (u32, &'static str, ArgValue);

/// A pre-resolved handle to one monotonic counter.
///
/// The registry's string-keyed [`Registry::counter_add`] takes the
/// registry mutex and walks a name map on every call; a handle resolves
/// the name once and turns each increment into a single relaxed atomic
/// add — the hot-path form used by the serving engine's event loop.
///
/// ```
/// let registry = everest_telemetry::Registry::new();
/// let completed = registry.counter_handle("serve.requests_completed");
/// completed.add(1);
/// assert_eq!(registry.counter("serve.requests_completed"), 1);
/// ```
#[derive(Debug, Clone)]
pub struct CounterHandle(Arc<AtomicU64>);

impl CounterHandle {
    /// Adds `delta` to the counter (relaxed; no lock taken).
    pub fn add(&self, delta: u64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current counter value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A pre-resolved handle to one gauge (an `f64` stored as atomic bits).
///
/// ```
/// let registry = everest_telemetry::Registry::new();
/// let depth = registry.gauge_handle("serve.queue_depth");
/// depth.set(3.0);
/// assert_eq!(registry.gauge("serve.queue_depth"), Some(3.0));
/// ```
#[derive(Debug, Clone)]
pub struct GaugeHandle(Arc<AtomicU64>);

impl GaugeHandle {
    /// Sets the gauge (relaxed atomic store of the float's bits).
    pub fn set(&self, value: f64) {
        self.0.store(value.to_bits(), Ordering::Relaxed);
    }

    /// Last value set through any handle or the string API.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// Samples a [`HistogramHandle`] or [`MonitorHandle`] holds before it
/// takes its cell's mutex: one lock per this many recorded samples.
const HANDLE_BUFFER: usize = 16;

/// Samples recorded through a handle and not yet applied to its cell,
/// oldest first.
#[derive(Debug)]
struct Pending {
    values: [f64; HANDLE_BUFFER],
    len: usize,
}

impl Pending {
    fn new() -> Pending {
        Pending {
            values: [0.0; HANDLE_BUFFER],
            len: 0,
        }
    }

    /// Buffers `value`; returns whether the buffer is now full.
    #[inline]
    fn push(&mut self, value: f64) -> bool {
        self.values[self.len] = value;
        self.len += 1;
        self.len == HANDLE_BUFFER
    }

    /// Hands every buffered value, oldest first, to `apply` under the
    /// cell's lock (taken only when something is buffered), then
    /// empties the buffer.
    fn drain_into<C>(&mut self, cell: &Mutex<C>, mut apply: impl FnMut(&mut C, f64)) {
        if self.len == 0 {
            return;
        }
        let mut cell = cell.lock().unwrap_or_else(|e| e.into_inner());
        for &value in &self.values[..self.len] {
            apply(&mut cell, value);
        }
        self.len = 0;
    }
}

/// A pre-resolved — and optionally *sampled* — handle to one histogram.
///
/// The handle never touches the registry map, and it locks its one
/// histogram cell once per 16 recorded samples: it buffers them and
/// applies them in order when the buffer fills, on
/// [`HistogramHandle::flush`] and when it drops. Until then a snapshot
/// does not show them. A cell written by one handle therefore sees
/// exactly the sequence an unbuffered handle would have written.
///
/// With `every = N > 1` the handle records every Nth observation
/// deterministically (the 1st, N+1st, 2N+1st, …), so two same-seed runs
/// sample identical subsequences; quantiles become estimates over the
/// 1-in-N sample and `count` reflects samples, not observations — the
/// contract documented per metric in `docs/OBSERVABILITY.md`.
///
/// ```
/// let registry = everest_telemetry::Registry::new();
/// let mut wait = registry.histogram_handle_sampled("serve.queue_wait_us", 4);
/// for v in 0..8 {
///     wait.record(v as f64);
/// }
/// // Buffered in the handle until it flushes (or drops).
/// assert_eq!(registry.histogram("serve.queue_wait_us").unwrap().count, 0);
/// wait.flush();
/// // Observations 0 and 4 were sampled (1-in-4, deterministic).
/// assert_eq!(registry.histogram("serve.queue_wait_us").unwrap().count, 2);
/// ```
#[derive(Debug)]
pub struct HistogramHandle {
    cell: Arc<Mutex<Histogram>>,
    every: u64,
    /// Observations to skip before the next sample. A countdown, not
    /// `seen % every`: the period is a run-time value, so the modulo
    /// would be a hardware divide on every observation.
    skip: u64,
    pending: Pending,
}

impl HistogramHandle {
    /// Records `value`, honouring the handle's sampling period.
    #[inline]
    pub fn record(&mut self, value: f64) {
        if self.skip > 0 {
            self.skip -= 1;
            return;
        }
        self.skip = self.every - 1;
        if self.pending.push(value) {
            self.flush();
        }
    }

    /// Applies every buffered sample to the histogram.
    pub fn flush(&mut self) {
        self.pending.drain_into(&self.cell, Histogram::record);
    }

    /// The sampling period `N` (1 records everything).
    pub fn every(&self) -> u64 {
        self.every
    }
}

impl Drop for HistogramHandle {
    fn drop(&mut self) {
        self.flush();
    }
}

/// A pre-resolved handle to one sliding-window monitor. Like a
/// [`HistogramHandle`] it buffers up to 16 observations and feeds them
/// to the window, in order, when the buffer fills, on
/// [`MonitorHandle::flush`] and when it drops; a reader that needs each
/// observation at once flushes after it.
///
/// ```
/// let registry = everest_telemetry::Registry::new();
/// let mut inflation = registry.monitor_handle("health.node0.inflation", 32);
/// inflation.observe(1.25);
/// inflation.flush();
/// assert_eq!(registry.monitor("health.node0.inflation").unwrap().count(), 1);
/// ```
#[derive(Debug)]
pub struct MonitorHandle {
    cell: Arc<Mutex<Monitor>>,
    pending: Pending,
}

impl MonitorHandle {
    /// Feeds one observation towards the monitor window.
    #[inline]
    pub fn observe(&mut self, value: f64) {
        if self.pending.push(value) {
            self.flush();
        }
    }

    /// Feeds every buffered observation into the window.
    pub fn flush(&mut self) {
        self.pending.drain_into(&self.cell, Monitor::observe);
    }
}

impl Drop for MonitorHandle {
    fn drop(&mut self) {
        self.flush();
    }
}

/// Everything the registry records, behind one mutex.
///
/// Metric values live in shared cells (`Arc<AtomicU64>` /
/// `Arc<Mutex<_>>`) rather than directly in the maps, so a pre-resolved
/// handle can mutate its cell without touching the registry mutex.
#[derive(Debug)]
struct Inner {
    spans: Vec<Span>,
    /// Every span's args in the order they were set; an arg set twice
    /// on one span is kept twice, and the later one is what reads see.
    args: Vec<SpanArg>,
    /// Bumped by [`Registry::reset`]: a guard or an open-span entry of
    /// an older generation refers to a span that is gone.
    generation: u64,
    counters: BTreeMap<String, Arc<AtomicU64>>,
    /// Gauge cells hold `f64::to_bits`.
    gauges: BTreeMap<String, Arc<AtomicU64>>,
    histograms: BTreeMap<String, Arc<Mutex<Histogram>>>,
    monitors: BTreeMap<String, Arc<Mutex<Monitor>>>,
    events: VecDeque<EventRecord>,
    /// The `THREAD_KEY` of each thread that recorded here, in the order
    /// they first did: a thread's tid is its index.
    threads: Vec<u64>,
}

impl Inner {
    /// The span and arg buffers start empty: most registries never
    /// record a span (an engine's or a tuner's own, before the global
    /// one replaces it), a serving run records two, and a compile flow
    /// grows them once and keeps their capacity across `reset`.
    fn new() -> Inner {
        Inner {
            spans: Vec::new(),
            args: Vec::new(),
            generation: 0,
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
            histograms: BTreeMap::new(),
            monitors: BTreeMap::new(),
            events: VecDeque::new(),
            threads: Vec::new(),
        }
    }

    /// The calling thread's tid, added to `threads` on its first record.
    fn tid(&mut self) -> u32 {
        let key = THREAD_KEY.with(|key| *key);
        let tid = match self.threads.iter().position(|&k| k == key) {
            Some(tid) => tid,
            None => {
                self.threads.push(key);
                self.threads.len() - 1
            }
        };
        tid as u32
    }
}

/// The span/metric/event registry. See the [crate docs](crate) for the
/// model; construction always yields an [`Arc`] so span guards and
/// instrumented components can share ownership.
#[derive(Debug)]
pub struct Registry {
    /// Process-unique registry id, used to key the per-thread span
    /// stack so spans on different registries never parent each other.
    uid: u64,
    epoch: Instant,
    event_capacity: usize,
    inner: Mutex<Inner>,
}

/// A span open on this thread, as its stack entry names it.
#[derive(Debug, Clone, Copy, PartialEq)]
struct OpenSpan {
    registry: u64,
    generation: u64,
    id: u32,
}

thread_local! {
    /// The spans currently open on this thread, innermost last.
    static SPAN_STACK: RefCell<Vec<OpenSpan>> = const { RefCell::new(Vec::new()) };
    /// This thread's process-unique key.
    static THREAD_KEY: u64 = {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        NEXT.fetch_add(1, Ordering::Relaxed)
    };
}

fn next_uid() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

impl Registry {
    /// Creates an empty registry with the default event capacity.
    pub fn new() -> Arc<Registry> {
        Registry::with_event_capacity(DEFAULT_EVENT_CAPACITY)
    }

    /// Creates an empty registry whose event ring holds at most
    /// `capacity` events (older events are evicted first).
    pub(crate) fn with_event_capacity(capacity: usize) -> Arc<Registry> {
        Arc::new(Registry {
            uid: next_uid(),
            epoch: Instant::now(),
            event_capacity: capacity.max(1),
            inner: Mutex::new(Inner::new()),
        })
    }

    /// The process-wide registry that instrumented components default
    /// to. Cheap to call: clones an `Arc`.
    pub fn global() -> Arc<Registry> {
        Arc::clone(Registry::global_ref())
    }

    /// The process-wide registry, borrowed: what the free functions of
    /// the crate record into without an `Arc` clone and drop a call.
    pub(crate) fn global_ref() -> &'static Arc<Registry> {
        static GLOBAL: OnceLock<Arc<Registry>> = OnceLock::new();
        GLOBAL.get_or_init(Registry::new)
    }

    /// Microseconds elapsed since this registry was created.
    pub fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        // Lock poisoning only occurs when a panic unwinds while the
        // mutex is held; telemetry should survive that and keep the
        // data recorded so far.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    // ----------------------------------------------------------------
    // Spans.

    /// Opens a span; it ends when the returned guard drops. The parent
    /// is the innermost span currently open on this thread (for this
    /// registry). A `&'static str` name is kept without a copy.
    pub fn span(self: &Arc<Self>, name: impl Into<Cow<'static, str>>) -> SpanGuard {
        self.open_span(name.into())
    }

    /// [`Registry::span`] past the conversion of its name: one copy of
    /// the body, not one in every caller's crate.
    fn open_span(self: &Arc<Self>, name: Cow<'static, str>) -> SpanGuard {
        let now = self.now_us();
        let mut inner = self.lock();
        let tid = inner.tid();
        let generation = inner.generation;
        let parent = SPAN_STACK.with(|stack| {
            stack
                .borrow()
                .iter()
                .rev()
                .find(|open| open.registry == self.uid && open.generation == generation)
                .map(|open| open.id)
        });
        let id = inner.spans.len() as u32;
        inner.spans.push(Span {
            name,
            parent,
            tid,
            start_us: now,
            end_us: None,
        });
        drop(inner);
        let open = OpenSpan {
            registry: self.uid,
            generation,
            id,
        };
        SPAN_STACK.with(|stack| stack.borrow_mut().push(open));
        SpanGuard {
            registry: Arc::clone(self),
            open,
        }
    }

    /// Ends the span `open` names, unless a reset has dropped it since,
    /// and takes it off this thread's stack either way.
    fn end_span(&self, open: OpenSpan) {
        let now = self.now_us();
        let mut inner = self.lock();
        if inner.generation == open.generation {
            if let Some(span) = inner.spans.get_mut(open.id as usize) {
                span.end_us = Some(now);
            }
        }
        drop(inner);
        SPAN_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            if let Some(pos) = stack.iter().rposition(|&e| e == open) {
                stack.remove(pos);
            }
        });
    }

    fn span_arg(&self, open: OpenSpan, key: &'static str, value: ArgValue) {
        let mut inner = self.lock();
        if inner.generation == open.generation {
            inner.args.push((open.id, key, value));
        }
    }

    /// Snapshot of every span recorded so far, in creation order.
    pub fn spans(&self) -> Vec<SpanRecord> {
        let inner = self.lock();
        let mut spans: Vec<SpanRecord> = inner
            .spans
            .iter()
            .enumerate()
            .map(|(id, span)| SpanRecord {
                id: id as u32,
                parent: span.parent,
                name: span.name.to_string(),
                tid: u64::from(span.tid),
                start_us: span.start_us,
                end_us: span.end_us,
                args: BTreeMap::new(),
            })
            .collect();
        for (id, key, value) in &inner.args {
            spans[*id as usize]
                .args
                .insert((*key).to_string(), value.clone());
        }
        spans
    }

    // ----------------------------------------------------------------
    // Metrics.

    /// Resolves (creating at 0 if absent) the counter cell for `name`.
    fn counter_cell(&self, name: &str) -> Arc<AtomicU64> {
        let mut inner = self.lock();
        if let Some(cell) = inner.counters.get(name) {
            return Arc::clone(cell);
        }
        let cell = Arc::new(AtomicU64::new(0));
        inner.counters.insert(name.to_string(), Arc::clone(&cell));
        cell
    }

    fn gauge_cell(&self, name: &str) -> Arc<AtomicU64> {
        let mut inner = self.lock();
        if let Some(cell) = inner.gauges.get(name) {
            return Arc::clone(cell);
        }
        let cell = Arc::new(AtomicU64::new(0.0_f64.to_bits()));
        inner.gauges.insert(name.to_string(), Arc::clone(&cell));
        cell
    }

    fn histogram_cell(&self, name: &str) -> Arc<Mutex<Histogram>> {
        let mut inner = self.lock();
        if let Some(cell) = inner.histograms.get(name) {
            return Arc::clone(cell);
        }
        let cell = Arc::new(Mutex::new(Histogram::new()));
        inner.histograms.insert(name.to_string(), Arc::clone(&cell));
        cell
    }

    fn monitor_cell(&self, name: &str, window: usize) -> Arc<Mutex<Monitor>> {
        let mut inner = self.lock();
        if let Some(cell) = inner.monitors.get(name) {
            return Arc::clone(cell);
        }
        let cell = Arc::new(Mutex::new(Monitor::new(window.max(1))));
        inner.monitors.insert(name.to_string(), Arc::clone(&cell));
        cell
    }

    /// Pre-resolves a [`CounterHandle`] for `name` (created at 0). The
    /// handle and the string API mutate the same cell.
    pub fn counter_handle(&self, name: &str) -> CounterHandle {
        CounterHandle(self.counter_cell(name))
    }

    /// Pre-resolves a [`GaugeHandle`] for `name` (created at 0).
    pub fn gauge_handle(&self, name: &str) -> GaugeHandle {
        GaugeHandle(self.gauge_cell(name))
    }

    /// Pre-resolves an unsampled [`HistogramHandle`] for `name`.
    pub fn histogram_handle(&self, name: &str) -> HistogramHandle {
        self.histogram_handle_sampled(name, 1)
    }

    /// Pre-resolves a [`HistogramHandle`] recording every `every`-th
    /// observation (deterministic 1-in-N sampling; see the handle docs
    /// for the exact semantics).
    pub fn histogram_handle_sampled(&self, name: &str, every: u64) -> HistogramHandle {
        HistogramHandle {
            cell: self.histogram_cell(name),
            every: every.max(1),
            skip: 0,
            pending: Pending::new(),
        }
    }

    /// Pre-resolves a [`MonitorHandle`] for `name`, creating the
    /// monitor with `window` if absent (an existing monitor keeps its
    /// original window).
    pub fn monitor_handle(&self, name: &str, window: usize) -> MonitorHandle {
        MonitorHandle {
            cell: self.monitor_cell(name, window),
            pending: Pending::new(),
        }
    }

    /// Adds `delta` to the monotonic counter `name` (created at 0).
    ///
    /// Bumps the cell it finds under the one lock the lookup takes: no
    /// `Arc` of the cell is cloned or dropped.
    pub fn counter_add(&self, name: &str, delta: u64) {
        let mut inner = self.lock();
        match inner.counters.get(name) {
            Some(cell) => {
                cell.fetch_add(delta, Ordering::Relaxed);
            }
            None => {
                let cell = Arc::new(AtomicU64::new(delta));
                inner.counters.insert(name.to_string(), cell);
            }
        }
    }

    /// Current value of counter `name` (0 when never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.lock()
            .counters
            .get(name)
            .map(|c| c.load(Ordering::Relaxed))
            .unwrap_or(0)
    }

    /// Sets the gauge `name` to `value`.
    pub fn gauge_set(&self, name: &str, value: f64) {
        self.gauge_cell(name)
            .store(value.to_bits(), Ordering::Relaxed);
    }

    /// Last value of gauge `name`.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.lock()
            .gauges
            .get(name)
            .map(|g| f64::from_bits(g.load(Ordering::Relaxed)))
    }

    /// Records `value` into the histogram `name`.
    pub fn histogram_record(&self, name: &str, value: f64) {
        self.histogram_cell(name)
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .record(value);
    }

    /// Snapshot of histogram `name`, if it has ever been recorded.
    pub fn histogram(&self, name: &str) -> Option<HistogramSnapshot> {
        let cell = {
            let inner = self.lock();
            inner.histograms.get(name).map(Arc::clone)
        }?;
        let h = cell.lock().unwrap_or_else(|e| e.into_inner());
        let mut bound = 1.0;
        let mut buckets = Vec::with_capacity(h.buckets.len());
        for (i, &count) in h.buckets.iter().enumerate() {
            if i == h.buckets.len() - 1 {
                buckets.push((f64::INFINITY, count));
            } else {
                buckets.push((bound, count));
                bound *= BUCKET_BASE;
            }
        }
        Some(HistogramSnapshot {
            count: h.count,
            sum: h.sum,
            min: h.min,
            max: h.max,
            buckets,
        })
    }

    /// Feeds the sliding-window monitor `name` (window
    /// `DEFAULT_MONITOR_WINDOW` on first use).
    pub fn observe(&self, name: &str, value: f64) {
        self.observe_windowed(name, value, DEFAULT_MONITOR_WINDOW);
    }

    /// Feeds the monitor `name`, creating it with `window` if absent
    /// (an existing monitor keeps its original window).
    pub(crate) fn observe_windowed(&self, name: &str, value: f64, window: usize) {
        self.monitor_cell(name, window)
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .observe(value);
    }

    /// Snapshot of the monitor `name`, if observations exist.
    pub fn monitor(&self, name: &str) -> Option<Monitor> {
        let cell = {
            let inner = self.lock();
            inner.monitors.get(name).map(Arc::clone)
        }?;
        let snapshot = cell.lock().unwrap_or_else(|e| e.into_inner()).clone();
        Some(snapshot)
    }

    /// Snapshot of every counter as `(name, value)`, name order.
    pub fn counters_snapshot(&self) -> Vec<(String, u64)> {
        self.lock()
            .counters
            .iter()
            .map(|(name, cell)| (name.clone(), cell.load(Ordering::Relaxed)))
            .collect()
    }

    /// Snapshot of every gauge as `(name, value)`, name order.
    pub fn gauges_snapshot(&self) -> Vec<(String, f64)> {
        self.lock()
            .gauges
            .iter()
            .map(|(name, cell)| (name.clone(), f64::from_bits(cell.load(Ordering::Relaxed))))
            .collect()
    }

    /// Names of all counters recorded so far.
    pub fn counter_names(&self) -> Vec<String> {
        self.lock().counters.keys().cloned().collect()
    }

    /// Names of all gauges recorded so far.
    pub fn gauge_names(&self) -> Vec<String> {
        self.lock().gauges.keys().cloned().collect()
    }

    /// Names of all histograms recorded so far.
    pub fn histogram_names(&self) -> Vec<String> {
        self.lock().histograms.keys().cloned().collect()
    }

    /// Names of all monitors recorded so far.
    pub fn monitor_names(&self) -> Vec<String> {
        self.lock().monitors.keys().cloned().collect()
    }

    // ----------------------------------------------------------------
    // Events.

    /// Appends a point event; when the ring is full the oldest event
    /// is evicted.
    pub fn event(&self, name: &str, detail: impl Into<String>) {
        let now = self.now_us();
        let mut inner = self.lock();
        let tid = u64::from(inner.tid());
        if inner.events.len() == self.event_capacity {
            inner.events.pop_front();
        }
        inner.events.push_back(EventRecord {
            name: name.to_string(),
            ts_us: now,
            tid,
            detail: detail.into(),
        });
    }

    /// Snapshot of the event ring, oldest first.
    pub fn events(&self) -> Vec<EventRecord> {
        self.lock().events.iter().cloned().collect()
    }

    /// Drops every recorded span, metric and event (thread ids are
    /// kept, and so is the capacity of the span and arg buffers).
    /// Meant for standalone registries; resetting the global registry
    /// discards other components' data too. Handles resolved before the
    /// reset keep their detached cells: they stay safe to use but no
    /// longer feed this registry's exports. A span guard opened before
    /// the reset stays safe too: its args and its end are dropped, and
    /// it parents no span opened after the reset.
    pub fn reset(&self) {
        let mut inner = self.lock();
        inner.spans.clear();
        inner.args.clear();
        inner.generation += 1;
        inner.counters.clear();
        inner.gauges.clear();
        inner.histograms.clear();
        inner.monitors.clear();
        inner.events.clear();
    }
}

/// Ends its span on drop; annotate through it while the span is open.
#[derive(Debug)]
pub struct SpanGuard {
    registry: Arc<Registry>,
    open: OpenSpan,
}

impl SpanGuard {
    /// The span's registry-unique id.
    pub fn id(&self) -> u32 {
        self.open.id
    }

    /// Attaches a typed argument to the span. Keys are literals, kept
    /// without a copy; setting a key twice keeps the later value.
    pub fn arg(&self, key: &'static str, value: impl Into<ArgValue>) -> &Self {
        self.registry.span_arg(self.open, key, value.into());
        self
    }

    /// Records a simulated-cycle duration for the span (the `cycles`
    /// argument — e.g. an HLS latency that has no wall-clock footprint).
    pub fn record_cycles(&self, cycles: u64) -> &Self {
        self.arg("cycles", cycles)
    }

    /// Records a simulated wall-time duration in µs (the `sim_us`
    /// argument — e.g. a scheduler makespan in virtual time).
    pub fn record_sim_us(&self, us: f64) -> &Self {
        self.arg("sim_us", us)
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        self.registry.end_span(self.open);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_on_one_thread() {
        let r = Registry::new();
        {
            let outer = r.span("outer");
            outer.arg("k", 3u64);
            {
                let _inner = r.span("inner");
            }
            let _sibling = r.span("sibling");
        }
        let spans = r.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.end_us.is_some()));
        assert_eq!(spans[0].args["k"], ArgValue::U64(3));
    }

    #[test]
    fn two_registries_do_not_cross_parent() {
        let a = Registry::new();
        let b = Registry::new();
        let _outer_a = a.span("a.outer");
        let _outer_b = b.span("b.outer");
        let inner_a = a.span("a.inner");
        // a.inner's parent is a.outer, not b.outer, despite b.outer
        // being the innermost open span on this thread.
        drop(inner_a);
        let spans = a.spans();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(b.spans()[0].parent, None);
    }

    #[test]
    fn counters_gauges_histograms_monitors() {
        let r = Registry::new();
        r.counter_add("c", 2);
        r.counter_add("c", 3);
        assert_eq!(r.counter("c"), 5);
        assert_eq!(r.counter("missing"), 0);

        r.gauge_set("g", 1.5);
        r.gauge_set("g", 2.5);
        assert_eq!(r.gauge("g"), Some(2.5));

        for v in [0.5, 3.0, 100.0, 1e9] {
            r.histogram_record("h", v);
        }
        let h = r.histogram("h").unwrap();
        assert_eq!(h.count, 4);
        assert_eq!(h.min, 0.5);
        assert_eq!(h.max, 1e9);
        assert!((h.mean().unwrap() - (103.5 + 1e9) / 4.0).abs() < 1.0);
        assert_eq!(h.buckets.iter().map(|&(_, c)| c).sum::<u64>(), 4);
        // first bucket (<= 1) holds exactly the 0.5 observation
        assert_eq!(h.buckets[0].1, 1);

        r.observe_windowed("m", 1.0, 2);
        r.observe_windowed("m", 2.0, 2);
        r.observe_windowed("m", 3.0, 2);
        let m = r.monitor("m").unwrap();
        assert_eq!(m.count(), 2);
        assert_eq!(m.mean(), Some(2.5));
    }

    #[test]
    fn histogram_quantiles_bracket_the_distribution() {
        let r = Registry::new();
        for v in 1..=1000 {
            r.histogram_record("h", v as f64);
        }
        let h = r.histogram("h").unwrap();
        let p50 = h.p50().unwrap();
        let p95 = h.p95().unwrap();
        let p99 = h.p99().unwrap();
        // Log buckets (base 4) bound the estimate loosely but the
        // ordering and range guarantees are exact.
        assert!(p50 <= p95 && p95 <= p99, "{p50} {p95} {p99}");
        assert!((h.min..=h.max).contains(&p50));
        assert!((h.min..=h.max).contains(&p99));
        assert!((250.0..=1000.0).contains(&p50), "p50 estimate {p50}");
        assert_eq!(h.quantile(0.0).unwrap(), h.min);
        assert_eq!(h.quantile(1.0).unwrap(), h.max);

        // Single observation: every quantile is that value.
        let r = Registry::new();
        r.histogram_record("one", 7.5);
        let one = r.histogram("one").unwrap();
        assert_eq!(one.p50(), Some(7.5));
        assert_eq!(one.p99(), Some(7.5));
        // Empty histogram never exists, but an explicit empty snapshot
        // answers None.
        let empty = HistogramSnapshot {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            buckets: Vec::new(),
        };
        assert_eq!(empty.quantile(0.5), None);
    }

    #[test]
    fn bucket_is_the_first_bound_the_value_fits_under() {
        // The definition: bounds multiplied up from 1, overflow past
        // the last.
        let by_bounds = |value: f64| {
            let mut bound = 1.0;
            for i in 0..BUCKETS {
                if value <= bound {
                    return i;
                }
                bound *= BUCKET_BASE;
            }
            BUCKETS
        };
        let mut values = vec![
            -1.0,
            -0.0,
            0.0,
            1e-300,
            0.5,
            1.0,
            f64::MAX,
            f64::MIN_POSITIVE,
        ];
        for k in 0..=50 {
            let power = 2.0_f64.powi(k);
            values.extend([power, power.next_up(), power.next_down(), 3.0 * power]);
        }
        let mut state = 7_u64;
        for _ in 0..10_000 {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            values.push(f64::from_bits(state >> 2) % 1e14);
        }
        for value in values.into_iter().filter(|v| v.is_finite()) {
            assert_eq!(bucket(value), by_bounds(value), "{value:e}");
        }
    }

    #[test]
    fn histogram_ignores_non_finite() {
        let r = Registry::new();
        r.histogram_record("h", f64::NAN);
        r.histogram_record("h", f64::INFINITY);
        r.histogram_record("h", 1.0);
        assert_eq!(r.histogram("h").unwrap().count, 1);
    }

    #[test]
    fn event_ring_evicts_oldest() {
        let r = Registry::with_event_capacity(3);
        for i in 0..5 {
            r.event("e", format!("n{i}"));
        }
        let events = r.events();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].detail, "n2");
        assert_eq!(events[2].detail, "n4");
    }

    #[test]
    fn sampled_handle_records_the_modulo_subsequence() {
        for every in [1u64, 2, 8] {
            let r = Registry::new();
            let mut handle = r.histogram_handle_sampled("h", every);
            let (mut count, mut sum) = (0u64, 0.0);
            for seen in 0..100u64 {
                handle.record(seen as f64);
                handle.flush();
                if seen % every == 0 {
                    count += 1;
                    sum += seen as f64;
                }
                // Checked after each observation, so the sample lands
                // on exactly the observations the definition names.
                let snapshot = r.histogram("h").expect("registered by the handle");
                assert_eq!((snapshot.count, snapshot.sum), (count, sum), "1-in-{every}");
            }
        }
    }

    #[test]
    fn buffered_handles_apply_samples_in_order_when_full_flushed_or_dropped() {
        let r = Registry::new();
        let mut hist = r.histogram_handle("h");
        let mut window = r.monitor_handle("m", 40);
        // Values whose float sum depends on the order they are added.
        let values: Vec<f64> = (0..37).map(|i| 1e16 / f64::from(i + 1)).collect();
        let (mut count, mut sum) = (0, 0.0);
        for (seen, &v) in values.iter().enumerate() {
            hist.record(v);
            window.observe(v);
            if (seen + 1) % HANDLE_BUFFER == 0 {
                // A full buffer has just been applied, and nothing else.
                for &flushed in &values[count..=seen] {
                    sum += flushed;
                }
                count = seen + 1;
            }
            let h = r.histogram("h").expect("registered by the handle");
            assert_eq!((h.count, h.sum.to_bits()), (count as u64, sum.to_bits()));
            assert_eq!(r.monitor("m").expect("registered").count(), count);
        }
        window.flush();
        assert_eq!(r.monitor("m").expect("registered").count(), values.len());
        assert_eq!(
            r.monitor("m").expect("registered").last(),
            values.last().copied()
        );
        drop(hist);
        let expected = values.iter().fold(0.0, |acc, v| acc + v);
        let h = r.histogram("h").expect("registered by the handle");
        assert_eq!((h.count, h.sum.to_bits()), (37, expected.to_bits()));
    }

    #[test]
    fn reset_clears_all() {
        let r = Registry::new();
        {
            let _s = r.span("s");
        }
        r.counter_add("c", 1);
        r.event("e", "");
        r.reset();
        assert!(r.spans().is_empty());
        assert_eq!(r.counter("c"), 0);
        assert!(r.events().is_empty());
    }

    #[test]
    fn a_guard_that_outlives_a_reset_neither_parents_nor_ends_later_spans() {
        let r = Registry::new();
        let a = r.span("a");
        a.arg("before", 1u64);
        r.reset();
        let b = r.span("b");
        // `b` reuses id 0, which `a` had; `a` is no longer its parent.
        assert_eq!(b.id(), 0);
        assert_eq!(r.spans()[0].parent, None);
        a.arg("stale", 2u64);
        drop(a);
        let spans = r.spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].end_us, None, "a stale guard ended a later span");
        assert!(
            spans[0].args.is_empty(),
            "a stale guard annotated a later span"
        );
        assert!(r.to_text().contains("  b (open)"), "{}", r.to_text());
        // The stale guard left this thread's stack: `c` nests under `b`.
        let c = r.span("c");
        assert_eq!(r.spans()[c.id() as usize].parent, Some(b.id()));
        drop(c);
        drop(b);
        assert!(r.spans().iter().all(|s| s.end_us.is_some()));
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    fn a_span_record_is_64_bytes() {
        assert_eq!(std::mem::size_of::<Span>(), 64);
        assert_eq!(std::mem::size_of::<SpanArg>(), 48);
    }

    #[test]
    fn timestamps_are_monotonic() {
        let r = Registry::new();
        let g = r.span("a");
        let t0 = r.spans()[0].start_us;
        drop(g);
        let s = &r.spans()[0];
        assert!(s.end_us.unwrap() >= t0);
        assert!(s.duration_us().unwrap() >= 0.0);
    }
}
