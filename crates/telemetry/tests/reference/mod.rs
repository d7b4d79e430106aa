//! The span store `Registry` replaced, kept as the reference the compact
//! store is held to: every span a whole `SpanRecord` in one vector, its
//! name a `String`, its args a `BTreeMap` with a `String` per key, and
//! the recording thread's id looked up from `std::thread::current()` in
//! a `HashMap` on every span.
//!
//! The one change from the replaced code is the reset generation: a
//! guard or stack entry opened before [`Registry::reset`] neither closes
//! nor parents a span recorded after it. Without it the replaced store
//! let a stale guard end a later span and a later span parent itself.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::Instant;

use everest_telemetry::{ArgValue, SpanRecord};

struct Inner {
    spans: Vec<SpanRecord>,
    threads: HashMap<ThreadId, u64>,
    generation: u64,
}

impl Inner {
    fn tid(&mut self) -> u64 {
        let next = self.threads.len() as u64;
        *self
            .threads
            .entry(std::thread::current().id())
            .or_insert(next)
    }
}

/// The span half of the replaced registry.
pub(crate) struct Registry {
    uid: u64,
    epoch: Instant,
    inner: Mutex<Inner>,
}

thread_local! {
    /// `(registry uid, generation, span id)` open on this thread.
    static SPAN_STACK: RefCell<Vec<(u64, u64, u32)>> = const { RefCell::new(Vec::new()) };
}

fn next_uid() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

impl Registry {
    pub(crate) fn new() -> Arc<Registry> {
        Arc::new(Registry {
            uid: next_uid(),
            epoch: Instant::now(),
            inner: Mutex::new(Inner {
                spans: Vec::new(),
                threads: HashMap::new(),
                generation: 0,
            }),
        })
    }

    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    pub(crate) fn span(self: &Arc<Self>, name: impl Into<String>) -> SpanGuard {
        let now = self.now_us();
        let mut inner = self.lock();
        let tid = inner.tid();
        let generation = inner.generation;
        let parent = SPAN_STACK.with(|stack| {
            stack
                .borrow()
                .iter()
                .rev()
                .find(|&&(uid, g, _)| uid == self.uid && g == generation)
                .map(|&(_, _, id)| id)
        });
        let id = inner.spans.len() as u32;
        inner.spans.push(SpanRecord {
            id,
            parent,
            name: name.into(),
            tid,
            start_us: now,
            end_us: None,
            args: BTreeMap::new(),
        });
        drop(inner);
        SPAN_STACK.with(|stack| stack.borrow_mut().push((self.uid, generation, id)));
        SpanGuard {
            registry: Arc::clone(self),
            id,
            generation,
        }
    }

    fn end_span(&self, id: u32, generation: u64) {
        let now = self.now_us();
        let mut inner = self.lock();
        if inner.generation == generation {
            if let Some(span) = inner.spans.get_mut(id as usize) {
                span.end_us = Some(now);
            }
        }
        drop(inner);
        SPAN_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            let entry = (self.uid, generation, id);
            if let Some(pos) = stack.iter().rposition(|&e| e == entry) {
                stack.remove(pos);
            }
        });
    }

    fn span_arg(&self, id: u32, generation: u64, key: &str, value: ArgValue) {
        let mut inner = self.lock();
        if inner.generation != generation {
            return;
        }
        if let Some(span) = inner.spans.get_mut(id as usize) {
            span.args.insert(key.to_string(), value);
        }
    }

    pub(crate) fn spans(&self) -> Vec<SpanRecord> {
        self.lock().spans.clone()
    }

    pub(crate) fn reset(&self) {
        let mut inner = self.lock();
        inner.spans.clear();
        inner.generation += 1;
    }
}

pub(crate) struct SpanGuard {
    registry: Arc<Registry>,
    id: u32,
    generation: u64,
}

impl SpanGuard {
    pub(crate) fn arg(&self, key: &str, value: impl Into<ArgValue>) -> &Self {
        self.registry
            .span_arg(self.id, self.generation, key, value.into());
        self
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        self.registry.end_span(self.id, self.generation);
    }
}
