//! Dynamic batching: coalesce compatible requests (same kernel class)
//! into one accelerator invocation, closing a batch when it reaches
//! `max_batch` requests or when `max_wait_us` elapses since it opened —
//! whichever comes first.
//!
//! The batcher is passive on the clock: it never sleeps. When
//! [`DynamicBatcher::offer`] opens a new batch the engine sets a
//! wait-deadline in the class's deadline lane, drops it when the batch
//! closes on size, and delivers a deadline that comes due via
//! [`DynamicBatcher::expire`]; batch ids make a stale deadline (the
//! batcher's batches were drained) a harmless no-op.

use std::collections::VecDeque;

use crate::request::Request;

/// Most requests a new batch's vector reserves room for up front; a
/// larger ceiling grows the vector as requests join.
const MAX_RESERVED: usize = 64;

/// Per-class batching knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchPolicy {
    /// Close the batch as soon as it holds this many requests. The
    /// autotuner retunes this knob at runtime; the configured value is
    /// the ceiling it explores under.
    pub max_batch: usize,
    /// Close the batch this long after it opened even if short,
    /// bounding the queueing latency a batch can add. Microseconds.
    pub max_wait_us: f64,
}

impl BatchPolicy {
    /// Creates a policy.
    pub fn new(max_batch: usize, max_wait_us: f64) -> BatchPolicy {
        BatchPolicy {
            max_batch: max_batch.max(1),
            max_wait_us: max_wait_us.max(0.0),
        }
    }
}

/// A closed batch, ready for dispatch.
#[derive(Debug, Clone, PartialEq)]
pub struct Batch {
    /// Batcher-unique id (also used to match completion events).
    pub id: u64,
    /// Kernel-class index shared by every request in the batch.
    pub class: usize,
    /// The coalesced requests, in WFQ pop order.
    pub requests: Vec<Request>,
    /// When the first request opened the batch, microseconds.
    pub opened_us: f64,
    /// When the batch closed (size or timeout), microseconds.
    pub closed_us: f64,
}

/// What [`DynamicBatcher::offer`] did with the request, so the engine
/// can keep its timeout bookkeeping exact: schedule a timeout when a
/// batch opens, cancel it when the batch later closes on size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OfferOutcome {
    /// Joined an already-open batch; no timeout action needed.
    Joined,
    /// Opened a new batch that is still open — schedule a timeout for
    /// it at `now_us + max_wait_us`.
    Opened(u64),
    /// The offer closed this batch on size. Any timeout scheduled for
    /// it is now stale and can be cancelled.
    Closed(u64),
}

#[derive(Debug)]
struct OpenBatch {
    id: u64,
    requests: Vec<Request>,
    opened_us: f64,
}

#[derive(Debug)]
struct ClassLane {
    max_batch: usize,
    max_wait_us: f64,
    open: Option<OpenBatch>,
}

/// The batching stage between the fair queues and dispatch.
#[derive(Debug)]
pub struct DynamicBatcher {
    lanes: Vec<ClassLane>,
    ready: VecDeque<Batch>,
    next_id: u64,
    pending: usize,
    /// Emptied request vectors of settled batches, handed back through
    /// [`DynamicBatcher::recycle`]; a new batch takes one before it
    /// allocates. Never more than were ever live at once.
    spare: Vec<Vec<Request>>,
}

impl DynamicBatcher {
    /// Creates a batcher with one lane per kernel class.
    pub fn new(policies: &[BatchPolicy]) -> DynamicBatcher {
        DynamicBatcher {
            lanes: policies
                .iter()
                .map(|p| ClassLane {
                    max_batch: p.max_batch.max(1),
                    max_wait_us: p.max_wait_us.max(0.0),
                    open: None,
                })
                .collect(),
            ready: VecDeque::new(),
            next_id: 0,
            pending: 0,
            spare: Vec::new(),
        }
    }

    /// Hands back the request vector of a batch that settled, for the
    /// next batch to open into: a steady campaign allocates no batch
    /// vectors at all.
    pub(crate) fn recycle(&mut self, mut requests: Vec<Request>) {
        requests.clear();
        self.spare.push(requests);
    }

    /// Retunes a class's batch-size ceiling (autotuner hook). Takes
    /// effect from the next close decision; an open batch larger than
    /// the new ceiling closes on its next offer or timeout.
    pub(crate) fn set_max_batch(&mut self, class: usize, max_batch: usize) {
        self.lanes[class].max_batch = max_batch.max(1);
    }

    /// Current batch-size ceiling for a class.
    pub fn max_batch(&self, class: usize) -> usize {
        self.lanes[class].max_batch
    }

    /// Wait ceiling for a class, microseconds.
    pub fn max_wait_us(&self, class: usize) -> f64 {
        self.lanes[class].max_wait_us
    }

    /// Adds a request to its class lane. The returned [`OfferOutcome`]
    /// tells the caller exactly what timeout bookkeeping to do:
    /// [`OfferOutcome::Opened`] means schedule a timeout at
    /// `now_us + max_wait_us`; [`OfferOutcome::Closed`] means the batch
    /// closed on size and any timeout scheduled for it is stale;
    /// [`OfferOutcome::Joined`] needs nothing. A fresh batch under a
    /// unit ceiling (`max_batch <= 1`) reports `Closed`, not `Opened` —
    /// it never waits, so no timeout was ever owed.
    pub fn offer(&mut self, request: Request, now_us: f64) -> OfferOutcome {
        let class = request.class;
        self.pending += 1;
        let lane = &mut self.lanes[class];
        let mut opened = false;
        match &mut lane.open {
            Some(open) => open.requests.push(request),
            None => {
                let id = self.next_id;
                self.next_id += 1;
                let mut requests = (self.spare.pop())
                    .unwrap_or_else(|| Vec::with_capacity(lane.max_batch.min(MAX_RESERVED)));
                requests.push(request);
                lane.open = Some(OpenBatch {
                    id,
                    requests,
                    opened_us: now_us,
                });
                opened = true;
            }
        }
        let open = lane.open.as_ref().expect("lane holds an open batch");
        let id = open.id;
        if open.requests.len() >= lane.max_batch {
            self.close(class, now_us);
            OfferOutcome::Closed(id)
        } else if opened {
            OfferOutcome::Opened(id)
        } else {
            OfferOutcome::Joined
        }
    }

    /// Delivers a timeout for `batch_id` in `class`. Closes the batch
    /// only if that exact batch is still open; returns whether it did.
    pub fn expire(&mut self, class: usize, batch_id: u64, now_us: f64) -> bool {
        let matches = self.lanes[class]
            .open
            .as_ref()
            .map(|open| open.id == batch_id)
            .unwrap_or(false);
        if matches {
            self.close(class, now_us);
        }
        matches
    }

    fn close(&mut self, class: usize, now_us: f64) {
        let lane = &mut self.lanes[class];
        if let Some(open) = lane.open.take() {
            self.ready.push_back(Batch {
                id: open.id,
                class,
                requests: open.requests,
                opened_us: open.opened_us,
                closed_us: now_us,
            });
        }
    }

    /// Pops the oldest closed batch, if any.
    pub fn pop_ready(&mut self) -> Option<Batch> {
        let batch = self.ready.pop_front()?;
        self.pending -= batch.requests.len();
        Some(batch)
    }

    /// Closed batches awaiting dispatch.
    pub(crate) fn ready_len(&self) -> usize {
        self.ready.len()
    }

    /// Requests held in the batcher (open plus closed batches).
    pub fn pending(&self) -> usize {
        self.pending
    }

    /// Drains every request, open or closed (cluster-loss path).
    pub fn drain(&mut self) -> Vec<Request> {
        let mut out = Vec::with_capacity(self.pending);
        while let Some(batch) = self.pop_ready() {
            out.extend(batch.requests);
        }
        for class in 0..self.lanes.len() {
            if let Some(open) = self.lanes[class].open.take() {
                self.pending -= open.requests.len();
                out.extend(open.requests);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request(id: u64, class: usize) -> Request {
        Request {
            id,
            tenant: 0,
            class,
            arrival_us: 0.0,
            attempt: 0,
        }
    }

    fn batcher() -> DynamicBatcher {
        DynamicBatcher::new(&[BatchPolicy::new(3, 100.0), BatchPolicy::new(1, 100.0)])
    }

    #[test]
    fn closes_on_size() {
        let mut b = batcher();
        assert_eq!(b.offer(request(0, 0), 0.0), OfferOutcome::Opened(0));
        assert_eq!(b.offer(request(1, 0), 1.0), OfferOutcome::Joined);
        assert_eq!(b.ready_len(), 0);
        assert_eq!(b.offer(request(2, 0), 2.0), OfferOutcome::Closed(0));
        let batch = b.pop_ready().expect("full batch closed");
        assert_eq!(batch.requests.len(), 3);
        assert_eq!(batch.opened_us, 0.0);
        assert_eq!(batch.closed_us, 2.0);
        assert_eq!(b.pending(), 0);
    }

    #[test]
    fn closes_on_timeout_and_ignores_stale() {
        let mut b = batcher();
        let OfferOutcome::Opened(id) = b.offer(request(0, 0), 5.0) else {
            panic!("first offer opens");
        };
        assert!(b.expire(0, id, 105.0));
        let batch = b.pop_ready().expect("timed out");
        assert_eq!(batch.requests.len(), 1);
        assert_eq!(batch.closed_us, 105.0);
        // Stale timeout for the already-closed batch is a no-op.
        assert!(!b.expire(0, id, 200.0));
    }

    #[test]
    fn unit_batch_closes_immediately() {
        let mut b = batcher();
        assert_eq!(b.offer(request(0, 1), 0.0), OfferOutcome::Closed(0));
        assert_eq!(b.ready_len(), 1);
    }

    #[test]
    fn retune_lowers_the_ceiling() {
        let mut b = batcher();
        b.set_max_batch(0, 2);
        assert_eq!(b.offer(request(0, 0), 0.0), OfferOutcome::Opened(0));
        assert_eq!(b.offer(request(1, 0), 1.0), OfferOutcome::Closed(0));
        assert_eq!(b.ready_len(), 1);
    }

    /// A ceiling that only the wait closes reserves nothing by it.
    #[test]
    fn an_unbounded_ceiling_closes_on_timeout() {
        let mut b = DynamicBatcher::new(&[BatchPolicy::new(usize::MAX, 100.0)]);
        assert_eq!(b.offer(request(0, 0), 0.0), OfferOutcome::Opened(0));
        for id in 1..100 {
            assert_eq!(b.offer(request(id, 0), 1.0), OfferOutcome::Joined);
        }
        assert!(b.expire(0, 0, 100.0));
        let batch = b.pop_ready().expect("timed out");
        assert_eq!(batch.requests.len(), 100);
        b.recycle(batch.requests);
        assert_eq!(b.offer(request(100, 0), 200.0), OfferOutcome::Opened(1));
    }

    #[test]
    fn drain_returns_open_and_closed() {
        let mut b = batcher();
        b.offer(request(0, 1), 0.0); // closes immediately
        b.offer(request(1, 0), 0.0); // stays open
        assert_eq!(b.pending(), 2);
        let drained = b.drain();
        assert_eq!(drained.len(), 2);
        assert_eq!(b.pending(), 0);
        assert_eq!(b.ready_len(), 0);
    }
}
