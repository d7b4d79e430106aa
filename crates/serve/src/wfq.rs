//! Start-time fair queueing (SFQ) across tenants.
//!
//! Each tenant owns a FIFO; requests are stamped with virtual start and
//! finish tags (`start = max(V, tenant's last finish)`,
//! `finish = start + 1/weight`) and the queue always dequeues the head
//! with the smallest finish tag, advancing the system virtual time `V`
//! to the popped request's start tag. Under backlog, service share
//! converges to the weight ratio; any tenant with positive weight is
//! guaranteed progress — the no-starvation property checked in
//! `tests/queue_props.rs`.
//!
//! Ties on the finish tag break toward the lower tenant index, and all
//! comparisons use `f64::total_cmp`, so pop order is deterministic.
//!
//! A request that arrives at an empty queue would be popped straight
//! back out; `WeightedFairQueue::pass_through` books it as served
//! without queueing it, moving the tags and the virtual time exactly as
//! that push and pop would, so the queue only ever holds a backlog.

use std::collections::VecDeque;

use crate::request::Request;

/// Weights below this are clamped up so `1/weight` stays finite and a
/// "nonzero-weight tenant" keeps its progress guarantee even when the
/// caller passes something degenerate.
const MIN_WEIGHT: f64 = 1.0e-6;

#[derive(Debug)]
struct Queued {
    request: Request,
    start_tag: f64,
    finish_tag: f64,
}

#[derive(Debug)]
struct TenantQueue {
    weight: f64,
    last_finish: f64,
    fifo: VecDeque<Queued>,
    served: u64,
}

/// A weighted-fair queue over a fixed tenant table.
#[derive(Debug)]
pub struct WeightedFairQueue {
    virtual_time: f64,
    tenants: Vec<TenantQueue>,
    len: usize,
}

impl WeightedFairQueue {
    /// Creates a queue with one lane per tenant weight.
    pub fn new(weights: &[f64]) -> WeightedFairQueue {
        WeightedFairQueue {
            virtual_time: 0.0,
            tenants: weights
                .iter()
                .map(|&w| TenantQueue {
                    weight: w.max(MIN_WEIGHT),
                    last_finish: 0.0,
                    fifo: VecDeque::new(),
                    served: 0,
                })
                .collect(),
            len: 0,
        }
    }

    /// Enqueues an admitted request into its tenant's lane.
    pub fn push(&mut self, request: Request) {
        let (start_tag, finish_tag) = self.stamp(request.tenant);
        self.tenants[request.tenant].fifo.push_back(Queued {
            request,
            start_tag,
            finish_tag,
        });
        self.len += 1;
    }

    /// Serves `request` at once, without queueing it: the virtual time,
    /// the tenant's last finish tag and its served count move exactly
    /// as a [`push`](Self::push) then [`pop`](Self::pop) would move
    /// them. Only an empty queue may pass a request through — a
    /// non-empty one might pop another request first.
    pub(crate) fn pass_through(&mut self, request: &Request) {
        debug_assert!(self.is_empty(), "a request passes only an empty queue");
        let (start_tag, _) = self.stamp(request.tenant);
        self.book_service(request.tenant, start_tag);
    }

    /// Stamps the next request of `tenant` with its SFQ tags, `start =
    /// max(V, last finish)` and `finish = start + 1/weight`, and makes
    /// the finish tag the tenant's last.
    fn stamp(&mut self, tenant: usize) -> (f64, f64) {
        let tenant = &mut self.tenants[tenant];
        let start_tag = self.virtual_time.max(tenant.last_finish);
        let finish_tag = start_tag + 1.0 / tenant.weight;
        tenant.last_finish = finish_tag;
        (start_tag, finish_tag)
    }

    /// Books the service of a request of `tenant` tagged `start_tag`:
    /// the virtual time advances to the start tag.
    fn book_service(&mut self, tenant: usize, start_tag: f64) {
        self.virtual_time = self.virtual_time.max(start_tag);
        self.tenants[tenant].served += 1;
    }

    /// Dequeues the request with the smallest head finish tag.
    pub fn pop(&mut self) -> Option<Request> {
        if self.len == 0 {
            return None;
        }
        let mut best: Option<usize> = None;
        for (index, tenant) in self.tenants.iter().enumerate() {
            let Some(head) = tenant.fifo.front() else {
                continue;
            };
            match best {
                None => best = Some(index),
                Some(current) => {
                    let leader = self.tenants[current].fifo.front().expect("head exists");
                    if head.finish_tag.total_cmp(&leader.finish_tag).is_lt() {
                        best = Some(index);
                    }
                }
            }
        }
        let index = best?;
        let queued = self.tenants[index].fifo.pop_front().expect("head exists");
        self.book_service(index, queued.start_tag);
        self.len -= 1;
        Some(queued.request)
    }

    /// Total queued requests across all lanes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no lane holds a request.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Lifetime pops per tenant, for fairness accounting.
    pub fn served(&self) -> Vec<u64> {
        self.tenants.iter().map(|t| t.served).collect()
    }

    /// Drains every queued request (used when the whole cluster is
    /// lost and the backlog must be failed out).
    pub fn drain(&mut self) -> Vec<Request> {
        let mut out = Vec::with_capacity(self.len);
        while let Some(request) = self.pop() {
            out.push(request);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    /// Everything a later push or pop reads, bit for bit, in one flat
    /// list: the virtual time and length, then per tenant its last
    /// finish tag, served count, and the id and tags of each request it
    /// holds.
    fn state(wfq: &WeightedFairQueue) -> Vec<u64> {
        let mut state = vec![wfq.virtual_time.to_bits(), wfq.len as u64];
        for tenant in &wfq.tenants {
            state.extend([
                tenant.last_finish.to_bits(),
                tenant.served,
                tenant.fifo.len() as u64,
            ]);
            for queued in &tenant.fifo {
                let (start, finish) = (queued.start_tag.to_bits(), queued.finish_tag.to_bits());
                state.extend([queued.request.id, start, finish]);
            }
        }
        state
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Direct admission is push then pop: over random weights and
        /// random scripts of pushes, pops and direct admissions, a
        /// queue that passes a directly admitted request through
        /// whenever it is empty (and queues it otherwise, as the engine
        /// does) and a queue that pushes it and pops it straight back
        /// out hold the same state after every step, and so pop the
        /// same requests from then on.
        #[test]
        fn passing_an_empty_queue_through_is_a_push_then_pop(
            picks in proptest::collection::vec(0usize..6, 1..6),
            script in proptest::collection::vec((0u8..3, 0usize..6), 1..300),
        ) {
            // Degenerate weights (clamped up) among ordinary ones.
            let weights: Vec<f64> =
                picks.iter().map(|&i| [-1.0, 0.0, 0.25, 1.0, 3.0, 7.5][i]).collect();
            let mut passing = WeightedFairQueue::new(&weights);
            let mut pushing = WeightedFairQueue::new(&weights);
            for (step, (op, tenant)) in script.into_iter().enumerate() {
                // Every script opens with a direct admission, on the
                // empty queue; later ones pass through wherever pops
                // emptied it.
                let op = if step == 0 { 2 } else { op };
                let request = Request {
                    id: step as u64,
                    tenant: tenant % weights.len(),
                    class: 0,
                    arrival_us: step as f64,
                    attempt: 0,
                };
                match op {
                    1 => prop_assert_eq!(passing.pop(), pushing.pop(), "step {}", step),
                    2 if passing.is_empty() => {
                        passing.pass_through(&request);
                        pushing.push(request);
                        prop_assert_eq!(pushing.pop(), Some(request), "step {}", step);
                    }
                    _ => {
                        passing.push(request);
                        pushing.push(request);
                    }
                }
                prop_assert_eq!(state(&passing), state(&pushing), "step {}", step);
            }
            while let Some(request) = pushing.pop() {
                prop_assert_eq!(passing.pop(), Some(request));
            }
            prop_assert!(passing.is_empty());
        }
    }

    fn request(id: u64, tenant: usize) -> Request {
        Request {
            id,
            tenant,
            class: 0,
            arrival_us: id as f64,
            attempt: 0,
        }
    }

    #[test]
    fn service_share_tracks_weights() {
        let mut wfq = WeightedFairQueue::new(&[3.0, 1.0]);
        for id in 0..400 {
            wfq.push(request(id, (id % 2) as usize));
        }
        for _ in 0..100 {
            wfq.pop().expect("backlogged");
        }
        let served = wfq.served();
        // 3:1 weights over 100 pops: expect roughly 75/25.
        assert!((70..=80).contains(&(served[0] as i64)), "{served:?}");
        assert!((20..=30).contains(&(served[1] as i64)), "{served:?}");
    }

    #[test]
    fn fifo_within_a_tenant() {
        let mut wfq = WeightedFairQueue::new(&[1.0]);
        for id in 0..10 {
            wfq.push(request(id, 0));
        }
        for id in 0..10 {
            assert_eq!(wfq.pop().expect("queued").id, id);
        }
        assert!(wfq.is_empty());
    }

    #[test]
    fn idle_tenant_does_not_bank_credit() {
        // Tenant 1 stays idle while tenant 0 is served; when tenant 1
        // wakes up its start tag catches up to V, so it gets its fair
        // share from now on but no retroactive burst beyond one quantum.
        let mut wfq = WeightedFairQueue::new(&[1.0, 1.0]);
        for id in 0..50 {
            wfq.push(request(id, 0));
        }
        for _ in 0..40 {
            wfq.pop().expect("queued");
        }
        for id in 50..60 {
            wfq.push(request(id, 1));
        }
        // Interleave from here: tenant 1 must not be served 10 times
        // in a row just because it was idle.
        let mut tenant1_run = 0;
        let mut max_run = 0;
        while let Some(popped) = wfq.pop() {
            if popped.tenant == 1 {
                tenant1_run += 1;
                max_run = max_run.max(tenant1_run);
            } else {
                tenant1_run = 0;
            }
        }
        assert!(max_run <= 2, "tenant 1 burst {max_run} pops in a row");
    }

    #[test]
    fn drain_empties_every_lane() {
        let mut wfq = WeightedFairQueue::new(&[2.0, 1.0, 1.0]);
        for id in 0..30 {
            wfq.push(request(id, (id % 3) as usize));
        }
        let drained = wfq.drain();
        assert_eq!(drained.len(), 30);
        assert!(wfq.is_empty());
        assert_eq!(wfq.len(), 0);
    }
}
