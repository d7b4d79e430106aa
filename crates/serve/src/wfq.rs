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
        let tenant = &mut self.tenants[request.tenant];
        let start_tag = self.virtual_time.max(tenant.last_finish);
        let finish_tag = start_tag + 1.0 / tenant.weight;
        tenant.last_finish = finish_tag;
        tenant.fifo.push_back(Queued {
            request,
            start_tag,
            finish_tag,
        });
        self.len += 1;
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
        self.virtual_time = self.virtual_time.max(queued.start_tag);
        self.tenants[index].served += 1;
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
    use super::*;

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
