//! Admission control: static deadline-feasibility, per-tenant token
//! buckets, and shared queue-depth backpressure, all on the virtual
//! clock.
//!
//! The check order matters. Static infeasibility is evaluated first —
//! it is a property of the class, not of the moment, so a provably-late
//! request neither burns a token nor occupies a queue slot. Queue-depth
//! backpressure comes next, before the token bucket, so a request
//! refused for `QueueFull` does not also burn one of its tenant's
//! tokens — the tenant keeps its budget for when the queue drains.

use crate::request::{KernelClass, ShedReason, TenantSpec};

/// A token bucket refilled continuously on virtual time.
#[derive(Debug, Clone)]
pub(crate) struct TokenBucket {
    rate_per_us: f64,
    capacity: f64,
    tokens: f64,
    last_us: f64,
}

impl TokenBucket {
    /// Creates a bucket that starts full (a fresh tenant may burst).
    pub(crate) fn new(rate_rps: f64, burst: f64) -> TokenBucket {
        let capacity = burst.max(1.0);
        TokenBucket {
            rate_per_us: rate_rps.max(0.0) / 1.0e6,
            capacity,
            tokens: capacity,
            last_us: 0.0,
        }
    }

    fn refill(&mut self, now_us: f64) {
        if now_us > self.last_us {
            self.tokens =
                (self.tokens + (now_us - self.last_us) * self.rate_per_us).min(self.capacity);
            self.last_us = now_us;
        }
    }

    /// Takes one token if available; returns whether the take succeeded.
    pub(crate) fn try_take(&mut self, now_us: f64) -> bool {
        self.refill(now_us);
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }
}

/// Knobs for the admission controller.
#[derive(Debug, Clone, PartialEq)]
pub struct AdmissionConfig {
    /// Maximum requests waiting in the fair queues plus the batcher
    /// before new arrivals are shed with [`ShedReason::QueueFull`].
    pub max_queue_depth: usize,
}

impl Default for AdmissionConfig {
    fn default() -> AdmissionConfig {
        AdmissionConfig {
            max_queue_depth: 256,
        }
    }
}

/// The front door: decides, per arrival, admit or shed (typed).
#[derive(Debug)]
pub struct AdmissionController {
    buckets: Vec<TokenBucket>,
    /// Per-class deadline feasibility, precomputed from the proven
    /// static worst-case bounds ([`KernelClass::statically_infeasible`]).
    infeasible: Vec<bool>,
    max_queue_depth: usize,
}

impl AdmissionController {
    /// Builds one bucket per tenant from the tenant table and
    /// precomputes per-class deadline feasibility from the class
    /// table's static worst-case bounds.
    pub fn new(
        tenants: &[TenantSpec],
        classes: &[KernelClass],
        config: &AdmissionConfig,
    ) -> AdmissionController {
        AdmissionController {
            buckets: tenants
                .iter()
                .map(|t| TokenBucket::new(t.rate_rps, t.burst))
                .collect(),
            infeasible: classes.iter().map(|c| c.statically_infeasible()).collect(),
            max_queue_depth: config.max_queue_depth,
        }
    }

    /// Admission check for one arrival. `queue_depth` is the current
    /// number of admitted-but-unserved requests; `overload_cap` is the
    /// adaptive concurrency limiter's door cap, when one is active.
    ///
    /// Statically infeasible classes are refused before any stateful
    /// check: the refusal is a compile-time fact, so it consumes
    /// neither a token nor a queue slot. The structural queue limit is
    /// checked before the limiter's cap so the two backpressure sheds
    /// stay distinctly typed (`QueueFull` means the shared queue is
    /// physically saturated; `Overloaded` means the limiter pulled the
    /// door in early). Neither backpressure shed burns a token.
    pub fn admit(
        &mut self,
        tenant: usize,
        class: usize,
        now_us: f64,
        queue_depth: usize,
        overload_cap: Option<usize>,
    ) -> Result<(), ShedReason> {
        if self.infeasible.get(class).copied().unwrap_or(false) {
            return Err(ShedReason::StaticallyInfeasible);
        }
        if queue_depth >= self.max_queue_depth {
            return Err(ShedReason::QueueFull);
        }
        if overload_cap.is_some_and(|cap| queue_depth >= cap) {
            return Err(ShedReason::Overloaded);
        }
        if self.buckets[tenant].try_take(now_us) {
            Ok(())
        } else {
            Err(ShedReason::RateLimited)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_bursts_then_throttles() {
        let mut bucket = TokenBucket::new(1_000.0, 4.0);
        for _ in 0..4 {
            assert!(bucket.try_take(0.0));
        }
        assert!(!bucket.try_take(0.0));
        // 1000 rps = one token per millisecond.
        assert!(!bucket.try_take(500.0));
        assert!(bucket.try_take(1_000.0));
    }

    #[test]
    fn bucket_caps_at_capacity() {
        let mut bucket = TokenBucket::new(1_000.0, 2.0);
        bucket.refill(1.0e9);
        assert!((bucket.tokens - 2.0).abs() < 1e-9);
    }

    fn one_class() -> Vec<KernelClass> {
        vec![KernelClass::new("infer", 400.0, 40.0, 120.0, 5_000.0, 4096)]
    }

    #[test]
    fn queue_full_does_not_consume_a_token() {
        let tenants = vec![TenantSpec::new("t", 1.0, 1_000.0, 1.0)];
        let config = AdmissionConfig { max_queue_depth: 1 };
        let mut ctl = AdmissionController::new(&tenants, &one_class(), &config);
        assert_eq!(ctl.admit(0, 0, 0.0, 1, None), Err(ShedReason::QueueFull));
        // The token survived the backpressure rejection.
        assert_eq!(ctl.admit(0, 0, 0.0, 0, None), Ok(()));
        assert_eq!(ctl.admit(0, 0, 0.0, 0, None), Err(ShedReason::RateLimited));
    }

    #[test]
    fn infeasible_class_is_refused_without_burning_a_token() {
        let tenants = vec![TenantSpec::new("t", 1.0, 1_000.0, 1.0)];
        let classes = vec![
            // Proven bound 9 ms against a 5 ms deadline: infeasible.
            KernelClass::new("late", 400.0, 40.0, 120.0, 5_000.0, 4096).with_static_bound(9_000.0),
            // Proven bound comfortably inside the deadline: feasible.
            KernelClass::new("ok", 400.0, 40.0, 120.0, 5_000.0, 4096).with_static_bound(1_000.0),
        ];
        let config = AdmissionConfig::default();
        let mut ctl = AdmissionController::new(&tenants, &classes, &config);
        // Static refusal precedes the bucket (burst of one stays whole).
        assert_eq!(
            ctl.admit(0, 0, 0.0, 0, None),
            Err(ShedReason::StaticallyInfeasible)
        );
        assert_eq!(ctl.admit(0, 1, 0.0, 0, None), Ok(()));
        // And precedes backpressure too: the refusal is class-typed
        // even when the queue is saturated.
        assert_eq!(
            ctl.admit(0, 0, 0.0, usize::MAX, None),
            Err(ShedReason::StaticallyInfeasible)
        );
    }

    #[test]
    fn overload_cap_sheds_typed_and_keeps_the_token() {
        let tenants = vec![TenantSpec::new("t", 1.0, 1_000.0, 1.0)];
        let config = AdmissionConfig { max_queue_depth: 8 };
        let mut ctl = AdmissionController::new(&tenants, &one_class(), &config);
        // Depth 4 is under the structural limit but at the limiter's
        // cap: the shed is typed Overloaded, not QueueFull.
        assert_eq!(
            ctl.admit(0, 0, 0.0, 4, Some(4)),
            Err(ShedReason::Overloaded)
        );
        // The structural limit still wins when both are exceeded.
        assert_eq!(ctl.admit(0, 0, 0.0, 8, Some(4)), Err(ShedReason::QueueFull));
        // Neither backpressure shed burned the single token.
        assert_eq!(ctl.admit(0, 0, 0.0, 0, Some(4)), Ok(()));
    }

    #[test]
    fn class_without_a_bound_stays_feasible() {
        let tenants = vec![TenantSpec::new("t", 1.0, 1_000.0, 4.0)];
        let config = AdmissionConfig::default();
        let mut ctl = AdmissionController::new(&tenants, &one_class(), &config);
        assert_eq!(ctl.admit(0, 0, 0.0, 0, None), Ok(()));
    }
}
