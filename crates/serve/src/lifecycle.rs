//! Request-lifecycle robustness: retry budgets, hedged dispatch,
//! adaptive concurrency, and brownout degradation tiers.
//!
//! The EVEREST runtime keeps meeting deadlines while nodes fail and
//! reconfigure; this module gives the *serve tier* the per-request
//! primitives that story needs (ExaWorks frames robustness as a
//! property of the whole stack, not one layer):
//!
//! * `RetryBudget` — a per-tenant token bucket spent by retries and
//!   refilled by *successes*, so retry storms self-limit: a tenant that
//!   stops completing work stops earning the right to retry. Backoff
//!   reuses [`everest_faults::RetryPolicy`] and draws jitter from the
//!   fault plan's dedicated substream
//!   ([`everest_faults::FaultPlan::jitter_rng`]), keeping serve-tier
//!   retries on the same replay-stable contract as the scheduler's.
//! * `LatencyWindow` — hedged dispatch for latency-critical classes:
//!   when a batch outlives the class's observed p95 service time, a
//!   duplicate is dispatched to a healthy node and the losing copy is
//!   cancelled.
//! * `AimdLimiter` — an adaptive concurrency limiter: additive
//!   increase while observed batch latency meets the class deadline,
//!   multiplicative decrease when it does not. It gates dispatch ahead
//!   of the circuit breakers and backs new arrivals off at the door
//!   with the typed [`crate::ShedReason::Overloaded`].
//! * `BrownoutController` — degradation tiers driven by
//!   `everest-health` state: as the fraction of unhealthy nodes grows
//!   the tier climbs, shrinking batch ceilings first, then disabling
//!   hedging, then shedding the lowest-weight tenants
//!   ([`crate::ShedReason::Brownout`]) — graceful steps instead of a
//!   cliff edge.
//! * `Lifecycle` — the four above as one component of a run: it owns
//!   whichever of them the run's [`LifecycleConfig`] turns on and
//!   answers the questions the event loop asks, each with a neutral
//!   answer when the feature behind it is off.
//!
//! Each mechanism is tuned by named constants beside the code that
//! reads them (the table in `docs/SERVING.md` lists them); a run only
//! chooses which mechanisms are on.
//!
//! Everything here is deterministic on the virtual clock: no wall
//! time, no ambient randomness, every threshold a pure function of
//! the constants and observed virtual-time history — which is what
//! lets `basecamp serve --hedge` replay byte-identically.

use everest_faults::{DetRng, FaultPlan, RetryPolicy};

use crate::config::ServeConfig;
use crate::request::{ClassKind, Request};

/// Tokens in each tenant's retry bucket when a run starts, and the most
/// it can hold: a tenant can absorb one early fault burst.
pub const RETRY_BUDGET_CAP: f64 = 32.0;

/// Tokens a tenant earns back per completed request, up to the cap: a
/// sustained fault wave needs four completions per retry to keep
/// retrying.
pub const RETRY_REFILL_PER_SUCCESS: f64 = 0.25;

/// A per-tenant retry token bucket, refilled by successes rather than
/// by time: retries spend, completions earn. Under a fault storm the
/// bucket drains and stays drained until real work completes again —
/// exactly the self-limiting behaviour a retry storm needs.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct RetryBudget {
    tokens: f64,
}

impl RetryBudget {
    /// A full bucket.
    pub(crate) fn new() -> RetryBudget {
        RetryBudget {
            tokens: RETRY_BUDGET_CAP,
        }
    }

    /// Takes one token for a retry attempt; `false` means the budget
    /// is exhausted and the request must fail terminally.
    pub(crate) fn try_take(&mut self) -> bool {
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }

    /// Credits one completed request.
    pub(crate) fn on_success(&mut self) {
        self.tokens = (self.tokens + RETRY_REFILL_PER_SUCCESS).min(RETRY_BUDGET_CAP);
    }
}

/// Winning-leg service times kept per hedging class for its p95.
const HEDGE_WINDOW: usize = 64;

/// Service times a class must have observed before its hedge delay is
/// the window's p95.
const HEDGE_MIN_SAMPLES: usize = 8;

/// Until then, the hedge delay is the dispatcher's expected service
/// time times this.
const HEDGE_COLD_START_FACTOR: f64 = 3.0;

/// Nearest-rank quantile of `values`, `q` in `[0, 1]`, over a sorted
/// scratch copy (`total_cmp`, so replays agree); `None` when empty.
pub(crate) fn nearest_rank(values: &[f64], q: f64) -> Option<f64> {
    let last = values.len().checked_sub(1)?;
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.saturating_sub(1).min(last)])
}

/// A bounded window of recent latency observations with deterministic
/// nearest-rank quantiles. The ring keeps insertion order; quantiles
/// sort a scratch copy with `total_cmp`, so two replays of the same
/// run always agree.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct LatencyWindow {
    ring: Vec<f64>,
    cap: usize,
    next: usize,
}

impl LatencyWindow {
    /// An empty window holding at most `cap` observations.
    pub(crate) fn new(cap: usize) -> LatencyWindow {
        LatencyWindow {
            ring: Vec::with_capacity(cap.max(1)),
            cap: cap.max(1),
            next: 0,
        }
    }

    /// Records one observation, evicting the oldest past capacity.
    pub(crate) fn push(&mut self, value_us: f64) {
        if self.ring.len() < self.cap {
            self.ring.push(value_us);
        } else {
            self.ring[self.next] = value_us;
        }
        self.next = (self.next + 1) % self.cap;
    }

    /// Observations currently held.
    pub(crate) fn len(&self) -> usize {
        self.ring.len()
    }

    /// Nearest-rank quantile of the window, `q` in `[0, 1]`; `None`
    /// while empty.
    pub(crate) fn quantile(&self, q: f64) -> Option<f64> {
        nearest_rank(&self.ring, q)
    }
}

/// Concurrency limit a run starts at.
const LIMITER_INITIAL: usize = 8;

/// Ceiling the additive increase may reach.
const LIMITER_MAX_INFLIGHT: usize = 64;

/// Added to the limit after a batch that met its class deadline.
const LIMITER_INCREASE: f64 = 1.0;

/// Multiplied into the limit after a batch that missed it (floored at
/// one).
const LIMITER_DECREASE: f64 = 0.5;

/// Queued requests tolerated per concurrency slot before new arrivals
/// are shed [`crate::ShedReason::Overloaded`] at the door.
const LIMITER_QUEUE_PER_SLOT: usize = 16;

/// The AIMD concurrency limiter: one scalar limit over concurrently
/// executing batches, raised additively while batches meet their
/// deadline and cut multiplicatively when they miss.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct AimdLimiter {
    limit: f64,
    floor: usize,
}

impl AimdLimiter {
    /// A limiter at [`LIMITER_INITIAL`], never below `floor` batches
    /// (at least one). The serving engine floors at one batch per
    /// node: the limiter exists to throttle queueing, never to idle
    /// hardware.
    pub(crate) fn new(floor: usize) -> AimdLimiter {
        AimdLimiter {
            limit: LIMITER_INITIAL as f64,
            floor: floor.max(1),
        }
    }

    /// The current whole-batch concurrency limit (never below the
    /// floor).
    pub(crate) fn limit(&self) -> usize {
        (self.limit.floor() as usize).max(self.floor)
    }

    /// Arrivals are shed `Overloaded` at the door once the queue holds
    /// this many admitted-but-unserved requests.
    pub(crate) fn door_cap(&self) -> usize {
        self.limit().saturating_mul(LIMITER_QUEUE_PER_SLOT)
    }

    /// Feeds one completed batch's observed latency against its class
    /// deadline. Returns `true` when the integer limit changed (so the
    /// caller can publish the gauge only on change).
    pub(crate) fn on_batch(&mut self, latency_us: f64, deadline_us: f64) -> bool {
        let before = self.limit();
        if latency_us <= deadline_us {
            self.limit = (self.limit + LIMITER_INCREASE).min(LIMITER_MAX_INFLIGHT as f64);
        } else {
            self.limit = (self.limit * LIMITER_DECREASE).max(1.0);
        }
        self.limit() != before
    }
}

/// Unhealthy-node fractions at which brownout tiers 1 (shrunk batch
/// ceilings), 2 (hedging off) and 3 (lowest-weight tenants shed)
/// engage.
const BROWNOUT_TIER_FRACS: [f64; 3] = [0.25, 0.5, 0.75];

/// Per-tier divisor of the batch ceilings while tiered: ceiling /
/// divisor^tier, floored at one.
const BROWNOUT_BATCH_DIVISOR: usize = 2;

/// Tracks the current brownout tier from the cluster's health state.
/// Tier 0 is normal operation; tiers 1–3 progressively trade quality
/// for survival. The controller is memoryless in health (the tier is a
/// pure function of the current unhealthy fraction), so recovery walks
/// back down the same ladder it climbed.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct BrownoutController {
    tier: u8,
}

impl BrownoutController {
    /// The tier the ladder assigns to `unhealthy` of `total` nodes.
    pub(crate) fn tier_for(&self, unhealthy: usize, total: usize) -> u8 {
        if total == 0 {
            return 0;
        }
        let frac = unhealthy as f64 / total as f64;
        BROWNOUT_TIER_FRACS.iter().filter(|&&at| frac >= at).count() as u8
    }

    /// Re-evaluates the tier against the current health state.
    /// Returns `Some((from, to))` when the tier changed.
    pub(crate) fn observe(&mut self, unhealthy: usize, total: usize) -> Option<(u8, u8)> {
        let next = self.tier_for(unhealthy, total);
        if next == self.tier {
            return None;
        }
        let from = self.tier;
        self.tier = next;
        Some((from, next))
    }

    /// Batch ceiling after the tier's shrink is applied to a chosen
    /// ceiling (tier 0 passes through).
    pub(crate) fn batch_ceiling(&self, chosen: usize) -> usize {
        (chosen / BROWNOUT_BATCH_DIVISOR.pow(u32::from(self.tier))).max(1)
    }

    /// Whether hedged dispatch is still allowed at this tier.
    pub(crate) fn hedging_enabled(&self) -> bool {
        self.tier < 2
    }

    /// Whether lowest-weight tenants are shed at the door at this
    /// tier.
    pub(crate) fn shed_lowest_weight(&self) -> bool {
        self.tier >= 3
    }
}

/// Which lifecycle mechanisms a serving run turns on. Every one
/// defaults to off, so a [`crate::ServeConfig`] that names none
/// behaves exactly as before this layer existed (and replays
/// byte-identically against old traces).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LifecycleConfig {
    /// Retry fault-failed requests under per-tenant budgets instead of
    /// failing them terminally.
    pub retry: bool,
    /// Hedge latency-critical batches after the observed p95.
    pub hedge: bool,
    /// Gate dispatch behind an AIMD concurrency limit.
    pub limiter: bool,
    /// Degrade through brownout tiers on health verdicts.
    pub brownout: bool,
}

impl LifecycleConfig {
    /// Every lifecycle mechanism on.
    pub fn all_on() -> LifecycleConfig {
        LifecycleConfig {
            retry: true,
            hedge: true,
            limiter: true,
            brownout: true,
        }
    }
}

/// What becomes of a fault-failed request; see [`Lifecycle::retry`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Retry {
    /// The retry layer is off: the request fails and no denial counts.
    Off,
    /// Refused: attempt cap reached, deadline spent by the time the
    /// backoff would elapse, or the tenant's budget is empty.
    Denied,
    /// Re-enqueue after this backoff, microseconds.
    After(f64),
}

#[derive(Debug)]
struct Retries {
    /// One bucket per tenant.
    budgets: Vec<RetryBudget>,
    /// The fault plan's dedicated stream ([`FaultPlan::jitter_rng`]),
    /// so serve-tier retries share the scheduler tier's replay contract.
    jitter: DetRng,
}

#[derive(Debug)]
struct Brownout {
    ladder: BrownoutController,
    /// Tenants tier 3 sheds at the door: strictly lowest weight, so
    /// all-false when every tenant shares one weight.
    lowest_weight: Vec<bool>,
    nodes: usize,
}

/// The lifecycle state of one run: each feature present only when its
/// [`LifecycleConfig`] switch is on, each question answered neutrally
/// when it is not. The event loop holds one and asks; it never looks
/// inside.
#[derive(Debug)]
pub(crate) struct Lifecycle {
    retries: Option<Retries>,
    /// Per class, the winning-leg service times behind its p95; `None`
    /// for a class that never hedges.
    hedging: Option<Vec<Option<LatencyWindow>>>,
    limiter: Option<AimdLimiter>,
    brownout: Option<Brownout>,
}

impl Lifecycle {
    /// The state `cfg.lifecycle` asks for, sized to the run's tenants,
    /// classes and nodes; retry jitter comes from `plan`'s own stream.
    pub(crate) fn new(cfg: &ServeConfig, plan: &FaultPlan) -> Lifecycle {
        let on = &cfg.lifecycle;
        let weights = || cfg.tenants.iter().map(|t| t.weight);
        let min_weight = weights().fold(f64::INFINITY, f64::min);
        let max_weight = weights().fold(f64::NEG_INFINITY, f64::max);
        Lifecycle {
            retries: on.retry.then(|| Retries {
                budgets: vec![RetryBudget::new(); cfg.tenants.len()],
                jitter: plan.jitter_rng(),
            }),
            hedging: on.hedge.then(|| {
                (cfg.classes.iter())
                    .map(|class| {
                        // Deliberately exhaustive (no `_` arm): a new
                        // kind forces an explicit hedging decision.
                        let hedges = match class.kind {
                            ClassKind::Interactive => class.latency_critical,
                            // Hedging spends capacity to buy tail
                            // latency, which throughput work (batch
                            // analytics, lowered queries) does not pay
                            // for.
                            ClassKind::Analytics | ClassKind::Query => false,
                        };
                        // A duplicate needs a second node to run on.
                        (hedges && cfg.nodes > 1).then(|| LatencyWindow::new(HEDGE_WINDOW))
                    })
                    .collect()
            }),
            // Floored at one batch per node: the limiter throttles
            // queueing, never idles hardware.
            limiter: on.limiter.then(|| AimdLimiter::new(cfg.nodes)),
            brownout: on.brownout.then(|| Brownout {
                ladder: BrownoutController::default(),
                lowest_weight: weights()
                    .map(|w| max_weight > min_weight && w <= min_weight)
                    .collect(),
                nodes: cfg.nodes,
            }),
        }
    }

    /// Whether the brownout ladder sheds this tenant at the door (tier
    /// 3, and the tenant among the strictly lowest weights).
    pub(crate) fn sheds_at_door(&self, tenant: usize) -> bool {
        (self.brownout.as_ref())
            .is_some_and(|b| b.ladder.shed_lowest_weight() && b.lowest_weight[tenant])
    }

    /// The limiter's cap on admitted-but-unserved requests, if any.
    pub(crate) fn door_cap(&self) -> Option<usize> {
        self.limiter.as_ref().map(AimdLimiter::door_cap)
    }

    /// Whether `inflight` executing batches exhaust the limiter.
    pub(crate) fn dispatch_at_limit(&self, inflight: usize) -> bool {
        (self.limiter.as_ref()).is_some_and(|l| inflight >= l.limit())
    }

    /// How long after dispatch a batch of `class` earns a duplicate, if
    /// it does at all: the class hedges, the batch is not a breaker
    /// probe and no brownout tier has switched hedging off. The delay
    /// is the class's observed p95 of winning-leg service times once
    /// the window is warm, else `expected_us` scaled by
    /// [`HEDGE_COLD_START_FACTOR`]; never under a microsecond.
    pub(crate) fn hedge_delay_us(
        &self,
        class: usize,
        probe: bool,
        expected_us: f64,
    ) -> Option<f64> {
        let window = self.hedging.as_ref()?[class].as_ref()?;
        if probe || !self.may_hedge() {
            return None;
        }
        let base = if window.len() >= HEDGE_MIN_SAMPLES {
            window.quantile(0.95).unwrap_or(expected_us)
        } else {
            expected_us * HEDGE_COLD_START_FACTOR
        };
        Some(base.max(1.0))
    }

    /// Whether a duplicate may still launch: the tier can climb past
    /// hedging between a timer's scheduling and its firing.
    pub(crate) fn may_hedge(&self) -> bool {
        (self.brownout.as_ref()).is_none_or(|b| b.ladder.hedging_enabled())
    }

    /// A batch of `class` completed on a leg that took `service_us`,
    /// its slowest request `latency_max_us` after arrival: completions
    /// earn their tenants retry budget, the service time joins the
    /// class's hedge window, and the limiter takes one AIMD step.
    /// Returns the limiter's new limit when the step moved it.
    pub(crate) fn batch_finished(
        &mut self,
        class: usize,
        requests: &[Request],
        service_us: f64,
        latency_max_us: f64,
        deadline_us: f64,
    ) -> Option<usize> {
        if let Some(retries) = self.retries.as_mut() {
            for request in requests {
                retries.budgets[request.tenant].on_success();
            }
        }
        if let Some(window) = (self.hedging.as_mut()).and_then(|windows| windows[class].as_mut()) {
            window.push(service_us);
        }
        // The limiter watches end-to-end latency (queue wait included),
        // not bare service time: under overload the deadline is lost in
        // the queue, and that is the signal that must pull the door in.
        let limiter = self.limiter.as_mut()?;
        (limiter.on_batch(latency_max_us, deadline_us)).then(|| limiter.limit())
    }

    /// A fault took `request`'s batch at `now_us`. The backoff schedule
    /// and attempt cap are the scheduler tier's, [`RetryPolicy::default`].
    /// Denial order is attempt cap, then deadline, then budget; the backoff is drawn
    /// before the last two are tested, so every call under the cap
    /// consumes exactly one jitter draw. Deadline-aware: a retry that
    /// would re-enter the queue with its deadline spent could only be
    /// shed later, so it is refused here and burns no budget token.
    pub(crate) fn retry(&mut self, request: &Request, now_us: f64, deadline_us: f64) -> Retry {
        let Some(retries) = self.retries.as_mut() else {
            return Retry::Off;
        };
        let policy = RetryPolicy::default();
        if request.attempt >= policy.max_retries {
            return Retry::Denied;
        }
        let backoff = policy.backoff_us(request.attempt, &mut retries.jitter);
        let doomed = now_us + backoff >= request.arrival_us + deadline_us;
        if doomed || !retries.budgets[request.tenant].try_take() {
            return Retry::Denied;
        }
        Retry::After(backoff)
    }

    /// Cluster health may have moved: re-evaluates the brownout ladder
    /// against `unhealthy()` of the run's nodes (counted only when a
    /// ladder is configured) and returns `(from, to, unhealthy)` on a
    /// tier change.
    pub(crate) fn health_moved(
        &mut self,
        unhealthy: impl FnOnce() -> usize,
    ) -> Option<(u8, u8, usize)> {
        let brownout = self.brownout.as_mut()?;
        let unhealthy = unhealthy();
        let (from, to) = brownout.ladder.observe(unhealthy, brownout.nodes)?;
        Some((from, to, unhealthy))
    }

    /// The batch ceiling the current tier allows for a chosen ceiling.
    pub(crate) fn cap_ceiling(&self, chosen: usize) -> usize {
        (self.brownout.as_ref()).map_or(chosen, |b| b.ladder.batch_ceiling(chosen))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retry_budget_spends_and_earns() {
        let mut budget = RetryBudget::new();
        for _ in 0..32 {
            assert!(budget.try_take());
        }
        assert!(!budget.try_take(), "the cap of 32 is spent");
        for _ in 0..3 {
            budget.on_success();
            assert!(!budget.try_take(), "a quarter token is not a retry");
        }
        budget.on_success();
        assert!(budget.try_take(), "four successes earn one retry");
        for _ in 0..1_000 {
            budget.on_success();
        }
        assert!(
            budget.tokens <= RETRY_BUDGET_CAP,
            "refill never exceeds the cap"
        );
    }

    #[test]
    fn latency_window_evicts_oldest_and_ranks() {
        let mut w = LatencyWindow::new(4);
        assert_eq!(w.len(), 0);
        assert_eq!(w.quantile(0.95), None);
        for v in [10.0, 20.0, 30.0, 40.0] {
            w.push(v);
        }
        assert_eq!(w.quantile(1.0), Some(40.0));
        assert_eq!(w.quantile(0.5), Some(20.0));
        // Pushing past capacity evicts the oldest observation (10.0).
        w.push(50.0);
        assert_eq!(w.len(), 4);
        assert_eq!(w.quantile(0.25), Some(20.0));
        assert_eq!(w.quantile(1.0), Some(50.0));
    }

    #[test]
    fn aimd_limiter_grows_additively_and_cuts_multiplicatively() {
        let mut lim = AimdLimiter::new(1);
        assert_eq!(lim.limit(), 8);
        for _ in 0..100 {
            lim.on_batch(100.0, 1_000.0);
        }
        assert_eq!(lim.limit(), 64, "additive increase caps at the maximum");
        assert!(lim.on_batch(2_000.0, 1_000.0));
        assert_eq!(lim.limit(), 32, "one miss halves the limit");
        for _ in 0..10 {
            lim.on_batch(2_000.0, 1_000.0);
        }
        assert_eq!(lim.limit(), 1, "the floor is one, never zero");
        assert_eq!(lim.door_cap(), LIMITER_QUEUE_PER_SLOT);
    }

    #[test]
    fn brownout_ladder_climbs_and_recovers() {
        let mut b = BrownoutController::default();
        assert_eq!(b.tier, 0);
        assert!(b.hedging_enabled());
        assert_eq!(b.observe(0, 4), None);
        assert_eq!(b.observe(1, 4), Some((0, 1)));
        assert_eq!(b.batch_ceiling(8), 4, "tier 1 halves the ceiling");
        assert!(b.hedging_enabled());
        assert_eq!(b.observe(2, 4), Some((1, 2)));
        assert!(!b.hedging_enabled(), "tier 2 disables hedging");
        assert!(!b.shed_lowest_weight());
        assert_eq!(b.observe(3, 4), Some((2, 3)));
        assert!(b.shed_lowest_weight(), "tier 3 sheds lowest weights");
        assert_eq!(b.batch_ceiling(8), 1);
        // Recovery walks the same ladder back down.
        assert_eq!(b.observe(0, 4), Some((3, 0)));
        assert_eq!(b.batch_ceiling(8), 8);
    }

    #[test]
    fn lifecycle_defaults_are_off() {
        let cfg = LifecycleConfig::default();
        assert!(!cfg.retry && !cfg.hedge && !cfg.limiter && !cfg.brownout);
        let on = LifecycleConfig::all_on();
        assert!(on.retry && on.hedge && on.limiter && on.brownout);
    }

    // -- the component at its seam: `Lifecycle` alone, no engine -------

    use crate::request::KernelClass;

    fn class(name: &str, kind: ClassKind) -> KernelClass {
        KernelClass::new(name, 400.0, 40.0, 120.0, 5_000.0, 4_096)
            .with_kind(kind)
            .latency_critical()
    }

    /// Four nodes, gold/silver/bronze tenants, one latency-critical
    /// class of each kind (only the interactive one may hedge).
    fn config(lifecycle: LifecycleConfig) -> ServeConfig {
        ServeConfig {
            classes: vec![
                class("infer", ClassKind::Interactive),
                class("analytics", ClassKind::Analytics),
                class("query", ClassKind::Query),
            ],
            lifecycle,
            ..ServeConfig::default()
        }
    }

    fn request(tenant: usize, attempt: u32, arrival_us: f64) -> Request {
        Request {
            id: 0,
            tenant,
            class: 0,
            arrival_us,
            attempt,
        }
    }

    #[test]
    fn with_every_feature_off_each_answer_is_neutral_and_nothing_is_held() {
        let mut off = Lifecycle::new(&config(LifecycleConfig::default()), &FaultPlan::new(1));
        assert!(off.retries.is_none() && off.hedging.is_none());
        assert!(off.limiter.is_none() && off.brownout.is_none());
        assert!(!off.sheds_at_door(2));
        assert_eq!(off.door_cap(), None);
        assert!(!off.dispatch_at_limit(usize::MAX));
        assert_eq!(off.hedge_delay_us(0, false, 100.0), None);
        assert!(off.may_hedge());
        let done = [request(0, 0, 0.0)];
        assert_eq!(off.batch_finished(0, &done, 50.0, 9.0e9, 1.0), None);
        assert_eq!(off.retry(&done[0], 0.0, 5_000.0), Retry::Off);
        let never = || -> usize { panic!("no ladder, nothing to count") };
        assert_eq!(off.health_moved(never), None);
        assert_eq!(off.cap_ceiling(8), 8);
    }

    #[test]
    fn the_door_shed_needs_tier_three_and_a_strictly_lowest_weight() {
        let brownout = LifecycleConfig {
            brownout: true,
            ..LifecycleConfig::default()
        };
        let with_weights = |weights: [f64; 3]| {
            let mut cfg = config(brownout);
            for (tenant, weight) in cfg.tenants.iter_mut().zip(weights) {
                tenant.weight = weight;
            }
            Lifecycle::new(&cfg, &FaultPlan::new(1))
        };
        let shed = |life: &Lifecycle| [0, 1, 2].map(|tenant| life.sheds_at_door(tenant));
        let mut life = with_weights([4.0, 2.0, 1.0]);
        assert_eq!(life.health_moved(|| 2), Some((0, 2, 2)));
        assert_eq!(shed(&life), [false; 3], "tier 2 sheds nobody");
        assert_eq!(life.cap_ceiling(8), 2, "two tiers halve the ceiling twice");
        assert_eq!(life.health_moved(|| 3), Some((2, 3, 3)));
        assert_eq!(shed(&life), [false, false, true], "tier 3 sheds bronze");
        assert_eq!(life.health_moved(|| 3), None, "no edge, no transition");
        assert_eq!(life.health_moved(|| 0), Some((3, 0, 0)));
        assert_eq!(shed(&life), [false; 3], "recovery reopens the door");
        let mut tied_low = with_weights([4.0, 1.0, 1.0]);
        tied_low.health_moved(|| 4);
        assert_eq!(shed(&tied_low), [false, true, true]);
        let mut all_equal = with_weights([2.0, 2.0, 2.0]);
        assert_eq!(all_equal.health_moved(|| 4), Some((0, 3, 4)));
        assert_eq!(shed(&all_equal), [false; 3], "no lowest, none to sacrifice");
    }

    #[test]
    fn hedge_delay_is_cold_start_then_the_window_p95_and_only_where_hedging_applies() {
        let hedged = LifecycleConfig {
            hedge: true,
            brownout: true,
            ..LifecycleConfig::default()
        };
        let plan = FaultPlan::new(1);
        let mut life = Lifecycle::new(&config(hedged), &plan);
        // Cold: expected x the cold-start factor (3), floored at 1 us.
        assert_eq!(life.hedge_delay_us(0, false, 100.0), Some(300.0));
        assert_eq!(life.hedge_delay_us(0, false, 0.1), Some(1.0));
        assert_eq!(
            life.hedge_delay_us(0, true, 100.0),
            None,
            "probes never race"
        );
        assert_eq!(life.hedge_delay_us(1, false, 100.0), None, "analytics");
        assert_eq!(life.hedge_delay_us(2, false, 100.0), None, "query");
        // Seven samples are one short of the warm-up; the eighth
        // switches to the window's nearest-rank p95 (the largest of 8).
        let done = [request(0, 0, 0.0)];
        for sample in 1..=8 {
            assert_eq!(life.hedge_delay_us(0, false, 100.0), Some(300.0));
            life.batch_finished(0, &done, 10.0 * f64::from(sample), 0.0, 5_000.0);
            life.batch_finished(1, &done, 1.0e6, 0.0, 5_000.0);
        }
        assert_eq!(life.hedge_delay_us(0, false, 100.0), Some(80.0));
        life.batch_finished(0, &done, 0.2, 0.0, 5_000.0);
        assert_eq!(life.hedge_delay_us(0, false, 100.0), Some(80.0), "p95 of 9");
        // Tier 1 still hedges; tier 2 does not, for new batches or for
        // a timer that is already pending.
        assert_eq!(life.health_moved(|| 1), Some((0, 1, 1)));
        assert!(life.may_hedge());
        assert_eq!(life.hedge_delay_us(0, false, 100.0), Some(80.0));
        assert_eq!(life.health_moved(|| 2), Some((1, 2, 2)));
        assert!(!life.may_hedge());
        assert_eq!(life.hedge_delay_us(0, false, 100.0), None);
        // A duplicate needs a second node.
        let single = ServeConfig {
            nodes: 1,
            ..config(hedged)
        };
        let life = Lifecycle::new(&single, &plan);
        assert_eq!(life.hedge_delay_us(0, false, 100.0), None);
    }

    #[test]
    fn retries_are_denied_by_cap_then_deadline_then_budget_one_jitter_draw_each() {
        let policy = RetryPolicy::default();
        let plan = FaultPlan::new(5);
        let cfg = config(LifecycleConfig {
            retry: true,
            ..LifecycleConfig::default()
        });
        let mut life = Lifecycle::new(&cfg, &plan);
        // What the component must have drawn, replayed beside it.
        let mut jitter = plan.jitter_rng();
        let deadline_us = 5_000.0;
        // At the cap: denied before anything is drawn.
        let capped = request(0, policy.max_retries, 0.0);
        assert_eq!(life.retry(&capped, 0.0, deadline_us), Retry::Denied);
        // Doomed: the backoff is drawn, the budget is not touched.
        let doomed = request(0, 0, 0.0);
        policy.backoff_us(0, &mut jitter);
        assert_eq!(life.retry(&doomed, 4_900.0, deadline_us), Retry::Denied);
        // Live: all 32 of tenant 0's tokens are still there to take.
        for retry in 0..32 {
            let attempt = retry % policy.max_retries;
            let backoff = policy.backoff_us(attempt, &mut jitter);
            let live = request(0, attempt, 0.0);
            assert_eq!(life.retry(&live, 100.0, deadline_us), Retry::After(backoff));
        }
        // Budget spent: denied, after its draw; another tenant's bucket
        // is its own.
        policy.backoff_us(0, &mut jitter);
        assert_eq!(life.retry(&doomed, 100.0, deadline_us), Retry::Denied);
        let backoff = policy.backoff_us(0, &mut jitter);
        let other = request(1, 0, 0.0);
        assert_eq!(
            life.retry(&other, 100.0, deadline_us),
            Retry::After(backoff)
        );
        // Four completions earn tenant 0 one more retry.
        life.batch_finished(0, &[doomed; 3], 50.0, 60.0, deadline_us);
        policy.backoff_us(0, &mut jitter);
        assert_eq!(life.retry(&doomed, 100.0, deadline_us), Retry::Denied);
        life.batch_finished(0, &[doomed], 50.0, 60.0, deadline_us);
        let backoff = policy.backoff_us(2, &mut jitter);
        let earned = request(0, 2, 0.0);
        assert_eq!(
            life.retry(&earned, 100.0, deadline_us),
            Retry::After(backoff)
        );
        let drawn = life.retries.as_ref().map(|r| r.jitter.clone());
        assert_eq!(drawn, Some(jitter), "one draw per call under the cap");
    }

    #[test]
    fn the_limiter_reports_its_limit_only_when_a_step_moves_it() {
        // Twelve nodes: the floor of one batch per node sits above the
        // initial limit of eight.
        let cfg = ServeConfig {
            nodes: 12,
            ..config(LifecycleConfig {
                limiter: true,
                ..LifecycleConfig::default()
            })
        };
        let mut life = Lifecycle::new(&cfg, &FaultPlan::new(1));
        // Floored at one batch per node, whatever the initial limit says.
        assert!(!life.dispatch_at_limit(11) && life.dispatch_at_limit(12));
        assert_eq!(life.door_cap(), Some(12 * 16));
        let done = [request(0, 0, 0.0)];
        // 8 -> 12 under the floor: the integer limit does not move.
        for _ in 0..4 {
            assert_eq!(life.batch_finished(0, &done, 50.0, 100.0, 5_000.0), None);
        }
        for limit in 13..=64 {
            let moved = life.batch_finished(0, &done, 50.0, 100.0, 5_000.0);
            assert_eq!(moved, Some(limit));
        }
        assert_eq!(
            life.batch_finished(0, &done, 50.0, 100.0, 5_000.0),
            None,
            "capped"
        );
        assert_eq!(
            life.batch_finished(0, &done, 50.0, 9_000.0, 5_000.0),
            Some(32)
        );
    }
}
