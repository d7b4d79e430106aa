//! Request-plane vocabulary: kernel classes, tenants, requests, typed
//! shed reasons, and the seeded open-loop arrival stream.
//!
//! Everything here is deterministic by construction: arrivals are drawn
//! from a seed on the virtual clock, so a serving run is a pure function
//! of its configuration and replays byte-identically.

use everest_faults::DetRng;

/// The workload family a kernel class belongs to.
///
/// Policy sites in the engine key off the kind with **exhaustive
/// matches** (no `_` wildcard arms), so adding a kind — as PR 10 did
/// with [`ClassKind::Query`] — turns every policy decision that must
/// be revisited into a compile error instead of a silent default.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClassKind {
    /// Online inference and other interactive request/response work:
    /// deadline-sensitive, the only kind eligible for hedged dispatch.
    Interactive,
    /// Throughput-oriented batch analytics; never hedged.
    Analytics,
    /// Lowered analytic queries from `everest-query`: per-operator dfg
    /// kernels served as a tenant class of their own. Throughput work,
    /// never hedged.
    Query,
}

impl ClassKind {
    /// Stable id used in telemetry and traces.
    pub fn id(&self) -> &'static str {
        match self {
            ClassKind::Interactive => "interactive",
            ClassKind::Analytics => "analytics",
            ClassKind::Query => "query",
        }
    }

    /// All kinds, in declaration order.
    pub const ALL: [ClassKind; 3] = [
        ClassKind::Interactive,
        ClassKind::Analytics,
        ClassKind::Query,
    ];
}

/// A class of inference/analytics kernels that the cluster can serve.
///
/// Requests of the same class are batch-compatible: the dynamic batcher
/// may coalesce them into one accelerator invocation, amortising the
/// per-launch setup cost across the batch.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelClass {
    /// Human-readable class name (used in telemetry and traces).
    pub name: String,
    /// Per-request service cost on a CPU core, microseconds.
    pub cpu_us: f64,
    /// Per-request service cost on an FPGA VF, microseconds.
    pub fpga_us: f64,
    /// One-time FPGA launch overhead per batch (DMA setup, kernel
    /// argument marshalling), microseconds. This is the cost batching
    /// amortises.
    pub fpga_setup_us: f64,
    /// End-to-end deadline for the class (arrival to completion),
    /// microseconds. Completions past it count as SLO violations;
    /// requests that lapse it while still queued are shed.
    pub deadline_us: f64,
    /// Payload moved to the serving node per request, bytes.
    pub payload_bytes: u64,
    /// Statically proven worst-case kernel latency, microseconds, from
    /// the `everest-analysis` latency fixpoint
    /// (`everest_analysis::latency::module_worst_case_us`). `None`
    /// when no bound is known (no compiled module, or the analysis
    /// could not prove one). When the bound itself exceeds
    /// [`KernelClass::deadline_us`], no execution can meet the
    /// deadline and admission sheds the whole class with
    /// [`ShedReason::StaticallyInfeasible`] instead of burning
    /// capacity on provably-late work.
    pub static_bound_us: Option<f64>,
    /// Latency-critical classes are eligible for hedged dispatch: when
    /// a batch outlives the class's observed p95 service time, a
    /// duplicate is sent to a second healthy node and the loser is
    /// cancelled. Off by default — hedging spends capacity to buy tail
    /// latency, a trade only deadline-critical classes should make.
    /// Only [`ClassKind::Interactive`] classes are considered.
    pub latency_critical: bool,
    /// The workload family this class belongs to; policy sites match
    /// on it exhaustively.
    pub kind: ClassKind,
}

impl KernelClass {
    /// Creates a kernel class.
    pub fn new(
        name: &str,
        cpu_us: f64,
        fpga_us: f64,
        fpga_setup_us: f64,
        deadline_us: f64,
        payload_bytes: u64,
    ) -> KernelClass {
        KernelClass {
            name: name.to_string(),
            cpu_us,
            fpga_us,
            fpga_setup_us,
            deadline_us,
            payload_bytes,
            static_bound_us: None,
            latency_critical: false,
            kind: ClassKind::Interactive,
        }
    }

    /// Sets the workload family.
    #[must_use]
    pub fn with_kind(mut self, kind: ClassKind) -> KernelClass {
        self.kind = kind;
        self
    }

    /// Attaches a statically proven worst-case latency bound
    /// (microseconds) from the analysis layer.
    #[must_use]
    pub fn with_static_bound(mut self, bound_us: f64) -> KernelClass {
        self.static_bound_us = Some(bound_us);
        self
    }

    /// Marks the class latency-critical, making it eligible for
    /// hedged dispatch when the engine's hedge feature is enabled.
    #[must_use]
    pub fn latency_critical(mut self) -> KernelClass {
        self.latency_critical = true;
        self
    }

    /// `true` when the proven worst-case bound exceeds the deadline:
    /// no execution of this class can ever meet its SLO.
    pub fn statically_infeasible(&self) -> bool {
        self.static_bound_us
            .is_some_and(|bound| bound > self.deadline_us)
    }

    /// Service time for a batch of `n` requests on an FPGA VF.
    pub fn fpga_batch_us(&self, n: usize) -> f64 {
        self.fpga_setup_us + n as f64 * self.fpga_us
    }

    /// Service time for a batch of `n` requests on CPU cores
    /// (sequential: the serving node dedicates one core per batch).
    pub(crate) fn cpu_batch_us(&self, n: usize) -> f64 {
        n as f64 * self.cpu_us
    }
}

/// A tenant sharing the serving cluster.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSpec {
    /// Tenant name (used in telemetry and traces).
    pub name: String,
    /// Weighted-fair-queueing weight. Service share under contention is
    /// proportional to weight; any positive weight guarantees progress.
    pub weight: f64,
    /// Token-bucket refill rate, requests per second.
    pub rate_rps: f64,
    /// Token-bucket capacity: the largest burst admitted at once.
    pub burst: f64,
}

impl TenantSpec {
    /// Creates a tenant specification.
    pub fn new(name: &str, weight: f64, rate_rps: f64, burst: f64) -> TenantSpec {
        TenantSpec {
            name: name.to_string(),
            weight,
            rate_rps,
            burst,
        }
    }
}

/// One request in flight through the serving subsystem.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Request {
    /// Trace-unique id, assigned in arrival order.
    pub id: u64,
    /// Index into the tenant table.
    pub tenant: usize,
    /// Index into the kernel-class table.
    pub class: usize,
    /// Arrival time on the virtual clock, microseconds.
    pub arrival_us: f64,
    /// Dispatch attempt, starting at zero. Incremented each time the
    /// lifecycle layer re-enqueues the request after a fault-failed
    /// batch; bounded by the retry policy's attempt cap and the
    /// tenant's retry budget.
    pub attempt: u32,
}

/// Why a request was refused service. Typed so clients (and traces)
/// can distinguish "slow down" from "queue saturated" from "too late".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// The tenant's token bucket was empty: per-tenant rate limit.
    RateLimited,
    /// The shared queue hit its depth limit: backpressure.
    QueueFull,
    /// The request's class deadline lapsed while it waited in queue;
    /// serving it would waste capacity on a response nobody wants.
    DeadlineLapsed,
    /// Static analysis proved the class's worst-case kernel latency
    /// exceeds its deadline ([`KernelClass::statically_infeasible`]):
    /// every execution would violate the SLO, so the request is
    /// refused at the door without consuming a token or a queue slot.
    StaticallyInfeasible,
    /// The adaptive concurrency limiter's door cap was hit: observed
    /// batch latency says the cluster is past its useful concurrency,
    /// so new work is backed off before the shared queue saturates.
    Overloaded,
    /// A brownout tier shed this tenant at the door: enough of the
    /// cluster is unhealthy that the lowest-weight tenants are
    /// sacrificed to keep higher-weight tenants inside their deadlines.
    Brownout,
    /// No live shard lease covers this tenant: its shard's owner is
    /// partitioned away (or the cluster has no quorum), and failover
    /// has not yet re-granted the lease. Refused at the door without
    /// consuming a token or a queue slot — serving it would risk
    /// split-brain double execution.
    PartitionedAway,
}

/// One tenant's Poisson process inside an [`ArrivalStream`], drawn
/// [`ArrivalStream::BLOCK`] arrivals ahead into inline arrays.
#[derive(Debug, Clone)]
struct TenantArrivals {
    tenant: usize,
    mean_gap_us: f64,
    rng: DetRng,
    /// The last arrival drawn: the clock the next gap is added to.
    clock_us: f64,
    /// The drawn block; entries `next..len` are still to be yielded.
    at_us: [f64; ArrivalStream::BLOCK],
    class: [usize; ArrivalStream::BLOCK],
    next: usize,
    len: usize,
    /// Set once a gap has carried the clock past the horizon: the lane
    /// draws nothing more.
    ended: bool,
}

impl TenantArrivals {
    /// Draws the lane's next block: for each arrival the gap, then the
    /// class only while the arrival falls before `horizon_us` — the
    /// draws, in the order, of drawing one arrival at a time.
    fn refill(&mut self, classes: usize, horizon_us: f64) {
        let mut len = 0;
        while len < ArrivalStream::BLOCK && !self.ended {
            // Exponential interarrival via inverse transform; the draw
            // is in [0, 1) so the argument to ln stays in (0, 1] and
            // the gap is finite and positive.
            let gap = -self.mean_gap_us * (1.0 - self.rng.next_unit()).ln();
            let at_us = self.clock_us + gap;
            if at_us < horizon_us {
                self.at_us[len] = at_us;
                self.class[len] = self.rng.index(classes);
                self.clock_us = at_us;
                len += 1;
            } else {
                self.ended = true;
            }
        }
        self.next = 0;
        self.len = len;
    }

    /// The time of the lane's next arrival; infinite once it has none.
    fn head_us(&self) -> f64 {
        if self.next < self.len {
            self.at_us[self.next]
        } else {
            f64::INFINITY
        }
    }
}

/// The lane whose head arrives first, and its head time. Each lane's
/// arrivals are already time-ordered (gaps are non-negative), and only
/// a strictly earlier head replaces the leader, so taking the earliest
/// head in tenant order yields the `(arrival_us, tenant)` order a
/// stable sort of the whole trace would give. The time is infinite when
/// every lane has ended, or there are none.
fn leader(heads: &[f64]) -> (usize, f64) {
    let mut leader = (0, f64::INFINITY);
    for (index, &at_us) in heads.iter().enumerate() {
        if at_us < leader.1 {
            leader = (index, at_us);
        }
    }
    leader
}

/// A seeded open-loop Poisson arrival process: the workload side of a
/// serving run, generated one request at a time. Open-loop means
/// arrivals do not slow down when the system saturates — exactly the
/// regime where admission control and load shedding earn their keep.
///
/// The aggregate offered load `offered_rps` is split across tenants in
/// proportion to their weights; each tenant draws exponential
/// interarrival gaps and uniform kernel classes from a substream forked
/// from its own index, so a tenant appended to the table takes its share
/// of the load and perturbs nothing else: at equal rates the other
/// tenants' arrivals are unchanged.
///
/// The stream yields the k-way merge of the tenants' processes —
/// earliest `arrival_us` first, ties to the lower tenant index — with
/// ids dense from zero in that order. It holds one generator and one
/// drawn-ahead block of at most [`ArrivalStream::BLOCK`] arrivals per
/// tenant, whatever the horizon: a lane draws its next block in one
/// tight loop when the merge has taken the last of the previous one,
/// and the merge compares one head time per lane.
///
/// A tenant with no share of the load (non-positive weight or rate)
/// yields nothing, and neither does an empty class table. The stream
/// ends only when `horizon_us` and `offered_rps` are finite and the
/// expected arrival count, `offered_rps × horizon_us / 1e6`, is small
/// enough that a gap still moves the clock: at 1e300 rps the gaps
/// vanish against it and the stream never ends.
/// [`crate::ServeConfig::validate`] checks both on the engine's behalf,
/// bounding the count by [`crate::MAX_EXPECTED_ARRIVALS`].
///
/// ```
/// use everest_serve::{ArrivalStream, KernelClass, TenantSpec};
///
/// let tenants = [TenantSpec::new("gold", 4.0, 8_000.0, 64.0)];
/// let classes = [KernelClass::new("infer", 400.0, 40.0, 120.0, 5_000.0, 4_096)];
/// let first: Vec<_> = ArrivalStream::new(7, &tenants, &classes, 50_000.0, 10_000.0)
///     .take(3)
///     .collect();
/// assert_eq!(first[2].id, 2);
/// assert!(first[0].arrival_us <= first[1].arrival_us);
/// ```
#[derive(Debug, Clone)]
pub struct ArrivalStream {
    lanes: Vec<TenantArrivals>,
    /// Each lane's next arrival time, parallel to `lanes`; infinite for
    /// a lane that has ended.
    heads: Vec<f64>,
    /// The lane [`leader`] picks from `heads`, and its head time.
    leader: usize,
    leader_us: f64,
    classes: usize,
    horizon_us: f64,
    next_id: u64,
}

impl ArrivalStream {
    /// How many arrivals a tenant lane draws ahead at once. A constant
    /// of the stream, not a setting: the stream yields the same
    /// requests at any block size.
    pub const BLOCK: usize = 32;

    /// Starts the arrival process of `tenants` over `horizon_us`.
    pub fn new(
        seed: u64,
        tenants: &[TenantSpec],
        classes: &[KernelClass],
        horizon_us: f64,
        offered_rps: f64,
    ) -> ArrivalStream {
        let total_weight: f64 = tenants.iter().map(|t| t.weight.max(0.0)).sum();
        let root = DetRng::new(seed);
        let mut lanes = Vec::with_capacity(tenants.len());
        let mut heads = Vec::with_capacity(tenants.len());
        for (index, tenant) in tenants.iter().enumerate() {
            let share = if total_weight > 0.0 {
                tenant.weight.max(0.0) / total_weight
            } else {
                1.0 / tenants.len() as f64
            };
            let rate_rps = offered_rps * share;
            if rate_rps <= 0.0 || classes.is_empty() {
                continue;
            }
            let mut lane = TenantArrivals {
                tenant: index,
                mean_gap_us: 1.0e6 / rate_rps,
                rng: root.fork(0x5E21_u64.wrapping_add(index as u64)),
                clock_us: 0.0,
                at_us: [0.0; ArrivalStream::BLOCK],
                class: [0; ArrivalStream::BLOCK],
                next: 0,
                len: 0,
                ended: false,
            };
            lane.refill(classes.len(), horizon_us);
            heads.push(lane.head_us());
            lanes.push(lane);
        }
        let (leader, leader_us) = leader(&heads);
        ArrivalStream {
            lanes,
            heads,
            leader,
            leader_us,
            classes: classes.len(),
            horizon_us,
            next_id: 0,
        }
    }

    /// The arrival time of the request [`Iterator::next`] yields next,
    /// or `None` once the stream has ended.
    pub(crate) fn peek_us(&self) -> Option<f64> {
        (self.leader_us < f64::INFINITY).then_some(self.leader_us)
    }
}

impl Iterator for ArrivalStream {
    type Item = Request;

    fn next(&mut self) -> Option<Request> {
        let arrival_us = self.peek_us()?;
        let lane = &mut self.lanes[self.leader];
        let class = lane.class[lane.next];
        lane.next += 1;
        if lane.next == lane.len {
            lane.refill(self.classes, self.horizon_us);
        }
        let tenant = lane.tenant;
        self.heads[self.leader] = lane.head_us();
        (self.leader, self.leader_us) = leader(&self.heads);
        let request = Request {
            id: self.next_id,
            tenant,
            class,
            arrival_us,
            attempt: 0,
        };
        self.next_id += 1;
        Some(request)
    }
}

/// An [`ArrivalStream`] run to its horizon and kept: the whole trace in
/// arrival order, for callers that replay or inspect it. The engine
/// does not build one — it consumes the stream as it goes.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrivalTrace {
    requests: Vec<Request>,
}

impl ArrivalTrace {
    /// Collects the [`ArrivalStream`] of the same arguments.
    pub fn synthesize(
        seed: u64,
        tenants: &[TenantSpec],
        classes: &[KernelClass],
        horizon_us: f64,
        offered_rps: f64,
    ) -> ArrivalTrace {
        ArrivalTrace {
            requests: ArrivalStream::new(seed, tenants, classes, horizon_us, offered_rps).collect(),
        }
    }

    /// The requests in arrival order.
    pub fn requests(&self) -> &[Request] {
        &self.requests
    }

    /// Number of requests in the trace.
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// True when the trace holds no requests.
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tenants() -> Vec<TenantSpec> {
        vec![
            TenantSpec::new("gold", 4.0, 8000.0, 64.0),
            TenantSpec::new("bronze", 1.0, 2000.0, 16.0),
        ]
    }

    fn classes() -> Vec<KernelClass> {
        vec![KernelClass::new("infer", 400.0, 40.0, 120.0, 5_000.0, 4096)]
    }

    #[test]
    fn trace_is_deterministic_and_sorted() {
        let a = ArrivalTrace::synthesize(7, &tenants(), &classes(), 50_000.0, 10_000.0);
        let b = ArrivalTrace::synthesize(7, &tenants(), &classes(), 50_000.0, 10_000.0);
        assert_eq!(a, b);
        assert!(!a.is_empty());
        for pair in a.requests().windows(2) {
            assert!(pair[0].arrival_us <= pair[1].arrival_us);
            assert!(pair[0].id < pair[1].id);
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let a = ArrivalTrace::synthesize(1, &tenants(), &classes(), 50_000.0, 10_000.0);
        let b = ArrivalTrace::synthesize(2, &tenants(), &classes(), 50_000.0, 10_000.0);
        assert_ne!(a, b);
    }

    #[test]
    fn load_split_follows_weights() {
        let trace = ArrivalTrace::synthesize(3, &tenants(), &classes(), 400_000.0, 10_000.0);
        let gold = trace.requests().iter().filter(|r| r.tenant == 0).count() as f64;
        let bronze = trace.requests().iter().filter(|r| r.tenant == 1).count() as f64;
        // 4:1 weights; Poisson noise keeps it from being exact.
        let ratio = gold / bronze.max(1.0);
        assert!((2.5..6.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn rate_scales_request_count() {
        let low = ArrivalTrace::synthesize(5, &tenants(), &classes(), 100_000.0, 2_000.0);
        let high = ArrivalTrace::synthesize(5, &tenants(), &classes(), 100_000.0, 20_000.0);
        assert!(high.len() > 5 * low.len());
    }

    #[test]
    fn a_table_without_classes_or_load_yields_nothing() {
        assert!(ArrivalTrace::synthesize(7, &tenants(), &[], 50_000.0, 10_000.0).is_empty());
        assert!(ArrivalTrace::synthesize(7, &tenants(), &classes(), 50_000.0, 0.0).is_empty());
        assert!(ArrivalTrace::synthesize(7, &[], &classes(), 50_000.0, 10_000.0).is_empty());
    }

    /// Seeded streams never tie (the gaps are continuous draws), so the
    /// merge's tie rule is pinned on hand-made head arrays. An ended
    /// lane's head is infinite; with every lane ended, or none, the
    /// leader's time is infinite and its index means nothing.
    #[test]
    fn ties_go_to_the_lower_tenant_index() {
        const ENDED: f64 = f64::INFINITY;
        assert_eq!(leader(&[5.0, 3.0, 3.0]), (1, 3.0));
        assert_eq!(leader(&[3.0, 3.0, 1.0]), (2, 1.0));
        assert_eq!(leader(&[ENDED, 2.0, 2.0]), (1, 2.0));
        assert_eq!(leader(&[4.0, ENDED, 4.0]), (0, 4.0));
        assert_eq!(leader(&[ENDED, ENDED]).1, ENDED);
        assert_eq!(leader(&[]).1, ENDED);
    }

    #[test]
    fn batch_cost_amortises_setup() {
        let class = &classes()[0];
        assert!(class.fpga_batch_us(8) < 8.0 * class.fpga_batch_us(1));
        assert_eq!(class.cpu_batch_us(2), 800.0);
    }
}
