//! What a serving run is configured with, and why a configuration may
//! be refused before the run starts.

use everest_health::HealthConfig;

use crate::admission::AdmissionConfig;
use crate::batcher::BatchPolicy;
use crate::lifecycle::LifecycleConfig;
use crate::request::{ClassKind, KernelClass, TenantSpec};

/// Full configuration of a serving run.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// Seed for the arrival trace and every derived substream.
    pub seed: u64,
    /// Cluster size; the second half of the nodes carry FPGAs, and
    /// every node has four CPU cores.
    pub nodes: usize,
    /// The tenants sharing the cluster.
    pub tenants: Vec<TenantSpec>,
    /// The kernel classes requests may target.
    pub classes: Vec<KernelClass>,
    /// Per-class batching policy (parallel to `classes`).
    pub batch: Vec<BatchPolicy>,
    /// Admission knobs.
    pub admission: AdmissionConfig,
    /// Aggregate offered load, requests per second (split across
    /// tenants by weight).
    pub offered_rps: f64,
    /// Arrival horizon on the virtual clock, microseconds. The run
    /// itself continues past the horizon until the backlog drains.
    pub horizon_us: f64,
    /// Whether the per-class autotuners retune the batch ceiling.
    pub autotune: bool,
    /// Health-monitor tuning (gray-failure conviction thresholds).
    pub health: HealthConfig,
    /// Request-lifecycle robustness features (retry budgets, hedged
    /// dispatch, adaptive concurrency, brownout tiers). All default
    /// off.
    pub lifecycle: LifecycleConfig,
    /// Partition-tolerant cluster membership: gossip failure
    /// detection, lease-based shard ownership and fenced failover.
    /// `None` (the default) runs the engine exactly as before — no
    /// gossip events, no ownership gate, no fencing.
    pub cluster: Option<ClusterConfig>,
}

/// The switch of the membership layer ([`ServeConfig::cluster`]). The
/// layer has nothing to choose: its gossip cadence, timeouts, lease TTL
/// and ring sizes are constants of `everest-cluster`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClusterConfig;

impl Default for ServeConfig {
    /// A 4-node (2 CPU + 2 FPGA) cluster serving three weighted
    /// tenants (gold 4×, silver 2×, bronze 1×) with two kernel
    /// classes, 10 000 rps offered over a 200 ms horizon.
    fn default() -> ServeConfig {
        ServeConfig {
            seed: 42,
            nodes: 4,
            tenants: vec![
                TenantSpec::new("gold", 4.0, 8_000.0, 64.0),
                TenantSpec::new("silver", 2.0, 4_000.0, 32.0),
                TenantSpec::new("bronze", 1.0, 2_000.0, 16.0),
            ],
            classes: vec![
                KernelClass::new("infer", 400.0, 40.0, 120.0, 5_000.0, 4_096),
                KernelClass::new("analytics", 1_600.0, 160.0, 320.0, 20_000.0, 16_384)
                    .with_kind(ClassKind::Analytics),
            ],
            batch: vec![BatchPolicy::new(8, 400.0), BatchPolicy::new(8, 800.0)],
            admission: AdmissionConfig::default(),
            offered_rps: 10_000.0,
            horizon_us: 200_000.0,
            autotune: true,
            health: HealthConfig::default(),
            lifecycle: LifecycleConfig::default(),
            cluster: None,
        }
    }
}

/// The most arrivals a campaign may expect, `offered_rps × horizon_us /
/// 1e6`: 2^24, the bound EKL puts on an evaluated volume. It is far
/// above the benchmark's door-bound campaign (about 100 000 arrivals)
/// and the largest the `basecamp serve` flags allow (1.28 M), and it
/// bounds how long a run spends drawing arrivals: a campaign past it
/// would run for minutes, and one whose gaps vanish against the clock
/// would never end.
pub const MAX_EXPECTED_ARRIVALS: f64 = 16_777_216.0;

/// Why a [`ServeConfig`] cannot be run; see [`ServeConfig::validate`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ServeConfigError {
    /// `nodes` is zero: nothing can serve.
    NoNodes,
    /// `tenants` is empty: nobody offers load.
    NoTenants,
    /// `classes` is empty: a request has no kernel class to target.
    NoClasses,
    /// `batch` is not parallel to `classes`.
    BatchPolicies {
        /// `classes.len()`.
        classes: usize,
        /// `batch.len()`.
        policies: usize,
    },
    /// `horizon_us` is not a finite, positive time: arrivals are drawn
    /// until the horizon, so the run would have no work or no end.
    Horizon(f64),
    /// `offered_rps` is not a finite, non-negative rate (zero is valid:
    /// a run with no arrivals).
    OfferedRate(f64),
    /// A tenant's weight is not finite, so its share of the load is
    /// not a number.
    TenantWeight {
        /// Index into `tenants`.
        tenant: usize,
        /// The weight.
        weight: f64,
    },
    /// The campaign expects more than [`MAX_EXPECTED_ARRIVALS`]
    /// arrivals; the value is `offered_rps × horizon_us / 1e6`.
    ExpectedArrivals(f64),
}

impl std::fmt::Display for ServeConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeConfigError::NoNodes => write!(f, "serving needs at least one node"),
            ServeConfigError::NoTenants => write!(f, "serving needs at least one tenant"),
            ServeConfigError::NoClasses => write!(f, "serving needs at least one kernel class"),
            ServeConfigError::BatchPolicies { classes, policies } => write!(
                f,
                "one batch policy per kernel class: {classes} classes, {policies} policies"
            ),
            ServeConfigError::Horizon(us) => write!(
                f,
                "the arrival horizon must be finite and positive, got {us} us"
            ),
            ServeConfigError::OfferedRate(rps) => write!(
                f,
                "the offered load must be finite and not negative, got {rps} rps"
            ),
            ServeConfigError::TenantWeight { tenant, weight } => {
                write!(f, "tenant {tenant}'s weight must be finite, got {weight}")
            }
            ServeConfigError::ExpectedArrivals(count) => write!(
                f,
                "the campaign expects {count} arrivals, more than the {MAX_EXPECTED_ARRIVALS} \
                 a campaign may offer"
            ),
        }
    }
}

impl std::error::Error for ServeConfigError {}

impl ServeConfig {
    /// Checks that the configuration describes a run that can start
    /// and will end. [`crate::ServeEngine::run`] refuses any other.
    pub fn validate(&self) -> Result<(), ServeConfigError> {
        if self.nodes == 0 {
            return Err(ServeConfigError::NoNodes);
        }
        if self.tenants.is_empty() {
            return Err(ServeConfigError::NoTenants);
        }
        if self.classes.is_empty() {
            return Err(ServeConfigError::NoClasses);
        }
        if self.batch.len() != self.classes.len() {
            return Err(ServeConfigError::BatchPolicies {
                classes: self.classes.len(),
                policies: self.batch.len(),
            });
        }
        if !(self.horizon_us.is_finite() && self.horizon_us > 0.0) {
            return Err(ServeConfigError::Horizon(self.horizon_us));
        }
        if !(self.offered_rps.is_finite() && self.offered_rps >= 0.0) {
            return Err(ServeConfigError::OfferedRate(self.offered_rps));
        }
        if let Some((tenant, spec)) =
            (self.tenants.iter().enumerate()).find(|(_, t)| !t.weight.is_finite())
        {
            return Err(ServeConfigError::TenantWeight {
                tenant,
                weight: spec.weight,
            });
        }
        let expected = self.offered_rps * self.horizon_us / 1.0e6;
        if expected > MAX_EXPECTED_ARRIVALS {
            return Err(ServeConfigError::ExpectedArrivals(expected));
        }
        Ok(())
    }
}
