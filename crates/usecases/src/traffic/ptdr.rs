//! Probabilistic Time-Dependent Routing (paper §II-D, §VIII): Monte
//! Carlo travel-time distributions over a route whose per-segment speeds
//! are stochastic and time-of-day dependent. This is the kernel the
//! project ran on Alveo u55c nodes; the benches compare the CPU
//! implementation against its FPGA system model.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use super::network::{RoadNetwork, Segment};

/// A route: ordered segment ids.
#[derive(Debug, Clone, PartialEq)]
pub struct Route {
    /// Segment ids in travel order.
    pub segments: Vec<usize>,
}

/// Summary of a Monte Carlo travel-time experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct TravelTimeDistribution {
    /// Samples in minutes, sorted ascending.
    pub samples_min: Vec<f64>,
}

impl TravelTimeDistribution {
    /// Mean travel time (minutes).
    pub fn mean(&self) -> f64 {
        self.samples_min.iter().sum::<f64>() / self.samples_min.len().max(1) as f64
    }

    /// Quantile in \[0, 1\].
    pub fn quantile(&self, q: f64) -> f64 {
        if self.samples_min.is_empty() {
            return 0.0;
        }
        let pos = (q.clamp(0.0, 1.0) * (self.samples_min.len() - 1) as f64).round() as usize;
        self.samples_min[pos]
    }

    /// Probability of arriving within `minutes`.
    pub fn on_time_probability(&self, minutes: f64) -> f64 {
        if self.samples_min.is_empty() {
            return 0.0;
        }
        let within = self.samples_min.iter().filter(|&&t| t <= minutes).count();
        within as f64 / self.samples_min.len() as f64
    }
}

/// Builds a route of `hops` segments starting from `start_node`,
/// following a deterministic eastward-then-southward pattern.
pub fn build_route(net: &RoadNetwork, start_node: usize, hops: usize) -> Route {
    let mut segments = Vec::with_capacity(hops);
    let mut node = start_node;
    let mut prev: Option<usize> = None;
    for k in 0..hops {
        let outgoing = net.outgoing(node);
        // alternate preference: east (x increasing) then south, avoiding
        // immediate backtracking.
        let pick = outgoing
            .iter()
            .filter(|s| Some(s.to) != prev)
            .min_by_key(|s| {
                let a = net.nodes[s.from];
                let b = net.nodes[s.to];
                let eastness = if b.x > a.x { 0 } else { 2 };
                let southness = if b.y > a.y { 1 } else { 3 };
                if k % 2 == 0 {
                    eastness
                } else {
                    southness
                }
            })
            .or_else(|| outgoing.first())
            .expect("grid nodes always have outgoing segments");
        segments.push(pick.id);
        prev = Some(pick.from);
        node = pick.to;
    }
    Route { segments }
}

/// One Monte Carlo sample of the route travel time, departing at
/// `depart_hour`. Speeds are drawn per segment from the interval's
/// `N(mean, std)` truncated at 3 km/h; the clock advances so later
/// segments see later (possibly more congested) intervals — the
/// *time-dependent* part of PTDR.
pub(crate) fn sample_travel_time(
    net: &RoadNetwork,
    route: &Route,
    depart_hour: f64,
    rng: &mut StdRng,
) -> f64 {
    let mut hour = depart_hour;
    let mut total_min = 0.0;
    for &seg_id in &route.segments {
        let segment = &net.segments[seg_id];
        let k = Segment::interval_of(hour);
        let mean = segment.speed_profile[k];
        let std = segment.speed_std[k];
        let u1: f64 = rng.random_range(1e-12..1.0);
        let u2: f64 = rng.random_range(0.0..1.0);
        let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        let speed = (mean + z * std).max(3.0);
        let minutes = segment.length_m / 1000.0 / speed * 60.0;
        total_min += minutes;
        hour += minutes / 60.0;
    }
    total_min
}

/// Runs the PTDR Monte Carlo: `samples` independent traversals.
pub fn monte_carlo(
    net: &RoadNetwork,
    route: &Route,
    depart_hour: f64,
    samples: usize,
    seed: u64,
) -> TravelTimeDistribution {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out: Vec<f64> = (0..samples)
        .map(|_| sample_travel_time(net, route, depart_hour, &mut rng))
        .collect();
    out.sort_by(|a, b| a.partial_cmp(b).expect("times are finite"));
    TravelTimeDistribution { samples_min: out }
}

/// The FPGA work estimate for one PTDR invocation: each sample×segment
/// needs a gaussian draw (2 flops-heavy ops) plus the division — about
/// 12 cycles on the pipelined kernel at II=1 per segment-sample, so
/// `samples * segments + pipeline depth` cycles.
pub fn fpga_cycles(route: &Route, samples: usize) -> u64 {
    (samples as u64) * (route.segments.len() as u64) + 64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (RoadNetwork, Route) {
        let net = RoadNetwork::grid(10, 10, 100.0);
        let route = build_route(&net, 0, 30);
        (net, route)
    }

    #[test]
    fn route_is_connected() {
        let (net, route) = setup();
        assert_eq!(route.segments.len(), 30);
        for w in route.segments.windows(2) {
            assert_eq!(net.segments[w[0]].to, net.segments[w[1]].from);
        }
    }

    #[test]
    fn distribution_statistics_are_consistent() {
        let (net, route) = setup();
        let dist = monte_carlo(&net, &route, 8.0, 2000, 42);
        assert_eq!(dist.samples_min.len(), 2000);
        let mean = dist.mean();
        let p10 = dist.quantile(0.10);
        let p50 = dist.quantile(0.50);
        let p95 = dist.quantile(0.95);
        assert!(p10 <= p50 && p50 <= p95, "{p10} {p50} {p95}");
        assert!(mean > p10 * 0.8 && mean < p95);
        assert!(
            (dist.on_time_probability(p95) - 0.95).abs() < 0.02,
            "on-time at p95 should be ~95%"
        );
        // 3 km at city speeds: between 2 and 40 minutes
        assert!((2.0..40.0).contains(&p50), "median {p50} minutes");
    }

    #[test]
    fn rush_hour_departures_take_longer() {
        let (net, route) = setup();
        let night = monte_carlo(&net, &route, 3.0, 1500, 7);
        let rush = monte_carlo(&net, &route, 8.0, 1500, 7);
        assert!(
            rush.mean() > night.mean() * 1.2,
            "rush {:.2} vs night {:.2}",
            rush.mean(),
            night.mean()
        );
    }

    #[test]
    fn monte_carlo_is_deterministic_per_seed() {
        let (net, route) = setup();
        let a = monte_carlo(&net, &route, 8.0, 200, 5);
        let b = monte_carlo(&net, &route, 8.0, 200, 5);
        assert_eq!(a, b);
        let c = monte_carlo(&net, &route, 8.0, 200, 6);
        assert_ne!(a, c);
    }

    #[test]
    fn more_samples_stabilize_the_mean() {
        let (net, route) = setup();
        let small_a = monte_carlo(&net, &route, 8.0, 50, 1).mean();
        let small_b = monte_carlo(&net, &route, 8.0, 50, 2).mean();
        let large_a = monte_carlo(&net, &route, 8.0, 5000, 1).mean();
        let large_b = monte_carlo(&net, &route, 8.0, 5000, 2).mean();
        assert!(
            (large_a - large_b).abs() <= (small_a - small_b).abs() + 0.05,
            "large-sample means must agree better"
        );
    }

    #[test]
    fn fpga_cycles_scale_linearly() {
        let (_, route) = setup();
        assert_eq!(
            fpga_cycles(&route, 2000) - 64,
            (fpga_cycles(&route, 1000) - 64) * 2
        );
    }
}
