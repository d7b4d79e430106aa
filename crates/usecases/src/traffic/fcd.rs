//! The floating-car-data generator (paper §II-D: FCD from navigation
//! devices).
//!
//! Trajectories follow random walks over the network at profile speeds;
//! GPS samples are sparse (one every `sample_every_m` meters) and noisy
//! — the input the HMM map matcher must untangle.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use super::network::{Point, RoadNetwork};

/// One GPS sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpsSample {
    /// Observed position (noisy).
    pub position: Point,
    /// Hour of day at observation.
    pub hour: f64,
}

/// A generated trajectory: ground-truth path plus noisy samples.
#[derive(Debug, Clone)]
pub struct Trajectory {
    /// Ground-truth segment ids in travel order.
    pub true_segments: Vec<usize>,
    /// Noisy, sparse GPS observations.
    pub samples: Vec<GpsSample>,
}

/// FCD generator configuration.
#[derive(Debug, Clone, Copy)]
pub struct FcdConfig {
    /// Segments per trajectory.
    pub hops: usize,
    /// GPS noise standard deviation in meters.
    pub gps_noise_m: f64,
    /// Distance between samples in meters.
    pub sample_every_m: f64,
    /// Start hour of day.
    pub start_hour: f64,
}

impl Default for FcdConfig {
    fn default() -> Self {
        FcdConfig {
            hops: 8,
            gps_noise_m: 25.0,
            sample_every_m: 60.0,
            start_hour: 8.0,
        }
    }
}

/// Generates `count` trajectories.
pub fn generate_trajectories(
    net: &RoadNetwork,
    config: FcdConfig,
    count: usize,
    seed: u64,
) -> Vec<Trajectory> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| generate_one(net, &config, &mut rng))
        .collect()
}

fn generate_one(net: &RoadNetwork, config: &FcdConfig, rng: &mut StdRng) -> Trajectory {
    let mut node = rng.random_range(0..net.nodes.len());
    let mut segments = Vec::with_capacity(config.hops);
    let mut samples = Vec::new();
    let mut hour = config.start_hour;
    let mut prev_node: Option<usize> = None;
    for _ in 0..config.hops {
        let outgoing = net.outgoing(node);
        // avoid immediate U-turns when possible
        let forward: Vec<_> = outgoing
            .iter()
            .filter(|s| Some(s.to) != prev_node)
            .collect();
        let pick = if forward.is_empty() {
            outgoing[rng.random_range(0..outgoing.len())]
        } else {
            forward[rng.random_range(0..forward.len())]
        };
        segments.push(pick.id);
        // emit samples along the segment
        let a = net.nodes[pick.from];
        let b = net.nodes[pick.to];
        let mut travelled = 0.0;
        while travelled < pick.length_m {
            let t = travelled / pick.length_m;
            let position = Point {
                x: a.x + t * (b.x - a.x) + gaussian(rng) * config.gps_noise_m,
                y: a.y + t * (b.y - a.y) + gaussian(rng) * config.gps_noise_m,
            };
            samples.push(GpsSample { position, hour });
            travelled += config.sample_every_m;
        }
        // advance the clock at the segment's profile speed
        let speed_kmh = pick.speed_at(hour).max(5.0);
        hour += pick.length_m / 1000.0 / speed_kmh;
        prev_node = Some(pick.from);
        node = pick.to;
    }
    Trajectory {
        true_segments: segments,
        samples,
    }
}

fn gaussian(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.random_range(1e-12..1.0);
    let u2: f64 = rng.random_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trajectories_are_connected_and_sampled() {
        let net = RoadNetwork::grid(6, 6, 100.0);
        let trajectories = generate_trajectories(&net, FcdConfig::default(), 10, 42);
        assert_eq!(trajectories.len(), 10);
        for t in &trajectories {
            assert_eq!(t.true_segments.len(), 8);
            assert!(!t.samples.is_empty());
            // consecutive segments connect
            for w in t.true_segments.windows(2) {
                let a = &net.segments[w[0]];
                let b = &net.segments[w[1]];
                assert_eq!(a.to, b.from, "path must be connected");
            }
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let net = RoadNetwork::grid(5, 5, 100.0);
        let a = generate_trajectories(&net, FcdConfig::default(), 3, 9);
        let b = generate_trajectories(&net, FcdConfig::default(), 3, 9);
        assert_eq!(a[0].true_segments, b[0].true_segments);
        assert_eq!(a[2].samples, b[2].samples);
    }

    #[test]
    fn noise_controls_scatter() {
        let net = RoadNetwork::grid(5, 5, 100.0);
        let clean = generate_trajectories(
            &net,
            FcdConfig {
                gps_noise_m: 0.0,
                ..FcdConfig::default()
            },
            1,
            3,
        );
        // clean samples lie on their true segment
        let t = &clean[0];
        for s in &t.samples {
            let best = net.nearest_segments(&s.position, 1)[0].1;
            assert!(best < 1.0, "clean sample {best} m off-road");
        }
    }
}
