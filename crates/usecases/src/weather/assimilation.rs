//! Station observations, the input of the WRFDA role (paper §II-A):
//! noisy surface temperatures drawn from a "truth" state. The
//! assimilation that would ingest them is not reproduced.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use super::grid::State;

/// One surface observation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Observation {
    /// Grid column of the station.
    pub i: usize,
    /// Grid row of the station.
    pub j: usize,
    /// Observed 2 m temperature (K).
    pub temp: f64,
    /// Observation error standard deviation (K).
    pub sigma: f64,
}

/// Draws noisy observations of a "truth" state at `n` pseudo-random
/// station locations.
pub fn observe_truth(truth: &State, n: usize, sigma: f64, seed: u64) -> Vec<Observation> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let i = rng.random_range(0..truth.temp.nx);
            let j = rng.random_range(0..truth.temp.ny);
            let noise: f64 = {
                let u1: f64 = rng.random_range(1e-12..1.0);
                let u2: f64 = rng.random_range(0.0..1.0);
                (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::TAU * u2 / 2.0).cos()
            };
            Observation {
                i,
                j,
                temp: truth.temp.at(i as isize, j as isize) + sigma * noise,
                sigma,
            }
        })
        .collect()
}
