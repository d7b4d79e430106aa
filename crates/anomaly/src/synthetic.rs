//! Synthetic labelled streams for evaluating the service.
//!
//! The paper's use cases feed sensor-like time series (weather station
//! data, traffic counts). The generator produces multivariate normal
//! "background" behaviour with injected anomalies of three shapes:
//! point outliers, correlation breaks and level shifts.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::dataset::Dataset;

/// A labelled dataset: `labels[i]` is `true` for injected anomalies.
#[derive(Debug, Clone)]
pub struct LabelledData {
    /// Feature rows.
    pub data: Dataset,
    /// Ground-truth anomaly labels.
    pub labels: Vec<bool>,
}

/// Generator parameters.
#[derive(Debug, Clone, Copy)]
pub struct StreamConfig {
    /// Number of rows.
    pub rows: usize,
    /// Feature dimensionality (>= 2).
    pub dims: usize,
    /// Fraction of anomalies in (0, 0.5).
    pub contamination: f64,
    /// Anomaly magnitude in standard deviations.
    pub magnitude: f64,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            rows: 600,
            dims: 4,
            contamination: 0.05,
            magnitude: 6.0,
        }
    }
}

/// Generates a labelled stream (deterministic per seed).
pub fn generate(config: StreamConfig, seed: u64) -> LabelledData {
    let mut rng = StdRng::seed_from_u64(seed);
    let dims = config.dims.max(2);
    let mut rows = Vec::with_capacity(config.rows);
    let mut labels = Vec::with_capacity(config.rows);
    for i in 0..config.rows {
        // Correlated background: x0 drives the others with noise.
        let base: f64 = gaussian(&mut rng);
        let mut row: Vec<f64> = (0..dims)
            .map(|j| {
                if j == 0 {
                    base
                } else {
                    0.8 * base + 0.4 * gaussian(&mut rng) + j as f64 * 0.1
                }
            })
            .collect();
        let is_anomaly = rng.random_range(0.0..1.0) < config.contamination;
        if is_anomaly {
            match i % 3 {
                // point outlier in one feature
                0 => {
                    let j = rng.random_range(0..dims);
                    row[j] += config.magnitude
                        * if rng.random_range(0.0..1.0) < 0.5 {
                            1.0
                        } else {
                            -1.0
                        };
                }
                // correlation break: flip a driven feature
                1 => {
                    let j = 1 + rng.random_range(0..dims - 1);
                    row[j] = -row[j] + config.magnitude * 0.5;
                }
                // level shift across all features
                _ => {
                    for v in &mut row {
                        *v += config.magnitude * 0.6;
                    }
                }
            }
        }
        rows.push(row);
        labels.push(is_anomaly);
    }
    LabelledData {
        data: Dataset::from_rows(rows),
        labels,
    }
}

fn gaussian(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.random_range(1e-12..1.0);
    let u2: f64 = rng.random_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Precision/recall/F1 of predictions against labels.
pub fn f1_score(labels: &[bool], predictions: &[bool]) -> (f64, f64, f64) {
    let mut tp = 0.0;
    let mut fp = 0.0;
    let mut fn_ = 0.0;
    for (&l, &p) in labels.iter().zip(predictions) {
        match (l, p) {
            (true, true) => tp += 1.0,
            (false, true) => fp += 1.0,
            (true, false) => fn_ += 1.0,
            (false, false) => {}
        }
    }
    let precision = if tp + fp > 0.0 { tp / (tp + fp) } else { 0.0 };
    let recall = if tp + fn_ > 0.0 { tp / (tp + fn_) } else { 0.0 };
    let f1 = if precision + recall > 0.0 {
        2.0 * precision * recall / (precision + recall)
    } else {
        0.0
    };
    (precision, recall, f1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_and_labelled() {
        let a = generate(StreamConfig::default(), 42);
        let b = generate(StreamConfig::default(), 42);
        assert_eq!(a.data, b.data);
        assert_eq!(a.labels, b.labels);
        let anomalies = a.labels.iter().filter(|&&l| l).count();
        let frac = anomalies as f64 / a.labels.len() as f64;
        assert!((0.02..0.10).contains(&frac), "got {frac}");
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate(StreamConfig::default(), 1);
        let b = generate(StreamConfig::default(), 2);
        assert_ne!(a.data, b.data);
    }

    #[test]
    fn f1_math() {
        let labels = [true, true, false, false];
        let perfect = [true, true, false, false];
        assert_eq!(f1_score(&labels, &perfect).2, 1.0);
        let all_negative = [false, false, false, false];
        assert_eq!(f1_score(&labels, &all_negative).2, 0.0);
        let half = [true, false, false, false];
        let (p, r, f1) = f1_score(&labels, &half);
        assert_eq!(p, 1.0);
        assert_eq!(r, 0.5);
        assert!((f1 - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn anomalies_are_separable_by_a_good_detector() {
        use crate::detectors::{Detector, Mahalanobis};
        let stream = generate(StreamConfig::default(), 7);
        // Fit on the normal subset (idealized training).
        let normal = Dataset::from_rows(
            stream
                .data
                .rows
                .iter()
                .zip(&stream.labels)
                .filter(|(_, &l)| !l)
                .map(|(r, _)| r.clone())
                .collect(),
        );
        let det = Mahalanobis::fit(&normal, 1e-6, 0.05);
        let predictions: Vec<bool> = stream
            .data
            .rows
            .iter()
            .map(|r| det.is_anomalous(r))
            .collect();
        let (_, _, f1) = f1_score(&stream.labels, &predictions);
        assert!(f1 > 0.6, "synthetic anomalies must be detectable, F1 {f1}");
    }
}
