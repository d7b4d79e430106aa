//! The detector zoo: six anomaly-detection model families.
//!
//! All detectors implement [`Detector`]: fit on (assumed mostly normal)
//! data, then produce a score per point where *higher = more anomalous*,
//! and a threshold-based decision. The AutoML node (§VII) searches over
//! these families and their hyperparameters.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::dataset::Dataset;

/// A fitted anomaly detector.
pub trait Detector: Send + Sync + std::fmt::Debug {
    /// Anomaly score of one point (higher = more anomalous).
    fn score(&self, point: &[f64]) -> f64;

    /// Decision threshold calibrated at fit time.
    fn threshold(&self) -> f64;

    /// Whether the point is flagged anomalous.
    fn is_anomalous(&self, point: &[f64]) -> bool {
        self.score(point) > self.threshold()
    }

    /// Family name.
    fn name(&self) -> &'static str;
}

/// Calibrates a threshold as the `1 - contamination` quantile of the
/// training scores.
fn calibrate(scores: &mut [f64], contamination: f64) -> f64 {
    if scores.is_empty() {
        return f64::INFINITY;
    }
    scores.sort_by(|a, b| a.partial_cmp(b).expect("scores are not NaN"));
    let q = (1.0 - contamination.clamp(0.001, 0.5)).clamp(0.0, 1.0);
    let idx = ((scores.len() - 1) as f64 * q).round() as usize;
    scores[idx]
}

// ---------------------------------------------------------------------------
// z-score
// ---------------------------------------------------------------------------

/// Per-feature z-score detector: score = max |z| across features.
#[derive(Debug, Clone)]
pub struct ZScore {
    mean: Vec<f64>,
    std: Vec<f64>,
    threshold: f64,
}

impl ZScore {
    /// Fits on data with the given contamination rate.
    pub fn fit(data: &Dataset, contamination: f64) -> ZScore {
        let d = data.dims();
        let n = data.len().max(1) as f64;
        let mut mean = vec![0.0; d];
        for row in &data.rows {
            for (m, v) in mean.iter_mut().zip(row) {
                *m += v / n;
            }
        }
        let mut std = vec![0.0; d];
        for row in &data.rows {
            for ((s, v), m) in std.iter_mut().zip(row).zip(&mean) {
                *s += (v - m).powi(2) / n;
            }
        }
        for s in &mut std {
            *s = s.sqrt().max(1e-12);
        }
        let mut det = ZScore {
            mean,
            std,
            threshold: 0.0,
        };
        let mut scores: Vec<f64> = data.rows.iter().map(|r| det.score(r)).collect();
        det.threshold = calibrate(&mut scores, contamination);
        det
    }
}

impl Detector for ZScore {
    fn score(&self, point: &[f64]) -> f64 {
        point
            .iter()
            .zip(&self.mean)
            .zip(&self.std)
            .map(|((v, m), s)| ((v - m) / s).abs())
            .fold(0.0, f64::max)
    }

    fn threshold(&self) -> f64 {
        self.threshold
    }

    fn name(&self) -> &'static str {
        "zscore"
    }
}

// ---------------------------------------------------------------------------
// IQR fences
// ---------------------------------------------------------------------------

/// Interquartile-range fence detector.
#[derive(Debug, Clone)]
pub struct IqrFence {
    low: Vec<f64>,
    high: Vec<f64>,
    iqr: Vec<f64>,
    threshold: f64,
}

impl IqrFence {
    /// Fits with fence multiplier `k` (1.5 is Tukey's classic).
    pub fn fit(data: &Dataset, k: f64, contamination: f64) -> IqrFence {
        let d = data.dims();
        let mut low = vec![0.0; d];
        let mut high = vec![0.0; d];
        let mut iqr = vec![1.0; d];
        for j in 0..d {
            let mut col = data.column(j);
            col.sort_by(|a, b| a.partial_cmp(b).expect("values are not NaN"));
            let q1 = quantile(&col, 0.25);
            let q3 = quantile(&col, 0.75);
            let range = (q3 - q1).max(1e-12);
            low[j] = q1 - k * range;
            high[j] = q3 + k * range;
            iqr[j] = range;
        }
        let mut det = IqrFence {
            low,
            high,
            iqr,
            threshold: 0.0,
        };
        let mut scores: Vec<f64> = data.rows.iter().map(|r| det.score(r)).collect();
        det.threshold = calibrate(&mut scores, contamination).max(1e-9);
        det
    }
}

fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    sorted[lo] * (1.0 - frac) + sorted[hi] * frac
}

impl Detector for IqrFence {
    fn score(&self, point: &[f64]) -> f64 {
        point
            .iter()
            .enumerate()
            .map(|(j, v)| {
                if *v < self.low[j] {
                    (self.low[j] - v) / self.iqr[j]
                } else if *v > self.high[j] {
                    (v - self.high[j]) / self.iqr[j]
                } else {
                    0.0
                }
            })
            .fold(0.0, f64::max)
    }

    fn threshold(&self) -> f64 {
        self.threshold
    }

    fn name(&self) -> &'static str {
        "iqr"
    }
}

// ---------------------------------------------------------------------------
// Mahalanobis distance
// ---------------------------------------------------------------------------

/// Mahalanobis-distance detector with ridge-regularized covariance.
#[derive(Debug, Clone)]
pub struct Mahalanobis {
    mean: Vec<f64>,
    inv_cov: Vec<Vec<f64>>,
    threshold: f64,
}

impl Mahalanobis {
    /// Fits with ridge term `ridge` added to the covariance diagonal.
    pub fn fit(data: &Dataset, ridge: f64, contamination: f64) -> Mahalanobis {
        let d = data.dims();
        let n = data.len().max(1) as f64;
        let mut mean = vec![0.0; d];
        for row in &data.rows {
            for (m, v) in mean.iter_mut().zip(row) {
                *m += v / n;
            }
        }
        let mut cov = vec![vec![0.0; d]; d];
        for row in &data.rows {
            for i in 0..d {
                for j in 0..d {
                    cov[i][j] += (row[i] - mean[i]) * (row[j] - mean[j]) / n;
                }
            }
        }
        for (i, row) in cov.iter_mut().enumerate() {
            row[i] += ridge.max(1e-9);
        }
        let inv_cov = invert(&cov).unwrap_or_else(|| {
            // Singular even with ridge: fall back to diagonal.
            let mut eye = vec![vec![0.0; d]; d];
            for (i, row) in eye.iter_mut().enumerate() {
                row[i] = 1.0 / cov[i][i].max(1e-9);
            }
            eye
        });
        let mut det = Mahalanobis {
            mean,
            inv_cov,
            threshold: 0.0,
        };
        let mut scores: Vec<f64> = data.rows.iter().map(|r| det.score(r)).collect();
        det.threshold = calibrate(&mut scores, contamination);
        det
    }
}

/// Gauss-Jordan matrix inversion; `None` when singular.
fn invert(matrix: &[Vec<f64>]) -> Option<Vec<Vec<f64>>> {
    let n = matrix.len();
    let mut a: Vec<Vec<f64>> = matrix.to_vec();
    let mut inv = vec![vec![0.0; n]; n];
    for (i, row) in inv.iter_mut().enumerate() {
        row[i] = 1.0;
    }
    for col in 0..n {
        // partial pivot
        let pivot = (col..n).max_by(|&a_row, &b_row| {
            a[a_row][col]
                .abs()
                .partial_cmp(&a[b_row][col].abs())
                .expect("finite")
        })?;
        if a[pivot][col].abs() < 1e-12 {
            return None;
        }
        a.swap(col, pivot);
        inv.swap(col, pivot);
        let p = a[col][col];
        for j in 0..n {
            a[col][j] /= p;
            inv[col][j] /= p;
        }
        for i in 0..n {
            if i != col {
                let f = a[i][col];
                for j in 0..n {
                    a[i][j] -= f * a[col][j];
                    inv[i][j] -= f * inv[col][j];
                }
            }
        }
    }
    Some(inv)
}

impl Detector for Mahalanobis {
    fn score(&self, point: &[f64]) -> f64 {
        let d = self.mean.len();
        let diff: Vec<f64> = point.iter().zip(&self.mean).map(|(v, m)| v - m).collect();
        let mut total = 0.0;
        for i in 0..d {
            let dot: f64 = self.inv_cov[i]
                .iter()
                .zip(&diff)
                .map(|(c, dj)| c * dj)
                .sum();
            total += diff[i] * dot;
        }
        total.max(0.0).sqrt()
    }

    fn threshold(&self) -> f64 {
        self.threshold
    }

    fn name(&self) -> &'static str {
        "mahalanobis"
    }
}

// ---------------------------------------------------------------------------
// Isolation forest
// ---------------------------------------------------------------------------

#[derive(Debug)]
enum ITree {
    Leaf {
        size: usize,
    },
    Node {
        feature: usize,
        split: f64,
        left: Box<ITree>,
        right: Box<ITree>,
    },
}

impl ITree {
    fn build(
        rows: &mut [usize],
        data: &Dataset,
        depth: u32,
        max_depth: u32,
        rng: &mut StdRng,
    ) -> ITree {
        if rows.len() <= 1 || depth >= max_depth {
            return ITree::Leaf { size: rows.len() };
        }
        let d = data.dims();
        let feature = rng.random_range(0..d);
        let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
        for &r in rows.iter() {
            lo = lo.min(data.rows[r][feature]);
            hi = hi.max(data.rows[r][feature]);
        }
        if hi - lo < 1e-12 {
            return ITree::Leaf { size: rows.len() };
        }
        let split = rng.random_range(lo..hi);
        let mid = itertools_partition(rows, |&r| data.rows[r][feature] < split);
        let (left_rows, right_rows) = rows.split_at_mut(mid);
        if left_rows.is_empty() || right_rows.is_empty() {
            return ITree::Leaf { size: rows.len() };
        }
        ITree::Node {
            feature,
            split,
            left: Box::new(ITree::build(left_rows, data, depth + 1, max_depth, rng)),
            right: Box::new(ITree::build(right_rows, data, depth + 1, max_depth, rng)),
        }
    }

    fn path_length(&self, point: &[f64], depth: f64) -> f64 {
        match self {
            ITree::Leaf { size } => depth + average_path(*size),
            ITree::Node {
                feature,
                split,
                left,
                right,
            } => {
                if point[*feature] < *split {
                    left.path_length(point, depth + 1.0)
                } else {
                    right.path_length(point, depth + 1.0)
                }
            }
        }
    }
}

/// Stable partition returning the split index.
fn itertools_partition<T, F: FnMut(&T) -> bool>(slice: &mut [T], mut pred: F) -> usize {
    let mut next = 0;
    for i in 0..slice.len() {
        if pred(&slice[i]) {
            slice.swap(i, next);
            next += 1;
        }
    }
    next
}

/// `c(n)`: average unsuccessful-search path length in a BST of size n.
fn average_path(n: usize) -> f64 {
    if n <= 1 {
        return 0.0;
    }
    let n = n as f64;
    2.0 * ((n - 1.0).ln() + 0.577_215_664_9) - 2.0 * (n - 1.0) / n
}

/// Isolation forest (Liu et al.), seeded for reproducibility.
#[derive(Debug)]
pub struct IsolationForest {
    trees: Vec<ITree>,
    sample: usize,
    threshold: f64,
}

impl IsolationForest {
    /// Fits `trees` trees on subsamples of `sample` points.
    pub fn fit(
        data: &Dataset,
        trees: usize,
        sample: usize,
        contamination: f64,
        seed: u64,
    ) -> IsolationForest {
        let mut rng = StdRng::seed_from_u64(seed);
        let sample = sample.clamp(2, data.len().max(2));
        let max_depth = (sample as f64).log2().ceil() as u32 + 1;
        let mut built = Vec::with_capacity(trees);
        let all: Vec<usize> = (0..data.len()).collect();
        for _ in 0..trees.max(1) {
            let mut idx = all.clone();
            idx.shuffle(&mut rng);
            idx.truncate(sample);
            built.push(ITree::build(&mut idx, data, 0, max_depth, &mut rng));
        }
        let mut det = IsolationForest {
            trees: built,
            sample,
            threshold: 0.0,
        };
        let mut scores: Vec<f64> = data.rows.iter().map(|r| det.score(r)).collect();
        det.threshold = calibrate(&mut scores, contamination);
        det
    }
}

impl Detector for IsolationForest {
    fn score(&self, point: &[f64]) -> f64 {
        let avg: f64 = self
            .trees
            .iter()
            .map(|t| t.path_length(point, 0.0))
            .sum::<f64>()
            / self.trees.len().max(1) as f64;
        let c = average_path(self.sample).max(1e-9);
        // standard isolation score in (0, 1): higher = more anomalous
        (2.0f64).powf(-avg / c)
    }

    fn threshold(&self) -> f64 {
        self.threshold
    }

    fn name(&self) -> &'static str {
        "isolation_forest"
    }
}

// ---------------------------------------------------------------------------
// Local outlier factor
// ---------------------------------------------------------------------------

/// Local outlier factor (brute-force k-NN).
#[derive(Debug)]
pub struct Lof {
    data: Vec<Vec<f64>>,
    k: usize,
    lrd: Vec<f64>,
    threshold: f64,
}

fn dist(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).powi(2))
        .sum::<f64>()
        .sqrt()
}

fn knn(data: &[Vec<f64>], point: &[f64], k: usize, skip: Option<usize>) -> Vec<(usize, f64)> {
    let mut distances: Vec<(usize, f64)> = data
        .iter()
        .enumerate()
        .filter(|(i, _)| Some(*i) != skip)
        .map(|(i, row)| (i, dist(row, point)))
        .collect();
    distances.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("distances are finite"));
    distances.truncate(k);
    distances
}

impl Lof {
    /// Fits LOF with neighborhood size `k`.
    pub fn fit(data: &Dataset, k: usize, contamination: f64) -> Lof {
        let k = k.clamp(1, data.len().saturating_sub(1).max(1));
        let n = data.len();
        // k-distance of each training point
        let mut kdist = vec![0.0; n];
        let mut neighbors: Vec<Vec<(usize, f64)>> = Vec::with_capacity(n);
        for (i, kd) in kdist.iter_mut().enumerate() {
            let nn = knn(&data.rows, &data.rows[i], k, Some(i));
            *kd = nn.last().map(|x| x.1).unwrap_or(0.0);
            neighbors.push(nn);
        }
        // local reachability density
        let mut lrd = vec![0.0; n];
        for i in 0..n {
            let reach: f64 = neighbors[i]
                .iter()
                .map(|&(j, d)| d.max(kdist[j]))
                .sum::<f64>()
                / neighbors[i].len().max(1) as f64;
            lrd[i] = 1.0 / reach.max(1e-12);
        }
        let mut det = Lof {
            data: data.rows.clone(),
            k,
            lrd,
            threshold: 0.0,
        };
        let mut scores: Vec<f64> = data.rows.iter().map(|r| det.score(r)).collect();
        det.threshold = calibrate(&mut scores, contamination).max(1.0);
        det
    }
}

impl Detector for Lof {
    fn score(&self, point: &[f64]) -> f64 {
        let nn = knn(&self.data, point, self.k, None);
        if nn.is_empty() {
            return 0.0;
        }
        let reach: f64 = nn.iter().map(|&(_, d)| d).sum::<f64>() / nn.len() as f64;
        let own_lrd = 1.0 / reach.max(1e-12);
        let neighbor_lrd: f64 = nn.iter().map(|&(j, _)| self.lrd[j]).sum::<f64>() / nn.len() as f64;
        neighbor_lrd / own_lrd.max(1e-12)
    }

    fn threshold(&self) -> f64 {
        self.threshold
    }

    fn name(&self) -> &'static str {
        "lof"
    }
}

// ---------------------------------------------------------------------------
// one-class centroid (k-means distance)
// ---------------------------------------------------------------------------

/// One-class k-means: distance to the nearest centroid, normalized by
/// the cluster's mean radius.
#[derive(Debug)]
pub struct Centroid {
    centroids: Vec<Vec<f64>>,
    radius: Vec<f64>,
    threshold: f64,
}

impl Centroid {
    /// Fits `k` centroids with `iters` Lloyd iterations (seeded).
    pub fn fit(data: &Dataset, k: usize, iters: usize, contamination: f64, seed: u64) -> Centroid {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = data.len();
        let k = k.clamp(1, n.max(1));
        let mut idx: Vec<usize> = (0..n).collect();
        idx.shuffle(&mut rng);
        let mut centroids: Vec<Vec<f64>> = idx
            .into_iter()
            .take(k)
            .map(|i| data.rows[i].clone())
            .collect();
        let mut assignment = vec![0usize; n];
        for _ in 0..iters.max(1) {
            for (i, row) in data.rows.iter().enumerate() {
                assignment[i] = centroids
                    .iter()
                    .enumerate()
                    .min_by(|a, b| dist(a.1, row).partial_cmp(&dist(b.1, row)).expect("finite"))
                    .map(|(c, _)| c)
                    .unwrap_or(0);
            }
            let d = data.dims();
            let mut sums = vec![vec![0.0; d]; centroids.len()];
            let mut counts = vec![0usize; centroids.len()];
            for (i, row) in data.rows.iter().enumerate() {
                counts[assignment[i]] += 1;
                for (s, v) in sums[assignment[i]].iter_mut().zip(row) {
                    *s += v;
                }
            }
            for (c, centroid) in centroids.iter_mut().enumerate() {
                if counts[c] > 0 {
                    for (x, s) in centroid.iter_mut().zip(&sums[c]) {
                        *x = s / counts[c] as f64;
                    }
                }
            }
        }
        let mut radius = vec![1e-9; centroids.len()];
        let mut counts = vec![0usize; centroids.len()];
        for (i, row) in data.rows.iter().enumerate() {
            radius[assignment[i]] += dist(&centroids[assignment[i]], row);
            counts[assignment[i]] += 1;
        }
        for (r, &c) in radius.iter_mut().zip(&counts) {
            *r /= c.max(1) as f64;
            *r = r.max(1e-9);
        }
        let mut det = Centroid {
            centroids,
            radius,
            threshold: 0.0,
        };
        let mut scores: Vec<f64> = data.rows.iter().map(|r| det.score(r)).collect();
        det.threshold = calibrate(&mut scores, contamination).max(1.0);
        det
    }
}

impl Detector for Centroid {
    fn score(&self, point: &[f64]) -> f64 {
        self.centroids
            .iter()
            .zip(&self.radius)
            .map(|(c, r)| dist(c, point) / r)
            .fold(f64::INFINITY, f64::min)
    }

    fn threshold(&self) -> f64 {
        self.threshold
    }

    fn name(&self) -> &'static str {
        "centroid"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 200 points near the origin plus one obvious outlier at (10, 10).
    fn sample() -> (Dataset, Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(7);
        let mut rows = Vec::new();
        for _ in 0..200 {
            rows.push(vec![
                rng.random_range(-1.0..1.0),
                rng.random_range(-1.0..1.0),
            ]);
        }
        (Dataset::from_rows(rows), vec![10.0, 10.0])
    }

    fn check(det: &dyn Detector, data: &Dataset, outlier: &[f64]) {
        // Outlier is flagged.
        assert!(
            det.is_anomalous(outlier),
            "{} must flag (10,10): score {} <= threshold {}",
            det.name(),
            det.score(outlier),
            det.threshold()
        );
        // Most training points are not flagged.
        let flagged = data.rows.iter().filter(|r| det.is_anomalous(r)).count();
        assert!(
            flagged <= data.len() / 10,
            "{} flags too many normals: {flagged}",
            det.name()
        );
        // Outlier scores above the median inlier.
        let mid = det.score(&data.rows[0]);
        assert!(det.score(outlier) > mid);
    }

    #[test]
    fn zscore_flags_outlier() {
        let (data, outlier) = sample();
        check(&ZScore::fit(&data, 0.02), &data, &outlier);
    }

    #[test]
    fn iqr_flags_outlier() {
        let (data, outlier) = sample();
        check(&IqrFence::fit(&data, 1.5, 0.02), &data, &outlier);
    }

    #[test]
    fn mahalanobis_flags_outlier() {
        let (data, outlier) = sample();
        check(&Mahalanobis::fit(&data, 1e-6, 0.02), &data, &outlier);
    }

    #[test]
    fn mahalanobis_handles_correlated_features() {
        // y = x + noise: point (2, -2) breaks the correlation while staying
        // within each marginal's range.
        let mut rng = StdRng::seed_from_u64(11);
        let rows: Vec<Vec<f64>> = (0..300)
            .map(|_| {
                let x: f64 = rng.random_range(-3.0..3.0);
                vec![x, x + rng.random_range(-0.1..0.1)]
            })
            .collect();
        let data = Dataset::from_rows(rows);
        let det = Mahalanobis::fit(&data, 1e-6, 0.02);
        assert!(det.is_anomalous(&[2.0, -2.0]));
        assert!(!det.is_anomalous(&[2.0, 2.0]));
    }

    #[test]
    fn isolation_forest_flags_outlier() {
        let (data, outlier) = sample();
        check(
            &IsolationForest::fit(&data, 100, 128, 0.02, 42),
            &data,
            &outlier,
        );
    }

    #[test]
    fn lof_flags_outlier() {
        let (data, outlier) = sample();
        check(&Lof::fit(&data, 10, 0.02), &data, &outlier);
    }

    #[test]
    fn centroid_flags_outlier() {
        let (data, outlier) = sample();
        check(&Centroid::fit(&data, 4, 10, 0.02, 42), &data, &outlier);
    }

    #[test]
    fn matrix_inversion_roundtrip() {
        let m = vec![vec![4.0, 1.0], vec![2.0, 3.0]];
        let inv = invert(&m).unwrap();
        // m * inv ≈ I
        for (i, row) in m.iter().enumerate() {
            for j in 0..2 {
                let dot: f64 = row.iter().zip(&inv).map(|(mk, invk)| mk * invk[j]).sum();
                let expected = if i == j { 1.0 } else { 0.0 };
                assert!((dot - expected).abs() < 1e-9);
            }
        }
        assert!(invert(&[vec![1.0, 2.0], vec![2.0, 4.0]]).is_none());
    }

    #[test]
    fn isolation_forest_is_deterministic_per_seed() {
        let (data, outlier) = sample();
        let a = IsolationForest::fit(&data, 50, 64, 0.02, 1).score(&outlier);
        let b = IsolationForest::fit(&data, 50, 64, 0.02, 1).score(&outlier);
        assert_eq!(a, b);
    }
}
