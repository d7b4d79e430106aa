//! Kernel Ridge Regression — the algorithm the renewable-energy use case
//! uses ("the current version of the application uses the Kernel Ridge
//! algorithm", paper §II-B).
//!
//! RBF kernel, closed-form fit via Cholesky factorization of
//! `K + λ n I` (implemented here; no external linear algebra).

/// A fitted kernel-ridge model.
#[derive(Debug, Clone)]
pub(crate) struct KernelRidge {
    train_x: Vec<Vec<f64>>,
    alpha: Vec<f64>,
    gamma: f64,
}

/// Fit errors.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum FitError {
    /// Training set empty or inconsistent.
    BadInput(String),
    /// Cholesky failed (matrix not positive definite).
    NotPositiveDefinite,
}

impl std::fmt::Display for FitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FitError::BadInput(m) => write!(f, "bad input: {m}"),
            FitError::NotPositiveDefinite => {
                write!(f, "kernel matrix is not positive definite")
            }
        }
    }
}

impl std::error::Error for FitError {}

fn rbf(a: &[f64], b: &[f64], gamma: f64) -> f64 {
    let d2: f64 = a.iter().zip(b).map(|(x, y)| (x - y).powi(2)).sum();
    (-gamma * d2).exp()
}

/// Cholesky decomposition of a symmetric positive-definite matrix;
/// returns the lower factor, or `None` when not positive definite.
fn cholesky(a: &[Vec<f64>]) -> Option<Vec<Vec<f64>>> {
    let n = a.len();
    let mut l = vec![vec![0.0; n]; n];
    for i in 0..n {
        for j in 0..=i {
            let mut sum = a[i][j];
            for (lik, ljk) in l[i].iter().zip(&l[j]).take(j) {
                sum -= lik * ljk;
            }
            if i == j {
                if sum <= 0.0 {
                    return None;
                }
                l[i][j] = sum.sqrt();
            } else {
                l[i][j] = sum / l[j][j];
            }
        }
    }
    Some(l)
}

/// Solves `L L^T x = b` by forward/back substitution.
fn cholesky_solve(l: &[Vec<f64>], b: &[f64]) -> Vec<f64> {
    let n = l.len();
    let mut y = vec![0.0; n];
    for i in 0..n {
        let mut sum = b[i];
        for k in 0..i {
            sum -= l[i][k] * y[k];
        }
        y[i] = sum / l[i][i];
    }
    let mut x = vec![0.0; n];
    for i in (0..n).rev() {
        let mut sum = y[i];
        for k in (i + 1)..n {
            sum -= l[k][i] * x[k];
        }
        x[i] = sum / l[i][i];
    }
    x
}

impl KernelRidge {
    /// Fits on `(x, y)` with RBF width `gamma` and regularization
    /// `lambda`.
    ///
    /// # Errors
    ///
    /// Returns [`FitError`] for empty/inconsistent data or a singular
    /// kernel matrix.
    pub(crate) fn fit(
        x: &[Vec<f64>],
        y: &[f64],
        gamma: f64,
        lambda: f64,
    ) -> Result<KernelRidge, FitError> {
        if x.is_empty() || x.len() != y.len() {
            return Err(FitError::BadInput(format!(
                "{} samples vs {} targets",
                x.len(),
                y.len()
            )));
        }
        let d = x[0].len();
        if x.iter().any(|r| r.len() != d) {
            return Err(FitError::BadInput("inconsistent feature dims".into()));
        }
        let n = x.len();
        let mut k = vec![vec![0.0; n]; n];
        for i in 0..n {
            for j in 0..=i {
                let v = rbf(&x[i], &x[j], gamma);
                k[i][j] = v;
                k[j][i] = v;
            }
            k[i][i] += lambda.max(1e-12) * n as f64;
        }
        let l = cholesky(&k).ok_or(FitError::NotPositiveDefinite)?;
        let alpha = cholesky_solve(&l, y);
        Ok(KernelRidge {
            train_x: x.to_vec(),
            alpha,
            gamma,
        })
    }

    /// Predicts one point.
    pub(crate) fn predict(&self, point: &[f64]) -> f64 {
        self.train_x
            .iter()
            .zip(&self.alpha)
            .map(|(xi, a)| a * rbf(xi, point, self.gamma))
            .sum()
    }
}

/// Mean absolute error.
pub(crate) fn mae(predictions: &[f64], truth: &[f64]) -> f64 {
    predictions
        .iter()
        .zip(truth)
        .map(|(p, t)| (p - t).abs())
        .sum::<f64>()
        / predictions.len().max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fits_smooth_function() {
        // y = sin(x) on [0, 6]
        let x: Vec<Vec<f64>> = (0..60).map(|i| vec![i as f64 * 0.1]).collect();
        let y: Vec<f64> = x.iter().map(|v| v[0].sin()).collect();
        let model = KernelRidge::fit(&x, &y, 2.0, 1e-6).unwrap();
        for test in [0.55, 2.33, 4.71] {
            let p = model.predict(&[test]);
            assert!(
                (p - test.sin()).abs() < 0.05,
                "predict({test}) = {p}, want {}",
                test.sin()
            );
        }
    }

    #[test]
    fn regularization_controls_smoothing() {
        // noisy constant: strong regularization pulls toward zero mean
        let x: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = (0..20)
            .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        let tight = KernelRidge::fit(&x, &y, 0.5, 1e-8).unwrap();
        let smooth = KernelRidge::fit(&x, &y, 0.5, 10.0).unwrap();
        // the smooth model should predict closer to 0 at training points
        let tight_mag: f64 = x.iter().map(|p| tight.predict(p).abs()).sum::<f64>() / 20.0;
        let smooth_mag: f64 = x.iter().map(|p| smooth.predict(p).abs()).sum::<f64>() / 20.0;
        assert!(smooth_mag < tight_mag);
    }

    #[test]
    fn multivariate_features_work() {
        // y = x0 + 2*x1
        let x: Vec<Vec<f64>> = (0..100)
            .map(|i| vec![(i % 10) as f64 / 10.0, (i / 10) as f64 / 10.0])
            .collect();
        let y: Vec<f64> = x.iter().map(|v| v[0] + 2.0 * v[1]).collect();
        let model = KernelRidge::fit(&x, &y, 1.0, 1e-6).unwrap();
        let p = model.predict(&[0.45, 0.55]);
        assert!((p - 1.55).abs() < 0.1, "got {p}");
    }

    #[test]
    fn bad_inputs_error() {
        assert!(matches!(
            KernelRidge::fit(&[], &[], 1.0, 1.0),
            Err(FitError::BadInput(_))
        ));
        assert!(matches!(
            KernelRidge::fit(&[vec![1.0]], &[1.0, 2.0], 1.0, 1.0),
            Err(FitError::BadInput(_))
        ));
        assert!(matches!(
            KernelRidge::fit(&[vec![1.0], vec![1.0, 2.0]], &[1.0, 2.0], 1.0, 1.0),
            Err(FitError::BadInput(_))
        ));
    }

    #[test]
    fn cholesky_roundtrip() {
        let a = vec![
            vec![4.0, 2.0, 0.6],
            vec![2.0, 5.0, 1.5],
            vec![0.6, 1.5, 2.6],
        ];
        let l = cholesky(&a).unwrap();
        let b = vec![1.0, 2.0, 3.0];
        let x = cholesky_solve(&l, &b);
        // verify A x = b
        for i in 0..3 {
            let dot: f64 = (0..3).map(|j| a[i][j] * x[j]).sum();
            assert!((dot - b[i]).abs() < 1e-9);
        }
        // non-PD matrix rejected
        assert!(cholesky(&[vec![1.0, 2.0], vec![2.0, 1.0]]).is_none());
    }

    #[test]
    fn mae_math() {
        assert_eq!(mae(&[1.0, 2.0], &[1.0, 4.0]), 1.0);
        assert_eq!(mae(&[], &[]), 0.0);
    }
}
