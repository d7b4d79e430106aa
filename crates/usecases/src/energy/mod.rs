//! The renewable-energy prediction use case (paper §II-B): forecast the
//! power of a wind farm for short-term markets by combining weather
//! forecasts, historical WRF time series and farm data with Kernel Ridge
//! Regression — and quantify how *more WRF runs per day* (the
//! FPGA-enabled capability highlighted in §VIII) reduce forecast error.

pub(crate) mod kernel_ridge;
pub(crate) mod windfarm;

use kernel_ridge::{mae, KernelRidge};
pub use windfarm::{generate_history, PowerSample, WindFarm};

/// Result of a backtest at a given forecast refresh rate.
#[derive(Debug, Clone, PartialEq)]
pub struct BacktestResult {
    /// WRF runs per day used to refresh features.
    pub runs_per_day: usize,
    /// Mean absolute error over the test window (MW).
    pub mae_mw: f64,
    /// Test samples evaluated.
    pub samples: usize,
}

/// Forecast-error growth with lead time: NWP errors grow roughly
/// linearly over the first day. At lead `l` hours, a feature is the true
/// value plus `σ(l) = base + growth·l` standard deviations of
/// deterministic pseudo-noise. The toy dynamics are dissipative and
/// cannot grow perturbations themselves (see DESIGN.md), so this growth
/// law carries the refresh-rate trade-off instead.
fn forecast_features(sample: &PowerSample, lead_h: usize, feature_scales: &[f64]) -> Vec<f64> {
    let sigma_rel = 0.03 + 0.035 * lead_h as f64;
    sample
        .features
        .iter()
        .enumerate()
        .map(|(dim, &v)| {
            if dim == 4 {
                return v; // availability is farm telemetry, not forecast
            }
            v + sigma_rel * feature_scales[dim] * pseudo_gaussian(sample.hour, dim)
        })
        .collect()
}

/// Deterministic standard-normal-ish noise per (hour, feature).
fn pseudo_gaussian(hour: usize, dim: usize) -> f64 {
    let mut x = (hour as u64)
        .wrapping_mul(0x9E3779B97F4A7C15)
        .wrapping_add(dim as u64 + 1);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58476D1CE4E5B9);
    x ^= x >> 27;
    let u1 = ((x >> 11) as f64 / (1u64 << 53) as f64).max(1e-12);
    x = x.wrapping_mul(0x94D049BB133111EB);
    let u2 = (x >> 11) as f64 / (1u64 << 53) as f64;
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

fn feature_scales(history: &[PowerSample]) -> Vec<f64> {
    let dims = history.first().map(|s| s.features.len()).unwrap_or(0);
    let n = history.len().max(1) as f64;
    (0..dims)
        .map(|d| {
            let mean: f64 = history.iter().map(|s| s.features[d]).sum::<f64>() / n;
            let var: f64 = history
                .iter()
                .map(|s| (s.features[d] - mean).powi(2))
                .sum::<f64>()
                / n;
            var.sqrt().max(1e-6)
        })
        .collect()
}

/// Backtests the predictor: train on the first `train_days` (using
/// short-lead archived forecasts), predict the remainder where each hour
/// is served by the most recent of the `runs_per_day` daily WRF runs.
/// Higher refresh rates mean shorter leads and smaller feature errors —
/// the §VIII motivation for accelerating WRF.
///
/// # Panics
///
/// Panics if `runs_per_day` is zero or does not divide 24.
pub fn backtest(
    farm: &WindFarm,
    history: &[PowerSample],
    train_days: usize,
    runs_per_day: usize,
) -> BacktestResult {
    assert!(
        runs_per_day > 0 && 24 % runs_per_day == 0,
        "runs_per_day must divide 24"
    );
    let _ = farm;
    let scales = feature_scales(history);
    let split = train_days * 24;
    let (train, test) = history.split_at(split.min(history.len()));
    // Train on archived short-lead (1 h) forecasts.
    let train_x: Vec<Vec<f64>> = train
        .iter()
        .map(|s| forecast_features(s, 1, &scales))
        .collect();
    let train_y: Vec<f64> = train.iter().map(|s| s.power_mw).collect();
    let model = KernelRidge::fit(&train_x, &train_y, 0.05, 1e-3)
        .expect("history produces a well-posed fit");

    let refresh_every = 24 / runs_per_day;
    let mut predictions = Vec::with_capacity(test.len());
    let mut truth = Vec::with_capacity(test.len());
    for (k, sample) in test.iter().enumerate() {
        let lead_h = k % refresh_every;
        let features = forecast_features(sample, lead_h, &scales);
        predictions.push(model.predict(&features));
        truth.push(sample.power_mw);
    }
    BacktestResult {
        runs_per_day,
        mae_mw: mae(&predictions, &truth),
        samples: test.len(),
    }
}

/// Sweeps refresh rates: the §VIII claim is that more (accelerated) WRF
/// runs per day reduce market error.
pub fn sweep_runs_per_day(
    farm: &WindFarm,
    history: &[PowerSample],
    train_days: usize,
    rates: &[usize],
) -> Vec<BacktestResult> {
    rates
        .iter()
        .map(|&r| backtest(farm, history, train_days, r))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backtest_produces_reasonable_error() {
        let farm = WindFarm::default();
        let history = generate_history(&farm, 30, 42);
        let result = backtest(&farm, &history, 20, 24);
        let capacity = farm.rated_mw * farm.turbines as f64;
        assert!(result.samples > 0);
        assert!(
            result.mae_mw < capacity * 0.35,
            "hourly-refresh MAE {} exceeds 35% of capacity {}",
            result.mae_mw,
            capacity
        );
    }

    #[test]
    fn more_runs_per_day_reduce_error() {
        let farm = WindFarm::default();
        let history = generate_history(&farm, 30, 7);
        let results = sweep_runs_per_day(&farm, &history, 20, &[1, 4, 24]);
        assert!(
            results[2].mae_mw < results[0].mae_mw,
            "24 runs/day ({:.2} MW) must beat 1 run/day ({:.2} MW)",
            results[2].mae_mw,
            results[0].mae_mw
        );
    }

    #[test]
    #[should_panic(expected = "must divide 24")]
    fn invalid_rate_panics() {
        let farm = WindFarm::default();
        let history = generate_history(&farm, 3, 1);
        let _ = backtest(&farm, &history, 2, 5);
    }
}
