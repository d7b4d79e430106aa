//! Order statistics over measured samples.

/// Nearest-rank percentile (`q` in `[0, 1]`) of unsorted samples; 0 for
/// an empty slice.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median: mean of the two middle samples for an even count.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Inter-quartile range (nearest-rank p75 − p25).
pub fn iqr(samples: &[f64]) -> f64 {
    percentile(samples, 0.75) - percentile(samples, 0.25)
}

/// Log-log slope between two `(size, time)` points: the exponent `k` in
/// `time ∝ size^k`. 0 when either point is degenerate.
pub fn scaling_exponent(small: (f64, f64), large: (f64, f64)) -> f64 {
    let (s0, t0) = small;
    let (s1, t1) = large;
    if s0 <= 0.0 || t0 <= 0.0 || t1 <= 0.0 || s1 <= s0 {
        return 0.0;
    }
    (t1 / t0).ln() / (s1 / s0).ln()
}

/// The closure figure of a decomposition: the share of `whole` that the
/// `parts` do not account for. Negative when the parts overshoot.
pub fn unattributed_share(parts: f64, whole: f64) -> f64 {
    if whole <= 0.0 {
        return 0.0;
    }
    1.0 - parts / whole
}

/// Equal up to the reordering of a floating-point sum.
pub fn close(got: f64, want: f64) -> bool {
    (got - want).abs() <= 1e-9 * want.abs().max(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 0.5), 3.0);
        assert_eq!(percentile(&v, 0.9), 5.0);
        assert_eq!(percentile(&v, 1.0), 5.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[7.0], 0.9), 7.0);
    }

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn iqr_spans_the_middle_half() {
        let v: Vec<f64> = (1..=8).map(f64::from).collect();
        assert_eq!(iqr(&v), 6.0 - 2.0);
    }

    #[test]
    fn scaling_exponent_recovers_the_power() {
        let k = scaling_exponent((64.0, 1.0), (256.0, 16.0));
        assert!((k - 2.0).abs() < 1e-12);
        assert_eq!(scaling_exponent((64.0, 0.0), (256.0, 1.0)), 0.0);
        assert_eq!(scaling_exponent((64.0, 1.0), (64.0, 2.0)), 0.0);
    }

    #[test]
    fn closure_is_the_unexplained_share() {
        assert!((unattributed_share(9.0, 10.0) - 0.1).abs() < 1e-12);
        assert!((unattributed_share(11.0, 10.0) + 0.1).abs() < 1e-12);
        assert_eq!(unattributed_share(1.0, 0.0), 0.0);
    }
}
