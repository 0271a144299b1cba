//! Small statistics helpers for reporting experiment results.

/// Arithmetic mean; 0.0 for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Mean and (sample) standard deviation in one pass (Welford).
pub fn mean_std(xs: &[f64]) -> (f64, f64) {
    if xs.len() < 2 {
        return (mean(xs), 0.0);
    }
    let (m, m2, n) = xs.iter().fold((0.0f64, 0.0f64, 0u64), |(m, m2, n), &x| {
        let n1 = n + 1;
        let delta = x - m;
        let m_new = m + delta / n1 as f64;
        (m_new, m2 + delta * (x - m_new), n1)
    });
    (m, (m2 / (n as f64 - 1.0)).sqrt())
}

/// Paired t-statistic for two matched samples (e.g. AUC of two models over
/// the same seeds). Positive when `a` is larger on average.
pub fn paired_t_statistic(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "paired samples must match");
    assert!(a.len() >= 2, "need at least two pairs");
    let diffs: Vec<f64> = a.iter().zip(b).map(|(x, y)| x - y).collect();
    let (m, s) = mean_std(&diffs);
    if s == 0.0 {
        return if m == 0.0 { 0.0 } else { f64::INFINITY * m.signum() };
    }
    m / (s / (diffs.len() as f64).sqrt())
}

/// Two-sided significance check at p < 0.05 using the t distribution's
/// critical values for small degrees of freedom (the paper repeats each
/// experiment 5 times, i.e. df = 4).
#[expect(
    clippy::indexing_slicing,
    reason = "the index is clamped to CRIT.len() - 1"
)]
pub fn paired_t_significant(a: &[f64], b: &[f64]) -> bool {
    // Critical values of |t| for p = 0.05 two-sided, df = 1..=30.
    const CRIT: [f64; 30] = [
        12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179,
        2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064,
        2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
    ];
    let df = a.len().saturating_sub(1);
    if df == 0 {
        return false;
    }
    let crit = CRIT[(df - 1).min(CRIT.len() - 1)];
    paired_t_statistic(a, b).abs() > crit
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_of_empty_is_zero() {
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn mean_std_basic() {
        let (m, s) = mean_std(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((m - 5.0).abs() < 1e-12);
        assert!((s - 2.138089935299395).abs() < 1e-9);
    }

    #[test]
    fn mean_std_single_value() {
        let (m, s) = mean_std(&[3.5]);
        assert_eq!(m, 3.5);
        assert_eq!(s, 0.0);
    }

    #[test]
    fn t_statistic_sign() {
        let a = [0.9, 0.91, 0.89, 0.92, 0.9];
        let b = [0.8, 0.81, 0.79, 0.82, 0.8];
        assert!(paired_t_statistic(&a, &b) > 0.0);
        assert!(paired_t_statistic(&b, &a) < 0.0);
    }

    #[test]
    fn clearly_separated_is_significant() {
        let a = [0.9, 0.91, 0.89, 0.92, 0.9];
        let b = [0.8, 0.81, 0.79, 0.82, 0.8];
        assert!(paired_t_significant(&a, &b));
    }

    #[test]
    fn identical_samples_not_significant() {
        let a = [0.5, 0.6, 0.7, 0.65, 0.55];
        assert!(!paired_t_significant(&a, &a));
    }

    #[test]
    fn noisy_overlap_not_significant() {
        let a = [0.50, 0.70, 0.40, 0.80, 0.60];
        let b = [0.55, 0.65, 0.45, 0.75, 0.62];
        assert!(!paired_t_significant(&a, &b));
    }
}
