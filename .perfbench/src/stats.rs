//! Order statistics for the benchmark's reports.

/// Fewest samples that must lie strictly above a reported percentile.
/// Below this a tail percentile is one or two unlucky samples, not a
/// property of the system.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (in `(0, 100)`) of `sorted`, which must be
/// sorted ascending. Refuses when fewer than [`MIN_BEYOND`] samples lie
/// beyond the chosen rank.
pub fn percentile(sorted: &[f64], p: f64) -> Result<f64, String> {
    assert!(p > 0.0 && p < 100.0, "percentile {p} outside (0, 100)");
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]), "input not sorted");
    let n = sorted.len();
    // Nearest rank: the smallest value with at least p% of samples at or
    // below it.
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    let beyond = n.saturating_sub(rank);
    if rank == 0 || beyond < MIN_BEYOND {
        return Err(format!(
            "p{p} of {n} samples leaves {beyond} beyond it; need at least {MIN_BEYOND}"
        ));
    }
    Ok(sorted[rank - 1])
}

/// Quantile `q` in `[0, 1]` of unsorted values, interpolating linearly
/// between order statistics.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no values");
    assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
    let v = sorted(values.to_vec());
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Sort ascending in place and return the slice (total order on f64).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_refuses_thin_tails() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        // p99 of 100 samples: rank 99, one sample beyond.
        assert!(percentile(&v, 99.0).is_err());
        // p90 of 100 samples: rank 90, exactly ten beyond.
        assert_eq!(percentile(&v, 90.0), Ok(90.0));
        // p91 leaves nine.
        assert!(percentile(&v, 91.0).is_err());
        let big: Vec<f64> = (1..=1100).map(f64::from).collect();
        assert_eq!(percentile(&big, 99.0), Ok(1089.0));
        assert!(percentile(&[], 50.0).is_err());
        assert!(percentile(&[1.0; 10], 50.0).is_err());
        assert_eq!(percentile(&[1.0; 20], 50.0), Ok(1.0));
    }

    #[test]
    fn quantile_interpolates() {
        assert_eq!(quantile(&[3.0, 1.0, 2.0], 0.5), 2.0);
        assert_eq!(quantile(&[4.0, 1.0, 3.0, 2.0], 0.5), 2.5);
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(quantile(&v, 0.25), 2.0);
        assert_eq!(quantile(&v, 0.5), 3.0);
        assert_eq!(quantile(&v, 0.875), 4.5);
        assert_eq!(quantile(&[7.0], 0.75), 7.0);
    }
}
