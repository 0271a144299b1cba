//! Discrete distribution samplers used by the interest-world simulator.

use crate::Rng;

/// Categorical distribution sampled via a precomputed cumulative table.
///
/// Construction is O(n); sampling is O(log n) by binary search, which is fine
/// for the simulator's per-event draws.
#[derive(Clone, Debug)]
pub struct Categorical {
    cdf: Vec<f64>,
}

impl Categorical {
    /// Build from non-negative (unnormalised) weights. Panics on an all-zero
    /// or empty weight vector — that is a caller bug, not a runtime condition.
    pub fn new(weights: &[f64]) -> Self {
        assert!(!weights.is_empty(), "empty categorical");
        let mut cdf = Vec::with_capacity(weights.len());
        let mut acc = 0.0;
        for &w in weights {
            assert!(w >= 0.0 && w.is_finite(), "bad weight {w}");
            acc += w;
            cdf.push(acc);
        }
        assert!(acc > 0.0, "all-zero categorical weights");
        for c in &mut cdf {
            *c /= acc;
        }
        // Guard against floating point drift at the top end.
        if let Some(last) = cdf.last_mut() {
            *last = 1.0;
        }
        Categorical { cdf }
    }

    /// Number of categories.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// True if the distribution has a single category.
    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }

    /// Draw an index.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.f64();
        // partition_point returns the first index with cdf > u.
        self.cdf.partition_point(|&c| c <= u).min(self.cdf.len() - 1)
    }
}

/// Zipf distribution over ranks `0..n` with exponent `s`:
/// `P(rank k) ∝ 1 / (k+1)^s`. Used to give items within an interest a
/// popularity skew (the Matthew effect the paper discusses).
#[derive(Clone, Debug)]
pub struct Zipf {
    inner: Categorical,
}

impl Zipf {
    /// Create a Zipf distribution over `n` ranks with exponent `s`.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0);
        let weights: Vec<f64> = (0..n).map(|k| 1.0 / ((k + 1) as f64).powf(s)).collect();
        Zipf {
            inner: Categorical::new(&weights),
        }
    }

    /// Draw a rank in `[0, n)`.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        self.inner.sample(rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn categorical_respects_weights() {
        let c = Categorical::new(&[1.0, 0.0, 3.0]);
        let mut rng = Rng::new(0);
        let mut counts = [0usize; 3];
        for _ in 0..40_000 {
            counts[c.sample(&mut rng)] += 1;
        }
        assert_eq!(counts[1], 0, "zero-weight category sampled");
        let ratio = counts[2] as f64 / counts[0] as f64;
        assert!((ratio - 3.0).abs() < 0.2, "ratio {ratio}");
    }

    #[test]
    fn categorical_single() {
        let c = Categorical::new(&[5.0]);
        let mut rng = Rng::new(1);
        for _ in 0..100 {
            assert_eq!(c.sample(&mut rng), 0);
        }
    }

    #[test]
    #[should_panic]
    fn categorical_all_zero_panics() {
        let _ = Categorical::new(&[0.0, 0.0]);
    }

    #[test]
    fn zipf_is_monotone_decreasing() {
        let z = Zipf::new(20, 1.2);
        let mut rng = Rng::new(2);
        let mut counts = [0usize; 20];
        for _ in 0..100_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[5]);
        assert!(counts[5] > counts[15]);
        // head dominates the tail
        assert!(counts[0] as f64 > 4.0 * counts[10] as f64);
    }
}
