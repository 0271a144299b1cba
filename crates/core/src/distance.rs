//! Dependency-distance distributions for the interest-level pair selector.
//!
//! The paper assumes a **uniform** distribution of the dependency distance
//! `h ∈ [1, H]` and explicitly leaves "other complex distributions (e.g.,
//! Gaussian distribution)" to future work (§V-B). This module implements
//! that extension: a selectable distance law, including a discretised
//! half-Gaussian that favours short ranges while occasionally sampling long
//! ones, and a geometric law as a second decaying alternative. The ablation
//! bench `distance_law` compares them.

use miss_util::Rng;

/// How the view-pair distance `h` is drawn.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub enum DistanceLaw {
    /// `h ~ U{1..H}` — the paper's default.
    #[default]
    Uniform,
    /// `h = 1 + |round(N(0, σ))| clamped to [1, H]`: mass concentrates on
    /// short ranges, tail reaches long ranges. σ defaults to `H/2`.
    Gaussian {
        /// Standard deviation of the underlying normal.
        sigma: f32,
    },
    /// `h ~ Geometric(p)` truncated to `[1, H]`: each extra step of range
    /// is a factor `1-p` less likely.
    Geometric {
        /// Success probability (larger → shorter ranges).
        p: f64,
    },
}

impl DistanceLaw {
    /// Draw a distance in `[1, h_max]` (assuming `h_max ≥ 1`).
    pub fn sample(self, h_max: usize, rng: &mut Rng) -> usize {
        debug_assert!(h_max >= 1);
        match self {
            DistanceLaw::Uniform => rng.range(1, h_max + 1),
            DistanceLaw::Gaussian { sigma } => {
                let draw = (rng.normal() * sigma).abs().round() as usize;
                (1 + draw).min(h_max)
            }
            DistanceLaw::Geometric { p } => {
                let mut h = 1usize;
                while h < h_max && !rng.bool(p) {
                    h += 1;
                }
                h
            }
        }
    }
}


#[cfg(test)]
mod tests {
    use super::*;

    fn histogram(law: DistanceLaw, h_max: usize, n: usize) -> Vec<usize> {
        let mut rng = Rng::new(42);
        let mut counts = vec![0usize; h_max + 1];
        for _ in 0..n {
            counts[law.sample(h_max, &mut rng)] += 1;
        }
        counts
    }

    #[test]
    fn uniform_covers_full_range_evenly() {
        let h = histogram(DistanceLaw::Uniform, 4, 40_000);
        assert_eq!(h[0], 0);
        for (k, &count) in h.iter().enumerate().skip(1) {
            let frac = count as f64 / 40_000.0;
            assert!((frac - 0.25).abs() < 0.02, "h={k} freq {frac}");
        }
    }

    #[test]
    fn gaussian_prefers_short_ranges() {
        let h = histogram(DistanceLaw::Gaussian { sigma: 1.5 }, 6, 40_000);
        assert!(h[1] > h[3], "short ranges should dominate: {h:?}");
        assert!(h[4] + h[5] + h[6] > 0, "long tail must still occur");
    }

    #[test]
    fn geometric_decays() {
        let h = histogram(DistanceLaw::Geometric { p: 0.5 }, 5, 40_000);
        assert!(h[1] > h[2] && h[2] > h[3], "{h:?}");
    }

    #[test]
    fn all_laws_respect_bounds() {
        let mut rng = Rng::new(1);
        for law in [
            DistanceLaw::Uniform,
            DistanceLaw::Gaussian { sigma: 3.0 },
            DistanceLaw::Geometric { p: 0.3 },
        ] {
            for h_max in 1..=5 {
                for _ in 0..200 {
                    let h = law.sample(h_max, &mut rng);
                    assert!((1..=h_max).contains(&h));
                }
            }
        }
    }
}
