//! Case-study transforms on the training split: down-sampling (Table X,
//! label sparsity) and label swapping (Table XI, label noise). Validation
//! and test splits are never touched, per the paper.

use crate::dataset::Dataset;
use miss_util::Rng;

impl Dataset {
    /// Keep a `rate` fraction of training samples, uniformly at random
    /// (paper's sampling rate SR; `rate = 1.0` is the identity).
    #[expect(
        clippy::indexing_slicing,
        reason = "order holds indices drawn from 0..train.len()"
    )]
    pub fn downsample_train(&mut self, rate: f64, rng: &mut Rng) {
        assert!((0.0..=1.0).contains(&rate), "rate must be in [0,1]");
        if rate >= 1.0 {
            return;
        }
        let keep = ((self.train.len() as f64) * rate).round() as usize;
        let mut order: Vec<usize> = (0..self.train.len()).collect();
        rng.shuffle(&mut order);
        order.truncate(keep);
        order.sort_unstable();
        self.train = order.iter().map(|&i| self.train[i].clone()).collect();
    }

    /// Swap (flip) the labels of a `rate` fraction of training samples
    /// (paper's noise rate NR).
    #[expect(
        clippy::indexing_slicing,
        reason = "sample_indices(n, _) draws from 0..n, n = train.len()"
    )]
    pub fn swap_train_labels(&mut self, rate: f64, rng: &mut Rng) {
        assert!((0.0..=1.0).contains(&rate), "rate must be in [0,1]");
        if rate <= 0.0 {
            return;
        }
        let n = self.train.len();
        let flips = ((n as f64) * rate).round() as usize;
        let chosen = rng.sample_indices(n, flips.min(n));
        for i in chosen {
            let s = &mut self.train[i];
            s.label = 1.0 - s.label;
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::{Dataset, WorldConfig};
    use miss_util::Rng;

    fn dataset() -> Dataset {
        Dataset::generate(WorldConfig::tiny(), 4)
    }

    #[test]
    fn downsample_keeps_requested_fraction() {
        let mut d = dataset();
        let n0 = d.train.len();
        let v0 = d.valid.len();
        let mut rng = Rng::new(1);
        d.downsample_train(0.8, &mut rng);
        let expect = ((n0 as f64) * 0.8).round() as usize;
        assert_eq!(d.train.len(), expect);
        assert_eq!(d.valid.len(), v0, "validation untouched");
    }

    #[test]
    fn downsample_full_rate_is_identity() {
        let mut d = dataset();
        let n0 = d.train.len();
        let mut rng = Rng::new(2);
        d.downsample_train(1.0, &mut rng);
        assert_eq!(d.train.len(), n0);
    }

    #[test]
    fn swap_flips_requested_fraction() {
        let mut d = dataset();
        let before: Vec<f32> = d.train.iter().map(|s| s.label).collect();
        let mut rng = Rng::new(3);
        d.swap_train_labels(0.2, &mut rng);
        let after: Vec<f32> = d.train.iter().map(|s| s.label).collect();
        let flips = before
            .iter()
            .zip(&after)
            .filter(|(a, b)| a != b)
            .count();
        let expect = ((before.len() as f64) * 0.2).round() as usize;
        assert_eq!(flips, expect);
        assert!(after.iter().all(|&l| l == 0.0 || l == 1.0));
    }

    #[test]
    fn swap_zero_rate_is_identity() {
        let mut d = dataset();
        let before: Vec<f32> = d.train.iter().map(|s| s.label).collect();
        let mut rng = Rng::new(4);
        d.swap_train_labels(0.0, &mut rng);
        let after: Vec<f32> = d.train.iter().map(|s| s.label).collect();
        assert_eq!(before, after);
    }
}
