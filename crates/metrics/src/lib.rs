//! Evaluation metrics for CTR prediction: AUC and Logloss (the two the paper
//! reports), plus the relative-improvement helper used by Tables X/XI.

// R7 (DESIGN.md §7): serving links this crate, so production code has no
// panic path; an index needs a reasoned `#[expect]` naming its bound.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::todo,
    clippy::unimplemented,
    clippy::dbg_macro,
    clippy::panic,
    clippy::unreachable,
    clippy::indexing_slicing
)]

/// Area under the ROC curve via the tie-aware rank statistic:
/// `AUC = (Σ ranks of positives − P(P+1)/2) / (P·N)`, with tied scores
/// receiving their average rank. O(n log n).
///
/// Returns 0.5 when either class is absent (undefined AUC — the neutral
/// value keeps sweep code simple).
#[expect(
    clippy::indexing_slicing,
    reason = "idx is a permutation of 0..n, n = scores.len() = labels.len() is asserted, and i <= j < n"
)]
pub fn auc(scores: &[f32], labels: &[f32]) -> f64 {
    assert_eq!(scores.len(), labels.len(), "scores/labels length mismatch");
    let n = scores.len();
    if n == 0 {
        return 0.5;
    }
    let mut idx: Vec<usize> = (0..n).collect();
    idx.sort_by(|&a, &b| scores[a].partial_cmp(&scores[b]).unwrap_or(std::cmp::Ordering::Equal));
    // Average ranks over tie groups (1-based ranks).
    let mut rank_sum_pos = 0.0f64;
    let mut pos = 0usize;
    let mut i = 0usize;
    while i < n {
        let mut j = i;
        while j + 1 < n && scores[idx[j + 1]] == scores[idx[i]] {
            j += 1;
        }
        let avg_rank = ((i + 1 + j + 1) as f64) / 2.0;
        for &k in &idx[i..=j] {
            if labels[k] > 0.5 {
                rank_sum_pos += avg_rank;
                pos += 1;
            }
        }
        i = j + 1;
    }
    let neg = n - pos;
    if pos == 0 || neg == 0 {
        return 0.5;
    }
    (rank_sum_pos - (pos as f64 * (pos as f64 + 1.0)) / 2.0) / (pos as f64 * neg as f64)
}

/// Mean binary log-loss over predicted probabilities, clamped to
/// `[eps, 1-eps]` with `eps = 1e-7` for numerical safety.
pub fn logloss(probs: &[f32], labels: &[f32]) -> f64 {
    assert_eq!(probs.len(), labels.len(), "probs/labels length mismatch");
    if probs.is_empty() {
        return 0.0;
    }
    let eps = 1e-7f64;
    let total: f64 = probs
        .iter()
        .zip(labels)
        .map(|(&p, &y)| {
            let p = (p as f64).clamp(eps, 1.0 - eps);
            let y = y as f64;
            -(y * p.ln() + (1.0 - y) * (1.0 - p).ln())
        })
        .sum();
    total / probs.len() as f64
}

/// Relative improvement in percent: `(new - base) / base * 100`.
pub fn relative_improvement(base: f64, new: f64) -> f64 {
    (new - base) / base * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn auc_perfect_ranking() {
        let scores = [0.1f32, 0.4, 0.35, 0.8];
        let labels = [0.0f32, 0.0, 0.0, 1.0];
        assert_eq!(auc(&scores, &labels), 1.0);
    }

    #[test]
    fn auc_inverted_ranking() {
        let scores = [0.9f32, 0.1];
        let labels = [0.0f32, 1.0];
        assert_eq!(auc(&scores, &labels), 0.0);
    }

    #[test]
    fn auc_known_value() {
        // classic sklearn example: y=[0,0,1,1], s=[0.1,0.4,0.35,0.8] -> 0.75
        let scores = [0.1f32, 0.4, 0.35, 0.8];
        let labels = [0.0f32, 0.0, 1.0, 1.0];
        assert!((auc(&scores, &labels) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn auc_ties_get_half_credit() {
        let scores = [0.5f32, 0.5, 0.5, 0.5];
        let labels = [1.0f32, 0.0, 1.0, 0.0];
        assert!((auc(&scores, &labels) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn auc_invariant_to_monotone_transform() {
        let scores = [0.1f32, 0.7, 0.3, 0.9, 0.45];
        let labels = [0.0f32, 1.0, 0.0, 1.0, 1.0];
        let base = auc(&scores, &labels);
        let shifted: Vec<f32> = scores.iter().map(|s| s * 3.0 + 2.0).collect();
        assert!((auc(&shifted, &labels) - base).abs() < 1e-12);
    }

    #[test]
    fn auc_degenerate_classes() {
        assert_eq!(auc(&[0.3, 0.7], &[1.0, 1.0]), 0.5);
        assert_eq!(auc(&[], &[]), 0.5);
    }

    #[test]
    fn logloss_known_value() {
        let probs = [0.9f32, 0.1];
        let labels = [1.0f32, 0.0];
        let expect = -((0.9f64).ln() + (0.9f64).ln()) / 2.0;
        // f32 inputs are widened to f64, so allow f32-level tolerance.
        assert!((logloss(&probs, &labels) - expect).abs() < 1e-7);
    }

    #[test]
    fn logloss_clamps_extremes() {
        let l = logloss(&[0.0, 1.0], &[1.0, 0.0]);
        assert!(l.is_finite());
        assert!(l > 10.0, "confidently wrong must be heavily penalised");
    }

    #[test]
    fn logloss_perfect_is_near_zero() {
        let l = logloss(&[1.0, 0.0], &[1.0, 0.0]);
        assert!(l < 1e-5);
    }

    #[test]
    fn relative_improvement_sign() {
        assert!((relative_improvement(0.80, 0.88) - 10.0).abs() < 1e-9);
        assert!(relative_improvement(0.9, 0.81) < 0.0);
    }

    // ---------------- edge cases ----------------

    #[test]
    fn auc_all_positive_labels_is_neutral() {
        assert_eq!(auc(&[0.2, 0.9, 0.5], &[1.0, 1.0, 1.0]), 0.5);
    }

    #[test]
    fn auc_all_negative_labels_is_neutral() {
        assert_eq!(auc(&[0.2, 0.9, 0.5], &[0.0, 0.0, 0.0]), 0.5);
    }

    #[test]
    fn auc_single_element_is_neutral() {
        assert_eq!(auc(&[0.7], &[1.0]), 0.5);
        assert_eq!(auc(&[0.7], &[0.0]), 0.5);
    }

    #[test]
    fn auc_partial_ties_average_rank() {
        // positive tied with one of two negatives: the tie contributes half
        // credit -> AUC = (1 + 0.5) / 2 = 0.75
        let scores = [0.5f32, 0.5, 0.1];
        let labels = [1.0f32, 0.0, 0.0];
        assert!((auc(&scores, &labels) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn logloss_clips_probability_zero_and_one() {
        // exactly-right extreme predictions: clamped to eps, near-zero loss
        let perfect = logloss(&[1.0, 0.0], &[1.0, 0.0]);
        assert!(perfect > 0.0, "clamping keeps the loss strictly positive");
        assert!(perfect < 1e-5);
        // exactly-wrong extreme predictions: clamped to -ln(eps) per sample
        let worst = logloss(&[0.0, 1.0], &[1.0, 0.0]);
        let expect = -(1e-7f64).ln();
        assert!((worst - expect).abs() < 1e-6, "worst {worst} vs {expect}");
    }

    #[test]
    fn logloss_single_element() {
        let l = logloss(&[0.25], &[1.0]);
        assert!((l - -(0.25f64).ln()).abs() < 1e-6);
    }

    #[test]
    fn logloss_empty_is_zero() {
        assert_eq!(logloss(&[], &[]), 0.0);
    }
}

// Property tests (miss-testkit): random score/label perturbations must keep
// the metrics within their hard bounds.
#[cfg(test)]
mod property_tests {
    use super::*;
    use miss_testkit::{bools, prop_assert, properties, vec_of};

    properties! {
        #![config(cases = 50)]

        fn auc_always_in_unit_interval(pairs in vec_of((0.0f32..1.0, bools()), 1..64)) {
            let scores: Vec<f32> = pairs.iter().map(|&(s, _)| s).collect();
            let labels: Vec<f32> = pairs.iter().map(|&(_, y)| y as u8 as f32).collect();
            let a = auc(&scores, &labels);
            prop_assert!((0.0..=1.0).contains(&a), "AUC {} out of bounds", a);
        }

        fn logloss_always_finite_nonnegative(pairs in vec_of((0.0f32..=1.0, bools()), 1..64)) {
            let probs: Vec<f32> = pairs.iter().map(|&(p, _)| p).collect();
            let labels: Vec<f32> = pairs.iter().map(|&(_, y)| y as u8 as f32).collect();
            let l = logloss(&probs, &labels);
            prop_assert!(l.is_finite() && l >= 0.0, "logloss {}", l);
        }
    }
}
