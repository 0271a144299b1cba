//! Order statistics helpers (stable argsort, top-k) used by SIM's soft search
//! and by the AUC computation.

/// Indices that sort `xs` in descending order. Ties keep their original
/// relative order (stable), which makes downstream behaviour deterministic.
pub fn argsort_desc(xs: &[f32]) -> Vec<usize> {
    top_k_desc(xs, xs.len())
}

/// Indices of the `k` largest values of `xs`, in descending value order.
/// If `k >= xs.len()`, returns a full argsort.
pub fn top_k_desc(xs: &[f32], k: usize) -> Vec<usize> {
    let mut idx = Vec::new();
    top_k_desc_into(xs, k, &mut idx);
    idx
}

/// [`top_k_desc`] into `idx` (cleared first), with the same tie order, so
/// a per-row selection loop reuses one buffer.
#[expect(
    clippy::indexing_slicing,
    reason = "the comparator only sees indices drawn from 0..xs.len()"
)]
pub fn top_k_desc_into(xs: &[f32], k: usize, idx: &mut Vec<usize>) {
    idx.clear();
    idx.extend(0..xs.len());
    idx.sort_by(|&a, &b| xs[b].partial_cmp(&xs[a]).unwrap_or(std::cmp::Ordering::Equal));
    idx.truncate(k);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn argsort_descending() {
        let xs = [1.0f32, 5.0, 3.0, 2.0];
        assert_eq!(argsort_desc(&xs), vec![1, 2, 3, 0]);
    }

    #[test]
    fn argsort_stable_on_ties() {
        let xs = [2.0f32, 1.0, 2.0, 2.0];
        assert_eq!(argsort_desc(&xs), vec![0, 2, 3, 1]);
    }

    #[test]
    fn top_k_basic() {
        let xs = [0.1f32, 0.9, 0.5, 0.7];
        assert_eq!(top_k_desc(&xs, 2), vec![1, 3]);
    }

    #[test]
    fn top_k_larger_than_len() {
        let xs = [0.3f32, 0.2];
        assert_eq!(top_k_desc(&xs, 10), vec![0, 1]);
    }
}
