//! The random view-pair selectors `RS^i` (Eq. 21) and `RS^if` (Eq. 24).
//!
//! Pair positions are drawn **per sample** inside that sample's valid
//! (non-padded) window range, so a short history never produces all-padding
//! views. The distance `h` between the two views of an interest pair is
//! uniform on `[1, H]` (short- and long-range dependencies), clamped to the
//! room the sample actually has.

use crate::distance::DistanceLaw;
use crate::extractor::{InterestMap, InterestMaps};
use miss_data::Batch;
use miss_util::Rng;

/// One drawn pair of views: row indices (into a map's `(B·W)×K` matrices)
/// for view 1 and view 2 of every sample.
#[derive(Debug)]
pub struct PairDraw {
    /// Index of the kernel branch the pair came from.
    pub map: usize,
    /// Per-sample rows of the first view.
    pub idx1: Vec<usize>,
    /// Per-sample rows of the second view.
    pub idx2: Vec<usize>,
}

/// Selector implementing `RS^i` / `RS^if`.
pub struct PairSelector {
    /// Maximum dependency distance `H`.
    pub h: usize,
    /// Distribution of the drawn distance (paper default: uniform).
    pub law: DistanceLaw,
}

impl PairSelector {
    /// Valid position range `[lo, hi]` of `sample` in a map of width `w`
    /// produced by a kernel of width `m` over a left-padded sequence.
    fn valid_range(batch: &Batch, sample: usize, w: usize) -> (usize, usize) {
        let l = batch.seq_len;
        let pad = l - batch.hist_len(sample);
        let hi = w - 1;
        let lo = pad.min(hi);
        (lo, hi)
    }

    /// Eq. 21: draw one interest-level pair — same kernel, positions at a
    /// random distance `h ∈ [1, H]` (clamped per sample).
    #[expect(clippy::indexing_slicing, reason = "map_idx = below(maps.len())")]
    pub fn draw_interest(&self, maps: &InterestMaps, batch: &Batch, rng: &mut Rng) -> PairDraw {
        let map_idx = rng.below(maps.maps.len());
        let map = &maps.maps[map_idx];
        let h = self.law.sample(self.h, rng);
        let mut idx1 = Vec::with_capacity(maps.batch);
        let mut idx2 = Vec::with_capacity(maps.batch);
        for s in 0..maps.batch {
            let (lo, hi) = Self::valid_range(batch, s, map.width);
            let room = hi - lo;
            let hs = h.min(room);
            let l = if hi - hs > lo {
                rng.range(lo, hi - hs + 1)
            } else {
                lo
            };
            idx1.push(s * map.width + l);
            idx2.push(s * map.width + l + hs);
        }
        PairDraw {
            map: map_idx,
            idx1,
            idx2,
        }
    }

    /// Eq. 24: draw one feature-level pair — the *same* position seen through
    /// two different feature combinations `j1 ≠ j2` (when available) of one
    /// `Ĝ_{m,n}`. Returns `(j1, j2, per-sample rows)`.
    pub fn draw_feature(
        &self,
        map: &InterestMap,
        num_outputs: usize,
        batch: &Batch,
        rng: &mut Rng,
    ) -> (usize, usize, Vec<usize>) {
        let j1 = rng.below(num_outputs);
        let j2 = if num_outputs > 1 {
            let mut j = rng.below(num_outputs - 1);
            if j >= j1 {
                j += 1;
            }
            j
        } else {
            j1
        };
        let mut idx = Vec::with_capacity(batch.size);
        for s in 0..batch.size {
            let (lo, hi) = Self::valid_range(batch, s, map.width);
            let l = if hi > lo { rng.range(lo, hi + 1) } else { lo };
            idx.push(s * map.width + l);
        }
        (j1, j2, idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extractor::{Extractor, InterestMaps};
    use crate::ExtractorKind;
    use miss_data::{Batch, Dataset, Sample, WorldConfig};
    use miss_models::EmbeddingLayer;
    use miss_nn::{Graph, ParamStore};

    fn maps_and_batch() -> (InterestMaps, Batch) {
        let dataset = Dataset::generate(WorldConfig::tiny(), 31);
        let refs: Vec<&Sample> = dataset.train.iter().take(8).collect();
        let batch = Batch::from_samples(&refs, &dataset.schema);
        let mut store = ParamStore::new();
        let mut rng = Rng::new(4);
        let emb = EmbeddingLayer::new(&mut store, &dataset.schema, 10, "emb", &mut rng);
        let ex = Extractor::new(&mut store, ExtractorKind::Cnn, 3, 10, &mut rng);
        let mut g = Graph::new(&store);
        let se: Vec<_> = (0..2)
            .map(|j| emb.embed_seq_field(&mut g, &store, &batch, j))
            .collect();
        let maps = ex.extract(&mut g, &store, &se, &batch);
        (maps, batch)
    }

    #[test]
    fn interest_pairs_stay_in_sample_blocks() {
        let (maps, batch) = maps_and_batch();
        let sel = PairSelector { h: 3, law: DistanceLaw::Uniform };
        let mut rng = Rng::new(1);
        for _ in 0..50 {
            let d = sel.draw_interest(&maps, &batch, &mut rng);
            let w = maps.maps[d.map].width;
            for s in 0..batch.size {
                assert_eq!(d.idx1[s] / w, s, "view 1 left its sample block");
                assert_eq!(d.idx2[s] / w, s, "view 2 left its sample block");
                let l1 = d.idx1[s] % w;
                let l2 = d.idx2[s] % w;
                assert!(l2 >= l1 && l2 - l1 <= 3, "distance out of [0, H]");
            }
        }
    }

    #[test]
    fn interest_pairs_avoid_padding() {
        let (maps, batch) = maps_and_batch();
        let sel = PairSelector { h: 2, law: DistanceLaw::Uniform };
        let mut rng = Rng::new(2);
        let l = batch.seq_len;
        for _ in 0..50 {
            let d = sel.draw_interest(&maps, &batch, &mut rng);
            let w = maps.maps[d.map].width;
            for s in 0..batch.size {
                let pad = l - batch.hist_len(s);
                let pos = d.idx1[s] % w;
                // Position must be in the real region whenever the sample has
                // room for the kernel there.
                if pad < w {
                    assert!(pos >= pad, "view window starts inside padding");
                }
            }
        }
    }

    #[test]
    fn feature_pairs_prefer_distinct_feature_views() {
        let (maps, batch) = maps_and_batch();
        let sel = PairSelector { h: 2, law: DistanceLaw::Uniform };
        let mut rng = Rng::new(3);
        let mut distinct = 0;
        for _ in 0..40 {
            let (j1, j2, idx) = sel.draw_feature(&maps.maps[0], 2, &batch, &mut rng);
            assert!(j1 < 2 && j2 < 2);
            if j1 != j2 {
                distinct += 1;
            }
            assert_eq!(idx.len(), batch.size);
        }
        assert_eq!(distinct, 40, "with 2 outputs the views must always differ");
    }

    #[test]
    fn feature_pair_single_output_degenerates_gracefully() {
        let (maps, batch) = maps_and_batch();
        let sel = PairSelector { h: 2, law: DistanceLaw::Uniform };
        let mut rng = Rng::new(4);
        let (j1, j2, _) = sel.draw_feature(&maps.maps[0], 1, &batch, &mut rng);
        assert_eq!(j1, 0);
        assert_eq!(j2, 0);
    }
}
