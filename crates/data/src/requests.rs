//! Serving request stream: simulated `(user, candidates[])` scoring traffic
//! for the inference engine and its open-loop bench.
//!
//! A production CTR ranker receives one request per ad slot: a user (with
//! their behaviour history) and a slate of candidate items retrieved
//! upstream, and must score every candidate. This module turns the interest
//! world into that traffic shape: each [`ScoreRequest`] clones a real user
//! context from a dataset split and swaps in `candidates` uniformly sampled
//! items, rewriting the candidate-side fields (item id, category, seller)
//! from the world's item attributes so the request is schema-identical to a
//! training sample. Generation is fully seeded — the same
//! `(world, split, seed)` always yields byte-identical requests.

use crate::dataset::{Dataset, Sample, Split};
use crate::world::World;
use miss_util::Rng;

/// One scoring request: a single user context with one [`Sample`] per
/// candidate item. All samples share the user's categorical context and
/// behaviour history; only the candidate-side fields differ. Labels are
/// fixed at `0.0` — serving has no ground truth.
#[derive(Clone, Debug)]
pub struct ScoreRequest {
    /// One sample per candidate, in candidate order.
    pub samples: Vec<Sample>,
}

impl ScoreRequest {
    /// Number of candidates to score.
    pub fn num_candidates(&self) -> usize {
        self.samples.len()
    }
}

/// Generate `num_requests` scoring requests of `candidates` candidates each.
///
/// User contexts are drawn (with replacement) from `dataset.split(split)`;
/// candidate items are drawn uniformly from the world's item catalogue. The
/// candidate item id, category, and (when the preset has sellers) seller are
/// rewritten per candidate; user id, action type, and the history sequences
/// are the base sample's. Deterministic in `seed` alone for a fixed world
/// and dataset.
#[expect(
    clippy::indexing_slicing,
    reason = "below(n) < n, and every sample carries user, item and category fields (plus seller when the world has sellers)"
)]
pub fn request_stream(
    world: &World,
    dataset: &Dataset,
    split: Split,
    num_requests: usize,
    candidates: usize,
    seed: u64,
) -> Vec<ScoreRequest> {
    assert!(candidates > 0, "a request needs at least one candidate");
    let base = dataset.split(split);
    assert!(!base.is_empty(), "empty split");
    let has_seller = world.config.num_sellers > 0;
    let mut rng = Rng::new(seed ^ 0x5E64_E57A);
    let mut out = Vec::with_capacity(num_requests);
    for _ in 0..num_requests {
        let user_sample = &base[rng.below(base.len())];
        let mut samples = Vec::with_capacity(candidates);
        for _ in 0..candidates {
            let cand = rng.below(world.config.num_items) as u32 + 1;
            let item = world.item(cand);
            let mut s = user_sample.clone();
            s.cat[1] = cand;
            s.cat[2] = item.category;
            if has_seller {
                s.cat[3] = item.seller;
            }
            s.label = 0.0;
            samples.push(s);
        }
        out.push(ScoreRequest { samples });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::WorldConfig;

    fn world_and_dataset() -> (World, Dataset) {
        let world = World::generate(WorldConfig::tiny(), 0xDA7A);
        let dataset = Dataset::from_world(&world, 0xDA7A);
        (world, dataset)
    }

    #[test]
    fn stream_is_deterministic_in_seed() {
        let (world, dataset) = world_and_dataset();
        let a = request_stream(&world, &dataset, Split::Test, 8, 5, 42);
        let b = request_stream(&world, &dataset, Split::Test, 8, 5, 42);
        let c = request_stream(&world, &dataset, Split::Test, 8, 5, 43);
        for (x, y) in a.iter().zip(&b) {
            for (sx, sy) in x.samples.iter().zip(&y.samples) {
                assert_eq!(sx.cat, sy.cat);
                assert_eq!(sx.hist, sy.hist);
            }
        }
        assert!(
            a.iter().zip(&c).any(|(x, y)| {
                x.samples
                    .iter()
                    .zip(&y.samples)
                    .any(|(sx, sy)| sx.cat != sy.cat)
            }),
            "different seeds produced identical streams"
        );
    }

    #[test]
    fn candidates_are_schema_consistent() {
        let (world, dataset) = world_and_dataset();
        let reqs = request_stream(&world, &dataset, Split::Test, 6, 4, 7);
        assert_eq!(reqs.len(), 6);
        for r in &reqs {
            assert_eq!(r.num_candidates(), 4);
            let first = &r.samples[0];
            for s in &r.samples {
                // Candidate fields rewritten consistently with the world.
                let item = world.item(s.cat[1]);
                assert_eq!(s.cat[2], item.category);
                // User context shared across the request.
                assert_eq!(s.cat[0], first.cat[0]);
                assert_eq!(s.hist, first.hist);
                assert_eq!(s.cat.len(), dataset.schema.num_cat());
                assert_eq!(s.label, 0.0);
            }
        }
    }
}
