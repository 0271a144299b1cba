//! Generation of the latent-interest world: items with attributes, users
//! with interest mixtures, and sticky-Markov behaviour sequences.

use crate::config::WorldConfig;
use miss_util::{Categorical, Rng, Zipf};

/// A generated item with its latent interest and observable attributes.
#[derive(Clone, Debug)]
pub struct Item {
    /// Latent interest this item belongs to (hidden from the models).
    pub interest: usize,
    /// Observable category id (1-based; 0 is PAD). Correlated with, but
    /// coarser than, the latent interest.
    pub category: u32,
    /// Observable seller id (1-based; 0 when the preset has no sellers).
    pub seller: u32,
}

/// A generated user: interest mixture and full chronological click history.
#[derive(Clone, Debug)]
pub struct User {
    /// The interests this user mixes and their Dirichlet weights.
    pub interests: Vec<(usize, f64)>,
    /// Chronological item ids (1-based into the item vocabulary).
    pub history: Vec<u32>,
    /// Context action type per sample (1-based; 0 when absent).
    pub action_type: u32,
}

/// The fully generated world. Deterministic given `(config, seed)`.
pub struct World {
    /// Generator configuration.
    pub config: WorldConfig,
    /// Items indexed by `item_id - 1`.
    pub items: Vec<Item>,
    /// Users surviving the minimum-interaction filter.
    pub users: Vec<User>,
    /// Items of each interest (1-based ids), for samplers and tests.
    pub interest_items: Vec<Vec<u32>>,
}


/// Interest-mixture weights at relative time `progress ∈ [0, 1]`: the first
/// half of the user's interests fades out with `drift`, the second half
/// fades in, and a middle interest (odd counts) stays stable.
pub(crate) fn drifted_weights(
    interests: &[(usize, f64)],
    drift: f64,
    progress: f64,
) -> Vec<f64> {
    let k = interests.len();
    interests
        .iter()
        .enumerate()
        .map(|(idx, &(_, w))| {
            let factor = if idx < k / 2 {
                1.0 - drift * progress
            } else if idx >= k.div_ceil(2) {
                1.0 - drift * (1.0 - progress)
            } else {
                1.0
            };
            (w * factor).max(1e-9)
        })
        .collect()
}

/// Linear-scan sampling from unnormalised non-negative weights.
pub(crate) fn sample_weighted(weights: &[f64], rng: &mut Rng) -> usize {
    let total: f64 = weights.iter().sum();
    let mut u = rng.f64() * total;
    for (i, &w) in weights.iter().enumerate() {
        u -= w;
        if u <= 0.0 {
            return i;
        }
    }
    weights.len() - 1
}

impl World {
    /// Generate a world.
    #[expect(
        clippy::indexing_slicing,
        clippy::unwrap_used,
        reason = "interests are drawn from 0..num_interests, pool ranks from 0..pool.len(), and the donor is the largest pool of a non-empty catalogue"
    )]
    pub fn generate(config: WorldConfig, seed: u64) -> Self {
        let mut rng = Rng::new(seed ^ 0x5EED_DA7A);
        let mut items = Vec::with_capacity(config.num_items);
        let mut interest_items: Vec<Vec<u32>> = vec![Vec::new(); config.num_interests];

        // Interests get different item-pool sizes (some niches are bigger).
        let pool_weights: Vec<f64> = (0..config.num_interests)
            .map(|_| 0.5 + rng.f64())
            .collect();
        let pool_dist = Categorical::new(&pool_weights);

        for id in 0..config.num_items {
            let interest = pool_dist.sample(&mut rng);
            // Category: interests map onto coarser categories with a little
            // noise, so category is an informative but imperfect proxy.
            let category = if rng.bool(0.9) {
                (interest % config.num_categories) as u32 + 1
            } else {
                rng.below(config.num_categories) as u32 + 1
            };
            let seller = if config.num_sellers > 0 {
                // Sellers specialise: each interest has a few home sellers.
                let home = (interest * 3 + rng.below(3)) % config.num_sellers;
                if rng.bool(0.8) {
                    home as u32 + 1
                } else {
                    rng.below(config.num_sellers) as u32 + 1
                }
            } else {
                0
            };
            items.push(Item {
                interest,
                category,
                seller,
            });
            interest_items[interest].push(id as u32 + 1);
        }
        // Guard: every interest must have at least one item so the walk can
        // always emit. Reassign from the largest pool if needed.
        for i in 0..config.num_interests {
            if interest_items[i].is_empty() {
                let donor = (0..config.num_interests)
                    .max_by_key(|&j| interest_items[j].len())
                    .unwrap();
                let moved = interest_items[donor].pop().unwrap();
                items[(moved - 1) as usize].interest = i;
                interest_items[i].push(moved);
            }
        }

        // Per-interest Zipf popularity over that interest's item pool.
        let zipfs: Vec<Zipf> = interest_items
            .iter()
            .map(|pool| Zipf::new(pool.len(), config.zipf_exponent))
            .collect();

        // Users draw from independent counter-derived RNG streams: user `u`
        // seeds its own generator from `user_base ^ u·φ` (a splitmix-style
        // stream id), so each user is a pure function of `(config, seed, u)`.
        // Chunks of the user index range then generate in parallel and
        // concatenate in index order — byte-identical output for any
        // `MISS_THREADS` value, and identical to a serial loop over `u`.
        let user_base = rng.next_u64();
        let cfg = &config;
        let pools = &interest_items;
        let zipfs_ref = &zipfs;
        let gen_user = move |u: usize| -> Option<User> {
            let mut rng = Rng::new(user_base ^ (u as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let k = rng.range(cfg.interests_per_user.0, cfg.interests_per_user.1 + 1);
            let k = k.min(cfg.num_interests);
            let chosen = rng.sample_indices(cfg.num_interests, k);
            let weights = rng.dirichlet(k, cfg.dirichlet_alpha);
            let interests: Vec<(usize, f64)> = chosen.into_iter().zip(weights).collect();
            let mix = Categorical::new(&interests.iter().map(|&(_, w)| w).collect::<Vec<_>>());

            let len = rng.range(cfg.seq_len_range.0, cfg.seq_len_range.1 + 1);
            let mut history = Vec::with_capacity(len);
            // Sticky Markov walk over the user's interests, with the mixture
            // drifting from the early-interest half toward the late-interest
            // half over the sequence (long time-span diversity).
            let mut cur = interests[mix.sample(&mut rng)].0;
            // Rank of the previous item inside its interest pool: within a
            // run the walk tends to advance along the pool's chain order
            // (series/progression structure), which makes the next click
            // predictable from the *last* behaviour — signal that pooled
            // bilinear matchers cannot isolate but sequence models can.
            let mut chain_rank: Option<usize> = None;
            for t in 0..len {
                let progress = if len > 1 {
                    t as f64 / (len - 1) as f64
                } else {
                    1.0
                };
                if !rng.bool(cfg.stickiness) {
                    let weights = drifted_weights(&interests, cfg.interest_drift, progress);
                    cur = interests[sample_weighted(&weights, &mut rng)].0;
                    chain_rank = None; // a new run re-enters the chain
                }
                let item = if rng.bool(cfg.history_noise) {
                    // Spurious click anywhere in the catalogue.
                    chain_rank = None;
                    rng.below(cfg.num_items) as u32 + 1
                } else {
                    let pool = &pools[cur];
                    let rank = match chain_rank {
                        // Continue the progression with high probability.
                        Some(r) if rng.bool(cfg.chain_strength) => (r + 1) % pool.len(),
                        _ => zipfs_ref[cur].sample(&mut rng),
                    };
                    chain_rank = Some(rank);
                    pool[rank]
                };
                history.push(item);
            }

            // Paper protocol: drop infrequent users. (The leave-last-three
            // split additionally needs 4+ behaviours; min_interactions in
            // all presets is ≥ 5.)
            if history.len() < cfg.min_interactions {
                return None;
            }
            let action_type = if cfg.num_action_types > 0 {
                rng.below(cfg.num_action_types) as u32 + 1
            } else {
                0
            };
            Some(User {
                interests,
                history,
                action_type,
            })
        };
        let chunk = miss_parallel::fixed_chunk_len(config.num_users, 1);
        let n_chunks = config.num_users.div_ceil(chunk);
        let users: Vec<User> = miss_parallel::par_map(n_chunks, |ci| {
            let lo = ci * chunk;
            let hi = (lo + chunk).min(config.num_users);
            (lo..hi).filter_map(gen_user).collect::<Vec<_>>()
        })
        .into_iter()
        .flatten()
        .collect();

        World {
            config,
            items,
            users,
            interest_items,
        }
    }

    /// Item attribute lookup (1-based id).
    #[expect(
        clippy::indexing_slicing,
        reason = "ids are 1..=num_items by construction, debug-asserted"
    )]
    pub fn item(&self, id: u32) -> &Item {
        debug_assert!(
            id >= 1 && (id as usize) <= self.items.len(),
            "item ids are generated 1..=num_items by this simulator"
        );
        &self.items[(id - 1) as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn world() -> World {
        World::generate(WorldConfig::tiny(), 7)
    }

    #[test]
    fn deterministic_given_seed() {
        let a = World::generate(WorldConfig::tiny(), 3);
        let b = World::generate(WorldConfig::tiny(), 3);
        assert_eq!(a.users.len(), b.users.len());
        for (ua, ub) in a.users.iter().zip(&b.users) {
            assert_eq!(ua.history, ub.history);
        }
    }

    #[test]
    fn all_users_meet_min_interactions() {
        let w = world();
        assert!(!w.users.is_empty());
        assert!(w
            .users
            .iter()
            .all(|u| u.history.len() >= w.config.min_interactions));
    }

    #[test]
    fn item_ids_are_one_based_and_valid() {
        let w = world();
        for u in &w.users {
            for &it in &u.history {
                assert!(it >= 1 && it as usize <= w.config.num_items);
            }
        }
    }

    #[test]
    fn every_interest_has_items() {
        let w = world();
        assert!(w.interest_items.iter().all(|p| !p.is_empty()));
    }

    #[test]
    fn categories_correlate_with_interests() {
        let w = World::generate(WorldConfig::amazon_cds(0.3), 11);
        // For each interest, the modal category should dominate.
        let mut aligned = 0usize;
        let mut total = 0usize;
        for item in &w.items {
            total += 1;
            if item.category == (item.interest % w.config.num_categories) as u32 + 1 {
                aligned += 1;
            }
        }
        let frac = aligned as f64 / total as f64;
        assert!(frac > 0.8, "category-interest alignment only {frac}");
    }

    #[test]
    fn sequences_show_interest_runs() {
        // Stickiness must yield consecutive same-interest pairs far above the
        // independence baseline.
        let w = World::generate(WorldConfig::amazon_cds(0.3), 13);
        let mut same = 0usize;
        let mut pairs = 0usize;
        for u in &w.users {
            for win in u.history.windows(2) {
                pairs += 1;
                if w.item(win[0]).interest == w.item(win[1]).interest {
                    same += 1;
                }
            }
        }
        let frac = same as f64 / pairs as f64;
        assert!(
            frac > 0.5,
            "interest runs too weak: consecutive-same fraction {frac}"
        );
    }

    #[test]
    fn users_are_multi_interest() {
        let w = world();
        assert!(w.users.iter().all(|u| u.interests.len() >= 2));
        for u in &w.users {
            let s: f64 = u.interests.iter().map(|&(_, w)| w).sum();
            assert!((s - 1.0).abs() < 1e-9);
        }
    }
}

#[cfg(test)]
mod drift_tests {
    use super::*;

    #[test]
    fn drifted_weights_shift_mass_over_time() {
        let interests = vec![(0usize, 0.25f64), (1, 0.25), (2, 0.25), (3, 0.25)];
        let early = drifted_weights(&interests, 0.8, 0.0);
        let late = drifted_weights(&interests, 0.8, 1.0);
        // at t=0 the late half is suppressed; at t=1 the early half is
        assert!(early[0] > early[3] * 2.0, "{early:?}");
        assert!(late[3] > late[0] * 2.0, "{late:?}");
        // no drift → no change
        let flat = drifted_weights(&interests, 0.0, 0.7);
        assert!(flat.iter().all(|&w| (w - 0.25).abs() < 1e-9));
    }

    #[test]
    fn sample_weighted_respects_weights() {
        let mut rng = Rng::new(3);
        let w = [0.0f64, 3.0, 1.0];
        let mut counts = [0usize; 3];
        for _ in 0..20_000 {
            counts[sample_weighted(&w, &mut rng)] += 1;
        }
        assert_eq!(counts[0], 0);
        let ratio = counts[1] as f64 / counts[2] as f64;
        assert!((ratio - 3.0).abs() < 0.3, "ratio {ratio}");
    }

    #[test]
    fn high_drift_worlds_shift_interests_toward_sequence_end() {
        let mut cfg = WorldConfig::amazon_books(0.3);
        cfg.interest_drift = 0.9;
        let w = World::generate(cfg, 5);
        // Measure: for users with >= 4 interests, the late-half interests
        // should occur more often in the tail third than in the head third.
        let mut head_late = 0usize;
        let mut tail_late = 0usize;
        for u in &w.users {
            let k = u.interests.len();
            if k < 4 {
                continue;
            }
            let late: std::collections::BTreeSet<usize> = u.interests[k.div_ceil(2)..]
                .iter()
                .map(|&(i, _)| i)
                .collect();
            let n = u.history.len();
            for (t, &item) in u.history.iter().enumerate() {
                let interest = w.item(item).interest;
                if late.contains(&interest) {
                    if t < n / 3 {
                        head_late += 1;
                    } else if t >= n - n / 3 {
                        tail_late += 1;
                    }
                }
            }
        }
        assert!(
            tail_late as f64 > 1.5 * head_late as f64,
            "drift not visible: head {head_late}, tail {tail_late}"
        );
    }
}
