//! Property tests of the dataset protocol over randomised world
//! configurations — the guarantees every model and experiment relies on.

use miss_data::{Dataset, World, WorldConfig};
use miss_testkit::{prop_assert, prop_assert_eq, prop_assume, properties, Strategy, StrategyExt};
use std::collections::BTreeSet;

fn arb_config() -> impl Strategy<Value = WorldConfig> {
    (
        40usize..150,        // users
        60usize..200,        // items
        3usize..10,          // interests
        2usize..5,           // categories
        0.5f64..0.95,        // stickiness
        0.0f64..0.95,        // drift
        0.0f64..0.9,         // chain strength
        5usize..20,          // max raw seq len
    )
        .prop_map(
            |(users, items, interests, cats, stick, drift, chain, max_len)| WorldConfig {
                name: "prop-sim".into(),
                num_users: users,
                num_items: items,
                num_interests: interests,
                num_categories: cats,
                num_sellers: 0,
                num_action_types: 0,
                interests_per_user: (2, 3.min(interests).max(2)),
                dirichlet_alpha: 0.8,
                seq_len_range: (4, max_len.max(5)),
                stickiness: stick,
                zipf_exponent: 1.0,
                min_interactions: 5,
                history_noise: 0.05,
                interest_drift: drift,
                chain_strength: chain,
                max_seq_len: 12,
            },
        )
}

properties! {
    #![config(cases = 24)]

    fn generation_is_total_and_consistent(cfg in arb_config(), seed in 0u64..1000) {
        let world = World::generate(cfg.clone(), seed);
        // every kept user meets the filter
        prop_assert!(world.users.iter().all(|u| u.history.len() >= cfg.min_interactions));
        // every item id valid; every interest pool non-empty
        prop_assert!(world.interest_items.iter().all(|p| !p.is_empty()));
        for u in &world.users {
            for &it in &u.history {
                prop_assert!(it >= 1 && (it as usize) <= cfg.num_items);
            }
        }
    }

    fn split_protocol_holds_for_any_world(cfg in arb_config(), seed in 0u64..1000) {
        let world = World::generate(cfg, seed);
        prop_assume!(!world.users.is_empty());
        let dataset = Dataset::from_world(&world, seed);
        let users = world.users.len();
        prop_assert_eq!(dataset.train.len(), users * 2);
        prop_assert_eq!(dataset.valid.len(), users * 2);
        prop_assert_eq!(dataset.test.len(), users * 2);
        for (uidx, user) in world.users.iter().enumerate() {
            let interacted: BTreeSet<u32> = user.history.iter().copied().collect();
            // positives are real next items; negatives never interacted
            let l = user.history.len();
            let train_pos = &dataset.train[uidx * 2];
            prop_assert_eq!(train_pos.cat[1], user.history[l - 3]);
            let test_pos = &dataset.test[uidx * 2];
            prop_assert_eq!(test_pos.cat[1], user.history[l - 1]);
            for split in [&dataset.train, &dataset.valid, &dataset.test] {
                let neg = &split[uidx * 2 + 1];
                prop_assert!(!interacted.contains(&neg.cat[1]));
            }
        }
    }

    fn transforms_compose_safely(
        cfg in arb_config(),
        seed in 0u64..500,
        sr in 0.3f64..1.0,
        nr in 0.0f64..0.5,
    ) {
        let mut dataset = Dataset::generate(cfg, seed);
        let valid_before: Vec<f32> = dataset.valid.iter().map(|s| s.label).collect();
        let mut rng = miss_util::Rng::new(seed);
        dataset.downsample_train(sr, &mut rng);
        dataset.swap_train_labels(nr, &mut rng);
        // only the training split changes
        let valid_after: Vec<f32> = dataset.valid.iter().map(|s| s.label).collect();
        prop_assert_eq!(valid_before, valid_after);
        // labels remain binary
        prop_assert!(dataset.train.iter().all(|s| s.label == 0.0 || s.label == 1.0));
    }
}
