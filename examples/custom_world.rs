//! Building a custom interest world: a grocery-style scenario with very
//! sticky habits (long interest runs) and a seller field, then inspecting
//! the generated behaviour structure and training the full model zoo's
//! interest-based members on it.
//!
//! ```sh
//! cargo run --release --example custom_world
//! ```

use miss::core::MissConfig;
use miss::data::{Dataset, WorldConfig, World};
use miss::trainer::{BaseModel, Experiment, MissError, SslKind};

fn main() -> Result<(), MissError> {
    // A bespoke world: few, very sticky interests (weekly grocery habits),
    // sellers as an extra intra-item attribute.
    let config = WorldConfig {
        name: "grocery-sim".into(),
        num_users: 800,
        num_items: 600,
        num_interests: 10,
        num_categories: 5,
        num_sellers: 25,
        num_action_types: 0,
        interests_per_user: (2, 4),
        dirichlet_alpha: 1.0,
        seq_len_range: (8, 30),
        stickiness: 0.9,
        zipf_exponent: 1.2,
        min_interactions: 8,
        history_noise: 0.02,
        interest_drift: 0.2, // habits are stable over a short span
        chain_strength: 0.6, // weekly staples repeat in loose cycles
        max_seq_len: 24,
    };

    // Inspect the raw world before dataset assembly.
    let world = World::generate(config.clone(), 123);
    let mut run_lengths = Vec::new();
    for user in &world.users {
        let mut run = 1usize;
        for w in user.history.windows(2) {
            if world.item(w[0]).interest == world.item(w[1]).interest {
                run += 1;
            } else {
                run_lengths.push(run);
                run = 1;
            }
        }
        run_lengths.push(run);
    }
    let mean_run: f64 =
        run_lengths.iter().sum::<usize>() as f64 / run_lengths.len() as f64;
    println!(
        "world: {} users kept, mean interest-run length {:.2} behaviours",
        world.users.len(),
        mean_run
    );

    let dataset = Dataset::from_world(&world, 123);
    println!("fields: {:?}", dataset.schema.cat_fields.iter().map(|(n, _)| n.as_str()).collect::<Vec<_>>());

    for (base, ssl) in [
        (BaseModel::Din, SslKind::None),
        (BaseModel::Din, SslKind::Miss(MissConfig::default())),
        (BaseModel::SimSoft, SslKind::None),
        (BaseModel::Dmr, SslKind::None),
    ] {
        let e = Experiment::new(base, ssl);
        let out = e.run(&dataset, 0)?;
        println!(
            "{:<12} AUC {:.4}  Logloss {:.4}",
            e.label(),
            out.test.auc,
            out.test.logloss
        );
    }
    Ok(())
}
