//! Quickstart: generate a multi-interest world, train DIN with and without
//! the MISS plug-in, and compare test AUC / Logloss.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use miss::core::{Miss, MissConfig};
use miss::data::{Dataset, WorldConfig};
use miss::models::{CtrModel, Din, ModelConfig};
use miss::nn::ParamStore;
use miss::trainer::{fit, MissError, TrainConfig};
use miss::util::Rng;

fn main() -> Result<(), MissError> {
    // 1. Simulate an Amazon-Cds-like world (multi-interest users, Zipf item
    //    popularity, interest runs) and assemble the CTR dataset with the
    //    paper's leave-last-three protocol.
    let dataset = Dataset::generate(WorldConfig::amazon_cds(0.5), 42);
    let stats = dataset.stats();
    println!(
        "dataset: {} users, {} items, {} instances, {} features, {} fields",
        stats.users, stats.items, stats.instances, stats.features, stats.fields
    );

    let train_cfg = TrainConfig::default();

    // 2. Train the base model (DIN).
    let mut store = ParamStore::new();
    let mut rng = Rng::new(0);
    let din = Din::new(&mut store, &dataset.schema, &ModelConfig::default(), &mut rng);
    let base = fit(&din, None, &mut store, &dataset, &train_cfg)?;
    println!(
        "DIN       AUC {:.4}  Logloss {:.4}  ({} epochs)",
        base.test.auc, base.test.logloss, base.epochs
    );

    // 3. Train the same model with the MISS plug-in sharing its embeddings.
    let mut store = ParamStore::new();
    let mut rng = Rng::new(0);
    let din = Din::new(&mut store, &dataset.schema, &ModelConfig::default(), &mut rng);
    let miss = Miss::new(&mut store, din.embedding(), MissConfig::default(), &mut rng);
    let enhanced = fit(&din, Some(&miss), &mut store, &dataset, &train_cfg)?;
    println!(
        "DIN-MISS  AUC {:.4}  Logloss {:.4}  ({} epochs)",
        enhanced.test.auc, enhanced.test.logloss, enhanced.epochs
    );
    println!(
        "relative AUC improvement: {:+.2}%",
        (enhanced.test.auc - base.test.auc) / base.test.auc * 100.0
    );
    Ok(())
}
