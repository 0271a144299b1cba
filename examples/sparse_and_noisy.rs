//! The paper's two motivating failure modes — label sparsity and label
//! noise — and how MISS mitigates both (Tables X and XI in miniature):
//! the training split is down-sampled / label-swapped while validation and
//! test stay clean, and the relative improvement of DIN-MISS over DIN grows
//! as conditions get harsher.
//!
//! ```sh
//! cargo run --release --example sparse_and_noisy
//! ```

use miss::core::MissConfig;
use miss::data::{Dataset, WorldConfig};
use miss::trainer::{BaseModel, Experiment, MissError, SslKind};
use miss::util::Rng;

fn run_pair(dataset: &Dataset) -> Result<(f64, f64), MissError> {
    let din = Experiment::new(BaseModel::Din, SslKind::None).run(dataset, 0)?;
    let miss = Experiment::new(BaseModel::Din, SslKind::Miss(MissConfig::default()))
        .run(dataset, 0)?;
    Ok((din.test.auc, miss.test.auc))
}

fn main() -> Result<(), MissError> {
    let world = WorldConfig::amazon_cds(0.5);

    println!("--- label sparsity (training set down-sampled) ---");
    println!("{:>5} {:>10} {:>10} {:>9}", "SR", "DIN", "DIN-MISS", "RI");
    for sr in [0.6f64, 0.8, 1.0] {
        let mut dataset = Dataset::generate(world.clone(), 42);
        let mut rng = Rng::new(1);
        dataset.downsample_train(sr, &mut rng);
        let (d, m) = run_pair(&dataset)?;
        println!(
            "{:>4.0}% {:>10.4} {:>10.4} {:>+8.2}%",
            sr * 100.0,
            d,
            m,
            (m - d) / d * 100.0
        );
    }

    println!("--- label noise (training labels swapped) ---");
    println!("{:>5} {:>10} {:>10} {:>9}", "NR", "DIN", "DIN-MISS", "RI");
    for nr in [0.0f64, 0.1, 0.2] {
        let mut dataset = Dataset::generate(world.clone(), 42);
        let mut rng = Rng::new(2);
        dataset.swap_train_labels(nr, &mut rng);
        let (d, m) = run_pair(&dataset)?;
        println!(
            "{:>4.0}% {:>10.4} {:>10.4} {:>+8.2}%",
            nr * 100.0,
            d,
            m,
            (m - d) / d * 100.0
        );
    }
    Ok(())
}
