//! Quick calibration probe (not a paper table): DIN vs DIN-MISS on a small
//! Amazon-Cds world, one seed, with timing. Used during development to
//! verify that the SSL signal helps before running the full grids.

use miss_bench::dataset_for;
use miss_core::MissConfig;
use miss_data::WorldConfig;
use miss_trainer::{BaseModel, Experiment, SslKind};
use std::time::Instant;

#[expect(
    clippy::disallowed_methods,
    reason = "human-run calibration probe: it times whole runs by hand and feeds no training or evaluation path"
)]
fn main() {
    let args: Vec<String> = std::env::args().collect();
    let scale: f64 = args
        .iter()
        .position(|a| a == "--scale")
        .map(|i| args[i + 1].parse().unwrap())
        .unwrap_or(0.25);
    let dataset = dataset_for(WorldConfig::amazon_cds(scale));
    let stats = dataset.stats();
    println!(
        "dataset {}: {} users, {} items, {} instances, {} features",
        stats.name, stats.users, stats.items, stats.instances, stats.features
    );
    for (base, ssl) in [
        (BaseModel::Din, SslKind::None),
        (BaseModel::Din, SslKind::Miss(MissConfig::default())),
    ] {
        let e = Experiment::new(base, ssl);
        let t0 = Instant::now();
        let out = e.run(&dataset, 0);
        println!(
            "{:<10} AUC {:.4}  Logloss {:.4}  ({} epochs, {:.1?})",
            e.label(),
            out.test.auc,
            out.test.logloss,
            out.epochs,
            t0.elapsed()
        );
    }
}
