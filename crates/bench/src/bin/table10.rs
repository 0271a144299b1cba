//! Table X: label-sparsity case study — AUC of DIN vs DIN-MISS with the
//! training set down-sampled to SR ∈ {80%, 90%, 100%}, plus the relative
//! improvement (RI). Amazon worlds only, as in the paper.

use miss_bench::{dataset_for, ri, ExpOpts};
use miss_core::MissConfig;
use miss_data::WorldConfig;
use miss_trainer::{BaseModel, Experiment, SslKind};
use miss_util::{mean, Rng};

fn main() {
    let opts = ExpOpts::from_args();
    let worlds: Vec<WorldConfig> = if opts.smoke {
        vec![WorldConfig::tiny()]
    } else {
        vec![
            WorldConfig::amazon_cds(opts.scale),
            WorldConfig::amazon_books(opts.scale),
        ]
    };
    println!("=== Table X: AUC under training-set down-sampling ===");
    println!("{:<20} {:>5} {:>10} {:>10} {:>9}", "Dataset", "SR", "DIN", "DIN-MISS", "RI");
    for world in worlds {
        let name = world.name.clone();
        for sr in [0.8f64, 0.9, 1.0] {
            let mut dataset = dataset_for(world.clone());
            let mut rng = Rng::new(0x5A);
            dataset.downsample_train(sr, &mut rng);
            let mut din = Experiment::new(BaseModel::Din, SslKind::None);
            opts.tune(&mut din);
            let d = mean(
                &opts.runs(&din, &dataset)
                    .iter()
                    .map(|r| r.auc)
                    .collect::<Vec<_>>(),
            );
            let mut miss =
                Experiment::new(BaseModel::Din, SslKind::Miss(MissConfig::default()));
            opts.tune(&mut miss);
            let m = mean(
                &opts.runs(&miss, &dataset)
                    .iter()
                    .map(|r| r.auc)
                    .collect::<Vec<_>>(),
            );
            println!(
                "{:<20} {:>4.0}% {:>10.4} {:>10.4} {:>9}",
                name,
                sr * 100.0,
                d,
                m,
                ri(d, m)
            );
            eprintln!("[table10] {name} SR={sr} done");
        }
    }
}
