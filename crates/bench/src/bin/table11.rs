//! Table XI: label-noise case study — AUC of DIN vs DIN-MISS with a
//! fraction NR ∈ {0%, 10%, 20%} of training labels swapped, plus the
//! relative improvement. Amazon worlds only, as in the paper.

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
    println!("=== Table XI: AUC under training-label noise ===");
    println!("{:<20} {:>5} {:>10} {:>10} {:>9}", "Dataset", "NR", "DIN", "DIN-MISS", "RI");
    for world in worlds {
        let name = world.name.clone();
        for nr in [0.0f64, 0.1, 0.2] {
            let mut dataset = dataset_for(world.clone());
            let mut rng = Rng::new(0xA5);
            dataset.swap_train_labels(nr, &mut rng);
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
                nr * 100.0,
                d,
                m,
                ri(d, m)
            );
            eprintln!("[table11] {name} NR={nr} done");
        }
    }
}
