//! Table IV: overall performance of the 13 baselines and MISS (DIN base)
//! on the three datasets, averaged over seeds, with the significance of
//! MISS vs the strongest baseline.

use miss_bench::{din_miss, run_grid, ExpOpts};
use miss_core::MissConfig;
use miss_trainer::{Experiment, SslKind, ALL_BASELINES};

fn main() {
    let opts = ExpOpts::from_args();
    let baselines = ALL_BASELINES.map(|base| Experiment::new(base, SslKind::None));
    let mut cells: Vec<_> = baselines.into_iter().map(|e| (e.label(), e)).collect();
    cells.push(("MISS".into(), din_miss(MissConfig::default())));
    let (dataset_names, cells) = run_grid(&opts, "Table IV: overall performance", &cells);

    // Significance of MISS vs the strongest baseline per dataset.
    for (d, rows) in cells.iter().enumerate() {
        let miss = rows.last().unwrap();
        let best_base = rows[..rows.len() - 1]
            .iter()
            .max_by(|a, b| a.auc().partial_cmp(&b.auc()).unwrap())
            .unwrap();
        println!(
            "{}: strongest baseline {} (AUC {:.4}); MISS {:.4}; significant: {}",
            dataset_names[d],
            best_base.label,
            best_base.auc(),
            miss.auc(),
            if miss.significant_vs(best_base) {
                "yes (p<0.05)"
            } else {
                "no"
            }
        );
    }
}
