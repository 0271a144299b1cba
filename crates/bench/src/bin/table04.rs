//! Table IV: overall performance of the 13 baselines and MISS (DIN base)
//! on the three datasets, averaged over seeds, with the significance of
//! MISS vs the strongest baseline.

use miss_bench::{dataset_for, CellResult, ExpOpts, print_table};
use miss_core::MissConfig;
use miss_trainer::{Experiment, SslKind, ALL_BASELINES};

fn main() {
    let opts = ExpOpts::from_args();
    let mut dataset_names = Vec::new();
    let mut cells: Vec<Vec<CellResult>> = Vec::new();
    for world in opts.worlds() {
        let dataset = dataset_for(world);
        dataset_names.push(dataset.name.clone());
        let mut rows = Vec::new();
        for base in ALL_BASELINES {
            let mut e = Experiment::new(base, SslKind::None);
            opts.tune(&mut e);
            let runs = opts.runs(&e, &dataset);
            eprintln!("[table04] {} {} done", dataset.name, e.label());
            rows.push(CellResult::from_runs(e.label(), &runs));
        }
        let mut e = Experiment::new(
            miss_trainer::BaseModel::Din,
            SslKind::Miss(MissConfig::default()),
        );
        opts.tune(&mut e);
        let runs = opts.runs(&e, &dataset);
        eprintln!("[table04] {} MISS done", dataset.name);
        rows.push(CellResult::from_runs("MISS", &runs));
        cells.push(rows);
    }
    print_table("Table IV: overall performance", &dataset_names, &cells);

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
            if miss.significant_vs(best_base) { "yes (p<0.05)" } else { "no" }
        );
    }
}
