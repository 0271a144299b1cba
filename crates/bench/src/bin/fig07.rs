//! Figure 7: sensitivity of DIN-MISS to the InfoNCE temperature
//! τ ∈ {0.05, 0.1, 0.5, 1, 5}. The paper finds the turning point at 0.1.

#![expect(
    clippy::field_reassign_with_default,
    reason = "each run reads as the paper's default config plus the knobs it varies"
)]

use miss_bench::{dataset_for, CellResult, ExpOpts, print_table};
use miss_core::MissConfig;
use miss_trainer::{BaseModel, Experiment, SslKind};

fn main() {
    let opts = ExpOpts::from_args();
    let taus = [0.05f32, 0.1, 0.5, 1.0, 5.0];
    let mut dataset_names = Vec::new();
    let mut cells: Vec<Vec<CellResult>> = Vec::new();
    for world in opts.worlds() {
        let dataset = dataset_for(world);
        dataset_names.push(dataset.name.clone());
        let mut rows = Vec::new();
        for &t in &taus {
            let mut cfg = MissConfig::default();
            cfg.tau = t;
            let mut e = Experiment::new(BaseModel::Din, SslKind::Miss(cfg));
            opts.tune(&mut e);
            let runs = opts.runs(&e, &dataset);
            eprintln!("[fig07] {} tau={t} done", dataset.name);
            rows.push(CellResult::from_runs(format!("tau={t}"), &runs));
        }
        cells.push(rows);
    }
    print_table(
        "Figure 7: DIN-MISS vs InfoNCE temperature",
        &dataset_names,
        &cells,
    );
}
