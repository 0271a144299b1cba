//! Figure 6: sensitivity of DIN-MISS to the SSL loss weight
//! α = α₁ = α₂ ∈ {0.05, 0.1, 0.5, 1, 5} on the three datasets. Expected
//! shape: performance rises with α then degrades once the SSL losses
//! dominate (α > 1).

#![expect(
    clippy::field_reassign_with_default,
    reason = "each run reads as the paper's default config plus the knobs it varies"
)]

use miss_bench::{dataset_for, CellResult, ExpOpts, print_table};
use miss_core::MissConfig;
use miss_trainer::{BaseModel, Experiment, SslKind};

fn main() {
    let opts = ExpOpts::from_args();
    let alphas = [0.05f32, 0.1, 0.5, 1.0, 5.0];
    let mut dataset_names = Vec::new();
    let mut cells: Vec<Vec<CellResult>> = Vec::new();
    for world in opts.worlds() {
        let dataset = dataset_for(world);
        dataset_names.push(dataset.name.clone());
        let mut rows = Vec::new();
        for &a in &alphas {
            let mut cfg = MissConfig::default();
            cfg.alpha1 = a;
            cfg.alpha2 = a;
            let mut e = Experiment::new(BaseModel::Din, SslKind::Miss(cfg));
            opts.tune(&mut e);
            let runs = opts.runs(&e, &dataset);
            eprintln!("[fig06] {} alpha={a} done", dataset.name);
            rows.push(CellResult::from_runs(format!("alpha={a}"), &runs));
        }
        cells.push(rows);
    }
    print_table(
        "Figure 6: DIN-MISS vs SSL loss weight",
        &dataset_names,
        &cells,
    );
}
