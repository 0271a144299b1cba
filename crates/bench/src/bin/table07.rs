//! Table VII: effectiveness analysis — the MISS ablation variants
//! (MISS, /F, /F/U, /F/L, /F/U/L, /M/F/U/L) on IPNN and DIN.

use miss_bench::{dataset_for, CellResult, ExpOpts, print_table};
use miss_core::{MissConfig, MissVariant};
use miss_trainer::{BaseModel, Experiment, SslKind};

const VARIANTS: [MissVariant; 6] = [
    MissVariant::Full,
    MissVariant::NoF,
    MissVariant::NoFU,
    MissVariant::NoFL,
    MissVariant::NoFUL,
    MissVariant::NoMFUL,
];

fn main() {
    let opts = ExpOpts::from_args();
    let bases = [BaseModel::Ipnn, BaseModel::Din];
    let mut dataset_names = Vec::new();
    let mut cells: Vec<Vec<CellResult>> = Vec::new();
    for world in opts.worlds() {
        let dataset = dataset_for(world);
        dataset_names.push(dataset.name.clone());
        let mut rows = Vec::new();
        for base in bases {
            for v in VARIANTS {
                let mut e =
                    Experiment::new(base, SslKind::Miss(MissConfig::variant(v)));
                opts.tune(&mut e);
                let label = format!("{}-{}", base.label(), v.label());
                let runs = opts.runs(&e, &dataset);
                eprintln!("[table07] {} {} done", dataset.name, label);
                rows.push(CellResult::from_runs(label, &runs));
            }
            // The plain base model closes each block, as in the paper.
            let mut e = Experiment::new(base, SslKind::None);
            opts.tune(&mut e);
            let runs = opts.runs(&e, &dataset);
            rows.push(CellResult::from_runs(base.label(), &runs));
        }
        cells.push(rows);
    }
    print_table("Table VII: MISS variants", &dataset_names, &cells);
}
