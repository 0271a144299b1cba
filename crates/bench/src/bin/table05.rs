//! Table V: compatibility analysis — DIN / IPNN / FiGNN with and without
//! the MISS plug-in.

use miss_bench::{dataset_for, CellResult, ExpOpts, print_table};
use miss_core::MissConfig;
use miss_trainer::{BaseModel, Experiment, SslKind};

fn main() {
    let opts = ExpOpts::from_args();
    let bases = [BaseModel::Din, BaseModel::Ipnn, BaseModel::FiGnn];
    let mut dataset_names = Vec::new();
    let mut cells: Vec<Vec<CellResult>> = Vec::new();
    for world in opts.worlds() {
        let dataset = dataset_for(world);
        dataset_names.push(dataset.name.clone());
        let mut rows = Vec::new();
        for base in bases {
            for ssl in [SslKind::None, SslKind::Miss(MissConfig::default())] {
                let mut e = Experiment::new(base, ssl);
                opts.tune(&mut e);
                let runs = opts.runs(&e, &dataset);
                eprintln!("[table05] {} {} done", dataset.name, e.label());
                rows.push(CellResult::from_runs(e.label(), &runs));
            }
        }
        cells.push(rows);
    }
    print_table("Table V: compatibility analysis", &dataset_names, &cells);
}
