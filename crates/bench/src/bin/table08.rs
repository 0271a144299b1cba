//! Table VIII: multi-interest extractor comparison — DIN base with the
//! CNN (MISS), self-attention (MISS-SA) and LSTM (MISS-LSTM) extractors.

use miss_bench::{dataset_for, CellResult, ExpOpts, print_table};
use miss_core::{ExtractorKind, MissConfig};
use miss_trainer::{BaseModel, Experiment, SslKind};

fn main() {
    let opts = ExpOpts::from_args();
    let mut dataset_names = Vec::new();
    let mut cells: Vec<Vec<CellResult>> = Vec::new();
    for world in opts.worlds() {
        let dataset = dataset_for(world);
        dataset_names.push(dataset.name.clone());
        let mut rows = Vec::new();
        let mut e = Experiment::new(BaseModel::Din, SslKind::None);
        opts.tune(&mut e);
        rows.push(CellResult::from_runs("DIN", &opts.runs(&e, &dataset)));
        for (label, kind) in [
            ("MISS-SA", ExtractorKind::SelfAttention),
            ("MISS-LSTM", ExtractorKind::Lstm),
            ("MISS-CNN", ExtractorKind::Cnn),
        ] {
            let mut e = Experiment::new(
                BaseModel::Din,
                SslKind::Miss(MissConfig::with_extractor(kind)),
            );
            opts.tune(&mut e);
            let runs = opts.runs(&e, &dataset);
            eprintln!("[table08] {} {} done", dataset.name, label);
            rows.push(CellResult::from_runs(label, &runs));
        }
        cells.push(rows);
    }
    print_table("Table VIII: multi-interest extractors", &dataset_names, &cells);
}
