//! Table IX: training strategies — joint multi-task learning (MISS-Joint)
//! vs two-stage pre-training (MISS-Pre), DIN base.

use miss_bench::{dataset_for, CellResult, ExpOpts, print_table};
use miss_core::MissConfig;
use miss_trainer::{BaseModel, Experiment, SslKind};

fn main() {
    let opts = ExpOpts::from_args();
    let mut dataset_names = Vec::new();
    let mut cells: Vec<Vec<CellResult>> = Vec::new();
    for world in opts.worlds() {
        let dataset = dataset_for(world);
        dataset_names.push(dataset.name.clone());
        let mut rows = Vec::new();

        let mut din = Experiment::new(BaseModel::Din, SslKind::None);
        opts.tune(&mut din);
        rows.push(CellResult::from_runs("DIN", &opts.runs(&din, &dataset)));

        let mut joint =
            Experiment::new(BaseModel::Din, SslKind::Miss(MissConfig::default()));
        opts.tune(&mut joint);
        rows.push(CellResult::from_runs(
            "MISS-Joint",
            &opts.runs(&joint, &dataset),
        ));

        let mut pre = Experiment::new(BaseModel::Din, SslKind::Miss(MissConfig::default()));
        pre.pretrain_epochs = Some(if opts.smoke { 1 } else { 5 });
        opts.tune(&mut pre);
        rows.push(CellResult::from_runs(
            "MISS-Pre",
            &opts.runs(&pre, &dataset),
        ));
        eprintln!("[table09] {} done", dataset.name);
        cells.push(rows);
    }
    print_table("Table IX: training strategies", &dataset_names, &cells);
}
