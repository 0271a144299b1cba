//! Table IX: training strategies — joint multi-task learning (MISS-Joint)
//! vs two-stage pre-training (MISS-Pre), DIN base.

use miss_bench::{din_miss, run_grid, ExpOpts};
use miss_core::MissConfig;
use miss_trainer::{BaseModel, Experiment, SslKind};

fn main() {
    let opts = ExpOpts::from_args();
    let pre = Experiment {
        pretrain_epochs: Some(if opts.smoke { 1 } else { 5 }),
        ..din_miss(MissConfig::default())
    };
    let cells = [
        ("DIN", Experiment::new(BaseModel::Din, SslKind::None)),
        ("MISS-Joint", din_miss(MissConfig::default())),
        ("MISS-Pre", pre),
    ];
    run_grid(&opts, "Table IX: training strategies", &cells);
}
