//! Table V: compatibility analysis — DIN / IPNN / FiGNN with and without
//! the MISS plug-in.

use miss_bench::{run_grid, ExpOpts};
use miss_core::MissConfig;
use miss_trainer::{BaseModel, Experiment, SslKind};

fn main() {
    let opts = ExpOpts::from_args();
    let cells: Vec<_> = [BaseModel::Din, BaseModel::Ipnn, BaseModel::FiGnn]
        .into_iter()
        .flat_map(|base| {
            [SslKind::None, SslKind::Miss(MissConfig::default())]
                .map(|ssl| Experiment::new(base, ssl))
        })
        .map(|e| (e.label(), e))
        .collect();
    run_grid(&opts, "Table V: compatibility analysis", &cells);
}
