//! Table VII: effectiveness analysis — the MISS ablation variants
//! (MISS, /F, /F/U, /F/L, /F/U/L, /M/F/U/L) on IPNN and DIN.

use miss_bench::{run_grid, ExpOpts};
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
    let cells: Vec<_> = [BaseModel::Ipnn, BaseModel::Din]
        .into_iter()
        .flat_map(|base| {
            let variants = VARIANTS.map(|v| {
                let e = Experiment::new(base, SslKind::Miss(MissConfig::variant(v)));
                (format!("{}-{}", base.label(), v.label()), e)
            });
            // The plain base model closes each block, as in the paper.
            let plain = Experiment::new(base, SslKind::None);
            variants.into_iter().chain([(plain.label(), plain)])
        })
        .collect();
    run_grid(&opts, "Table VII: MISS variants", &cells);
}
