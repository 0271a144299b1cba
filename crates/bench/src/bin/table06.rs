//! Table VI: superiority analysis — the SSL comparison methods (Rule,
//! IRSSL, S3Rec, CL4SRec, MISS) plugged into IPNN and DIN.

use miss_bench::{run_grid, ExpOpts};
use miss_core::MissConfig;
use miss_trainer::{BaseModel, Experiment, SslKind};

fn main() {
    let opts = ExpOpts::from_args();
    let cells: Vec<_> = [BaseModel::Ipnn, BaseModel::Din]
        .into_iter()
        .flat_map(|base| {
            [
                SslKind::None,
                SslKind::Rule,
                SslKind::Irssl,
                SslKind::S3Rec,
                SslKind::Cl4SRec,
                SslKind::Miss(MissConfig::default()),
            ]
            .map(|ssl| Experiment::new(base, ssl))
        })
        .map(|e| (e.label(), e))
        .collect();
    run_grid(&opts, "Table VI: superiority analysis", &cells);
}
