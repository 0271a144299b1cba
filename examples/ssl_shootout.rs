//! SSL method shoot-out on one base model (Table VI in miniature): compare
//! the rule baseline, IRSSL, S3Rec, CL4SRec and MISS as embedding enhancers
//! for DIN.
//!
//! ```sh
//! cargo run --release --example ssl_shootout
//! ```

use miss::core::MissConfig;
use miss::data::{Dataset, WorldConfig};
use miss::trainer::{BaseModel, Experiment, MissError, SslKind};

fn main() -> Result<(), MissError> {
    let dataset = Dataset::generate(WorldConfig::amazon_cds(0.5), 11);
    let methods = [
        SslKind::None,
        SslKind::Rule,
        SslKind::Irssl,
        SslKind::S3Rec,
        SslKind::Cl4SRec,
        SslKind::Miss(MissConfig::default()),
    ];
    println!("{:<14} {:>10} {:>10}", "Model", "AUC", "Logloss");
    for ssl in methods {
        let e = Experiment::new(BaseModel::Din, ssl);
        let mut auc = 0.0;
        let mut ll = 0.0;
        let reps = 2;
        for s in 0..reps {
            let out = e.run(&dataset, s)?;
            auc += out.test.auc;
            ll += out.test.logloss;
        }
        println!(
            "{:<14} {:>10.4} {:>10.4}",
            e.label(),
            auc / reps as f64,
            ll / reps as f64
        );
    }
    Ok(())
}
