//! Model compatibility: MISS is a plug-in — attach it to three structurally
//! different CTR models (attention-based DIN, product-based IPNN, and
//! graph-based FiGNN) without changing any of them (Table V in miniature).
//!
//! ```sh
//! cargo run --release --example plug_and_play
//! ```

use miss::core::MissConfig;
use miss::data::{Dataset, WorldConfig};
use miss::trainer::{BaseModel, Experiment, MissError, SslKind};

fn main() -> Result<(), MissError> {
    let dataset = Dataset::generate(WorldConfig::amazon_cds(0.5), 7);
    println!("{:<14} {:>10} {:>10} {:>8}", "Model", "AUC", "Logloss", "dAUC");
    for base in [BaseModel::Din, BaseModel::Ipnn, BaseModel::FiGnn] {
        let plain = Experiment::new(base, SslKind::None).run(&dataset, 0)?;
        let with_miss = Experiment::new(base, SslKind::Miss(MissConfig::default()))
            .run(&dataset, 0)?;
        println!(
            "{:<14} {:>10.4} {:>10.4} {:>8}",
            base.label(),
            plain.test.auc,
            plain.test.logloss,
            ""
        );
        println!(
            "{:<14} {:>10.4} {:>10.4} {:>+8.4}",
            format!("{}-MISS", base.label()),
            with_miss.test.auc,
            with_miss.test.logloss,
            with_miss.test.auc - plain.test.auc
        );
    }
    Ok(())
}
