//! Ablation bench for this reproduction's own design choices (DESIGN.md §5)
//! and the paper's future-work extensions:
//!
//! - dependency-distance law: uniform (paper) vs Gaussian vs geometric;
//! - interest-view encoder: MLP (paper) vs Transformer-over-field-tokens.
//!
//! Not a paper table — it answers "were the paper's defaults the right
//! call?" on the simulated worlds.

use miss_bench::{din_miss, run_grid, ExpOpts};
use miss_core::{DistanceLaw, EncoderKind, MissConfig};
use miss_trainer::{BaseModel, Experiment, SslKind};

fn main() {
    let opts = ExpOpts::from_args();
    let law = |distance_law| {
        din_miss(MissConfig {
            distance_law,
            ..MissConfig::default()
        })
    };
    let transformer = MissConfig {
        encoder: EncoderKind::Transformer,
        ..MissConfig::default()
    };
    let cells = [
        ("DIN", Experiment::new(BaseModel::Din, SslKind::None)),
        ("uniform+mlp (paper)", din_miss(MissConfig::default())),
        ("gaussian+mlp", law(DistanceLaw::Gaussian { sigma: 1.5 })),
        ("geometric+mlp", law(DistanceLaw::Geometric { p: 0.5 })),
        ("uniform+transformer", din_miss(transformer)),
    ];
    let title = "Design-choice ablation: distance law × encoder";
    run_grid(&opts, title, &cells);
}
