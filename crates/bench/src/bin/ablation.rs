//! Ablation bench for this reproduction's own design choices (DESIGN.md §5)
//! and the paper's future-work extensions:
//!
//! - dependency-distance law: uniform (paper) vs Gaussian vs geometric;
//! - interest-view encoder: MLP (paper) vs Transformer-over-field-tokens.
//!
//! Not a paper table — it answers "were the paper's defaults the right
//! call?" on the simulated worlds.

#![expect(
    clippy::field_reassign_with_default,
    reason = "each run reads as the paper's default config plus the knobs it varies"
)]

use miss_bench::{dataset_for, CellResult, ExpOpts, print_table};
use miss_core::{DistanceLaw, EncoderKind, MissConfig};
use miss_trainer::{BaseModel, Experiment, SslKind};

fn main() {
    let opts = ExpOpts::from_args();
    let variants: Vec<(String, MissConfig)> = vec![
        ("uniform+mlp (paper)".into(), MissConfig::default()),
        ("gaussian+mlp".into(), {
            let mut c = MissConfig::default();
            c.distance_law = DistanceLaw::Gaussian { sigma: 1.5 };
            c
        }),
        ("geometric+mlp".into(), {
            let mut c = MissConfig::default();
            c.distance_law = DistanceLaw::Geometric { p: 0.5 };
            c
        }),
        ("uniform+transformer".into(), {
            let mut c = MissConfig::default();
            c.encoder = EncoderKind::Transformer;
            c
        }),
    ];
    let mut dataset_names = Vec::new();
    let mut cells: Vec<Vec<CellResult>> = Vec::new();
    for world in opts.worlds() {
        let dataset = dataset_for(world);
        dataset_names.push(dataset.name.clone());
        let mut rows = Vec::new();
        let mut base = Experiment::new(BaseModel::Din, SslKind::None);
        opts.tune(&mut base);
        rows.push(CellResult::from_runs(
            "DIN",
            &opts.runs(&base, &dataset),
        ));
        for (label, cfg) in &variants {
            let mut e = Experiment::new(BaseModel::Din, SslKind::Miss(cfg.clone()));
            opts.tune(&mut e);
            let runs = opts.runs(&e, &dataset);
            eprintln!("[ablation] {} {label} done", dataset.name);
            rows.push(CellResult::from_runs(label.clone(), &runs));
        }
        cells.push(rows);
    }
    print_table(
        "Design-choice ablation: distance law × encoder",
        &dataset_names,
        &cells,
    );
}
