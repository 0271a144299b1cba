//! Table VIII: multi-interest extractor comparison — DIN base with the
//! CNN (MISS), self-attention (MISS-SA) and LSTM (MISS-LSTM) extractors.

use miss_bench::{din_miss, run_grid, ExpOpts};
use miss_core::{ExtractorKind, MissConfig};
use miss_trainer::{BaseModel, Experiment, SslKind};

fn main() {
    let opts = ExpOpts::from_args();
    let extractor = |kind| din_miss(MissConfig::with_extractor(kind));
    let cells = [
        ("DIN", Experiment::new(BaseModel::Din, SslKind::None)),
        ("MISS-SA", extractor(ExtractorKind::SelfAttention)),
        ("MISS-LSTM", extractor(ExtractorKind::Lstm)),
        ("MISS-CNN", extractor(ExtractorKind::Cnn)),
    ];
    run_grid(&opts, "Table VIII: multi-interest extractors", &cells);
}
