//! Table X: label-sparsity case study — AUC of DIN vs DIN-MISS with the
//! training set down-sampled to SR ∈ {80%, 90%, 100%}, plus the relative
//! improvement (RI). Amazon worlds only, as in the paper.

use miss_bench::{run_ri_table, ExpOpts};
use miss_util::Rng;

fn main() {
    run_ri_table(
        &ExpOpts::from_args(),
        "Table X: AUC under training-set down-sampling",
        "SR",
        &[0.8, 0.9, 1.0],
        |dataset, sr| dataset.downsample_train(sr, &mut Rng::new(0x5A)),
    );
}
