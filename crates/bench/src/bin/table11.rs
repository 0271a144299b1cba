//! Table XI: label-noise case study — AUC of DIN vs DIN-MISS with a
//! fraction NR ∈ {0%, 10%, 20%} of training labels swapped, plus the
//! relative improvement. Amazon worlds only, as in the paper.

use miss_bench::{run_ri_table, ExpOpts};
use miss_util::Rng;

fn main() {
    run_ri_table(
        &ExpOpts::from_args(),
        "Table XI: AUC under training-label noise",
        "NR",
        &[0.0, 0.1, 0.2],
        |dataset, nr| dataset.swap_train_labels(nr, &mut Rng::new(0xA5)),
    );
}
