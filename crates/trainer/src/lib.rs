//! Training harness: fitting loops (joint multi-task and two-stage
//! pre-training, Table IX), evaluation, early stopping on validation AUC,
//! and the model/SSL registry the experiment binaries dispatch over.

// R7 (DESIGN.md §7): serving links this crate, so production code has no
// panic path; an index needs a reasoned `#[expect]` naming its bound.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::todo,
    clippy::unimplemented,
    clippy::dbg_macro,
    clippy::panic,
    clippy::unreachable,
    clippy::indexing_slicing
)]

mod checkpoint;
mod evaluate;
mod fit;
mod registry;
mod ring;

pub use checkpoint::Trainer;
pub use evaluate::{evaluate, EvalResult};
pub use miss_codec::{RetryPolicy, TrainProgress};
pub use miss_util::{MissError, MissResult};
pub use fit::{
    fit, fit_pretrain, micro_batch_len, train_epoch, EpochOutcome, FitOutcome, TrainConfig,
    MIN_MICRO_ROWS, SITE_BATCH_CORRUPT, SITE_NAN_GRAD, SITE_NAN_LOSS, TRAIN_MICRO_CHUNKS,
};
pub use registry::{BaseModel, Experiment, SslKind, ALL_BASELINES, RING_KEEP_DEFAULT};
pub use ring::{CheckpointRing, RingResume};
