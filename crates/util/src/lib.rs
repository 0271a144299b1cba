//! Deterministic utilities shared across the MISS reproduction workspace.
//!
//! Everything random in the workspace flows through [`Rng`], a self-contained
//! PCG-XSH-RR generator, so that every experiment is bit-reproducible across
//! platforms and toolchain versions. The crate also provides the handful of
//! distribution samplers the interest-world simulator needs (categorical,
//! Dirichlet, Zipf), small order-statistics helpers, and the statistics used
//! when reporting experiments (mean/std, paired t-test).

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

mod error;
mod math;
mod order;
mod rng;
mod sample;
mod stats;

pub use error::{MissError, MissResult};
pub use math::{sigmoid, sigmoid_extend};
pub use order::{argsort_desc, top_k_desc, top_k_desc_into};
pub use rng::Rng;
pub use sample::{Categorical, Zipf};
pub use stats::{mean, mean_std, paired_t_significant, paired_t_statistic};
