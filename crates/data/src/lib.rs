//! The interest-world behavioural simulator and the CTR dataset pipeline.
//!
//! The paper evaluates on Amazon-Cds, Amazon-Books and Alipay, none of which
//! can be redistributed or fetched here. This crate substitutes a **latent-
//! interest generative simulator** that reproduces the properties MISS's
//! mechanism depends on (see DESIGN.md §1):
//!
//! - users hold Dirichlet mixtures over latent interests (multi-interest);
//! - behaviour sequences come from a *sticky* Markov chain over the user's
//!   interests, producing interest **runs** interleaved by other interests —
//!   exactly the "closeness assumption" MISS's CNN extractor exploits;
//! - item popularity is Zipf within each interest (Matthew effect → the
//!   label-sparsity regime of the paper's §III-B);
//! - item attributes (category — deliberately *coarser* than interests, as
//!   the paper notes real categories are — and, for the Alipay preset,
//!   seller) correlate with interests, giving the intra-item signal MIMFE
//!   mines;
//! - the dataset assembly follows the paper's protocol exactly: minimum-
//!   interaction filtering, chronological ordering, leave-last-three split,
//!   one uniformly sampled non-interacted negative per positive.
//!
//! Three presets mimic the three datasets' relevant characteristics:
//! [`WorldConfig::amazon_cds`] / [`WorldConfig::amazon_books`] (long
//! time-span → many interests per user, 5 fields) and
//! [`WorldConfig::alipay`] (short span → few interests, 7 fields).

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

mod batch;
mod config;
mod dataset;
mod export;
mod requests;
mod transforms;
mod world;

pub use batch::{Batch, BatchIter};
pub use config::WorldConfig;
pub use dataset::{Dataset, DatasetStats, Sample, Schema, SeqField, Split, VocabDef};
pub use requests::{request_stream, ScoreRequest};
pub use world::World;
