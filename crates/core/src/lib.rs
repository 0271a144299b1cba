//! The MISS framework (the paper's contribution) and the SSL comparison
//! methods of Table VI.
//!
//! MISS enhances a base CTR model's feature embeddings with *interest-level*
//! self-supervision (paper §IV–V):
//!
//! 1. the behaviour-sequence embeddings are re-organised into the 3-D tensor
//!    `C ∈ R^{J×L×K}` (Eq. 18);
//! 2. the **multi-interest extractor** (MIE) applies horizontal `1×m×1`
//!    convolutions, `m = 1..M`, capturing point-wise (`m = 1`) and union-wise
//!    (`m > 1`) interest representations (Eq. 19–20);
//! 3. **interest-level augmentation** picks pairs of representations produced
//!    by the *same* kernel at distance `h ∈ [1, H]` — two views of the same
//!    interest under the closeness assumption, covering short- and long-range
//!    dependencies (Eq. 21);
//! 4. the **multi-interest multi-feature extractor** (MIMFE) applies vertical
//!    `n×1×1` convolutions over the feature axis, `n = 1..N`, capturing
//!    intra-item correlations (Eq. 22–23), and **feature-level augmentation**
//!    picks random view pairs from each result (Eq. 24);
//! 5. MLP encoders (Eq. 13–14) and InfoNCE losses (Eq. 15–16) turn the view
//!    pairs into training signal, combined with the CTR loss per Eq. 17.
//!
//! The ablation grid of Table VII is driven by [`MissVariant`]; the
//! alternative extractors of Table VIII by [`ExtractorKind`]; and Figure 5's
//! view-similarity probe by [`Miss::probe_similarity`].

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

mod augment;
mod config;
mod distance;
mod extractor;
mod miss;
mod ssl_baselines;

pub use augment::{PairDraw, PairSelector};
pub use config::{EncoderKind, ExtractorKind, MissConfig, MissVariant};
pub use distance::DistanceLaw;
pub use extractor::InterestMaps;
pub use miss::Miss;
pub use ssl_baselines::{Cl4SRec, Irssl, RuleSsl, S3Rec, SslMethod};
