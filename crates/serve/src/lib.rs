//! Frozen-graph inference for the MISS reproduction: the serving-side
//! counterpart to the training stack.
//!
//! Three pieces (DESIGN.md §10):
//!
//! - **Freeze** ([`FrozenModel::freeze`], [`load_frozen`]): compile a
//!   trained `ParamStore` — live or loaded from a miss-codec checkpoint —
//!   into contiguous frozen layers with GEMM panels pre-packed once, fused
//!   bias/activation epilogues, and no autograd tape.
//! - **Score** ([`ScoreEngine`]): micro-batch concurrent `(user,
//!   candidates[])` requests into batched forwards over the miss-parallel
//!   pool, under a deterministic batch-formation rule (flush at `max_batch`
//!   candidates or queue drain — never wall-clock timers), so scores are
//!   bit-identical to scoring each request alone at any thread count.
//! - **Evaluate** ([`evaluate_frozen`]): the trainer's eval metrics through
//!   the frozen forward — same chunking, same bits, minus the per-batch
//!   packing the training-graph eval pays.
//!
//! The determinism contract throughout: a candidate's score is a pure
//! function of (checkpoint bytes, sample, detected ISA) — never of batch
//! composition, `MISS_THREADS`, or request arrival grouping.

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

mod engine;
mod forward;
mod freeze;

pub use engine::{evaluate_frozen, ScoreEngine};
pub use freeze::{load_frozen, FrozenArch, FrozenModel};
