//! Inference for the MISS reproduction: the serving-side counterpart to
//! the training stack.
//!
//! Three pieces (DESIGN.md §10):
//!
//! - **Freeze** ([`FrozenModel::freeze`], [`load_frozen`]): snapshot a
//!   trained `ParamStore` — live or loaded from a miss-codec checkpoint —
//!   next to the model that reads it. Scoring runs that model's own
//!   `CtrModel::forward` on an inference-mode `Graph`: no backward state,
//!   weight panels packed once per graph, intermediates freed per scope.
//!   Any of the 13 base models serves, with or without MISS.
//! - **Score** ([`ScoreEngine`]): micro-batch concurrent `(user,
//!   candidates[])` requests into batched forwards over the miss-parallel
//!   pool, under a deterministic batch-formation rule (flush at `max_batch`
//!   candidates or queue drain — never wall-clock timers), so scores are
//!   bit-identical to scoring each request alone at any thread count.
//! - **Evaluate** ([`evaluate_frozen`]): the trainer's eval metrics through
//!   the inference forward — same bits, minus the per-batch packing and
//!   backward state the training-graph eval pays.
//!
//! The crate is a library only. `crates/bench/benches/serving.rs` measures
//! micro-batched throughput (`BENCH_serving.json`); open-loop sojourn
//! latency at a stated arrival rate lives in the `.perfbench` package.
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
mod freeze;

pub use engine::{evaluate_frozen, ScoreEngine};
pub use freeze::{load_frozen, FrozenArch, FrozenModel};
