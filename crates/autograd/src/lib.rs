//! Tape-based reverse-mode automatic differentiation over [`miss_tensor::Tensor`].
//!
//! A [`Tape`] records a forward computation as an arena of values plus, for
//! each non-leaf value, a boxed backward closure. Calling [`Tape::backward`]
//! walks the arena in reverse creation order (which is a valid reverse
//! topological order, since an op can only consume values created before it)
//! and accumulates gradients.
//!
//! Design notes:
//! - [`Var`] is a `Copy` index newtype into the tape arena — no `Rc`/`RefCell`
//!   graph, no lifetimes in user code.
//! - Values that do not require gradients (mini-batch inputs, masks) carry no
//!   backward node, so constants are free in the backward pass.
//! - Embedding tables are *not* stored on the tape. The lookup op
//!   [`Tape::embed`] receives already-gathered rows plus a `(table_id, row
//!   indices)` tag; its backward appends `(table_id, indices, grad_rows)` to a
//!   sparse-gradient sink that the optimiser consumes directly. This keeps a
//!   training step O(touched rows), never O(vocabulary).
//! - Every op's gradient is verified against central finite differences in
//!   this crate's tests (see [`gradcheck`]).

// R6 (DESIGN.md §7): no unwrap/expect/todo/dbg in production code; a panic
// mid-minibatch poisons the worker pool.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::todo,
    clippy::unimplemented,
    clippy::dbg_macro
)]

pub mod gradcheck;
mod ops;
mod tape;

pub use ops::{ConvTap, LinearAct, UnitTower};
pub use tape::{Grads, SparseGrad, Tape, Var};
