//! Differentiable operations recorded on a [`crate::Tape`].
//!
//! Each op computes its forward value eagerly with `miss_tensor` kernels and
//! registers a backward closure that reads input values from the tape arena
//! (by index — no tensor clones are captured unless the math requires the
//! *output*, which closures also read by index).

mod activation;
mod arith;
mod block;
mod conv;
mod linear;
mod loss;
mod matmul;
mod reduce;
mod shape;

pub use conv::ConvTap;
pub use linear::LinearAct;
