//! Neural-network building blocks on top of `miss-autograd`.
//!
//! - [`ParamStore`] owns every trainable parameter: small dense matrices
//!   (weights/biases) and large [`EmbeddingTable`]s with *lazy-sparse* Adam
//!   state (only rows touched by a step are updated — a training step is
//!   O(touched rows), never O(vocabulary));
//! - [`Graph`] binds a [`miss_autograd::Tape`] to the store for one forward/
//!   backward step, caching parameter leaves so that a parameter used twice
//!   accumulates a single gradient;
//! - [`Adam`] applies dense and sparse gradients with bias correction and
//!   optional L2 weight decay;
//! - layers: [`Linear`], [`Mlp`] (with ReLU/PReLU/Sigmoid/Tanh activations),
//!   [`GruCell`] and [`AuGruCell`] (for DIEN), inverted [`dropout`];
//! - [`init`]: Xavier-uniform and scaled-normal initialisers.

// R6 (DESIGN.md §7): no unwrap/expect/todo/dbg in production code; a panic
// mid-minibatch poisons the worker pool.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::todo,
    clippy::unimplemented,
    clippy::dbg_macro
)]

mod attention;
mod graph;
pub mod init;
mod layers;
mod optim;
mod rnn;
mod store;

pub use attention::TransformerBlock;
pub use graph::{dropout, Graph};
pub use layers::{Activation, Linear, Mlp};
pub use optim::Adam;
pub use rnn::{AuGruCell, GruCell, LstmCell};
pub use store::{DenseId, EmbeddingTable, ParamStore, ParamView, StoreSnapshot, TableId};
