//! # MISS — Multi-Interest Self-Supervised Learning for CTR Prediction
//!
//! A full-from-scratch Rust reproduction of the ICDE 2022 paper
//! *"MISS: Multi-Interest Self-Supervised Learning Framework for
//! Click-Through Rate Prediction"*.
//!
//! This facade crate re-exports the workspace crates so downstream users can
//! depend on a single crate:
//!
//! - [`util`] — deterministic RNG, samplers, statistics;
//! - [`tensor`] — dense f32 tensors;
//! - [`autograd`] — tape-based reverse-mode automatic differentiation;
//! - [`nn`] — layers, parameter store, Adam optimiser;
//! - [`codec`] — versioned checkpoint save/load with typed errors;
//! - [`fault`] — deterministic fail-point registry whose test-scoped plans
//!   chaos-test the recovery paths;
//! - [`parallel`] — the deterministic `MISS_THREADS` worker pool;
//! - [`data`] — the interest-world behavioural simulator and dataset pipeline;
//! - [`metrics`] — AUC / Logloss;
//! - [`models`] — the thirteen baseline CTR models (LR … FiGNN);
//! - [`core`] — the MISS framework itself plus the SSL comparison methods;
//! - [`trainer`] — the training loop (early stopping, pre-training,
//!   checkpoints), multi-seed evaluation;
//! - [`serve`] — frozen-graph inference engine with request micro-batching.
//!
//! See `examples/quickstart.rs` for an end-to-end walkthrough.

pub use miss_autograd as autograd;
pub use miss_codec as codec;
pub use miss_core as core;
pub use miss_data as data;
pub use miss_fault as fault;
pub use miss_metrics as metrics;
pub use miss_models as models;
pub use miss_nn as nn;
pub use miss_parallel as parallel;
pub use miss_serve as serve;
pub use miss_tensor as tensor;
pub use miss_trainer as trainer;
/// [`miss_util`]'s items, plus [`sigmoid_extend`](util::sigmoid_extend),
/// which moved to [`tensor::math`] with the other transcendentals and keeps
/// its old path here.
pub mod util {
    pub use miss_tensor::math::sigmoid_extend;
    pub use miss_util::*;
}
