//! The thirteen baseline CTR models the paper compares against, over a
//! shared embedding layer and a common [`CtrModel`] trait.
//!
//! Feature-interaction models: [`Lr`], [`Fm`], [`DeepFm`], [`Ipnn`], [`Dcn`]
//! (vector and matrix/DCN-M variants), [`XDeepFm`]. User-interest models:
//! [`Din`] (the paper's default base), [`Dien`], [`SimSoft`], [`Dmr`].
//! Attention/GNN models: [`AutoIntPlus`], [`FiGnn`].
//!
//! Every model exposes its [`EmbeddingLayer`] so the MISS framework can plug
//! in on top of the *same* embedding tables (the paper's model-agnostic
//! "embedding enhancement" contract).

mod autoint;
mod dcn;
mod deepfm;
mod dien;
mod din;
mod embedding;
mod fignn;
mod fm;
mod ipnn;
mod lr;
mod pooling;
mod sim;
mod dmr;
mod xdeepfm;

pub use autoint::AutoIntPlus;
pub use dcn::{Dcn, DcnKind};
pub use deepfm::DeepFm;
pub use dien::Dien;
pub use din::Din;
pub use dmr::Dmr;
pub use embedding::EmbeddingLayer;
pub use fignn::FiGnn;
pub use fm::Fm;
pub use ipnn::Ipnn;
pub use lr::Lr;
pub use pooling::{attention_pool, attention_pool_masked, field_vectors, masked_softmax_rows, mean_pool};
pub use sim::SimSoft;
pub use xdeepfm::XDeepFm;

use miss_autograd::Var;
use miss_data::Batch;
use miss_nn::{Graph, ParamStore};
use miss_util::Rng;

/// Hyper-parameters shared across models (paper §VI-A5 defaults).
#[derive(Clone, Debug)]
pub struct ModelConfig {
    /// Embedding dimension `K` (paper: 10).
    pub embed_dim: usize,
    /// Deep-component layer sizes (paper: `{40, 40, 40, 1}`).
    pub mlp_sizes: Vec<usize>,
    /// Dropout ratio on the deep component's input.
    pub dropout: f32,
}

impl Default for ModelConfig {
    fn default() -> Self {
        ModelConfig {
            embed_dim: 10,
            mlp_sizes: vec![40, 40, 40, 1],
            dropout: 0.0,
        }
    }
}

/// Per-forward options: training mode (enables dropout) and the RNG that
/// drives it.
pub struct ForwardOpts<'a> {
    /// Train-time stochastic layers active when true.
    pub training: bool,
    /// RNG for dropout masks.
    pub rng: &'a mut Rng,
}

/// A CTR prediction model: maps a mini-batch to click logits (`B×1`).
///
/// `Send + Sync` is part of the contract: `forward` takes `&self`, and the
/// trainer's parallel evaluation shares one model across worker threads.
pub trait CtrModel: Send + Sync {
    /// Forward pass producing logits (the sigmoid lives in the loss/metric).
    fn forward(
        &self,
        g: &mut Graph,
        store: &ParamStore,
        batch: &Batch,
        opts: &mut ForwardOpts,
    ) -> Var;

    /// The shared embedding layer (for the MISS plug-in).
    fn embedding(&self) -> &EmbeddingLayer;

    /// Optional model-specific auxiliary training loss (DIEN).
    fn extra_loss(
        &self,
        _g: &mut Graph,
        _store: &ParamStore,
        _batch: &Batch,
        _opts: &mut ForwardOpts,
    ) -> Option<Var> {
        None
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;
    use miss_data::{Batch, BatchIter, Dataset, Split, WorldConfig};
    use miss_metrics::auc;
    use miss_nn::Adam;
    use miss_tensor::Tensor;

    /// Train `model` briefly on the tiny world and return test AUC.
    /// Used as a smoke/learning test by every model module.
    pub fn train_and_auc(
        build: impl Fn(&mut ParamStore, &miss_data::Schema, &ModelConfig, &mut Rng) -> Box<dyn CtrModel>,
        epochs: usize,
    ) -> f64 {
        let dataset = Dataset::generate(WorldConfig::tiny(), 11);
        let cfg = ModelConfig::default();
        let mut rng = Rng::new(77);
        let mut store = ParamStore::new();
        let model = build(&mut store, &dataset.schema, &cfg, &mut rng);
        let mut adam = Adam::new(1e-2, 1e-5);
        for _ in 0..epochs {
            let mut shuffle_rng = rng.fork(1);
            for batch in BatchIter::new(&dataset.train, &dataset.schema, 32, Some(&mut shuffle_rng)) {
                let mut g = Graph::new(&store);
                let mut opts = ForwardOpts {
                    training: true,
                    rng: &mut rng,
                };
                let logits = model.forward(&mut g, &store, &batch, &mut opts);
                let labels = Tensor::from_vec(batch.size, 1, batch.labels.clone());
                let mut loss = g.tape.bce_with_logits_mean(logits, labels);
                if let Some(extra) = model.extra_loss(&mut g, &store, &batch, &mut opts) {
                    let scaled = g.tape.scale(extra, 0.5);
                    loss = g.tape.add(loss, scaled);
                }
                let grads = g.tape.backward(loss);
                adam.step(&mut store, &g, grads);
            }
        }
        // Evaluate on test.
        let mut scores = Vec::new();
        let mut labels = Vec::new();
        for batch in BatchIter::new(dataset.split(Split::Test), &dataset.schema, 64, None) {
            let mut g = Graph::new(&store);
            let mut opts = ForwardOpts {
                training: false,
                rng: &mut rng,
            };
            let logits = model.forward(&mut g, &store, &batch, &mut opts);
            scores.extend_from_slice(g.tape.value(logits).as_slice());
            labels.extend_from_slice(&batch.labels);
        }
        auc(&scores, &labels)
    }

    /// One tiny batch for shape tests.
    pub fn tiny_batch() -> (Dataset, Batch) {
        let dataset = Dataset::generate(WorldConfig::tiny(), 11);
        let refs: Vec<&miss_data::Sample> = dataset.train.iter().take(6).collect();
        let batch = Batch::from_samples(&refs, &dataset.schema);
        (dataset, batch)
    }
}
