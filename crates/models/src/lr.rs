//! Logistic regression over the raw one-hot features (the paper's weakest
//! baseline). Implemented as dimension-1 "embeddings": the logit is the sum
//! of per-feature weights plus a global bias, with sequence features
//! contributing their mean weight.

use crate::{CtrModel, EmbeddingLayer, ForwardOpts, ModelConfig};
use miss_autograd::Var;
use miss_data::{Batch, Schema};
use miss_nn::{init, DenseId, Graph, ParamStore};
use miss_util::Rng;

/// Logistic regression baseline.
pub struct Lr {
    weights: EmbeddingLayer,
    bias: DenseId,
    /// A K-dimensional embedding layer kept so MISS can still plug in when
    /// LR is used as a base (and so `embedding()` has a uniform meaning).
    emb: EmbeddingLayer,
}

impl Lr {
    /// Build the model over `store`.
    pub fn new(store: &mut ParamStore, schema: &Schema, cfg: &ModelConfig, rng: &mut Rng) -> Self {
        Lr {
            weights: EmbeddingLayer::new(store, schema, 1, "lr", rng),
            bias: store.dense("lr.bias", 1, 1, init::zeros),
            emb: EmbeddingLayer::new(store, schema, cfg.embed_dim, "emb", rng),
        }
    }
}

impl CtrModel for Lr {
    fn forward(
        &self,
        g: &mut Graph,
        store: &ParamStore,
        batch: &Batch,
        _opts: &mut ForwardOpts,
    ) -> Var {
        let fields = crate::field_vectors(g, store, &self.weights, batch); // each B×1
        let mut logit = fields[0];
        for f in &fields[1..] {
            logit = g.tape.add(logit, *f);
        }
        let b = g.param(store, self.bias);
        let bt = g.tape.tile_rows(b, batch.size);
        g.tape.add(logit, bt)
    }

    fn embedding(&self) -> &EmbeddingLayer {
        &self.emb
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{tiny_batch, train_and_auc};

    #[test]
    fn forward_shape() {
        let (dataset, batch) = tiny_batch();
        let mut store = ParamStore::new();
        let mut rng = Rng::new(0);
        let model = Lr::new(&mut store, &dataset.schema, &ModelConfig::default(), &mut rng);
        let mut g = Graph::new(&store);
        let mut opts = ForwardOpts {
            training: false,
            rng: &mut rng,
        };
        let y = model.forward(&mut g, &store, &batch, &mut opts);
        assert_eq!(g.tape.shape(y), (batch.size, 1));
    }

    #[test]
    fn learns_above_chance() {
        let auc = train_and_auc(
            |s, schema, cfg, rng| Box::new(Lr::new(s, schema, cfg, rng)),
            8,
        );
        assert!(auc > 0.55, "LR test AUC {auc} not above chance");
    }
}
