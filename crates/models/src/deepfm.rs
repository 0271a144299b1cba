//! DeepFM (Guo et al., 2017): FM and a deep tower sharing one embedding.

use crate::fm::Fm;
use crate::{CtrModel, EmbeddingLayer, ForwardOpts, ModelConfig};
use miss_autograd::Var;
use miss_data::{Batch, Schema};
use miss_nn::{dropout, Graph, Mlp, ParamStore};
use miss_util::Rng;

/// DeepFM baseline.
pub struct DeepFm {
    fm: Fm,
    deep: Mlp,
    dropout: f32,
}

impl DeepFm {
    /// Build the model over `store`.
    pub fn new(store: &mut ParamStore, schema: &Schema, cfg: &ModelConfig, rng: &mut Rng) -> Self {
        let fm = Fm::new(store, schema, cfg, rng);
        let in_dim = schema.num_fields() * cfg.embed_dim;
        let deep = Mlp::relu_tower(store, "deepfm.deep", in_dim, &cfg.mlp_sizes, rng);
        DeepFm {
            fm,
            deep,
            dropout: cfg.dropout,
        }
    }
}

impl CtrModel for DeepFm {
    fn forward(
        &self,
        g: &mut Graph,
        store: &ParamStore,
        batch: &Batch,
        opts: &mut ForwardOpts,
    ) -> Var {
        let linear = self.fm.first_order(g, store, batch);
        let fields = crate::field_vectors(g, store, self.fm.embedding(), batch);
        let second = Fm::second_order(g, &fields);
        let flat = g.tape.concat_cols(&fields);
        let flat = dropout(g, flat, self.dropout, opts.training, opts.rng);
        let deep = self.deep.forward(g, store, flat);
        let fm_logit = g.tape.add(linear, second);
        g.tape.add(fm_logit, deep)
    }

    fn embedding(&self) -> &EmbeddingLayer {
        self.fm.embedding()
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
        let model = DeepFm::new(&mut store, &dataset.schema, &ModelConfig::default(), &mut rng);
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
            |s, schema, cfg, rng| Box::new(DeepFm::new(s, schema, cfg, rng)),
            8,
        );
        assert!(auc > 0.6, "DeepFM test AUC {auc}");
    }
}
