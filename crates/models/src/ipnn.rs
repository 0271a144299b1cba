//! IPNN (Qu et al., 2018): product-based neural network with inner-product
//! interactions between all field pairs feeding the deep tower.

use crate::{CtrModel, EmbeddingLayer, ForwardOpts, ModelConfig};
use miss_autograd::Var;
use miss_data::{Batch, Schema};
use miss_nn::{dropout, Graph, Mlp, ParamStore};
use miss_util::Rng;

/// IPNN baseline (one of the paper's MISS plug-in hosts).
pub struct Ipnn {
    emb: EmbeddingLayer,
    deep: Mlp,
    dropout: f32,
}

impl Ipnn {
    /// Build the model over `store`.
    pub fn new(store: &mut ParamStore, schema: &Schema, cfg: &ModelConfig, rng: &mut Rng) -> Self {
        let f = schema.num_fields();
        let in_dim = f * cfg.embed_dim + f * (f - 1) / 2;
        Ipnn {
            emb: EmbeddingLayer::new(store, schema, cfg.embed_dim, "emb", rng),
            deep: Mlp::relu_tower(store, "ipnn.deep", in_dim, &cfg.mlp_sizes, rng),
            dropout: cfg.dropout,
        }
    }
}

impl CtrModel for Ipnn {
    fn forward(
        &self,
        g: &mut Graph,
        store: &ParamStore,
        batch: &Batch,
        opts: &mut ForwardOpts,
    ) -> Var {
        let fields = crate::field_vectors(g, store, &self.emb, batch);
        // z-part: raw field vectors; p-part: all pairwise inner products.
        let mut parts: Vec<Var> = fields.clone();
        for i in 0..fields.len() {
            for j in (i + 1)..fields.len() {
                let prod = g.tape.mul(fields[i], fields[j]);
                parts.push(g.tape.row_sum(prod)); // B×1 inner product
            }
        }
        let flat = g.tape.concat_cols(&parts);
        let flat = dropout(g, flat, self.dropout, opts.training, opts.rng);
        self.deep.forward(g, store, flat)
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
        let model = Ipnn::new(&mut store, &dataset.schema, &ModelConfig::default(), &mut rng);
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
            |s, schema, cfg, rng| Box::new(Ipnn::new(s, schema, cfg, rng)),
            8,
        );
        assert!(auc > 0.6, "IPNN test AUC {auc}");
    }
}
