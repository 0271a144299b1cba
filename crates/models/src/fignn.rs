//! FiGNN (Li et al., 2019): fields form a fully connected graph; edge
//! weights come from attention over node states, states propagate for a few
//! steps with a gated (GRU-style) update, and an attentional readout scores
//! the final states.

use crate::{CtrModel, EmbeddingLayer, ForwardOpts, ModelConfig};
use miss_autograd::Var;
use miss_data::{Batch, Schema};
use miss_nn::{dropout, Graph, GruCell, Linear, ParamStore};
use miss_tensor::Tensor;
use miss_util::Rng;

/// FiGNN baseline (one of the paper's MISS plug-in hosts).
pub struct FiGnn {
    emb: EmbeddingLayer,
    att_q: Linear,
    att_k: Linear,
    prop: Linear,
    update: GruCell,
    steps: usize,
    read_score: Linear,
    read_val: Linear,
    dropout: f32,
}

impl FiGnn {
    /// Build the model over `store` (two propagation steps).
    pub fn new(store: &mut ParamStore, schema: &Schema, cfg: &ModelConfig, rng: &mut Rng) -> Self {
        let k = cfg.embed_dim;
        FiGnn {
            emb: EmbeddingLayer::new(store, schema, k, "emb", rng),
            att_q: Linear::new(store, "fignn.att_q", k, k, rng),
            att_k: Linear::new(store, "fignn.att_k", k, k, rng),
            prop: Linear::new(store, "fignn.prop", k, k, rng),
            update: GruCell::new(store, "fignn.update", k, k, rng),
            steps: 2,
            read_score: Linear::new(store, "fignn.read_score", k, 1, rng),
            read_val: Linear::new(store, "fignn.read_val", k, 1, rng),
            dropout: cfg.dropout,
        }
    }
}

impl CtrModel for FiGnn {
    fn forward(
        &self,
        g: &mut Graph,
        store: &ParamStore,
        batch: &Batch,
        opts: &mut ForwardOpts,
    ) -> Var {
        let b = batch.size;
        let fields = crate::field_vectors(g, store, &self.emb, batch);
        let f = fields.len();
        let k = self.emb.dim;
        let wide = g.tape.concat_cols(&fields);
        let wide = dropout(g, wide, self.dropout, opts.training, opts.rng);
        let mut state = g.tape.reshape(wide, b * f, k); // (B·F)×K node states

        // Self-loops are excluded from the attentional adjacency, per FiGNN.
        let diag_mask = {
            let mut t = Tensor::zeros(b * f, f);
            for bi in 0..b {
                for i in 0..f {
                    t.set(bi * f + i, i, -1e9);
                }
            }
            t
        };

        for _ in 0..self.steps {
            let q = self.att_q.forward(g, store, state);
            let kk = self.att_k.forward(g, store, state);
            let scores = g.tape.bmm_nt(q, kk, b); // (B·F)×F
            let scaled = g.tape.scale(scores, 1.0 / (k as f32).sqrt());
            let no_self = {
                let m = g.input(diag_mask.clone());
                g.tape.add(scaled, m)
            };
            let adj = g.tape.softmax_rows(no_self);
            // Aggregate transformed neighbour states.
            let transformed = self.prop.forward(g, store, state);
            let msg = g.tape.bmm_nn(adj, transformed, b); // (B·F)×K
            // Gated update (GRU cell with the message as input).
            state = self.update.step(g, store, msg, state);
        }

        // Attentional readout: logit = Σ_i softmax-free score_i · value_i.
        let scores = self.read_score.forward(g, store, state); // (B·F)×1
        let weights = {
            let s2d = g.tape.reshape(scores, b, f);
            g.tape.softmax_rows(s2d)
        };
        let vals = self.read_val.forward(g, store, state); // (B·F)×1
        let v2d = g.tape.reshape(vals, b, f);
        let weighted = g.tape.mul(weights, v2d);
        g.tape.row_sum(weighted) // B×1
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
        let model = FiGnn::new(&mut store, &dataset.schema, &ModelConfig::default(), &mut rng);
        let mut g = Graph::new(&store);
        let mut opts = ForwardOpts {
            training: false,
            rng: &mut rng,
        };
        let y = model.forward(&mut g, &store, &batch, &mut opts);
        assert_eq!(g.tape.shape(y), (batch.size, 1));
        assert!(!g.tape.value(y).has_non_finite());
    }

    #[test]
    fn learns_above_chance() {
        let auc = train_and_auc(
            |s, schema, cfg, rng| Box::new(FiGnn::new(s, schema, cfg, rng)),
            8,
        );
        assert!(auc > 0.58, "FiGNN test AUC {auc}");
    }
}
