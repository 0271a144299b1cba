//! AutoInt+ (Song et al., 2019): multi-head self-attention over field
//! embeddings with residual connections, plus a DNN branch (the "+").

use crate::{CtrModel, EmbeddingLayer, ForwardOpts, ModelConfig};
use miss_autograd::Var;
use miss_data::{Batch, Schema};
use miss_nn::{dropout, Graph, Linear, Mlp, ParamStore};
use miss_util::Rng;

struct AttentionHead {
    q: Linear,
    k: Linear,
    v: Linear,
}

/// AutoInt+ baseline.
pub struct AutoIntPlus {
    emb: EmbeddingLayer,
    heads: Vec<AttentionHead>,
    res: Linear,
    att_head_dim: usize,
    att_out: Linear,
    deep: Mlp,
    head: Linear,
    dropout: f32,
}

impl AutoIntPlus {
    /// Build the model over `store`: one interacting layer with two heads.
    pub fn new(store: &mut ParamStore, schema: &Schema, cfg: &ModelConfig, rng: &mut Rng) -> Self {
        let k = cfg.embed_dim;
        let d = 8; // per-head projection width
        let heads = (0..2)
            .map(|h| AttentionHead {
                q: Linear::new(store, &format!("autoint.h{h}.q"), k, d, rng),
                k: Linear::new(store, &format!("autoint.h{h}.k"), k, d, rng),
                v: Linear::new(store, &format!("autoint.h{h}.v"), k, d, rng),
            })
            .collect();
        let f = schema.num_fields();
        let hidden: Vec<usize> = cfg.mlp_sizes[..cfg.mlp_sizes.len() - 1].to_vec();
        let deep = Mlp::relu_tower(store, "autoint.deep", f * k, &hidden, rng);
        let att_width = f * 2 * d;
        AutoIntPlus {
            emb: EmbeddingLayer::new(store, schema, k, "emb", rng),
            heads,
            res: Linear::new(store, "autoint.res", k, 2 * d, rng),
            att_head_dim: d,
            att_out: Linear::new(store, "autoint.att_out", att_width, 1, rng),
            head: Linear::new(store, "autoint.head", 1 + deep.out_dim(), 1, rng),
            deep,
            dropout: cfg.dropout,
        }
    }
}

impl CtrModel for AutoIntPlus {
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
        let wide = g.tape.concat_cols(&fields); // B×(F·K)
        let stacked = g.tape.reshape(wide, b * f, k); // (B·F)×K

        // Multi-head self-attention within each sample's F field rows.
        let scale = 1.0 / (self.att_head_dim as f32).sqrt();
        let mut head_outs = Vec::with_capacity(self.heads.len());
        for h in &self.heads {
            let q = h.q.forward(g, store, stacked);
            let kk = h.k.forward(g, store, stacked);
            let v = h.v.forward(g, store, stacked);
            let scores = g.tape.bmm_nt(q, kk, b); // (B·F)×F
            let scaled = g.tape.scale(scores, scale);
            let att = g.tape.softmax_rows(scaled);
            head_outs.push(g.tape.bmm_nn(att, v, b)); // (B·F)×d
        }
        let multi = g.tape.concat_cols(&head_outs); // (B·F)×2d
        // Residual + ReLU (AutoInt's interacting layer).
        let resid = self.res.forward(g, store, stacked);
        let summed = g.tape.add(multi, resid);
        let inter = g.tape.relu(summed);
        let flat = g.tape.reshape(inter, b, f * 2 * self.att_head_dim);
        let att_logit = self.att_out.forward(g, store, flat);

        // DNN branch.
        let wide_d = dropout(g, wide, self.dropout, opts.training, opts.rng);
        let deep = self.deep.forward(g, store, wide_d);

        let both = g.tape.concat_cols(&[att_logit, deep]);
        self.head.forward(g, store, both)
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
        let model =
            AutoIntPlus::new(&mut store, &dataset.schema, &ModelConfig::default(), &mut rng);
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
            |s, schema, cfg, rng| Box::new(AutoIntPlus::new(s, schema, cfg, rng)),
            8,
        );
        assert!(auc > 0.6, "AutoInt+ test AUC {auc}");
    }
}
