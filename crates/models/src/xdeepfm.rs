//! xDeepFM (Lian et al., 2018): Compressed Interaction Network (CIN) plus a
//! deep tower and a linear part.

use crate::fm::Fm;
use crate::{CtrModel, EmbeddingLayer, ForwardOpts, ModelConfig};
use miss_autograd::Var;
use miss_data::{Batch, Schema};
use miss_nn::{dropout, Graph, Linear, Mlp, ParamStore};
use miss_util::Rng;

/// xDeepFM baseline.
pub struct XDeepFm {
    fm: Fm, // reuse the linear part + shared embedding
    cin_weights: Vec<miss_nn::DenseId>,
    cin_sizes: Vec<usize>,
    deep: Mlp,
    head: Linear,
    dropout: f32,
}

impl XDeepFm {
    /// Build the model over `store`. The CIN uses two layers of 8 feature
    /// maps (scaled to the paper's small-model regime).
    pub fn new(store: &mut ParamStore, schema: &Schema, cfg: &ModelConfig, rng: &mut Rng) -> Self {
        let f = schema.num_fields();
        let cin_sizes = vec![8usize, 8usize];
        let mut cin_weights = Vec::new();
        let mut h_prev = f;
        for (i, &h) in cin_sizes.iter().enumerate() {
            cin_weights.push(store.dense(
                &format!("xdeepfm.cin{i}"),
                h,
                h_prev * f,
                miss_nn::init::xavier(rng),
            ));
            h_prev = h;
        }
        let d = f * cfg.embed_dim;
        let hidden: Vec<usize> = cfg.mlp_sizes[..cfg.mlp_sizes.len() - 1].to_vec();
        let deep = Mlp::relu_tower(store, "xdeepfm.deep", d, &hidden, rng);
        let cin_out: usize = cin_sizes.iter().sum();
        let head = Linear::new(store, "xdeepfm.head", cin_out + deep.out_dim(), 1, rng);
        XDeepFm {
            fm: Fm::new(store, schema, cfg, rng),
            cin_weights,
            cin_sizes,
            deep,
            head,
            dropout: cfg.dropout,
        }
    }

    /// One CIN step: from `x_prev` (`(B·H)×K`) and `x0` (`(B·F)×K`) build the
    /// Hadamard interaction tensor and compress it with the layer's feature
    /// maps, yielding `(B·H')×K`.
    #[expect(
        clippy::too_many_arguments,
        reason = "one CIN step needs its weights, both inputs and the three layer extents"
    )]
    fn cin_layer(
        g: &mut Graph,
        store: &ParamStore,
        w: miss_nn::DenseId,
        x_prev: Var,
        x0: Var,
        b: usize,
        h: usize,
        f: usize,
    ) -> Var {
        // rows (b, h, f): x_prev[b,h] ⊙ x0[b,f]
        let prev_rep = g.tape.repeat_rows_interleave(x_prev, f); // (B·H·F)×K
        let mut idx = Vec::with_capacity(b * h * f);
        for bi in 0..b {
            for _hi in 0..h {
                for fi in 0..f {
                    idx.push(bi * f + fi);
                }
            }
        }
        let x0_rep = g.tape.gather_rows(x0, idx); // (B·H·F)×K
        let z = g.tape.mul(prev_rep, x0_rep);
        let wv = g.param(store, w);
        let mapped = g.tape.bmm_param_nn(wv, z, b); // (B·H')×K
        g.tape.relu(mapped)
    }
}

impl CtrModel for XDeepFm {
    fn forward(
        &self,
        g: &mut Graph,
        store: &ParamStore,
        batch: &Batch,
        opts: &mut ForwardOpts,
    ) -> Var {
        let b = batch.size;
        let fields = crate::field_vectors(g, store, self.fm.embedding(), batch);
        let f = fields.len();
        // Stack fields to (B·F)×K, sample-major.
        let stacked = {
            let wide = g.tape.concat_cols(&fields); // B×(F·K)
            let k = self.fm.embedding().dim;
            g.tape.reshape(wide, b * f, k)
        };
        // CIN.
        let mut x_prev = stacked;
        let mut h_prev = f;
        let mut pooled_layers = Vec::new();
        for (i, &h) in self.cin_sizes.iter().enumerate() {
            let x_next =
                Self::cin_layer(g, store, self.cin_weights[i], x_prev, stacked, b, h_prev, f);
            // Sum-pool over the embedding dimension: (B·H)×1 → B×H.
            let rs = g.tape.row_sum(x_next);
            pooled_layers.push(g.tape.reshape(rs, b, h));
            x_prev = x_next;
            h_prev = h;
        }
        let cin_flat = g.tape.concat_cols(&pooled_layers);
        // Deep tower.
        let flat = g.tape.concat_cols(&fields);
        let flat = dropout(g, flat, self.dropout, opts.training, opts.rng);
        let deep = self.deep.forward(g, store, flat);
        // Combine with the linear part.
        let both = g.tape.concat_cols(&[cin_flat, deep]);
        let head = self.head.forward(g, store, both);
        let linear = self.fm.first_order(g, store, batch);
        g.tape.add(head, linear)
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
        let model = XDeepFm::new(&mut store, &dataset.schema, &ModelConfig::default(), &mut rng);
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
            |s, schema, cfg, rng| Box::new(XDeepFm::new(s, schema, cfg, rng)),
            8,
        );
        assert!(auc > 0.6, "xDeepFM test AUC {auc}");
    }
}
