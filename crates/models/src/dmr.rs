//! DMR (Lyu et al., 2020): Deep Match to Rank. Two relevance subnetworks —
//! User-to-Item (position-aware attention over behaviours, relevance =
//! matched user vector · candidate) and Item-to-Item (candidate attention
//! scores over behaviours, relevance = their sum) — feed the ranking MLP
//! together with the usual field representation.

use crate::din::candidate_fields;
use crate::pooling::{attention_pool, masked_softmax_rows};
use crate::{CtrModel, EmbeddingLayer, ForwardOpts, ModelConfig};
use miss_autograd::Var;
use miss_data::{Batch, Schema};
use miss_nn::{dropout, init, DenseId, Graph, Linear, Mlp, ParamStore};
use miss_util::Rng;

/// DMR baseline.
pub struct Dmr {
    emb: EmbeddingLayer,
    /// Positional embedding `L×K` for the user-to-item network.
    pos: DenseId,
    u2i_att: Mlp,
    u2i_proj: Linear,
    i2i_att: Vec<Mlp>,
    cand_for_seq: Vec<usize>,
    deep: Mlp,
    dropout: f32,
}

impl Dmr {
    /// Build the model over `store`.
    pub fn new(store: &mut ParamStore, schema: &Schema, cfg: &ModelConfig, rng: &mut Rng) -> Self {
        let k = cfg.embed_dim;
        let l = schema.seq_len;
        let i2i_att = (0..schema.num_seq())
            .map(|j| Mlp::relu_tower(store, &format!("dmr.i2i{j}"), 4 * k, &[16, 1], rng))
            .collect();
        // fields + i2i pooled per seq + u2i user vector + 2 relevance scalars
        let in_dim = (schema.num_cat() + schema.num_seq() + 1) * k + 2;
        Dmr {
            emb: EmbeddingLayer::new(store, schema, k, "emb", rng),
            pos: store.dense("dmr.pos", l, k, init::normal(0.05, rng)),
            u2i_att: Mlp::relu_tower(store, "dmr.u2i_att", 2 * k, &[16, 1], rng),
            u2i_proj: Linear::new(store, "dmr.u2i_proj", k, k, rng),
            i2i_att,
            cand_for_seq: candidate_fields(schema),
            deep: Mlp::relu_tower(store, "dmr.deep", in_dim, &cfg.mlp_sizes, rng),
            dropout: cfg.dropout,
        }
    }
}

impl CtrModel for Dmr {
    fn forward(
        &self,
        g: &mut Graph,
        store: &ParamStore,
        batch: &Batch,
        opts: &mut ForwardOpts,
    ) -> Var {
        let b = batch.size;
        let l = batch.seq_len;
        let mut parts = self.emb.embed_all_cat(g, store, batch);
        let cand_item = parts[self.cand_for_seq[0]];
        let item_seq = self.emb.embed_seq_field(g, store, batch, 0);

        // ---- User-to-Item network ----
        // Position-aware attention *without* the candidate: weights from
        // [e_beh, pos] only, so the user vector is candidate-independent
        // (it represents the user in the matching space).
        let pos = g.param(store, self.pos); // L×K
        let pos_t = g.tape.tile_rows(pos, b); // (B·L)×K
        let att_in = g.tape.concat_cols(&[item_seq, pos_t]);
        let scores = self.u2i_att.forward(g, store, att_in); // (B·L)×1
        let scores2d = g.tape.reshape(scores, b, l);
        let w = masked_softmax_rows(g, scores2d, &batch.mask);
        let user_vec = g.tape.bmm_nn(w, item_seq, b); // B×K
        let user_vec = self.u2i_proj.forward(g, store, user_vec);
        // Relevance r_u2i = <user_vec, cand>.
        let r_u2i = {
            let p = g.tape.mul(user_vec, cand_item);
            g.tape.row_sum(p)
        };

        // ---- Item-to-Item network ----
        let mut r_i2i = None;
        for j in 0..self.emb.schema().num_seq() {
            let seq = self.emb.embed_seq_field(g, store, batch, j);
            let cand = parts[self.cand_for_seq[j]];
            let pooled = attention_pool(g, store, seq, cand, batch, &self.i2i_att[j]);
            parts.push(pooled);
            if j == 0 {
                // i2i relevance: sum of raw candidate-behaviour inner products.
                let cand_t = g.tape.repeat_rows_interleave(cand, l);
                let prod = g.tape.mul(seq, cand_t);
                let per_pos = g.tape.row_sum(prod); // (B·L)×1
                let per_pos2d = g.tape.reshape(per_pos, b, l);
                r_i2i = Some(g.tape.row_sum(per_pos2d)); // B×1
            }
        }

        parts.push(user_vec);
        parts.push(r_u2i);
        parts.push(r_i2i.expect("at least one sequential field"));
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
        let model = Dmr::new(&mut store, &dataset.schema, &ModelConfig::default(), &mut rng);
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
            |s, schema, cfg, rng| Box::new(Dmr::new(s, schema, cfg, rng)),
            8,
        );
        assert!(auc > 0.6, "DMR test AUC {auc}");
    }
}
