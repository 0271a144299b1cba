//! SIM(soft) (Pi et al., 2020): two-stage interest modelling — a *soft
//! search* retrieves the top-k behaviours most relevant to the candidate by
//! embedding inner product, then a DIN-style attention unit pools only the
//! retrieved subset.

use crate::din::candidate_fields;
use crate::pooling::attention_pool_masked;
use crate::{CtrModel, EmbeddingLayer, ForwardOpts, ModelConfig};
use miss_autograd::Var;
use miss_data::{Batch, Schema};
use miss_nn::{dropout, Graph, Mlp, ParamStore};
use miss_util::top_k_desc_into;
use miss_util::Rng;

/// SIM with soft search.
pub struct SimSoft {
    emb: EmbeddingLayer,
    att: Vec<Mlp>,
    cand_for_seq: Vec<usize>,
    deep: Mlp,
    /// Retrieval depth `k`.
    pub top_k: usize,
    dropout: f32,
}

impl SimSoft {
    /// Build the model over `store` with retrieval depth 10.
    pub fn new(store: &mut ParamStore, schema: &Schema, cfg: &ModelConfig, rng: &mut Rng) -> Self {
        let k = cfg.embed_dim;
        let att = (0..schema.num_seq())
            .map(|j| Mlp::relu_tower(store, &format!("sim.att{j}"), 4 * k, &[16, 1], rng))
            .collect();
        let in_dim = (schema.num_cat() + schema.num_seq()) * k;
        SimSoft {
            emb: EmbeddingLayer::new(store, schema, k, "emb", rng),
            att,
            cand_for_seq: candidate_fields(schema),
            deep: Mlp::relu_tower(store, "sim.deep", in_dim, &cfg.mlp_sizes, rng),
            top_k: 10,
            dropout: cfg.dropout,
        }
    }
}

impl CtrModel for SimSoft {
    fn forward(
        &self,
        g: &mut Graph,
        store: &ParamStore,
        batch: &Batch,
        opts: &mut ForwardOpts,
    ) -> Var {
        let b = batch.size;
        let l = batch.seq_len;
        let kk = self.top_k.min(l);
        let mut parts = self.emb.embed_all_cat(g, store, batch);
        for j in 0..self.emb.schema().num_seq() {
            let seq = self.emb.embed_seq_field(g, store, batch, j);
            let cand = parts[self.cand_for_seq[j]];
            // Stage 1 (soft search): relevance = inner product, computed on
            // the forward values; selection indices are data, the gathered
            // rows stay differentiable.
            let rel = {
                let seq_v = g.tape.value(seq);
                let cand_v = g.tape.value(cand);
                let mut scores = vec![f32::NEG_INFINITY; b * l];
                for i in 0..b {
                    for p in 0..l {
                        if batch.mask[i * l + p] > 0.0 {
                            let s: f32 = seq_v
                                .row(i * l + p)
                                .iter()
                                .zip(cand_v.row(i))
                                .map(|(&a, &c)| a * c)
                                .sum();
                            scores[i * l + p] = s;
                        }
                    }
                }
                scores
            };
            let mut gather_idx = Vec::with_capacity(b * kk);
            let mut sub_mask = vec![0.0f32; b * kk];
            let mut top = Vec::with_capacity(l);
            for i in 0..b {
                top_k_desc_into(&rel[i * l..(i + 1) * l], kk, &mut top);
                for (slot, &p) in top.iter().enumerate() {
                    gather_idx.push(i * l + p);
                    if batch.mask[i * l + p] > 0.0 {
                        sub_mask[i * kk + slot] = 1.0;
                    }
                }
            }
            let sub_seq = g.tape.gather_rows(seq, gather_idx); // (B·k)×K
            // Stage 2: DIN attention over the retrieved subset.
            let pooled =
                attention_pool_masked(g, store, sub_seq, cand, b, kk, &sub_mask, &self.att[j]);
            parts.push(pooled);
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
        let model = SimSoft::new(&mut store, &dataset.schema, &ModelConfig::default(), &mut rng);
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
            |s, schema, cfg, rng| Box::new(SimSoft::new(s, schema, cfg, rng)),
            8,
        );
        assert!(auc > 0.6, "SIM test AUC {auc}");
    }
}
