//! Deep Interest Network (Zhou et al., 2018) — the paper's default base
//! model. Each behaviour sequence is pooled with the local activation unit
//! (attention on the matching candidate field, Eq. 4 of the paper), then a
//! deep MLP scores the concatenated representation (Eq. 5–6).

use crate::pooling::{attention_pool, mean_pool};
use crate::{CtrModel, EmbeddingLayer, ForwardOpts, ModelConfig};
use miss_autograd::Var;
use miss_data::{Batch, Schema};
use miss_nn::{dropout, Graph, Mlp, ParamStore};
use miss_util::Rng;

/// DIN baseline.
pub struct Din {
    emb: EmbeddingLayer,
    att: Vec<Mlp>,
    /// For each sequential field, the categorical field holding the matching
    /// candidate id (same vocabulary).
    cand_for_seq: Vec<usize>,
    deep: Mlp,
    dropout: f32,
}

/// Find, for each sequential field, the categorical field that shares its
/// vocabulary (the candidate counterpart the activation unit attends with).
pub(crate) fn candidate_fields(schema: &Schema) -> Vec<usize> {
    schema
        .seq_fields
        .iter()
        .map(|sf| {
            schema
                .cat_fields
                .iter()
                .position(|(_, v)| *v == sf.vocab)
                .expect("every sequential field needs a candidate counterpart")
        })
        .collect()
}

impl Din {
    /// Build the model over `store`.
    pub fn new(store: &mut ParamStore, schema: &Schema, cfg: &ModelConfig, rng: &mut Rng) -> Self {
        let k = cfg.embed_dim;
        let att = (0..schema.num_seq())
            .map(|j| Mlp::relu_tower(store, &format!("din.att{j}"), 4 * k, &[16, 1], rng))
            .collect();
        // fields + attention-pooled and mean-pooled sequences + explicit
        // ⟨pooled, candidate⟩ match scalars (production DIN feeds the top
        // MLP sum-pooled history and match features alongside the
        // locally-activated representation).
        let in_dim = (schema.num_cat() + 3 * schema.num_seq()) * k + 2 * schema.num_seq();
        Din {
            emb: EmbeddingLayer::new(store, schema, k, "emb", rng),
            att,
            cand_for_seq: candidate_fields(schema),
            deep: Mlp::relu_tower(store, "din.deep", in_dim, &cfg.mlp_sizes, rng),
            dropout: cfg.dropout,
        }
    }

    /// The paper's Eq. 4: every categorical embedding plus every sequence
    /// pooled by the local activation unit. Exposed for DMR/SIM reuse.
    pub(crate) fn representation(
        &self,
        g: &mut Graph,
        store: &ParamStore,
        batch: &Batch,
    ) -> Vec<Var> {
        let mut parts = self.emb.embed_all_cat(g, store, batch);
        for j in 0..self.emb.schema().num_seq() {
            let seq = self.emb.embed_seq_field(g, store, batch, j);
            let cand = parts[self.cand_for_seq[j]];
            let pooled = attention_pool(g, store, seq, cand, batch, &self.att[j]);
            let mean = mean_pool(g, seq, batch);
            let interact_att = g.tape.mul(pooled, cand);
            let interact_mean = g.tape.mul(mean, cand);
            let match_att = g.tape.row_sum(interact_att);
            let match_mean = g.tape.row_sum(interact_mean);
            parts.push(pooled);
            parts.push(mean);
            parts.push(interact_att);
            parts.push(match_att);
            parts.push(match_mean);
        }
        parts
    }
}

impl CtrModel for Din {
    fn forward(
        &self,
        g: &mut Graph,
        store: &ParamStore,
        batch: &Batch,
        opts: &mut ForwardOpts,
    ) -> Var {
        let parts = self.representation(g, store, batch);
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
    fn candidate_field_mapping() {
        let (dataset, _) = tiny_batch();
        let mapping = candidate_fields(&dataset.schema);
        // hist_items → cand_item (field 1), hist_categories → cand_category (field 2)
        assert_eq!(mapping, vec![1, 2]);
    }

    #[test]
    fn forward_shape() {
        let (dataset, batch) = tiny_batch();
        let mut store = ParamStore::new();
        let mut rng = Rng::new(0);
        let model = Din::new(&mut store, &dataset.schema, &ModelConfig::default(), &mut rng);
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
            |s, schema, cfg, rng| Box::new(Din::new(s, schema, cfg, rng)),
            8,
        );
        assert!(auc > 0.62, "DIN test AUC {auc}");
    }
}
