//! The shared embedding layer: one table per vocabulary, fields index into
//! their vocabulary's table (so the candidate item and the behaviour items
//! share weights — the surface MISS enhances).

use miss_autograd::Var;
use miss_data::{Batch, Schema};
use miss_nn::{init, Graph, ParamStore, TableId};
use miss_tensor::Tensor;
use miss_util::Rng;

/// Embedding tables for every vocabulary of a [`Schema`].
pub struct EmbeddingLayer {
    /// Embedding dimension `K`.
    pub dim: usize,
    tables: Vec<TableId>,
    schema: Schema,
}

impl EmbeddingLayer {
    /// Create (or fetch, by `prefix`) the embedding tables.
    pub fn new(
        store: &mut ParamStore,
        schema: &Schema,
        dim: usize,
        prefix: &str,
        rng: &mut Rng,
    ) -> Self {
        let tables = schema
            .vocabs
            .iter()
            .map(|v| {
                store.table(
                    &format!("{prefix}.{}", v.name),
                    v.size,
                    dim,
                    init::normal(0.05, rng),
                )
            })
            .collect();
        EmbeddingLayer {
            dim,
            tables,
            schema: schema.clone(),
        }
    }

    /// The schema this layer serves.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Table id backing a vocabulary (for tests and weight surgery).
    pub fn table(&self, vocab: usize) -> TableId {
        self.tables[vocab]
    }

    /// Embed one categorical field: `B×K`.
    pub fn embed_cat_field(
        &self,
        g: &mut Graph,
        store: &ParamStore,
        batch: &Batch,
        field: usize,
    ) -> Var {
        let vocab = self.schema.cat_fields[field].1;
        g.embed(store, self.tables[vocab], &batch.cat[field])
    }

    /// Embed every categorical field, in schema order.
    pub fn embed_all_cat(&self, g: &mut Graph, store: &ParamStore, batch: &Batch) -> Vec<Var> {
        (0..self.schema.num_cat())
            .map(|f| self.embed_cat_field(g, store, batch, f))
            .collect()
    }

    /// Embed one sequential field: `(B·L)×K`, with padded rows zeroed via the
    /// batch mask (so pooling sums are exact).
    pub fn embed_seq_field(
        &self,
        g: &mut Graph,
        store: &ParamStore,
        batch: &Batch,
        field: usize,
    ) -> Var {
        let vocab = self.schema.seq_fields[field].vocab;
        g.scope(|g| {
            let e = g.embed(store, self.tables[vocab], &batch.seq[field]);
            let m = g.input(self.mask_col_tensor(batch));
            g.tape.mul_col(e, m)
        })
    }

    /// The batch validity mask as a `(B·L)×1` tensor.
    pub fn mask_col_tensor(&self, batch: &Batch) -> Tensor {
        Tensor::from_vec(batch.mask.len(), 1, batch.mask.clone())
    }

    /// Per-sample history lengths as a `B×1` tensor (min 1 to avoid division
    /// by zero on fully padded rows, which the data pipeline never produces).
    pub fn hist_len_tensor(&self, batch: &Batch) -> Tensor {
        Tensor::from_vec(
            batch.size,
            1,
            (0..batch.size)
                .map(|i| (batch.hist_len(i).max(1)) as f32)
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::tiny_batch;

    #[test]
    fn shapes() {
        let (dataset, batch) = tiny_batch();
        let mut store = ParamStore::new();
        let mut rng = Rng::new(0);
        let emb = EmbeddingLayer::new(&mut store, &dataset.schema, 10, "emb", &mut rng);
        let mut g = Graph::new(&store);
        let cats = emb.embed_all_cat(&mut g, &store, &batch);
        assert_eq!(cats.len(), dataset.schema.num_cat());
        for c in &cats {
            assert_eq!(g.tape.shape(*c), (batch.size, 10));
        }
        let s = emb.embed_seq_field(&mut g, &store, &batch, 0);
        assert_eq!(g.tape.shape(s), (batch.size * batch.seq_len, 10));
    }

    #[test]
    fn padded_rows_are_zero() {
        let (dataset, batch) = tiny_batch();
        let mut store = ParamStore::new();
        let mut rng = Rng::new(1);
        let emb = EmbeddingLayer::new(&mut store, &dataset.schema, 8, "emb", &mut rng);
        let mut g = Graph::new(&store);
        let s = emb.embed_seq_field(&mut g, &store, &batch, 0);
        let val = g.tape.value(s);
        for i in 0..batch.size {
            for p in 0..batch.seq_len {
                if batch.mask[i * batch.seq_len + p] == 0.0 {
                    assert!(val.row(i * batch.seq_len + p).iter().all(|&v| v == 0.0));
                }
            }
        }
    }

    #[test]
    fn same_prefix_shares_tables() {
        let (dataset, _) = tiny_batch();
        let mut store = ParamStore::new();
        let mut rng = Rng::new(2);
        let a = EmbeddingLayer::new(&mut store, &dataset.schema, 10, "emb", &mut rng);
        let b = EmbeddingLayer::new(&mut store, &dataset.schema, 10, "emb", &mut rng);
        assert_eq!(a.table(1), b.table(1), "same prefix must share tables");
        let c = EmbeddingLayer::new(&mut store, &dataset.schema, 10, "other", &mut rng);
        assert_ne!(a.table(1), c.table(1));
    }

    #[test]
    fn candidate_and_history_share_item_table() {
        let (dataset, _) = tiny_batch();
        // cand_item field (index 1) and hist_items seq field (index 0) both
        // reference the item vocabulary.
        let cand_vocab = dataset.schema.cat_fields[1].1;
        let hist_vocab = dataset.schema.seq_fields[0].vocab;
        assert_eq!(cand_vocab, hist_vocab);
    }
}
