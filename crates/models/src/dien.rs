//! DIEN (Zhou et al., 2019): GRU interest extraction over the behaviour
//! sequence, an auxiliary next-behaviour loss, and AUGRU interest evolution
//! gated by candidate attention.

use crate::pooling::{masked_softmax_rows, mean_pool};
use crate::{CtrModel, EmbeddingLayer, ForwardOpts, ModelConfig};
use miss_autograd::Var;
use miss_data::{Batch, Schema};
use miss_nn::{dropout, AuGruCell, Graph, GruCell, Mlp, ParamStore};
use miss_tensor::Tensor;
use miss_util::Rng;

/// DIEN baseline model.
pub struct Dien {
    emb: EmbeddingLayer,
    gru: GruCell,
    augru: AuGruCell,
    deep: Mlp,
    dropout: f32,
}

impl Dien {
    /// Build the model over `store`. The GRU hidden width equals the
    /// embedding dimension so the auxiliary inner-product loss is defined.
    pub fn new(store: &mut ParamStore, schema: &Schema, cfg: &ModelConfig, rng: &mut Rng) -> Self {
        let k = cfg.embed_dim;
        let in_dim = schema.num_cat() * k + k + k; // cats + pooled cat-seq + evolved interest
        Dien {
            emb: EmbeddingLayer::new(store, schema, k, "emb", rng),
            gru: GruCell::new(store, "dien.gru", k, k, rng),
            augru: AuGruCell::new(store, "dien.augru", k, k, rng),
            deep: Mlp::relu_tower(store, "dien.deep", in_dim, &cfg.mlp_sizes, rng),
            dropout: cfg.dropout,
        }
    }

    fn step_rows(b: usize, l: usize, t: usize) -> Vec<usize> {
        (0..b).map(|i| i * l + t).collect()
    }

    /// Step `t`'s state: `h_new` on real positions, `h_old` kept on padded
    /// ones.
    fn keep_padded(g: &mut Graph, batch: &Batch, t: usize, h_new: Var, h_old: Var) -> Var {
        let b = batch.size;
        let l = batch.seq_len;
        let m = g.input(Tensor::from_vec(
            b,
            1,
            (0..b).map(|i| batch.mask[i * l + t]).collect(),
        ));
        let keep_new = g.tape.mul_col(h_new, m);
        let inv = {
            let neg = g.tape.scale(m, -1.0);
            g.tape.add_scalar(neg, 1.0)
        };
        let keep_old = g.tape.mul_col(h_old, inv);
        g.tape.add(keep_new, keep_old)
    }
}

impl CtrModel for Dien {
    fn forward(
        &self,
        g: &mut Graph,
        store: &ParamStore,
        batch: &Batch,
        opts: &mut ForwardOpts,
    ) -> Var {
        let b = batch.size;
        let l = batch.seq_len;
        let k = self.emb.dim;
        let seq = self.emb.embed_seq_field(g, store, batch, 0); // items
        let cand = self.emb.embed_cat_field(g, store, batch, 1);

        // Interest extraction: masked GRU over the sequence.
        let mut h = g.input(Tensor::zeros(b, k));
        let mut hidden = Vec::with_capacity(l);
        for t in 0..l {
            h = g.scope(|g| {
                let x_t = g.tape.gather_rows(seq, Self::step_rows(b, l, t));
                let h_new = self.gru.step(g, store, x_t, h);
                Self::keep_padded(g, batch, t, h_new, h)
            });
            hidden.push(h);
        }

        // Attention of the candidate over extracted interests.
        let mut score_cols = Vec::with_capacity(l);
        for &ht in &hidden {
            let prod = g.tape.mul(ht, cand);
            score_cols.push(g.tape.row_sum(prod)); // B×1
        }
        let scores = g.tape.concat_cols(&score_cols); // B×L
        let weights = masked_softmax_rows(g, scores, &batch.mask); // B×L

        // Interest evolution with AUGRU.
        let mut hv = g.input(Tensor::zeros(b, k));
        for (t, &x_t) in hidden.iter().enumerate() {
            hv = g.scope(|g| {
                let a_t = g.tape.slice_cols(weights, t, t + 1); // B×1
                let h_new = self.augru.step(g, store, x_t, hv, a_t);
                Self::keep_padded(g, batch, t, h_new, hv)
            });
        }

        if opts.training {
            // For `extra_loss` on this graph: the `L` per-step GRU states
            // (`B×K` each), then the item-sequence embedding.
            hidden.push(seq);
            g.carry = hidden;
        }

        let mut parts = self.emb.embed_all_cat(g, store, batch);
        let cat_seq = self.emb.embed_seq_field(g, store, batch, 1);
        parts.push(mean_pool(g, cat_seq, batch));
        parts.push(hv);
        let flat = g.tape.concat_cols(&parts);
        let flat = dropout(g, flat, self.dropout, opts.training, opts.rng);
        self.deep.forward(g, store, flat)
    }

    /// DIEN's auxiliary loss: each hidden state must score the *actual* next
    /// behaviour above a uniformly sampled negative item (inner-product
    /// logistic loss, masked to real transitions). Must be called after a
    /// training `forward` on the same graph, and consumes what it left.
    fn extra_loss(
        &self,
        g: &mut Graph,
        store: &ParamStore,
        batch: &Batch,
        opts: &mut ForwardOpts,
    ) -> Option<Var> {
        let mut hidden = std::mem::take(&mut g.carry);
        let seq_emb = hidden.pop()?;
        let b = batch.size;
        let l = batch.seq_len;
        let item_vocab = self.emb.schema().seq_fields[0].vocab;
        let table = self.emb.table(item_vocab);
        let vocab_size = self.emb.schema().vocabs[item_vocab].size;

        let mut logit_cols = Vec::new();
        let mut mask = Vec::new();
        for (t, &h_t) in hidden.iter().enumerate().take(l - 1) {
            // Positive: the actual next behaviour.
            let next = g.tape.gather_rows(seq_emb, Self::step_rows(b, l, t + 1));
            let pos = g.tape.mul(h_t, next);
            logit_cols.push(g.tape.row_sum(pos));
            // Negative: a random item.
            let neg_ids: Vec<u32> = (0..b)
                .map(|_| opts.rng.range(1, vocab_size) as u32)
                .collect();
            let neg_emb = g.embed(store, table, &neg_ids);
            let neg = g.tape.mul(h_t, neg_emb);
            logit_cols.push(g.tape.row_sum(neg));
            for i in 0..b {
                // valid transition only when both t and t+1 are real
                let valid =
                    batch.mask[i * l + t] > 0.0 && batch.mask[i * l + t + 1] > 0.0;
                mask.push(if valid { 1.0 } else { 0.0 });
            }
        }
        // Assemble: columns alternate pos/neg per step; compute masked BCE.
        let logits = g.tape.concat_cols(&logit_cols); // B×(2(L-1))
        let cols = 2 * (l - 1);
        let mut label_t = Tensor::zeros(b, cols);
        let mut mask_t = Tensor::zeros(b, cols);
        for (step, _) in (0..(l - 1)).enumerate() {
            for i in 0..b {
                let m = mask[step * b + i];
                label_t.set(i, 2 * step, 1.0);
                mask_t.set(i, 2 * step, m);
                mask_t.set(i, 2 * step + 1, m);
            }
        }
        let count = mask_t.sum_all().max(1.0);
        // Stable elementwise BCE-with-logits, masked and averaged.
        let z = logits;
        let zs = g.tape.sigmoid(z);
        let lab = g.input(label_t);
        let diff = g.tape.sub(zs, lab);
        let sq = g.tape.mul(diff, diff); // Brier-style surrogate, bounded & smooth
        let masked = g.tape.mask(sq, mask_t);
        let total = g.tape.sum_all(masked);
        Some(g.tape.scale(total, 1.0 / count))
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
    fn forward_shape_and_aux_loss() {
        let (dataset, batch) = tiny_batch();
        let mut store = ParamStore::new();
        let mut rng = Rng::new(0);
        let model = Dien::new(&mut store, &dataset.schema, &ModelConfig::default(), &mut rng);
        let mut g = Graph::new(&store);
        let mut opts = ForwardOpts {
            training: true,
            rng: &mut rng,
        };
        let y = model.forward(&mut g, &store, &batch, &mut opts);
        assert_eq!(g.tape.shape(y), (batch.size, 1));
        let aux = model.extra_loss(&mut g, &store, &batch, &mut opts);
        let aux = aux.expect("aux loss present after forward");
        assert_eq!(g.tape.shape(aux), (1, 1));
        let v = g.tape.value(aux).item();
        assert!(v.is_finite() && v >= 0.0);
        // consumed: second call yields none
        assert!(model.extra_loss(&mut g, &store, &batch, &mut opts).is_none());
    }

    /// Two graphs forwarding concurrently (interleaved here) must each get
    /// the aux-loss state of *their own* forward, not the last one globally
    /// — the property parallel training workers rely on.
    #[test]
    fn aux_state_is_per_graph() {
        let (dataset, batch) = tiny_batch();
        let mut store = ParamStore::new();
        let mut rng = Rng::new(3);
        let model = Dien::new(&mut store, &dataset.schema, &ModelConfig::default(), &mut rng);
        let mut ga = Graph::new(&store);
        let mut gb = Graph::new(&store);
        let mut rng_a = Rng::new(10);
        let mut rng_b = Rng::new(20);
        let mut opts_a = ForwardOpts { training: true, rng: &mut rng_a };
        let mut opts_b = ForwardOpts { training: true, rng: &mut rng_b };
        model.forward(&mut ga, &store, &batch, &mut opts_a);
        // B's forward lands between A's forward and A's extra_loss.
        model.forward(&mut gb, &store, &batch, &mut opts_b);
        let la = model.extra_loss(&mut ga, &store, &batch, &mut opts_a);
        let lb = model.extra_loss(&mut gb, &store, &batch, &mut opts_b);
        let la = la.expect("graph A kept its state");
        let lb = lb.expect("graph B kept its state");
        assert!(ga.tape.value(la).item().is_finite());
        assert!(gb.tape.value(lb).item().is_finite());
        // Both consumed: a second call on either graph yields nothing.
        assert!(model.extra_loss(&mut ga, &store, &batch, &mut opts_a).is_none());
        assert!(model.extra_loss(&mut gb, &store, &batch, &mut opts_b).is_none());
    }

    /// Eval-mode forwards must not leave aux state on the graph (eval never
    /// calls `extra_loss`, so the states would only be kept alive for
    /// nothing).
    #[test]
    fn eval_forward_leaves_no_state() {
        let (dataset, batch) = tiny_batch();
        let mut store = ParamStore::new();
        let mut rng = Rng::new(5);
        let model = Dien::new(&mut store, &dataset.schema, &ModelConfig::default(), &mut rng);
        let mut g = Graph::new(&store);
        let mut opts = ForwardOpts { training: false, rng: &mut rng };
        model.forward(&mut g, &store, &batch, &mut opts);
        assert!(model.extra_loss(&mut g, &store, &batch, &mut opts).is_none());
    }

    /// A reset graph starts a new step: the previous training forward's
    /// states must not reach this step's `extra_loss`.
    #[test]
    fn reset_drops_aux_state() {
        let (dataset, batch) = tiny_batch();
        let mut store = ParamStore::new();
        let mut rng = Rng::new(7);
        let model = Dien::new(&mut store, &dataset.schema, &ModelConfig::default(), &mut rng);
        let mut g = Graph::new(&store);
        let mut opts = ForwardOpts { training: true, rng: &mut rng };
        model.forward(&mut g, &store, &batch, &mut opts);
        g.reset(&store);
        assert!(model.extra_loss(&mut g, &store, &batch, &mut opts).is_none());
    }

    #[test]
    fn learns_above_chance() {
        let auc = train_and_auc(
            |s, schema, cfg, rng| Box::new(Dien::new(s, schema, cfg, rng)),
            6,
        );
        assert!(auc > 0.58, "DIEN test AUC {auc}");
    }
}
