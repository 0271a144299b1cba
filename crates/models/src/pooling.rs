//! Sequence pooling: masked mean pooling and the DIN-style local activation
//! unit (attention) pooling the paper adopts for its base model (Eq. 4).

use miss_autograd::Var;
use miss_data::Batch;
use miss_nn::{Graph, Mlp, ParamStore};
use miss_tensor::Tensor;

/// Masked mean pooling of a `(B·L)×K` sequence embedding into `B×K`.
pub fn mean_pool(g: &mut Graph, seq_emb: Var, batch: &Batch) -> Var {
    let (bl, _k) = g.tape.shape(seq_emb);
    let b = batch.size;
    let l = batch.seq_len;
    assert_eq!(bl, b * l, "sequence embedding shape mismatch");
    // The per-sample sum of the (already-masked) embeddings over the real
    // positions, divided by the true history length.
    let sums = g.tape.segment_sum(seq_emb, l); // B×K
    let inv_len = Tensor::from_vec(
        b,
        1,
        (0..b).map(|i| 1.0 / batch.hist_len(i).max(1) as f32).collect(),
    );
    let inv = g.input(inv_len);
    g.tape.mul_col(sums, inv)
}

/// Softmax over each row with −∞ masking of padded positions.
/// `scores` is `B×L`; `mask` is the batch's `B·L` validity vector.
pub fn masked_softmax_rows(g: &mut Graph, scores: Var, mask: &[f32]) -> Var {
    let (b, l) = g.tape.shape(scores);
    assert_eq!(mask.len(), b * l);
    let neg = Tensor::from_vec(
        b,
        l,
        mask.iter().map(|&m| if m > 0.0 { 0.0 } else { -1e9 }).collect(),
    );
    let nm = g.input(neg);
    let masked = g.tape.add(scores, nm);
    g.tape.softmax_rows(masked)
}

/// DIN's local activation unit pooling (LAUP in Eq. 4): attention of the
/// candidate embedding over the behaviour sequence, with the customary
/// `[e_beh, e_cand, e_beh − e_cand, e_beh ⊙ e_cand]` interaction input and
/// masked-softmax normalisation. Returns the pooled `B×K` representation.
///
/// `att_mlp` must be a ReLU → linear tower mapping `4K → H → 1`.
pub fn attention_pool(
    g: &mut Graph,
    store: &ParamStore,
    seq_emb: Var,
    cand_emb: Var,
    batch: &Batch,
    att_mlp: &Mlp,
) -> Var {
    attention_pool_masked(g, store, seq_emb, cand_emb, batch.size, batch.seq_len, &batch.mask, att_mlp)
}

/// [`attention_pool`] over an explicit `(b, l, mask)` — used by SIM after
/// its top-k retrieval produces a shorter, re-masked sequence. The whole
/// unit is one tape node, [`Graph::activation_unit`].
#[expect(
    clippy::too_many_arguments,
    reason = "SIM passes its re-masked (b, l, mask) view explicitly instead of a Batch"
)]
pub fn attention_pool_masked(
    g: &mut Graph,
    store: &ParamStore,
    seq_emb: Var,
    cand_emb: Var,
    b: usize,
    l: usize,
    mask: &[f32],
    att_mlp: &Mlp,
) -> Var {
    let (bl, k) = g.tape.shape(seq_emb);
    assert_eq!(bl, b * l, "sequence rows");
    assert_eq!(g.tape.shape(cand_emb), (b, k), "candidate shape");
    let tower = att_mlp
        .relu_linear_tower()
        .expect("the activation unit's tower is ReLU → linear, two layers");
    g.activation_unit(store, seq_emb, cand_emb, mask, tower)
}

/// The standard "field vector" view shared by the feature-interaction
/// models: every categorical field's embedding plus every sequential field
/// mean-pooled, in schema order (`I + J` vectors of `B×K`).
pub fn field_vectors(
    g: &mut Graph,
    store: &ParamStore,
    emb: &crate::EmbeddingLayer,
    batch: &Batch,
) -> Vec<Var> {
    let mut fields = emb.embed_all_cat(g, store, batch);
    for j in 0..emb.schema().num_seq() {
        let s = emb.embed_seq_field(g, store, batch, j);
        fields.push(mean_pool(g, s, batch));
    }
    fields
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::tiny_batch;
    use crate::EmbeddingLayer;
    use miss_nn::ParamStore;
    use miss_util::Rng;

    #[test]
    fn mean_pool_matches_manual() {
        let (dataset, batch) = tiny_batch();
        let mut store = ParamStore::new();
        let mut rng = Rng::new(3);
        let emb = EmbeddingLayer::new(&mut store, &dataset.schema, 6, "emb", &mut rng);
        let mut g = Graph::new(&store);
        let s = emb.embed_seq_field(&mut g, &store, &batch, 0);
        let pooled = mean_pool(&mut g, s, &batch);
        assert_eq!(g.tape.shape(pooled), (batch.size, 6));
        // manual check for sample 0
        let sv = g.tape.value(s);
        let l = batch.seq_len;
        let n = batch.hist_len(0) as f32;
        for c in 0..6 {
            let manual: f32 =
                (0..l).map(|p| sv.get(p, c)).sum::<f32>() / n;
            let got = g.tape.value(pooled).get(0, c);
            assert!((manual - got).abs() < 1e-5, "col {c}: {manual} vs {got}");
        }
    }

    #[test]
    fn masked_softmax_zeroes_padding() {
        let (_, batch) = tiny_batch();
        let store = ParamStore::new();
        let mut g = Graph::new(&store);
        let scores = g.input(Tensor::full(batch.size, batch.seq_len, 0.3));
        let w = masked_softmax_rows(&mut g, scores, &batch.mask);
        let wv = g.tape.value(w);
        for i in 0..batch.size {
            let mut sum = 0.0f32;
            for p in 0..batch.seq_len {
                let v = wv.get(i, p);
                if batch.mask[i * batch.seq_len + p] == 0.0 {
                    assert!(v < 1e-6, "padded weight {v} not ~0");
                }
                sum += v;
            }
            assert!((sum - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn attention_pool_shape_and_finite() {
        let (dataset, batch) = tiny_batch();
        let mut store = ParamStore::new();
        let mut rng = Rng::new(4);
        let emb = EmbeddingLayer::new(&mut store, &dataset.schema, 10, "emb", &mut rng);
        let att = Mlp::relu_tower(&mut store, "att", 40, &[16, 1], &mut rng);
        let mut g = Graph::new(&store);
        let s = emb.embed_seq_field(&mut g, &store, &batch, 0);
        let c = emb.embed_cat_field(&mut g, &store, &batch, 1);
        let pooled = attention_pool(&mut g, &store, s, c, &batch, &att);
        assert_eq!(g.tape.shape(pooled), (batch.size, 10));
        assert!(!g.tape.value(pooled).has_non_finite());
    }
}
