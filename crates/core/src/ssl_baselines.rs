//! The SSL comparison methods of Table VI: a category-rule segmentation
//! baseline, IRSSL (item-feature masking), S3Rec (sequence–segment MIM), and
//! CL4SRec (crop/mask/reorder). All share the [`SslMethod`] interface so the
//! trainer treats them interchangeably with MISS.
#![expect(
    clippy::indexing_slicing,
    reason = "positions bi * l + p with bi < batch.size and p < seq_len index the size * seq_len sequence and mask buffers"
)]

use miss_autograd::Var;
use miss_data::Batch;
use miss_models::EmbeddingLayer;
use miss_nn::{dropout, Graph, Mlp, ParamStore};
use miss_tensor::Tensor;
use miss_util::Rng;

/// An auxiliary self-supervised objective attached to a base CTR model.
/// Returns the *weighted* auxiliary loss to be added to the log-loss, or
/// `None` when the batch cannot support it (e.g. batch size 1).
///
/// `Send + Sync` is part of the contract (mirroring `CtrModel`): the
/// trainer's micro-batch workers call `ssl_loss` concurrently on shared
/// references, so implementations must not cache per-call state in `&self`.
pub trait SslMethod: Send + Sync {
    /// Build the auxiliary loss on the current graph.
    fn ssl_loss(
        &self,
        g: &mut Graph,
        store: &ParamStore,
        emb: &EmbeddingLayer,
        batch: &Batch,
        rng: &mut Rng,
    ) -> Option<Var>;
}

/// Mean-pool arbitrary per-sample position subsets of a `(B·L)×K` sequence
/// embedding: `weights[b][p] = 1/|S_b|` on the chosen positions.
fn subset_mean(
    g: &mut Graph,
    seq_emb: Var,
    b: usize,
    l: usize,
    select: impl Fn(usize, usize) -> bool,
) -> Var {
    let mut w = Tensor::zeros(b, l);
    for bi in 0..b {
        let chosen: Vec<usize> = (0..l).filter(|&p| select(bi, p)).collect();
        if chosen.is_empty() {
            continue;
        }
        let inv = 1.0 / chosen.len() as f32;
        for p in chosen {
            w.set(bi, p, inv);
        }
    }
    let wv = g.input(w);
    g.tape.bmm_nn(wv, seq_emb, b)
}

// ---------------------------------------------------------------------------
// Rule-based segmentation
// ---------------------------------------------------------------------------

/// The paper's rule baseline: segment the behaviour sequence by item
/// category, take the user's dominant category segment as the interest, and
/// contrast two dropout views of its representation.
pub struct RuleSsl {
    enc: Mlp,
    tau: f32,
    alpha: f32,
}

impl RuleSsl {
    /// Build over the base model's store (encoder `K → {20,20}`).
    pub fn new(store: &mut ParamStore, emb: &EmbeddingLayer, alpha: f32, rng: &mut Rng) -> Self {
        RuleSsl {
            enc: Mlp::relu_tower(store, "rule.enc", emb.dim, &[20, 20], rng),
            tau: 0.1,
            alpha,
        }
    }
}

impl SslMethod for RuleSsl {
    fn ssl_loss(
        &self,
        g: &mut Graph,
        store: &ParamStore,
        emb: &EmbeddingLayer,
        batch: &Batch,
        rng: &mut Rng,
    ) -> Option<Var> {
        if batch.size < 2 {
            return None;
        }
        let b = batch.size;
        let l = batch.seq_len;
        // Dominant category per sample from the category sequence (field 1).
        let cat_seq = &batch.seq[1];
        let mut dominant = vec![0u32; b];
        for bi in 0..b {
            // BTreeMap so the max_by_key scan below runs in key order and
            // the dominant category stays a pure function of the batch
            // (hash order is per-process random; keys are unique so the
            // winner is the same either way, but R1's `iter_over_hash_type`
            // lint bans iterated hash containers outright).
            let mut counts: std::collections::BTreeMap<u32, usize> = Default::default();
            for p in 0..l {
                if batch.mask[bi * l + p] > 0.0 {
                    *counts.entry(cat_seq[bi * l + p]).or_default() += 1;
                }
            }
            dominant[bi] = counts
                .into_iter()
                .max_by_key(|&(cat, n)| (n, cat))
                .map(|(cat, _)| cat)
                .unwrap_or(0);
        }
        let items = emb.embed_seq_field(g, store, batch, 0);
        let seg = subset_mean(g, items, b, l, |bi, p| {
            batch.mask[bi * l + p] > 0.0 && cat_seq[bi * l + p] == dominant[bi]
        });
        let v1 = dropout(g, seg, 0.2, true, rng);
        let v2 = dropout(g, seg, 0.2, true, rng);
        let z1 = self.enc.forward(g, store, v1);
        let z2 = self.enc.forward(g, store, v2);
        let loss = g.tape.info_nce(z1, z2, self.tau);
        Some(g.tape.scale(loss, self.alpha))
    }
}

// ---------------------------------------------------------------------------
// IRSSL — item-feature masking (Yao et al.)
// ---------------------------------------------------------------------------

/// IRSSL with the item feature-mask strategy: the two views of a candidate
/// item are complementary feature subsets — its id embedding vs its
/// category embedding — aligned with InfoNCE.
pub struct Irssl {
    enc_a: Mlp,
    enc_b: Mlp,
    tau: f32,
    alpha: f32,
}

impl Irssl {
    /// Build over the base model's store.
    pub fn new(store: &mut ParamStore, emb: &EmbeddingLayer, alpha: f32, rng: &mut Rng) -> Self {
        Irssl {
            enc_a: Mlp::relu_tower(store, "irssl.enc_a", emb.dim, &[20, 20], rng),
            enc_b: Mlp::relu_tower(store, "irssl.enc_b", emb.dim, &[20, 20], rng),
            tau: 0.1,
            alpha,
        }
    }
}

impl SslMethod for Irssl {
    fn ssl_loss(
        &self,
        g: &mut Graph,
        store: &ParamStore,
        emb: &EmbeddingLayer,
        batch: &Batch,
        rng: &mut Rng,
    ) -> Option<Var> {
        if batch.size < 2 {
            return None;
        }
        let _ = rng;
        let item = emb.embed_cat_field(g, store, batch, 1); // cand item id
        let cat = emb.embed_cat_field(g, store, batch, 2); // cand category
        let z1 = self.enc_a.forward(g, store, item);
        let z2 = self.enc_b.forward(g, store, cat);
        let loss = g.tape.info_nce(z1, z2, self.tau);
        Some(g.tape.scale(loss, self.alpha))
    }
}

// ---------------------------------------------------------------------------
// S3Rec — sequence–segment mutual information maximisation
// ---------------------------------------------------------------------------

/// S3Rec's sequence–segment objective (its best-performing pretext task per
/// the paper): a random contiguous segment of the history vs the rest of the
/// history form the positive pair.
pub struct S3Rec {
    enc: Mlp,
    tau: f32,
    alpha: f32,
}

impl S3Rec {
    /// Build over the base model's store.
    pub fn new(store: &mut ParamStore, emb: &EmbeddingLayer, alpha: f32, rng: &mut Rng) -> Self {
        S3Rec {
            enc: Mlp::relu_tower(store, "s3rec.enc", emb.dim, &[20, 20], rng),
            tau: 0.1,
            alpha,
        }
    }
}

impl SslMethod for S3Rec {
    fn ssl_loss(
        &self,
        g: &mut Graph,
        store: &ParamStore,
        emb: &EmbeddingLayer,
        batch: &Batch,
        rng: &mut Rng,
    ) -> Option<Var> {
        if batch.size < 2 {
            return None;
        }
        let b = batch.size;
        let l = batch.seq_len;
        // Per-sample random segment inside the real region.
        let mut seg_lo = vec![0usize; b];
        let mut seg_hi = vec![0usize; b];
        for bi in 0..b {
            let n = batch.hist_len(bi);
            let pad = l - n;
            let seg_len = (n / 2).clamp(1, n);
            let start = if n > seg_len {
                pad + rng.below(n - seg_len + 1)
            } else {
                pad
            };
            seg_lo[bi] = start;
            seg_hi[bi] = start + seg_len;
        }
        let items = emb.embed_seq_field(g, store, batch, 0);
        let seg = subset_mean(g, items, b, l, |bi, p| {
            batch.mask[bi * l + p] > 0.0 && p >= seg_lo[bi] && p < seg_hi[bi]
        });
        let rest = subset_mean(g, items, b, l, |bi, p| {
            batch.mask[bi * l + p] > 0.0 && (p < seg_lo[bi] || p >= seg_hi[bi])
        });
        let z1 = self.enc.forward(g, store, seg);
        let z2 = self.enc.forward(g, store, rest);
        let loss = g.tape.info_nce(z1, z2, self.tau);
        Some(g.tape.scale(loss, self.alpha))
    }
}

// ---------------------------------------------------------------------------
// CL4SRec — crop / mask / reorder sample-level contrastive learning
// ---------------------------------------------------------------------------

/// CL4SRec: each view is the whole behaviour sequence transformed by two of
/// the three augmentation operators {crop, mask, reorder}; views of the same
/// sample are positives, in-batch others negatives.
pub struct Cl4SRec {
    enc: Mlp,
    tau: f32,
    alpha: f32,
}

#[derive(Clone, Copy)]
enum AugOp {
    Crop,
    Mask,
    Reorder,
}

impl Cl4SRec {
    /// Build over the base model's store.
    pub fn new(store: &mut ParamStore, emb: &EmbeddingLayer, alpha: f32, rng: &mut Rng) -> Self {
        Cl4SRec {
            enc: Mlp::relu_tower(store, "cl4srec.enc", emb.dim, &[20, 20], rng),
            tau: 0.1,
            alpha,
        }
    }

    /// Apply one augmentation view: returns modified ids + mask.
    fn augment(batch: &Batch, rng: &mut Rng) -> (Vec<u32>, Vec<f32>) {
        let b = batch.size;
        let l = batch.seq_len;
        let mut ids = batch.seq[0].clone();
        let mut mask = batch.mask.clone();
        // pick one operator per view (two ops across the two views overall)
        let op = match rng.below(3) {
            0 => AugOp::Crop,
            1 => AugOp::Mask,
            _ => AugOp::Reorder,
        };
        for bi in 0..b {
            let n = batch.hist_len(bi);
            if n < 2 {
                continue;
            }
            let pad = l - n;
            match op {
                AugOp::Crop => {
                    // keep a contiguous 70% span, drop the rest
                    let keep = ((n as f64) * 0.7).ceil() as usize;
                    let keep = keep.clamp(1, n);
                    let start = pad + rng.below(n - keep + 1);
                    for p in pad..l {
                        if p < start || p >= start + keep {
                            ids[bi * l + p] = 0;
                            mask[bi * l + p] = 0.0;
                        }
                    }
                }
                AugOp::Mask => {
                    // mask 20% of positions
                    for p in pad..l {
                        if rng.bool(0.2) {
                            ids[bi * l + p] = 0;
                            mask[bi * l + p] = 0.0;
                        }
                    }
                }
                AugOp::Reorder => {
                    // shuffle a random 50% sub-span (harmless for the
                    // mean-pooled encoder but kept for fidelity)
                    let span = (n / 2).max(1);
                    let start = pad + rng.below(n - span + 1);
                    let mut sub: Vec<u32> =
                        (start..start + span).map(|p| ids[bi * l + p]).collect();
                    rng.shuffle(&mut sub);
                    for (o, p) in (start..start + span).enumerate() {
                        ids[bi * l + p] = sub[o];
                    }
                }
            }
        }
        (ids, mask)
    }

    fn view(
        &self,
        g: &mut Graph,
        store: &ParamStore,
        emb: &EmbeddingLayer,
        batch: &Batch,
        rng: &mut Rng,
    ) -> Var {
        let (ids, mask) = Self::augment(batch, rng);
        let b = batch.size;
        let l = batch.seq_len;
        let item_vocab = emb.schema().seq_fields[0].vocab;
        let e = g.embed(store, emb.table(item_vocab), &ids);
        let m = g.input(Tensor::from_vec(b * l, 1, mask.clone()));
        let masked = g.tape.mul_col(e, m);
        subset_mean(g, masked, b, l, |bi, p| mask[bi * l + p] > 0.0)
    }
}

impl SslMethod for Cl4SRec {
    fn ssl_loss(
        &self,
        g: &mut Graph,
        store: &ParamStore,
        emb: &EmbeddingLayer,
        batch: &Batch,
        rng: &mut Rng,
    ) -> Option<Var> {
        if batch.size < 2 {
            return None;
        }
        let v1 = self.view(g, store, emb, batch, rng);
        let v2 = self.view(g, store, emb, batch, rng);
        let z1 = self.enc.forward(g, store, v1);
        let z2 = self.enc.forward(g, store, v2);
        let loss = g.tape.info_nce(z1, z2, self.tau);
        Some(g.tape.scale(loss, self.alpha))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use miss_data::{Batch, Dataset, Sample, WorldConfig};

    fn setup() -> (Batch, ParamStore, EmbeddingLayer, Rng) {
        let dataset = Dataset::generate(WorldConfig::tiny(), 51);
        let refs: Vec<&Sample> = dataset.train.iter().take(10).collect();
        let batch = Batch::from_samples(&refs, &dataset.schema);
        let mut store = ParamStore::new();
        let mut rng = Rng::new(23);
        let emb = EmbeddingLayer::new(&mut store, &dataset.schema, 10, "emb", &mut rng);
        (batch, store, emb, rng)
    }

    #[test]
    fn all_baselines_produce_finite_positive_losses() {
        let (batch, mut store, emb, mut rng) = setup();
        let methods: Vec<(&str, Box<dyn SslMethod>)> = vec![
            ("Rule", Box::new(RuleSsl::new(&mut store, &emb, 0.5, &mut rng))),
            ("IRSSL", Box::new(Irssl::new(&mut store, &emb, 0.5, &mut rng))),
            ("S3Rec", Box::new(S3Rec::new(&mut store, &emb, 0.5, &mut rng))),
            ("CL4SRec", Box::new(Cl4SRec::new(&mut store, &emb, 0.5, &mut rng))),
        ];
        for (name, m) in &methods {
            let mut g = Graph::new(&store);
            let loss = m
                .ssl_loss(&mut g, &store, &emb, &batch, &mut rng)
                .unwrap_or_else(|| panic!("{name} produced no loss"));
            let v = g.tape.value(loss).item();
            assert!(v.is_finite() && v >= 0.0, "{name}: {v}");
        }
    }

    #[test]
    fn losses_backprop_to_embeddings() {
        let (batch, mut store, emb, mut rng) = setup();
        let m = Cl4SRec::new(&mut store, &emb, 1.0, &mut rng);
        let mut g = Graph::new(&store);
        let loss = m.ssl_loss(&mut g, &store, &emb, &batch, &mut rng).unwrap();
        let grads = g.tape.backward(loss);
        assert!(!grads.sparse.is_empty());
    }

    #[test]
    fn cl4srec_augment_keeps_padding_invalid() {
        let (batch, _store, _emb, mut rng) = setup();
        for _ in 0..10 {
            let (ids, mask) = Cl4SRec::augment(&batch, &mut rng);
            let l = batch.seq_len;
            for bi in 0..batch.size {
                for p in 0..l {
                    if batch.mask[bi * l + p] == 0.0 {
                        assert_eq!(mask[bi * l + p], 0.0, "padding became valid");
                        assert_eq!(ids[bi * l + p], 0);
                    }
                }
            }
        }
    }

    #[test]
    fn single_sample_batch_returns_none() {
        let (_batch, mut store, emb, mut rng) = setup();
        let dataset = Dataset::generate(WorldConfig::tiny(), 52);
        let refs: Vec<&Sample> = dataset.train.iter().take(1).collect();
        let single = Batch::from_samples(&refs, &dataset.schema);
        let m = S3Rec::new(&mut store, &emb, 0.5, &mut rng);
        let mut g = Graph::new(&store);
        assert!(m.ssl_loss(&mut g, &store, &emb, &single, &mut rng).is_none());
    }
}
