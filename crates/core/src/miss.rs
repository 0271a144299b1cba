//! The MISS module: extractors + augmentation + encoders + InfoNCE losses,
//! assembled per Eq. 9–17.

use crate::augment::PairSelector;
use crate::config::{EncoderKind, MissConfig};
use crate::extractor::{vertical_conv, Extractor, InterestMaps};
use crate::ssl_baselines::SslMethod;
use miss_autograd::Var;
use miss_data::Batch;
use miss_nn::{dropout, init, DenseId, Graph, Mlp, ParamStore, TransformerBlock};
use miss_models::EmbeddingLayer;
use miss_util::Rng;

/// The multi-interest self-supervised learning component. Created over the
/// same [`ParamStore`] as the base model so the embedding tables are shared
/// and jointly trained (Eq. 17).
pub struct Miss {
    /// Hyper-parameters and variant switches.
    pub cfg: MissConfig,
    extractor: Extractor,
    /// `v_kernels[m-1][n-1]`: the `n` scalar taps of `ĝ_{m,n}`.
    v_kernels: Vec<Vec<Vec<DenseId>>>,
    enc_i: Mlp,
    enc_if: Mlp,
    /// Present when `cfg.encoder == EncoderKind::Transformer`: mixes the J
    /// field tokens of a view before the MLP head.
    enc_i_transformer: Option<TransformerBlock>,
    selector: PairSelector,
}

impl Miss {
    /// Build the MISS component for a base model's embedding layer.
    pub fn new(
        store: &mut ParamStore,
        emb: &EmbeddingLayer,
        cfg: MissConfig,
        rng: &mut Rng,
    ) -> Self {
        let k = emb.dim;
        let j = emb.schema().num_seq();
        let extractor = Extractor::new(store, cfg.extractor, cfg.m, k, rng);
        let mut v_kernels = Vec::new();
        for m in 1..=cfg.m {
            let mut per_n = Vec::new();
            for n in 1..=cfg.n.min(j) {
                let scalars = (0..n)
                    .map(|i| {
                        store.dense(
                            &format!("miss.gv{m}.{n}.{i}"),
                            1,
                            1,
                            init::constant(1.0 / n as f32 + 0.05 * (i as f32)),
                        )
                    })
                    .collect();
                per_n.push(scalars);
            }
            v_kernels.push(per_n);
        }
        let enc_i = Mlp::relu_tower(store, "miss.enc_i", j * k, &cfg.enc_i_sizes, rng);
        let enc_if = Mlp::relu_tower(store, "miss.enc_if", k, &cfg.enc_if_sizes, rng);
        let enc_i_transformer = (cfg.encoder == EncoderKind::Transformer)
            .then(|| TransformerBlock::new(store, "miss.enc_i_tf", k, rng));
        let selector = PairSelector {
            h: cfg.h,
            law: cfg.distance_law,
        };
        Miss {
            cfg,
            extractor,
            v_kernels,
            enc_i,
            enc_if,
            enc_i_transformer,
            selector,
        }
    }

    /// Embed every sequential field for this batch (`(B·L)×K` each).
    fn seq_embs(
        &self,
        g: &mut Graph,
        store: &ParamStore,
        emb: &EmbeddingLayer,
        batch: &Batch,
    ) -> Vec<Var> {
        (0..emb.schema().num_seq())
            .map(|jj| emb.embed_seq_field(g, store, batch, jj))
            .collect()
    }

    /// Gather one interest view across all fields and flatten to `B×(J·K)`
    /// (the `Flat` of Eq. 20).
    #[expect(
        clippy::indexing_slicing,
        reason = "map is a PairDraw index drawn below maps.len()"
    )]
    fn gather_view(&self, g: &mut Graph, maps: &InterestMaps, map: usize, idx: &[usize]) -> Var {
        let parts: Vec<Var> = maps.maps[map]
            .per_field
            .iter()
            .map(|&f| g.tape.gather_rows(f, idx.to_vec()))
            .collect();
        g.tape.concat_cols(&parts)
    }

    /// `Enc^i` (Eq. 13): optionally a Transformer block over the J field
    /// tokens of the view, then the MLP head.
    fn encode_i(&self, g: &mut Graph, store: &ParamStore, view: Var) -> Var {
        match &self.enc_i_transformer {
            Some(block) => {
                let (b, jk) = g.tape.shape(view);
                let k = block.dim();
                debug_assert_eq!(jk % k, 0);
                let j = jk / k;
                let tokens = g.tape.reshape(view, b * j, k);
                let mixed = block.forward(g, store, tokens, b);
                let flat = g.tape.reshape(mixed, b, jk);
                self.enc_i.forward(g, store, flat)
            }
            None => self.enc_i.forward(g, store, view),
        }
    }

    /// The two SSL losses of Eq. 15 and Eq. 16 (unweighted):
    /// `(L_ssl, L_ssl')`. Either may be absent depending on the variant.
    #[expect(
        clippy::indexing_slicing,
        reason = "mi and ni are drawn below their slice lengths, and draw_feature returns field indices below outputs.len()"
    )]
    pub fn ssl_losses(
        &self,
        g: &mut Graph,
        store: &ParamStore,
        emb: &EmbeddingLayer,
        batch: &Batch,
        rng: &mut Rng,
    ) -> (Option<Var>, Option<Var>) {
        if batch.size < 2 {
            // InfoNCE needs in-batch negatives.
            return (None, None);
        }
        let seq = self.seq_embs(g, store, emb, batch);

        if !self.cfg.interest_level {
            // The /M ablation: sample-level augmentation (Eq. 8) — two
            // dropout views of the whole-sequence representation.
            let pooled: Vec<Var> = seq
                .iter()
                .map(|&s| miss_models::mean_pool(g, s, batch))
                .collect();
            let rep = g.tape.concat_cols(&pooled); // B×(J·K)
            let v1 = dropout(g, rep, 0.2, true, rng);
            let v2 = dropout(g, rep, 0.2, true, rng);
            let z1 = self.encode_i(g, store, v1);
            let z2 = self.encode_i(g, store, v2);
            let loss = g.tape.info_nce(z1, z2, self.cfg.tau);
            return (Some(loss), None);
        }

        let maps = self.extractor.extract(g, store, &seq, batch);
        if maps.maps.is_empty() {
            return (None, None);
        }

        // Interest-level loss (Eq. 15), averaged over P draws.
        let mut li: Option<Var> = None;
        for _ in 0..self.cfg.p {
            let draw = self.selector.draw_interest(&maps, batch, rng);
            let h1 = self.gather_view(g, &maps, draw.map, &draw.idx1);
            let h2 = self.gather_view(g, &maps, draw.map, &draw.idx2);
            let z1 = self.encode_i(g, store, h1);
            let z2 = self.encode_i(g, store, h2);
            let l = g.tape.info_nce(z1, z2, self.cfg.tau);
            li = Some(match li {
                Some(acc) => g.tape.add(acc, l),
                None => l,
            });
        }
        let li = li.map(|l| g.tape.scale(l, 1.0 / self.cfg.p as f32));

        // Feature-level loss (Eq. 16), averaged over Q draws.
        let mut lif: Option<Var> = None;
        if self.cfg.n > 0 && self.cfg.alpha2 > 0.0 {
            for _ in 0..self.cfg.q {
                let mi = rng.below(maps.maps.len());
                let per_n = &self.v_kernels[mi.min(self.v_kernels.len() - 1)];
                if per_n.is_empty() {
                    continue;
                }
                let ni = rng.below(per_n.len());
                let outputs = vertical_conv(g, store, &maps.maps[mi], &per_n[ni]);
                let (j1, j2, idx) =
                    self.selector
                        .draw_feature(&maps.maps[mi], outputs.len(), batch, rng);
                let v1 = g.tape.gather_rows(outputs[j1], idx.clone());
                let v2 = g.tape.gather_rows(outputs[j2], idx);
                let z1 = self.enc_if.forward(g, store, v1);
                let z2 = self.enc_if.forward(g, store, v2);
                let l = g.tape.info_nce(z1, z2, self.cfg.tau);
                lif = Some(match lif {
                    Some(acc) => g.tape.add(acc, l),
                    None => l,
                });
            }
            lif = lif.map(|l| g.tape.scale(l, 1.0 / self.cfg.q as f32));
        }

        (li, lif)
    }

    /// Figure 5's probe: the mean cosine similarity between the raw view
    /// pairs generated by the current extractor on this batch (no gradient).
    pub fn probe_similarity(
        &self,
        g: &mut Graph,
        store: &ParamStore,
        emb: &EmbeddingLayer,
        batch: &Batch,
        rng: &mut Rng,
    ) -> f64 {
        let seq = self.seq_embs(g, store, emb, batch);
        let maps = self.extractor.extract(g, store, &seq, batch);
        if maps.maps.is_empty() {
            return 1.0;
        }
        let mut total = 0.0f64;
        let mut count = 0usize;
        for _ in 0..self.cfg.p.max(1) {
            let draw = self.selector.draw_interest(&maps, batch, rng);
            let v1 = self.gather_view(g, &maps, draw.map, &draw.idx1);
            let v2 = self.gather_view(g, &maps, draw.map, &draw.idx2);
            let a = g.tape.value(v1);
            let b = g.tape.value(v2);
            for s in 0..batch.size {
                let ra = a.row(s);
                let rb = b.row(s);
                let dot: f32 = ra.iter().zip(rb).map(|(&x, &y)| x * y).sum();
                let na: f32 = ra.iter().map(|&x| x * x).sum::<f32>().sqrt();
                let nb: f32 = rb.iter().map(|&x| x * x).sum::<f32>().sqrt();
                if na > 1e-6 && nb > 1e-6 {
                    total += (dot / (na * nb)) as f64;
                    count += 1;
                }
            }
        }
        if count == 0 {
            1.0
        } else {
            total / count as f64
        }
    }
}

impl SslMethod for Miss {
    fn ssl_loss(
        &self,
        g: &mut Graph,
        store: &ParamStore,
        emb: &EmbeddingLayer,
        batch: &Batch,
        rng: &mut Rng,
    ) -> Option<Var> {
        let (li, lif) = self.ssl_losses(g, store, emb, batch, rng);
        let mut total: Option<Var> = None;
        if let Some(l) = li {
            let w = g.tape.scale(l, self.cfg.alpha1);
            total = Some(w);
        }
        if let Some(l) = lif {
            let w = g.tape.scale(l, self.cfg.alpha2);
            total = Some(match total {
                Some(t) => g.tape.add(t, w),
                None => w,
            });
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ExtractorKind, MissVariant};
    use miss_data::{Batch, Dataset, Sample, WorldConfig};

    fn setup(
        cfg: MissConfig,
    ) -> (Batch, ParamStore, EmbeddingLayer, Miss, Rng) {
        let dataset = Dataset::generate(WorldConfig::tiny(), 41);
        let refs: Vec<&Sample> = dataset.train.iter().take(12).collect();
        let batch = Batch::from_samples(&refs, &dataset.schema);
        let mut store = ParamStore::new();
        let mut rng = Rng::new(13);
        let emb = EmbeddingLayer::new(&mut store, &dataset.schema, 10, "emb", &mut rng);
        let miss = Miss::new(&mut store, &emb, cfg, &mut rng);
        (batch, store, emb, miss, rng)
    }

    #[test]
    fn full_miss_produces_both_losses() {
        let (batch, store, emb, miss, mut rng) = setup(MissConfig::default());
        let mut g = Graph::new(&store);
        let (li, lif) = miss.ssl_losses(&mut g, &store, &emb, &batch, &mut rng);
        let li = li.expect("interest loss");
        let lif = lif.expect("feature loss");
        let a = g.tape.value(li).item();
        let b = g.tape.value(lif).item();
        assert!(a.is_finite() && a > 0.0, "L_ssl = {a}");
        assert!(b.is_finite() && b > 0.0, "L_ssl' = {b}");
    }

    #[test]
    fn no_f_variant_has_no_feature_loss() {
        let (batch, store, emb, miss, mut rng) = setup(MissConfig::variant(MissVariant::NoF));
        let mut g = Graph::new(&store);
        let (li, lif) = miss.ssl_losses(&mut g, &store, &emb, &batch, &mut rng);
        assert!(li.is_some());
        assert!(lif.is_none());
    }

    #[test]
    fn sample_level_variant_still_produces_a_loss() {
        let (batch, store, emb, miss, mut rng) = setup(MissConfig::variant(MissVariant::NoMFUL));
        let mut g = Graph::new(&store);
        let (li, lif) = miss.ssl_losses(&mut g, &store, &emb, &batch, &mut rng);
        assert!(li.is_some(), "sample-level loss present");
        assert!(lif.is_none());
    }

    #[test]
    fn ssl_loss_backprops_into_embeddings() {
        let (batch, store, emb, miss, mut rng) = setup(MissConfig::default());
        let mut g = Graph::new(&store);
        let loss = miss
            .ssl_loss(&mut g, &store, &emb, &batch, &mut rng)
            .expect("loss");
        let grads = g.tape.backward(loss);
        assert!(
            !grads.sparse.is_empty(),
            "SSL loss must reach the embedding tables"
        );
    }

    #[test]
    fn tiny_batch_yields_no_loss() {
        let (_batch, store, emb, miss, mut rng) = setup(MissConfig::default());
        let dataset = Dataset::generate(WorldConfig::tiny(), 42);
        let refs: Vec<&Sample> = dataset.train.iter().take(1).collect();
        let single = Batch::from_samples(&refs, &dataset.schema);
        let mut g = Graph::new(&store);
        let (li, lif) = miss.ssl_losses(&mut g, &store, &emb, &single, &mut rng);
        assert!(li.is_none() && lif.is_none(), "no negatives, no loss");
    }

    #[test]
    fn probe_similarity_in_range_and_below_one_for_cnn() {
        let (batch, store, emb, miss, mut rng) = setup(MissConfig::default());
        let mut g = Graph::new(&store);
        let sim = miss.probe_similarity(&mut g, &store, &emb, &batch, &mut rng);
        assert!((-1.0..=1.0).contains(&sim), "cosine out of range: {sim}");
        assert!(sim < 0.999, "CNN views should be distinguishable: {sim}");
    }

    #[test]
    fn transformer_encoder_produces_loss_and_gradients() {
        let cfg = MissConfig {
            encoder: crate::EncoderKind::Transformer,
            ..MissConfig::default()
        };
        let (batch, store, emb, miss, mut rng) = setup(cfg);
        let mut g = Graph::new(&store);
        let loss = miss
            .ssl_loss(&mut g, &store, &emb, &batch, &mut rng)
            .expect("loss");
        assert!(g.tape.value(loss).item().is_finite());
        let grads = g.tape.backward(loss);
        // the transformer projections must receive gradients
        let touched = g
            .dense_bindings()
            .iter()
            .filter(|&&(_, var)| grads.get(var).is_some())
            .count();
        assert!(touched > 10, "only {touched} dense params touched");
    }

    #[test]
    fn gaussian_distance_law_produces_loss() {
        let cfg = MissConfig {
            distance_law: crate::DistanceLaw::Gaussian { sigma: 1.5 },
            ..MissConfig::default()
        };
        let (batch, store, emb, miss, mut rng) = setup(cfg);
        let mut g = Graph::new(&store);
        let (li, _) = miss.ssl_losses(&mut g, &store, &emb, &batch, &mut rng);
        assert!(li.is_some());
    }

    #[test]
    fn extractor_variants_produce_losses() {
        for kind in [ExtractorKind::SelfAttention, ExtractorKind::Lstm] {
            let (batch, store, emb, miss, mut rng) = setup(MissConfig::with_extractor(kind));
            let mut g = Graph::new(&store);
            let (li, _) = miss.ssl_losses(&mut g, &store, &emb, &batch, &mut rng);
            let li = li.expect("interest loss");
            assert!(g.tape.value(li).item().is_finite());
        }
    }
}
