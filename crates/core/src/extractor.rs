//! Interest-representation extractors: the CNN multi-interest extractor
//! (Eq. 18–20) plus the self-attention and LSTM alternatives of Table VIII.

use crate::config::ExtractorKind;
use miss_autograd::{ConvTap, Var};
use miss_data::Batch;
use miss_nn::{init, DenseId, Graph, Linear, LstmCell, ParamStore};
use miss_tensor::Tensor;
use miss_util::Rng;

/// The interest representations extracted from one batch: one map per kernel
/// branch. For the CNN extractor, branch `m` (width `m+1` positions … i.e.
/// kernel width `m_idx+1`) yields `width = L − m + 1` positions; SA/LSTM
/// yield a single branch of width `L`.
pub struct InterestMaps {
    /// One entry per kernel branch.
    pub maps: Vec<InterestMap>,
    /// Batch size used to index rows.
    pub batch: usize,
}

/// The representations produced by one kernel branch.
pub struct InterestMap {
    /// Number of positions `W` in this map.
    pub width: usize,
    /// Kernel width `m` that produced it (1 for SA/LSTM).
    pub kernel_width: usize,
    /// One `(B·W)×K` matrix per sequential field `j`.
    pub per_field: Vec<Var>,
}

/// Extractor network owning the kernel/projection parameters.
pub struct Extractor {
    kind: ExtractorKind,
    /// CNN: `h_kernels[m-1]` holds the `m` scalar weights of `g_m ∈ R^{1×m×1}`.
    h_kernels: Vec<Vec<DenseId>>,
    sa: Option<(Linear, Linear, Linear)>,
    lstm: Option<LstmCell>,
}

impl Extractor {
    /// Create the extractor's parameters. `m_branches` is the paper's `M`;
    /// `k` the embedding dimension.
    pub fn new(
        store: &mut ParamStore,
        kind: ExtractorKind,
        m_branches: usize,
        k: usize,
        rng: &mut Rng,
    ) -> Self {
        let mut h_kernels = Vec::new();
        if kind == ExtractorKind::Cnn {
            for m in 1..=m_branches {
                // Initialise near average pooling so early interest
                // representations are meaningful aggregates.
                let scalars = (0..m)
                    .map(|i| {
                        let base = 1.0 / m as f32;
                        store.dense(
                            &format!("miss.gh{m}.{i}"),
                            1,
                            1,
                            init::constant(base + 0.05 * ((i % 3) as f32 - 1.0)),
                        )
                    })
                    .collect();
                h_kernels.push(scalars);
            }
        }
        let sa = (kind == ExtractorKind::SelfAttention).then(|| {
            (
                Linear::new(store, "miss.sa.q", k, k, rng),
                Linear::new(store, "miss.sa.k", k, k, rng),
                Linear::new(store, "miss.sa.v", k, k, rng),
            )
        });
        let lstm =
            (kind == ExtractorKind::Lstm).then(|| LstmCell::new(store, "miss.lstm", k, k, rng));
        Extractor {
            kind,
            h_kernels,
            sa,
            lstm,
        }
    }

    /// Extract interest maps from the per-field sequence embeddings
    /// (`seq_embs[j]` is `(B·L)×K`, padded rows already zeroed).
    pub fn extract(
        &self,
        g: &mut Graph,
        store: &ParamStore,
        seq_embs: &[Var],
        batch: &Batch,
    ) -> InterestMaps {
        let maps = match self.kind {
            ExtractorKind::Cnn => self.extract_cnn(g, store, seq_embs, batch),
            ExtractorKind::SelfAttention => self.extract_sa(g, store, seq_embs, batch),
            ExtractorKind::Lstm => self.extract_lstm(g, store, seq_embs, batch),
        };
        InterestMaps {
            maps,
            batch: batch.size,
        }
    }

    /// Eq. 19–20: horizontal convolution `G_m^{j,l,k} = ReLU(C^{j,l:l+m-1,k} ∘ g_m)`,
    /// one fused tape node per `(branch, field)`: tap `i` of `g_m` reads
    /// each user's history `i` positions on.
    fn extract_cnn(
        &self,
        g: &mut Graph,
        store: &ParamStore,
        seq_embs: &[Var],
        batch: &Batch,
    ) -> Vec<InterestMap> {
        let b = batch.size;
        let l = batch.seq_len;
        let mut maps = Vec::with_capacity(self.h_kernels.len());
        for (mi, scalars) in self.h_kernels.iter().enumerate() {
            let m = mi + 1;
            if m > l {
                break;
            }
            let w = l - m + 1;
            let per_field = seq_embs
                .iter()
                .map(|&seq| {
                    let taps: Vec<ConvTap> = scalars
                        .iter()
                        .enumerate()
                        .map(|(shift, &wid)| ConvTap {
                            x: seq,
                            shift,
                            w: g.param(store, wid),
                        })
                        .collect();
                    g.tape.scalar_conv_relu(&taps, b, w)
                })
                .collect();
            maps.push(InterestMap {
                width: w,
                kernel_width: m,
                per_field,
            });
        }
        maps
    }

    /// Table VIII alternative: per-position self-attention outputs.
    #[expect(
        clippy::expect_used,
        clippy::indexing_slicing,
        reason = "the SA projections exist whenever the extractor kind dispatches here, and mask holds b * l entries"
    )]
    fn extract_sa(
        &self,
        g: &mut Graph,
        store: &ParamStore,
        seq_embs: &[Var],
        batch: &Batch,
    ) -> Vec<InterestMap> {
        let (wq, wk, wv) = self.sa.as_ref().expect("SA extractor");
        let b = batch.size;
        let l = batch.seq_len;
        // Mask out padded key positions in every block.
        let key_mask = {
            let mut t = Tensor::zeros(b * l, l);
            for bi in 0..b {
                for row in 0..l {
                    for col in 0..l {
                        if batch.mask[bi * l + col] == 0.0 {
                            t.set(bi * l + row, col, -1e9);
                        }
                    }
                }
            }
            t
        };
        let per_field = seq_embs
            .iter()
            .map(|&seq| {
                let q = wq.forward(g, store, seq);
                let k = wk.forward(g, store, seq);
                let v = wv.forward(g, store, seq);
                let (_, kdim) = g.tape.shape(q);
                let scores = g.tape.bmm_nt(q, k, b);
                let scaled = g.tape.scale(scores, 1.0 / (kdim as f32).sqrt());
                let km = g.input(key_mask.clone());
                let masked = g.tape.add(scaled, km);
                let att = g.tape.softmax_rows(masked);
                g.tape.bmm_nn(att, v, b)
            })
            .collect();
        vec![InterestMap {
            width: l,
            kernel_width: 1,
            per_field,
        }]
    }

    /// Table VIII alternative: LSTM hidden state at every position.
    #[expect(
        clippy::expect_used,
        clippy::indexing_slicing,
        reason = "the LSTM cell exists whenever the extractor kind dispatches here, and mask holds b * l entries"
    )]
    fn extract_lstm(
        &self,
        g: &mut Graph,
        store: &ParamStore,
        seq_embs: &[Var],
        batch: &Batch,
    ) -> Vec<InterestMap> {
        let cell = self.lstm.as_ref().expect("LSTM extractor");
        let b = batch.size;
        let l = batch.seq_len;
        let k = cell.hidden();
        let per_field = seq_embs
            .iter()
            .map(|&seq| {
                let mut h = g.input(Tensor::zeros(b, k));
                let mut c = g.input(Tensor::zeros(b, k));
                let mut states = Vec::with_capacity(l);
                for t in 0..l {
                    let idx: Vec<usize> = (0..b).map(|i| i * l + t).collect();
                    let x_t = g.tape.gather_rows(seq, idx);
                    let (hn, cn) = cell.step(g, store, x_t, h, c);
                    // Freeze the state across padded positions.
                    let m = g.input(Tensor::from_vec(
                        b,
                        1,
                        (0..b).map(|i| batch.mask[i * l + t]).collect(),
                    ));
                    let inv = {
                        let neg = g.tape.scale(m, -1.0);
                        g.tape.add_scalar(neg, 1.0)
                    };
                    let hm = g.tape.mul_col(hn, m);
                    let ho = g.tape.mul_col(h, inv);
                    h = g.tape.add(hm, ho);
                    let cm = g.tape.mul_col(cn, m);
                    let co = g.tape.mul_col(c, inv);
                    c = g.tape.add(cm, co);
                    states.push(h);
                }
                // Stack l-major then reorder to sample-major (b·L + l).
                let stacked = g.tape.concat_rows(&states); // (L·B)×K
                let mut idx = Vec::with_capacity(b * l);
                for bi in 0..b {
                    for t in 0..l {
                        idx.push(t * b + bi);
                    }
                }
                g.tape.gather_rows(stacked, idx)
            })
            .collect();
        vec![InterestMap {
            width: l,
            kernel_width: 1,
            per_field,
        }]
    }
}

/// Eq. 22–23: vertical convolution over the field axis of one interest map,
/// producing `J−n+1` feature-enhanced maps, one fused tape node each.
/// `scalars` are the `n` taps of `ĝ_{m,n}`.
#[expect(
    clippy::indexing_slicing,
    reason = "1 <= n <= j is asserted, so j0 + i < j"
)]
pub(crate) fn vertical_conv(
    g: &mut Graph,
    store: &ParamStore,
    map: &InterestMap,
    scalars: &[DenseId],
) -> Vec<Var> {
    let j = map.per_field.len();
    let n = scalars.len();
    assert!(n >= 1 && n <= j, "vertical kernel taller than field count");
    // Every tap reads the same row of its field, so the whole `(B·W)×K`
    // map is one block.
    let rows = g.tape.shape(map.per_field[0]).0;
    (0..=(j - n))
        .map(|j0| {
            let taps: Vec<ConvTap> = scalars
                .iter()
                .enumerate()
                .map(|(i, &wid)| ConvTap {
                    x: map.per_field[j0 + i],
                    shift: 0,
                    w: g.param(store, wid),
                })
                .collect();
            g.tape.scalar_conv_relu(&taps, 1, rows)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use miss_data::{Batch, Dataset, Sample, WorldConfig};
    use miss_models::EmbeddingLayer;

    fn setup() -> (Dataset, Batch, ParamStore, EmbeddingLayer) {
        let dataset = Dataset::generate(WorldConfig::tiny(), 21);
        let refs: Vec<&Sample> = dataset.train.iter().take(5).collect();
        let batch = Batch::from_samples(&refs, &dataset.schema);
        let mut store = ParamStore::new();
        let mut rng = Rng::new(3);
        let emb = EmbeddingLayer::new(&mut store, &dataset.schema, 10, "emb", &mut rng);
        (dataset, batch, store, emb)
    }

    fn seq_embs(
        g: &mut Graph,
        store: &ParamStore,
        emb: &EmbeddingLayer,
        batch: &Batch,
    ) -> Vec<Var> {
        (0..emb.schema().num_seq())
            .map(|j| emb.embed_seq_field(g, store, batch, j))
            .collect()
    }

    #[test]
    fn cnn_map_shapes_match_eq20() {
        let (_d, batch, mut store, emb) = setup();
        let mut rng = Rng::new(5);
        let ex = Extractor::new(&mut store, ExtractorKind::Cnn, 3, 10, &mut rng);
        let mut g = Graph::new(&store);
        let se = seq_embs(&mut g, &store, &emb, &batch);
        let maps = ex.extract(&mut g, &store, &se, &batch);
        assert_eq!(maps.maps.len(), 3);
        let l = batch.seq_len;
        // |T| = Σ_m (L - m + 1)
        let total: usize = maps.maps.iter().map(|m| m.width).sum();
        assert_eq!(total, (l) + (l - 1) + (l - 2));
        for (mi, map) in maps.maps.iter().enumerate() {
            assert_eq!(map.width, l - mi);
            assert_eq!(map.per_field.len(), 2);
            for &f in &map.per_field {
                assert_eq!(g.tape.shape(f), (batch.size * map.width, 10));
            }
        }
    }

    #[test]
    fn cnn_outputs_are_nonnegative_relu() {
        let (_d, batch, mut store, emb) = setup();
        let mut rng = Rng::new(6);
        let ex = Extractor::new(&mut store, ExtractorKind::Cnn, 2, 10, &mut rng);
        let mut g = Graph::new(&store);
        let se = seq_embs(&mut g, &store, &emb, &batch);
        let maps = ex.extract(&mut g, &store, &se, &batch);
        for map in &maps.maps {
            for &f in &map.per_field {
                assert!(g.tape.value(f).as_slice().iter().all(|&v| v >= 0.0));
            }
        }
    }

    #[test]
    fn sa_and_lstm_have_single_full_width_map() {
        for kind in [ExtractorKind::SelfAttention, ExtractorKind::Lstm] {
            let (_d, batch, mut store, emb) = setup();
            let mut rng = Rng::new(7);
            let ex = Extractor::new(&mut store, kind, 3, 10, &mut rng);
            let mut g = Graph::new(&store);
            let se = seq_embs(&mut g, &store, &emb, &batch);
            let maps = ex.extract(&mut g, &store, &se, &batch);
            assert_eq!(maps.maps.len(), 1);
            assert_eq!(maps.maps[0].width, batch.seq_len);
            for &f in &maps.maps[0].per_field {
                assert_eq!(g.tape.shape(f), (batch.size * batch.seq_len, 10));
                assert!(!g.tape.value(f).has_non_finite());
            }
        }
    }

    #[test]
    fn vertical_conv_field_counts_match_eq23() {
        let (_d, batch, mut store, emb) = setup();
        let mut rng = Rng::new(8);
        let ex = Extractor::new(&mut store, ExtractorKind::Cnn, 2, 10, &mut rng);
        let s1 = store.dense("vtest.1", 1, 1, init::constant(0.7));
        let s2 = store.dense("vtest.2", 1, 1, init::constant(0.4));
        let mut g = Graph::new(&store);
        let se = seq_embs(&mut g, &store, &emb, &batch);
        let maps = ex.extract(&mut g, &store, &se, &batch);
        // J = 2: n = 1 → 2 outputs; n = 2 → 1 output (Ω = Σ (J−n+1) = 3).
        let n1 = vertical_conv(&mut g, &store, &maps.maps[0], &[s1]);
        assert_eq!(n1.len(), 2);
        let n2 = vertical_conv(&mut g, &store, &maps.maps[0], &[s1, s2]);
        assert_eq!(n2.len(), 1);
    }

    #[test]
    fn cnn_gradients_flow_to_kernels_and_embeddings() {
        let (_d, batch, mut store, emb) = setup();
        let mut rng = Rng::new(9);
        let ex = Extractor::new(&mut store, ExtractorKind::Cnn, 2, 10, &mut rng);
        let mut g = Graph::new(&store);
        let se = seq_embs(&mut g, &store, &emb, &batch);
        let maps = ex.extract(&mut g, &store, &se, &batch);
        let f = maps.maps[1].per_field[0];
        let loss = g.tape.sum_all(f);
        let grads = g.tape.backward(loss);
        assert!(
            !grads.sparse.is_empty(),
            "embedding tables must receive sparse gradients through the conv"
        );
        let touched = g
            .dense_bindings()
            .iter()
            .filter(|&&(_, var)| grads.get(var).is_some())
            .count();
        assert!(touched >= 2, "kernel scalars must receive gradients");
    }
}
