//! Factorisation Machine (Rendle, 2010): linear part plus second-order
//! interactions via the `½[(Σv)² − Σv²]` identity over field vectors.

use crate::{CtrModel, EmbeddingLayer, ForwardOpts, ModelConfig};
use miss_autograd::Var;
use miss_data::{Batch, Schema};
use miss_nn::{init, DenseId, Graph, ParamStore};
use miss_util::Rng;

/// FM baseline.
pub struct Fm {
    weights: EmbeddingLayer, // order-1 (dim 1)
    emb: EmbeddingLayer,     // order-2 factors (dim K)
    bias: DenseId,
}

impl Fm {
    /// Build the model over `store`.
    pub fn new(store: &mut ParamStore, schema: &Schema, cfg: &ModelConfig, rng: &mut Rng) -> Self {
        Fm {
            weights: EmbeddingLayer::new(store, schema, 1, "lr", rng),
            emb: EmbeddingLayer::new(store, schema, cfg.embed_dim, "emb", rng),
            bias: store.dense("lr.bias", 1, 1, init::zeros),
        }
    }

    /// The second-order FM term over field vectors (shared with DeepFM).
    pub(crate) fn second_order(g: &mut Graph, fields: &[Var]) -> Var {
        let mut sum = fields[0];
        for f in &fields[1..] {
            sum = g.tape.add(sum, *f);
        }
        let sum_sq = g.tape.mul(sum, sum);
        let mut sq_sum = g.tape.mul(fields[0], fields[0]);
        for f in &fields[1..] {
            let sq = g.tape.mul(*f, *f);
            sq_sum = g.tape.add(sq_sum, sq);
        }
        let diff = g.tape.sub(sum_sq, sq_sum);
        let rs = g.tape.row_sum(diff);
        g.tape.scale(rs, 0.5)
    }

    /// The first-order (linear) term plus bias (shared with DeepFM/xDeepFM).
    pub(crate) fn first_order(
        &self,
        g: &mut Graph,
        store: &ParamStore,
        batch: &Batch,
    ) -> Var {
        let ws = crate::field_vectors(g, store, &self.weights, batch);
        let mut logit = ws[0];
        for w in &ws[1..] {
            logit = g.tape.add(logit, *w);
        }
        let b = g.param(store, self.bias);
        let bt = g.tape.tile_rows(b, batch.size);
        g.tape.add(logit, bt)
    }
}

impl CtrModel for Fm {
    fn forward(
        &self,
        g: &mut Graph,
        store: &ParamStore,
        batch: &Batch,
        _opts: &mut ForwardOpts,
    ) -> Var {
        let linear = self.first_order(g, store, batch);
        let fields = crate::field_vectors(g, store, &self.emb, batch);
        let second = Self::second_order(g, &fields);
        g.tape.add(linear, second)
    }

    fn embedding(&self) -> &EmbeddingLayer {
        &self.emb
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{tiny_batch, train_and_auc};
    use miss_tensor::Tensor;

    #[test]
    fn second_order_matches_pairwise_sum() {
        // ½[(Σv)² − Σv²] summed over dims must equal Σ_{i<j} <v_i, v_j>.
        let store = ParamStore::new();
        let mut g = Graph::new(&store);
        let a = g.input(Tensor::from_vec(1, 3, vec![1.0, 2.0, -1.0]));
        let b = g.input(Tensor::from_vec(1, 3, vec![0.5, -1.0, 2.0]));
        let c = g.input(Tensor::from_vec(1, 3, vec![1.5, 0.0, 1.0]));
        let out = Fm::second_order(&mut g, &[a, b, c]);
        let dot = |x: &[f32], y: &[f32]| -> f32 { x.iter().zip(y).map(|(a, b)| a * b).sum() };
        let va = [1.0, 2.0, -1.0];
        let vb = [0.5, -1.0, 2.0];
        let vc = [1.5, 0.0, 1.0];
        let expect = dot(&va, &vb) + dot(&va, &vc) + dot(&vb, &vc);
        assert!((g.tape.value(out).item() - expect).abs() < 1e-5);
    }

    #[test]
    fn forward_shape() {
        let (dataset, batch) = tiny_batch();
        let mut store = ParamStore::new();
        let mut rng = Rng::new(0);
        let model = Fm::new(&mut store, &dataset.schema, &ModelConfig::default(), &mut rng);
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
            |s, schema, cfg, rng| Box::new(Fm::new(s, schema, cfg, rng)),
            8,
        );
        assert!(auc > 0.58, "FM test AUC {auc}");
    }
}
