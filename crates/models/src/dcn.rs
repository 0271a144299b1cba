//! Deep & Cross Network, both variants: DCN (Wang et al., 2017) with
//! cross *vectors* and DCN-M / DCN-V2 (Wang et al., 2021) with cross
//! *matrices*.

use crate::{CtrModel, EmbeddingLayer, ForwardOpts, ModelConfig};
use miss_autograd::Var;
use miss_data::{Batch, Schema};
use miss_nn::{dropout, init, DenseId, Graph, Linear, Mlp, ParamStore};
use miss_util::Rng;

/// Which cross-network parameterisation to use.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DcnKind {
    /// Cross vector: `x' = x0 (xᵀw) + b + x`.
    Vector,
    /// Cross matrix (DCN-M): `x' = x0 ⊙ (W x + b) + x`.
    Matrix,
}

enum CrossLayer {
    Vector { w: DenseId, b: DenseId },
    Matrix { lin: Linear },
}

/// DCN / DCN-M baseline.
pub struct Dcn {
    emb: EmbeddingLayer,
    cross: Vec<CrossLayer>,
    deep: Mlp,
    head: Linear,
    dropout: f32,
}

impl Dcn {
    /// Build the model over `store`; `kind` picks DCN vs DCN-M.
    pub fn new(
        store: &mut ParamStore,
        schema: &Schema,
        cfg: &ModelConfig,
        kind: DcnKind,
        rng: &mut Rng,
    ) -> Self {
        let d = schema.num_fields() * cfg.embed_dim;
        let tag = match kind {
            DcnKind::Vector => "dcn",
            DcnKind::Matrix => "dcnm",
        };
        let cross = (0..3)
            .map(|i| match kind {
                DcnKind::Vector => CrossLayer::Vector {
                    w: store.dense(&format!("{tag}.cross{i}.w"), d, 1, init::xavier(rng)),
                    b: store.dense(&format!("{tag}.cross{i}.b"), 1, d, init::zeros),
                },
                DcnKind::Matrix => CrossLayer::Matrix {
                    lin: Linear::new(store, &format!("{tag}.cross{i}"), d, d, rng),
                },
            })
            .collect();
        // Deep tower runs beside the cross net; a linear head combines them.
        let hidden: Vec<usize> = cfg.mlp_sizes[..cfg.mlp_sizes.len() - 1].to_vec();
        let deep = Mlp::relu_tower(store, &format!("{tag}.deep"), d, &hidden, rng);
        let head = Linear::new(store, &format!("{tag}.head"), d + deep.out_dim(), 1, rng);
        Dcn {
            emb: EmbeddingLayer::new(store, schema, cfg.embed_dim, "emb", rng),
            cross,
            deep,
            head,
            dropout: cfg.dropout,
        }
    }
}

impl CtrModel for Dcn {
    fn forward(
        &self,
        g: &mut Graph,
        store: &ParamStore,
        batch: &Batch,
        opts: &mut ForwardOpts,
    ) -> Var {
        let fields = crate::field_vectors(g, store, &self.emb, batch);
        let x0 = g.tape.concat_cols(&fields);
        let x0 = dropout(g, x0, self.dropout, opts.training, opts.rng);
        let mut x = x0;
        for layer in &self.cross {
            x = match layer {
                CrossLayer::Vector { w, b } => {
                    let wv = g.param(store, *w);
                    let s = g.tape.matmul(x, wv); // B×1
                    let scaled = g.tape.mul_col(x0, s);
                    let bv = g.param(store, *b);
                    let with_bias = g.tape.add_bias(scaled, bv);
                    g.tape.add(with_bias, x)
                }
                CrossLayer::Matrix { lin } => {
                    let wx = lin.forward(g, store, x);
                    let gated = g.tape.mul(x0, wx);
                    g.tape.add(gated, x)
                }
            };
        }
        let deep = self.deep.forward(g, store, x0);
        let both = g.tape.concat_cols(&[x, deep]);
        self.head.forward(g, store, both)
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
    fn forward_shapes_both_kinds() {
        let (dataset, batch) = tiny_batch();
        for kind in [DcnKind::Vector, DcnKind::Matrix] {
            let mut store = ParamStore::new();
            let mut rng = Rng::new(0);
            let model = Dcn::new(&mut store, &dataset.schema, &ModelConfig::default(), kind, &mut rng);
            let mut g = Graph::new(&store);
            let mut opts = ForwardOpts {
                training: false,
                rng: &mut rng,
            };
            let y = model.forward(&mut g, &store, &batch, &mut opts);
            assert_eq!(g.tape.shape(y), (batch.size, 1));
        }
    }

    #[test]
    fn dcn_learns_above_chance() {
        let auc = train_and_auc(
            |s, schema, cfg, rng| Box::new(Dcn::new(s, schema, cfg, DcnKind::Vector, rng)),
            8,
        );
        assert!(auc > 0.6, "DCN test AUC {auc}");
    }

    #[test]
    fn dcn_m_learns_above_chance() {
        let auc = train_and_auc(
            |s, schema, cfg, rng| Box::new(Dcn::new(s, schema, cfg, DcnKind::Matrix, rng)),
            8,
        );
        assert!(auc > 0.6, "DCN-M test AUC {auc}");
    }
}
