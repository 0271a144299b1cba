//! The freeze step: compile a trained [`ParamStore`] into an
//! inference-optimized [`FrozenModel`].
//!
//! Freezing trades the training stack's generality for serving speed while
//! keeping the *bits* of every score:
//!
//! - **No tape.** The frozen forward calls the same `miss_tensor` methods
//!   the autograd ops delegate to, in the same order, so scores are bitwise
//!   identical to the training-graph forward — there is simply no gradient
//!   bookkeeping around them.
//! - **Pre-packed GEMM panels.** Every `Linear` weight is packed once at
//!   freeze time into the kernel's panel layout ([`PackedB`]); requests
//!   multiply against the packed panels directly and skip the per-call
//!   `pack_b_from_nn` the training path pays on every forward.
//! - **Fused epilogues.** Bias and activation ride in the GEMM accumulator
//!   store tail ([`GemmEpilogue`]), exactly as `tape.linear` fuses them.
//!
//! Freezing reads parameters *by name* from the store's views, so a store
//! that also carries MISS SSL parameters (a `--miss` checkpoint) freezes
//! fine — the extra parameters are ignored. A missing or mis-shaped
//! parameter is a typed [`MissError`], never a panic: checkpoints are
//! untrusted input (DESIGN.md §8).

use miss_data::Schema;
use miss_nn::ParamStore;
use miss_tensor::{GemmEpilogue, PackedB, Tensor};
use miss_util::{MissError, MissResult};

/// Fused activation of a frozen layer; mirrors the training stack's
/// `LinearAct` (tanh/PReLU layers never reach the frozen architectures).
#[derive(Clone, Copy, Debug)]
pub(crate) enum FrozenAct {
    /// Bias only.
    Identity,
    /// Bias + ReLU.
    Relu,
}

/// An affine layer compiled for inference: pre-packed weight panels, a
/// contiguous bias row, and the fused activation.
pub(crate) struct FrozenLinear {
    w: PackedB,
    bias: Vec<f32>,
    act: FrozenAct,
}

impl FrozenLinear {
    fn freeze(p: &Params<'_>, name: &str, act: FrozenAct) -> MissResult<FrozenLinear> {
        let w = p.dense(&format!("{name}.w"))?;
        let b = p.dense(&format!("{name}.b"))?;
        if b.shape() != (1, w.cols()) {
            return Err(MissError::ShapeMismatch {
                context: format!("frozen linear {name} bias"),
                expected: (1, w.cols()),
                got: b.shape(),
            });
        }
        Ok(FrozenLinear {
            w: PackedB::pack(w),
            bias: b.as_slice().to_vec(),
            act,
        })
    }

    /// One GEMM against the pre-packed panels with the fused epilogue —
    /// the same kernel call `tape.linear` makes, minus the pack.
    pub(crate) fn forward(&self, x: &Tensor) -> Tensor {
        let ep = match self.act {
            FrozenAct::Identity => GemmEpilogue::AddBias(&self.bias),
            FrozenAct::Relu => GemmEpilogue::AddBiasRelu(&self.bias),
        };
        x.matmul_nn_ep_prepacked(&self.w, ep)
    }
}

/// A frozen `relu_tower` MLP: ReLU hidden layers, linear output — the only
/// MLP shape the frozen architectures use.
pub(crate) struct FrozenMlp {
    layers: Vec<FrozenLinear>,
}

impl FrozenMlp {
    fn freeze(p: &Params<'_>, name: &str) -> MissResult<FrozenMlp> {
        let mut n = 0;
        while p.has_dense(&format!("{name}.l{n}.w")) {
            n += 1;
        }
        if n == 0 {
            return Err(MissError::UnknownParam {
                kind: "dense param",
                name: format!("{name}.l0.w"),
            });
        }
        let layers = (0..n)
            .map(|i| {
                let act = if i + 1 == n { FrozenAct::Identity } else { FrozenAct::Relu };
                FrozenLinear::freeze(p, &format!("{name}.l{i}"), act)
            })
            .collect::<MissResult<Vec<_>>>()?;
        Ok(FrozenMlp { layers })
    }

    /// Chain the layers; the hot path the serving profiler attributes to
    /// `serve.gemm`.
    #[expect(clippy::indexing_slicing, reason = "freeze() rejects zero-layer MLPs")]
    pub(crate) fn forward(&self, x: &Tensor) -> Tensor {
        let _gemm = miss_util::profile::scope("serve.gemm");
        debug_assert!(!self.layers.is_empty(), "freeze() rejects zero-layer MLPs");
        let mut h = self.layers[0].forward(x);
        for layer in &self.layers[1..] {
            h = layer.forward(&h);
        }
        h
    }
}

/// Frozen GRU cell: six identity-epilogue affine gates plus the elementwise
/// gate math, replicating `miss_nn::GruCell` op-for-op on plain tensors.
pub(crate) struct FrozenGru {
    xz: FrozenLinear,
    hz: FrozenLinear,
    xr: FrozenLinear,
    hr: FrozenLinear,
    xh: FrozenLinear,
    hh: FrozenLinear,
}

impl FrozenGru {
    fn freeze(p: &Params<'_>, name: &str) -> MissResult<FrozenGru> {
        let gate = |g: &str| FrozenLinear::freeze(p, &format!("{name}.{g}"), FrozenAct::Identity);
        Ok(FrozenGru {
            xz: gate("xz")?,
            hz: gate("hz")?,
            xr: gate("xr")?,
            hr: gate("hr")?,
            xh: gate("xh")?,
            hh: gate("hh")?,
        })
    }

    /// `(z, h̃)` — the update gate and candidate state, in the training
    /// cell's exact op order (sigmoid/tanh applied after the gate sums).
    fn gates(&self, x: &Tensor, h: &Tensor) -> (Tensor, Tensor) {
        let z = self.xz.forward(x).add(&self.hz.forward(h)).map(miss_util::sigmoid);
        let r = self.xr.forward(x).add(&self.hr.forward(h)).map(miss_util::sigmoid);
        let rh = r.mul(h);
        let h_tilde = self.xh.forward(x).add(&self.hh.forward(&rh)).map(f32::tanh);
        (z, h_tilde)
    }

    /// Standard GRU step: `h' = (1−z)⊙h + z⊙h̃`.
    pub(crate) fn step(&self, x: &Tensor, h: &Tensor) -> Tensor {
        let (z, h_tilde) = self.gates(x, h);
        let one_minus_z = z.scale(-1.0).map(|v| v + 1.0);
        one_minus_z.mul(h).add(&z.mul(&h_tilde))
    }

    /// AUGRU step: update gate scaled by the per-sample attention column.
    pub(crate) fn step_attn(&self, x: &Tensor, h: &Tensor, att: &Tensor) -> Tensor {
        let (z, h_tilde) = self.gates(x, h);
        let z_att = z.mul_col_broadcast(att);
        let one_minus = z_att.scale(-1.0).map(|v| v + 1.0);
        one_minus.mul(h).add(&z_att.mul(&h_tilde))
    }
}

/// Frozen embedding tables: one contiguous `vocab_size×K` matrix per
/// vocabulary, cloned out of the store (lookups are row copies, so there is
/// no numeric transformation to fuse — just ownership).
pub(crate) struct FrozenTables {
    tables: Vec<Tensor>,
    /// Embedding dimension `K`.
    pub(crate) dim: usize,
}

impl FrozenTables {
    fn freeze(p: &Params<'_>, schema: &Schema, prefix: &str) -> MissResult<FrozenTables> {
        let mut tables = Vec::with_capacity(schema.vocabs.len());
        let mut dim = 0;
        for v in &schema.vocabs {
            let t = p.table(&format!("{prefix}.{}", v.name))?;
            if t.rows() != v.size {
                return Err(MissError::ShapeMismatch {
                    context: format!("frozen table {prefix}.{}", v.name),
                    expected: (v.size, t.cols()),
                    got: t.shape(),
                });
            }
            dim = t.cols();
            tables.push(t.clone());
        }
        Ok(FrozenTables { tables, dim })
    }

    /// Row-gather a vocabulary's table — bit-identical to the training
    /// path's `EmbeddingTable::gather`, but fallible: the ids arrive in
    /// untrusted score requests and the vocab index comes from an untrusted
    /// checkpoint's schema, so both are checked into typed errors instead
    /// of panics. Gathers straight off the `u32` ids — no per-call index
    /// buffer.
    pub(crate) fn gather(&self, vocab: usize, ids: &[u32]) -> MissResult<Tensor> {
        let _g = miss_util::profile::scope("serve.gather");
        let table = self.tables.get(vocab).ok_or_else(|| {
            MissError::corrupt(
                "params",
                format!(
                    "schema names vocabulary {vocab} but only {} tables froze",
                    self.tables.len()
                ),
            )
        })?;
        table.try_gather_rows_u32(ids)
    }
}

/// Borrowed name→tensor lookup over a store's parameter views.
struct Params<'a> {
    dense: Vec<(&'a str, &'a Tensor)>,
    tables: Vec<(&'a str, &'a Tensor)>,
}

impl<'a> Params<'a> {
    fn of(store: &'a ParamStore) -> Params<'a> {
        Params {
            dense: store.dense_views().map(|v| (v.name, v.value)).collect(),
            tables: store.table_views().map(|v| (v.name, v.value)).collect(),
        }
    }

    fn dense(&self, name: &str) -> MissResult<&'a Tensor> {
        self.dense
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, t)| t)
            .ok_or_else(|| MissError::UnknownParam {
                kind: "dense param",
                name: name.to_string(),
            })
    }

    fn has_dense(&self, name: &str) -> bool {
        self.dense.iter().any(|(n, _)| *n == name)
    }

    fn table(&self, name: &str) -> MissResult<&'a Tensor> {
        self.tables
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, t)| t)
            .ok_or_else(|| MissError::UnknownParam {
                kind: "embedding table",
                name: name.to_string(),
            })
    }
}

/// Which base architecture a checkpoint freezes into. The serving engine
/// supports the paper's three MISS host models.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrozenArch {
    /// Deep Interest Network.
    Din,
    /// Deep Interest Evolution Network.
    Dien,
    /// Inner-product neural network.
    Ipnn,
}

impl FrozenArch {
    /// Parse a model label (case-insensitive); `None` for architectures the
    /// freeze step does not support.
    pub fn from_label(label: &str) -> Option<FrozenArch> {
        if label.eq_ignore_ascii_case("din") {
            Some(FrozenArch::Din)
        } else if label.eq_ignore_ascii_case("dien") {
            Some(FrozenArch::Dien)
        } else if label.eq_ignore_ascii_case("ipnn") {
            Some(FrozenArch::Ipnn)
        } else {
            None
        }
    }
}

/// For each sequential field, the categorical field sharing its vocabulary
/// (the candidate the attention unit matches against). The training stack
/// `expect`s here; serving returns a typed error because the schema arrives
/// with an untrusted checkpoint.
fn candidate_fields(schema: &Schema) -> MissResult<Vec<usize>> {
    schema
        .seq_fields
        .iter()
        .map(|sf| {
            schema
                .cat_fields
                .iter()
                .position(|(_, v)| *v == sf.vocab)
                .ok_or_else(|| {
                    MissError::corrupt(
                        "params",
                        format!("sequential field {} has no candidate counterpart", sf.name),
                    )
                })
        })
        .collect()
}

/// A model compiled for inference: contiguous frozen layers, pre-packed
/// GEMM panels, no tape, no optimizer state. Construct with
/// [`FrozenModel::freeze`] (from a live store) or [`load_frozen`]
/// (from a checkpoint file).
#[expect(
    clippy::large_enum_variant,
    reason = "one FrozenModel lives per server; boxing the large variant would add a pointer chase to every scored batch"
)]
pub enum FrozenModel {
    /// Frozen DIN.
    Din(FrozenDin),
    /// Frozen DIEN.
    Dien(FrozenDien),
    /// Frozen IPNN.
    Ipnn(FrozenIpnn),
}

/// Frozen Deep Interest Network.
pub struct FrozenDin {
    pub(crate) schema: Schema,
    pub(crate) emb: FrozenTables,
    pub(crate) att: Vec<FrozenMlp>,
    pub(crate) cand_for_seq: Vec<usize>,
    pub(crate) deep: FrozenMlp,
}

/// Frozen Deep Interest Evolution Network.
pub struct FrozenDien {
    pub(crate) schema: Schema,
    pub(crate) emb: FrozenTables,
    pub(crate) gru: FrozenGru,
    pub(crate) augru: FrozenGru,
    pub(crate) deep: FrozenMlp,
}

/// Frozen product-based neural network.
pub struct FrozenIpnn {
    pub(crate) schema: Schema,
    pub(crate) emb: FrozenTables,
    pub(crate) deep: FrozenMlp,
}

impl FrozenModel {
    /// Compile `store`'s parameters for `arch` over `schema`. Parameters are
    /// looked up by the names the training constructors register, so extra
    /// parameters (MISS SSL heads, other co-registered models) are ignored.
    pub fn freeze(store: &ParamStore, schema: &Schema, arch: FrozenArch) -> MissResult<FrozenModel> {
        let p = Params::of(store);
        let emb = FrozenTables::freeze(&p, schema, "emb")?;
        match arch {
            FrozenArch::Din => {
                let att = (0..schema.num_seq())
                    .map(|j| FrozenMlp::freeze(&p, &format!("din.att{j}")))
                    .collect::<MissResult<Vec<_>>>()?;
                Ok(FrozenModel::Din(FrozenDin {
                    schema: schema.clone(),
                    emb,
                    att,
                    cand_for_seq: candidate_fields(schema)?,
                    deep: FrozenMlp::freeze(&p, "din.deep")?,
                }))
            }
            FrozenArch::Dien => Ok(FrozenModel::Dien(FrozenDien {
                schema: schema.clone(),
                emb,
                gru: FrozenGru::freeze(&p, "dien.gru")?,
                augru: FrozenGru::freeze(&p, "dien.augru")?,
                deep: FrozenMlp::freeze(&p, "dien.deep")?,
            })),
            FrozenArch::Ipnn => Ok(FrozenModel::Ipnn(FrozenIpnn {
                schema: schema.clone(),
                emb,
                deep: FrozenMlp::freeze(&p, "ipnn.deep")?,
            })),
        }
    }

    /// The schema the model scores against.
    pub fn schema(&self) -> &Schema {
        match self {
            FrozenModel::Din(m) => &m.schema,
            FrozenModel::Dien(m) => &m.schema,
            FrozenModel::Ipnn(m) => &m.schema,
        }
    }
}

/// Load a checkpoint into a freshly rebuilt architecture and freeze it.
///
/// `exp` must describe the experiment that *wrote* the checkpoint (base
/// model, SSL kind, model config) and `seed` its training seed, so the
/// rebuilt store registers the exact parameter set the artifact carries —
/// including SSL parameters, which freezing then ignores. Returns the
/// frozen model and the checkpoint's training progress.
pub fn load_frozen(
    path: &std::path::Path,
    exp: &miss_trainer::Experiment,
    schema: &Schema,
    seed: u64,
) -> MissResult<(FrozenModel, Option<miss_codec::TrainProgress>)> {
    let arch = FrozenArch::from_label(exp.base.label()).ok_or_else(|| MissError::UnknownParam {
        kind: "freezable base model",
        name: exp.base.label().to_string(),
    })?;
    let (mut store, _model) = exp.build_model(schema, seed);
    let progress = miss_codec::load_from_path(path, &mut store)?;
    let frozen = FrozenModel::freeze(&store, schema, arch)?;
    Ok((frozen, progress))
}
