//! The freeze step and the inference forward.
//!
//! A [`FrozenModel`] is a parameter snapshot plus the model's own
//! [`CtrModel::forward`], run on inference-mode [`Graph`]s: parameters and
//! embedding rows are tape constants, so no op records backward state, and
//! every `Linear` multiplies against weight panels packed once per graph.
//! The scores are therefore the training-graph eval scores, bit for bit, for
//! every base model with or without MISS (MISS only adds training losses).
//!
//! Requests and checkpoints are untrusted input (DESIGN.md §8): a batch is
//! checked against the schema, ids included, before the forward runs, and
//! a missing or mis-shaped parameter is a typed [`MissError`].

use miss_data::{Batch, Schema};
use miss_models::{CtrModel, ForwardOpts, ModelConfig};
use miss_nn::{Graph, ParamStore, ParamView};
use miss_tensor::Tensor;
use miss_util::{MissError, MissResult, Rng};
use std::sync::{Mutex, PoisonError};

/// Which base architecture a store freezes into. Every base model serves;
/// the alias is the serving-side name for [`miss_trainer::BaseModel`].
pub use miss_trainer::BaseModel as FrozenArch;

/// A model ready for inference: an owned parameter snapshot, the model that
/// reads it and the arch it was built as, its schema, and a pool of
/// inference graphs (one per concurrent caller, each keeping its parameter
/// constants and packed panels across batches). Construct with
/// [`FrozenModel::freeze`] (from a live store) or [`load_frozen`] (from a
/// checkpoint file).
pub struct FrozenModel {
    store: ParamStore,
    model: Box<dyn CtrModel>,
    arch: FrozenArch,
    schema: Schema,
    graphs: Mutex<Vec<Graph>>,
}

impl FrozenModel {
    /// Freeze `store`'s parameters as `arch` over `schema`, at the default
    /// [`ModelConfig`] widths. The model is built over a store of its own,
    /// and every parameter it registers then takes `store`'s value of that
    /// name. A parameter `store` lacks is [`MissError::UnknownParam`], one
    /// of another shape (a table sized for another dataset, a tower for
    /// other field counts or widths) [`MissError::ShapeMismatch`]; a model
    /// of other widths freezes from its checkpoint, which records them
    /// ([`load_frozen`]). Parameters the model does not register (MISS SSL
    /// heads) are not copied, and neither are Adam moments.
    pub fn freeze(
        store: &ParamStore,
        schema: &Schema,
        arch: FrozenArch,
    ) -> MissResult<FrozenModel> {
        build_from(store, schema, arch, &ModelConfig::default())
    }

    /// The base model's label, as in the paper's tables.
    pub fn name(&self) -> &'static str {
        self.arch.label()
    }

    /// The schema the model scores against.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// CTR logits (`B×1`) for a batch, bit-identical to the training-graph
    /// eval-mode forward. A batch that does not match the schema, or holds
    /// an id outside its vocabulary, is a [`MissError::BadRequest`] —
    /// scoring never panics on request content.
    pub fn forward(&self, batch: &Batch) -> MissResult<Tensor> {
        check_batch(batch, &self.schema)?;
        // The pool only ever holds whole graphs, and no forward runs under
        // the lock, so a poisoned lock still guards a valid pool.
        let pooled = self
            .graphs
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .pop();
        let mut g = pooled.unwrap_or_else(|| Graph::inference(&self.store));
        g.reset(&self.store);
        let mut rng = Rng::new(0); // dropout is the identity in eval mode
        let mut opts = ForwardOpts {
            training: false,
            rng: &mut rng,
        };
        let logits = self.model.forward(&mut g, &self.store, batch, &mut opts);
        let out = g.tape.value(logits).clone();
        self.graphs
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(g);
        Ok(out)
    }
}

/// The one freeze routine, [`FrozenModel::freeze`] at the widths `cfg`
/// gives.
fn build_from(
    source: &ParamStore,
    schema: &Schema,
    arch: FrozenArch,
    cfg: &ModelConfig,
) -> MissResult<FrozenModel> {
    let mut own = ParamStore::new();
    let model = arch.build(&mut own, schema, cfg, &mut Rng::new(0));
    let dense: Vec<String> = own.dense_views().map(|v| v.name.to_string()).collect();
    for name in dense {
        let value = value_of(source.dense_views(), "dense param", &name)?;
        own.set_dense_param(&name, value)?;
    }
    let tables: Vec<String> = own.table_views().map(|v| v.name.to_string()).collect();
    for name in tables {
        let value = value_of(source.table_views(), "embedding table", &name)?;
        own.set_table_param(&name, value)?;
    }
    Ok(FrozenModel {
        // Serving never reads the Adam moments the build allocated.
        store: own.values_only(),
        model,
        arch,
        schema: schema.clone(),
        graphs: Mutex::new(Vec::new()),
    })
}

/// A copy of the value of parameter `name` among `views`.
fn value_of<'a>(
    mut views: impl Iterator<Item = ParamView<'a>>,
    kind: &'static str,
    name: &str,
) -> MissResult<Tensor> {
    views
        .find(|v| v.name == name)
        .map(|v| v.value.clone())
        .ok_or_else(|| MissError::UnknownParam {
            kind,
            name: name.to_string(),
        })
}

/// Validate a batch against the schema: field arity, sequence length, the
/// flattened `B·L` extents, and every id against its vocabulary. After this
/// passes, every index the model's forward takes is in bounds.
fn check_batch(batch: &Batch, schema: &Schema) -> MissResult<()> {
    let bl = batch.size * batch.seq_len;
    if batch.cat.len() != schema.num_cat() || batch.seq.len() != schema.num_seq() {
        return Err(MissError::bad_request(format!(
            "batch has {} categorical / {} sequential fields, schema has {} / {}",
            batch.cat.len(),
            batch.seq.len(),
            schema.num_cat(),
            schema.num_seq()
        )));
    }
    if batch.seq_len != schema.seq_len || batch.mask.len() != bl {
        return Err(MissError::bad_request(format!(
            "batch of {} x {} with {} mask entries, schema sequence length {}",
            batch.size,
            batch.seq_len,
            batch.mask.len(),
            schema.seq_len
        )));
    }
    let cat = schema
        .cat_fields
        .iter()
        .map(|(name, v)| (name, *v, batch.size));
    let seq = schema.seq_fields.iter().map(|f| (&f.name, f.vocab, bl));
    for ((name, vocab, want), ids) in cat.chain(seq).zip(batch.cat.iter().chain(&batch.seq)) {
        if ids.len() != want {
            return Err(MissError::bad_request(format!(
                "field {name} has {} ids, expected {want}",
                ids.len()
            )));
        }
        let size = schema.vocabs.get(vocab).map_or(0, |v| v.size);
        if let Some(&id) = ids.iter().find(|&&id| id as usize >= size) {
            return Err(MissError::bad_request(format!(
                "field {name}: id {id} out of range for a {size}-id vocabulary"
            )));
        }
    }
    Ok(())
}

/// Freeze a checkpoint as the model it records: its arch section names the
/// base model and widths, and the weights are its best-validation ones (its
/// latest when it has no best epoch). Only the base model's parameters are
/// copied, so a checkpoint of a run with MISS attached serves like one
/// without. A base model this build does not know is `Corrupt{arch}`.
/// Returns the frozen model and the checkpoint's training progress.
pub fn load_frozen(
    path: &std::path::Path,
    schema: &Schema,
) -> MissResult<(FrozenModel, Option<miss_codec::TrainProgress>)> {
    let mut file = std::io::BufReader::new(std::fs::File::open(path)?);
    let miss_codec::Checkpoint { arch, mut params, progress } = miss_codec::read(&mut file)?;
    let base = FrozenArch::from_label(&arch.model).ok_or_else(|| {
        MissError::corrupt("arch", format!("unknown base model {:?}", arch.model))
    })?;
    if let Some(best) = progress.as_ref().and_then(|p| p.best.as_ref()) {
        params.restore(&best.weights);
    }
    let cfg = ModelConfig {
        embed_dim: arch.embed_dim,
        mlp_sizes: arch.mlp_sizes,
        ..ModelConfig::default()
    };
    Ok((build_from(&params, schema, base, &cfg)?, progress))
}
