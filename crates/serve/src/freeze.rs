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
use miss_nn::{Graph, ParamStore};
use miss_tensor::Tensor;
use miss_util::{MissError, MissResult, Rng};
use std::sync::{Mutex, PoisonError};

/// Which base architecture a store freezes into. Every base model serves;
/// the alias is the serving-side name for [`miss_trainer::BaseModel`].
pub use miss_trainer::BaseModel as FrozenArch;

/// A model ready for inference: an owned parameter snapshot, the model that
/// reads it, its schema, and a pool of inference graphs (one per concurrent
/// caller, each keeping its parameter constants and packed panels across
/// batches). Construct with [`FrozenModel::freeze`] (from a live store) or
/// [`load_frozen`] (from a checkpoint file).
pub struct FrozenModel {
    store: ParamStore,
    model: Box<dyn CtrModel>,
    schema: Schema,
    graphs: Mutex<Vec<Graph>>,
}

impl FrozenModel {
    fn new(store: ParamStore, model: Box<dyn CtrModel>, schema: Schema) -> FrozenModel {
        FrozenModel {
            store,
            model,
            schema,
            graphs: Mutex::new(Vec::new()),
        }
    }

    /// Freeze `store`'s parameters as `arch` over `schema`. The model is
    /// built over a copy of the store's values, with the embedding width and
    /// deep-tower widths read off the store, so it fetches every parameter
    /// by name; extra parameters (MISS SSL heads) are carried but never
    /// read. A parameter the build had to register because the store lacks
    /// it is [`MissError::UnknownParam`], an embedding table sized for
    /// another dataset [`MissError::ShapeMismatch`].
    pub fn freeze(
        store: &ParamStore,
        schema: &Schema,
        arch: FrozenArch,
    ) -> MissResult<FrozenModel> {
        let cfg = model_config(store, schema)?;
        let mut own = store.values_only();
        let (dense, tables) = (own.num_dense(), own.num_tables());
        let model = arch.build(&mut own, schema, &cfg, &mut Rng::new(0));
        let added = own
            .dense_views()
            .nth(dense)
            .map(|v| ("dense param", v.name));
        let added = added.or_else(|| {
            own.table_views()
                .nth(tables)
                .map(|v| ("embedding table", v.name))
        });
        if let Some((kind, name)) = added {
            return Err(MissError::UnknownParam {
                kind,
                name: name.to_string(),
            });
        }
        Ok(FrozenModel::new(own, model, schema.clone()))
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

/// The model hyper-parameters a store was built with: `embed_dim` is the
/// width of the `emb.*` tables, `mlp_sizes` the widths of a `*.deep.l{i}`
/// tower, plus the trailing 1 of its separate `*.head` when it has one.
/// Also checks every `*.{vocab}` table's rows against `schema`: a build
/// would re-register a mis-sized table with a panic, not an error.
fn model_config(store: &ParamStore, schema: &Schema) -> MissResult<ModelConfig> {
    for t in store.table_views() {
        let vocab = schema
            .vocabs
            .iter()
            .find(|v| t.name.rsplit('.').next() == Some(v.name.as_str()));
        if let Some(v) = vocab.filter(|v| v.size != t.value.rows()) {
            return Err(MissError::ShapeMismatch {
                context: format!("embedding table {}", t.name),
                expected: (v.size, t.value.cols()),
                got: t.value.shape(),
            });
        }
    }
    let embed_dim = store
        .table_views()
        .find(|t| t.name.starts_with("emb."))
        .map(|t| t.value.cols())
        .ok_or_else(|| MissError::UnknownParam {
            kind: "embedding table",
            name: "emb.*".to_string(),
        })?;
    let width = |name: &str| {
        store
            .dense_views()
            .find(|v| v.name == name)
            .map(|v| v.value.cols())
    };
    let mut cfg = ModelConfig {
        embed_dim,
        ..ModelConfig::default()
    };
    let tower = store
        .dense_views()
        .find_map(|v| v.name.strip_suffix(".deep.l0.w"));
    if let Some(tower) = tower {
        cfg.mlp_sizes.clear();
        while let Some(w) = width(&format!("{tower}.deep.l{}.w", cfg.mlp_sizes.len())) {
            cfg.mlp_sizes.push(w);
        }
        if width(&format!("{tower}.head.w")).is_some() {
            cfg.mlp_sizes.push(1);
        }
    }
    Ok(cfg)
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

/// Load a checkpoint into a freshly rebuilt architecture and freeze it.
///
/// `exp` must describe the experiment that *wrote* the checkpoint (base
/// model, SSL kind, model config) and `seed` its training seed, so the
/// rebuilt store registers the exact parameter set the artifact carries —
/// including SSL parameters, which the forward never reads. Returns the
/// frozen model and the checkpoint's training progress.
pub fn load_frozen(
    path: &std::path::Path,
    exp: &miss_trainer::Experiment,
    schema: &Schema,
    seed: u64,
) -> MissResult<(FrozenModel, Option<miss_codec::TrainProgress>)> {
    let (mut store, model) = exp.build_model(schema, seed);
    let progress = miss_codec::load_from_path(path, &mut store)?;
    Ok((FrozenModel::new(store, model, schema.clone()), progress))
}
