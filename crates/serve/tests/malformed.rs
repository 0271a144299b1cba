//! Malformed score requests are typed errors, never panics (DESIGN.md §8).
//! For every base model, a request carrying an out-of-vocabulary
//! categorical id, an out-of-vocabulary history id, sequential fields of
//! different history lengths, or the wrong number of fields comes back from
//! `score_queue` as `MissError::BadRequest`, checked under `catch_unwind`.
//! A store or checkpoint that cannot serve as the requested model fails to
//! freeze with a typed error too.

use miss_data::{request_stream, Dataset, Sample, Schema, Split, World, WorldConfig};
use miss_serve::{load_frozen, FrozenModel, ScoreEngine};
use miss_trainer::{BaseModel, Experiment, SslKind, ALL_BASELINES};
use miss_util::MissError;
use std::panic::{catch_unwind, AssertUnwindSafe};

type Mutation = fn(&mut Sample, &Schema);

const MUTATIONS: [(&str, Mutation); 4] = [
    ("out-of-vocab categorical id", |s, schema| {
        s.cat[1] = schema.vocabs[schema.cat_fields[1].1].size as u32;
    }),
    ("out-of-vocab history id", |s, schema| {
        let last = s.hist[0].last_mut().expect("test samples have a history");
        *last = schema.vocabs[schema.seq_fields[0].vocab].size as u32;
    }),
    ("ragged histories", |s, _| {
        let n = s.hist[0].len();
        s.hist[1].truncate(n / 2);
    }),
    ("wrong field count", |s, _| {
        s.cat.pop();
    }),
];

#[test]
fn malformed_requests_are_bad_request_for_every_model() {
    let world = World::generate(WorldConfig::tiny(), 7);
    let dataset = Dataset::from_world(&world, 7);
    let schema = &dataset.schema;
    let stream = request_stream(&world, &dataset, Split::Test, 3, 2, 0xBAD);
    for base in ALL_BASELINES {
        let (store, _) = Experiment::new(base, SslKind::None).build_model(schema, 42);
        let frozen = FrozenModel::freeze(&store, schema, base).expect("freeze");
        let engine = ScoreEngine::new(&frozen, 4);
        assert!(
            engine.score_queue(&stream).is_ok(),
            "{}: clean stream",
            base.label()
        );
        for (what, mutate) in MUTATIONS {
            let mut bad = stream.clone();
            mutate(&mut bad[1].samples[0], schema);
            match catch_unwind(AssertUnwindSafe(|| engine.score_queue(&bad))) {
                Ok(Err(MissError::BadRequest { .. })) => {}
                other => panic!(
                    "{}: {what}: expected BadRequest, got {other:?}",
                    base.label()
                ),
            }
        }
    }
}

#[test]
fn freeze_rejects_a_store_it_cannot_serve() {
    let world = World::generate(WorldConfig::tiny(), 7);
    let dataset = Dataset::from_world(&world, 7);
    let (din, _) = Experiment::new(BaseModel::Din, SslKind::None).build_model(&dataset.schema, 42);
    // A DIN store has no GRU for DIEN to read.
    let as_dien = FrozenModel::freeze(&din, &dataset.schema, BaseModel::Dien);
    assert!(matches!(as_dien, Err(MissError::UnknownParam { .. })));
    // Tables sized for another dataset's vocabularies.
    let mut other = dataset.schema.clone();
    other.vocabs[1].size += 1;
    let resized = FrozenModel::freeze(&din, &other, BaseModel::Din);
    assert!(matches!(resized, Err(MissError::ShapeMismatch { .. })));
    // A checkpoint frozen for another schema fails the same way, naming the
    // table.
    let path = std::env::temp_dir().join(format!("miss_malformed_{}.ckpt", std::process::id()));
    let arch = Experiment::new(BaseModel::Din, SslKind::None).arch();
    miss_codec::save_to_path(&path, &din, &arch, None).expect("save");
    let loaded = load_frozen(&path, &other).map(|_| ());
    let _ = std::fs::remove_file(&path);
    assert!(
        matches!(&loaded, Err(MissError::ShapeMismatch { context, .. }) if context.contains("emb.")),
        "{loaded:?}"
    );
    // One more categorical field: the deep tower's input is wider.
    let mut wider = dataset.schema.clone();
    wider.cat_fields.push(("extra".to_string(), wider.cat_fields[0].1));
    let widened = FrozenModel::freeze(&din, &wider, BaseModel::Din);
    assert!(
        matches!(&widened, Err(MissError::ShapeMismatch { context, .. }) if context.contains("din.deep.l0.w")),
        "{:?}",
        widened.err()
    );
}
