//! The serving determinism contract (DESIGN.md §10), pinned bitwise:
//!
//! 1. the inference-mode forward reproduces the training-graph forward
//!    bit-for-bit for every base model, with and without MISS attached, at
//!    any batch size and `MISS_THREADS`;
//! 2. micro-batched scoring is bit-identical to scoring each request alone,
//!    for any request-arrival grouping;
//! 3. the frozen eval path reproduces `miss_trainer::evaluate` exactly;
//! 4. freezing a codec round-tripped checkpoint changes nothing.

use miss_data::{request_stream, Batch, Dataset, Sample, Split, World, WorldConfig};
use miss_models::{CtrModel, ForwardOpts};
use miss_nn::{Graph, ParamStore};
use miss_serve::{evaluate_frozen, load_frozen, FrozenModel, ScoreEngine};
use miss_trainer::{evaluate, Experiment, SslKind, ALL_BASELINES};
use miss_util::{MissError, Rng};

const SEED: u64 = 42;

fn world_and_dataset() -> (World, Dataset) {
    let world = World::generate(WorldConfig::tiny(), 7);
    let dataset = Dataset::from_world(&world, 7);
    (world, dataset)
}

fn ssl_kinds() -> [SslKind; 2] {
    [SslKind::None, SslKind::Miss(miss_core::MissConfig::default())]
}

/// Eval-mode logits off the training tape, as raw f32s.
fn graph_logits(model: &dyn CtrModel, store: &ParamStore, batch: &Batch) -> Vec<f32> {
    let mut rng = Rng::new(0);
    let mut g = Graph::new(store);
    let mut opts = ForwardOpts {
        training: false,
        rng: &mut rng,
    };
    let logits = model.forward(&mut g, store, batch, &mut opts);
    g.tape.value(logits).as_slice().to_vec()
}

fn batch_of(samples: &[Sample], schema: &miss_data::Schema) -> Batch {
    let refs: Vec<&Sample> = samples.iter().collect();
    Batch::from_samples(&refs, schema)
}

#[test]
fn frozen_forward_bitwise_matches_graph() {
    let (_world, dataset) = world_and_dataset();
    let n = dataset.test.len().min(48);
    for base in ALL_BASELINES {
        for ssl in ssl_kinds() {
            let exp = Experiment::new(base, ssl);
            let (store, model) = exp.build_model(&dataset.schema, SEED);
            let frozen = FrozenModel::freeze(&store, &dataset.schema, base).unwrap();
            for bs in [1usize, 17, 48] {
                for lo in (0..n).step_by(bs) {
                    let hi = (lo + bs).min(n);
                    let batch = batch_of(&dataset.test[lo..hi], &dataset.schema);
                    let want = graph_logits(model.as_ref(), &store, &batch);
                    for threads in [1usize, 2, 4] {
                        let got = miss_parallel::with_threads(threads, || frozen.forward(&batch))
                            .expect("frozen forward");
                        assert_eq!(
                            got.as_slice(),
                            &want[..],
                            "{} bs={bs} lo={lo} threads={threads}",
                            exp.label(),
                        );
                    }
                }
            }
        }
    }
}

/// Non-default widths: a checkpoint records its embedding and tower
/// widths, so odd embed dims and ragged towers (including the hidden-only
/// towers that feed a separate head) freeze from the file and match the
/// training graph bit-for-bit. The live store freezes only at the default
/// widths; at others it is a typed shape mismatch.
#[test]
fn frozen_forward_matches_graph_at_odd_widths() {
    let (_world, dataset) = world_and_dataset();
    let n = dataset.test.len().min(24);
    let path = std::env::temp_dir().join(format!("miss_serve_odd_{}.ckpt", std::process::id()));
    for base in ALL_BASELINES {
        for (embed_dim, mlp_sizes) in [(6usize, vec![17, 5, 1]), (13, vec![33, 1])] {
            let mut exp = Experiment::new(base, SslKind::None);
            exp.model_cfg.embed_dim = embed_dim;
            exp.model_cfg.mlp_sizes = mlp_sizes.clone();
            let (store, model) = exp.build_model(&dataset.schema, SEED);
            miss_codec::save_to_path(&path, &store, &exp.arch(), None).unwrap();
            let (frozen, _) = load_frozen(&path, &dataset.schema).unwrap();
            let batch = batch_of(&dataset.test[..n], &dataset.schema);
            let want = graph_logits(model.as_ref(), &store, &batch);
            let got = frozen.forward(&batch).expect("frozen forward");
            let label = format!("{} embed_dim={embed_dim} mlp={mlp_sizes:?}", base.label());
            assert_eq!(got.as_slice(), &want[..], "{label}");
            let live = FrozenModel::freeze(&store, &dataset.schema, base);
            assert!(matches!(live, Err(MissError::ShapeMismatch { .. })), "{label}");
        }
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn micro_batching_never_changes_a_score() {
    let (world, dataset) = world_and_dataset();
    for base in ALL_BASELINES {
        let exp = Experiment::new(base, SslKind::None);
        let (store, _model) = exp.build_model(&dataset.schema, SEED);
        let frozen = FrozenModel::freeze(&store, &dataset.schema, base).unwrap();
        // Ragged candidate counts: three interleaved streams so batch
        // boundaries land mid-queue at every max_batch below.
        let mut stream = Vec::new();
        for (i, c) in [1usize, 5, 3].iter().cycle().take(24).enumerate() {
            stream.extend(request_stream(
                &world,
                &dataset,
                Split::Test,
                1,
                *c,
                0x9000 + i as u64,
            ));
        }
        // Ground truth: every request scored entirely alone.
        let mut solo = Vec::new();
        for r in &stream {
            solo.extend(
                ScoreEngine::new(&frozen, 1)
                    .score_queue(std::slice::from_ref(r))
                    .expect("solo scoring"),
            );
        }
        for mb in [1usize, 3, 8, 64, 4096] {
            let engine = ScoreEngine::new(&frozen, mb);
            for threads in [1usize, 2, 4] {
                let got = miss_parallel::with_threads(threads, || engine.score_queue(&stream))
                    .expect("queue scoring");
                assert_eq!(
                    got, solo,
                    "{} mb={mb} threads={threads}",
                    base.label()
                );
            }
            // The grouping rule itself: batches partition the queue in order
            // and only an oversized request may exceed max_batch.
            let batches = engine.form_batches(&stream);
            let mut next = 0;
            for &(r0, r1) in &batches {
                assert_eq!(r0, next, "batches must partition the queue in order");
                let cands: usize = stream[r0..r1].iter().map(|r| r.num_candidates()).sum();
                assert!(
                    cands <= mb || r1 - r0 == 1,
                    "batch [{r0},{r1}) holds {cands} > max_batch {mb}"
                );
                next = r1;
            }
            assert_eq!(next, stream.len());
        }
    }
}

#[test]
fn frozen_eval_matches_graph_eval() {
    let (_world, dataset) = world_and_dataset();
    for base in ALL_BASELINES {
        for ssl in ssl_kinds() {
            let exp = Experiment::new(base, ssl);
            let (store, model) = exp.build_model(&dataset.schema, SEED);
            let frozen = FrozenModel::freeze(&store, &dataset.schema, base).unwrap();
            for bs in [13usize, 64] {
                let want = evaluate(model.as_ref(), &store, &dataset.test, &dataset.schema, bs);
                let got = evaluate_frozen(&frozen, &dataset.test, &dataset.schema, bs)
                    .expect("frozen eval");
                assert_eq!(got, want, "{} bs={bs}", base.label());
            }
        }
    }
}

/// The store is built with `SEED`; `load_frozen` builds the model the file
/// records with no seed at all and copies every value it registers, so the
/// forward bits agree, with or without MISS's heads in the file.
#[test]
fn codec_round_trip_freezes_identically() {
    let (_world, dataset) = world_and_dataset();
    let path = std::env::temp_dir().join(format!("miss_serve_eq_{}.ckpt", std::process::id()));
    for base in ALL_BASELINES {
        for ssl in ssl_kinds() {
            let exp = Experiment::new(base, ssl);
            let (store, _model) = exp.build_model(&dataset.schema, SEED);
            let direct = FrozenModel::freeze(&store, &dataset.schema, base).unwrap();
            miss_codec::save_to_path(&path, &store, &exp.arch(), None).unwrap();
            let (loaded, progress) = load_frozen(&path, &dataset.schema).unwrap();
            assert!(progress.is_none());
            let batch = batch_of(&dataset.test[..dataset.test.len().min(32)], &dataset.schema);
            assert_eq!(
                loaded.forward(&batch).unwrap().as_slice(),
                direct.forward(&batch).unwrap().as_slice(),
                "{} round-trip",
                base.label()
            );
        }
    }
    let _ = std::fs::remove_file(&path);
}
