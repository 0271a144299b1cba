//! Round-trip property tests: over arbitrary model configurations
//! (DIN/DIEN/IPNN, ±MISS, varying embedding widths), a save → load cycle
//! must restore parameters, Adam moments, and training progress — phase,
//! early-stopping state and best weights included — **bitwise**, and a
//! store-free read must hand back the arch and the same weights.
//!
//! Replay a failure with `TESTKIT_SEED=<seed printed on failure>`.

use miss_codec::{Arch, Best, TrainProgress};
use miss_core::{Miss, MissConfig, SslMethod};
use miss_data::{Batch, Dataset, Sample, WorldConfig};
use miss_models::{CtrModel, Dien, Din, ForwardOpts, Ipnn, ModelConfig};
use miss_nn::{Adam, Graph, ParamStore};
use miss_tensor::Tensor;
use miss_testkit::{bools, prop_assert, prop_assert_eq, properties};
use miss_util::Rng;
use std::sync::OnceLock;

fn dataset() -> &'static Dataset {
    static DS: OnceLock<Dataset> = OnceLock::new();
    DS.get_or_init(|| Dataset::generate(WorldConfig::tiny(), 77))
}

/// A model + optional MISS head built over one store. `seed` only changes the
/// initial values, never the architecture, so two builds with different
/// seeds accept each other's checkpoints.
fn build(
    store: &mut ParamStore,
    model_idx: usize,
    use_miss: bool,
    embed_dim: usize,
    seed: u64,
) -> (Box<dyn CtrModel>, Option<Miss>) {
    let ds = dataset();
    let mut rng = Rng::new(seed);
    let cfg = ModelConfig {
        embed_dim,
        ..ModelConfig::default()
    };
    let model: Box<dyn CtrModel> = match model_idx {
        0 => Box::new(Din::new(store, &ds.schema, &cfg, &mut rng)),
        1 => Box::new(Dien::new(store, &ds.schema, &cfg, &mut rng)),
        _ => Box::new(Ipnn::new(store, &ds.schema, &cfg, &mut rng)),
    };
    let ssl = use_miss
        .then(|| Miss::new(store, model.embedding(), MissConfig::default(), &mut rng));
    (model, ssl)
}

/// What a checkpoint of [`build`]'s model records.
fn arch(model_idx: usize, embed_dim: usize) -> Arch {
    Arch {
        model: ["DIN", "DIEN", "IPNN"][model_idx.min(2)].to_string(),
        embed_dim,
        mlp_sizes: ModelConfig::default().mlp_sizes,
    }
}

/// A couple of real optimiser steps so the Adam moments are non-trivial —
/// a round-trip that only preserves zero moments would prove nothing.
fn train_steps(model: &dyn CtrModel, ssl: Option<&Miss>, store: &mut ParamStore, steps: usize) {
    let ds = dataset();
    let mut adam = Adam::new(1e-2, 1e-4);
    let mut rng = Rng::new(0x5EED);
    let refs: Vec<&Sample> = ds.train.iter().take(64).collect();
    let batch = Batch::from_samples(&refs, &ds.schema);
    for _ in 0..steps {
        let mut g = Graph::new(store);
        let mut opts = ForwardOpts {
            training: true,
            rng: &mut rng,
        };
        let logits = model.forward(&mut g, store, &batch, &mut opts);
        let labels = Tensor::from_vec(batch.size, 1, batch.labels.clone());
        let mut loss = g.tape.bce_with_logits_mean(logits, labels);
        if let Some(m) = ssl {
            if let Some(aux) = m.ssl_loss(&mut g, store, model.embedding(), &batch, opts.rng) {
                loss = g.tape.add(loss, aux);
            }
        }
        let grads = g.tape.backward(loss);
        adam.step(store, &g, grads);
    }
}

/// Bitwise equality of every parameter and both Adam moments, by name and in
/// registration order.
fn assert_stores_bitwise_equal(a: &ParamStore, b: &ParamStore) {
    assert_eq!(a.num_dense(), b.num_dense());
    assert_eq!(a.num_tables(), b.num_tables());
    let views = a
        .dense_views()
        .zip(b.dense_views())
        .chain(a.table_views().zip(b.table_views()));
    for (x, y) in views {
        assert_eq!(x.name, y.name, "registration order differs");
        for (ta, tb) in [(x.value, y.value), (x.m, y.m), (x.v, y.v)] {
            assert_eq!((ta.rows(), ta.cols()), (tb.rows(), tb.cols()), "{}", x.name);
            for (va, vb) in ta.as_slice().iter().zip(tb.as_slice()) {
                assert_eq!(va.to_bits(), vb.to_bits(), "bit drift in {}", x.name);
            }
        }
    }
}

properties! {
    #![config(cases = 6)]

    fn save_load_is_bitwise_identity(
        model_idx in 0usize..3,
        use_miss in bools(),
        embed_dim in 4usize..10,
        seed in 0u64..1000,
        epoch in 0u64..100,
        step in 0u64..10_000,
        two_stage in bools(),
        has_best in bools(),
    ) {
        let mut store = ParamStore::new();
        let (model, ssl) = build(&mut store, model_idx, use_miss, embed_dim, seed);
        // The best weights are a step behind the latest ones.
        train_steps(model.as_ref(), ssl.as_ref(), &mut store, 1);
        let best_weights = store.snapshot();
        train_steps(model.as_ref(), ssl.as_ref(), &mut store, 1);

        let progress = TrainProgress {
            epoch,
            step,
            rng_state: seed.wrapping_mul(0x9E3779B97F4A7C15),
            rng_inc: (seed << 1) | 1,
            pretrain_epochs: two_stage.then_some(step % (2 * epoch + 1)),
            best: (has_best && epoch > 0).then(|| Best {
                epoch: 1 + step % epoch,
                auc: (seed % 1000) as f64 / 1000.0,
                logloss: step as f64 / 7.0,
                weights: best_weights.clone(),
            }),
        };
        let arch = arch(model_idx, embed_dim);
        let bytes = miss_codec::save_to_vec(&store, &arch, Some(&progress)).expect("save failed");

        // Destination store: same architecture, deliberately different init
        // seed so a load that silently does nothing cannot pass.
        let mut store2 = ParamStore::new();
        let _keep_alive = build(&mut store2, model_idx, use_miss, embed_dim, seed ^ 0xFFFF);
        prop_assert!(
            store.params_fingerprint() != store2.params_fingerprint(),
            "differently seeded inits should not collide"
        );

        let loaded = miss_codec::load_from_slice(&bytes, &arch, &mut store2).expect("load failed");
        prop_assert_eq!(loaded.as_ref(), Some(&progress));
        prop_assert_eq!(store.params_fingerprint(), store2.params_fingerprint());
        assert_stores_bitwise_equal(&store, &store2);
        // The store-free read: the same arch, the latest weights by name in
        // registration order, and the same best weights.
        let read = miss_codec::read(&mut &bytes[..]).expect("read failed");
        prop_assert_eq!(&read.arch, &arch);
        prop_assert_eq!(read.params.params_fingerprint(), store.params_fingerprint());
        let names = |s: &ParamStore| {
            let dense = s.dense_views().map(|v| v.name.to_string());
            dense.chain(s.table_views().map(|v| v.name.to_string())).collect::<Vec<_>>()
        };
        prop_assert_eq!(names(&read.params), names(&store));
        prop_assert_eq!(read.progress.as_ref(), loaded.as_ref());
        if let Some(best) = loaded.and_then(|p| p.best) {
            store.restore(&best_weights);
            store2.restore(&best.weights);
            prop_assert_eq!(store.params_fingerprint(), store2.params_fingerprint());
        }
    }

    fn params_only_artifacts_roundtrip_without_progress(
        model_idx in 0usize..3,
        embed_dim in 4usize..10,
        seed in 0u64..1000,
    ) {
        let mut store = ParamStore::new();
        let _m = build(&mut store, model_idx, false, embed_dim, seed);
        let arch = arch(model_idx, embed_dim);
        let bytes = miss_codec::save_to_vec(&store, &arch, None).expect("save failed");
        let mut store2 = ParamStore::new();
        let _m2 = build(&mut store2, model_idx, false, embed_dim, seed ^ 0xAAAA);
        let loaded = miss_codec::load_from_slice(&bytes, &arch, &mut store2).expect("load failed");
        prop_assert_eq!(loaded, None);
        prop_assert_eq!(store.params_fingerprint(), store2.params_fingerprint());
    }
}
