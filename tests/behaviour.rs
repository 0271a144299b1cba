//! Behaviour-level regression tests: not just "does it run", but "does each
//! component do the job the paper assigns to it".

use miss::core::{ExtractorKind, Miss, MissConfig};
use miss::data::{Batch, BatchIter, Dataset, Sample, WorldConfig};
use miss::models::{CtrModel, Din, ModelConfig};
use miss::nn::{Adam, Graph, ParamStore};
use miss::tensor::Tensor;
use miss::trainer::{evaluate, fit, BaseModel, Experiment, SslKind, TrainConfig};
use miss::util::Rng;

fn tiny_dataset(seed: u64) -> Dataset {
    Dataset::generate(WorldConfig::tiny(), seed)
}

/// The checkpoint round-trip must preserve evaluation metrics exactly for a
/// really trained model (not just toy stores).
#[test]
fn checkpoint_roundtrip_preserves_metrics() {
    let dataset = tiny_dataset(200);
    let mut store = ParamStore::new();
    let mut rng = Rng::new(1);
    let model = Din::new(&mut store, &dataset.schema, &ModelConfig::default(), &mut rng);
    let cfg = TrainConfig {
        max_epochs: 3,
        patience: 0,
        ..TrainConfig::default()
    };
    let out = fit(&model, None, &mut store, &dataset, &cfg).expect("fit");

    let din_arch = Experiment::new(BaseModel::Din, SslKind::None).arch();
    let buf = miss::codec::save_to_vec(&store, &din_arch, None).unwrap();

    // Fresh store + same architecture, load weights, metrics must match.
    let mut store2 = ParamStore::new();
    let mut rng2 = Rng::new(99); // different init — must be overwritten
    let model2 = Din::new(&mut store2, &dataset.schema, &ModelConfig::default(), &mut rng2);
    let progress = miss::codec::load_from_slice(&buf, &din_arch, &mut store2).unwrap();
    assert!(progress.is_none(), "no trainer progress was saved");
    let r = evaluate(&model2, &store2, &dataset.test, &dataset.schema, 128);
    assert!((r.auc - out.test.auc).abs() < 1e-12, "{} vs {}", r.auc, out.test.auc);
    assert!((r.logloss - out.test.logloss).abs() < 1e-9);
}

/// SSL-trained embeddings must place same-interest items closer together
/// than random item pairs — the representational claim behind MISS.
#[test]
fn ssl_pulls_same_interest_items_together() {
    let world = miss::data::World::generate(WorldConfig::tiny(), 201);
    let dataset = Dataset::from_world(&world, 201);
    let mut store = ParamStore::new();
    let mut rng = Rng::new(2);
    let model = Din::new(&mut store, &dataset.schema, &ModelConfig::default(), &mut rng);
    let miss = Miss::new(&mut store, model.embedding(), MissConfig::default(), &mut rng);
    let mut adam = Adam::new(1e-2, 0.0);

    // Train with the SSL loss only, so any structure is attributable to it.
    for _ in 0..8 {
        let mut shuffle = rng.fork(3);
        for batch in BatchIter::new(&dataset.train, &dataset.schema, 64, Some(&mut shuffle)) {
            let mut g = Graph::new(&store);
            let Some(loss) = miss::core::SslMethod::ssl_loss(
                &miss,
                &mut g,
                &store,
                model.embedding(),
                &batch,
                &mut rng,
            ) else {
                continue;
            };
            let grads = g.tape.backward(loss);
            adam.step(&mut store, &g, grads);
        }
    }

    // Compare cosine similarity of same-interest vs cross-interest item pairs.
    let item_table = model.embedding().table(1);
    let table = store.table_ref(item_table);
    let cos = |a: u32, b: u32| -> f64 {
        let ra = table.gather(&[a]);
        let rb = table.gather(&[b]);
        let dot: f32 = ra.as_slice().iter().zip(rb.as_slice()).map(|(x, y)| x * y).sum();
        let na: f32 = ra.as_slice().iter().map(|x| x * x).sum::<f32>().sqrt();
        let nb: f32 = rb.as_slice().iter().map(|x| x * x).sum::<f32>().sqrt();
        (dot / (na * nb).max(1e-9)) as f64
    };
    let mut same = Vec::new();
    let mut cross = Vec::new();
    let mut pair_rng = Rng::new(4);
    for _ in 0..600 {
        let i = pair_rng.below(world.items.len()) as u32 + 1;
        let j = pair_rng.below(world.items.len()) as u32 + 1;
        if i == j {
            continue;
        }
        if world.item(i).interest == world.item(j).interest {
            same.push(cos(i, j));
        } else {
            cross.push(cos(i, j));
        }
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    assert!(
        mean(&same) > mean(&cross) + 0.03,
        "same-interest similarity {:.3} not above cross-interest {:.3}",
        mean(&same),
        mean(&cross)
    );
}

/// Early stopping must restore the best-validation weights: continuing to
/// train past the best epoch cannot degrade the reported test metrics.
#[test]
fn early_stopping_restores_best_weights() {
    let dataset = tiny_dataset(202);
    let run = |max_epochs: usize| {
        let mut store = ParamStore::new();
        let mut rng = Rng::new(5);
        let model = Din::new(&mut store, &dataset.schema, &ModelConfig::default(), &mut rng);
        let cfg = TrainConfig {
            max_epochs,
            patience: 100, // never stop early; rely on best-epoch restore
            seed: 5,
            ..TrainConfig::default()
        };
        fit(&model, None, &mut store, &dataset, &cfg).expect("fit")
    };
    let short = run(4);
    let long = run(30);
    // The long run saw every epoch the short one did, so its best validation
    // AUC can only be >= the short run's.
    assert!(
        long.valid.auc >= short.valid.auc - 1e-9,
        "best-epoch tracking lost a better epoch: {} vs {}",
        long.valid.auc,
        short.valid.auc
    );
}

/// The CNN extractor must produce *distinguishable but related* views while
/// the SA extractor's views collapse — the paper's Figure 5 claim, asserted
/// as an invariant at init.
#[test]
fn extractor_similarity_ordering_at_init() {
    let dataset = tiny_dataset(203);
    let refs: Vec<&Sample> = dataset.train.iter().take(32).collect();
    let batch = Batch::from_samples(&refs, &dataset.schema);
    let sim_of = |kind: ExtractorKind| {
        let mut store = ParamStore::new();
        let mut rng = Rng::new(6);
        let model = Din::new(&mut store, &dataset.schema, &ModelConfig::default(), &mut rng);
        let miss = Miss::new(
            &mut store,
            model.embedding(),
            MissConfig::with_extractor(kind),
            &mut rng,
        );
        let mut g = Graph::new(&store);
        miss.probe_similarity(&mut g, &store, model.embedding(), &batch, &mut rng)
    };
    let cnn = sim_of(ExtractorKind::Cnn);
    let sa = sim_of(ExtractorKind::SelfAttention);
    assert!(sa > 0.98, "SA views should be nearly identical: {sa}");
    assert!(cnn < 0.95, "CNN views must stay distinguishable: {cnn}");
    assert!(cnn > 0.2, "CNN views of one interest must stay related: {cnn}");
}

/// Dropout must be inert at evaluation time: two evaluations of the same
/// model must agree exactly even though training used dropout.
#[test]
fn evaluation_is_deterministic() {
    let dataset = tiny_dataset(204);
    let mut store = ParamStore::new();
    let mut rng = Rng::new(7);
    let mc = ModelConfig {
        dropout: 0.3,
        ..ModelConfig::default()
    };
    let model = Din::new(&mut store, &dataset.schema, &mc, &mut rng);
    let cfg = TrainConfig {
        max_epochs: 2,
        patience: 0,
        ..TrainConfig::default()
    };
    fit(&model, None, &mut store, &dataset, &cfg).expect("fit");
    let a = evaluate(&model, &store, &dataset.test, &dataset.schema, 64);
    let b = evaluate(&model, &store, &dataset.test, &dataset.schema, 64);
    assert_eq!(a.auc, b.auc);
    assert_eq!(a.logloss, b.logloss);
}

/// Batch-size independence of evaluation: scoring in chunks of 32 or 512
/// must give identical metrics (catches cross-sample leakage in the batched
/// attention kernels).
#[test]
fn evaluation_is_batch_size_invariant() {
    let dataset = tiny_dataset(205);
    let mut store = ParamStore::new();
    let mut rng = Rng::new(8);
    let model = Din::new(&mut store, &dataset.schema, &ModelConfig::default(), &mut rng);
    let small = evaluate(&model, &store, &dataset.test, &dataset.schema, 32);
    let large = evaluate(&model, &store, &dataset.test, &dataset.schema, 512);
    assert!(
        (small.auc - large.auc).abs() < 1e-9,
        "batched attention leaked across samples: {} vs {}",
        small.auc,
        large.auc
    );
}

/// Logits must be identical for a sample whether it is alone in a batch or
/// packed with others (strict per-sample isolation).
#[test]
fn per_sample_isolation_in_forward() {
    let dataset = tiny_dataset(206);
    let mut store = ParamStore::new();
    let mut rng = Rng::new(9);
    let model = Din::new(&mut store, &dataset.schema, &ModelConfig::default(), &mut rng);
    let refs: Vec<&Sample> = dataset.train.iter().take(5).collect();
    let batch = Batch::from_samples(&refs, &dataset.schema);
    let mut g = Graph::new(&store);
    let mut opts = miss::models::ForwardOpts {
        training: false,
        rng: &mut rng,
    };
    let joint = model.forward(&mut g, &store, &batch, &mut opts);
    let joint_vals: Vec<f32> = g.tape.value(joint).as_slice().to_vec();
    for (i, s) in refs.iter().enumerate() {
        let single = Batch::from_samples(&[s], &dataset.schema);
        let mut g1 = Graph::new(&store);
        let mut o1 = miss::models::ForwardOpts {
            training: false,
            rng: &mut rng,
        };
        let y = model.forward(&mut g1, &store, &single, &mut o1);
        let v = g1.tape.value(y).item();
        assert!(
            (v - joint_vals[i]).abs() < 1e-4,
            "sample {i} logit differs alone vs batched: {v} vs {}",
            joint_vals[i]
        );
    }
}

/// Tensor sanity under the exact batch shapes the experiments use.
#[test]
fn batched_kernels_match_naive_on_experiment_shapes() {
    let b = 7;
    let l = 10;
    let k = 10;
    let seq = Tensor::from_fn(b * l, k, |i, j| ((i * 31 + j * 17) % 23) as f32 * 0.1 - 1.0);
    let cand = Tensor::from_fn(b, k, |i, j| ((i * 13 + j * 7) % 19) as f32 * 0.1 - 0.9);
    let scores = seq.bmm_nt(&cand, b);
    for bi in 0..b {
        for p in 0..l {
            let manual: f32 = (0..k)
                .map(|d| seq.get(bi * l + p, d) * cand.get(bi, d))
                .sum();
            assert!((scores.get(bi * l + p, 0) - manual).abs() < 1e-4);
        }
    }
}
