//! Cross-crate integration tests: the full pipeline from world generation
//! through training to evaluation, exercising the public facade API.

use miss::core::{Miss, MissConfig, MissVariant, SslMethod};
use miss::data::{Dataset, WorldConfig};
use miss::models::{CtrModel, Din, Ipnn, ModelConfig};
use miss::nn::{Graph, ParamStore};
use miss::trainer::{fit, BaseModel, Experiment, SslKind, TrainConfig};
use miss::util::Rng;

fn quick_cfg(seed: u64) -> TrainConfig {
    TrainConfig {
        max_epochs: 8,
        patience: 2,
        batch_size: 64,
        seed,
        ..TrainConfig::default()
    }
}

/// DIN must clearly beat chance on the simulated world.
#[test]
fn din_beats_chance_end_to_end() {
    let dataset = Dataset::generate(WorldConfig::tiny(), 100);
    let mut store = ParamStore::new();
    let mut rng = Rng::new(0);
    let model = Din::new(&mut store, &dataset.schema, &ModelConfig::default(), &mut rng);
    let out = fit(&model, None, &mut store, &dataset, &quick_cfg(0)).expect("fit");
    assert!(out.test.auc > 0.62, "DIN end-to-end AUC {}", out.test.auc);
}

/// The headline claim at miniature scale: adding MISS to DIN improves mean
/// test AUC on a multi-interest world (averaged over 3 training seeds —
/// single-seed differences are noisy at this scale).
#[test]
fn miss_improves_din() {
    let dataset = Dataset::generate(WorldConfig::tiny(), 100);
    let mut base = 0.0;
    let mut enhanced = 0.0;
    for seed in 0..3u64 {
        {
            let mut store = ParamStore::new();
            let mut rng = Rng::new(seed);
            let model =
                Din::new(&mut store, &dataset.schema, &ModelConfig::default(), &mut rng);
            let out = fit(&model, None, &mut store, &dataset, &quick_cfg(seed)).expect("fit");
            base += out.test.auc;
        }
        {
            let mut store = ParamStore::new();
            let mut rng = Rng::new(seed);
            let model =
                Din::new(&mut store, &dataset.schema, &ModelConfig::default(), &mut rng);
            let miss =
                Miss::new(&mut store, model.embedding(), MissConfig::default(), &mut rng);
            let out = fit(&model, Some(&miss), &mut store, &dataset, &quick_cfg(seed));
            enhanced += out.expect("fit").test.auc;
        }
    }
    assert!(
        enhanced > base,
        "MISS did not improve DIN on average: {} -> {}",
        base / 3.0,
        enhanced / 3.0
    );
}

/// Compatibility (Table V shape): MISS must also improve IPNN.
#[test]
fn miss_improves_ipnn() {
    let dataset = Dataset::generate(WorldConfig::tiny(), 102);
    let base = {
        let mut store = ParamStore::new();
        let mut rng = Rng::new(2);
        let model = Ipnn::new(&mut store, &dataset.schema, &ModelConfig::default(), &mut rng);
        fit(&model, None, &mut store, &dataset, &quick_cfg(2)).expect("fit").test.auc
    };
    let enhanced = {
        let mut store = ParamStore::new();
        let mut rng = Rng::new(2);
        let model = Ipnn::new(&mut store, &dataset.schema, &ModelConfig::default(), &mut rng);
        let miss = Miss::new(&mut store, model.embedding(), MissConfig::default(), &mut rng);
        fit(&model, Some(&miss), &mut store, &dataset, &quick_cfg(2)).expect("fit").test.auc
    };
    assert!(
        enhanced > base - 0.01,
        "MISS severely hurt IPNN: {base} -> {enhanced}"
    );
}

/// The experiment registry must run a MISS variant end to end.
#[test]
fn registry_runs_variant_experiment() {
    let dataset = Dataset::generate(WorldConfig::tiny(), 103);
    let mut e = Experiment::new(
        BaseModel::Din,
        SslKind::Miss(MissConfig::variant(MissVariant::NoF)),
    );
    e.train_cfg.max_epochs = 2;
    e.train_cfg.patience = 0;
    let out = e.run(&dataset, 0).expect("run");
    assert!(out.test.auc.is_finite());
    assert!(out.test.logloss > 0.0);
}

/// The SSL loss must decrease over SSL-only training (the pretext task is
/// learnable).
#[test]
fn ssl_pretext_task_is_learnable() {
    use miss::data::BatchIter;
    use miss::nn::Adam;

    let dataset = Dataset::generate(WorldConfig::tiny(), 104);
    let mut store = ParamStore::new();
    let mut rng = Rng::new(4);
    let model = Din::new(&mut store, &dataset.schema, &ModelConfig::default(), &mut rng);
    let miss = Miss::new(&mut store, model.embedding(), MissConfig::default(), &mut rng);
    let mut adam = Adam::new(1e-2, 0.0);
    let mut first = None;
    let mut last = 0.0f32;
    for _ in 0..6 {
        let mut shuffle = rng.fork(9);
        for batch in BatchIter::new(&dataset.train, &dataset.schema, 64, Some(&mut shuffle)) {
            let mut g = Graph::new(&store);
            let Some(loss) = miss.ssl_loss(&mut g, &store, model.embedding(), &batch, &mut rng)
            else {
                continue;
            };
            last = g.tape.value(loss).item();
            if first.is_none() {
                first = Some(last);
            }
            let grads = g.tape.backward(loss);
            adam.step(&mut store, &g, grads);
        }
    }
    let first = first.expect("at least one SSL step");
    assert!(
        last < first * 0.9,
        "SSL loss did not decrease: {first} -> {last}"
    );
}

/// Down-sampled training data must hurt the base model (Table X premise).
#[test]
fn sparsity_transform_degrades_base_model() {
    let full = Dataset::generate(WorldConfig::tiny(), 105);
    let mut sparse = Dataset::generate(WorldConfig::tiny(), 105);
    let mut rng = Rng::new(5);
    sparse.downsample_train(0.4, &mut rng);
    let run = |d: &Dataset| {
        let mut store = ParamStore::new();
        let mut r = Rng::new(6);
        let model = Din::new(&mut store, &d.schema, &ModelConfig::default(), &mut r);
        fit(&model, None, &mut store, d, &quick_cfg(6)).expect("fit").test.auc
    };
    let a = run(&full);
    let b = run(&sparse);
    assert!(
        b < a + 0.02,
        "60% fewer labels should not help: full {a}, sparse {b}"
    );
}

/// Resume must be invisible: training 2 epochs straight vs training 1,
/// checkpointing, loading into a *fresh* differently-initialised process
/// image, and training 1 more must give bit-identical parameters — at
/// every thread count, since checkpoints may cross machine sizes.
#[test]
fn resume_is_bitwise_identical_to_uninterrupted_training() {
    use miss::trainer::Trainer;

    let dataset = Dataset::generate(WorldConfig::tiny(), 107);
    let cfg = quick_cfg(9);
    for threads in [1usize, 4] {
        miss::parallel::with_threads(threads, || {
            // Straight run: 2 epochs, no interruption.
            let mut store = ParamStore::new();
            let mut rng = Rng::new(9);
            let model =
                Din::new(&mut store, &dataset.schema, &ModelConfig::default(), &mut rng);
            let mut trainer = Trainer::new(cfg.clone());
            trainer.train_epoch(&model, None, &mut store, &dataset).expect("epoch");
            trainer.train_epoch(&model, None, &mut store, &dataset).expect("epoch");
            let straight = store.params_fingerprint();

            // Interrupted run: 1 epoch, save, resume elsewhere, 1 more.
            let mut s1 = ParamStore::new();
            let mut r1 = Rng::new(9);
            let m1 = Din::new(&mut s1, &dataset.schema, &ModelConfig::default(), &mut r1);
            let mut t1 = Trainer::new(cfg.clone());
            t1.train_epoch(&m1, None, &mut s1, &dataset).expect("epoch");
            let din_arch = Experiment::new(BaseModel::Din, SslKind::None).arch();
            let ckpt = miss::codec::save_to_vec(&s1, &din_arch, Some(t1.progress()))
                .expect("save checkpoint");

            let mut s2 = ParamStore::new();
            let mut r2 = Rng::new(1234); // different init, overwritten by resume
            let m2 = Din::new(&mut s2, &dataset.schema, &ModelConfig::default(), &mut r2);
            let progress = miss::codec::load_from_slice(&ckpt, &din_arch, &mut s2).expect("load checkpoint");
            let mut t2 = Trainer::resume(cfg.clone(), progress).expect("resume");
            assert_eq!(t2.epoch(), 1);
            t2.train_epoch(&m2, None, &mut s2, &dataset).expect("epoch");

            assert_eq!(
                straight,
                s2.params_fingerprint(),
                "resumed training diverged from uninterrupted at {threads} threads"
            );
        });
    }
}

/// Heavy label noise must hurt the base model (Table XI premise).
#[test]
fn noise_transform_degrades_base_model() {
    let clean = Dataset::generate(WorldConfig::tiny(), 106);
    let mut noisy = Dataset::generate(WorldConfig::tiny(), 106);
    let mut rng = Rng::new(7);
    noisy.swap_train_labels(0.35, &mut rng);
    let run = |d: &Dataset| {
        let mut store = ParamStore::new();
        let mut r = Rng::new(8);
        let model = Din::new(&mut store, &d.schema, &ModelConfig::default(), &mut r);
        fit(&model, None, &mut store, d, &quick_cfg(8)).expect("fit").test.auc
    };
    let a = run(&clean);
    let b = run(&noisy);
    assert!(b < a, "35% label noise must hurt: clean {a}, noisy {b}");
}
