//! Determinism regression: two `fit()` runs with the same seed must be
//! bit-identical — same per-epoch training losses, same final AUC/logloss.
//! This is the guard rail future parallelism PRs must keep green (any
//! nondeterministic reduction order or unseeded concurrency breaks it).

use miss_core::{Miss, MissConfig};
use miss_data::{BatchIter, Dataset, WorldConfig};
use miss_models::{CtrModel, Dien, Din, ModelConfig};
use miss_nn::{Adam, ParamStore};
use miss_trainer::{evaluate, fit, micro_batch_len, train_epoch, TrainConfig};
use miss_util::Rng;

fn quick_cfg(seed: u64) -> TrainConfig {
    TrainConfig {
        max_epochs: 3,
        patience: 1,
        batch_size: 64,
        seed,
        ..TrainConfig::default()
    }
}

/// Every float of the outcome, as raw bits, so comparison is exact.
fn fit_fingerprint(with_miss: bool) -> (u64, u64, u64, u64, usize) {
    let dataset = Dataset::generate(WorldConfig::tiny(), 21);
    let mut store = ParamStore::new();
    let mut rng = Rng::new(4);
    let model = Din::new(&mut store, &dataset.schema, &ModelConfig::default(), &mut rng);
    let miss;
    let ssl: Option<&dyn miss_core::SslMethod> = if with_miss {
        miss = Miss::new(&mut store, model.embedding(), MissConfig::default(), &mut rng);
        Some(&miss)
    } else {
        None
    };
    let out = fit(&model, ssl, &mut store, &dataset, &quick_cfg(4));
    (
        out.test.auc.to_bits(),
        out.test.logloss.to_bits(),
        out.valid.auc.to_bits(),
        out.valid.logloss.to_bits(),
        out.epochs,
    )
}

#[test]
fn fit_is_bit_identical_across_runs() {
    assert_eq!(
        fit_fingerprint(false),
        fit_fingerprint(false),
        "plain fit() must be bit-reproducible for a fixed seed"
    );
}

#[test]
fn fit_with_miss_is_bit_identical_across_runs() {
    assert_eq!(
        fit_fingerprint(true),
        fit_fingerprint(true),
        "fit() with the MISS SSL plug-in must be bit-reproducible"
    );
}

#[test]
fn train_epoch_loss_is_bit_identical_across_runs() {
    let run = || {
        let dataset = Dataset::generate(WorldConfig::tiny(), 33);
        let mut store = ParamStore::new();
        let mut rng = Rng::new(11);
        let model = Din::new(&mut store, &dataset.schema, &ModelConfig::default(), &mut rng);
        let cfg = quick_cfg(11);
        let mut adam = Adam::new(cfg.lr, cfg.l2);
        let mut epoch_rng = Rng::new(cfg.seed);
        let out = train_epoch(
            &model,
            None,
            &mut store,
            &mut adam,
            &dataset,
            &cfg,
            &mut epoch_rng,
            true,
        );
        out.mean_loss.to_bits()
    };
    assert_eq!(run(), run(), "mean epoch loss must be bit-reproducible");
}

#[test]
fn evaluate_is_bit_identical_across_thread_counts() {
    // evaluate() fans batch chunks over the miss-parallel pool; the ordered
    // chunk concatenation plus the kernels' fixed accumulation order must
    // make the metrics bit-identical for any MISS_THREADS value.
    let dataset = Dataset::generate(WorldConfig::tiny(), 21);
    let mut store = ParamStore::new();
    let mut rng = Rng::new(4);
    let model = Din::new(&mut store, &dataset.schema, &ModelConfig::default(), &mut rng);
    let run = |threads: usize| {
        miss_parallel::with_threads(threads, || {
            let r = evaluate(&model, &store, &dataset.test, &dataset.schema, 64);
            (r.auc.to_bits(), r.logloss.to_bits())
        })
    };
    let serial = run(1);
    for threads in [2, 4] {
        assert_eq!(serial, run(threads), "evaluate differs at {threads} threads");
    }
}

#[test]
fn evaluate_batch_size_does_not_change_scores() {
    // Chunking follows the batch count; different batch sizes regroup the
    // forward passes but score the same samples in the same order.
    let dataset = Dataset::generate(WorldConfig::tiny(), 21);
    let mut store = ParamStore::new();
    let mut rng = Rng::new(4);
    let model = Din::new(&mut store, &dataset.schema, &ModelConfig::default(), &mut rng);
    let a = evaluate(&model, &store, &dataset.test, &dataset.schema, 64);
    let b = evaluate(&model, &store, &dataset.test, &dataset.schema, 17);
    assert!((a.auc - b.auc).abs() < 1e-9, "{} vs {}", a.auc, b.auc);
    assert!((a.logloss - b.logloss).abs() < 1e-6);
}

/// The model families whose training paths differ structurally: plain DIN,
/// DIEN (auxiliary loss + per-graph forward state), and DIN with the MISS
/// SSL plug-in (rng-dependent tape structure).
#[derive(Clone, Copy)]
enum Family {
    Din,
    Dien,
    DinMiss,
}

/// Run a full 3-epoch `fit()` under the given thread count and return the
/// bitwise fingerprint of every final weight plus the outcome metrics' raw
/// bits.
fn train_fingerprint(family: Family, threads: usize) -> (u64, u64, u64) {
    let dataset = Dataset::generate(WorldConfig::tiny(), 21);
    let mut store = ParamStore::new();
    let mut rng = Rng::new(4);
    let cfg = quick_cfg(4);
    miss_parallel::with_threads(threads, || {
        let out = match family {
            Family::Din => {
                let model = Din::new(&mut store, &dataset.schema, &ModelConfig::default(), &mut rng);
                fit(&model, None, &mut store, &dataset, &cfg)
            }
            Family::Dien => {
                let model =
                    Dien::new(&mut store, &dataset.schema, &ModelConfig::default(), &mut rng);
                fit(&model, None, &mut store, &dataset, &cfg)
            }
            Family::DinMiss => {
                let model = Din::new(&mut store, &dataset.schema, &ModelConfig::default(), &mut rng);
                let miss =
                    Miss::new(&mut store, model.embedding(), MissConfig::default(), &mut rng);
                fit(&model, Some(&miss), &mut store, &dataset, &cfg)
            }
        };
        (
            store.params_fingerprint(),
            out.test.auc.to_bits(),
            out.test.logloss.to_bits(),
        )
    })
}

#[test]
fn trained_weights_bit_identical_across_thread_counts() {
    // The tentpole contract: micro-batch boundaries, per-micro RNG streams,
    // and the gradient reduction order are all thread-count independent, so
    // the fitted weights must match to the last bit.
    for family in [Family::Din, Family::Dien, Family::DinMiss] {
        let serial = train_fingerprint(family, 1);
        for threads in [2, 4] {
            assert_eq!(
                serial,
                train_fingerprint(family, threads),
                "fit() weights differ at {threads} threads"
            );
        }
    }
}

#[test]
fn train_epoch_loss_bit_identical_across_thread_counts() {
    let run = |threads: usize| {
        let dataset = Dataset::generate(WorldConfig::tiny(), 33);
        let mut store = ParamStore::new();
        let mut rng = Rng::new(11);
        let model = Din::new(&mut store, &dataset.schema, &ModelConfig::default(), &mut rng);
        let cfg = quick_cfg(11);
        let mut adam = Adam::new(cfg.lr, cfg.l2);
        let mut epoch_rng = Rng::new(cfg.seed);
        miss_parallel::with_threads(threads, || {
            let out = train_epoch(
                &model,
                None,
                &mut store,
                &mut adam,
                &dataset,
                &cfg,
                &mut epoch_rng,
                true,
            );
            (out.mean_loss.to_bits(), store.params_fingerprint())
        })
    };
    let serial = run(1);
    for threads in [2, 4] {
        assert_eq!(serial, run(threads), "train_epoch differs at {threads} threads");
    }
}

#[test]
fn micro_batch_len_is_a_pure_function_of_batch_size() {
    let a = miss_parallel::with_threads(1, || micro_batch_len(128));
    let b = miss_parallel::with_threads(8, || micro_batch_len(128));
    assert_eq!(a, b);
    assert_eq!(micro_batch_len(128), 16, "paper batch 128 -> 8 micros of 16");
    assert_eq!(micro_batch_len(64), 16, "batch 64 -> 4 micros of 16");
    assert_eq!(micro_batch_len(7), 16, "small batches stay one micro");
    assert_eq!(micro_batch_len(1024), 128);
}

#[test]
fn batch_iteration_order_is_deterministic() {
    let dataset = Dataset::generate(WorldConfig::tiny(), 55);
    let collect = || {
        let mut shuffle_rng = Rng::new(77);
        BatchIter::new(&dataset.train, &dataset.schema, 32, Some(&mut shuffle_rng))
            .map(|b| b.labels.iter().map(|&l| l as u32).sum::<u32>())
            .collect::<Vec<u32>>()
    };
    assert_eq!(collect(), collect(), "shuffled batch order must follow the seed");
}
