//! Per-training-step latency of the main models, and the overhead the MISS
//! plug-in adds to a DIN step (the practical cost of Eq. 17's extra terms).

use miss_core::{Miss, MissConfig, SslMethod};
use miss_data::{Batch, Dataset, Sample, WorldConfig};
use miss_models::{CtrModel, Din, ForwardOpts, Ipnn, ModelConfig};
use miss_nn::{Adam, Graph, ParamStore};
use miss_tensor::Tensor;
use miss_testkit::bench::{black_box, BenchGroup};
use miss_trainer::{evaluate, train_epoch, TrainConfig};
use miss_util::Rng;

fn setup() -> (Dataset, Batch) {
    let dataset = Dataset::generate(WorldConfig::tiny(), 77);
    let refs: Vec<&Sample> = dataset.train.iter().take(64).collect();
    let batch = Batch::from_samples(&refs, &dataset.schema);
    (dataset, batch)
}

fn main() {
    let mut group = BenchGroup::new("training_step");
    group.sample_size(20);
    let (dataset, batch) = setup();

    group.bench_function("din_forward_backward_step", |bch| {
        let mut store = ParamStore::new();
        let mut rng = Rng::new(0);
        let model = Din::new(&mut store, &dataset.schema, &ModelConfig::default(), &mut rng);
        let mut adam = Adam::new(1e-2, 1e-4);
        bch.iter(|| {
            let mut g = Graph::new(&store);
            let mut opts = ForwardOpts {
                training: true,
                rng: &mut rng,
            };
            let logits = model.forward(&mut g, &store, &batch, &mut opts);
            let labels = Tensor::from_vec(batch.size, 1, batch.labels.clone());
            let loss = g.tape.bce_with_logits_mean(logits, labels);
            let grads = g.tape.backward(loss);
            adam.step(&mut store, &g, grads);
        })
    });

    group.bench_function("ipnn_forward_backward_step", |bch| {
        let mut store = ParamStore::new();
        let mut rng = Rng::new(0);
        let model = Ipnn::new(&mut store, &dataset.schema, &ModelConfig::default(), &mut rng);
        let mut adam = Adam::new(1e-2, 1e-4);
        bch.iter(|| {
            let mut g = Graph::new(&store);
            let mut opts = ForwardOpts {
                training: true,
                rng: &mut rng,
            };
            let logits = model.forward(&mut g, &store, &batch, &mut opts);
            let labels = Tensor::from_vec(batch.size, 1, batch.labels.clone());
            let loss = g.tape.bce_with_logits_mean(logits, labels);
            let grads = g.tape.backward(loss);
            adam.step(&mut store, &g, grads);
        })
    });

    group.bench_function("din_miss_joint_step", |bch| {
        let mut store = ParamStore::new();
        let mut rng = Rng::new(0);
        let model = Din::new(&mut store, &dataset.schema, &ModelConfig::default(), &mut rng);
        let miss = Miss::new(&mut store, model.embedding(), MissConfig::default(), &mut rng);
        let mut adam = Adam::new(1e-2, 1e-4);
        bch.iter(|| {
            let mut g = Graph::new(&store);
            let mut opts = ForwardOpts {
                training: true,
                rng: &mut rng,
            };
            let logits = model.forward(&mut g, &store, &batch, &mut opts);
            let labels = Tensor::from_vec(batch.size, 1, batch.labels.clone());
            let mut loss = g.tape.bce_with_logits_mean(logits, labels);
            if let Some(aux) =
                miss.ssl_loss(&mut g, &store, model.embedding(), &batch, &mut rng)
            {
                loss = g.tape.add(loss, aux);
            }
            let grads = g.tape.backward(loss);
            adam.step(&mut store, &g, grads);
        })
    });

    // `evaluate_valid_split` times the training-graph eval, which re-packs
    // every GEMM's B panels on each batch; the serving-side fix is measured
    // head-to-head in BENCH_data_pipeline.json (eval_graph_din vs
    // eval_frozen_din, pre-packed at freeze time).
    group.meta("eval_packing", "per-batch (frozen comparison in BENCH_data_pipeline.json)");
    group.bench_function("evaluate_valid_split", |bch| {
        let mut store = ParamStore::new();
        let mut rng = Rng::new(0);
        let model = Din::new(&mut store, &dataset.schema, &ModelConfig::default(), &mut rng);
        bch.iter(|| {
            black_box(evaluate(
                &model,
                &store,
                &dataset.valid,
                &dataset.schema,
                64,
            ))
        })
    });

    group.bench_function("miss_ssl_loss_only", |bch| {
        let mut store = ParamStore::new();
        let mut rng = Rng::new(0);
        let model = Din::new(&mut store, &dataset.schema, &ModelConfig::default(), &mut rng);
        let miss = Miss::new(&mut store, model.embedding(), MissConfig::default(), &mut rng);
        bch.iter(|| {
            let mut g = Graph::new(&store);
            miss.ssl_loss(&mut g, &store, model.embedding(), &batch, &mut rng)
        })
    });

    group.finish();

    // Whole-epoch wall clock, serial vs sharded, swept over minibatch size
    // so the crossover is visible in `BENCH_training.json`. "serial" forces
    // the unsharded single-micro path (`parallel_min_rows = usize::MAX`) at
    // one thread; "parallel" is the default adaptive config at four threads.
    // Same model, same data, same per-micro RNG streams — only scheduling
    // differs. `BENCH_training.json` is gated by scripts/ci.sh: the parallel
    // case must beat the serial one at the largest swept batch.
    let mut training = BenchGroup::new("training");
    training.sample_size(10);
    training.meta("isa", miss_tensor::detected_isa());
    training.meta(
        "miss_threads",
        &std::env::var("MISS_THREADS").unwrap_or_else(|_| "unset".into()),
    );
    // Large enough that the biggest swept minibatch is a full 4096 rows.
    let sweep_data = Dataset::generate(WorldConfig::amazon_cds(2.0), 77);
    let epoch_case = |name: &str, batch: usize, serial: bool, training: &mut BenchGroup| {
        let epoch_cfg = TrainConfig {
            batch_size: batch,
            parallel_min_rows: if serial {
                usize::MAX
            } else {
                TrainConfig::default().parallel_min_rows
            },
            ..TrainConfig::default()
        };
        let threads = if serial { 1 } else { 4 };
        training.bench_function(name, |bch| {
            let mut store = ParamStore::new();
            let mut rng = Rng::new(0);
            let model = Din::new(
                &mut store,
                &sweep_data.schema,
                &ModelConfig::default(),
                &mut rng,
            );
            let mut adam = Adam::new(epoch_cfg.lr, epoch_cfg.l2);
            let mut epoch_rng = Rng::new(0);
            bch.iter(|| {
                miss_parallel::with_threads(threads, || {
                    black_box(train_epoch(
                        &model,
                        None,
                        &mut store,
                        &mut adam,
                        &sweep_data,
                        &epoch_cfg,
                        &mut epoch_rng,
                        true,
                    ))
                })
            })
        });
    };
    for batch in [256usize, 1024, 4096] {
        epoch_case(&format!("train_epoch_serial_b{batch}"), batch, true, &mut training);
        epoch_case(&format!("train_epoch_parallel_b{batch}"), batch, false, &mut training);
    }
    training.finish();
}
