//! `train_din_miss`: DIN + MISS (default `MissConfig`) trained on
//! amazon-cds-sim at scale 4 with `TrainConfig::default()`.
//!
//! Batch 128 is below `parallel_min_rows`, so every minibatch takes the
//! one-thread path the paper tables use. `core`, `autograd` and `nn` do
//! almost all the work; `serve` only scores the test split at the end.

use crate::trace::{timed, Recorder, Timed};
use crate::{peak_rss_mb, repeated_setup, trace_path, Opts, Report};
use miss::core::{Miss, MissConfig, SslMethod};
use miss::data::{Batch, Dataset, Sample, WorldConfig};
use miss::models::{CtrModel, ForwardOpts, ModelConfig};
use miss::nn::{Adam, DenseId, Graph, ParamStore};
use miss::serve::{evaluate_frozen, FrozenArch, FrozenModel};
use miss::tensor::Tensor;
use miss::trainer::{train_epoch, BaseModel, TrainConfig};
use miss::util::Rng;
use std::time::Instant;

const SCALE: f64 = 4.0;

/// Training rows per second assumed when turning `--seconds` into a fixed
/// epoch count. The count depends only on the arguments, never on measured
/// speed, so every run of a seed does the same work and lands on the same
/// weights; a faster trainer simply finishes sooner.
const NOMINAL_ROWS_PER_S: f64 = 5000.0;

/// Test AUC the trained model must beat. Every seed tried while the
/// benchmark was written scored above 0.83.
const TEST_AUC_FLOOR: f64 = 0.75;

/// Everything one training run carries between epochs, built exactly as
/// `Experiment::run` and `fit` build it (same registration order, same
/// init and epoch RNG derivation), so the init matches a real DIN-MISS run.
struct Learner {
    store: ParamStore,
    model: Box<dyn CtrModel>,
    ssl: Miss,
    adam: Adam,
    rng: Rng,
}

fn learner(dataset: &Dataset, cfg: &TrainConfig) -> Learner {
    let mut store = ParamStore::new();
    let mut rng = Rng::new(cfg.seed ^ 0xE9);
    let model = BaseModel::Din.build(
        &mut store,
        &dataset.schema,
        &ModelConfig::default(),
        &mut rng,
    );
    let ssl = Miss::new(
        &mut store,
        model.embedding(),
        MissConfig::default(),
        &mut rng,
    );
    Learner {
        store,
        model,
        ssl,
        adam: Adam::new(cfg.lr, cfg.l2),
        rng: Rng::new(cfg.seed ^ 0xF17),
    }
}

/// Steps attempted, steps that failed or needed recovery, and whether the
/// epoch's mean loss was finite.
struct EpochResult {
    steps: u64,
    failed: u64,
    loss_finite: bool,
}

fn epoch_untraced(l: &mut Learner, dataset: &Dataset, cfg: &TrainConfig) -> EpochResult {
    let o = train_epoch(
        l.model.as_ref(),
        Some(&l.ssl as &dyn SslMethod),
        &mut l.store,
        &mut l.adam,
        dataset,
        cfg,
        &mut l.rng,
        true,
    );
    EpochResult {
        steps: (o.batches + o.skipped_steps) as u64,
        failed: (o.recovered_panics + o.retried_non_finite + o.skipped_steps) as u64,
        loss_finite: o.mean_loss.is_finite(),
    }
}

/// Per-step counts gathered beside the spans.
#[derive(Default)]
struct StepCounts {
    steps: u64,
    tape_nodes: u64,
    sparse_grad_rows: u64,
}

/// `train_epoch`'s one-thread path with a span around each layer call:
/// the same shuffle, the same per-minibatch RNG fork, the same loss
/// composition and scaling, the same finiteness guard and Adam step. It
/// must land on the same weights as `train_epoch`, which the caller checks
/// through `params_fingerprint`.
fn epoch_traced(
    l: &mut Learner,
    dataset: &Dataset,
    cfg: &TrainConfig,
    rec: &mut Recorder,
    counts: &mut StepCounts,
) -> EpochResult {
    let schema = &dataset.schema;
    let (model, ssl) = (l.model.as_ref(), &l.ssl);
    let mut shuffle_rng = l.rng.fork(0xEE0C);
    let mut order: Vec<usize> = (0..dataset.train.len()).collect();
    shuffle_rng.shuffle(&mut order);
    let dense_ids = l.store.dense_ids();
    let mut graph = Graph::new(&l.store);
    let mut out = EpochResult {
        steps: 0,
        failed: 0,
        loss_finite: true,
    };
    let mut total = 0.0f64;
    let mut pos = 0;
    while pos < order.len() {
        let end = (pos + cfg.batch_size).min(order.len());
        let mb_rows = end - pos;
        assert!(
            mb_rows < cfg.parallel_min_rows,
            "the traced loop mirrors only the one-thread path"
        );
        let refs: Vec<&Sample> = order[pos..end].iter().map(|&i| &dataset.train[i]).collect();
        let mut wrng = l.rng.fork(0x51AD);
        let step_id = counts.steps;
        let step_start = Instant::now();
        let store = &l.store;

        let (batch, t_batch) = timed("data.batch", || Batch::from_samples(&refs, schema));
        let g = &mut graph;
        g.reset(store);
        let bindings: Vec<(DenseId, _)> = dense_ids
            .iter()
            .map(|&id| (id, g.param(store, id)))
            .collect();
        let mut opts = ForwardOpts {
            training: true,
            rng: &mut wrng,
        };
        let (loss, t_fwd) = timed("models.forward", || {
            let logits = model.forward(g, store, &batch, &mut opts);
            let labels = Tensor::from_vec(batch.size, 1, batch.labels.clone());
            let mut loss = g.tape.bce_with_logits_mean(logits, labels);
            if let Some(extra) = model.extra_loss(g, store, &batch, &mut opts) {
                let e = g.tape.scale(extra, cfg.extra_loss_weight);
                loss = g.tape.add(loss, e);
            }
            loss
        });
        let (aux, t_ssl) = timed("core.ssl_loss", || {
            ssl.ssl_loss(g, store, model.embedding(), &batch, opts.rng)
        });
        let loss = match aux {
            Some(a) => g.tape.add(loss, a),
            None => loss,
        };
        let scaled = g.tape.scale(loss, batch.size as f32 / mb_rows as f32);
        let value = g.tape.value(scaled).item() as f64;
        counts.tape_nodes += g.tape.len() as u64;
        let (grads, t_bwd) = timed("autograd.backward", || g.tape.backward(scaled));
        counts.sparse_grad_rows += grads
            .sparse
            .iter()
            .map(|s| s.indices.len() as u64)
            .sum::<u64>();
        let finite = value.is_finite()
            && bindings
                .iter()
                .all(|&(_, v)| grads.get(v).is_none_or(|t| !t.has_non_finite()))
            && grads.sparse.iter().all(|s| !s.grad_rows.has_non_finite());
        let mut children = vec![t_batch, t_fwd, t_ssl, t_bwd];
        if finite {
            let ((), t_adam) = timed("nn.adam", || {
                l.adam.step_with_bindings(&mut l.store, &bindings, grads)
            });
            children.push(t_adam);
            total += value;
        } else {
            out.failed += 1;
        }
        let step = rec.push(
            Timed {
                name: "trainer.step",
                start: step_start,
                end: Instant::now(),
            },
            None,
            step_id,
        );
        for c in children {
            rec.push(c, Some(step), step_id);
        }
        counts.steps += 1;
        out.steps += 1;
        pos = end;
    }
    let committed = out.steps - out.failed;
    out.loss_finite = committed == 0 || (total / committed as f64).is_finite();
    out
}

fn test_auc(l: &Learner, dataset: &Dataset) -> f64 {
    let frozen = FrozenModel::freeze(&l.store, &dataset.schema, FrozenArch::Din)
        .expect("a DIN-MISS store freezes as DIN");
    evaluate_frozen(&frozen, &dataset.test, &dataset.schema, 256)
        .expect("the test split matches the frozen schema")
        .auc
}

fn tally(report: &mut Report, e: &EpochResult) {
    report.attempted += e.steps;
    report.failed += e.failed;
    report.correct &= e.loss_finite;
}

pub fn run(opts: &Opts) -> Report {
    let cfg = TrainConfig {
        seed: opts.seed,
        ..TrainConfig::default()
    };
    let ((dataset, mut plain), setup_s) = repeated_setup(|| {
        let dataset = Dataset::generate(WorldConfig::amazon_cds(SCALE), opts.seed);
        let l = learner(&dataset, &cfg);
        (dataset, l)
    });
    let rows = dataset.train.len();
    // A traced run splits its time between an untraced and a traced
    // learner, alternating epochs so host drift hits both alike.
    let budget = if opts.trace {
        opts.seconds / 2.0
    } else {
        opts.seconds
    };
    let epochs = ((budget * NOMINAL_ROWS_PER_S / rows as f64).round() as usize).max(1);
    let mut report = Report {
        correct: true,
        attempted: 0,
        failed: 0,
        metrics: Vec::new(),
    };
    eprintln!("train_din_miss: {rows} training rows, {epochs} epochs, setup {setup_s:.3}s");

    if !opts.trace {
        let t0 = Instant::now();
        for _ in 0..epochs {
            let e = epoch_untraced(&mut plain, &dataset, &cfg);
            tally(&mut report, &e);
        }
        let secs = t0.elapsed().as_secs_f64();
        let auc = test_auc(&plain, &dataset);
        eprintln!("train_din_miss: test AUC {auc}");
        if auc.is_nan() || auc <= TEST_AUC_FLOOR {
            eprintln!("train_din_miss: test AUC {auc} is not above the floor {TEST_AUC_FLOOR}");
            report.correct = false;
        }
        report.metric("setup_s", setup_s, "s");
        report.metric("rows_per_s", (rows * epochs) as f64 / secs, "rows/s");
        report.metric("peak_rss_mb", peak_rss_mb(), "MiB");
        return report;
    }

    let mut traced = learner(&dataset, &cfg);
    let mut rec = Recorder::new();
    let mut counts = StepCounts::default();
    let (mut plain_s, mut traced_s) = (0.0, 0.0);
    for _ in 0..epochs {
        let t0 = Instant::now();
        let e = epoch_untraced(&mut plain, &dataset, &cfg);
        plain_s += t0.elapsed().as_secs_f64();
        tally(&mut report, &e);
        let t0 = Instant::now();
        let e = epoch_traced(&mut traced, &dataset, &cfg, &mut rec, &mut counts);
        traced_s += t0.elapsed().as_secs_f64();
        tally(&mut report, &e);
    }
    if traced.store.params_fingerprint() != plain.store.params_fingerprint() {
        eprintln!("train_din_miss: the traced loop did not reproduce train_epoch's weights");
        report.correct = false;
    }
    if let Err(e) = rec.write_jsonl(&trace_path(opts)) {
        eprintln!("train_din_miss: could not write the trace: {e}");
        report.correct = false;
    }
    let krows = (rows * epochs) as f64 / 1000.0;
    let self_ns = rec.self_times();
    let per_krow = |name: &str| self_ns.get(name).map_or(0, |e| e.0) as f64 / 1e6 / krows;
    report.metric("core.ssl_loss_ms", per_krow("core.ssl_loss"), "ms/1k_rows");
    report.metric(
        "models.forward_ms",
        per_krow("models.forward"),
        "ms/1k_rows",
    );
    report.metric(
        "autograd.backward_ms",
        per_krow("autograd.backward"),
        "ms/1k_rows",
    );
    report.metric("nn.adam_ms", per_krow("nn.adam"), "ms/1k_rows");
    report.metric("data.batch_ms", per_krow("data.batch"), "ms/1k_rows");
    report.metric(
        "trainer.unattributed_ms",
        per_krow("trainer.step"),
        "ms/1k_rows",
    );
    let steps = counts.steps.max(1) as f64;
    report.metric(
        "autograd.tape_nodes",
        counts.tape_nodes as f64 / steps,
        "count",
    );
    report.metric(
        "nn.sparse_grad_rows",
        counts.sparse_grad_rows as f64 / steps,
        "count",
    );
    report.metric(
        "trace.overhead_pct",
        (traced_s - plain_s) / plain_s * 100.0,
        "%",
    );
    report
}
