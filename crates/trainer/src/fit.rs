//! Fitting loops: joint multi-task training (Eq. 17) and the two-stage
//! pre-training alternative compared in Table IX.

use crate::checkpoint::Trainer;
use crate::evaluate::{evaluate, EvalResult};
use miss_autograd::{Grads, Var};
use miss_core::SslMethod;
use miss_data::{Batch, Dataset, Sample};
use miss_models::{CtrModel, ForwardOpts};
use miss_nn::{Adam, DenseId, Graph, ParamStore};
use miss_parallel::try_par_for_each_mut;
use miss_tensor::Tensor;
use miss_util::{MissError, Rng};

// The trainer fail-point sites poison the *outputs* of the first micro of
// the minibatch — the exact surface `check_step_finite` guards. They inject
// downstream of the autograd tape on purpose: the tape debug-asserts
// finiteness at record time, an earlier defense layer that would catch
// on-tape poison in debug builds; these sites model the release-build path
// where a non-finite value survives to the step guard.

/// Fail-point site consulted once per minibatch attempt on the dispatching
/// thread: replaces the first micro's scalar loss with NaN (miss-fault
/// table).
pub const SITE_NAN_LOSS: &str = "trainer.nan.loss";
/// Fail-point site: pokes NaN into the merged sparse gradient after the
/// reduction, leaving the loss finite — exercises the gradient half of the
/// step guard specifically.
pub const SITE_NAN_GRAD: &str = "trainer.nan.grad";
/// Fail-point site: pokes NaN into the first micro's own sparse gradient
/// before the reduction, simulating a corrupt minibatch whose garbage rows
/// surface as non-finite embedding gradients.
pub const SITE_BATCH_CORRUPT: &str = "trainer.batch.corrupt";

/// Training hyper-parameters (paper §VI-A5 ranges; defaults chosen from the
/// validation grid at our scale).
#[derive(Clone, Debug)]
pub struct TrainConfig {
    /// Adam learning rate.
    pub lr: f32,
    /// L2 regularisation weight.
    pub l2: f32,
    /// Mini-batch size (paper: 128).
    pub batch_size: usize,
    /// Upper bound on epochs.
    pub max_epochs: usize,
    /// Early-stopping patience (epochs without validation-AUC improvement).
    pub patience: usize,
    /// Seed for init-independent parts (shuffling, dropout, augmentation).
    pub seed: u64,
    /// Weight of a model's own auxiliary loss (DIEN), when present.
    pub extra_loss_weight: f32,
    /// Minibatches with fewer rows than this run as a single micro-batch on
    /// the caller's thread (no sharding, no gradient merge): below the
    /// measured crossover the per-shard graph and reduction overhead costs
    /// more than the parallelism returns. Like [`micro_batch_len`] this is a
    /// pure function of the minibatch size and the config — never of the
    /// thread count — so determinism across `MISS_THREADS` is unaffected.
    /// The default is the crossover measured by the `train_epoch_*` bench
    /// sweep (see `BENCH_training.json`); `usize::MAX` forces every
    /// minibatch serial, `0` forces sharding.
    pub parallel_min_rows: usize,
}

/// Default for [`TrainConfig::parallel_min_rows`]: the smallest swept
/// minibatch at which the sharded path beat the unsharded one.
pub const PARALLEL_MIN_ROWS_DEFAULT: usize = 256;

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            lr: 1e-2,
            l2: 1e-4,
            batch_size: 128,
            max_epochs: 15,
            patience: 2,
            seed: 0,
            extra_loss_weight: 0.5,
            parallel_min_rows: PARALLEL_MIN_ROWS_DEFAULT,
        }
    }
}

/// Outcome of a fit: metrics of the best-validation epoch.
#[derive(Clone, Debug)]
pub struct FitOutcome {
    /// Test metrics at the early-stopping point.
    pub test: EvalResult,
    /// Validation metrics at the early-stopping point.
    pub valid: EvalResult,
    /// Epochs actually run.
    pub epochs: usize,
    /// Minibatch steps skipped across all epochs because both the parallel
    /// and the serial attempt produced a non-finite or panicking step
    /// (DESIGN.md §9.4). Zero on a healthy run; a non-zero value means the
    /// metrics were fitted on fewer steps than the schedule prescribed.
    pub skipped_steps: usize,
}

/// Number of micro-batches a minibatch is cut into (before the
/// [`MIN_MICRO_ROWS`] floor). Like `miss_parallel::FIXED_CHUNKS` this is a
/// constant of the *computation*, never of the thread count.
pub const TRAIN_MICRO_CHUNKS: usize = 8;

/// Smallest useful micro-batch: below this the per-shard forward overhead
/// (and, for SSL, the in-batch negative pool) degrades faster than the
/// parallelism helps.
pub const MIN_MICRO_ROWS: usize = 16;

/// Rows per micro-batch for a minibatch of `batch` rows:
/// `ceil(batch / TRAIN_MICRO_CHUNKS)` raised to [`MIN_MICRO_ROWS`]. A pure
/// function of the minibatch size — micro boundaries (and therefore losses,
/// gradients, and the fitted weights) are identical for every `MISS_THREADS`.
pub fn micro_batch_len(batch: usize) -> usize {
    batch.div_ceil(TRAIN_MICRO_CHUNKS).max(MIN_MICRO_ROWS)
}

/// What a worker hands back per micro-batch: the scaled loss value, the raw
/// backward result, and the `(DenseId, Var)` bindings that give the grads
/// meaning once the worker's graph has been reset for its next shard.
struct MicroOut {
    loss: f64,
    grads: Grads,
    bindings: Vec<(DenseId, Var)>,
}

/// One micro-batch of work: the sample refs (batch assembly happens on the
/// worker) and the micro's own RNG stream, forked from the epoch RNG on the
/// main thread in micro index order so it is schedule-independent. `rng0` is
/// never advanced — workers clone it per attempt, so a recomputed minibatch
/// replays exactly the same randomness and stays bitwise identical.
struct MicroJob<'a> {
    refs: Vec<&'a Sample>,
    rng0: Rng,
    /// `trainer.nan.loss` armed for this micro on this attempt.
    poison_loss: bool,
    /// `trainer.batch.corrupt` armed for this micro on this attempt.
    poison_batch: bool,
}

/// A parallel task's long-lived slot: the reused graph plus this minibatch's
/// micro job and its output. Slots persist across minibatches so each micro
/// index keeps one tape arena (and one stable `Graph::id`) for the whole
/// epoch.
struct TrainSlot<'a> {
    graph: Graph,
    job: MicroJob<'a>,
    out: Option<MicroOut>,
}

/// What [`train_epoch`] did beyond the mean loss: how many minibatch steps
/// were committed vs skipped, and which recoveries happened on the way.
/// With no faults and healthy data, everything but `mean_loss` and
/// `batches` is zero.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct EpochOutcome {
    /// Mean training loss over committed minibatch steps.
    pub mean_loss: f64,
    /// Minibatch steps committed to the optimiser.
    pub batches: usize,
    /// Worker panics contained by the pool and answered with a serial
    /// recomputation of the minibatch.
    pub recovered_panics: usize,
    /// Non-finite losses/gradients that triggered a recomputation.
    pub retried_non_finite: usize,
    /// Minibatches abandoned after the retry also failed — no Adam step was
    /// taken for these, so optimiser state never saw a poisoned gradient.
    pub skipped_steps: usize,
}

/// One training epoch. `ssl` optionally contributes its (already weighted)
/// auxiliary loss; `ctr_loss` switches the main log-loss on/off (off during
/// SSL-only pre-training). Returns the [`EpochOutcome`].
///
/// Each minibatch is sharded into [`micro_batch_len`]-row micro-batches that
/// run forward + backward in parallel over the `miss-parallel` pool; every
/// micro's loss is scaled by `rows/batch` so the shard losses sum to the
/// minibatch mean, and gradients are folded in micro index order
/// ([`Grads::merge_ordered`]) before a single Adam step. The result is
/// bitwise identical for any `MISS_THREADS`.
///
/// # Self-healing (DESIGN.md §9)
///
/// Each minibatch gets at most two attempts. A worker panic (contained by
/// [`try_par_for_each_mut`]) or a non-finite loss/gradient on attempt 1
/// triggers a full serial recomputation from the jobs' pristine RNG clones —
/// bitwise identical to the parallel result by the determinism contract, so
/// a recovered epoch matches an undisturbed one exactly. If attempt 2 also
/// fails, the minibatch is skipped with a logged [`MissError`]: a poisoned
/// step is never committed to Adam state.
#[expect(
    clippy::too_many_arguments,
    reason = "the epoch threads model, SSL method, store, optimiser, data, config and RNG explicitly; none of them belong together in a struct"
)]
#[expect(
    clippy::indexing_slicing,
    reason = "micro windows lie inside pos..end <= order.len(), every one of the n_micros >= 1 micros has a slot once the jobs are placed, and the tree merge keeps i + gap < flat.len()"
)]
#[expect(
    clippy::needless_borrows_for_generic_args,
    reason = "both attempts dispatch the one run_slot closure by reference; kept as written on the training hot path"
)]
pub fn train_epoch(
    model: &dyn CtrModel,
    ssl: Option<&dyn SslMethod>,
    store: &mut ParamStore,
    adam: &mut Adam,
    dataset: &Dataset,
    cfg: &TrainConfig,
    rng: &mut Rng,
    ctr_loss: bool,
) -> EpochOutcome {
    let mut total = 0.0f64;
    let mut outcome = EpochOutcome::default();
    let mut shuffle_rng = rng.fork(0xEE0C);
    let mut order: Vec<usize> = (0..dataset.train.len()).collect();
    shuffle_rng.shuffle(&mut order);
    // Every micro-graph binds all dense params up front, in store order, so
    // the per-micro gradient lists can be zip-merged without any lookup.
    let dense_ids = store.dense_ids();
    let schema = &dataset.schema;
    let extra_loss_weight = cfg.extra_loss_weight;
    let mut slots: Vec<TrainSlot> = Vec::new();

    // Reused across minibatches: the micro outputs in micro order and the
    // (into, from) Var pairs the tree merge maps gradients through.
    let mut flat: Vec<Option<MicroOut>> = Vec::new();
    let mut pairs: Vec<(Var, Var)> = Vec::new();

    let mut pos = 0usize;
    while pos < order.len() {
        let end = (pos + cfg.batch_size).min(order.len());
        let mb_rows = end - pos;
        // Adaptive sizing: below the measured crossover the whole minibatch
        // is one micro, which `run_tasks` then executes inline on the
        // caller's thread — the true serial path, not a 1-thread pool trip.
        let micro_len = if mb_rows < cfg.parallel_min_rows {
            mb_rows
        } else {
            micro_batch_len(mb_rows)
        };
        let n_micros = mb_rows.div_ceil(micro_len);
        // Fork the per-micro RNG streams on the main thread, in micro order.
        for m in 0..n_micros {
            let ms = pos + m * micro_len;
            let me = (ms + micro_len).min(end);
            let job = MicroJob {
                refs: order[ms..me].iter().map(|&i| &dataset.train[i]).collect(),
                rng0: rng.fork(0x51AD),
                poison_loss: false,
                poison_batch: false,
            };
            match slots.get_mut(m) {
                Some(slot) => slot.job = job,
                None => slots.push(TrainSlot {
                    graph: Graph::new(store),
                    job,
                    out: None,
                }),
            }
        }

        // At most two attempts per minibatch: parallel, then (only after a
        // contained panic or a non-finite step) a full serial recomputation
        // from the jobs' pristine RNG clones. Both produce identical bits.
        for attempt in 1..=2u32 {
            for slot in slots[..n_micros].iter_mut() {
                slot.out = None;
                slot.job.poison_loss = false;
                slot.job.poison_batch = false;
            }
            // Fault probes run on the dispatching thread only (plans are
            // thread-local); counters advance once per attempt, so a
            // one-shot fault does not re-fire on the recomputation.
            if miss_fault::active() {
                let first = &mut slots[0].job;
                first.poison_loss = miss_fault::hit(SITE_NAN_LOSS);
                first.poison_batch = miss_fault::hit(SITE_BATCH_CORRUPT);
            }

            let store_ref: &ParamStore = &*store;
            let run_slot = |_t: usize, slot: &mut TrainSlot| {
                let job = &slot.job;
                // Clone, never advance, the pristine stream: a retried
                // attempt replays exactly the same randomness.
                let mut wrng = job.rng0.clone();
                let batch = Batch::from_samples(&job.refs, schema);
                let g = &mut slot.graph;
                g.reset(store_ref);
                let bindings: Vec<(DenseId, Var)> = dense_ids
                    .iter()
                    .map(|&id| (id, g.param(store_ref, id)))
                    .collect();
                let mut opts = ForwardOpts {
                    training: true,
                    rng: &mut wrng,
                };
                let mut loss = if ctr_loss {
                    let logits = model.forward(g, store_ref, &batch, &mut opts);
                    let labels = Tensor::from_vec(batch.size, 1, batch.labels.clone());
                    let mut l = g.tape.bce_with_logits_mean(logits, labels);
                    if let Some(extra) = model.extra_loss(g, store_ref, &batch, &mut opts) {
                        let w = g.tape.scale(extra, extra_loss_weight);
                        l = g.tape.add(l, w);
                    }
                    Some(l)
                } else {
                    None
                };
                if let Some(method) = ssl {
                    if let Some(aux) =
                        method.ssl_loss(g, store_ref, model.embedding(), &batch, opts.rng)
                    {
                        loss = Some(match loss {
                            Some(l) => g.tape.add(l, aux),
                            None => aux,
                        });
                    }
                }
                let mut out = loss.map(|l| {
                    // rows/batch weighting: the micro losses sum to the
                    // minibatch mean the serial loop used to compute.
                    let scaled = g.tape.scale(l, batch.size as f32 / mb_rows as f32);
                    let value = g.tape.value(scaled).item() as f64;
                    let grads = g.tape.backward(scaled);
                    MicroOut {
                        loss: value,
                        grads,
                        bindings,
                    }
                });
                if let Some(o) = out.as_mut() {
                    if job.poison_loss {
                        o.loss = f64::NAN;
                    }
                    if job.poison_batch {
                        if let Some(row) = o
                            .grads
                            .sparse
                            .first_mut()
                            .and_then(|sg| sg.grad_rows.as_mut_slice().first_mut())
                        {
                            *row = f32::NAN;
                        }
                    }
                }
                slot.out = out;
            };

            let dispatched = if attempt == 1 {
                try_par_for_each_mut(&mut slots[..n_micros], &run_slot)
            } else {
                // Serial recomputation: pinned to one thread, it is exactly
                // the unsharded schedule the determinism contract equates
                // with the parallel one (see the bit-identity tests).
                miss_parallel::with_threads(1, || {
                    try_par_for_each_mut(&mut slots[..n_micros], &run_slot)
                })
            };
            if let Err(e) = dispatched {
                outcome.recovered_panics += 1;
                if attempt == 1 {
                    eprintln!(
                        "miss-trainer: contained {e} (minibatch at row {pos}); recomputing serially"
                    );
                    continue;
                }
                eprintln!(
                    "miss-trainer: contained {e} (minibatch at row {pos}) again on the serial \
                     retry; skipping this minibatch"
                );
                outcome.skipped_steps += 1;
                break;
            }

            // Ordered reduction, pairwise in a fixed tree: take the outputs
            // in micro index order (slot order), then merge adjacent survivors
            // at doubling gaps — (0,1)(2,3)… then (0,2)(4,6)… then (0,4)…
            // The shape of the tree is a pure function of the micro count,
            // never the thread count, and adjacent-pair merging keeps the
            // concatenated sparse gradient stream in micro order, same as
            // the old left fold.
            flat.clear();
            let mut batch_loss = 0.0f64;
            for slot in slots[..n_micros].iter_mut() {
                let out = slot.out.take();
                if let Some(out) = &out {
                    batch_loss += out.loss;
                }
                flat.push(out);
            }
            // Every micro binds the dense params in store order on a freshly
            // reset graph, so the Var bindings are identical across micros;
            // one (into, from) list serves every merge in the tree.
            pairs.clear();
            if let Some(first) = flat.iter().flatten().next() {
                pairs.extend(first.bindings.iter().map(|&(_, v)| (v, v)));
                for out in flat.iter().flatten() {
                    assert_eq!(
                        first.bindings, out.bindings,
                        "micro-batches disagree on binding order"
                    );
                }
            }
            let mut gap = 1;
            while gap < flat.len() {
                let mut i = 0;
                while i + gap < flat.len() {
                    if let Some(right) = flat[i + gap].take() {
                        match &mut flat[i] {
                            Some(left) => left.grads.merge_ordered(right.grads, &pairs),
                            slot @ None => *slot = Some(right),
                        }
                    }
                    i += gap * 2;
                }
                gap *= 2;
            }
            if let Some(mut merged) = flat.first_mut().and_then(Option::take) {
                if miss_fault::active() && miss_fault::hit(SITE_NAN_GRAD) {
                    if let Some(sg) = merged.grads.sparse.first_mut() {
                        if let Some(x) = sg.grad_rows.as_mut_slice().first_mut() {
                            *x = f32::NAN;
                        }
                    }
                }
                // The step guard: a non-finite loss or gradient must never
                // reach Adam state. Retry once (a one-shot fault will not
                // re-fire), then skip the step with a typed, logged error.
                if let Err(what) = check_step_finite(batch_loss, &merged) {
                    let err =
                        MissError::non_finite(format!("minibatch at row {pos}: {what}"));
                    outcome.retried_non_finite += 1;
                    if attempt == 1 {
                        eprintln!("miss-trainer: {err}; recomputing serially");
                        continue;
                    }
                    eprintln!("miss-trainer: {err} again on the serial retry; skipping this step");
                    outcome.skipped_steps += 1;
                    break;
                }
                adam.step_with_bindings(store, &merged.bindings, merged.grads);
                total += batch_loss;
                outcome.batches += 1;
            }
            break;
        }
        pos = end;
    }
    outcome.mean_loss = if outcome.batches == 0 {
        0.0
    } else {
        total / outcome.batches as f64
    };
    outcome
}

/// The step guard's scan: `Ok` iff the minibatch loss and every merged
/// gradient (dense via the bindings, sparse rows) are finite. One
/// vectorized exponent-mask pass (`Tensor::has_non_finite`) over memory the
/// merge just touched.
fn check_step_finite(batch_loss: f64, merged: &MicroOut) -> Result<(), String> {
    if !batch_loss.is_finite() {
        return Err(format!("loss is {batch_loss}"));
    }
    for &(id, v) in &merged.bindings {
        if let Some(g) = merged.grads.get(v) {
            if g.has_non_finite() {
                return Err(format!("dense gradient of param {id:?} is non-finite"));
            }
        }
    }
    for sg in &merged.grads.sparse {
        if sg.grad_rows.has_non_finite() {
            return Err(format!(
                "sparse gradient of table {} is non-finite",
                sg.table_id
            ));
        }
    }
    Ok(())
}

/// Joint multi-task fit (the paper's default, "MISS-Joint"): minimise
/// `L_ll + α₁·L_ssl + α₂·L_ssl'` end to end with early stopping on
/// validation AUC; test metrics are reported at the best-validation epoch.
pub fn fit(
    model: &dyn CtrModel,
    ssl: Option<&dyn SslMethod>,
    store: &mut ParamStore,
    dataset: &Dataset,
    cfg: &TrainConfig,
) -> FitOutcome {
    let mut trainer = Trainer::new(cfg.clone());
    let mut best_valid = EvalResult {
        auc: f64::NEG_INFINITY,
        logloss: f64::INFINITY,
    };
    let mut best_snap = store.snapshot();
    let mut bad_epochs = 0usize;
    let mut skipped_steps = 0usize;
    for _ in 0..cfg.max_epochs {
        skipped_steps += trainer.train_epoch(model, ssl, store, dataset).skipped_steps;
        let valid = evaluate(model, store, &dataset.valid, &dataset.schema, 256);
        if valid.auc > best_valid.auc {
            best_valid = valid;
            best_snap = store.snapshot();
            bad_epochs = 0;
        } else {
            bad_epochs += 1;
            if bad_epochs > cfg.patience {
                break;
            }
        }
    }
    store.restore(&best_snap);
    let test = evaluate(model, store, &dataset.test, &dataset.schema, 256);
    FitOutcome {
        test,
        valid: best_valid,
        epochs: trainer.epoch() as usize,
        skipped_steps,
    }
}

/// Two-stage strategy ("MISS-Pre", Table IX): first optimise only the SSL
/// losses for `pretrain_epochs`, then fine-tune with the CTR loss alone.
pub fn fit_pretrain(
    model: &dyn CtrModel,
    ssl: &dyn SslMethod,
    store: &mut ParamStore,
    dataset: &Dataset,
    cfg: &TrainConfig,
    pretrain_epochs: usize,
) -> FitOutcome {
    let mut adam = Adam::new(cfg.lr, cfg.l2);
    let mut rng = Rng::new(cfg.seed ^ 0x9E7);
    let mut skipped_steps = 0usize;
    for _ in 0..pretrain_epochs {
        skipped_steps += train_epoch(
            model,
            Some(ssl),
            store,
            &mut adam,
            dataset,
            cfg,
            &mut rng,
            false,
        )
        .skipped_steps;
    }
    // Fine-tune with the main loss only (fresh optimiser state, same story
    // as re-initialising the heads on top of pre-trained embeddings).
    let mut out = fit(model, None, store, dataset, cfg);
    out.skipped_steps += skipped_steps;
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use miss_core::{Miss, MissConfig};
    use miss_data::WorldConfig;
    use miss_models::{Din, ModelConfig};

    fn quick_cfg(seed: u64) -> TrainConfig {
        TrainConfig {
            max_epochs: 6,
            patience: 2,
            batch_size: 64,
            seed,
            ..TrainConfig::default()
        }
    }

    #[test]
    fn fit_improves_over_untrained() {
        let dataset = Dataset::generate(WorldConfig::tiny(), 7);
        let mut store = ParamStore::new();
        let mut rng = Rng::new(5);
        let model = Din::new(&mut store, &dataset.schema, &ModelConfig::default(), &mut rng);
        let before = evaluate(&model, &store, &dataset.test, &dataset.schema, 128);
        let out = fit(&model, None, &mut store, &dataset, &quick_cfg(5));
        assert!(
            out.test.auc > before.auc + 0.05,
            "training did not help: {} -> {}",
            before.auc,
            out.test.auc
        );
        assert!(out.epochs >= 1);
    }

    #[test]
    fn fit_with_miss_runs_and_is_finite() {
        let dataset = Dataset::generate(WorldConfig::tiny(), 9);
        let mut store = ParamStore::new();
        let mut rng = Rng::new(6);
        let model = Din::new(&mut store, &dataset.schema, &ModelConfig::default(), &mut rng);
        let miss = Miss::new(&mut store, model.embedding(), MissConfig::default(), &mut rng);
        let out = fit(&model, Some(&miss), &mut store, &dataset, &quick_cfg(6));
        assert!(out.test.auc > 0.55, "DIN-MISS AUC {}", out.test.auc);
        assert!(out.test.logloss.is_finite());
    }

    #[test]
    fn pretrain_strategy_runs() {
        let dataset = Dataset::generate(WorldConfig::tiny(), 11);
        let mut store = ParamStore::new();
        let mut rng = Rng::new(8);
        let model = Din::new(&mut store, &dataset.schema, &ModelConfig::default(), &mut rng);
        let miss = Miss::new(&mut store, model.embedding(), MissConfig::default(), &mut rng);
        let out = fit_pretrain(&model, &miss, &mut store, &dataset, &quick_cfg(8), 2);
        assert!(out.test.auc > 0.55, "MISS-Pre AUC {}", out.test.auc);
    }

    /// The sharded path is adaptive (minibatches below `parallel_min_rows`
    /// run unsharded), so force sharding and pin the tree-merge reduction's
    /// bit-identity across thread counts.
    #[test]
    fn forced_sharding_bit_identical_across_threads() {
        let dataset = Dataset::generate(WorldConfig::tiny(), 17);
        let run = |threads: usize| {
            let mut store = ParamStore::new();
            let mut rng = Rng::new(9);
            let model = Din::new(&mut store, &dataset.schema, &ModelConfig::default(), &mut rng);
            let mut cfg = quick_cfg(9);
            cfg.parallel_min_rows = 0; // every minibatch shards
            let mut adam = Adam::new(cfg.lr, cfg.l2);
            let mut epoch_rng = Rng::new(cfg.seed);
            miss_parallel::with_threads(threads, || {
                let out = train_epoch(
                    &model, None, &mut store, &mut adam, &dataset, &cfg, &mut epoch_rng, true,
                );
                (out.mean_loss.to_bits(), store.params_fingerprint())
            })
        };
        let base = run(1);
        for threads in [2, 4] {
            assert_eq!(base, run(threads), "sharded @{threads}t");
        }
    }

    /// `parallel_min_rows` above the batch size and `usize::MAX` are the
    /// same serial path: the fallback is exact, not approximate.
    #[test]
    fn serial_fallback_is_exactly_the_unsharded_path() {
        let dataset = Dataset::generate(WorldConfig::tiny(), 19);
        let run = |min_rows: usize| {
            let mut store = ParamStore::new();
            let mut rng = Rng::new(3);
            let model = Din::new(&mut store, &dataset.schema, &ModelConfig::default(), &mut rng);
            let mut cfg = quick_cfg(3);
            cfg.parallel_min_rows = min_rows;
            let mut adam = Adam::new(cfg.lr, cfg.l2);
            let mut epoch_rng = Rng::new(cfg.seed);
            let out = train_epoch(
                &model, None, &mut store, &mut adam, &dataset, &cfg, &mut epoch_rng, true,
            );
            (out.mean_loss.to_bits(), store.params_fingerprint())
        };
        // quick_cfg batches are 64 rows; both values exceed that.
        assert_eq!(run(65), run(usize::MAX));
    }

    #[test]
    fn deterministic_given_seed() {
        let dataset = Dataset::generate(WorldConfig::tiny(), 13);
        let run = |seed| {
            let mut store = ParamStore::new();
            let mut rng = Rng::new(seed);
            let model =
                Din::new(&mut store, &dataset.schema, &ModelConfig::default(), &mut rng);
            fit(&model, None, &mut store, &dataset, &quick_cfg(seed)).test.auc
        };
        assert_eq!(run(3), run(3), "same seed must reproduce exactly");
    }
}
