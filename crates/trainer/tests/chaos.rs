//! The chaos matrix: every injected fault kind × thread count must leave
//! training **bitwise identical** to an undisturbed run.
//!
//! Recovery is recomputation from pristine per-micro RNG clones, and fault
//! counters advance per attempt, so a one-shot fault fires once and the
//! retry reproduces exactly the bits the fault destroyed. Sticky faults
//! (which defeat the retry too) must skip the step without touching the
//! optimiser. The ring half of the matrix kills a run at every epoch
//! boundary — optionally corrupting the newest slot — and resumes, again to
//! bitwise-identical final weights. The protocol half kills whole runs —
//! joint, inside the early-stopping patience window, and two-stage, inside
//! pre-training and at the phase switch — and resumes them to the same
//! selected weights and the same reported metrics.

use miss_core::{Miss, MissConfig, SslMethod};
use miss_data::{Dataset, WorldConfig};
use miss_fault::{with_plan, FaultPlan};
use miss_models::{CtrModel, Din, ModelConfig};
use miss_nn::{Adam, ParamStore};
use miss_parallel::{with_threads, SITE_WORKER_PANIC};
use miss_trainer::{
    train_epoch, Arch, BaseModel, CheckpointRing, EpochOutcome, Experiment, FitOutcome, MissError,
    SslKind, TrainConfig, Trainer, SITE_BATCH_CORRUPT, SITE_NAN_GRAD, SITE_NAN_LOSS,
};
use miss_util::Rng;
use std::path::PathBuf;
use std::sync::OnceLock;

fn world() -> &'static Dataset {
    static DS: OnceLock<Dataset> = OnceLock::new();
    DS.get_or_init(|| Dataset::generate(WorldConfig::tiny(), 53))
}

fn chaos_cfg() -> TrainConfig {
    TrainConfig {
        batch_size: 64,
        seed: 7,
        // Force sharding so every minibatch really fans out over tasks and
        // `parallel.worker.panic` has a window to land in.
        parallel_min_rows: 0,
        ..TrainConfig::default()
    }
}

/// What a checkpoint of [`build`]'s model records.
fn din_arch() -> Arch {
    Experiment::new(BaseModel::Din, SslKind::None).arch()
}

fn build(seed: u64) -> (ParamStore, Din) {
    let mut store = ParamStore::new();
    let mut rng = Rng::new(seed);
    let model = Din::new(&mut store, &world().schema, &ModelConfig::default(), &mut rng);
    (store, model)
}

/// One epoch from scratch; returns the final weight fingerprint + outcome.
fn run_epoch() -> (u64, EpochOutcome) {
    let (mut store, model) = build(5);
    let cfg = chaos_cfg();
    let mut adam = Adam::new(cfg.lr, cfg.l2);
    let mut epoch_rng = Rng::new(cfg.seed);
    let out = train_epoch(
        &model, None, &mut store, &mut adam, world(), &cfg, &mut epoch_rng, true,
    );
    (store.params_fingerprint(), out)
}

struct Scratch(PathBuf);
impl Scratch {
    fn new(name: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!("miss-chaos-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch dir");
        Scratch(dir)
    }
}
impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn every_fault_kind_recovers_bitwise_identical_at_1_and_4_threads() {
    for threads in [1usize, 4] {
        let (base_fp, base_out) = with_threads(threads, run_epoch);
        assert_eq!(
            (base_out.recovered_panics, base_out.retried_non_finite, base_out.skipped_steps),
            (0, 0, 0),
            "clean run must not report recoveries"
        );
        // (site, trigger, expected recovered_panics, expected retried_non_finite)
        let matrix = [
            (SITE_WORKER_PANIC, 2u64, 1usize, 0usize),
            (SITE_NAN_LOSS, 1, 0, 1),
            (SITE_NAN_GRAD, 1, 0, 1),
            (SITE_BATCH_CORRUPT, 1, 0, 1),
        ];
        for (site, n, panics, retries) in matrix {
            let (fp, out) = with_plan(FaultPlan::empty().arm(site, n), || {
                with_threads(threads, run_epoch)
            });
            assert_eq!(
                fp, base_fp,
                "{site}@{n} at {threads} threads: recovered weights must be bit-identical"
            );
            assert_eq!(
                out.mean_loss.to_bits(),
                base_out.mean_loss.to_bits(),
                "{site}@{n} at {threads} threads: mean loss must be bit-identical"
            );
            assert_eq!(out.recovered_panics, panics, "{site}@{n} at {threads} threads");
            assert_eq!(out.retried_non_finite, retries, "{site}@{n} at {threads} threads");
            assert_eq!(out.skipped_steps, 0, "{site}@{n} must recover, not skip");
            assert_eq!(out.batches, base_out.batches);
        }
    }
}

#[test]
fn sticky_nan_skips_every_step_and_never_touches_the_optimiser() {
    for threads in [1usize, 4] {
        let (mut store, model) = build(5);
        let untouched = store.params_fingerprint();
        let cfg = chaos_cfg();
        let mut adam = Adam::new(cfg.lr, cfg.l2);
        let mut epoch_rng = Rng::new(cfg.seed);
        let out = with_plan(FaultPlan::empty().arm_sticky(SITE_NAN_LOSS, 1), || {
            with_threads(threads, || {
                train_epoch(
                    &model, None, &mut store, &mut adam, world(), &cfg, &mut epoch_rng, true,
                )
            })
        });
        assert_eq!(out.batches, 0, "no poisoned step may commit");
        assert!(out.skipped_steps > 0);
        assert_eq!(out.retried_non_finite, 2 * out.skipped_steps, "retry then skip, per minibatch");
        assert_eq!(out.mean_loss, 0.0);
        assert_eq!(
            store.params_fingerprint(),
            untouched,
            "skipped steps must leave the weights untouched"
        );
        assert_eq!(adam.steps(), 0, "skipped steps must not advance Adam");
    }
}

/// One rule for every path: checkpointed or not, an epoch whose every
/// step was skipped aborts the run with `NonFinite`.
#[test]
fn fully_poisoned_checkpointed_run_aborts_with_non_finite() {
    use miss_trainer::{BaseModel, Experiment, SslKind};
    let scratch = Scratch::new("poisoned");
    for checkpoint_out in [Some(scratch.0.join("run.ckpt")), None] {
        let mut e = Experiment::new(BaseModel::Din, SslKind::None);
        e.train_cfg = chaos_cfg();
        e.train_cfg.max_epochs = 1;
        e.checkpoint_out = checkpoint_out;
        let err = with_plan(FaultPlan::empty().arm_sticky(SITE_NAN_LOSS, 1), || {
            e.run(world(), 0).expect_err("poisoned run must abort")
        });
        assert!(
            matches!(err, MissError::NonFinite { .. }),
            "expected NonFinite, got {err}"
        );
    }
}

#[test]
fn ring_save_survives_a_write_crash_via_retry() {
    let scratch = Scratch::new("retry");
    let ring = CheckpointRing::new(&scratch.0, 3);
    let (mut store, model) = build(5);
    let mut trainer = Trainer::new(chaos_cfg());
    trainer.train_epoch(&model, None, &mut store, world()).expect("epoch");
    let path = with_plan(FaultPlan::empty().arm("codec.write.err", 100), || {
        ring.save(&store, &din_arch(), trainer.progress())
            .expect("attempt 1 crashes at byte 100, attempt 2 lands")
    });
    assert_eq!(path, ring.slot_path(1));
    let resumed = ring
        .resume_newest_valid(&chaos_cfg(), &din_arch(), || build(5))
        .expect("ring scan")
        .expect("slot 1 must be valid");
    assert_eq!(resumed.trainer.epoch(), 1);
    assert_eq!(resumed.store.params_fingerprint(), store.params_fingerprint());
}

/// The kill matrix: for every epoch boundary k, and for both a clean and a
/// corrupted newest slot, kill the run after k epochs and resume from the
/// ring; the finished run must match the uninterrupted one bit for bit.
/// (With the newest slot corrupt, resume falls back one epoch and retrains
/// it — same bits, one epoch more work.)
#[test]
fn kill_at_every_epoch_times_corruption_resumes_bitwise_identical() {
    const EPOCHS: u64 = 3;
    for threads in [1usize, 4] {
        let baseline = with_threads(threads, || {
            let (mut store, model) = build(5);
            let mut trainer = Trainer::new(chaos_cfg());
            while trainer.epoch() < EPOCHS {
                trainer.train_epoch(&model, None, &mut store, world()).expect("epoch");
            }
            store.params_fingerprint()
        });
        for kill_after in 1..=EPOCHS {
            for corrupt_newest in [false, true] {
                // Fallback needs an older slot to fall back to.
                if corrupt_newest && kill_after == 1 {
                    continue;
                }
                let scratch =
                    Scratch::new(&format!("kill-{threads}t-{kill_after}-{corrupt_newest}"));
                let ring = CheckpointRing::new(&scratch.0, 3);
                with_threads(threads, || {
                    // Phase 1: train to the kill point, checkpointing every
                    // epoch; then the process "dies" (state is dropped).
                    let (mut store, model) = build(5);
                    let mut trainer = Trainer::new(chaos_cfg());
                    while trainer.epoch() < kill_after {
                        trainer.train_epoch(&model, None, &mut store, world()).expect("epoch");
                        ring.save(&store, &din_arch(), trainer.progress()).expect("ring save");
                    }
                });
                if corrupt_newest {
                    let newest = ring.slot_path(kill_after);
                    let mut bytes = std::fs::read(&newest).expect("read newest slot");
                    let mid = bytes.len() / 2;
                    bytes[mid] ^= 0xFF;
                    std::fs::write(&newest, &bytes).expect("corrupt newest slot");
                }
                let final_fp = with_threads(threads, || {
                    // Phase 2: resurrect from the newest valid slot.
                    let resumed = ring
                        .resume_newest_valid(&chaos_cfg(), &din_arch(), || build(5))
                        .expect("ring scan")
                        .expect("ring must hold a valid slot");
                    let expect_epoch = if corrupt_newest { kill_after - 1 } else { kill_after };
                    assert_eq!(resumed.trainer.epoch(), expect_epoch, "resumed epoch");
                    let (mut store, model, mut trainer) =
                        (resumed.store, resumed.extra, resumed.trainer);
                    while trainer.epoch() < EPOCHS {
                        trainer.train_epoch(&model, None, &mut store, world()).expect("epoch");
                    }
                    store.params_fingerprint()
                });
                assert_eq!(
                    final_fp, baseline,
                    "kill after {kill_after} (corrupt newest: {corrupt_newest}) at {threads} \
                     threads must resume bitwise identical"
                );
            }
        }
    }
}

/// Everything a finished run reports and selects, as raw bits: test and
/// validation metrics, epochs, the selected weights, the Adam step and RNG
/// state it ended in, and its best epoch.
type RunBits = (u64, u64, u64, u64, usize, u64, (u64, u64), Option<u64>);

fn run_bits(out: &FitOutcome, store: &ParamStore, trainer: &Trainer) -> RunBits {
    let p = trainer.progress();
    (
        out.test.auc.to_bits(),
        out.test.logloss.to_bits(),
        out.valid.auc.to_bits(),
        out.valid.logloss.to_bits(),
        out.epochs,
        store.params_fingerprint(),
        (p.step, p.rng_state),
        p.best.as_ref().map(|b| b.epoch),
    )
}

/// A model, optionally with MISS attached, over a fresh store.
fn build_with(miss: bool) -> (ParamStore, Din, Option<Miss>) {
    let (mut store, model) = build(5);
    let ssl = miss.then(|| {
        let mut rng = Rng::new(6);
        Miss::new(&mut store, model.embedding(), MissConfig::default(), &mut rng)
    });
    (store, model, ssl)
}

/// Run `fresh(cfg)` to the end; with `kill_after`, die right after that
/// epoch's checkpoint instead, and finish the run from the checkpoint in a
/// freshly built process image.
fn run_killed(
    miss: bool,
    cfg: &TrainConfig,
    fresh: fn(TrainConfig) -> Trainer,
    kill_after: Option<u64>,
) -> RunBits {
    let (mut store, model, ssl) = build_with(miss);
    let ssl = ssl.as_ref().map(|m| m as &dyn SslMethod);
    let mut trainer = fresh(cfg.clone());
    let mut ckpt = Vec::new();
    let outcome = trainer.run(&model, ssl, &mut store, world(), |t, store| {
        if Some(t.epoch()) != kill_after {
            return Ok(());
        }
        ckpt = miss_codec::save_to_vec(store, &din_arch(), Some(t.progress()))?;
        Err(MissError::Io(std::io::Error::other("killed")))
    });
    if kill_after.is_none() {
        let out = outcome.expect("uninterrupted run");
        return run_bits(&out, &store, &trainer);
    }
    assert!(outcome.is_err(), "the run must die at the kill point");
    let (mut store, model, ssl) = build_with(miss);
    let ssl = ssl.as_ref().map(|m| m as &dyn SslMethod);
    let progress = miss_codec::load_from_slice(&ckpt, &din_arch(), &mut store).expect("load");
    let mut trainer = Trainer::resume(cfg.clone(), progress).expect("resume");
    let out = trainer.run(&model, ssl, &mut store, world(), |_, _| Ok(())).expect("resumed run");
    run_bits(&out, &store, &trainer)
}

/// A joint run killed at every epoch boundary — through the patience
/// window and at its very end, where the resumed run trains no further
/// epoch — finishes exactly like the uninterrupted one.
#[test]
fn joint_run_killed_at_every_epoch_resumes_to_the_same_selection() {
    let cfg = TrainConfig {
        max_epochs: 8,
        patience: 1,
        ..chaos_cfg()
    };
    for threads in [1usize, 4] {
        let baseline = with_threads(threads, || run_killed(false, &cfg, Trainer::new, None));
        let (epochs, best_epoch) = (baseline.4 as u64, baseline.7.expect("a best epoch"));
        assert!(
            epochs > best_epoch && epochs < 8,
            "the run must stop early, after a patience window (epochs {epochs}, best {best_epoch})"
        );
        for kill_after in 1..=epochs {
            let resumed =
                with_threads(threads, || run_killed(false, &cfg, Trainer::new, Some(kill_after)));
            assert_eq!(
                resumed, baseline,
                "joint run killed after epoch {kill_after} at {threads} threads"
            );
        }
    }
}

/// A two-stage (MISS-Pre) run killed inside pre-training, at the phase
/// switch and in fine-tuning finishes exactly like the uninterrupted one.
#[test]
fn pretraining_run_killed_mid_phase_and_at_the_switch_resumes_identically() {
    let cfg = TrainConfig {
        max_epochs: 2,
        ..chaos_cfg()
    };
    let fresh = |cfg| Trainer::pretraining(cfg, 2);
    for threads in [1usize, 4] {
        let baseline = with_threads(threads, || run_killed(true, &cfg, fresh, None));
        assert_eq!(baseline.4, 4, "two pre-training plus two fine-tuning epochs");
        for kill_after in 1..=3 {
            let resumed =
                with_threads(threads, || run_killed(true, &cfg, fresh, Some(kill_after)));
            assert_eq!(
                resumed, baseline,
                "MISS-Pre run killed after epoch {kill_after} at {threads} threads"
            );
        }
    }
}
