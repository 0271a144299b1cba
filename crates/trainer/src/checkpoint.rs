//! The training protocol in one place: [`Trainer`] runs the paper's epoch
//! loop (DESIGN.md §2) and owns all of its state, a [`TrainProgress`]: the
//! epoch, the Adam step and RNG stream, the phase schedule, the
//! best validation epoch with its weights (the Adam
//! moments live in the store). A checkpoint is the store plus that progress,
//! so a run killed after any epoch and continued with [`Trainer::resume`]
//! trains, stops and reports exactly like one that never stopped, for every
//! `MISS_THREADS` (`tests/chaos.rs`).

use crate::evaluate::evaluate;
use crate::fit::{train_epoch, EpochOutcome, FitOutcome, TrainConfig};
use crate::EvalResult;
use miss_codec::{Best, TrainProgress};
use miss_core::SslMethod;
use miss_data::Dataset;
use miss_models::CtrModel;
use miss_nn::{Adam, ParamStore};
use miss_util::{MissError, Rng};

/// RNG stream of validated training (joint, or fine-tuning after the
/// optimiser restart).
const FIT_STREAM: u64 = 0xF17;
/// RNG stream of SSL-only pre-training.
const PRETRAIN_STREAM: u64 = 0x9E7;
/// Rows per scored batch when validating and testing.
const EVAL_BATCH: usize = 256;

/// The training loop and its resumable state. Construct with
/// [`Trainer::new`] (joint training), [`Trainer::pretraining`] (two-stage)
/// or [`Trainer::resume`]; drive it with [`Trainer::run`], or epoch by epoch
/// with [`Trainer::train_epoch`].
pub struct Trainer {
    cfg: TrainConfig,
    progress: TrainProgress,
}

impl Trainer {
    /// Fresh joint run (MISS-Joint, the paper's default): CTR and SSL losses
    /// together from the first epoch, Adam at `cfg.lr`/`cfg.l2` and the RNG
    /// stream `cfg.seed ^ 0xF17`.
    pub fn new(cfg: TrainConfig) -> Trainer {
        Trainer::start(cfg, None, FIT_STREAM)
    }

    /// Fresh two-stage run (MISS-Pre, Table IX): `pretrain_epochs` SSL-only
    /// epochs on the stream `cfg.seed ^ 0x9E7`, then CTR-only fine-tuning as
    /// a fresh joint run would start it — the Adam step counter restarts and
    /// the RNG is re-seeded to `cfg.seed ^ 0xF17`, while the moments carry
    /// over in the store.
    pub fn pretraining(cfg: TrainConfig, pretrain_epochs: usize) -> Trainer {
        let stream = if pretrain_epochs == 0 { FIT_STREAM } else { PRETRAIN_STREAM };
        Trainer::start(cfg, Some(pretrain_epochs as u64), stream)
    }

    fn start(cfg: TrainConfig, pretrain_epochs: Option<u64>, stream: u64) -> Trainer {
        let (rng_state, rng_inc) = Rng::new(cfg.seed ^ stream).state_parts();
        let progress = TrainProgress {
            epoch: 0,
            step: 0,
            rng_state,
            rng_inc,
            pretrain_epochs,
            best: None,
        };
        Trainer { cfg, progress }
    }

    /// Epochs completed so far, pre-training included.
    pub fn epoch(&self) -> u64 {
        self.progress.epoch
    }

    /// The run's resumable state, as a checkpoint stores it.
    pub fn progress(&self) -> &TrainProgress {
        &self.progress
    }

    fn in_pretraining(&self) -> bool {
        self.progress.pretrain_epochs.is_some_and(|n| self.progress.epoch < n)
    }

    /// Whether the protocol has stopped: pre-training is over and either
    /// `max_epochs` validated epochs have run or validation AUC has not
    /// improved for more than `patience` of them. Every validated epoch
    /// either sets a new best or is a bad one, so the bad epochs are those
    /// since the best epoch, or all validated epochs when none was best.
    fn finished(&self) -> bool {
        let p = &self.progress;
        let validated = p.epoch.saturating_sub(p.pretrain_epochs.unwrap_or(0));
        let bad = p.best.as_ref().map_or(validated, |b| p.epoch - b.epoch);
        !self.in_pretraining()
            && (validated >= self.cfg.max_epochs as u64 || bad > self.cfg.patience as u64)
    }

    /// One epoch of the protocol. The phase picks the losses: both in a
    /// joint run, `ssl`'s alone in pre-training, the CTR loss alone in
    /// fine-tuning. Outside pre-training the epoch is then validated, and a
    /// better validation AUC becomes the new best epoch with a snapshot of
    /// `store`.
    ///
    /// An epoch in which the non-finite guard rejected every step fails
    /// with [`MissError::NonFinite`]: the run is poisoned, not unlucky.
    pub fn train_epoch(
        &mut self,
        model: &dyn CtrModel,
        ssl: Option<&dyn SslMethod>,
        store: &mut ParamStore,
        dataset: &Dataset,
    ) -> Result<EpochOutcome, MissError> {
        let pretraining = self.in_pretraining();
        let p = &mut self.progress;
        let (ssl, ctr_loss) = match (p.pretrain_epochs, pretraining) {
            (None, _) => (ssl, true),
            (Some(_), true) => (ssl, false),
            (Some(_), false) => (None, true),
        };
        let mut adam = Adam::new(self.cfg.lr, self.cfg.l2);
        adam.restore_steps(p.step);
        let mut rng = Rng::from_state_parts(p.rng_state, p.rng_inc);
        let out =
            train_epoch(model, ssl, store, &mut adam, dataset, &self.cfg, &mut rng, ctr_loss);
        p.epoch += 1;
        p.step = adam.steps();
        (p.rng_state, p.rng_inc) = rng.state_parts();
        if out.batches == 0 && out.skipped_steps > 0 {
            return Err(MissError::non_finite(format!(
                "epoch {}: all {} minibatch steps were skipped",
                p.epoch, out.skipped_steps
            )));
        }
        if pretraining {
            if p.pretrain_epochs == Some(p.epoch) {
                // Pre-training is over: the optimiser schedule restarts.
                p.step = 0;
                (p.rng_state, p.rng_inc) = Rng::new(self.cfg.seed ^ FIT_STREAM).state_parts();
            }
            return Ok(out);
        }
        let valid = evaluate(model, store, &dataset.valid, &dataset.schema, EVAL_BATCH);
        if valid.auc > p.best.as_ref().map_or(f64::NEG_INFINITY, |b| b.auc) {
            p.best = Some(Best {
                epoch: p.epoch,
                auc: valid.auc,
                logloss: valid.logloss,
                weights: store.snapshot(),
            });
        }
        Ok(out)
    }

    /// Run the protocol to its end: train epochs until it stops, calling
    /// `after_epoch` (the checkpoint hook) after each, then restore the
    /// best-validation weights into `store` and score the test split. A
    /// resumed run that had already finished trains no further epoch and
    /// reports the same outcome.
    pub fn run(
        &mut self,
        model: &dyn CtrModel,
        ssl: Option<&dyn SslMethod>,
        store: &mut ParamStore,
        dataset: &Dataset,
        mut after_epoch: impl FnMut(&Trainer, &ParamStore) -> Result<(), MissError>,
    ) -> Result<FitOutcome, MissError> {
        let mut skipped_steps = 0;
        while !self.finished() {
            skipped_steps += self.train_epoch(model, ssl, store, dataset)?.skipped_steps;
            after_epoch(self, store)?;
        }
        let (auc, logloss) = match &self.progress.best {
            Some(best) => {
                store.restore(&best.weights);
                (best.auc, best.logloss)
            }
            None => (f64::NEG_INFINITY, f64::INFINITY),
        };
        Ok(FitOutcome {
            test: evaluate(model, store, &dataset.test, &dataset.schema, EVAL_BATCH),
            valid: EvalResult { auc, logloss },
            epochs: self.progress.epoch as usize,
            skipped_steps,
        })
    }

    /// Continue a checkpointed run from the progress a `miss_codec` load
    /// returned; the load has put the latest weights and moments in the
    /// store. A parameter export carries no progress: typed corruption.
    pub fn resume(cfg: TrainConfig, progress: Option<TrainProgress>) -> Result<Trainer, MissError> {
        match progress {
            Some(progress) => Ok(Trainer { cfg, progress }),
            None => Err(MissError::corrupt(
                "progress",
                "checkpoint has no progress section; it is a parameter export, not a resumable checkpoint",
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use miss_data::WorldConfig;
    use miss_models::{Din, ModelConfig};

    fn quick_cfg(seed: u64) -> TrainConfig {
        TrainConfig {
            max_epochs: 2,
            patience: 0,
            batch_size: 64,
            seed,
            ..TrainConfig::default()
        }
    }

    /// Pins the Adam/RNG derivation `Trainer::new` documents; the benchmark
    /// package's training workload builds the same state by hand.
    #[test]
    fn trainer_matches_fit_epoch_loop() {
        let dataset = Dataset::generate(WorldConfig::tiny(), 41);
        let cfg = quick_cfg(4);
        // fit-style manual loop
        let mut s1 = ParamStore::new();
        let mut r1 = Rng::new(9);
        let m1 = Din::new(&mut s1, &dataset.schema, &ModelConfig::default(), &mut r1);
        let mut adam = Adam::new(cfg.lr, cfg.l2);
        let mut rng = Rng::new(cfg.seed ^ 0xF17);
        for _ in 0..2 {
            train_epoch(&m1, None, &mut s1, &mut adam, &dataset, &cfg, &mut rng, true);
        }
        // Trainer loop
        let mut s2 = ParamStore::new();
        let mut r2 = Rng::new(9);
        let m2 = Din::new(&mut s2, &dataset.schema, &ModelConfig::default(), &mut r2);
        let mut trainer = Trainer::new(cfg);
        while trainer.epoch() < 2 {
            trainer.train_epoch(&m2, None, &mut s2, &dataset).unwrap();
        }
        assert_eq!(s1.params_fingerprint(), s2.params_fingerprint());
    }

    #[test]
    fn resume_requires_a_progress_section() {
        let dataset = Dataset::generate(WorldConfig::tiny(), 43);
        let mut store = ParamStore::new();
        let mut rng = Rng::new(3);
        let _m = Din::new(&mut store, &dataset.schema, &ModelConfig::default(), &mut rng);
        // A params-only artifact (no trainer progress).
        let arch = crate::Experiment::new(crate::BaseModel::Din, crate::SslKind::None).arch();
        let bytes = miss_codec::save_to_vec(&store, &arch, None).unwrap();
        let progress = miss_codec::load_from_slice(&bytes, &arch, &mut store).unwrap();
        match Trainer::resume(quick_cfg(3), progress) {
            Ok(_) => panic!("resume from a params-only artifact must fail"),
            Err(err) => assert!(
                matches!(err, MissError::Corrupt { section: "progress", .. }),
                "{err}"
            ),
        }
    }
}
