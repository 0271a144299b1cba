//! Checkpointed training: an epoch-stepped trainer whose interrupted runs
//! resume **bitwise identically**.
//!
//! [`Trainer`] owns the mutable training state that [`crate::fit`] steps
//! between epochs — the Adam instance (step counter + per-parameter moments
//! live in the store), the training RNG stream, and the epoch counter.
//! [`Trainer::save_checkpoint`] writes all of it through `miss-codec`;
//! [`Trainer::resume_from`] restores it, so
//!
//! ```text
//! train k epochs ── save ── load ── train n-k epochs
//! ```
//!
//! produces the same `params_fingerprint` as `n` uninterrupted epochs, for
//! every `MISS_THREADS` (regression-tested in `tests/end_to_end.rs`).

use crate::fit::{train_epoch, EpochOutcome, TrainConfig};
use miss_codec::TrainProgress;
use miss_core::SslMethod;
use miss_data::Dataset;
use miss_models::CtrModel;
use miss_nn::{Adam, ParamStore};
use miss_util::{MissError, Rng};
use std::path::Path;

/// Epoch-stepped training loop state with save/resume.
///
/// Construct with [`Trainer::new`] for a fresh run (the state [`crate::fit`]
/// starts from) or [`Trainer::resume_from`] to continue an interrupted one.
pub struct Trainer {
    cfg: TrainConfig,
    adam: Adam,
    rng: Rng,
    epoch: u64,
}

impl Trainer {
    /// Fresh trainer: Adam at `cfg.lr`/`cfg.l2` and the epoch RNG seeded
    /// from `cfg.seed`. [`crate::fit`] steps one of these, so a
    /// `Trainer`-driven loop reproduces `fit`'s per-epoch weights bit for
    /// bit.
    pub fn new(cfg: TrainConfig) -> Trainer {
        let adam = Adam::new(cfg.lr, cfg.l2);
        let rng = Rng::new(cfg.seed ^ 0xF17);
        Trainer {
            cfg,
            adam,
            rng,
            epoch: 0,
        }
    }

    /// Epochs completed so far.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The training configuration this trainer runs under.
    pub fn config(&self) -> &TrainConfig {
        &self.cfg
    }

    /// Run one training epoch (CTR loss on, plus `ssl`'s auxiliary loss when
    /// given). Returns the epoch's [`EpochOutcome`] (mean loss plus any
    /// recovery/skip counters).
    pub fn train_epoch(
        &mut self,
        model: &dyn CtrModel,
        ssl: Option<&dyn SslMethod>,
        store: &mut ParamStore,
        dataset: &Dataset,
    ) -> EpochOutcome {
        let out = train_epoch(
            model,
            ssl,
            store,
            &mut self.adam,
            dataset,
            &self.cfg,
            &mut self.rng,
            true,
        );
        self.epoch += 1;
        out
    }

    fn progress(&self) -> TrainProgress {
        let (rng_state, rng_inc) = self.rng.state_parts();
        TrainProgress {
            epoch: self.epoch,
            step: self.adam.steps(),
            rng_state,
            rng_inc,
        }
    }

    /// Checkpoint `store` plus this trainer's progress to `path`.
    pub fn save_checkpoint(&self, store: &ParamStore, path: &Path) -> Result<(), MissError> {
        miss_codec::save_to_path(path, store, Some(&self.progress()))
    }

    /// [`Trainer::save_checkpoint`] into an in-memory buffer.
    pub fn save_checkpoint_bytes(&self, store: &ParamStore) -> Result<Vec<u8>, MissError> {
        miss_codec::save_to_vec(store, Some(&self.progress()))
    }

    /// [`Trainer::save_checkpoint`] with bounded retry on I/O errors
    /// (atomic per attempt — see `miss_codec::save_to_path_retrying`).
    pub fn save_checkpoint_retrying(
        &self,
        store: &ParamStore,
        path: &Path,
        policy: &miss_codec::RetryPolicy,
    ) -> Result<(), MissError> {
        miss_codec::save_to_path_retrying(path, store, Some(&self.progress()), policy)
    }

    /// Checkpoint into `ring`'s slot for the current epoch (atomic + retry),
    /// pruning the ring afterwards. Returns the slot path written.
    pub fn save_to_ring(
        &self,
        store: &ParamStore,
        ring: &crate::ring::CheckpointRing,
        policy: &miss_codec::RetryPolicy,
    ) -> Result<std::path::PathBuf, MissError> {
        ring.save(store, &self.progress(), policy)
    }

    fn from_progress(cfg: TrainConfig, progress: Option<TrainProgress>) -> Result<Trainer, MissError> {
        let Some(p) = progress else {
            return Err(MissError::corrupt(
                "progress",
                "checkpoint has no progress section; it is a parameter export, not a resumable checkpoint",
            ));
        };
        let mut adam = Adam::new(cfg.lr, cfg.l2);
        adam.restore_steps(p.step);
        Ok(Trainer {
            cfg,
            adam,
            rng: Rng::from_state_parts(p.rng_state, p.rng_inc),
            epoch: p.epoch,
        })
    }

    /// Resume from a checkpoint file: loads parameters and moments into
    /// `store` (which must already hold the matching architecture) and
    /// rebuilds the trainer mid-stream. Fails with a typed error if the
    /// artifact is corrupt, mismatched, or carries no progress section.
    pub fn resume_from(
        cfg: TrainConfig,
        store: &mut ParamStore,
        path: &Path,
    ) -> Result<Trainer, MissError> {
        let progress = miss_codec::load_from_path(path, store)?;
        Trainer::from_progress(cfg, progress)
    }

    /// [`Trainer::resume_from`] over an in-memory buffer.
    pub fn resume_from_bytes(
        cfg: TrainConfig,
        store: &mut ParamStore,
        bytes: &[u8],
    ) -> Result<Trainer, MissError> {
        let progress = miss_codec::load_from_slice(bytes, store)?;
        Trainer::from_progress(cfg, progress)
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
            trainer.train_epoch(&m2, None, &mut s2, &dataset);
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
        let bytes = miss_codec::save_to_vec(&store, None).unwrap();
        match Trainer::resume_from_bytes(quick_cfg(3), &mut store, &bytes) {
            Ok(_) => panic!("resume from a params-only artifact must fail"),
            Err(err) => assert!(
                matches!(err, MissError::Corrupt { section: "progress", .. }),
                "{err}"
            ),
        }
    }
}
