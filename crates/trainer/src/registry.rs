//! Registry of base models and SSL methods so experiment binaries dispatch
//! by name, plus the [`Experiment`] runner (model × SSL × dataset × seeds).

use crate::checkpoint::Trainer;
use crate::evaluate::EvalResult;
use crate::fit::{FitOutcome, TrainConfig};
use crate::ring::CheckpointRing;
use miss_codec::Arch;
use miss_core::{Cl4SRec, Irssl, Miss, MissConfig, RuleSsl, S3Rec, SslMethod};
use miss_data::{Dataset, Schema};
use miss_models::{
    AutoIntPlus, CtrModel, Dcn, DcnKind, DeepFm, Dien, Din, Dmr, FiGnn, Fm, Ipnn, Lr, ModelConfig,
    SimSoft, XDeepFm,
};
use miss_nn::ParamStore;
use miss_util::{MissError, Rng};
use std::path::PathBuf;

/// Every base CTR model of Table IV.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BaseModel {
    /// Logistic regression.
    Lr,
    /// Factorisation machine.
    Fm,
    /// DeepFM.
    DeepFm,
    /// Inner-product neural network.
    Ipnn,
    /// Deep & Cross (vector).
    Dcn,
    /// Deep & Cross v2 (matrix).
    DcnM,
    /// xDeepFM (CIN).
    XDeepFm,
    /// Deep Interest Network.
    Din,
    /// Deep Interest Evolution Network.
    Dien,
    /// Search-based interest model, soft search.
    SimSoft,
    /// Deep Match to Rank.
    Dmr,
    /// AutoInt plus DNN.
    AutoIntPlus,
    /// Field graph neural network.
    FiGnn,
}

/// The Table IV roster in paper order.
pub const ALL_BASELINES: [BaseModel; 13] = [
    BaseModel::Lr,
    BaseModel::Fm,
    BaseModel::DeepFm,
    BaseModel::Ipnn,
    BaseModel::Dcn,
    BaseModel::DcnM,
    BaseModel::XDeepFm,
    BaseModel::Din,
    BaseModel::Dien,
    BaseModel::SimSoft,
    BaseModel::Dmr,
    BaseModel::AutoIntPlus,
    BaseModel::FiGnn,
];

impl BaseModel {
    /// Display name as in the paper's tables.
    pub fn label(self) -> &'static str {
        match self {
            BaseModel::Lr => "LR",
            BaseModel::Fm => "FM",
            BaseModel::DeepFm => "DeepFM",
            BaseModel::Ipnn => "IPNN",
            BaseModel::Dcn => "DCN",
            BaseModel::DcnM => "DCN-M",
            BaseModel::XDeepFm => "xDeepFM",
            BaseModel::Din => "DIN",
            BaseModel::Dien => "DIEN",
            BaseModel::SimSoft => "SIM(soft)",
            BaseModel::Dmr => "DMR",
            BaseModel::AutoIntPlus => "AutoInt+",
            BaseModel::FiGnn => "FiGNN",
        }
    }

    /// Parse a model label, case-insensitively (`"din"`, `"SIM(soft)"`).
    pub fn from_label(label: &str) -> Option<BaseModel> {
        ALL_BASELINES
            .into_iter()
            .find(|b| b.label().eq_ignore_ascii_case(label))
    }

    /// Construct the model over `store`.
    pub fn build(
        self,
        store: &mut ParamStore,
        schema: &Schema,
        cfg: &ModelConfig,
        rng: &mut Rng,
    ) -> Box<dyn CtrModel> {
        match self {
            BaseModel::Lr => Box::new(Lr::new(store, schema, cfg, rng)),
            BaseModel::Fm => Box::new(Fm::new(store, schema, cfg, rng)),
            BaseModel::DeepFm => Box::new(DeepFm::new(store, schema, cfg, rng)),
            BaseModel::Ipnn => Box::new(Ipnn::new(store, schema, cfg, rng)),
            BaseModel::Dcn => Box::new(Dcn::new(store, schema, cfg, DcnKind::Vector, rng)),
            BaseModel::DcnM => Box::new(Dcn::new(store, schema, cfg, DcnKind::Matrix, rng)),
            BaseModel::XDeepFm => Box::new(XDeepFm::new(store, schema, cfg, rng)),
            BaseModel::Din => Box::new(Din::new(store, schema, cfg, rng)),
            BaseModel::Dien => Box::new(Dien::new(store, schema, cfg, rng)),
            BaseModel::SimSoft => Box::new(SimSoft::new(store, schema, cfg, rng)),
            BaseModel::Dmr => Box::new(Dmr::new(store, schema, cfg, rng)),
            BaseModel::AutoIntPlus => Box::new(AutoIntPlus::new(store, schema, cfg, rng)),
            BaseModel::FiGnn => Box::new(FiGnn::new(store, schema, cfg, rng)),
        }
    }
}

/// Which SSL method (if any) is attached to the base model.
#[derive(Clone, Debug)]
pub enum SslKind {
    /// Base model alone.
    None,
    /// The MISS framework with the given configuration.
    Miss(MissConfig),
    /// Category-rule segmentation baseline.
    Rule,
    /// IRSSL feature masking.
    Irssl,
    /// S3Rec sequence–segment MIM.
    S3Rec,
    /// CL4SRec crop/mask/reorder.
    Cl4SRec,
}

impl SslKind {
    /// Suffix for experiment-table labels ("-MISS", "-Rule", ...).
    pub fn suffix(&self) -> &'static str {
        match self {
            SslKind::None => "",
            SslKind::Miss(_) => "-MISS",
            SslKind::Rule => "-Rule",
            SslKind::Irssl => "-IRSSL",
            SslKind::S3Rec => "-S3Rec",
            SslKind::Cl4SRec => "-CL4SRec",
        }
    }

    fn build(
        &self,
        store: &mut ParamStore,
        emb: &miss_models::EmbeddingLayer,
        rng: &mut Rng,
    ) -> Option<Box<dyn SslMethod>> {
        let alpha = 0.5;
        match self {
            SslKind::None => None,
            SslKind::Miss(cfg) => Some(Box::new(Miss::new(store, emb, cfg.clone(), rng))),
            SslKind::Rule => Some(Box::new(RuleSsl::new(store, emb, alpha, rng))),
            SslKind::Irssl => Some(Box::new(Irssl::new(store, emb, alpha, rng))),
            SslKind::S3Rec => Some(Box::new(S3Rec::new(store, emb, alpha, rng))),
            SslKind::Cl4SRec => Some(Box::new(Cl4SRec::new(store, emb, alpha, rng))),
        }
    }
}

/// One experimental cell: a base model, an optional SSL plug-in, and the
/// training configuration.
#[derive(Clone, Debug)]
pub struct Experiment {
    /// Base model.
    pub base: BaseModel,
    /// SSL attachment.
    pub ssl: SslKind,
    /// Model hyper-parameters.
    pub model_cfg: ModelConfig,
    /// Training hyper-parameters.
    pub train_cfg: TrainConfig,
    /// With an SSL method attached, use the two-stage strategy (Table IX)
    /// with this many SSL-only epochs; joint training otherwise. A resumed
    /// run keeps the schedule its checkpoint records.
    pub pretrain_epochs: Option<usize>,
    /// Resume [`Experiment::run`] from this checkpoint instead of starting
    /// fresh.
    pub resume_from: Option<PathBuf>,
    /// Where [`Experiment::run`] writes its checkpoint after every epoch.
    pub checkpoint_out: Option<PathBuf>,
    /// Maintain a [`CheckpointRing`] in this directory: one slot per epoch,
    /// pruned to [`Experiment::ring_keep`], resumed from the newest *valid*
    /// slot on start (corrupt slots are logged and skipped). Ignored when
    /// [`Experiment::resume_from`] names an explicit checkpoint.
    pub ring_dir: Option<PathBuf>,
    /// Ring retention (newest slots kept); clamped to ≥ 1.
    pub ring_keep: usize,
}

/// A built experiment's model and SSL plug-in.
type ModelAndSsl = (Box<dyn CtrModel>, Option<Box<dyn SslMethod>>);

/// Default [`Experiment::ring_keep`]: survive a corrupt newest slot with
/// slack to spare, without hoarding disk.
pub const RING_KEEP_DEFAULT: usize = 3;

impl Experiment {
    /// Joint-training experiment with default hyper-parameters.
    pub fn new(base: BaseModel, ssl: SslKind) -> Self {
        Experiment {
            base,
            ssl,
            model_cfg: ModelConfig::default(),
            train_cfg: TrainConfig::default(),
            pretrain_epochs: None,
            resume_from: None,
            checkpoint_out: None,
            ring_dir: None,
            ring_keep: RING_KEEP_DEFAULT,
        }
    }

    /// Table label, e.g. "DIN-MISS".
    pub fn label(&self) -> String {
        format!("{}{}", self.base.label(), self.ssl.suffix())
    }

    /// What this experiment's checkpoints record about its model: the base
    /// model's label and the widths its registration depends on. The SSL
    /// plug-in is not recorded; serving never reads it.
    pub fn arch(&self) -> Arch {
        Arch {
            model: self.base.label().to_string(),
            embed_dim: self.model_cfg.embed_dim,
            mlp_sizes: self.model_cfg.mlp_sizes.clone(),
        }
    }

    /// Register this experiment's parameters exactly as a training run with
    /// `seed` would — same base-then-SSL order, same init RNG stream — and
    /// return the populated store with the built model. A checkpoint written
    /// by that training run loads into the returned store bit-for-bit.
    pub fn build_model(&self, schema: &Schema, seed: u64) -> (ParamStore, Box<dyn CtrModel>) {
        let (store, (model, _ssl)) = self.build_with_ssl(schema, seed);
        (store, model)
    }

    /// The one registration site: a fresh store, the init RNG stream for
    /// `seed`, the base model, then the SSL plug-in on the same stream.
    fn build_with_ssl(&self, schema: &Schema, seed: u64) -> (ParamStore, ModelAndSsl) {
        let mut store = ParamStore::new();
        let mut rng = Rng::new(seed ^ 0xE9);
        let model = self.base.build(&mut store, schema, &self.model_cfg, &mut rng);
        let ssl = self.ssl.build(&mut store, model.embedding(), &mut rng);
        (store, (model, ssl))
    }

    /// Run once with the given seed through [`Trainer::run`], starting from
    /// [`Experiment::resume_from`], the ring's newest valid slot, or scratch,
    /// and checkpointing after every epoch to [`Experiment::checkpoint_out`]
    /// and the ring when set, which changes nothing about the run itself.
    pub fn run(&self, dataset: &Dataset, seed: u64) -> Result<FitOutcome, MissError> {
        // Model/SSL construction is deterministic given the seed, so a fresh
        // build per ring-resume candidate rebuilds identical param ids — a
        // half-loaded store from a corrupt slot is simply thrown away.
        let build = || self.build_with_ssl(&dataset.schema, seed);
        let mut cfg = self.train_cfg.clone();
        cfg.seed = seed;
        let ring = self
            .ring_dir
            .as_ref()
            .map(|dir| CheckpointRing::new(dir, self.ring_keep));
        let arch = self.arch();
        let (mut store, (mut model, mut ssl)) = build();
        let resumed = match (&self.resume_from, &ring) {
            (Some(path), _) => {
                let progress = miss_codec::load_from_path(path, &arch, &mut store)?;
                Some(Trainer::resume(cfg.clone(), progress)?)
            }
            (None, Some(ring)) => ring
                .resume_newest_valid(&cfg, &arch, build)?
                .map(|r| {
                    (store, (model, ssl)) = (r.store, r.extra);
                    r.trainer
                }),
            (None, None) => None,
        };
        let mut trainer = resumed.unwrap_or_else(|| match (&ssl, self.pretrain_epochs) {
            (Some(_), Some(epochs)) => Trainer::pretraining(cfg, epochs),
            _ => Trainer::new(cfg),
        });
        trainer.run(model.as_ref(), ssl.as_deref(), &mut store, dataset, |t, store| {
            if let Some(path) = &self.checkpoint_out {
                miss_codec::save_to_path_retrying(path, store, &arch, Some(t.progress()))?;
            }
            if let Some(ring) = &ring {
                ring.save(store, &arch, t.progress())?;
            }
            Ok(())
        })
    }

    /// Run `reps` seeds and return the test metrics of each.
    pub fn run_reps(&self, dataset: &Dataset, reps: usize) -> Result<Vec<EvalResult>, MissError> {
        (0..reps as u64).map(|s| Ok(self.run(dataset, s)?.test)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use miss_data::WorldConfig;

    #[test]
    fn labels() {
        let e = Experiment::new(BaseModel::Din, SslKind::Miss(MissConfig::default()));
        assert_eq!(e.label(), "DIN-MISS");
        let e2 = Experiment::new(BaseModel::Ipnn, SslKind::None);
        assert_eq!(e2.label(), "IPNN");
    }

    #[test]
    fn roster_is_complete_and_ordered() {
        assert_eq!(ALL_BASELINES.len(), 13);
        assert_eq!(ALL_BASELINES[0].label(), "LR");
        assert_eq!(ALL_BASELINES[12].label(), "FiGNN");
        for base in ALL_BASELINES {
            let lower = base.label().to_lowercase();
            assert_eq!(BaseModel::from_label(&lower), Some(base));
        }
        assert_eq!(BaseModel::from_label("nope"), None);
    }

    #[test]
    fn every_base_model_builds_and_runs_one_epoch() {
        let dataset = Dataset::generate(WorldConfig::tiny(), 17);
        for base in ALL_BASELINES {
            let mut e = Experiment::new(base, SslKind::None);
            e.train_cfg.max_epochs = 1;
            e.train_cfg.patience = 0;
            let out = e.run(&dataset, 0).unwrap();
            assert!(
                out.test.auc.is_finite() && out.test.logloss.is_finite(),
                "{} produced non-finite metrics",
                base.label()
            );
        }
    }

    #[test]
    fn ssl_kinds_build() {
        let dataset = Dataset::generate(WorldConfig::tiny(), 19);
        for ssl in [
            SslKind::Miss(MissConfig::default()),
            SslKind::Rule,
            SslKind::Irssl,
            SslKind::S3Rec,
            SslKind::Cl4SRec,
        ] {
            let mut e = Experiment::new(BaseModel::Ipnn, ssl);
            e.train_cfg.max_epochs = 1;
            e.train_cfg.patience = 0;
            let out = e.run(&dataset, 0).unwrap();
            assert!(out.test.auc.is_finite(), "{} failed", e.label());
        }
    }

    /// The training benchmark registers DIN-MISS by hand rather than
    /// through `Experiment`: a fresh store, `Rng::new(seed ^ 0xE9)`, the
    /// base model, then `Miss::new` on the same stream. This pins that
    /// derivation, so changing one side without the other fails here.
    #[test]
    fn din_miss_registration_matches_the_hand_built_store() {
        let schema = Dataset::generate(WorldConfig::tiny(), 5).schema;
        let e = Experiment::new(BaseModel::Din, SslKind::Miss(MissConfig::default()));
        for seed in [0, 7, 42] {
            let (store, _) = e.build_model(&schema, seed);
            let mut hand = ParamStore::new();
            let mut rng = Rng::new(seed ^ 0xE9);
            let model = BaseModel::Din.build(&mut hand, &schema, &ModelConfig::default(), &mut rng);
            Miss::new(&mut hand, model.embedding(), MissConfig::default(), &mut rng);
            assert_eq!(store.num_dense(), hand.num_dense(), "seed {seed}");
            assert_eq!(store.num_tables(), hand.num_tables(), "seed {seed}");
            assert_eq!(store.num_params(), hand.num_params(), "seed {seed}");
            assert_eq!(store.params_fingerprint(), hand.params_fingerprint(), "seed {seed}");
        }
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;
    use miss_data::WorldConfig;

    #[test]
    fn run_reps_counts_and_varies_with_seed() {
        let dataset = Dataset::generate(WorldConfig::tiny(), 23);
        let mut e = Experiment::new(BaseModel::Fm, SslKind::None);
        e.train_cfg.max_epochs = 2;
        e.train_cfg.patience = 0;
        let runs = e.run_reps(&dataset, 3).unwrap();
        assert_eq!(runs.len(), 3);
        // different seeds must not be bit-identical
        assert!(
            runs[0].auc != runs[1].auc || runs[1].auc != runs[2].auc,
            "three seeds produced identical AUCs: {:?}",
            runs
        );
    }

    #[test]
    fn pretrain_experiment_goes_through_both_phases() {
        let dataset = Dataset::generate(WorldConfig::tiny(), 29);
        let mut e = Experiment::new(
            BaseModel::Din,
            SslKind::Miss(miss_core::MissConfig::default()),
        );
        e.pretrain_epochs = Some(1);
        e.train_cfg.max_epochs = 1;
        e.train_cfg.patience = 0;
        let out = e.run(&dataset, 0).unwrap();
        assert!(out.test.auc.is_finite());
    }
}
