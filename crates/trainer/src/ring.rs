//! A retained ring of the last K checkpoints with resume-from-latest-valid.
//!
//! Every epoch gets its own slot file (`ckpt.e<epoch:08>.ckpt`), written
//! atomically with bounded retry; after each save the ring prunes itself
//! back to the newest `keep` slots. Resume walks the slots newest-first and
//! falls back past corrupt or unreadable ones (each logged with its typed
//! [`MissError`]), so one damaged file costs one epoch of progress, never
//! the run (DESIGN.md §9).

use crate::checkpoint::Trainer;
use crate::fit::TrainConfig;
use miss_codec::{Arch, TrainProgress};
use miss_nn::ParamStore;
use miss_util::MissError;
use std::path::PathBuf;

/// The ring's location and retention policy. Cheap to construct; all state
/// lives on disk, so independent processes resolving the same directory see
/// the same ring.
#[derive(Clone, Debug)]
pub struct CheckpointRing {
    dir: PathBuf,
    keep: usize,
}

/// A successful [`CheckpointRing::resume_newest_valid`]: the trainer state
/// from the newest valid slot plus the freshly built world it was loaded
/// into. `extra` carries whatever else the caller's builder reconstructs
/// alongside the store (model, SSL method, …).
pub struct RingResume<T> {
    /// Trainer restored from the slot's progress section.
    pub trainer: Trainer,
    /// Store holding the slot's parameters and moments.
    pub store: ParamStore,
    /// The builder's companion value for `store`.
    pub extra: T,
}

impl CheckpointRing {
    /// A ring in `dir` keeping the newest `keep` slots (clamped to ≥ 1)
    /// named `ckpt.e<epoch:08>.ckpt`.
    pub fn new(dir: impl Into<PathBuf>, keep: usize) -> CheckpointRing {
        CheckpointRing {
            dir: dir.into(),
            keep: keep.max(1),
        }
    }

    /// The slot path for `epoch`.
    pub fn slot_path(&self, epoch: u64) -> PathBuf {
        self.dir.join(format!("ckpt.e{epoch:08}.ckpt"))
    }

    /// Slots present on disk, newest (highest epoch) first. A missing ring
    /// directory is an empty ring, not an error. Files that don't match the
    /// slot naming scheme are ignored (this never deletes or misreads a
    /// stranger's files).
    pub fn entries(&self) -> Result<Vec<(u64, PathBuf)>, MissError> {
        let rd = match std::fs::read_dir(&self.dir) {
            Ok(rd) => rd,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(MissError::Io(e)),
        };
        let mut out = Vec::new();
        for entry in rd {
            let entry = entry?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let Some(rest) = name.strip_prefix("ckpt.e") else { continue };
            let Some(digits) = rest.strip_suffix(".ckpt") else { continue };
            if digits.len() < 8 || !digits.bytes().all(|b| b.is_ascii_digit()) {
                continue;
            }
            let Ok(epoch) = digits.parse::<u64>() else { continue };
            out.push((epoch, entry.path()));
        }
        out.sort_by_key(|&(epoch, _)| std::cmp::Reverse(epoch));
        Ok(out)
    }

    /// Write `store` as `arch`'s weights, with `progress`, into the slot for
    /// `progress.epoch` (atomic, with bounded retry), then prune the ring
    /// back to `keep` slots. Returns the slot path.
    pub fn save(
        &self,
        store: &ParamStore,
        arch: &Arch,
        progress: &TrainProgress,
    ) -> Result<PathBuf, MissError> {
        std::fs::create_dir_all(&self.dir)?;
        let path = self.slot_path(progress.epoch);
        miss_codec::save_to_path_retrying(&path, store, arch, Some(progress))?;
        self.prune()?;
        Ok(path)
    }

    /// Delete every slot beyond the newest `keep`.
    pub fn prune(&self) -> Result<(), MissError> {
        for (_, path) in self.entries()?.into_iter().skip(self.keep) {
            std::fs::remove_file(&path)?;
        }
        Ok(())
    }

    /// Resume from the newest slot that actually loads as `arch`. For each
    /// candidate (newest first) a *fresh* world is built with `fresh` — a
    /// failed load may leave its store half-written, so candidates never
    /// share one — and the first success is returned. Corrupt and
    /// unreadable slots are logged and skipped. A slot of another model is
    /// [`MissError::ArchMismatch`]: the directory is that model's ring, and
    /// starting over would overwrite its slots. `Ok(None)` means the ring
    /// holds no usable slot: start from scratch.
    pub fn resume_newest_valid<T>(
        &self,
        cfg: &TrainConfig,
        arch: &Arch,
        mut fresh: impl FnMut() -> (ParamStore, T),
    ) -> Result<Option<RingResume<T>>, MissError> {
        for (_, path) in self.entries()? {
            let (mut store, extra) = fresh();
            let progress = miss_codec::load_from_path(&path, arch, &mut store);
            match progress.and_then(|p| Trainer::resume(cfg.clone(), p)) {
                Ok(trainer) => return Ok(Some(RingResume { trainer, store, extra })),
                Err(e @ MissError::ArchMismatch { .. }) => return Err(e),
                Err(e) => eprintln!(
                    "miss-trainer: ring checkpoint {} is unusable ({e}); \
                     falling back to the previous slot",
                    path.display()
                ),
            }
        }
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Scratch(PathBuf);
    impl Scratch {
        fn new(name: &str) -> Scratch {
            let dir =
                std::env::temp_dir().join(format!("miss-ring-{}-{name}", std::process::id()));
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
    fn slot_names_embed_the_epoch_zero_padded() {
        let ring = CheckpointRing::new("/tmp/x", 3);
        assert_eq!(
            ring.slot_path(7).file_name().and_then(|s| s.to_str()),
            Some("ckpt.e00000007.ckpt")
        );
    }

    #[test]
    fn entries_parse_sort_and_ignore_strangers() {
        let scratch = Scratch::new("entries");
        let ring = CheckpointRing::new(&scratch.0, 3);
        for name in [
            "ckpt.e00000002.ckpt",
            "ckpt.e00000010.ckpt",
            "ckpt.e00000001.ckpt",
            "ckpt.e0001.ckpt",   // too few digits
            "ckpt.e0000000x.ckpt", // non-digit
            "other.e00000005.ckpt", // different stem
            "ckpt.e00000003.ckpt.tmp", // staged temp, not a slot
            "notes.txt",
        ] {
            std::fs::write(scratch.0.join(name), b"x").expect("touch");
        }
        let epochs: Vec<u64> = ring.entries().expect("entries").iter().map(|e| e.0).collect();
        assert_eq!(epochs, [10, 2, 1], "newest first, strangers ignored");
    }

    #[test]
    fn missing_directory_is_an_empty_ring() {
        let ring = CheckpointRing::new("/tmp/definitely-not-a-real-miss-ring-dir", 3);
        assert!(ring.entries().expect("empty").is_empty());
    }

    #[test]
    fn prune_keeps_the_newest_k() {
        let scratch = Scratch::new("prune");
        let ring = CheckpointRing::new(&scratch.0, 2);
        for e in 1..=5u64 {
            std::fs::write(ring.slot_path(e), b"x").expect("touch");
        }
        ring.prune().expect("prune");
        let epochs: Vec<u64> = ring.entries().expect("entries").iter().map(|e| e.0).collect();
        assert_eq!(epochs, [5, 4]);
    }
}
