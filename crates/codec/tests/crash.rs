//! The crash battery: checkpoint writes must be atomic under failure at
//! **every byte offset**.
//!
//! A fail-point writer (`codec.write.err@N`) kills the write after exactly N
//! bytes; for every N in the artifact we assert the on-disk state is always
//! one of exactly two things — the previous valid checkpoint, byte-for-byte,
//! or no file at all (first save) — and that no `.tmp` turd is left behind.
//! Short writes and `Interrupted` must be survived outright, and the bounded
//! retry wrapper must turn a one-shot I/O fault into a success.

use miss_codec::{tmp_sibling, Arch, TrainProgress, SAVE_ATTEMPTS};
use miss_data::{Dataset, WorldConfig};
use miss_fault::{with_plan, FaultPlan};
use miss_models::{Din, ModelConfig};
use miss_nn::ParamStore;
use miss_util::{MissError, Rng};
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

fn dataset() -> &'static Dataset {
    static DS: OnceLock<Dataset> = OnceLock::new();
    DS.get_or_init(|| Dataset::generate(WorldConfig::tiny(), 88))
}

/// A fresh DIN store; `seed` varies init only.
fn din_store(seed: u64) -> ParamStore {
    let mut store = ParamStore::new();
    let mut rng = Rng::new(seed);
    let _ = Din::new(&mut store, &dataset().schema, &ModelConfig::default(), &mut rng);
    store
}

/// What a DIN checkpoint at the default widths records.
fn din_arch() -> Arch {
    Arch {
        model: "DIN".to_string(),
        embed_dim: 10,
        mlp_sizes: vec![40, 40, 40, 1],
    }
}

fn progress(epoch: u64) -> TrainProgress {
    TrainProgress {
        epoch,
        step: 7 * epoch,
        rng_state: 0xC0FFEE ^ epoch,
        rng_inc: 0xB5,
        pretrain_epochs: None,
        best: None,
    }
}

/// Unique scratch dir per test, removed on drop (best-effort).
struct Scratch(PathBuf);

impl Scratch {
    fn new(name: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!("miss-crash-{}-{name}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("scratch dir");
        Scratch(dir)
    }

    fn path(&self, file: &str) -> PathBuf {
        self.0.join(file)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn assert_no_tmp(path: &Path) {
    assert!(
        !tmp_sibling(path).exists(),
        "crashed save must not leave {} behind",
        tmp_sibling(path).display()
    );
}

#[test]
fn crash_at_every_byte_offset_leaves_the_old_file_intact() {
    let scratch = Scratch::new("every-offset");
    let path = scratch.path("model.ckpt");

    let old_store = din_store(1);
    miss_codec::save_to_path(&path, &old_store, &din_arch(), Some(&progress(1)))
        .expect("baseline save");
    let old_bytes = std::fs::read(&path).expect("baseline bytes");

    let new_store = din_store(2);
    let total = miss_codec::save_to_vec(&new_store, &din_arch(), Some(&progress(2)))
        .expect("size probe")
        .len() as u64;
    assert!(total > 0);

    for off in 0..total {
        with_plan(FaultPlan::empty().arm("codec.write.err", off), || {
            let err = miss_codec::save_to_path(&path, &new_store, &din_arch(), Some(&progress(2)))
                .expect_err("injected crash must surface");
            assert!(
                matches!(err, MissError::Io(_)),
                "offset {off}: expected Io, got {err}"
            );
        });
        let on_disk = std::fs::read(&path).expect("old checkpoint must still exist");
        assert_eq!(
            on_disk, old_bytes,
            "offset {off}: on-disk checkpoint must be the old file, byte-for-byte"
        );
        assert_no_tmp(&path);
    }

    // Crashing at `total` (i.e. after the last byte) never triggers: the
    // write completes, the rename publishes the new checkpoint.
    with_plan(FaultPlan::empty().arm("codec.write.err", total), || {
        miss_codec::save_to_path(&path, &new_store, &din_arch(), Some(&progress(2)))
            .expect("past-end save");
    });
    let mut check = din_store(3);
    let p = miss_codec::load_from_path(&path, &din_arch(), &mut check)
        .expect("published checkpoint loads");
    assert_eq!(p, Some(progress(2)));
}

#[test]
fn crash_during_first_save_leaves_no_file() {
    let scratch = Scratch::new("first-save");
    let path = scratch.path("fresh.ckpt");
    let store = din_store(4);
    for off in [0u64, 17, 4096] {
        with_plan(FaultPlan::empty().arm("codec.write.err", off), || {
            miss_codec::save_to_path(&path, &store, &din_arch(), None).expect_err("injected crash");
        });
        assert!(!path.exists(), "offset {off}: no checkpoint may appear");
        assert_no_tmp(&path);
    }
}

#[test]
fn short_writes_and_interrupts_are_survived() {
    let scratch = Scratch::new("survivable");
    let path = scratch.path("model.ckpt");
    let store = din_store(5);
    with_plan(
        FaultPlan::empty()
            .arm("codec.write.short", 33)
            .arm("codec.write.interrupt", 1)
            .arm("codec.read.interrupt", 1),
        || {
            miss_codec::save_to_path(&path, &store, &din_arch(), Some(&progress(9)))
                .expect("short write and Interrupted must be retried internally");
            let mut check = din_store(6);
            let p = miss_codec::load_from_path(&path, &din_arch(), &mut check)
                .expect("read Interrupted must be retried internally");
            assert_eq!(p, Some(progress(9)));
        },
    );
    assert_no_tmp(&path);
}

#[test]
fn read_crash_surfaces_as_io_error() {
    let scratch = Scratch::new("read-err");
    let path = scratch.path("model.ckpt");
    let store = din_store(7);
    miss_codec::save_to_path(&path, &store, &din_arch(), None).expect("save");
    with_plan(FaultPlan::empty().arm("codec.read.err", 40), || {
        let mut check = din_store(8);
        let err = miss_codec::load_from_path(&path, &din_arch(), &mut check)
            .expect_err("injected read crash");
        assert!(matches!(err, MissError::Io(_)), "expected Io, got {err}");
    });
}

#[test]
fn retry_recovers_from_a_one_shot_write_fault() {
    let scratch = Scratch::new("retry-ok");
    let path = scratch.path("model.ckpt");
    let store = din_store(9);
    with_plan(FaultPlan::empty().arm("codec.write.err", 5), || {
        miss_codec::save_to_path_retrying(&path, &store, &din_arch(), Some(&progress(4)))
            .expect("attempt 1 crashes, attempt 2 succeeds");
        assert_eq!(miss_fault::fired_count("codec.write.err"), 1);
    });
    let mut check = din_store(10);
    let p = miss_codec::load_from_path(&path, &din_arch(), &mut check).expect("retried save is valid");
    assert_eq!(p, Some(progress(4)));
    assert_no_tmp(&path);
}

#[test]
fn retry_exhausts_against_a_sticky_fault_and_stays_atomic() {
    let scratch = Scratch::new("retry-exhaust");
    let path = scratch.path("model.ckpt");
    let old_store = din_store(11);
    miss_codec::save_to_path(&path, &old_store, &din_arch(), Some(&progress(1)))
        .expect("baseline save");
    let old_bytes = std::fs::read(&path).expect("baseline bytes");

    let new_store = din_store(12);
    with_plan(FaultPlan::empty().arm_sticky("codec.write.err", 5), || {
        let err = miss_codec::save_to_path_retrying(
            &path,
            &new_store,
            &din_arch(),
            Some(&progress(2)),
        )
        .expect_err("sticky fault defeats every attempt");
        assert!(matches!(err, MissError::Io(_)), "expected Io, got {err}");
        assert_eq!(
            miss_fault::fired_count("codec.write.err"),
            u64::from(SAVE_ATTEMPTS),
            "every attempt must have been made"
        );
    });
    assert_eq!(
        std::fs::read(&path).expect("old checkpoint intact"),
        old_bytes,
        "exhausted retry must leave the old checkpoint untouched"
    );
    assert_no_tmp(&path);
}
