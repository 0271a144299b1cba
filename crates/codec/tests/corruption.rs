//! The corruption battery: every damaged artifact must fail with the
//! *matching* typed [`MissError`] variant — asserted per variant, never just
//! `is_err()` — and must never panic or attempt a hostile allocation.
//!
//! Damage classes, aimed with [`miss_codec::layout`]:
//! - truncation at every section boundary and mid-section;
//! - one flipped byte in the header and in every section payload;
//! - a bumped format version;
//! - hostile inner length prefixes (with the section checksum recomputed so
//!   only the inner validation can catch them);
//! - artifacts for the wrong architecture.

use miss_codec::{
    fnv1a, layout, Best, TrainProgress, FORMAT_VERSION, HEADER_FIXED_LEN, MAGIC,
    SECTION_ENTRY_LEN,
};
use miss_data::{Dataset, WorldConfig};
use miss_models::{Din, Ipnn, ModelConfig};
use miss_nn::ParamStore;
use miss_util::{MissError, Rng};
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

/// Progress of a joint run three epochs in, whose best epoch was epoch 2
/// with `din_store(3)`'s weights.
fn progress() -> TrainProgress {
    TrainProgress {
        epoch: 3,
        step: 120,
        rng_state: 0xDEADBEEF,
        rng_inc: 0xB5,
        pretrain_epochs: None,
        best: Some(Best {
            epoch: 2,
            auc: 0.75,
            logloss: 0.5,
            weights: din_store(3).snapshot(),
        }),
    }
}

fn checkpoint_bytes() -> Vec<u8> {
    miss_codec::save_to_vec(&din_store(1), Some(&progress())).expect("save")
}

fn load_into_fresh(bytes: &[u8]) -> Result<Option<TrainProgress>, MissError> {
    let mut store = din_store(2);
    miss_codec::load_from_slice(bytes, &mut store)
}

#[test]
fn layout_reports_every_section() {
    let bytes = checkpoint_bytes();
    let lay = layout(&bytes).expect("layout");
    let names: Vec<&str> = lay.sections.iter().map(|s| s.name).collect();
    assert_eq!(names, ["params", "moments", "progress", "best"]);
    assert_eq!(
        lay.header_len,
        HEADER_FIXED_LEN + 4 * SECTION_ENTRY_LEN + 8
    );
    let total: usize = lay.header_len + lay.sections.iter().map(|s| s.len).sum::<usize>();
    assert_eq!(total, bytes.len(), "layout must account for every byte");
}

#[test]
fn truncation_at_every_boundary_is_typed_corruption() {
    let bytes = checkpoint_bytes();
    let lay = layout(&bytes).expect("layout");
    // Boundaries: inside the fixed header, at the header end, at each
    // section start/middle/end-minus-one, and the empty file.
    let mut cuts = vec![0, 1, HEADER_FIXED_LEN - 1, HEADER_FIXED_LEN, lay.header_len - 1, lay.header_len];
    for s in &lay.sections {
        cuts.push(s.offset);
        cuts.push(s.offset + s.len / 2);
        cuts.push(s.offset + s.len - 1);
    }
    for cut in cuts {
        let err = load_into_fresh(&bytes[..cut]).expect_err("truncation must fail");
        assert!(
            matches!(err, MissError::Corrupt { .. }),
            "cut at {cut}: expected Corrupt, got {err}"
        );
        let MissError::Corrupt { reason, .. } = &err else { unreachable!() };
        assert!(
            reason.contains("truncated") || reason.contains("checksum"),
            "cut at {cut}: unhelpful diagnosis {reason:?}"
        );
    }
}

#[test]
fn one_flipped_byte_per_region_is_detected_and_named() {
    let bytes = checkpoint_bytes();
    let lay = layout(&bytes).expect("layout");
    // (offset to flip, sections whose name may be blamed)
    let mut probes: Vec<(usize, Vec<&str>)> = vec![
        (0, vec!["header"]),                    // magic
        (13, vec!["header"]),                   // section count
        (17, vec!["header", "params"]),         // stored fingerprint
        (HEADER_FIXED_LEN + 4, vec!["header"]), // first table entry length
        (lay.header_len - 1, vec!["header"]),   // header checksum itself
    ];
    for s in &lay.sections {
        probes.push((s.offset, vec![s.name]));
        probes.push((s.offset + s.len / 2, vec![s.name]));
    }
    for (off, blames) in probes {
        let mut bad = bytes.clone();
        bad[off] ^= 0x01;
        let err = load_into_fresh(&bad).expect_err("flip must fail");
        match &err {
            MissError::Corrupt { section, .. } => assert!(
                blames.contains(section),
                "flip at {off}: blamed {section}, expected one of {blames:?} ({err})"
            ),
            other => panic!("flip at {off}: expected Corrupt, got {other}"),
        }
    }
}

#[test]
fn flipped_version_byte_is_unsupported_version_not_corrupt() {
    let bytes = checkpoint_bytes();
    let mut bad = bytes.clone();
    bad[8] ^= 0x02; // before the header checksum is consulted
    let err = load_into_fresh(&bad).expect_err("version bump must fail");
    match err {
        MissError::UnsupportedVersion { found, supported } => {
            assert_eq!(found, FORMAT_VERSION ^ 0x02);
            assert_eq!(supported, FORMAT_VERSION);
        }
        other => panic!("expected UnsupportedVersion, got {other}"),
    }
}

/// A version-1 file (no phase, no early-stopping state, no best section)
/// is refused by version, never misparsed.
#[test]
fn version_1_file_is_unsupported_version() {
    let store = din_store(1);
    let mut v1 = MAGIC.to_vec();
    v1.extend_from_slice(&1u32.to_le_bytes());
    v1.extend_from_slice(&1u32.to_le_bytes());
    v1.extend_from_slice(&store.params_fingerprint().to_le_bytes());
    let err = load_into_fresh(&v1).expect_err("version 1 must fail");
    assert!(
        matches!(err, MissError::UnsupportedVersion { found: 1, supported: 2 }),
        "{err}"
    );
}

/// Rewrite one section's payload, fixing up its table checksum and the
/// header checksum, so only validation *inside* the section can object.
fn with_rewritten_section(bytes: &[u8], name: &str, rewrite: impl Fn(&mut Vec<u8>)) -> Vec<u8> {
    let lay = layout(bytes).expect("layout");
    let s = lay.sections.iter().find(|s| s.name == name).expect("section");
    let mut payload = bytes[s.offset..s.offset + s.len].to_vec();
    rewrite(&mut payload);

    let mut out = bytes[..lay.header_len].to_vec();
    let idx = lay.sections.iter().position(|p| p.name == name).expect("idx");
    let entry = HEADER_FIXED_LEN + idx * SECTION_ENTRY_LEN;
    out[entry + 4..entry + 12].copy_from_slice(&(payload.len() as u64).to_le_bytes());
    out[entry + 12..entry + 20].copy_from_slice(&fnv1a(&payload).to_le_bytes());
    let hlen = lay.header_len - 8;
    let hsum = fnv1a(&out[..hlen]);
    out[hlen..lay.header_len].copy_from_slice(&hsum.to_le_bytes());
    for p in &lay.sections {
        if p.name == name {
            out.extend_from_slice(&payload);
        } else {
            out.extend_from_slice(&bytes[p.offset..p.offset + p.len]);
        }
    }
    out
}

#[test]
fn hostile_length_prefix_is_typed_not_an_allocation() {
    let bytes = checkpoint_bytes();
    // First params record: name length prefix sits right after the two
    // u32 counts. Claim a ~4 GiB string.
    let bad = with_rewritten_section(&bytes, "params", |payload| {
        payload[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
    });
    let err = load_into_fresh(&bad).expect_err("hostile prefix must fail");
    match &err {
        MissError::Corrupt { section: "params", reason } => {
            assert!(reason.contains("claims"), "diagnosis: {reason}");
        }
        other => panic!("expected Corrupt in params, got {other}"),
    }
}

#[test]
fn trailing_garbage_inside_a_section_is_detected() {
    let bytes = checkpoint_bytes();
    let bad = with_rewritten_section(&bytes, "progress", |payload| {
        payload.extend_from_slice(&[0u8; 4]);
    });
    let err = load_into_fresh(&bad).expect_err("trailing bytes must fail");
    assert!(
        matches!(err, MissError::Corrupt { section: "progress", .. }),
        "{err}"
    );
}

#[test]
fn even_rng_increment_is_rejected() {
    let bad = with_rewritten_section(&checkpoint_bytes(), "progress", |payload| {
        payload[24..32].copy_from_slice(&8u64.to_le_bytes()); // even increment
    });
    let err = load_into_fresh(&bad).expect_err("even increment must fail");
    assert!(
        matches!(err, MissError::Corrupt { section: "progress", .. }),
        "{err}"
    );
}

/// Each impossible value of the phase and early-stopping fields, written
/// with consistent checksums, is typed corruption of the progress section.
/// Progress layout: epoch, step, rng state, rng increment, two-stage flag,
/// pre-training epochs, best epoch, best AUC, best Logloss (u64 each).
#[test]
fn impossible_phase_and_early_stopping_values_are_rejected() {
    let bytes = checkpoint_bytes();
    let cases: [(&str, &[(usize, u64)]); 4] = [
        ("unknown phase schedule", &[(4, 7)]),
        ("joint run with pre-training epochs", &[(5, 2)]),
        ("best epoch in the future", &[(6, 9)]),
        ("best AUC above 1", &[(7, 1.5f64.to_bits())]),
    ];
    for (what, fields) in cases {
        let bad = with_rewritten_section(&bytes, "progress", |payload| {
            for &(i, v) in fields {
                payload[i * 8..i * 8 + 8].copy_from_slice(&v.to_le_bytes());
            }
        });
        let err = load_into_fresh(&bad).expect_err(what);
        assert!(
            matches!(err, MissError::Corrupt { section: "progress", .. }),
            "{what}: {err}"
        );
    }
}

/// A copy of `bytes` holding only the sections `keep` accepts, with a
/// consistent header.
fn without_sections(bytes: &[u8], keep: impl Fn(&str) -> bool) -> Vec<u8> {
    let lay = layout(bytes).expect("layout");
    let kept: Vec<_> = lay.sections.iter().filter(|s| keep(s.name)).collect();
    let mut out = bytes[..16].to_vec();
    out[12..16].copy_from_slice(&(kept.len() as u32).to_le_bytes());
    out.extend_from_slice(&lay.fingerprint.to_le_bytes());
    for s in &kept {
        let idx = lay.sections.iter().position(|p| p.id == s.id).expect("idx");
        let entry = HEADER_FIXED_LEN + idx * SECTION_ENTRY_LEN;
        out.extend_from_slice(&bytes[entry..entry + SECTION_ENTRY_LEN]);
    }
    let hsum = fnv1a(&out);
    out.extend_from_slice(&hsum.to_le_bytes());
    for s in &kept {
        out.extend_from_slice(&bytes[s.offset..s.offset + s.len]);
    }
    out
}

#[test]
fn best_section_must_match_the_progress_section() {
    let bytes = checkpoint_bytes();
    // The progress names best epoch 2, but its weights are gone.
    let missing = without_sections(&bytes, |name| name != "best");
    let err = load_into_fresh(&missing).expect_err("missing best section");
    assert!(matches!(err, MissError::Corrupt { section: "best", .. }), "{err}");
    // Best weights with no progress, or with a progress that names no best
    // epoch, belong to no run.
    let orphan = without_sections(&bytes, |name| name != "progress");
    let err = load_into_fresh(&orphan).expect_err("best without progress");
    assert!(matches!(err, MissError::Corrupt { section: "best", .. }), "{err}");
    let unnamed = with_rewritten_section(&bytes, "progress", |p| {
        p[48..56].copy_from_slice(&0u64.to_le_bytes());
    });
    let err = load_into_fresh(&unnamed).expect_err("best epoch 0 with best weights");
    assert!(matches!(err, MissError::Corrupt { section: "best", .. }), "{err}");
}

#[test]
fn malformed_best_section_is_typed() {
    let bytes = checkpoint_bytes();
    // Wrong length: the last record loses its final value.
    let short = with_rewritten_section(&bytes, "best", |p| {
        p.truncate(p.len() - 4);
    });
    let err = load_into_fresh(&short).expect_err("short best section");
    assert!(matches!(err, MissError::Corrupt { section: "best", .. }), "{err}");
    // Wrong record count.
    let miscounted = with_rewritten_section(&bytes, "best", |p| {
        p[0..4].copy_from_slice(&0u32.to_le_bytes());
    });
    let err = load_into_fresh(&miscounted).expect_err("miscounted best section");
    assert!(
        matches!(err, MissError::Corrupt { section: "best", .. } | MissError::CountMismatch { .. }),
        "{err}"
    );
    // A record under a name the architecture does not register.
    let renamed = with_rewritten_section(&bytes, "best", |p| {
        // The first record's name starts after the two counts and its own
        // length prefix.
        p[12] ^= 0x20;
    });
    let err = load_into_fresh(&renamed).expect_err("unknown best record");
    assert!(matches!(err, MissError::UnknownParam { .. }), "{err}");
}

#[test]
fn wrong_architecture_is_a_count_or_name_mismatch() {
    let bytes = checkpoint_bytes();
    // IPNN registers a different parameter set than DIN.
    let mut store = ParamStore::new();
    let mut rng = Rng::new(5);
    let _ = Ipnn::new(&mut store, &dataset().schema, &ModelConfig::default(), &mut rng);
    let err = miss_codec::load_from_slice(&bytes, &mut store).expect_err("arch mismatch");
    assert!(
        matches!(
            err,
            MissError::CountMismatch { .. }
                | MissError::UnknownParam { .. }
                | MissError::ShapeMismatch { .. }
        ),
        "expected a typed architecture mismatch, got {err}"
    );
}

#[test]
fn wrong_embedding_width_is_a_shape_mismatch() {
    let bytes = checkpoint_bytes();
    let mut store = ParamStore::new();
    let mut rng = Rng::new(5);
    let cfg = ModelConfig {
        embed_dim: 6, // default is 10
        ..ModelConfig::default()
    };
    let _ = Din::new(&mut store, &dataset().schema, &cfg, &mut rng);
    let err = miss_codec::load_from_slice(&bytes, &mut store).expect_err("width mismatch");
    assert!(
        matches!(err, MissError::ShapeMismatch { .. } | MissError::UnknownParam { .. }),
        "expected ShapeMismatch, got {err}"
    );
}

#[test]
fn missing_file_is_io_not_corrupt() {
    let mut store = din_store(3);
    let err = miss_codec::load_from_path(
        std::path::Path::new("/root/repo/target/definitely-not-there.ckpt"),
        &mut store,
    )
    .expect_err("missing file");
    assert!(matches!(err, MissError::Io(_)), "{err}");
}

#[test]
fn empty_and_foreign_files_are_header_corruption() {
    let err = load_into_fresh(&[]).expect_err("empty file");
    assert!(matches!(err, MissError::Corrupt { section: "header", .. }), "{err}");

    let foreign = b"PK\x03\x04 definitely a zip file, not a checkpoint....";
    let err = load_into_fresh(foreign).expect_err("foreign file");
    match &err {
        MissError::Corrupt { section: "header", reason } => {
            assert!(reason.contains("magic"), "diagnosis: {reason}");
        }
        other => panic!("expected bad-magic Corrupt, got {other}"),
    }
}
