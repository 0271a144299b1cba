//! The corruption battery: every damaged artifact must fail with the
//! *matching* typed [`MissError`] variant — asserted per variant, never just
//! `is_err()` — and must never panic or attempt a hostile allocation.
//!
//! Damage classes, aimed with [`layout`]:
//! - truncation at every section boundary and mid-section;
//! - one flipped byte in the header and in every section payload;
//! - a bumped format version, and files of older versions;
//! - hostile inner length prefixes (with the section checksum recomputed so
//!   only the inner validation can catch them);
//! - impossible arch records;
//! - artifacts for the wrong architecture.

use miss_codec::{
    fnv1a, Arch, Best, TrainProgress, FORMAT_VERSION, HEADER_FIXED_LEN, MAGIC,
    MAX_ARCH_WIDTH, SECTION_ENTRY_LEN,
};
use miss_data::{Dataset, WorldConfig};
use miss_models::{Din, Ipnn, ModelConfig};
use miss_nn::ParamStore;
use miss_util::{MissError, Rng};
use std::sync::OnceLock;

/// One section's place in an encoded checkpoint.
struct SectionInfo {
    id: u32,
    name: &'static str,
    offset: usize,
    len: usize,
}

/// Where a freshly saved checkpoint's header ends and each section payload
/// lives, read straight off its section table, to aim damage precisely.
struct Layout {
    header_len: usize,
    fingerprint: u64,
    sections: Vec<SectionInfo>,
}

fn layout(bytes: &[u8]) -> Layout {
    let u32_at = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes"));
    let u64_at = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"));
    let n = u32_at(12) as usize;
    let header_len = HEADER_FIXED_LEN + n * SECTION_ENTRY_LEN + 8;
    let mut offset = header_len;
    let sections = (0..n)
        .map(|i| {
            let entry = HEADER_FIXED_LEN + i * SECTION_ENTRY_LEN;
            let (id, len) = (u32_at(entry), u64_at(entry + 4) as usize);
            let name = ["", "params", "moments", "progress", "best", "arch"][id as usize];
            offset += len;
            SectionInfo { id, name, offset: offset - len, len }
        })
        .collect();
    Layout { header_len, fingerprint: u64_at(16), sections }
}

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

/// What a DIN checkpoint at the default widths records.
fn din_arch() -> Arch {
    Arch {
        model: "DIN".to_string(),
        embed_dim: 10,
        mlp_sizes: vec![40, 40, 40, 1],
    }
}

fn checkpoint_bytes() -> Vec<u8> {
    miss_codec::save_to_vec(&din_store(1), &din_arch(), Some(&progress())).expect("save")
}

fn load_into_fresh(bytes: &[u8]) -> Result<Option<TrainProgress>, MissError> {
    let mut store = din_store(2);
    miss_codec::load_from_slice(bytes, &din_arch(), &mut store)
}

#[test]
fn layout_reports_every_section() {
    let bytes = checkpoint_bytes();
    let lay = layout(&bytes);
    let names: Vec<&str> = lay.sections.iter().map(|s| s.name).collect();
    assert_eq!(names, ["arch", "params", "moments", "progress", "best"]);
    assert_eq!(
        lay.header_len,
        HEADER_FIXED_LEN + 5 * SECTION_ENTRY_LEN + 8
    );
    let total: usize = lay.header_len + lay.sections.iter().map(|s| s.len).sum::<usize>();
    assert_eq!(total, bytes.len(), "layout must account for every byte");
}

#[test]
fn truncation_at_every_boundary_is_typed_corruption() {
    let bytes = checkpoint_bytes();
    let lay = layout(&bytes);
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
    let lay = layout(&bytes);
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

/// The fixed header of a file of an older format `version`.
fn old_version_header(version: u32) -> Vec<u8> {
    let mut old = MAGIC.to_vec();
    old.extend_from_slice(&version.to_le_bytes());
    old.extend_from_slice(&1u32.to_le_bytes());
    old.extend_from_slice(&din_store(1).params_fingerprint().to_le_bytes());
    old
}

/// A version-1 file (no phase, no early-stopping state, no best section)
/// is refused by version, never misparsed.
#[test]
fn version_1_file_is_unsupported_version() {
    let err = load_into_fresh(&old_version_header(1)).expect_err("version 1 must fail");
    assert!(
        matches!(err, MissError::UnsupportedVersion { found: 1, supported: 3 }),
        "{err}"
    );
}

/// A version-2 file (no arch section) is refused by version on both read
/// paths, never misparsed.
#[test]
fn version_2_file_is_unsupported_version() {
    let v2 = old_version_header(2);
    let err = load_into_fresh(&v2).expect_err("version 2 must fail");
    assert!(
        matches!(err, MissError::UnsupportedVersion { found: 2, supported: 3 }),
        "{err}"
    );
    let err = miss_codec::read(&mut &v2[..]).err().expect("version 2 must fail");
    assert!(
        matches!(err, MissError::UnsupportedVersion { found: 2, supported: 3 }),
        "{err}"
    );
}

/// Rewrite one section's payload, fixing up its table checksum and the
/// header checksum, so only validation *inside* the section can object.
fn with_rewritten_section(bytes: &[u8], name: &str, rewrite: impl Fn(&mut Vec<u8>)) -> Vec<u8> {
    let lay = layout(bytes);
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

/// Arch payload: model label (u32 length + UTF-8), embed dim (u64), tower
/// layer count (u32), one u64 width per layer.
fn arch_payload(label: &[u8], embed_dim: u64, tower: &[u64]) -> Vec<u8> {
    let mut p = (label.len() as u32).to_le_bytes().to_vec();
    p.extend_from_slice(label);
    p.extend_from_slice(&embed_dim.to_le_bytes());
    p.extend_from_slice(&(tower.len() as u32).to_le_bytes());
    for w in tower {
        p.extend_from_slice(&w.to_le_bytes());
    }
    p
}

/// Every impossible arch record, written with consistent checksums, is
/// typed corruption of the arch section, on the resume path and on the
/// store-free read alike.
#[test]
fn impossible_arch_records_are_corrupt_arch() {
    let bytes = checkpoint_bytes();
    let width = MAX_ARCH_WIDTH as u64;
    let cases: [(&str, Vec<u8>); 10] = [
        ("truncated label", arch_payload(b"DIN", 10, &[40, 1])[..5].to_vec()),
        ("truncated tower", {
            let mut p = arch_payload(b"DIN", 10, &[40, 1]);
            p.truncate(p.len() - 3);
            p
        }),
        ("bad UTF-8 label", arch_payload(b"D\xffN", 10, &[40, 1])),
        ("empty label", arch_payload(b"", 10, &[40, 1])),
        ("zero embed dim", arch_payload(b"DIN", 0, &[40, 1])),
        ("oversized embed dim", arch_payload(b"DIN", width + 1, &[40, 1])),
        ("zero tower width", arch_payload(b"DIN", 10, &[0, 1])),
        ("oversized tower width", arch_payload(b"DIN", 10, &[u64::MAX, 1])),
        ("no tower", arch_payload(b"DIN", 10, &[])),
        ("tower without a 1-wide logit", arch_payload(b"DIN", 10, &[40, 2])),
    ];
    for (what, payload) in cases {
        let bad = with_rewritten_section(&bytes, "arch", |p| *p = payload.clone());
        let err = load_into_fresh(&bad).expect_err(what);
        assert!(matches!(err, MissError::Corrupt { section: "arch", .. }), "{what}: {err}");
        let err = miss_codec::read(&mut &bad[..]).err().expect(what);
        assert!(matches!(err, MissError::Corrupt { section: "arch", .. }), "{what}: {err}");
    }
    // A hostile layer count runs out of payload, it allocates nothing.
    let hostile = with_rewritten_section(&bytes, "arch", |p| {
        let at = 4 + 3 + 8;
        p[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    });
    let err = load_into_fresh(&hostile).expect_err("hostile layer count");
    assert!(matches!(err, MissError::Corrupt { section: "arch", .. }), "{err}");
    // Trailing bytes after the last width.
    let trailing = with_rewritten_section(&bytes, "arch", |p| p.push(0));
    let err = load_into_fresh(&trailing).expect_err("trailing arch bytes");
    assert!(matches!(err, MissError::Corrupt { section: "arch", .. }), "{err}");
    // And a save refuses what a load would refuse.
    let mut wide = din_arch();
    wide.mlp_sizes = vec![MAX_ARCH_WIDTH + 1, 1];
    let err = miss_codec::save_to_vec(&din_store(1), &wide, None).expect_err("unreadable arch");
    assert!(matches!(err, MissError::Corrupt { section: "arch", .. }), "{err}");
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
    let lay = layout(bytes);
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
fn missing_arch_section_is_corrupt_arch() {
    let missing = without_sections(&checkpoint_bytes(), |name| name != "arch");
    let err = load_into_fresh(&missing).expect_err("missing arch section");
    assert!(matches!(err, MissError::Corrupt { section: "arch", .. }), "{err}");
    let err = miss_codec::read(&mut &missing[..]).err().expect("missing arch section");
    assert!(matches!(err, MissError::Corrupt { section: "arch", .. }), "{err}");
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
    let err = miss_codec::load_from_slice(&bytes, &din_arch(), &mut store).expect_err("arch mismatch");
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

/// Resuming from a file checks its arch section first: a checkpoint of
/// another model, even one registering the same names, is `ArchMismatch`
/// naming both, and no value reaches the store.
#[test]
fn resuming_another_model_is_an_arch_mismatch() {
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("corruption-arch.ckpt");
    std::fs::write(&path, checkpoint_bytes()).expect("write");
    let mut store = din_store(3);
    let before = store.params_fingerprint();
    let fm = Arch { model: "FM".to_string(), ..din_arch() };
    let err = miss_codec::load_from_path(&path, &fm, &mut store).expect_err("other model");
    match &err {
        MissError::ArchMismatch { expected, found } => {
            assert!(expected.starts_with("FM ") && found.starts_with("DIN "), "{err}");
        }
        other => panic!("expected ArchMismatch, got {other}"),
    }
    assert_eq!(err.exit_code(), 3);
    assert_eq!(store.params_fingerprint(), before, "a refused file wrote the store");
    miss_codec::load_from_path(&path, &din_arch(), &mut store).expect("same model loads");
    let _ = std::fs::remove_file(&path);
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
    let err = miss_codec::load_from_slice(&bytes, &din_arch(), &mut store).expect_err("width mismatch");
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
        &din_arch(),
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
