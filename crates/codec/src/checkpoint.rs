//! The versioned checkpoint container: header, checksummed section table,
//! and the params / moments / progress / best section payloads.
//!
//! See DESIGN.md §8 for the wire diagram and the versioning policy. In
//! short:
//!
//! ```text
//! [0..8)    magic  "MISSCKPT"
//! [8..12)   format version (u32 LE)            — bumped on any layout change
//! [12..16)  section count (u32 LE)
//! [16..24)  params fingerprint (u64 LE)        — ParamStore::params_fingerprint
//! [24..+20n) section table, one 20-byte entry per section:
//!             id (u32), payload length (u64), payload FNV-1a (u64)
//! [..+8)    header checksum: FNV-1a over every preceding header byte
//! [..]      section payloads, concatenated in table order
//! ```
//!
//! Decoding validates outside-in: magic, then version (so a newer artifact
//! fails as [`MissError::UnsupportedVersion`], not as garbage), then the
//! header checksum, then each section's length and checksum, and only then
//! parses payloads — with every inner length prefix re-checked against the
//! bytes actually present. After the parameters are applied, the store's
//! recomputed fingerprint must equal the header's: an end-to-end integrity
//! check that survives even a hypothetical checksum-colliding corruption.

use crate::wire::{fnv1a, put_f32s, put_str, put_u32, put_u64, u32_le, u64_le, SectionReader};
use miss_nn::{ParamStore, StoreSnapshot};
use miss_tensor::Tensor;
use miss_util::MissError;
use std::io::{Read, Write};
use std::path::Path;

/// File magic. Distinct from the legacy `MISSCKP1` single-section format,
/// which this codec replaces (legacy files fail with a `bad magic`
/// diagnosis pointing here).
pub const MAGIC: [u8; 8] = *b"MISSCKPT";

/// Current (and only) format version. Compatibility policy: readers accept
/// exactly the versions they know; any layout change bumps this constant and
/// adds an explicit migration arm, never a silent reinterpretation. Version
/// 2 added the phase and early-stopping fields to the progress section and
/// the best section; a version-1 file is [`MissError::UnsupportedVersion`].
pub const FORMAT_VERSION: u32 = 2;

/// Fixed header prefix: magic + version + section count + fingerprint.
pub const HEADER_FIXED_LEN: usize = 24;

/// Bytes per section-table entry: id (4) + length (8) + checksum (8).
pub const SECTION_ENTRY_LEN: usize = 20;

/// Section id: parameter values (required).
pub const SECTION_PARAMS: u32 = 1;
/// Section id: Adam moments (optional — inference artifacts may drop it).
pub const SECTION_MOMENTS: u32 = 2;
/// Section id: training progress (optional — present in resumable
/// checkpoints saved by the trainer).
pub const SECTION_PROGRESS: u32 = 3;
/// Section id: the best-validation weights, values only (present exactly
/// when the progress section names a best epoch).
pub const SECTION_BEST: u32 = 4;

/// Sections a reader accepts, small enough that a corrupt count can never
/// drive a large table allocation.
const MAX_SECTIONS: u32 = 8;

fn section_name(id: u32) -> Option<&'static str> {
    match id {
        SECTION_PARAMS => Some("params"),
        SECTION_MOMENTS => Some("moments"),
        SECTION_PROGRESS => Some("progress"),
        SECTION_BEST => Some("best"),
        _ => None,
    }
}

/// The best validated epoch so far, with the weights it ended on.
#[derive(Clone, Debug, PartialEq)]
pub struct Best {
    /// Epoch (1-based, counting pre-training) whose weights these are.
    pub epoch: u64,
    /// Validation AUC at that epoch.
    pub auc: f64,
    /// Validation Logloss at that epoch.
    pub logloss: f64,
    /// Parameter values at that epoch (no moments).
    pub weights: StoreSnapshot,
}

/// Where a run was when it was checkpointed: enough state to make a resumed
/// run bitwise identical to an uninterrupted one (together with the latest
/// weights and moments stored alongside) and to finish it the same way —
/// same phase, same early-stopping state, same best weights.
#[derive(Clone, Debug, PartialEq)]
pub struct TrainProgress {
    /// Epochs fully completed, pre-training included.
    pub epoch: u64,
    /// Adam steps applied in the current phase (drives bias correction on
    /// resume).
    pub step: u64,
    /// Training RNG raw state (`Rng::state_parts().0`).
    pub rng_state: u64,
    /// Training RNG stream increment (`Rng::state_parts().1`, always odd).
    pub rng_inc: u64,
    /// The phase schedule: `None` for joint training; `Some(n)` for
    /// SSL-only pre-training while `epoch < n`, then CTR-only fine-tuning.
    pub pretrain_epochs: Option<u64>,
    /// The best validated epoch so far; `None` before the first one. Its
    /// weights travel in the best section.
    pub best: Option<Best>,
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

fn encode_named_tensor(out: &mut Vec<u8>, name: &str, tensors: &[&Tensor]) {
    put_str(out, name);
    put_u64(out, tensors[0].rows() as u64);
    put_u64(out, tensors[0].cols() as u64);
    for t in tensors {
        put_f32s(out, t.as_slice());
    }
}

fn encode_params(store: &ParamStore) -> Vec<u8> {
    let mut out = Vec::new();
    put_u32(&mut out, store.num_dense() as u32);
    put_u32(&mut out, store.num_tables() as u32);
    for p in store.dense_views() {
        encode_named_tensor(&mut out, p.name, &[p.value]);
    }
    for t in store.table_views() {
        encode_named_tensor(&mut out, t.name, &[t.value]);
    }
    out
}

fn encode_moments(store: &ParamStore) -> Vec<u8> {
    let mut out = Vec::new();
    put_u32(&mut out, store.num_dense() as u32);
    put_u32(&mut out, store.num_tables() as u32);
    for p in store.dense_views() {
        encode_named_tensor(&mut out, p.name, &[p.m, p.v]);
    }
    for t in store.table_views() {
        encode_named_tensor(&mut out, t.name, &[t.m, t.v]);
    }
    out
}

fn encode_progress(p: &TrainProgress) -> Vec<u8> {
    let (two_stage, pretrain) = p.pretrain_epochs.map_or((0, 0), |n| (1, n));
    let best = p.best.as_ref();
    let (best, auc, logloss) = best.map_or((0, 0.0, 0.0), |b| (b.epoch, b.auc, b.logloss));
    let mut out = Vec::new();
    for v in [p.epoch, p.step, p.rng_state, p.rng_inc, two_stage, pretrain, best] {
        put_u64(&mut out, v);
    }
    put_u64(&mut out, auc.to_bits());
    put_u64(&mut out, logloss.to_bits());
    out
}

/// Serialise `store` (and, when given, training progress with its best
/// weights) to `w`.
///
/// The moments section is always written by this entry point; a future
/// inference-artifact exporter may omit it, which [`load`] already accepts.
pub fn save(
    w: &mut impl Write,
    store: &ParamStore,
    progress: Option<&TrainProgress>,
) -> Result<(), MissError> {
    let mut sections: Vec<(u32, Vec<u8>)> = vec![
        (SECTION_PARAMS, encode_params(store)),
        (SECTION_MOMENTS, encode_moments(store)),
    ];
    if let Some(p) = progress {
        sections.push((SECTION_PROGRESS, encode_progress(p)));
        if let Some(best) = &p.best {
            // The snapshot is positional; a values-only copy of the store
            // pairs each value with its registration name.
            let mut shadow = store.values_only();
            shadow.restore(&best.weights);
            sections.push((SECTION_BEST, encode_params(&shadow)));
        }
    }

    let mut header = Vec::with_capacity(HEADER_FIXED_LEN + sections.len() * SECTION_ENTRY_LEN + 8);
    header.extend_from_slice(&MAGIC);
    put_u32(&mut header, FORMAT_VERSION);
    put_u32(&mut header, sections.len() as u32);
    put_u64(&mut header, store.params_fingerprint());
    for (id, payload) in &sections {
        put_u32(&mut header, *id);
        put_u64(&mut header, payload.len() as u64);
        put_u64(&mut header, fnv1a(payload));
    }
    let hsum = fnv1a(&header);
    put_u64(&mut header, hsum);

    w.write_all(&header)?;
    for (_, payload) in &sections {
        w.write_all(payload)?;
    }
    Ok(())
}

/// [`save`] into a fresh byte buffer.
pub fn save_to_vec(
    store: &ParamStore,
    progress: Option<&TrainProgress>,
) -> Result<Vec<u8>, MissError> {
    let mut out = Vec::new();
    save(&mut out, store, progress)?;
    Ok(out)
}

/// The sibling temp path an atomic [`save_to_path`] stages into:
/// `<path>.tmp`, always on the same filesystem so the final rename is atomic.
pub fn tmp_sibling(path: &Path) -> std::path::PathBuf {
    let mut os = path.as_os_str().to_owned();
    os.push(".tmp");
    std::path::PathBuf::from(os)
}

/// Stage the full checkpoint into `tmp` and force it to stable storage.
fn write_and_sync(
    tmp: &Path,
    store: &ParamStore,
    progress: Option<&TrainProgress>,
) -> Result<(), MissError> {
    let file = std::fs::File::create(tmp)?;
    let mut fw = crate::faultio::FaultWriter::new(file);
    {
        let mut bw = std::io::BufWriter::new(&mut fw);
        save(&mut bw, store, progress)?;
        bw.flush()?;
    }
    // The data must be durable *before* the rename publishes it; otherwise a
    // power loss could leave a fully-named but hollow checkpoint.
    fw.get_ref().sync_all()?;
    Ok(())
}

/// [`save`] to a file path, atomically.
///
/// The bytes are staged into [`tmp_sibling`]`(path)`, flushed, `sync_all`ed,
/// and only then renamed over `path`. A crash (or injected fault) at *any*
/// byte offset of the write therefore leaves `path` either untouched (old
/// valid checkpoint, or absent on a first save) — never a torn file. The
/// temp file is removed on failure.
pub fn save_to_path(
    path: &Path,
    store: &ParamStore,
    progress: Option<&TrainProgress>,
) -> Result<(), MissError> {
    let tmp = tmp_sibling(path);
    let staged = write_and_sync(&tmp, store, progress);
    match staged {
        Ok(()) => match std::fs::rename(&tmp, path) {
            Ok(()) => Ok(()),
            Err(e) => {
                let _ = std::fs::remove_file(&tmp);
                Err(MissError::Io(e))
            }
        },
        Err(e) => {
            let _ = std::fs::remove_file(&tmp);
            Err(e)
        }
    }
}

/// Bounded, deterministic retry schedule for checkpoint I/O.
///
/// Backoff is a *fixed* table of sleeps (no clocks are read, so clippy's
/// `disallowed_methods` gate on wall-clock reads holds), and retried runs
/// behave identically everywhere.
#[derive(Clone, Debug)]
pub struct RetryPolicy {
    /// Total attempts (the first try included). Clamped to at least 1.
    pub attempts: u32,
    /// Sleep before retry k (1-based) is `backoff_ms[k-1]`, saturating at
    /// the last entry. Empty means retry immediately.
    pub backoff_ms: Vec<u64>,
}

impl Default for RetryPolicy {
    /// 3 attempts, sleeping 1ms then 5ms between them (DESIGN.md §9).
    fn default() -> RetryPolicy {
        RetryPolicy {
            attempts: 3,
            backoff_ms: vec![1, 5],
        }
    }
}

/// [`save_to_path`] with bounded retry on **I/O errors only**.
///
/// Transient-class failures (`MissError::Io`) are retried up to
/// `policy.attempts` times with the fixed `policy.backoff_ms` schedule; each
/// failed attempt logs one line to stderr. Any other error class is
/// permanent (a bug or corruption, not weather) and returns immediately.
/// Atomicity is per attempt, so a retried save never exposes a torn file.
pub fn save_to_path_retrying(
    path: &Path,
    store: &ParamStore,
    progress: Option<&TrainProgress>,
    policy: &RetryPolicy,
) -> Result<(), MissError> {
    let attempts = policy.attempts.max(1);
    let mut last: Option<MissError> = None;
    for attempt in 1..=attempts {
        if attempt > 1 {
            let ms = policy
                .backoff_ms
                .get(attempt as usize - 2)
                .or(policy.backoff_ms.last())
                .copied()
                .unwrap_or(0);
            if ms > 0 {
                std::thread::sleep(std::time::Duration::from_millis(ms));
            }
        }
        match save_to_path(path, store, progress) {
            Ok(()) => return Ok(()),
            Err(MissError::Io(e)) => {
                eprintln!(
                    "miss-codec: checkpoint write to {} failed (attempt {attempt}/{attempts}): {e}",
                    path.display()
                );
                last = Some(MissError::Io(e));
            }
            Err(permanent) => return Err(permanent),
        }
    }
    Err(last.unwrap_or_else(|| {
        MissError::Io(std::io::Error::other("retry loop exited without an error"))
    }))
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

/// Read exactly `n` bytes. The claimed `n` is untrusted: `take` bounds the
/// read so a huge length only ever allocates what the source actually holds,
/// and a short read is typed corruption, not an `io::Error`.
fn read_exactly(
    r: &mut impl Read,
    n: u64,
    section: &'static str,
    what: &str,
) -> Result<Vec<u8>, MissError> {
    let mut buf = Vec::new();
    r.take(n).read_to_end(&mut buf)?;
    if buf.len() as u64 != n {
        return Err(MissError::corrupt(
            section,
            format!("truncated: {what} needs {n} bytes, only {} present", buf.len()),
        ));
    }
    Ok(buf)
}

struct SectionEntry {
    id: u32,
    name: &'static str,
    len: u64,
    checksum: u64,
}

struct Header {
    fingerprint: u64,
    entries: Vec<SectionEntry>,
    /// Total encoded header length (through the header checksum).
    len: usize,
}

fn decode_header(r: &mut impl Read) -> Result<Header, MissError> {
    let prefix = read_exactly(r, HEADER_FIXED_LEN as u64, "header", "fixed header")?;
    if prefix[0..8] != MAGIC {
        return Err(MissError::corrupt(
            "header",
            format!("bad magic {:02x?} (expected {:02x?})", &prefix[0..8], MAGIC),
        ));
    }
    let version = u32_le(&prefix[8..12]);
    if version != FORMAT_VERSION {
        return Err(MissError::UnsupportedVersion {
            found: version,
            supported: FORMAT_VERSION,
        });
    }
    let n_sections = u32_le(&prefix[12..16]);
    if n_sections == 0 || n_sections > MAX_SECTIONS {
        return Err(MissError::corrupt(
            "header",
            format!("implausible section count {n_sections} (max {MAX_SECTIONS})"),
        ));
    }
    let fingerprint = u64_le(&prefix[16..24]);

    let table_len = n_sections as u64 * SECTION_ENTRY_LEN as u64;
    let table = read_exactly(r, table_len, "header", "section table")?;
    let declared = u64_le(&read_exactly(r, 8, "header", "header checksum")?);

    let mut header_bytes = prefix;
    header_bytes.extend_from_slice(&table);
    if fnv1a(&header_bytes) != declared {
        return Err(MissError::corrupt("header", "header checksum mismatch"));
    }

    let mut entries = Vec::with_capacity(n_sections as usize);
    for i in 0..n_sections as usize {
        let e = &table[i * SECTION_ENTRY_LEN..(i + 1) * SECTION_ENTRY_LEN];
        let id = u32_le(&e[0..4]);
        let name = section_name(id).ok_or_else(|| {
            MissError::corrupt("header", format!("unknown section id {id}"))
        })?;
        if entries.iter().any(|p: &SectionEntry| p.id == id) {
            return Err(MissError::corrupt(
                "header",
                format!("duplicate section id {id}"),
            ));
        }
        entries.push(SectionEntry {
            id,
            name,
            len: u64_le(&e[4..12]),
            checksum: u64_le(&e[12..20]),
        });
    }
    Ok(Header {
        fingerprint,
        entries,
        len: header_bytes.len() + 8,
    })
}

/// One decoded `(name, shape, payload tensors)` record.
struct NamedTensors {
    name: String,
    tensors: Vec<Tensor>,
}

fn decode_named_tensor(
    r: &mut SectionReader<'_>,
    section: &'static str,
    per_record: usize,
) -> Result<NamedTensors, MissError> {
    let name = r.str("record name")?.to_string();
    let rows = r.u64("rows")?;
    let cols = r.u64("cols")?;
    let (rows, cols) = (
        usize::try_from(rows)
            .map_err(|_| MissError::corrupt(section, format!("rows {rows} out of range")))?,
        usize::try_from(cols)
            .map_err(|_| MissError::corrupt(section, format!("cols {cols} out of range")))?,
    );
    let count = rows.checked_mul(cols).ok_or_else(|| {
        MissError::corrupt(section, format!("shape {rows}x{cols} overflows"))
    })?;
    let mut tensors = Vec::with_capacity(per_record);
    for _ in 0..per_record {
        let data = r.f32s(count, "tensor data")?;
        tensors.push(Tensor::try_from_vec(rows, cols, data)?);
    }
    Ok(NamedTensors { name, tensors })
}

struct TensorSection {
    dense: Vec<NamedTensors>,
    tables: Vec<NamedTensors>,
}

fn decode_tensor_section(
    payload: &[u8],
    section: &'static str,
    per_record: usize,
) -> Result<TensorSection, MissError> {
    let mut r = SectionReader::new(payload, section);
    let n_dense = r.u32("dense count")? as usize;
    let n_tables = r.u32("table count")? as usize;
    // Each record costs ≥ 20 payload bytes, so the remaining length bounds
    // the record counts before any Vec::with_capacity trusts them.
    let plausible = r.remaining() / 20 + 1;
    if n_dense > plausible || n_tables > plausible {
        return Err(MissError::corrupt(
            section,
            format!("record counts {n_dense}+{n_tables} exceed payload capacity"),
        ));
    }
    let mut dense = Vec::with_capacity(n_dense);
    for _ in 0..n_dense {
        dense.push(decode_named_tensor(&mut r, section, per_record)?);
    }
    let mut tables = Vec::with_capacity(n_tables);
    for _ in 0..n_tables {
        tables.push(decode_named_tensor(&mut r, section, per_record)?);
    }
    r.finish()?;
    Ok(TensorSection { dense, tables })
}

/// The progress section. A best epoch's weights arrive in their own section;
/// until [`load`] fills them in they are an empty snapshot.
fn decode_progress(payload: &[u8]) -> Result<TrainProgress, MissError> {
    let mut r = SectionReader::new(payload, "progress");
    let mut next = |what| r.u64(what);
    let (epoch, step, rng_state, rng_inc) =
        (next("epoch")?, next("step")?, next("rng state")?, next("rng increment")?);
    let (two_stage, pretrain) = (next("phase")?, next("pretrain epochs")?);
    let (best_epoch, auc, logloss) = (
        next("best epoch")?,
        f64::from_bits(next("best auc")?),
        f64::from_bits(next("best logloss")?),
    );
    r.finish()?;
    let corrupt = |reason: String| Err(MissError::corrupt("progress", reason));
    let pretrain_epochs = match (two_stage, pretrain) {
        (0, 0) => None,
        (1, n) => Some(n),
        _ => return corrupt(format!("unknown phase schedule {two_stage}/{pretrain}")),
    };
    if rng_inc & 1 == 0 {
        return corrupt(format!("rng increment {rng_inc} must be odd"));
    }
    if best_epoch > epoch {
        return corrupt(format!("best epoch {best_epoch} is beyond the {epoch} epochs run"));
    }
    if best_epoch > 0 && !((0.0..=1.0).contains(&auc) && logloss >= 0.0) {
        return corrupt(format!("best validation AUC {auc} / Logloss {logloss} out of range"));
    }
    let weights = StoreSnapshot::default();
    Ok(TrainProgress {
        epoch,
        step,
        rng_state,
        rng_inc,
        pretrain_epochs,
        best: (best_epoch > 0).then_some(Best { epoch: best_epoch, auc, logloss, weights }),
    })
}

fn check_counts(section: &TensorSection, store: &ParamStore) -> Result<(), MissError> {
    for (kind, expected, got) in [
        ("dense params", store.num_dense(), section.dense.len()),
        ("embedding tables", store.num_tables(), section.tables.len()),
    ] {
        if got != expected {
            return Err(MissError::CountMismatch { kind, expected, got });
        }
    }
    Ok(())
}

/// Set every value record of a params-shaped section by name.
fn apply_values(section: TensorSection, store: &mut ParamStore) -> Result<(), MissError> {
    check_counts(&section, store)?;
    for mut rec in section.dense {
        store.set_dense_param(&rec.name, rec.tensors.swap_remove(0))?;
    }
    for mut rec in section.tables {
        store.set_table_param(&rec.name, rec.tensors.swap_remove(0))?;
    }
    Ok(())
}

/// Load a checkpoint into `store`, which must already hold the matching
/// architecture (construct the model first, then load — same contract as the
/// old format). The store receives the *latest* weights and moments; the
/// returned training progress, when the artifact carries one, holds the
/// best-validation weights as a snapshot of that store.
///
/// Every malformed input returns a typed [`MissError`]; no input can panic.
/// On `Err` the store may hold a mix of old and new values — callers should
/// treat a failed load as fatal for that store (drop and rebuild), which is
/// what the trainer's resume path and the CLI do.
pub fn load(r: &mut impl Read, store: &mut ParamStore) -> Result<Option<TrainProgress>, MissError> {
    let header = decode_header(r)?;

    let mut params: Option<TensorSection> = None;
    let mut moments: Option<TensorSection> = None;
    let mut progress: Option<TrainProgress> = None;
    let mut best: Option<TensorSection> = None;
    for entry in &header.entries {
        let payload = read_exactly(r, entry.len, entry.name, "section payload")?;
        if fnv1a(&payload) != entry.checksum {
            return Err(MissError::corrupt(entry.name, "section checksum mismatch"));
        }
        match entry.id {
            SECTION_PARAMS => params = Some(decode_tensor_section(&payload, "params", 1)?),
            SECTION_MOMENTS => moments = Some(decode_tensor_section(&payload, "moments", 2)?),
            SECTION_PROGRESS => progress = Some(decode_progress(&payload)?),
            SECTION_BEST => best = Some(decode_tensor_section(&payload, "best", 1)?),
            _ => {
                // decode_header already rejected unknown ids.
                return Err(MissError::corrupt("header", format!("unknown id {}", entry.id)));
            }
        }
    }
    let Some(params) = params else {
        return Err(MissError::corrupt("header", "missing required params section"));
    };
    apply_values(params, store)?;

    if let Some(moments) = moments {
        check_counts(&moments, store)?;
        for mut rec in moments.dense {
            let v = rec.tensors.swap_remove(1);
            let m = rec.tensors.swap_remove(0);
            store.set_dense_moments(&rec.name, m, v)?;
        }
        for mut rec in moments.tables {
            let v = rec.tensors.swap_remove(1);
            let m = rec.tensors.swap_remove(0);
            store.set_table_moments(&rec.name, m, v)?;
        }
    }

    let got = store.params_fingerprint();
    if got != header.fingerprint {
        return Err(MissError::corrupt(
            "params",
            format!(
                "fingerprint mismatch after load: stored {:#018x}, recomputed {got:#018x}",
                header.fingerprint
            ),
        ));
    }

    match (progress.as_mut().and_then(|p| p.best.as_mut()), best) {
        (Some(best), Some(section)) => {
            let mut shadow = store.values_only();
            apply_values(section, &mut shadow)?;
            best.weights = shadow.snapshot();
        }
        (None, None) => {}
        (Some(_), None) => {
            let reason = "the progress names a best epoch but the best section is missing";
            return Err(MissError::corrupt("best", reason));
        }
        (None, Some(_)) => {
            let reason = "a best section without a best epoch in the progress";
            return Err(MissError::corrupt("best", reason));
        }
    }
    Ok(progress)
}

/// [`load`] from an in-memory byte slice.
pub fn load_from_slice(
    bytes: &[u8],
    store: &mut ParamStore,
) -> Result<Option<TrainProgress>, MissError> {
    let mut r = bytes;
    load(&mut r, store)
}

/// [`load`] from a file path (buffered, read faults injectable via the
/// `codec.read.*` fail-point sites).
pub fn load_from_path(
    path: &Path,
    store: &mut ParamStore,
) -> Result<Option<TrainProgress>, MissError> {
    let file = crate::faultio::FaultReader::new(std::fs::File::open(path)?);
    let mut f = std::io::BufReader::new(file);
    load(&mut f, store)
}

// ---------------------------------------------------------------------------
// Layout inspection
// ---------------------------------------------------------------------------

/// One section's position inside an encoded checkpoint.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SectionInfo {
    /// Wire id ([`SECTION_PARAMS`] / [`SECTION_MOMENTS`] / [`SECTION_PROGRESS`]
    /// / [`SECTION_BEST`]).
    pub id: u32,
    /// Human name ("params" / "moments" / "progress" / "best").
    pub name: &'static str,
    /// Byte offset of the payload within the file.
    pub offset: usize,
    /// Payload length in bytes.
    pub len: usize,
}

/// The decoded header geometry of an encoded checkpoint: where the header
/// ends and where each section payload lives. Used by tooling and by the
/// corruption-battery tests to aim their damage precisely.
#[derive(Clone, Debug)]
pub struct Layout {
    /// Bytes occupied by the header (magic through header checksum).
    pub header_len: usize,
    /// Fingerprint stored in the header.
    pub fingerprint: u64,
    /// Sections in file order.
    pub sections: Vec<SectionInfo>,
}

/// Parse just the header of `bytes` and report the file's geometry.
pub fn layout(bytes: &[u8]) -> Result<Layout, MissError> {
    let mut r = bytes;
    let header = decode_header(&mut r)?;
    let mut offset = header.len;
    let mut sections = Vec::with_capacity(header.entries.len());
    for e in &header.entries {
        let len = usize::try_from(e.len)
            .map_err(|_| MissError::corrupt("header", format!("section length {} out of range", e.len)))?;
        sections.push(SectionInfo {
            id: e.id,
            name: e.name,
            offset,
            len,
        });
        offset += len;
    }
    Ok(Layout {
        header_len: header.len,
        fingerprint: header.fingerprint,
        sections,
    })
}
