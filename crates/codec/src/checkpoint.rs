//! The versioned checkpoint container: header, checksummed section table,
//! and the arch / params / moments / progress / best section payloads.
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
//! [`load`] applies a file of the expected arch to a store built for it
//! (the resume path);
//! [`read`] hands back the file's own weights and the model it names.

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
/// the best section; version 3 the required arch section. An older file is
/// [`MissError::UnsupportedVersion`].
pub const FORMAT_VERSION: u32 = 3;

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
/// Section id: the model the weights belong to (required).
pub const SECTION_ARCH: u32 = 5;

/// Sections a reader accepts, small enough that a corrupt count can never
/// drive a large table allocation.
const MAX_SECTIONS: u32 = 8;

fn section_name(id: u32) -> Option<&'static str> {
    match id {
        SECTION_PARAMS => Some("params"),
        SECTION_MOMENTS => Some("moments"),
        SECTION_PROGRESS => Some("progress"),
        SECTION_BEST => Some("best"),
        SECTION_ARCH => Some("arch"),
        _ => None,
    }
}

/// Widest embedding or tower layer, and most tower layers, an arch section
/// may name: a reader builds the model before copying any weight.
pub const MAX_ARCH_WIDTH: usize = 1024;
const MAX_ARCH_LAYERS: usize = 8;

/// Which model a checkpoint holds: the base model's label (as in the
/// paper's tables) and the widths that change its parameter registration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Arch {
    pub model: String,
    pub embed_dim: usize,
    /// Deep-tower widths, ending in the 1-wide logit.
    pub mlp_sizes: Vec<usize>,
}

impl std::fmt::Display for Arch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let Arch { model, embed_dim, mlp_sizes } = self;
        write!(f, "{model} (embed {embed_dim}, tower {mlp_sizes:?})")
    }
}

/// A non-empty label, widths in `1..=MAX_ARCH_WIDTH`, 1 to 8 tower layers
/// ending in 1. A save refuses what a load would, so no file is unreadable.
fn check_arch(arch: &Arch) -> Result<(), MissError> {
    let width = |w: &usize| (1..=MAX_ARCH_WIDTH).contains(w);
    let tower = &arch.mlp_sizes;
    if arch.model.is_empty()
        || !width(&arch.embed_dim)
        || !(1..=MAX_ARCH_LAYERS).contains(&tower.len())
        || !tower.iter().all(width)
        || tower.last() != Some(&1)
    {
        return Err(MissError::corrupt("arch", format!("impossible model {arch:?}")));
    }
    Ok(())
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

fn encode_arch(arch: &Arch) -> Result<Vec<u8>, MissError> {
    check_arch(arch)?;
    let mut out = Vec::new();
    put_str(&mut out, &arch.model);
    put_u64(&mut out, arch.embed_dim as u64);
    put_u32(&mut out, arch.mlp_sizes.len() as u32);
    for &w in &arch.mlp_sizes {
        put_u64(&mut out, w as u64);
    }
    Ok(out)
}

/// Serialise `store` as the weights of `arch` (and, when given, training
/// progress with its best weights) to `w`. An arch no reader would accept
/// is `Corrupt{arch}`, and nothing is written.
///
/// The moments section is always written by this entry point; a future
/// inference-artifact exporter may omit it, which [`load`] already accepts.
pub fn save(
    w: &mut impl Write,
    store: &ParamStore,
    arch: &Arch,
    progress: Option<&TrainProgress>,
) -> Result<(), MissError> {
    let mut sections: Vec<(u32, Vec<u8>)> = vec![
        (SECTION_ARCH, encode_arch(arch)?),
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
    arch: &Arch,
    progress: Option<&TrainProgress>,
) -> Result<Vec<u8>, MissError> {
    let mut out = Vec::new();
    save(&mut out, store, arch, progress)?;
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
    arch: &Arch,
    progress: Option<&TrainProgress>,
) -> Result<(), MissError> {
    let file = std::fs::File::create(tmp)?;
    let mut fw = crate::faultio::FaultWriter::new(file);
    {
        let mut bw = std::io::BufWriter::new(&mut fw);
        save(&mut bw, store, arch, progress)?;
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
    arch: &Arch,
    progress: Option<&TrainProgress>,
) -> Result<(), MissError> {
    let tmp = tmp_sibling(path);
    let published = write_and_sync(&tmp, store, arch, progress)
        .and_then(|()| std::fs::rename(&tmp, path).map_err(MissError::Io));
    if published.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    published
}

/// Attempts [`save_to_path_retrying`] makes, the first one included.
pub const SAVE_ATTEMPTS: u32 = 3;

/// Sleep before each retry of [`save_to_path_retrying`]: a fixed table, so
/// no clock is read (clippy's `disallowed_methods` gate on wall-clock reads
/// holds) and retried runs behave identically everywhere.
const SAVE_BACKOFF_MS: [u64; SAVE_ATTEMPTS as usize - 1] = [1, 5];

/// [`save_to_path`] with bounded retry on **I/O errors only**.
///
/// Transient-class failures (`MissError::Io`) are retried, up to
/// [`SAVE_ATTEMPTS`] attempts in all, sleeping 1 ms then 5 ms between them;
/// each failed attempt logs one line to stderr. Any other error class is
/// permanent (a bug or corruption, not weather) and returns immediately.
/// Atomicity is per attempt, so a retried save never exposes a torn file.
pub fn save_to_path_retrying(
    path: &Path,
    store: &ParamStore,
    arch: &Arch,
    progress: Option<&TrainProgress>,
) -> Result<(), MissError> {
    let mut backoff = SAVE_BACKOFF_MS.iter();
    let mut attempt = 1;
    loop {
        match save_to_path(path, store, arch, progress) {
            Ok(()) => return Ok(()),
            Err(MissError::Io(e)) => {
                eprintln!(
                    "miss-codec: checkpoint write to {} failed (attempt {attempt}/{SAVE_ATTEMPTS}): {e}",
                    path.display()
                );
                let Some(&ms) = backoff.next() else { return Err(MissError::Io(e)) };
                std::thread::sleep(std::time::Duration::from_millis(ms));
                attempt += 1;
            }
            Err(permanent) => return Err(permanent),
        }
    }
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
    Ok(Header { fingerprint, entries })
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

fn decode_arch(payload: &[u8]) -> Result<Arch, MissError> {
    let mut r = SectionReader::new(payload, "arch");
    let width = |w: u64| usize::try_from(w).unwrap_or(usize::MAX);
    let model = r.str("model label")?.to_string();
    let embed_dim = width(r.u64("embed dim")?);
    // A hostile layer count runs out of payload bytes, not memory.
    let mut mlp_sizes = Vec::new();
    for _ in 0..r.u32("tower layer count")? {
        mlp_sizes.push(width(r.u64("tower width")?));
    }
    r.finish()?;
    let arch = Arch { model, embed_dim, mlp_sizes };
    check_arch(&arch)?;
    Ok(arch)
}

/// Every section of a file, length- and checksum-verified and parsed, with
/// the best section paired to the progress that names it; nothing applied.
struct Decoded {
    fingerprint: u64,
    arch: Arch,
    params: TensorSection,
    moments: Option<TensorSection>,
    progress: Option<TrainProgress>,
    best: Option<TensorSection>,
}

fn decode(r: &mut impl Read) -> Result<Decoded, MissError> {
    let header = decode_header(r)?;
    let mut arch: Option<Arch> = None;
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
            SECTION_ARCH => arch = Some(decode_arch(&payload)?),
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
    let Some(arch) = arch else {
        return Err(MissError::corrupt("arch", "missing required arch section"));
    };
    if progress.as_ref().is_some_and(|p| p.best.is_some()) != best.is_some() {
        let reason = "a best section must come exactly with a best epoch in the progress";
        return Err(MissError::corrupt("best", reason));
    }
    Ok(Decoded { fingerprint: header.fingerprint, arch, params, moments, progress, best })
}

/// The last steps of both read paths, once `store` holds the latest
/// weights: the header's fingerprint must be the one `store` recomputes,
/// then the best section fills the progress's best weights as a snapshot of
/// `store`.
fn finish(
    store: &ParamStore,
    fingerprint: u64,
    mut progress: Option<TrainProgress>,
    best: Option<TensorSection>,
) -> Result<Option<TrainProgress>, MissError> {
    let got = store.params_fingerprint();
    if got != fingerprint {
        let reason = format!("fingerprint mismatch: stored {fingerprint:#018x}, recomputed {got:#018x}");
        return Err(MissError::corrupt("params", reason));
    }
    if let (Some(best), Some(section)) = (progress.as_mut().and_then(|p| p.best.as_mut()), best) {
        let mut shadow = store.values_only();
        apply_values(section, &mut shadow)?;
        best.weights = shadow.snapshot();
    }
    Ok(progress)
}

/// Load a checkpoint of `arch` into `store`, which must already hold that
/// architecture (construct the model first, then load): the resume path.
/// A file whose arch section names another model or other widths is
/// [`MissError::ArchMismatch`] before any value reaches `store`. The store
/// receives the *latest* weights and moments; the returned training
/// progress, when the artifact carries one, holds the best-validation
/// weights as a snapshot of that store.
///
/// Every malformed input returns a typed [`MissError`]; no input can panic.
/// On `Err` the store may hold a mix of old and new values — callers should
/// treat a failed load as fatal for that store (drop and rebuild), which is
/// what the trainer's resume path and the CLI do.
pub fn load(
    r: &mut impl Read,
    arch: &Arch,
    store: &mut ParamStore,
) -> Result<Option<TrainProgress>, MissError> {
    let Decoded { fingerprint, arch: found, params, moments, progress, best } = decode(r)?;
    if found != *arch {
        let (expected, found) = (arch.to_string(), found.to_string());
        return Err(MissError::ArchMismatch { expected, found });
    }
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
    finish(store, fingerprint, progress, best)
}

/// [`load`] from an in-memory byte slice.
pub fn load_from_slice(
    bytes: &[u8],
    arch: &Arch,
    store: &mut ParamStore,
) -> Result<Option<TrainProgress>, MissError> {
    let mut r = bytes;
    load(&mut r, arch, store)
}

/// [`load`] from a file path (buffered, read faults injectable via the
/// `codec.read.*` fail-point sites).
pub fn load_from_path(
    path: &Path,
    arch: &Arch,
    store: &mut ParamStore,
) -> Result<Option<TrainProgress>, MissError> {
    let file = crate::faultio::FaultReader::new(std::fs::File::open(path)?);
    let mut f = std::io::BufReader::new(file);
    load(&mut f, arch, store)
}

/// A checkpoint read without a model built for it.
pub struct Checkpoint {
    pub arch: Arch,
    /// The latest values, no moments, registered in file order.
    pub params: ParamStore,
    /// Its best weights, if any, are a snapshot of `params`.
    pub progress: Option<TrainProgress>,
}

/// Read a checkpoint's weights without a pre-built store. Every check
/// [`load`] makes runs but the arch comparison (the arch is returned
/// instead); the moments are parsed, then dropped.
pub fn read(r: &mut impl Read) -> Result<Checkpoint, MissError> {
    let Decoded { fingerprint, arch, params, progress, best, .. } = decode(r)?;
    let values = |records: Vec<NamedTensors>| {
        records.into_iter().map(|mut rec| (rec.name, rec.tensors.swap_remove(0)))
    };
    let params = ParamStore::from_values(values(params.dense), values(params.tables));
    let progress = finish(&params, fingerprint, progress, best)?;
    Ok(Checkpoint { arch, params, progress })
}
