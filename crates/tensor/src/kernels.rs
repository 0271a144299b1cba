//! Packed-panel GEMM micro-kernels.
//!
//! Every matmul and bmm in the workspace runs one data path. The shared
//! operand B is packed once per GEMM call into contiguous tile-aligned
//! panels ([`pack_b_from_nn`]/[`pack_b_from_nt`]), and [`gemm_packed`]
//! streams A against those panels, six or four output rows at a time, with
//! an optional [`GemmEpilogue`] (bias / bias+ReLU / bias+sigmoid) applied in
//! the accumulator-store tail instead of as separate full-matrix passes.
//!
//! One layout, two accumulation roundings. Where cpuid reports AVX2+FMA the
//! panel body is `fma_panel`, compiled under
//! `#[target_feature(enable = "avx2,fma")]`; everywhere else it is the
//! portable `plain_panel`, safe Rust over the same packed bytes.
//!
//! ## Determinism contract
//!
//! Determinism is **per-(shape, detected ISA)**, never per-thread-count.
//! Every output element is accumulated as a single chain from 0.0 with `p`
//! (the contraction index) strictly ascending; which *independent* elements
//! are computed together (row tile, panel width, the tail panel's zero
//! padding, row-chunk boundaries) never changes the order within one
//! element's chain. Concretely:
//!
//! * The FMA body accumulates `acc = a.mul_add(b, acc)`: one fused rounding
//!   per step. It equals a naive `mul_add` triple loop bitwise.
//! * The portable body accumulates *individually rounded* `acc = acc + a·b`
//!   steps. Rust never reassociates f32 arithmetic or contracts it into FMA,
//!   so it equals a naive `acc += a * b` triple loop bitwise.
//!
//! The two differ by the fused rounding (≤ 1 ULP per step), which is why the
//! contract is per ISA. The dispatched body is a pure function of the
//! detected CPU features (cached cpuid, identical on every thread of the
//! process), so for a fixed machine and shape the result bits are fixed for
//! any `MISS_THREADS` and any chunk boundary placement. Bench JSONs record
//! which ISA ran (see [`detected_isa`]) so baselines compare like-to-like.
//!
//! The module-wide lint exemptions below keep this hot path's codegen as
//! written (DESIGN.md §7): every kernel debug-asserts its slice lengths
//! against `m`/`k`/`n` on entry (the safe callers in `ops.rs` assert the
//! shapes), and the tile loops index several buffers by one lane counter.
#![expect(
    unsafe_code,
    reason = "the cpuid-gated target_feature kernels and their prefetch/store intrinsics; each site carries a SAFETY comment"
)]
#![expect(
    clippy::indexing_slicing,
    reason = "indices stay below the m/k/n extents that each kernel debug-asserts against its slice lengths"
)]
#![expect(
    clippy::needless_range_loop,
    reason = "tile loops index several arrays by one lane counter; iterator rewrites would change GEMM codegen"
)]
#![expect(
    clippy::too_many_arguments,
    reason = "GEMM kernels take operands, extents, row windows and an epilogue as plain scalars"
)]

/// Row-chunk granularity for parallel dispatch: a multiple of both row-tile
/// heights used below (6 in `fma_panel`, 4 in `plain_panel`), so chunk
/// interiors are full tiles whichever body runs.
pub(crate) const TILE_M: usize = 12;

// ---------------------------------------------------------------------------
// Packed B panels, the two panel bodies and the fused epilogues.
//
// Packed layout (one buffer of k·⌈n/8⌉·8 floats, built once per GEMM call
// and shared read-only by every row chunk):
//
//   ┌─ full 16-wide panels ──┐┌ one 8-panel ┐┌─ tail 8-panel ──────────┐
//   │ p-major: k rows × 16   ││ k rows × 8  ││ k rows × 8: n%8 columns │
//   │ floats, contiguous     ││ (if n%16≥8) ││ of B, then zeros        │
//   └────────────────────────┘└─────────────┘└─────────────────────────┘
//
// Every panel starts at column j0 = a multiple of 8 and at offset j0·k.
// The tail panel runs through the same 8-wide tile body as a full one; its
// pad lanes accumulate `a·0` and are never stored, and each valid lane is
// still one p-ascending chain from 0.0 (fused or not), so the padding
// cannot change a bit.
//
// The same layout is produced from row-major B (`pack_b_from_nn`, a strided
// copy) and from transposed n×k storage (`pack_b_from_nt`, a transposing
// gather), so `matmul_nn`, `matmul_nt`, `matmul_tn` and every bmm block all
// run the *same* tile bodies — and A@B == A@(Bᵀ)ᵀ holds bitwise because the
// packed bytes are identical. Scratch for the pack lives in a thread-local
// buffer ([`with_pack_scratch`]) so steady-state GEMM calls allocate
// nothing.
// ---------------------------------------------------------------------------

/// Post-GEMM transform fused into the accumulator-store tail of both panel
/// bodies. The bias slice is one value per output column; ReLU and sigmoid
/// match the autograd ops (`max(0)` / [`crate::math::sigmoid_in_place`])
/// exactly, so fusing changes only where the work happens, not the math
/// applied.
#[derive(Clone, Copy, Debug)]
pub enum GemmEpilogue<'a> {
    /// Plain product.
    None,
    /// `c[i][j] = acc + bias[j]`.
    AddBias(&'a [f32]),
    /// `c[i][j] = max(acc + bias[j], 0)`.
    AddBiasRelu(&'a [f32]),
    /// `c[i][j] = sigmoid(acc + bias[j])`.
    AddBiasSigmoid(&'a [f32]),
}

impl GemmEpilogue<'_> {
    /// The bias slice, if any — used by the ops to validate its width
    /// against the output column count before entering the kernels.
    pub(crate) fn bias(&self) -> Option<&[f32]> {
        match *self {
            GemmEpilogue::None => None,
            GemmEpilogue::AddBias(b)
            | GemmEpilogue::AddBiasRelu(b)
            | GemmEpilogue::AddBiasSigmoid(b) => Some(b),
        }
    }
}

/// The [`GemmEpilogue`] transform of one finished accumulator for column
/// `j`, with the variant selected at compile time (`EP` 0–3 in declaration
/// order). Both panel bodies are monomorphised per epilogue so the common
/// `None` GEMM contains no bias loads, no branch, and — critically — no
/// sigmoid call whose register clobbers would force the accumulator tile to
/// spill. `AddBiasSigmoid` adds the bias here; [`ep_finish`] then takes the
/// sigmoid of the stored lanes in one vector pass.
#[inline(always)]
fn ep_apply<const EP: u8>(bias: &[f32], j: usize, acc: f32) -> f32 {
    match EP {
        0 => acc,
        2 => (acc + bias[j]).max(0.0),
        _ => acc + bias[j],
    }
}

/// The rest of epilogue `EP` over lanes [`ep_apply`] has written: the
/// sigmoid of `AddBiasSigmoid`, nothing for the others.
#[inline(always)]
fn ep_finish<const EP: u8>(lanes: &mut [f32]) {
    if EP == 3 {
        crate::math::sigmoid_in_place(lanes);
    }
}

/// Length of the packed form of a `k×n` B: `n` rounded up to whole 8-wide
/// panels.
pub(crate) fn packed_len(k: usize, n: usize) -> usize {
    k * n.div_ceil(8) * 8
}

/// First column past the last full 16-wide panel; the columns from here to
/// `n` are packed as 8-wide panels, the last one zero-padded.
#[inline(always)]
fn wide_end(n: usize) -> usize {
    n / 16 * 16
}

/// Append the tail panel of a `k×n` B read through `get(p, j)`: columns
/// `n/8·8..n`, zero-padded to 8 lanes. Filling a zeroed block column by
/// column keeps every copy fixed-size, where a `w`-wide copy per row would
/// cost a `memcpy` call per row.
#[inline(always)]
fn pack_tail(out: &mut Vec<f32>, k: usize, n: usize, get: impl Fn(usize, usize) -> f32) {
    let (n8, tail) = (n / 8 * 8, out.len());
    if n8 < n {
        out.resize(tail + k * 8, 0.0);
        for j in n8..n {
            for p in 0..k {
                out[tail + p * 8 + j - n8] = get(p, j);
            }
        }
    }
}

/// Pack row-major `k×n` B into the panel layout described above.
pub(crate) fn pack_b_from_nn(b: &[f32], k: usize, n: usize, out: &mut Vec<f32>) {
    debug_assert_eq!(b.len(), k * n);
    out.clear();
    out.reserve(packed_len(k, n));
    for j0 in (0..wide_end(n)).step_by(16) {
        for p in 0..k {
            out.extend_from_slice(&b[p * n + j0..p * n + j0 + 16]);
        }
    }
    for j0 in (wide_end(n)..n / 8 * 8).step_by(8) {
        for p in 0..k {
            out.extend_from_slice(&b[p * n + j0..p * n + j0 + 8]);
        }
    }
    pack_tail(out, k, n, |p, j| b[p * n + j]);
    debug_assert_eq!(out.len(), packed_len(k, n));
}

/// Pack transposed `n×k` storage (each row of `bt` is one logical column of
/// B) into the *same* panel layout — bit-identical bytes to
/// [`pack_b_from_nn`] on the equivalent row-major B, which is what makes
/// `matmul_nt` agree bitwise with `matmul_nn` + transpose.
pub(crate) fn pack_b_from_nt(bt: &[f32], n: usize, k: usize, out: &mut Vec<f32>) {
    debug_assert_eq!(bt.len(), n * k);
    out.clear();
    out.reserve(packed_len(k, n));
    for j0 in (0..wide_end(n)).step_by(16) {
        for p in 0..k {
            for t in 0..16 {
                out.push(bt[(j0 + t) * k + p]);
            }
        }
    }
    for j0 in (wide_end(n)..n / 8 * 8).step_by(8) {
        for p in 0..k {
            for t in 0..8 {
                out.push(bt[(j0 + t) * k + p]);
            }
        }
    }
    pack_tail(out, k, n, |p, j| bt[j * k + p]);
    debug_assert_eq!(out.len(), packed_len(k, n));
}

std::thread_local! {
    /// Per-thread packing scratch, reused across GEMM calls so steady-state
    /// packing allocates nothing. `Cell` take/put (not `RefCell`) so a
    /// nested GEMM on the same thread degrades to a fresh buffer instead of
    /// a borrow panic.
    static PACK_SCRATCH: std::cell::Cell<Vec<f32>> = const { std::cell::Cell::new(Vec::new()) };
}

/// Run `f` with this thread's reusable packing buffer (contents unspecified
/// on entry; `f` is expected to overwrite via the pack functions above).
pub(crate) fn with_pack_scratch<R>(f: impl FnOnce(&mut Vec<f32>) -> R) -> R {
    PACK_SCRATCH.with(|cell| {
        let mut buf = cell.take();
        let r = f(&mut buf);
        cell.set(buf);
        r
    })
}

/// Best-effort software prefetch of `s[idx..]` into L1; a no-op out of
/// bounds or off x86. Purely a latency hint — never observable in results.
#[inline(always)]
fn prefetch_read(s: &[f32], idx: usize) {
    #[cfg(target_arch = "x86_64")]
    if idx < s.len() {
        // SAFETY: `idx` is bounds-checked above so the pointer is inside the
        // slice; `_mm_prefetch` is a pure cache hint (no loads, no stores,
        // no faults even on bad addresses) and SSE is part of the x86_64
        // baseline, so no runtime feature gate is needed.
        unsafe {
            use core::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
            _mm_prefetch::<_MM_HINT_T0>(s.as_ptr().add(idx) as *const i8);
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = (s, idx);
}

/// How far ahead (in k-steps) the tile bodies prefetch the current panel.
const PF_DIST: usize = 16;

/// Spill `NV` 8-wide accumulators and store the first `cols` lanes through
/// the epilogue into `c[off..off + cols]` (columns `j0..`); lanes past
/// `cols` are a tail panel's zero padding. The accumulator lanes already
/// hold the finished fused chains; only the epilogue transform runs here.
// SAFETY: requires AVX2 (vector stores); the caller dispatches on
// `has_fma()`, and all memory access is via the checked slice/array ops
// plus the bounds-argued stores in the inner block.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn store_ep<const NV: usize, const EP: u8>(
    c: &mut [f32],
    off: usize,
    j0: usize,
    cols: usize,
    acc: &[core::arch::x86_64::__m256; NV],
    bias: &[f32],
) {
    let mut tmp = [0.0f32; 16];
    debug_assert!(NV * 8 <= tmp.len() && cols <= NV * 8);
    // SAFETY: `tmp` holds 16 floats and `NV ≤ 2`, so every 8-wide store at
    // offset v·8 is in bounds; `_mm256_storeu_ps` has no alignment
    // requirement and AVX is guaranteed by the caller's dispatch contract.
    unsafe {
        for v in 0..NV {
            core::arch::x86_64::_mm256_storeu_ps(tmp.as_mut_ptr().add(v * 8), acc[v]);
        }
    }
    if cols == NV * 8 {
        let dst = &mut c[off..off + NV * 8];
        for t in 0..NV * 8 {
            dst[t] = ep_apply::<EP>(bias, j0 + t, tmp[t]);
        }
        ep_finish::<EP>(dst);
        return;
    }
    // A tail panel (NV = 1): epilogue on the valid lanes, then one masked
    // store. A scalar copy of `cols` lanes would become a `memcpy` call per
    // row, which costs more than the row's whole FMA chain at small k.
    debug_assert!(NV == 1);
    for t in 0..cols {
        tmp[t] = ep_apply::<EP>(bias, j0 + t, tmp[t]);
    }
    ep_finish::<EP>(&mut tmp[..cols]);
    let dst = &mut c[off..off + cols];
    let mask: [i32; 8] = core::array::from_fn(|t| if t < cols { -1 } else { 0 });
    // SAFETY: `mask` enables lanes `0..cols` only and `dst` holds `cols`
    // floats, so the store writes inside `dst`; masked-off lanes are never
    // accessed. `tmp` holds 16 floats, so the 8-wide load is in bounds. AVX
    // is guaranteed by the caller's dispatch contract.
    unsafe {
        use core::arch::x86_64::{__m256i, _mm256_loadu_ps, _mm256_loadu_si256, _mm256_maskstore_ps};
        let m = _mm256_loadu_si256(mask.as_ptr().cast::<__m256i>());
        _mm256_maskstore_ps(dst.as_mut_ptr(), m, _mm256_loadu_ps(tmp.as_ptr()));
    }
}

/// One packed panel (`NV·8` columns wide, of which the first `cols` are
/// stored) against output rows `[i0, i1)`:
/// `c[i][j0 + t] = ep(Σ_p a[i][p] · panel[p·W + t])` with one fused
/// multiply-add (`_mm256_fmadd_ps`) chain per element, `p` ascending. Six
/// rows of accumulators stay in YMM registers; the row remainder runs the
/// same chain one row at a time, so splitting the row range anywhere cannot
/// change bits. `COL = true` reads transposed-A storage (`a[p·am + i]`,
/// `am = m`); `COL = false` reads row-major A (`a[i·am + p]`, `am = k`).
// SAFETY: requires AVX2+FMA — the caller dispatches on `has_fma()`; the
// unchecked loads are justified by the debug-asserted layout contract
// (see the per-block SAFETY comments inside).
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn fma_panel<const NV: usize, const COL: bool, const EP: u8>(
    a: &[f32],
    panel: &[f32],
    c: &mut [f32],
    i0: usize,
    i1: usize,
    k: usize,
    am: usize,
    n: usize,
    j0: usize,
    cols: usize,
    bias: &[f32],
) {
    use core::arch::x86_64::{_mm256_fmadd_ps, _mm256_loadu_ps, _mm256_set1_ps, _mm256_setzero_ps};
    let w = NV * 8;
    debug_assert!(panel.len() >= k * w);
    debug_assert!(a.len() >= if COL { k * am } else { i1 * am });
    debug_assert!(!COL || i1 <= am);
    let pp = panel.as_ptr();
    let mut i = i0;
    while i + 6 <= i1 {
        // SAFETY: every `_mm256_loadu_ps(pp.add(p·w + v·8))` reads inside
        // `panel` (len ≥ k·w, debug-asserted); every `a.get_unchecked`
        // index is < a.len() by the layout contract above (row-major:
        // (i+r)·k + p with i+r < i1 ≤ m; transposed: p·m + i + r with
        // i + r < i1 ≤ m); the intrinsics themselves need AVX2+FMA, which
        // the caller's `has_fma()` dispatch guarantees.
        unsafe {
            let mut acc = [[_mm256_setzero_ps(); NV]; 6];
            for p in 0..k {
                let mut b = [_mm256_setzero_ps(); NV];
                for v in 0..NV {
                    b[v] = _mm256_loadu_ps(pp.add(p * w + v * 8));
                }
                prefetch_read(panel, (p + PF_DIST) * w);
                for r in 0..6 {
                    let ai = if COL { p * am + i + r } else { (i + r) * am + p };
                    let av = _mm256_set1_ps(*a.get_unchecked(ai));
                    for v in 0..NV {
                        acc[r][v] = _mm256_fmadd_ps(av, b[v], acc[r][v]);
                    }
                }
            }
            for r in 0..6 {
                store_ep::<NV, EP>(c, (i - i0 + r) * n + j0, j0, cols, &acc[r], bias);
            }
        }
        i += 6;
    }
    while i < i1 {
        // SAFETY: single-row variant of the block above — identical bounds
        // argument with r = 0, identical per-lane chains.
        unsafe {
            let mut acc = [_mm256_setzero_ps(); NV];
            for p in 0..k {
                let ai = if COL { p * am + i } else { i * am + p };
                let av = _mm256_set1_ps(*a.get_unchecked(ai));
                for v in 0..NV {
                    let b = _mm256_loadu_ps(pp.add(p * w + v * 8));
                    acc[v] = _mm256_fmadd_ps(av, b, acc[v]);
                }
            }
            store_ep::<NV, EP>(c, (i - i0) * n + j0, j0, cols, &acc, bias);
        }
        i += 1;
    }
}

// SAFETY: `#[target_feature(enable = "avx2,fma")]` and the AVX2/FMA
// intrinsics in the inlined tile bodies are the only sources of unsafety in
// this wrapper — executing it on a CPU without AVX2+FMA is undefined
// behaviour. Precondition: callers must have verified both features at
// runtime; the safe dispatcher `gemm_packed` checks `has_fma()` (cached
// cpuid) before the call. No alignment precondition (all vector memory ops
// are unaligned); bounds for the tile bodies' unchecked loads follow from
// the debug-asserted shape contract re-checked here at the unsafe entry
// point: `a` is `m×k` row-major (`COL = false`, `am = k`, `i1 = m`) or
// `k×m` transposed (`COL = true`, `am = m ≥ i1`), and `c` is the
// `(i1-i0)×n` window of output rows `[i0, i1)`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn gemm_fma_avx2<const COL: bool, const EP: u8>(
    a: &[f32],
    pb: &[f32],
    c: &mut [f32],
    i0: usize,
    i1: usize,
    k: usize,
    am: usize,
    n: usize,
    bias: &[f32],
) {
    debug_assert!(i0 <= i1 && (!COL || i1 <= am));
    debug_assert_eq!(a.len(), if COL { k * am } else { i1 * am });
    debug_assert_eq!(pb.len(), packed_len(k, n));
    debug_assert_eq!(c.len(), (i1 - i0) * n);
    // SAFETY: the panel starting at column j0 sits at offset j0·k of the
    // packed layout (`pack_b_from_nn`); the tile bodies' feature
    // requirement is this wrapper's own contract.
    unsafe {
        for j0 in (0..wide_end(n)).step_by(16) {
            let panel = &pb[j0 * k..(j0 + 16) * k];
            fma_panel::<2, COL, EP>(a, panel, c, i0, i1, k, am, n, j0, 16, bias);
        }
        for j0 in (wide_end(n)..n).step_by(8) {
            let panel = &pb[j0 * k..(j0 + 8) * k];
            fma_panel::<1, COL, EP>(a, panel, c, i0, i1, k, am, n, j0, (n - j0).min(8), bias);
        }
    }
}

/// The portable panel body: `fma_panel`'s contract in safe Rust over the
/// same `W`-wide packed panel (`W` = 16 or 8, the first `cols` columns
/// stored), with each step an *individually rounded* `acc = acc + a·b`.
/// Four rows of accumulators per tile, then the row remainder one row at a
/// time; every element is the same p-ascending chain from 0.0 either way,
/// so splitting the row range anywhere cannot change bits.
#[inline(always)]
fn plain_panel<const W: usize, const COL: bool, const EP: u8>(
    a: &[f32],
    panel: &[f32],
    c: &mut [f32],
    i0: usize,
    i1: usize,
    k: usize,
    am: usize,
    n: usize,
    j0: usize,
    cols: usize,
    bias: &[f32],
) {
    let mut i = i0;
    while i + 4 <= i1 {
        plain_rows::<4, W, COL, EP>(a, panel, c, i0, i, k, am, n, j0, cols, bias);
        i += 4;
    }
    for i in i..i1 {
        plain_rows::<1, W, COL, EP>(a, panel, c, i0, i, k, am, n, j0, cols, bias);
    }
}

/// Output rows `[i, i + MR)` of [`plain_panel`]: `c[i][j0 + t] =
/// ep(Σ_p a[i][p] · panel[p·W + t])` for `t < cols`, where `c` is the window
/// of output rows from `i0`.
#[inline(always)]
fn plain_rows<const MR: usize, const W: usize, const COL: bool, const EP: u8>(
    a: &[f32],
    panel: &[f32],
    c: &mut [f32],
    i0: usize,
    i: usize,
    k: usize,
    am: usize,
    n: usize,
    j0: usize,
    cols: usize,
    bias: &[f32],
) {
    let mut acc = [[0.0f32; W]; MR];
    for (p, b) in panel.as_chunks::<W>().0[..k].iter().enumerate() {
        for r in 0..MR {
            let av = a[if COL { p * am + i + r } else { (i + r) * am + p }];
            for t in 0..W {
                acc[r][t] += av * b[t];
            }
        }
    }
    for (r, row) in acc.iter().enumerate() {
        let dst = &mut c[(i - i0 + r) * n + j0..][..cols];
        for (t, (d, &v)) in dst.iter_mut().zip(row).enumerate() {
            *d = ep_apply::<EP>(bias, j0 + t, v);
        }
        ep_finish::<EP>(dst);
    }
}

/// Portable counterpart of `gemm_fma_avx2`: the same panel loop over the
/// same packed bytes and row window, with [`plain_panel`] as the tile body.
fn gemm_plain<const COL: bool, const EP: u8>(
    a: &[f32],
    pb: &[f32],
    c: &mut [f32],
    i0: usize,
    i1: usize,
    k: usize,
    am: usize,
    n: usize,
    bias: &[f32],
) {
    debug_assert!(i0 <= i1 && (!COL || i1 <= am));
    debug_assert_eq!(a.len(), if COL { k * am } else { i1 * am });
    debug_assert_eq!(pb.len(), packed_len(k, n));
    debug_assert_eq!(c.len(), (i1 - i0) * n);
    for j0 in (0..wide_end(n)).step_by(16) {
        let panel = &pb[j0 * k..(j0 + 16) * k];
        plain_panel::<16, COL, EP>(a, panel, c, i0, i1, k, am, n, j0, 16, bias);
    }
    for j0 in (wide_end(n)..n).step_by(8) {
        let panel = &pb[j0 * k..(j0 + 8) * k];
        plain_panel::<8, COL, EP>(a, panel, c, i0, i1, k, am, n, j0, (n - j0).min(8), bias);
    }
}

/// Whether the FMA panel body is available (AVX2 + FMA both detected).
/// Cached by std behind atomics; effectively free after the first call.
#[inline]
pub(crate) fn has_fma() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// The GEMM instruction path `matmul`/`bmm` dispatch to on this machine:
/// `"avx2+fma"` or `"baseline"`. Recorded in bench JSON metadata so
/// baselines compare like-to-like (result bits are a pure function of shape
/// and this value).
pub fn detected_isa() -> &'static str {
    if has_fma() {
        "avx2+fma"
    } else {
        "baseline"
    }
}

/// The one GEMM entry point: `c = ep(A @ B)` for output rows `[i0, i1)`,
/// where `pb` is the packed form of the `k×n` B (from either storage) and
/// `c` is the `(i1-i0)×n` window of those rows. *Assigns* `c` (it does not
/// accumulate). `COL = false` reads row-major A (`a` is `i1×k`, `am = k`);
/// `COL = true` reads transposed-A storage (`a` is `k×m`, `am = m`). The
/// epilogue is selected at compile time so the plain GEMM carries no
/// epilogue code.
pub(crate) fn gemm_packed<const COL: bool>(
    a: &[f32],
    pb: &[f32],
    c: &mut [f32],
    i0: usize,
    i1: usize,
    k: usize,
    am: usize,
    n: usize,
    ep: &GemmEpilogue,
) {
    match *ep {
        GemmEpilogue::None => gemm_ep::<COL, 0>(a, pb, c, i0, i1, k, am, n, &[]),
        GemmEpilogue::AddBias(b) => gemm_ep::<COL, 1>(a, pb, c, i0, i1, k, am, n, b),
        GemmEpilogue::AddBiasRelu(b) => gemm_ep::<COL, 2>(a, pb, c, i0, i1, k, am, n, b),
        GemmEpilogue::AddBiasSigmoid(b) => gemm_ep::<COL, 3>(a, pb, c, i0, i1, k, am, n, b),
    }
}

/// The kernel for one epilogue: the FMA body where cpuid reports AVX2+FMA,
/// the portable body everywhere else.
#[inline(always)]
fn gemm_ep<const COL: bool, const EP: u8>(
    a: &[f32],
    pb: &[f32],
    c: &mut [f32],
    i0: usize,
    i1: usize,
    k: usize,
    am: usize,
    n: usize,
    bias: &[f32],
) {
    #[cfg(target_arch = "x86_64")]
    if has_fma() {
        // SAFETY: avx2+fma support was just detected at runtime.
        return unsafe { gemm_fma_avx2::<COL, EP>(a, pb, c, i0, i1, k, am, n, bias) };
    }
    gemm_plain::<COL, EP>(a, pb, c, i0, i1, k, am, n, bias)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fill(len: usize, f: impl Fn(usize) -> f32) -> Vec<f32> {
        (0..len).map(f).collect()
    }

    fn bits(x: &[f32]) -> Vec<u32> {
        x.iter().map(|v| v.to_bits()).collect()
    }

    /// Textbook reference: one p-ascending chain from 0.0 per element, fused
    /// (`mul_add`) or individually rounded (`acc += a * b`), then the
    /// epilogue's scalar math. By the determinism contract the matching
    /// panel body equals it *bitwise*, not just within tolerance.
    fn naive(
        a: &[f32],
        b: &[f32],
        (m, k, n): (usize, usize, usize),
        fused: bool,
        ep: &GemmEpilogue,
    ) -> Vec<f32> {
        let mut c = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for p in 0..k {
                    let (x, y) = (a[i * k + p], b[p * n + j]);
                    acc = if fused { x.mul_add(y, acc) } else { acc + x * y };
                }
                c[i * n + j] = match *ep {
                    GemmEpilogue::None => acc,
                    GemmEpilogue::AddBias(bias) => acc + bias[j],
                    GemmEpilogue::AddBiasRelu(bias) => (acc + bias[j]).max(0.0),
                    GemmEpilogue::AddBiasSigmoid(bias) => crate::math::sigmoid(acc + bias[j]),
                };
            }
        }
        c
    }

    /// [`gemm_packed`] with the portable body forced, whatever the host.
    fn portable<const COL: bool>(
        a: &[f32],
        pb: &[f32],
        c: &mut [f32],
        i0: usize,
        i1: usize,
        k: usize,
        am: usize,
        n: usize,
        ep: &GemmEpilogue,
    ) {
        match *ep {
            GemmEpilogue::None => gemm_plain::<COL, 0>(a, pb, c, i0, i1, k, am, n, &[]),
            GemmEpilogue::AddBias(b) => gemm_plain::<COL, 1>(a, pb, c, i0, i1, k, am, n, b),
            GemmEpilogue::AddBiasRelu(b) => gemm_plain::<COL, 2>(a, pb, c, i0, i1, k, am, n, b),
            GemmEpilogue::AddBiasSigmoid(b) => gemm_plain::<COL, 3>(a, pb, c, i0, i1, k, am, n, b),
        }
    }

    /// An `m×n` output filled by `kernel(window, i0, i1)` for the row ranges
    /// `[0, split)` and `[split, m)`. The buffer starts as NaN, so a skipped
    /// store shows up.
    fn split_rows(
        (m, n): (usize, usize),
        split: usize,
        kernel: impl Fn(&mut [f32], usize, usize),
    ) -> Vec<f32> {
        let mut c = vec![f32::NAN; m * n];
        let (lo, hi) = c.split_at_mut(split * n);
        kernel(lo, 0, split);
        kernel(hi, split, m);
        c
    }

    #[test]
    fn tiled_kernels_match_reference_bitwise_at_awkward_sizes() {
        // Shapes straddle every row tile (4, 6), panel width (8, 16) and
        // tail-panel width; k = 0 must store ep(0.0) everywhere.
        let mut shapes = vec![(1, 1, 1), (3, 5, 7), (4, 8, 8), (5, 9, 17), (13, 6, 10), (8, 2, 9)];
        shapes.extend([(6, 11, 19), (5, 0, 9), (7, 0, 20)]);
        for n in [1, 7, 8, 9, 15, 16, 17, 20, 33] {
            shapes.extend([(7, 5, n), (13, 12, n)]);
        }
        for (m, k, n) in shapes {
            let a = fill(m * k, |i| ((i * 37 % 19) as f32 - 9.0) * 0.37);
            let at = fill(k * m, |i| a[(i % m) * k + i / m]);
            let b = fill(k * n, |i| ((i * 23 % 17) as f32 - 8.0) * 0.29);
            let bt = fill(n * k, |i| b[(i % k) * n + i / k]);
            let bias = fill(n, |j| (j as f32 - 4.0) * 0.41);
            let (mut from_nn, mut from_nt) = (Vec::new(), Vec::new());
            pack_b_from_nn(&b, k, n, &mut from_nn);
            pack_b_from_nt(&bt, n, k, &mut from_nt);
            let splits = [0, 1, 4, 5, m / 2, m - 1, m];
            for ep in [
                GemmEpilogue::None,
                GemmEpilogue::AddBias(&bias),
                GemmEpilogue::AddBiasRelu(&bias),
                GemmEpilogue::AddBiasSigmoid(&bias),
            ] {
                let plain = bits(&naive(&a, &b, (m, k, n), false, &ep));
                let fused = bits(&naive(&a, &b, (m, k, n), true, &ep));
                for (pb, from) in [(&from_nn, "nn"), (&from_nt, "nt")] {
                    for split in splits.into_iter().filter(|&s| s <= m) {
                        let what = format!("{ep:?} {m}x{k}x{n} B from {from}, split at {split}");
                        let rows = |c: &mut [f32], i0: usize, i1: usize| {
                            portable::<false>(&a[i0 * k..i1 * k], pb, c, 0, i1 - i0, k, k, n, &ep)
                        };
                        let cols = |c: &mut [f32], i0: usize, i1: usize| {
                            portable::<true>(&at, pb, c, i0, i1, k, m, n, &ep)
                        };
                        let got = bits(&split_rows((m, n), split, rows));
                        assert_eq!(got, plain, "portable, row-major A, {what}");
                        let got = bits(&split_rows((m, n), split, cols));
                        assert_eq!(got, plain, "portable, transposed A, {what}");
                        if has_fma() {
                            let rows = |c: &mut [f32], i0: usize, i1: usize| {
                                let a = &a[i0 * k..i1 * k];
                                gemm_packed::<false>(a, pb, c, 0, i1 - i0, k, k, n, &ep)
                            };
                            let cols = |c: &mut [f32], i0: usize, i1: usize| {
                                gemm_packed::<true>(&at, pb, c, i0, i1, k, m, n, &ep)
                            };
                            let got = bits(&split_rows((m, n), split, rows));
                            assert_eq!(got, fused, "dispatcher, row-major A, {what}");
                            let got = bits(&split_rows((m, n), split, cols));
                            assert_eq!(got, fused, "dispatcher, transposed A, {what}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn tn_row_windows_agree_with_full_range() {
        // Transposed-A storage read through row windows: any split must
        // reproduce the full-range bits, on the portable body and on the
        // dispatcher, whichever body it picks on this host.
        let (m, k, n) = (11, 5, 9);
        let at = fill(k * m, |i| (i as f32 * 0.11).sin());
        let b = fill(k * n, |i| (i as f32 * 0.07).cos());
        let mut pb = Vec::new();
        pack_b_from_nn(&b, k, n, &mut pb);
        let ep = GemmEpilogue::None;
        let mut full = vec![0.0f32; m * n];
        portable::<true>(&at, &pb, &mut full, 0, m, k, m, n, &ep);
        let mut full_dispatched = vec![0.0f32; m * n];
        gemm_packed::<true>(&at, &pb, &mut full_dispatched, 0, m, k, m, n, &ep);
        for split in [1, 4, 6, 10] {
            let c = split_rows((m, n), split, |c, i0, i1| {
                portable::<true>(&at, &pb, c, i0, i1, k, m, n, &ep)
            });
            assert_eq!(bits(&c), bits(&full), "portable, split at {split}");
            let c = split_rows((m, n), split, |c, i0, i1| {
                gemm_packed::<true>(&at, &pb, c, i0, i1, k, m, n, &ep)
            });
            assert_eq!(bits(&c), bits(&full_dispatched), "dispatcher, split at {split}");
        }
    }

    #[test]
    fn packing_is_layout_invariant() {
        // The nt/nn bitwise-equality contract rests on both packers emitting
        // identical panel bytes for the same logical B. Shapes cover the
        // 16-panel, 8-panel and every zero-padded tail width.
        for (k, n) in [(1, 1), (2, 2), (3, 3), (4, 4), (5, 5), (6, 6), (3, 7), (5, 8)]
            .into_iter()
            .chain([(3, 10), (4, 12), (9, 15), (4, 16), (7, 17), (5, 20), (2, 24), (11, 33)])
        {
            let b_nn = fill(k * n, |i| (i as f32 * 0.13).sin());
            // Same logical matrix stored transposed (n×k).
            let b_nt = fill(n * k, |i| {
                let (j, p) = (i / k, i % k);
                b_nn[p * n + j]
            });
            let (mut from_nn, mut from_nt) = (Vec::new(), Vec::new());
            pack_b_from_nn(&b_nn, k, n, &mut from_nn);
            pack_b_from_nt(&b_nt, n, k, &mut from_nt);
            assert_eq!(from_nn.len(), k * n.div_ceil(8) * 8, "packed size {k}x{n}");
            let nn_bits: Vec<u32> = from_nn.iter().map(|v| v.to_bits()).collect();
            let nt_bits: Vec<u32> = from_nt.iter().map(|v| v.to_bits()).collect();
            assert_eq!(nn_bits, nt_bits, "pack bytes differ for {k}x{n}");
            // The tail panel (the last k·8 floats) holds the n%8 valid
            // columns of each row, then +0.0 in every pad lane.
            if n % 8 != 0 {
                let tail = &from_nn[from_nn.len() - k * 8..];
                for (p, row) in tail.chunks_exact(8).enumerate() {
                    for (t, v) in row.iter().enumerate() {
                        let j = n / 8 * 8 + t;
                        let want = if j < n { b_nn[p * n + j] } else { 0.0 };
                        assert_eq!(v.to_bits(), want.to_bits(), "{k}x{n} tail lane ({p}, {t})");
                    }
                }
            }
        }
    }
}
