//! Register-blocked GEMM micro-kernels.
//!
//! Three variants cover every matmul/bmm path in the workspace:
//! [`gemm_nn`] (`A @ B`), [`gemm_nt`] (`A @ Bᵀ`) and [`gemm_tn`]
//! (`Aᵀ @ B`). Each keeps an `MR×NRW` accumulator tile in registers,
//! streams the shared operand once per tile instead of once per output
//! element, and unrolls the `k` loop by two. The tile bodies are generic
//! over the tile shape and compiled twice: once for the baseline x86-64
//! target (SSE2) and once under `#[target_feature(enable = "avx2")]` with
//! wider column tiles, selected at runtime with `is_x86_feature_detected!`.
//!
//! A third instantiation — the packed FMA path below — runs under
//! `#[target_feature(enable = "avx2,fma")]` when the CPU has both features:
//! the shared operand is packed once per GEMM call into contiguous
//! tile-aligned panels ([`pack_b_from_nn`]/[`pack_b_from_nt`]), the tile
//! bodies accumulate with fused multiply-adds (`f32::mul_add`), and an
//! optional [`GemmEpilogue`] (bias / bias+ReLU / bias+sigmoid) is applied in
//! the accumulator-store tail instead of as separate full-matrix passes.
//!
//! ## Determinism contract
//!
//! Determinism is **per-(shape, detected ISA)**, never per-thread-count.
//! Every output element is accumulated as a single chain with `p` (the
//! contraction index) strictly ascending; which *independent* elements are
//! computed together (tile shape, vector width, row-chunk boundaries) never
//! changes the order within one element's chain. Concretely:
//!
//! * The SSE2/AVX2 bodies accumulate *individually rounded* `acc + a·b`
//!   steps. `x + a·b + c·d` in Rust is left-associated and never
//!   reassociated or contracted into FMA, so those two instantiations, the
//!   remainder loops, and a naive triple loop all produce bit-identical
//!   results.
//! * The FMA bodies accumulate `acc = a.mul_add(b, acc)` — one fused
//!   rounding per step. The 16-wide panels, the 8-wide panels (the last
//!   one zero-padded past column `n`), and the row remainders all use the
//!   same per-element chain, so the FMA path is bitwise self-consistent for
//!   any row split and equals a naive `mul_add` triple loop bitwise. It
//!   differs from the non-FMA paths by the fused rounding (≤ 1 ULP per
//!   step), which is why the contract is per-ISA.
//!
//! The dispatched path is a pure function of the detected CPU features
//! (cached cpuid, identical on every thread of the process), so for a fixed
//! machine and shape the result bits are fixed for any `MISS_THREADS` and
//! any chunk boundary placement. Bench JSONs record which ISA ran (see
//! [`detected_isa`]) so baselines compare like-to-like.
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

/// Row-chunk granularity for parallel dispatch: a multiple of every row-tile
/// height used below (4 baseline, 6 on the AVX2 path), so chunk interiors
/// are full tiles regardless of which ISA body runs.
pub(crate) const TILE_M: usize = 12;

#[inline(always)]
fn load<const W: usize>(x: &[f32], off: usize) -> [f32; W] {
    let mut v = [0.0f32; W];
    // The slice is exactly W long by construction; copy_from_slice keeps
    // the bounds check but removes the Result-unwrap panic machinery from
    // the innermost GEMM loop.
    v.copy_from_slice(&x[off..off + W]);
    v
}

#[inline(always)]
fn store_add<const W: usize>(x: &mut [f32], off: usize, v: &[f32; W]) {
    let dst = &mut x[off..off + W];
    for t in 0..W {
        dst[t] += v[t];
    }
}

/// `C (m×n) += A (m×k) @ B (k×n)`, row-major, `C` pre-zeroed by callers
/// that want a plain product. Axpy form: `MR` rows × `NRW` columns per tile.
#[inline(always)]
fn gemm_nn_body<const MR: usize, const NRW: usize>(
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    let mut j = 0;
    while j + NRW <= n {
        let mut i = 0;
        while i + MR <= m {
            let mut acc = [[0.0f32; NRW]; MR];
            let mut p = 0;
            while p + 2 <= k {
                let b0 = load::<NRW>(b, p * n + j);
                let b1 = load::<NRW>(b, (p + 1) * n + j);
                for r in 0..MR {
                    let a0 = a[(i + r) * k + p];
                    let a1 = a[(i + r) * k + p + 1];
                    let row = &mut acc[r];
                    for t in 0..NRW {
                        row[t] = row[t] + a0 * b0[t] + a1 * b1[t];
                    }
                }
                p += 2;
            }
            if p < k {
                let b0 = load::<NRW>(b, p * n + j);
                for r in 0..MR {
                    let a0 = a[(i + r) * k + p];
                    let row = &mut acc[r];
                    for t in 0..NRW {
                        row[t] += a0 * b0[t];
                    }
                }
            }
            for r in 0..MR {
                store_add::<NRW>(c, (i + r) * n + j, &acc[r]);
            }
            i += MR;
        }
        while i < m {
            let mut acc = [0.0f32; NRW];
            for p in 0..k {
                let a0 = a[i * k + p];
                let b0 = load::<NRW>(b, p * n + j);
                for t in 0..NRW {
                    acc[t] += a0 * b0[t];
                }
            }
            store_add::<NRW>(c, i * n + j, &acc);
            i += 1;
        }
        j += NRW;
    }
    if j < n {
        // Column tail: per-row axpy over the remaining columns, p ascending.
        for i in 0..m {
            for p in 0..k {
                let a0 = a[i * k + p];
                let brow = &b[p * n + j..(p + 1) * n];
                let crow = &mut c[i * n + j..(i + 1) * n];
                for (cv, &bv) in crow.iter_mut().zip(brow) {
                    *cv += a0 * bv;
                }
            }
        }
    }
}

/// `C (m×n) += A (m×k) @ Bᵀ` where `B` is stored `n×k` (row = one output
/// column). Dot-product form: both operands stream contiguously.
#[inline(always)]
fn gemm_nt_body<const MR: usize, const NTW: usize>(
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    let mut i = 0;
    while i + MR <= m {
        let mut j = 0;
        while j + NTW <= n {
            let mut acc = [[0.0f32; NTW]; MR];
            let mut p = 0;
            while p + 2 <= k {
                let mut av = [[0.0f32; 2]; MR];
                let mut bv = [[0.0f32; 2]; NTW];
                for r in 0..MR {
                    av[r] = load::<2>(a, (i + r) * k + p);
                }
                for t in 0..NTW {
                    bv[t] = load::<2>(b, (j + t) * k + p);
                }
                for r in 0..MR {
                    for t in 0..NTW {
                        acc[r][t] = acc[r][t] + av[r][0] * bv[t][0] + av[r][1] * bv[t][1];
                    }
                }
                p += 2;
            }
            if p < k {
                for r in 0..MR {
                    let a0 = a[(i + r) * k + p];
                    for t in 0..NTW {
                        acc[r][t] += a0 * b[(j + t) * k + p];
                    }
                }
            }
            for r in 0..MR {
                store_add::<NTW>(c, (i + r) * n + j, &acc[r]);
            }
            j += NTW;
        }
        while j < n {
            let brow = &b[j * k..(j + 1) * k];
            for r in 0..MR {
                let arow = &a[(i + r) * k..(i + r + 1) * k];
                let mut acc = 0.0f32;
                for (x, y) in arow.iter().zip(brow) {
                    acc += x * y;
                }
                c[(i + r) * n + j] += acc;
            }
            j += 1;
        }
        i += MR;
    }
    while i < m {
        let arow = &a[i * k..(i + 1) * k];
        for j in 0..n {
            let brow = &b[j * k..(j + 1) * k];
            let mut acc = 0.0f32;
            for (x, y) in arow.iter().zip(brow) {
                acc += x * y;
            }
            c[i * n + j] += acc;
        }
        i += 1;
    }
}

/// `C rows [i0, i1) += (Aᵀ @ B)` rows `[i0, i1)`, where `A` is stored
/// `k×m` and `B` is `k×n`; `c` holds only the `(i1-i0)×n` output window.
/// The row-range signature lets parallel chunks share the full `A`/`B`
/// (columns of `A` cannot be sliced contiguously).
#[inline(always)]
fn gemm_tn_body<const MR: usize, const NRW: usize>(
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    i0: usize,
    i1: usize,
    k: usize,
    m: usize,
    n: usize,
) {
    let mut j = 0;
    while j + NRW <= n {
        let mut i = i0;
        while i + MR <= i1 {
            let mut acc = [[0.0f32; NRW]; MR];
            let mut p = 0;
            while p + 2 <= k {
                let b0 = load::<NRW>(b, p * n + j);
                let b1 = load::<NRW>(b, (p + 1) * n + j);
                for r in 0..MR {
                    let a0 = a[p * m + i + r];
                    let a1 = a[(p + 1) * m + i + r];
                    let row = &mut acc[r];
                    for t in 0..NRW {
                        row[t] = row[t] + a0 * b0[t] + a1 * b1[t];
                    }
                }
                p += 2;
            }
            if p < k {
                let b0 = load::<NRW>(b, p * n + j);
                for r in 0..MR {
                    let a0 = a[p * m + i + r];
                    let row = &mut acc[r];
                    for t in 0..NRW {
                        row[t] += a0 * b0[t];
                    }
                }
            }
            for r in 0..MR {
                store_add::<NRW>(c, (i - i0 + r) * n + j, &acc[r]);
            }
            i += MR;
        }
        while i < i1 {
            let mut acc = [0.0f32; NRW];
            for p in 0..k {
                let a0 = a[p * m + i];
                let b0 = load::<NRW>(b, p * n + j);
                for t in 0..NRW {
                    acc[t] += a0 * b0[t];
                }
            }
            store_add::<NRW>(c, (i - i0) * n + j, &acc);
            i += 1;
        }
        j += NRW;
    }
    if j < n {
        for i in i0..i1 {
            for p in 0..k {
                let a0 = a[p * m + i];
                let brow = &b[p * n + j..(p + 1) * n];
                let crow = &mut c[(i - i0) * n + j..(i - i0 + 1) * n];
                for (cv, &bv) in crow.iter_mut().zip(brow) {
                    *cv += a0 * bv;
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// ISA dispatch: the AVX2 instantiations widen the column tile (16 f32 = two
// YMM registers per accumulator row) and let LLVM vectorize the same body
// with 8-wide instructions. Output bits are identical to the baseline path
// by the determinism contract above; only throughput changes. AVX2 alone is
// enabled in these two instantiations (never FMA), so no mul/add contraction
// can occur; the explicit-FMA packed path further below is a *third*
// instantiation with its own (per-ISA) bit pattern.
// ---------------------------------------------------------------------------

// SAFETY: `#[target_feature(enable = "avx2")]` is the *only* source of
// unsafety in these three wrappers — executing them on a CPU without AVX2
// is undefined behaviour. Precondition: callers must have verified AVX2
// support at runtime (every call site gates on `has_avx2()`, i.e. cpuid via
// `is_x86_feature_detected!`). No alignment precondition: the bodies are
// safe Rust over `&[f32]` slices and LLVM emits unaligned loads. Bounds
// are the safe dispatchers' debug-asserted contract (`a.len() == m·k`,
// etc.), re-checked here with `debug_assert!` because this is the unsafe
// entry point; the generic bodies then do their own slice indexing.
#[cfg(any(target_arch = "x86_64", target_arch = "x86"))]
#[target_feature(enable = "avx2")]
unsafe fn gemm_nn_avx2(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(c.len(), m * n);
    gemm_nn_body::<6, 16>(a, b, c, m, k, n)
}

// SAFETY: see `gemm_nn_avx2` — sole precondition is runtime-verified AVX2
// (cpuid-gated at every call site); `b` is stored transposed (`n×k`).
#[cfg(any(target_arch = "x86_64", target_arch = "x86"))]
#[target_feature(enable = "avx2")]
unsafe fn gemm_nt_avx2(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), n * k);
    debug_assert_eq!(c.len(), m * n);
    gemm_nt_body::<4, 8>(a, b, c, m, k, n)
}

// SAFETY: see `gemm_nn_avx2` — sole precondition is runtime-verified AVX2
// (cpuid-gated at every call site); `c` is the `(i1-i0)×n` output window of
// the `[i0, i1)` row range, per the row-range contract of `gemm_tn_body`.
#[cfg(any(target_arch = "x86_64", target_arch = "x86"))]
#[target_feature(enable = "avx2")]
unsafe fn gemm_tn_avx2(
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    i0: usize,
    i1: usize,
    k: usize,
    m: usize,
    n: usize,
) {
    debug_assert!(i0 <= i1 && i1 <= m);
    debug_assert_eq!(a.len(), k * m);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(c.len(), (i1 - i0) * n);
    gemm_tn_body::<4, 16>(a, b, c, i0, i1, k, m, n)
}

#[cfg(any(target_arch = "x86_64", target_arch = "x86"))]
#[inline]
fn has_avx2() -> bool {
    // Cached by std behind an atomic; effectively free after the first call.
    std::arch::is_x86_feature_detected!("avx2")
}

pub(crate) fn gemm_nn(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(c.len(), m * n);
    #[cfg(any(target_arch = "x86_64", target_arch = "x86"))]
    if has_avx2() {
        // SAFETY: the avx2 feature was just detected at runtime.
        return unsafe { gemm_nn_avx2(a, b, c, m, k, n) };
    }
    gemm_nn_body::<4, 8>(a, b, c, m, k, n)
}

pub(crate) fn gemm_nt(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), n * k);
    debug_assert_eq!(c.len(), m * n);
    #[cfg(any(target_arch = "x86_64", target_arch = "x86"))]
    if has_avx2() {
        // SAFETY: the avx2 feature was just detected at runtime.
        return unsafe { gemm_nt_avx2(a, b, c, m, k, n) };
    }
    gemm_nt_body::<4, 4>(a, b, c, m, k, n)
}

pub(crate) fn gemm_tn(
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    i0: usize,
    i1: usize,
    k: usize,
    m: usize,
    n: usize,
) {
    debug_assert_eq!(a.len(), k * m);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(c.len(), (i1 - i0) * n);
    #[cfg(any(target_arch = "x86_64", target_arch = "x86"))]
    if has_avx2() {
        // SAFETY: the avx2 feature was just detected at runtime.
        return unsafe { gemm_tn_avx2(a, b, c, i0, i1, k, m, n) };
    }
    gemm_tn_body::<4, 8>(a, b, c, i0, i1, k, m, n)
}

// ---------------------------------------------------------------------------
// FMA path: packed B panels + fused multiply-add tiles + fused epilogues.
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
// still one p-ascending `mul_add` chain from 0.0, so the padding cannot
// change a bit.
//
// The same layout is produced from row-major B (`pack_b_from_nn`, a strided
// copy) and from transposed n×k storage (`pack_b_from_nt`, a transposing
// gather), so `matmul_nn`, `matmul_nt`, `matmul_tn` and every bmm block all
// run the *same* tile bodies — and A@B == A@(Bᵀ)ᵀ holds bitwise because the
// packed bytes are identical. Scratch for the pack lives in a thread-local
// buffer ([`with_pack_scratch`]) so steady-state GEMM calls allocate
// nothing.
// ---------------------------------------------------------------------------

/// Post-GEMM transform fused into the accumulator-store tail of the FMA
/// kernels (and applied as one in-place pass after the non-FMA fallback).
/// The bias slice is one value per output column; ReLU and sigmoid match
/// the autograd ops (`max(0)` / `miss_util::sigmoid`) exactly, so fusing
/// changes only where the work happens, not the math applied.
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
    /// The bias slice, if any — used by dispatchers to validate its width
    /// against the output column count before entering the kernels.
    pub(crate) fn bias(&self) -> Option<&[f32]> {
        match *self {
            GemmEpilogue::None => None,
            GemmEpilogue::AddBias(b)
            | GemmEpilogue::AddBiasRelu(b)
            | GemmEpilogue::AddBiasSigmoid(b) => Some(b),
        }
    }

    /// The transform applied to one finished accumulator for column `j`.
    #[inline(always)]
    fn apply(&self, j: usize, acc: f32) -> f32 {
        debug_assert!(
            self.bias().is_none_or(|b| j < b.len()),
            "bias width was validated against n before entering the kernel"
        );
        match *self {
            GemmEpilogue::None => acc,
            GemmEpilogue::AddBias(b) => acc + b[j],
            GemmEpilogue::AddBiasRelu(b) => (acc + b[j]).max(0.0),
            GemmEpilogue::AddBiasSigmoid(b) => miss_util::sigmoid(acc + b[j]),
        }
    }
}

/// [`GemmEpilogue::apply`] with the variant selected at compile time. The
/// FMA kernels are monomorphised per epilogue so the common `None` GEMM
/// contains no bias loads, no branch, and — critically — no inlined `exp`
/// call whose register clobbers would force the accumulator tile to spill.
#[inline(always)]
fn ep_apply<const EP: u8>(bias: &[f32], j: usize, acc: f32) -> f32 {
    match EP {
        0 => acc,
        1 => acc + bias[j],
        2 => (acc + bias[j]).max(0.0),
        _ => miss_util::sigmoid(acc + bias[j]),
    }
}

/// Unfused epilogue pass for the non-FMA fallback kernels: transforms a
/// finished `rows×n` chunk of C in place. Same per-element math as the
/// fused store tail, so on a non-FMA machine fused and unfused calls are
/// bit-identical.
pub(crate) fn apply_epilogue(c: &mut [f32], n: usize, ep: &GemmEpilogue) {
    if matches!(ep, GemmEpilogue::None) {
        return;
    }
    for row in c.chunks_exact_mut(n) {
        for (j, v) in row.iter_mut().enumerate() {
            *v = ep.apply(j, *v);
        }
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
        return;
    }
    // A tail panel (NV = 1): epilogue on the valid lanes, then one masked
    // store. A scalar copy of `cols` lanes would become a `memcpy` call per
    // row, which costs more than the row's whole FMA chain at small k.
    debug_assert!(NV == 1);
    for t in 0..cols {
        tmp[t] = ep_apply::<EP>(bias, j0 + t, tmp[t]);
    }
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
// runtime; the safe entry point `gemm_fma` asserts `has_fma()` (cached
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

/// Whether the packed FMA path is available (AVX2 + FMA both detected).
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

/// The GEMM instruction path `matmul`/`bmm` dispatch to on this machine.
/// Recorded in bench JSON metadata so baselines compare like-to-like
/// (result bits are a pure function of shape and this value).
pub fn detected_isa() -> &'static str {
    if has_fma() {
        return "avx2+fma";
    }
    #[cfg(any(target_arch = "x86_64", target_arch = "x86"))]
    if has_avx2() {
        return "avx2";
    }
    "baseline"
}

/// Packed-B FMA GEMM over row-major A: `c = ep(a @ B)` where `pb` is the
/// packed form of the `k×n` B (from either storage). *Assigns* `c` (it does
/// not accumulate). Panics if the FMA path is unavailable — callers
/// dispatch on [`has_fma`].
pub(crate) fn gemm_fma_rowmajor(
    a: &[f32],
    pb: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    ep: &GemmEpilogue,
) {
    gemm_fma::<false>(a, pb, c, 0, m, k, k, n, ep)
}

/// Packed-B FMA GEMM over transposed-A storage (`a` is `k×m`): writes output
/// rows `[i0, i1)` into the window `c`. Same contract as
/// [`gemm_fma_rowmajor`].
pub(crate) fn gemm_fma_colmajor(
    a: &[f32],
    pb: &[f32],
    c: &mut [f32],
    i0: usize,
    i1: usize,
    k: usize,
    m: usize,
    n: usize,
    ep: &GemmEpilogue,
) {
    gemm_fma::<true>(a, pb, c, i0, i1, k, m, n, ep)
}

/// The safe entry point of [`gemm_fma_avx2`]: checks the CPU, then selects
/// the epilogue monomorphisation so the plain GEMM carries no epilogue code.
fn gemm_fma<const COL: bool>(
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
    assert!(has_fma(), "FMA kernel dispatched without CPU support");
    #[cfg(target_arch = "x86_64")]
    // SAFETY: avx2+fma support was verified by the assert above.
    unsafe {
        let f = match *ep {
            GemmEpilogue::None => gemm_fma_avx2::<COL, 0>,
            GemmEpilogue::AddBias(_) => gemm_fma_avx2::<COL, 1>,
            GemmEpilogue::AddBiasRelu(_) => gemm_fma_avx2::<COL, 2>,
            GemmEpilogue::AddBiasSigmoid(_) => gemm_fma_avx2::<COL, 3>,
        };
        f(a, pb, c, i0, i1, k, am, n, ep.bias().unwrap_or(&[]))
    }
    #[cfg(not(target_arch = "x86_64"))]
    unreachable!("has_fma() is false off x86_64")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Textbook p-ascending reference; by the determinism contract the tiled
    /// kernels must match it *bitwise*, not just within tolerance.
    fn reference_nn(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
        let mut c = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for p in 0..k {
                    acc += a[i * k + p] * b[p * n + j];
                }
                c[i * n + j] = acc;
            }
        }
        c
    }

    fn fill(len: usize, f: impl Fn(usize) -> f32) -> Vec<f32> {
        (0..len).map(f).collect()
    }

    #[test]
    fn tiled_kernels_match_reference_bitwise_at_awkward_sizes() {
        // Sizes straddle every tile boundary: below, at, and past 4/8/16.
        for &(m, k, n) in &[
            (1, 1, 1),
            (3, 5, 7),
            (4, 8, 8),
            (5, 9, 17),
            (13, 6, 10),
            (8, 2, 9),
            (6, 11, 19),
        ] {
            let a = fill(m * k, |i| ((i * 37 % 19) as f32 - 9.0) * 0.37);
            let b = fill(k * n, |i| ((i * 23 % 17) as f32 - 8.0) * 0.29);
            let want = reference_nn(&a, &b, m, k, n);

            let mut c = vec![0.0f32; m * n];
            gemm_nn(&a, &b, &mut c, m, k, n);
            assert_eq!(c, want, "gemm_nn {m}x{k}x{n}");

            // nt: B stored transposed (n×k).
            let bt = fill(n * k, |i| b[(i % k) * n + i / k]);
            let mut c = vec![0.0f32; m * n];
            gemm_nt(&a, &bt, &mut c, m, k, n);
            assert_eq!(c, want, "gemm_nt {m}x{k}x{n}");

            // tn: A stored transposed (k×m), full row range.
            let at = fill(k * m, |i| a[(i % m) * k + i / m]);
            let mut c = vec![0.0f32; m * n];
            gemm_tn(&at, &b, &mut c, 0, m, k, m, n);
            assert_eq!(c, want, "gemm_tn {m}x{k}x{n}");
        }
    }

    #[test]
    fn isa_paths_agree_bitwise() {
        // Both tile instantiations must produce the same bits; on machines
        // with AVX2 this compares the wide path against the baseline body.
        let (m, k, n) = (23, 17, 37);
        let a = fill(m * k, |i| ((i * 41 % 29) as f32 - 14.0) * 0.21);
        let b = fill(k * n, |i| ((i * 13 % 23) as f32 - 11.0) * 0.17);
        let mut wide = vec![0.0f32; m * n];
        gemm_nn(&a, &b, &mut wide, m, k, n);
        let mut narrow = vec![0.0f32; m * n];
        gemm_nn_body::<4, 8>(&a, &b, &mut narrow, m, k, n);
        assert_eq!(wide, narrow, "dispatched vs baseline gemm_nn");
        let mut narrower = vec![0.0f32; m * n];
        gemm_nn_body::<2, 4>(&a, &b, &mut narrower, m, k, n);
        assert_eq!(wide, narrower, "tile shape must not change bits");
    }

    #[test]
    fn tn_row_windows_agree_with_full_range() {
        let (m, k, n) = (11, 5, 9);
        let at = fill(k * m, |i| (i as f32 * 0.11).sin());
        let b = fill(k * n, |i| (i as f32 * 0.07).cos());
        let mut full = vec![0.0f32; m * n];
        gemm_tn(&at, &b, &mut full, 0, m, k, m, n);
        // Any split into row windows must reproduce the same bits.
        for split in [1, 4, 6, 10] {
            let mut c = vec![0.0f32; m * n];
            let (lo, hi) = c.split_at_mut(split * n);
            gemm_tn(&at, &b, lo, 0, split, k, m, n);
            gemm_tn(&at, &b, hi, split, m, k, m, n);
            assert_eq!(c, full, "split at {split}");
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
