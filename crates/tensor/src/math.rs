//! Transcendental kernels: `exp`, `sigmoid` and `tanh` over slices, plus
//! scalar forms. Every `exp`, logistic and hyperbolic tangent the models
//! take (softmax, log-sum-exp, the sigmoid/tanh ops, the sigmoid GEMM
//! epilogue, the BCE loss and the scores of serving and evaluation) runs
//! here, so the workspace has one definition of each and calls no libm
//! routine per element.
//!
//! ## Bits
//!
//! Both bodies are transcriptions of glibc 2.36, not approximations of their
//! own, and like the GEMM they are dispatched on `has_fma()`:
//!
//! * `exp` is glibc's `expf` (`e_expf.c`): `x·32/ln2 = k + r`, a 32-entry
//!   `2^(i/32)` table and a cubic in `r`, all in f64. On AVX2+FMA the body
//!   runs four f64 lanes with exactly the fused multiply-adds of glibc's
//!   FMA ifunc target, so it equals the host's `expf` on all 2^32 inputs.
//!   The portable body rounds every step (glibc's generic, non-FMA target).
//! * `tanh` is fdlibm's `tanhf` over `expm1f` (`s_tanhf.c`, `s_expm1f.c`),
//!   plain f32 operations with no fused step, so both bodies give the same
//!   bits. The AVX2 body computes every range branch of both routines in
//!   eight f32 lanes and blends them.
//! * `sigmoid(x)` is `1 / (1 + exp(-x))` in f32, in one pass.
//!
//! Out-of-range lanes (`exp` overflow and underflow, the `-1e9` of a masked
//! softmax, ±inf, NaN) are blended inside the vector body, and a slice tail
//! runs through the same body with its missing lanes zero, so an element's
//! bits depend only on its own value and the ISA, never on its neighbours or
//! its position. The result bits are therefore a function of the detected
//! ISA alone, not of the host's libm. `exhaustive_match_with_glibc` checks
//! both bodies of `exp` and `tanh` against `f32::exp`/`f32::tanh` on every
//! bit pattern of an x86_64 glibc host; the portable `exp` is pinned by a
//! golden hash.
#![expect(
    unsafe_code,
    reason = "the cpuid-gated AVX2+FMA body and its loads, stores and table gather; each site carries a SAFETY comment"
)]
#![expect(
    clippy::indexing_slicing,
    reason = "table indices are masked to 0..32 and tail copies are bounded by the tail length"
)]

use crate::kernels::has_fma;

/// `2^(i/32)` as f64 bits, minus `i << 47`: adding `k << 47` for an
/// integer `k` with `k % 32 == i` gives the bits of `2^(k/32)`
/// (glibc's `__exp2f_data.tab`).
const EXP2_TAB: [u64; 32] = [
    0x3ff0000000000000, 0x3fefd9b0d3158574, 0x3fefb5586cf9890f, 0x3fef9301d0125b51,
    0x3fef72b83c7d517b, 0x3fef54873168b9aa, 0x3fef387a6e756238, 0x3fef1e9df51fdee1,
    0x3fef06fe0a31b715, 0x3feef1a7373aa9cb, 0x3feedea64c123422, 0x3feece086061892d,
    0x3feebfdad5362a27, 0x3feeb42b569d4f82, 0x3feeab07dd485429, 0x3feea47eb03a5585,
    0x3feea09e667f3bcd, 0x3fee9f75e8ec5f74, 0x3feea11473eb0187, 0x3feea589994cce13,
    0x3feeace5422aa0db, 0x3feeb737b0cdc5e5, 0x3feec49182a3f090, 0x3feed503b23e255d,
    0x3feee89f995ad3ad, 0x3feeff76f2fb5e47, 0x3fef199bdd85529c, 0x3fef3720dcef9069,
    0x3fef5818dcfba487, 0x3fef7c97337b9b5f, 0x3fefa4afa2a490da, 0x3fefd0765b6e4540,
];
/// `32 / ln 2`.
const INV_LN2_N: f64 = f64::from_bits(0x40471547652b82fe);
/// `1.5 · 2^52`: adding it rounds to an integer held in the low mantissa bits.
const SHIFT: f64 = f64::from_bits(0x4338000000000000);
/// The cubic `2^(r/32) ≈ C0·r³ + C1·r² + C2·r + 1`.
const C0: f64 = f64::from_bits(0x3ebc6af84b912394);
const C1: f64 = f64::from_bits(0x3f2ebfce50fac4f3);
const C2: f64 = f64::from_bits(0x3f962e42ff0c52d6);
/// `expf(x)` is `+inf` above this (`log(2^128)`) and `+0` below the next.
const EXP_OVERFLOW: f32 = f32::from_bits(0x42b17217);
/// `log(2^-150)`.
const EXP_UNDERFLOW: f32 = f32::from_bits(0xc2cff1b4);

/// `expm1f`'s split of `ln 2` and its `1/ln 2`.
const LN2_HI: f32 = f32::from_bits(0x3f317180);
const LN2_LO: f32 = f32::from_bits(0x3717f7d1);
const INV_LN2: f32 = f32::from_bits(0x3fb8aa3b);
/// `expm1f`'s scaled rational coefficients.
const Q1: f32 = f32::from_bits(0xbd088889);
const Q2: f32 = f32::from_bits(0x3ad00d01);
const Q3: f32 = f32::from_bits(0xb8a670cd);
const Q4: f32 = f32::from_bits(0x36867e54);
const Q5: f32 = f32::from_bits(0xb457edbb);
/// `|a| ≤ ln2/2`: `expm1f` takes no argument reduction (`k = 0`).
const EXPM1_NO_REDUCE: f32 = f32::from_bits(0x3eb17218);
/// `|a| < 1.5·ln2`: `expm1f` takes `k = ±1` without rounding (only `-1`
/// is reachable from `tanh`).
const EXPM1_K1: f32 = f32::from_bits(0x3f851592);
/// `|a| < 2^-25`: `expm1f(a) = a`.
const EXPM1_TINY: f32 = f32::from_bits(0x33000000);
/// `|x| < 2^-55`: `tanhf(x) = x`.
const TANH_TINY: f32 = f32::from_bits(0x24000000);
/// `|x| ≥ 22`: `tanhf(x) = ±1`.
const TANH_ONE: f32 = 22.0;

/// Which function a pass computes (a const-generic tag, like the GEMM
/// epilogues, so each pass is monomorphised).
const EXP: u8 = 0;
const SIGMOID: u8 = 1;
const TANH: u8 = 2;

/// `e^x` for every element, in place.
pub fn exp_in_place(xs: &mut [f32]) {
    map::<EXP>(xs);
}

/// `1 / (1 + e^-x)` for every element, in place.
pub fn sigmoid_in_place(xs: &mut [f32]) {
    map::<SIGMOID>(xs);
}

/// `tanh x` for every element, in place.
pub fn tanh_in_place(xs: &mut [f32]) {
    map::<TANH>(xs);
}

/// Scalar [`exp_in_place`]: the same bits as any slice holding `x`.
pub fn exp(x: f32) -> f32 {
    let mut v = [x];
    exp_in_place(&mut v);
    v[0]
}

/// Scalar [`sigmoid_in_place`]: the same bits as any slice holding `x`.
pub fn sigmoid(x: f32) -> f32 {
    let mut v = [x];
    sigmoid_in_place(&mut v);
    v[0]
}

/// Scalar [`tanh_in_place`]: the same bits as any slice holding `x`.
pub fn tanh(x: f32) -> f32 {
    let mut v = [x];
    tanh_in_place(&mut v);
    v[0]
}

/// The sigmoid of every logit, appended to `out`: how serving and
/// evaluation turn logits into scores.
pub fn sigmoid_extend(logits: &[f32], out: &mut Vec<f32>) {
    let start = out.len();
    out.extend_from_slice(logits);
    sigmoid_in_place(&mut out[start..]);
}

/// Apply function `F` to every element: the AVX2+FMA body where cpuid
/// reports both features, the portable scalar body everywhere else.
fn map<const F: u8>(xs: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if has_fma() {
        // SAFETY: avx2+fma support was just detected at runtime.
        return unsafe { map_avx2::<F>(xs) };
    }
    for x in xs {
        *x = scalar::<F, false>(*x);
    }
}

/// The portable body of `F`; `FUSED` selects glibc's FMA rounding of `exp`,
/// which the vector body computes (the portable dispatch uses `false`).
fn scalar<const F: u8, const FUSED: bool>(x: f32) -> f32 {
    match F {
        EXP => exp_scalar::<FUSED>(x),
        SIGMOID => 1.0 / (1.0 + exp_scalar::<FUSED>(-x)),
        _ => tanh_scalar(x),
    }
}

/// `a·b + c`, fused or with the product rounded first.
#[inline(always)]
fn madd<const FUSED: bool>(a: f64, b: f64, c: f64) -> f64 {
    if FUSED {
        a.mul_add(b, c)
    } else {
        a * b + c
    }
}

/// glibc's `expf`, step for step: the order of its FMA ifunc target when
/// `FUSED`, of its generic target otherwise.
fn exp_scalar<const FUSED: bool>(x: f32) -> f32 {
    if x.is_nan() {
        return x + x;
    }
    if x > EXP_OVERFLOW {
        return f32::INFINITY;
    }
    if x < EXP_UNDERFLOW {
        return 0.0;
    }
    let xd = f64::from(x);
    let z = INV_LN2_N * xd;
    let kd = if FUSED { INV_LN2_N.mul_add(xd, SHIFT) } else { z + SHIFT };
    let ki = kd.to_bits();
    let kd = kd - SHIFT;
    let r = if FUSED { INV_LN2_N.mul_add(xd, -kd) } else { z - kd };
    let s = f64::from_bits(EXP2_TAB[(ki % 32) as usize].wrapping_add(ki << 47));
    let p = madd::<FUSED>(C0, r, C1);
    let q = madd::<FUSED>(C2, r, 1.0);
    (madd::<FUSED>(p, r * r, q) * s) as f32
}

/// fdlibm's `tanhf`. For `|x| < 2^-55` it returns `x·(1 + x)`, which is `x`.
fn tanh_scalar(x: f32) -> f32 {
    if x.is_nan() {
        return x + x;
    }
    let ax = x.abs();
    if ax < TANH_TINY {
        return x;
    }
    let z = if ax >= TANH_ONE {
        1.0
    } else if ax >= 1.0 {
        let t = expm1_scalar(2.0 * ax);
        1.0 - 2.0 / (t + 2.0)
    } else {
        let t = expm1_scalar(-2.0 * ax);
        -t / (t + 2.0)
    };
    if x.is_sign_negative() {
        -z
    } else {
        z
    }
}

/// fdlibm's `expm1f` over the arguments [`tanh_scalar`] passes, `[2, 44)`
/// and `[-2, -2^-54]`. Its overflow, `-1` saturation and `k = 1` branches
/// lie outside that domain.
fn expm1_scalar(x: f32) -> f32 {
    let ax = x.abs();
    if ax < EXPM1_TINY {
        return x;
    }
    let (k, x, c) = if ax > EXPM1_NO_REDUCE {
        let k = if ax < EXPM1_K1 {
            -1
        } else {
            (INV_LN2 * x + if x < 0.0 { -0.5 } else { 0.5 }) as i32
        };
        let t = k as f32;
        let hi = x - t * LN2_HI;
        let lo = t * LN2_LO;
        let xr = hi - lo;
        (k, xr, (hi - xr) - lo)
    } else {
        (0, x, 0.0)
    };
    let hfx = 0.5 * x;
    let hxs = x * hfx;
    let r1 = 1.0 + hxs * (Q1 + hxs * (Q2 + hxs * (Q3 + hxs * (Q4 + hxs * Q5))));
    let t = 3.0 - r1 * hfx;
    let e = hxs * ((r1 - t) / (6.0 - x * t));
    if k == 0 {
        return x - (x * e - hxs);
    }
    let e = (x * (e - c) - c) - hxs;
    if k == -1 {
        return 0.5 * (x - e) - 0.5;
    }
    // Add k to the exponent of y.
    let scale = |y: f32| f32::from_bits(y.to_bits().wrapping_add((k << 23) as u32));
    if k <= -2 || k > 56 {
        scale(1.0 - (e - x)) - 1.0
    } else if k < 23 {
        scale(f32::from_bits(0x3f80_0000 - (0x0100_0000 >> k)) - (e - x))
    } else {
        scale(x - (e + f32::from_bits(((0x7f - k) << 23) as u32)) + 1.0)
    }
}

/// Function `F` over `xs`, eight lanes at a time. The tail runs through
/// the same body with its missing lanes loaded as zeros, as if it were
/// copied into a zero-padded buffer, and only its own lanes stored.
// SAFETY: `#[target_feature(enable = "avx2,fma")]` makes executing this on a
// CPU without AVX2+FMA undefined behaviour; the only caller, `map`, checks
// `has_fma()` (cached cpuid) first.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn map_avx2<const F: u8>(xs: &mut [f32]) {
    use core::arch::x86_64::*;
    let (body, tail) = xs.as_chunks_mut::<8>();
    for lanes in body {
        // SAFETY: `lanes` holds eight floats, so the unaligned 8-wide load
        // and store stay inside it; AVX2+FMA are this function's contract.
        unsafe { _mm256_storeu_ps(lanes.as_mut_ptr(), vector::<F>(_mm256_loadu_ps(lanes.as_ptr()))) };
    }
    if !tail.is_empty() {
        let mask: [i32; 8] = core::array::from_fn(|t| if t < tail.len() { -1 } else { 0 });
        // SAFETY: `mask` enables lanes `0..tail.len()` only and `tail` holds
        // that many floats, so the masked load and store touch only `tail`
        // (masked-off lanes are never accessed and load as 0.0); `mask`
        // holds eight i32s for the 256-bit load. AVX2+FMA as above.
        unsafe {
            let m = _mm256_loadu_si256(mask.as_ptr().cast::<__m256i>());
            let x = _mm256_maskload_ps(tail.as_ptr(), m);
            _mm256_maskstore_ps(tail.as_mut_ptr(), m, vector::<F>(x));
        }
    }
}

/// Function `F` on eight lanes.
// SAFETY: requires AVX2+FMA; the caller runs under `map_avx2`'s features.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn vector<const F: u8>(x: core::arch::x86_64::__m256) -> core::arch::x86_64::__m256 {
    use core::arch::x86_64::*;
    // SAFETY: AVX2+FMA are guaranteed by the caller; only `exp8`'s table
    // gather touches memory.
    unsafe {
        match F {
            EXP => exp8(x),
            SIGMOID => {
                let e = exp8(_mm256_xor_ps(x, _mm256_set1_ps(-0.0)));
                _mm256_div_ps(_mm256_set1_ps(1.0), _mm256_add_ps(_mm256_set1_ps(1.0), e))
            }
            _ => tanh8(x),
        }
    }
}

// The vector helpers below are `#[inline(always)]` functions, never
// closures: a closure does not inherit `map_avx2`'s target features, so the
// intrinsics inside it would not inline and each would become a call.

/// [`exp_scalar`] with `FUSED` on eight lanes: each half of four runs the
/// f64 steps, then overflow, underflow and NaN lanes are blended in.
// SAFETY: requires AVX2+FMA; the caller runs under `map_avx2`'s features.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn exp8(x: core::arch::x86_64::__m256) -> core::arch::x86_64::__m256 {
    use core::arch::x86_64::*;
    // SAFETY: AVX2+FMA are guaranteed by the caller.
    unsafe {
        let lo = exp4(_mm256_castps256_ps128(x));
        let hi = exp4(_mm256_extractf128_ps::<1>(x));
        let y = _mm256_insertf128_ps::<1>(_mm256_castps128_ps256(lo), hi);
        let over = _mm256_cmp_ps::<_CMP_GT_OQ>(x, _mm256_set1_ps(EXP_OVERFLOW));
        let under = _mm256_cmp_ps::<_CMP_LT_OQ>(x, _mm256_set1_ps(EXP_UNDERFLOW));
        let nan = _mm256_cmp_ps::<_CMP_UNORD_Q>(x, x);
        let y = _mm256_blendv_ps(y, _mm256_set1_ps(f32::INFINITY), over);
        let y = _mm256_andnot_ps(under, y);
        _mm256_blendv_ps(y, _mm256_add_ps(x, x), nan)
    }
}

/// The f64 steps of [`exp_scalar`] with `FUSED` on four lanes, before any
/// out-of-range blending.
// SAFETY: requires AVX2+FMA; the caller runs under `map_avx2`'s features.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn exp4(x: core::arch::x86_64::__m128) -> core::arch::x86_64::__m128 {
    use core::arch::x86_64::*;
    // SAFETY: AVX2+FMA are guaranteed by the caller. The gather reads
    // `EXP2_TAB[ki & 31]`, inside the 32-entry table for every lane.
    unsafe {
        let xd = _mm256_cvtps_pd(x);
        let n = _mm256_set1_pd(INV_LN2_N);
        let shift = _mm256_set1_pd(SHIFT);
        let kd = _mm256_fmadd_pd(n, xd, shift);
        let ki = _mm256_castpd_si256(kd);
        let kd = _mm256_sub_pd(kd, shift);
        let r = _mm256_fmsub_pd(n, xd, kd);
        let idx = _mm256_and_si256(ki, _mm256_set1_epi64x(31));
        let t = _mm256_i64gather_epi64::<8>(EXP2_TAB.as_ptr().cast::<i64>(), idx);
        let s = _mm256_castsi256_pd(_mm256_add_epi64(t, _mm256_slli_epi64::<47>(ki)));
        let p = _mm256_fmadd_pd(_mm256_set1_pd(C0), r, _mm256_set1_pd(C1));
        let q = _mm256_fmadd_pd(_mm256_set1_pd(C2), r, _mm256_set1_pd(1.0));
        _mm256_cvtpd_ps(_mm256_mul_pd(_mm256_fmadd_pd(p, _mm256_mul_pd(r, r), q), s))
    }
}

/// [`tanh_scalar`] (and [`expm1_scalar`] inside it) on eight lanes: every
/// branch of both routines is computed and the lane's own one blended in.
// SAFETY: requires AVX2+FMA; the caller runs under `map_avx2`'s features.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn tanh8(x: core::arch::x86_64::__m256) -> core::arch::x86_64::__m256 {
    use core::arch::x86_64::*;
    // SAFETY: AVX2+FMA are guaranteed by the caller; no memory is touched.
    unsafe {
        let f = _mm256_set1_ps;
        let i = _mm256_set1_epi32;
        let sign = f(-0.0);
        let ax = _mm256_andnot_ps(sign, x);
        let ge1 = _mm256_cmp_ps::<_CMP_GE_OQ>(ax, f(1.0));
        // The expm1f argument: 2|x| from |x| ≥ 1, -2|x| below.
        let two_ax = _mm256_add_ps(ax, ax);
        let a = _mm256_blendv_ps(_mm256_xor_ps(two_ax, sign), two_ax, ge1);

        // Reduction a = k·ln2 + x + c. Lanes with |a| ≤ ln2/2 keep k = 0,
        // for which the reduction leaves x = a and c = 0 exactly.
        let reduce = _mm256_cmp_ps::<_CMP_GT_OQ>(two_ax, f(EXPM1_NO_REDUCE));
        let k1 = _mm256_cmp_ps::<_CMP_LT_OQ>(two_ax, f(EXPM1_K1));
        let half = _mm256_blendv_ps(f(-0.5), f(0.5), ge1);
        let k = _mm256_cvttps_epi32(_mm256_add_ps(_mm256_mul_ps(f(INV_LN2), a), half));
        let k = _mm256_castps_si256(_mm256_blendv_ps(
            _mm256_castsi256_ps(k),
            _mm256_castsi256_ps(i(-1)),
            _mm256_andnot_ps(ge1, k1),
        ));
        let k = _mm256_and_si256(k, _mm256_castps_si256(reduce));
        let t = _mm256_cvtepi32_ps(k);
        let hi = _mm256_sub_ps(a, _mm256_mul_ps(t, f(LN2_HI)));
        let lo = _mm256_mul_ps(t, f(LN2_LO));
        let xr = _mm256_sub_ps(hi, lo);
        let c = _mm256_sub_ps(_mm256_sub_ps(hi, xr), lo);

        let hfx = _mm256_mul_ps(f(0.5), xr);
        let hxs = _mm256_mul_ps(xr, hfx);
        let mut p = _mm256_add_ps(f(Q4), _mm256_mul_ps(hxs, f(Q5)));
        for q in [Q3, Q2, Q1] {
            p = _mm256_add_ps(f(q), _mm256_mul_ps(hxs, p));
        }
        let r1 = _mm256_add_ps(f(1.0), _mm256_mul_ps(hxs, p));
        let t = _mm256_sub_ps(f(3.0), _mm256_mul_ps(r1, hfx));
        let e = _mm256_div_ps(_mm256_sub_ps(r1, t), _mm256_sub_ps(f(6.0), _mm256_mul_ps(xr, t)));
        let e = _mm256_mul_ps(hxs, e);
        let em_k0 = _mm256_sub_ps(xr, _mm256_sub_ps(_mm256_mul_ps(xr, e), hxs));
        let e = _mm256_sub_ps(_mm256_mul_ps(xr, _mm256_sub_ps(e, c)), c);
        let e = _mm256_sub_ps(e, hxs);
        let em_m1 = _mm256_sub_ps(_mm256_mul_ps(f(0.5), _mm256_sub_ps(xr, e)), f(0.5));
        let kexp = _mm256_slli_epi32::<23>(k);
        let e_x = _mm256_sub_ps(e, xr);
        let em_far = _mm256_sub_ps(add_exponent(_mm256_sub_ps(f(1.0), e_x), kexp), f(1.0));
        let t_lt = _mm256_sub_epi32(i(0x3f80_0000), _mm256_srlv_epi32(i(0x0100_0000), k));
        let em_lt = add_exponent(_mm256_sub_ps(_mm256_castsi256_ps(t_lt), e_x), kexp);
        let t_mid = _mm256_castsi256_ps(_mm256_slli_epi32::<23>(_mm256_sub_epi32(i(0x7f), k)));
        let em_mid = add_exponent(_mm256_add_ps(_mm256_sub_ps(xr, _mm256_add_ps(e, t_mid)), f(1.0)), kexp);
        let lt23 = _mm256_cmpgt_epi32(i(23), k);
        let far = _mm256_or_si256(_mm256_cmpgt_epi32(k, i(56)), _mm256_cmpgt_epi32(i(-1), k));
        let mut em = _mm256_blendv_ps(em_mid, em_lt, _mm256_castsi256_ps(lt23));
        em = _mm256_blendv_ps(em, em_far, _mm256_castsi256_ps(far));
        em = _mm256_blendv_ps(em, em_m1, _mm256_castsi256_ps(_mm256_cmpeq_epi32(k, i(-1))));
        em = _mm256_blendv_ps(em, em_k0, _mm256_castsi256_ps(_mm256_cmpeq_epi32(k, i(0))));
        em = _mm256_blendv_ps(em, a, _mm256_cmp_ps::<_CMP_LT_OQ>(two_ax, f(EXPM1_TINY)));

        // tanh from expm1, then the sign, the saturated, tiny and NaN lanes.
        let d = _mm256_add_ps(em, f(2.0));
        let z_ge1 = _mm256_sub_ps(f(1.0), _mm256_div_ps(f(2.0), d));
        let z_lt1 = _mm256_div_ps(_mm256_xor_ps(em, sign), d);
        let z = _mm256_blendv_ps(z_lt1, z_ge1, ge1);
        let z = _mm256_blendv_ps(z, f(1.0), _mm256_cmp_ps::<_CMP_GE_OQ>(ax, f(TANH_ONE)));
        let y = _mm256_xor_ps(z, _mm256_and_ps(x, sign));
        let y = _mm256_blendv_ps(y, x, _mm256_cmp_ps::<_CMP_LT_OQ>(ax, f(TANH_TINY)));
        _mm256_blendv_ps(y, _mm256_add_ps(x, x), _mm256_cmp_ps::<_CMP_UNORD_Q>(x, x))
    }
}

/// `y` with `kexp` (`k << 23`) added to its bits: `y·2^k` for a normal `y`.
// SAFETY: requires AVX2; the caller runs under `map_avx2`'s features.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn add_exponent(y: core::arch::x86_64::__m256, kexp: core::arch::x86_64::__m256i) -> core::arch::x86_64::__m256 {
    use core::arch::x86_64::{_mm256_add_epi32, _mm256_castps_si256, _mm256_castsi256_ps};
    // SAFETY: AVX2 is guaranteed by the caller; no memory is touched.
    unsafe { _mm256_castsi256_ps(_mm256_add_epi32(_mm256_castps_si256(y), kexp)) }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Equal bits, or both NaN (payloads are not part of the contract).
    fn same(a: f32, b: f32) -> bool {
        a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
    }

    /// The scalar body the vector body transcribes lane for lane.
    fn reference<const F: u8>(x: f32) -> f32 {
        scalar::<F, true>(x)
    }

    /// The edge list: signed zeros, the smallest subnormal, ±inf, NaN and a
    /// masked-softmax score; the `expf` special-case bounds; the `tanhf`
    /// bounds; and the `expm1f` bounds, as the `tanh` inputs `a/2` that
    /// reach them. Each comes with its neighbours, both signs.
    fn edges() -> Vec<f32> {
        let ln2 = std::f32::consts::LN_2;
        let mut centres = vec![0.0, f32::from_bits(1), f32::INFINITY, f32::NAN, 1e9, f32::MAX];
        // expf: abstop 0x42a / 0x42b (|x| = 84 / 88), overflow, underflow.
        centres.extend([f32::from_bits(0x42a0_0000), f32::from_bits(0x42b0_0000)]);
        centres.extend([EXP_OVERFLOW, 88.72, EXP_UNDERFLOW, -103.97]);
        // tanhf: 2^-55, 1 and 22.
        centres.extend([TANH_TINY, 1.0, TANH_ONE]);
        // expm1f: ln2/2, 1.5·ln2, 27·ln2, 2^-25, and the reductions to k =
        // 22, 23, 56 and 57 (both rounding edges of each).
        let mut a = vec![EXPM1_NO_REDUCE, EXPM1_K1, 27.0 * ln2, EXPM1_TINY];
        for k in [22.0f32, 23.0, 56.0, 57.0] {
            a.extend([k * ln2, (k - 0.5) * ln2, (k + 0.5) * ln2]);
        }
        centres.extend(a.iter().map(|v| v / 2.0));
        let mut out = Vec::new();
        for c in centres {
            let b = c.abs().to_bits();
            for v in [b.saturating_sub(1), b, b + 1].map(f32::from_bits) {
                out.extend([v, -v]);
            }
        }
        out
    }

    /// 10^6 seeded inputs: half arbitrary bit patterns (NaNs, infinities,
    /// subnormals, huge values), half spread over the range where the
    /// functions are not saturated.
    fn seeded_sample() -> Vec<f32> {
        let mut rng = miss_util::Rng::new(0x05ee_de4f);
        (0..1_000_000)
            .map(|i| if i % 2 == 0 { f32::from_bits(rng.next_u32()) } else { rng.uniform(-110.0, 90.0) })
            .collect()
    }

    /// The dispatched slice kernel of `F` over `xs` cut into slices of `len`
    /// (every tail length for `len` in 0..=17) equals the reference per
    /// element.
    fn check_every_tail<const F: u8>(xs: &[f32], what: &str) {
        let want: Vec<f32> = xs.iter().map(|&x| reference::<F>(x)).collect();
        let mut empty: [f32; 0] = [];
        map::<F>(&mut empty);
        for len in 1..=17 {
            let mut got = xs.to_vec();
            for chunk in got.chunks_mut(len) {
                map::<F>(chunk);
            }
            for ((&x, &g), &w) in xs.iter().zip(&got).zip(&want) {
                assert!(same(g, w), "{what} f{F}({x:e} = {:#x}), slices of {len}: {g:e} vs {w:e}", x.to_bits());
            }
        }
    }

    #[test]
    fn vector_body_equals_scalar_body_on_edges_at_every_tail_length() {
        if !has_fma() {
            return; // the portable body is the scalar body here
        }
        let xs = edges();
        check_every_tail::<EXP>(&xs, "edge");
        check_every_tail::<SIGMOID>(&xs, "edge");
        check_every_tail::<TANH>(&xs, "edge");
    }

    #[test]
    fn vector_body_equals_scalar_body_on_a_seeded_sample_at_every_tail_length() {
        if !has_fma() {
            return;
        }
        let xs = seeded_sample();
        check_every_tail::<EXP>(&xs, "sample");
        check_every_tail::<SIGMOID>(&xs, "sample");
        check_every_tail::<TANH>(&xs, "sample");
    }

    #[test]
    fn special_values_on_both_bodies() {
        let check = |name: &str, f: &dyn Fn(f32) -> f32, cases: &[(f32, f32)]| {
            for &(x, want) in cases {
                assert_eq!(f(x).to_bits(), want.to_bits(), "{name}({x:e})");
            }
            assert!(f(f32::NAN).is_nan() && f(-f32::NAN).is_nan(), "{name}(NaN)");
        };
        let inf = f32::INFINITY;
        let exp_cases = [(-inf, 0.0), (-1e9, 0.0), (inf, inf), (89.0, inf), (0.0, 1.0), (-0.0, 1.0)];
        let tiny = f32::from_bits(1);
        let tanh_cases = [(0.0, 0.0), (-0.0, -0.0), (inf, 1.0), (-22.0, -1.0), (tiny, tiny)];
        let sigmoid_cases = [(-1e9, 0.0), (-inf, 0.0), (0.0, 0.5), (inf, 1.0)];
        check("exp", &exp, &exp_cases);
        check("portable exp", &exp_scalar::<false>, &exp_cases);
        check("tanh", &tanh, &tanh_cases);
        check("portable tanh", &tanh_scalar, &tanh_cases);
        check("sigmoid", &sigmoid, &sigmoid_cases);
        check("portable sigmoid", &scalar::<SIGMOID, false>, &sigmoid_cases);
    }

    /// FNV-1a over the output bits of `f` on every 4096th bit pattern.
    fn grid_hash(f: impl Fn(f32) -> f32) -> u64 {
        (0..1u32 << 20).fold(0xcbf2_9ce4_8422_2325, |h, i| {
            let y = f(f32::from_bits(i << 12 | i >> 8)).to_bits();
            (h ^ u64::from(y)).wrapping_mul(0x0100_0000_01b3)
        })
    }

    #[test]
    fn scalar_bodies_match_their_golden_hashes() {
        // No host libm computes glibc's unfused `expf`, so its transcription
        // is pinned here; the fused one and `tanh` are checked against this
        // host's libm exhaustively, and pinned too for hosts without it.
        let got = [grid_hash(exp_scalar::<false>), grid_hash(exp_scalar::<true>), grid_hash(tanh_scalar)];
        let want = [0xa294_89a1_4dfd_a75d, 0xa294_89a1_4dfd_a75d, 0xca2d_9890_bbc5_ab4a];
        assert_eq!(got, want, "portable exp, fused exp, tanh");
        // The only two inputs on which glibc's unfused and FMA `expf`
        // differ (found by a scan of all 2^32): one ULP each.
        for (x, plain, fused) in [(0x4202_422f, 0x56fc_9f1b, 0x56fc_9f1c), (0xc27c_65d9, 0x11fa_2992, 0x11fa_2993)] {
            assert_eq!(exp_scalar::<false>(f32::from_bits(x)).to_bits(), plain, "portable exp({x:#x})");
            assert_eq!(exp_scalar::<true>(f32::from_bits(x)).to_bits(), fused, "fused exp({x:#x})");
        }
    }

    #[test]
    fn sigmoid_known_values() {
        assert_eq!(sigmoid(0.0), 0.5);
        assert!((sigmoid(2.0) - 0.880797).abs() < 1e-6);
        assert!((sigmoid(-2.0) - 0.119203).abs() < 1e-6);
        assert!(sigmoid(40.0) > 0.999_999);
        assert!(sigmoid(-40.0) < 1e-6);
    }

    #[test]
    fn sigmoid_is_symmetric() {
        for i in -20..=20 {
            let z = i as f32 * 0.37;
            assert!((sigmoid(z) + sigmoid(-z) - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn sigmoid_extend_appends_in_order() {
        let mut out = vec![0.25];
        sigmoid_extend(&[0.0, 1.0], &mut out);
        assert_eq!(out.len(), 3);
        assert_eq!(out[0], 0.25);
        assert_eq!(out[1], 0.5);
        assert_eq!(out[2], sigmoid(1.0));
    }

    /// Every f32 bit pattern through both bodies of `exp` and `tanh` against
    /// the host's `expf`/`tanhf` (glibc 2.36 resolves `expf` to its FMA
    /// target on AVX2+FMA). Run in release:
    /// `cargo test --release -p miss-tensor --lib math::tests::exhaustive_match_with_glibc -- --ignored`.
    #[test]
    #[ignore = "4.3e9 inputs per function; run in release by name"]
    #[cfg(all(target_arch = "x86_64", target_os = "linux", target_env = "gnu"))]
    fn exhaustive_match_with_glibc() {
        if !has_fma() {
            return;
        }
        const CHUNKS: u32 = 256;
        const BLOCK: u32 = 4096;
        let per_chunk = miss_parallel::with_threads(2, || {
            miss_parallel::par_map(CHUNKS as usize, |c| {
                // Mismatch counts and the first mismatching input: exp
                // vector, exp scalar, tanh vector, tanh scalar.
                let mut bad = [(0u64, None::<u32>); 4];
                let mut note = |slot: usize, ok: bool, b: u32| {
                    if !ok {
                        bad[slot].0 += 1;
                        bad[slot].1.get_or_insert(b);
                    }
                };
                let (mut e, mut t) = (vec![0.0f32; BLOCK as usize], vec![0.0f32; BLOCK as usize]);
                let span = u32::MAX / CHUNKS + 1;
                for start in (0..span).step_by(BLOCK as usize).map(|o| c as u32 * span + o) {
                    for (i, (ev, tv)) in e.iter_mut().zip(t.iter_mut()).enumerate() {
                        *ev = f32::from_bits(start + i as u32);
                        *tv = *ev;
                    }
                    exp_in_place(&mut e);
                    tanh_in_place(&mut t);
                    for (i, (&ev, &tv)) in e.iter().zip(&t).enumerate() {
                        let b = start + i as u32;
                        let x = f32::from_bits(b);
                        let (we, wt) = (x.exp(), x.tanh());
                        note(0, same(ev, we), b);
                        note(1, same(exp_scalar::<true>(x), we), b);
                        note(2, same(tv, wt), b);
                        note(3, same(tanh_scalar(x), wt), b);
                    }
                }
                bad
            })
        });
        for (slot, what) in ["exp vector", "exp scalar", "tanh vector", "tanh scalar"].iter().enumerate() {
            let count: u64 = per_chunk.iter().map(|b| b[slot].0).sum();
            let first = per_chunk.iter().find_map(|b| b[slot].1);
            assert_eq!(count, 0, "{what}: {count} mismatches, first at bits {first:#x?}");
        }
    }
}
