//! Property tests for the packed-FMA GEMM path and its fused epilogues.
//!
//! Two contracts from DESIGN.md §6 are pinned here:
//!
//! 1. **Per-(shape, ISA) determinism.** On a machine with AVX2+FMA the packed
//!    path must be bitwise-equal to itself across `MISS_THREADS` {1, 2, 4}
//!    and bitwise-equal to a naive `mul_add` triple loop, on ragged shapes
//!    that hit every remainder path: the 16-wide panels, the 8-wide panel,
//!    the zero-padded tail panel at every width 1–7, the 6-row tile and the
//!    row remainder.
//!    Against the *individually rounded* naive loop the fused path may differ,
//!    but never by more than 1 ULP per element.
//! 2. **Epilogue fusion is a rounding-level rewrite, not a numeric one.**
//!    Fused bias/activation epilogues must match the unfused
//!    matmul-then-bias-then-activation pipeline within 4 ULP and be
//!    self-deterministic (bitwise across repeated calls and thread counts).

use miss_parallel::with_threads;
use miss_tensor::{GemmEpilogue, Tensor};

/// Every m,k,n combination from this set exercises a distinct mix of the
/// packed-panel remainder paths (16-panel at 16/17/20/24/33, 8-panel at
/// 10/12/15/24, tail panel of width n % 8 = 1–7 at every width not a
/// multiple of 8, row remainder at every non-multiple of 6). 10 and 20 are
/// the MISS SSL encoder widths.
const RAGGED: &[usize] = &[1, 2, 3, 4, 5, 6, 7, 10, 12, 15, 16, 17, 20, 24, 33];

fn mat(rows: usize, cols: usize, salt: usize) -> Tensor {
    Tensor::from_fn(rows, cols, |i, j| {
        (((i * 29 + j * 11 + salt * 17) % 37) as f32 - 18.0) * 0.061
    })
}

/// Dyadic entries in [-1, 1] with denominator 16: every product is an exact
/// f32 and every partial sum of ≤ 33 terms stays exact, so fused and
/// individually-rounded accumulation must both produce the mathematically
/// exact result. On arbitrary data fused-vs-unfused can drift past 1 ULP
/// under cancellation; on this data any ULP of difference is an indexing or
/// accumulation bug in a remainder path, which is what the bound pins.
fn dyadic(rows: usize, cols: usize, salt: usize) -> Tensor {
    Tensor::from_fn(rows, cols, |i, j| {
        (((i * 13 + j * 23 + salt * 7) % 33) as f32 - 16.0) / 16.0
    })
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// Distance in representable f32 steps; asserting `<= n` is an n-ULP bound.
fn ulp_diff(x: f32, y: f32) -> u32 {
    // Map the sign-magnitude bit pattern onto a monotone integer line so a
    // subtraction counts representable values between x and y, even across 0.
    fn key(v: f32) -> i64 {
        let b = v.to_bits() as i32;
        i64::from(if b < 0 { i32::MIN.wrapping_sub(b).wrapping_neg() } else { b })
    }
    key(x).abs_diff(key(y)).min(u64::from(u32::MAX)) as u32
}

fn naive(a: &Tensor, b: &Tensor, fused: bool) -> Tensor {
    Tensor::from_fn(a.rows(), b.cols(), |i, j| {
        let mut acc = 0.0f32;
        for p in 0..a.cols() {
            if fused {
                acc = a.get(i, p).mul_add(b.get(p, j), acc);
            } else {
                acc += a.get(i, p) * b.get(p, j);
            }
        }
        acc
    })
}

#[test]
fn ragged_shapes_bitwise_stable_and_within_one_ulp_of_naive() {
    let fused = miss_tensor::detected_isa() == "avx2+fma";
    for &m in RAGGED {
        for &k in RAGGED {
            for &n in RAGGED {
                let a = mat(m, k, 1);
                let b = mat(k, n, 2);
                let bt = mat(n, k, 3);
                let at = mat(k, m, 4);
                let base = with_threads(1, || {
                    (a.matmul_nn(&b), a.matmul_nt(&bt), at.matmul_tn(&b))
                });
                for threads in [2, 4] {
                    let got = with_threads(threads, || {
                        (a.matmul_nn(&b), a.matmul_nt(&bt), at.matmul_tn(&b))
                    });
                    assert_eq!(bits(&base.0), bits(&got.0), "nn {m}x{k}x{n} @{threads}t");
                    assert_eq!(bits(&base.1), bits(&got.1), "nt {m}x{k}x{n} @{threads}t");
                    assert_eq!(bits(&base.2), bits(&got.2), "tn {m}x{k}x{n} @{threads}t");
                }
                // Exact agreement with the ISA-matched naive loop...
                let want = naive(&a, &b, fused);
                assert_eq!(bits(&base.0), bits(&want), "nn vs naive {m}x{k}x{n}");
                // ...and ≤ 1 ULP from the individually-rounded naive loop on
                // exactly-representable inputs (see `dyadic`).
                let (da, db) = (dyadic(m, k, 1), dyadic(k, n, 2));
                let got = da.matmul_nn(&db);
                let plain = naive(&da, &db, false);
                for (i, (x, y)) in got.as_slice().iter().zip(plain.as_slice()).enumerate() {
                    assert!(
                        ulp_diff(*x, *y) <= 1,
                        "{m}x{k}x{n} elem {i}: fused {x} vs plain {y}"
                    );
                }
            }
        }
    }
}

/// The unfused pipeline the epilogue replaces: full matmul, then a bias pass,
/// then an activation pass, each individually rounded.
fn unfused(a: &Tensor, b: &Tensor, bias: &[f32], act: fn(f32) -> f32) -> Tensor {
    let y = a.matmul_nn(b);
    Tensor::from_fn(y.rows(), y.cols(), |i, j| act(y.get(i, j) + bias[j]))
}

/// The unfused reference activation paired with each fused epilogue.
type Act = fn(f32) -> f32;

#[test]
fn fused_epilogues_match_unfused_within_four_ulp() {
    for &(m, k, n) in &[(1usize, 7usize, 16usize), (6, 16, 17), (13, 33, 15), (17, 17, 33)] {
        let a = mat(m, k, 5);
        let b = mat(k, n, 6);
        let bias: Vec<f32> = (0..n).map(|j| (j as f32 - 4.0) * 0.05).collect();
        let cases: [(GemmEpilogue, Act); 3] = [
            (GemmEpilogue::AddBias(&bias), |x| x),
            (GemmEpilogue::AddBiasRelu(&bias), |x| x.max(0.0)),
            (GemmEpilogue::AddBiasSigmoid(&bias), miss_tensor::math::sigmoid),
        ];
        for (ep, act) in cases {
            let got = a.matmul_nn_ep(&b, ep);
            let want = unfused(&a, &b, &bias, act);
            for (i, (x, y)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
                assert!(
                    ulp_diff(*x, *y) <= 4,
                    "{ep:?} {m}x{k}x{n} elem {i}: fused {x} vs unfused {y} ({} ULP)",
                    ulp_diff(*x, *y)
                );
            }
        }
    }
}

#[test]
fn fused_epilogues_are_self_deterministic() {
    let (m, k, n) = (13, 33, 17);
    let a = mat(m, k, 7);
    let b = mat(k, n, 8);
    let bias: Vec<f32> = (0..n).map(|j| (j as f32 - 8.0) * 0.03).collect();
    for ep in [
        GemmEpilogue::AddBias(&bias),
        GemmEpilogue::AddBiasRelu(&bias),
        GemmEpilogue::AddBiasSigmoid(&bias),
    ] {
        let base = with_threads(1, || a.matmul_nn_ep(&b, ep));
        assert_eq!(bits(&base), bits(&a.matmul_nn_ep(&b, ep)), "{ep:?} repeat call");
        for threads in [2, 4] {
            let got = with_threads(threads, || a.matmul_nn_ep(&b, ep));
            assert_eq!(bits(&base), bits(&got), "{ep:?} @{threads}t");
        }
    }
}

#[test]
fn bmm_with_ten_wide_output_is_bitwise_per_block_and_thread_stable() {
    // N = 10 (an 8-panel plus a 2-wide tail panel) is the MISS encoder
    // width; 128 blocks of 7×30 cross the parallel fan-out threshold.
    let (blocks, p, q, n) = (128, 7, 30, 10);
    let (a, at, b) = (mat(blocks * p, q, 1), mat(blocks * q, p, 2), mat(blocks * q, n, 3));
    let run = || (a.bmm_nn(&b, blocks), at.bmm_tn(&b, blocks));
    let base = with_threads(1, run);
    for blk in 0..blocks {
        let block = |t: &Tensor, h| Tensor::from_fn(h, t.cols(), |r, c| t.get(blk * h + r, c));
        let want_nn = block(&a, p).matmul_nn(&block(&b, q));
        let want_tn = block(&at, q).matmul_tn(&block(&b, q));
        assert_eq!(bits(&block(&base.0, p)), bits(&want_nn), "bmm_nn block {blk}");
        assert_eq!(bits(&block(&base.1, p)), bits(&want_tn), "bmm_tn block {blk}");
    }
    for threads in [2, 4] {
        let got = with_threads(threads, run);
        assert_eq!(bits(&base.0), bits(&got.0), "bmm_nn @{threads}t");
        assert_eq!(bits(&base.1), bits(&got.1), "bmm_tn @{threads}t");
    }
}
