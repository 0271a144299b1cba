//! Bit-identity regressions for the parallel matmul/bmm dispatch.
//!
//! The determinism contract (see `src/kernels.rs`) promises that thread
//! count never changes a single output bit: chunk boundaries are a pure
//! function of the shape and each element's accumulation order is fixed.
//! These tests pin that promise across `MISS_THREADS ∈ {1, 2, 4}` at sizes
//! that straddle the parallel-dispatch threshold and the register-tile
//! boundaries, and against a naive p-ascending reference.

use miss_parallel::with_threads;
use miss_tensor::Tensor;

fn mat(rows: usize, cols: usize, salt: usize) -> Tensor {
    Tensor::from_fn(rows, cols, |i, j| {
        (((i * 31 + j * 7 + salt * 13) % 41) as f32 - 20.0) * 0.073
    })
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// Shapes below, at, and far above the `1 << 18` MAC dispatch threshold.
/// All but the threshold shape straddle the row tiles (6 or 4 rows) and
/// the 16- or 8-wide B panels.
const SHAPES: &[(usize, usize, usize)] = &[
    (5, 9, 17),    // tiny, stays serial
    (64, 64, 64),  // exactly 2^18 MACs: first shape that fans out
    (63, 65, 33),  // odd everything, above threshold
    (130, 96, 70), // multiple chunks per thread
];

#[test]
fn matmul_family_bit_identical_across_thread_counts() {
    for &(m, k, n) in SHAPES {
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
    }
}

#[test]
fn bmm_family_bit_identical_across_thread_counts() {
    // 37 blocks of 7×33 @ 33ᵀ/33×19: above threshold, odd block shapes.
    let (blocks, p, q, k) = (37, 7, 5, 33);
    let a_nt = mat(blocks * p, k, 5);
    let b_nt = mat(blocks * q, k, 6);
    let a_nn = mat(blocks * p, q, 7);
    let b_nn = mat(blocks * q, k, 8);
    let b_tn = mat(blocks * p, k, 9);
    let base = with_threads(1, || {
        (
            a_nt.bmm_nt(&b_nt, blocks),
            a_nn.bmm_nn(&b_nn, blocks),
            a_nn.bmm_tn(&b_tn, blocks),
        )
    });
    for threads in [2, 4] {
        let got = with_threads(threads, || {
            (
                a_nt.bmm_nt(&b_nt, blocks),
                a_nn.bmm_nn(&b_nn, blocks),
                a_nn.bmm_tn(&b_tn, blocks),
            )
        });
        assert_eq!(bits(&base.0), bits(&got.0), "bmm_nt @{threads}t");
        assert_eq!(bits(&base.1), bits(&got.1), "bmm_nn @{threads}t");
        assert_eq!(bits(&base.2), bits(&got.2), "bmm_tn @{threads}t");
    }
}

#[test]
fn tiled_parallel_matmul_matches_naive_reference_bitwise() {
    // The contract is stronger than tolerance: the tiled, chunked, threaded
    // path must reproduce a naive p-ascending triple loop exactly. Which
    // triple loop depends on the detected ISA — the packed-FMA path fuses
    // each multiply-add into one rounding (`mul_add`), the others round
    // every multiply and add individually — but for a fixed machine the
    // match is still bit-for-bit.
    let fused = miss_tensor::detected_isa() == "avx2+fma";
    for &(m, k, n) in SHAPES {
        let a = mat(m, k, 10);
        let b = mat(k, n, 11);
        let mut want = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for p in 0..k {
                    if fused {
                        acc = a.get(i, p).mul_add(b.get(p, j), acc);
                    } else {
                        acc += a.get(i, p) * b.get(p, j);
                    }
                }
                want[i * n + j] = acc;
            }
        }
        let got = with_threads(4, || a.matmul_nn(&b));
        let want_bits: Vec<u32> = want.iter().map(|v| v.to_bits()).collect();
        assert_eq!(bits(&got), want_bits, "naive vs tiled {m}x{k}x{n}");
    }
}
