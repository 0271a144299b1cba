//! The serving contract for [`PackedB`]: a multiply against a pre-packed B
//! must be *bitwise* identical to `matmul_nn_ep` against the original
//! tensor — same chunking, same kernels, same accumulation order — for
//! every epilogue and every `MISS_THREADS` value. The frozen inference
//! engine in `crates/serve` leans on this to skip packing per request
//! without changing a single output bit.

use miss_parallel::with_threads;
use miss_tensor::{GemmEpilogue, PackedB, Tensor};

/// Shapes spanning every packed-panel remainder path (16-wide panels,
/// the 8-wide panel, the zero-padded tail panel at every width 1–7, row
/// remainders).
const RAGGED: &[usize] = &[1, 2, 3, 4, 5, 6, 7, 10, 12, 15, 16, 17, 20, 24, 33];

fn mat(rows: usize, cols: usize, salt: usize) -> Tensor {
    Tensor::from_fn(rows, cols, |i, j| {
        (((i * 31 + j * 13 + salt * 19) % 41) as f32 - 20.0) * 0.053
    })
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

#[test]
fn prepacked_bitwise_equals_pack_per_call_across_shapes_and_epilogues() {
    for &m in RAGGED {
        for &k in RAGGED {
            for &n in RAGGED {
                let a = mat(m, k, 1);
                let b = mat(k, n, 2);
                let bias: Vec<f32> = (0..n).map(|j| (j as f32 - 3.0) * 0.25).collect();
                let packed = PackedB::pack(&b);
                assert_eq!((packed.k(), packed.n()), (k, n));
                let eps = [
                    GemmEpilogue::None,
                    GemmEpilogue::AddBias(&bias),
                    GemmEpilogue::AddBiasRelu(&bias),
                    GemmEpilogue::AddBiasSigmoid(&bias),
                ];
                for ep in eps {
                    let fresh = a.matmul_nn_ep(&b, ep);
                    let pre = a.matmul_nn_ep_prepacked(&packed, ep);
                    assert_eq!(
                        bits(&fresh),
                        bits(&pre),
                        "prepacked drifted from pack-per-call at {m}x{k}x{n}"
                    );
                }
            }
        }
    }
}

#[test]
fn prepacked_bitwise_stable_across_thread_counts() {
    // Big enough that m*k*n crosses PAR_MIN_MACS and the row chunks really
    // do fan out over the pool.
    let (m, k, n) = (96, 64, 80);
    let a = mat(m, k, 4);
    let b = mat(k, n, 5);
    let bias: Vec<f32> = (0..n).map(|j| ((j % 9) as f32 - 4.0) * 0.125).collect();
    let packed = PackedB::pack(&b);
    let reference = a.matmul_nn_ep(&b, GemmEpilogue::AddBiasSigmoid(&bias));
    for threads in [1usize, 2, 4] {
        let got = with_threads(threads, || {
            a.matmul_nn_ep_prepacked(&packed, GemmEpilogue::AddBiasSigmoid(&bias))
        });
        assert_eq!(
            bits(&reference),
            bits(&got),
            "prepacked result changed with MISS_THREADS={threads}"
        );
    }
}
