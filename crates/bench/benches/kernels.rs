//! Micro-benchmarks of the dense kernels every model is built from.

use miss_nn::{Graph, Mlp, ParamStore};
use miss_tensor::{GemmEpilogue, PackedB, Tensor};
use miss_testkit::bench::{black_box, BenchGroup};
use miss_util::Rng;

/// The pre-tiling `ikj` triple loop, kept as the fixed baseline the CI
/// regression gate compares the tiled `matmul_512x256x256` case against.
fn naive_nn(a: &Tensor, b: &Tensor) -> Vec<f32> {
    let (m, k) = a.shape();
    let (_, n) = b.shape();
    let mut c = vec![0.0f32; m * n];
    let (av, bv) = (a.as_slice(), b.as_slice());
    for i in 0..m {
        for p in 0..k {
            let x = av[i * k + p];
            let brow = &bv[p * n..(p + 1) * n];
            let crow = &mut c[i * n..(i + 1) * n];
            for (cv, &bb) in crow.iter_mut().zip(brow) {
                *cv += x * bb;
            }
        }
    }
    c
}

fn main() {
    let mut group = BenchGroup::new("kernels");
    group.sample_size(20);
    // Determinism (and therefore the numbers) are per-(shape, ISA): record
    // which dispatch path ran so baselines compare like-to-like.
    group.meta("isa", miss_tensor::detected_isa());
    #[expect(
        clippy::disallowed_methods,
        reason = "records the MISS_THREADS this run saw in the bench JSON meta"
    )]
    let miss_threads = std::env::var("MISS_THREADS").unwrap_or_else(|_| "unset".into());
    group.meta("miss_threads", &miss_threads);

    // The paper's shapes: batch 128, L = 30, K = 10, MLP width 40.
    let a = Tensor::from_fn(128, 40, |i, j| (i as f32 * 0.01 - j as f32 * 0.02).sin());
    let b = Tensor::from_fn(40, 40, |i, j| ((i + j) as f32 * 0.03).cos());
    group.bench_function("matmul_128x40x40", |bch| {
        bch.iter(|| black_box(a.matmul_nn(&b)))
    });

    // MISS's SSL encoder backward at batch 128: `Xᵀ @ dY` with a 20-wide
    // layer against the 16-wide panel-aligned shape. Their ratio gates the
    // cost of the n % 8 remainder columns (CI asks ≤ 2.5). Both sit at the
    // parallel fan-out threshold, so they run on one thread: thread spawns
    // would otherwise dominate both and hide the kernel.
    let x128 = Tensor::from_fn(128, 128, |i, j| ((i * 5 + j * 3) % 11) as f32 * 0.07 - 0.3);
    for n in [20, 16] {
        let dy = Tensor::from_fn(128, n, |i, j| ((i + j * 7) % 13) as f32 * 0.05 - 0.3);
        group.bench_function(&format!("matmul_tn_128x128x{n}"), |bch| {
            bch.iter(|| miss_parallel::with_threads(1, || black_box(x128.matmul_tn(&dy))))
        });
    }

    let seq = Tensor::from_fn(128 * 30, 10, |i, j| ((i * 7 + j) % 13) as f32 * 0.1);
    let cand = Tensor::from_fn(128, 10, |i, j| ((i + j) % 5) as f32 * 0.2);
    group.bench_function("bmm_nt_attention_scores", |bch| {
        bch.iter(|| black_box(seq.bmm_nt(&cand, 128)))
    });

    let weights = Tensor::from_fn(128, 30, |_, j| 1.0 / (j + 1) as f32);
    group.bench_function("bmm_nn_weighted_pool", |bch| {
        bch.iter(|| black_box(weights.bmm_nn(&seq, 128)))
    });

    let scores = Tensor::from_fn(128, 30, |i, j| ((i * j) % 17) as f32 * 0.3 - 2.0);
    group.bench_function("row_softmax_128x30", |bch| {
        bch.iter(|| black_box(scores.row_softmax()))
    });

    group.bench_function("row_logsumexp_128x30", |bch| {
        bch.iter(|| black_box(scores.row_logsumexp()))
    });

    // The vectorised transcendentals against a libm call per element, in
    // one run. exp: the 128×128 InfoNCE similarity rows (logits / τ).
    // tanh: DIEN's GRU candidate state at batch 64, 640 values per row.
    let logits = Tensor::from_fn(128, 128, |i, j| ((i * 7 + j * 3) % 41) as f32 * 0.5 - 20.0);
    let mut rows = logits.as_slice().to_vec();
    group.bench_function("exp_rows_128x128", |bch| {
        bch.iter(|| {
            rows.copy_from_slice(logits.as_slice());
            for row in rows.chunks_exact_mut(128) {
                miss_tensor::math::exp_in_place(row);
            }
            black_box(rows[0])
        })
    });
    group.bench_function("exp_rows_128x128_libm", |bch| {
        bch.iter(|| {
            rows.copy_from_slice(logits.as_slice());
            for v in rows.iter_mut() {
                *v = v.exp();
            }
            black_box(rows[0])
        })
    });
    let gates = Tensor::from_fn(64, 640, |i, j| ((i * 13 + j * 5) % 37) as f32 * 0.2 - 3.6);
    let mut state = gates.as_slice().to_vec();
    group.bench_function("tanh_64x640", |bch| {
        bch.iter(|| {
            state.copy_from_slice(gates.as_slice());
            miss_tensor::math::tanh_in_place(&mut state);
            black_box(state[0])
        })
    });
    group.bench_function("tanh_64x640_libm", |bch| {
        bch.iter(|| {
            state.copy_from_slice(gates.as_slice());
            for v in state.iter_mut() {
                *v = v.tanh();
            }
            black_box(state[0])
        })
    });

    // DIN's activation unit on a serving batch (256 candidates × 30
    // positions, K = 10, the 40 → 16 → 1 tower) on an inference graph,
    // against its first-layer GEMM alone on a stored 7680×40 input. Their
    // ratio is the cost of everything around that GEMM: interaction
    // input, second layer, masked softmax and weighted sum. One thread, as
    // the serving engine runs.
    let (b, l, k) = (256, 30, 10);
    let mut store = ParamStore::new();
    let tower = Mlp::relu_tower(&mut store, "att", 4 * k, &[16, 1], &mut Rng::new(5));
    let seq_v = Tensor::from_fn(b * l, k, |i, j| ((i * 7 + j * 3) % 17) as f32 * 0.06 - 0.5);
    let cand_v = Tensor::from_fn(b, k, |i, j| ((i + j * 5) % 11) as f32 * 0.09 - 0.45);
    let mask: Vec<f32> = (0..b * l)
        .map(|r| if r % l < 5 + r / l % 26 { 1.0 } else { 0.0 })
        .collect();
    let mut g = Graph::inference(&store);
    let (sv, cv) = (g.input(seq_v), g.input(cand_v));
    let start = g.tape.len();
    group.bench_function("din_activation_unit_b256", |bch| {
        bch.iter(|| {
            miss_parallel::with_threads(1, || {
                let y =
                    miss_models::attention_pool_masked(&mut g, &store, sv, cv, b, l, &mask, &tower);
                let v = g.tape.value(y).get(0, 0);
                g.tape.truncate(start);
                black_box(v)
            })
        })
    });
    let att_in = Tensor::from_fn(b * l, 4 * k, |i, j| {
        ((i * 7 + j * 3) % 17) as f32 * 0.06 - 0.5
    });
    let w1 = PackedB::pack(&Tensor::from_fn(4 * k, 16, |i, j| {
        ((i * 3 + j) % 7) as f32 * 0.05 - 0.15
    }));
    let b1: Vec<f32> = (0..16).map(|j| j as f32 * 0.01).collect();
    group.bench_function("linear_relu_7680x40x16", |bch| {
        bch.iter(|| {
            miss_parallel::with_threads(1, || {
                black_box(att_in.matmul_nn_ep_prepacked(&w1, GemmEpilogue::AddBiasRelu(&b1)))
            })
        })
    });

    let idx: Vec<usize> = (0..128 * 28).map(|i| (i * 13) % (128 * 30)).collect();
    group.bench_function("gather_rows_conv_shift", |bch| {
        bch.iter(|| black_box(seq.gather_rows(&idx)))
    });

    // Serial-unfriendly GEMM (33.5M MACs): naive baseline vs the tiled +
    // parallel-dispatch path, measured in the same run for a fair ratio.
    let big_a = Tensor::from_fn(512, 256, |i, j| ((i * 31 + j) % 23) as f32 * 0.05 - 0.5);
    let big_b = Tensor::from_fn(256, 256, |i, j| ((i + j * 17) % 19) as f32 * 0.06 - 0.5);
    group.bench_function("matmul_512x256x256_naive", |bch| {
        bch.iter(|| black_box(naive_nn(&big_a, &big_b)))
    });
    group.bench_function("matmul_512x256x256", |bch| {
        bch.iter(|| black_box(big_a.matmul_nn(&big_b)))
    });

    // Large batched attention shape (16.7M MACs across 64 blocks).
    let blk_a = Tensor::from_fn(64 * 64, 64, |i, j| ((i * 13 + j) % 29) as f32 * 0.04 - 0.5);
    let blk_b = Tensor::from_fn(64 * 64, 64, |i, j| ((i + j * 11) % 31) as f32 * 0.03 - 0.4);
    group.bench_function("bmm_nt_64x64x64x64", |bch| {
        bch.iter(|| black_box(blk_a.bmm_nt(&blk_b, 64)))
    });

    group.finish();
}
