#!/usr/bin/env bash
# Hermetic CI: build, test and bench with the network forced off.
#
# The workspace has zero external dependencies (dev- or otherwise) — the
# in-tree `miss-testkit` crate provides the property-test runner and the
# microbench harness — so everything here must pass on a machine with no
# crates.io access. CARGO_NET_OFFLINE makes any dependency regression fail
# loudly instead of silently fetching.
#
# Tests run twice: once pinned to MISS_THREADS=1 and once at the machine's
# default parallelism. The determinism contract says both must pass with
# bit-identical numerics; a schedule-dependent bug shows up as exactly one
# of the two runs failing.
#
# Usage: scripts/ci.sh            # full run
#        TESTKIT_BENCH_SAMPLES=10 scripts/ci.sh   # faster benches

set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

# Static analysis runs first: rustc and clippy lints (DESIGN.md §7) catch
# whole classes of determinism/unsafety bugs (hash-order iteration,
# wall-clock reads, raw threads, undocumented unsafe, panics in crates that
# serving links) that the dynamic suite only catches when today's schedule
# happens to expose them. Exemptions are reasoned `#[expect]`s at the site;
# a stale one fails this gate too.
echo "==> gate 0: cargo clippy (workspace lints, -D warnings)"
cargo clippy --workspace --all-targets -- -D warnings

# The bench gate's own self-test (pytest-free): exit codes and named
# errors for malformed bounds, missing baseline groups, and ratio gates.
# A silent bug in check_bench.py would let every bench gate below pass
# without checking anything.
echo "==> gate 0: check_bench.py self-test"
python3 scripts/check_bench.py --self-test

echo "==> tier-1: cargo build --release"
cargo build --release

echo "==> tier-1: cargo test -q (MISS_THREADS=1)"
MISS_THREADS=1 cargo test -q

echo "==> tier-1: cargo test -q (default MISS_THREADS)"
cargo test -q

# The GEMM gate re-runs the tensor crate's bitwise batteries by name: the
# kernel unit tests (both panel bodies against the naive triple loop for
# every A layout, B storage, epilogue and row split, plus the packing
# layout invariance) and the thread-count determinism suite. Both already
# ran inside `cargo test` above; running them here makes a kernel
# regression fail with the battery named in the log, under both the pinned
# and the default thread count.
echo "==> GEMM gate: kernel bitwise battery (MISS_THREADS=1)"
MISS_THREADS=1 cargo test -q -p miss-tensor --lib kernels

echo "==> GEMM gate: kernel bitwise battery (default MISS_THREADS)"
cargo test -q -p miss-tensor --lib kernels

# The transcendental kernels (tensor/src/math.rs) transcribe glibc 2.36's
# expf and tanhf. This test runs every f32 bit pattern through both bodies
# of exp and tanh and compares them with the host's libm: it needs an
# x86_64 glibc host with AVX2+FMA (it passes trivially elsewhere) and takes
# about 70 s on two threads, so it is #[ignore]d in the suites above and
# run here by name, in release.
echo "==> transcendentals gate: exp/tanh equal glibc on all 2^32 inputs"
cargo test -q --release -p miss-tensor --lib math::tests::exhaustive_match_with_glibc -- --ignored

echo "==> GEMM gate: parallel determinism (MISS_THREADS=1)"
MISS_THREADS=1 cargo test -q -p miss-tensor --test parallel_determinism

echo "==> GEMM gate: parallel determinism (default MISS_THREADS)"
cargo test -q -p miss-tensor --test parallel_determinism

# The checkpoint gate re-runs the codec's two test batteries by name: the
# corruption battery (every damaged artifact fails with the matching typed
# MissError, never a panic or a hostile allocation) and the round-trip
# properties (save → load is bitwise identity for params, Adam moments,
# progress and best weights). Both already ran inside `cargo test` above;
# running them here makes a checkpoint regression fail with the battery
# named in the log.
echo "==> checkpoint gate: codec corruption battery"
cargo test -q -p miss-codec --test corruption

echo "==> checkpoint gate: codec round-trip properties"
cargo test -q -p miss-codec --test roundtrip

# The CLI contract of the protocol: `train` prints the same metrics with and
# without `--out` / `--ring`, `eval` on the checkpoint prints the metrics
# `train` printed, and resuming a finished run trains no further epoch.
echo "==> checkpoint gate: miss-train train/eval/resume protocol"
cargo test -q --test cli

# The trainer's determinism suite is the contract the parallel training and
# eval paths must keep: bitwise-identical weights/metrics across thread
# counts. It already ran inside each full `cargo test` above; the explicit
# runs make a schedule-dependent training bug fail *here*, with the suite
# named in the log, under both the pinned and the default thread count.
echo "==> determinism suite: trainer (MISS_THREADS=1)"
MISS_THREADS=1 cargo test -q -p miss-trainer --test determinism

echo "==> determinism suite: trainer (default MISS_THREADS)"
cargo test -q -p miss-trainer --test determinism

# The chaos gate drives the fault-injection matrix (DESIGN.md §9): every
# fail-point kind — worker panic, NaN loss/grad, corrupt batch, checkpoint
# write/read crashes — fires under both the pinned and the default thread
# count, and recovery must land on bitwise-identical weights. The codec
# crash battery (fail after every byte offset; the old file or no file must
# survive) is thread-independent and runs once.
echo "==> chaos gate: trainer fault matrix (MISS_THREADS=1)"
MISS_THREADS=1 cargo test -q -p miss-trainer --test chaos

echo "==> chaos gate: trainer fault matrix (default MISS_THREADS)"
cargo test -q -p miss-trainer --test chaos

echo "==> chaos gate: codec crash battery"
cargo test -q -p miss-codec --test crash

# The serving gate's bitwise-equivalence suite: the inference-mode forward
# must reproduce the training-graph forward bit-for-bit (all 13 base models
# ± MISS), micro-batching must never change a score for any request
# grouping, and a codec round-trip must freeze identically — under both
# thread modes. The malformed-request battery sends every model bad ids,
# ragged histories and wrong field counts: each must come back as a typed
# BadRequest, never a panic.
echo "==> serving gate: inference-mode vs training-graph equivalence (MISS_THREADS=1)"
MISS_THREADS=1 cargo test -q -p miss-serve --test equivalence

echo "==> serving gate: inference-mode vs training-graph equivalence (default MISS_THREADS)"
cargo test -q -p miss-serve --test equivalence

echo "==> serving gate: malformed requests are typed errors (MISS_THREADS=1)"
MISS_THREADS=1 cargo test -q -p miss-serve --test malformed

echo "==> serving gate: malformed requests are typed errors (default MISS_THREADS)"
cargo test -q -p miss-serve --test malformed

# R8 (DESIGN.md §7): after warm-up, every model's inference forward
# allocates the same number of times for any batch row count, and a GEMM
# allocates only its output. A counting global allocator sees callees too.
echo "==> serving gate: no per-row allocation on the hot path"
cargo test -q -p miss-serve --test alloc

# The serving bench (crates/bench/benches/serving.rs) writes
# BENCH_serving.json alongside the other groups.
echo "==> benches: cargo bench"
cargo bench -q

missing=0
for f in BENCH_kernels.json BENCH_training_step.json BENCH_training.json BENCH_data_pipeline.json BENCH_serving.json; do
    if [[ ! -s "$f" ]]; then
        echo "ERROR: bench harness did not produce $f" >&2
        missing=1
    fi
done
[[ "$missing" -eq 0 ]] || exit 1

# The bench gates do not stop at the first failure: each one runs, a
# failure is recorded by name, and one summary line lists every gate that
# failed before the script exits 1.
failed_gates=()

# The kernels baseline deliberately still holds the pre-FMA medians: the
# --max-ratio clause locks in the packed-FMA speedup (matmul_512x256x256
# must stay >= 25% faster than that baseline, i.e. ratio <= 0.75). The
# --require-ratio clause keeps the n % 8 remainder columns on the vector
# path: a 20-wide GEMM may cost at most 2.5x the 16-wide one (~1.7x with
# the zero-padded tail panel, ~10x when the tail ran one column at a time).
# The next two clauses keep exp and tanh on the vector path: each must take
# at most 0.6x the time of a libm call per element on the same data, in the
# same run. The last keeps DIN's activation unit one fused pass: at a
# 256-candidate serving batch it may cost at most 3x its own first-layer
# GEMM (~1.9x fused, ~5.7x as the 11-node chain it replaced).
echo "==> bench gate: kernels medians vs bench_baseline.json"
python3 scripts/check_bench.py BENCH_kernels.json bench_baseline.json 0.25 \
    --max-ratio matmul_512x256x256 0.75 \
    --require-ratio matmul_tn_128x128x20 matmul_tn_128x128x16 2.5 \
    --require-ratio exp_rows_128x128 exp_rows_128x128_libm 0.6 \
    --require-ratio tanh_64x640 tanh_64x640_libm 0.6 \
    --require-ratio din_activation_unit_b256 linear_relu_7680x40x16 3.0 \
    || failed_gates+=(kernels)

# The training sweep gate: the adaptive sharded path must beat the forced
# serial path at the largest swept minibatch (the crossover contract).
echo "==> bench gate: training medians vs bench_baseline.json"
python3 scripts/check_bench.py BENCH_training.json bench_baseline.json 0.25 \
    --require train_epoch_parallel_b4096 \
    --require-faster train_epoch_parallel_b4096 train_epoch_serial_b4096 \
    || failed_gates+=(training)

# The MISS overhead gate: MISS costs nothing at serving time, so its price
# is the extra training work of Eq. 17. A DIN+MISS joint step may cost at
# most 3x a plain DIN step of the same run. bench_baseline.json has no
# training_step group, so this within-run ratio is the whole gate.
echo "==> bench gate: training_step MISS overhead (within one run)"
python3 scripts/check_bench.py BENCH_training_step.json bench_baseline.json 0.25 \
    --require-ratio din_miss_joint_step din_forward_backward_step 3.0 \
    || failed_gates+=(training_step)

# The frozen-eval gate: eval through the inference-mode graph must stay in
# the same band as the training-graph eval (typically faster; the 1.25
# bound is noise headroom on a busy box, and catches the inference path
# losing its pre-packing, which shows up as a multiple, not a percent).
echo "==> bench gate: data_pipeline medians vs bench_baseline.json"
python3 scripts/check_bench.py BENCH_data_pipeline.json bench_baseline.json 0.25 \
    --require eval_frozen_din \
    --require-ratio eval_frozen_din eval_graph_din 1.25 \
    || failed_gates+=(data_pipeline)

# The serving gate: micro-batched scoring at max_batch=64 must run the same
# queue at least 2x faster than one-request-at-a-time; the margin is
# batching amortisation, not threads. On a 2-vCPU AVX2+FMA host it measures
# 1.2-1.8x (ratio 0.57-0.81), so this gate fails there (ROADMAP item 3).
echo "==> bench gate: serving medians vs bench_baseline.json"
python3 scripts/check_bench.py BENCH_serving.json bench_baseline.json 0.25 \
    --require queue_solo_mb1 \
    --require queue_batch_mb64 \
    --require request_latency_mb64 \
    --require-ratio queue_batch_mb64 queue_solo_mb1 0.5 \
    || failed_gates+=(serving)

if [[ "${#failed_gates[@]}" -gt 0 ]]; then
    echo "FAILED bench gates: ${failed_gates[*]}" >&2
    exit 1
fi

echo "==> OK: build, tests (both thread modes), determinism suite, benches, serving equivalence, malformed requests and bench gates green offline"
