//! R8 (DESIGN.md §7): no allocation that scales with the batch on the
//! serving hot path. A counting global allocator tallies every allocation
//! made on the test's own thread; at `with_threads(1)` that is every
//! allocation the call makes, callees included. After one warm-up call the
//! inference forward of every base model must allocate the same number of
//! times for every batch size, and a GEMM exactly once (its output).
#![expect(
    unsafe_code,
    reason = "a GlobalAlloc impl is unsafe by definition; it forwards to System unchanged"
)]

use miss_data::{Batch, Dataset, Sample, World, WorldConfig};
use miss_serve::FrozenModel;
use miss_tensor::{GemmEpilogue, PackedB, Tensor};
use miss_trainer::{Experiment, SslKind, ALL_BASELINES};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn bump() {
    ALLOCS.with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its arguments to `System` unchanged, so the
// GlobalAlloc contract holds exactly as it does for `System`; the counter is
// a const-initialised thread-local Cell that never allocates itself.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller upholds `alloc_zeroed`'s contract for `layout`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: `ptr` came from this allocator (hence from `System`) with
        // `layout`, as the caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator (hence from `System`) with
        // `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` makes on this thread (allocs, zeroed allocs, reallocs).
fn count<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (ALLOCS.with(Cell::get) - before, out)
}

const BATCH_SIZES: [usize; 4] = [1, 8, 64, 256];

/// A `b`-row batch cycling through the test split.
fn batch_of(dataset: &Dataset, b: usize) -> Batch {
    let refs: Vec<&Sample> = (0..b)
        .map(|i| &dataset.test[i % dataset.test.len()])
        .collect();
    Batch::from_samples(&refs, &dataset.schema)
}

#[test]
fn frozen_forward_allocations_do_not_depend_on_batch_rows() {
    let world = World::generate(WorldConfig::tiny(), 7);
    let dataset = Dataset::from_world(&world, 7);
    let batches: Vec<Batch> = BATCH_SIZES.iter().map(|&b| batch_of(&dataset, b)).collect();
    for base in ALL_BASELINES {
        let (store, _) = Experiment::new(base, SslKind::None).build_model(&dataset.schema, 42);
        let frozen = FrozenModel::freeze(&store, &dataset.schema, base).expect("freeze");
        let counts: Vec<u64> = miss_parallel::with_threads(1, || {
            frozen.forward(&batches[0]).expect("warm-up forward");
            batches
                .iter()
                .map(|batch| count(|| frozen.forward(batch).expect("forward")).0)
                .collect()
        });
        assert!(
            counts.iter().all(|&c| c == counts[0]),
            "{base:?}: allocations per forward vary with batch rows {BATCH_SIZES:?}: {counts:?}"
        );
    }
}

#[test]
fn gemm_allocates_only_its_output() {
    for (m, k, n) in [
        (1, 7, 16),
        (6, 16, 17),
        (13, 33, 15),
        (257, 64, 1),
        (64, 96, 200),
    ] {
        let a = Tensor::from_fn(m, k, |i, j| ((i * 7 + j * 3) % 11) as f32 * 0.125 - 0.5);
        let b = Tensor::from_fn(k, n, |i, j| ((i * 5 + j) % 13) as f32 * 0.0625 - 0.25);
        let packed = PackedB::pack(&b);
        let bias: Vec<f32> = (0..n).map(|j| j as f32 * 0.01).collect();
        miss_parallel::with_threads(1, || {
            a.matmul_nn(&b);
            let (plain, _) = count(|| a.matmul_nn(&b));
            let (prepacked, _) =
                count(|| a.matmul_nn_ep_prepacked(&packed, GemmEpilogue::AddBiasRelu(&bias)));
            assert_eq!((plain, prepacked), (1, 1), "allocations for {m}x{k}x{n}");
        });
    }
}
