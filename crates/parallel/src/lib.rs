//! Deterministic, zero-dependency data parallelism for the MISS workspace.
//!
//! Every hot loop in the workspace (dense kernels, batch evaluation,
//! world generation) dispatches through this crate. The design contract is
//! **bit-identical results for any thread count**:
//!
//! * Work is split into *fixed chunks* whose boundaries are derived only
//!   from the input length ([`fixed_chunk_len`]) — never from the thread
//!   count, scheduling order, or timing.
//! * Each chunk's result depends only on its chunk index (workers share no
//!   mutable state beyond the claim counter), and chunk outputs are written
//!   into pre-sized, disjoint slots by index.
//! * [`par_map`] returns the per-chunk results in chunk order, and callers
//!   fold them serially after all workers finish, so floating-point rounding
//!   is the same whether one thread or sixteen computed the chunks.
//!
//! The pool is `std::thread::scope`-based: workers are spawned per call and
//! joined before returning, so closures may borrow from the caller's stack.
//! Calls below the caller's own thresholds (or with one chunk, or with
//! `MISS_THREADS=1`) run inline on the calling thread with zero spawns.
//!
//! Thread count resolution order:
//! 1. inside a pool worker: always 1 (nested parallelism runs serial),
//! 2. a [`with_threads`] override on the calling thread (used by tests),
//! 3. the `MISS_THREADS` environment variable,
//! 4. `std::thread::available_parallelism()`.
//!
//! Steps 3 and 4 are resolved once per process, at the first dispatch, so
//! setting `MISS_THREADS` later has no effect. (The core-count query
//! re-reads cgroup and affinity state: per dispatch it cost more than a
//! small GEMM.)

// R7 (DESIGN.md §7): serving links this crate, so production code has no
// panic path; an index needs a reasoned `#[expect]` naming its bound.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::todo,
    clippy::unimplemented,
    clippy::dbg_macro,
    clippy::panic,
    clippy::unreachable,
    clippy::indexing_slicing
)]
// R4: besides the GEMM kernels, this is the one place `unsafe` may appear.
#![expect(
    unsafe_code,
    reason = "the pool's disjoint-slot writes through SendPtr; each site states its disjointness argument in a SAFETY comment"
)]

use std::cell::Cell;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// Fail-point site consulted (on the dispatching thread only) by
/// [`try_par_for_each_mut`]: `parallel.worker.panic@N` panics inside the
/// N-th contained task, counted cumulatively across dispatches.
pub const SITE_WORKER_PANIC: &str = "parallel.worker.panic";

/// Fixed number of chunks [`fixed_chunk_len`] aims for. Chosen so any
/// realistic thread count (1–64) load-balances well while chunk boundaries
/// stay a pure function of the input length.
pub const FIXED_CHUNKS: usize = 32;

thread_local! {
    /// Scoped thread-count override installed by [`with_threads`].
    static OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
    /// True inside a pool worker; nested dispatch then runs serial, both to
    /// bound the total thread count and to keep worker-local work
    /// independent of the outer schedule.
    static IN_POOL: Cell<bool> = const { Cell::new(false) };
}

/// The thread count parallel dispatch may use from the current thread.
///
/// Always ≥ 1. Results never depend on this value — only wall-clock does.
pub fn max_threads() -> usize {
    if IN_POOL.with(|c| c.get()) {
        return 1;
    }
    if let Some(n) = OVERRIDE.with(|c| c.get()) {
        return n.max(1);
    }
    static PROCESS: OnceLock<usize> = OnceLock::new();
    #[expect(
        clippy::disallowed_methods,
        reason = "R10: MISS_THREADS is the one setting the library reads from the environment; it moves wall-clock only, never a result bit (DESIGN.md §6)"
    )]
    *PROCESS.get_or_init(|| {
        if let Ok(s) = std::env::var("MISS_THREADS") {
            if let Ok(n) = s.trim().parse::<usize>() {
                return n.max(1);
            }
        }
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    })
}

/// Run `f` with the thread count pinned to `n` on this thread (callees on
/// this thread included; worker threads spawned inside still run their own
/// chunks serially). Intended for tests asserting parallel ≡ serial.
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            let prev = self.0;
            OVERRIDE.with(|c| c.set(prev));
        }
    }
    let _guard = Restore(OVERRIDE.with(|c| c.replace(Some(n))));
    f()
}

/// Chunk length for an input of `len` items: `ceil(len / FIXED_CHUNKS)`,
/// raised to at least `min_chunk`. Depends on `len` (and the caller's
/// `min_chunk`) only — never on the thread count.
pub fn fixed_chunk_len(len: usize, min_chunk: usize) -> usize {
    len.div_ceil(FIXED_CHUNKS).max(min_chunk).max(1)
}

/// Raw-pointer wrapper so disjoint writes can cross the scope boundary.
/// Safety argument lives at each use site.
struct SendPtr<T>(*mut T);
// SAFETY: SendPtr is a crate-private capability, only ever constructed over
// an allocation (`slots` in `par_map`, `data` in `par_chunks_mut`) that
// strictly outlives the `thread::scope` its workers run in; sending the
// pointer to a scoped worker therefore never outlives the pointee. `T:
// Send` is enforced by the public APIs' bounds before any SendPtr exists.
unsafe impl<T> Send for SendPtr<T> {}
// SAFETY: shared (`&SendPtr`) access only hands out the raw pointer value;
// every dereference happens at a use site whose disjointness argument
// (each index/chunk claimed by exactly one worker via fetch_add) is given
// on the unsafe block performing it.
unsafe impl<T> Sync for SendPtr<T> {}
impl<T> SendPtr<T> {
    /// Accessor instead of field access so closures capture the wrapper
    /// (which is `Sync`) rather than the bare `*mut T` (which is not).
    fn get(&self) -> *mut T {
        self.0
    }
}

/// Execute `task(0..n_tasks)` exactly once each, work-stealing task indices
/// over at most [`max_threads`] scoped workers. Which worker runs a task is
/// nondeterministic; what the task computes must depend on its index alone.
#[expect(
    clippy::disallowed_methods,
    reason = "the deterministic pool itself: fixed chunking and ordered reduction make results independent of the schedule"
)]
fn run_tasks(n_tasks: usize, task: &(dyn Fn(usize) + Sync)) {
    let threads = max_threads().min(n_tasks);
    if threads <= 1 {
        for i in 0..n_tasks {
            task(i);
        }
        return;
    }
    let next = AtomicUsize::new(0);
    let drain = || loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= n_tasks {
            break;
        }
        task(i);
    };
    std::thread::scope(|s| {
        for _ in 0..threads - 1 {
            s.spawn(|| {
                IN_POOL.with(|c| c.set(true));
                drain();
            });
        }
        // The calling thread is the final worker; mark it as in-pool so the
        // tasks it runs dispatch nested work exactly like the spawned ones.
        let was = IN_POOL.with(|c| c.replace(true));
        drain();
        IN_POOL.with(|c| c.set(was));
    });
}

/// Compute `f(i)` for `i in 0..n` in parallel; results returned in index
/// order. `f` must be a pure function of its index (plus captured shared
/// state), which makes the output independent of the schedule.
#[expect(
    clippy::expect_used,
    reason = "unreachable by construction: run_tasks claims every index in 0..n exactly once and joins all workers before the slots are read"
)]
pub fn par_map<R: Send>(n: usize, f: impl Fn(usize) -> R + Sync) -> Vec<R> {
    let mut slots: Vec<Option<R>> = Vec::with_capacity(n);
    slots.resize_with(n, || None);
    let ptr = SendPtr(slots.as_mut_ptr());
    run_tasks(n, &|i| {
        let r = f(i);
        debug_assert!(i < n, "task index out of the pre-sized slot range");
        // SAFETY: every index in 0..n is claimed by exactly one worker
        // (fetch_add), slots outlives the scope, and slot i is written only
        // here — writes are disjoint and joined before slots is read.
        unsafe { ptr.get().add(i).write(Some(r)) };
    });
    slots
        .into_iter()
        .map(|s| s.expect("pool worker completed every claimed task"))
        .collect()
}

/// Split `data` into consecutive chunks of `chunk_len` (last one shorter)
/// and run `f(chunk_index, start_offset, chunk)` on each in parallel.
///
/// Chunks are disjoint `&mut` windows of one allocation, so workers write
/// results straight into their final position — no post-hoc stitching, and
/// the output layout is identical to a serial loop's.
pub fn par_chunks_mut<T: Send>(
    data: &mut [T],
    chunk_len: usize,
    f: impl Fn(usize, usize, &mut [T]) + Sync,
) {
    assert!(chunk_len > 0, "chunk_len must be positive");
    let len = data.len();
    if len == 0 {
        return;
    }
    let n_chunks = len.div_ceil(chunk_len);
    let ptr = SendPtr(data.as_mut_ptr());
    run_tasks(n_chunks, &|ci| {
        let start = ci * chunk_len;
        let end = (start + chunk_len).min(len);
        debug_assert!(start < len && end <= len, "chunk window out of bounds");
        // SAFETY: chunk ci covers [start, end) ⊂ [0, len); distinct chunk
        // indices give disjoint ranges, each claimed by exactly one worker,
        // and `data` is mutably borrowed for the whole scope.
        let chunk = unsafe { std::slice::from_raw_parts_mut(ptr.get().add(start), end - start) };
        f(ci, start, chunk);
    });
}

/// A worker panic contained by [`try_par_for_each_mut`]: which task
/// panicked, and what it said. When several tasks panic in one dispatch the
/// *lowest* task index is reported, so the error is deterministic under any
/// schedule.
#[derive(Debug)]
pub struct PoolError {
    /// Index of the (lowest) panicking task.
    pub task: usize,
    /// The panic payload, stringified.
    pub message: String,
}

impl fmt::Display for PoolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pool worker panicked in task {}: {}", self.task, self.message)
    }
}

impl std::error::Error for PoolError {}

fn payload_to_string(payload: Box<dyn std::any::Any + Send>) -> String {
    match payload.downcast::<String>() {
        Ok(s) => *s,
        Err(payload) => match payload.downcast::<&'static str>() {
            Ok(s) => (*s).to_string(),
            Err(_) => "<non-string panic payload>".to_string(),
        },
    }
}

/// [`run_tasks`] with per-task panic containment: every task runs (a panic
/// never cancels sibling tasks or poisons the pool — workers are per-call,
/// there is nothing persistent to poison), and the lowest panicking task
/// index is reported afterwards.
fn run_tasks_contained(n_tasks: usize, task: &(dyn Fn(usize) + Sync)) -> Result<(), PoolError> {
    let failures: Mutex<Vec<PoolError>> = Mutex::new(Vec::new());
    run_tasks(n_tasks, &|i| {
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| task(i))) {
            let mut f = failures.lock().unwrap_or_else(|p| p.into_inner());
            f.push(PoolError {
                task: i,
                message: payload_to_string(payload),
            });
        }
    });
    let mut failures = failures.into_inner().unwrap_or_else(|p| p.into_inner());
    if failures.is_empty() {
        return Ok(());
    }
    failures.sort_by_key(|e| e.task);
    Err(failures.swap_remove(0))
}

/// Run `f(i, &mut items[i])` for every item in parallel. Each worker gets
/// exclusive `&mut` access to exactly one slot at a time, so long-lived
/// per-worker state (scratch graphs, arenas) can live in `items` and be
/// reused across calls with zero cloning. What `f` computes must depend on
/// `i` and the slot alone, keeping results schedule-independent.
///
/// Worker panics are contained and returned as a typed [`PoolError`]
/// instead of unwinding through the caller, so the caller can recompute the
/// failed work (the trainer falls back to its serial path, which is
/// bitwise-identical by the determinism contract).
///
/// A slot whose task panicked may have been partially mutated — the caller
/// owns re-initialising it before reuse.
///
/// This is also the `parallel.worker.panic` injection point: the armed
/// global task index is resolved via the fault registry's window cursor *on
/// the dispatching thread* (fault plans are thread-local; workers never
/// touch the registry), and the matching task panics. The plain
/// [`par_chunks_mut`] / [`par_map`] paths never consult the registry, so
/// kernel-level nested dispatches don't advance the window.
#[expect(
    clippy::panic,
    reason = "the injected fault itself: fires only when a fault plan names parallel.worker.panic, and run_tasks_contained catches it"
)]
pub fn try_par_for_each_mut<T: Send>(
    items: &mut [T],
    f: impl Fn(usize, &mut T) + Sync,
) -> Result<(), PoolError> {
    let len = items.len();
    if len == 0 {
        return Ok(());
    }
    let inject = miss_fault::take_window(SITE_WORKER_PANIC, len as u64);
    let ptr = SendPtr(items.as_mut_ptr());
    run_tasks_contained(len, &|i| {
        if inject == Some(i as u64) {
            panic!("injected worker panic ({SITE_WORKER_PANIC}, task {i})");
        }
        // SAFETY: i ∈ 0..len is claimed by exactly one worker (fetch_add in
        // run_tasks), `items` is mutably borrowed for the whole scope, and
        // slot i is accessed only here — per-slot access is exclusive. A
        // contained panic cannot alias: the slot is touched by one task once.
        let slot = unsafe { &mut *ptr.get().add(i) };
        f(i, slot);
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_index_order() {
        for threads in [1, 2, 4, 7] {
            let out = with_threads(threads, || par_map(100, |i| i * i));
            assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn par_chunks_mut_writes_every_slot_once() {
        for threads in [1, 2, 5] {
            let mut data = vec![0usize; 97];
            with_threads(threads, || {
                par_chunks_mut(&mut data, 7, |ci, start, chunk| {
                    for (off, v) in chunk.iter_mut().enumerate() {
                        *v = ci * 1000 + start + off;
                    }
                });
            });
            for (i, &v) in data.iter().enumerate() {
                assert_eq!(v, (i / 7) * 1000 + i);
            }
        }
    }

    #[test]
    fn fixed_chunk_len_ignores_thread_count() {
        let a = with_threads(1, || fixed_chunk_len(1000, 1));
        let b = with_threads(16, || fixed_chunk_len(1000, 1));
        assert_eq!(a, b);
        assert_eq!(fixed_chunk_len(0, 1), 1);
        assert_eq!(fixed_chunk_len(31, 1), 1);
        assert_eq!(fixed_chunk_len(33, 1), 2);
        assert_eq!(fixed_chunk_len(10, 64), 64);
    }

    #[test]
    fn nested_dispatch_runs_serial_and_correct() {
        let out = with_threads(4, || {
            par_map(8, |i| {
                // Nested call inside a worker: must still be correct (and
                // silently serial — max_threads() is 1 in a worker).
                let inner = par_map(5, move |j| i * 10 + j);
                assert_eq!(max_threads(), 1);
                inner.into_iter().sum::<usize>()
            })
        });
        let expect: Vec<usize> = (0..8).map(|i| (0..5).map(|j| i * 10 + j).sum()).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn with_threads_restores_on_exit() {
        let before = max_threads();
        with_threads(3, || assert_eq!(max_threads(), 3));
        assert_eq!(max_threads(), before);
    }

    #[test]
    #[should_panic]
    fn worker_panic_propagates() {
        with_threads(2, || {
            par_map(4, |i| {
                if i == 3 {
                    panic!("boom");
                }
                i
            })
        });
    }

    #[test]
    fn try_par_for_each_mut_ok_path_matches_infallible() {
        for threads in [1, 2, 5] {
            let mut b = vec![0usize; 23];
            with_threads(threads, || {
                try_par_for_each_mut(&mut b, |i, s| *s = i * 7 + 1).expect("no panics");
            });
            assert_eq!(b, (0..23).map(|i| i * 7 + 1).collect::<Vec<_>>());
        }
    }

    #[test]
    fn natural_panic_is_contained_and_lowest_index_reported() {
        for threads in [1, 4] {
            let mut done = vec![false; 12];
            let err = with_threads(threads, || {
                try_par_for_each_mut(&mut done, |i, s| {
                    if i == 9 || i == 3 {
                        panic!("boom {i}");
                    }
                    *s = true;
                })
            })
            .expect_err("panics must surface as PoolError");
            assert_eq!(err.task, 3, "lowest panicking index wins");
            assert!(err.message.contains("boom 3"), "{}", err.message);
            assert!(err.to_string().contains("task 3"));
            // Sibling tasks all ran to completion despite the panics.
            for (i, &d) in done.iter().enumerate() {
                assert_eq!(d, i != 9 && i != 3, "task {i}");
            }
        }
    }

    #[test]
    fn injected_panic_fires_at_the_windowed_index_and_pool_stays_usable() {
        use miss_fault::{with_plan, FaultPlan};
        with_plan(FaultPlan::empty().arm(SITE_WORKER_PANIC, 4), || {
            with_threads(2, || {
                // First dispatch covers global window [0, 3): no fire.
                let mut a = vec![0usize; 3];
                try_par_for_each_mut(&mut a, |i, s| *s = i + 1).expect("window not reached");
                assert_eq!(a, [1, 2, 3]);
                // Second dispatch covers [3, 7): global 4 → local task 1.
                let mut b = vec![0usize; 4];
                let err = try_par_for_each_mut(&mut b, |i, s| *s = i + 1)
                    .expect_err("armed index inside this window");
                assert_eq!(err.task, 1);
                assert!(err.message.contains("injected"), "{}", err.message);
                assert_eq!(miss_fault::fired_count(SITE_WORKER_PANIC), 1);
                // One-shot: the pool is immediately reusable.
                let mut c = vec![0usize; 4];
                try_par_for_each_mut(&mut c, |i, s| *s = i + 1).expect("consumed");
                assert_eq!(c, [1, 2, 3, 4]);
            });
        });
    }

    #[test]
    fn try_par_for_each_mut_zero_items_is_ok() {
        let mut empty: [u8; 0] = [];
        try_par_for_each_mut(&mut empty, |_, _| panic!("no tasks expected")).expect("noop");
    }

    #[test]
    fn zero_tasks_is_a_noop() {
        let out: Vec<usize> = with_threads(4, || par_map(0, |i| i));
        assert!(out.is_empty());
        let mut empty: [u8; 0] = [];
        par_chunks_mut(&mut empty, 3, |_, _, _| panic!("no chunks expected"));
    }
}
