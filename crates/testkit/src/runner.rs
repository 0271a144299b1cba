//! The property-test runner: deterministic case seeding, rejection sampling
//! for `prop_assume!`, panic capture, and greedy shrinking.

use crate::strategy::Strategy;
use std::any::Any;
use std::cell::Cell;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Once;

/// Why a single execution of a property did not pass.
#[derive(Clone, Debug)]
pub enum PropFail {
    /// `prop_assume!` rejected the input; the runner draws a fresh one
    /// without counting the case.
    Reject,
    /// An assertion failed (or the body panicked).
    Fail(String),
}

/// What a property body returns (the `prop_assert*` macros produce the `Err`s).
pub type PropResult = Result<(), PropFail>;

/// Runner configuration, set via `#![config(...)]` in [`crate::properties!`].
#[derive(Clone, Debug)]
pub struct Config {
    /// Number of random cases per property (`TESTKIT_CASES` overrides).
    pub cases: usize,
    /// Cap on shrink-candidate evaluations after a failure.
    pub max_shrink_iters: usize,
    /// Cap on `prop_assume!` rejections per case before giving up.
    pub max_rejects: usize,
    /// Root seed; defaults to a stable hash of the property name so runs are
    /// reproducible without any environment setup (`TESTKIT_SEED` overrides).
    pub seed: Option<u64>,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            cases: 64,
            max_shrink_iters: 4096,
            max_rejects: 1024,
            seed: None,
        }
    }
}

/// Execute a property over `cfg.cases` deterministic cases.
///
/// On failure the input is shrunk greedily and the panic message reports the
/// case seed, the original and the shrunk input; re-running the same test
/// with `TESTKIT_SEED=<seed>` replays exactly that case.
pub fn run<S: Strategy>(
    name: &str,
    cfg: &Config,
    strat: &S,
    test: impl Fn(&S::Value) -> PropResult,
) {
    install_quiet_hook();
    let run_raw = |raw: &S::Raw| -> PropResult {
        let value = strat.realize(raw);
        match quiet_catch(|| test(&value)) {
            Ok(r) => r,
            Err(panic_msg) => Err(PropFail::Fail(panic_msg)),
        }
    };

    if let Some(seed) = env_u64("TESTKIT_SEED") {
        // Replay mode: exactly the one failing case.
        run_case(name, cfg, strat, &run_raw, seed, 0);
        return;
    }

    let cases = env_u64("TESTKIT_CASES").map(|n| n as usize).unwrap_or(cfg.cases);
    let root = cfg.seed.unwrap_or_else(|| fnv1a(name));
    let mut seeder = miss_util::Rng::new(root);
    for i in 0..cases {
        let case_seed = seeder.next_u64();
        run_case(name, cfg, strat, &run_raw, case_seed, i);
    }
}

fn run_case<S: Strategy>(
    name: &str,
    cfg: &Config,
    strat: &S,
    run_raw: &impl Fn(&S::Raw) -> PropResult,
    case_seed: u64,
    case_index: usize,
) {
    let mut rng = miss_util::Rng::new(case_seed);
    let mut failure: Option<(S::Raw, String)> = None;
    let mut rejected = 0usize;
    while rejected <= cfg.max_rejects {
        let raw = strat.generate_raw(&mut rng);
        match run_raw(&raw) {
            Ok(()) => return,
            Err(PropFail::Reject) => rejected += 1,
            Err(PropFail::Fail(msg)) => {
                failure = Some((raw, msg));
                break;
            }
        }
    }
    let Some((orig, mut msg)) = failure else {
        panic!(
            "property `{name}`: gave up after {} rejected inputs \
             (case {case_index}, TESTKIT_SEED={case_seed}); weaken prop_assume! filters",
            cfg.max_rejects
        );
    };

    // Greedy shrink: keep taking the first candidate that still fails.
    let mut cur = orig.clone();
    let mut evals = 0usize;
    'outer: while evals < cfg.max_shrink_iters {
        for cand in strat.shrink_raw(&cur) {
            evals += 1;
            if evals > cfg.max_shrink_iters {
                break 'outer;
            }
            if let Err(PropFail::Fail(m)) = run_raw(&cand) {
                cur = cand;
                msg = m;
                continue 'outer;
            }
        }
        break;
    }

    panic!(
        "property `{name}` failed at case {case_index}\n  \
         reproduce: TESTKIT_SEED={case_seed} cargo test {name}\n  \
         original input: {:?}\n  \
         shrunk input:   {:?}\n  \
         failure: {msg}",
        strat.realize(&orig),
        strat.realize(&cur),
    );
}

#[expect(
    clippy::disallowed_methods,
    reason = "TESTKIT_SEED/TESTKIT_CASES replay or widen a property run; the failure report prints the seed that reproduces it"
)]
fn env_u64(key: &str) -> Option<u64> {
    std::env::var(key).ok().and_then(|s| s.trim().parse().ok())
}

/// FNV-1a: a stable, dependency-free default seed per property name.
fn fnv1a(name: &str) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

// ---------------------------------------------------------------------------
// Panic capture without console noise
// ---------------------------------------------------------------------------
//
// Shrinking re-runs a failing body dozens of times; each run may panic. The
// default hook would spam stderr with backtraces, so a process-wide hook
// (installed once) suppresses output while this thread is inside the runner
// and delegates to the previous hook otherwise.

thread_local! {
    static QUIET: Cell<bool> = const { Cell::new(false) };
}

static HOOK: Once = Once::new();

fn install_quiet_hook() {
    HOOK.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if !QUIET.with(|q| q.get()) {
                prev(info);
            }
        }));
    });
}

fn quiet_catch<R>(f: impl FnOnce() -> R) -> Result<R, String> {
    QUIET.with(|q| q.set(true));
    let res = panic::catch_unwind(AssertUnwindSafe(f));
    QUIET.with(|q| q.set(false));
    res.map_err(payload_to_string)
}

fn payload_to_string(payload: Box<dyn Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        format!("panic: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("panic: {s}")
    } else {
        "panic with non-string payload".to_string()
    }
}
