//! `miss-fault` — a deterministic, zero-dependency fail-point registry.
//!
//! Faults in this workspace are **planned, counted events**, never entropy:
//! a fail-point fires on the N-th hit of a named site (or at a named index
//! inside a dispatch window), so every injected failure is bit-reproducible
//! across runs, thread counts, and machines. Nothing here reads wall-clock
//! time or OS randomness — the registry passes the workspace's clippy
//! `disallowed_methods` gate (R2, DESIGN.md §7) like any other crate.
//!
//! # Activating a plan
//!
//! A plan is built with [`FaultPlan::empty`] and [`FaultPlan::arm`] /
//! [`FaultPlan::arm_sticky`], and installed for the current thread for the
//! duration of a closure with [`with_plan`]. Counters start fresh per
//! installation, so concurrent tests never share state, and nothing is
//! read from the environment: a process that installs no plan runs no
//! fault.
//!
//! With no plan installed every probe is a thread-local `None` check — the
//! disabled overhead is a few nanoseconds per *site*, and sites sit at
//! per-minibatch / per-checkpoint granularity, never inside element loops.
//!
//! # Sites
//!
//! An entry arms one site at a trigger value `N`, once or (sticky) from `N`
//! on. How `N` is interpreted is a property of the *site* (each site
//! documents its unit):
//!
//! | site                       | unit of N                 | effect when fired |
//! |----------------------------|---------------------------|-------------------|
//! | `codec.write.err`          | byte offset (0-based)     | hard I/O error after N bytes of a checkpoint write |
//! | `codec.write.short`        | byte offset (0-based)     | one short write truncated at offset N |
//! | `codec.write.interrupt`    | write call (1-based)      | `ErrorKind::Interrupted` on the N-th write call |
//! | `codec.read.err`           | byte offset (0-based)     | hard I/O error after N bytes of a checkpoint read |
//! | `codec.read.interrupt`     | read call (1-based)       | `ErrorKind::Interrupted` on the N-th read call |
//! | `parallel.worker.panic`    | fallible-pool task index (0-based, cumulative) | worker panic inside the N-th contained task |
//! | `trainer.nan.loss`         | minibatch attempt (1-based) | loss tensor scaled by NaN on that attempt |
//! | `trainer.nan.grad`         | minibatch attempt (1-based) | NaN poked into the merged sparse gradient |
//! | `trainer.batch.corrupt`    | minibatch attempt (1-based) | a label in the minibatch replaced with NaN |
//!
//! # Probe API (for code hosting a fail-point)
//!
//! - [`hit`] — counter sites: increments the site's hit counter and reports
//!   whether this hit fires.
//! - [`armed`] / [`fire`] — value sites (byte offsets): read the armed `N`
//!   without consuming it; call [`fire`] when the fault is actually
//!   delivered so one-shot entries disarm.
//! - [`take_window`] — index-window sites: advance the site's cursor by a
//!   dispatch's task count and learn whether the armed global index falls in
//!   this window (returning the local index). Resolved on the dispatching
//!   thread, so pool workers never touch the registry.
//!
//! All probes are no-ops returning `false`/`None` when no plan names the
//! site.

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

use std::cell::RefCell;

/// One armed fail-point: fire at `n` on `site`, once or repeatedly.
#[derive(Clone, Debug)]
struct FaultEntry {
    site: String,
    /// Trigger value; unit depends on the site (hit count, byte offset, …).
    n: u64,
    /// Fire on every qualifying probe from `n` on, not just once.
    sticky: bool,
}

/// A fault plan: the sites it arms, each with its trigger value.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    entries: Vec<FaultEntry>,
}

impl FaultPlan {
    /// The empty plan (no sites armed).
    pub fn empty() -> FaultPlan {
        FaultPlan::default()
    }

    /// Arm `site` to fire once, at `n`.
    pub fn arm(self, site: &str, n: u64) -> FaultPlan {
        self.push(site, n, false)
    }

    /// Arm `site` sticky: it fires on every qualifying probe from `n` on.
    pub fn arm_sticky(self, site: &str, n: u64) -> FaultPlan {
        self.push(site, n, true)
    }

    fn push(mut self, site: &str, n: u64, sticky: bool) -> FaultPlan {
        self.entries.push(FaultEntry {
            site: site.to_string(),
            n,
            sticky,
        });
        self
    }

    fn into_states(self) -> Vec<SiteState> {
        self.entries
            .into_iter()
            .map(|e| SiteState {
                entry: e,
                hits: 0,
                window: 0,
                consumed: false,
                fired: 0,
            })
            .collect()
    }
}

/// Mutable per-installation state of one armed entry.
#[derive(Debug)]
struct SiteState {
    entry: FaultEntry,
    /// Probes counted by [`hit`].
    hits: u64,
    /// Cursor advanced by [`take_window`].
    window: u64,
    /// One-shot entry already delivered.
    consumed: bool,
    /// Times this entry actually fired (observability for tests).
    fired: u64,
}

thread_local! {
    /// Plan installed by [`with_plan`] on this thread (innermost wins).
    static LOCAL: RefCell<Option<Vec<SiteState>>> = const { RefCell::new(None) };
}

/// Run `probe` against the named site of this thread's plan. `None` when
/// no plan is installed or it does not arm the site.
fn with_site<R>(site: &str, probe: impl FnOnce(&mut SiteState) -> R) -> Option<R> {
    LOCAL.with(|l| {
        l.borrow_mut()
            .as_mut()?
            .iter_mut()
            .find(|s| s.entry.site == site)
            .map(probe)
    })
}

/// Install `plan` for the current thread for the duration of `f`. Counters
/// start at zero; any previously installed plan is restored afterwards.
/// While installed, the plan shadows any outer plan completely.
pub fn with_plan<R>(plan: FaultPlan, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<Vec<SiteState>>);
    impl Drop for Restore {
        fn drop(&mut self) {
            let prev = self.0.take();
            LOCAL.with(|l| *l.borrow_mut() = prev);
        }
    }
    let _guard = Restore(LOCAL.with(|l| l.borrow_mut().replace(plan.into_states())));
    f()
}

/// True when a plan is installed on this thread.
pub fn active() -> bool {
    LOCAL.with(|l| l.borrow().is_some())
}

/// Counter probe: count one hit of `site` and report whether it fires —
/// exactly at the N-th hit for one-shot entries, at every hit ≥ N for
/// sticky ones. Hits are counted per *probe*, so a retried computation that
/// probes again advances the counter again (one-shot faults therefore do
/// not re-fire on the retry — that asymmetry is what makes fault-then-retry
/// converge to the fault-free result).
pub fn hit(site: &str) -> bool {
    with_site(site, |s| {
        s.hits += 1;
        let fires = if s.entry.sticky {
            s.hits >= s.entry.n
        } else {
            s.hits == s.entry.n
        };
        if fires {
            s.fired += 1;
        }
        fires
    })
    .unwrap_or(false)
}

/// Value probe: the armed trigger value of `site`, if the entry has not been
/// consumed. Does not count or consume — pair with [`fire`] at the moment
/// the fault is actually delivered.
pub fn armed(site: &str) -> Option<u64> {
    with_site(site, |s| {
        if s.consumed {
            None
        } else {
            Some(s.entry.n)
        }
    })
    .flatten()
}

/// Mark `site`'s fault as delivered: one-shot entries disarm, sticky ones
/// stay armed.
pub fn fire(site: &str) {
    let _ = with_site(site, |s| {
        s.fired += 1;
        if !s.entry.sticky {
            s.consumed = true;
        }
    });
}

/// Window probe: advance `site`'s cursor by `len` units (one dispatch's task
/// count) and, when the armed global index `N` falls inside the window
/// `[cursor, cursor + len)`, return the local index `N - cursor` and consume
/// the entry (unless sticky). Call this on the *dispatching* thread so the
/// resolved index can be captured by worker closures — workers themselves
/// never touch the registry.
pub fn take_window(site: &str, len: u64) -> Option<u64> {
    with_site(site, |s| {
        let base = s.window;
        s.window += len;
        if s.consumed || s.entry.n < base || s.entry.n >= base + len {
            return None;
        }
        s.fired += 1;
        if !s.entry.sticky {
            s.consumed = true;
        }
        Some(s.entry.n - base)
    })
    .flatten()
}

/// How many times `site` has actually fired under the active plan
/// (observability hook for chaos tests; 0 when the site is not armed).
pub fn fired_count(site: &str) -> u64 {
    with_site(site, |s| s.fired).unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_fires_exactly_on_the_nth_probe() {
        with_plan(FaultPlan::empty().arm("s", 3), || {
            assert_eq!(
                (0..6).map(|_| hit("s")).collect::<Vec<_>>(),
                [false, false, true, false, false, false]
            );
            assert_eq!(fired_count("s"), 1);
            assert!(!hit("other.site"), "unarmed sites never fire");
        });
    }

    #[test]
    fn sticky_hit_fires_from_n_onwards() {
        with_plan(FaultPlan::empty().arm_sticky("s", 2), || {
            assert_eq!(
                (0..4).map(|_| hit("s")).collect::<Vec<_>>(),
                [false, true, true, true]
            );
            assert_eq!(fired_count("s"), 3);
        });
    }

    #[test]
    fn armed_and_fire_implement_one_shot_values() {
        with_plan(FaultPlan::empty().arm("w", 40), || {
            assert_eq!(armed("w"), Some(40));
            assert_eq!(armed("w"), Some(40), "armed() does not consume");
            fire("w");
            assert_eq!(armed("w"), None, "fired one-shot entries disarm");
        });
        with_plan(FaultPlan::empty().arm_sticky("w", 40), || {
            fire("w");
            assert_eq!(armed("w"), Some(40), "sticky entries stay armed");
        });
    }

    #[test]
    fn take_window_resolves_a_global_index_to_one_dispatch() {
        with_plan(FaultPlan::empty().arm("p", 5), || {
            assert_eq!(take_window("p", 3), None); // window [0,3)
            assert_eq!(take_window("p", 4), Some(2)); // window [3,7): 5-3=2
            assert_eq!(take_window("p", 10), None, "one-shot: consumed");
        });
        with_plan(FaultPlan::empty().arm("p", 0), || {
            assert_eq!(take_window("p", 1), Some(0), "index 0 of the first window");
        });
    }

    #[test]
    fn with_plan_scopes_and_restores() {
        assert!(!hit("outer"), "no plan outside with_plan");
        with_plan(FaultPlan::empty().arm("outer", 1), || {
            assert!(hit("outer"));
            with_plan(FaultPlan::empty().arm("inner", 1), || {
                assert!(!hit("outer"), "inner plan shadows outer");
                assert!(hit("inner"));
            });
            assert!(!hit("outer"), "outer counter kept: already past n=1");
            assert_eq!(armed("outer"), Some(1), "outer plan restored");
        });
        assert!(!active(), "no plan after the outermost scope ends");
    }

    #[test]
    fn counters_reset_per_installation() {
        let plan = FaultPlan::empty().arm("s", 1);
        with_plan(plan.clone(), || assert!(hit("s")));
        with_plan(plan, || assert!(hit("s"), "fresh counters each install"));
    }
}
