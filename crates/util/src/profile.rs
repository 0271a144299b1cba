//! Env-gated scope timer for hot-path phase attribution.
//!
//! Set `MISS_PROFILE=1` and wrap a phase in [`scope`]; on drop the guard
//! adds the elapsed nanoseconds to a global per-phase aggregate that
//! [`write_json`] dumps beside the bench JSON. With the variable unset the
//! guard is a no-op holding `None` — no clock read, no lock, one cached
//! boolean branch — so the timer can stay in production code permanently.
//!
//! Determinism note (DESIGN.md §6): this is the *only* wallclock read
//! outside the bench harness (the `expect` below is its R2 exemption).
//! Timing is observational — nothing numeric can see it — and the aggregate
//! map is a `BTreeMap`, so the JSON output order is deterministic too.
#![expect(
    clippy::disallowed_methods,
    reason = "the env-gated profiler is observational: timings feed only PROFILE_*.json, never a numeric path"
)]

use std::collections::BTreeMap;
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Aggregate for one named phase.
#[derive(Clone, Copy, Debug, Default)]
pub struct PhaseStat {
    /// Total nanoseconds across all closed scopes with this name.
    pub total_ns: u128,
    /// Number of closed scopes.
    pub calls: u64,
}

fn registry() -> &'static Mutex<BTreeMap<&'static str, PhaseStat>> {
    static REGISTRY: OnceLock<Mutex<BTreeMap<&'static str, PhaseStat>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(BTreeMap::new()))
}

/// Whether profiling is on for this process (`MISS_PROFILE` set non-empty,
/// not `0`). Read once and cached: the off path costs one branch.
pub fn enabled() -> bool {
    static ENABLED: OnceLock<bool> = OnceLock::new();
    *ENABLED.get_or_init(|| {
        std::env::var("MISS_PROFILE").is_ok_and(|v| !v.is_empty() && v != "0")
    })
}

/// RAII guard: measures from [`scope`] to drop and folds the elapsed time
/// into the phase aggregate. Inert when profiling is off.
pub struct Scope {
    name: &'static str,
    start: Option<Instant>,
}

/// Open a named timing scope. Nest freely; a phase's total counts every
/// closed scope with that name, so re-entrant phases self-aggregate.
pub fn scope(name: &'static str) -> Scope {
    Scope {
        name,
        start: enabled().then(Instant::now),
    }
}

impl Drop for Scope {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        let elapsed = start.elapsed().as_nanos();
        if let Ok(mut map) = registry().lock() {
            let stat = map.entry(self.name).or_default();
            stat.total_ns += elapsed;
            stat.calls += 1;
        }
    }
}

/// Current aggregates, phase-name ascending. Empty when profiling is off or
/// nothing was recorded.
pub fn snapshot() -> Vec<(&'static str, PhaseStat)> {
    registry()
        .lock()
        .map(|map| map.iter().map(|(&k, &v)| (k, v)).collect())
        .unwrap_or_default()
}

/// Clear all aggregates (between bench cases).
pub fn reset() {
    if let Ok(mut map) = registry().lock() {
        map.clear();
    }
}

/// Write the aggregates as JSON: `{"phases": [{"name", "total_ns", "calls"}]}`.
pub fn write_json(path: &std::path::Path) -> std::io::Result<()> {
    let mut out = String::from("{\n  \"phases\": [\n");
    let stats = snapshot();
    for (i, (name, stat)) in stats.iter().enumerate() {
        let comma = if i + 1 == stats.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{\"name\": \"{name}\", \"total_ns\": {}, \"calls\": {}}}{comma}\n",
            stat.total_ns, stat.calls
        ));
    }
    out.push_str("  ]\n}\n");
    std::fs::write(path, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    // `enabled()` is cached per process, so these tests exercise the
    // recording machinery directly rather than racing over the env var.

    #[test]
    fn disabled_scope_records_nothing() {
        // MISS_PROFILE is unset under `cargo test`, so scopes stay inert.
        // No reset() here: the registry is process-global, and clearing it
        // would race the test below, which records into it concurrently.
        {
            let _s = scope("idle-phase");
        }
        assert!(
            snapshot().iter().all(|(name, _)| *name != "idle-phase"),
            "inert scope must not touch the registry"
        );
    }

    #[test]
    fn manual_scope_aggregates_and_serialises() {
        reset();
        {
            let _s = Scope {
                name: "unit-phase",
                start: Some(Instant::now()),
            };
        }
        {
            let _s = Scope {
                name: "unit-phase",
                start: Some(Instant::now()),
            };
        }
        let stats = snapshot();
        let (_, stat) = stats
            .iter()
            .find(|(name, _)| *name == "unit-phase")
            .expect("phase recorded");
        assert_eq!(stat.calls, 2);
        let dir = std::env::temp_dir().join("miss-profile-test");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join("profile.json");
        write_json(&path).expect("write profile json");
        let body = std::fs::read_to_string(&path).expect("read back");
        assert!(body.contains("\"name\": \"unit-phase\""), "{body}");
        assert!(body.contains("\"calls\": 2"), "{body}");
        reset();
    }
}
