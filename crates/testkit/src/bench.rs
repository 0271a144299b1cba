//! Microbench harness replacing criterion: warmup, N timed iterations,
//! median/p95 wall-clock, and machine-readable `BENCH_<group>.json` output
//! at the workspace root so the bench trajectory accumulates across PRs.
//!
//! API mirrors the criterion subset the workspace used, so a bench file is
//! a `fn main()` that builds a [`BenchGroup`], registers cases with
//! [`BenchGroup::bench_function`], and calls [`BenchGroup::finish`].
//!
//! Environment knobs: `TESTKIT_BENCH_SAMPLES` / `TESTKIT_BENCH_WARMUP`
//! override iteration counts, and `TESTKIT_BENCH_DIR` overrides where the
//! JSON lands. Sample counts are floored at [`MIN_SAMPLES`] regardless of
//! source — a 3-iteration median is noise, not a measurement — and the
//! resolved count is recorded in the JSON so consumers can judge stability.

pub use std::hint::black_box;

use std::path::PathBuf;
use std::time::Instant;

/// Hard floor on timed iterations per case. Applies to `sample_size` and to
/// `TESTKIT_BENCH_SAMPLES` alike, so committed BENCH JSONs always carry at
/// least this many samples behind each median.
pub const MIN_SAMPLES: usize = 10;

/// Per-case timing statistics, all in nanoseconds per iteration.
#[derive(Clone, Debug)]
pub struct CaseStats {
    /// Case name within the group.
    pub name: String,
    /// Timed iterations contributing to the stats.
    pub iters: usize,
    /// Median wall-clock.
    pub median_ns: u64,
    /// 95th-percentile wall-clock.
    pub p95_ns: u64,
    /// 99th-percentile wall-clock — the tail the serving bench reports.
    pub p99_ns: u64,
    /// Arithmetic mean.
    pub mean_ns: u64,
    /// Fastest iteration.
    pub min_ns: u64,
    /// Slowest iteration.
    pub max_ns: u64,
}

/// A named group of benchmark cases; one JSON artifact per group.
pub struct BenchGroup {
    name: String,
    samples: usize,
    results: Vec<CaseStats>,
    meta: Vec<(String, String)>,
}

/// Passed to each case closure; call [`Bencher::iter`] with the payload.
pub struct Bencher {
    samples: usize,
    warmup: usize,
    times_ns: Vec<u64>,
}

impl Bencher {
    /// Run `f` for warmup, then time `samples` iterations individually.
    #[expect(
        clippy::disallowed_methods,
        reason = "the one sanctioned benchmark timer: timings only feed BENCH_*.json"
    )]
    pub fn iter<R>(&mut self, mut f: impl FnMut() -> R) {
        for _ in 0..self.warmup {
            black_box(f());
        }
        self.times_ns.clear();
        self.times_ns.reserve(self.samples);
        for _ in 0..self.samples {
            let t0 = Instant::now();
            black_box(f());
            self.times_ns.push(t0.elapsed().as_nanos() as u64);
        }
    }
}

impl BenchGroup {
    /// Create a group; `name` becomes the `BENCH_<name>.json` artifact.
    pub fn new(name: &str) -> BenchGroup {
        BenchGroup {
            name: name.to_string(),
            samples: 50,
            results: Vec::new(),
            meta: Vec::new(),
        }
    }

    /// Record a key/value pair in the JSON's `"meta"` object — the run's
    /// detected ISA, thread count, and similar environment facts, so
    /// baselines can be compared like-to-like. Insertion order is kept;
    /// re-setting a key overwrites its value.
    pub fn meta(&mut self, key: &str, value: &str) -> &mut Self {
        match self.meta.iter_mut().find(|(k, _)| k == key) {
            Some((_, v)) => *v = value.to_string(),
            None => self.meta.push((key.to_string(), value.to_string())),
        }
        self
    }

    /// Set the number of timed iterations per case (`TESTKIT_BENCH_SAMPLES`
    /// still wins so CI can adjust, and both are floored at [`MIN_SAMPLES`]).
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        assert!(n > 0, "sample_size(0)");
        self.samples = n;
        self
    }

    /// The per-case sample count after applying the environment override and
    /// the [`MIN_SAMPLES`] floor.
    fn resolved_samples(&self) -> usize {
        env_usize("TESTKIT_BENCH_SAMPLES")
            .unwrap_or(self.samples)
            .max(MIN_SAMPLES)
    }

    /// Measure one case. The closure receives a [`Bencher`] and must call
    /// `iter` exactly once with the payload to time.
    pub fn bench_function(&mut self, case: &str, mut f: impl FnMut(&mut Bencher)) -> &mut Self {
        let samples = self.resolved_samples();
        let warmup = env_usize("TESTKIT_BENCH_WARMUP").unwrap_or_else(|| (samples / 10).max(2));
        let mut b = Bencher {
            samples,
            warmup,
            times_ns: Vec::new(),
        };
        f(&mut b);
        assert!(
            !b.times_ns.is_empty(),
            "bench case `{case}` never called Bencher::iter"
        );
        let stats = summarise(case, &mut b.times_ns);
        println!(
            "{}/{:<32} median {:>12}  p95 {:>12}  ({} iters)",
            self.name,
            stats.name,
            fmt_ns(stats.median_ns),
            fmt_ns(stats.p95_ns),
            stats.iters,
        );
        self.results.push(stats);
        self
    }

    /// Record a case from timings measured *outside* the harness — e.g. the
    /// serving bench, which times every request in one open-loop run and
    /// reports the per-request latency distribution rather than iterating a
    /// closure. The samples route through the same summary as
    /// [`BenchGroup::bench_function`]; the [`MIN_SAMPLES`] floor applies.
    pub fn record_case(&mut self, case: &str, times_ns: &mut [u64]) -> &mut Self {
        assert!(
            times_ns.len() >= MIN_SAMPLES,
            "record_case `{case}` needs at least {MIN_SAMPLES} samples, got {}",
            times_ns.len()
        );
        let stats = summarise(case, times_ns);
        println!(
            "{}/{:<32} median {:>12}  p95 {:>12}  ({} iters)",
            self.name,
            stats.name,
            fmt_ns(stats.median_ns),
            fmt_ns(stats.p95_ns),
            stats.iters,
        );
        self.results.push(stats);
        self
    }

    /// Write `BENCH_<group>.json` and print where it landed.
    ///
    /// # Panics
    ///
    /// When the file cannot be written, so that the bench process fails
    /// instead of exiting 0 with no output for the gates to read.
    pub fn finish(&mut self) {
        let dir = output_dir();
        let path = dir.join(format!("BENCH_{}.json", self.name));
        let json = self.to_json();
        if let Err(e) = std::fs::write(&path, json) {
            panic!("could not write {}: {e}", path.display());
        }
        println!("{}: wrote {}", self.name, path.display());
    }

    fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"group\": \"{}\",\n", escape(&self.name)));
        out.push_str("  \"unit\": \"ns_per_iter\",\n");
        out.push_str(&format!("  \"samples\": {},\n", self.resolved_samples()));
        if !self.meta.is_empty() {
            out.push_str("  \"meta\": {");
            for (i, (k, v)) in self.meta.iter().enumerate() {
                let comma = if i + 1 < self.meta.len() { ", " } else { "" };
                out.push_str(&format!("\"{}\": \"{}\"{comma}", escape(k), escape(v)));
            }
            out.push_str("},\n");
        }
        out.push_str("  \"cases\": [\n");
        for (i, c) in self.results.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"name\": \"{}\", \"iters\": {}, \"median_ns\": {}, \"p95_ns\": {}, \
                 \"p99_ns\": {}, \"mean_ns\": {}, \"min_ns\": {}, \"max_ns\": {}}}{}\n",
                escape(&c.name),
                c.iters,
                c.median_ns,
                c.p95_ns,
                c.p99_ns,
                c.mean_ns,
                c.min_ns,
                c.max_ns,
                if i + 1 < self.results.len() { "," } else { "" },
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

fn summarise(name: &str, times: &mut [u64]) -> CaseStats {
    times.sort_unstable();
    let n = times.len();
    let median_ns = if n % 2 == 1 {
        times[n / 2]
    } else {
        (times[n / 2 - 1] + times[n / 2]) / 2
    };
    // Nearest-rank percentiles, clamped to the last sample.
    let p95_ns = times[(((n as f64) * 0.95).ceil() as usize).clamp(1, n) - 1];
    let p99_ns = times[(((n as f64) * 0.99).ceil() as usize).clamp(1, n) - 1];
    let mean_ns = times.iter().sum::<u64>() / n as u64;
    CaseStats {
        name: name.to_string(),
        iters: n,
        median_ns,
        p95_ns,
        p99_ns,
        mean_ns,
        min_ns: times[0],
        max_ns: times[n - 1],
    }
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3} s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3} ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.3} µs", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}

fn escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' | '\\' => vec!['\\', c],
            _ => vec![c],
        })
        .collect()
}

#[expect(
    clippy::disallowed_methods,
    reason = "bench harness settings (TESTKIT_BENCH_SAMPLES/_WARMUP) size the timing loop, never what a case computes"
)]
fn env_usize(key: &str) -> Option<usize> {
    std::env::var(key).ok().and_then(|s| s.trim().parse().ok())
}

/// The workspace root (topmost ancestor whose `Cargo.toml` declares
/// `[workspace]`), so artifacts land in one place no matter which package
/// the bench runs from. `TESTKIT_BENCH_DIR` overrides.
fn output_dir() -> PathBuf {
    #[expect(
        clippy::disallowed_methods,
        reason = "TESTKIT_BENCH_DIR only redirects where the bench JSON is written"
    )]
    if let Ok(d) = std::env::var("TESTKIT_BENCH_DIR") {
        return PathBuf::from(d);
    }
    let start = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    let mut dir = start.clone();
    let mut root = None;
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.exists()
            && std::fs::read_to_string(&manifest)
                .map(|s| s.contains("[workspace]"))
                .unwrap_or(false)
        {
            root = Some(dir.clone());
        }
        if !dir.pop() {
            break;
        }
    }
    root.unwrap_or(start)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summarise_known_distribution() {
        let mut times: Vec<u64> = (1..=100).collect(); // 1..=100 ns
        let s = summarise("case", &mut times);
        assert_eq!(s.iters, 100);
        assert_eq!(s.median_ns, 50); // (50 + 51) / 2 truncated
        assert_eq!(s.p95_ns, 95);
        assert_eq!(s.p99_ns, 99);
        assert_eq!(s.min_ns, 1);
        assert_eq!(s.max_ns, 100);
        assert_eq!(s.mean_ns, 50);
    }

    #[test]
    fn summarise_single_sample() {
        let mut times = vec![7];
        let s = summarise("one", &mut times);
        assert_eq!(s.median_ns, 7);
        assert_eq!(s.p95_ns, 7);
        assert_eq!(s.p99_ns, 7);
    }

    #[test]
    fn percentile_edges_at_n1_and_n2() {
        // n = 1: nearest-rank clamps every percentile to the only sample —
        // the degenerate shape record_case sees when a queue forms exactly
        // one batch.
        let s = summarise("n1", &mut [42]);
        assert_eq!(s.iters, 1);
        assert_eq!(s.median_ns, 42);
        assert_eq!(s.p99_ns, 42);
        assert_eq!((s.min_ns, s.max_ns), (42, 42));

        // n = 2: the median (p50) averages the pair, while nearest-rank
        // p95/p99 round up to the larger sample.
        let s = summarise("n2", &mut [30, 10]);
        assert_eq!(s.iters, 2);
        assert_eq!(s.median_ns, 20);
        assert_eq!(s.p95_ns, 30);
        assert_eq!(s.p99_ns, 30);
        assert_eq!((s.min_ns, s.max_ns), (10, 30));
    }

    #[test]
    fn record_case_summarises_external_samples() {
        let mut g = BenchGroup::new("unit3");
        let mut times: Vec<u64> = (1..=100).rev().collect();
        g.record_case("latency", &mut times);
        assert_eq!(g.results.len(), 1);
        assert_eq!(g.results[0].iters, 100);
        assert_eq!(g.results[0].median_ns, 50);
        assert_eq!(g.results[0].p99_ns, 99);
        assert!(g.to_json().contains("\"p99_ns\": 99"));
    }

    #[test]
    fn json_shape_is_machine_readable() {
        let mut g = BenchGroup::new("unit");
        g.meta("isa", "avx2+fma").meta("threads", "4").meta("isa", "avx2+fma");
        g.results.push(CaseStats {
            name: "alpha".into(),
            iters: 3,
            median_ns: 10,
            p95_ns: 12,
            p99_ns: 12,
            mean_ns: 10,
            min_ns: 9,
            max_ns: 12,
        });
        let json = g.to_json();
        assert!(json.contains("\"group\": \"unit\""));
        assert!(json.contains("\"samples\": "));
        // meta keys keep insertion order; the duplicate set overwrote in place
        assert!(json.contains("\"meta\": {\"isa\": \"avx2+fma\", \"threads\": \"4\"}"));
        assert!(json.contains("\"name\": \"alpha\""));
        assert!(json.contains("\"median_ns\": 10"));
        assert!(json.contains("\"p95_ns\": 12"));
        // balanced braces/brackets, no trailing comma before the closer
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(!json.contains(",\n  ]"));
    }

    #[test]
    fn bencher_records_requested_samples() {
        let mut g = BenchGroup::new("unit2");
        g.sample_size(5);
        g.bench_function("noop", |b| b.iter(|| black_box(1 + 1)));
        assert_eq!(g.results.len(), 1);
        // TESTKIT_BENCH_SAMPLES intentionally outranks sample_size(), and
        // both are floored at MIN_SAMPLES, so the expectation must apply the
        // same resolution rule. sample_size(5) alone resolves to the floor.
        let expect = env_usize("TESTKIT_BENCH_SAMPLES").unwrap_or(5).max(MIN_SAMPLES);
        assert_eq!(g.results[0].iters, expect);
        assert!(g.results[0].iters >= MIN_SAMPLES);
    }

    #[test]
    fn escape_quotes() {
        assert_eq!(escape("a\"b\\c"), "a\\\"b\\\\c");
    }
}
