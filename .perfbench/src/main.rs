//! End-to-end and per-layer benchmark of the MISS reproduction.
//!
//! ```text
//! cargo run --release --manifest-path .perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Workloads (see `.perfbench/README.md` for why each exists):
//! `train_din_miss`, `serve_din_slate64`, `serve_dien_slate1`.
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
//! metrics are every end-to-end metric ([`END_TO_END`]); with `--trace 1`
//! they are every per-layer metric ([`PER_LAYER`]), taken from spans around
//! the benchmark's calls into each layer, and a layer the workload never
//! calls reports 0. The line before it records where the numbers came
//! from. The process exits non-zero when a correctness check fails.

mod clock;
mod host;
mod serve;
mod stats;
mod trace;
mod train;

use std::path::PathBuf;
use std::process::exit;
use std::time::Instant;

/// Set-ups per run; `setup_s` reports their median.
pub const SETUP_REPS: usize = 11;

/// Every end-to-end metric and its unit; each workload reports all of them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("rows_per_s", "rows/s"),
];

/// Every per-layer metric and its unit, in output order.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.ssl_loss_ms", "ms/1k_rows"),
    ("models.forward_ms", "ms/1k_rows"),
    ("autograd.backward_ms", "ms/1k_rows"),
    ("autograd.tape_nodes", "count"),
    ("nn.adam_ms", "ms/1k_rows"),
    ("nn.sparse_grad_rows", "count"),
    ("data.batch_ms", "ms/1k_rows"),
    ("trainer.unattributed_ms", "ms/1k_rows"),
    ("serve.forward_ms", "ms/batch"),
    ("serve.batch_candidates_p50", "count"),
    ("serve.sojourn_p50_ms", "ms"),
    ("serve.sojourn_p99_ms", "ms"),
    ("serve.queue_wait_p50_ms", "ms"),
    ("serve.queue_wait_p99_ms", "ms"),
    ("serve.busy_share", "share"),
    ("serve.unattributed_ms", "ms/dispatch"),
    ("trace.overhead_pct", "%"),
];

/// Command-line options, all required.
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What one run reports.
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` in output order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    /// Put the metrics in `manifest` order. A metric the workload left out
    /// is reported as 0 when `idle_is_zero` (a layer it never calls) and is
    /// an error otherwise, as is a metric not in `manifest` or in another
    /// unit.
    fn conform(
        &mut self,
        manifest: &[(&'static str, &'static str)],
        idle_is_zero: bool,
    ) -> Result<(), String> {
        if let Some((name, _, unit)) = self
            .metrics
            .iter()
            .find(|(n, _, u)| !manifest.contains(&(*n, *u)))
        {
            return Err(format!("metric {name} in {unit} is not in the manifest"));
        }
        let mut out = Vec::with_capacity(manifest.len());
        for &(name, unit) in manifest {
            match self.metrics.iter().find(|m| m.0 == name) {
                Some(&(_, v, _)) => out.push((name, v, unit)),
                None if idle_is_zero => out.push((name, 0.0, unit)),
                None => return Err(format!("the workload did not report {name}")),
            }
        }
        self.metrics = out;
        Ok(())
    }

    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                // Non-finite values are not JSON; report them as failures.
                let v = if value.is_finite() {
                    format!("{value:?}")
                } else {
                    "null".into()
                };
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn usage(msg: &str) -> ! {
    eprintln!(
        "perfbench: {msg}\nusage: perfbench --workload <train_din_miss|serve_din_slate64|\
         serve_dien_slate1> --seed <n> --seconds <s> --trace <0|1>"
    );
    exit(2)
}

fn parse_opts() -> Opts {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if !args.len().is_multiple_of(2) {
        usage("options come in --flag value pairs");
    }
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    for pair in args.chunks(2) {
        let v = &pair[1];
        match pair[0].as_str() {
            "--workload" => workload = Some(v.clone()),
            "--seed" => seed = Some(v.parse().unwrap_or_else(|_| usage("bad --seed"))),
            "--seconds" => {
                let s: f64 = v.parse().unwrap_or_else(|_| usage("bad --seconds"));
                if !(s > 0.0 && s <= 600.0) {
                    usage("--seconds must lie in (0, 600]");
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                })
            }
            other => usage(&format!("unknown option {other}")),
        }
    }
    Opts {
        workload: workload.unwrap_or_else(|| usage("missing --workload")),
        seed: seed.unwrap_or_else(|| usage("missing --seed")),
        seconds: seconds.unwrap_or_else(|| usage("missing --seconds")),
        trace: trace.unwrap_or_else(|| usage("missing --trace")),
    }
}

/// Refuse environments that change what is measured: `MISS_FAULTS`
/// injects faults, and `MISS_PROFILE` takes a global lock on every
/// profile-scope drop.
fn check_hygiene() {
    for var in ["MISS_FAULTS", "MISS_PROFILE"] {
        if std::env::var_os(var).is_some() {
            eprintln!("perfbench: refusing to run with {var} set; unset it and retry");
            exit(3);
        }
    }
}

/// Where the numbers came from: git revision, cores, ISA, thread setting.
fn meta_line(opts: &Opts, env_threads: &str) -> String {
    let rev = std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"meta\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"git_rev\": \"{rev}\", \"nproc\": {nproc}, \"isa\": \"{}\", \"miss_threads_env\": \
         \"{env_threads}\", \"miss_threads\": {}, \"generator_lateness_ms\": 0}}}}",
        opts.workload,
        opts.seed,
        opts.seconds,
        opts.trace,
        miss::tensor::detected_isa(),
        miss::parallel::max_threads()
    )
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Run `build` [`SETUP_REPS`] times; return the last result and the median
/// wall time in seconds.
pub fn repeated_setup<T>(mut build: impl FnMut() -> T) -> (T, f64) {
    let mut secs = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let t0 = Instant::now();
        last = Some(build());
        secs.push(t0.elapsed().as_secs_f64());
    }
    (
        last.expect("SETUP_REPS is positive"),
        stats::quantile(&secs, 0.5),
    )
}

/// Where a traced run writes its spans.
pub fn trace_path(opts: &Opts) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("traces")
        .join(format!("{}-seed{}.jsonl", opts.workload, opts.seed))
}

fn main() {
    check_hygiene();
    host::keep_heap();
    let opts = parse_opts();
    // Every workload runs the library on one thread; see the README for
    // the measured reason. Set before any parallel call reads it.
    let env_threads = std::env::var("MISS_THREADS").unwrap_or_else(|_| "unset".into());
    std::env::set_var("MISS_THREADS", "1");
    let mut report = match opts.workload.as_str() {
        "train_din_miss" => train::run(&opts),
        "serve_din_slate64" => serve::run(&opts, &serve::DIN_SLATE64),
        "serve_dien_slate1" => serve::run(&opts, &serve::DIEN_SLATE1),
        other => usage(&format!("unknown workload {other}")),
    };
    let manifest = if opts.trace { PER_LAYER } else { END_TO_END };
    if let Err(e) = report.conform(manifest, opts.trace) {
        eprintln!("perfbench: {e}");
        report.correct = false;
    }
    println!("{}", meta_line(&opts, &env_threads));
    println!("{}", report.to_json());
    if !report.correct || report.failed > 0 {
        exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(metrics: &[(&'static str, f64, &'static str)]) -> Report {
        Report {
            correct: true,
            attempted: 1,
            failed: 0,
            metrics: metrics.to_vec(),
        }
    }

    #[test]
    fn conform_orders_and_zero_fills_idle_layers() {
        let mut r = report(&[
            ("trace.overhead_pct", 2.0, "%"),
            ("serve.forward_ms", 0.5, "ms/batch"),
        ]);
        r.conform(PER_LAYER, true).unwrap();
        assert_eq!(r.metrics.len(), PER_LAYER.len());
        for (m, &(name, unit)) in r.metrics.iter().zip(PER_LAYER) {
            assert_eq!((m.0, m.2), (name, unit));
            let want = match name {
                "trace.overhead_pct" => 2.0,
                "serve.forward_ms" => 0.5,
                _ => 0.0,
            };
            assert_eq!(m.1, want, "{name}");
        }
    }

    #[test]
    fn conform_refuses_missing_or_foreign_metrics() {
        let mut r = report(&[("setup_s", 1.0, "s"), ("rows_per_s", 9.0, "rows/s")]);
        assert!(
            r.conform(END_TO_END, false).is_err(),
            "peak_rss_mb is missing"
        );
        let mut r = report(&[("setup_s", 1.0, "ms")]);
        assert!(r.conform(END_TO_END, true).is_err(), "wrong unit");
        let mut r = report(&[("test_auc", 0.8, "auc")]);
        assert!(r.conform(PER_LAYER, true).is_err(), "not in the manifest");
        let mut r = report(&[
            ("rows_per_s", 9.0, "rows/s"),
            ("peak_rss_mb", 3.0, "MiB"),
            ("setup_s", 1.0, "s"),
        ]);
        r.conform(END_TO_END, false).unwrap();
        let names: Vec<_> = r.metrics.iter().map(|m| m.0).collect();
        assert_eq!(names, ["setup_s", "peak_rss_mb", "rows_per_s"]);
    }
}
