//! Open-loop serving bench for the frozen inference engine.
//!
//! ```text
//! miss-serve bench --dataset <cds|books|alipay|tiny> --model <any base model>
//!                  [--miss] [--ckpt FILE] [--seed N] [--scale F]
//!                  [--requests N] [--candidates C] [--max-batch B,B,...]
//! ```
//!
//! Drives a seeded stream of simulated `(user, candidates[])` requests from
//! the interest world through the [`ScoreEngine`] at each `--max-batch`
//! setting and writes `BENCH_serving.json`: whole-queue throughput cases
//! (`queue_solo_mb1` / `queue_batch_mb<B>`) plus per-request latency
//! distributions (`request_latency_mb<B>`, where p50/p99 live). With
//! `MISS_PROFILE=1` the hot-path scope aggregates land in
//! `PROFILE_serving.json`. Without `--ckpt` the engine freezes a fresh
//! seeded initialisation — throughput does not depend on the weights'
//! values, only their shapes.
//!
//! Exit codes follow the workspace convention: `0` ok, `2` usage,
//! `3` bad checkpoint, `4` I/O failure.

// R6 (DESIGN.md §7): no unwrap/expect/todo/dbg in production code.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::todo,
    clippy::unimplemented,
    clippy::dbg_macro
)]

use miss_data::{request_stream, Dataset, ScoreRequest, Split, World, WorldConfig};
use miss_serve::{load_frozen, FrozenModel, ScoreEngine};
use miss_testkit::bench::{black_box, BenchGroup};
use miss_trainer::{BaseModel, Experiment, SslKind, ALL_BASELINES};
use std::path::Path;
use std::process::exit;
use std::time::Instant;

struct Args {
    values: Vec<String>,
}

impl Args {
    fn get(&self, flag: &str) -> Option<&str> {
        self.values
            .iter()
            .position(|a| a == flag)
            .and_then(|i| self.values.get(i + 1))
            .map(String::as_str)
    }

    fn has(&self, flag: &str) -> bool {
        self.values.iter().any(|a| a == flag)
    }

    fn parsed<T: std::str::FromStr>(&self, flag: &str, default: T) -> T {
        match self.get(flag) {
            Some(s) => s.parse().unwrap_or_else(|_| {
                eprintln!("bad value for {flag}: {s}");
                usage()
            }),
            None => default,
        }
    }
}

fn usage() -> ! {
    eprintln!(
        "usage:\n  miss-serve bench --dataset <cds|books|alipay|tiny> --model <name>\n  \
         {:18}[--miss] [--ckpt FILE] [--seed N] [--scale F]\n  \
         {:18}[--requests N] [--candidates C] [--max-batch B,B,...]\n\n\
         Scores a seeded open-loop request stream through the frozen engine at\n\
         each --max-batch setting and writes BENCH_serving.json (throughput +\n\
         p50/p99 request latency). --ckpt freezes a trained checkpoint (pass the\n\
         --model/--miss/--seed the training run used); otherwise a fresh seeded\n\
         initialisation is frozen.\n\nmodels: {}\n\n\
         exit codes: 0 ok, 2 usage, 3 bad checkpoint, 4 i/o failure",
        "",
        "",
        ALL_BASELINES.map(|b| b.label()).join(", ")
    );
    exit(2)
}

fn world_config(args: &Args) -> WorldConfig {
    let scale: f64 = args.parsed("--scale", 1.0);
    match args.get("--dataset").unwrap_or("tiny") {
        "cds" => WorldConfig::amazon_cds(scale),
        "books" => WorldConfig::amazon_books(scale),
        "alipay" => WorldConfig::alipay(scale),
        "tiny" => WorldConfig::tiny(),
        other => {
            eprintln!("unknown dataset {other}");
            usage()
        }
    }
}

fn experiment(args: &Args) -> Experiment {
    let name = args.get("--model").unwrap_or("DIN");
    let Some(base) = BaseModel::from_label(name) else {
        eprintln!("unknown model {name}");
        usage()
    };
    let ssl = if args.has("--miss") {
        SslKind::Miss(miss_core::MissConfig::default())
    } else {
        SslKind::None
    };
    Experiment::new(base, ssl)
}

fn max_batches(args: &Args) -> Vec<usize> {
    let spec = args.get("--max-batch").unwrap_or("1,64,256");
    let mut out = Vec::new();
    for part in spec.split(',') {
        match part.trim().parse::<usize>() {
            Ok(b) if b > 0 => out.push(b),
            _ => {
                eprintln!("bad --max-batch entry: {part}");
                usage()
            }
        }
    }
    out
}

/// One open-loop pass, one batch at a time: each request's latency is the
/// service time of the batch it rode in (batch formation is identical to
/// the queue-scoring path, so the grouping — and therefore every score —
/// matches `score_queue` exactly).
#[expect(
    clippy::disallowed_methods,
    reason = "observational bench timer: batch formation is a pure function of the queue, so no score can depend on it"
)]
fn latency_samples(engine: &ScoreEngine<'_>, stream: &[ScoreRequest]) -> Vec<u64> {
    let mut lat = Vec::with_capacity(stream.len());
    for (r0, r1) in engine.form_batches(stream) {
        let t0 = Instant::now();
        match engine.score_queue(&stream[r0..r1]) {
            Ok(scores) => black_box(scores),
            Err(err) => {
                eprintln!("miss-serve: {err}");
                exit(err.exit_code())
            }
        };
        let ns = t0.elapsed().as_nanos() as u64;
        for _ in r0..r1 {
            lat.push(ns);
        }
    }
    lat
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = raw.first().cloned() else { usage() };
    let args = Args { values: raw };
    if cmd != "bench" {
        usage()
    }

    let world = World::generate(world_config(&args), 0xDA7A);
    let dataset = Dataset::from_world(&world, 0xDA7A);
    let exp = experiment(&args);
    let seed: u64 = args.parsed("--seed", 0);
    let frozen = match args.get("--ckpt") {
        Some(p) => match load_frozen(Path::new(p), &exp, &dataset.schema, seed) {
            Ok((m, progress)) => {
                if let Some(p) = progress {
                    println!("froze checkpoint at epoch {} (adam step {})", p.epoch, p.step);
                }
                m
            }
            Err(err) => {
                eprintln!("miss-serve: {err}");
                exit(err.exit_code())
            }
        },
        None => {
            let (store, _model) = exp.build_model(&dataset.schema, seed);
            match FrozenModel::freeze(&store, &dataset.schema, exp.base) {
                Ok(m) => m,
                Err(err) => {
                    eprintln!("miss-serve: {err}");
                    exit(err.exit_code())
                }
            }
        }
    };

    let num_requests: usize = args.parsed("--requests", 256);
    let candidates: usize = args.parsed("--candidates", 4);
    let stream = request_stream(&world, &dataset, Split::Test, num_requests, candidates, 0x5E64);
    let total_candidates = num_requests * candidates;

    let mut group = BenchGroup::new("serving");
    group.sample_size(10);
    group
        .meta("isa", miss_tensor::detected_isa())
        .meta("model", &exp.label())
        .meta("dataset", &dataset.name)
        .meta("miss_threads", &miss_parallel::max_threads().to_string())
        .meta("requests", &num_requests.to_string())
        .meta("candidates_per_request", &candidates.to_string())
        .meta("total_candidates", &total_candidates.to_string());

    for mb in max_batches(&args) {
        let engine = ScoreEngine::new(&frozen, mb);
        // Warm up allocators, panel caches, and the thread pool outside the
        // timed region; a scoring error on the generated stream is fatal.
        match engine.score_queue(&stream) {
            Ok(scores) => black_box(scores),
            Err(err) => {
                eprintln!("miss-serve: {err}");
                exit(err.exit_code())
            }
        };
        let case = if mb == 1 {
            "queue_solo_mb1".to_string()
        } else {
            format!("queue_batch_mb{mb}")
        };
        group.bench_function(&case, |b| b.iter(|| black_box(engine.score_queue(&stream))));
        let mut lat = latency_samples(&engine, &stream);
        group.record_case(&format!("request_latency_mb{mb}"), &mut lat);
    }
    group.finish();

    if miss_util::profile::enabled() {
        let dir = std::env::var("TESTKIT_BENCH_DIR").unwrap_or_else(|_| ".".into());
        let path = Path::new(&dir).join("PROFILE_serving.json");
        match miss_util::profile::write_json(&path) {
            Ok(()) => println!("serving: wrote {}", path.display()),
            Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
        }
    }
}
