//! Serving workloads: a frozen model behind `ScoreEngine`, fed by seeded
//! Poisson arrivals at a fixed absolute rate and replayed on a virtual
//! clock (see `clock.rs`).
//!
//! Each run alternates two phases over windows of requests. First the
//! window is replayed open-loop: every dispatch calls `score_queue` on the
//! requests that have arrived and is timed on the wall clock. Then, once
//! every request of the window has been served, the whole window is scored
//! again in one `score_queue` call on a full backlog. That call gives the
//! saturation throughput, and its scores are the reference the open-loop
//! scores must equal bit for bit (the batching-invariance contract).
//! Request bodies are generated per window, outside the timed calls, from
//! the workload seed and the window index.

use crate::clock::{take, Poisson};
use crate::stats::{percentile, quantile, sorted};
use crate::trace::{timed, Recorder, Timed};
use crate::{peak_rss_mb, repeated_setup, trace_path, Opts, Report};
use miss::data::{request_stream, Batch, Dataset, Sample, ScoreRequest, Split, World, WorldConfig};
use miss::serve::{FrozenArch, FrozenModel, ScoreEngine};
use miss::trainer::{BaseModel, Experiment, SslKind};
use miss::util::{MissError, MissResult};
use std::time::Instant;

/// One serving workload.
pub struct Spec {
    pub name: &'static str,
    pub base: BaseModel,
    pub arch: FrozenArch,
    pub candidates: usize,
    pub max_batch: usize,
    /// Offered load in requests per second. Fixed, never derived from
    /// measured capacity, so a faster engine sees the same load.
    pub rate: f64,
    /// Requests generated (and checked) together.
    pub window: usize,
}

/// 64 candidates share one user history, scored in 256-candidate batches:
/// the user-side work runs 64 times per request and the GEMMs are wide.
pub const DIN_SLATE64: Spec = Spec {
    name: "serve_din_slate64",
    base: BaseModel::Din,
    arch: FrozenArch::Din,
    candidates: 64,
    max_batch: 256,
    rate: 500.0,
    window: 128,
};

/// One candidate per request, so nothing is shared; latency is set by the
/// sequential GRU/AUGRU steps and per-request overhead.
pub const DIEN_SLATE1: Spec = Spec {
    name: "serve_dien_slate1",
    base: BaseModel::Dien,
    arch: FrozenArch::Dien,
    candidates: 1,
    max_batch: 64,
    rate: 1500.0,
    window: 256,
};

/// World scale for the user contexts requests are drawn from. Serving cost
/// depends on the weight shapes and history lengths, not on the scale.
const SCALE: f64 = 1.0;

struct Setup {
    world: World,
    dataset: Dataset,
    frozen: FrozenModel,
}

/// World and dataset generation, model build from a fresh seeded init,
/// freeze, and a warm-up pass over one window.
fn build(spec: &Spec, seed: u64) -> Setup {
    let world = World::generate(WorldConfig::amazon_cds(SCALE), seed);
    let dataset = Dataset::from_world(&world, seed);
    let (store, _model) =
        Experiment::new(spec.base, SslKind::None).build_model(&dataset.schema, seed);
    let frozen =
        FrozenModel::freeze(&store, &dataset.schema, spec.arch).expect("a fresh init freezes");
    let warm = request_stream(
        &world,
        &dataset,
        Split::Test,
        spec.window,
        spec.candidates,
        window_seed(seed, u64::MAX),
    );
    let engine = ScoreEngine::new(&frozen, spec.max_batch);
    for _ in 0..2 {
        std::hint::black_box(
            engine
                .score_queue(&warm)
                .expect("warm-up requests are valid"),
        );
    }
    Setup {
        world,
        dataset,
        frozen,
    }
}

/// Seed of window `w`'s request bodies.
fn window_seed(seed: u64, w: u64) -> u64 {
    let mut z = seed ^ w.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Spans and counts of a traced replay.
#[derive(Default)]
struct TraceState {
    rec: Option<Recorder>,
    batch_candidates: Vec<f64>,
    dispatches: u64,
    batches: u64,
}

/// One open-loop replay: the schedule, the live window of request bodies,
/// and what was measured.
struct Replay<'a> {
    spec: &'a Spec,
    setup: &'a Setup,
    engine: ScoreEngine<'a>,
    seed: u64,
    poisson: Poisson,
    /// Global index of `arrivals[0]` and `reqs[0]`: both drop a window once
    /// it has been checked, so memory stays flat however long the run.
    base: usize,
    /// Scheduled arrival times, generated ahead of the bodies.
    arrivals: Vec<f64>,
    reqs: Vec<ScoreRequest>,
    /// Open-loop scores of the served prefix of `reqs`.
    scores: Vec<f32>,
    next_window: u64,
    now: f64,
    next: usize,
    /// Whether to keep every request's sojourn and queue wait. Only traced
    /// runs report them, and an untraced run's memory should not grow
    /// with the number of requests served.
    keep_latency: bool,
    sojourn_ms: Vec<f64>,
    wait_ms: Vec<f64>,
    busy_s: f64,
    windows_done: u64,
    /// Whole-window passes timed, and their total wall time.
    passes: u64,
    pass_s: f64,
    failed: u64,
    correct: bool,
    trace: TraceState,
}

impl<'a> Replay<'a> {
    fn new(
        spec: &'a Spec,
        setup: &'a Setup,
        seed: u64,
        traced: bool,
        keep_latency: bool,
    ) -> Replay<'a> {
        Replay {
            spec,
            setup,
            engine: ScoreEngine::new(&setup.frozen, spec.max_batch),
            seed,
            poisson: Poisson::new(spec.rate, seed),
            base: 0,
            arrivals: Vec::new(),
            reqs: Vec::new(),
            scores: Vec::new(),
            next_window: 0,
            now: 0.0,
            next: 0,
            keep_latency,
            sojourn_ms: Vec::new(),
            wait_ms: Vec::new(),
            busy_s: 0.0,
            windows_done: 0,
            passes: 0,
            pass_s: 0.0,
            failed: 0,
            correct: true,
            trace: TraceState {
                rec: traced.then(Recorder::new),
                ..TraceState::default()
            },
        }
    }

    /// Generate request bodies through global index `end` (exclusive).
    fn ensure_bodies(&mut self, end: usize) {
        while self.base + self.reqs.len() < end {
            let w = self.next_window;
            self.next_window += 1;
            self.reqs.extend(request_stream(
                &self.setup.world,
                &self.setup.dataset,
                Split::Test,
                self.spec.window,
                self.spec.candidates,
                window_seed(self.seed, w),
            ));
        }
    }

    /// Serve one dispatch on the virtual clock.
    fn dispatch(&mut self) {
        let (arrivals, poisson, base) = (&mut self.arrivals, &mut self.poisson, self.base);
        let end = take(&mut self.now, self.next, |i| {
            while base + arrivals.len() <= i {
                arrivals.push(poisson.next_arrival());
            }
            arrivals[i - base]
        });
        self.ensure_bodies(end);
        let (lo, hi) = (self.next - self.base, end - self.base);
        let start = self.now;
        let t0 = Instant::now();
        let result = if self.trace.rec.is_some() {
            self.score_traced(lo, hi)
        } else {
            self.engine.score_queue(&self.reqs[lo..hi])
        };
        let service = t0.elapsed().as_secs_f64();
        self.now += service;
        self.busy_s += service;
        if self.keep_latency {
            for a in &self.arrivals[lo..hi] {
                self.sojourn_ms.push((self.now - a) * 1e3);
                self.wait_ms.push((start - a).max(0.0) * 1e3);
            }
        }
        match result {
            Ok(s) => self.scores.extend_from_slice(&s),
            Err(e) => {
                eprintln!("{}: dispatch failed: {e}", self.spec.name);
                self.failed += (end - self.next) as u64;
                self.correct = false;
                let n = (hi - lo) * self.spec.candidates;
                self.scores.extend(std::iter::repeat_n(f32::NAN, n));
            }
        }
        self.next = end;
    }

    /// `score_queue` with a span around each layer call: the same batch
    /// formation, the same per-batch validation, assembly, forward and
    /// sigmoid, the same concurrent dispatch over the pool and the same
    /// concatenation order. Its scores are checked against `score_queue`'s.
    fn score_traced(&mut self, lo: usize, hi: usize) -> MissResult<Vec<f32>> {
        let reqs = &self.reqs[lo..hi];
        let model = &self.setup.frozen;
        let schema = model.schema();
        let t0 = Instant::now();
        let batches = self.engine.form_batches(reqs);
        let per_batch = miss::parallel::par_map(batches.len(), |bi| {
            let (r0, r1) = batches[bi];
            let part = &reqs[r0..r1];
            for s in part.iter().flat_map(|r| r.samples.iter()) {
                if s.cat.len() != schema.num_cat() || s.hist.len() != schema.num_seq() {
                    let err = MissError::bad_request("sample arity does not match the schema");
                    return (Err(err), Vec::new());
                }
            }
            let refs: Vec<&Sample> = part.iter().flat_map(|r| r.samples.iter()).collect();
            let (batch, t_batch) = timed("data.batch", || Batch::from_samples(&refs, schema));
            let (logits, t_fwd) = timed("serve.forward", || model.forward(&batch));
            let out = logits.map(|l| {
                let mut out = Vec::with_capacity(refs.len());
                miss::util::sigmoid_extend(l.as_slice(), &mut out);
                out
            });
            (out, vec![t_batch, t_fwd])
        });
        let mut all = Vec::new();
        let mut first_err = None;
        let mut spans: Vec<Timed> = Vec::new();
        for (v, t) in per_batch {
            spans.extend(t);
            match v {
                Ok(v) if first_err.is_none() => all.extend_from_slice(&v),
                Ok(_) => {}
                Err(e) => {
                    first_err.get_or_insert(e);
                }
            }
        }
        let end = Instant::now();
        let id = (self.base + lo) as u64;
        let tr = &mut self.trace;
        let rec = tr.rec.as_mut().expect("traced replay has a recorder");
        let parent = rec.push(
            Timed {
                name: "serve.dispatch",
                start: t0,
                end,
            },
            None,
            id,
        );
        for t in spans {
            rec.push(t, Some(parent), id);
        }
        tr.dispatches += 1;
        tr.batches += batches.len() as u64;
        for &(r0, r1) in &batches {
            let c: usize = reqs[r0..r1].iter().map(ScoreRequest::num_candidates).sum();
            tr.batch_candidates.push(c as f64);
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(all),
        }
    }

    /// Check the served prefix of `n` requests against one whole-backlog
    /// `score_queue` call (timed as saturation throughput), then drop it.
    fn check_prefix(&mut self, n: usize) {
        let c = self.spec.candidates;
        let reqs = &self.reqs[..n];
        let t0 = Instant::now();
        let whole = self.engine.score_queue(reqs);
        if n == self.spec.window {
            self.passes += 1;
            self.pass_s += t0.elapsed().as_secs_f64();
        }
        match whole {
            Ok(whole) => {
                let open = &self.scores[..n * c];
                let same = whole.len() == open.len()
                    && whole
                        .iter()
                        .zip(open)
                        .all(|(a, b)| a.to_bits() == b.to_bits());
                let in_range = whole.iter().all(|&s| s > 0.0 && s < 1.0);
                if !same {
                    eprintln!(
                        "{}: open-loop scores differ from one whole-window call",
                        self.spec.name
                    );
                    self.correct = false;
                }
                if !in_range {
                    eprintln!(
                        "{}: a score is non-finite or outside (0, 1)",
                        self.spec.name
                    );
                    self.correct = false;
                }
            }
            Err(e) => {
                eprintln!("{}: whole-window call failed: {e}", self.spec.name);
                self.correct = false;
            }
        }
        self.arrivals.drain(..n);
        self.reqs.drain(..n);
        self.scores.drain(..n * c);
        self.base += n;
    }

    /// Dispatch until one more window has been served, checking every
    /// window that completes.
    fn serve_window(&mut self) {
        let target = self.windows_done + 1;
        while self.windows_done < target {
            self.dispatch();
            while self.next - self.base >= self.spec.window {
                self.check_prefix(self.spec.window);
                self.windows_done += 1;
            }
        }
    }

    /// Check what has been served but not yet checked.
    fn finish(&mut self) {
        if self.next > self.base {
            self.check_prefix(self.next - self.base);
        }
    }

    fn attempted(&self) -> u64 {
        self.next as u64
    }
}

fn pct(sorted_ms: &[f64], p: f64, what: &str) -> (f64, bool) {
    match percentile(sorted_ms, p) {
        Ok(v) => (v, true),
        Err(e) => {
            eprintln!("{what}: {e}");
            (f64::NAN, false)
        }
    }
}

pub fn run(opts: &Opts, spec: &Spec) -> Report {
    let (setup, setup_s) = repeated_setup(|| build(spec, opts.seed));
    let mut report = Report {
        correct: true,
        attempted: 0,
        failed: 0,
        metrics: Vec::new(),
    };
    // A traced run alternates windows between an untraced and a traced
    // replay of the same schedule, so host drift hits both alike.
    let mut plain = Replay::new(spec, &setup, opts.seed, false, opts.trace);
    let mut traced = opts
        .trace
        .then(|| Replay::new(spec, &setup, opts.seed, true, true));
    let t0 = Instant::now();
    while t0.elapsed().as_secs_f64() < opts.seconds {
        plain.serve_window();
        if let Some(t) = traced.as_mut() {
            t.serve_window();
        }
    }
    plain.finish();
    report.attempted = plain.attempted();
    report.failed = plain.failed;
    report.correct &= plain.correct;
    eprintln!(
        "{}: setup {setup_s:.3}s, {} requests in {} windows, busy share {:.3}",
        spec.name,
        plain.attempted(),
        plain.windows_done,
        plain.busy_s / plain.now
    );

    let Some(mut traced) = traced else {
        report.metric("setup_s", setup_s, "s");
        // Total work over total time: the host runs in slower and faster
        // stretches of seconds, and a median or fastest decile of passes
        // jumps between them from run to run (README, *Steadiness*).
        let candidates = plain.passes as f64 * (spec.window * spec.candidates) as f64;
        report.metric("rows_per_s", candidates / plain.pass_s, "rows/s");
        report.metric("peak_rss_mb", peak_rss_mb(), "MiB");
        return report;
    };
    traced.finish();
    report.attempted += traced.attempted();
    report.failed += traced.failed;
    report.correct &= traced.correct;
    let tr = &traced.trace;
    let rec = tr.rec.as_ref().expect("traced replay has a recorder");
    if let Err(e) = rec.write_jsonl(&trace_path(opts)) {
        eprintln!("{}: could not write the trace: {e}", spec.name);
        report.correct = false;
    }
    let self_ns = rec.self_times();
    let ns = |name: &str| self_ns.get(name).map_or(0, |e| e.0) as f64;
    let candidates = tr.batch_candidates.iter().sum::<f64>();
    // Sojourns of the untraced replay, queue waits of the traced one.
    let mut pcts = |v: &mut Vec<f64>| {
        let v = sorted(std::mem::take(v));
        let (p50, ok50) = pct(&v, 50.0, spec.name);
        let (p99, ok99) = pct(&v, 99.0, spec.name);
        report.correct &= ok50 && ok99;
        (p50, p99)
    };
    let (s50, s99) = pcts(&mut plain.sojourn_ms);
    let (w50, w99) = pcts(&mut traced.wait_ms);
    report.metric(
        "serve.forward_ms",
        ns("serve.forward") / 1e6 / tr.batches as f64,
        "ms/batch",
    );
    report.metric(
        "data.batch_ms",
        ns("data.batch") / 1e6 / (candidates / 1000.0),
        "ms/1k_rows",
    );
    report.metric(
        "serve.batch_candidates_p50",
        quantile(&tr.batch_candidates, 0.5),
        "count",
    );
    report.metric("serve.sojourn_p50_ms", s50, "ms");
    report.metric("serve.sojourn_p99_ms", s99, "ms");
    report.metric("serve.queue_wait_p50_ms", w50, "ms");
    report.metric("serve.queue_wait_p99_ms", w99, "ms");
    report.metric("serve.busy_share", traced.busy_s / traced.now, "share");
    report.metric(
        "serve.unattributed_ms",
        ns("serve.dispatch") / 1e6 / tr.dispatches as f64,
        "ms/dispatch",
    );
    // Both replays served the same windows; compare their time in service.
    let per_req = |r: &Replay| r.busy_s / r.attempted() as f64;
    report.metric(
        "trace.overhead_pct",
        (per_req(&traced) - per_req(&plain)) / per_req(&plain) * 100.0,
        "%",
    );
    report
}
