//! Closed-loop serving throughput and per-request latency: a fresh seeded
//! DIN init (throughput depends on shapes, not weight values) frozen behind
//! `ScoreEngine`, scoring 256 tiny-world requests of 4 candidates each at
//! `max_batch` 1, 64 and 256. Open-loop sojourn latency at a stated arrival
//! rate is `.perfbench`'s job; ci.sh gates this file's micro-batching ratio.

use miss_data::{request_stream, Dataset, ScoreRequest, Split, World, WorldConfig};
use miss_serve::{FrozenArch, FrozenModel, ScoreEngine};
use miss_testkit::bench::{black_box, BenchGroup};
use miss_trainer::{BaseModel, Experiment, SslKind};
use std::time::Instant;

const REQUESTS: usize = 256;
const CANDIDATES: usize = 4;

/// Each request's latency is the service time of the batch it rode in;
/// batches form exactly as `score_queue` forms them.
#[expect(
    clippy::disallowed_methods,
    reason = "observational bench timer: batch formation is a pure function of the queue, so no score can depend on it"
)]
fn latency_samples(engine: &ScoreEngine<'_>, stream: &[ScoreRequest]) -> Vec<u64> {
    let mut lat = Vec::with_capacity(stream.len());
    for (r0, r1) in engine.form_batches(stream) {
        let t0 = Instant::now();
        black_box(
            engine
                .score_queue(&stream[r0..r1])
                .expect("generated requests score"),
        );
        let ns = t0.elapsed().as_nanos() as u64;
        lat.extend((r0..r1).map(|_| ns));
    }
    lat
}

fn main() {
    let world = World::generate(WorldConfig::tiny(), 0xDA7A);
    let dataset = Dataset::from_world(&world, 0xDA7A);
    let exp = Experiment::new(BaseModel::Din, SslKind::None);
    let (store, _model) = exp.build_model(&dataset.schema, 0);
    let frozen =
        FrozenModel::freeze(&store, &dataset.schema, FrozenArch::Din).expect("DIN freezes");
    let stream = request_stream(&world, &dataset, Split::Test, REQUESTS, CANDIDATES, 0x5E64);

    let mut group = BenchGroup::new("serving");
    group.sample_size(10);
    group
        .meta("isa", miss_tensor::detected_isa())
        .meta("model", &exp.label())
        .meta("dataset", &dataset.name)
        .meta("miss_threads", &miss_parallel::max_threads().to_string())
        .meta("requests", &REQUESTS.to_string())
        .meta("candidates_per_request", &CANDIDATES.to_string())
        .meta("total_candidates", &(REQUESTS * CANDIDATES).to_string());

    for mb in [1, 64, 256] {
        let engine = ScoreEngine::new(&frozen, mb);
        // Warm allocators, panel caches and the pool outside the timed region.
        black_box(
            engine
                .score_queue(&stream)
                .expect("generated requests score"),
        );
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
}
