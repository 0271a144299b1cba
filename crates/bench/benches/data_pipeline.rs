//! Data-pipeline throughput: world generation, batch assembly, metric
//! computation, and split evaluation (training graph vs inference graph).

use miss_data::{Batch, Dataset, Sample, WorldConfig};
use miss_metrics::{auc, logloss};
use miss_serve::FrozenModel;
use miss_testkit::bench::{black_box, BenchGroup};
use miss_trainer::{evaluate, BaseModel, Experiment, SslKind};
use miss_util::Rng;

fn main() {
    let mut group = BenchGroup::new("data_pipeline");
    group.sample_size(10);
    // The eval_graph_din / eval_frozen_din pair records the win from routing
    // eval through the frozen model's inference graphs: identical scores,
    // but B panels pack once per graph instead of on every batch (small eval
    // batches make the per-batch repacking cost visible). ci.sh bounds the
    // pair's ratio.
    group.meta(
        "eval_packing",
        "eval_graph_din re-packs per batch; eval_frozen_din packs once per graph",
    );

    group.bench_function("generate_tiny_world_dataset", |b| {
        b.iter(|| black_box(Dataset::generate(WorldConfig::tiny(), 3)))
    });

    // Full-scale preset (1200 users): the size the parallel per-user
    // generation path is built for.
    group.bench_function("generate_cds_world_dataset", |b| {
        b.iter(|| black_box(Dataset::generate(WorldConfig::amazon_cds(1.0), 3)))
    });

    let dataset = Dataset::generate(WorldConfig::tiny(), 5);
    let refs: Vec<&Sample> = dataset.train.iter().take(128).collect();
    group.bench_function("assemble_batch_128", |b| {
        b.iter(|| black_box(Batch::from_samples(&refs, &dataset.schema)))
    });

    let mut rng = Rng::new(9);
    let scores: Vec<f32> = (0..10_000).map(|_| rng.f32()).collect();
    let labels: Vec<f32> = (0..10_000)
        .map(|_| if rng.bool(0.5) { 1.0 } else { 0.0 })
        .collect();
    group.bench_function("auc_10k", |b| b.iter(|| black_box(auc(&scores, &labels))));
    group.bench_function("logloss_10k", |b| {
        b.iter(|| black_box(logloss(&scores, &labels)))
    });

    // Split evaluation, training graph vs inference graph: same scores
    // bit-for-bit, but the training graph re-packs every GEMM's B panels and
    // records backward state on each batch, while each pooled inference
    // graph packed once. CI gates the pair with check_bench
    // `--require-ratio eval_frozen_din eval_graph_din 1.25`.
    let exp = Experiment::new(BaseModel::Din, SslKind::None);
    let (store, model) = exp.build_model(&dataset.schema, 5);
    let frozen = FrozenModel::freeze(&store, &dataset.schema, miss_serve::FrozenArch::Din)
        .expect("DIN freezes");
    group.bench_function("eval_graph_din", |b| {
        b.iter(|| {
            black_box(evaluate(
                model.as_ref(),
                &store,
                &dataset.test,
                &dataset.schema,
                16,
            ))
        })
    });
    group.bench_function("eval_frozen_din", |b| {
        b.iter(|| {
            black_box(miss_serve::evaluate_frozen(
                &frozen,
                &dataset.test,
                &dataset.schema,
                16,
            ))
        })
    });

    group.finish();
}
