//! Model evaluation: AUC and Logloss over a dataset split.
//!
//! Scoring fans batch chunks out over `miss-parallel`: chunk boundaries are
//! a pure function of the split size, each chunk scores its batches with one
//! reused [`Graph`], and the per-chunk score vectors are concatenated in
//! chunk order — so the score vector (and therefore every metric) is
//! bit-identical for any `MISS_THREADS` value.

use miss_data::{Batch, Sample, Schema};
use miss_metrics::{auc, logloss};
use miss_models::{CtrModel, ForwardOpts};
use miss_nn::{Graph, ParamStore};
use miss_util::Rng;

/// Evaluation metrics for one split.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EvalResult {
    /// Area under the ROC curve.
    pub auc: f64,
    /// Mean binary log-loss.
    pub logloss: f64,
}

/// Sigmoid scores for every sample, in sample order (eval mode, no dropout).
/// Parallel across fixed batch chunks; each chunk reuses one graph arena.
#[expect(
    clippy::indexing_slicing,
    reason = "lo < hi <= n = samples.len() for every batch bi < nb"
)]
fn scores(
    model: &dyn CtrModel,
    store: &ParamStore,
    samples: &[Sample],
    schema: &Schema,
    batch_size: usize,
) -> Vec<f32> {
    assert!(batch_size > 0, "batch_size must be positive");
    let n = samples.len();
    if n == 0 {
        return Vec::new();
    }
    let nb = n.div_ceil(batch_size);
    let chunk = miss_parallel::fixed_chunk_len(nb, 1);
    let n_chunks = nb.div_ceil(chunk);
    let per_chunk = miss_parallel::par_map(n_chunks, |ci| {
        let b0 = ci * chunk;
        let b1 = (b0 + chunk).min(nb);
        let mut rng = Rng::new(0); // unused in eval mode but required by the API
        let mut g = Graph::new(store);
        let mut out = Vec::with_capacity((b1 - b0) * batch_size);
        for bi in b0..b1 {
            let lo = bi * batch_size;
            let hi = (lo + batch_size).min(n);
            let refs: Vec<&Sample> = samples[lo..hi].iter().collect();
            let batch = Batch::from_samples(&refs, schema);
            g.reset(store);
            let mut opts = ForwardOpts {
                training: false,
                rng: &mut rng,
            };
            let logits = model.forward(&mut g, store, &batch, &mut opts);
            miss_util::sigmoid_extend(g.tape.value(logits).as_slice(), &mut out);
        }
        out
    });
    let mut all = Vec::with_capacity(n);
    for v in per_chunk {
        all.extend_from_slice(&v);
    }
    all
}

/// Score every sample (eval mode, no dropout) and compute AUC / Logloss.
pub fn evaluate(
    model: &dyn CtrModel,
    store: &ParamStore,
    samples: &[Sample],
    schema: &Schema,
    batch_size: usize,
) -> EvalResult {
    let scores = scores(model, store, samples, schema, batch_size);
    let labels: Vec<f32> = samples.iter().map(|s| s.label).collect();
    EvalResult {
        auc: auc(&scores, &labels),
        logloss: logloss(&scores, &labels),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use miss_data::{Dataset, WorldConfig};
    use miss_models::{Lr, ModelConfig};

    #[test]
    fn untrained_model_is_near_chance() {
        let dataset = Dataset::generate(WorldConfig::tiny(), 3);
        let mut store = ParamStore::new();
        let mut rng = Rng::new(1);
        let model = Lr::new(&mut store, &dataset.schema, &ModelConfig::default(), &mut rng);
        let r = evaluate(&model, &store, &dataset.test, &dataset.schema, 64);
        assert!((r.auc - 0.5).abs() < 0.15, "untrained AUC {}", r.auc);
        assert!(r.logloss > 0.5 && r.logloss < 1.0, "logloss {}", r.logloss);
    }
}
