//! The scoring engine: deterministic request micro-batching over a frozen
//! model's inference forward, plus the frozen evaluation path.
//!
//! **Batch formation is a pure function of the queue** (DESIGN.md §10):
//! requests are taken in arrival order and a batch is flushed when adding
//! the next request would push it past `max_batch` candidates, or when the
//! queue drains. No wall-clock timers, no thread-dependent state — the same
//! queue always forms the same batches. A request larger than `max_batch`
//! becomes a batch of its own rather than splitting.
//!
//! **Batching never changes a score.** Every op in every model's forward is
//! row-independent (GEMM accumulation chains, softmax rows, bmm blocks and
//! gathers are all per-sample), so a candidate's score does not depend on
//! which other candidates share its batch — micro-batched results are
//! bit-identical to scoring each request alone, which is what makes
//! batching a pure throughput knob. `tests/equivalence.rs` pins this for
//! arbitrary request groupings and `MISS_THREADS` {1, 2, 4}.

use crate::freeze::FrozenModel;
use miss_data::{Batch, Sample, Schema, ScoreRequest};
use miss_trainer::EvalResult;
use miss_util::{MissError, MissResult};

/// Micro-batching scoring engine over a frozen model.
pub struct ScoreEngine<'a> {
    model: &'a FrozenModel,
    max_batch: usize,
}

impl<'a> ScoreEngine<'a> {
    /// Create an engine flushing batches at `max_batch` candidates.
    /// `max_batch = 1` degenerates to one-request-at-a-time scoring (the
    /// bench's solo baseline) through the identical code path.
    pub fn new(model: &'a FrozenModel, max_batch: usize) -> ScoreEngine<'a> {
        assert!(max_batch > 0, "max_batch must be positive");
        ScoreEngine { model, max_batch }
    }

    /// The deterministic batch-formation rule: request index ranges
    /// `[start, end)` such that each batch holds at most `max_batch`
    /// candidates (unless a single oversized request forces more). Public
    /// so a caller can time or dispatch the batches one by one; scoring
    /// goes through [`ScoreEngine::score_queue`].
    pub fn form_batches(&self, requests: &[ScoreRequest]) -> Vec<(usize, usize)> {
        let mut batches = Vec::new();
        let mut start = 0;
        let mut filled = 0;
        for (i, r) in requests.iter().enumerate() {
            let c = r.num_candidates();
            if filled > 0 && filled + c > self.max_batch {
                batches.push((start, i));
                start = i;
                filled = 0;
            }
            filled += c;
        }
        if filled > 0 {
            batches.push((start, requests.len()));
        }
        batches
    }

    /// Score a queue of requests. Returns the sigmoid scores of every
    /// candidate, flattened in (request, candidate) order — the caller
    /// slices per-request runs off with each request's candidate count.
    ///
    /// Batches score concurrently over the `miss-parallel` pool and the
    /// per-batch score vectors concatenate in batch order, so the output is
    /// bit-identical for any `MISS_THREADS` value *and* any `max_batch`.
    ///
    /// A malformed request ([`MissError::BadRequest`]: wrong field arity,
    /// ragged histories, or an id outside its vocabulary) is a typed error,
    /// never a panic — deterministically the error of the *earliest*
    /// offending batch, for any thread count.
    #[expect(
        clippy::indexing_slicing,
        reason = "form_batches yields contiguous in-range [r0, r1) windows, one per bi"
    )]
    pub fn score_queue(&self, requests: &[ScoreRequest]) -> MissResult<Vec<f32>> {
        let batches = self.form_batches(requests);
        let per_batch = miss_parallel::par_map(batches.len(), |bi| {
            let (r0, r1) = batches[bi];
            let refs: Vec<&Sample> = requests[r0..r1].iter().flat_map(|r| &r.samples).collect();
            score_samples(self.model, &refs, self.model.schema())
        });
        Ok(per_batch
            .into_iter()
            .collect::<MissResult<Vec<_>>>()?
            .concat())
    }
}

/// Sigmoid scores of `samples` as one batch: validate, assemble, forward.
fn score_samples(
    model: &FrozenModel,
    samples: &[&Sample],
    schema: &Schema,
) -> MissResult<Vec<f32>> {
    let logits = model.forward(&assemble(samples, schema)?)?;
    let mut out = Vec::with_capacity(samples.len());
    miss_tensor::math::sigmoid_extend(logits.as_slice(), &mut out);
    Ok(out)
}

/// Assemble samples into a batch. `Batch::from_samples` is written for
/// dataset samples: it asserts the schema's field counts and slices every
/// sequential field by the first one's length, which panics on a shorter
/// one. Requests are untrusted, so a sample breaking either is a typed
/// [`MissError::BadRequest`] here instead.
fn assemble(samples: &[&Sample], schema: &Schema) -> MissResult<Batch> {
    for (i, s) in samples.iter().enumerate() {
        if s.cat.len() != schema.num_cat() || s.hist.len() != schema.num_seq() {
            return Err(MissError::bad_request(format!(
                "sample {i} has {} categorical / {} sequential fields, schema has {} / {}",
                s.cat.len(),
                s.hist.len(),
                schema.num_cat(),
                schema.num_seq()
            )));
        }
        let lens = s.hist.iter().map(Vec::len);
        if lens.clone().min() != lens.max() {
            return Err(MissError::bad_request(format!(
                "sample {i} has sequential fields of different history lengths"
            )));
        }
    }
    Ok(Batch::from_samples(samples, schema))
}

/// AUC / Logloss over a split through the inference forward, one batched
/// forward per `batch_size` window. A score does not depend on which rows
/// share its batch (DESIGN.md §10.3), so this is bit-identical to
/// `miss_trainer::evaluate` on the store the model froze from, without
/// re-packing GEMM panels on every batch. Errors if the split does not
/// match the frozen schema (a dataset/checkpoint mismatch).
#[expect(
    clippy::indexing_slicing,
    reason = "par_map hands out wi < windows.len()"
)]
pub fn evaluate_frozen(
    model: &FrozenModel,
    samples: &[Sample],
    schema: &Schema,
    batch_size: usize,
) -> MissResult<EvalResult> {
    assert!(batch_size > 0, "batch_size must be positive");
    let windows: Vec<&[Sample]> = samples.chunks(batch_size).collect();
    let per_window = miss_parallel::par_map(windows.len(), |wi| {
        let refs: Vec<&Sample> = windows[wi].iter().collect();
        score_samples(model, &refs, schema)
    });
    let scores = per_window
        .into_iter()
        .collect::<MissResult<Vec<_>>>()?
        .concat();
    let labels: Vec<f32> = samples.iter().map(|s| s.label).collect();
    Ok(EvalResult {
        auc: miss_metrics::auc(&scores, &labels),
        logloss: miss_metrics::logloss(&scores, &labels),
    })
}
