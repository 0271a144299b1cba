//! Tape-free forward passes over frozen models.
//!
//! Every function here replicates its training counterpart *op-for-op*:
//! each autograd tape op computes its forward by delegating to one
//! `miss_tensor` method, so calling those same methods in the same order on
//! the same inputs reproduces the training-graph logits bit-for-bit (the
//! contract `tests/equivalence.rs` pins for DIN/DIEN/IPNN ± MISS). Dropout
//! is the identity in eval mode and DIEN's auxiliary-loss state is a
//! training-only side channel, so neither appears here.
//!
//! **Panic-freedom.** A batch is untrusted serving input, so
//! [`FrozenModel::forward`] validates it against the schema once
//! ([`check_batch`]) and returns [`MissError::BadRequest`] on any mismatch;
//! embedding ids are range-checked inside the gather. The per-architecture
//! forwards then index freely under `debug_assert`s restating the
//! already-checked invariants; the crate's R7 lints (DESIGN.md §7) hold
//! this file to that contract, with one reasoned `#[expect]` per forward
//! that indexes.

use crate::freeze::{FrozenDien, FrozenDin, FrozenIpnn, FrozenModel, FrozenTables};
use miss_data::{Batch, Schema};
use miss_tensor::Tensor;
use miss_util::{MissError, MissResult};

impl FrozenModel {
    /// CTR logits (`B×1`) for a batch, bit-identical to the training-graph
    /// eval-mode forward. A batch that does not match the frozen schema is
    /// a [`MissError::BadRequest`]; an embedding id outside its vocabulary
    /// likewise — scoring never panics on request content.
    pub fn forward(&self, batch: &Batch) -> MissResult<Tensor> {
        check_batch(batch, self.schema())?;
        match self {
            FrozenModel::Din(m) => m.forward(batch),
            FrozenModel::Dien(m) => m.forward(batch),
            FrozenModel::Ipnn(m) => m.forward(batch),
        }
    }
}

/// Validate a batch's layout against the schema: field arity, sequence
/// length, and the flattened `B·L` extents. After this passes, every index
/// the per-architecture forwards take is in bounds (ids themselves are
/// checked per-gather against their vocabulary).
fn check_batch(batch: &Batch, schema: &Schema) -> MissResult<()> {
    let bl = batch.size * batch.seq_len;
    if batch.cat.len() != schema.num_cat() {
        return Err(MissError::bad_request(format!(
            "batch has {} categorical fields, schema has {}",
            batch.cat.len(),
            schema.num_cat()
        )));
    }
    if batch.seq.len() != schema.num_seq() {
        return Err(MissError::bad_request(format!(
            "batch has {} sequential fields, schema has {}",
            batch.seq.len(),
            schema.num_seq()
        )));
    }
    if batch.seq_len != schema.seq_len {
        return Err(MissError::bad_request(format!(
            "batch sequence length {} != schema sequence length {}",
            batch.seq_len, schema.seq_len
        )));
    }
    if batch.mask.len() != bl {
        return Err(MissError::bad_request(format!(
            "mask has {} entries for a {}x{} batch",
            batch.mask.len(),
            batch.size,
            batch.seq_len
        )));
    }
    for (f, ids) in batch.cat.iter().enumerate() {
        if ids.len() != batch.size {
            return Err(MissError::bad_request(format!(
                "categorical field {f} has {} ids for {} samples",
                ids.len(),
                batch.size
            )));
        }
    }
    for (j, ids) in batch.seq.iter().enumerate() {
        if ids.len() != bl {
            return Err(MissError::bad_request(format!(
                "sequential field {j} has {} ids, expected {}",
                ids.len(),
                bl
            )));
        }
    }
    Ok(())
}

/// The batch validity mask as a `(B·L)×1` column, as the embedding layer
/// builds it.
fn mask_col(batch: &Batch) -> Tensor {
    Tensor::from_vec(batch.mask.len(), 1, batch.mask.clone())
}

/// Embed one sequential field: gather then zero padded rows via the mask.
#[expect(
    clippy::indexing_slicing,
    reason = "check_batch matched the batch's sequential field count to the schema"
)]
fn embed_seq(
    emb: &FrozenTables,
    batch: &Batch,
    schema_vocab: usize,
    field: usize,
) -> MissResult<Tensor> {
    debug_assert!(field < batch.seq.len(), "check_batch matched field arity");
    let e = emb.gather(schema_vocab, &batch.seq[field])?;
    Ok(e.mul_col_broadcast(&mask_col(batch)))
}

/// Every categorical field's embedding, in schema order.
#[expect(
    clippy::indexing_slicing,
    reason = "check_batch matched the batch's categorical field count to the schema"
)]
fn embed_all_cat(
    emb: &FrozenTables,
    batch: &Batch,
    cat_fields: &[(String, usize)],
) -> MissResult<Vec<Tensor>> {
    debug_assert_eq!(batch.cat.len(), cat_fields.len(), "check_batch matched field arity");
    cat_fields
        .iter()
        .enumerate()
        .map(|(f, &(_, vocab))| emb.gather(vocab, &batch.cat[f]))
        .collect()
}

/// Masked mean pooling of a `(B·L)×K` sequence embedding into `B×K`.
fn mean_pool(seq_emb: &Tensor, batch: &Batch) -> Tensor {
    let b = batch.size;
    let l = batch.seq_len;
    let ones = Tensor::full(b, l, 1.0);
    let sums = ones.bmm_nn(seq_emb, b);
    let inv = Tensor::from_vec(
        b,
        1,
        (0..b).map(|i| 1.0 / batch.hist_len(i).max(1) as f32).collect(),
    );
    sums.mul_col_broadcast(&inv)
}

/// Row softmax with −∞ masking of padded positions.
fn masked_softmax_rows(scores: &Tensor, mask: &[f32]) -> Tensor {
    let (b, l) = scores.shape();
    let neg = Tensor::from_vec(
        b,
        l,
        mask.iter().map(|&m| if m > 0.0 { 0.0 } else { -1e9 }).collect(),
    );
    scores.add(&neg).row_softmax()
}

/// DIN's local activation unit pooling over the behaviour sequence.
fn attention_pool(
    seq_emb: &Tensor,
    cand_emb: &Tensor,
    batch: &Batch,
    att_mlp: &crate::freeze::FrozenMlp,
) -> Tensor {
    let b = batch.size;
    let l = batch.seq_len;
    let cand_t = cand_emb.repeat_rows_interleave(l);
    let diff = seq_emb.sub(&cand_t);
    let prod = seq_emb.mul(&cand_t);
    let att_in = Tensor::concat_cols(&[seq_emb, &cand_t, &diff, &prod]);
    let scores = att_mlp.forward(&att_in); // (B·L)×1
    let scores2d = scores.reshape(b, l);
    let weights = masked_softmax_rows(&scores2d, &batch.mask);
    weights.bmm_nn(seq_emb, b)
}

impl FrozenDin {
    #[expect(
        clippy::indexing_slicing,
        reason = "j < num_seq, and freeze() sized att and cand_for_seq to num_seq with candidates below num_cat"
    )]
    fn forward(&self, batch: &Batch) -> MissResult<Tensor> {
        // check_batch matched the batch to self.schema, and freeze()
        // validated cand_for_seq against cat_fields.
        debug_assert_eq!(self.cand_for_seq.len(), self.schema.num_seq());
        let mut parts = embed_all_cat(&self.emb, batch, &self.schema.cat_fields)?;
        for j in 0..self.schema.num_seq() {
            let seq = embed_seq(&self.emb, batch, self.schema.seq_fields[j].vocab, j)?;
            let cand = parts[self.cand_for_seq[j]].clone();
            let pooled = attention_pool(&seq, &cand, batch, &self.att[j]);
            let mean = mean_pool(&seq, batch);
            let interact_att = pooled.mul(&cand);
            let interact_mean = mean.mul(&cand);
            let match_att = interact_att.row_sum();
            let match_mean = interact_mean.row_sum();
            parts.push(pooled);
            parts.push(mean);
            parts.push(interact_att);
            parts.push(match_att);
            parts.push(match_mean);
        }
        let refs: Vec<&Tensor> = parts.iter().collect();
        let flat = Tensor::concat_cols(&refs);
        Ok(self.deep.forward(&flat))
    }
}

impl FrozenDien {
    #[expect(
        clippy::indexing_slicing,
        reason = "DIEN's freeze path requires two sequential and two categorical fields, and check_batch matched the batch to that schema"
    )]
    fn forward(&self, batch: &Batch) -> MissResult<Tensor> {
        let b = batch.size;
        let l = batch.seq_len;
        let k = self.emb.dim;
        // check_batch matched the batch to self.schema; DIEN's freeze path
        // requires the item sequence (seq 0), its candidate (cat 1), and
        // the category sequence (seq 1), which the training constructor
        // registered against this same schema.
        debug_assert!(self.schema.num_seq() >= 2 && self.schema.num_cat() >= 2);
        let seq = embed_seq(&self.emb, batch, self.schema.seq_fields[0].vocab, 0)?;
        let cand = self.emb.gather(self.schema.cat_fields[1].1, &batch.cat[1])?;

        // Interest extraction: masked GRU over the sequence. `step_rows` is
        // a reused arena — the only per-step allocations left are the
        // tensor results themselves.
        let h0 = Tensor::zeros(b, k);
        let mut hidden: Vec<Tensor> = Vec::with_capacity(l);
        let mut step_rows = vec![0usize; b];
        for t in 0..l {
            for (i, r) in step_rows.iter_mut().enumerate() {
                *r = i * l + t;
            }
            let x_t = seq.gather_rows(&step_rows);
            let h_prev = hidden.last().unwrap_or(&h0);
            let h_new = self.gru.step(&x_t, h_prev);
            let m = step_mask(batch, t);
            let keep_new = h_new.mul_col_broadcast(&m);
            let inv = m.scale(-1.0).map(|v| v + 1.0);
            let keep_old = h_prev.mul_col_broadcast(&inv);
            hidden.push(keep_new.add(&keep_old));
        }

        // Attention of the candidate over extracted interests.
        let score_cols: Vec<Tensor> = hidden.iter().map(|ht| ht.mul(&cand).row_sum()).collect();
        let score_refs: Vec<&Tensor> = score_cols.iter().collect();
        let scores = Tensor::concat_cols(&score_refs); // B×L
        let weights = masked_softmax_rows(&scores, &batch.mask);

        // Interest evolution with AUGRU.
        let mut hv = Tensor::zeros(b, k);
        for (t, x_t) in hidden.iter().enumerate() {
            let a_t = weights.slice_cols(t, t + 1);
            let h_new = self.augru.step_attn(x_t, &hv, &a_t);
            let m = step_mask(batch, t);
            let keep_new = h_new.mul_col_broadcast(&m);
            let inv = m.scale(-1.0).map(|v| v + 1.0);
            let keep_old = hv.mul_col_broadcast(&inv);
            hv = keep_new.add(&keep_old);
        }

        let mut parts = embed_all_cat(&self.emb, batch, &self.schema.cat_fields)?;
        let cat_seq = embed_seq(&self.emb, batch, self.schema.seq_fields[1].vocab, 1)?;
        parts.push(mean_pool(&cat_seq, batch));
        parts.push(hv);
        let refs: Vec<&Tensor> = parts.iter().collect();
        let flat = Tensor::concat_cols(&refs);
        Ok(self.deep.forward(&flat))
    }
}

/// Step-`t` validity mask as a `B×1` column.
#[expect(
    clippy::indexing_slicing,
    reason = "t < seq_len and check_batch sized the mask to size * seq_len"
)]
fn step_mask(batch: &Batch, t: usize) -> Tensor {
    let b = batch.size;
    let l = batch.seq_len;
    debug_assert!(t < l && batch.mask.len() == b * l, "check_batch sized the mask");
    Tensor::from_vec(b, 1, (0..b).map(|i| batch.mask[i * l + t]).collect())
}

impl FrozenIpnn {
    #[expect(
        clippy::indexing_slicing,
        reason = "i < j < fields.len(), and check_batch matched the batch to the schema"
    )]
    fn forward(&self, batch: &Batch) -> MissResult<Tensor> {
        // Field vectors: every categorical embedding plus every sequence
        // mean-pooled, in schema order. check_batch matched the batch to
        // self.schema, so the field indexing below is in bounds.
        debug_assert_eq!(batch.seq.len(), self.schema.num_seq());
        let mut fields = embed_all_cat(&self.emb, batch, &self.schema.cat_fields)?;
        for j in 0..self.schema.num_seq() {
            let seq = embed_seq(&self.emb, batch, self.schema.seq_fields[j].vocab, j)?;
            fields.push(mean_pool(&seq, batch));
        }
        // z-part: raw field vectors; p-part: all pairwise inner products.
        let mut parts: Vec<Tensor> = fields.clone();
        for i in 0..fields.len() {
            for j in (i + 1)..fields.len() {
                parts.push(fields[i].mul(&fields[j]).row_sum());
            }
        }
        let refs: Vec<&Tensor> = parts.iter().collect();
        let flat = Tensor::concat_cols(&refs);
        Ok(self.deep.forward(&flat))
    }
}
