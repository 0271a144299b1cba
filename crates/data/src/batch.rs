//! Mini-batch assembly: padding, masking, and epoch iteration.

use crate::dataset::{Sample, Schema};
use miss_util::Rng;

/// A padded mini-batch ready for a model forward pass.
///
/// Layouts: `cat[f]` has one id per sample; `seq[j]` is `B·L` ids flattened
/// row-major (sample-major) and **left-padded with PAD (0)** so the most
/// recent behaviour always sits at position `L-1`; `mask` is 1.0 on real
/// positions.
#[derive(Clone, Debug)]
pub struct Batch {
    /// Number of samples `B`.
    pub size: usize,
    /// Padded sequence length `L`.
    pub seq_len: usize,
    /// Categorical ids, `cat[field][sample]`.
    pub cat: Vec<Vec<u32>>,
    /// Sequential ids, `seq[field][sample*L + pos]`.
    pub seq: Vec<Vec<u32>>,
    /// Validity mask over `sample*L + pos`.
    pub mask: Vec<f32>,
    /// Click labels.
    pub labels: Vec<f32>,
}

impl Batch {
    /// Assemble a batch from samples.
    #[expect(
        clippy::indexing_slicing,
        reason = "field counts are asserted against the schema, which has at least one sequential field, and every position is below b * l"
    )]
    pub fn from_samples(samples: &[&Sample], schema: &Schema) -> Batch {
        let b = samples.len();
        let l = schema.seq_len;
        let num_cat = schema.num_cat();
        let num_seq = schema.num_seq();
        let mut cat = vec![Vec::with_capacity(b); num_cat];
        let mut seq = vec![vec![0u32; b * l]; num_seq];
        let mut mask = vec![0.0f32; b * l];
        let mut labels = Vec::with_capacity(b);
        for (i, s) in samples.iter().enumerate() {
            assert_eq!(s.cat.len(), num_cat, "sample/categorical schema mismatch");
            assert_eq!(s.hist.len(), num_seq, "sample/sequential schema mismatch");
            for (f, &v) in s.cat.iter().enumerate() {
                cat[f].push(v);
            }
            let hist_len = s.hist[0].len().min(l);
            let offset = l - hist_len; // left padding
            for (j, h) in s.hist.iter().enumerate() {
                let start = h.len() - hist_len;
                for (p, &v) in h[start..].iter().enumerate() {
                    seq[j][i * l + offset + p] = v;
                }
            }
            for p in 0..hist_len {
                mask[i * l + offset + p] = 1.0;
            }
            labels.push(s.label);
        }
        Batch {
            size: b,
            seq_len: l,
            cat,
            seq,
            mask,
            labels,
        }
    }

    /// History length of sample `i` (count of real positions).
    #[expect(
        clippy::indexing_slicing,
        reason = "i < size is debug-asserted and mask holds size * seq_len entries"
    )]
    pub fn hist_len(&self, i: usize) -> usize {
        debug_assert!(i < self.size, "sample index {i} out of a {}-sample batch", self.size);
        self.mask[i * self.seq_len..(i + 1) * self.seq_len]
            .iter()
            .filter(|&&m| m > 0.0)
            .count()
    }
}

/// Deterministic epoch iterator: optional shuffle, fixed batch size, final
/// partial batch included.
pub struct BatchIter<'a> {
    samples: &'a [Sample],
    schema: &'a Schema,
    order: Vec<usize>,
    batch_size: usize,
    pos: usize,
}

impl<'a> BatchIter<'a> {
    /// Iterate `samples` in order, or shuffled when `rng` is given.
    pub fn new(
        samples: &'a [Sample],
        schema: &'a Schema,
        batch_size: usize,
        rng: Option<&mut Rng>,
    ) -> Self {
        assert!(batch_size > 0);
        let mut order: Vec<usize> = (0..samples.len()).collect();
        if let Some(r) = rng {
            r.shuffle(&mut order);
        }
        BatchIter {
            samples,
            schema,
            order,
            batch_size,
            pos: 0,
        }
    }

    /// Number of batches in the epoch.
    pub fn num_batches(&self) -> usize {
        self.samples.len().div_ceil(self.batch_size)
    }
}

impl<'a> Iterator for BatchIter<'a> {
    type Item = Batch;

    #[expect(
        clippy::indexing_slicing,
        reason = "pos <= end <= order.len(), and order is a permutation of the sample indices"
    )]
    fn next(&mut self) -> Option<Batch> {
        if self.pos >= self.order.len() {
            return None;
        }
        let end = (self.pos + self.batch_size).min(self.order.len());
        debug_assert!(self.pos <= end, "pos only advances to clamped ends");
        let refs: Vec<&Sample> = self.order[self.pos..end]
            .iter()
            .map(|&i| &self.samples[i])
            .collect();
        self.pos = end;
        Some(Batch::from_samples(&refs, self.schema))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Dataset, WorldConfig};

    fn dataset() -> Dataset {
        Dataset::generate(WorldConfig::tiny(), 2)
    }

    #[test]
    fn batch_shapes_and_left_padding() {
        let d = dataset();
        let refs: Vec<&Sample> = d.train.iter().take(4).collect();
        let b = Batch::from_samples(&refs, &d.schema);
        assert_eq!(b.size, 4);
        assert_eq!(b.cat.len(), d.schema.num_cat());
        assert_eq!(b.seq.len(), 2);
        assert_eq!(b.seq[0].len(), 4 * d.schema.seq_len);
        for i in 0..4 {
            let l = d.schema.seq_len;
            let hist = &d.train[i].hist[0];
            let n = hist.len().min(l);
            // last position holds the most recent behaviour
            assert_eq!(b.seq[0][i * l + l - 1], *hist.last().unwrap());
            // padding is up front with mask 0
            for p in 0..(l - n) {
                assert_eq!(b.seq[0][i * l + p], 0);
                assert_eq!(b.mask[i * l + p], 0.0);
            }
            assert_eq!(b.hist_len(i), n);
        }
    }

    #[test]
    fn iterator_covers_everything_once() {
        let d = dataset();
        let it = BatchIter::new(&d.train, &d.schema, 7, None);
        let expected_batches = d.train.len().div_ceil(7);
        assert_eq!(it.num_batches(), expected_batches);
        let total: usize = it.map(|b| b.size).sum();
        assert_eq!(total, d.train.len());
    }

    #[test]
    fn shuffle_changes_order_but_not_content() {
        let d = dataset();
        let mut rng = Rng::new(9);
        let shuffled: Vec<f32> = BatchIter::new(&d.train, &d.schema, 3, Some(&mut rng))
            .flat_map(|b| b.labels)
            .collect();
        let plain: Vec<f32> = BatchIter::new(&d.train, &d.schema, 3, None)
            .flat_map(|b| b.labels)
            .collect();
        assert_eq!(shuffled.len(), plain.len());
        assert_ne!(shuffled, plain, "shuffle produced identical order");
        let sum_a: f32 = shuffled.iter().sum();
        let sum_b: f32 = plain.iter().sum();
        assert_eq!(sum_a, sum_b);
    }

    #[test]
    fn mask_counts_match_history_lengths() {
        let d = dataset();
        let refs: Vec<&Sample> = d.test.iter().take(8).collect();
        let b = Batch::from_samples(&refs, &d.schema);
        for (i, s) in refs.iter().enumerate() {
            assert_eq!(b.hist_len(i), s.hist[0].len().min(d.schema.seq_len));
        }
    }
}
