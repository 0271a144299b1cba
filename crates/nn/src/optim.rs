//! Adam optimiser with dense and lazy-sparse updates.

// R5 (DESIGN.md §7): this file is part of the ordered-reduction core of the
// determinism contract, so every float comparison and every value-changing
// numeric cast here must be explicit.
#![deny(
    clippy::float_cmp,
    clippy::cast_precision_loss,
    clippy::cast_possible_truncation
)]

use crate::graph::Graph;
use crate::store::{DenseId, ParamStore};
use miss_autograd::{Grads, Var};

/// Adam (Kingma & Ba, 2015) — the optimiser the paper uses — with optional
/// decoupled-from-nothing classic L2 regularisation added to the gradient.
///
/// Embedding gradients arrive as sparse `(table, indices, rows)` triples;
/// duplicates are merged and only the touched rows' moments are updated
/// ("lazy Adam"). Bias correction uses the global step count for both dense
/// and sparse parameters, matching the common framework implementations.
pub struct Adam {
    /// Learning rate.
    pub lr: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Denominator fuzz.
    pub eps: f32,
    /// L2 regularisation weight (applied to the gradient).
    pub l2: f32,
    t: u64,
    /// Sparse-merge scratch, one `u32` per row of each table: 0 for a row
    /// the current step has not touched, else 1 + its index in
    /// `merge_rows`. Grown to a table's vocabulary on first use; each step
    /// starts by zeroing the slots the previous one set, which `merge_rows`
    /// still lists even if that step unwound half-way.
    merge_slot: Vec<Vec<u32>>,
    /// Sparse-merge scratch: the `(table, row)`s touched this step, in
    /// order of first arrival, each with the offset of its summed gradient
    /// in `merge_buf`.
    merge_rows: Vec<(usize, usize, usize)>,
    /// Sparse-merge scratch: every touched row's summed gradient, one run
    /// of the table's dim each. All three buffers are reused, so steady-
    /// state steps allocate nothing on the sparse path.
    merge_buf: Vec<f32>,
}

impl Adam {
    /// Adam with the customary betas and the given learning rate / L2 weight.
    pub fn new(lr: f32, l2: f32) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            l2,
            t: 0,
            merge_slot: Vec::new(),
            merge_rows: Vec::new(),
            merge_buf: Vec::new(),
        }
    }

    /// Number of steps applied so far.
    pub fn steps(&self) -> u64 {
        self.t
    }

    /// Set the step counter, for resuming from a checkpoint. Bias correction
    /// depends on `t`, so a resumed optimiser must continue from the saved
    /// count (together with the moments stored in the [`ParamStore`]) for
    /// the resumed run to be bitwise identical to an uninterrupted one.
    pub fn restore_steps(&mut self, t: u64) {
        self.t = t;
    }

    /// Apply one step: dense gradients via the graph's bindings, sparse
    /// gradients from the backward result.
    pub fn step(&mut self, store: &mut ParamStore, graph: &Graph, grads: Grads) {
        self.step_with_bindings(store, graph.dense_bindings(), grads);
    }

    /// [`Adam::step`] with the `(DenseId, Var)` bindings passed explicitly.
    /// The trainer's micro-batch reduction uses this form: the reduced
    /// [`Grads`] lives in the first micro-batch's var numbering, whose graph
    /// has since been reset for the next shard, so the bindings travel with
    /// the gradients instead of with a live graph.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "integer cast only: the step counter reaches i32::MAX after 2^31 Adam steps, far beyond any run"
    )]
    pub fn step_with_bindings(
        &mut self,
        store: &mut ParamStore,
        bindings: &[(DenseId, Var)],
        mut grads: Grads,
    ) {
        self.t += 1;
        let t = self.t as i32;
        let bc1 = 1.0 - self.beta1.powi(t);
        let bc2 = 1.0 - self.beta2.powi(t);

        for &(id, var) in bindings {
            let Some(g) = grads.take(var) else { continue };
            let p = &mut store.dense[id.0];
            let (w, m, v) = (
                p.value.as_mut_slice(),
                p.m.as_mut_slice(),
                p.v.as_mut_slice(),
            );
            for i in 0..w.len() {
                let gi = g.as_slice()[i] + self.l2 * w[i];
                m[i] = self.beta1 * m[i] + (1.0 - self.beta1) * gi;
                v[i] = self.beta2 * v[i] + (1.0 - self.beta2) * gi * gi;
                let mhat = m[i] / bc1;
                let vhat = v[i] / bc2;
                w[i] -= self.lr * mhat / (vhat.sqrt() + self.eps);
            }
        }

        self.step_sparse(store, &grads, bc1, bc2);
    }

    /// Fused sparse merge + update. Each looked-up row's gradient is added
    /// into its `(table, row)`'s run of a flat scratch buffer, found through
    /// a per-table slot array, in arrival order: the order the backward
    /// passes emitted the rows, which the trainer's ordered reduction
    /// already fixed. Each unique row is then updated once. No sort, no
    /// hash map, no per-row heap allocation; a row's sum depends only on
    /// its own arrivals, and rows update independently, so the bits equal
    /// those of any merge that keeps each row's arrival order.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "a step touches at most one row per looked-up index, far fewer than u32::MAX"
    )]
    fn step_sparse(&mut self, store: &mut ParamStore, grads: &Grads, bc1: f32, bc2: f32) {
        for &(table_id, idx, _) in &self.merge_rows {
            self.merge_slot[table_id][idx] = 0;
        }
        self.merge_rows.clear();
        self.merge_buf.clear();
        if self.merge_slot.len() < store.tables.len() {
            self.merge_slot.resize_with(store.tables.len(), Vec::new);
        }
        for sg in &grads.sparse {
            let table = &store.tables[sg.table_id];
            let dim = table.dim;
            let slots = &mut self.merge_slot[sg.table_id];
            if slots.len() < table.rows() {
                slots.resize(table.rows(), 0);
            }
            for (r, &idx) in sg.indices.iter().enumerate() {
                let idx = idx as usize;
                let off = match slots[idx] {
                    0 => {
                        let off = self.merge_buf.len();
                        self.merge_buf.resize(off + dim, 0.0);
                        self.merge_rows.push((sg.table_id, idx, off));
                        slots[idx] = self.merge_rows.len() as u32;
                        off
                    }
                    s => self.merge_rows[s as usize - 1].2,
                };
                let row = sg.grad_rows.row(r);
                debug_assert_eq!(row.len(), dim, "grad row width != table dim");
                for (acc, &g) in self.merge_buf[off..off + dim].iter_mut().zip(row) {
                    *acc += g;
                }
            }
        }

        for &(table_id, idx, off) in &self.merge_rows {
            let table = &mut store.tables[table_id];
            let dim = table.dim;
            let at = idx * dim;
            let w = &mut table.value.as_mut_slice()[at..at + dim];
            let m = &mut table.m.as_mut_slice()[at..at + dim];
            let v = &mut table.v.as_mut_slice()[at..at + dim];
            for k in 0..dim {
                let gi = self.merge_buf[off + k] + self.l2 * w[k];
                m[k] = self.beta1 * m[k] + (1.0 - self.beta1) * gi;
                v[k] = self.beta2 * v[k] + (1.0 - self.beta2) * gi * gi;
                let mhat = m[k] / bc1;
                let vhat = v[k] / bc2;
                w[k] -= self.lr * mhat / (vhat.sqrt() + self.eps);
            }
        }
    }
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "tests assert bit-exact untouched values")]
mod tests {
    use super::*;
    use crate::init;
    use crate::store::ParamStore;

    /// Minimise (w - 3)² with Adam; w must approach 3.
    #[test]
    fn adam_converges_on_quadratic() {
        let mut store = ParamStore::new();
        let id = store.dense("w", 1, 1, init::zeros);
        let mut adam = Adam::new(0.1, 0.0);
        for _ in 0..300 {
            let mut g = Graph::new(&store);
            let w = g.param(&store, id);
            let c = g.input(miss_tensor::Tensor::scalar(3.0));
            let d = g.tape.sub(w, c);
            let loss = {
                let sq = g.tape.mul(d, d);
                g.tape.sum_all(sq)
            };
            let grads = g.tape.backward(loss);
            adam.step(&mut store, &g, grads);
        }
        let w = store.dense_value(id).item();
        assert!((w - 3.0).abs() < 1e-2, "w = {w}");
    }

    /// Sparse rows: only looked-up rows should move.
    #[test]
    fn sparse_update_touches_only_looked_up_rows() {
        let mut store = ParamStore::new();
        let t = store.table("e", 4, 2, init::constant(1.0));
        let mut adam = Adam::new(0.05, 0.0);
        for _ in 0..10 {
            let mut g = Graph::new(&store);
            let e = g.embed(&store, t, &[0, 2]);
            let loss = g.tape.sum_all(e);
            let grads = g.tape.backward(loss);
            adam.step(&mut store, &g, grads);
        }
        let tv = store.table_ref(t);
        assert!(tv.value.get(0, 0) < 1.0, "row 0 should have moved");
        assert!(tv.value.get(2, 0) < 1.0, "row 2 should have moved");
        assert_eq!(tv.value.get(1, 0), 1.0, "row 1 untouched");
        assert_eq!(tv.value.get(3, 1), 1.0, "row 3 untouched");
    }

    /// Duplicate indices in one batch must accumulate before the update
    /// (i.e. one Adam step sees the summed gradient).
    #[test]
    fn duplicate_indices_merge() {
        let mut s1 = ParamStore::new();
        let t1 = s1.table("e", 2, 1, init::constant(0.0));
        let mut a1 = Adam::new(0.1, 0.0);
        let mut g = Graph::new(&s1);
        let e = g.embed(&s1, t1, &[0, 0]);
        let loss = g.tape.sum_all(e);
        let grads = g.tape.backward(loss);
        a1.step(&mut s1, &g, grads);

        // vs a single lookup scaled by 2
        let mut s2 = ParamStore::new();
        let t2 = s2.table("e", 2, 1, init::constant(0.0));
        let mut a2 = Adam::new(0.1, 0.0);
        let mut g2 = Graph::new(&s2);
        let e2 = g2.embed(&s2, t2, &[0]);
        let scaled = g2.tape.scale(e2, 2.0);
        let loss2 = g2.tape.sum_all(scaled);
        let grads2 = g2.tape.backward(loss2);
        a2.step(&mut s2, &g2, grads2);

        assert!(
            (s1.table_ref(t1).value.get(0, 0) - s2.table_ref(t2).value.get(0, 0)).abs() < 1e-6,
            "merged duplicate update must equal single summed update"
        );
    }

    /// Duplicates arriving in *different* SparseGrad entries (the shape the
    /// micro-batch reduction produces) must merge exactly like duplicates
    /// inside one entry.
    #[test]
    fn duplicates_across_sparse_grads_merge() {
        let mut s1 = ParamStore::new();
        let t1 = s1.table("e", 3, 2, init::constant(0.0));
        let mut a1 = Adam::new(0.1, 0.0);
        let mut g = Graph::new(&s1);
        // Two separate lookups of row 1 -> two SparseGrad entries.
        let ea = g.embed(&s1, t1, &[1, 2]);
        let eb = g.embed(&s1, t1, &[1]);
        let sa = g.tape.sum_all(ea);
        let sb = g.tape.sum_all(eb);
        let loss = g.tape.add(sa, sb);
        let grads = g.tape.backward(loss);
        a1.step(&mut s1, &g, grads);

        // Reference: one lookup of row 1 scaled by 2.
        let mut s2 = ParamStore::new();
        let t2 = s2.table("e", 3, 2, init::constant(0.0));
        let mut a2 = Adam::new(0.1, 0.0);
        let mut g2 = Graph::new(&s2);
        let e1 = g2.embed(&s2, t2, &[1]);
        let e2 = g2.embed(&s2, t2, &[2]);
        let doubled = g2.tape.scale(e1, 2.0);
        let s = g2.tape.sum_all(doubled);
        let s2b = g2.tape.sum_all(e2);
        let loss2 = g2.tape.add(s, s2b);
        let grads2 = g2.tape.backward(loss2);
        a2.step(&mut s2, &g2, grads2);

        for row in 0..3 {
            for c in 0..2 {
                assert_eq!(
                    s1.table_ref(t1).value.get(row, c),
                    s2.table_ref(t2).value.get(row, c),
                    "row {row} col {c} diverged"
                );
            }
        }
    }

    /// Tables of different dims in one step: the fused merge must size its
    /// scratch per table and keep each table's rows contiguous.
    #[test]
    fn sparse_merge_handles_mixed_table_dims() {
        let mut store = ParamStore::new();
        let ta = store.table("a", 4, 2, init::constant(1.0));
        let tb = store.table("b", 4, 5, init::constant(1.0));
        let mut adam = Adam::new(0.05, 0.0);
        for _ in 0..3 {
            let mut g = Graph::new(&store);
            let ea = g.embed(&store, ta, &[3, 0, 3]);
            let eb = g.embed(&store, tb, &[2, 2]);
            let sa = g.tape.sum_all(ea);
            let sb = g.tape.sum_all(eb);
            let loss = g.tape.add(sa, sb);
            let grads = g.tape.backward(loss);
            adam.step(&mut store, &g, grads);
        }
        assert!(store.table_ref(ta).value.get(0, 0) < 1.0);
        assert!(store.table_ref(ta).value.get(3, 1) < 1.0);
        assert!(store.table_ref(tb).value.get(2, 4) < 1.0);
        assert_eq!(store.table_ref(ta).value.get(1, 0), 1.0, "untouched row moved");
        assert_eq!(store.table_ref(tb).value.get(0, 0), 1.0, "untouched row moved");
    }

    #[test]
    fn l2_pulls_weights_toward_zero() {
        let mut store = ParamStore::new();
        let id = store.dense("w", 1, 1, init::constant(5.0));
        let mut adam = Adam::new(0.05, 0.1);
        for _ in 0..400 {
            let mut g = Graph::new(&store);
            let w = g.param(&store, id);
            // loss independent of w: only L2 acts
            let loss = g.tape.scale(w, 0.0);
            let loss = g.tape.sum_all(loss);
            let grads = g.tape.backward(loss);
            adam.step(&mut store, &g, grads);
        }
        assert!(store.dense_value(id).item().abs() < 0.5);
    }
}

#[cfg(test)]
mod bias_correction_tests {
    use super::*;
    use crate::graph::Graph;
    use crate::init;
    use crate::store::ParamStore;

    /// Adam's first step must move the weight by ~lr regardless of the raw
    /// gradient magnitude (the bias-corrected signal-to-noise is 1).
    #[test]
    fn first_step_magnitude_is_lr() {
        for &grad_scale in &[0.01f32, 1.0, 100.0] {
            let mut store = ParamStore::new();
            let id = store.dense("w", 1, 1, init::constant(0.0));
            let mut adam = Adam::new(0.05, 0.0);
            let mut g = Graph::new(&store);
            let w = g.param(&store, id);
            let scaled = g.tape.scale(w, grad_scale);
            let loss = g.tape.sum_all(scaled);
            let grads = g.tape.backward(loss);
            adam.step(&mut store, &g, grads);
            let step = store.dense_value(id).item().abs();
            assert!(
                (step - 0.05).abs() < 1e-3,
                "grad scale {grad_scale}: step {step} != lr"
            );
        }
    }

    /// Step counter advances once per call, not per parameter.
    #[test]
    fn step_counter() {
        let mut store = ParamStore::new();
        let a = store.dense("a", 1, 1, init::constant(1.0));
        let _b = store.dense("b", 2, 2, init::constant(1.0));
        let mut adam = Adam::new(0.01, 0.0);
        for _ in 0..3 {
            let mut g = Graph::new(&store);
            let w = g.param(&store, a);
            let loss = g.tape.sum_all(w);
            let grads = g.tape.backward(loss);
            adam.step(&mut store, &g, grads);
        }
        assert_eq!(adam.steps(), 3);
    }
}
