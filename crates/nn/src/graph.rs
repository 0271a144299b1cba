//! One step's binding between a tape and the parameter store, for training
//! or for inference.

use crate::store::{DenseId, ParamStore, TableId};
use miss_autograd::{LinearAct, Tape, Var};
use miss_tensor::{PackedB, Tensor};
use miss_util::Rng;

/// A forward/backward step: wraps a [`Tape`] and records which tape leaves
/// correspond to which store parameters so the optimiser can route
/// gradients back.
///
/// Parameter leaves are cached: asking for the same [`DenseId`] twice returns
/// the same [`Var`], so fan-out accumulates into one gradient.
///
/// A graph built with [`Graph::inference`] runs the same model code with no
/// backward state: parameters and embedding rows are tape constants, so no
/// op boxes a backward closure, and [`Graph::scope`] frees intermediates as
/// soon as they are consumed.
pub struct Graph {
    /// The underlying autodiff tape (public: ops are called directly on it).
    pub tape: Tape,
    dense_bindings: Vec<(DenseId, Var)>,
    dense_cache: Vec<Option<Var>>,
    /// Values a training forward leaves for its model's `extra_loss` on
    /// the same graph (DIEN's GRU states). [`Graph::reset`] clears them.
    pub carry: Vec<Var>,
    /// `Some` in inference mode: each dense parameter's weight panels,
    /// packed on first use by [`Graph::linear`] and kept across resets.
    packed: Option<Vec<Option<PackedB>>>,
}

impl Graph {
    /// Start a training step over `store`'s current parameter values.
    pub fn new(store: &ParamStore) -> Self {
        Graph {
            tape: Tape::new(),
            dense_bindings: Vec::new(),
            dense_cache: vec![None; store.dense.len()],
            carry: Vec::new(),
            packed: None,
        }
    }

    /// An inference graph over `store`, which must not change while the
    /// graph lives. Every dense parameter is bound once, as a tape constant
    /// in slot `id`, and [`Graph::reset`] keeps that prefix, so reusing the
    /// graph never copies a weight again. Nothing recorded on it requires a
    /// gradient.
    pub fn inference(store: &ParamStore) -> Self {
        let n = store.dense.len();
        let mut tape = Tape::new();
        let dense_cache = store
            .dense
            .iter()
            .map(|p| Some(tape.constant(p.value.clone())))
            .collect();
        Graph {
            tape,
            dense_bindings: Vec::new(),
            dense_cache,
            carry: Vec::new(),
            packed: Some((0..n).map(|_| None).collect()),
        }
    }

    /// Whether this graph was built by [`Graph::inference`].
    fn is_inference(&self) -> bool {
        self.packed.is_some()
    }

    /// Clear the step's recordings while keeping the tape's arena capacity,
    /// so one `Graph` can serve a whole batch loop without reallocating.
    /// Outstanding [`Var`]s are invalidated; parameter leaves re-bind to
    /// `store`'s current values on next use. An inference graph keeps its
    /// parameter constants.
    pub fn reset(&mut self, store: &ParamStore) {
        self.carry.clear();
        if let Some(packed) = &self.packed {
            self.tape.truncate(packed.len());
            return;
        }
        self.tape.reset();
        self.dense_bindings.clear();
        self.dense_cache.clear();
        self.dense_cache.resize(store.dense.len(), None);
    }

    /// Run `f` as one unit and return its result. In training this is the
    /// identity. In inference every value `f` records is dropped except the
    /// returned one, so a loop body or a layer holds its intermediates only
    /// while it runs; [`Var`]s recorded inside `f` are invalid afterwards.
    pub fn scope(&mut self, f: impl FnOnce(&mut Graph) -> Var) -> Var {
        let start = self.tape.len();
        let out = f(self);
        if self.is_inference() {
            self.tape.keep_only(start, out)
        } else {
            out
        }
    }

    /// Bind a dense parameter as a differentiable leaf (cached per id); an
    /// inference graph returns its constant.
    pub fn param(&mut self, store: &ParamStore, id: DenseId) -> Var {
        if let Some(Some(v)) = self.dense_cache.get(id.0) {
            return *v;
        }
        let var = self.tape.leaf(store.dense_value(id).clone());
        if id.0 >= self.dense_cache.len() {
            self.dense_cache.resize(id.0 + 1, None);
        }
        self.dense_cache[id.0] = Some(var);
        self.dense_bindings.push((id, var));
        var
    }

    /// Fused `act(x @ w + b)` over the dense parameters `w` and `b`. An
    /// inference graph multiplies against `w`'s panels packed once per
    /// graph; the kernel is the same, so the bits are too.
    pub fn linear(
        &mut self,
        store: &ParamStore,
        x: Var,
        w: DenseId,
        b: DenseId,
        act: LinearAct,
    ) -> Var {
        let wv = self.param(store, w);
        let bv = self.param(store, b);
        let Some(packed) = &mut self.packed else {
            return self.tape.linear(x, wv, bv, act);
        };
        let tape = &self.tape;
        let panels = packed[w.0].get_or_insert_with(|| PackedB::pack(tape.value(wv)));
        let y = tape
            .value(x)
            .matmul_nn_ep_prepacked(panels, act.epilogue(tape.value(bv).as_slice()));
        self.tape.constant(y)
    }

    /// Embedding lookup: gathers `indices` rows of the table. A training
    /// graph records a sparse-gradient node, an inference graph a constant.
    pub fn embed(&mut self, store: &ParamStore, id: TableId, indices: &[u32]) -> Var {
        let rows = store.table_ref(id).gather(indices);
        if self.is_inference() {
            return self.tape.constant(rows);
        }
        self.tape.embed(id.0, rows, indices.to_vec())
    }

    /// Record mini-batch data (no gradient).
    pub fn input(&mut self, data: Tensor) -> Var {
        self.tape.constant(data)
    }

    /// The `(DenseId, Var)` bindings accumulated so far (for the optimiser).
    pub fn dense_bindings(&self) -> &[(DenseId, Var)] {
        &self.dense_bindings
    }
}

/// Inverted dropout: at train time zero each element with probability `p`
/// and scale survivors by `1/(1-p)`; identity at eval time or `p == 0`.
pub fn dropout(g: &mut Graph, x: Var, p: f32, training: bool, rng: &mut Rng) -> Var {
    if !training || p <= 0.0 {
        return x;
    }
    assert!(p < 1.0, "dropout probability must be < 1");
    let (r, c) = g.tape.shape(x);
    let keep = 1.0 - p;
    let mask = Tensor::from_fn(r, c, |_, _| {
        if rng.bool(p as f64) {
            0.0
        } else {
            1.0 / keep
        }
    });
    g.tape.mask(x, mask)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init;

    #[test]
    fn param_leaves_are_cached() {
        let mut store = ParamStore::new();
        let id = store.dense("w", 2, 2, |r, c| Tensor::full(r, c, 1.0));
        let mut g = Graph::new(&store);
        let a = g.param(&store, id);
        let b = g.param(&store, id);
        assert_eq!(a, b);
        assert_eq!(g.dense_bindings().len(), 1);
    }

    #[test]
    fn fanout_param_accumulates_single_gradient() {
        let mut store = ParamStore::new();
        let id = store.dense("w", 1, 2, |r, c| Tensor::from_vec(r, c, vec![2.0, 3.0]));
        let mut g = Graph::new(&store);
        let w = g.param(&store, id);
        let w2 = g.param(&store, id);
        let y = g.tape.mul(w, w2); // w ⊙ w
        let loss = g.tape.sum_all(y);
        let grads = g.tape.backward(loss);
        // d/dw sum(w²) = 2w
        assert_eq!(grads.expect(w).as_slice(), &[4.0, 6.0]);
    }

    #[test]
    fn reset_reuses_graph_across_steps() {
        let mut store = ParamStore::new();
        let id = store.dense("w", 1, 2, |r, c| Tensor::from_vec(r, c, vec![2.0, 3.0]));
        let mut g = Graph::new(&store);
        let w = g.param(&store, id);
        let y = g.tape.mul(w, w);
        let loss = g.tape.sum_all(y);
        let grads = g.tape.backward(loss);
        assert_eq!(grads.expect(w).as_slice(), &[4.0, 6.0]);

        // Second step on the same Graph must behave exactly like a fresh one.
        g.reset(&store);
        assert!(g.tape.is_empty());
        assert!(g.dense_bindings().is_empty());
        let w = g.param(&store, id);
        let y = g.tape.mul(w, w);
        let loss = g.tape.sum_all(y);
        let grads = g.tape.backward(loss);
        assert_eq!(grads.expect(w).as_slice(), &[4.0, 6.0]);
        assert_eq!(g.dense_bindings().len(), 1);
    }

    #[test]
    fn embed_flows_to_sparse() {
        let mut store = ParamStore::new();
        let t = store.table("e", 3, 2, init::zeros);
        let mut g = Graph::new(&store);
        let e = g.embed(&store, t, &[1, 1, 2]);
        let loss = g.tape.sum_all(e);
        let grads = g.tape.backward(loss);
        assert_eq!(grads.sparse.len(), 1);
        assert_eq!(grads.sparse[0].indices, vec![1, 1, 2]);
    }

    #[test]
    fn scope_is_identity_in_training_and_frees_in_inference() {
        let mut store = ParamStore::new();
        let id = store.dense("w", 1, 2, |r, c| Tensor::from_vec(r, c, vec![2.0, 3.0]));
        let body = |g: &mut Graph| {
            let w = g.param(&store, id);
            let x = g.input(Tensor::from_vec(1, 2, vec![1.0, -1.0]));
            let y = g.tape.mul(w, x);
            g.tape.add(y, x)
        };

        let mut g = Graph::new(&store);
        let out = g.scope(body);
        assert_eq!(g.tape.len(), 4, "training keeps every recorded value");
        assert_eq!(g.tape.value(out).as_slice(), &[3.0, -4.0]);

        let mut g = Graph::inference(&store);
        let start = g.tape.len();
        let out = g.scope(body);
        assert_eq!(g.tape.len(), start + 1, "inference keeps only the result");
        assert_eq!(g.tape.value(out).as_slice(), &[3.0, -4.0]);
        assert!(!g.tape.requires_grad(out));
        g.reset(&store);
        assert_eq!(g.tape.len(), start, "reset keeps the parameter prefix");
    }

    #[test]
    fn dropout_eval_is_identity() {
        let mut store = ParamStore::new();
        let mut g = Graph::new(&store);
        let _ = &mut store;
        let x = g.input(Tensor::full(4, 4, 2.0));
        let mut rng = Rng::new(0);
        let y = dropout(&mut g, x, 0.5, false, &mut rng);
        assert_eq!(y, x);
    }

    #[test]
    fn dropout_train_preserves_mean() {
        let store = ParamStore::new();
        let mut g = Graph::new(&store);
        let x = g.input(Tensor::full(100, 100, 1.0));
        let mut rng = Rng::new(1);
        let y = dropout(&mut g, x, 0.3, true, &mut rng);
        let mean = g.tape.value(y).mean_all();
        assert!((mean - 1.0).abs() < 0.05, "inverted dropout mean {mean}");
        let zeros = g
            .tape
            .value(y)
            .as_slice()
            .iter()
            .filter(|&&v| v == 0.0)
            .count();
        let frac = zeros as f64 / 10_000.0;
        assert!((frac - 0.3).abs() < 0.03, "drop fraction {frac}");
    }
}
