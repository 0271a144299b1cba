//! Recurrent cells: GRU (DIEN's interest extractor) and AUGRU (DIEN's
//! attention-gated interest evolving layer), plus an LSTM cell used by the
//! MISS-LSTM extractor variant (Table VIII).

use crate::graph::Graph;
use crate::layers::Linear;
use crate::store::ParamStore;
use miss_autograd::Var;
use miss_util::Rng;

/// Gated recurrent unit over a batch: state and input are `B×dim` matrices.
pub struct GruCell {
    xz: Linear,
    hz: Linear,
    xr: Linear,
    hr: Linear,
    xh: Linear,
    hh: Linear,
    hidden: usize,
}

impl GruCell {
    /// Create a GRU cell mapping `in_dim` inputs to `hidden` state.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        in_dim: usize,
        hidden: usize,
        rng: &mut Rng,
    ) -> Self {
        GruCell {
            xz: Linear::new(store, &format!("{name}.xz"), in_dim, hidden, rng),
            hz: Linear::new(store, &format!("{name}.hz"), hidden, hidden, rng),
            xr: Linear::new(store, &format!("{name}.xr"), in_dim, hidden, rng),
            hr: Linear::new(store, &format!("{name}.hr"), hidden, hidden, rng),
            xh: Linear::new(store, &format!("{name}.xh"), in_dim, hidden, rng),
            hh: Linear::new(store, &format!("{name}.hh"), hidden, hidden, rng),
            hidden,
        }
    }

    /// State width.
    pub fn hidden(&self) -> usize {
        self.hidden
    }

    /// Gates for one step; shared by GRU and AUGRU updates.
    fn gates(&self, g: &mut Graph, store: &ParamStore, x: Var, h: Var) -> (Var, Var) {
        let z = {
            let a = self.xz.forward(g, store, x);
            let b = self.hz.forward(g, store, h);
            let s = g.tape.add(a, b);
            g.tape.sigmoid(s)
        };
        let r = {
            let a = self.xr.forward(g, store, x);
            let b = self.hr.forward(g, store, h);
            let s = g.tape.add(a, b);
            g.tape.sigmoid(s)
        };
        let h_tilde = {
            let a = self.xh.forward(g, store, x);
            let rh = g.tape.mul(r, h);
            let b = self.hh.forward(g, store, rh);
            let s = g.tape.add(a, b);
            g.tape.tanh(s)
        };
        (z, h_tilde)
    }

    /// Standard GRU step: `h' = (1−z)⊙h + z⊙h̃`.
    pub fn step(&self, g: &mut Graph, store: &ParamStore, x: Var, h: Var) -> Var {
        g.scope(|g| {
            let (z, h_tilde) = self.gates(g, store, x, h);
            let one_minus_z = {
                let nz = g.tape.scale(z, -1.0);
                g.tape.add_scalar(nz, 1.0)
            };
            let keep = g.tape.mul(one_minus_z, h);
            let upd = g.tape.mul(z, h_tilde);
            g.tape.add(keep, upd)
        })
    }
}

/// AUGRU: GRU whose update gate is scaled by a per-sample attention score
/// (`B×1`), as in DIEN's interest-evolving layer.
pub struct AuGruCell {
    inner: GruCell,
}

impl AuGruCell {
    /// Create an AUGRU cell.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        in_dim: usize,
        hidden: usize,
        rng: &mut Rng,
    ) -> Self {
        AuGruCell {
            inner: GruCell::new(store, name, in_dim, hidden, rng),
        }
    }

    /// Attention-gated step: `z' = a ⊙ z`, `h' = (1−z')⊙h + z'⊙h̃`.
    /// `att` is a `B×1` column of attention scores.
    pub fn step(&self, g: &mut Graph, store: &ParamStore, x: Var, h: Var, att: Var) -> Var {
        g.scope(|g| {
            let (z, h_tilde) = self.inner.gates(g, store, x, h);
            let z_att = g.tape.mul_col(z, att);
            let one_minus = {
                let nz = g.tape.scale(z_att, -1.0);
                g.tape.add_scalar(nz, 1.0)
            };
            let keep = g.tape.mul(one_minus, h);
            let upd = g.tape.mul(z_att, h_tilde);
            g.tape.add(keep, upd)
        })
    }
}

/// LSTM cell (Hochreiter & Schmidhuber), used by the MISS-LSTM extractor
/// ablation. State is the `(h, c)` pair of `B×hidden` matrices.
pub struct LstmCell {
    xi: Linear,
    hi: Linear,
    xf: Linear,
    hf: Linear,
    xo: Linear,
    ho: Linear,
    xc: Linear,
    hc: Linear,
    hidden: usize,
}

impl LstmCell {
    /// Create an LSTM cell mapping `in_dim` inputs to `hidden` state.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        in_dim: usize,
        hidden: usize,
        rng: &mut Rng,
    ) -> Self {
        LstmCell {
            xi: Linear::new(store, &format!("{name}.xi"), in_dim, hidden, rng),
            hi: Linear::new(store, &format!("{name}.hi"), hidden, hidden, rng),
            xf: Linear::new(store, &format!("{name}.xf"), in_dim, hidden, rng),
            hf: Linear::new(store, &format!("{name}.hf"), hidden, hidden, rng),
            xo: Linear::new(store, &format!("{name}.xo"), in_dim, hidden, rng),
            ho: Linear::new(store, &format!("{name}.ho"), hidden, hidden, rng),
            xc: Linear::new(store, &format!("{name}.xc"), in_dim, hidden, rng),
            hc: Linear::new(store, &format!("{name}.hc"), hidden, hidden, rng),
            hidden,
        }
    }

    /// State width.
    pub fn hidden(&self) -> usize {
        self.hidden
    }

    /// One step; returns the new `(h, c)`.
    pub fn step(
        &self,
        g: &mut Graph,
        store: &ParamStore,
        x: Var,
        h: Var,
        c: Var,
    ) -> (Var, Var) {
        let gate = |g: &mut Graph, xs: &Linear, hs: &Linear, store: &ParamStore| {
            let a = xs.forward(g, store, x);
            let b = hs.forward(g, store, h);
            g.tape.add(a, b)
        };
        let i = {
            let s = gate(g, &self.xi, &self.hi, store);
            g.tape.sigmoid(s)
        };
        let f = {
            let s = gate(g, &self.xf, &self.hf, store);
            g.tape.sigmoid(s)
        };
        let o = {
            let s = gate(g, &self.xo, &self.ho, store);
            g.tape.sigmoid(s)
        };
        let c_tilde = {
            let s = gate(g, &self.xc, &self.hc, store);
            g.tape.tanh(s)
        };
        let fc = g.tape.mul(f, c);
        let ic = g.tape.mul(i, c_tilde);
        let c_new = g.tape.add(fc, ic);
        let tc = g.tape.tanh(c_new);
        let h_new = g.tape.mul(o, tc);
        (h_new, c_new)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optim::Adam;
    use miss_tensor::Tensor;

    #[test]
    fn gru_shapes_and_bounded_state() {
        let mut store = ParamStore::new();
        let mut rng = Rng::new(0);
        let cell = GruCell::new(&mut store, "gru", 4, 6, &mut rng);
        let mut g = Graph::new(&store);
        let x = g.input(Tensor::full(3, 4, 0.5));
        let mut h = g.input(Tensor::zeros(3, 6));
        for _ in 0..5 {
            h = cell.step(&mut g, &store, x, h);
        }
        assert_eq!(g.tape.shape(h), (3, 6));
        assert!(g.tape.value(h).as_slice().iter().all(|v| v.abs() <= 1.0));
    }

    #[test]
    fn augru_zero_attention_freezes_state() {
        let mut store = ParamStore::new();
        let mut rng = Rng::new(1);
        let cell = AuGruCell::new(&mut store, "augru", 4, 6, &mut rng);
        let mut g = Graph::new(&store);
        let x = g.input(Tensor::full(2, 4, 1.0));
        let h0 = g.input(Tensor::full(2, 6, 0.3));
        let att = g.input(Tensor::zeros(2, 1));
        let h1 = cell.step(&mut g, &store, x, h0, att);
        assert_eq!(g.tape.value(h1).as_slice(), g.tape.value(h0).as_slice());
    }

    #[test]
    fn lstm_shapes() {
        let mut store = ParamStore::new();
        let mut rng = Rng::new(2);
        let cell = LstmCell::new(&mut store, "lstm", 3, 5, &mut rng);
        let mut g = Graph::new(&store);
        let x = g.input(Tensor::full(2, 3, 0.1));
        let h = g.input(Tensor::zeros(2, 5));
        let c = g.input(Tensor::zeros(2, 5));
        let (h1, c1) = cell.step(&mut g, &store, x, h, c);
        assert_eq!(g.tape.shape(h1), (2, 5));
        assert_eq!(g.tape.shape(c1), (2, 5));
    }

    /// A one-step GRU must be able to learn to copy its input sign — checks
    /// gradients flow through the recurrent composite.
    #[test]
    fn gru_learns_simple_mapping() {
        let mut store = ParamStore::new();
        let mut rng = Rng::new(3);
        let cell = GruCell::new(&mut store, "g", 1, 4, &mut rng);
        let head = Linear::new(&mut store, "head", 4, 1, &mut rng);
        let mut adam = Adam::new(0.05, 0.0);
        let xs = Tensor::from_vec(4, 1, vec![-1.0, -0.5, 0.5, 1.0]);
        let ys = Tensor::from_vec(4, 1, vec![0.0, 0.0, 1.0, 1.0]);
        let mut last = f32::MAX;
        for _ in 0..300 {
            let mut g = Graph::new(&store);
            let x = g.input(xs.clone());
            let h0 = g.input(Tensor::zeros(4, 4));
            let h = cell.step(&mut g, &store, x, h0);
            let logits = head.forward(&mut g, &store, h);
            let loss = g.tape.bce_with_logits_mean(logits, ys.clone());
            last = g.tape.value(loss).item();
            let grads = g.tape.backward(loss);
            adam.step(&mut store, &g, grads);
        }
        assert!(last < 0.15, "GRU failed to fit sign task: {last}");
    }
}
