//! Dense layers and activations.

use crate::graph::Graph;
use crate::init;
use crate::store::{DenseId, ParamStore};
use miss_autograd::{LinearAct, Var};
use miss_util::Rng;

/// Activation selector for [`Mlp`] layers.
#[derive(Clone, Copy, Debug)]
pub enum Activation {
    /// Identity (output layers).
    Linear,
    /// ReLU.
    Relu,
    /// Sigmoid.
    Sigmoid,
    /// Tanh.
    Tanh,
    /// Parametric ReLU with a learnable scalar slope (DIN-style).
    PRelu(DenseId),
}

impl Activation {
    /// Apply to a tape value.
    pub fn apply(self, g: &mut Graph, store: &ParamStore, x: Var) -> Var {
        match self {
            Activation::Linear => x,
            Activation::Relu => g.tape.relu(x),
            Activation::Sigmoid => g.tape.sigmoid(x),
            Activation::Tanh => g.tape.tanh(x),
            Activation::PRelu(id) => {
                let a = g.param(store, id);
                g.tape.prelu(x, a)
            }
        }
    }

    /// The GEMM-epilogue form of this activation, if it has one. Tanh and
    /// PReLU stay unfused: their backward needs state the epilogue store
    /// doesn't keep (PReLU's slope is itself a parameter).
    pub fn fused(self) -> Option<LinearAct> {
        match self {
            Activation::Linear => Some(LinearAct::Identity),
            Activation::Relu => Some(LinearAct::Relu),
            Activation::Sigmoid => Some(LinearAct::Sigmoid),
            Activation::Tanh | Activation::PRelu(_) => None,
        }
    }
}

/// Affine layer `x @ W + b`.
pub struct Linear {
    w: DenseId,
    b: DenseId,
    in_dim: usize,
    out_dim: usize,
}

impl Linear {
    /// Create (or fetch by name) a `in_dim → out_dim` affine layer.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        in_dim: usize,
        out_dim: usize,
        rng: &mut Rng,
    ) -> Self {
        let w = store.dense(&format!("{name}.w"), in_dim, out_dim, init::xavier(rng));
        let b = store.dense(&format!("{name}.b"), 1, out_dim, init::zeros);
        Linear {
            w,
            b,
            in_dim,
            out_dim,
        }
    }

    /// Forward pass.
    pub fn forward(&self, g: &mut Graph, store: &ParamStore, x: Var) -> Var {
        self.forward_act(g, store, x, Activation::Linear)
    }

    /// Forward pass with `act` applied, fused into the GEMM epilogue when the
    /// activation supports it (one kernel pass instead of matmul + bias +
    /// activation), falling back to the unfused chain otherwise.
    pub fn forward_act(&self, g: &mut Graph, store: &ParamStore, x: Var, act: Activation) -> Var {
        debug_assert_eq!(g.tape.shape(x).1, self.in_dim, "Linear input width");
        match act.fused() {
            Some(fused) => g.linear(store, x, self.w, self.b, fused),
            None => {
                let w = g.param(store, self.w);
                let b = g.param(store, self.b);
                let xw = g.tape.matmul(x, w);
                let z = g.tape.add_bias(xw, b);
                act.apply(g, store, z)
            }
        }
    }

    /// Output width.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }
}

/// Multi-layer perceptron. The paper's deep component uses sizes
/// `{40, 40, 40, 1}` with ReLU between layers and a linear final layer
/// (the sigmoid lives in the loss); encoders use `{20, 20}` / `{10, 10}`.
pub struct Mlp {
    layers: Vec<Linear>,
    hidden_act: Activation,
    final_act: Activation,
    out_dim: usize,
}

impl Mlp {
    /// Build an MLP mapping `in_dim` through `sizes` (last entry = output).
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        in_dim: usize,
        sizes: &[usize],
        hidden_act: Activation,
        final_act: Activation,
        rng: &mut Rng,
    ) -> Self {
        assert!(!sizes.is_empty(), "MLP needs at least one layer");
        let mut layers = Vec::with_capacity(sizes.len());
        let mut d = in_dim;
        for (i, &s) in sizes.iter().enumerate() {
            layers.push(Linear::new(store, &format!("{name}.l{i}"), d, s, rng));
            d = s;
        }
        Mlp {
            layers,
            hidden_act,
            final_act,
            out_dim: d,
        }
    }

    /// Convenience: ReLU hidden activations, linear output.
    pub fn relu_tower(
        store: &mut ParamStore,
        name: &str,
        in_dim: usize,
        sizes: &[usize],
        rng: &mut Rng,
    ) -> Self {
        Self::new(
            store,
            name,
            in_dim,
            sizes,
            Activation::Relu,
            Activation::Linear,
            rng,
        )
    }

    /// Forward pass.
    pub fn forward(&self, g: &mut Graph, store: &ParamStore, x: Var) -> Var {
        let mut h = x;
        let n = self.layers.len();
        for (i, layer) in self.layers.iter().enumerate() {
            let act = if i + 1 == n {
                self.final_act
            } else {
                self.hidden_act
            };
            h = layer.forward_act(g, store, h, act);
        }
        h
    }

    /// Output width of the final layer (recorded at construction, so no
    /// panic path in code the trainer's forward passes touch).
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optim::Adam;
    use miss_tensor::Tensor;

    #[test]
    fn linear_shapes() {
        let mut store = ParamStore::new();
        let mut rng = Rng::new(0);
        let lin = Linear::new(&mut store, "l", 3, 5, &mut rng);
        let mut g = Graph::new(&store);
        let x = g.input(Tensor::zeros(7, 3));
        let y = lin.forward(&mut g, &store, x);
        assert_eq!(g.tape.shape(y), (7, 5));
    }

    #[test]
    fn mlp_shapes_and_param_count() {
        let mut store = ParamStore::new();
        let mut rng = Rng::new(0);
        let mlp = Mlp::relu_tower(&mut store, "m", 10, &[40, 40, 40, 1], &mut rng);
        assert_eq!(mlp.out_dim(), 1);
        let mut g = Graph::new(&store);
        let x = g.input(Tensor::zeros(4, 10));
        let y = mlp.forward(&mut g, &store, x);
        assert_eq!(g.tape.shape(y), (4, 1));
        // params: 10*40+40 + 40*40+40 + 40*40+40 + 40*1+1
        assert_eq!(store.num_params(), 10 * 40 + 40 + 2 * (40 * 40 + 40) + 40 + 1);
    }

    /// An MLP must be able to fit XOR — a sanity check that the whole
    /// layer/optimiser stack learns a non-linear function end to end.
    #[test]
    fn mlp_learns_xor() {
        let mut store = ParamStore::new();
        let mut rng = Rng::new(42);
        let mlp = Mlp::relu_tower(&mut store, "xor", 2, &[8, 8, 1], &mut rng);
        let mut adam = Adam::new(0.05, 0.0);
        let xs = Tensor::from_vec(4, 2, vec![0., 0., 0., 1., 1., 0., 1., 1.]);
        let ys = Tensor::from_vec(4, 1, vec![0., 1., 1., 0.]);
        let mut final_loss = f32::MAX;
        for _ in 0..500 {
            let mut g = Graph::new(&store);
            let x = g.input(xs.clone());
            let logits = mlp.forward(&mut g, &store, x);
            let loss = g.tape.bce_with_logits_mean(logits, ys.clone());
            final_loss = g.tape.value(loss).item();
            let grads = g.tape.backward(loss);
            adam.step(&mut store, &g, grads);
        }
        assert!(final_loss < 0.1, "XOR loss stuck at {final_loss}");
    }

    #[test]
    fn prelu_activation_learns_slope() {
        let mut store = ParamStore::new();
        let slope = store.dense("a", 1, 1, init::constant(0.25));
        let act = Activation::PRelu(slope);
        let mut g = Graph::new(&store);
        let x = g.input(Tensor::from_vec(1, 2, vec![-2.0, 3.0]));
        let y = act.apply(&mut g, &store, x);
        assert_eq!(g.tape.value(y).as_slice(), &[-0.5, 3.0]);
    }
}
