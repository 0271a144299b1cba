//! Fused affine + activation.
//!
//! `Tape::linear` runs `act(x @ w + bias)` as a *single* GEMM: the bias add
//! and the activation ride in the kernel's accumulator-store tail via
//! [`miss_tensor::GemmEpilogue`], so the MLP forward stops making separate
//! full-matrix passes for bias and nonlinearity. The backward pass is the
//! composition of the unfused ops' backwards — the epilogue only changes
//! *when* the pointwise math runs, not what it computes — so gradients are
//! identical (up to the documented ≤ 4 ULP forward rounding difference).

use crate::tape::{Tape, Var};
use miss_tensor::{GemmEpilogue, Tensor};

/// Activation fused into the GEMM epilogue by [`Tape::linear`].
///
/// Only activations whose derivative is recoverable from the *output* are
/// fusable (no need to materialise the pre-activation): identity, ReLU
/// (`dz = g·1[y>0]`) and sigmoid (`dz = g·y·(1−y)`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LinearAct {
    /// `y = x@w + b`.
    Identity,
    /// `y = max(x@w + b, 0)`.
    Relu,
    /// `y = σ(x@w + b)`.
    Sigmoid,
}

impl LinearAct {
    /// The GEMM epilogue applying this activation after adding `bias`.
    pub fn epilogue(self, bias: &[f32]) -> GemmEpilogue<'_> {
        match self {
            LinearAct::Identity => GemmEpilogue::AddBias(bias),
            LinearAct::Relu => GemmEpilogue::AddBiasRelu(bias),
            LinearAct::Sigmoid => GemmEpilogue::AddBiasSigmoid(bias),
        }
    }
}

impl Tape {
    /// Fused `act(x (m×k) @ w (k×n) + bias (1×n))`.
    pub fn linear(&mut self, x: Var, w: Var, bias: Var, act: LinearAct) -> Var {
        let n = self.shape(w).1;
        assert_eq!(self.shape(bias), (1, n), "linear bias must be 1×{n}");
        let value = self
            .value(x)
            .matmul_nn_ep(self.value(w), act.epilogue(self.value(bias).as_slice()));
        let out_slot = self.len();
        self.push_op(&[x, w, bias], value, move |g, vals, ctx| {
            let y = &vals[out_slot];
            // Gradient at the pre-activation z = x@w + b, read off the output.
            let dz = match act {
                LinearAct::Identity => g.clone(),
                LinearAct::Relu => Tensor::from_vec(
                    g.rows(),
                    g.cols(),
                    g.as_slice()
                        .iter()
                        .zip(y.as_slice())
                        .map(|(&gv, &yv)| if yv > 0.0 { gv } else { 0.0 })
                        .collect(),
                ),
                LinearAct::Sigmoid => Tensor::from_vec(
                    g.rows(),
                    g.cols(),
                    g.as_slice()
                        .iter()
                        .zip(y.as_slice())
                        .map(|(&gv, &yv)| gv * yv * (1.0 - yv))
                        .collect(),
                ),
            };
            ctx.accum(x, dz.matmul_nt(&vals[w.0]));
            ctx.accum(w, vals[x.0].matmul_tn(&dz));
            ctx.accum(bias, dz.col_sum());
        })
    }
}

#[cfg(test)]
mod tests {
    use super::LinearAct;
    use crate::gradcheck::check;
    use crate::tape::Tape;
    use miss_tensor::Tensor;

    fn inputs() -> [Tensor; 3] {
        // Chosen so every pre-activation |x@w+b| > 0.6 (both signs present):
        // keeps finite differences clean at the ReLU kink.
        [
            Tensor::from_fn(5, 4, |r, c| 0.23 * (r as f32) + 0.17 * (c as f32) + 0.29),
            Tensor::from_fn(4, 3, |r, c| 0.21 * (r as f32 + 1.0) * (c as f32 - 0.8)),
            Tensor::from_fn(1, 3, |_, c| 0.17 * (c as f32) + 0.25),
        ]
    }

    #[test]
    fn grad_linear_identity() {
        check(
            &inputs(),
            |t, vs| {
                let y = t.linear(vs[0], vs[1], vs[2], LinearAct::Identity);
                let y2 = t.mul(y, y);
                t.mean_all(y2)
            },
            5e-2,
        );
    }

    #[test]
    fn grad_linear_relu() {
        check(
            &inputs(),
            |t, vs| {
                let y = t.linear(vs[0], vs[1], vs[2], LinearAct::Relu);
                t.sum_all(y)
            },
            5e-2,
        );
    }

    #[test]
    fn grad_linear_sigmoid() {
        check(
            &inputs(),
            |t, vs| {
                let y = t.linear(vs[0], vs[1], vs[2], LinearAct::Sigmoid);
                t.sum_all(y)
            },
            5e-2,
        );
    }

    /// The fused op must agree with the unfused matmul→add_bias→activation
    /// chain on both values and gradients to float tolerance.
    #[test]
    fn fused_matches_unfused_chain() {
        let [x, w, b] = inputs();
        let run = |fused: bool, act: LinearAct| {
            let mut t = Tape::new();
            let xv = t.leaf(x.clone());
            let wv = t.leaf(w.clone());
            let bv = t.leaf(b.clone());
            let y = if fused {
                t.linear(xv, wv, bv, act)
            } else {
                let z = t.matmul(xv, wv);
                let z = t.add_bias(z, bv);
                match act {
                    LinearAct::Identity => z,
                    LinearAct::Relu => t.relu(z),
                    LinearAct::Sigmoid => t.sigmoid(z),
                }
            };
            let loss = t.sum_all(y);
            let val = t.value(loss).item();
            let grads = t.backward(loss);
            let gx = grads.expect(xv).clone();
            let gw = grads.expect(wv).clone();
            let gb = grads.expect(bv).clone();
            (val, gx, gw, gb)
        };
        for act in [LinearAct::Identity, LinearAct::Relu, LinearAct::Sigmoid] {
            let (fv, fgx, fgw, fgb) = run(true, act);
            let (uv, ugx, ugw, ugb) = run(false, act);
            assert!((fv - uv).abs() <= 1e-4 * (1.0 + uv.abs()), "{act:?} value");
            for (name, f, u) in [("x", &fgx, &ugx), ("w", &fgw, &ugw), ("b", &fgb, &ugb)] {
                for (a, e) in f.as_slice().iter().zip(u.as_slice()) {
                    assert!(
                        (a - e).abs() <= 1e-4 * (1.0 + e.abs()),
                        "{act:?} d{name}: {a} vs {e}"
                    );
                }
            }
        }
    }
}
