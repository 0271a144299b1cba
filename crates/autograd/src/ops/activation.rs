//! Pointwise nonlinearities.

use crate::tape::{Tape, Var};
use miss_tensor::Tensor;

impl Tape {
    /// Rectified linear unit.
    pub fn relu(&mut self, x: Var) -> Var {
        let value = self.value(x).map(|v| v.max(0.0));
        let out_slot = self.len(); // the op's own index after push
        self.push_op(&[x], value, move |g, vals, ctx| {
            let y = &vals[out_slot];
            let dx = Tensor::from_vec(
                g.rows(),
                g.cols(),
                g.as_slice()
                    .iter()
                    .zip(y.as_slice())
                    .map(|(&gv, &yv)| if yv > 0.0 { gv } else { 0.0 })
                    .collect(),
            );
            ctx.accum(x, dx);
        })
    }

    /// Parametric ReLU with a learnable `1×1` slope `alpha` for the negative
    /// part (the activation DIN's MLP uses).
    pub fn prelu(&mut self, x: Var, alpha: Var) -> Var {
        assert_eq!(self.shape(alpha), (1, 1), "prelu slope must be 1x1");
        let av = self.value(alpha).item();
        let value = self.value(x).map(|v| if v > 0.0 { v } else { av * v });
        self.push_op(&[x, alpha], value, move |g, vals, ctx| {
            let av = vals[alpha.0].item();
            let xs = vals[x.0].as_slice();
            let mut dx = Vec::with_capacity(xs.len());
            let mut da = 0.0f32;
            for (&gv, &xv) in g.as_slice().iter().zip(xs) {
                if xv > 0.0 {
                    dx.push(gv);
                } else {
                    dx.push(gv * av);
                    da += gv * xv;
                }
            }
            ctx.accum(x, Tensor::from_vec(g.rows(), g.cols(), dx));
            ctx.accum(alpha, Tensor::scalar(da));
        })
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&mut self, x: Var) -> Var {
        let value = self.value(x).map(miss_util::sigmoid);
        let out_slot = self.len();
        self.push_op(&[x], value, move |g, vals, ctx| {
            let y = &vals[out_slot];
            let dx = Tensor::from_vec(
                g.rows(),
                g.cols(),
                g.as_slice()
                    .iter()
                    .zip(y.as_slice())
                    .map(|(&gv, &yv)| gv * yv * (1.0 - yv))
                    .collect(),
            );
            ctx.accum(x, dx);
        })
    }

    /// Hyperbolic tangent.
    pub fn tanh(&mut self, x: Var) -> Var {
        let value = self.value(x).map(f32::tanh);
        let out_slot = self.len();
        self.push_op(&[x], value, move |g, vals, ctx| {
            let y = &vals[out_slot];
            let dx = Tensor::from_vec(
                g.rows(),
                g.cols(),
                g.as_slice()
                    .iter()
                    .zip(y.as_slice())
                    .map(|(&gv, &yv)| gv * (1.0 - yv * yv))
                    .collect(),
            );
            ctx.accum(x, dx);
        })
    }

    /// Elementwise exponential.
    pub fn exp(&mut self, x: Var) -> Var {
        let value = self.value(x).map(f32::exp);
        let out_slot = self.len();
        self.push_op(&[x], value, move |g, vals, ctx| {
            ctx.accum(x, g.mul(&vals[out_slot]));
        })
    }

    /// Multiply by a fixed 0/1 (or scaled) mask — inverted dropout and
    /// attention masking. The mask is plain data, not a tape value.
    pub fn mask(&mut self, x: Var, mask: Tensor) -> Var {
        assert_eq!(self.shape(x), mask.shape(), "mask shape mismatch");
        let value = self.value(x).mul(&mask);
        self.push_op(&[x], value, move |g, _vals, ctx| {
            ctx.accum(x, g.mul(&mask));
        })
    }
}

#[cfg(test)]
mod tests {
    use crate::gradcheck::check;
    use miss_tensor::Tensor;

    // Inputs chosen away from the ReLU/PReLU kink so finite differences are clean.
    fn smooth_input() -> Tensor {
        Tensor::from_fn(3, 4, |r, c| {
            let v = 0.37 * (r as f32 + 1.0) - 0.53 * (c as f32) + 0.21;
            if v.abs() < 0.05 {
                v + 0.1
            } else {
                v
            }
        })
    }

    #[test]
    fn grad_relu() {
        check(
            &[smooth_input()],
            |t, vs| {
                let y = t.relu(vs[0]);
                t.sum_all(y)
            },
            5e-2,
        );
    }

    #[test]
    fn grad_prelu() {
        check(
            &[smooth_input(), Tensor::scalar(0.3)],
            |t, vs| {
                let y = t.prelu(vs[0], vs[1]);
                t.sum_all(y)
            },
            5e-2,
        );
    }

    #[test]
    fn grad_sigmoid() {
        check(
            &[smooth_input()],
            |t, vs| {
                let y = t.sigmoid(vs[0]);
                t.sum_all(y)
            },
            5e-2,
        );
    }

    #[test]
    fn grad_tanh() {
        check(
            &[smooth_input()],
            |t, vs| {
                let y = t.tanh(vs[0]);
                t.sum_all(y)
            },
            5e-2,
        );
    }

    #[test]
    fn grad_exp() {
        check(
            &[smooth_input()],
            |t, vs| {
                let y = t.exp(vs[0]);
                t.mean_all(y)
            },
            5e-2,
        );
    }

    #[test]
    fn grad_mask() {
        let mask = Tensor::from_fn(3, 4, |r, c| ((r + c) % 2) as f32);
        check(
            &[smooth_input()],
            move |t, vs| {
                let y = t.mask(vs[0], mask.clone());
                t.sum_all(y)
            },
            5e-2,
        );
    }
}
