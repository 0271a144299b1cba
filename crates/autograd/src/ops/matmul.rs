//! Matrix products.

use crate::tape::{Tape, Var};

impl Tape {
    /// `a (m×k) @ b (k×n)`.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let value = self.value(a).matmul_nn(self.value(b));
        let (ga, gb) = (self.requires_grad(a), self.requires_grad(b));
        self.push_op(&[a, b], value, move |g, vals, ctx| {
            if ga {
                ctx.accum(a, g.matmul_nt(&vals[b.0]));
            }
            if gb {
                ctx.accum(b, vals[a.0].matmul_tn(g));
            }
        })
    }

    /// `a (m×k) @ b^T (n×k) -> m×n`.
    pub fn matmul_nt(&mut self, a: Var, b: Var) -> Var {
        let value = self.value(a).matmul_nt(self.value(b));
        let (ga, gb) = (self.requires_grad(a), self.requires_grad(b));
        self.push_op(&[a, b], value, move |g, vals, ctx| {
            // C = A B^T  =>  dA = G B, dB = G^T A.
            if ga {
                ctx.accum(a, g.matmul_nn(&vals[b.0]));
            }
            if gb {
                ctx.accum(b, g.matmul_tn(&vals[a.0]));
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use crate::gradcheck::check;
    use miss_tensor::Tensor;

    #[test]
    fn grad_matmul() {
        let a = Tensor::from_fn(3, 4, |r, c| 0.3 * (r as f32) - 0.2 * (c as f32) + 0.1);
        let b = Tensor::from_fn(4, 2, |r, c| 0.1 * (r as f32 + 1.0) * (c as f32 - 0.5));
        check(
            &[a, b],
            |t, vs| {
                let y = t.matmul(vs[0], vs[1]);
                t.sum_all(y)
            },
            5e-2,
        );
    }

    #[test]
    fn grad_matmul_nt() {
        let a = Tensor::from_fn(3, 4, |r, c| 0.25 * (r as f32) - 0.15 * (c as f32));
        let b = Tensor::from_fn(5, 4, |r, c| 0.05 * (r as f32 - 2.0) + 0.2 * (c as f32));
        check(
            &[a, b],
            |t, vs| {
                let y = t.matmul_nt(vs[0], vs[1]);
                let y2 = t.mul(y, y); // non-linear head to exercise both factors
                t.mean_all(y2)
            },
            5e-2,
        );
    }
}
