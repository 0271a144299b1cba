//! Differentiable operations recorded on a [`crate::Tape`].
//!
//! Each op computes its forward value eagerly with `miss_tensor` kernels and
//! registers a backward closure that reads input values from the tape arena
//! (by index — no tensor clones are captured unless the math requires the
//! *output*, which closures also read by index). The two-operand ops
//! compute a gradient only for the operands that require one: a constant's
//! gradient slot is never read, so skipping it changes no bit.

mod activation;
mod activation_unit;
mod arith;
mod block;
mod conv;
mod linear;
mod loss;
mod matmul;
mod reduce;
mod shape;

pub use activation_unit::UnitTower;
pub use conv::ConvTap;
pub use linear::LinearAct;

#[cfg(test)]
mod tests {
    use crate::{Tape, Var};
    use miss_tensor::Tensor;

    /// An op's name, the op, and its two operand shapes.
    type Case = (&'static str, fn(&mut Tape, Var, Var) -> Var, (usize, usize), (usize, usize));

    #[test]
    fn constant_operands_get_no_gradient_and_leaves_keep_their_bits() {
        let ops: [Case; 8] = [
            ("add", |t, a, b| t.add(a, b), (3, 4), (3, 4)),
            ("sub", |t, a, b| t.sub(a, b), (3, 4), (3, 4)),
            ("mul", |t, a, b| t.mul(a, b), (3, 4), (3, 4)),
            ("mul_col", |t, a, b| t.mul_col(a, b), (3, 4), (3, 1)),
            ("bmm_nt", |t, a, b| t.bmm_nt(a, b, 2), (4, 4), (6, 4)),
            ("bmm_nn", |t, a, b| t.bmm_nn(a, b, 2), (4, 3), (6, 4)),
            ("matmul", |t, a, b| t.matmul(a, b), (3, 4), (4, 2)),
            ("matmul_nt", |t, a, b| t.matmul_nt(a, b), (3, 4), (5, 4)),
        ];
        let bits = |x: &Tensor| x.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for (name, op, sa, sb) in ops {
            let va = Tensor::from_fn(sa.0, sa.1, |i, j| 0.3 * i as f32 - 0.2 * j as f32 + 0.1);
            let vb = Tensor::from_fn(sb.0, sb.1, |i, j| 0.1 * (i + 1) as f32 * (j as f32 - 0.5));
            // `fixed` is 0 or 1 for the operand made constant, 2 for none.
            let run = |fixed: usize| {
                let mut t = Tape::new();
                let mut input = |v: &Tensor, pos| {
                    if pos == fixed {
                        t.constant(v.clone())
                    } else {
                        t.leaf(v.clone())
                    }
                };
                let (a, b) = (input(&va, 0), input(&vb, 1));
                let y = op(&mut t, a, b);
                let sq = t.mul(y, y);
                let loss = t.sum_all(sq);
                let grads = t.backward(loss);
                [a, b].map(|v| grads.get(v).map(bits))
            };
            let both = run(2);
            for fixed in [0, 1] {
                let got = run(fixed);
                assert!(got[fixed].is_none(), "{name}: constant operand {fixed} got a gradient");
                let leaf = 1 - fixed;
                assert!(got[leaf].is_some(), "{name}: leaf {leaf} lost its gradient");
                assert_eq!(got[leaf], both[leaf], "{name}: leaf {leaf} gradient bits changed");
            }
        }
    }

}
