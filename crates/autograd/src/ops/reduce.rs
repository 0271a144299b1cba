//! Reductions and row-wise numerics (softmax, log-sum-exp, normalisation).

use crate::tape::{Tape, Var};
use miss_tensor::Tensor;

impl Tape {
    /// Sum of all elements as a `1×1` scalar.
    pub fn sum_all(&mut self, x: Var) -> Var {
        let (r, c) = self.shape(x);
        let value = Tensor::scalar(self.value(x).sum_all());
        self.push_op(&[x], value, move |g, _vals, ctx| {
            ctx.accum(x, Tensor::full(r, c, g.item()));
        })
    }

    /// Mean of all elements as a `1×1` scalar.
    pub fn mean_all(&mut self, x: Var) -> Var {
        let (r, c) = self.shape(x);
        let n = (r * c) as f32;
        let value = Tensor::scalar(self.value(x).mean_all());
        self.push_op(&[x], value, move |g, _vals, ctx| {
            ctx.accum(x, Tensor::full(r, c, g.item() / n));
        })
    }

    /// Row sums as an `R×1` column.
    pub fn row_sum(&mut self, x: Var) -> Var {
        let (r, c) = self.shape(x);
        let value = self.value(x).row_sum();
        self.push_op(&[x], value, move |g, _vals, ctx| {
            let mut dx = Tensor::zeros(r, c);
            for i in 0..r {
                let gi = g.get(i, 0);
                for v in dx.row_mut(i) {
                    *v = gi;
                }
            }
            ctx.accum(x, dx);
        })
    }

    /// Sum of every run of `len` consecutive rows, `(rows/len)×cols`, each a
    /// chain from 0.0 in row order. Value and gradient are bitwise those of
    /// the block product `ones(1×len) @ run`: the gradient is `g + 0.0`
    /// added to each row of the run.
    pub fn segment_sum(&mut self, x: Var, len: usize) -> Var {
        let (r, c) = self.shape(x);
        let value = self.value(x).segment_sum(len);
        self.push_op(&[x], value, move |g, _vals, ctx| {
            let dx = ctx.slot(x, (r, c));
            for i in 0..r {
                for (d, &gv) in dx.row_mut(i).iter_mut().zip(g.row(i / len)) {
                    *d += gv + 0.0;
                }
            }
        })
    }

    /// Numerically stable row-wise softmax.
    pub fn softmax_rows(&mut self, x: Var) -> Var {
        let value = self.value(x).row_softmax();
        let out_slot = self.len();
        self.push_op(&[x], value, move |g, vals, ctx| {
            ctx.accum(x, softmax_rows_backward(&vals[out_slot], g));
        })
    }

    /// Numerically stable row-wise log-sum-exp as an `R×1` column.
    pub fn logsumexp_rows(&mut self, x: Var) -> Var {
        // The forward's exps already give softmax(x), which the backward
        // scales in place: d/dx_ij = softmax(x)_ij * g_i.
        let (value, mut sm) = self.value(x).row_logsumexp_softmax();
        self.push_op(&[x], value, move |g, _vals, ctx| {
            let c = sm.cols();
            for (row, &gi) in sm.as_mut_slice().chunks_exact_mut(c).zip(g.as_slice()) {
                for v in row {
                    *v *= gi;
                }
            }
            ctx.accum(x, sm);
        })
    }

    /// Row-wise L2 normalisation `y = x / max(‖x‖, eps)`.
    pub fn l2_normalize_rows(&mut self, x: Var, eps: f32) -> Var {
        let (value, inv) = l2_normalize(self.value(x), eps);
        let out_slot = self.len();
        self.push_op(&[x], value, move |g, vals, ctx| {
            ctx.accum(x, l2_normalize_backward(g.clone(), &vals[out_slot], &inv));
        })
    }

    /// Diagonal of a square matrix as a `B×1` column.
    pub fn diag(&mut self, x: Var) -> Var {
        let (r, c) = self.shape(x);
        assert_eq!(r, c, "diag needs a square matrix");
        let xv = self.value(x);
        let value = Tensor::from_vec(r, 1, (0..r).map(|i| xv.get(i, i)).collect());
        self.push_op(&[x], value, move |g, _vals, ctx| {
            let mut dx = Tensor::zeros(r, c);
            for i in 0..r {
                dx.set(i, i, g.get(i, 0));
            }
            ctx.accum(x, dx);
        })
    }
}

/// The gradient at the input of a row softmax with output `y`, given the
/// output gradient `g`: `(g − dot(y, g))·y` row by row, the dot sequential.
pub(crate) fn softmax_rows_backward(y: &Tensor, g: &Tensor) -> Tensor {
    let (r, c) = y.shape();
    let mut dx = Tensor::zeros(r, c);
    for i in 0..r {
        let yrow = y.row(i);
        let grow = g.row(i);
        let dot: f32 = yrow.iter().zip(grow).map(|(&a, &b)| a * b).sum();
        for ((d, &yv), &gv) in dx.row_mut(i).iter_mut().zip(yrow).zip(grow) {
            *d = (gv - dot) * yv;
        }
    }
    dx
}

/// `x / max(‖x‖, eps)` row by row, and the inverse norms it scaled by.
pub(crate) fn l2_normalize(x: &Tensor, eps: f32) -> (Tensor, Tensor) {
    let inv = x.row_l2_norm(eps).map(|n| 1.0 / n);
    (x.mul_col_broadcast(&inv), inv)
}

/// The backward of [`l2_normalize`] given its output `y` and inverse norms,
/// in place on the output gradient `g`: row `i` becomes
/// `(g − y·dot(y, g)) / n` with `n = 1/inv_i` and a sequential dot.
pub(crate) fn l2_normalize_backward(mut g: Tensor, y: &Tensor, inv: &Tensor) -> Tensor {
    let c = y.cols();
    for ((grow, yrow), &iv) in g
        .as_mut_slice()
        .chunks_exact_mut(c)
        .zip(y.as_slice().chunks_exact(c))
        .zip(inv.as_slice())
    {
        let n = 1.0 / iv;
        let dot: f32 = yrow.iter().zip(grow.iter()).map(|(&a, &b)| a * b).sum();
        for (d, &yv) in grow.iter_mut().zip(yrow) {
            *d = (*d - yv * dot) / n;
        }
    }
    g
}

#[cfg(test)]
mod tests {
    use crate::gradcheck::check;
    use miss_tensor::Tensor;

    fn input(r: usize, c: usize) -> Tensor {
        Tensor::from_fn(r, c, |i, j| 0.31 * (i as f32) - 0.17 * (j as f32) + 0.05)
    }

    #[test]
    fn grad_sum_mean() {
        check(
            &[input(2, 3)],
            |t, vs| t.sum_all(vs[0]),
            5e-2,
        );
        check(
            &[input(2, 3)],
            |t, vs| t.mean_all(vs[0]),
            5e-2,
        );
    }

    #[test]
    fn grad_segment_sum() {
        check(
            &[input(6, 3)],
            |t, vs| {
                let s = t.segment_sum(vs[0], 3);
                let sq = t.mul(s, s);
                t.sum_all(sq)
            },
            5e-2,
        );
    }

    #[test]
    fn segment_sum_is_bitwise_the_ones_block_product() {
        // Signed zeros in the input and in the upstream gradient; `prefill`
        // records a later use of `x`, so its gradient slot holds `-0.0`s
        // before the sum's backward adds into it.
        let signed = |r: usize, c: usize, f: fn(usize, usize) -> f32| {
            Tensor::from_fn(
                r,
                c,
                move |i, j| if (i + j) % 3 == 0 { -0.0 } else { f(i, j) },
            )
        };
        let x = signed(12, 5, |i, j| ((i * 7 + j * 3) as f32 * 0.37).sin());
        let w = signed(3, 5, |i, j| 0.3 * i as f32 - 0.2 * j as f32 + 0.05);
        let bits = |x: &Tensor| x.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for prefill in [false, true] {
            let run = |fused: bool| {
                let mut t = crate::Tape::new();
                let xv = t.leaf(x.clone());
                let y = if fused {
                    t.segment_sum(xv, 4)
                } else {
                    let ones = t.constant(Tensor::full(3, 4, 1.0));
                    t.bmm_nn(ones, xv, 3)
                };
                let wv = t.constant(w.clone());
                let p = t.mul(y, wv);
                let mut loss = t.sum_all(p);
                if prefill {
                    let q = t.mul(xv, xv);
                    let q = t.sum_all(q);
                    loss = t.add(loss, q);
                }
                let value = bits(t.value(y));
                (value, bits(t.backward(loss).expect(xv)))
            };
            assert_eq!(run(true), run(false), "prefill={prefill}");
        }
    }

    #[test]
    fn grad_row_sum() {
        check(
            &[input(3, 4)],
            |t, vs| {
                let s = t.row_sum(vs[0]);
                let sq = t.mul(s, s);
                t.sum_all(sq)
            },
            5e-2,
        );
    }

    #[test]
    fn grad_softmax() {
        check(
            &[input(3, 5)],
            |t, vs| {
                let y = t.softmax_rows(vs[0]);
                // weight the entries so the gradient is not trivially zero
                let w = Tensor::from_fn(3, 5, |i, j| ((i + 2 * j) % 3) as f32 - 1.0);
                let wc = t.constant(w);
                let p = t.mul(y, wc);
                t.sum_all(p)
            },
            5e-2,
        );
    }

    #[test]
    fn grad_logsumexp() {
        check(
            &[input(4, 3)],
            |t, vs| {
                let y = t.logsumexp_rows(vs[0]);
                t.sum_all(y)
            },
            5e-2,
        );
    }

    #[test]
    fn grad_l2_normalize() {
        check(
            &[input(3, 4)],
            |t, vs| {
                let y = t.l2_normalize_rows(vs[0], 1e-8);
                let w = Tensor::from_fn(3, 4, |i, j| 0.5 + ((i * j) % 2) as f32);
                let wc = t.constant(w);
                let p = t.mul(y, wc);
                t.sum_all(p)
            },
            5e-2,
        );
    }

    #[test]
    fn grad_diag() {
        check(
            &[input(4, 4)],
            |t, vs| {
                let d = t.diag(vs[0]);
                let sq = t.mul(d, d);
                t.sum_all(sq)
            },
            5e-2,
        );
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let mut t = crate::Tape::new();
        let x = t.constant(input(2, 6));
        let y = t.softmax_rows(x);
        for i in 0..2 {
            let s: f32 = t.value(y).row(i).iter().sum();
            assert!((s - 1.0).abs() < 1e-5);
        }
    }
}
