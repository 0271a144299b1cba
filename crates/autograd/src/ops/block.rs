//! Block (per-sample batched) matrix products. These power every attention
//! mechanism in the workspace: DIN's local activation unit, AutoInt's field
//! self-attention, FiGNN's edge attention, DMR, the MISS-SA extractor, and
//! xDeepFM's CIN (via the shared-parameter variant).

use crate::tape::{Tape, Var};
use miss_tensor::Tensor;

impl Tape {
    /// Per-block `A_i (p×k) @ B_i^T (q×k)`; `a` is `(blocks·p)×k`,
    /// `b` is `(blocks·q)×k`, output `(blocks·p)×q`.
    pub fn bmm_nt(&mut self, a: Var, b: Var, blocks: usize) -> Var {
        let value = self.value(a).bmm_nt(self.value(b), blocks);
        let (ga, gb) = (self.requires_grad(a), self.requires_grad(b));
        self.push_op(&[a, b], value, move |g, vals, ctx| {
            // C_i = A_i B_i^T  =>  dA_i = G_i B_i ; dB_i = G_i^T A_i.
            if ga {
                ctx.accum(a, g.bmm_nn(&vals[b.0], blocks));
            }
            if gb {
                ctx.accum(b, g.bmm_tn(&vals[a.0], blocks));
            }
        })
    }

    /// Per-block `A_i (p×q) @ B_i (q×k)`; `a` is `(blocks·p)×q`,
    /// `b` is `(blocks·q)×k`, output `(blocks·p)×k`.
    pub fn bmm_nn(&mut self, a: Var, b: Var, blocks: usize) -> Var {
        let value = self.value(a).bmm_nn(self.value(b), blocks);
        let (ga, gb) = (self.requires_grad(a), self.requires_grad(b));
        self.push_op(&[a, b], value, move |g, vals, ctx| {
            // C_i = A_i B_i  =>  dA_i = G_i B_i^T ; dB_i = A_i^T G_i.
            if ga {
                ctx.accum(a, g.bmm_nt(&vals[b.0], blocks));
            }
            if gb {
                ctx.accum(b, vals[a.0].bmm_tn(g, blocks));
            }
        })
    }

    /// Shared-parameter per-block product `W (h×q) @ X_i (q×k)` for every
    /// block `i`; `x` is `(blocks·q)×k`, output `(blocks·h)×k`. The weight
    /// gradient sums over blocks. This is xDeepFM's CIN feature-map step.
    pub fn bmm_param_nn(&mut self, w: Var, x: Var, blocks: usize) -> Var {
        let (h, q) = self.shape(w);
        let (bq, k) = self.shape(x);
        assert_eq!(bq, blocks * q, "bmm_param_nn shape mismatch");
        let wv = self.value(w);
        let xv = self.value(x);
        let mut out = Tensor::zeros(blocks * h, k);
        for blk in 0..blocks {
            for i in 0..h {
                let wrow = wv.row(i);
                let orow = &mut out.as_mut_slice()[(blk * h + i) * k..(blk * h + i + 1) * k];
                for (jj, &wvv) in wrow.iter().enumerate() {
                    if wvv == 0.0 {
                        continue;
                    }
                    let xrow = xv.row(blk * q + jj);
                    for (o, &xe) in orow.iter_mut().zip(xrow) {
                        *o += wvv * xe;
                    }
                }
            }
        }
        self.push_op(&[w, x], out, move |g, vals, ctx| {
            let wv = &vals[w.0];
            let xv = &vals[x.0];
            // dW = Σ_b G_b X_b^T ; dX_b = W^T G_b.
            let mut dw = Tensor::zeros(h, q);
            let mut dx = Tensor::zeros(blocks * q, k);
            for blk in 0..blocks {
                for i in 0..h {
                    let grow = g.row(blk * h + i);
                    for jj in 0..q {
                        let xrow = xv.row(blk * q + jj);
                        let dot: f32 = grow.iter().zip(xrow).map(|(&a, &b)| a * b).sum();
                        let cur = dw.get(i, jj);
                        dw.set(i, jj, cur + dot);
                        let wvv = wv.get(i, jj);
                        if wvv != 0.0 {
                            let dxrow = dx.row_mut(blk * q + jj);
                            for (d, &gv) in dxrow.iter_mut().zip(grow) {
                                *d += wvv * gv;
                            }
                        }
                    }
                }
            }
            ctx.accum(w, dw);
            ctx.accum(x, dx);
        })
    }
}

#[cfg(test)]
mod tests {
    use crate::gradcheck::check;
    use miss_tensor::Tensor;

    fn input(r: usize, c: usize, seed: f32) -> Tensor {
        Tensor::from_fn(r, c, |i, j| {
            0.19 * (i as f32) - 0.13 * (j as f32) + 0.07 * seed
        })
    }

    #[test]
    fn grad_bmm_nt() {
        // blocks=2, p=2, q=3, k=4
        check(
            &[input(4, 4, 1.0), input(6, 4, 2.0)],
            |t, vs| {
                let y = t.bmm_nt(vs[0], vs[1], 2);
                let sq = t.mul(y, y);
                t.sum_all(sq)
            },
            5e-2,
        );
    }

    #[test]
    fn grad_bmm_nn() {
        // blocks=2, p=2, q=3, k=4
        check(
            &[input(4, 3, 1.5), input(6, 4, 2.5)],
            |t, vs| {
                let y = t.bmm_nn(vs[0], vs[1], 2);
                let sq = t.mul(y, y);
                t.sum_all(sq)
            },
            5e-2,
        );
    }

    #[test]
    fn grad_bmm_param_nn() {
        // blocks=3, h=2, q=3, k=2
        check(
            &[input(2, 3, 0.5), input(9, 2, 1.7)],
            |t, vs| {
                let y = t.bmm_param_nn(vs[0], vs[1], 3);
                let sq = t.mul(y, y);
                t.sum_all(sq)
            },
            5e-2,
        );
    }

    #[test]
    fn bmm_param_forward_matches_manual() {
        let mut t = crate::Tape::new();
        let w = t.constant(Tensor::from_vec(1, 2, vec![2.0, -1.0]));
        let x = t.constant(Tensor::from_vec(4, 1, vec![1.0, 2.0, 3.0, 4.0]));
        let y = t.bmm_param_nn(w, x, 2);
        // block0: 2*1 - 1*2 = 0 ; block1: 2*3 - 1*4 = 2
        assert_eq!(t.value(y).as_slice(), &[0.0, 2.0]);
    }
}
