//! Composite loss heads implemented as fused ops, for numerical stability
//! and to keep the tape short.

use crate::ops::reduce::{l2_normalize, l2_normalize_backward};
use crate::tape::{Tape, Var};
use miss_tensor::{math, Tensor};

impl Tape {
    /// Mean binary cross-entropy over logits (Eq. 7 of the paper, fused with
    /// the sigmoid for stability): `mean(max(z,0) − y·z + ln(1+e^{−|z|}))`.
    /// `labels` is plain data (`B×1` of 0/1), not a tape value.
    pub fn bce_with_logits_mean(&mut self, logits: Var, labels: Tensor) -> Var {
        let (b, c) = self.shape(logits);
        assert_eq!(c, 1, "logits must be B×1");
        assert_eq!(labels.shape(), (b, 1), "labels must match logits");
        let z = self.value(logits).as_slice();
        let mut e: Vec<f32> = z.iter().map(|zv| -zv.abs()).collect();
        math::exp_in_place(&mut e);
        let mut total = 0.0f32;
        for ((&zv, &yv), ev) in z.iter().zip(labels.as_slice()).zip(e) {
            total += zv.max(0.0) - yv * zv + ev.ln_1p();
        }
        let value = Tensor::scalar(total / b as f32);
        self.push_op(&[logits], value, move |g, vals, ctx| {
            let scale = g.item() / b as f32;
            let mut dz = vals[logits.0].clone();
            math::sigmoid_in_place(dz.as_mut_slice());
            for (d, &yv) in dz.as_mut_slice().iter_mut().zip(labels.as_slice()) {
                *d = (*d - yv) * scale;
            }
            ctx.accum(logits, dz);
        })
    }

    /// InfoNCE loss (Eq. 15/16) over two view batches `z1, z2` of shape
    /// `B×d`: positives are matching rows, negatives are all other rows of
    /// `z2` within the batch; similarity is cosine scaled by `1/τ`. Returns
    /// the `1×1` mean loss `mean(logsumexp_j(S_ij) − S_ii)`.
    ///
    /// One tape node. Its forward makes the same tensor calls as the
    /// composed chain (`l2_normalize_rows` of both views → `matmul_nt` →
    /// `scale` → `diag` / `logsumexp_rows` → `sub` → `mean_all`), and its
    /// closed-form backward `dS = (softmax(S) − I)·g/(B·τ)` applies the
    /// chain's roundings in the chain's order, so value and gradients are
    /// bit-identical to it.
    pub fn info_nce(&mut self, z1: Var, z2: Var, tau: f32) -> Var {
        let (b, _) = self.shape(z1);
        assert_eq!(b, self.shape(z2).0, "view batches must match");
        let (n1, inv1) = l2_normalize(self.value(z1), 1e-8);
        let (n2, inv2) = l2_normalize(self.value(z2), 1e-8);
        let s = 1.0 / tau;
        let scaled = n1.matmul_nt(&n2).scale(s); // B×B cosine similarities / τ
        let pos = Tensor::from_vec(b, 1, (0..b).map(|i| scaled.get(i, i)).collect());
        let (lse, softmax) = scaled.row_logsumexp_softmax();
        let value = Tensor::scalar(lse.sub(&pos).mean_all());
        let grad1 = self.requires_grad(z1);
        let grad2 = self.requires_grad(z2);
        self.push_op(&[z1, z2], value, move |g, _vals, ctx| {
            // mean → sub → logsumexp and diag → scale, one element at a time.
            let gi = g.item() / b as f32;
            let mut ds = softmax;
            for (i, row) in ds.as_mut_slice().chunks_exact_mut(b).enumerate() {
                for (j, v) in row.iter_mut().enumerate() {
                    *v *= gi;
                    *v += if i == j { -gi } else { 0.0 };
                    *v *= s;
                }
            }
            // matmul_nt, then each view's normalisation, z2's first.
            if grad2 {
                ctx.accum(z2, l2_normalize_backward(ds.matmul_tn(&n1), &n2, &inv2));
            }
            if grad1 {
                ctx.accum(z1, l2_normalize_backward(ds.matmul_nn(&n2), &n1, &inv1));
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use crate::gradcheck::check;
    use crate::{Tape, Var};
    use miss_tensor::Tensor;

    #[test]
    fn bce_matches_naive() {
        let mut t = Tape::new();
        let logits = t.constant(Tensor::from_vec(3, 1, vec![0.5, -1.2, 2.0]));
        let labels = Tensor::from_vec(3, 1, vec![1.0, 0.0, 1.0]);
        let loss = t.bce_with_logits_mean(logits, labels.clone());
        let naive: f32 = [0.5f32, -1.2, 2.0]
            .iter()
            .zip(labels.as_slice())
            .map(|(&z, &y)| {
                let p = 1.0 / (1.0 + (-z).exp());
                -(y * p.ln() + (1.0 - y) * (1.0 - p).ln())
            })
            .sum::<f32>()
            / 3.0;
        assert!((t.value(loss).item() - naive).abs() < 1e-5);
    }

    #[test]
    fn grad_bce() {
        let logits = Tensor::from_vec(4, 1, vec![0.3, -0.7, 1.5, -2.0]);
        let labels = Tensor::from_vec(4, 1, vec![1.0, 0.0, 0.0, 1.0]);
        check(
            &[logits],
            move |t, vs| t.bce_with_logits_mean(vs[0], labels.clone()),
            5e-2,
        );
    }

    #[test]
    fn grad_info_nce() {
        let z1 = Tensor::from_fn(3, 4, |i, j| 0.4 * (i as f32) - 0.3 * (j as f32) + 0.2);
        let z2 = Tensor::from_fn(3, 4, |i, j| 0.1 * (i as f32) + 0.25 * (j as f32) - 0.3);
        check(
            &[z1, z2],
            |t, vs| t.info_nce(vs[0], vs[1], 0.5),
            6e-2,
        );
    }

    /// InfoNCE assembled from generic tape ops, the fused node's reference.
    fn composed_info_nce(t: &mut Tape, z1: Var, z2: Var, tau: f32) -> Var {
        let n1 = t.l2_normalize_rows(z1, 1e-8);
        let n2 = t.l2_normalize_rows(z2, 1e-8);
        let sims = t.matmul_nt(n1, n2);
        let scaled = t.scale(sims, 1.0 / tau);
        let pos = t.diag(scaled);
        let lse = t.logsumexp_rows(scaled);
        let diff = t.sub(lse, pos);
        t.mean_all(diff)
    }

    /// Value and input gradients of `info(z1, z2)`, scaled by 0.37 so the
    /// node's upstream gradient is not 1, plus a term recorded after it
    /// that fills `z1`'s gradient slot first. `same` feeds `z1` as both
    /// views.
    fn run(
        info: impl Fn(&mut Tape, Var, Var) -> Var,
        z1: &Tensor,
        z2: &Tensor,
        same: bool,
    ) -> (u32, Vec<u32>, Vec<u32>) {
        let mut t = Tape::new();
        let a = t.leaf(z1.clone());
        let b = if same { a } else { t.leaf(z2.clone()) };
        let l = info(&mut t, a, b);
        let l = t.scale(l, 0.37);
        let w = t.constant(z2.map(|v| v * 0.5));
        let extra = t.mul(a, w);
        let extra = t.mean_all(extra);
        let loss = t.add(l, extra);
        let grads = t.backward(loss);
        let bits = |v: Var| grads.expect(v).as_slice().iter().map(|x| x.to_bits());
        let value = t.value(l).item().to_bits();
        (value, bits(a).collect(), bits(b).collect())
    }

    #[test]
    fn info_nce_matches_composed_chain_bitwise() {
        for b in [2, 3, 5] {
            for d in [1, 3, 10, 13] {
                for tau in [0.07, 0.5, 1.0] {
                    let z1 =
                        Tensor::from_fn(b, d, |i, j| ((i * 5 + j * 3) % 7) as f32 * 0.31 - 0.9);
                    let z2 =
                        Tensor::from_fn(b, d, |i, j| ((i * 2 + j * 7) % 5) as f32 * -0.23 + 0.4);
                    for same in [false, true] {
                        assert_eq!(
                            run(|t, x, y| t.info_nce(x, y, tau), &z1, &z2, same),
                            run(|t, x, y| composed_info_nce(t, x, y, tau), &z1, &z2, same),
                            "b={b} d={d} tau={tau} same={same}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn info_nce_prefers_aligned_views() {
        // identical views => positives maximal => lower loss than shuffled views
        let mut t = Tape::new();
        let z = Tensor::from_fn(4, 6, |i, j| ((i * 7 + j * 3) % 5) as f32 - 2.0);
        let a = t.constant(z.clone());
        let b = t.constant(z.clone());
        let aligned = t.info_nce(a, b, 0.1);
        let shuffled_rows: Vec<usize> = vec![1, 2, 3, 0];
        let zs = z.gather_rows(&shuffled_rows);
        let c = t.constant(z);
        let d = t.constant(zs);
        let misaligned = t.info_nce(c, d, 0.1);
        assert!(t.value(aligned).item() < t.value(misaligned).item());
    }

    #[test]
    fn info_nce_at_uniformity_is_ln_b() {
        // all views identical across the batch => every similarity equals 1
        // => loss = ln(B)
        let mut t = Tape::new();
        let z = Tensor::full(5, 3, 1.0);
        let a = t.constant(z.clone());
        let b = t.constant(z);
        let loss = t.info_nce(a, b, 1.0);
        assert!((t.value(loss).item() - (5f32).ln()).abs() < 1e-4);
    }
}
