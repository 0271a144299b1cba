//! Scalar-tap convolution with a fused ReLU: MISS's horizontal `1×m×1`
//! kernels (Eq. 19–20) and vertical `n×1×1` kernels (Eq. 22–23) as one tape
//! node each.

use crate::tape::{Tape, Var};
use miss_tensor::Tensor;
use std::ops::Range;

/// One tap of [`Tape::scalar_conv_relu`]: the `1×1` weight `w` times the
/// rows of `x` that start `shift` rows into each of its blocks.
#[derive(Clone, Copy, Debug)]
pub struct ConvTap {
    /// Input, `(blocks·L)×K` for some block length `L`.
    pub x: Var,
    /// Row offset of this tap inside every block of `x`.
    pub shift: usize,
    /// The tap's `1×1` weight.
    pub w: Var,
}

/// A tap with its input's layout and which of its inputs need gradients.
struct TapState {
    tap: ConvTap,
    /// Floats per block of `x`.
    in_block: usize,
    /// Floats from a block's start to the tap's first row.
    offset: usize,
    x_grad: bool,
    w_grad: bool,
}

impl TapState {
    /// The `len` floats of `x` that output block `b` reads.
    fn span(&self, b: usize, len: usize) -> Range<usize> {
        let start = b * self.in_block + self.offset;
        start..start + len
    }
}

impl Tape {
    /// `relu(Σ_i w_i · x_i[row + shift_i])` over `blocks` blocks of `width`
    /// output rows. Output row `p` of block `b` reads row `b·L_i + p +
    /// shift_i` of tap `i`'s input, whose blocks are `L_i` rows long.
    ///
    /// Rounds as the composed chain `relu(x_0·w_0 + x_1·w_1 + …)` of
    /// gathers, scalings and adds does, forward and backward: each tap's
    /// weight gradient is the sequential row-major sum of `g·x`, and each
    /// input gradient is scatter-added tap by tap in reverse, from zeros when
    /// the slot is empty. (Where the chain had no gather, it stored `g·w`
    /// itself in an empty slot; the two differ only in the sign of a zero.)
    pub fn scalar_conv_relu(&mut self, taps: &[ConvTap], blocks: usize, width: usize) -> Var {
        assert!(!taps.is_empty(), "a convolution needs at least one tap");
        assert!(blocks > 0 && width > 0, "empty convolution output");
        let k = self.shape(taps[0].x).1;
        let out_block = width * k;
        let state: Vec<TapState> = taps
            .iter()
            .map(|&tap| {
                let (r, c) = self.shape(tap.x);
                assert_eq!(c, k, "conv taps must share one width");
                assert_eq!(r % blocks, 0, "conv input is not {blocks} whole blocks");
                assert!(
                    tap.shift + width <= r / blocks,
                    "conv tap reads past its block"
                );
                assert_eq!(self.shape(tap.w), (1, 1), "conv weights are 1x1");
                TapState {
                    tap,
                    in_block: r / blocks * k,
                    offset: tap.shift * k,
                    x_grad: self.requires_grad(tap.x),
                    w_grad: self.requires_grad(tap.w),
                }
            })
            .collect();

        let mut value = Tensor::zeros(blocks * width, k);
        for (b, out) in value.as_mut_slice().chunks_exact_mut(out_block).enumerate() {
            for (i, s) in state.iter().enumerate() {
                let w = self.value(s.tap.w).item();
                let x = &self.value(s.tap.x).as_slice()[s.span(b, out_block)];
                if i == 0 {
                    for (o, &xv) in out.iter_mut().zip(x) {
                        *o = xv * w;
                    }
                } else {
                    for (o, &xv) in out.iter_mut().zip(x) {
                        *o += xv * w;
                    }
                }
            }
            for o in out.iter_mut() {
                *o = o.max(0.0);
            }
        }

        let out_slot = self.len();
        let inputs: Vec<Var> = taps.iter().flat_map(|t| [t.x, t.w]).collect();
        self.push_op(&inputs, value, move |g, vals, ctx| {
            let gy: Vec<f32> = g
                .as_slice()
                .iter()
                .zip(vals[out_slot].as_slice())
                .map(|(&gv, &yv)| if yv > 0.0 { gv } else { 0.0 })
                .collect();
            for s in state.iter().rev() {
                let x = &vals[s.tap.x.0];
                if s.w_grad {
                    let xs = x.as_slice();
                    let dw: f32 = gy
                        .chunks_exact(out_block)
                        .enumerate()
                        .flat_map(|(b, gb)| gb.iter().zip(&xs[s.span(b, out_block)]))
                        .map(|(&gv, &xv)| gv * xv)
                        .sum();
                    ctx.accum(s.tap.w, Tensor::scalar(dw));
                }
                if s.x_grad {
                    let w = vals[s.tap.w.0].item();
                    let dx = ctx.slot(s.tap.x, x.shape()).as_mut_slice();
                    for (b, gb) in gy.chunks_exact(out_block).enumerate() {
                        for (d, &gv) in dx[s.span(b, out_block)].iter_mut().zip(gb) {
                            *d += gv * w;
                        }
                    }
                }
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::ConvTap;
    use crate::gradcheck::check;
    use crate::{Tape, Var};
    use miss_tensor::Tensor;

    /// A dense plain-loop reference: the forward value and, for the loss
    /// `sum(y ⊙ c)`, the gradient of every input, in the op's rounding
    /// order. Taps are `(input index, shift, weight index)`.
    struct Reference {
        y: Vec<f32>,
        dxs: Vec<Vec<f32>>,
        dws: Vec<f32>,
    }

    fn reference(
        xs: &[Tensor],
        ws: &[f32],
        taps: &[(usize, usize, usize)],
        blocks: usize,
        width: usize,
        c: &Tensor,
    ) -> Reference {
        let k = xs[0].cols();
        let n = blocks * width * k;
        // Index into tap `t`'s input of the float output element `e` reads.
        let at = |t: usize, e: usize| {
            let (xi, shift, _) = taps[t];
            let (b, rest) = (e / (width * k), e % (width * k));
            (b * xs[xi].rows() / blocks + shift) * k + rest
        };
        let src = |t: usize, e: usize| xs[taps[t].0].as_slice()[at(t, e)];
        let mut y = vec![0.0f32; n];
        for (e, ye) in y.iter_mut().enumerate() {
            let mut acc = src(0, e) * ws[taps[0].2];
            for (t, &(_, _, wi)) in taps.iter().enumerate().skip(1) {
                acc += src(t, e) * ws[wi];
            }
            *ye = acc.max(0.0);
        }
        let gy: Vec<f32> = (0..n)
            .map(|e| if y[e] > 0.0 { c.as_slice()[e] } else { 0.0 })
            .collect();
        let mut dxs: Vec<Vec<f32>> = xs.iter().map(|x| vec![0.0; x.len()]).collect();
        // A weight's first gradient is stored, later ones are added.
        let mut dws: Vec<Option<f32>> = vec![None; ws.len()];
        for t in (0..taps.len()).rev() {
            let (xi, _, wi) = taps[t];
            let mut dw = -0.0f32;
            for (e, &gv) in gy.iter().enumerate() {
                dw += gv * src(t, e);
            }
            dws[wi] = Some(dws[wi].map_or(dw, |acc| acc + dw));
            for (e, &gv) in gy.iter().enumerate() {
                dxs[xi][at(t, e)] += gv * ws[wi];
            }
        }
        let dws = dws.into_iter().map(|d| d.unwrap_or_default()).collect();
        Reference { y, dxs, dws }
    }

    /// Irregular values, so that sums in another order round differently.
    fn awkward(r: usize, c: usize, seed: usize) -> Tensor {
        Tensor::from_fn(r, c, |i, j| {
            let v = ((i * 131 + j * 71 + seed * 977) as f32 * 0.613).sin();
            if v.abs() < 0.05 {
                v + 0.13
            } else {
                v
            }
        })
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Run the op on leaves `xs` and `ws` with `taps = (input, shift,
    /// weight)` and compare value and every gradient with the reference.
    fn assert_matches_reference(
        xs: &[Tensor],
        ws: &[f32],
        taps: &[(usize, usize, usize)],
        blocks: usize,
        width: usize,
    ) {
        let mut t = Tape::new();
        let xv: Vec<Var> = xs.iter().map(|x| t.leaf(x.clone())).collect();
        let wv: Vec<Var> = ws.iter().map(|&w| t.leaf(Tensor::scalar(w))).collect();
        let conv: Vec<ConvTap> = taps
            .iter()
            .map(|&(xi, shift, wi)| ConvTap {
                x: xv[xi],
                shift,
                w: wv[wi],
            })
            .collect();
        let y = t.scalar_conv_relu(&conv, blocks, width);
        let (rows, k) = t.shape(y);
        assert_eq!((rows, k), (blocks * width, xs[0].cols()));
        let c = awkward(rows, k, 9).map(|v| v * 1.7 + 0.2);
        let cv = t.constant(c.clone());
        let p = t.mul(y, cv);
        let loss = t.sum_all(p);
        let grads = t.backward(loss);

        let want = reference(xs, ws, taps, blocks, width, &c);
        assert_eq!(bits(t.value(y).as_slice()), bits(&want.y), "value");
        // An input no tap reads gets no gradient at all.
        for (i, (&v, d)) in xv.iter().zip(&want.dxs).enumerate() {
            let got = grads.get(v).map(|g| bits(g.as_slice()));
            let used = taps.iter().any(|t| t.0 == i);
            assert_eq!(got, used.then(|| bits(d)), "dx{i}");
        }
        for (i, (&v, &d)) in wv.iter().zip(&want.dws).enumerate() {
            let got = grads.get(v).map(|g| g.item().to_bits());
            let used = taps.iter().any(|t| t.2 == i);
            assert_eq!(got, used.then_some(d.to_bits()), "dw{i}");
        }
    }

    #[test]
    fn horizontal_taps_match_plain_loop_bitwise() {
        // One input shifted per tap inside each block of L rows (Eq. 19).
        for blocks in [2, 3, 5] {
            for k in [1, 3, 10, 13] {
                for m in 1..=3 {
                    let l = 6;
                    let x = awkward(blocks * l, k, blocks + k);
                    let ws: Vec<f32> = (0..m).map(|i| 0.45 - 0.3137 * i as f32).collect();
                    let taps: Vec<(usize, usize, usize)> = (0..m).map(|i| (0, i, i)).collect();
                    assert_matches_reference(&[x], &ws, &taps, blocks, l - m + 1);
                }
            }
        }
    }

    #[test]
    fn vertical_taps_match_plain_loop_bitwise() {
        // Distinct inputs, no shift (Eq. 22), including one input read by
        // two taps and a width-1 block.
        for blocks in [2, 3, 5] {
            for k in [1, 7, 10] {
                let xs: Vec<Tensor> = (0..3).map(|s| awkward(blocks, k, s + k)).collect();
                let ws = [0.6, -0.35, 0.9];
                assert_matches_reference(&xs, &ws, &[(0, 0, 0)], blocks, 1);
                assert_matches_reference(&xs, &ws, &[(1, 0, 0), (2, 0, 1)], blocks, 1);
                assert_matches_reference(&xs, &ws, &[(0, 0, 0), (1, 0, 1), (0, 0, 2)], blocks, 1);
                assert_matches_reference(&xs, &ws, &[(2, 0, 1), (1, 0, 1)], 1, blocks);
            }
        }
    }

    #[test]
    fn grad_scalar_conv_relu() {
        check(
            &[
                awkward(3 * 4, 5, 1),
                Tensor::scalar(0.7),
                Tensor::scalar(-0.4),
                Tensor::scalar(0.5),
            ],
            |t, vs| {
                let taps: Vec<ConvTap> = (0..3)
                    .map(|i| ConvTap {
                        x: vs[0],
                        shift: i,
                        w: vs[1 + i],
                    })
                    .collect();
                let y = t.scalar_conv_relu(&taps, 3, 2);
                let sq = t.mul(y, y);
                t.sum_all(sq)
            },
            5e-2,
        );
    }

    #[test]
    fn constant_inputs_get_no_gradient() {
        let mut t = Tape::new();
        let x = t.constant(awkward(4, 3, 2));
        let w = t.leaf(Tensor::scalar(0.5));
        let y = t.scalar_conv_relu(&[ConvTap { x, shift: 1, w }], 2, 1);
        let loss = t.sum_all(y);
        let grads = t.backward(loss);
        assert!(grads.get(x).is_none());
        assert!(grads.get(w).is_some());
    }
}
