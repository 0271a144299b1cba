//! DIN's local activation unit (Eq. 4 of the paper) as one tape node:
//! interaction input, `4K → H → 1` ReLU tower, masked softmax over each
//! sample's positions and the weighted sum of the sequence.

use crate::ops::reduce::softmax_rows_backward;
use crate::tape::{Tape, Var};
use miss_tensor::{GemmEpilogue, PackedB, Tensor};

/// The tower of [`Tape::activation_unit`]: `relu(x·w1 + b1)·w2 + b2`, with
/// `w1` `4K×H`, `b1` `1×H`, `w2` `H×1` and `b2` `1×1`.
#[derive(Clone, Copy, Debug)]
pub struct UnitTower {
    /// First-layer weight, `4K×H`.
    pub w1: Var,
    /// First-layer bias, `1×H`.
    pub b1: Var,
    /// Second-layer weight, `H×1`.
    pub w2: Var,
    /// Second-layer bias, `1×1`.
    pub b2: Var,
}

/// Write rows `r0..` of the interaction input `[s, c, s − c, s ⊙ c]` into
/// `out` (whole `4K`-wide rows), where row `r` pairs sequence row `r` with
/// candidate row `r / l`.
fn interaction_rows(s: &[f32], c: &[f32], k: usize, l: usize, r0: usize, out: &mut [f32]) {
    for (t, row) in out.chunks_exact_mut(4 * k).enumerate() {
        let r = r0 + t;
        let sr = &s[r * k..(r + 1) * k];
        let cr = &c[r / l * k..(r / l + 1) * k];
        let (os, rest) = row.split_at_mut(k);
        let (oc, rest) = rest.split_at_mut(k);
        let (od, op) = rest.split_at_mut(k);
        let outs = os.iter_mut().zip(oc).zip(od).zip(op);
        for ((((os, oc), od), op), (&x, &y)) in outs.zip(sr.iter().zip(cr)) {
            *os = x;
            *oc = y;
            *od = x - y;
            *op = x * y;
        }
    }
}

impl Tape {
    /// DIN's activation unit pooling: attention of candidate row `i` of
    /// `cand` (`B×K`) over rows `i·L..(i+1)·L` of `seq` (`(B·L)×K`), with
    /// the `[s, c, s − c, s ⊙ c]` interaction input, `tower`, `−1e9` on the
    /// positions where `mask` (`B·L` validity flags) is not positive, a
    /// softmax per sample and the weighted sum of the sequence (`B×K`).
    ///
    /// One node for the chain `repeat → sub, mul → concat → linear+ReLU →
    /// linear → reshape → +mask → softmax_rows → bmm_nn`. The interaction
    /// input is built a row tile at a time and never stored; the node keeps
    /// the hidden activations and the softmax weights. `panels` are `w1` and
    /// `w2` packed ahead of time (an inference graph's cache); `None` packs
    /// them per call. Forward and backward make the chain's roundings in
    /// the chain's reverse-sweep order, so value and gradients are bitwise
    /// the chain's (the tests pin this).
    pub fn activation_unit(
        &mut self,
        seq: Var,
        cand: Var,
        mask: &[f32],
        tower: UnitTower,
        panels: Option<(&PackedB, &PackedB)>,
    ) -> Var {
        let (b, k) = self.shape(cand);
        let (bl, k_seq) = self.shape(seq);
        assert_eq!(k, k_seq, "sequence and candidate widths differ");
        assert!(
            b > 0 && k > 0 && bl.is_multiple_of(b),
            "{bl} sequence rows for {b} candidates"
        );
        assert_eq!(mask.len(), bl, "one mask flag per sequence row");
        let l = bl / b;
        let h = self.shape(tower.w1).1;
        assert_eq!(
            self.shape(tower.w1),
            (4 * k, h),
            "first layer must map 4K → H"
        );
        assert_eq!(self.shape(tower.b1), (1, h), "first-layer bias");
        assert_eq!(self.shape(tower.w2), (h, 1), "second layer must map H → 1");
        assert_eq!(self.shape(tower.b2), (1, 1), "second-layer bias");

        let packed;
        let (p1, p2) = match panels {
            Some(p) => p,
            None => {
                packed = [tower.w1, tower.w2].map(|w| PackedB::pack(self.value(w)));
                (&packed[0], &packed[1])
            }
        };
        assert_eq!(
            (p1.k(), p1.n(), p2.k(), p2.n()),
            (4 * k, h, h, 1),
            "tower panels"
        );
        let (s, c) = (self.value(seq).as_slice(), self.value(cand).as_slice());
        let hidden = p1.matmul_generated(
            bl,
            GemmEpilogue::AddBiasRelu(self.value(tower.b1).as_slice()),
            |r0, a| interaction_rows(s, c, k, l, r0, a),
        );
        let scores = hidden
            .matmul_nn_ep_prepacked(p2, GemmEpilogue::AddBias(self.value(tower.b2).as_slice()));
        let masked = scores
            .as_slice()
            .iter()
            .zip(mask)
            .map(|(&v, &m)| v + if m > 0.0 { 0.0 } else { -1e9 })
            .collect();
        let weights = Tensor::from_vec(b, l, masked).row_softmax();
        let value = weights.bmm_nn(self.value(seq), b);

        let grad = |v: Var| self.requires_grad(v);
        let (seq_grad, cand_grad) = (grad(seq), grad(cand));
        let [w1_grad, b1_grad, w2_grad, b2_grad] =
            [tower.w1, tower.b1, tower.w2, tower.b2].map(grad);
        let inputs = [seq, cand, tower.w1, tower.b1, tower.w2, tower.b2];
        self.push_op(&inputs, value, move |g, vals, ctx| {
            let (sv, cv) = (&vals[seq.0], &vals[cand.0]);
            // bmm_nn: the weights' gradient, then the first into seq.
            let dweights = g.bmm_nt(sv, b);
            if seq_grad {
                ctx.accum(seq, weights.bmm_tn(g, b));
            }
            // softmax_rows, then the mask add and the reshape pass it on.
            let dscores = softmax_rows_backward(&weights, &dweights).reshape(bl, 1);
            // The second layer (identity activation).
            let mut dz = dscores.matmul_nt(&vals[tower.w2.0]);
            if w2_grad {
                ctx.accum(tower.w2, hidden.matmul_tn(&dscores));
            }
            if b2_grad {
                ctx.accum(tower.b2, dscores.col_sum());
            }
            // The first layer: ReLU read off the stored output.
            for (d, &y) in dz.as_mut_slice().iter_mut().zip(hidden.as_slice()) {
                *d = if y > 0.0 { *d } else { 0.0 };
            }
            let (s, c) = (sv.as_slice(), cv.as_slice());
            if w1_grad {
                let mut att_in = vec![0.0; bl * 4 * k];
                interaction_rows(s, c, k, l, 0, &mut att_in);
                let att_in = Tensor::from_vec(bl, 4 * k, att_in);
                ctx.accum(tower.w1, att_in.matmul_tn(&dz));
            }
            if b1_grad {
                ctx.accum(tower.b1, dz.col_sum());
            }
            if !(seq_grad || cand_grad) {
                return;
            }
            // concat, then mul and sub: the input gradient `d` split into
            // its four `K`-wide parts.
            let d = dz.matmul_nt(&vals[tower.w1.0]);
            let rows = d.as_slice().chunks_exact(4 * k).enumerate();
            if seq_grad {
                let ds = ctx.slot(seq, (bl, k)).as_mut_slice();
                for ((r, dr), dsr) in rows.clone().zip(ds.chunks_exact_mut(k)) {
                    let cr = &c[r / l * k..(r / l + 1) * k];
                    for (j, (x, &cj)) in dsr.iter_mut().zip(cr).enumerate() {
                        *x += dr[j];
                        *x += dr[3 * k + j] * cj;
                        *x += dr[2 * k + j];
                    }
                }
            }
            if cand_grad {
                // The repeated candidate's gradient per position, summed
                // from zeros in position order.
                let mut dc = Tensor::zeros(b, k);
                let dcs = dc.as_mut_slice();
                for ((r, dr), sr) in rows.zip(s.chunks_exact(k)) {
                    let dcr = &mut dcs[r / l * k..(r / l + 1) * k];
                    for (j, (x, &sj)) in dcr.iter_mut().zip(sr).enumerate() {
                        *x += dr[k + j] + dr[3 * k + j] * sj - dr[2 * k + j];
                    }
                }
                ctx.accum(cand, dc);
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::UnitTower;
    use crate::gradcheck::check;
    use crate::{LinearAct, Tape, Var};
    use miss_tensor::{PackedB, Tensor};

    /// The chain the op replaces, from generic tape ops: its reference.
    fn composed(t: &mut Tape, seq: Var, cand: Var, mask: &[f32], tw: UnitTower) -> Var {
        let (b, _) = t.shape(cand);
        let l = t.shape(seq).0 / b;
        let cand_t = t.repeat_rows_interleave(cand, l);
        let diff = t.sub(seq, cand_t);
        let prod = t.mul(seq, cand_t);
        let att_in = t.concat_cols(&[seq, cand_t, diff, prod]);
        let hidden = t.linear(att_in, tw.w1, tw.b1, LinearAct::Relu);
        let scores = t.linear(hidden, tw.w2, tw.b2, LinearAct::Identity);
        let scores = t.reshape(scores, b, l);
        let neg = mask
            .iter()
            .map(|&m| if m > 0.0 { 0.0 } else { -1e9 })
            .collect();
        let neg = t.constant(Tensor::from_vec(b, l, neg));
        let masked = t.add(scores, neg);
        let weights = t.softmax_rows(masked);
        t.bmm_nn(weights, seq, b)
    }

    /// A xorshift generator for the drawn shapes and values.
    struct Draw(u64);

    impl Draw {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        /// Uniform in `[-scale, scale)`, with one value in ten a signed zero.
        fn value(&mut self, scale: f32) -> f32 {
            match self.below(20) {
                0 => 0.0,
                1 => -0.0,
                _ => ((self.next() >> 40) as f32 / (1u64 << 24) as f32 * 2.0 - 1.0) * scale,
            }
        }

        fn tensor(&mut self, r: usize, c: usize, scale: f32) -> Tensor {
            Tensor::from_fn(r, c, |_, _| self.value(scale))
        }
    }

    /// One drawn problem: `seq`, `cand`, `w1, b1, w2, b2`, the mask, and the
    /// constant the output is weighted by in the loss.
    struct Case {
        inputs: [Tensor; 6],
        mask: Vec<f32>,
        weight: Tensor,
    }

    fn draw_case(d: &mut Draw, b: usize, l: usize, k: usize, h: usize) -> Case {
        // Mostly valid positions; sample 0 is all padding when b > 1.
        let mask = (0..b * l)
            .map(|r| {
                if (b > 1 && r < l) || d.below(5) == 0 {
                    0.0
                } else {
                    1.0
                }
            })
            .collect();
        Case {
            inputs: [
                d.tensor(b * l, k, 1.0),
                d.tensor(b, k, 1.0),
                d.tensor(4 * k, h, 0.6),
                d.tensor(1, h, 0.3),
                d.tensor(h, 1, 1.5),
                d.tensor(1, 1, 0.3),
            ],
            mask,
            weight: d.tensor(b, k, 2.0),
        }
    }

    /// How a run records the inputs and which op it calls.
    #[derive(Clone, Copy)]
    struct Mode {
        fused: bool,
        /// Pack `w1` and `w2` ahead of the call (fused only).
        panels: bool,
        /// Record, after the unit, a term on every input, so that each
        /// gradient slot is filled before the unit's backward reaches it.
        prefill: bool,
        /// Inputs recorded as constants rather than leaves.
        constants: [bool; 6],
    }

    /// Bits of the unit's value and of every input's gradient.
    fn run(case: &Case, mode: Mode) -> (Vec<u32>, Vec<Option<Vec<u32>>>) {
        let bits = |x: &Tensor| x.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let mut t = Tape::new();
        let vars: Vec<Var> = case
            .inputs
            .iter()
            .zip(mode.constants)
            .map(|(x, c)| {
                if c {
                    t.constant(x.clone())
                } else {
                    t.leaf(x.clone())
                }
            })
            .collect();
        let tw = UnitTower {
            w1: vars[2],
            b1: vars[3],
            w2: vars[4],
            b2: vars[5],
        };
        let packed = [&case.inputs[2], &case.inputs[4]].map(PackedB::pack);
        let y = if mode.fused {
            let panels = mode.panels.then_some((&packed[0], &packed[1]));
            t.activation_unit(vars[0], vars[1], &case.mask, tw, panels)
        } else {
            composed(&mut t, vars[0], vars[1], &case.mask, tw)
        };
        let value = bits(t.value(y));
        let w = t.constant(case.weight.clone());
        let p = t.mul(y, w);
        let mut loss = t.sum_all(p);
        if mode.prefill {
            for (&v, x) in vars.iter().zip(&case.inputs) {
                let c = t.constant(x.map(|e| 0.75 - e));
                let q = t.mul(v, c);
                let s = t.sum_all(q);
                loss = t.add(loss, s);
            }
        }
        let grads = t.backward(loss);
        (
            value,
            vars.iter().map(|&v| grads.get(v).map(bits)).collect(),
        )
    }

    const NAMES: [&str; 6] = ["seq", "cand", "w1", "b1", "w2", "b2"];

    #[test]
    fn matches_composed_chain_bitwise() {
        let mut d = Draw(0x9e37_79b9_7f4a_7c15);
        let mut shapes = vec![
            (1, 1, 1, 16),
            (3, 1, 10, 16),
            (2, 30, 10, 16),
            (4, 7, 13, 5),
        ];
        for _ in 0..12 {
            shapes.push((
                1 + d.below(6),
                1 + d.below(12),
                1 + d.below(20),
                1 + d.below(24),
            ));
        }
        for (b, l, k, h) in shapes {
            let case = draw_case(&mut d, b, l, k, h);
            for prefill in [false, true] {
                let chain = Mode {
                    fused: false,
                    panels: false,
                    prefill,
                    constants: [false; 6],
                };
                let want = run(&case, chain);
                for panels in [false, true] {
                    let got = run(
                        &case,
                        Mode {
                            fused: true,
                            panels,
                            ..chain
                        },
                    );
                    let at = format!("b={b} l={l} k={k} h={h} prefill={prefill} panels={panels}");
                    assert_eq!(got.0, want.0, "value, {at}");
                    for (name, (g, w)) in NAMES.iter().zip(got.1.iter().zip(&want.1)) {
                        assert!(g.is_some(), "d{name} missing, {at}");
                        assert_eq!(g, w, "d{name}, {at}");
                    }
                }
            }
        }
    }

    #[test]
    fn constant_inputs_get_no_gradient_and_leaves_keep_their_bits() {
        let mut d = Draw(7);
        let case = draw_case(&mut d, 3, 5, 6, 16);
        let leaves = Mode {
            fused: true,
            panels: false,
            prefill: false,
            constants: [false; 6],
        };
        let (_, all) = run(&case, leaves);
        for fixed in [
            [true, false, false, false, false, false],
            [false, true, true, true, true, true],
        ] {
            let (_, got) = run(
                &case,
                Mode {
                    constants: fixed,
                    ..leaves
                },
            );
            for (i, name) in NAMES.iter().enumerate() {
                let want = if fixed[i] { None } else { all[i].clone() };
                assert_eq!(got[i], want, "d{name} with constants {fixed:?}");
            }
        }
    }

    #[test]
    fn grad_activation_unit() {
        // Two samples of three positions, one padded; K = 2, H = 3.
        let mask = [1.0, 1.0, 0.0, 1.0, 1.0, 1.0];
        let inputs = [
            Tensor::from_fn(6, 2, |i, j| 0.4 * (i as f32) - 0.7 * (j as f32) - 0.5),
            Tensor::from_fn(2, 2, |i, j| 0.3 - 0.6 * (i as f32) + 0.45 * (j as f32)),
            Tensor::from_fn(8, 3, |i, j| ((i * 5 + j * 3) % 7) as f32 * 0.15 - 0.4),
            Tensor::from_vec(1, 3, vec![0.9, 1.1, 0.8]),
            Tensor::from_vec(3, 1, vec![0.7, -0.9, 0.5]),
            Tensor::scalar(0.2),
        ];
        check(
            &inputs,
            |t, vs| {
                let tw = UnitTower {
                    w1: vs[2],
                    b1: vs[3],
                    w2: vs[4],
                    b2: vs[5],
                };
                let y = t.activation_unit(vs[0], vs[1], &mask, tw, None);
                let sq = t.mul(y, y);
                t.sum_all(sq)
            },
            5e-2,
        );
    }
}
