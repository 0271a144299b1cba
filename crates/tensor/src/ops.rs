//! Dense kernels. All shape checks panic: a mismatch is a bug in the caller,
//! never a recoverable runtime condition.
//!
//! Every matmul and bmm packs its right-hand operand into the panel layout
//! of `kernels.rs` and runs the one packed dispatcher, `gemm_packed`, which
//! picks the fused (AVX2+FMA) or the portable panel body. Once the
//! multiply-accumulate count crosses [`PAR_MIN_MACS`] it fans output-row (or
//! block) chunks out over `miss-parallel`. Chunk boundaries are a pure
//! function of the shape, and each output element's accumulation order is
//! fixed inside the kernels, so results are bit-identical for any
//! `MISS_THREADS` value.
#![expect(
    clippy::indexing_slicing,
    reason = "every op asserts its operand shapes on entry; the row windows and columns it then indexes lie inside them"
)]

use crate::kernels;
use crate::kernels::GemmEpilogue;
use crate::Tensor;

/// Minimum multiply-accumulate count (`m·k·n`) before a kernel call fans
/// out to the thread pool; below this, thread spawns cost more than they
/// save. Purely a performance knob — results are identical either way.
const PAR_MIN_MACS: usize = 1 << 18;

/// An `m×n` GEMM output (inner dimension `k`) whose row chunks are filled
/// in parallel by `kernel(first_row, rows, c_rows)`. A chunk is the whole
/// matrix when the call is too small to parallelise, otherwise a fixed
/// fraction of `m` rounded up to whole tiles: it depends only on the
/// shape, never on thread count.
fn row_chunks(
    m: usize,
    n: usize,
    k: usize,
    kernel: impl Fn(usize, usize, &mut [f32]) + Sync,
) -> Tensor {
    let mut out = Tensor::zeros(m, n);
    if out.is_empty() {
        return out;
    }
    let rows = if m * k * n < PAR_MIN_MACS {
        m
    } else {
        let tile = kernels::TILE_M;
        miss_parallel::fixed_chunk_len(m, tile).div_ceil(tile) * tile
    };
    miss_parallel::par_chunks_mut(out.as_mut_slice(), rows * n, |_, start, c| {
        kernel(start / n, c.len() / n, c);
    });
    out
}

/// A `shape` output of a `blocks`-deep bmm, filled by `block(blk, c_blk,
/// pack_scratch)` for every block. Block chunks follow [`row_chunks`]'s
/// rule with a granularity of one block (`macs` is the whole product's
/// multiply-accumulate count). Each worker thread reuses its own pack
/// scratch across its blocks.
fn block_chunks(
    shape: (usize, usize),
    blocks: usize,
    macs: usize,
    block: impl Fn(usize, &mut [f32], &mut Vec<f32>) + Sync,
) -> Tensor {
    let mut out = Tensor::zeros(shape.0, shape.1);
    if out.is_empty() {
        return out;
    }
    let blk_len = out.len() / blocks;
    let chunk = if macs < PAR_MIN_MACS {
        blocks
    } else {
        miss_parallel::fixed_chunk_len(blocks, 1)
    };
    miss_parallel::par_chunks_mut(out.as_mut_slice(), chunk * blk_len, |_, start, c| {
        kernels::with_pack_scratch(|pb| {
            for (bi, cblk) in c.chunks_exact_mut(blk_len).enumerate() {
                block(start / blk_len + bi, cblk, pb);
            }
        });
    });
    out
}

/// A `k×n` right-hand operand packed once into the kernel's panel layout so
/// repeated multiplies against it (frozen inference, eval loops) skip the
/// per-call pack that [`Tensor::matmul_nn_ep`] performs.
///
/// `data` holds exactly the bytes `pack_b_from_nn` would produce for this
/// operand, and both panel bodies read that one layout, so a prepacked
/// multiply is bit-identical to the pack-per-call path on every machine.
pub struct PackedB {
    k: usize,
    n: usize,
    data: Vec<f32>,
}

impl PackedB {
    /// Pack a `k×n` tensor. The packed bytes depend only on the operand's
    /// values and shape — never on thread count.
    pub fn pack(b: &Tensor) -> PackedB {
        let (k, n) = b.shape();
        let mut data = Vec::new();
        kernels::pack_b_from_nn(b.as_slice(), k, n, &mut data);
        PackedB { k, n, data }
    }

    /// Rows of the packed operand (the GEMM inner dimension).
    pub fn k(&self) -> usize {
        self.k
    }

    /// Columns of the packed operand (the GEMM output width).
    pub fn n(&self) -> usize {
        self.n
    }

    /// `ep(A @ B)` for an `m×k` A that is never stored whole:
    /// `fill(first_row, a)` writes rows `first_row..` of A into `a`, a
    /// scratch of whole rows. Row chunks follow
    /// [`Tensor::matmul_nn_ep_prepacked`]'s rule, and each chunk fills and
    /// multiplies a few dozen rows at a time, so A costs one small tile per
    /// thread. Every output element is the same chain as in that call over
    /// the stored A, so the bits are the same too.
    pub fn matmul_generated(
        &self,
        m: usize,
        ep: GemmEpilogue,
        fill: impl Fn(usize, &mut [f32]) + Sync,
    ) -> Tensor {
        let (k, n) = (self.k, self.n);
        if let Some(b) = ep.bias() {
            assert_eq!(b.len(), n, "epilogue bias width");
        }
        row_chunks(m, n, k, |r0, rows, c| {
            kernels::with_pack_scratch(|a| {
                // Sized for a full tile whatever `rows` is, so a small call
                // never leaves a scratch that a larger one must grow.
                if a.len() < GEN_ROWS * k {
                    a.resize(GEN_ROWS * k, 0.0);
                }
                for t0 in (0..rows).step_by(GEN_ROWS) {
                    let t = GEN_ROWS.min(rows - t0);
                    let a = &mut a[..t * k];
                    fill(r0 + t0, a);
                    let c = &mut c[t0 * n..(t0 + t) * n];
                    kernels::gemm_packed::<false>(a, &self.data, c, 0, t, k, k, n, &ep);
                }
            })
        })
    }
}

/// Rows of A that [`PackedB::matmul_generated`] builds and multiplies at a
/// time: a multiple of both panel bodies' row tiles.
const GEN_ROWS: usize = 4 * kernels::TILE_M;

impl Tensor {
    // ------------------------------------------------------------------
    // Matrix multiplication
    // ------------------------------------------------------------------

    /// `self (m×k) @ other (k×n) -> m×n`, tiled with parallel row chunks.
    pub fn matmul_nn(&self, other: &Tensor) -> Tensor {
        self.matmul_nn_ep(other, GemmEpilogue::None)
    }

    /// [`Tensor::matmul_nn_ep`] against a [`PackedB`] packed ahead of time.
    /// Chunking, kernel dispatch, and accumulation order match the
    /// pack-per-call path exactly, so the result is bit-identical to
    /// `self.matmul_nn_ep(b, ep)` for the tensor `b` that was packed.
    pub fn matmul_nn_ep_prepacked(&self, other: &PackedB, ep: GemmEpilogue) -> Tensor {
        let (k, k2, n) = (self.cols(), other.k, other.n);
        assert_eq!(k, k2, "matmul_nn_ep_prepacked inner dims {k} vs {k2}");
        if let Some(b) = ep.bias() {
            assert_eq!(b.len(), n, "epilogue bias width");
        }
        self.nn_ep_on(&other.data, n, &ep)
    }

    /// [`Tensor::matmul_nn`] with a fused epilogue: bias add and activation
    /// happen in the accumulator-store tail of the kernel instead of as
    /// separate full-matrix passes, on both the fused and the portable panel
    /// body.
    pub fn matmul_nn_ep(&self, other: &Tensor, ep: GemmEpilogue) -> Tensor {
        let (k, (k2, n)) = (self.cols(), other.shape());
        assert_eq!(k, k2, "matmul_nn inner dims {k} vs {k2}");
        if let Some(b) = ep.bias() {
            assert_eq!(b.len(), n, "epilogue bias width");
        }
        // Pack B once per call; every row chunk reads the same panels.
        kernels::with_pack_scratch(|pb| {
            kernels::pack_b_from_nn(other.as_slice(), k, n, pb);
            self.nn_ep_on(pb, n, &ep)
        })
    }

    /// `self (m×k) @ other^T (n×k) -> m×n`.
    pub fn matmul_nt(&self, other: &Tensor) -> Tensor {
        let (k, (n, k2)) = (self.cols(), other.shape());
        assert_eq!(k, k2, "matmul_nt inner dims {k} vs {k2}");
        // The transposing pack produces bytes identical to packing the
        // equivalent row-major B, so nt and nn agree bitwise.
        kernels::with_pack_scratch(|pb| {
            kernels::pack_b_from_nt(other.as_slice(), n, k, pb);
            self.nn_ep_on(pb, n, &GemmEpilogue::None)
        })
    }

    /// `ep(self @ B)`, where `pb` holds the `k×n` B packed into panels.
    fn nn_ep_on(&self, pb: &[f32], n: usize, ep: &GemmEpilogue) -> Tensor {
        let ((m, k), a) = (self.shape(), self.as_slice());
        row_chunks(m, n, k, |r0, rows, c| {
            kernels::gemm_packed::<false>(&a[r0 * k..(r0 + rows) * k], pb, c, 0, rows, k, k, n, ep)
        })
    }

    /// `self^T (k×m) @ other (k×n) -> m×n`.
    pub fn matmul_tn(&self, other: &Tensor) -> Tensor {
        let ((k, m), (k2, n)) = (self.shape(), other.shape());
        assert_eq!(k, k2, "matmul_tn inner dims {k} vs {k2}");
        let a = self.as_slice();
        kernels::with_pack_scratch(|pb| {
            kernels::pack_b_from_nn(other.as_slice(), k, n, pb);
            let pb: &[f32] = pb;
            row_chunks(m, n, k, |i0, rows, c| {
                kernels::gemm_packed::<true>(a, pb, c, i0, i0 + rows, k, m, n, &GemmEpilogue::None)
            })
        })
    }

    /// Block-diagonal `A_i (p×k) @ B_i^T (q×k)` for `blocks` stacked blocks.
    /// `self` is `(blocks*p)×k`, `other` is `(blocks*q)×k`; output is
    /// `(blocks*p)×q`. Used for batched attention over per-sample segments.
    pub fn bmm_nt(&self, other: &Tensor, blocks: usize) -> Tensor {
        let (bp, k) = self.shape();
        let (bq, k2) = other.shape();
        assert_eq!(k, k2, "bmm_nt inner dims");
        assert_eq!(bp % blocks, 0, "bmm_nt lhs rows not divisible by blocks");
        assert_eq!(bq % blocks, 0, "bmm_nt rhs rows not divisible by blocks");
        let p = bp / blocks;
        let q = bq / blocks;
        let (a, b) = (self.as_slice(), other.as_slice());
        block_chunks((bp, q), blocks, blocks * p * q * k, |blk, cblk, pb| {
            let ablk = &a[blk * p * k..(blk + 1) * p * k];
            let bblk = &b[blk * q * k..(blk + 1) * q * k];
            kernels::pack_b_from_nt(bblk, q, k, pb);
            kernels::gemm_packed::<false>(ablk, pb, cblk, 0, p, k, k, q, &GemmEpilogue::None);
        })
    }

    /// Block-diagonal `A_i (p×q) @ B_i (q×k)`. `self` is `(blocks*p)×q`,
    /// `other` is `(blocks*q)×k`; output is `(blocks*p)×k`.
    pub fn bmm_nn(&self, other: &Tensor, blocks: usize) -> Tensor {
        let (bp, q) = self.shape();
        let (bq, k) = other.shape();
        assert_eq!(bp % blocks, 0, "bmm_nn lhs rows not divisible by blocks");
        assert_eq!(bq % blocks, 0, "bmm_nn rhs rows not divisible by blocks");
        let p = bp / blocks;
        assert_eq!(bq / blocks, q, "bmm_nn inner dims");
        let (a, b) = (self.as_slice(), other.as_slice());
        block_chunks((bp, k), blocks, blocks * p * q * k, |blk, cblk, pb| {
            let ablk = &a[blk * p * q..(blk + 1) * p * q];
            let bblk = &b[blk * q * k..(blk + 1) * q * k];
            kernels::pack_b_from_nn(bblk, q, k, pb);
            kernels::gemm_packed::<false>(ablk, pb, cblk, 0, p, q, q, k, &GemmEpilogue::None);
        })
    }

    /// Block-diagonal `A_i^T (q×p) @ B_i (p×k)`. `self` is `(blocks*p)×q`,
    /// `other` is `(blocks*p)×k`; output is `(blocks*q)×k`. Backward helper
    /// for the `bmm` family.
    pub fn bmm_tn(&self, other: &Tensor, blocks: usize) -> Tensor {
        let (bp, q) = self.shape();
        let (bp2, k) = other.shape();
        assert_eq!(bp, bp2, "bmm_tn row counts");
        assert_eq!(bp % blocks, 0);
        let p = bp / blocks;
        let (a, b) = (self.as_slice(), other.as_slice());
        block_chunks((blocks * q, k), blocks, blocks * p * q * k, |blk, cblk, pb| {
            let ablk = &a[blk * p * q..(blk + 1) * p * q];
            let bblk = &b[blk * p * k..(blk + 1) * p * k];
            kernels::pack_b_from_nn(bblk, p, k, pb);
            kernels::gemm_packed::<true>(ablk, pb, cblk, 0, q, p, q, k, &GemmEpilogue::None);
        })
    }

    // ------------------------------------------------------------------
    // Elementwise
    // ------------------------------------------------------------------

    fn zip_with(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        assert_eq!(self.shape(), other.shape(), "elementwise shape mismatch");
        let data = self
            .as_slice()
            .iter()
            .zip(other.as_slice())
            .map(|(&a, &b)| f(a, b))
            .collect();
        Tensor::from_vec(self.rows(), self.cols(), data)
    }

    /// Elementwise sum.
    pub fn add(&self, other: &Tensor) -> Tensor {
        self.zip_with(other, |a, b| a + b)
    }

    /// Elementwise difference.
    pub fn sub(&self, other: &Tensor) -> Tensor {
        self.zip_with(other, |a, b| a - b)
    }

    /// Elementwise (Hadamard) product.
    pub fn mul(&self, other: &Tensor) -> Tensor {
        self.zip_with(other, |a, b| a * b)
    }

    /// Elementwise map.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        let data = self.as_slice().iter().map(|&x| f(x)).collect();
        Tensor::from_vec(self.rows(), self.cols(), data)
    }

    /// Multiply every element by a scalar.
    pub fn scale(&self, s: f32) -> Tensor {
        self.map(|x| x * s)
    }

    /// `self += other` in place.
    pub fn add_assign(&mut self, other: &Tensor) {
        assert_eq!(self.shape(), other.shape(), "add_assign shape mismatch");
        for (a, &b) in self.as_mut_slice().iter_mut().zip(other.as_slice()) {
            *a += b;
        }
    }

    /// Add a `1×cols` row vector to every row (bias broadcast).
    pub fn add_row_broadcast(&self, bias: &Tensor) -> Tensor {
        assert_eq!(bias.rows(), 1, "bias must be a row vector");
        assert_eq!(bias.cols(), self.cols(), "bias width mismatch");
        let mut out = self.clone();
        let b = bias.as_slice();
        for row in out.as_mut_slice().chunks_exact_mut(b.len()) {
            for (r, &bv) in row.iter_mut().zip(b) {
                *r += bv;
            }
        }
        out
    }

    /// Multiply each row elementwise by a `rows×1` column vector (row scaling).
    pub fn mul_col_broadcast(&self, col: &Tensor) -> Tensor {
        assert_eq!(col.cols(), 1, "col must be a column vector");
        assert_eq!(col.rows(), self.rows(), "col height mismatch");
        let mut out = self.clone();
        let c = self.cols();
        for (i, row) in out.as_mut_slice().chunks_exact_mut(c).enumerate() {
            let s = col.as_slice()[i];
            for r in row.iter_mut() {
                *r *= s;
            }
        }
        out
    }

    // ------------------------------------------------------------------
    // Reductions
    // ------------------------------------------------------------------

    /// Sum of all elements.
    pub fn sum_all(&self) -> f32 {
        self.as_slice().iter().sum()
    }

    /// Mean of all elements.
    pub fn mean_all(&self) -> f32 {
        if self.is_empty() {
            0.0
        } else {
            self.sum_all() / self.len() as f32
        }
    }

    /// Column sums as a `1×cols` row vector.
    pub fn col_sum(&self) -> Tensor {
        let mut out = Tensor::zeros(1, self.cols());
        let o = out.as_mut_slice();
        for row in self.as_slice().chunks_exact(self.cols()) {
            for (ov, &rv) in o.iter_mut().zip(row) {
                *ov += rv;
            }
        }
        out
    }

    /// Sum of every run of `len` consecutive rows, `(rows/len)×cols`. Each
    /// element is one chain from 0.0 in row order, so this is bitwise
    /// `ones(rows/len × len).bmm_nn(self, rows/len)` on both panel bodies:
    /// `fma(1, s, acc)` and `acc + 1·s` both round `acc + s` once.
    pub fn segment_sum(&self, len: usize) -> Tensor {
        assert!(
            len > 0 && self.rows().is_multiple_of(len),
            "{} rows are not runs of {len}",
            self.rows()
        );
        let mut out = Tensor::zeros(self.rows() / len, self.cols());
        for r in 0..self.rows() {
            for (o, &v) in out.row_mut(r / len).iter_mut().zip(self.row(r)) {
                *o += v;
            }
        }
        out
    }

    /// Row sums as a `rows×1` column vector.
    pub fn row_sum(&self) -> Tensor {
        let data = self
            .as_slice()
            .chunks_exact(self.cols())
            .map(|row| row.iter().sum())
            .collect();
        Tensor::from_vec(self.rows(), 1, data)
    }

    // ------------------------------------------------------------------
    // Row-wise numerics
    // ------------------------------------------------------------------

    /// Numerically stable row-wise softmax.
    pub fn row_softmax(&self) -> Tensor {
        let mut out = self.clone();
        for row in out.as_mut_slice().chunks_exact_mut(self.cols()) {
            softmax_in_place(row);
        }
        out
    }

    /// Numerically stable row-wise log-sum-exp as a `rows×1` vector.
    pub fn row_logsumexp(&self) -> Tensor {
        let mut shifted = Vec::with_capacity(self.cols());
        let data = self
            .as_slice()
            .chunks_exact(self.cols())
            .map(|row| {
                let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
                if max.is_infinite() {
                    return max;
                }
                shifted.clear();
                shifted.extend(row.iter().map(|&v| v - max));
                crate::math::exp_in_place(&mut shifted);
                let s: f32 = shifted.iter().sum();
                max + s.ln()
            })
            .collect();
        Tensor::from_vec(self.rows(), 1, data)
    }

    /// [`Tensor::row_logsumexp`] and [`Tensor::row_softmax`] from one set of
    /// `exp`s. Both take the same row max, the same `exp(v - max)` and the
    /// same left-to-right sum, so the pair is bitwise equal to the two
    /// separate calls. The log-sum-exp backward needs exactly this softmax.
    pub fn row_logsumexp_softmax(&self) -> (Tensor, Tensor) {
        let mut sm = self.clone();
        let mut lse = Tensor::zeros(self.rows(), 1);
        for (row, l) in sm.as_mut_slice().chunks_exact_mut(self.cols()).zip(lse.as_mut_slice()) {
            let (max, sum) = softmax_in_place(row);
            *l = if max.is_infinite() { max } else { max + sum.ln() };
        }
        (lse, sm)
    }

    /// L2 norm of each row as a `rows×1` vector, floored at `eps`.
    pub fn row_l2_norm(&self, eps: f32) -> Tensor {
        let data = self
            .as_slice()
            .chunks_exact(self.cols())
            .map(|row| row.iter().map(|&v| v * v).sum::<f32>().sqrt().max(eps))
            .collect();
        Tensor::from_vec(self.rows(), 1, data)
    }

    // ------------------------------------------------------------------
    // Layout
    // ------------------------------------------------------------------

    /// Transposed copy.
    pub fn transpose(&self) -> Tensor {
        let (m, n) = self.shape();
        let mut out = Tensor::zeros(n, m);
        for i in 0..m {
            for j in 0..n {
                out.set(j, i, self.get(i, j));
            }
        }
        out
    }

    /// Horizontal concatenation of matrices with equal row counts.
    pub fn concat_cols(parts: &[&Tensor]) -> Tensor {
        assert!(!parts.is_empty());
        let rows = parts[0].rows();
        assert!(parts.iter().all(|p| p.rows() == rows), "row count mismatch");
        let total: usize = parts.iter().map(|p| p.cols()).sum();
        let mut data = Vec::with_capacity(rows * total);
        for r in 0..rows {
            for p in parts {
                data.extend_from_slice(p.row(r));
            }
        }
        Tensor::from_vec(rows, total, data)
    }

    /// Vertical concatenation of matrices with equal column counts.
    pub fn concat_rows(parts: &[&Tensor]) -> Tensor {
        assert!(!parts.is_empty());
        let cols = parts[0].cols();
        assert!(parts.iter().all(|p| p.cols() == cols), "col count mismatch");
        let rows: usize = parts.iter().map(|p| p.rows()).sum();
        let mut data = Vec::with_capacity(rows * cols);
        for p in parts {
            data.extend_from_slice(p.as_slice());
        }
        Tensor::from_vec(rows, cols, data)
    }

    /// Copy of the column range `[lo, hi)`.
    pub fn slice_cols(&self, lo: usize, hi: usize) -> Tensor {
        assert!(lo <= hi && hi <= self.cols(), "bad column slice {lo}..{hi}");
        let mut data = Vec::with_capacity(self.rows() * (hi - lo));
        for r in 0..self.rows() {
            data.extend_from_slice(&self.row(r)[lo..hi]);
        }
        Tensor::from_vec(self.rows(), hi - lo, data)
    }

    /// Gather rows by index (rows may repeat).
    pub fn gather_rows(&self, idx: &[usize]) -> Tensor {
        let mut data = Vec::with_capacity(idx.len() * self.cols());
        for &i in idx {
            assert!(
                i < self.rows(),
                "gather index {i} out of {} rows",
                self.rows()
            );
            data.extend_from_slice(self.row(i));
        }
        Tensor::from_vec(idx.len(), self.cols(), data)
    }

    /// `self[idx[r]] += src[r]` for every row of `src` (scatter-add; the
    /// adjoint of `gather_rows`).
    pub fn scatter_add_rows(&mut self, idx: &[usize], src: &Tensor) {
        assert_eq!(idx.len(), src.rows(), "scatter index count");
        assert_eq!(self.cols(), src.cols(), "scatter width");
        for (r, &i) in idx.iter().enumerate() {
            assert!(i < self.rows());
            let srow = src.row(r);
            let drow = self.row_mut(i);
            for (d, &s) in drow.iter_mut().zip(srow) {
                *d += s;
            }
        }
    }

    /// Repeat each row `times` times consecutively:
    /// `[a; b] -> [a; a; b; b]` for `times == 2`.
    pub fn repeat_rows_interleave(&self, times: usize) -> Tensor {
        let mut data = Vec::with_capacity(self.len() * times);
        for r in 0..self.rows() {
            for _ in 0..times {
                data.extend_from_slice(self.row(r));
            }
        }
        Tensor::from_vec(self.rows() * times, self.cols(), data)
    }

    /// Repeat the whole matrix `times` times vertically:
    /// `[a; b] -> [a; b; a; b]` for `times == 2`.
    pub fn tile_rows(&self, times: usize) -> Tensor {
        let mut data = Vec::with_capacity(self.len() * times);
        for _ in 0..times {
            data.extend_from_slice(self.as_slice());
        }
        Tensor::from_vec(self.rows() * times, self.cols(), data)
    }
}

/// Overwrite `row` with its softmax; returns the row max and the sum of
/// `exp(v - max)` the softmax was divided by.
fn softmax_in_place(row: &mut [f32]) -> (f32, f32) {
    let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    for v in row.iter_mut() {
        *v -= max;
    }
    crate::math::exp_in_place(row);
    let sum = row.iter().fold(0.0, |s, &v| s + v);
    for v in row.iter_mut() {
        *v /= sum;
    }
    (max, sum)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(rows: usize, cols: usize, v: &[f32]) -> Tensor {
        Tensor::from_vec(rows, cols, v.to_vec())
    }

    #[test]
    fn matmul_nn_known() {
        let a = t(2, 3, &[1., 2., 3., 4., 5., 6.]);
        let b = t(3, 2, &[7., 8., 9., 10., 11., 12.]);
        let c = a.matmul_nn(&b);
        assert_eq!(c.as_slice(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn matmul_nt_matches_nn_with_transpose() {
        let a = t(2, 3, &[1., 2., 3., 4., 5., 6.]);
        let b = t(4, 3, &[1., 0., 2., -1., 3., 1., 0.5, 0., 1., 2., 2., 2.]);
        let via_nt = a.matmul_nt(&b);
        let via_nn = a.matmul_nn(&b.transpose());
        assert_eq!(via_nt.as_slice(), via_nn.as_slice());
    }

    #[test]
    fn matmul_tn_matches_nn_with_transpose() {
        let a = t(3, 2, &[1., 2., 3., 4., 5., 6.]);
        let b = t(3, 4, &[1., 0., 2., -1., 3., 1., 0.5, 0., 1., 2., 2., 2.]);
        let via_tn = a.matmul_tn(&b);
        let via_nn = a.transpose().matmul_nn(&b);
        assert_eq!(via_tn.as_slice(), via_nn.as_slice());
    }

    #[test]
    fn bmm_nt_two_blocks() {
        // two blocks, p=1, q=2, k=2
        let a = t(2, 2, &[1., 2., 3., 4.]);
        let b = t(4, 2, &[1., 0., 0., 1., 1., 1., 2., 0.]);
        let c = a.bmm_nt(&b, 2);
        assert_eq!(c.shape(), (2, 2));
        // block0: [1,2]·[1,0]=1, [1,2]·[0,1]=2 ; block1: [3,4]·[1,1]=7, [3,4]·[2,0]=6
        assert_eq!(c.as_slice(), &[1., 2., 7., 6.]);
    }

    #[test]
    fn bmm_nn_matches_per_block_matmul() {
        let blocks = 3;
        let (p, q, k) = (2, 4, 5);
        let a = Tensor::from_fn(blocks * p, q, |r, c| ((r * 7 + c * 3) % 5) as f32 - 2.0);
        let b = Tensor::from_fn(blocks * q, k, |r, c| ((r * 5 + c * 2) % 7) as f32 - 3.0);
        let out = a.bmm_nn(&b, blocks);
        for blk in 0..blocks {
            let ablk = Tensor::from_fn(p, q, |r, c| a.get(blk * p + r, c));
            let bblk = Tensor::from_fn(q, k, |r, c| b.get(blk * q + r, c));
            let expect = ablk.matmul_nn(&bblk);
            for r in 0..p {
                assert_eq!(out.row(blk * p + r), expect.row(r));
            }
        }
    }

    #[test]
    fn bmm_tn_matches_per_block() {
        let blocks = 2;
        let (p, q, k) = (3, 2, 4);
        let a = Tensor::from_fn(blocks * p, q, |r, c| (r + c) as f32);
        let b = Tensor::from_fn(blocks * p, k, |r, c| (r * c) as f32 - 1.0);
        let out = a.bmm_tn(&b, blocks);
        for blk in 0..blocks {
            let ablk = Tensor::from_fn(p, q, |r, c| a.get(blk * p + r, c));
            let bblk = Tensor::from_fn(p, k, |r, c| b.get(blk * p + r, c));
            let expect = ablk.transpose().matmul_nn(&bblk);
            for r in 0..q {
                assert_eq!(out.row(blk * q + r), expect.row(r));
            }
        }
    }

    #[test]
    fn elementwise_ops() {
        let a = t(1, 3, &[1., 2., 3.]);
        let b = t(1, 3, &[4., 5., 6.]);
        assert_eq!(a.add(&b).as_slice(), &[5., 7., 9.]);
        assert_eq!(b.sub(&a).as_slice(), &[3., 3., 3.]);
        assert_eq!(a.mul(&b).as_slice(), &[4., 10., 18.]);
        assert_eq!(a.scale(2.0).as_slice(), &[2., 4., 6.]);
    }

    #[test]
    fn broadcast_ops() {
        let x = t(2, 2, &[1., 2., 3., 4.]);
        let bias = t(1, 2, &[10., 20.]);
        assert_eq!(x.add_row_broadcast(&bias).as_slice(), &[11., 22., 13., 24.]);
        let col = t(2, 1, &[2., 3.]);
        assert_eq!(x.mul_col_broadcast(&col).as_slice(), &[2., 4., 9., 12.]);
    }

    #[test]
    fn reductions() {
        let x = t(2, 3, &[1., 2., 3., 4., 5., 6.]);
        assert_eq!(x.sum_all(), 21.0);
        assert_eq!(x.mean_all(), 3.5);
        assert_eq!(x.col_sum().as_slice(), &[5., 7., 9.]);
        assert_eq!(x.row_sum().as_slice(), &[6., 15.]);
    }

    #[test]
    fn softmax_rows_sum_to_one_and_order() {
        let x = t(2, 3, &[1., 2., 3., -1., 0., 100.]);
        let s = x.row_softmax();
        for r in 0..2 {
            let sum: f32 = s.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-6);
        }
        assert!(s.get(0, 2) > s.get(0, 1));
        assert!((s.get(1, 2) - 1.0).abs() < 1e-6, "stability under large input");
    }

    #[test]
    fn logsumexp_matches_naive_and_is_stable() {
        let x = t(1, 3, &[1., 2., 3.]);
        let lse = x.row_logsumexp().item();
        let naive = (1f32.exp() + 2f32.exp() + 3f32.exp()).ln();
        assert!((lse - naive).abs() < 1e-5);
        let big = t(1, 2, &[1000., 1000.]);
        assert!((big.row_logsumexp().item() - (1000.0 + 2f32.ln())).abs() < 1e-3);
    }

    #[test]
    fn fused_logsumexp_softmax_is_bitwise_the_separate_pair() {
        let bits = |x: &Tensor| x.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        // Smooth random-ish rows, then rows with masked (-1e9) and -inf
        // entries, a row that is all -inf and one holding +inf.
        let mut x = Tensor::from_fn(9, 128, |i, j| ((i * 131 + j * 71) % 97) as f32 * 0.37 - 17.0);
        for j in 0..128 {
            if j % 3 == 0 {
                x.set(4, j, -1e9);
            }
            if j % 5 == 1 {
                x.set(5, j, f32::NEG_INFINITY);
            }
            x.set(6, j, if j < 64 { -1e9 } else { f32::NEG_INFINITY });
            x.set(7, j, f32::NEG_INFINITY);
        }
        x.set(8, 3, f32::INFINITY);
        let (lse, sm) = x.row_logsumexp_softmax();
        assert_eq!(bits(&lse), bits(&x.row_logsumexp()));
        assert_eq!(bits(&sm), bits(&x.row_softmax()));
        assert_eq!(lse.get(7, 0), f32::NEG_INFINITY);
    }

    #[test]
    fn l2_norms() {
        let x = t(2, 2, &[3., 4., 0., 0.]);
        let n = x.row_l2_norm(1e-8);
        assert!((n.get(0, 0) - 5.0).abs() < 1e-6);
        assert!(n.get(1, 0) > 0.0, "floored at eps");
    }

    #[test]
    fn concat_and_slice_roundtrip() {
        let a = t(2, 2, &[1., 2., 3., 4.]);
        let b = t(2, 1, &[5., 6.]);
        let c = Tensor::concat_cols(&[&a, &b]);
        assert_eq!(c.shape(), (2, 3));
        assert_eq!(c.row(0), &[1., 2., 5.]);
        assert_eq!(c.slice_cols(0, 2).as_slice(), a.as_slice());
        assert_eq!(c.slice_cols(2, 3).as_slice(), b.as_slice());
        assert_eq!(c.slice_cols(1, 1).shape(), (2, 0));
        let c3 = Tensor::concat_cols(&[&b, &a, &b]);
        assert_eq!(c3.row(1), &[6., 3., 4., 6.]);
    }

    #[test]
    fn concat_rows_stacks() {
        let a = t(1, 2, &[1., 2.]);
        let b = t(2, 2, &[3., 4., 5., 6.]);
        let c = Tensor::concat_rows(&[&a, &b]);
        assert_eq!(c.shape(), (3, 2));
        assert_eq!(c.row(2), &[5., 6.]);
    }

    #[test]
    fn gather_scatter_are_adjoint_shapes() {
        let x = t(3, 2, &[1., 2., 3., 4., 5., 6.]);
        let g = x.gather_rows(&[2, 0, 2]);
        assert_eq!(g.as_slice(), &[5., 6., 1., 2., 5., 6.]);
        let mut acc = Tensor::zeros(3, 2);
        acc.scatter_add_rows(&[2, 0, 2], &g);
        assert_eq!(acc.row(2), &[10., 12.], "duplicate indices accumulate");
        assert_eq!(acc.row(1), &[0., 0.]);
    }

    #[test]
    fn repeat_and_tile() {
        let x = t(2, 1, &[1., 2.]);
        assert_eq!(x.repeat_rows_interleave(2).as_slice(), &[1., 1., 2., 2.]);
        assert_eq!(x.tile_rows(2).as_slice(), &[1., 2., 1., 2.]);
        let y = t(2, 2, &[1., 2., 3., 4.]);
        assert_eq!(
            y.repeat_rows_interleave(3).as_slice(),
            &[1., 2., 1., 2., 1., 2., 3., 4., 3., 4., 3., 4.]
        );
    }

    fn bits(x: &Tensor) -> Vec<u32> {
        x.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn segment_sum_is_bitwise_the_ones_block_product() {
        for (blocks, len, k) in [(1, 1, 1), (3, 7, 10), (4, 30, 13), (2, 5, 17)] {
            let mut x = Tensor::from_fn(blocks * len, k, |i, j| {
                ((i * 131 + j * 71) as f32 * 0.613).sin() * 10f32.powi((i % 5) as i32 - 2)
            });
            x.set(0, 0, -0.0);
            let ones = Tensor::full(blocks, len, 1.0);
            assert_eq!(
                bits(&x.segment_sum(len)),
                bits(&ones.bmm_nn(&x, blocks)),
                "{blocks}x{len}x{k}"
            );
        }
    }

    #[test]
    fn generated_gemm_is_bitwise_the_stored_one() {
        // Row counts below, at and across the generated tile, and both
        // chunked (parallel-sized) and whole calls.
        for (m, k, n) in [(1, 40, 16), (47, 9, 3), (97, 40, 16), (7680, 40, 16)] {
            let a = Tensor::from_fn(m, k, |i, j| ((i * 7 + j * 3) % 11) as f32 * 0.137 - 0.61);
            let b = Tensor::from_fn(k, n, |i, j| ((i * 5 + j) % 13) as f32 * 0.0625 - 0.33);
            let bias: Vec<f32> = (0..n).map(|j| j as f32 * 0.01 - 0.05).collect();
            let packed = PackedB::pack(&b);
            let ep = GemmEpilogue::AddBiasRelu(&bias);
            let generated = packed.matmul_generated(m, ep, |r0, rows| {
                rows.copy_from_slice(&a.as_slice()[r0 * k..r0 * k + rows.len()]);
            });
            assert_eq!(
                bits(&generated),
                bits(&a.matmul_nn_ep(&b, ep)),
                "{m}x{k}x{n}"
            );
        }
    }

    #[test]
    fn transpose_involution() {
        let x = Tensor::from_fn(3, 4, |r, c| (r * 4 + c) as f32);
        assert_eq!(x.transpose().transpose().as_slice(), x.as_slice());
    }
}
