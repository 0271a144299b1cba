//! The core dense matrix type.

/// A dense row-major `rows × cols` matrix of `f32`.
///
/// Invariant: `data.len() == rows * cols`. All constructors uphold it and all
/// kernels assume it; shape mismatches are programmer errors and panic.
#[derive(Clone, Debug, PartialEq)]
pub struct Tensor {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Tensor {
    /// Zero-filled matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Tensor {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Matrix filled with a constant.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Tensor {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Build from an existing flat row-major buffer.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "buffer length {} != {}x{}",
            data.len(),
            rows,
            cols
        );
        Tensor { rows, cols, data }
    }

    /// Fallible [`Tensor::from_vec`] for buffers whose shape comes from
    /// *untrusted input* (the checkpoint codec): a size mismatch — including
    /// `rows * cols` overflowing `usize` — is reported as a typed
    /// [`MissError::ShapeMismatch`] instead of a panic.
    pub fn try_from_vec(
        rows: usize,
        cols: usize,
        data: Vec<f32>,
    ) -> Result<Self, miss_util::MissError> {
        match rows.checked_mul(cols) {
            Some(n) if n == data.len() => Ok(Tensor { rows, cols, data }),
            _ => Err(miss_util::MissError::ShapeMismatch {
                context: format!("Tensor::try_from_vec buffer of {} values", data.len()),
                expected: (rows, cols),
                got: (1, data.len()),
            }),
        }
    }

    /// Build element-wise from a function of `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Tensor { rows, cols, data }
    }

    /// 1×1 matrix holding a scalar.
    pub fn scalar(value: f32) -> Self {
        Tensor::from_vec(1, 1, vec![value])
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the matrix has no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Flat read-only view of the buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Flat mutable view of the buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consume into the flat buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Read one element.
    #[inline]
    #[expect(
        clippy::indexing_slicing,
        reason = "r < rows and c < cols, debug-asserted: an out-of-range index is a caller bug"
    )]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Write one element.
    #[inline]
    #[expect(
        clippy::indexing_slicing,
        reason = "r < rows and c < cols, debug-asserted: an out-of-range index is a caller bug"
    )]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Read-only view of one row.
    #[inline]
    #[expect(
        clippy::indexing_slicing,
        reason = "r < rows, debug-asserted: an out-of-range row is a caller bug"
    )]
    pub fn row(&self, r: usize) -> &[f32] {
        debug_assert!(r < self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable view of one row.
    #[inline]
    #[expect(
        clippy::indexing_slicing,
        reason = "r < rows, debug-asserted: an out-of-range row is a caller bug"
    )]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        debug_assert!(r < self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Value of a 1×1 matrix.
    #[expect(
        clippy::indexing_slicing,
        reason = "the shape is asserted to be 1x1 first"
    )]
    pub fn item(&self) -> f32 {
        assert_eq!(self.shape(), (1, 1), "item() on non-scalar {:?}", self.shape());
        self.data[0]
    }

    /// Reinterpret the same buffer with a different shape (row-major).
    pub fn reshape(mut self, rows: usize, cols: usize) -> Self {
        assert_eq!(self.data.len(), rows * cols, "reshape size mismatch");
        self.rows = rows;
        self.cols = cols;
        self
    }

    /// True if any element is NaN or infinite. Used by training assertions
    /// and the trainer's per-step guard, so it must run at memory bandwidth:
    /// an f32 is non-finite iff its exponent bits are all ones, and folding
    /// the masked exponents with `max` (associative, integer) vectorizes
    /// where a short-circuiting `is_finite` loop cannot.
    pub fn has_non_finite(&self) -> bool {
        const EXP_MASK: u32 = 0x7f80_0000;
        self.data
            .iter()
            .fold(0u32, |m, x| m.max(x.to_bits() & EXP_MASK))
            == EXP_MASK
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_accessors() {
        let t = Tensor::from_fn(2, 3, |r, c| (r * 3 + c) as f32);
        assert_eq!(t.shape(), (2, 3));
        assert_eq!(t.get(1, 2), 5.0);
        assert_eq!(t.row(1), &[3.0, 4.0, 5.0]);
        assert_eq!(t.len(), 6);
    }

    #[test]
    fn zeros_and_full() {
        assert!(Tensor::zeros(3, 2).as_slice().iter().all(|&x| x == 0.0));
        assert!(Tensor::full(2, 2, 7.0).as_slice().iter().all(|&x| x == 7.0));
    }

    #[test]
    fn try_from_vec_rejects_bad_shapes_without_panicking() {
        use miss_util::MissError;
        let err = Tensor::try_from_vec(2, 3, vec![0.0; 5]).unwrap_err();
        assert!(matches!(err, MissError::ShapeMismatch { expected: (2, 3), .. }));
        // rows*cols overflow must be caught, not wrap around
        let err = Tensor::try_from_vec(usize::MAX, 2, vec![0.0; 4]).unwrap_err();
        assert!(matches!(err, MissError::ShapeMismatch { .. }));
        let ok = Tensor::try_from_vec(2, 2, vec![1.0; 4]).unwrap();
        assert_eq!(ok.shape(), (2, 2));
    }

    #[test]
    #[should_panic]
    fn from_vec_size_mismatch_panics() {
        let _ = Tensor::from_vec(2, 2, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]).reshape(3, 2);
        assert_eq!(t.shape(), (3, 2));
        assert_eq!(t.row(1), &[3.0, 4.0]);
    }

    #[test]
    fn scalar_item() {
        assert_eq!(Tensor::scalar(2.5).item(), 2.5);
    }

    #[test]
    fn set_get_roundtrip() {
        let mut t = Tensor::zeros(2, 2);
        t.set(0, 1, 9.0);
        assert_eq!(t.get(0, 1), 9.0);
    }

    #[test]
    fn non_finite_detection() {
        let mut t = Tensor::zeros(1, 2);
        assert!(!t.has_non_finite());
        t.set(0, 0, f32::NAN);
        assert!(t.has_non_finite());
    }
}
