//! The [`Tensor`] type: contiguous row-major `f32` storage plus a shape.

use std::fmt;

/// A dense, contiguous, row-major `f32` tensor.
#[derive(Clone, PartialEq)]
pub struct Tensor {
    data: Vec<f32>,
    shape: Vec<usize>,
}

impl Tensor {
    /// Builds a tensor from raw data; `data.len()` must equal the product
    /// of `shape`.
    pub fn from_vec(data: Vec<f32>, shape: &[usize]) -> Self {
        let numel: usize = shape.iter().product();
        assert_eq!(
            data.len(),
            numel,
            "data length {} does not match shape {:?}",
            data.len(),
            shape
        );
        Tensor {
            data,
            shape: shape.to_vec(),
        }
    }

    /// All-zeros tensor.
    pub fn zeros(shape: &[usize]) -> Self {
        Tensor::from_vec(vec![0.0; shape.iter().product()], shape)
    }

    /// All-ones tensor.
    pub fn ones(shape: &[usize]) -> Self {
        Tensor::full(shape, 1.0)
    }

    /// Constant-filled tensor.
    pub fn full(shape: &[usize], value: f32) -> Self {
        Tensor::from_vec(vec![value; shape.iter().product()], shape)
    }

    /// Identity matrix of side `n`.
    pub fn eye(n: usize) -> Self {
        let mut t = Tensor::zeros(&[n, n]);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// The shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Number of dimensions.
    pub fn ndim(&self) -> usize {
        self.shape.len()
    }

    /// Total number of elements.
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// Borrow the flat data.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutably borrow the flat data.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor, returning the flat data.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Reinterprets the data with a new shape of equal element count.
    pub fn reshape(mut self, shape: &[usize]) -> Self {
        let numel: usize = shape.iter().product();
        assert_eq!(
            self.data.len(),
            numel,
            "cannot reshape {:?} ({}) to {:?} ({})",
            self.shape,
            self.data.len(),
            shape,
            numel
        );
        self.shape = shape.to_vec();
        self
    }

    /// Flat offset of a multi-dimensional index.
    #[inline]
    pub fn offset(&self, index: &[usize]) -> usize {
        debug_assert_eq!(index.len(), self.shape.len());
        let mut off = 0;
        for (i, (&ix, &dim)) in index.iter().zip(&self.shape).enumerate() {
            debug_assert!(ix < dim, "index {ix} out of bounds for dim {i} ({dim})");
            off = off * dim + ix;
        }
        off
    }

    /// Element access by multi-dimensional index.
    #[inline]
    pub fn at(&self, index: &[usize]) -> f32 {
        self.data[self.offset(index)]
    }

    /// Mutable element access by multi-dimensional index.
    #[inline]
    pub fn at_mut(&mut self, index: &[usize]) -> &mut f32 {
        let off = self.offset(index);
        &mut self.data[off]
    }

    /// Borrow row `r` of a 2-D tensor.
    pub fn row(&self, r: usize) -> &[f32] {
        assert_eq!(self.ndim(), 2, "row() requires a 2-D tensor");
        let cols = self.shape[1];
        &self.data[r * cols..(r + 1) * cols]
    }

    /// Mutably borrow row `r` of a 2-D tensor.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        assert_eq!(self.ndim(), 2, "row_mut() requires a 2-D tensor");
        let cols = self.shape[1];
        &mut self.data[r * cols..(r + 1) * cols]
    }

    /// Transpose of a 2-D tensor (materialised).
    pub fn transpose(&self) -> Tensor {
        assert_eq!(self.ndim(), 2, "transpose() requires a 2-D tensor");
        let (m, n) = (self.shape[0], self.shape[1]);
        let mut out = vec![0.0; m * n];
        for i in 0..m {
            for j in 0..n {
                out[j * m + i] = self.data[i * n + j];
            }
        }
        Tensor::from_vec(out, &[n, m])
    }

    /// Extracts rows `[start, end)` of a tensor whose first axis is the
    /// batch axis.
    pub fn slice_batch(&self, start: usize, end: usize) -> Tensor {
        assert!(!self.shape.is_empty() && start <= end && end <= self.shape[0]);
        let inner: usize = self.shape[1..].iter().product();
        let mut shape = self.shape.clone();
        shape[0] = end - start;
        Tensor::from_vec(self.data[start * inner..end * inner].to_vec(), &shape)
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{:?}", self.shape)?;
        if self.numel() <= 16 {
            write!(f, " {:?}", self.data)
        } else {
            write!(
                f,
                " [{:.4}, {:.4}, …, {:.4}]",
                self.data[0],
                self.data[1],
                self.data[self.numel() - 1]
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_shape() {
        let t = Tensor::zeros(&[2, 3, 4]);
        assert_eq!(t.numel(), 24);
        assert_eq!(t.ndim(), 3);
        assert_eq!(t.shape(), &[2, 3, 4]);
        assert!(t.data().iter().all(|&x| x == 0.0));
        assert!(Tensor::ones(&[3]).data().iter().all(|&x| x == 1.0));
        assert!(Tensor::full(&[3], 7.0).data().iter().all(|&x| x == 7.0));
    }

    #[test]
    #[should_panic(expected = "does not match shape")]
    fn mismatched_data_rejected() {
        let _ = Tensor::from_vec(vec![1.0; 5], &[2, 3]);
    }

    #[test]
    fn indexing_is_row_major() {
        let t = Tensor::from_vec((0..24).map(|x| x as f32).collect(), &[2, 3, 4]);
        assert_eq!(t.at(&[0, 0, 0]), 0.0);
        assert_eq!(t.at(&[0, 0, 3]), 3.0);
        assert_eq!(t.at(&[0, 1, 0]), 4.0);
        assert_eq!(t.at(&[1, 0, 0]), 12.0);
        assert_eq!(t.at(&[1, 2, 3]), 23.0);
    }

    #[test]
    fn eye_has_unit_diagonal() {
        let t = Tensor::eye(3);
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(t.at(&[i, j]), if i == j { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn transpose_roundtrip() {
        let t = Tensor::from_vec((0..6).map(|x| x as f32).collect(), &[2, 3]);
        let tt = t.transpose();
        assert_eq!(tt.shape(), &[3, 2]);
        assert_eq!(tt.at(&[2, 1]), t.at(&[1, 2]));
        assert_eq!(tt.transpose(), t);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec((0..6).map(|x| x as f32).collect(), &[2, 3]);
        let r = t.clone().reshape(&[3, 2]);
        assert_eq!(r.data(), t.data());
        assert_eq!(r.shape(), &[3, 2]);
    }

    #[test]
    fn slice_batch_takes_rows() {
        let t = Tensor::from_vec((0..12).map(|x| x as f32).collect(), &[4, 3]);
        let s = t.slice_batch(1, 3);
        assert_eq!(s.shape(), &[2, 3]);
        assert_eq!(s.data(), &[3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
    }

    #[test]
    fn rows_borrow_correct_spans() {
        let t = Tensor::from_vec((0..6).map(|x| x as f32).collect(), &[2, 3]);
        assert_eq!(t.row(1), &[3.0, 4.0, 5.0]);
        let mut t = t;
        t.row_mut(0)[0] = 99.0;
        assert_eq!(t.at(&[0, 0]), 99.0);
    }
}
