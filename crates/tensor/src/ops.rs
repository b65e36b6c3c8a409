//! Elementwise operations and reductions, parallelised with rayon above
//! `crate::PAR_THRESHOLD` elements.
//!
//! Parallel paths are written in *chunked* form — `par_chunks[_mut]` over
//! contiguous blocks — rather than per-element `par_iter`, so a stage
//! over N floats costs O(N/chunk) iterator handles instead of O(N).
//! Reductions keep the seed's bit-exact shape: fixed 256-element block
//! partials in slot order, then one sequential in-order final sum (the
//! same machine-independent f32 tree the shim's `sum` builds).

use crate::{Tensor, PAR_THRESHOLD};
use rayon::prelude::*;

/// Elements per parallel chunk for elementwise stages.
const CHUNK: usize = PAR_THRESHOLD;

/// Elements per reduction block — must stay 256 to match the shim's
/// `par_iter().sum()` tree bit for bit.
const SUM_BLOCK: usize = 256;

/// 256-block partial sums in slot order + sequential in-order final sum.
fn block_sum(data: &[f32], per_block: impl Fn(&[f32]) -> f32 + Sync) -> f32 {
    let partials: Vec<f32> = data.par_chunks(SUM_BLOCK).map(per_block).collect();
    partials.into_iter().sum()
}

impl Tensor {
    /// Applies `f` to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32 + Sync) {
        let data = self.data_mut();
        if data.len() >= PAR_THRESHOLD {
            data.par_chunks_mut(CHUNK)
                .for_each(|c| c.iter_mut().for_each(|x| *x = f(*x)));
        } else {
            data.iter_mut().for_each(|x| *x = f(*x));
        }
    }

    /// Returns a new tensor with `f` applied elementwise.
    pub fn map(&self, f: impl Fn(f32) -> f32 + Sync) -> Tensor {
        let mut out = self.clone();
        out.map_inplace(f);
        out
    }

    /// `self += other`, elementwise; shapes must match.
    pub fn add_assign(&mut self, other: &Tensor) {
        self.zip_inplace(other, |a, b| a + b);
    }

    /// `self -= other`, elementwise.
    pub fn sub_assign(&mut self, other: &Tensor) {
        self.zip_inplace(other, |a, b| a - b);
    }

    /// `self *= other`, elementwise (Hadamard).
    pub fn mul_assign(&mut self, other: &Tensor) {
        self.zip_inplace(other, |a, b| a * b);
    }

    /// `self = f(self, other)` elementwise; shapes must match.
    pub fn zip_inplace(&mut self, other: &Tensor, f: impl Fn(f32, f32) -> f32 + Sync) {
        assert_eq!(
            self.shape(),
            other.shape(),
            "elementwise op requires equal shapes"
        );
        let rhs = other.data();
        let lhs = self.data_mut();
        if lhs.len() >= PAR_THRESHOLD {
            lhs.par_chunks_mut(CHUNK).enumerate().for_each(|(ci, c)| {
                let r = &rhs[ci * CHUNK..ci * CHUNK + c.len()];
                c.iter_mut().zip(r).for_each(|(a, &b)| *a = f(*a, b));
            });
        } else {
            lhs.iter_mut().zip(rhs).for_each(|(a, &b)| *a = f(*a, b));
        }
    }

    /// Multiplies every element by `s`.
    pub fn scale(&mut self, s: f32) {
        self.map_inplace(|x| x * s);
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        let data = self.data();
        if data.len() >= PAR_THRESHOLD {
            block_sum(data, |c| c.iter().sum())
        } else {
            data.iter().sum()
        }
    }

    /// Mean of all elements (0 for empty tensors).
    pub fn mean(&self) -> f32 {
        if self.numel() == 0 {
            0.0
        } else {
            self.sum() / self.numel() as f32
        }
    }

    /// Maximum element. Panics on empty tensors.
    pub fn max(&self) -> f32 {
        assert!(self.numel() > 0, "max of empty tensor");
        let data = self.data();
        if data.len() >= PAR_THRESHOLD {
            // max is exact (no rounding), so chunked folds are safe.
            data.par_chunks(CHUNK)
                .map(|c| c.iter().fold(f32::NEG_INFINITY, |a, &b| a.max(b)))
                .reduce(|| f32::NEG_INFINITY, f32::max)
        } else {
            data.iter().cloned().fold(f32::NEG_INFINITY, f32::max)
        }
    }

    /// Column sums of a 2-D tensor: returns shape `[cols]`.
    pub fn sum_axis0(&self) -> Tensor {
        assert_eq!(self.ndim(), 2, "sum_axis0 requires a 2-D tensor");
        let (rows, cols) = (self.shape()[0], self.shape()[1]);
        let mut out = vec![0.0f32; cols];
        for r in 0..rows {
            let row = &self.data()[r * cols..(r + 1) * cols];
            for (o, x) in out.iter_mut().zip(row) {
                *o += x;
            }
        }
        Tensor::from_vec(out, &[cols])
    }

    /// Adds a `[cols]` bias vector to every row of a 2-D tensor.
    pub fn add_row_broadcast(&mut self, bias: &Tensor) {
        assert_eq!(self.ndim(), 2);
        let cols = self.shape()[1];
        assert_eq!(bias.numel(), cols, "bias length must equal columns");
        let b = bias.data();
        let data = self.data_mut();
        if data.len() >= PAR_THRESHOLD {
            data.par_chunks_mut(cols)
                .for_each(|row| row.iter_mut().zip(b).for_each(|(x, bb)| *x += bb));
        } else {
            data.chunks_mut(cols)
                .for_each(|row| row.iter_mut().zip(b).for_each(|(x, bb)| *x += bb));
        }
    }

    /// Row-wise argmax of a 2-D tensor.
    pub fn argmax_rows(&self) -> Vec<usize> {
        assert_eq!(self.ndim(), 2);
        let cols = self.shape()[1];
        assert!(cols > 0);
        self.data()
            .chunks(cols)
            .map(|row| {
                // First maximum wins on ties (strict comparison).
                row.iter()
                    .enumerate()
                    .fold((0usize, f32::NEG_INFINITY), |(bi, bv), (i, &v)| {
                        if v > bv {
                            (i, v)
                        } else {
                            (bi, bv)
                        }
                    })
                    .0
            })
            .collect()
    }

    /// Numerically-stable row-wise softmax of a 2-D tensor.
    pub fn softmax_rows(&self) -> Tensor {
        assert_eq!(self.ndim(), 2);
        let cols = self.shape()[1];
        let mut out = self.clone();
        let apply = |row: &mut [f32]| {
            let m = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            let mut sum = 0.0;
            for x in row.iter_mut() {
                *x = crate::math::exp(*x - m);
                sum += *x;
            }
            for x in row.iter_mut() {
                *x /= sum;
            }
        };
        let data = out.data_mut();
        if data.len() >= PAR_THRESHOLD {
            data.par_chunks_mut(cols).for_each(apply);
        } else {
            data.chunks_mut(cols).for_each(apply);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t2(data: &[f32], rows: usize, cols: usize) -> Tensor {
        Tensor::from_vec(data.to_vec(), &[rows, cols])
    }

    #[test]
    fn elementwise_ops() {
        let mut a = t2(&[1.0, 2.0, 3.0, 4.0], 2, 2);
        let b = t2(&[10.0, 20.0, 30.0, 40.0], 2, 2);
        a.add_assign(&b);
        assert_eq!(a.data(), &[11.0, 22.0, 33.0, 44.0]);
        a.sub_assign(&b);
        assert_eq!(a.data(), &[1.0, 2.0, 3.0, 4.0]);
        a.mul_assign(&b);
        assert_eq!(a.data(), &[10.0, 40.0, 90.0, 160.0]);
        a.scale(0.1);
        assert_eq!(a.data(), &[1.0, 4.0, 9.0, 16.0]);
    }

    #[test]
    fn reductions() {
        let a = t2(&[1.0, -2.0, 3.0, -4.0], 2, 2);
        assert_eq!(a.sum(), -2.0);
        assert_eq!(a.mean(), -0.5);
        assert_eq!(a.max(), 3.0);
    }

    #[test]
    fn parallel_paths_match_serial() {
        // Exceed PAR_THRESHOLD to exercise the rayon branch.
        let n = crate::PAR_THRESHOLD * 2;
        let mut a = Tensor::from_vec((0..n).map(|i| i as f32).collect(), &[n]);
        let expected_sum = (n as f64 * (n as f64 - 1.0) / 2.0) as f32;
        assert_eq!(a.sum(), expected_sum);
        a.map_inplace(|x| x + 1.0);
        assert_eq!(a.data()[0], 1.0);
        assert_eq!(a.data()[n - 1], n as f32);
        assert_eq!(a.max(), n as f32);
    }

    #[test]
    fn sum_axis0_and_broadcast() {
        let a = t2(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], 2, 3);
        let s = a.sum_axis0();
        assert_eq!(s.data(), &[5.0, 7.0, 9.0]);
        let mut b = a.clone();
        b.add_row_broadcast(&Tensor::from_vec(vec![10.0, 20.0, 30.0], &[3]));
        assert_eq!(b.data(), &[11.0, 22.0, 33.0, 14.0, 25.0, 36.0]);
    }

    #[test]
    fn softmax_rows_sum_to_one_and_preserve_order() {
        let a = t2(&[1.0, 2.0, 3.0, -1.0, 0.0, 1.0], 2, 3);
        let s = a.softmax_rows();
        for r in 0..2 {
            let row = s.row(r);
            let sum: f32 = row.iter().sum();
            assert!((sum - 1.0).abs() < 1e-6);
            assert!(row[0] < row[1] && row[1] < row[2]);
        }
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let a = t2(&[1000.0, 1001.0, 1002.0], 1, 3);
        let b = t2(&[0.0, 1.0, 2.0], 1, 3);
        let (sa, sb) = (a.softmax_rows(), b.softmax_rows());
        for (x, y) in sa.data().iter().zip(sb.data()) {
            assert!((x - y).abs() < 1e-6);
            assert!(x.is_finite());
        }
    }

    #[test]
    fn argmax_rows_picks_first_max() {
        let a = t2(&[0.0, 5.0, 5.0, 1.0, 0.0, -1.0], 2, 3);
        assert_eq!(a.argmax_rows(), vec![1, 0]);
    }

    #[test]
    #[should_panic(expected = "equal shapes")]
    fn mismatched_elementwise_rejected() {
        let mut a = Tensor::zeros(&[2]);
        a.add_assign(&Tensor::zeros(&[3]));
    }
}
