//! # tensor
//!
//! A small dense-`f32` tensor library with rayon-parallel kernels. It is
//! the from-scratch stand-in for the BLAS/cuDNN layer underneath the
//! paper's TensorFlow/Keras stack: everything `nn` (layers, backprop) and
//! `ml` (SVM, forests) compute ultimately bottoms out in the matmul,
//! im2col convolution and reduction kernels here.
//!
//! Tensors are always contiguous row-major; shapes are `Vec<usize>`.
//! Elementwise and matrix kernels switch to rayon parallel iterators
//! above a size threshold, so small test tensors don't pay the fork-join
//! overhead.

pub mod codec;
pub mod conv;
pub mod matmul;
pub mod ops;
pub mod rng;
pub mod scratch;
pub mod shape_ops;
#[allow(clippy::module_inception)]
pub mod tensor;

pub use codec::{bf16_to_f32, bf16_words, decode_bf16_into, encode_bf16_into, f32_to_bf16_rtne};
pub use matmul::{Blocking, PackedT};
pub use rng::Rng;
pub use scratch::{Arena, Frame};
pub use tensor::Tensor;

/// Minimum number of elements before kernels go parallel.
pub(crate) const PAR_THRESHOLD: usize = 4096;

#[cfg(test)]
mod tests {
    use super::Rng;

    #[test]
    fn ranges_respect_bounds() {
        let mut r = Rng::seed(7);
        for _ in 0..2000 {
            let k = 3 + r.below(14);
            assert!((3..17).contains(&k));
            assert!(r.below(5) < 5);
            assert_eq!(r.below(1), 0);
            let f = r.uniform(-2.0, 3.0);
            assert!((-2.0..3.0).contains(&f));
        }
    }

    #[test]
    fn gen_bool_extremes() {
        let mut r = Rng::seed(1);
        assert!(!(0..100).any(|_| r.chance(0.0)));
        assert!((0..100).all(|_| r.chance(1.0)));
    }
}
