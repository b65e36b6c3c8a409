//! Pooling layers.

use crate::layer::Layer;
use rayon::prelude::*;
use tensor::conv::{maxpool, out_dim};
use tensor::Tensor;

/// Max pooling over `(N, C, H, W)` with a square window.
#[derive(Clone)]
pub struct MaxPool2d {
    k: usize,
    stride: usize,
    cache: Option<(Vec<usize>, Vec<usize>)>, // (argmax indices per sample concat, in_shape)
}

impl MaxPool2d {
    pub fn new(k: usize, stride: usize) -> Self {
        assert!(k > 0 && stride > 0);
        MaxPool2d {
            k,
            stride,
            cache: None,
        }
    }
}

impl Layer for MaxPool2d {
    fn forward(&mut self, input: &Tensor, _train: bool) -> Tensor {
        assert_eq!(input.ndim(), 4, "MaxPool2d expects (N, C, H, W)");
        let (n, c, h, w) = (
            input.shape()[0],
            input.shape()[1],
            input.shape()[2],
            input.shape()[3],
        );
        let oh = out_dim(h, self.k, self.stride, 0);
        let ow = out_dim(w, self.k, self.stride, 0);
        let per_img = c * h * w;
        let per_out = c * oh * ow;
        let mut out = vec![0.0f32; n * per_out];
        let mut args = vec![0usize; n * per_out];
        out.par_chunks_mut(per_out)
            .zip(args.par_chunks_mut(per_out))
            .zip(input.data().par_chunks(per_img))
            .for_each(|((o, a), img)| maxpool(img, c, h, w, self.k, self.stride, o, a));
        self.cache = Some((args, input.shape().to_vec()));
        Tensor::from_vec(out, &[n, c, oh, ow])
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        // lint: allow(unwrap) -- layer API contract: backward requires a prior forward
        let (args, in_shape) = self.cache.as_ref().expect("backward before forward");
        let per_img: usize = in_shape[1..].iter().product();
        let n = in_shape[0];
        let per_out = grad_out.numel() / n.max(1);
        let mut dx = vec![0.0f32; in_shape.iter().product()];
        for i in 0..n {
            let g = &grad_out.data()[i * per_out..(i + 1) * per_out];
            let a = &args[i * per_out..(i + 1) * per_out];
            let d = &mut dx[i * per_img..(i + 1) * per_img];
            for (&idx, &gv) in a.iter().zip(g) {
                d[idx] += gv;
            }
        }
        Tensor::from_vec(dx, &in_shape.clone())
    }

    fn name(&self) -> &'static str {
        "MaxPool2d"
    }
}

/// Global average pool: `(N, C, H, W) → (N, C)`.
#[derive(Clone)]
pub struct GlobalAvgPool2d {
    in_shape: Vec<usize>,
}

impl GlobalAvgPool2d {
    pub fn new() -> Self {
        GlobalAvgPool2d {
            in_shape: Vec::new(),
        }
    }
}

impl Default for GlobalAvgPool2d {
    fn default() -> Self {
        Self::new()
    }
}

impl Layer for GlobalAvgPool2d {
    fn forward(&mut self, input: &Tensor, _train: bool) -> Tensor {
        assert_eq!(input.ndim(), 4, "GlobalAvgPool2d expects (N, C, H, W)");
        let (n, c, h, w) = (
            input.shape()[0],
            input.shape()[1],
            input.shape()[2],
            input.shape()[3],
        );
        self.in_shape = input.shape().to_vec();
        let hw = (h * w) as f32;
        let mut out = vec![0.0f32; n * c];
        for i in 0..n {
            for ch in 0..c {
                let base = (i * c + ch) * h * w;
                out[i * c + ch] =
                    input.data()[base..base + h * w].iter().sum::<f32>() / hw;
            }
        }
        Tensor::from_vec(out, &[n, c])
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let (n, c, h, w) = (
            self.in_shape[0],
            self.in_shape[1],
            self.in_shape[2],
            self.in_shape[3],
        );
        assert_eq!(grad_out.shape(), &[n, c]);
        let hw = (h * w) as f32;
        let mut dx = vec![0.0f32; n * c * h * w];
        for i in 0..n {
            for ch in 0..c {
                let g = grad_out.at(&[i, ch]) / hw;
                let base = (i * c + ch) * h * w;
                dx[base..base + h * w].fill(g);
            }
        }
        Tensor::from_vec(dx, &self.in_shape.clone())
    }

    fn name(&self) -> &'static str {
        "GlobalAvgPool2d"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maxpool_forward_backward() {
        let mut p = MaxPool2d::new(2, 2);
        #[rustfmt::skip]
        let x = Tensor::from_vec(vec![
            1.0, 2.0, 3.0, 4.0,
            5.0, 6.0, 7.0, 8.0,
            9.0, 1.0, 2.0, 3.0,
            4.0, 5.0, 6.0, 7.0,
        ], &[1, 1, 4, 4]);
        let y = p.forward(&x, true);
        assert_eq!(y.shape(), &[1, 1, 2, 2]);
        assert_eq!(y.data(), &[6.0, 8.0, 9.0, 7.0]);
        let g = p.backward(&Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 2, 2]));
        assert_eq!(g.shape(), &[1, 1, 4, 4]);
        // Gradient routed to the max positions only.
        assert_eq!(g.at(&[0, 0, 1, 1]), 1.0);
        assert_eq!(g.at(&[0, 0, 1, 3]), 2.0);
        assert_eq!(g.at(&[0, 0, 2, 0]), 3.0);
        assert_eq!(g.at(&[0, 0, 3, 3]), 4.0);
        assert_eq!(g.sum(), 10.0);
    }

    /// A window holding nothing greater than −∞ (here −∞ and NaN in
    /// channel 1) pools to −∞ and sends its gradient to its own first
    /// pixel, not to pixel (0, 0) of channel 0.
    #[test]
    fn maxpool_empty_window_routes_gradient_to_its_own_first_pixel() {
        let (ninf, nan) = (f32::NEG_INFINITY, f32::NAN);
        #[rustfmt::skip]
        let x = Tensor::from_vec(vec![
            // channel 0: (0, 0) is not its window's maximum
            0.0, 1.0, 2.0, 3.0,
            4.0, 5.0, 6.0, 7.0,
            // channel 1: the second window is all −∞ / NaN
            1.0, 2.0, ninf, nan,
            3.0, 4.0, nan, ninf,
        ], &[1, 2, 2, 4]);
        let mut p = MaxPool2d::new(2, 2);
        let y = p.forward(&x, true);
        assert_eq!(y.data(), &[5.0, 7.0, 4.0, ninf]);
        let g = p.backward(&Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 2, 1, 2]));
        assert_eq!(g.at(&[0, 0, 0, 0]), 0.0);
        assert_eq!(g.at(&[0, 1, 0, 2]), 4.0);
        assert_eq!(g.sum(), 10.0);
    }

    #[test]
    fn gap_averages_and_spreads() {
        let mut p = GlobalAvgPool2d::new();
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 10.0, 20.0, 30.0, 40.0], &[1, 2, 2, 2]);
        let y = p.forward(&x, true);
        assert_eq!(y.shape(), &[1, 2]);
        assert_eq!(y.data(), &[2.5, 25.0]);
        let g = p.backward(&Tensor::from_vec(vec![4.0, 8.0], &[1, 2]));
        assert_eq!(g.data(), &[1.0, 1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0]);
    }

    #[test]
    fn maxpool_multibatch_independent() {
        let mut p = MaxPool2d::new(2, 2);
        let x = Tensor::from_vec((0..16).map(|v| v as f32).collect(), &[2, 1, 2, 4]);
        let y = p.forward(&x, true);
        assert_eq!(y.shape(), &[2, 1, 1, 2]);
        assert_eq!(y.data(), &[5.0, 7.0, 13.0, 15.0]);
    }
}
