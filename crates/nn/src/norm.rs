//! Batch normalisation for `(N, C)` and `(N, C, H, W)` inputs.
//!
//! Normalises per channel over the batch (and spatial) axes with learned
//! scale `γ` and shift `β`; running statistics are tracked for eval mode.
//! The backward pass is the standard closed-form batch-norm gradient.
//!
//! Each pass is two sweeps over `(image, channel)` planes taken as
//! slices of the `(N, C, S)` buffer: `channel_sums` reduces every
//! channel to a pair of `f64` sums, channel groups over the pool; the
//! elementwise sweep then appends the output plane by plane and, when
//! training, writes `x̂` into a grow-only buffer for backward in the
//! same pass. That sweep is memory-bound and stays off the pool.
//!
//! # Bit-exactness
//!
//! Outputs, gradients and running statistics are `to_bits`-equal to the
//! index-closure layer this replaced (the `#[cfg(test)]` oracle below),
//! for any pool width. *A channel's sums are one `f64` chain each*,
//! ascending `(image, element)` from `0.0`; `channel_sums` advances
//! `SUM_CHANNELS` channels' chains side by side to hide the add latency
//! that bounds a lone chain, and chains never meet. *The elementwise
//! sweeps are spelled as before*: `(x − μ)·σ⁻¹`, then `γ·x̂ + β`;
//! `γ·σ⁻¹·(dy − mean(dy) − x̂·mean(dy·x̂))`, left to right, so hoisting the
//! per-channel `γ·σ⁻¹` out of the loop moves no bit.

use crate::layer::Layer;
use crate::param::Param;
use crate::STREAM_BLOCK;
use rayon::prelude::*;
use tensor::Tensor;

/// Batch normalisation over the channel axis (axis 1).
#[derive(Clone)]
pub struct BatchNorm {
    gamma: Param,
    beta: Param,
    channels: usize,
    momentum: f32,
    eps: f32,
    running_mean: Vec<f32>,
    running_var: Vec<f32>,
    /// `x̂` of the last training forward (grow-only).
    xhat: Vec<f32>,
    /// `1/√(σ² + ε)` per channel, from the same forward.
    inv_std: Vec<f32>,
    /// Shape of that forward's input; empty when the last forward was an
    /// eval pass (or there was none), which backward rejects.
    in_shape: Vec<usize>,
}

/// Channels whose sum chains [`channel_sums`] advances side by side.
const SUM_CHANNELS: usize = 4;

/// Per-channel `Σ f(a, b)` of two `(N, C, S)` buffers: each channel's pair
/// of sums is its own `f64` chain in ascending `(image, element)` order.
/// Groups of [`SUM_CHANNELS`] channels go over the pool (all of them as
/// one inline item when the buffers are small).
fn channel_sums(
    a: &[f32],
    b: &[f32],
    (c, s): (usize, usize),
    f: impl Fn(f32, f32) -> (f64, f64) + Sync,
) -> Vec<(f64, f64)> {
    // Channels `ch0..ch0 + SUM_CHANNELS`, the last repeated past the end.
    let group_sums = |ch0: usize| {
        let mut sums = [(0.0f64, 0.0f64); SUM_CHANNELS];
        let at: [usize; SUM_CHANNELS] = std::array::from_fn(|g| (ch0 + g).min(c - 1) * s);
        for (a_img, b_img) in a.chunks_exact(c * s).zip(b.chunks_exact(c * s)) {
            let a_pl = at.map(|at| &a_img[at..][..s]);
            let b_pl = at.map(|at| &b_img[at..][..s]);
            for j in 0..s {
                for g in 0..SUM_CHANNELS {
                    let (u, v) = f(a_pl[g][j], b_pl[g][j]);
                    sums[g].0 += u;
                    sums[g].1 += v;
                }
            }
        }
        sums
    };
    let mut sums = vec![(0.0f64, 0.0f64); c];
    let pooled = a.len() > STREAM_BLOCK;
    let group = if pooled { SUM_CHANNELS } else { c.max(1) };
    let groups = sums.par_chunks_mut(group).enumerate();
    groups.for_each(|(gi, out)| {
        for (k, out) in out.chunks_mut(SUM_CHANNELS).enumerate() {
            let got = group_sums(gi * group + k * SUM_CHANNELS);
            out.copy_from_slice(&got[..out.len()]);
        }
    });
    sums
}

impl BatchNorm {
    pub fn new(channels: usize) -> Self {
        BatchNorm {
            gamma: Param::new(Tensor::ones(&[channels])),
            beta: Param::new(Tensor::zeros(&[channels])),
            channels,
            momentum: 0.1,
            eps: 1e-5,
            running_mean: vec![0.0; channels],
            running_var: vec![1.0; channels],
            xhat: Vec::new(),
            inv_std: Vec::new(),
            in_shape: Vec::new(),
        }
    }

    /// `(N, S)`: batch size and elements per `(image, channel)` plane.
    fn layout(&self, shape: &[usize]) -> (usize, usize) {
        assert!(
            shape.len() == 2 || shape.len() == 4,
            "BatchNorm expects (N, C) or (N, C, H, W), got {shape:?}"
        );
        assert_eq!(shape[1], self.channels, "channel mismatch");
        let spatial: usize = shape[2..].iter().product::<usize>().max(1);
        (shape[0], spatial)
    }
}

impl Layer for BatchNorm {
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        let (n, s) = self.layout(input.shape());
        let (c, x) = (self.channels, input.data());
        let count = (n * s) as f32;
        let square = |x: f32, _| (x as f64, x as f64 * x as f64);
        let sums = train.then(|| channel_sums(x, x, (c, s), square));
        let (gamma, beta) = (self.gamma.value.data(), self.beta.value.data());
        // Per channel: μ, σ⁻¹, γ, β.
        let coef: Vec<[f32; 4]> = (0..c)
            .map(|ch| {
                let (mean, var) = if let Some(sums) = &sums {
                    let (sum, sq) = sums[ch];
                    let mean = (sum / count as f64) as f32;
                    let var = ((sq / count as f64) - (sum / count as f64).powi(2)).max(0.0) as f32;
                    self.running_mean[ch] =
                        (1.0 - self.momentum) * self.running_mean[ch] + self.momentum * mean;
                    self.running_var[ch] =
                        (1.0 - self.momentum) * self.running_var[ch] + self.momentum * var;
                    (mean, var)
                } else {
                    (self.running_mean[ch], self.running_var[ch])
                };
                let inv_std = 1.0 / (var + self.eps).sqrt();
                [mean, inv_std, gamma[ch], beta[ch]]
            })
            .collect();

        let mut out = Vec::with_capacity(x.len());
        self.in_shape.clear();
        if train {
            self.in_shape.extend_from_slice(input.shape());
            self.inv_std.clear();
            self.inv_std.extend(coef.iter().map(|k| k[1]));
            self.xhat.resize(x.len(), 0.0);
            let planes = x.chunks_exact(s).zip(self.xhat.chunks_exact_mut(s));
            for ((x, h), &[mean, inv_std, g, b]) in planes.zip(coef.iter().cycle()) {
                out.extend(x.iter().zip(h).map(|(&x, h)| {
                    *h = (x - mean) * inv_std;
                    g * *h + b
                }));
            }
        } else {
            for (x, &[mean, inv_std, g, b]) in x.chunks_exact(s).zip(coef.iter().cycle()) {
                out.extend(x.iter().map(|&x| g * ((x - mean) * inv_std) + b));
            }
        }
        Tensor::from_vec(out, input.shape())
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let trained = !self.in_shape.is_empty();
        assert!(trained, "backward requires a training-mode forward");
        assert_eq!(grad_out.shape(), &self.in_shape[..]);
        let (n, s) = self.layout(&self.in_shape);
        let (c, dy) = (self.channels, grad_out.data());
        let count = (n * s) as f32;
        // dγ = Σ dy·x̂, dβ = Σ dy.
        let dot = |dy: f32, xh: f32| ((dy * xh) as f64, dy as f64);
        let sums = channel_sums(dy, &self.xhat, (c, s), dot);
        // Per channel: γ·σ⁻¹, mean(dy), mean(dy·x̂).
        let coef: Vec<[f32; 3]> = (0..c)
            .map(|ch| {
                let (dgamma, dbeta) = sums[ch];
                self.gamma.grad.data_mut()[ch] += dgamma as f32;
                self.beta.grad.data_mut()[ch] += dbeta as f32;
                let scale = self.gamma.value.data()[ch] * self.inv_std[ch];
                [scale, dbeta as f32 / count, dgamma as f32 / count]
            })
            .collect();

        // dx = γ/√v · (dy − mean(dy) − x̂·mean(dy·x̂))
        let mut dx = Vec::with_capacity(dy.len());
        let planes = dy.chunks_exact(s).zip(self.xhat.chunks_exact(s));
        for ((dy, h), &[scale, mean_dy, mean_dyxhat]) in planes.zip(coef.iter().cycle()) {
            let grad = |(&dy, &xh): (&f32, &f32)| scale * (dy - mean_dy - xh * mean_dyxhat);
            dx.extend(dy.iter().zip(h).map(grad));
        }
        Tensor::from_vec(dx, grad_out.shape())
    }

    fn params(&self) -> Vec<&Param> {
        vec![&self.gamma, &self.beta]
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.gamma, &mut self.beta]
    }

    fn name(&self) -> &'static str {
        "BatchNorm"
    }

    fn state_len(&self) -> usize {
        2 * self.channels
    }

    fn state(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(2 * self.channels);
        out.extend_from_slice(&self.running_mean);
        out.extend_from_slice(&self.running_var);
        out
    }

    fn set_state(&mut self, state: &[f32]) {
        assert_eq!(state.len(), 2 * self.channels, "state length mismatch");
        self.running_mean.copy_from_slice(&state[..self.channels]);
        self.running_var.copy_from_slice(&state[self.channels..]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::testing::layer_matches_oracle;
    use tensor::Rng;

    /// The batch norm this module shipped before the plane-sliced
    /// rewrite: `for_channel`'s index closure and the `forward`/`backward`
    /// bodies verbatim.
    #[derive(Clone)]
    struct SeedBatchNorm {
        gamma: Param,
        beta: Param,
        channels: usize,
        momentum: f32,
        eps: f32,
        running_mean: Vec<f32>,
        running_var: Vec<f32>,
        cache: Option<BnCache>,
    }

    #[derive(Clone)]

    struct BnCache {
        xhat: Tensor,
        inv_std: Vec<f32>,
        in_shape: Vec<usize>,
    }

    impl SeedBatchNorm {
        fn new(channels: usize) -> Self {
            SeedBatchNorm {
                gamma: Param::new(Tensor::ones(&[channels])),
                beta: Param::new(Tensor::zeros(&[channels])),
                channels,
                momentum: 0.1,
                eps: 1e-5,
                running_mean: vec![0.0; channels],
                running_var: vec![1.0; channels],
                cache: None,
            }
        }

        fn layout(&self, shape: &[usize]) -> (usize, usize) {
            assert_eq!(shape[1], self.channels, "channel mismatch");
            let spatial: usize = shape[2..].iter().product::<usize>().max(1);
            (shape[0], spatial)
        }

        fn for_channel(n: usize, c: usize, s: usize, ch: usize, mut f: impl FnMut(usize)) {
            for i in 0..n {
                let base = (i * c + ch) * s;
                for j in 0..s {
                    f(base + j);
                }
            }
        }
    }

    impl Layer for SeedBatchNorm {
        fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
            let (n, s) = self.layout(input.shape());
            let c = self.channels;
            let count = (n * s) as f32;
            let mut out = input.clone();
            let mut xhat = input.clone();
            let mut inv_stds = vec![0.0f32; c];

            for (ch, inv_std_slot) in inv_stds.iter_mut().enumerate() {
                let (mean, var) = if train {
                    let mut sum = 0.0f64;
                    let mut sq = 0.0f64;
                    Self::for_channel(n, c, s, ch, |idx| {
                        let v = input.data()[idx] as f64;
                        sum += v;
                        sq += v * v;
                    });
                    let mean = (sum / count as f64) as f32;
                    let var = ((sq / count as f64) - (sum / count as f64).powi(2)).max(0.0) as f32;
                    self.running_mean[ch] =
                        (1.0 - self.momentum) * self.running_mean[ch] + self.momentum * mean;
                    self.running_var[ch] =
                        (1.0 - self.momentum) * self.running_var[ch] + self.momentum * var;
                    (mean, var)
                } else {
                    (self.running_mean[ch], self.running_var[ch])
                };
                let inv_std = 1.0 / (var + self.eps).sqrt();
                *inv_std_slot = inv_std;
                let g = self.gamma.value.data()[ch];
                let b = self.beta.value.data()[ch];
                Self::for_channel(n, c, s, ch, |idx| {
                    let xh = (input.data()[idx] - mean) * inv_std;
                    xhat.data_mut()[idx] = xh;
                    out.data_mut()[idx] = g * xh + b;
                });
            }

            if train {
                self.cache = Some(BnCache {
                    xhat,
                    inv_std: inv_stds,
                    in_shape: input.shape().to_vec(),
                });
            } else {
                self.cache = None;
            }
            out
        }

        fn backward(&mut self, grad_out: &Tensor) -> Tensor {
            let cache = self
                .cache
                .as_ref()
                .expect("backward requires a training-mode forward");
            assert_eq!(grad_out.shape(), &cache.in_shape[..]);
            let (n, s) = self.layout(&cache.in_shape);
            let c = self.channels;
            let count = (n * s) as f32;
            let mut dx = grad_out.clone();

            for ch in 0..c {
                let g = self.gamma.value.data()[ch];
                let inv_std = cache.inv_std[ch];
                let mut dgamma = 0.0f64;
                let mut dbeta = 0.0f64;
                Self::for_channel(n, c, s, ch, |idx| {
                    dgamma += (grad_out.data()[idx] * cache.xhat.data()[idx]) as f64;
                    dbeta += grad_out.data()[idx] as f64;
                });
                self.gamma.grad.data_mut()[ch] += dgamma as f32;
                self.beta.grad.data_mut()[ch] += dbeta as f32;

                let mean_dy = dbeta as f32 / count;
                let mean_dyxhat = dgamma as f32 / count;
                Self::for_channel(n, c, s, ch, |idx| {
                    let dy = grad_out.data()[idx];
                    let xh = cache.xhat.data()[idx];
                    dx.data_mut()[idx] = g * inv_std * (dy - mean_dy - xh * mean_dyxhat);
                });
            }
            dx
        }

        fn params(&self) -> Vec<&Param> {
            vec![&self.gamma, &self.beta]
        }

        fn params_mut(&mut self) -> Vec<&mut Param> {
            vec![&mut self.gamma, &mut self.beta]
        }

        fn name(&self) -> &'static str {
            "BatchNorm"
        }

        fn state_len(&self) -> usize {
            2 * self.channels
        }

        fn state(&self) -> Vec<f32> {
            let mut out = Vec::with_capacity(2 * self.channels);
            out.extend_from_slice(&self.running_mean);
            out.extend_from_slice(&self.running_var);
            out
        }
    }

    /// The ResNet's two batch-norm shapes, channel counts on every side
    /// of the four-channel group (with and without the pool split),
    /// `(N, C)` inputs, one element, one channel, and the empty batch.
    #[test]
    fn matches_the_layer_it_replaced() {
        let shapes: [&[usize]; 11] = [
            &[32, 16, 16, 16],
            &[32, 32, 8, 8],
            &[9, 4, 31, 17],
            &[5, 7, 3, 11],
            &[3, 5, 40, 40],
            &[2, 1, 100, 100],
            &[70, 3],
            &[2100, 9],
            &[1, 1],
            &[1, 6, 1, 1],
            &[0, 4, 3, 3],
        ];
        for shape in shapes {
            let c = shape[1];
            let oracle = || SeedBatchNorm::new(c);
            layer_matches_oracle(|| BatchNorm::new(c), oracle, &[(shape, shape)]);
        }
    }

    #[test]
    fn train_output_is_normalized_per_channel() {
        let mut rng = Rng::seed(1);
        let mut bn = BatchNorm::new(3);
        let x = rng.normal_tensor(&[64, 3], 5.0);
        let y = bn.forward(&x, true);
        for ch in 0..3 {
            let vals: Vec<f32> = (0..64).map(|i| y.at(&[i, ch])).collect();
            let mean = vals.iter().sum::<f32>() / 64.0;
            let var = vals.iter().map(|v| (v - mean).powi(2)).sum::<f32>() / 64.0;
            assert!(mean.abs() < 1e-4, "channel {ch} mean {mean}");
            assert!((var - 1.0).abs() < 1e-2, "channel {ch} var {var}");
        }
    }

    #[test]
    fn gamma_beta_shift_and_scale() {
        let mut rng = Rng::seed(2);
        let mut bn = BatchNorm::new(2);
        bn.gamma.value = Tensor::from_vec(vec![2.0, 3.0], &[2]);
        bn.beta.value = Tensor::from_vec(vec![10.0, -10.0], &[2]);
        let x = rng.normal_tensor(&[128, 2], 1.0);
        let y = bn.forward(&x, true);
        let m0: f32 = (0..128).map(|i| y.at(&[i, 0])).sum::<f32>() / 128.0;
        let m1: f32 = (0..128).map(|i| y.at(&[i, 1])).sum::<f32>() / 128.0;
        assert!((m0 - 10.0).abs() < 1e-3);
        assert!((m1 + 10.0).abs() < 1e-3);
    }

    #[test]
    fn eval_mode_uses_running_stats() {
        let mut rng = Rng::seed(3);
        let mut bn = BatchNorm::new(1);
        // Train on many batches so running stats converge to N(4, 9).
        for _ in 0..200 {
            let x = rng.normal_tensor(&[256, 1], 3.0).map(|v| v + 4.0);
            let _ = bn.forward(&x, true);
        }
        let x = Tensor::from_vec(vec![4.0], &[1, 1]);
        let y = bn.forward(&x, false);
        assert!(y.data()[0].abs() < 0.1, "x=mean should map near 0, got {}", y.data()[0]);
    }

    #[test]
    fn backward_gradient_sums_to_zero_per_channel() {
        // The batch-norm input gradient always sums to zero over the
        // normalisation axes (projection property).
        let mut rng = Rng::seed(4);
        let mut bn = BatchNorm::new(2);
        let x = rng.normal_tensor(&[16, 2, 3, 3], 2.0);
        let _ = bn.forward(&x, true);
        let g = rng.normal_tensor(&[16, 2, 3, 3], 1.0);
        let dx = bn.backward(&g);
        for ch in 0..2 {
            let mut sum = 0.0f32;
            for i in 0..16 {
                for a in 0..3 {
                    for b in 0..3 {
                        sum += dx.at(&[i, ch, a, b]);
                    }
                }
            }
            assert!(sum.abs() < 1e-3, "channel {ch} grad sum {sum}");
        }
    }

    #[test]
    fn works_on_4d_inputs() {
        let mut rng = Rng::seed(5);
        let mut bn = BatchNorm::new(4);
        let x = rng.normal_tensor(&[2, 4, 5, 5], 1.0);
        let y = bn.forward(&x, true);
        assert_eq!(y.shape(), x.shape());
    }

    #[test]
    #[should_panic(expected = "channel mismatch")]
    fn wrong_channels_rejected() {
        let mut bn = BatchNorm::new(3);
        let _ = bn.forward(&Tensor::zeros(&[2, 4]), true);
    }
}
