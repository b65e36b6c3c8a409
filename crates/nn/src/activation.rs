//! Stateless / mask-based layers: ReLU, Tanh, Sigmoid and (inverted)
//! dropout.
//!
//! ReLU and dropout are one streaming pass each way: the output is
//! collected straight from the input (no zero-fill and no pool stage,
//! which a memory-bound pass of these sizes does not repay) while the
//! same pass fills a byte mask the layer keeps, grow-only, for backward.
//! Only dropout's draws go over the pool: the keystream is compute-bound.
//!
//! # Bit-exactness
//!
//! Both are `to_bits`-equal to the collect-a-mask-then-map layers they
//! replaced (the `#[cfg(test)]` oracles below), for any pool width.
//! *Elements are independent* and computed by the old expressions:
//! `x.max(0.0)` and `x > 0.0`; `x · m` with `m` one of `0.0` and `1/(1−p)`.
//! The dropout multiply stays a multiply: `x · 0.0` is `−0.0` for negative
//! `x` and NaN for `±inf`, which a select would lose. *A dropout draw is
//! exactly two keystream words* ([`Rng::chance`]), so words `2i` and
//! `2i + 1` past the pass's starting position decide element `i`: a block
//! fills its slice from a clone of the generator seeked to `word_pos +
//! 2·first_element` ([`Rng::fill_chance`]), and the layer's generator then
//! skips all `2·n` words, to where `n` serial draws would have left it.

use crate::layer::Layer;
use crate::optim::{u64_to_words, words_to_u64};
use crate::recurrent::sigmoid;
use crate::STREAM_BLOCK;
use rayon::prelude::*;
use tensor::{Rng, Tensor};

/// `f(src[i], mask[i])` for every element, as a tensor of `like`'s shape.
fn zip_mask(like: &Tensor, mask: &[bool], f: impl Fn(f32, bool) -> f32) -> Tensor {
    assert_eq!(mask.len(), like.numel());
    let pairs = like.data().iter().zip(mask);
    let data = pairs.map(|(&x, &m)| f(x, m)).collect();
    Tensor::from_vec(data, like.shape())
}

/// Rectified linear unit.
#[derive(Clone)]
pub struct Relu {
    /// `x > 0` per element of the last input; `None` before any forward.
    mask: Option<Vec<bool>>,
}

impl Relu {
    pub fn new() -> Self {
        Relu { mask: None }
    }
}

impl Default for Relu {
    fn default() -> Self {
        Self::new()
    }
}

impl Layer for Relu {
    fn forward(&mut self, input: &Tensor, _train: bool) -> Tensor {
        let mut mask = self.mask.take().unwrap_or_default();
        mask.resize(input.numel(), false);
        let relu = |(&x, m): (&f32, &mut bool)| {
            *m = x > 0.0;
            x.max(0.0)
        };
        let data = input.data().iter().zip(&mut mask).map(relu).collect();
        self.mask = Some(mask);
        Tensor::from_vec(data, input.shape())
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        // lint: allow(unwrap) -- layer API contract: backward requires a prior forward
        let mask = self.mask.as_ref().expect("backward before forward");
        zip_mask(grad_out, mask, |g, m| if m { g } else { 0.0 })
    }

    fn name(&self) -> &'static str {
        "ReLU"
    }
}

/// Hyperbolic tangent activation.
#[derive(Clone)]
pub struct Tanh {
    out: Option<Tensor>,
}

impl Tanh {
    pub fn new() -> Self {
        Tanh { out: None }
    }
}

impl Default for Tanh {
    fn default() -> Self {
        Self::new()
    }
}

impl Layer for Tanh {
    fn forward(&mut self, input: &Tensor, _train: bool) -> Tensor {
        let out = input.map(f32::tanh);
        self.out = Some(out.clone());
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        // lint: allow(unwrap) -- layer API contract: backward requires a prior forward
        let out = self.out.as_ref().expect("backward before forward");
        let mut g = grad_out.clone();
        // d tanh = 1 − tanh²
        g.zip_inplace(out, |gg, y| gg * (1.0 - y * y));
        g
    }

    fn name(&self) -> &'static str {
        "Tanh"
    }
}

/// Logistic sigmoid activation.
#[derive(Clone)]
pub struct Sigmoid {
    out: Option<Tensor>,
}

impl Sigmoid {
    pub fn new() -> Self {
        Sigmoid { out: None }
    }
}

impl Default for Sigmoid {
    fn default() -> Self {
        Self::new()
    }
}

impl Layer for Sigmoid {
    fn forward(&mut self, input: &Tensor, _train: bool) -> Tensor {
        let out = input.map(sigmoid);
        self.out = Some(out.clone());
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        // lint: allow(unwrap) -- layer API contract: backward requires a prior forward
        let out = self.out.as_ref().expect("backward before forward");
        let mut g = grad_out.clone();
        // d σ = σ(1 − σ)
        g.zip_inplace(out, |gg, y| gg * y * (1.0 - y));
        g
    }

    fn name(&self) -> &'static str {
        "Sigmoid"
    }
}

/// Inverted dropout: at train time zeroes each activation with
/// probability `p` and scales survivors by `1/(1−p)`, so eval-time
/// forward is the identity (same convention as Keras).
///
/// The generator's keystream position is the layer's [`Layer::state`],
/// so a restored model draws the masks the saved one would have.
#[derive(Clone)]
pub struct Dropout {
    p: f64,
    /// What a kept element is scaled by, `1/(1−p)`.
    keep: f32,
    rng: Rng,
    /// Per element of the last forward: dropped. Empty (capacity kept)
    /// after an identity forward.
    mask: Vec<bool>,
}

impl Dropout {
    /// `p` is the drop probability, in `[0, 1)`.
    pub fn new(p: f64, seed: u64) -> Self {
        assert!((0.0..1.0).contains(&p), "drop probability must be in [0,1)");
        Dropout {
            p,
            keep: 1.0 / (1.0 - p) as f32,
            rng: Rng::seed(seed),
            mask: Vec::new(),
        }
    }

    /// `v[i]`, zeroed where the mask dropped `i` and scaled elsewhere.
    fn apply(&self, v: &Tensor) -> Tensor {
        let scale = |v: f32, dropped: bool| v * if dropped { 0.0 } else { self.keep };
        zip_mask(v, &self.mask, scale)
    }
}

impl Layer for Dropout {
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        // lint: allow(float-eq) -- p == 0.0 tests the exact "dropout disabled" sentinel
        if !train || self.p == 0.0 {
            self.mask.clear();
            return input.clone();
        }
        let (p, n) = (self.p, input.numel());
        let (rng, start) = (&self.rng, self.rng.word_pos());
        self.mask.resize(n, false);
        let blocks = self.mask.par_chunks_mut(STREAM_BLOCK).enumerate();
        blocks.for_each(|(block, m)| {
            let mut rng = rng.clone();
            rng.set_word_pos(start + 2 * (block * STREAM_BLOCK) as u64);
            rng.fill_chance(p, m);
        });
        self.rng.set_word_pos(start + 2 * n as u64);
        self.apply(input)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        if self.mask.is_empty() {
            return grad_out.clone();
        }
        self.apply(grad_out)
    }

    fn name(&self) -> &'static str {
        "Dropout"
    }

    fn state_len(&self) -> usize {
        2
    }

    fn state(&self) -> Vec<f32> {
        u64_to_words(self.rng.word_pos()).to_vec()
    }

    fn set_state(&mut self, state: &[f32]) {
        assert_eq!(state.len(), 2, "state length mismatch");
        self.rng.set_word_pos(words_to_u64([state[0], state[1]]));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::testing::layer_matches_oracle;

    /// The ReLU this module shipped before the one-pass rewrite, its
    /// `forward`/`backward` bodies verbatim.
    #[derive(Clone)]
    struct SeedRelu {
        mask: Option<Vec<bool>>,
    }

    impl Layer for SeedRelu {
        fn forward(&mut self, input: &Tensor, _train: bool) -> Tensor {
            let mask: Vec<bool> = input.data().iter().map(|&x| x > 0.0).collect();
            let out = input.map(|x| x.max(0.0));
            self.mask = Some(mask);
            out
        }

        fn backward(&mut self, grad_out: &Tensor) -> Tensor {
            let mask = self.mask.as_ref().expect("backward before forward");
            assert_eq!(mask.len(), grad_out.numel());
            let data = grad_out
                .data()
                .iter()
                .zip(mask)
                .map(|(&g, &m)| if m { g } else { 0.0 })
                .collect();
            Tensor::from_vec(data, grad_out.shape())
        }

        fn name(&self) -> &'static str {
            "ReLU"
        }
    }

    /// The dropout this module shipped before: one serial
    /// [`Rng::chance`] per element into an `f32` mask, bodies verbatim.
    /// `state` is new, so the harness can compare keystream positions.
    #[derive(Clone)]
    struct SeedDropout {
        p: f64,
        rng: Rng,
        mask: Option<Vec<f32>>,
    }

    impl Layer for SeedDropout {
        fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
            if !train || self.p == 0.0 {
                self.mask = None;
                return input.clone();
            }
            let keep = 1.0 / (1.0 - self.p) as f32;
            let mask: Vec<f32> = (0..input.numel())
                .map(|_| if self.rng.chance(self.p) { 0.0 } else { keep })
                .collect();
            let data = input
                .data()
                .iter()
                .zip(&mask)
                .map(|(&x, &m)| x * m)
                .collect();
            self.mask = Some(mask);
            Tensor::from_vec(data, input.shape())
        }

        fn backward(&mut self, grad_out: &Tensor) -> Tensor {
            match &self.mask {
                None => grad_out.clone(),
                Some(mask) => {
                    assert_eq!(mask.len(), grad_out.numel());
                    let data = grad_out
                        .data()
                        .iter()
                        .zip(mask)
                        .map(|(&g, &m)| g * m)
                        .collect();
                    Tensor::from_vec(data, grad_out.shape())
                }
            }
        }

        fn name(&self) -> &'static str {
            "Dropout"
        }

        fn state_len(&self) -> usize {
            2
        }

        fn state(&self) -> Vec<f32> {
            u64_to_words(self.rng.word_pos()).to_vec()
        }
    }

    /// The benchmark's dropout input, sizes on both sides of one and two
    /// [`STREAM_BLOCK`]s, one element, and empty.
    const SHAPES: [&[usize]; 7] = [
        &[240, 48, 32],
        &[STREAM_BLOCK],
        &[3, STREAM_BLOCK / 3 + 1],
        &[2, STREAM_BLOCK, 1],
        &[2 * STREAM_BLOCK + 1],
        &[1],
        &[0, 4],
    ];

    #[test]
    fn relu_and_dropout_match_the_layers_they_replaced() {
        let shapes = SHAPES.map(|s| (s, s));
        layer_matches_oracle(Relu::new, || SeedRelu { mask: None }, &shapes);
        for p in [0.0, 0.2, 0.75] {
            let seed = || SeedDropout {
                p,
                rng: Rng::seed(1001),
                mask: None,
            };
            layer_matches_oracle(|| Dropout::new(p, 1001), seed, &shapes);
        }
    }

    #[test]
    fn dropout_state_is_its_keystream_position() {
        let x = Tensor::ones(&[3, 50]);
        let mut a = Dropout::new(0.3, 5);
        assert_eq!(a.state(), u64_to_words(0).to_vec());
        a.forward(&x, true);
        assert_eq!(
            a.state(),
            u64_to_words(300).to_vec(),
            "two words per element"
        );
        let mut b = Dropout::new(0.3, 5);
        b.set_state(&a.state());
        assert_eq!(b.forward(&x, true), a.forward(&x, true));
        assert_eq!(b.state(), a.state());
    }

    #[test]
    fn relu_forward_backward() {
        let mut r = Relu::new();
        let x = Tensor::from_vec(vec![-1.0, 0.0, 2.0, -3.0], &[2, 2]);
        let y = r.forward(&x, true);
        assert_eq!(y.data(), &[0.0, 0.0, 2.0, 0.0]);
        let g = r.backward(&Tensor::ones(&[2, 2]));
        assert_eq!(g.data(), &[0.0, 0.0, 1.0, 0.0]);
    }

    #[test]
    fn dropout_eval_is_identity() {
        let mut d = Dropout::new(0.5, 1);
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]);
        let y = d.forward(&x, false);
        assert_eq!(y, x);
        let g = d.backward(&Tensor::ones(&[3]));
        assert_eq!(g.data(), &[1.0, 1.0, 1.0]);
    }

    #[test]
    fn dropout_train_preserves_expectation() {
        let mut d = Dropout::new(0.2, 7);
        let n = 50_000;
        let x = Tensor::ones(&[n]);
        let y = d.forward(&x, true);
        let mean = y.mean();
        assert!((mean - 1.0).abs() < 0.02, "mean {mean}");
        // survivors are exactly 1/(1-p)
        for &v in y.data() {
            assert!(v == 0.0 || (v - 1.25).abs() < 1e-6);
        }
    }

    #[test]
    fn dropout_backward_uses_same_mask() {
        let mut d = Dropout::new(0.5, 3);
        let x = Tensor::ones(&[100]);
        let y = d.forward(&x, true);
        let g = d.backward(&Tensor::ones(&[100]));
        // Gradient is zero exactly where the output was dropped.
        for (o, gg) in y.data().iter().zip(g.data()) {
            assert_eq!(*o == 0.0, *gg == 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "must be in [0,1)")]
    fn full_drop_rejected() {
        let _ = Dropout::new(1.0, 0);
    }

    #[test]
    fn tanh_forward_backward() {
        let mut t = Tanh::new();
        let x = Tensor::from_vec(vec![-1.0, 0.0, 2.0], &[3]);
        let y = t.forward(&x, true);
        assert!((y.data()[1]).abs() < 1e-9);
        assert!((y.data()[2] - 2.0f32.tanh()).abs() < 1e-6);
        let g = t.backward(&Tensor::ones(&[3]));
        // At 0 the slope is 1, tails flatten.
        assert!((g.data()[1] - 1.0).abs() < 1e-6);
        assert!(g.data()[2] < 0.2);
    }

    #[test]
    fn sigmoid_forward_backward() {
        let mut s = Sigmoid::new();
        let x = Tensor::from_vec(vec![0.0, 10.0, -10.0], &[3]);
        let y = s.forward(&x, true);
        assert!((y.data()[0] - 0.5).abs() < 1e-6);
        assert!(y.data()[1] > 0.999 && y.data()[2] < 0.001);
        let g = s.backward(&Tensor::ones(&[3]));
        assert!((g.data()[0] - 0.25).abs() < 1e-6, "σ'(0) = 1/4");
        assert!(g.data()[1] < 1e-3 && g.data()[2] < 1e-3);
    }

    #[test]
    fn tanh_sigmoid_gradcheck() {
        use crate::gradcheck::check_layer;
        let mut rng = Rng::seed(8);
        let x = rng.normal_tensor(&[3, 5], 1.0);
        let rep = check_layer(&mut Tanh::new(), &x, 1e-3, 70);
        assert!(rep.max_input_err < 2e-2, "tanh err {}", rep.max_input_err);
        let rep = check_layer(&mut Sigmoid::new(), &x, 1e-3, 71);
        assert!(rep.max_input_err < 2e-2, "sigmoid err {}", rep.max_input_err);
    }
}
