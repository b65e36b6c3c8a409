//! Stateless / mask-based layers: ReLU, Tanh, Sigmoid and (inverted)
//! dropout.

use crate::layer::Layer;
use crate::recurrent::sigmoid;
use tensor::{Rng, Tensor};

/// Rectified linear unit.
pub struct Relu {
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
        let mask: Vec<bool> = input.data().iter().map(|&x| x > 0.0).collect();
        let out = input.map(|x| x.max(0.0));
        self.mask = Some(mask);
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        // lint: allow(unwrap) -- layer API contract: backward requires a prior forward
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

/// Hyperbolic tangent activation.
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
pub struct Dropout {
    p: f64,
    rng: Rng,
    mask: Option<Vec<f32>>,
}

impl Dropout {
    /// `p` is the drop probability, in `[0, 1)`.
    pub fn new(p: f64, seed: u64) -> Self {
        assert!((0.0..1.0).contains(&p), "drop probability must be in [0,1)");
        Dropout {
            p,
            rng: Rng::seed(seed),
            mask: None,
        }
    }
}

impl Layer for Dropout {
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        // lint: allow(float-eq) -- p == 0.0 tests the exact "dropout disabled" sentinel
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
}

#[cfg(test)]
mod tests {
    use super::*;

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
