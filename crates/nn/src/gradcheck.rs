//! Numerical gradient checking.
//!
//! Verifies hand-derived backward passes by comparing against central
//! finite differences of the scalar functional `L = Σ forward(x) ⊙ G` for
//! a fixed random co-tangent `G`. Only `nn`'s unit tests use it.

use crate::layer::Layer;
use tensor::{Rng, Tensor};

/// Result of a gradient check.
#[derive(Debug)]
pub struct GradCheckReport {
    /// Largest relative error over all checked parameter entries.
    pub max_param_err: f32,
    /// Largest relative error over all input entries.
    pub max_input_err: f32,
    /// 90th-percentile relative error over parameter entries — robust to
    /// the occasional ReLU/maxpool kink that finite differences step
    /// across (where the true gradient is discontinuous, not wrong).
    pub p90_param_err: f32,
    /// 90th-percentile relative error over input entries.
    pub p90_input_err: f32,
}

fn p90(mut errs: Vec<f32>) -> f32 {
    if errs.is_empty() {
        return 0.0;
    }
    errs.sort_by(f32::total_cmp);
    errs[(errs.len() * 9 / 10).min(errs.len() - 1)]
}

/// `Σ a ⊙ b` over the flat data, summed in order.
fn dot(a: &Tensor, b: &Tensor) -> f32 {
    assert_eq!(a.numel(), b.numel(), "dot requires equal sizes");
    a.data().iter().zip(b.data()).map(|(x, y)| x * y).sum()
}

fn rel_err(a: f32, b: f32) -> f32 {
    (a - b).abs() / (a.abs() + b.abs()).max(1e-4)
}

/// Checks `layer`'s backward pass on input `x` against central
/// differences with step `eps`. The layer must be deterministic in train
/// mode (no dropout) and must not keep cross-call state that changes
/// outputs (batch-norm running stats are fine: they don't affect
/// train-mode output).
pub fn check_layer(layer: &mut dyn Layer, x: &Tensor, eps: f32, seed: u64) -> GradCheckReport {
    let mut rng = Rng::seed(seed);
    let y = layer.forward(x, true);
    let g = rng.normal_tensor(y.shape(), 1.0);

    // Analytic gradients.
    for p in layer.params_mut() {
        p.zero_grad();
    }
    let dx = layer.backward(&g);
    let analytic_param_grads: Vec<Vec<f32>> = layer
        .params()
        .iter()
        .map(|p| p.grad().data().to_vec())
        .collect();

    // Numerical parameter gradients.
    let mut param_errs = Vec::new();
    for (pi, analytic) in analytic_param_grads.iter().enumerate() {
        let numel = layer.params()[pi].numel();
        // Check at most 24 entries per parameter (spread deterministically)
        let stride = (numel / 24).max(1);
        for idx in (0..numel).step_by(stride) {
            let orig = layer.params()[pi].value.data()[idx];
            layer.params_mut()[pi].value.data_mut()[idx] = orig + eps;
            let lp = dot(&layer.forward(x, true), &g);
            layer.params_mut()[pi].value.data_mut()[idx] = orig - eps;
            let lm = dot(&layer.forward(x, true), &g);
            layer.params_mut()[pi].value.data_mut()[idx] = orig;
            let num = (lp - lm) / (2.0 * eps);
            param_errs.push(rel_err(num, analytic[idx]));
        }
    }

    // Numerical input gradients.
    let mut input_errs = Vec::new();
    let stride = (x.numel() / 32).max(1);
    for idx in (0..x.numel()).step_by(stride) {
        let mut xp = x.clone();
        xp.data_mut()[idx] += eps;
        let lp = dot(&layer.forward(&xp, true), &g);
        let mut xm = x.clone();
        xm.data_mut()[idx] -= eps;
        let lm = dot(&layer.forward(&xm, true), &g);
        let num = (lp - lm) / (2.0 * eps);
        input_errs.push(rel_err(num, dx.data()[idx]));
    }

    // Restore the cache for the original input so callers can continue.
    let _ = layer.forward(x, true);
    GradCheckReport {
        max_param_err: param_errs.iter().cloned().fold(0.0, f32::max),
        max_input_err: input_errs.iter().cloned().fold(0.0, f32::max),
        p90_param_err: p90(param_errs),
        p90_input_err: p90(input_errs),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conv::{Conv1d, Conv2d};
    use crate::dense::Dense;
    use crate::gru::Gru;
    use crate::layer::{Residual, Sequential};
    use crate::norm::BatchNorm;
    use crate::pool::{GlobalAvgPool2d, MaxPool2d};
    use crate::Relu;

    const TOL: f32 = 2e-2; // f32 finite differences are noisy

    #[test]
    fn dense_gradients_check_out() {
        let mut rng = Rng::seed(1);
        let mut layer = Dense::new(5, 4, &mut rng);
        let x = rng.normal_tensor(&[3, 5], 1.0);
        let rep = check_layer(&mut layer, &x, 1e-2, 99);
        assert!(rep.max_param_err < TOL, "param err {}", rep.max_param_err);
        assert!(rep.max_input_err < TOL, "input err {}", rep.max_input_err);
    }

    #[test]
    fn conv2d_gradients_check_out() {
        let mut rng = Rng::seed(2);
        let mut layer = Conv2d::new(2, 3, 3, 1, 1, &mut rng);
        let x = rng.normal_tensor(&[2, 2, 5, 5], 1.0);
        let rep = check_layer(&mut layer, &x, 1e-2, 98);
        assert!(rep.max_param_err < TOL, "param err {}", rep.max_param_err);
        assert!(rep.max_input_err < TOL, "input err {}", rep.max_input_err);
    }

    #[test]
    fn conv1d_gradients_check_out() {
        let mut rng = Rng::seed(3);
        let mut layer = Conv1d::new(3, 4, 3, 1, 1, &mut rng);
        let x = rng.normal_tensor(&[2, 3, 8], 1.0);
        let rep = check_layer(&mut layer, &x, 1e-2, 97);
        assert!(rep.max_param_err < TOL, "param err {}", rep.max_param_err);
        assert!(rep.max_input_err < TOL, "input err {}", rep.max_input_err);
    }

    #[test]
    fn gru_gradients_check_out() {
        let mut rng = Rng::seed(4);
        let mut layer = Gru::new(3, 4, &mut rng);
        let x = rng.normal_tensor(&[2, 5, 3], 1.0);
        let rep = check_layer(&mut layer, &x, 1e-2, 96);
        assert!(rep.max_param_err < TOL, "param err {}", rep.max_param_err);
        assert!(rep.max_input_err < TOL, "input err {}", rep.max_input_err);
    }

    #[test]
    fn batchnorm_gradients_check_out() {
        let mut rng = Rng::seed(5);
        let mut layer = BatchNorm::new(3);
        let x = rng.normal_tensor(&[8, 3], 2.0);
        let rep = check_layer(&mut layer, &x, 1e-2, 95);
        assert!(rep.max_param_err < TOL, "param err {}", rep.max_param_err);
        assert!(rep.max_input_err < 5e-2, "input err {}", rep.max_input_err);
    }

    #[test]
    fn composite_residual_cnn_checks_out() {
        let mut rng = Rng::seed(6);
        let block = Sequential::new()
            .push(Conv2d::new(4, 4, 3, 1, 1, &mut rng))
            .push(Relu::new());
        let mut model = Sequential::new()
            .push(Conv2d::new(1, 4, 3, 1, 1, &mut rng))
            .push(Residual::new(block))
            .push(MaxPool2d::new(2, 2))
            .push(GlobalAvgPool2d::new())
            .push(Dense::new(4, 2, &mut rng));
        let x = rng.normal_tensor(&[2, 1, 6, 6], 1.0);
        let rep = check_layer(&mut model, &x, 1e-2, 94);
        // ReLU/maxpool kinks make the max noisy; bound the bulk instead.
        assert!(rep.p90_param_err < 0.05, "param p90 err {}", rep.p90_param_err);
        assert!(rep.p90_input_err < 0.05, "input p90 err {}", rep.p90_input_err);
    }
}
