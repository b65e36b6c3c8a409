//! Loss functions. Each returns the scalar loss and the gradient with
//! respect to the network output, already divided by the batch size so
//! data-parallel gradient *averaging* across workers reproduces the
//! single-worker large-batch gradient exactly.

use crate::recurrent::sigmoid;
use tensor::Tensor;

/// A loss over (prediction, target) pairs.
pub trait Loss {
    /// Returns `(loss, dloss/dprediction)`.
    fn compute(&self, pred: &Tensor, target: &Tensor) -> (f32, Tensor);
}

/// Fused softmax + cross-entropy over integer class labels.
///
/// `pred` is the raw logits `(N, K)`; `target` is `(N)` holding the class
/// index as a float (storage convenience). Gradient is the numerically
/// exact `(softmax − onehot)/N`.
pub struct SoftmaxCrossEntropy;

impl Loss for SoftmaxCrossEntropy {
    fn compute(&self, pred: &Tensor, target: &Tensor) -> (f32, Tensor) {
        assert_eq!(pred.ndim(), 2, "logits must be (N, K)");
        let (n, k) = (pred.shape()[0], pred.shape()[1]);
        assert_eq!(target.numel(), n, "one label per row");
        let probs = pred.softmax_rows();
        let mut grad = probs.clone();
        let mut loss = 0.0f64;
        for i in 0..n {
            let label = target.data()[i] as usize;
            assert!(label < k, "label {label} out of range for {k} classes");
            // Clamp away from 0 but let NaN through: `f32::max` would turn
            // a diverged run's NaN into 1e-12 and report a finite loss.
            let p = probs.at(&[i, label]);
            let p = if p < 1e-12 { 1e-12 } else { p };
            loss -= (p as f64).ln();
            *grad.at_mut(&[i, label]) -= 1.0;
        }
        grad.scale(1.0 / n as f32);
        ((loss / n as f64) as f32, grad)
    }
}

/// Binary cross-entropy over logits, element-wise — the multi-label
/// loss BigEarthNet classification actually uses (each patch carries
/// several CORINE land-cover labels). `target` holds 0/1 per class.
/// Numerically stable log-sum-exp formulation.
pub struct BceWithLogits;

impl Loss for BceWithLogits {
    fn compute(&self, pred: &Tensor, target: &Tensor) -> (f32, Tensor) {
        assert_eq!(pred.shape(), target.shape(), "shape mismatch");
        let n = pred.numel().max(1) as f32;
        let mut loss = 0.0f64;
        let mut grad = Tensor::zeros(pred.shape());
        for ((&z, &y), g) in pred
            .data()
            .iter()
            .zip(target.data())
            .zip(grad.data_mut())
        {
            // lint: allow(float-eq) -- targets are exact 0/1 indicators by contract
            debug_assert!(y == 0.0 || y == 1.0, "targets must be 0/1");
            // loss = max(z,0) − z·y + ln(1 + e^{−|z|})
            loss += (z.max(0.0) - z * y + (1.0 + (-z.abs()).exp()).ln()) as f64;
            let sigma = sigmoid(z);
            *g = (sigma - y) / n;
        }
        ((loss / n as f64) as f32, grad)
    }
}

/// Mean squared error over all elements.
pub struct Mse;

impl Loss for Mse {
    fn compute(&self, pred: &Tensor, target: &Tensor) -> (f32, Tensor) {
        assert_eq!(pred.shape(), target.shape(), "shape mismatch");
        let n = pred.numel().max(1) as f32;
        let mut diff = pred.clone();
        diff.sub_assign(target);
        let loss = diff.sq_norm() / n;
        let mut grad = diff;
        grad.scale(2.0 / n);
        (loss, grad)
    }
}

/// Masked mean absolute error — the §IV-B imputation loss. `mask` selects
/// the positions whose values were artificially removed; loss and
/// gradient are computed only there (1 where counted, 0 elsewhere).
pub struct MaskedMae;

impl MaskedMae {
    /// MAE over masked positions. With a mask of all-ones this is plain
    /// MAE (the Keras `mae` used by the paper).
    pub fn compute_masked(&self, pred: &Tensor, target: &Tensor, mask: &Tensor) -> (f32, Tensor) {
        assert_eq!(pred.shape(), target.shape());
        assert_eq!(pred.shape(), mask.shape());
        let count: f32 = mask.sum();
        assert!(count > 0.0, "mask selects no elements");
        let mut loss = 0.0f64;
        let mut grad = Tensor::zeros(pred.shape());
        for ((&p, (&t, &m)), g) in pred
            .data()
            .iter()
            .zip(target.data().iter().zip(mask.data()))
            .zip(grad.data_mut())
        {
            // lint: allow(float-eq) -- the mask is an exact 0/1 indicator, not arithmetic output
            if m != 0.0 {
                let d = p - t;
                loss += d.abs() as f64;
                *g = d.signum() / count;
            }
        }
        ((loss / count as f64) as f32, grad)
    }
}

impl Loss for MaskedMae {
    fn compute(&self, pred: &Tensor, target: &Tensor) -> (f32, Tensor) {
        let mask = Tensor::ones(pred.shape());
        self.compute_masked(pred, target, &mask)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cross_entropy_perfect_prediction_is_near_zero() {
        let pred = Tensor::from_vec(vec![100.0, 0.0, 0.0, 0.0, 100.0, 0.0], &[2, 3]);
        let target = Tensor::from_vec(vec![0.0, 1.0], &[2]);
        let (loss, grad) = SoftmaxCrossEntropy.compute(&pred, &target);
        assert!(loss < 1e-6);
        assert!(grad.data().iter().all(|g| g.abs() < 1e-6));
    }

    #[test]
    fn cross_entropy_uniform_is_log_k() {
        let pred = Tensor::zeros(&[4, 8]);
        let target = Tensor::zeros(&[4]);
        let (loss, _) = SoftmaxCrossEntropy.compute(&pred, &target);
        assert!((loss - (8.0f32).ln()).abs() < 1e-5);
    }

    #[test]
    fn cross_entropy_grad_rows_sum_to_zero() {
        let pred = Tensor::from_vec(vec![1.0, -2.0, 0.5, 3.0, 0.0, -1.0], &[2, 3]);
        let target = Tensor::from_vec(vec![2.0, 0.0], &[2]);
        let (_, grad) = SoftmaxCrossEntropy.compute(&pred, &target);
        for i in 0..2 {
            let s: f32 = grad.row(i).iter().sum();
            assert!(s.abs() < 1e-6, "row {i} sums to {s}");
        }
    }

    #[test]
    fn cross_entropy_grad_matches_numerical() {
        let pred = Tensor::from_vec(vec![0.3, -0.7, 1.1, 0.2, 0.9, -0.4], &[2, 3]);
        let target = Tensor::from_vec(vec![1.0, 2.0], &[2]);
        let (_, grad) = SoftmaxCrossEntropy.compute(&pred, &target);
        let eps = 1e-3;
        for idx in 0..pred.numel() {
            let mut plus = pred.clone();
            plus.data_mut()[idx] += eps;
            let mut minus = pred.clone();
            minus.data_mut()[idx] -= eps;
            let (lp, _) = SoftmaxCrossEntropy.compute(&plus, &target);
            let (lm, _) = SoftmaxCrossEntropy.compute(&minus, &target);
            let num = (lp - lm) / (2.0 * eps);
            assert!(
                (num - grad.data()[idx]).abs() < 1e-3,
                "idx {idx}: numerical {num} vs analytic {}",
                grad.data()[idx]
            );
        }
    }

    #[test]
    fn bce_perfect_and_uniform() {
        // Confident correct logits → near-zero loss.
        let pred = Tensor::from_vec(vec![20.0, -20.0], &[1, 2]);
        let target = Tensor::from_vec(vec![1.0, 0.0], &[1, 2]);
        let (loss, grad) = BceWithLogits.compute(&pred, &target);
        assert!(loss < 1e-6, "loss {loss}");
        assert!(grad.data().iter().all(|g| g.abs() < 1e-6));
        // Zero logits → ln 2 per element.
        let (l2, _) = BceWithLogits.compute(&Tensor::zeros(&[4]), &Tensor::ones(&[4]));
        assert!((l2 - std::f32::consts::LN_2).abs() < 1e-6);
    }

    #[test]
    fn bce_grad_matches_numerical() {
        let pred = Tensor::from_vec(vec![0.5, -1.2, 2.0, 0.0], &[4]);
        let target = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], &[4]);
        let (_, grad) = BceWithLogits.compute(&pred, &target);
        let eps = 1e-3;
        for i in 0..4 {
            let mut p = pred.clone();
            p.data_mut()[i] += eps;
            let (lp, _) = BceWithLogits.compute(&p, &target);
            p.data_mut()[i] -= 2.0 * eps;
            let (lm, _) = BceWithLogits.compute(&p, &target);
            let num = (lp - lm) / (2.0 * eps);
            assert!(
                (num - grad.data()[i]).abs() < 1e-3,
                "i={i}: {num} vs {}",
                grad.data()[i]
            );
        }
    }

    #[test]
    fn bce_is_stable_for_extreme_logits() {
        let pred = Tensor::from_vec(vec![1000.0, -1000.0], &[2]);
        let target = Tensor::from_vec(vec![0.0, 1.0], &[2]);
        let (loss, grad) = BceWithLogits.compute(&pred, &target);
        assert!(loss.is_finite());
        assert!(grad.data().iter().all(|g| g.is_finite()));
    }

    #[test]
    fn mse_known_value_and_grad() {
        let pred = Tensor::from_vec(vec![1.0, 2.0], &[2]);
        let target = Tensor::from_vec(vec![0.0, 0.0], &[2]);
        let (loss, grad) = Mse.compute(&pred, &target);
        assert!((loss - 2.5).abs() < 1e-6); // (1+4)/2
        assert_eq!(grad.data(), &[1.0, 2.0]); // 2·diff/n
    }

    #[test]
    fn masked_mae_ignores_unmasked() {
        let pred = Tensor::from_vec(vec![1.0, 100.0, 3.0], &[3]);
        let target = Tensor::from_vec(vec![0.0, 0.0, 1.0], &[3]);
        let mask = Tensor::from_vec(vec![1.0, 0.0, 1.0], &[3]);
        let (loss, grad) = MaskedMae.compute_masked(&pred, &target, &mask);
        assert!((loss - 1.5).abs() < 1e-6); // (|1| + |2|)/2
        assert_eq!(grad.data()[1], 0.0, "masked-out grad must be zero");
        assert_eq!(grad.data()[0], 0.5);
        assert_eq!(grad.data()[2], 0.5);
    }

    #[test]
    fn plain_mae_via_loss_trait() {
        let pred = Tensor::from_vec(vec![2.0, -2.0], &[2]);
        let target = Tensor::zeros(&[2]);
        let (loss, grad) = MaskedMae.compute(&pred, &target);
        assert!((loss - 2.0).abs() < 1e-6);
        assert_eq!(grad.data(), &[0.5, -0.5]);
    }

    #[test]
    #[should_panic(expected = "selects no elements")]
    fn empty_mask_rejected() {
        let t = Tensor::zeros(&[2]);
        let _ = MaskedMae.compute_masked(&t, &t, &Tensor::zeros(&[2]));
    }
}
