//! One-vs-rest multiclass wrapper for the binary SVM.
//!
//! BigEarthNet land-cover classification is multi-class; the classical
//! SVM path handles it the way LIBSVM-era RS pipelines did: one binary
//! classifier per class, predictions by maximum decision value. The `k`
//! binary problems are independent, so they train in parallel.

use crate::svm::{Svm, SvmConfig};
use rayon::prelude::*;

/// A one-vs-rest multiclass SVM.
#[derive(Debug, Clone)]
pub struct OneVsRestSvm {
    /// One binary model per class, index = class id.
    pub models: Vec<Svm>,
}

impl OneVsRestSvm {
    /// Trains `classes` binary SVMs in parallel. `labels` are class ids
    /// in `0..classes`.
    pub fn train(xs: &[Vec<f32>], labels: &[usize], classes: usize, cfg: &SvmConfig) -> Self {
        assert_eq!(xs.len(), labels.len());
        assert!(classes >= 2, "need at least two classes");
        assert!(labels.iter().all(|&l| l < classes), "label out of range");
        let models = (0..classes)
            .into_par_iter()
            .map(|c| {
                let ys: Vec<f32> = labels
                    .iter()
                    .map(|&l| if l == c { 1.0 } else { -1.0 })
                    .collect();
                let sub_cfg = SvmConfig {
                    seed: cfg.seed ^ (c as u64 + 1),
                    ..cfg.clone()
                };
                Svm::train(xs, &ys, &sub_cfg)
            })
            .collect();
        OneVsRestSvm { models }
    }

    /// Predicted class = argmax of the per-class decision values.
    pub fn predict(&self, x: &[f32]) -> usize {
        self.models
            .iter()
            .enumerate()
            .map(|(c, m)| (c, m.decision(x)))
            .fold((0usize, f32::NEG_INFINITY), |best, (c, d)| {
                if d > best.1 {
                    (c, d)
                } else {
                    best
                }
            })
            .0
    }

    /// Parallel batch accuracy.
    pub fn accuracy(&self, xs: &[Vec<f32>], labels: &[usize]) -> f64 {
        let correct = xs
            .par_iter()
            .zip(labels.par_iter())
            .filter(|(x, &l)| self.predict(x) == l)
            .count();
        correct as f64 / xs.len().max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::svm::Kernel;
    use tensor::Rng;

    /// k Gaussian blobs on a ring.
    fn ring_blobs(n: usize, k: usize, seed: u64) -> (Vec<Vec<f32>>, Vec<usize>) {
        let mut rng = Rng::seed(seed);
        let mut xs = Vec::with_capacity(n);
        let mut ys = Vec::with_capacity(n);
        for _ in 0..n {
            let c = rng.below(k);
            let theta = c as f32 / k as f32 * std::f32::consts::TAU;
            xs.push(vec![
                3.0 * theta.cos() + rng.normal() * 0.5,
                3.0 * theta.sin() + rng.normal() * 0.5,
            ]);
            ys.push(c);
        }
        (xs, ys)
    }

    #[test]
    fn four_class_blobs_are_separated() {
        let (xs, ys) = ring_blobs(300, 4, 1);
        let (tx, ty) = ring_blobs(200, 4, 2);
        let cfg = SvmConfig {
            kernel: Kernel::Rbf { gamma: 0.5 },
            ..Default::default()
        };
        let model = OneVsRestSvm::train(&xs, &ys, 4, &cfg);
        assert_eq!(model.models.len(), 4);
        let acc = model.accuracy(&tx, &ty);
        assert!(acc > 0.9, "multiclass accuracy {acc}");
    }

    #[test]
    #[should_panic(expected = "label out of range")]
    fn out_of_range_label_rejected() {
        let xs = vec![vec![0.0], vec![1.0]];
        let _ = OneVsRestSvm::train(&xs, &[0, 5], 2, &SvmConfig::default());
    }
}
