//! Subsample ensembles of QSVMs under a device budget.
//!
//! The paper (\[11\]): quantum annealers are "still limited by having only
//! binary classification or the requirement to sub-sample from large
//! quantities of data and using ensemble methods". This module does
//! exactly that: the device's qubit/coupler budget caps the per-member
//! subsample size; many members train on disjoint-ish subsamples (in
//! parallel — each anneal is one device call) and vote by averaging
//! decision values.

use crate::qsvm::{build_qubo, QsvmConfig, QsvmModel};
use crate::qubo::AnnealerSpec;
use rayon::prelude::*;
use tensor::Rng;

/// An ensemble of QSVMs.
#[derive(Debug, Clone)]
pub struct QsvmEnsemble {
    pub members: Vec<QsvmModel>,
    /// Samples per member actually used.
    pub subsample: usize,
}

impl QsvmEnsemble {
    /// Mean decision value over members.
    pub fn decision(&self, x: &[f32]) -> f32 {
        let s: f32 = self.members.iter().map(|m| m.decision(x)).sum();
        s / self.members.len().max(1) as f32
    }

    /// Predicted label ±1.
    pub fn predict(&self, x: &[f32]) -> f32 {
        if self.decision(x) >= 0.0 {
            1.0
        } else {
            -1.0
        }
    }

    /// Accuracy on a labelled set.
    pub fn accuracy(&self, xs: &[Vec<f32>], ys: &[f32]) -> f64 {
        let correct = xs
            .par_iter()
            .zip(ys.par_iter())
            .filter(|(x, &y)| self.predict(x) == y)
            .count();
        correct as f64 / xs.len().max(1) as f64
    }
}

/// Largest subsample whose dense QSVM QUBO fits `device` (qubits and
/// couplers) with the given bit encoding.
pub fn max_subsample(device: &AnnealerSpec, k_bits: usize) -> usize {
    let mut n = 0usize;
    loop {
        let vars = (n + 1) * k_bits;
        let couplers = vars * (vars - 1) / 2;
        if vars > device.qubits || couplers > device.couplers {
            return n;
        }
        n += 1;
    }
}

/// Trains `members` QSVMs on random subsamples sized to fit `device`.
pub fn train_ensemble(
    xs: &[Vec<f32>],
    ys: &[f32],
    members: usize,
    device: &AnnealerSpec,
    cfg: &QsvmConfig,
    seed: u64,
) -> QsvmEnsemble {
    assert!(members >= 1);
    assert_eq!(xs.len(), ys.len());
    let sub = max_subsample(device, cfg.k_bits).min(xs.len());
    assert!(sub >= 2, "device too small for any subsample");

    // Pre-draw subsample indices deterministically.
    let mut rng = Rng::seed(seed);
    let index_sets: Vec<Vec<usize>> = (0..members)
        .map(|_| {
            let perm = rng.permutation(xs.len());
            perm[..sub].to_vec()
        })
        .collect();

    let members: Vec<QsvmModel> = index_sets
        .into_par_iter()
        .enumerate()
        .map(|(m, idx)| {
            let sub_x: Vec<Vec<f32>> = idx.iter().map(|&i| xs[i].clone()).collect();
            let sub_y: Vec<f32> = idx.iter().map(|&i| ys[i]).collect();
            let member_cfg = QsvmConfig {
                sa: crate::anneal::SaParams {
                    seed: seed ^ ((m as u64 + 1) * 0xA11CE),
                    ..cfg.sa.clone()
                },
                ..cfg.clone()
            };
            // Budget sanity: the QUBO must actually fit the device.
            let q = build_qubo(&sub_x, &sub_y, &member_cfg);
            assert!(
                device.fits(&q),
                "QUBO ({} vars, {} couplers) exceeds {}",
                q.num_vars(),
                q.num_couplers(),
                device.name
            );
            QsvmModel::train(&sub_x, &sub_y, &member_cfg)
        })
        .collect();

    QsvmEnsemble {
        members,
        subsample: sub,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blobs(n: usize, _sep: f32, seed: u64) -> (Vec<Vec<f32>>, Vec<f32>) {
        let mut rng = Rng::seed(seed);
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for _ in 0..n {
            let y = if rng.chance(0.5) { 1.0f32 } else { -1.0 };
            xs.push(vec![rng.normal() + y * 1.5, rng.normal() - y * 1.5]);
            ys.push(y);
        }
        (xs, ys)
    }

    #[test]
    fn max_subsample_respects_budgets() {
        let q2000 = AnnealerSpec::dwave_2000q();
        let adv = AnnealerSpec::dwave_advantage();
        let s_old = max_subsample(&q2000, 3);
        let s_new = max_subsample(&adv, 3);
        assert!(s_new > s_old, "Advantage should host bigger subsamples");
        // Verify the returned size really fits and size+1 does not.
        let vars = s_old * 3;
        assert!(vars * (vars - 1) / 2 <= q2000.couplers);
        let vars1 = (s_old + 1) * 3;
        assert!(vars1 * (vars1 - 1) / 2 > q2000.couplers || vars1 > q2000.qubits);
    }

    #[test]
    fn ensemble_beats_single_member() {
        let (xs, ys) = blobs(150, 1.2, 1);
        let (tx, ty) = blobs(150, 1.2, 2);
        let tiny = AnnealerSpec {
            name: "tiny",
            qubits: 36,
            couplers: 1000,
        }; // 12 samples × 3 bits
        let cfg = QsvmConfig::default();
        let single = train_ensemble(&xs, &ys, 1, &tiny, &cfg, 5);
        let many = train_ensemble(&xs, &ys, 9, &tiny, &cfg, 5);
        let (a1, a9) = (single.accuracy(&tx, &ty), many.accuracy(&tx, &ty));
        assert!(
            a9 >= a1 - 0.02,
            "ensemble should not be worse: {a9} vs {a1}"
        );
        assert!(a9 > 0.8, "ensemble accuracy {a9}");
    }

    #[test]
    fn bigger_device_gives_bigger_subsamples_and_no_worse_accuracy() {
        let (xs, ys) = blobs(200, 1.0, 3);
        let (tx, ty) = blobs(200, 1.0, 4);
        let cfg = QsvmConfig::default();
        let small = AnnealerSpec {
            name: "small",
            qubits: 24,
            couplers: 400,
        };
        let big = AnnealerSpec {
            name: "big",
            qubits: 120,
            couplers: 8000,
        };
        let e_small = train_ensemble(&xs, &ys, 5, &small, &cfg, 6);
        let e_big = train_ensemble(&xs, &ys, 5, &big, &cfg, 6);
        assert!(e_big.subsample > e_small.subsample);
        let (a_s, a_b) = (e_small.accuracy(&tx, &ty), e_big.accuracy(&tx, &ty));
        assert!(a_b >= a_s - 0.03, "bigger device regressed: {a_b} vs {a_s}");
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn hopeless_device_rejected() {
        let (xs, ys) = blobs(10, 1.0, 7);
        let dev = AnnealerSpec {
            name: "hopeless",
            qubits: 3,
            couplers: 1,
        };
        let _ = train_ensemble(&xs, &ys, 1, &dev, &QsvmConfig::default(), 1);
    }
}
