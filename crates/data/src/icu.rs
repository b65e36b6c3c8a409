//! MIMIC-III-style synthetic ICU vital-sign time series.
//!
//! The §IV-B study predicts missing values in noisy, gappy multivariate
//! ICU series. The exploitable structure is *homeostasis*: vitals are
//! mean-reverting (AR(1) toward a patient-specific baseline) and
//! cross-correlated (SpO₂ falls as the P/F ratio falls, heart rate rises
//! under hypoxia). The generator builds such series, derives a
//! Berlin-definition-style ARDS label (P/F ratio < 300 mmHg sustained),
//! and produces imputation tasks by masking observed values.

use tensor::{Rng, Tensor};

/// Feature indices of the generated series.
pub const HEART_RATE: usize = 0;
pub const SPO2: usize = 1;
pub const RESP_RATE: usize = 2;
pub const MAP_BP: usize = 3;
pub const PF_RATIO: usize = 4;
/// Number of vital-sign features.
pub const FEATURES: usize = 5;

/// Configuration for the ICU series generator.
#[derive(Debug, Clone)]
pub struct IcuConfig {
    /// Time steps per patient (hourly charting).
    pub steps: usize,
    /// Fraction of entries missing completely at random.
    pub missing_rate: f64,
    /// Fraction of ARDS patients.
    pub ards_rate: f64,
    /// Measurement noise scale (in normalised units).
    pub noise: f32,
}

impl Default for IcuConfig {
    fn default() -> Self {
        IcuConfig {
            steps: 48,
            missing_rate: 0.15,
            ards_rate: 0.3,
            noise: 0.05,
        }
    }
}

/// One generated cohort.
#[derive(Debug, Clone)]
pub struct IcuCohort {
    /// Complete (ground-truth) series, `(n, steps, FEATURES)`, normalised
    /// to roughly unit scale.
    pub truth: Tensor,
    /// Observation mask, `(n, steps, FEATURES)`: 1 = charted, 0 = missing.
    pub observed: Tensor,
    /// ARDS onset label per patient (1.0 / 0.0).
    pub ards: Tensor,
}

/// Per-feature (baseline, reversion speed, coupling-to-severity) in
/// normalised units.
const DYNAMICS: [(f32, f32, f32); FEATURES] = [
    (0.0, 0.25, 0.8),  // heart rate rises with severity
    (0.8, 0.35, -1.2), // SpO2 falls
    (0.0, 0.30, 0.7),  // respiratory rate rises
    (0.2, 0.20, -0.5), // mean arterial pressure falls
    (1.0, 0.15, -1.5), // P/F ratio falls (the Berlin criterion)
];

/// Generates a cohort of `n` patients.
pub fn generate(n: usize, cfg: &IcuConfig, seed: u64) -> IcuCohort {
    let mut rng = Rng::seed(seed);
    let t = cfg.steps;
    let mut truth = Vec::with_capacity(n * t * FEATURES);
    let mut observed = Vec::with_capacity(n * t * FEATURES);
    let mut ards = Vec::with_capacity(n);

    for _ in 0..n {
        let is_ards = rng.chance(cfg.ards_rate);
        ards.push(if is_ards { 1.0 } else { 0.0 });
        // Severity trajectory: healthy stays near 0; ARDS ramps up after a
        // random onset time.
        let onset = (t / 4) + rng.below(t / 2);
        let mut severity = vec![0.0f32; t];
        if is_ards {
            for (tt, s) in severity.iter_mut().enumerate() {
                if tt >= onset {
                    *s = (1.0 - tensor::math::exp(-((tt - onset) as f32) / 6.0)).min(1.0);
                }
            }
        }
        // Patient-specific baselines.
        let baselines: Vec<f32> = DYNAMICS
            .iter()
            .map(|(b, _, _)| b + rng.normal() * 0.1)
            .collect();
        // AR(1) mean reversion toward severity-shifted baseline.
        let mut state: Vec<f32> = baselines.clone();
        for &sev in &severity {
            for (f, &(_, speed, coupling)) in DYNAMICS.iter().enumerate() {
                let target = baselines[f] + coupling * sev;
                state[f] += speed * (target - state[f]) + rng.normal() * cfg.noise;
                truth.push(state[f]);
                // Missingness: MCAR plus occasional charting gaps (a whole
                // step missing).
                let gap = rng.chance(0.03);
                let miss = gap || rng.chance(cfg.missing_rate);
                observed.push(if miss { 0.0 } else { 1.0 });
            }
        }
    }

    IcuCohort {
        truth: Tensor::from_vec(truth, &[n, t, FEATURES]),
        observed: Tensor::from_vec(observed, &[n, t, FEATURES]),
        ards: Tensor::from_vec(ards, &[n]),
    }
}

/// An imputation task for one target feature: inputs carry the observed
/// values (zero-filled where missing) of all features *plus* the
/// missingness indicators, targets are the ground truth of the target
/// feature, and `eval_mask` marks the artificially-hidden positions on
/// which MAE is scored.
#[derive(Debug, Clone)]
pub struct ImputationTask {
    /// `(n, steps, 2·FEATURES)` — values and indicator channels.
    pub inputs: Tensor,
    /// `(n, steps, 1)` ground truth of the target feature.
    pub targets: Tensor,
    /// `(n, steps, 1)` — 1 where the model is scored.
    pub eval_mask: Tensor,
}

/// Builds an imputation task from a cohort by additionally hiding
/// `hide_rate` of the *observed* entries of `target_feature`.
pub fn imputation_task(
    cohort: &IcuCohort,
    target_feature: usize,
    hide_rate: f64,
    seed: u64,
) -> ImputationTask {
    assert!(target_feature < FEATURES);
    let mut rng = Rng::seed(seed);
    let shape = cohort.truth.shape();
    let (n, t) = (shape[0], shape[1]);

    let mut inputs = Vec::with_capacity(n * t * 2 * FEATURES);
    let mut targets = Vec::with_capacity(n * t);
    let mut eval_mask = Vec::with_capacity(n * t);

    for i in 0..n {
        for tt in 0..t {
            let base = (i * t + tt) * FEATURES;
            // First decide per-feature visibility for this step.
            let mut vis = [false; FEATURES];
            let mut hidden_target = false;
            for (f, v) in vis.iter_mut().enumerate() {
                let obs = cohort.observed.data()[base + f] != 0.0;
                let hide = f == target_feature && obs && rng.chance(hide_rate);
                *v = obs && !hide;
                if hide {
                    hidden_target = true;
                }
            }
            for (f, &v) in vis.iter().enumerate() {
                inputs.push(if v {
                    cohort.truth.data()[base + f]
                } else {
                    0.0
                });
            }
            for v in vis {
                inputs.push(if v { 1.0 } else { 0.0 });
            }
            targets.push(cohort.truth.data()[base + target_feature]);
            eval_mask.push(if hidden_target { 1.0 } else { 0.0 });
        }
    }

    ImputationTask {
        inputs: Tensor::from_vec(inputs, &[n, t, 2 * FEATURES]),
        targets: Tensor::from_vec(targets, &[n, t, 1]),
        eval_mask: Tensor::from_vec(eval_mask, &[n, t, 1]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_and_determinism() {
        let cfg = IcuConfig::default();
        let a = generate(10, &cfg, 3);
        assert_eq!(a.truth.shape(), &[10, 48, FEATURES]);
        assert_eq!(a.observed.shape(), &[10, 48, FEATURES]);
        assert_eq!(a.ards.numel(), 10);
        let b = generate(10, &cfg, 3);
        assert_eq!(a.truth, b.truth);
    }

    #[test]
    fn ards_patients_have_lower_final_pf_ratio() {
        let cfg = IcuConfig {
            ards_rate: 0.5,
            ..Default::default()
        };
        let c = generate(200, &cfg, 11);
        let t = cfg.steps;
        let (mut pf_ards, mut n_ards) = (0.0f32, 0);
        let (mut pf_ok, mut n_ok) = (0.0f32, 0);
        for i in 0..200 {
            let pf = c.truth.data()[(i * t + t - 1) * FEATURES + PF_RATIO];
            if c.ards.data()[i] == 1.0 {
                pf_ards += pf;
                n_ards += 1;
            } else {
                pf_ok += pf;
                n_ok += 1;
            }
        }
        let (ma, mo) = (pf_ards / n_ards as f32, pf_ok / n_ok as f32);
        assert!(
            ma < mo - 0.5,
            "ARDS P/F should drop markedly: ards={ma} vs ok={mo}"
        );
    }

    #[test]
    fn missingness_rate_close_to_config() {
        let cfg = IcuConfig {
            missing_rate: 0.2,
            ..Default::default()
        };
        let c = generate(100, &cfg, 5);
        let observed_frac = c.observed.mean();
        // 0.2 MCAR + ~0.03 gap ⇒ observed ≈ 0.78
        assert!((observed_frac - 0.78).abs() < 0.02, "observed {observed_frac}");
    }

    #[test]
    fn vitals_are_mean_reverting() {
        // Lag-1 autocorrelation of a healthy patient's HR must be high
        // (homeostasis) — this is the signal the GRU exploits.
        let cfg = IcuConfig {
            ards_rate: 0.0,
            steps: 200,
            ..Default::default()
        };
        let c = generate(5, &cfg, 8);
        let t = cfg.steps;
        let series: Vec<f32> = (0..t)
            .map(|tt| c.truth.data()[tt * FEATURES + HEART_RATE])
            .collect();
        let mean = series.iter().sum::<f32>() / t as f32;
        let var: f32 = series.iter().map(|v| (v - mean).powi(2)).sum();
        let cov: f32 = series
            .windows(2)
            .map(|w| (w[0] - mean) * (w[1] - mean))
            .sum();
        let rho = cov / var;
        assert!(rho > 0.4, "lag-1 autocorrelation too low: {rho}");
    }

    #[test]
    fn imputation_task_hides_only_observed_target_entries() {
        let cfg = IcuConfig::default();
        let c = generate(20, &cfg, 9);
        let task = imputation_task(&c, SPO2, 0.3, 77);
        assert_eq!(task.inputs.shape(), &[20, 48, 2 * FEATURES]);
        assert_eq!(task.targets.shape(), &[20, 48, 1]);
        let hidden = task.eval_mask.sum();
        assert!(hidden > 0.0, "some entries must be hidden");
        // Where eval_mask=1 the input value channel of SPO2 must be 0 and
        // its indicator 0 (model can't see it).
        for i in 0..20 {
            for tt in 0..48 {
                if task.eval_mask.at(&[i, tt, 0]) == 1.0 {
                    assert_eq!(task.inputs.at(&[i, tt, SPO2]), 0.0);
                    assert_eq!(task.inputs.at(&[i, tt, FEATURES + SPO2]), 0.0);
                }
            }
        }
    }
}
