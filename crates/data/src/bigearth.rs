//! BigEarthNet-style synthetic multispectral patches.
//!
//! BigEarthNet (Sumbul et al. 2019) is 590k Sentinel-2 patches over 10+
//! bands labelled with CORINE land-cover classes. The property the
//! RESNET-50 study exploits is that land-cover classes differ in (a)
//! per-band spectral signature (water is dark in NIR, vegetation bright)
//! and (b) spatial texture (urban is high-frequency, agriculture is
//! smooth with field boundaries). This generator synthesises both.

use crate::Dataset;
use tensor::{Rng, Tensor};

/// Configuration for the generator.
#[derive(Debug, Clone)]
pub struct BigEarthConfig {
    /// Number of spectral bands (Sentinel-2 uses 10 at 10–20 m).
    pub bands: usize,
    /// Patch side length in pixels.
    pub size: usize,
    /// Number of land-cover classes.
    pub classes: usize,
    /// Pixel noise level.
    pub noise: f32,
}

impl Default for BigEarthConfig {
    fn default() -> Self {
        BigEarthConfig {
            bands: 4,
            size: 16,
            classes: 5,
            noise: 0.3,
        }
    }
}

/// Generates `n` patches as a [`Dataset`] with `x: (n, bands, size,
/// size)` and integer class labels in `y`.
pub fn generate(n: usize, cfg: &BigEarthConfig, seed: u64) -> Dataset {
    assert!(cfg.classes >= 2 && cfg.bands >= 1 && cfg.size >= 4);
    let mut rng = Rng::seed(seed);

    // Class spectral signatures: fixed per seed, well separated.
    let mut sig_rng = Rng::seed(seed ^ 0x5157_ECA1);
    let signatures: Vec<Vec<f32>> = (0..cfg.classes)
        .map(|_| (0..cfg.bands).map(|_| sig_rng.uniform(-1.2, 1.2)).collect())
        .collect();
    // Class texture parameters: spatial frequency and orientation.
    let textures: Vec<(f32, f32, f32)> = (0..cfg.classes)
        .map(|_| {
            (
                sig_rng.uniform(0.3, 2.5),  // frequency
                sig_rng.uniform(0.0, std::f32::consts::PI), // orientation
                sig_rng.uniform(0.3, 0.9),  // amplitude
            )
        })
        .collect();

    let s = cfg.size;
    let mut x = Vec::with_capacity(n * cfg.bands * s * s);
    let mut y = Vec::with_capacity(n);
    for _ in 0..n {
        let class = rng.below(cfg.classes);
        y.push(class as f32);
        let (freq, theta, amp) = textures[class];
        let phase = rng.uniform(0.0, std::f32::consts::TAU); // translation invariance
        let (ct, st) = (theta.cos(), theta.sin());
        for (b, &base) in signatures[class].iter().enumerate() {
            // Band-dependent texture gain (texture is stronger in the
            // "visible" low bands, like real imagery).
            let gain = amp / (1.0 + b as f32 * 0.5);
            for yy in 0..s {
                for xx in 0..s {
                    let u = (xx as f32 * ct + yy as f32 * st) * freq * 0.5 + phase;
                    let tex = u.sin() * gain;
                    x.push(base + tex + rng.normal() * cfg.noise);
                }
            }
        }
    }
    Dataset {
        x: Tensor::from_vec(x, &[n, cfg.bands, s, s]),
        y: Tensor::from_vec(y, &[n]),
    }
}

/// Flattened per-pixel-mean features (`(n, bands)`) for the classical-ML
/// experiments (SVM): the spectral signature averaged over the
/// patch, which is exactly what pixel-based RS classifiers consume.
pub fn spectral_features(ds: &Dataset) -> (Vec<Vec<f32>>, Vec<f32>) {
    let shape = ds.x.shape();
    let (n, bands) = (shape[0], shape[1]);
    let pix: usize = shape[2..].iter().product();
    let feats = (0..n)
        .map(|i| {
            (0..bands)
                .map(|b| {
                    let base = (i * bands + b) * pix;
                    ds.x.data()[base..base + pix].iter().sum::<f32>() / pix as f32
                })
                .collect()
        })
        .collect();
    (feats, ds.y.data().to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_and_label_range() {
        let cfg = BigEarthConfig::default();
        let ds = generate(32, &cfg, 7);
        assert_eq!(ds.x.shape(), &[32, 4, 16, 16]);
        assert_eq!(ds.y.numel(), 32);
        for &l in ds.y.data() {
            assert!(l >= 0.0 && l < cfg.classes as f32);
            assert_eq!(l.fract(), 0.0);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = BigEarthConfig::default();
        let a = generate(8, &cfg, 1);
        let b = generate(8, &cfg, 1);
        assert_eq!(a.x, b.x);
        assert_eq!(a.y, b.y);
        let c = generate(8, &cfg, 2);
        assert_ne!(a.x.data(), c.x.data());
    }

    #[test]
    fn classes_are_spectrally_separable() {
        // Per-class mean spectral vectors should differ far more between
        // classes than the pixel noise — otherwise no model could learn.
        let cfg = BigEarthConfig {
            noise: 0.1,
            ..Default::default()
        };
        let ds = generate(300, &cfg, 3);
        let (feats, labels) = spectral_features(&ds);
        let mut means = vec![vec![0.0f32; cfg.bands]; cfg.classes];
        let mut counts = vec![0usize; cfg.classes];
        for (f, &l) in feats.iter().zip(&labels) {
            let c = l as usize;
            counts[c] += 1;
            for (m, v) in means[c].iter_mut().zip(f) {
                *m += v;
            }
        }
        for (m, &c) in means.iter_mut().zip(&counts) {
            for v in m.iter_mut() {
                *v /= c.max(1) as f32;
            }
        }
        let mut min_dist = f32::INFINITY;
        for i in 0..cfg.classes {
            for j in (i + 1)..cfg.classes {
                let d: f32 = means[i]
                    .iter()
                    .zip(&means[j])
                    .map(|(a, b)| (a - b).powi(2))
                    .sum::<f32>()
                    .sqrt();
                min_dist = min_dist.min(d);
            }
        }
        assert!(
            min_dist > 0.3,
            "closest class pair only {min_dist} apart in spectral space"
        );
    }

    #[test]
    fn all_classes_appear() {
        let cfg = BigEarthConfig::default();
        let ds = generate(200, &cfg, 5);
        let mut seen = vec![false; cfg.classes];
        for &l in ds.y.data() {
            seen[l as usize] = true;
        }
        assert!(seen.into_iter().all(|b| b));
    }

    #[test]
    fn spectral_features_have_right_dims() {
        let cfg = BigEarthConfig::default();
        let ds = generate(10, &cfg, 9);
        let (feats, labels) = spectral_features(&ds);
        assert_eq!(feats.len(), 10);
        assert_eq!(feats[0].len(), cfg.bands);
        assert_eq!(labels.len(), 10);
    }
}
