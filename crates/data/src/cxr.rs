//! COVIDx-style synthetic chest radiographs.
//!
//! COVID-Net distinguishes normal / (non-COVID) pneumonia / COVID-19 from
//! chest X-rays; the radiological signal is the pattern of opacities:
//! pneumonia typically presents as a focal consolidation, COVID-19 as
//! bilateral diffuse ground-glass opacities. The generator builds a
//! lung-field template and injects those opacity patterns.

use crate::Dataset;
use tensor::{Rng, Tensor};

/// Class labels.
pub const NORMAL: usize = 0;
pub const PNEUMONIA: usize = 1;
pub const COVID: usize = 2;

/// Configuration for the chest X-ray generator.
#[derive(Debug, Clone)]
pub struct CxrConfig {
    /// Image side length (square, single channel).
    pub size: usize,
    /// Pixel noise.
    pub noise: f32,
}

impl Default for CxrConfig {
    fn default() -> Self {
        CxrConfig {
            size: 32,
            noise: 0.15,
        }
    }
}

fn gaussian_blob(img: &mut [f32], s: usize, cx: f32, cy: f32, sigma: f32, amp: f32) {
    for y in 0..s {
        for x in 0..s {
            let d2 = (x as f32 - cx).powi(2) + (y as f32 - cy).powi(2);
            img[y * s + x] += amp * tensor::math::exp(-d2 / (2.0 * sigma * sigma));
        }
    }
}

/// Generates one image of the given class.
fn generate_one(class: usize, s: usize, noise: f32, rng: &mut Rng) -> Vec<f32> {
    let mut img = vec![0.0f32; s * s];
    // Lung fields: two dark elliptical regions on a brighter mediastinum.
    let (lx, rx) = (s as f32 * 0.3, s as f32 * 0.7);
    let cy = s as f32 * 0.5;
    for y in 0..s {
        for x in 0..s {
            // Body background brightness with vertical gradient.
            let mut v = 0.8 - 0.2 * (y as f32 / s as f32);
            let dl = ((x as f32 - lx) / (s as f32 * 0.18)).powi(2)
                + ((y as f32 - cy) / (s as f32 * 0.32)).powi(2);
            let dr = ((x as f32 - rx) / (s as f32 * 0.18)).powi(2)
                + ((y as f32 - cy) / (s as f32 * 0.32)).powi(2);
            if dl < 1.0 || dr < 1.0 {
                v -= 0.5; // air is radiolucent
            }
            img[y * s + x] = v;
        }
    }
    match class {
        NORMAL => {}
        PNEUMONIA => {
            // One focal consolidation in a random lung.
            let cx = if rng.chance(0.5) { lx } else { rx } + rng.uniform(-2.0, 2.0);
            let cyy = cy + rng.uniform(-4.0, 4.0);
            gaussian_blob(&mut img, s, cx, cyy, s as f32 * 0.08, 0.55);
        }
        COVID => {
            // Several diffuse, peripheral, *bilateral* ground-glass
            // opacities of lower amplitude.
            for &cx in &[lx, rx] {
                let k = 2 + rng.below(2);
                for _ in 0..k {
                    let px = cx + rng.uniform(-3.5, 3.5);
                    let py = cy + rng.uniform(-8.0, 8.0);
                    gaussian_blob(&mut img, s, px, py, s as f32 * 0.1, 0.22);
                }
            }
        }
        _ => panic!("unknown class {class}"),
    }
    for v in img.iter_mut() {
        *v += rng.normal() * noise;
    }
    img
}

/// Generates `n` labelled images: `x: (n, 1, size, size)`, labels 0/1/2.
pub fn generate(n: usize, cfg: &CxrConfig, seed: u64) -> Dataset {
    let mut rng = Rng::seed(seed);
    let s = cfg.size;
    let mut x = Vec::with_capacity(n * s * s);
    let mut y = Vec::with_capacity(n);
    for _ in 0..n {
        let class = rng.below(3);
        y.push(class as f32);
        x.extend(generate_one(class, s, cfg.noise, &mut rng));
    }
    Dataset {
        x: Tensor::from_vec(x, &[n, 1, s, s]),
        y: Tensor::from_vec(y, &[n]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_and_determinism() {
        let cfg = CxrConfig::default();
        let a = generate(16, &cfg, 4);
        assert_eq!(a.x.shape(), &[16, 1, 32, 32]);
        let b = generate(16, &cfg, 4);
        assert_eq!(a.x, b.x);
    }

    #[test]
    fn pneumonia_brightens_one_lung_covid_both() {
        let cfg = CxrConfig {
            size: 32,
            noise: 0.0,
        };
        let mut rng = Rng::seed(1);
        let s = cfg.size;
        // Average lung-region brightness per class over several samples.
        let lung_mean = |img: &[f32], left: bool| -> f32 {
            let cx = if left { 9 } else { 22 };
            let mut sum = 0.0;
            let mut cnt = 0;
            for y in 8..24 {
                for x in (cx - 3)..(cx + 4) {
                    sum += img[y * s + x];
                    cnt += 1;
                }
            }
            sum / cnt as f32
        };
        let mut norm = (0.0, 0.0);
        let mut covid = (0.0, 0.0);
        let k = 20;
        for _ in 0..k {
            let n = generate_one(NORMAL, s, 0.0, &mut rng);
            let c = generate_one(COVID, s, 0.0, &mut rng);
            norm.0 += lung_mean(&n, true) / k as f32;
            norm.1 += lung_mean(&n, false) / k as f32;
            covid.0 += lung_mean(&c, true) / k as f32;
            covid.1 += lung_mean(&c, false) / k as f32;
        }
        assert!(covid.0 > norm.0 + 0.03, "left lung should opacify");
        assert!(covid.1 > norm.1 + 0.03, "right lung should opacify");

        // Pneumonia: exactly one lung opacifies per image.
        let p = generate_one(PNEUMONIA, s, 0.0, &mut rng);
        let (pl, pr) = (lung_mean(&p, true), lung_mean(&p, false));
        let n = generate_one(NORMAL, s, 0.0, &mut rng);
        let (nl, nr) = (lung_mean(&n, true), lung_mean(&n, false));
        let bumped = usize::from(pl > nl + 0.05) + usize::from(pr > nr + 0.05);
        assert_eq!(bumped, 1, "pneumonia should be focal: {pl} {pr} vs {nl} {nr}");
    }

    #[test]
    fn all_three_classes_generated() {
        let ds = generate(60, &CxrConfig::default(), 2);
        let mut seen = [false; 3];
        for &l in ds.y.data() {
            seen[l as usize] = true;
        }
        assert!(seen.iter().all(|&b| b));
    }
}
