//! Gradient-boosted decision trees for binary classification.
//!
//! The paper's related work (Le et al.) predicts ARDS onset from
//! MIMIC-III with a gradient-boosted tree model; this is that algorithm:
//! logistic loss, regression trees fit to residuals, Newton leaf values,
//! shrinkage. Split search is feature-parallel on rayon (boosting itself
//! is inherently sequential).

use rayon::prelude::*;

/// GBDT hyper-parameters.
#[derive(Debug, Clone)]
pub struct GbdtConfig {
    pub rounds: usize,
    pub max_depth: usize,
    /// Shrinkage (learning rate).
    pub eta: f64,
    /// Minimum samples in a leaf.
    pub min_leaf: usize,
}

impl Default for GbdtConfig {
    fn default() -> Self {
        GbdtConfig {
            rounds: 40,
            max_depth: 3,
            eta: 0.2,
            min_leaf: 4,
        }
    }
}

#[derive(Debug, Clone)]
enum Node {
    Leaf {
        value: f64,
    },
    Split {
        feature: usize,
        threshold: f32,
        left: Box<Node>,
        right: Box<Node>,
    },
}

impl Node {
    fn predict(&self, x: &[f32]) -> f64 {
        match self {
            Node::Leaf { value } => *value,
            Node::Split {
                feature,
                threshold,
                left,
                right,
            } => {
                if x[*feature] <= *threshold {
                    left.predict(x)
                } else {
                    right.predict(x)
                }
            }
        }
    }
}

fn sigmoid(z: f64) -> f64 {
    1.0 / (1.0 + (-z).exp())
}

/// Newton leaf value for logistic loss: Σg / Σh with g = y − p, h = p(1−p).
fn leaf_value(idx: &[usize], grad: &[f64], hess: &[f64]) -> f64 {
    let g: f64 = idx.iter().map(|&i| grad[i]).sum();
    let h: f64 = idx.iter().map(|&i| hess[i]).sum();
    g / (h + 1e-9)
}

fn build_tree(
    xs: &[Vec<f32>],
    grad: &[f64],
    hess: &[f64],
    idx: &[usize],
    depth: usize,
    cfg: &GbdtConfig,
) -> Node {
    if depth >= cfg.max_depth || idx.len() < 2 * cfg.min_leaf {
        return Node::Leaf {
            value: leaf_value(idx, grad, hess),
        };
    }
    let d = xs[0].len();
    // Gain = GL²/HL + GR²/HR − G²/H (xgboost-style, λ = 0).
    let g_tot: f64 = idx.iter().map(|&i| grad[i]).sum();
    let h_tot: f64 = idx.iter().map(|&i| hess[i]).sum();
    let parent_score = g_tot * g_tot / (h_tot + 1e-9);

    let best = (0..d)
        .into_par_iter()
        .filter_map(|f| {
            // Sort this feature's values within the node.
            let mut order: Vec<usize> = idx.to_vec();
            order.sort_by(|&a, &b| xs[a][f].total_cmp(&xs[b][f]));
            let mut gl = 0.0f64;
            let mut hl = 0.0f64;
            let mut best: Option<(f64, f32)> = None;
            for w in 0..order.len() - 1 {
                let i = order[w];
                gl += grad[i];
                hl += hess[i];
                // No split between equal values.
                if xs[order[w]][f] == xs[order[w + 1]][f] {
                    continue;
                }
                let (n_l, n_r) = (w + 1, order.len() - w - 1);
                if n_l < cfg.min_leaf || n_r < cfg.min_leaf {
                    continue;
                }
                let (gr, hr) = (g_tot - gl, h_tot - hl);
                let gain =
                    gl * gl / (hl + 1e-9) + gr * gr / (hr + 1e-9) - parent_score;
                let thr = (xs[order[w]][f] + xs[order[w + 1]][f]) / 2.0;
                if best.is_none_or(|(bg, _)| gain > bg) {
                    best = Some((gain, thr));
                }
            }
            best.map(|(gain, thr)| (gain, f, thr))
        })
        .max_by(|a, b| a.0.total_cmp(&b.0));

    let Some((gain, feature, threshold)) = best else {
        return Node::Leaf {
            value: leaf_value(idx, grad, hess),
        };
    };
    if gain <= 1e-12 {
        return Node::Leaf {
            value: leaf_value(idx, grad, hess),
        };
    }
    let (li, ri): (Vec<usize>, Vec<usize>) =
        idx.iter().partition(|&&i| xs[i][feature] <= threshold);
    Node::Split {
        feature,
        threshold,
        left: Box::new(build_tree(xs, grad, hess, &li, depth + 1, cfg)),
        right: Box::new(build_tree(xs, grad, hess, &ri, depth + 1, cfg)),
    }
}

/// A trained gradient-boosted model for binary classification.
#[derive(Debug, Clone)]
pub struct Gbdt {
    base: f64,
    trees: Vec<Node>,
    eta: f64,
    /// Training log-loss after each round.
    pub train_curve: Vec<f64>,
}

impl Gbdt {
    /// Trains on `xs` with binary `labels` (0/1).
    pub fn train(xs: &[Vec<f32>], labels: &[u8], cfg: &GbdtConfig) -> Gbdt {
        assert_eq!(xs.len(), labels.len());
        assert!(!xs.is_empty());
        assert!(labels.iter().all(|&l| l <= 1), "labels must be 0/1");
        let n = xs.len();
        let pos: f64 = labels.iter().map(|&l| l as f64).sum();
        let prior = (pos / n as f64).clamp(1e-6, 1.0 - 1e-6);
        let base = (prior / (1.0 - prior)).ln();

        let mut scores = vec![base; n];
        let mut trees = Vec::with_capacity(cfg.rounds);
        let mut train_curve = Vec::with_capacity(cfg.rounds);
        let all: Vec<usize> = (0..n).collect();

        for _ in 0..cfg.rounds {
            let probs: Vec<f64> = scores.iter().map(|&s| sigmoid(s)).collect();
            let grad: Vec<f64> = labels
                .iter()
                .zip(&probs)
                .map(|(&y, &p)| y as f64 - p)
                .collect();
            let hess: Vec<f64> = probs.iter().map(|&p| (p * (1.0 - p)).max(1e-9)).collect();
            let tree = build_tree(xs, &grad, &hess, &all, 0, cfg);
            for (s, x) in scores.iter_mut().zip(xs) {
                *s += cfg.eta * tree.predict(x);
            }
            trees.push(tree);
            // Log-loss for the curve.
            let ll: f64 = labels
                .iter()
                .zip(&scores)
                .map(|(&y, &s)| {
                    let p = sigmoid(s).clamp(1e-12, 1.0 - 1e-12);
                    if y == 1 {
                        -p.ln()
                    } else {
                        -(1.0 - p).ln()
                    }
                })
                .sum::<f64>()
                / n as f64;
            train_curve.push(ll);
        }
        Gbdt {
            base,
            trees,
            eta: cfg.eta,
            train_curve,
        }
    }

    /// Predicted probability of class 1.
    pub fn predict_proba(&self, x: &[f32]) -> f64 {
        let s = self.base
            + self.eta * self.trees.iter().map(|t| t.predict(x)).sum::<f64>();
        sigmoid(s)
    }

    /// Predicted label at the 0.5 threshold.
    pub fn predict(&self, x: &[f32]) -> u8 {
        u8::from(self.predict_proba(x) >= 0.5)
    }

    /// Accuracy over a labelled set (parallel).
    pub fn accuracy(&self, xs: &[Vec<f32>], labels: &[u8]) -> f64 {
        let correct = xs
            .par_iter()
            .zip(labels.par_iter())
            .filter(|(x, &y)| self.predict(x) == y)
            .count();
        correct as f64 / xs.len().max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tensor::Rng;

    fn moons(n: usize, seed: u64) -> (Vec<Vec<f32>>, Vec<u8>) {
        // Two interleaving half-circles — not linearly separable.
        let mut rng = Rng::seed(seed);
        let mut xs = Vec::with_capacity(n);
        let mut ys = Vec::with_capacity(n);
        for _ in 0..n {
            let y = u8::from(rng.chance(0.5));
            let t = rng.uniform(0.0, std::f32::consts::PI);
            let (cx, cy, flip) = if y == 1 {
                (0.5, -0.25, -1.0)
            } else {
                (0.0, 0.0, 1.0)
            };
            xs.push(vec![
                cx + t.cos() + rng.normal() * 0.1,
                cy + flip * t.sin() + rng.normal() * 0.1,
            ]);
            ys.push(y);
        }
        (xs, ys)
    }

    #[test]
    fn gbdt_learns_nonlinear_boundary() {
        let (xs, ys) = moons(400, 1);
        let (tx, ty) = moons(200, 2);
        let model = Gbdt::train(&xs, &ys, &GbdtConfig::default());
        let acc = model.accuracy(&tx, &ty);
        assert!(acc > 0.93, "moons accuracy {acc}");
    }

    #[test]
    fn training_loss_decreases_monotonically() {
        let (xs, ys) = moons(200, 3);
        let model = Gbdt::train(&xs, &ys, &GbdtConfig::default());
        for w in model.train_curve.windows(2) {
            assert!(w[1] <= w[0] + 1e-9, "loss went up: {w:?}");
        }
    }

    #[test]
    fn more_rounds_help_up_to_saturation() {
        let (xs, ys) = moons(300, 4);
        let (tx, ty) = moons(200, 5);
        let short = Gbdt::train(
            &xs,
            &ys,
            &GbdtConfig {
                rounds: 3,
                ..Default::default()
            },
        );
        let long = Gbdt::train(
            &xs,
            &ys,
            &GbdtConfig {
                rounds: 60,
                ..Default::default()
            },
        );
        assert_eq!(long.trees.len(), 60);
        assert!(long.accuracy(&tx, &ty) >= short.accuracy(&tx, &ty) - 0.01);
    }

    #[test]
    fn skewed_prior_is_respected() {
        // 90/10 class balance with useless features: predictions follow
        // the prior.
        let mut rng = Rng::seed(6);
        let xs: Vec<Vec<f32>> = (0..200).map(|_| vec![rng.normal()]).collect();
        let ys: Vec<u8> = (0..200).map(|i| u8::from(i % 10 == 0)).collect();
        let model = Gbdt::train(
            &xs,
            &ys,
            &GbdtConfig {
                rounds: 2,
                ..Default::default()
            },
        );
        let mean_p: f64 = xs.iter().map(|x| model.predict_proba(x)).sum::<f64>() / 200.0;
        assert!((mean_p - 0.1).abs() < 0.05, "mean prob {mean_p}");
    }

    #[test]
    fn deterministic() {
        let (xs, ys) = moons(150, 7);
        let a = Gbdt::train(&xs, &ys, &GbdtConfig::default());
        let b = Gbdt::train(&xs, &ys, &GbdtConfig::default());
        for (x, _) in xs.iter().zip(&ys) {
            assert_eq!(a.predict_proba(x), b.predict_proba(x));
        }
    }

    #[test]
    #[should_panic(expected = "labels must be 0/1")]
    fn bad_labels_rejected() {
        let _ = Gbdt::train(&[vec![0.0]], &[2], &GbdtConfig::default());
    }
}
