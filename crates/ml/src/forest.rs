//! Random forest classifier.
//!
//! The paper's DAM case study runs Spark MLlib's random-forest classifier
//! over RS features; this is the same algorithm — CART trees on bootstrap
//! samples with per-split feature subsampling — with the trees trained in
//! parallel on rayon.

use rayon::prelude::*;
use tensor::Rng;

/// Forest hyper-parameters.
#[derive(Debug, Clone)]
pub struct RandomForestConfig {
    pub n_trees: usize,
    pub max_depth: usize,
    /// Minimum samples to attempt a split.
    pub min_split: usize,
    /// Features tried per split; 0 = √d.
    pub max_features: usize,
    pub seed: u64,
}

impl Default for RandomForestConfig {
    fn default() -> Self {
        RandomForestConfig {
            n_trees: 25,
            max_depth: 8,
            min_split: 4,
            max_features: 0,
            seed: 99,
        }
    }
}

#[derive(Debug, Clone)]
enum Node {
    Leaf {
        class: usize,
    },
    Split {
        feature: usize,
        threshold: f32,
        left: Box<Node>,
        right: Box<Node>,
    },
}

impl Node {
    fn predict(&self, x: &[f32]) -> usize {
        match self {
            Node::Leaf { class } => *class,
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

/// A trained random forest (majority vote over trees).
#[derive(Debug, Clone)]
pub struct RandomForest {
    trees: Vec<Node>,
    classes: usize,
}

fn gini(counts: &[usize]) -> f64 {
    let total: usize = counts.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let t = total as f64;
    1.0 - counts
        .iter()
        .map(|&c| {
            let p = c as f64 / t;
            p * p
        })
        .sum::<f64>()
}

fn majority(labels: &[usize], idx: &[usize], classes: usize) -> usize {
    let mut counts = vec![0usize; classes];
    for &i in idx {
        counts[labels[i]] += 1;
    }
    counts
        .iter()
        .enumerate()
        .max_by_key(|(_, &c)| c)
        .map(|(k, _)| k)
        .unwrap_or(0)
}

#[allow(clippy::too_many_arguments)]
fn build_tree(
    xs: &[Vec<f32>],
    labels: &[usize],
    idx: &[usize],
    classes: usize,
    depth: usize,
    cfg: &RandomForestConfig,
    rng: &mut Rng,
) -> Node {
    let first = labels[idx[0]];
    if depth >= cfg.max_depth
        || idx.len() < cfg.min_split
        || idx.iter().all(|&i| labels[i] == first)
    {
        return Node::Leaf {
            class: majority(labels, idx, classes),
        };
    }

    let d = xs[0].len();
    let n_feats = if cfg.max_features == 0 {
        (d as f64).sqrt().ceil() as usize
    } else {
        cfg.max_features.min(d)
    };
    // Sample features without replacement.
    let perm = rng.permutation(d);
    let feats = &perm[..n_feats];

    let mut best: Option<(usize, f32, f64)> = None; // (feature, threshold, impurity)
    for &f in feats {
        // Candidate thresholds: quantile-ish cuts over the index set.
        let mut vals: Vec<f32> = idx.iter().map(|&i| xs[i][f]).collect();
        vals.sort_by(f32::total_cmp);
        vals.dedup();
        if vals.len() < 2 {
            continue;
        }
        let step = (vals.len() / 8).max(1);
        for w in vals.windows(2).step_by(step) {
            let thr = (w[0] + w[1]) / 2.0;
            let mut lc = vec![0usize; classes];
            let mut rc = vec![0usize; classes];
            for &i in idx {
                if xs[i][f] <= thr {
                    lc[labels[i]] += 1;
                } else {
                    rc[labels[i]] += 1;
                }
            }
            let (ln, rn): (usize, usize) = (lc.iter().sum(), rc.iter().sum());
            if ln == 0 || rn == 0 {
                continue;
            }
            let imp = (ln as f64 * gini(&lc) + rn as f64 * gini(&rc)) / idx.len() as f64;
            if best.is_none_or(|(_, _, b)| imp < b) {
                best = Some((f, thr, imp));
            }
        }
    }

    let Some((f, thr, _)) = best else {
        return Node::Leaf {
            class: majority(labels, idx, classes),
        };
    };
    let (li, ri): (Vec<usize>, Vec<usize>) = idx.iter().partition(|&&i| xs[i][f] <= thr);
    if li.is_empty() || ri.is_empty() {
        return Node::Leaf {
            class: majority(labels, idx, classes),
        };
    }
    Node::Split {
        feature: f,
        threshold: thr,
        left: Box::new(build_tree(xs, labels, &li, classes, depth + 1, cfg, rng)),
        right: Box::new(build_tree(xs, labels, &ri, classes, depth + 1, cfg, rng)),
    }
}

impl RandomForest {
    /// Trains on `xs` with integer class `labels`; trees run in parallel.
    pub fn train(xs: &[Vec<f32>], labels: &[usize], cfg: &RandomForestConfig) -> RandomForest {
        assert_eq!(xs.len(), labels.len());
        assert!(!xs.is_empty());
        let classes = labels.iter().copied().max().map_or(0, |m| m + 1);
        let n = xs.len();
        let trees: Vec<Node> = (0..cfg.n_trees)
            .into_par_iter()
            .map(|t| {
                let mut rng = Rng::seed(cfg.seed ^ ((t as u64 + 1) * 0x9E37_79B9));
                // Bootstrap sample.
                let idx: Vec<usize> = (0..n).map(|_| rng.below(n)).collect();
                build_tree(xs, labels, &idx, classes, 0, cfg, &mut rng)
            })
            .collect();
        RandomForest { trees, classes }
    }

    /// Majority-vote prediction.
    pub fn predict(&self, x: &[f32]) -> usize {
        let mut votes = vec![0usize; self.classes];
        for t in &self.trees {
            votes[t.predict(x)] += 1;
        }
        votes
            .iter()
            .enumerate()
            .max_by_key(|(_, &v)| v)
            .map(|(k, _)| k)
            .unwrap_or(0)
    }

    /// Batch predictions in parallel.
    pub fn predict_batch(&self, xs: &[Vec<f32>]) -> Vec<usize> {
        xs.par_iter().map(|x| self.predict(x)).collect()
    }

    /// Accuracy on a labelled set.
    pub fn accuracy(&self, xs: &[Vec<f32>], labels: &[usize]) -> f64 {
        let preds = self.predict_batch(xs);
        preds
            .iter()
            .zip(labels)
            .filter(|(p, l)| p == l)
            .count() as f64
            / xs.len().max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn depth(node: &Node) -> usize {
        match node {
            Node::Leaf { .. } => 0,
            Node::Split { left, right, .. } => 1 + depth(left).max(depth(right)),
        }
    }

    fn rings(n: usize, seed: u64) -> (Vec<Vec<f32>>, Vec<usize>) {
        // Class 0: inner disc; class 1: annulus — not linearly separable.
        let mut rng = Rng::seed(seed);
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for _ in 0..n {
            let cls = rng.below(2);
            let r = if cls == 0 {
                rng.uniform(0.0, 1.0)
            } else {
                rng.uniform(1.8, 3.0)
            };
            let th = rng.uniform(0.0, std::f32::consts::TAU);
            xs.push(vec![r * th.cos(), r * th.sin()]);
            ys.push(cls);
        }
        (xs, ys)
    }

    #[test]
    fn forest_learns_nonlinear_boundary() {
        let (xs, ys) = rings(300, 1);
        let (tx, ty) = rings(150, 2);
        let rf = RandomForest::train(&xs, &ys, &RandomForestConfig::default());
        let acc = rf.accuracy(&tx, &ty);
        assert!(acc > 0.9, "rings accuracy {acc}");
    }

    #[test]
    fn deterministic_given_seed() {
        let (xs, ys) = rings(100, 3);
        let cfg = RandomForestConfig::default();
        let a = RandomForest::train(&xs, &ys, &cfg);
        let b = RandomForest::train(&xs, &ys, &cfg);
        let px: Vec<usize> = xs.iter().map(|x| a.predict(x)).collect();
        let py: Vec<usize> = xs.iter().map(|x| b.predict(x)).collect();
        assert_eq!(px, py);
    }

    #[test]
    fn depth_limit_respected() {
        let (xs, ys) = rings(200, 4);
        let cfg = RandomForestConfig {
            max_depth: 3,
            ..Default::default()
        };
        let rf = RandomForest::train(&xs, &ys, &cfg);
        assert!(rf.trees.iter().all(|t| depth(t) <= 3));
    }

    #[test]
    fn more_trees_do_not_hurt() {
        let (xs, ys) = rings(250, 5);
        let (tx, ty) = rings(150, 6);
        let small = RandomForest::train(
            &xs,
            &ys,
            &RandomForestConfig {
                n_trees: 1,
                ..Default::default()
            },
        );
        let big = RandomForest::train(
            &xs,
            &ys,
            &RandomForestConfig {
                n_trees: 40,
                ..Default::default()
            },
        );
        assert_eq!(big.trees.len(), 40);
        assert!(big.accuracy(&tx, &ty) >= small.accuracy(&tx, &ty) - 0.02);
    }

    #[test]
    fn multiclass_works() {
        let mut rng = Rng::seed(7);
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for _ in 0..300 {
            let c = rng.below(4);
            xs.push(vec![
                c as f32 + rng.normal() * 0.2,
                (c % 2) as f32 + rng.normal() * 0.2,
            ]);
            ys.push(c);
        }
        let rf = RandomForest::train(&xs, &ys, &RandomForestConfig::default());
        assert!(rf.accuracy(&xs, &ys) > 0.9);
    }
}
