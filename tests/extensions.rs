//! Integration coverage for the extension features: multi-label
//! BigEarthNet + BCE, cross-module co-allocation, interactive sessions,
//! hierarchical allreduce inside a training step, model snapshots through
//! the evaluation path, k-means on spectral features, and compressed
//! gradient training.

use msa_suite::data::bigearth::{self, multilabel_subset_accuracy, BigEarthConfig};
use msa_suite::distrib::{sparse_allreduce_mean, TopKCompressor};
use msa_suite::ml::{kmeans, KMeansConfig, StandardScaler};
use msa_suite::msa_core::system::presets;
use msa_suite::msa_core::SimTime;
use msa_suite::msa_net::{
    hierarchical_allreduce, Communicator, PointToPoint, ThreadComm,
};
use msa_suite::msa_sched::coalloc::{coupled_workflow, schedule_coalloc};
use msa_suite::nn::{models, serialize, Adam, BceWithLogits, Layer, Loss, Optimizer};
use msa_suite::tensor::Rng;

#[test]
fn multilabel_cnn_learns_with_bce() {
    // Real BigEarthNet is multi-label; a CNN + BCE-with-logits must
    // clear the trivial all-negative baseline by a wide margin.
    let cfg = BigEarthConfig {
        bands: 3,
        size: 8,
        classes: 4,
        noise: 0.3,
    };
    let ds = bigearth::generate_multilabel(320, &cfg, 77);
    let (train, test) = ds.split(0.25);

    let mut rng = Rng::seed(5);
    let mut model = models::resnet_mini(3, 4, 8, 1, &mut rng);
    let mut opt = Adam::new(3e-3);
    let mut shuffle = Rng::seed(6);
    for _ in 0..20 {
        for (bx, by) in train.batches(30, &mut shuffle) {
            model.zero_grad();
            let pred = model.forward(&bx, true);
            let (_, grad) = BceWithLogits.compute(&pred, &by);
            model.backward(&grad);
            opt.step(&mut model.params_mut());
        }
    }
    let logits = model.predict(&test.x);
    let acc = multilabel_subset_accuracy(&logits, &test.y);
    // Chance for exact subset match over 4 labels with 1–3 hot is tiny;
    // the all-zeros predictor scores 0.
    assert!(acc > 0.5, "multi-label subset accuracy {acc}");
}

#[test]
fn coallocated_workflows_run_on_deep() {
    let deep = presets::deep();
    let jobs: Vec<_> = (0..4)
        .map(|i| coupled_workflow(i, SimTime::from_secs(i as f64 * 10.0), SimTime::from_secs(60.0)))
        .collect();
    let rep = schedule_coalloc(&deep, &jobs);
    assert_eq!(rep.outcomes.len(), 4);
    assert!(rep.total_energy_kwh > 0.0);
    // 4 workflows × 4 DAM nodes fill the 16-node DAM exactly ⇒ no waits.
    assert!(rep.outcomes.iter().all(|o| o.wait == SimTime::ZERO));
}

#[test]
fn hierarchical_allreduce_works_as_gradient_sync() {
    // Use the two-level collective in place of the flat ring for one
    // gradient step: results must be identical.
    let dim = 64;
    let out = ThreadComm::run(8, |comm| {
        let grad: Vec<f32> = (0..dim).map(|i| (comm.rank() * dim + i) as f32).collect();
        let mut flat = grad.clone();
        comm.allreduce_mean(&mut flat);
        let mut hier = grad;
        hierarchical_allreduce(comm, &mut hier, 4);
        for h in hier.iter_mut() {
            *h /= 8.0;
        }
        (flat, hier)
    });
    for (flat, hier) in out {
        for (a, b) in flat.iter().zip(&hier) {
            assert!((a - b).abs() < 1e-3, "{a} vs {b}");
        }
    }
}

#[test]
fn snapshot_travels_between_modules() {
    // The E12 workflow's "transfer the model" step, for real: train a
    // model, serialise, restore into a fresh process-side replica, and
    // verify identical inference results.
    let cfg = BigEarthConfig {
        bands: 3,
        size: 8,
        classes: 3,
        noise: 0.25,
    };
    let ds = bigearth::generate(80, &cfg, 13);
    let mut rng = Rng::seed(2);
    let mut trainer_side = models::resnet_mini(3, 3, 8, 1, &mut rng);
    let mut opt = Adam::new(5e-3);
    let mut shuffle = Rng::seed(3);
    for (bx, by) in ds.batches(20, &mut shuffle) {
        trainer_side.zero_grad();
        let pred = trainer_side.forward(&bx, true);
        let (_, grad) = msa_suite::nn::SoftmaxCrossEntropy.compute(&pred, &by);
        trainer_side.backward(&grad);
        opt.step(&mut trainer_side.params_mut());
    }
    let wire = serialize::save(&trainer_side);

    let mut rng2 = Rng::seed(999);
    let mut inference_side = models::resnet_mini(3, 3, 8, 1, &mut rng2);
    serialize::load(&mut inference_side, &wire).unwrap();
    let x = ds.x.slice_batch(0, 8);
    assert_eq!(
        trainer_side.predict(&x).data(),
        inference_side.predict(&x).data()
    );
}

#[test]
fn kmeans_recovers_landcover_classes_unsupervised() {
    let cfg = BigEarthConfig {
        bands: 4,
        size: 8,
        classes: 3,
        noise: 0.2,
    };
    let ds = bigearth::generate(300, &cfg, 44);
    let (feats, labels) = bigearth::spectral_features(&ds);
    let (_, scaled) = StandardScaler::fit_transform(&feats);
    let model = kmeans(
        &scaled,
        &KMeansConfig {
            k: 3,
            seed: 9,
            ..Default::default()
        },
    );
    // Cluster purity vs the hidden class labels.
    let mut purity_sum = 0.0;
    let mut counted = 0.0;
    for c in 0..3 {
        let members: Vec<usize> = model
            .assignments
            .iter()
            .zip(&labels)
            .filter(|(&a, _)| a == c)
            .map(|(_, &l)| l as usize)
            .collect();
        if members.is_empty() {
            continue;
        }
        let mut counts = [0usize; 3];
        for &m in &members {
            counts[m] += 1;
        }
        purity_sum += *counts.iter().max().unwrap() as f64;
        counted += members.len() as f64;
    }
    let purity = purity_sum / counted;
    assert!(purity > 0.9, "unsupervised cluster purity {purity}");
}

#[test]
fn compressed_gradients_train_a_real_model() {
    // Data-parallel logistic regression with 25% top-k compression +
    // error feedback converges on a separable problem.
    let dim = 16;
    let n_per = 64;
    let out = ThreadComm::run(2, |comm| {
        let mut rng = Rng::seed(40 + comm.rank() as u64);
        // Shared true weights (same for both ranks via same construction).
        let true_w: Vec<f32> = (0..dim).map(|i| if i % 3 == 0 { 1.5 } else { -0.5 }).collect();
        let xs: Vec<Vec<f32>> = (0..n_per)
            .map(|_| (0..dim).map(|_| rng.normal()).collect())
            .collect();
        let ys: Vec<f32> = xs
            .iter()
            .map(|x| {
                let z: f32 = x.iter().zip(&true_w).map(|(a, b)| a * b).sum();
                if z > 0.0 {
                    1.0
                } else {
                    0.0
                }
            })
            .collect();
        let mut w = vec![0.0f32; dim];
        let mut c = TopKCompressor::new(dim, 0.25);
        for _ in 0..300 {
            // Logistic gradient on the local shard.
            let mut grad = vec![0.0f32; dim];
            for (x, &y) in xs.iter().zip(&ys) {
                let z: f32 = x.iter().zip(&w).map(|(a, b)| a * b).sum();
                let p = 1.0 / (1.0 + (-z).exp());
                for (g, &xv) in grad.iter_mut().zip(x) {
                    *g += (p - y) * xv / n_per as f32;
                }
            }
            sparse_allreduce_mean(comm, &mut grad, &mut c);
            for (wi, g) in w.iter_mut().zip(&grad) {
                *wi -= 0.5 * g;
            }
        }
        // Local accuracy of the final shared model.
        let correct = xs
            .iter()
            .zip(&ys)
            .filter(|(x, &y)| {
                let z: f32 = x.iter().zip(&w).map(|(a, b)| a * b).sum();
                (z > 0.0) == (y == 1.0)
            })
            .count();
        correct as f64 / n_per as f64
    });
    for acc in out {
        assert!(acc > 0.9, "compressed logistic regression accuracy {acc}");
    }
}
