//! Integration coverage for the extension features: hierarchical
//! allreduce inside a training step, model snapshots travelling between
//! modules, and compressed gradient training.

use msa_suite::data::bigearth::{self, BigEarthConfig};
use msa_suite::distrib::{sparse_allreduce_mean, TopKCompressor};
use msa_suite::msa_net::{
    hierarchical_allreduce, Communicator, PointToPoint, ThreadComm,
};
use msa_suite::nn::{models, serialize, Adam, Layer, Loss, Optimizer};
use msa_suite::tensor::Rng;

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
