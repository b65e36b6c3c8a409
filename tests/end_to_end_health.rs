//! Integration: the health case studies — GRU imputation on ICU series
//! (§IV-B) and COVID-Net-style CXR screening (§IV-A).

use msa_suite::data::cxr::{self, CxrConfig};
use msa_suite::data::icu::{self, IcuConfig, SPO2};
use msa_suite::distrib::{evaluate_classifier, TrainConfig, Trainer};
use msa_suite::nn::{models, Adam, Layer, MaskedMae, Optimizer, SoftmaxCrossEntropy};
use msa_suite::tensor::{Rng, Tensor};

#[test]
fn gru_imputer_beats_mean_fill_baseline() {
    let cohort = icu::generate(40, &IcuConfig::default(), 99);
    let task = icu::imputation_task(&cohort, SPO2, 0.3, 7);

    // Mean-fill baseline over observed SpO2.
    let (n, t) = (task.inputs.shape()[0], task.inputs.shape()[1]);
    let mut sum = 0.0;
    let mut cnt = 0.0;
    for i in 0..n {
        for tt in 0..t {
            if task.inputs.at(&[i, tt, icu::FEATURES + SPO2]) == 1.0 {
                sum += task.inputs.at(&[i, tt, SPO2]);
                cnt += 1.0;
            }
        }
    }
    let mean_pred = Tensor::full(task.targets.shape(), sum / cnt);
    let (mae_mean, _) = MaskedMae.compute_masked(&mean_pred, &task.targets, &task.eval_mask);

    let mut rng = Rng::seed(5);
    let mut gru = models::gru_imputer(2 * icu::FEATURES, &mut rng);
    let mut opt = Adam::new(1e-3);
    for _ in 0..50 {
        gru.zero_grad();
        let pred = gru.forward(&task.inputs, true);
        let (_, grad) = MaskedMae.compute_masked(&pred, &task.targets, &task.eval_mask);
        gru.backward(&grad);
        opt.step(&mut gru.params_mut());
    }
    let pred = gru.predict(&task.inputs);
    let (mae_gru, _) = MaskedMae.compute_masked(&pred, &task.targets, &task.eval_mask);
    assert!(
        mae_gru < mae_mean * 0.8,
        "GRU should beat mean-fill by ≥20%: {mae_gru} vs {mae_mean}"
    );
}

#[test]
fn covidnet_separates_three_classes_distributed() {
    let ds = cxr::generate(
        200,
        &CxrConfig {
            size: 24,
            noise: 0.1,
        },
        77,
    );
    let (train, test) = ds.split(0.25);
    let model_fn = |seed: u64| {
        let mut rng = Rng::seed(seed);
        models::covidnet_lite(1, 3, &mut rng)
    };
    let tc = TrainConfig {
        workers: 2,
        // 8 epochs left the small CNN at ~0.68 on some RNG streams;
        // 12 converges comfortably past the 0.7 gate.
        epochs: 12,
        batch_per_worker: 12,
        base_lr: 2e-3,
        lr_scaling: true,
        warmup_epochs: 1,
        seed: 3,
        checkpoint: None,
    };
    let rep = Trainer::new(tc.clone())
        .run(&train, model_fn, |lr| Box::new(Adam::new(lr)), SoftmaxCrossEntropy)
        .expect("no resume snapshot")
        .completed();
    let acc = evaluate_classifier(model_fn, tc.seed, &rep, &test);
    assert!(acc > 0.7, "CXR screening accuracy {acc} (chance 0.33)");
}

#[test]
fn gru_and_cnn_imputers_agree_on_task_difficulty() {
    // §IV-B: both 1D-CNN and GRU are viable imputers — neither should be
    // wildly worse than the other on the same task.
    let cohort = icu::generate(40, &IcuConfig::default(), 55);
    let task = icu::imputation_task(&cohort, SPO2, 0.3, 8);

    let mut rng = Rng::seed(6);
    let mut gru = models::gru_imputer(2 * icu::FEATURES, &mut rng);
    let mut opt = Adam::new(1e-3);
    for _ in 0..40 {
        gru.zero_grad();
        let pred = gru.forward(&task.inputs, true);
        let (_, grad) = MaskedMae.compute_masked(&pred, &task.targets, &task.eval_mask);
        gru.backward(&grad);
        opt.step(&mut gru.params_mut());
    }
    let pred = gru.predict(&task.inputs);
    let (mae_gru, _) = MaskedMae.compute_masked(&pred, &task.targets, &task.eval_mask);

    // Transpose to (N, F, T) for the CNN.
    let transpose = |x: &Tensor| {
        let (n, t, f) = (x.shape()[0], x.shape()[1], x.shape()[2]);
        let mut o = Tensor::zeros(&[n, f, t]);
        for i in 0..n {
            for tt in 0..t {
                for ff in 0..f {
                    *o.at_mut(&[i, ff, tt]) = x.at(&[i, tt, ff]);
                }
            }
        }
        o
    };
    let (cx, cy, cm) = (
        transpose(&task.inputs),
        transpose(&task.targets),
        transpose(&task.eval_mask),
    );
    let mut cnn = models::cnn1d_imputer(2 * icu::FEATURES, &mut rng);
    let mut opt = Adam::new(1e-3);
    for _ in 0..40 {
        cnn.zero_grad();
        let pred = cnn.forward(&cx, true);
        let (_, grad) = MaskedMae.compute_masked(&pred, &cy, &cm);
        cnn.backward(&grad);
        opt.step(&mut cnn.params_mut());
    }
    let pred = cnn.predict(&cx);
    let (mae_cnn, _) = MaskedMae.compute_masked(&pred, &cy, &cm);

    assert!(
        (mae_gru / mae_cnn) < 2.0 && (mae_cnn / mae_gru) < 2.0,
        "imputers diverge: GRU {mae_gru} vs CNN {mae_cnn}"
    );
}
