//! Builders for the paper's case-study networks.
//!
//! * [`resnet_mini`] — a width/depth-scaled ResNet for the remote-sensing
//!   land-cover classification study (§III-A trains RESNET-50 on
//!   BigEarthNet; we keep the architecture family — conv stem, BN, ReLU,
//!   identity residual blocks, global average pooling, linear head — at a
//!   laptop-trainable scale).
//! * [`covidnet_lite`] — a COVID-Net-style CNN for 3-way chest-X-ray
//!   classification (§IV-A).
//! * [`gru_imputer`] — exactly the §IV-B model: two GRU layers with 32
//!   units each, dropout 0.2, followed by a Dense(1) output layer.
//! * [`cnn1d_imputer`] — the 1D-CNN alternative the paper highlights as
//!   promising for the same task.

use crate::activation::{Dropout, Relu};
use crate::conv::{Conv1d, Conv2d};
use crate::dense::Dense;
use crate::gru::Gru;
use crate::lstm::Lstm;
use crate::layer::{Residual, Sequential};
use crate::norm::BatchNorm;
use crate::pool::{GlobalAvgPool2d, MaxPool2d};
use tensor::Rng;

/// A shape-preserving residual block: Conv-BN-ReLU-Conv-BN with identity
/// skip, post-activation ReLU omitted for simplicity (pre-activation
/// style).
fn residual_block(channels: usize, rng: &mut Rng) -> Residual {
    Residual::new(
        Sequential::new()
            .push(BatchNorm::new(channels))
            .push(Relu::new())
            .push(Conv2d::new(channels, channels, 3, 1, 1, rng))
            .push(BatchNorm::new(channels))
            .push(Relu::new())
            .push(Conv2d::new(channels, channels, 3, 1, 1, rng)),
    )
}

/// Mini ResNet for `(N, in_channels, H, W)` inputs (H, W ≥ 8):
/// stem conv → `stages` stages of {residual block, strided downsample
/// conv} → GAP → linear classifier.
pub fn resnet_mini(
    in_channels: usize,
    num_classes: usize,
    width: usize,
    stages: usize,
    rng: &mut Rng,
) -> Sequential {
    assert!(stages >= 1, "need at least one stage");
    let mut model = Sequential::new().push(Conv2d::new(in_channels, width, 3, 1, 1, rng));
    let mut ch = width;
    for s in 0..stages {
        model = model.push(residual_block(ch, rng));
        if s + 1 < stages {
            // Strided conv doubles channels and halves resolution.
            model = model
                .push(BatchNorm::new(ch))
                .push(Relu::new())
                .push(Conv2d::new(ch, ch * 2, 3, 2, 1, rng));
            ch *= 2;
        }
    }
    model
        .push(BatchNorm::new(ch))
        .push(Relu::new())
        .push(GlobalAvgPool2d::new())
        .push(Dense::new(ch, num_classes, rng))
}

/// COVID-Net-style CNN: conv/pool pyramid with a dense head, 3 classes
/// (normal / pneumonia / COVID-19).
pub fn covidnet_lite(in_channels: usize, num_classes: usize, rng: &mut Rng) -> Sequential {
    Sequential::new()
        .push(Conv2d::new(in_channels, 16, 3, 1, 1, rng))
        .push(BatchNorm::new(16))
        .push(Relu::new())
        .push(MaxPool2d::new(2, 2))
        .push(Conv2d::new(16, 32, 3, 1, 1, rng))
        .push(BatchNorm::new(32))
        .push(Relu::new())
        .push(MaxPool2d::new(2, 2))
        .push(Conv2d::new(32, 32, 3, 1, 1, rng))
        .push(Relu::new())
        .push(GlobalAvgPool2d::new())
        .push(Dense::new(32, num_classes, rng))
}

/// The §IV-B ARDS imputer: `(N, T, features) → (N, T, 1)`.
///
/// "two GRU layers with 32 units each, with dropout values of 0.2 …
/// followed by an output layer (Dense layer of size 1)". Loss: MAE;
/// optimiser: Adam with lr 1e-4 (see [`crate::Adam::new`]).
pub fn gru_imputer(features: usize, rng: &mut Rng) -> Sequential {
    Sequential::new()
        .push(Gru::new(features, 32, rng))
        .push(Dropout::new(0.2, 1001))
        .push(Gru::new(32, 32, rng))
        .push(Dropout::new(0.2, 1002))
        .push(Dense::new(32, 1, rng))
}

/// LSTM variant of the imputer (same shape as [`gru_imputer`]) — the
/// other standard recurrent architecture of the clinical time-series
/// literature the paper's related work discusses (Che et al.).
pub fn lstm_imputer(features: usize, rng: &mut Rng) -> Sequential {
    Sequential::new()
        .push(Lstm::new(features, 32, rng))
        .push(Dropout::new(0.2, 2001))
        .push(Lstm::new(32, 32, rng))
        .push(Dropout::new(0.2, 2002))
        .push(Dense::new(32, 1, rng))
}

/// One-dimensional CNN imputer over `(N, features, T)` sequences — the
/// paper's "One-Dimensional CNN as promising method" comparison point.
/// Outputs `(N, 1, T)`.
pub fn cnn1d_imputer(features: usize, rng: &mut Rng) -> Sequential {
    Sequential::new()
        .push(Conv1d::new(features, 32, 5, 1, 2, rng))
        .push(Relu::new())
        .push(Conv1d::new(32, 32, 5, 1, 2, rng))
        .push(Relu::new())
        .push(Conv1d::new(32, 1, 1, 1, 0, rng))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::Layer;
    use tensor::Tensor;

    #[test]
    fn resnet_mini_shapes() {
        let mut rng = Rng::seed(1);
        let mut m = resnet_mini(4, 10, 8, 2, &mut rng);
        let x = rng.normal_tensor(&[2, 4, 16, 16], 1.0);
        let y = m.forward(&x, true);
        assert_eq!(y.shape(), &[2, 10]);
        let gx = m.backward(&Tensor::ones(&[2, 10]));
        assert_eq!(gx.shape(), &[2, 4, 16, 16]);
    }

    #[test]
    fn covidnet_shapes() {
        let mut rng = Rng::seed(2);
        let mut m = covidnet_lite(1, 3, &mut rng);
        let x = rng.normal_tensor(&[2, 1, 32, 32], 1.0);
        let y = m.forward(&x, true);
        assert_eq!(y.shape(), &[2, 3]);
    }

    #[test]
    fn gru_imputer_matches_paper_structure() {
        let mut rng = Rng::seed(3);
        let mut m = gru_imputer(6, &mut rng);
        // 2 GRU layers of 32 units: 3(F·32+32²+32) + 3(32·32+32²+32),
        // plus Dense(32→1).
        let expected =
            3 * (6 * 32 + 32 * 32 + 32) + 3 * (32 * 32 + 32 * 32 + 32) + (32 + 1);
        assert_eq!(m.param_count(), expected);
        let x = rng.normal_tensor(&[2, 48, 6], 1.0);
        let y = m.forward(&x, true);
        assert_eq!(y.shape(), &[2, 48, 1]);
    }

    #[test]
    fn cnn1d_imputer_shapes() {
        let mut rng = Rng::seed(4);
        let mut m = cnn1d_imputer(6, &mut rng);
        let x = rng.normal_tensor(&[2, 6, 48], 1.0);
        let y = m.forward(&x, true);
        assert_eq!(y.shape(), &[2, 1, 48]);
    }

    #[test]
    fn lstm_imputer_shapes() {
        let mut rng = Rng::seed(6);
        let mut m = lstm_imputer(6, &mut rng);
        let x = rng.normal_tensor(&[2, 24, 6], 1.0);
        let y = m.forward(&x, true);
        assert_eq!(y.shape(), &[2, 24, 1]);
        // LSTM has 4 gates vs the GRU's 3: more parameters.
        let gru = gru_imputer(6, &mut rng);
        assert!(m.param_count() > gru.param_count());
    }

    type Builder = fn(&mut Rng) -> Sequential;

    /// Every builder here, with a small training input shape.
    const BUILDERS: [(&str, Builder, &[usize]); 5] = [
        ("resnet_mini", |r| resnet_mini(3, 4, 4, 2, r), &[2, 3, 8, 8]),
        ("covidnet_lite", |r| covidnet_lite(1, 3, r), &[2, 1, 16, 16]),
        ("gru_imputer", |r| gru_imputer(5, r), &[3, 7, 5]),
        ("lstm_imputer", |r| lstm_imputer(5, r), &[3, 7, 5]),
        ("cnn1d_imputer", |r| cnn1d_imputer(5, r), &[3, 5, 9]),
    ];

    /// A batch of no samples goes forward and backward through every
    /// builder, each pass keeping the shape a full batch has.
    #[test]
    fn every_builder_takes_an_empty_batch() {
        for (name, build, in_shape) in BUILDERS {
            let mut model = build(&mut Rng::seed(1));
            let full = model.forward(&Tensor::zeros(in_shape), true);
            let mut out_shape = full.shape().to_vec();
            let empty = [&[0], &in_shape[1..]].concat();
            out_shape[0] = 0;
            let y = model.forward(&Tensor::zeros(&empty), true);
            assert_eq!(y.shape(), &out_shape[..], "{name}");
            assert_eq!(model.backward(&y).shape(), &empty[..], "{name}");
        }
    }

    /// Killed-and-resumed ≡ uninterrupted for every builder here: train
    /// three steps, snapshot (model values, layer state, optimiser),
    /// train three more; a differently initialised model restored from
    /// the snapshot and trained the same three steps must end on the same
    /// bits. Layer state is what makes this hold for the models with
    /// batch norm (running statistics) and dropout (keystream position).
    #[test]
    fn every_builder_resumes_bit_exactly() {
        use crate::optim::{Adam, Optimizer};
        use crate::serialize::{load_training, save_with};
        for (name, build, in_shape) in BUILDERS {
            let mut data = Rng::seed(99);
            let batches: Vec<Tensor> = (0..6).map(|_| data.normal_tensor(in_shape, 1.0)).collect();
            let train = |model: &mut Sequential, opt: &mut Adam, batches: &[Tensor]| {
                for x in batches {
                    // L = ½‖y‖², so ∂L/∂y = y.
                    let y = model.forward(x, true);
                    model.backward(&y);
                    opt.step(&mut model.params_mut());
                    model.zero_grad();
                }
            };
            let (mut model, mut opt) = (build(&mut Rng::seed(1)), Adam::new(1e-2));
            train(&mut model, &mut opt, &batches[..3]);
            let snapshot = save_with(&model, &opt.state(), b"");
            train(&mut model, &mut opt, &batches[3..]);

            let (mut resumed, mut opt2) = (build(&mut Rng::seed(2)), Adam::new(1e-2));
            let (opt_state, _) = load_training(&mut resumed, &snapshot).expect(name);
            opt2.load_state(&resumed.params(), &opt_state).expect(name);
            train(&mut resumed, &mut opt2, &batches[3..]);

            let bits = |m: &Sequential| -> Vec<u32> {
                let all = [m.values_vec(), m.state()].concat();
                all.iter().map(|v| v.to_bits()).collect()
            };
            assert_eq!(bits(&resumed), bits(&model), "{name}: resumed run diverged");
            assert_eq!(opt2.state(), opt.state(), "{name}: optimiser diverged");
        }
    }

    #[test]
    fn resnet_depth_scales_param_count() {
        let mut rng = Rng::seed(5);
        let small = resnet_mini(3, 5, 8, 1, &mut rng).param_count();
        let big = resnet_mini(3, 5, 8, 3, &mut rng).param_count();
        assert!(big > 4 * small);
    }
}
