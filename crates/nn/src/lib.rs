//! # nn
//!
//! A from-scratch deep-learning stack: the stand-in for the paper's
//! TensorFlow/Keras layer. Layers implement explicit `forward`/`backward`
//! passes (hand-derived gradients, checked against numerical
//! differentiation in the test suite), so the training loops in `distrib`
//! are fully deterministic and communicable: all parameters and gradients
//! can be flattened to a single `Vec<f32>` for Horovod-style ring
//! allreduce.
//!
//! Provided layers: [`Dense`], [`Conv2d`], [`Conv1d`], [`BatchNorm`],
//! [`Relu`], [`Dropout`], [`MaxPool2d`], [`GlobalAvgPool2d`], [`Gru`],
//! residual blocks and [`Sequential`] composition. Losses: softmax
//! cross-entropy, MSE, masked MAE. Optimizers: SGD(+momentum, weight
//! decay) and Adam.
//!
//! [`models`] builds the three networks of the paper's case studies: a
//! mini ResNet for BigEarthNet-style multispectral classification, a
//! COVID-Net-style CNN for chest X-rays and the §IV-B GRU imputer
//! (2×GRU(32), dropout 0.2, Dense(1), MAE loss, Adam 1e-4).

pub mod activation;
pub mod conv;
pub mod dense;
pub mod gradcheck;
pub mod gru;
pub mod layer;
pub mod loss;
pub mod lstm;
pub mod models;
pub mod norm;
pub mod optim;
pub mod param;
pub mod pool;
mod recurrent;
pub mod serialize;

pub use activation::{Dropout, Relu, Sigmoid, Tanh};
pub use conv::{Conv1d, Conv2d};
pub use dense::Dense;
pub use gru::Gru;
pub use layer::{Layer, Residual, Sequential};
pub use loss::{BceWithLogits, Loss, MaskedMae, Mse, SoftmaxCrossEntropy};
pub use lstm::Lstm;
pub use norm::BatchNorm;
pub use optim::{u64_to_words, words_to_u64, Adam, Optimizer, Sgd};
pub use param::Param;
pub use pool::{AvgPool2d, GlobalAvgPool2d, MaxPool2d};

/// Elements per pool block of a pass worth a pool stage (dropout's mask,
/// Adam, batch norm's sums). A pass of at most one block runs inline.
pub(crate) const STREAM_BLOCK: usize = 1 << 14;
