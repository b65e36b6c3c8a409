//! # distrib
//!
//! The paper's distributed deep-learning layer, rebuilt from scratch:
//!
//! * [`trainer`] — a **real** Horovod equivalent. `n` OS threads each own
//!   a model replica and a data shard; every step they compute local
//!   gradients and average them with a genuine allreduce (by default the
//!   partition-invariant pipeline chain) over
//!   [`msa_net::ThreadComm`] channels, then take identical optimiser
//!   steps. Learning-rate linear scaling with warmup (the recipe the
//!   128-GPU ResNet-50 studies rely on) is built in.
//! * [`checkpoint`] — full training-state snapshots (weights + optimiser
//!   buffers + RNG/progress record in a v2 `nn::serialize` container),
//!   the policy that takes them every N steps, and the cost bridge into
//!   `msa_storage::CheckpointTarget`; paired with the trainer's
//!   fault-injected kill-and-resume entry points, resume is bit-exact.
//! * [`perf`] — the **analytic** counterpart used to reproduce the
//!   JUWELS-scale numbers: step time = compute(batch)/GPU-throughput +
//!   allreduce(gradient bytes, n) on the booster interconnect, composed
//!   into epoch times, speedup and efficiency curves for 1…512 GPUs on
//!   V100 or A100 nodes (experiments E3 and E6).

pub mod checkpoint;
pub mod compress;
pub mod fusion;
pub mod modular;
pub mod perf;
pub mod trainer;

pub use checkpoint::{CheckpointError, CheckpointPolicy, CheckpointRecord, TrainerProgress};
pub use compress::{sparse_allreduce_mean, TopKCompressor};
pub use fusion::{ExchangeDispatch, FusionBuffer, FusionConfig};
pub use modular::{MlCampaign, WorkflowCost};
pub use perf::{ScalingModel, ScalingPoint, StageTerm};
pub use trainer::{
    evaluate_classifier, EpochBreakdown, EpochStats, PhaseBreakdown, StepCost, TrainConfig,
    TrainOutcome, TrainReport, Trainer,
};
