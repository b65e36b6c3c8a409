//! # msa-net
//!
//! The network layer of the MSA reproduction. Two halves:
//!
//! * **Real execution** — [`ThreadComm`] creates `n` communicator
//!   endpoints connected by channels (a `Mutex<VecDeque>` plus a
//!   `Condvar` each, from the offline `crossbeam` shim); [`collectives`]
//!   implements MPI-style algorithms (ring allreduce as used by Horovod,
//!   recursive doubling, binomial broadcast, barrier) *for real* on top of
//!   point-to-point sends. `distrib` drives data-parallel SGD through this.
//! * **Analytic cost models** — [`CollectiveAlgo`] predicts the
//!   wall-clock of the same collectives on given link parameters (α–β
//!   model), including the DEEP Extreme Scale Booster's FPGA **Global
//!   Collective Engine** (GCE), which offloads MPI reductions into the
//!   fabric. These feed the large-scale scaling experiments (E3, E8).
//!   The same value runs the algorithm, so what [`tune`] measures and
//!   picks is what the experiments price.

pub mod barrier;
pub mod codec;
pub mod collectives;
pub mod comm;
pub mod cost;
pub mod fabric;
pub mod hierarchical;
pub mod stats;
pub mod thread_comm;
pub mod tune;

pub use barrier::SenseBarrier;
pub use codec::{bf16_allreduce, GradCodec, WirePair};
/// The kernels' scratch arena, kept for `bf16_allreduce` and
/// `reduce_bucket_codec` (the decoded bf16 running sum is not a message).
pub use tensor::scratch::{self, Arena};
pub use comm::{Communicator, PointToPoint};
pub use hierarchical::{hierarchical_allreduce, GroupComm};
pub use cost::{CollectiveAlgo, LinkParams, Topology};
pub use fabric::{simulate as simulate_fabric, FatTree, Flow, FlowResult};
pub use stats::{CollectiveOp, CommStats, CommStatsSnapshot, OpTotals};
pub use thread_comm::{CommOptions, FaultPlan, RankKilled, ThreadComm};
pub use tune::{tuned_allreduce, DecisionTable, TuneGrid};
