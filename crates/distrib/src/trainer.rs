//! Data-parallel training with real gradient allreduce.
//!
//! The execution model mirrors `horovodrun -np N`: every rank owns a full
//! model replica and a shard of the training data; each step it computes
//! gradients on its local mini-batch, all ranks average gradients with an
//! allreduce (by default the partition-invariant pipeline chain; see
//! [`ExchangeDispatch`]), and each applies the identical optimiser update
//! — so replicas never diverge (asserted in tests).
//!
//! Large-batch hygiene follows Goyal et al. (the recipe Sedona et al.
//! use on JUWELS): the learning rate is scaled linearly with the number
//! of workers and ramped up over warmup epochs.
//!
//! # Entry point
//!
//! [`Trainer`] is the single builder-style entry point; faulted runs,
//! resumes and observability are options, not separate functions:
//!
//! ```text
//! Trainer::new(cfg)
//!     .fault(plan)         // optional deterministic kill
//!     .resume(&snapshot)   // optional restart from a checkpoint
//!     .recorder(registry)  // optional metrics sink (msa-obs)
//!     .cost(step_cost)     // optional analytic step-cost model
//!     .codec(GradCodec::Bf16) // optional gradient wire codec
//!     .run(&dataset, model_fn, opt_fn, loss)?
//! ```
//!
//! # Observability
//!
//! Every rank carries a [`msa_obs::VirtualClock`] in integer picoseconds
//! and prices the four phases of each step with a [`StepCost`] model:
//! batch **staging**, forward/backward **compute**, gradient
//! **allreduce**, and **checkpoint** writes. The per-phase totals land in
//! [`TrainReport::breakdown`] (with per-epoch rollups in
//! [`TrainReport::epoch_breakdown`]), and — when a recorder is attached —
//! as `trainer.*` metrics merged in rank order, alongside the
//! communicator's per-collective traffic counters. All durations are
//! integer picoseconds, so identical runs produce bit-identical
//! snapshots.
//!
//! # Checkpoint/restart
//!
//! With a [`CheckpointPolicy`] armed, rank 0 snapshots the *full*
//! training state every N steps — weights, batch-norm state, optimiser
//! buffers and a [`TrainerProgress`] record. [`Trainer::fault`] arms a
//! deterministic [`FaultPlan`] ("kill rank r at step s") and the run
//! returns [`TrainOutcome::Interrupted`] carrying the last snapshot;
//! [`Trainer::resume`] restarts from it under the contract stated in
//! [`crate::checkpoint`]. That contract and the schedule equivalences
//! are the cells of `tests/equivalence.rs`: `cargo test --test
//! equivalence` runs a seeded sample, `cargo test --release --test
//! equivalence -- --ignored` all of them.

use crate::checkpoint::{CheckpointError, CheckpointPolicy, CheckpointRecord, TrainerProgress};
use crate::compress::TopKCompressor;
use crate::fusion::{ExchangeDispatch, FusionBuffer, FusionConfig};
use data::stream::{with_prefetch, BatchSource, BatchStream, SlabPool};
use data::Dataset;
use msa_core::SimTime;
use msa_net::{
    CollectiveAlgo, CommOptions, Communicator, FaultPlan, GradCodec, LinkParams, PointToPoint as _,
    RankKilled, ThreadComm,
};
use msa_obs::{key, MetricsRegistry, Recorder, VirtualClock};
use nn::{serialize, Layer, Loss, Optimizer, Sequential};
use std::sync::Arc;
use std::time::Instant;
use tensor::{Rng, Tensor};

/// Configuration for a data-parallel run.
#[derive(Debug, Clone)]
pub struct TrainConfig {
    /// Number of data-parallel workers (threads playing GPUs).
    pub workers: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Per-worker mini-batch size (weak-scaling convention, as Horovod).
    pub batch_per_worker: usize,
    /// Base learning rate for a single worker.
    pub base_lr: f32,
    /// Scale the LR linearly with worker count (Goyal et al.).
    pub lr_scaling: bool,
    /// Epochs of linear LR warmup (0 disables).
    pub warmup_epochs: usize,
    /// Seed for weight init and shuffling.
    pub seed: u64,
    /// Training-state snapshot policy (`None` disables checkpointing).
    pub checkpoint: Option<CheckpointPolicy>,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            workers: 1,
            epochs: 5,
            batch_per_worker: 16,
            base_lr: 0.05,
            lr_scaling: true,
            warmup_epochs: 1,
            seed: 42,
            checkpoint: None,
        }
    }
}

/// Per-epoch statistics (already averaged over ranks).
#[derive(Debug, Clone)]
pub struct EpochStats {
    pub epoch: usize,
    pub mean_loss: f32,
    pub lr: f32,
}

/// Analytic cost model pricing the phases of one training step.
///
/// The trainer executes for real (threads, channels, actual gradients)
/// but *times* itself on a virtual clock: each phase is priced by this
/// model and accumulated in integer picoseconds, so the reported
/// breakdown is deterministic and directly comparable to the α–β
/// collective models in `msa-net::cost`.
#[derive(Debug, Clone, Copy)]
pub struct StepCost {
    /// FLOPs per sample for forward + backward. `0.0` (the default)
    /// derives `6 × params` — the usual 2 FLOPs/param forward plus twice
    /// that backward.
    pub flops_per_sample: f64,
    /// Sustained device throughput in TFLOP/s.
    pub gpu_tflops: f64,
    /// Host→device batch staging bandwidth in GB/s.
    pub stage_gbs: f64,
    /// Interconnect pricing the gradient allreduce; also handed to the
    /// communicator so per-message modeled wait uses the same link.
    pub link: LinkParams,
}

impl Default for StepCost {
    fn default() -> Self {
        StepCost {
            flops_per_sample: 0.0,
            gpu_tflops: 15.7, // V100 FP32 peak (JUWELS Booster GPU)
            stage_gbs: 12.5,  // PCIe gen3 ×16
            link: LinkParams::infiniband_edr(),
        }
    }
}

impl StepCost {
    /// Forward+backward time for a batch of `samples` on a model with
    /// `params` trainable parameters.
    pub fn compute_time(&self, params: usize, samples: usize) -> SimTime {
        let per_sample = if self.flops_per_sample > 0.0 {
            self.flops_per_sample
        } else {
            6.0 * params as f64
        };
        SimTime::from_secs(per_sample * samples as f64 / (self.gpu_tflops * 1e12))
    }

    /// Host→device staging time for `bytes` of batch data.
    pub fn stage_time(&self, bytes: u64) -> SimTime {
        SimTime::from_secs(bytes as f64 / (self.stage_gbs * 1e9))
    }
}

/// Modeled time in each phase of the training loop, in integer
/// picoseconds. `u64` addition is exact and order-independent, so
/// identical runs accumulate bit-identical breakdowns.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseBreakdown {
    /// Host→device batch staging.
    pub stage_ps: u64,
    /// Forward + backward compute.
    pub compute_ps: u64,
    /// Gradient allreduce (full per-bucket α–β cost, as if serialized).
    pub allreduce_ps: u64,
    /// Checkpoint serialisation + write (priced on rank 0).
    pub checkpoint_ps: u64,
    /// Allreduce picoseconds hidden under the backward tail by the
    /// fused, overlapped exchange — each bucket is priced
    /// `max(compute_tail, comm)` instead of `compute + allreduce`, and
    /// the hidden part lands here so [`PhaseBreakdown::total_ps`] stays
    /// exactly equal to the virtual wall clock. Zero on the serialized
    /// path.
    pub overlap_saved_ps: u64,
    /// Staging picoseconds hidden behind the previous steps' compute by
    /// the depth-k batch prefetcher ([`Trainer::prefetch`]): `stage_ps`
    /// records every batch's *full* staging cost, the consumer only
    /// stalls for the part not already assembled when it arrives, and
    /// the difference lands here — so the partition invariant stays
    /// exact. Zero at depth 0 (the serial seed schedule).
    pub stage_overlap_saved_ps: u64,
}

impl PhaseBreakdown {
    /// Modeled wall time in picoseconds: the phase sum, minus the
    /// allreduce share that ran concurrently with compute and the
    /// staging share that ran concurrently with previous steps.
    pub fn total_ps(&self) -> u64 {
        self.stage_ps + self.compute_ps + self.allreduce_ps + self.checkpoint_ps
            - self.overlap_saved_ps
            - self.stage_overlap_saved_ps
    }

    fn absorb(&mut self, other: &PhaseBreakdown) {
        self.stage_ps += other.stage_ps;
        self.compute_ps += other.compute_ps;
        self.allreduce_ps += other.allreduce_ps;
        self.checkpoint_ps += other.checkpoint_ps;
        self.overlap_saved_ps += other.overlap_saved_ps;
        self.stage_overlap_saved_ps += other.stage_overlap_saved_ps;
    }
}

/// Discrete-event pricing of the depth-k prefetch ring on the virtual
/// clock. The modeled producer starts assembling batch `t` as soon as
/// the previous batch is assembled *and* ring slot `t − k` has been
/// popped (`S_t = max(R_{t−1}, P_{t−k})`, `R_t = S_t + cost_t`); the
/// consumer arriving at `A_t` stalls only `max(0, R_t − A_t)`. Because
/// `R_{t−1} ≤ P_{t−1} ≤ A_t` and `P_{t−k} ≤ A_t` for `k ≥ 1`, the stall
/// never exceeds the full staging cost, so the hidden remainder
/// (`cost − stall`) is a well-formed `u64` — it accumulates into
/// [`PhaseBreakdown::stage_overlap_saved_ps`]. Depth 0 degenerates to
/// the serial seed schedule: the stall is the full cost, bit for bit.
#[derive(Debug)]
struct StagePipe {
    depth: usize,
    /// `R_{t−1}`: virtual time the previous batch finished assembling.
    ready: u64,
    /// Pop times of the last `depth` batches (`P_{t−depth} … P_{t−1}`),
    /// preloaded with the epoch start so the first `depth` batches only
    /// wait on `R_{t−1}`.
    pops: std::collections::VecDeque<u64>,
}

impl StagePipe {
    fn new(depth: usize, epoch_start_ps: u64) -> Self {
        StagePipe {
            depth,
            ready: epoch_start_ps,
            pops: std::iter::repeat_n(epoch_start_ps, depth).collect(),
        }
    }

    /// Consumer needs the next batch (staging cost `cost_ps`) at virtual
    /// time `now_ps`; returns how long it stalls. The caller advances
    /// the clock by the stall and then reports the pop via
    /// [`StagePipe::popped`].
    fn arrive(&mut self, cost_ps: u64, now_ps: u64) -> u64 {
        if self.depth == 0 {
            return cost_ps;
        }
        // lint: allow(unwrap) -- `pops` is preloaded with `depth` entries and refilled on every pop
        let slot_free = self.pops.pop_front().expect("pipe slot");
        let start = self.ready.max(slot_free);
        self.ready = start + cost_ps;
        self.ready.saturating_sub(now_ps)
    }

    /// Records the pop time (the clock after the stall was applied).
    fn popped(&mut self, now_ps: u64) {
        if self.depth > 0 {
            self.pops.push_back(now_ps);
        }
    }
}

/// One epoch's phase rollup (only epochs this run executed steps in).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpochBreakdown {
    pub epoch: usize,
    pub phases: PhaseBreakdown,
}

/// Result of a data-parallel run.
#[derive(Debug, Clone)]
pub struct TrainReport {
    pub epochs: Vec<EpochStats>,
    /// Wall-clock of the whole run in seconds (host time; *not* part of
    /// the deterministic surface — use [`TrainReport::sim_wall_ps`]).
    pub wall_secs: f64,
    /// Final (synchronised) flat parameter vector, for evaluation.
    pub final_params: Vec<f32>,
    /// Final non-trainable state (batch-norm running stats) of rank 0.
    pub final_state: Vec<f32>,
    /// Steps each rank executed (including pre-resume steps).
    pub steps_per_rank: usize,
    /// Checkpoints taken under the configured [`CheckpointPolicy`].
    pub checkpoints: Vec<CheckpointRecord>,
    /// The most recent full training-state snapshot (rank 0's copy).
    pub latest_snapshot: Option<Vec<u8>>,
    /// Rank 0's virtual clock at the end of the run, in picoseconds.
    /// Equals `breakdown.total_ps()` by construction.
    pub sim_wall_ps: u64,
    /// Phase totals over the steps executed *in this run* (a resumed run
    /// counts only post-resume steps).
    pub breakdown: PhaseBreakdown,
    /// Per-epoch phase rollups for the epochs this run ran steps in.
    pub epoch_breakdown: Vec<EpochBreakdown>,
}

impl TrainReport {
    /// Modeled duration of the run as a [`SimTime`].
    pub fn sim_wall(&self) -> SimTime {
        SimTime::from_ps(self.sim_wall_ps)
    }
}

/// How a (possibly fault-injected) run ended.
#[derive(Debug, Clone)]
pub enum TrainOutcome {
    /// The run trained all epochs.
    Completed(TrainReport),
    /// An armed [`FaultPlan`] fired: every rank aborted at the same step
    /// boundary. `snapshot` is the last checkpoint taken before the kill
    /// (`None` if the fault beat the first checkpoint).
    Interrupted {
        failure: RankKilled,
        snapshot: Option<Vec<u8>>,
    },
}

impl TrainOutcome {
    /// Unwraps the completed report.
    ///
    /// # Panics
    /// If the run was interrupted by a fault.
    pub fn completed(self) -> TrainReport {
        match self {
            TrainOutcome::Completed(report) => report,
            TrainOutcome::Interrupted { failure, .. } => {
                panic!(
                    "run interrupted: rank {} killed at step {}",
                    failure.rank, failure.at_step
                )
            }
        }
    }

    /// Unwraps the interruption record.
    ///
    /// # Panics
    /// If the run completed.
    pub fn interrupted(self) -> (RankKilled, Option<Vec<u8>>) {
        match self {
            TrainOutcome::Interrupted { failure, snapshot } => (failure, snapshot),
            TrainOutcome::Completed(_) => panic!("run completed; no interruption"),
        }
    }
}

/// Effective LR for `epoch` under scaling + warmup.
pub fn effective_lr(cfg: &TrainConfig, epoch: usize) -> f32 {
    let target = if cfg.lr_scaling {
        cfg.base_lr * cfg.workers as f32
    } else {
        cfg.base_lr
    };
    if epoch < cfg.warmup_epochs && cfg.workers > 1 {
        // Linear ramp from base_lr to target over the warmup epochs.
        let frac = (epoch + 1) as f32 / (cfg.warmup_epochs + 1) as f32;
        cfg.base_lr + (target - cfg.base_lr) * frac
    } else {
        target
    }
}

/// Builder-style entry point for Horovod-style data-parallel training.
///
/// `model_fn(seed)` must build an identically-initialised model on every
/// rank (same seed ⇒ same weights, the cheap equivalent of an initial
/// broadcast — a real broadcast is also exercised: rank 0's weights are
/// broadcast at t=0 and asserted equal). `opt_fn(lr)` builds each rank's
/// optimiser. `loss` maps (pred, target) to (loss, grad).
///
/// [`Trainer::run`] only returns `Err` when a [`Trainer::resume`]
/// snapshot fails validation; plain runs can `expect` the `Ok`.
#[derive(Clone)]
pub struct Trainer {
    cfg: TrainConfig,
    fault: Option<FaultPlan>,
    snapshot: Option<Vec<u8>>,
    recorder: Option<Arc<MetricsRegistry>>,
    cost: StepCost,
    fusion: FusionConfig,
    dispatch: ExchangeDispatch,
    codec: GradCodec,
    prefetch: usize,
    tag: Option<String>,
}

impl std::fmt::Debug for Trainer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Trainer")
            .field("cfg", &self.cfg)
            .field("fault", &self.fault)
            .field("snapshot_bytes", &self.snapshot.as_ref().map(Vec::len))
            .field("recorder", &self.recorder.is_some())
            .field("cost", &self.cost)
            .field("fusion", &self.fusion)
            .field("dispatch", &self.dispatch)
            .field("codec", &self.codec)
            .field("prefetch", &self.prefetch)
            .field("tag", &self.tag)
            .finish()
    }
}

impl Trainer {
    /// A trainer for `cfg` with no fault, no resume, no recorder and the
    /// default [`StepCost`].
    pub fn new(cfg: TrainConfig) -> Self {
        Trainer {
            cfg,
            fault: None,
            snapshot: None,
            recorder: None,
            cost: StepCost::default(),
            fusion: FusionConfig::default(),
            dispatch: ExchangeDispatch::default(),
            codec: GradCodec::default(),
            prefetch: 0,
            tag: None,
        }
    }

    /// Arms a deterministic fault: kill `plan.rank` at global step
    /// `plan.at_step`.
    pub fn fault(mut self, plan: FaultPlan) -> Self {
        self.fault = Some(plan);
        self
    }

    /// Restarts from a full training-state snapshot. The snapshot's
    /// worker count, seed and LR schedule point are validated bit-exactly
    /// against `cfg` when [`Trainer::run`] is called.
    pub fn resume(mut self, snapshot: &[u8]) -> Self {
        self.snapshot = Some(snapshot.to_vec());
        self
    }

    /// Attaches a metrics sink: per-rank phase timings, collective
    /// traffic counters and epoch rollups are merged into it in rank
    /// order when the run finishes (fault-interrupted runs included).
    pub fn recorder(mut self, recorder: Arc<MetricsRegistry>) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// Overrides the analytic step-cost model (device throughput,
    /// staging bandwidth, interconnect).
    pub fn cost(mut self, cost: StepCost) -> Self {
        self.cost = cost;
        self
    }

    /// Configures the gradient exchange: Horovod-style bucket fusion
    /// (`bucket_bytes`) and backward/allreduce overlap. The default is
    /// the serialized seed schedule. Every setting produces
    /// `to_bits`-identical training results — the exchange is
    /// partition-invariant by construction (see `crate::fusion`).
    pub fn fusion(mut self, fusion: FusionConfig) -> Self {
        self.fusion = fusion;
        self
    }

    /// Selects which allreduce each fusion bucket runs: the default
    /// partition-invariant pipeline, or measured-winner dispatch through
    /// an autotuner [`msa_net::tune::DecisionTable`]
    /// ([`ExchangeDispatch::Tuned`]). Tuned dispatch keeps fused ≡
    /// serialized bit-exact at any fixed `bucket_bytes` (selection
    /// depends only on each bucket's byte length), but results may
    /// differ *across* bucket sizes — see [`ExchangeDispatch`].
    pub fn dispatch(mut self, dispatch: ExchangeDispatch) -> Self {
        self.dispatch = dispatch;
        self
    }

    /// Selects the gradient **wire codec** for the per-bucket allreduce
    /// (see [`msa_net::GradCodec`]):
    ///
    /// * [`GradCodec::Dense32`] (default) — full-precision f32; every
    ///   exchange byte and every result bit is identical to the seed
    ///   trainer.
    /// * [`GradCodec::Bf16`] — deterministic round-to-nearest-even bf16
    ///   on the wire; halves allreduce bytes exactly. Gradients are
    ///   quantised, so training results differ from dense in the last
    ///   bits but converge to the same quality (asserted by the
    ///   `experiments codec` parity runs).
    /// * [`GradCodec::SparseTopK`] — top-k magnitude selection with
    ///   error feedback, exchanged as typed (index, value) pairs over an
    ///   equal-block allgather.
    ///
    /// The codec changes only the exchange: bucketing, overlap and the
    /// optimiser are untouched, and the priced clock sees the *encoded*
    /// byte count.
    pub fn codec(mut self, codec: GradCodec) -> Self {
        self.codec = codec;
        self
    }

    /// Arms the depth-`k` batch prefetcher: each rank assembles up to
    /// `depth` mini-batches ahead on a producer thread (the
    /// [`data::stream::with_prefetch`] ring) while the current step
    /// computes, and the priced clock charges only the staging time not
    /// already hidden behind previous steps — the hidden share lands in
    /// [`PhaseBreakdown::stage_overlap_saved_ps`].
    ///
    /// Training results are bit-identical at every depth: the prefetcher
    /// changes *when* batches are assembled, never their bits or order.
    /// The staging schedule (`StagePipe`, a discrete-event pipe) is
    /// pricing only, so parameters, per-epoch losses and the obs snapshot
    /// outside `trainer.stage_overlap.saved`, `trainer.sim_wall` and
    /// `trainer.epoch.time` match at every depth, codec and fusion
    /// config. Resume composes: a run killed at depth 2 and resumed at
    /// depth 4 lands on the reference bits, because the checkpointed RNG
    /// position is the stream's only state.
    /// `0` (the default) keeps the serial seed schedule — and the seed's
    /// modeled timings — exactly; [`data::stream::DEFAULT_PREFETCH_DEPTH`]
    /// (2) is the recommended double-buffering depth.
    pub fn prefetch(mut self, depth: usize) -> Self {
        self.prefetch = depth;
        self
    }

    /// Labels every metric this run records with `run=<tag>`, so several
    /// runs can share one registry without colliding.
    pub fn tag(mut self, tag: impl Into<String>) -> Self {
        self.tag = Some(tag.into());
        self
    }

    /// Runs the configured training job: one `Rank` per worker thread.
    ///
    /// Returns `Err` only when a [`Trainer::resume`] snapshot fails
    /// validation (wrong workers/seed/LR schedule, or not a trainer
    /// snapshot at all) or the codec cannot resume (top-k).
    pub fn run<M, O, L>(
        &self,
        dataset: &Dataset,
        model_fn: M,
        opt_fn: O,
        loss: L,
    ) -> Result<TrainOutcome, CheckpointError>
    where
        M: Fn(u64) -> Sequential + Sync,
        O: Fn(f32) -> Box<dyn Optimizer> + Sync,
        L: Loss + Sync,
    {
        let cfg = &self.cfg;
        let resume = match &self.snapshot {
            Some(snap) => Some(self.decode_resume(dataset, &model_fn, &opt_fn, snap)?),
            None => None,
        };
        let resume = resume.as_ref();
        let start_epoch = resume.map_or(0, |r| r.progress.epoch as usize);
        assert!(cfg.workers >= 1);
        assert!(cfg.epochs >= 1);
        let start = Instant::now();

        let mut opts = CommOptions::new().link(self.cost.link);
        opts.fault = self.fault;
        let results = ThreadComm::run_with(cfg.workers, &opts, |comm| {
            // `model_fn` gives every rank the identical init; each rank
            // trains on its own shard, like Horovod's sampler.
            let model = model_fn(cfg.seed);
            let opt = opt_fn(effective_lr(cfg, start_epoch));
            let mut rank = Rank::new(self, comm, model, opt, &loss, resume);
            let shard = dataset.shard(comm.rank(), comm.size());
            let killed = (start_epoch..cfg.epochs)
                .try_for_each(|epoch| rank.epoch(epoch, &shard))
                .err();
            rank.finish(killed)
        });

        let wall_secs = start.elapsed().as_secs_f64();
        // Merge per-rank registries in rank order: all msa-obs values are
        // order-independent under merge, but a fixed order keeps even the
        // pathological cases (duplicate gauge keys) deterministic.
        if let Some(rec) = &self.recorder {
            for run in &results {
                rec.merge_snapshot(&run.metrics.snapshot());
            }
        }
        // lint: allow(unwrap) -- ThreadComm::run returns one result per rank and workers >= 1
        let rank0 = results.into_iter().next().expect("at least one rank");
        let mut outcome = rank0.outcome;
        if let TrainOutcome::Completed(report) = &mut outcome {
            report.wall_secs = wall_secs;
        }
        Ok(outcome)
    }

    /// Decodes and validates a resume snapshot before any rank starts,
    /// as the [`crate::checkpoint`] contract states: anything it rejects
    /// would diverge from the original run or panic on a rank.
    fn decode_resume<M, O>(
        &self,
        dataset: &Dataset,
        model_fn: &M,
        opt_fn: &O,
        snapshot: &[u8],
    ) -> Result<ResumeState, CheckpointError>
    where
        M: Fn(u64) -> Sequential,
        O: Fn(f32) -> Box<dyn Optimizer>,
    {
        if let GradCodec::SparseTopK { .. } = self.codec {
            return Err(CheckpointError::UnresumableCodec(self.codec));
        }
        let cfg = &self.cfg;
        let mut model = model_fn(cfg.seed);
        let (opt_state, meta) = serialize::load_training(&mut model, snapshot)?;
        let progress = TrainerProgress::decode(&meta)?;
        let mismatch = |what, snapshot: u64, config: u64| {
            Err(CheckpointError::ConfigMismatch {
                what,
                snapshot,
                config,
            })
        };
        if progress.workers as usize != cfg.workers {
            return mismatch("workers", progress.workers as u64, cfg.workers as u64);
        }
        if progress.seed != cfg.seed {
            return mismatch("seed", progress.seed, cfg.seed);
        }
        if progress.epoch as usize >= cfg.epochs {
            return mismatch("epochs", progress.epoch, cfg.epochs as u64);
        }
        let lr = effective_lr(cfg, progress.epoch as usize);
        if lr.to_bits() != progress.lr_bits {
            return mismatch(
                "effective lr bits",
                progress.lr_bits as u64,
                lr.to_bits() as u64,
            );
        }
        opt_fn(lr).load_state(&model.params(), &opt_state)?;
        for rank in 0..cfg.workers {
            let mut rng = shuffle_rng(cfg.seed, rank);
            rng.set_word_pos(progress.rng_pos_start[rank]);
            let _ = rng.permutation(dataset.shard(rank, cfg.workers).len());
            if rng.word_pos() != progress.rng_pos_now[rank] {
                return mismatch("shuffle stream", progress.rng_pos_now[rank], rng.word_pos());
            }
        }
        Ok(ResumeState {
            params: model.values_vec(),
            state: model.state(),
            opt_state,
            progress,
        })
    }
}

/// Rank `rank`'s shuffle stream: one seed per rank, mixed from the run's.
fn shuffle_rng(seed: u64, rank: usize) -> Rng {
    Rng::seed(seed ^ (0xD15C0 + rank as u64))
}

/// Decoded snapshot handed to every rank on resume.
struct ResumeState {
    params: Vec<f32>,
    state: Vec<f32>,
    opt_state: Vec<f32>,
    progress: TrainerProgress,
}

/// What one rank hands back: the training outcome plus its local
/// metrics registry (populated even when the rank was killed).
struct RankRun {
    outcome: TrainOutcome,
    metrics: MetricsRegistry,
}

/// Where a rank stands inside the epoch in progress — together with the
/// seed and the global step count, exactly what a [`TrainerProgress`]
/// records per rank.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct EpochCursor {
    pub(crate) epoch: usize,
    pub(crate) lr: f32,
    /// Shuffle-RNG word position before / after this epoch's batch draw.
    pub(crate) rng_pos_start: u64,
    pub(crate) rng_pos_now: u64,
    pub(crate) step_in_epoch: usize,
    pub(crate) loss_sum: f64,
}

/// Everything one rank carries from step to step. The [`Trainer`] is the
/// read-only context; a step is the ordered list
/// `stage → compute+exchange → apply → checkpoint` over this state
/// ([`Rank::steps`]), priced on the virtual clock by [`Rank::price`].
struct Rank<'a, L> {
    t: &'a Trainer,
    comm: &'a ThreadComm,
    loss: &'a L,
    /// Consumed by the first (re-entered) epoch.
    resume: Option<&'a ResumeState>,
    model: Sequential,
    opt: Box<dyn Optimizer>,
    shuffle_rng: Rng,
    // Persistent gradient-exchange state: the layer-aligned fusion
    // buckets, the flat gradient staging buffer, the collectives' scratch
    // arena, per-bucket error-feedback compressors (the residual is
    // positional, so it lives with its bucket; dense and bf16 need none)
    // and the prefetch ring's batch slabs — all warm after the first
    // step / epoch, so steady state allocates nothing.
    fusion: FusionBuffer,
    flat: Vec<f32>,
    arena: msa_net::Arena,
    compressors: Vec<TopKCompressor>,
    slabs: SlabPool,
    // Modeled time.
    clock: VirtualClock,
    epoch_bd: PhaseBreakdown,
    totals: PhaseBreakdown,
    epoch_bds: Vec<EpochBreakdown>,
    // Progress.
    at: EpochCursor,
    /// Global steps, including the pre-resume ones.
    steps_done: usize,
    /// Steps and modeled wire bytes of this run only.
    steps_run: u64,
    allreduce_bytes: u64,
    epochs: Vec<EpochStats>,
    checkpoints: Vec<CheckpointRecord>,
    latest_snapshot: Option<Vec<u8>>,
}

impl<'a, L: Loss> Rank<'a, L> {
    fn new(
        t: &'a Trainer,
        comm: &'a ThreadComm,
        mut model: Sequential,
        mut opt: Box<dyn Optimizer>,
        loss: &'a L,
        resume: Option<&'a ResumeState>,
    ) -> Self {
        let mut shuffle_rng = shuffle_rng(t.cfg.seed, comm.rank());
        if let Some(r) = resume {
            model.set_values(&r.params);
            model.set_state(&r.state);
            opt.load_state(&model.params(), &r.opt_state)
                // lint: allow(unwrap) -- `Trainer::decode_resume` loaded this state into `opt_fn`'s optimiser before any rank started
                .expect("optimiser state was validated");
            // Seek the shuffle stream to where the interrupted epoch drew
            // its batches; the re-draw then reproduces the same permutation.
            shuffle_rng.set_word_pos(r.progress.rng_pos_start[comm.rank()]);
        }
        // Belt-and-braces broadcast of rank 0's weights on top of the
        // identical init; on resume every rank has loaded the snapshot's
        // weights and it degenerates to an identity check.
        let mut params = model.values_vec();
        comm.broadcast(&mut params, 0);
        model.set_values(&params);

        let fusion = FusionBuffer::new(
            &model.layer_param_spans(),
            params.len(),
            t.fusion.bucket_bytes,
        );
        let compressors = match t.codec {
            GradCodec::SparseTopK { ratio } => fusion
                .buckets()
                .iter()
                .map(|b| TopKCompressor::new(b.len(), ratio))
                .collect(),
            _ => Vec::new(),
        };
        Rank {
            t,
            comm,
            loss,
            resume,
            model,
            opt,
            shuffle_rng,
            fusion,
            // The broadcast buffer lives on as the gradient staging
            // buffer: every step overwrites all of it before reading it.
            flat: params,
            arena: msa_net::Arena::new(),
            compressors,
            slabs: SlabPool::new(),
            clock: VirtualClock::new(),
            epoch_bd: PhaseBreakdown::default(),
            totals: PhaseBreakdown::default(),
            epoch_bds: Vec::new(),
            at: EpochCursor::default(),
            steps_done: resume.map_or(0, |r| r.progress.steps_done as usize),
            steps_run: 0,
            allreduce_bytes: 0,
            epochs: resume.map_or_else(Vec::new, |r| {
                r.progress
                    .history
                    .iter()
                    .enumerate()
                    .map(|(epoch, &(mean_loss, lr))| EpochStats {
                        epoch,
                        mean_loss,
                        lr,
                    })
                    .collect()
            }),
            checkpoints: Vec::new(),
            latest_snapshot: None,
        }
    }

    /// Trains one epoch over `shard`; `Err` is the fault-abort path.
    fn epoch(&mut self, epoch: usize, shard: &Dataset) -> Result<(), RankKilled> {
        let t = self.t;
        let lr = effective_lr(&t.cfg, epoch);
        self.opt.set_lr(lr);
        let rng_pos_start = self.shuffle_rng.word_pos();
        // Lazy batch stream: draws the epoch permutation up front (the
        // same single RNG consumption the retired eager path made, so
        // checkpointed RNG positions are unchanged) and assembles
        // mini-batches on demand — no epoch-wide materialization spike.
        let mut stream = BatchStream::new(shard, t.cfg.batch_per_worker, &mut self.shuffle_rng);
        let rng_pos_now = self.shuffle_rng.word_pos();
        // Every rank must run the same number of steps per epoch or the
        // collectives deadlock; agree on the global minimum batch count.
        let min_steps = {
            let all = self.comm.allgather(&[stream.num_batches() as f32]);
            all.iter().map(|v| v[0]).fold(f32::INFINITY, f32::min) as usize
        };
        self.at = EpochCursor {
            epoch,
            lr,
            rng_pos_start,
            rng_pos_now,
            step_in_epoch: 0,
            loss_sum: 0.0,
        };
        // First resumed epoch: re-enter mid-epoch — skip the steps the
        // snapshot already holds and restore the loss accumulator.
        if let Some(r) = self.resume.take() {
            self.at.step_in_epoch = r.progress.step_in_epoch as usize;
            self.at.loss_sum = f64::from_bits(r.progress.loss_sum_bits[self.comm.rank()]);
        }
        self.epoch_bd = PhaseBreakdown::default();

        // The steps are written once over the [`BatchSource`] pull
        // interface and run either inline (depth 0, the serial seed
        // schedule) or against the prefetch ring, which circulates this
        // rank's batch slabs.
        let mut slabs = std::mem::take(&mut self.slabs);
        let body = if t.prefetch == 0 {
            self.steps(&mut stream, min_steps)
        } else {
            with_prefetch(&mut stream, t.prefetch, &mut slabs, |src| {
                self.steps(src, min_steps)
            })
        };
        self.slabs = slabs;
        // A killed rank still reports the partial epoch's phases.
        self.totals.absorb(&self.epoch_bd);
        body?;

        // Average the epoch loss over ranks for reporting.
        let mut stat = vec![(self.at.loss_sum / min_steps.max(1) as f64) as f32];
        self.comm.allreduce_mean(&mut stat);
        self.epochs.push(EpochStats {
            epoch,
            mean_loss: stat[0],
            lr,
        });
        self.epoch_bds.push(EpochBreakdown {
            epoch,
            phases: self.epoch_bd,
        });
        Ok(())
    }

    /// The remaining steps (up to `min_steps`) of the current epoch:
    /// stage → compute+exchange → apply → checkpoint, each step priced
    /// once it has executed.
    fn steps(&mut self, src: &mut dyn BatchSource, min_steps: usize) -> Result<(), RankKilled> {
        let skip = self.at.step_in_epoch;
        // Resumed epochs re-enter mid-way: pull and recycle the
        // already-trained batches without pricing anything (the retired
        // eager path assembled them and priced nothing).
        for _ in 0..skip.min(min_steps) {
            if let Some(b) = src.next_batch() {
                src.recycle(b);
            }
        }
        // Modeled ring pricing starts at the epoch's current clock; at
        // depth 0 the pipe degenerates to the serial schedule.
        let mut pipe = StagePipe::new(self.t.prefetch, self.clock.now_ps());
        for _ in skip..min_steps {
            // A dead rank makes the next collective impossible for every
            // rank; the armed fault therefore aborts all of them here, at
            // the same lock-step boundary.
            self.comm.poll_fault(self.steps_done as u64)?;
            let Some((bx, by)) = src.next_batch() else {
                break;
            };
            let l = self.compute_and_exchange(&bx, &by);
            let batch_bytes = ((bx.data().len() + by.data().len()) * size_of::<f32>()) as u64;
            self.price(&mut pipe, batch_bytes, bx.shape()[0]);
            self.apply(l);
            self.checkpoint();
            // Hand the batch buffers back so the ring can reuse them (a
            // no-op on the inline path).
            src.recycle((bx, by));
        }
        Ok(())
    }

    /// Forward + backward, and the Horovod moment — average gradients
    /// across ranks ([`Rank::exchange`]). Returns the local loss.
    fn compute_and_exchange(&mut self, bx: &Tensor, by: &Tensor) -> f32 {
        self.model.zero_grad();
        let pred = self.model.forward(bx, true);
        let (l, grad) = self.loss.compute(&pred, by);
        self.exchange(&grad);
        l
    }

    /// Backward plus the gradient exchange, one schedule run two ways.
    /// Backward packs each finished layer into its bucket's segment of
    /// `flat` and queues the segment once complete; the reduce lane
    /// drains the queue back-to-front through one [`ExchangeDispatch`]
    /// call per bucket, in place. With `fusion.overlap` the two run side
    /// by side on the pool, otherwise one after the other — the same
    /// calls in the same order, so fused ≡ serialized bit-for-bit for any
    /// partition; the default pipeline dispatch is additionally
    /// partition-invariant (bits never depend on `bucket_bytes`).
    ///
    /// Deadlock-freedom: the rayon shim's `join` is a two-block stage
    /// whose atomic counter hands out block 0 (backward) before block 1
    /// (reduce), whoever claims them, and the caller runs every block no
    /// worker claimed. So backward has started before the reduce lane can
    /// block on the queue; with no free worker both run on the caller in
    /// that order, the reduce lane draining the unbounded queue
    /// serialized. Cross-rank safety is the pipeline schedule's:
    /// msa-verify model-checks the bucketed schedule under `Bounded(1)`
    /// channels, and `ThreadComm`'s credit pools are `Bounded(2)`.
    fn exchange(&mut self, grad: &Tensor) {
        let mut segs = self.fusion.segments(&mut self.flat);
        let (tx, rx) = crossbeam::channel::unbounded();
        let backward = || {
            self.model.backward_with(grad, |i, layer| {
                if let Some(done) = self.fusion.pack_layer(i, layer, &mut segs) {
                    // Unbounded queue: never blocks the backward pass. A
                    // send error is impossible while `rx` lives below.
                    let _ = tx.send(done);
                }
            });
            drop(tx);
        };
        let mut reduce = || {
            while let Ok((bidx, seg)) = rx.recv() {
                self.t.dispatch.reduce_bucket_codec(
                    self.comm,
                    seg,
                    &mut self.arena,
                    self.t.codec,
                    self.compressors.get_mut(bidx),
                );
            }
        };
        if self.t.fusion.overlap {
            rayon::join(backward, reduce);
        } else {
            backward();
            reduce();
        }
    }

    /// Prices one executed step on the virtual clock. Every modeled
    /// phase except the checkpoint write (priced in [`Rank::checkpoint`],
    /// where its byte count is known) is charged here and nowhere else,
    /// so this function alone keeps `breakdown.total_ps() == sim_wall_ps`.
    ///
    /// * **Stage.** The full host→device cost lands in `stage_ps`; the
    ///   consumer only stalls for the share the modeled producer
    ///   ([`StagePipe`]) had not already assembled, and the hidden
    ///   remainder goes to `stage_overlap_saved_ps`.
    /// * **Compute.** Forward + backward from the [`StepCost`] model.
    /// * **Allreduce.** Per-bucket α–β cost of what actually crosses the
    ///   wire (the codec's encoded byte count; `len × 4` for Dense32;
    ///   nothing at p = 1), overlapped against the backward tail when the
    ///   overlap lane is on. Backward is 4 of the 6 modeled FLOPs/param and sweeps the
    ///   flat gradient top-down, so the bucket starting at flat offset
    ///   `a` is ready once (total − a)/total of the backward time has
    ///   elapsed. Buckets flush back-to-front and serialize on the comm
    ///   lane: finish_k = max(finish_{k−1}, ready_k) + allreduce_k. The
    ///   wall clock advances by max(compute, finish_last) − compute; the
    ///   hidden remainder is `overlap_saved_ps` (zero when serialized,
    ///   where every ready_k = compute).
    ///
    /// Priced ≠ executed: every bucket is priced as
    /// [`CollectiveAlgo::Ring`], the paper's bandwidth-optimal Horovod
    /// choice, whatever the dispatch actually ran (by default the
    /// partition-invariant pipeline chain). Bits come from execution and
    /// picoseconds from this model; the two are decoupled on purpose.
    fn price(&mut self, pipe: &mut StagePipe, batch_bytes: u64, samples: usize) {
        let (cost, clock, bd) = (&self.t.cost, &self.clock, &mut self.epoch_bd);
        let s_ps = cost.stage_time(batch_bytes).as_ps();
        let stall = pipe.arrive(s_ps, clock.now_ps());
        clock.advance(SimTime::from_ps(stall));
        pipe.popped(clock.now_ps());
        bd.stage_ps += s_ps;
        bd.stage_overlap_saved_ps += s_ps - stall;

        let c_ps = clock.advance(cost.compute_time(self.flat.len(), samples));
        bd.compute_ps += c_ps;

        let t_bwd = c_ps * 2 / 3;
        let total = self.flat.len() as u64;
        let p = self.comm.size();
        let mut finish: u64 = 0;
        let mut comm_ps: u64 = 0;
        // p = 1 sends nothing, so no bucket is priced or counted.
        for b in self.fusion.buckets().iter().rev().filter(|_| p > 1) {
            let bytes = self.t.codec.wire_bytes(b.len()) as u64;
            let a_ps = CollectiveAlgo::Ring.allreduce_time(p, bytes as f64, cost.link).as_ps();
            let ready = if self.t.fusion.overlap {
                c_ps - t_bwd
                    + ((t_bwd as u128 * (total - b.start as u64) as u128) / total as u128) as u64
            } else {
                c_ps
            };
            finish = finish.max(ready) + a_ps;
            comm_ps += a_ps;
            self.allreduce_bytes += bytes;
        }
        let extra = finish.saturating_sub(c_ps);
        clock.advance(SimTime::from_ps(extra));
        bd.allreduce_ps += comm_ps;
        bd.overlap_saved_ps += comm_ps - extra;
    }

    /// The identical optimiser update on every rank, read straight from
    /// the averaged `flat` gradient (the model's own gradient
    /// accumulators still hold this rank's unreduced backward).
    fn apply(&mut self, loss: f32) {
        self.opt.step_with_grads(&mut self.model.params_mut(), &self.flat);
        self.at.loss_sum += loss as f64;
        self.at.step_in_epoch += 1;
        self.steps_done += 1;
        self.steps_run += 1;
    }

    /// Every `every_steps` global steps all ranks gather their progress
    /// and rank 0 snapshots the full training state, paying the write.
    fn checkpoint(&mut self) {
        let cfg = &self.t.cfg;
        let Some(policy) = &cfg.checkpoint else {
            return;
        };
        let global_step = self.steps_done as u64;
        if !global_step.is_multiple_of(policy.every_steps) {
            return;
        }
        let progress =
            TrainerProgress::gather(self.comm, cfg.seed, global_step, &self.at, &self.epochs);
        // Only rank 0 snapshots (and pays the write).
        let Some(progress) = progress else { return };
        // Encode into the previous snapshot's allocation: only the latest
        // snapshot is kept, so the buffer is recycled write after write.
        let mut snap = self.latest_snapshot.take().unwrap_or_default();
        serialize::save_into(&mut snap, &self.model, &self.opt.state(), &progress.encode());
        let record = CheckpointRecord {
            global_step,
            epoch: self.at.epoch,
            bytes: snap.len() as u64,
            write_cost: policy.target.checkpoint_cost_bytes(snap.len() as u64),
        };
        self.epoch_bd.checkpoint_ps += self.clock.advance(record.write_cost);
        self.checkpoints.push(record);
        self.latest_snapshot = Some(snap);
    }

    /// The single exit of a rank, killed or completed: records its
    /// metrics once and hands back the outcome.
    fn finish(self, killed: Option<RankKilled>) -> RankRun {
        if killed.is_none() {
            // Replicas must have stayed in lock-step: compare a parameter
            // digest (before the metrics, which count this traffic). Equal
            // bits agree even when the run diverged to NaN.
            let digest: f32 = self.model.values_vec().iter().sum();
            for (r, d) in self.comm.allgather(&[digest]).iter().enumerate() {
                assert!(
                    d[0].to_bits() == digest.to_bits()
                        || (d[0] - digest).abs() <= 1e-3 * (1.0 + digest.abs()),
                    "rank {r} diverged: {} vs {}",
                    d[0],
                    digest
                );
            }
        }
        let metrics = self.metrics();
        let snapshot = self.latest_snapshot;
        let outcome = match killed {
            Some(failure) => TrainOutcome::Interrupted { failure, snapshot },
            None => TrainOutcome::Completed(TrainReport {
                epochs: self.epochs,
                wall_secs: 0.0, // stamped by the caller
                final_params: self.model.values_vec(),
                final_state: self.model.state(),
                steps_per_rank: self.steps_done,
                checkpoints: self.checkpoints,
                latest_snapshot: snapshot,
                sim_wall_ps: self.clock.now_ps(),
                breakdown: self.totals,
                epoch_breakdown: self.epoch_bds,
            }),
        };
        RankRun { outcome, metrics }
    }

    /// This rank's phase totals, step counters and collective traffic as
    /// a local registry.
    fn metrics(&self) -> MetricsRegistry {
        let reg = MetricsRegistry::new();
        let rank_s = self.comm.rank().to_string();
        let mut labels: Vec<(&str, &str)> = vec![("rank", &rank_s)];
        if let Some(t) = &self.t.tag {
            labels.push(("run", t));
        }
        let totals = &self.totals;

        for (phase, ps) in [
            ("stage", totals.stage_ps),
            ("compute", totals.compute_ps),
            ("allreduce", totals.allreduce_ps),
            ("checkpoint", totals.checkpoint_ps),
        ] {
            reg.time_ps(&key(&format!("trainer.phase.{phase}.time"), &labels), ps);
        }
        reg.add(&key("trainer.steps", &labels), self.steps_run);
        reg.add(
            &key("trainer.allreduce.bytes", &labels),
            self.allreduce_bytes,
        );
        reg.time_ps(
            &key("trainer.overlap.saved", &labels),
            totals.overlap_saved_ps,
        );
        reg.time_ps(
            &key("trainer.stage_overlap.saved", &labels),
            totals.stage_overlap_saved_ps,
        );
        reg.time_ps(&key("trainer.sim_wall", &labels), self.clock.now_ps());
        if let Some(stats) = self.comm.stats() {
            stats.export().record_into(&reg, &labels);
        }

        // Epoch rollups come from rank 0 only — they are already averaged /
        // global quantities, and one copy keeps the key space tidy.
        if self.comm.rank() == 0 {
            for eb in &self.epoch_bds {
                let epoch_s = eb.epoch.to_string();
                let mut el = labels.clone();
                el.push(("epoch", &epoch_s));
                reg.time_ps(&key("trainer.epoch.time", &el), eb.phases.total_ps());
            }
            for e in &self.epochs {
                let epoch_s = e.epoch.to_string();
                let mut el = labels.clone();
                el.push(("epoch", &epoch_s));
                // A gauge must be finite: a diverged epoch is counted instead.
                if e.mean_loss.is_finite() {
                    reg.gauge(&key("trainer.epoch.mean_loss", &el), f64::from(e.mean_loss));
                } else {
                    reg.add(&key("trainer.epoch.nonfinite_loss", &el), 1);
                }
            }
            reg.add(
                &key("trainer.checkpoints", &labels),
                self.checkpoints.len() as u64,
            );
            let ckpt_bytes: u64 = self.checkpoints.iter().map(|c| c.bytes).sum();
            reg.add(&key("trainer.checkpoint.bytes", &labels), ckpt_bytes);
        }
        reg
    }
}

/// Evaluates a trained flat parameter vector: rebuilds the model, loads
/// the weights and returns classification accuracy on `test`.
pub fn evaluate_classifier<M>(model_fn: M, seed: u64, report: &TrainReport, test: &Dataset) -> f64
where
    M: Fn(u64) -> Sequential,
{
    let mut model = model_fn(seed);
    model.set_values(&report.final_params);
    model.set_state(&report.final_state);
    let logits = model.predict(&test.x);
    data::accuracy(&logits, &test.y)
}

#[cfg(test)]
mod tests {
    use super::*;
    use data::bigearth::{self, BigEarthConfig};
    use nn::{Adam, Dense, Relu, Sgd, SoftmaxCrossEntropy};

    fn mlp(seed: u64, in_dim: usize, classes: usize) -> Sequential {
        let mut rng = Rng::seed(seed);
        Sequential::new()
            .push(Dense::new(in_dim, 32, &mut rng))
            .push(Relu::new())
            .push(Dense::new(32, classes, &mut rng))
    }

    /// Tiny separable dataset: class = argmax over first `classes` dims.
    fn toy_dataset(n: usize, dim: usize, classes: usize, seed: u64) -> Dataset {
        let mut rng = Rng::seed(seed);
        let mut x = Vec::with_capacity(n * dim);
        let mut y = Vec::with_capacity(n);
        for _ in 0..n {
            let c = rng.below(classes);
            let mut row: Vec<f32> = (0..dim).map(|_| rng.normal() * 0.3).collect();
            row[c] += 2.0;
            x.extend(row);
            y.push(c as f32);
        }
        Dataset {
            x: Tensor::from_vec(x, &[n, dim]),
            y: Tensor::from_vec(y, &[n]),
        }
    }

    #[test]
    fn single_worker_learns_toy_problem() {
        let ds = toy_dataset(256, 8, 4, 1);
        let (train, test) = ds.split(0.25);
        let cfg = TrainConfig {
            workers: 1,
            epochs: 12,
            batch_per_worker: 32,
            base_lr: 0.1,
            ..Default::default()
        };
        let report = Trainer::new(cfg.clone())
            .run(
                &train,
                |s| mlp(s, 8, 4),
                |lr| Box::new(Sgd::new(lr, 0.9, 0.0)),
                SoftmaxCrossEntropy,
            )
            .expect("no snapshot to validate")
            .completed();
        let acc = evaluate_classifier(|s| mlp(s, 8, 4), cfg.seed, &report, &test);
        assert!(acc > 0.9, "accuracy {acc}");
        assert!(report.epochs.last().unwrap().mean_loss < report.epochs[0].mean_loss);
        assert!(report.checkpoints.is_empty() && report.latest_snapshot.is_none());
    }

    #[test]
    fn four_workers_match_single_worker_accuracy() {
        // The paper's headline invariance: distributed training does not
        // cost accuracy.
        let ds = toy_dataset(512, 8, 4, 2);
        let (train, test) = ds.split(0.25);
        let mut accs = Vec::new();
        for workers in [1usize, 4] {
            let cfg = TrainConfig {
                workers,
                epochs: 10,
                batch_per_worker: 16,
                base_lr: 0.05,
                lr_scaling: true,
                warmup_epochs: 1,
                seed: 7,
                checkpoint: None,
            };
            let report = Trainer::new(cfg.clone())
                .run(
                    &train,
                    |s| mlp(s, 8, 4),
                    |lr| Box::new(Sgd::new(lr, 0.9, 0.0)),
                    SoftmaxCrossEntropy,
                )
                .expect("no snapshot to validate")
                .completed();
            accs.push(evaluate_classifier(|s| mlp(s, 8, 4), cfg.seed, &report, &test));
        }
        assert!(accs[0] > 0.9, "1-worker acc {}", accs[0]);
        assert!(
            accs[1] > accs[0] - 0.05,
            "4-worker accuracy degraded: {} vs {}",
            accs[1],
            accs[0]
        );
    }

    #[test]
    fn gradient_averaging_equals_large_batch_gradient() {
        // 2 workers × batch B over a 2B dataset, one step, lr without
        // scaling: parameters must equal a single worker doing one step
        // on the full 2B batch — exactly, because the loss averages over
        // the batch and the allreduce averages over ranks.
        let ds = toy_dataset(64, 6, 3, 3);
        let step = |workers: usize, lr: f32| -> Vec<f32> {
            let cfg = TrainConfig {
                workers,
                epochs: 1,
                batch_per_worker: 64 / workers,
                base_lr: lr,
                lr_scaling: false,
                warmup_epochs: 0,
                seed: 5,
                checkpoint: None,
            };
            Trainer::new(cfg)
                .run(
                    &ds,
                    |s| mlp(s, 6, 3),
                    |l| Box::new(Sgd::new(l, 0.0, 0.0)),
                    SoftmaxCrossEntropy,
                )
                .expect("no snapshot to validate")
                .completed()
                .final_params
        };
        let single = step(1, 0.1);
        let dual = step(2, 0.1);
        // Shards see different examples, so this only holds because the
        // average of shard-mean gradients equals the full-batch mean for
        // equal shard sizes.
        let max_diff = single
            .iter()
            .zip(&dual)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        assert!(max_diff < 5e-4, "parameter divergence {max_diff}");
    }

    #[test]
    fn lr_schedule_scales_and_warms_up() {
        let cfg = TrainConfig {
            workers: 8,
            base_lr: 0.1,
            lr_scaling: true,
            warmup_epochs: 2,
            ..Default::default()
        };
        let lr0 = effective_lr(&cfg, 0);
        let lr1 = effective_lr(&cfg, 1);
        let lr2 = effective_lr(&cfg, 2);
        assert!(lr0 < lr1 && lr1 < lr2, "{lr0} {lr1} {lr2}");
        assert!((lr2 - 0.8).abs() < 1e-6, "target LR should be 8×base");
        let unscaled = TrainConfig {
            lr_scaling: false,
            ..cfg
        };
        assert_eq!(effective_lr(&unscaled, 5), 0.1);
    }

    #[test]
    fn cnn_trains_distributed_on_synthetic_bigearth() {
        // End-to-end: ResNet-family CNN + 2 workers on multispectral data.
        let cfg_data = BigEarthConfig {
            bands: 3,
            size: 8,
            classes: 3,
            noise: 0.2,
        };
        let ds = bigearth::generate(120, &cfg_data, 21);
        let (train, test) = ds.split(0.25);
        let model_fn = |s: u64| {
            let mut rng = Rng::seed(s);
            nn::models::resnet_mini(3, 3, 8, 1, &mut rng)
        };
        let cfg = TrainConfig {
            workers: 2,
            epochs: 6,
            batch_per_worker: 15,
            base_lr: 0.01,
            lr_scaling: true,
            warmup_epochs: 1,
            seed: 11,
            checkpoint: None,
        };
        let report = Trainer::new(cfg.clone())
            .run(&train, model_fn, |lr| Box::new(Adam::new(lr)), SoftmaxCrossEntropy)
            .expect("no snapshot to validate")
            .completed();
        let acc = evaluate_classifier(model_fn, cfg.seed, &report, &test);
        assert!(acc > 0.5, "CNN should beat chance (0.33): {acc}");
        assert!(
            report.epochs.last().unwrap().mean_loss < report.epochs[0].mean_loss,
            "loss should fall"
        );
    }

    #[test]
    fn checkpoints_fire_on_schedule_with_real_sizes() {
        let ds = toy_dataset(256, 8, 4, 13);
        let cfg = TrainConfig {
            workers: 2,
            epochs: 3,
            batch_per_worker: 16,
            base_lr: 0.05,
            lr_scaling: true,
            warmup_epochs: 1,
            seed: 13,
            checkpoint: Some(CheckpointPolicy::every(4)),
        };
        let report = Trainer::new(cfg.clone())
            .run(
                &ds,
                |s| mlp(s, 8, 4),
                |lr| Box::new(Sgd::new(lr, 0.9, 0.0)),
                SoftmaxCrossEntropy,
            )
            .expect("no snapshot to validate")
            .completed();
        assert!(!report.checkpoints.is_empty());
        for (i, c) in report.checkpoints.iter().enumerate() {
            assert_eq!(c.global_step, 4 * (i as u64 + 1));
            assert!(c.bytes > 0 && c.write_cost.as_secs() > 0.0);
        }
        // Rank 0 pays the modeled write cost of every snapshot.
        assert!(report.breakdown.checkpoint_ps > 0);
        let snap = report.latest_snapshot.as_ref().unwrap();
        assert_eq!(snap.len() as u64, report.checkpoints.last().unwrap().bytes);
        // The snapshot is a valid v3 container a fresh model can load.
        let mut probe = mlp(cfg.seed, 8, 4);
        let (opt_state, meta) = serialize::load_training(&mut probe, snap).unwrap();
        assert!(!opt_state.is_empty(), "SGD momentum must be captured");
        let progress = TrainerProgress::decode(&meta).unwrap();
        assert_eq!(progress.workers, 2);
        assert_eq!(progress.steps_done, report.checkpoints.last().unwrap().global_step);
    }

    #[test]
    fn fault_before_first_checkpoint_interrupts_without_snapshot() {
        let ds = toy_dataset(128, 8, 4, 17);
        let cfg = TrainConfig {
            workers: 2,
            epochs: 2,
            batch_per_worker: 16,
            base_lr: 0.05,
            lr_scaling: true,
            warmup_epochs: 1,
            seed: 17,
            checkpoint: Some(CheckpointPolicy::every(100)),
        };
        let outcome = Trainer::new(cfg)
            .fault(FaultPlan { rank: 1, at_step: 2 })
            .run(
                &ds,
                |s| mlp(s, 8, 4),
                |lr| Box::new(Sgd::new(lr, 0.9, 0.0)),
                SoftmaxCrossEntropy,
            )
            .expect("no snapshot to validate");
        let (failure, snapshot) = outcome.interrupted();
        assert_eq!(failure, RankKilled { rank: 1, at_step: 2 });
        assert!(snapshot.is_none(), "no checkpoint could have been taken");
    }

    #[test]
    fn unarmed_faulted_run_completes() {
        let ds = toy_dataset(128, 8, 4, 19);
        let cfg = TrainConfig {
            workers: 2,
            epochs: 2,
            batch_per_worker: 16,
            base_lr: 0.05,
            lr_scaling: true,
            warmup_epochs: 1,
            seed: 19,
            checkpoint: None,
        };
        let outcome = Trainer::new(cfg)
            .run(
                &ds,
                |s| mlp(s, 8, 4),
                |lr| Box::new(Sgd::new(lr, 0.9, 0.0)),
                SoftmaxCrossEntropy,
            )
            .expect("no snapshot to validate");
        assert!(matches!(outcome, TrainOutcome::Completed(_)));
    }

    #[test]
    fn breakdown_sums_to_virtual_wall_and_scales_with_steps() {
        let ds = toy_dataset(128, 8, 4, 29);
        let run = |epochs: usize| {
            let cfg = TrainConfig {
                workers: 2,
                epochs,
                batch_per_worker: 16,
                base_lr: 0.05,
                lr_scaling: true,
                warmup_epochs: 1,
                seed: 29,
                checkpoint: None,
            };
            Trainer::new(cfg)
                .run(
                    &ds,
                    |s| mlp(s, 8, 4),
                    |lr| Box::new(Sgd::new(lr, 0.9, 0.0)),
                    SoftmaxCrossEntropy,
                )
                .expect("no snapshot to validate")
                .completed()
        };
        let one = run(1);
        let two = run(2);
        for r in [&one, &two] {
            assert_eq!(r.breakdown.total_ps(), r.sim_wall_ps);
            assert_eq!(
                r.epoch_breakdown.iter().map(|e| e.phases.total_ps()).sum::<u64>(),
                r.sim_wall_ps,
                "epoch rollups must partition the run"
            );
            assert!(r.breakdown.stage_ps > 0);
            assert!(r.breakdown.compute_ps > 0);
            assert!(r.breakdown.allreduce_ps > 0);
            assert_eq!(r.breakdown.checkpoint_ps, 0, "no checkpoint policy armed");
        }
        // Twice the epochs ⇒ exactly twice the per-epoch work here (the
        // shard/batch geometry is identical every epoch).
        assert_eq!(two.epoch_breakdown.len(), 2);
        assert!(two.sim_wall_ps > one.sim_wall_ps);
    }

    #[test]
    fn fused_overlapped_training_is_bit_identical_to_serialized() {
        let ds = toy_dataset(256, 8, 4, 41);
        let run = |fusion: FusionConfig| {
            let cfg = TrainConfig {
                workers: 4,
                epochs: 3,
                batch_per_worker: 8,
                base_lr: 0.05,
                lr_scaling: true,
                warmup_epochs: 1,
                seed: 41,
                checkpoint: None,
            };
            Trainer::new(cfg)
                .fusion(fusion)
                .run(
                    &ds,
                    |s| mlp(s, 8, 4),
                    |lr| Box::new(Sgd::new(lr, 0.9, 0.0)),
                    SoftmaxCrossEntropy,
                )
                .expect("no snapshot to validate")
                .completed()
        };
        let base = run(FusionConfig::unfused());
        for fusion in [
            // Fused without overlap, fused + overlapped at several
            // thresholds (1 KiB splits the MLP into two buckets; tiny
            // thresholds give one bucket per layer), and overlap with a
            // single whole-gradient bucket.
            FusionConfig::fused(1024).overlap(false),
            FusionConfig::fused(1024),
            FusionConfig::fused(64),
            FusionConfig::unfused().overlap(true),
        ] {
            let got = run(fusion);
            let same_params = base
                .final_params
                .iter()
                .zip(&got.final_params)
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same_params, "{fusion:?}: parameters diverged");
            assert_eq!(base.final_state, got.final_state, "{fusion:?}: BN state");
            for (a, b) in base.epochs.iter().zip(&got.epochs) {
                assert_eq!(
                    a.mean_loss.to_bits(),
                    b.mean_loss.to_bits(),
                    "{fusion:?}: epoch {} loss",
                    a.epoch
                );
            }
        }
    }

    #[test]
    fn overlap_pricing_hides_comm_under_the_backward_tail() {
        let ds = toy_dataset(256, 8, 4, 43);
        let run = |fusion: FusionConfig| {
            let cfg = TrainConfig {
                workers: 4,
                epochs: 2,
                batch_per_worker: 16,
                base_lr: 0.05,
                lr_scaling: true,
                warmup_epochs: 1,
                seed: 43,
                checkpoint: None,
            };
            Trainer::new(cfg)
                .fusion(fusion)
                .run(
                    &ds,
                    |s| mlp(s, 8, 4),
                    |lr| Box::new(Sgd::new(lr, 0.9, 0.0)),
                    SoftmaxCrossEntropy,
                )
                .expect("no snapshot to validate")
                .completed()
        };
        let unfused = run(FusionConfig::unfused());
        // 1 KiB splits the 392-param MLP into two layer-aligned buckets,
        // so the first (later-layer) bucket's allreduce starts before
        // backward ends. Compare the same bucketing with the overlap
        // lane off — identical ΣA, so any wall difference is pure
        // overlap.
        let serial = run(FusionConfig::fused(1024).overlap(false));
        let fused = run(FusionConfig::fused(1024));

        assert_eq!(unfused.breakdown.overlap_saved_ps, 0, "unfused saves nothing");
        assert_eq!(serial.breakdown.overlap_saved_ps, 0, "serialized saves nothing");
        assert!(fused.breakdown.overlap_saved_ps > 0, "overlap must hide some comm");
        // The identity the breakdown maintains exactly, overlap or not.
        for r in [&unfused, &serial, &fused] {
            assert_eq!(r.breakdown.total_ps(), r.sim_wall_ps);
        }
        // Same buckets, same ΣA: overlap strictly shortens the modeled
        // wall, by exactly the saved picoseconds.
        assert_eq!(serial.breakdown.allreduce_ps, fused.breakdown.allreduce_ps);
        assert!(fused.sim_wall_ps < serial.sim_wall_ps);
        assert_eq!(
            fused.sim_wall_ps + fused.breakdown.overlap_saved_ps,
            serial.sim_wall_ps
        );
    }

    #[test]
    fn recorder_collects_per_rank_phases_and_traffic() {
        let ds = toy_dataset(128, 8, 4, 31);
        // p = 1 sends nothing, so it must record no allreduce time or bytes.
        for workers in [2, 1] {
            let cfg = TrainConfig {
                workers,
                epochs: 2,
                batch_per_worker: 16,
                base_lr: 0.05,
                lr_scaling: true,
                warmup_epochs: 1,
                seed: 31,
                checkpoint: Some(CheckpointPolicy::every(3)),
            };
            let reg = Arc::new(MetricsRegistry::new());
            let report = Trainer::new(cfg)
                .recorder(Arc::clone(&reg))
                .tag("t")
                .run(
                    &ds,
                    |s| mlp(s, 8, 4),
                    |lr| Box::new(Sgd::new(lr, 0.9, 0.0)),
                    SoftmaxCrossEntropy,
                )
                .expect("no snapshot to validate")
                .completed();
            let snap = reg.snapshot();
            // Rank 0's recorded phase totals match the report's breakdown.
            assert_eq!(
                snap.get("trainer.phase.compute.time{rank=0,run=t}")
                    .and_then(|v| v.as_time_ps()),
                Some(report.breakdown.compute_ps)
            );
            assert_eq!(
                snap.get("trainer.sim_wall{rank=0,run=t}").and_then(|v| v.as_time_ps()),
                Some(report.sim_wall_ps)
            );
            // Every rank reports steps; allreduce traffic exists iff p > 1.
            for rank in 0..workers {
                let counter = |key: String| snap.get(&key).and_then(|v| v.as_counter());
                assert_eq!(
                    counter(format!("trainer.steps{{rank={rank},run=t}}")),
                    Some(report.steps_per_rank as u64)
                );
                let bytes = counter(format!("trainer.allreduce.bytes{{rank={rank},run=t}}"));
                let sent = counter(format!("net.comm.bytes_sent{{op=pipeline,rank={rank},run=t}}"));
                let (bytes, sent) = (bytes.unwrap_or(0), sent.unwrap_or(0));
                assert_eq!(bytes > 0, workers > 1, "p={workers}: {bytes} priced bytes");
                assert_eq!(sent > 0, workers > 1, "collective traffic must be attributed");
            }
            assert_eq!(report.breakdown.allreduce_ps > 0, workers > 1);
            // Epoch rollups partition the virtual wall.
            assert_eq!(snap.time_ps_with_prefix("trainer.epoch.time{"), report.sim_wall_ps);
            assert_eq!(
                snap.get("trainer.checkpoints{rank=0,run=t}").and_then(|v| v.as_counter()),
                Some(report.checkpoints.len() as u64)
            );
        }
    }

    #[test]
    fn resume_rejects_mismatched_configs() {
        let ds = toy_dataset(256, 8, 4, 23);
        let cfg = TrainConfig {
            workers: 2,
            epochs: 3,
            batch_per_worker: 16,
            base_lr: 0.05,
            lr_scaling: true,
            warmup_epochs: 1,
            seed: 23,
            checkpoint: Some(CheckpointPolicy::every(3)),
        };
        let opt_fn = |lr: f32| -> Box<dyn Optimizer> { Box::new(Sgd::new(lr, 0.9, 0.0)) };
        let report = Trainer::new(cfg.clone())
            .run(&ds, |s| mlp(s, 8, 4), opt_fn, SoftmaxCrossEntropy)
            .expect("no snapshot to validate")
            .completed();
        let snap = report.latest_snapshot.unwrap();

        let wrong_workers = TrainConfig {
            workers: 4,
            ..cfg.clone()
        };
        assert!(matches!(
            Trainer::new(wrong_workers).resume(&snap).run(
                &ds,
                |s| mlp(s, 8, 4),
                opt_fn,
                SoftmaxCrossEntropy
            ),
            Err(CheckpointError::ConfigMismatch { what: "workers", .. })
        ));
        let wrong_seed = TrainConfig {
            seed: 99,
            ..cfg.clone()
        };
        assert!(matches!(
            Trainer::new(wrong_seed).resume(&snap).run(
                &ds,
                |s| mlp(s, 8, 4),
                opt_fn,
                SoftmaxCrossEntropy
            ),
            Err(CheckpointError::ConfigMismatch { what: "seed", .. })
        ));
        let wrong_lr = TrainConfig {
            base_lr: 0.07,
            ..cfg.clone()
        };
        assert!(matches!(
            Trainer::new(wrong_lr).resume(&snap).run(
                &ds,
                |s| mlp(s, 8, 4),
                opt_fn,
                SoftmaxCrossEntropy
            ),
            Err(CheckpointError::ConfigMismatch {
                what: "effective lr bits",
                ..
            })
        ));
        // A bare model snapshot (no trainer progress) is a typed error,
        // not a resume.
        let bare = serialize::save(&mlp(cfg.seed, 8, 4));
        assert!(matches!(
            Trainer::new(cfg).resume(&bare).run(
                &ds,
                |s| mlp(s, 8, 4),
                opt_fn,
                SoftmaxCrossEntropy
            ),
            Err(CheckpointError::BadProgress(_))
        ));
    }

    #[test]
    fn stage_pipe_depth_zero_is_serial_and_stalls_never_exceed_cost() {
        // Depth 0: the stall is the full cost, always.
        let mut serial = StagePipe::new(0, 1000);
        for cost in [5u64, 17, 0, 400] {
            assert_eq!(serial.arrive(cost, 12345), cost);
            serial.popped(12345 + cost);
        }
        // Depth 1, uniform steps: batch 0 pays in full (nothing was
        // assembled before the epoch), every later batch is fully hidden
        // when compute dominates staging.
        let mut pipe = StagePipe::new(1, 0);
        let mut now = 0u64;
        let (stage, compute) = (10u64, 50u64);
        let first = pipe.arrive(stage, now);
        assert_eq!(first, stage);
        now += first;
        pipe.popped(now);
        for _ in 0..5 {
            now += compute;
            let stall = pipe.arrive(stage, now);
            assert_eq!(stall, 0, "staging hides entirely under compute");
            pipe.popped(now);
        }
        // Stage-bound the other way round: compute shorter than staging
        // still never stalls longer than the full cost.
        let mut bound = StagePipe::new(2, 0);
        let mut t = 0u64;
        for _ in 0..6 {
            let stall = bound.arrive(100, t);
            assert!(stall <= 100, "stall {stall} exceeds the staging cost");
            t += stall;
            bound.popped(t);
            t += 20; // short compute
        }
    }

    #[test]
    fn prefetch_training_is_bit_identical_and_prices_the_hidden_stage() {
        let ds = toy_dataset(256, 8, 4, 47);
        let run = |depth: usize| {
            let cfg = TrainConfig {
                workers: 2,
                epochs: 3,
                batch_per_worker: 16,
                base_lr: 0.05,
                lr_scaling: true,
                warmup_epochs: 1,
                seed: 47,
                checkpoint: Some(CheckpointPolicy::every(5)),
            };
            Trainer::new(cfg)
                .prefetch(depth)
                .run(
                    &ds,
                    |s| mlp(s, 8, 4),
                    |lr| Box::new(Sgd::new(lr, 0.9, 0.0)),
                    SoftmaxCrossEntropy,
                )
                .expect("no snapshot to validate")
                .completed()
        };
        let base = run(0);
        assert_eq!(base.breakdown.stage_overlap_saved_ps, 0, "depth 0 is serial");
        for depth in [1usize, 2, 4] {
            let got = run(depth);
            let same_params = base
                .final_params
                .iter()
                .zip(&got.final_params)
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same_params, "depth {depth}: parameters diverged");
            assert_eq!(base.final_state, got.final_state, "depth {depth}: BN state");
            for (a, b) in base.epochs.iter().zip(&got.epochs) {
                assert_eq!(
                    a.mean_loss.to_bits(),
                    b.mean_loss.to_bits(),
                    "depth {depth}: epoch {} loss",
                    a.epoch
                );
            }
            // The full staging cost is charged either way; only the
            // stalled share differs — and the partition invariant holds
            // exactly, so the wall shrinks by exactly the hidden share.
            assert_eq!(base.breakdown.stage_ps, got.breakdown.stage_ps);
            assert_eq!(base.breakdown.compute_ps, got.breakdown.compute_ps);
            assert_eq!(base.breakdown.allreduce_ps, got.breakdown.allreduce_ps);
            assert_eq!(base.breakdown.checkpoint_ps, got.breakdown.checkpoint_ps);
            assert!(
                got.breakdown.stage_overlap_saved_ps > 0,
                "depth {depth} must hide some staging"
            );
            assert_eq!(got.breakdown.total_ps(), got.sim_wall_ps);
            assert_eq!(
                got.sim_wall_ps + got.breakdown.stage_overlap_saved_ps,
                base.sim_wall_ps,
                "depth {depth}: wall must shrink by exactly the hidden share"
            );
            assert!(!got.checkpoints.is_empty(), "checkpoints still fire");
        }
    }

    #[test]
    fn prefetch_composes_with_fusion_and_codecs_bit_exactly() {
        let ds = toy_dataset(128, 8, 4, 53);
        let run = |depth: usize, codec: GradCodec| {
            let cfg = TrainConfig {
                workers: 4,
                epochs: 2,
                batch_per_worker: 8,
                base_lr: 0.05,
                lr_scaling: true,
                warmup_epochs: 1,
                seed: 53,
                checkpoint: None,
            };
            Trainer::new(cfg)
                .fusion(FusionConfig::fused(1024))
                .codec(codec)
                .prefetch(depth)
                .run(
                    &ds,
                    |s| mlp(s, 8, 4),
                    |lr| Box::new(Sgd::new(lr, 0.9, 0.0)),
                    SoftmaxCrossEntropy,
                )
                .expect("no snapshot to validate")
                .completed()
        };
        for codec in [
            GradCodec::Dense32,
            GradCodec::Bf16,
            GradCodec::SparseTopK { ratio: 0.05 },
        ] {
            let off = run(0, codec);
            let on = run(2, codec);
            let same_params = off
                .final_params
                .iter()
                .zip(&on.final_params)
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same_params, "{codec:?}: prefetch changed the parameters");
            // Both overlap terms coexist and the invariant stays exact.
            assert!(on.breakdown.overlap_saved_ps > 0, "{codec:?}: allreduce overlap");
            assert!(on.breakdown.stage_overlap_saved_ps > 0, "{codec:?}: stage overlap");
            assert_eq!(on.breakdown.total_ps(), on.sim_wall_ps);
        }
    }
}
