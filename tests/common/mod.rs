//! The trainer's end-to-end fixture and its equivalence matrix, shared by
//! the root suites that train.
//!
//! **Fixture.** One toy dataset (class = the hot coordinate among the
//! first `classes`, under Gaussian noise), one MLP with and without a
//! batch-norm layer, `Sgd` and `Adam`, and one [`TrainConfig`].
//!
//! **Matrix.** Data-parallel training must not change its answer with
//! the schedule it runs, nor when it is killed and resumed. A [`Cell`] is
//! one point of the product of [`WORKERS`], [`CODECS`], [`fusions`],
//! [`DISPATCHES`], [`PREFETCH`], [`FAULTS`] and [`MODELS`]; [`check`]
//! trains it and its [`Cell::reference`] and asserts what the cell
//! promises: bit-equal final parameters, final state, per-epoch losses
//! and step count, or, for a top-k resume, the typed refusal
//! `UnresumableCodec`. Every run's phase breakdown must also sum to its
//! modeled wall time. A failing cell prints itself as a `Cell { .. }`
//! literal to paste into a named test.
//!
//! `tests/equivalence.rs` runs a seeded sample of the product in tier-1
//! and the whole product under `--ignored`.

#![allow(dead_code)] // each suite uses its own part of the fixture

use std::fmt;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, OnceLock};

pub use msa_suite::data::Dataset;
pub use msa_suite::distrib::{
    CheckpointError, CheckpointPolicy, ExchangeDispatch, FusionConfig, TrainConfig, TrainOutcome,
    TrainReport, Trainer,
};
use msa_suite::msa_net::{CollectiveOp, PointToPoint, ThreadComm};
pub use msa_suite::msa_net::{DecisionTable, FaultPlan, GradCodec};
pub use msa_suite::nn::SoftmaxCrossEntropy;
use msa_suite::nn::{Adam, BatchNorm, Dense, Optimizer, Relu, Sequential, Sgd};
use msa_suite::tensor::{Rng, Tensor};

/// `n` rows of `dim` noisy features over `classes` classes.
pub fn toy_dataset(n: usize, dim: usize, classes: usize, seed: u64) -> Dataset {
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

/// The matrix's dataset: 128 rows of 8 features over 4 classes.
pub fn dataset() -> Dataset {
    toy_dataset(128, 8, 4, 47)
}

/// 8 → 32 → 4 with a ReLU: 420 parameters, which a 1 KiB fusion
/// threshold cuts into two buckets and a 64-byte one into one per layer.
pub fn mlp(seed: u64) -> Sequential {
    let mut rng = Rng::seed(seed);
    Sequential::new()
        .push(Dense::new(8, 32, &mut rng))
        .push(Relu::new())
        .push(Dense::new(32, 4, &mut rng))
}

/// [`mlp`] with batch norm after the hidden layer, so the run carries
/// non-trainable state (`TrainReport::final_state`).
pub fn mlp_bn(seed: u64) -> Sequential {
    let mut rng = Rng::seed(seed);
    Sequential::new()
        .push(Dense::new(8, 32, &mut rng))
        .push(BatchNorm::new(32))
        .push(Relu::new())
        .push(Dense::new(32, 4, &mut rng))
}

pub fn sgd(lr: f32) -> Box<dyn Optimizer> {
    Box::new(Sgd::new(lr, 0.9, 1e-4))
}

pub fn adam(lr: f32) -> Box<dyn Optimizer> {
    Box::new(Adam::new(lr))
}

/// Two workers, four epochs of batch 8 (four steps per epoch at p = 4),
/// a snapshot every three global steps.
pub fn config() -> TrainConfig {
    TrainConfig {
        workers: 2,
        epochs: 4,
        batch_per_worker: 8,
        base_lr: 0.05,
        lr_scaling: true,
        warmup_epochs: 1,
        seed: 9,
        checkpoint: Some(CheckpointPolicy::every(3)),
    }
}

/// The committed decision table, parsed once.
pub fn tuned_table() -> Arc<DecisionTable> {
    static TABLE: OnceLock<Arc<DecisionTable>> = OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let text = include_str!("../../TUNE_pr7.table");
        Arc::new(DecisionTable::parse(text).expect("TUNE_pr7.table parses"))
    });
    Arc::clone(table)
}

/// Runs `collective` over `p` fresh ranks on `len` ones, checks the sum,
/// and returns each rank's `(msgs_sent, bytes_sent)` under `op`.
pub fn wire_counts(
    p: usize,
    len: usize,
    op: CollectiveOp,
    collective: impl Fn(&ThreadComm, &mut [f32]) + Sync,
) -> Vec<(u64, u64)> {
    ThreadComm::run(p, |c| {
        let mut buf = vec![1.0f32; len];
        collective(c, &mut buf);
        assert!(
            buf.iter().all(|&v| (v - p as f32).abs() < 1e-5),
            "p={p}: wrong sum"
        );
        let t = c.stats().expect("ThreadComm keeps stats").export().op(op);
        (t.msgs_sent, t.bytes_sent)
    })
}

/// Full-buffer sends of `rank` in fold-in/fold-out recursive doubling
/// over `p` ranks: the largest power of two p2 ≤ p runs the core
/// exchange (log₂ p2 sends per rank), and the rem = p − p2 extra ranks
/// fold into partners 0..rem (one send in, one send back out).
pub fn rdb_sends(p: usize, rank: usize) -> u64 {
    let p2 = 1usize << p.ilog2();
    let rounds = p2.ilog2() as u64;
    match rank {
        r if r >= p2 => 1,
        r if r < p - p2 => rounds + 1,
        _ => rounds,
    }
}

/// Which allreduce each bucket runs: [`ExchangeDispatch`] without its
/// table (`Tuned` uses [`tuned_table`]), so a cell prints as a literal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dispatch {
    Pipeline,
    Tuned,
}

/// What happens to the run before it completes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    None,
    /// Rank 1 (0 at p = 1) dies at global step 7; the run resumes from
    /// the step-6 snapshot at another prefetch depth.
    KillResume,
    /// Rank 0 dies at step 5 and the run resumes from step 3; then rank 1
    /// dies at step 11 and it resumes from step 9, both at its own depth.
    KillResumeTwice,
}

/// Model and optimiser.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Model {
    MlpSgd,
    BatchNormAdam,
}

pub const WORKERS: [usize; 3] = [1, 2, 4];
pub const CODECS: [GradCodec; 3] = [
    GradCodec::Dense32,
    GradCodec::Bf16,
    GradCodec::SparseTopK { ratio: 0.05 },
];
pub const DISPATCHES: [Dispatch; 2] = [Dispatch::Pipeline, Dispatch::Tuned];
pub const PREFETCH: [usize; 4] = [0, 1, 2, 4];
pub const FAULTS: [Fault; 3] = [Fault::None, Fault::KillResume, Fault::KillResumeTwice];
pub const MODELS: [Model; 2] = [Model::MlpSgd, Model::BatchNormAdam];

/// Unfused, unfused + overlap, fused(1024) without overlap, fused(1024)
/// and fused(64).
pub fn fusions() -> [FusionConfig; 5] {
    let (unfused, fused) = (FusionConfig::unfused(), FusionConfig::fused);
    [
        unfused,
        unfused.overlap(true),
        fused(1024).overlap(false),
        fused(1024),
        fused(64),
    ]
}

/// One point of the matrix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cell {
    pub workers: usize,
    pub codec: GradCodec,
    pub fusion: FusionConfig,
    pub dispatch: Dispatch,
    pub prefetch: usize,
    pub fault: Fault,
    pub model: Model,
}

/// Two workers, and every other coordinate at the first value of its
/// axis: the trainer's default.
pub fn base() -> Cell {
    cells()[1]
}

/// The whole product, workers varying fastest, then codec, fusion,
/// dispatch, prefetch, fault and model.
pub fn cells() -> Vec<Cell> {
    let fusions = fusions();
    let count = WORKERS.len() * CODECS.len() * fusions.len() * DISPATCHES.len();
    let count = count * PREFETCH.len() * FAULTS.len() * MODELS.len();
    let cell = |mut i: usize| {
        let mut pick = |len: usize| {
            let digit = i % len;
            i /= len;
            digit
        };
        Cell {
            workers: WORKERS[pick(WORKERS.len())],
            codec: CODECS[pick(CODECS.len())],
            fusion: fusions[pick(fusions.len())],
            dispatch: DISPATCHES[pick(DISPATCHES.len())],
            prefetch: PREFETCH[pick(PREFETCH.len())],
            fault: FAULTS[pick(FAULTS.len())],
            model: MODELS[pick(MODELS.len())],
        }
    };
    (0..count).map(cell).collect()
}

impl fmt::Display for Cell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Cell {{ workers: {}, codec: GradCodec::{:?}, fusion: {:?}, dispatch: Dispatch::{:?}, \
             prefetch: {}, fault: Fault::{:?}, model: Model::{:?} }}",
            self.workers,
            self.codec,
            self.fusion,
            self.dispatch,
            self.prefetch,
            self.fault,
            self.model
        )
    }
}

impl Cell {
    /// The run this cell must reproduce bit for bit. The dense pipeline
    /// chain, and bf16 under either dispatch, fold each element in an
    /// order that does not depend on the bucket partition, so their
    /// reference is the unfused, serial, depth-0, unfaulted run. Dense
    /// under tuned dispatch picks its algorithm per bucket size, and
    /// top-k selects per bucket, so theirs keeps `bucket_bytes` and turns
    /// off only overlap, prefetch and the fault.
    pub fn reference(&self) -> Cell {
        let invariant = matches!(
            (self.codec, self.dispatch),
            (GradCodec::Dense32, Dispatch::Pipeline) | (GradCodec::Bf16, _)
        );
        let fusion = if invariant {
            FusionConfig::unfused()
        } else {
            self.fusion.overlap(false)
        };
        Cell {
            fusion,
            prefetch: 0,
            fault: Fault::None,
            ..*self
        }
    }

    /// A trainer with every coordinate but the fault set explicitly.
    pub fn trainer(&self) -> Trainer {
        self.builder(true)
    }

    /// `explicit` false sets only the coordinates that differ from
    /// `Trainer::new`, so every reference run also checks the defaults.
    fn builder(&self, explicit: bool) -> Trainer {
        let mut t = Trainer::new(TrainConfig {
            workers: self.workers,
            ..config()
        });
        if explicit || self.codec != GradCodec::Dense32 {
            t = t.codec(self.codec);
        }
        if explicit || self.fusion != FusionConfig::unfused() {
            t = t.fusion(self.fusion);
        }
        if explicit || self.dispatch == Dispatch::Tuned {
            t = t.dispatch(match self.dispatch {
                Dispatch::Pipeline => ExchangeDispatch::Pipeline,
                Dispatch::Tuned => ExchangeDispatch::Tuned(tuned_table()),
            });
        }
        if explicit || self.prefetch != 0 {
            t = t.prefetch(self.prefetch);
        }
        t
    }

    /// Runs `t` on [`dataset`] with this cell's model and optimiser.
    pub fn run(&self, t: &Trainer) -> Result<TrainOutcome, CheckpointError> {
        let ds = dataset();
        match self.model {
            Model::MlpSgd => t.run(&ds, mlp, sgd, SoftmaxCrossEntropy),
            Model::BatchNormAdam => t.run(&ds, mlp_bn, adam, SoftmaxCrossEntropy),
        }
    }

    /// Trains the cell through its fault: each kill must interrupt the
    /// run at its step with a snapshot, and the run resumes from it.
    fn faulted(&self) -> Result<TrainReport, CheckpointError> {
        let kill = |rank: usize, at_step| FaultPlan {
            rank: rank.min(self.workers - 1),
            at_step,
        };
        let other_depth = if self.prefetch == 2 { 4 } else { 2 };
        let kills = match self.fault {
            Fault::None => vec![],
            Fault::KillResume => vec![(kill(1, 7), other_depth)],
            Fault::KillResumeTwice => {
                vec![(kill(0, 5), self.prefetch), (kill(1, 11), self.prefetch)]
            }
        };
        let (mut snapshot, mut depth) = (None::<Vec<u8>>, self.prefetch);
        let resumed = |depth: usize, snapshot: &Option<Vec<u8>>| {
            let t = self.trainer().prefetch(depth);
            snapshot.as_ref().map_or(t.clone(), |s| t.resume(s))
        };
        for (plan, next_depth) in kills {
            let (failure, snap) = self
                .run(&resumed(depth, &snapshot).fault(plan))?
                .interrupted();
            assert_eq!((failure.rank, failure.at_step), (plan.rank, plan.at_step));
            snapshot = Some(snap.expect("a checkpoint preceded the kill"));
            depth = next_depth;
        }
        Ok(self.run(&resumed(depth, &snapshot))?.completed())
    }
}

/// Asserts `got` and `want` hold the same bits, naming the first index
/// that differs.
fn same_bits(what: &str, got: &[f32], want: &[f32]) {
    let differs = |(i, (a, b)): (usize, (&f32, &f32))| (a.to_bits() != b.to_bits()).then_some(i);
    let first = got.iter().zip(want).enumerate().find_map(differs);
    assert!(
        got.len() == want.len() && first.is_none(),
        "{what} differ at {first:?}"
    );
}

/// `(epoch, mean loss bits, lr bits)` per epoch.
fn epoch_bits(r: &TrainReport) -> Vec<(usize, u32, u32)> {
    r.epochs
        .iter()
        .map(|e| (e.epoch, e.mean_loss.to_bits(), e.lr.to_bits()))
        .collect()
}

/// Asserts the contract `cell` promises; on failure prints the cell.
pub fn check(cell: &Cell) {
    if let Err(panic) = catch_unwind(AssertUnwindSafe(|| holds(cell))) {
        eprintln!("failing cell: {cell}");
        resume_unwind(panic);
    }
}

fn holds(cell: &Cell) {
    let partition = |r: &TrainReport| assert_eq!(r.breakdown.total_ps(), r.sim_wall_ps);
    let r = cell.reference();
    let want = r.run(&r.builder(false)).expect("no snapshot").completed();
    partition(&want);
    let got = cell.faulted();
    if let (GradCodec::SparseTopK { .. }, Fault::KillResume | Fault::KillResumeTwice) =
        (cell.codec, cell.fault)
    {
        // The error-feedback residual is not in the snapshot.
        let err = got.expect_err("a top-k resume must be refused");
        assert_eq!(err, CheckpointError::UnresumableCodec(cell.codec));
        assert!(err.to_string().contains(&cell.codec.name()), "{err}");
        return;
    }
    let got = got.expect("the snapshot matches the config");
    partition(&got);
    same_bits("final params", &got.final_params, &want.final_params);
    same_bits("final state", &got.final_state, &want.final_state);
    assert_eq!(epoch_bits(&got), epoch_bits(&want), "epoch losses");
    assert_eq!(got.steps_per_rank, want.steps_per_rank, "steps per rank");
}
