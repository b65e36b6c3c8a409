//! Training-state checkpointing for the data-parallel trainer.
//!
//! A *model* snapshot (weights + batch-norm state) is not enough to
//! restart an interrupted training run: the optimiser's momentum/moment
//! buffers, the shuffle-RNG stream position and the partially-accumulated
//! epoch statistics all feed the next step. This module defines the
//! trainer-side progress record that rides in the **meta section** of an
//! `nn::serialize` training snapshot (MSNN v3, layout in that module),
//! the policy that decides when rank 0 takes one, and the cost-model
//! bridge into [`msa_storage::CheckpointTarget`] so a run reports what
//! its snapshots would cost on the SSSM parallel FS vs the NAM.
//!
//! # The MSTP record
//!
//! ```text
//! "MSTP" · u32 version=1 · u32 workers · u64 seed · u64 epoch
//! · u64 step_in_epoch · u64 steps_done · u32 lr_bits
//! · u32 history_len · history_len × (f32 mean_loss, f32 lr)
//! · u32 ranks (= workers) · ranks × (u64 rng_pos_start, u64 rng_pos_now, u64 loss_sum_bits)
//! ```
//!
//! All little-endian; [`TrainerProgress::decode`] makes any other input
//! [`CheckpointError::BadProgress`]. The per-rank u64/f64 values reach
//! rank 0 as f32 *bit patterns* through one allgather.
//!
//! # The resume contract
//!
//! A `msa_net::FaultPlan` fires on every rank at the same lock-step
//! boundary, and the run returns the last snapshot. `Trainer::resume`
//! checks, before any rank starts, the worker count, seed and LR-schedule
//! point bit for bit, that the run's optimiser accepts the saved state,
//! and that each rank's interrupted shuffle, re-drawn over its shard,
//! ends at the recorded word position; each failure is a typed
//! [`CheckpointError`]. The ranks then skip the completed steps and
//! restore their partial loss sums, and the run finishes with
//! **bit-identical** parameters, batch-norm state and per-epoch losses to
//! the run never killed. Top-k refuses with
//! [`CheckpointError::UnresumableCodec`]: its error-feedback residual is
//! not in the snapshot.

use crate::trainer::{EpochCursor, EpochStats};
use msa_core::SimTime;
use msa_net::{Communicator, GradCodec};
use msa_storage::CheckpointTarget;
use nn::serialize::SnapshotError;
use nn::{u64_to_words, words_to_u64};

/// When and "where" the trainer checkpoints.
///
/// Snapshots are built in memory on rank 0 (the latest one is returned in
/// [`crate::TrainReport::latest_snapshot`]); `target` prices each write
/// against a storage tier without performing real I/O, mirroring how the
/// Young–Daly analysis consumes checkpoint costs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CheckpointPolicy {
    /// Take a snapshot every this many completed global steps (must be
    /// positive).
    pub every_steps: u64,
    /// Storage tier whose bandwidth prices the snapshot writes.
    pub target: CheckpointTarget,
}

impl CheckpointPolicy {
    /// Checkpoint every `every_steps` steps to the NAM (the fast tier the
    /// paper's reference \[12\] motivates).
    pub fn every(every_steps: u64) -> Self {
        Self::every_on(every_steps, CheckpointTarget::nam())
    }

    /// Same interval, priced against the shared parallel FS.
    pub fn every_on(every_steps: u64, target: CheckpointTarget) -> Self {
        assert!(every_steps > 0, "checkpoint interval must be positive");
        CheckpointPolicy {
            every_steps,
            target,
        }
    }
}

/// One checkpoint the trainer took.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointRecord {
    /// Completed global steps at snapshot time.
    pub global_step: u64,
    /// Epoch in progress at snapshot time.
    pub epoch: usize,
    /// Snapshot size in bytes (real `nn::serialize` output, not a model).
    pub bytes: u64,
    /// What writing it would cost on the policy's target tier.
    pub write_cost: SimTime,
}

/// Everything beyond weights the trainer needs to resume bit-exactly:
/// the MSTP record of the module doc. Per-rank vectors are indexed by
/// rank and gathered over the communicator at snapshot time.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainerProgress {
    /// Communicator size the snapshot was taken with.
    pub workers: u32,
    /// The run's seed (weight init + shuffling); must match on resume.
    pub seed: u64,
    /// Epoch in progress.
    pub epoch: u64,
    /// Completed steps within that epoch.
    pub step_in_epoch: u64,
    /// Completed global steps.
    pub steps_done: u64,
    /// Effective LR at snapshot time as f32 bits (compared bit-exactly
    /// against the resuming config's schedule).
    pub lr_bits: u32,
    /// `(mean_loss, lr)` of every completed epoch, in order.
    pub history: Vec<(f32, f32)>,
    /// Per-rank shuffle-RNG word position at the start of the current
    /// epoch's batch draw (the seek target on resume).
    pub rng_pos_start: Vec<u64>,
    /// Per-rank word position after that draw (validates the re-draw).
    pub rng_pos_now: Vec<u64>,
    /// Per-rank partial-epoch loss accumulator as f64 bits.
    pub loss_sum_bits: Vec<u64>,
}

const MAGIC: &[u8; 4] = b"MSTP";
const VERSION: u32 = 1;

impl TrainerProgress {
    /// Collective: gathers every rank's shuffle-RNG positions and partial
    /// loss sum (as f32 bit-patterns — exact transport, same trick as the
    /// sparse-allreduce index encoding) and assembles the record on
    /// rank 0, the only rank that snapshots; other ranks get `None`.
    pub(crate) fn gather<C: Communicator + ?Sized>(
        comm: &C,
        seed: u64,
        steps_done: u64,
        at: &EpochCursor,
        history: &[EpochStats],
    ) -> Option<TrainerProgress> {
        let mut words = Vec::with_capacity(6);
        for v in [at.rng_pos_start, at.rng_pos_now, at.loss_sum.to_bits()] {
            words.extend_from_slice(&u64_to_words(v));
        }
        let gathered = comm.allgather(&words);
        let column = |i: usize| -> Vec<u64> {
            gathered
                .iter()
                .map(|w| words_to_u64([w[i], w[i + 1]]))
                .collect()
        };
        (comm.rank() == 0).then(|| TrainerProgress {
            workers: comm.size() as u32,
            seed,
            epoch: at.epoch as u64,
            step_in_epoch: at.step_in_epoch as u64,
            steps_done,
            lr_bits: at.lr.to_bits(),
            history: history.iter().map(|e| (e.mean_loss, e.lr)).collect(),
            rng_pos_start: column(0),
            rng_pos_now: column(2),
            loss_sum_bits: column(4),
        })
    }

    /// Serialises the record into the v2 snapshot's meta section.
    pub fn encode(&self) -> Vec<u8> {
        let ranks = self.rng_pos_start.len();
        assert_eq!(ranks, self.rng_pos_now.len());
        assert_eq!(ranks, self.loss_sum_bits.len());
        let mut out = Vec::with_capacity(52 + self.history.len() * 8 + ranks * 24);
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&self.workers.to_le_bytes());
        out.extend_from_slice(&self.seed.to_le_bytes());
        out.extend_from_slice(&self.epoch.to_le_bytes());
        out.extend_from_slice(&self.step_in_epoch.to_le_bytes());
        out.extend_from_slice(&self.steps_done.to_le_bytes());
        out.extend_from_slice(&self.lr_bits.to_le_bytes());
        out.extend_from_slice(&(self.history.len() as u32).to_le_bytes());
        for &(loss, lr) in &self.history {
            out.extend_from_slice(&loss.to_le_bytes());
            out.extend_from_slice(&lr.to_le_bytes());
        }
        out.extend_from_slice(&(ranks as u32).to_le_bytes());
        for r in 0..ranks {
            out.extend_from_slice(&self.rng_pos_start[r].to_le_bytes());
            out.extend_from_slice(&self.rng_pos_now[r].to_le_bytes());
            out.extend_from_slice(&self.loss_sum_bits[r].to_le_bytes());
        }
        out
    }

    /// Parses a meta section written by [`TrainerProgress::encode`].
    pub fn decode(bytes: &[u8]) -> Result<TrainerProgress, CheckpointError> {
        let mut c = Cursor { bytes, off: 0 };
        if c.take()? != *MAGIC {
            return Err(CheckpointError::BadProgress("bad progress magic"));
        }
        let version = c.u32()?;
        if version != VERSION {
            return Err(CheckpointError::BadProgress("unsupported progress version"));
        }
        let workers = c.u32()?;
        let seed = c.u64()?;
        let epoch = c.u64()?;
        let step_in_epoch = c.u64()?;
        let steps_done = c.u64()?;
        let lr_bits = c.u32()?;
        // Collecting a `Result` reserves nothing up front, so a forged
        // count fails at the first missing byte, not in the allocator.
        let history = (0..c.u32()?)
            .map(|_| Ok((f32::from_bits(c.u32()?), f32::from_bits(c.u32()?))))
            .collect::<Result<Vec<_>, CheckpointError>>()?;
        let ranks = c.u32()?;
        if ranks != workers {
            return Err(CheckpointError::BadProgress(
                "per-rank section disagrees with worker count",
            ));
        }
        let rows = (0..ranks)
            .map(|_| Ok([c.u64()?, c.u64()?, c.u64()?]))
            .collect::<Result<Vec<_>, CheckpointError>>()?;
        let column = |i: usize| rows.iter().map(|row| row[i]).collect();
        if c.off != bytes.len() {
            return Err(CheckpointError::BadProgress("trailing bytes after progress"));
        }
        Ok(TrainerProgress {
            workers,
            seed,
            epoch,
            step_in_epoch,
            steps_done,
            lr_bits,
            history,
            rng_pos_start: column(0),
            rng_pos_now: column(1),
            loss_sum_bits: column(2),
        })
    }
}

struct Cursor<'a> {
    bytes: &'a [u8],
    off: usize,
}

impl Cursor<'_> {
    /// The next `N` bytes, or the truncation error.
    fn take<const N: usize>(&mut self) -> Result<[u8; N], CheckpointError> {
        let next = self.bytes.get(self.off..).and_then(<[u8]>::first_chunk);
        let next = *next.ok_or(CheckpointError::BadProgress("progress record truncated"))?;
        self.off += N;
        Ok(next)
    }

    fn u32(&mut self) -> Result<u32, CheckpointError> {
        self.take().map(u32::from_le_bytes)
    }

    fn u64(&mut self) -> Result<u64, CheckpointError> {
        self.take().map(u64::from_le_bytes)
    }
}

/// Why a snapshot cannot seed a resumed run.
#[derive(Debug, Clone, PartialEq)]
pub enum CheckpointError {
    /// The container was rejected by `nn::serialize` (corruption, wrong
    /// version, shape mismatch, or a bare v1 model snapshot).
    Snapshot(SnapshotError),
    /// The meta section is not a valid trainer progress record.
    BadProgress(&'static str),
    /// The snapshot comes from an incompatible run configuration.
    ConfigMismatch {
        what: &'static str,
        snapshot: u64,
        config: u64,
    },
    /// The run's codec keeps state the snapshot does not capture: top-k's
    /// per-bucket error-feedback residual, so a resume would silently
    /// diverge from the uninterrupted run.
    UnresumableCodec(GradCodec),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Snapshot(e) => write!(f, "snapshot rejected: {e}"),
            CheckpointError::BadProgress(why) => write!(f, "bad progress record: {why}"),
            CheckpointError::ConfigMismatch {
                what,
                snapshot,
                config,
            } => write!(
                f,
                "snapshot/config mismatch on {what}: snapshot has {snapshot}, config has {config}"
            ),
            CheckpointError::UnresumableCodec(codec) => write!(
                f,
                "cannot resume under codec {}: its error-feedback residual is not in the snapshot",
                codec.name()
            ),
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Snapshot(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SnapshotError> for CheckpointError {
    fn from(e: SnapshotError) -> Self {
        CheckpointError::Snapshot(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TrainerProgress {
        TrainerProgress {
            workers: 4,
            seed: 0xDEAD_BEEF_CAFE_F00D,
            epoch: 3,
            step_in_epoch: 7,
            steps_done: 55,
            lr_bits: 0.4f32.to_bits(),
            history: vec![(1.25, 0.1), (0.5, 0.2), (0.25, 0.4)],
            rng_pos_start: vec![16, 32, 48, u64::MAX / 2],
            rng_pos_now: vec![24, 40, 56, u64::MAX / 2 + 8],
            loss_sum_bits: vec![
                1.5f64.to_bits(),
                (-0.25f64).to_bits(),
                0.0f64.to_bits(),
                f64::MAX.to_bits(),
            ],
        }
    }

    #[test]
    fn progress_roundtrips_bit_exactly() {
        let p = sample();
        let decoded = TrainerProgress::decode(&p.encode()).unwrap();
        assert_eq!(decoded, p);
        // The f64 accumulators survive as exact bit patterns.
        assert_eq!(f64::from_bits(decoded.loss_sum_bits[0]), 1.5);
        assert_eq!(f64::from_bits(decoded.loss_sum_bits[3]), f64::MAX);
    }

    #[test]
    fn malformed_progress_is_a_typed_error() {
        let good = sample().encode();
        // Wrong magic.
        let mut bad = good.clone();
        bad[0] ^= 0xFF;
        assert!(matches!(
            TrainerProgress::decode(&bad),
            Err(CheckpointError::BadProgress(_))
        ));
        // Unsupported version.
        let mut bad = good.clone();
        bad[4] = 99;
        assert!(matches!(
            TrainerProgress::decode(&bad),
            Err(CheckpointError::BadProgress(_))
        ));
        // Truncations at every prefix length must error, never panic.
        for len in 0..good.len() {
            assert!(
                TrainerProgress::decode(&good[..len]).is_err(),
                "prefix of {len} bytes accepted"
            );
        }
        // Trailing garbage is rejected too.
        let mut bad = good.clone();
        bad.push(0);
        assert!(matches!(
            TrainerProgress::decode(&bad),
            Err(CheckpointError::BadProgress(_))
        ));
        // A rank-section length that disagrees with `workers` is caught.
        let mut p = sample();
        p.workers = 2;
        assert!(matches!(
            TrainerProgress::decode(&p.encode()),
            Err(CheckpointError::BadProgress(_))
        ));
    }

    /// The parser is total: seeded truncations and byte overwrites of an
    /// encoded record never panic `decode`, and every input it accepts
    /// re-encodes to the same bytes.
    #[test]
    fn mutated_progress_parses_totally_and_round_trips() {
        let good = sample().encode();
        let mut rng = msa_core::XorShift(0x4D53_5450); // "MSTP"
        let (mut accepted, mut rejected) = (0, 0);
        for case in 0..4000 {
            let mut bytes = good.clone();
            let mut pick = |n: usize| rng.next_u64() as usize % n;
            if case % 4 == 0 {
                bytes.truncate(pick(good.len()));
            }
            for _ in 0..=pick(3) {
                let at = pick(bytes.len().max(1));
                // Small values hit the counts and fields as often as noise.
                let byte = if case % 2 == 0 { pick(256) } else { pick(4) };
                if let Some(b) = bytes.get_mut(at) {
                    *b = byte as u8;
                }
            }
            match TrainerProgress::decode(&bytes) {
                Ok(p) => {
                    assert_eq!(p.encode(), bytes, "case {case} re-encoded differently");
                    accepted += 1;
                }
                Err(_) => rejected += 1,
            }
        }
        assert!(
            accepted > 500 && rejected > 500,
            "{accepted} accepted, {rejected} rejected"
        );
    }

    #[test]
    fn policy_constructors_price_against_their_tier() {
        let nam = CheckpointPolicy::every(100);
        let pfs = CheckpointPolicy::every_on(100, CheckpointTarget::parallel_fs());
        assert_eq!(nam.every_steps, 100);
        let bytes = 512 * 1024 * 1024;
        assert!(
            nam.target.checkpoint_cost_bytes(bytes) < pfs.target.checkpoint_cost_bytes(bytes),
            "NAM writes must be cheaper than the PFS"
        );
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_interval_rejected() {
        let _ = CheckpointPolicy::every(0);
    }
}
