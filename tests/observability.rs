//! The msa-obs contract, end to end:
//!
//! 1. observability must be **deterministic** — two identical runs
//!    (including a fault-injected kill and a resume) must produce
//!    bit-identical metric snapshots;
//! 2. the trainer's phase breakdown must be **complete** — stage +
//!    compute + allreduce + checkpoint picoseconds sum exactly to the
//!    modeled wall time, nothing is dropped on the floor;
//! 3. the recorded collective traffic must **match the α–β cost model's
//!    inputs** — the bytes `CommStats` counts on the wire are the bytes
//!    `CollectiveAlgo` charges for, for both ring and recursive-doubling
//!    allreduce, including non-power-of-two rank counts.

mod common;

use std::sync::Arc;

use common::*;
use msa_suite::msa_net::{collectives, CollectiveOp};
use msa_suite::msa_obs::MetricsRegistry;

/// One full faulted-and-resumed job with observability on: kill rank 1 at
/// global step 7, resume from the step-6 snapshot, finish. Returns the
/// canonical byte encoding of everything that was recorded.
fn observed_faulted_run() -> Vec<u8> {
    let ds = dataset();
    let cfg = config();
    let rec = Arc::new(MetricsRegistry::new());

    let outcome = Trainer::new(cfg.clone())
        .fault(FaultPlan { rank: 1, at_step: 7 })
        .recorder(Arc::clone(&rec))
        .tag("job")
        .run(&ds, mlp, sgd, SoftmaxCrossEntropy)
        .expect("no resume snapshot to validate");
    let (failure, snapshot) = outcome.interrupted();
    assert_eq!(failure.at_step, 7);
    let snapshot = snapshot.expect("a checkpoint preceded the kill");

    let resumed = Trainer::new(cfg)
        .resume(&snapshot)
        .recorder(Arc::clone(&rec))
        .tag("job")
        .run(&ds, mlp, sgd, SoftmaxCrossEntropy)
        .expect("snapshot matches the config");
    let _ = resumed.completed();

    rec.snapshot().to_bytes()
}

#[test]
fn identical_faulted_runs_produce_bit_identical_snapshots() {
    let first = observed_faulted_run();
    let second = observed_faulted_run();
    assert!(!first.is_empty());
    assert_eq!(
        first, second,
        "metric snapshots of identical faulted+resumed runs must be bit-identical"
    );
}

#[test]
fn step_breakdown_sums_exactly_to_the_modeled_wall_time() {
    let ds = dataset();
    let rep = Trainer::new(config())
        .run(&ds, mlp, sgd, SoftmaxCrossEntropy)
        .expect("no resume snapshot to validate")
        .completed();

    let b = rep.breakdown;
    assert!(rep.sim_wall_ps > 0, "modeled wall time must be nonzero");
    assert!(b.compute_ps > 0 && b.allreduce_ps > 0 && b.stage_ps > 0);
    // Checkpointing was armed, so rank 0 paid for snapshot writes.
    assert!(b.checkpoint_ps > 0);
    // The headline invariant: integer picoseconds partition the wall
    // clock exactly. No rounding, no unattributed residue.
    assert_eq!(
        b.stage_ps + b.compute_ps + b.allreduce_ps + b.checkpoint_ps,
        rep.sim_wall_ps,
        "phase breakdown must partition the modeled wall time"
    );
    assert_eq!(b.total_ps(), rep.sim_wall_ps);
    // Per-epoch rollups partition the same total.
    let epoch_sum: u64 = rep.epoch_breakdown.iter().map(|e| e.phases.total_ps()).sum();
    assert_eq!(epoch_sum, rep.sim_wall_ps);
}

#[test]
fn ring_allreduce_traffic_matches_the_cost_model_inputs() {
    // 56 elements: divisible by 2, 7 and 8, so every chunk is exactly
    // n/p and the measured traffic must equal the model's 2(p−1)·B/p
    // per rank with no remainder slack.
    let n = 56usize;
    let payload = (n * std::mem::size_of::<f32>()) as u64;
    for p in [2usize, 7, 8] {
        let per_rank = wire_counts(p, n, CollectiveOp::Allreduce, |c, buf| {
            collectives::ring_allreduce(c, buf)
        });
        for (rank, &(msgs, bytes)) in per_rank.iter().enumerate() {
            // 2(p−1) steps — the α (message count) input of the model.
            assert_eq!(
                msgs,
                2 * (p as u64 - 1),
                "ring p={p} rank={rank} message count"
            );
            // Each step moves one n/p chunk — the β (bytes) input:
            // CollectiveAlgo::Ring charges 2(p−1) · bytes/p.
            assert_eq!(
                bytes,
                2 * (p as u64 - 1) * payload / p as u64,
                "ring p={p} rank={rank} bytes on the wire"
            );
        }
    }
}

#[test]
fn recursive_doubling_traffic_matches_the_cost_model_inputs() {
    let n = 56usize;
    let payload = (n * std::mem::size_of::<f32>()) as u64;
    for p in [2usize, 7, 8] {
        let per_rank = wire_counts(p, n, CollectiveOp::RecursiveDoubling, |c, buf| {
            collectives::recursive_doubling_allreduce(c, buf)
        });
        let logp = (p as f64).log2().ceil() as u64;
        // The model charges ⌈log₂ p⌉ rounds of the full buffer; the
        // busiest rank (the critical path) must send exactly that.
        let busiest = per_rank.iter().map(|&(_, b)| b).max().unwrap();
        assert_eq!(
            busiest,
            logp * payload,
            "recursive doubling p={p}: critical-path bytes"
        );
        // A power of two is symmetric, every rank critical; p = 7 folds
        // ranks ≥ 4 into ranks < 3, which also fold back out.
        for (rank, &(msgs, bytes)) in per_rank.iter().enumerate() {
            assert_eq!(msgs, rdb_sends(p, rank), "rd p={p} rank={rank} rounds");
            assert_eq!(bytes, msgs * payload, "rd p={p} rank={rank} bytes");
        }
    }
}
