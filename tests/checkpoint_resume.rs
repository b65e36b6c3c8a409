//! The checkpoint/restart contract, end to end: a data-parallel run
//! killed mid-flight and resumed from its last full training-state
//! snapshot must be indistinguishable — bit for bit — from the run that
//! was never killed.

use msa_suite::data::Dataset;
use msa_suite::distrib::{
    CheckpointError, CheckpointPolicy, FusionConfig, TrainConfig, TrainOutcome, Trainer,
};
use msa_suite::msa_net::{FaultPlan, GradCodec};
use msa_suite::nn::{Dense, Optimizer, Relu, Sequential, Sgd, SoftmaxCrossEntropy};
use msa_suite::tensor::{Rng, Tensor};

fn mlp(seed: u64) -> Sequential {
    let mut rng = Rng::seed(seed);
    Sequential::new()
        .push(Dense::new(8, 24, &mut rng))
        .push(Relu::new())
        .push(Dense::new(24, 4, &mut rng))
}

fn opt(lr: f32) -> Box<dyn Optimizer> {
    Box::new(Sgd::new(lr, 0.9, 1e-4))
}

fn toy_dataset(n: usize, seed: u64) -> Dataset {
    let dim = 8;
    let classes = 4;
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

fn config() -> TrainConfig {
    TrainConfig {
        workers: 2,
        epochs: 4,
        batch_per_worker: 16,
        base_lr: 0.05,
        lr_scaling: true,
        warmup_epochs: 1,
        seed: 9,
        checkpoint: Some(CheckpointPolicy::every(3)),
    }
}

#[test]
fn killed_and_resumed_run_is_bit_identical_to_uninterrupted() {
    let ds = toy_dataset(256, 31);
    let cfg = config();

    // Reference: the run nothing ever happens to.
    let reference = Trainer::new(cfg.clone())
        .run(&ds, mlp, opt, SoftmaxCrossEntropy)
        .expect("no snapshot to validate")
        .completed();
    assert!(
        !reference.checkpoints.is_empty(),
        "policy must have produced snapshots"
    );

    // Same run, but rank 1 dies after 7 global steps (mid-epoch: each
    // epoch has 128/2/16 = 4 steps per rank).
    let outcome = Trainer::new(cfg.clone())
        .fault(FaultPlan {
            rank: 1,
            at_step: 7,
        })
        .run(&ds, mlp, opt, SoftmaxCrossEntropy)
        .expect("no snapshot to validate");
    let TrainOutcome::Interrupted { failure, snapshot } = outcome else {
        panic!("armed fault must interrupt the run");
    };
    assert_eq!(failure.rank, 1);
    assert_eq!(failure.at_step, 7);
    // The policy snapshots every 3 steps, so step 6 was captured.
    let snapshot = snapshot.expect("a checkpoint preceded the kill");

    // Resume and finish.
    let resumed = Trainer::new(cfg.clone())
        .resume(&snapshot)
        .run(&ds, mlp, opt, SoftmaxCrossEntropy)
        .expect("snapshot matches the config");
    let TrainOutcome::Completed(resumed) = resumed else {
        panic!("resumed run has no fault armed");
    };

    // The headline invariant: bit-exact parameters, state and statistics.
    assert_eq!(resumed.final_params, reference.final_params);
    assert_eq!(resumed.final_state, reference.final_state);
    assert_eq!(resumed.steps_per_rank, reference.steps_per_rank);
    assert_eq!(resumed.epochs.len(), reference.epochs.len());
    for (r, e) in resumed.epochs.iter().zip(&reference.epochs) {
        assert_eq!(r.epoch, e.epoch);
        assert_eq!(
            r.mean_loss.to_bits(),
            e.mean_loss.to_bits(),
            "epoch {} mean loss diverged: {} vs {}",
            r.epoch,
            r.mean_loss,
            e.mean_loss
        );
        assert_eq!(r.lr.to_bits(), e.lr.to_bits());
    }
}

#[test]
fn resumed_run_survives_a_second_kill() {
    // Fail, resume, fail again, resume again — still bit-exact.
    let ds = toy_dataset(256, 37);
    let cfg = config();
    let reference = Trainer::new(cfg.clone())
        .run(&ds, mlp, opt, SoftmaxCrossEntropy)
        .expect("no snapshot to validate")
        .completed();

    let first = Trainer::new(cfg.clone())
        .fault(FaultPlan {
            rank: 0,
            at_step: 5,
        })
        .run(&ds, mlp, opt, SoftmaxCrossEntropy)
        .expect("no snapshot to validate");
    let TrainOutcome::Interrupted { snapshot, .. } = first else {
        panic!("first fault must fire");
    };
    let snap1 = snapshot.expect("step-3 checkpoint exists");

    // The second fault's step counter is global, so a kill at step 11
    // interrupts the *resumed* run too.
    let second = Trainer::new(cfg.clone())
        .resume(&snap1)
        .fault(FaultPlan {
            rank: 1,
            at_step: 11,
        })
        .run(&ds, mlp, opt, SoftmaxCrossEntropy)
        .expect("snapshot matches the config");
    let TrainOutcome::Interrupted { failure, snapshot } = second else {
        panic!("second fault must fire");
    };
    assert_eq!(failure.at_step, 11);
    let snap2 = snapshot.expect("step-9 checkpoint exists");

    let final_run = Trainer::new(cfg.clone())
        .resume(&snap2)
        .run(&ds, mlp, opt, SoftmaxCrossEntropy)
        .expect("snapshot matches the config");
    let TrainOutcome::Completed(resumed) = final_run else {
        panic!("final resume has no fault armed");
    };
    assert_eq!(resumed.final_params, reference.final_params);
    assert_eq!(resumed.steps_per_rank, reference.steps_per_rank);
}

/// PR5: the fused, overlapped gradient exchange must not change the
/// fault contract. A rank killed between bucket allreduces aborts every
/// rank at the same lock-step boundary, the surviving snapshot is the
/// one the policy took before the kill, and resuming from it (still
/// fused + overlapped) is bit-identical to the serialized reference run
/// that was never killed.
#[test]
fn fused_overlapped_run_killed_mid_flight_resumes_bit_exact() {
    let ds = toy_dataset(256, 31);
    let cfg = config();
    // 1 KiB buckets split the 24·8+24 + 24·4+4 = 412-param model into
    // several buckets, so the kill lands between bucket exchanges.
    let fusion = FusionConfig::fused(1024);

    // Reference: the serialized run nothing ever happens to.
    let reference = Trainer::new(cfg.clone())
        .run(&ds, mlp, opt, SoftmaxCrossEntropy)
        .expect("no snapshot to validate")
        .completed();

    let outcome = Trainer::new(cfg.clone())
        .fusion(fusion)
        .fault(FaultPlan {
            rank: 1,
            at_step: 7,
        })
        .run(&ds, mlp, opt, SoftmaxCrossEntropy)
        .expect("no snapshot to validate");
    let TrainOutcome::Interrupted { failure, snapshot } = outcome else {
        panic!("armed fault must interrupt the fused run");
    };
    // Lock-step abort: every rank stops at the same global step.
    assert_eq!(failure.rank, 1);
    assert_eq!(failure.at_step, 7);
    let snapshot = snapshot.expect("the step-6 checkpoint preceded the kill");

    let resumed = Trainer::new(cfg.clone())
        .fusion(fusion)
        .resume(&snapshot)
        .run(&ds, mlp, opt, SoftmaxCrossEntropy)
        .expect("snapshot matches the config");
    let TrainOutcome::Completed(resumed) = resumed else {
        panic!("resumed run has no fault armed");
    };

    // Fused + overlapped + killed + resumed ≡ serialized uninterrupted.
    assert_eq!(resumed.final_params, reference.final_params);
    assert_eq!(resumed.final_state, reference.final_state);
    assert_eq!(resumed.steps_per_rank, reference.steps_per_rank);
    for (r, e) in resumed.epochs.iter().zip(&reference.epochs) {
        assert_eq!(r.mean_loss.to_bits(), e.mean_loss.to_bits());
    }
}

#[test]
fn corrupted_snapshot_is_rejected_not_resumed() {
    let ds = toy_dataset(128, 41);
    let cfg = config();
    let report = Trainer::new(cfg.clone())
        .run(&ds, mlp, opt, SoftmaxCrossEntropy)
        .expect("no snapshot to validate")
        .completed();
    let snapshot = report.latest_snapshot.expect("checkpoints were taken");

    // A single flipped payload bit must surface as a typed error from the
    // container layer — never a panic, never a silent bad resume.
    let mut corrupt = snapshot.clone();
    let mid = corrupt.len() / 2;
    corrupt[mid] ^= 0x01;
    let err = Trainer::new(cfg.clone())
        .resume(&corrupt)
        .run(&ds, mlp, opt, SoftmaxCrossEntropy)
        .expect_err("corruption must be detected");
    assert!(matches!(err, CheckpointError::Snapshot(_)), "got {err:?}");

    // Truncation too.
    let err = Trainer::new(cfg)
        .resume(&snapshot[..snapshot.len() - 5])
        .run(&ds, mlp, opt, SoftmaxCrossEntropy)
        .expect_err("truncation must be detected");
    assert!(matches!(err, CheckpointError::Snapshot(_)), "got {err:?}");
}

#[test]
fn resume_under_topk_is_refused_not_silently_wrong() {
    // Top-k's per-bucket error-feedback residual is not in the snapshot,
    // so a resume would diverge from the uninterrupted run. Writing the
    // snapshot stays allowed (serving loads it); resuming from it is a
    // typed error naming the codec.
    let ds = toy_dataset(256, 31);
    let codec = GradCodec::SparseTopK { ratio: 0.05 };
    let outcome = Trainer::new(config())
        .codec(codec)
        .fault(FaultPlan {
            rank: 1,
            at_step: 7,
        })
        .run(&ds, mlp, opt, SoftmaxCrossEntropy)
        .expect("no snapshot to validate");
    let TrainOutcome::Interrupted { snapshot, .. } = outcome else {
        panic!("armed fault must interrupt the run");
    };
    let snapshot = snapshot.expect("top-k runs still write snapshots");
    let err = Trainer::new(config())
        .codec(codec)
        .resume(&snapshot)
        .run(&ds, mlp, opt, SoftmaxCrossEntropy)
        .expect_err("top-k resume must be refused");
    assert_eq!(err, CheckpointError::UnresumableCodec(codec));
    assert!(err.to_string().contains("topk0.05"), "{err}");
}
