//! The checkpoint/restart contract, end to end: a data-parallel run
//! killed mid-flight and resumed from its last full training-state
//! snapshot must be indistinguishable — bit for bit — from the run that
//! was never killed; and a snapshot the run cannot resume from is a typed
//! error, never a panic on a rank.

mod common;

use common::*;
use msa_suite::msa_obs::MetricsRegistry;
use std::sync::Arc;

#[test]
fn killed_and_resumed_run_is_bit_identical_to_uninterrupted() {
    check(&Cell {
        fault: Fault::KillResume,
        ..base()
    });
}

#[test]
fn resumed_run_survives_a_second_kill() {
    check(&Cell {
        fault: Fault::KillResumeTwice,
        ..base()
    });
}

/// The fused, overlapped gradient exchange must not change the fault
/// contract: a kill between bucket allreduces aborts every rank at the
/// same lock-step boundary, and the fused resume matches the serialized
/// run that was never killed.
#[test]
fn fused_overlapped_run_killed_mid_flight_resumes_bit_exact() {
    check(&Cell {
        fusion: FusionConfig::fused(1024),
        fault: Fault::KillResume,
        ..base()
    });
}

fn snapshot() -> Vec<u8> {
    let report = Trainer::new(config())
        .run(&dataset(), mlp, sgd, SoftmaxCrossEntropy)
        .expect("no snapshot to validate")
        .completed();
    report.latest_snapshot.expect("checkpoints were taken")
}

#[test]
fn corrupted_snapshot_is_rejected_not_resumed() {
    let ds = dataset();
    let snapshot = snapshot();

    // A single flipped payload bit must surface as a typed error from the
    // container layer — never a panic, never a silent bad resume.
    let mut corrupt = snapshot.clone();
    let mid = corrupt.len() / 2;
    corrupt[mid] ^= 0x01;
    let err = Trainer::new(config())
        .resume(&corrupt)
        .run(&ds, mlp, sgd, SoftmaxCrossEntropy)
        .expect_err("corruption must be detected");
    assert!(matches!(err, CheckpointError::Snapshot(_)), "got {err:?}");

    // Truncation too.
    let err = Trainer::new(config())
        .resume(&snapshot[..snapshot.len() - 5])
        .run(&ds, mlp, sgd, SoftmaxCrossEntropy)
        .expect_err("truncation must be detected");
    assert!(matches!(err, CheckpointError::Snapshot(_)), "got {err:?}");
}

/// Top-k's per-bucket error-feedback residual is not in the snapshot, so
/// a resume would diverge from the uninterrupted run. Writing the
/// snapshot stays allowed (serving loads it); resuming from it is a
/// typed error naming the codec.
#[test]
fn resume_under_topk_is_refused_not_silently_wrong() {
    check(&Cell {
        codec: GradCodec::SparseTopK { ratio: 0.05 },
        fault: Fault::KillResume,
        ..base()
    });
}

#[test]
fn resume_under_another_optimizer_is_refused() {
    let err = Trainer::new(config())
        .resume(&snapshot())
        .run(&dataset(), mlp, adam, SoftmaxCrossEntropy)
        .expect_err("Adam cannot load Sgd's momentum");
    assert!(
        matches!(
            err,
            CheckpointError::Snapshot(
                msa_suite::nn::serialize::SnapshotError::ShapeMismatch { .. }
            )
        ),
        "got {err:?}"
    );
}

#[test]
fn resume_on_another_dataset_is_refused() {
    let err = Trainer::new(config())
        .resume(&snapshot())
        .run(&toy_dataset(96, 8, 4, 47), mlp, sgd, SoftmaxCrossEntropy)
        .expect_err("a shorter shard draws a shorter shuffle");
    assert!(
        matches!(
            err,
            CheckpointError::ConfigMismatch {
                what: "shuffle stream",
                ..
            }
        ),
        "got {err:?}"
    );
}

/// Replicas that diverge together to NaN still agree bit for bit: the run
/// completes and reports its non-finite parameters and a NaN loss, which
/// the metrics count instead of gauging.
#[test]
fn diverged_run_returns_its_report() {
    let cfg = TrainConfig {
        base_lr: 1e30,
        ..config()
    };
    let rec = Arc::new(MetricsRegistry::new());
    let report = Trainer::new(cfg)
        .recorder(Arc::clone(&rec))
        .run(&dataset(), mlp, sgd, SoftmaxCrossEntropy)
        .expect("no snapshot to validate")
        .completed();
    assert!(report.final_params.iter().all(|w| !w.is_finite()));
    let last = report.epochs.last().map(|e| e.mean_loss);
    assert!(last.is_some_and(f32::is_nan), "last epoch loss {last:?}");
    let snap = rec.snapshot();
    let epoch = report.epochs.len() - 1;
    let count = snap.get(&format!(
        "trainer.epoch.nonfinite_loss{{epoch={epoch},rank=0}}"
    ));
    assert_eq!(count.and_then(|m| m.as_counter()), Some(1));
}
