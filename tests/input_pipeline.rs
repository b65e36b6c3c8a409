//! The PR-10 overlapped input-pipeline contract, end to end:
//!
//! 1. the **partition invariant survives prefetch** — for depths
//!    {0, 1, 2, 4} × fused/unfused × all three codecs, the new
//!    `stage_overlap_saved_ps` term keeps
//!    `breakdown.total_ps() == sim_wall_ps` exact on the priced clock,
//!    and the saving is honest: `sim_wall(d) + saved(d)` equals the
//!    serial depth-0 wall bit for bit;
//! 2. **prefetch never touches the math** — every depth lands on the
//!    same parameter bits and the same per-epoch mean losses as the
//!    serial path, under every codec (cells of the equivalence matrix);
//! 3. **depth composes with resume** — a run checkpointed under the
//!    prefetcher and resumed at a different depth still reproduces the
//!    uninterrupted parameters exactly.

mod common;

use common::*;
use msa_suite::distrib::StepCost;

/// A host where staging is a first-order cost, so the overlap term is
/// large enough that any double-counting would blow the exact check.
fn stage_heavy() -> StepCost {
    StepCost {
        stage_gbs: 0.1,
        ..StepCost::default()
    }
}

/// `cell` trained on the stage-heavy host.
fn train(cell: Cell) -> TrainReport {
    cell.run(&cell.trainer().cost(stage_heavy()))
        .expect("no snapshot to validate")
        .completed()
}

#[test]
fn stage_overlap_partitions_wall_time_across_depths_fusion_and_codecs() {
    for codec in CODECS {
        for fusion in [FusionConfig::fused(1024), FusionConfig::unfused()] {
            let at = |prefetch| Cell {
                workers: 4,
                codec,
                fusion,
                prefetch,
                ..base()
            };
            let serial = train(at(0));
            assert_eq!(
                serial.breakdown.total_ps(),
                serial.sim_wall_ps,
                "depth 0 partition broke under {codec:?}"
            );
            assert_eq!(
                serial.breakdown.stage_overlap_saved_ps, 0,
                "serial schedule must not claim stage savings"
            );
            for depth in [1usize, 2, 4] {
                let over = train(at(depth));
                let label = at(depth).to_string();
                // The new term closes the partition exactly — no float
                // slack anywhere on the integer clock.
                assert_eq!(over.breakdown.total_ps(), over.sim_wall_ps, "{label}");
                // And it is an honest saving off the serial wall: the
                // pipeline only ever removes priced stage time.
                assert!(over.breakdown.stage_overlap_saved_ps > 0, "{label}");
                assert_eq!(
                    over.sim_wall_ps + over.breakdown.stage_overlap_saved_ps,
                    serial.sim_wall_ps,
                    "{label}"
                );
                // The schedule is pricing-only: identical math.
                check(&at(depth));
            }
        }
    }
}

#[test]
fn resume_composes_with_prefetch_across_depths() {
    // Killed at depth 2, resumed at depth 4: the checkpointed RNG
    // position is the stream's only state, so the bits still match.
    check(&Cell {
        prefetch: 2,
        fault: Fault::KillResume,
        ..base()
    });
}

#[test]
fn deeper_rings_cannot_save_more_than_the_staged_time() {
    let at = |prefetch| Cell {
        workers: 4,
        fusion: FusionConfig::fused(1024),
        prefetch,
        ..base()
    };
    let serial = train(at(0));
    let mut prev_saved = 0;
    for depth in [1usize, 2, 4] {
        let saved = train(at(depth)).breakdown.stage_overlap_saved_ps;
        assert!(saved >= prev_saved, "saving must be monotone in depth");
        assert!(
            saved <= serial.breakdown.stage_ps,
            "cannot save more stage time than was priced"
        );
        prev_saved = saved;
    }
}
