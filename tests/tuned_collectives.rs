//! The PR-7 autotuner contract, end to end:
//!
//! 1. recursive-doubling wire accounting must match the **closed form**
//!    at non-power-of-two rank counts — the counter that PR 5's comm
//!    bench silently read as zero (it queried the wrong
//!    [`CollectiveOp`]) is real, per-rank exact, and sums to
//!    `p2·log₂(p2) + 2·rem` full-buffer messages;
//! 2. the tuner grid is **deterministic** — two runs produce
//!    byte-identical decision tables — and every table entry is the
//!    measured argmin of its cell;
//! 3. tuned dispatch inside the trainer keeps the fused and serialized
//!    exchanges of one bucket partition bit-identical (cells of the
//!    equivalence matrix, dispatching through the committed
//!    `TUNE_pr7.table`);
//! 4. the paper-scale rank counts really execute: a 96-rank cell runs
//!    every candidate with nonzero traffic, and the topology-aware
//!    hierarchical schedule beats the flat ring there.

mod common;

use common::*;
use msa_suite::msa_net::tune;
use msa_suite::msa_net::{
    collectives, CollectiveAlgo, CollectiveOp, LinkParams, Topology, TuneGrid,
};

#[test]
fn recursive_doubling_wire_totals_match_the_closed_form() {
    // Every message carries the whole buffer (see `rdb_sends`).
    let len = 64usize;
    let payload = (len * std::mem::size_of::<f32>()) as u64;
    for p in [3usize, 5, 6, 7, 12] {
        let p2 = 1usize << p.ilog2();
        let rem = p - p2;
        let logp2 = p2.ilog2() as u64;
        let per_rank = wire_counts(p, len, CollectiveOp::RecursiveDoubling, |c, buf| {
            collectives::recursive_doubling_allreduce(c, buf)
        });
        for (rank, &(msgs, bytes)) in per_rank.iter().enumerate() {
            let expect = rdb_sends(p, rank);
            assert_eq!(msgs, expect, "rdb p={p} rank={rank} messages");
            assert_eq!(bytes, expect * payload, "rdb p={p} rank={rank} bytes");
        }
        let total_msgs: u64 = per_rank.iter().map(|&(m, _)| m).sum();
        let total_bytes: u64 = per_rank.iter().map(|&(_, b)| b).sum();
        assert_eq!(
            total_msgs,
            p2 as u64 * logp2 + 2 * rem as u64,
            "rdb p={p} summed message count"
        );
        assert_eq!(total_bytes, total_msgs * payload, "rdb p={p} summed bytes");
        assert!(total_msgs > 0, "phantom-zero wire row at p={p}");
    }
}

#[test]
fn tuner_grid_is_deterministic_and_every_entry_is_the_measured_argmin() {
    let grid = TuneGrid::smoke();
    let (r1, r2) = (grid.run(), grid.run());
    let (t1, t2) = (r1.table(), r2.table());
    assert_eq!(
        t1.to_table_string(),
        t2.to_table_string(),
        "two grid runs must serialize byte-identically"
    );
    for cell in &r1.cells {
        let argmin = cell
            .measurements
            .iter()
            .map(|m| m.measured_ps)
            .min()
            .expect("cells are never empty");
        let entry = t1.entry_for(cell.ranks, cell.bytes);
        assert_eq!((entry.ranks, entry.bytes), (cell.ranks, cell.bytes));
        assert_eq!(
            entry.measured_ps, argmin,
            "table pick at p={} b={} is not the measured argmin",
            cell.ranks, cell.bytes
        );
        for m in &cell.measurements {
            assert!(m.msgs_total > 0 && m.measured_ps > 0, "zero wire row");
        }
    }
}

#[test]
fn tuned_trainer_keeps_fused_and_serialized_exchanges_bit_identical() {
    // Selection depends only on each bucket's byte length, so the
    // overlapped and serialized paths of the same partition dispatch the
    // same algorithm per bucket and must agree bit for bit.
    for fusion in [
        FusionConfig::unfused().overlap(true),
        FusionConfig::fused(1024),
    ] {
        check(&Cell {
            workers: 4,
            fusion,
            dispatch: Dispatch::Tuned,
            ..base()
        });
    }
}

#[test]
fn a_96_rank_cell_executes_with_real_traffic_and_hierarchy_wins() {
    // The paper's scale point: 96 ranks as 24 four-GPU nodes. Every
    // candidate must really run (nonzero corrected wire counters), and
    // grouping over NVLink must beat the flat 2(p−1)-hop ring.
    let cell = tune::measure_cell(96, 64 * 1024, LinkParams::extoll(), Topology::esb(4));
    assert_eq!(cell.ranks, 96);
    for m in &cell.measurements {
        assert!(
            m.msgs_total > 0 && m.bytes_total > 0 && m.measured_ps > 0,
            "{} at p=96 recorded no traffic",
            m.algo.name()
        );
    }
    let ps = |algo: CollectiveAlgo| {
        cell.measurements
            .iter()
            .find(|m| m.algo == algo)
            .expect("candidate measured")
            .measured_ps
    };
    assert!(
        ps(CollectiveAlgo::Hierarchical { ranks_per_node: 4 }) < ps(CollectiveAlgo::Ring),
        "topology-aware hierarchical should beat the flat ring at 96 ranks"
    );
}
