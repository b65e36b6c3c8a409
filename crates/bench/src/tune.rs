//! PR-7 autotuner grid report (`experiments tune` → `BENCH_pr7.json` +
//! `TUNE_pr7.table`).
//!
//! Runs the [`msa_net::tune`] grid — every allreduce candidate executed
//! **for real** per (ranks, bytes) cell, including the paper's 96- and
//! 128-rank points — and emits two artifacts:
//!
//! * `TUNE_pr7.table` — the distilled [`DecisionTable`] in the
//!   byte-stable `msa-tune-v1` format (see [`msa_net::tune`]);
//! * `BENCH_pr7.json` — every cell with every candidate's corrected
//!   wire counters (`msgs_total`/`bytes_total`, never the phantom zeros
//!   PR 5 shipped: `msa_net::tune::measure` panics on one) and
//!   priced-clock critical path, the per-cell `winner_is_argmin` flag, a
//!   tuned-dispatch trainer section (fused ≡ serialized bit-equality
//!   under [`ExchangeDispatch::Tuned`]) and the recalibrated
//!   [`ScalingModel`] comm times at 96/128 GPUs.
//!
//! Everything in both artifacts is read off virtual clocks and message
//! counters — no wall-clock anywhere — so two runs of the subcommand
//! produce byte-identical files.

use std::sync::Arc;

use distrib::{ExchangeDispatch, FusionConfig, ScalingModel, TrainConfig, Trainer};
use msa_core::hw::catalog;
use msa_net::tune::{Cell, TuneGrid};
use msa_net::DecisionTable;
use msa_obs::json::{Contracts, Obj};

use crate::report::Report;
use crate::{bits_hash, mlp, pin_pool, run_trainer, same_bits, sgd, toy_dataset};

/// Phantom-zero rows of a cell (none: `measure` panics on one first).
fn zero_wire_rows(cell: &Cell) -> usize {
    cell.measurements
        .iter()
        .filter(|m| cell.ranks > 1 && m.msgs_total == 0)
        .count()
}

fn cell_row(cell: &Cell, table: &DecisionTable, c: &mut Contracts) -> Obj {
    let candidates = cell.measurements.iter().map(|m| {
        Obj::new()
            .text("algo", m.algo.name())
            .field("measured_ps", m.measured_ps)
            .field("modeled_ps", m.modeled_ps)
            .field("msgs_total", m.msgs_total)
            .field("bytes_total", m.bytes_total)
    });
    // The table's pick for this exact cell must be the measured argmin —
    // the acceptance invariant, recomputed here from the raw rows.
    let argmin_ps = cell
        .measurements
        .iter()
        .map(|m| m.measured_ps)
        .min()
        .unwrap_or(0);
    let picked = table.entry_for(cell.ranks, cell.bytes);
    let winner_is_argmin = picked.ranks == cell.ranks
        && picked.bytes == cell.bytes
        && picked.measured_ps == argmin_ps
        && picked.algo == cell.winner().algo;
    Obj::new()
        .field("ranks", cell.ranks)
        .field("bytes", cell.bytes)
        .rows("candidates", candidates)
        .text("winner", cell.winner().algo.name())
        .text("fallback", cell.best_software().algo.name())
        .flag(c, "winner_is_argmin", winner_is_argmin)
        .field("zero_wire_rows", zero_wire_rows(cell))
}

/// Trains twice under tuned dispatch — serialized and fused at one fixed
/// `bucket_bytes` — and checks the per-partition bit-equality contract:
/// selection depends only on each bucket's byte length, so the fused and
/// serialized schedules of the *same* partition reduce every bucket with
/// the same measured winner.
fn tuned_trainer(table: &Arc<DecisionTable>, ranks: usize, c: &mut Contracts) -> Obj {
    let ds = toy_dataset(ranks * 8, 16, 4, 71);
    let cfg = TrainConfig {
        workers: ranks,
        epochs: 2,
        batch_per_worker: 4,
        seed: 17,
        ..TrainConfig::default()
    };
    let bucket_bytes = 1024usize;
    let run = |fusion| {
        let trainer = Trainer::new(cfg.clone())
            .fusion(fusion)
            .dispatch(ExchangeDispatch::Tuned(Arc::clone(table)));
        run_trainer(trainer, &ds, mlp(16, 32, 4), sgd(1e-4)).final_params
    };
    let serial = run(FusionConfig::unfused());
    let fused = run(FusionConfig::fused(bucket_bytes));
    Obj::new()
        .field("ranks", ranks)
        .field("bucket_bytes", bucket_bytes)
        .hash("hash_serialized", bits_hash(&serial))
        .hash("hash_fused", bits_hash(&fused))
        .flag(
            c,
            "bit_equal_tuned_fused_vs_serialized",
            same_bits(&serial, &fused),
        )
}

/// Recalibrated scaling model: comm time at `gpus` untuned and tuned.
fn perf_row(table: &Arc<DecisionTable>, gpus: usize) -> Obj {
    let base = ScalingModel::resnet50(catalog::v100(), table.inter());
    let tuned = base.clone().tuned(Arc::clone(table));
    let bytes = base.grad_bytes as usize;
    Obj::new()
        .field("gpus", gpus)
        .text("algo", table.select(gpus, bytes).name())
        .field(
            "untuned_comm_ps",
            base.comm_time(gpus).as_ps(),
        )
        .field(
            "tuned_comm_ps",
            tuned.comm_time(gpus).as_ps(),
        )
        .field(
            "calibration_milli",
            (table.calibration(gpus, bytes) * 1000.0).round() as u64,
        )
}

/// The full tuner report: the `msa-tune-v1` decision table and the grid
/// JSON, both fully deterministic.
pub fn tune_report() -> Report {
    pin_pool();
    let mut c = Contracts::new();
    let report = TuneGrid::paper().run();
    let table = Arc::new(report.table());

    let cells: Vec<Obj> = report
        .cells
        .iter()
        .map(|cell| cell_row(cell, &table, &mut c))
        .collect();
    let all_argmin = report.cells.iter().all(|cell| {
        let e = table.entry_for(cell.ranks, cell.bytes);
        e.algo == cell.winner().algo && e.measured_ps == cell.winner().measured_ps
    });
    let grid = Obj::new()
        .field("inter_latency_us", report.link.latency_us)
        .field("inter_bw_gbs", report.link.bw_gbs)
        .field("ranks_per_node", report.topo.ranks_per_node)
        .field("cells", report.cells.len());
    let json = Obj::new()
        .field("grid", grid)
        .rows("cells", cells)
        .flag(&mut c, "all_winners_are_argmin", all_argmin)
        .field(
            "zero_wire_rows",
            report.cells.iter().map(zero_wire_rows).sum::<usize>(),
        )
        .field(
            "max_ranks_executed",
            report
                .cells
                .iter()
                .map(|cell| cell.ranks)
                .max()
                .unwrap_or(0),
        )
        .field("trainer", tuned_trainer(&table, 8, &mut c))
        .rows("perf", [8, 32, 96, 128].map(|g| perf_row(&table, g)))
        .doc();
    Report {
        bodies: vec![table.to_table_string(), json],
        counters: None,
        contracts: c,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifacts::{self, assert_contracts_hold};

    #[test]
    fn tune_report_is_deterministic_and_contract_flags_hold() {
        let a = artifacts::tune();
        assert_contracts_hold(a, &[]);
        let (t1, j1) = (&a.bodies[0], &a.bodies[1]);
        assert!(j1.contains("\"zero_wire_rows\": 0,"), "{j1}");
        assert!(!j1.contains("\"msgs_total\": 0"), "{j1}");
        let parsed = DecisionTable::parse(t1).expect("emitted table must parse");
        assert_eq!(&parsed.to_table_string(), t1);
    }
}
