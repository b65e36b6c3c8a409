//! PR-9 gradient wire-codec report (`experiments codec` →
//! `BENCH_pr9.json` + `TUNE_pr9.table`).
//!
//! Measures the three gradient wire codecs ([`GradCodec`]) **for real**
//! on the priced clock, end to end:
//!
//! * **Wire grid** — per (ranks, bytes) cell, the dense f32, bf16 and
//!   1 %-top-k exchanges execute on a live `ThreadComm` (96- and
//!   128-rank meshes included) and report their Lamport critical path
//!   and summed wire counters. The codec cells ride along in the
//!   decision table's `ccell` extension (`TUNE_pr9.table`).
//! * **Fused trainer** — the same model trains under every codec with
//!   bucketed, overlapped exchange at p ∈ {4, 8}; the virtual step
//!   clock prices the *encoded* bytes.
//! * **Recalibrated scaling** — [`ScalingModel`] comm times at the
//!   paper's 96/128-GPU points, scaled by the *measured* codec/dense
//!   ratios from the table.
//! * **Convergence parity** — BigEarthNet (ResNet-mini) and COVID-Net
//!   (CXR) runs under fixed seeds: bf16 and 1 %-top-k must land within
//!   50 accuracy milli-points of dense.
//!
//! Every number is read off virtual clocks, message counters or
//! deterministic training, so two runs produce byte-identical files.

use std::sync::Arc;

use data::bigearth::{self, BigEarthConfig};
use data::cxr::{self, CxrConfig};
use distrib::{evaluate_classifier, FusionConfig, ScalingModel, TrainConfig, Trainer};
use msa_core::hw::catalog;
use msa_net::tune::{measure_codec, CodecEntry, TuneGrid};
use msa_net::{DecisionTable, GradCodec, LinkParams, Topology};
use msa_obs::json::{check, Contracts, Obj};
use nn::{models, Adam};
use tensor::Rng;

use crate::report::Report;
use crate::{bits_hash, mlp, pin_pool, run_trainer, sgd, speedup_milli, toy_dataset};

const KIB: usize = 1024;
const MIB: usize = 1024 * 1024;

/// Dense first, then the two codecs the report measures against it.
pub(crate) const CODECS: [GradCodec; 3] = [
    GradCodec::Dense32,
    GradCodec::Bf16,
    GradCodec::SparseTopK { ratio: 0.01 },
];

/// The wire grid's `(ranks, bytes)` cells.
const CELLS: [(usize, usize); 7] = [
    (4, 64 * KIB),
    (4, MIB),
    (8, 64 * KIB),
    (8, MIB),
    (32, MIB),
    (96, 256 * KIB),
    (128, 256 * KIB),
];

/// Comm-bound frontier: at these rank counts the grid's payloads are
/// large enough that the exchange is bandwidth-dominated, so a codec
/// that halves (or decimates) the bytes must show up ≥ 1.3× on the
/// measured clock.
const COMM_BOUND_RANKS: usize = 32;

/// Accuracy within this many milli-points of dense counts as parity.
const PARITY_TOL_MILLI: u64 = 50;

/// One fused, overlapped training run per codec at `ranks` workers.
/// Identical model, data, seeds and bucketing; only the wire codec
/// changes, so the sim-wall deltas are the codec's alone.
fn trainer_row(ranks: usize) -> Obj {
    let ds = toy_dataset(ranks * 16, 16, 4, 53);
    let cfg = TrainConfig {
        workers: ranks,
        epochs: 3,
        batch_per_worker: 8,
        seed: 29,
        ..TrainConfig::default()
    };
    let reports: Vec<_> = CODECS
        .iter()
        .map(|&codec| {
            let trainer = Trainer::new(cfg.clone())
                .fusion(FusionConfig::fused(1024))
                .codec(codec);
            run_trainer(trainer, &ds, mlp(16, 32, 4), sgd(0.0))
        })
        .collect();
    let dense_wall = reports[0].sim_wall_ps;
    let rows = CODECS.iter().zip(&reports).map(|(codec, r)| {
        Obj::new()
            .text("codec", codec.name())
            .field("sim_wall_ps", r.sim_wall_ps)
            .field("allreduce_ps", r.breakdown.allreduce_ps)
            .field(
                "wall_speedup_milli",
                speedup_milli(dense_wall, r.sim_wall_ps),
            )
            .hash("params_hash", bits_hash(&r.final_params))
    });
    Obj::new().field("ranks", ranks).rows("rows", rows)
}

/// [`ScalingModel`] comm time at `gpus` under each codec, scaled by the
/// measured ratios in `table`.
fn perf_row(table: &Arc<DecisionTable>, gpus: usize) -> Obj {
    let dense = ScalingModel::resnet50(catalog::v100(), table.inter()).tuned(Arc::clone(table));
    let dense_ps = dense.comm_time(gpus).as_ps();
    let row = Obj::new()
        .field("gpus", gpus)
        .field("dense_comm_ps", dense_ps);
    CODECS[1..].iter().fold(row, |row, &codec| {
        let ps = dense.clone().codec(codec).comm_time(gpus).as_ps();
        row.field(format_args!("{}_comm_ps", codec.name()), ps)
            .field(
                format_args!("{}_speedup_milli", codec.name()),
                speedup_milli(dense_ps, ps),
            )
    })
}

/// Test accuracy in milli-points after training under each codec.
fn parity_accs<M>(cfg: TrainConfig, ds: data::Dataset, model_fn: M) -> Vec<u64>
where
    M: Fn(u64) -> nn::Sequential + Sync + Copy,
{
    let (train, test) = ds.split(0.25);
    let opt = |lr| -> Box<dyn nn::Optimizer> { Box::new(Adam::new(lr)) };
    CODECS
        .iter()
        .map(|&codec| {
            let report = run_trainer(
                Trainer::new(cfg.clone()).codec(codec),
                &train,
                model_fn,
                opt,
            );
            let acc = evaluate_classifier(model_fn, cfg.seed, &report, &test);
            (acc * 1000.0).round() as u64
        })
        .collect()
}

/// ResNet-mini on synthetic BigEarthNet patches (paper §III-B scale-down).
fn bigearth_parity() -> Vec<u64> {
    let ds = bigearth::generate(
        120,
        &BigEarthConfig {
            bands: 3,
            size: 8,
            classes: 3,
            noise: 0.2,
        },
        21,
    );
    let cfg = TrainConfig {
        workers: 2,
        epochs: 12,
        batch_per_worker: 15,
        base_lr: 0.01,
        seed: 11,
        ..TrainConfig::default()
    };
    parity_accs(cfg, ds, |s| {
        models::resnet_mini(3, 3, 8, 1, &mut Rng::seed(s))
    })
}

/// COVID-Net-lite on synthetic CXR images (paper §IV-A scale-down).
fn covidnet_parity() -> Vec<u64> {
    let ds = cxr::generate(
        240,
        &CxrConfig {
            size: 24,
            noise: 0.1,
        },
        2020,
    );
    let cfg = TrainConfig {
        workers: 2,
        epochs: 16,
        batch_per_worker: 15,
        base_lr: 2e-3,
        seed: 3,
        ..TrainConfig::default()
    };
    parity_accs(cfg, ds, |s| models::covidnet_lite(1, 3, &mut Rng::seed(s)))
}

/// The full codec report: the extended `msa-tune-v1` decision table
/// (with `ccell` rows) and the grid JSON, both fully deterministic.
pub fn codec_report() -> Report {
    pin_pool();
    let mut c = Contracts::new();
    let link = LinkParams::extoll();
    let topo = Topology::esb(4);

    // Base decision table measured on the same cells, then extended
    // with the codec rows — old parsers ignore nothing (the `ccell`
    // lines append after the `cell` lines), codec-aware parsers round-
    // trip it byte-identically.
    let grid = TuneGrid {
        link,
        topo,
        cells: CELLS.to_vec(),
    };
    let mut table = grid.run().table();
    let (mut halves, mut comm_bound_speed_up) = (true, true);
    let cells: Vec<Obj> = CELLS
        .iter()
        .map(|&(ranks, bytes)| {
            let dense = measure_codec(GradCodec::Dense32, ranks, bytes, link, topo);
            let rows: Vec<Obj> = CODECS[1..]
                .iter()
                .map(|&codec| {
                    let m = measure_codec(codec, ranks, bytes, link, topo);
                    table.add_codec_entry(CodecEntry {
                        ranks,
                        bytes,
                        codec,
                        measured_ps: m.measured_ps,
                        dense_ps: dense.measured_ps,
                        wire_bytes: m.bytes_total,
                        dense_bytes: dense.bytes_total,
                    });
                    let speedup = speedup_milli(dense.measured_ps, m.measured_ps);
                    halves &= codec != GradCodec::Bf16 || m.bytes_total * 2 == dense.bytes_total;
                    comm_bound_speed_up &= ranks < COMM_BOUND_RANKS || speedup >= 1300;
                    // The wire counters must see the *encoded* payload.
                    let bytes_equal_dense = m.bytes_total == dense.bytes_total;
                    check(&mut c, "codec_rows_ship_encoded_bytes", !bytes_equal_dense);
                    Obj::new()
                        .text("codec", codec.name())
                        .field("measured_ps", m.measured_ps)
                        .field("msgs_total", m.msgs_total)
                        .field("bytes_total", m.bytes_total)
                        .field("bytes_equal_dense", bytes_equal_dense)
                        .field("speedup_milli", speedup)
                })
                .collect();
            Obj::new()
                .field("ranks", ranks)
                .field("bytes", bytes)
                .field("dense_ps", dense.measured_ps)
                .field("dense_wire_bytes", dense.bytes_total)
                .rows("rows", rows)
        })
        .collect();
    let table_text = table.to_table_string();
    let round_trips =
        DecisionTable::parse(&table_text).is_ok_and(|t| t.to_table_string() == table_text);
    let table = Arc::new(table);

    let (bigearth, covid) = (bigearth_parity(), covidnet_parity());
    let acc_rows = |accs: &[u64]| -> Vec<Obj> {
        let row = |(codec, acc): (&GradCodec, &u64)| {
            Obj::new()
                .text("codec", codec.name())
                .field("acc_milli", acc)
        };
        CODECS.iter().zip(accs).map(row).collect()
    };
    let parity = |accs: &[u64]| accs.iter().all(|a| a.abs_diff(accs[0]) <= PARITY_TOL_MILLI);
    let convergence = Obj::new()
        .list("bigearth", acc_rows(&bigearth))
        .list("covidnet", acc_rows(&covid));
    let grid = Obj::new()
        .field("inter_latency_us", link.latency_us)
        .field("inter_bw_gbs", link.bw_gbs)
        .field("ranks_per_node", topo.ranks_per_node)
        .field("cells", CELLS.len());
    let json = Obj::new()
        .field("grid", grid)
        .rows("cells", cells)
        .rows("trainer", [4, 8].map(trainer_row))
        .rows("perf", [96, 128].map(|g| perf_row(&table, g)))
        .field("convergence", convergence.doc())
        .flag(&mut c, "bf16_halves_wire_bytes", halves)
        .flag(&mut c, "comm_bound_cells_speed_up", comm_bound_speed_up)
        .flag(&mut c, "convergence_parity_bigearth", parity(&bigearth))
        .flag(&mut c, "convergence_parity_covidnet", parity(&covid))
        .flag(&mut c, "table_round_trips", round_trips)
        .doc();
    Report {
        bodies: vec![table_text, json],
        counters: None,
        contracts: c,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifacts::{self, assert_contracts_hold};

    #[test]
    fn codec_report_is_deterministic_and_contract_flags_hold() {
        let a = artifacts::codec();
        assert_contracts_hold(a, &[]);
        // The extended table parses and the ccell rows survive.
        let t1 = &a.bodies[0];
        let parsed = DecisionTable::parse(t1).expect("extended table must parse");
        assert!(!parsed.codec_entries().is_empty());
        assert_eq!(&parsed.to_table_string(), t1);
    }
}
