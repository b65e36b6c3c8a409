//! The equivalence matrix (`tests/common/mod.rs`): data-parallel training
//! reproduces its reference run bit for bit in every cell of workers ×
//! codec × fusion × dispatch × prefetch × fault × model, or refuses the
//! resume with a typed error where the snapshot cannot hold the state.
//!
//! ```text
//! cargo test --test equivalence                              # seeded sample
//! cargo test --release --test equivalence -- --ignored --nocapture  # every cell
//! ```

mod common;

use common::*;
use msa_suite::msa_core::{fnv1a, XorShift};

/// A seeded tenth of the product.
#[test]
fn sampled_cells_hold() {
    let (cells, mut rng) = (cells(), XorShift(0xCE11_5EED));
    for _ in 0..cells.len() / 10 {
        check(&cells[rng.next_u64() as usize % cells.len()]);
    }
}

/// FNV-1a digests of the final parameters, the per-epoch mean losses and
/// the latest snapshot's bytes of the default dense exchange (`Dense32`
/// under `Pipeline`, overlap on, prefetch 2), recorded from the trainer
/// that still allreduced the whole gradient and stepped every parameter
/// on every rank: `(workers, model, fused(64) rather than unfused,
/// params, losses, snapshot)`. Every matrix cell compares two runs of
/// the same code; this table pins the absolute bits.
const REPLICATED_STEP_DIGESTS: [(usize, Model, bool, u64, u64, u64); 12] = [
    (2, Model::MlpSgd, false, 0xc176d1c52f16bd3c, 0x6f9cdcd9de3e9111, 0xf47e44fb823a0933),
    (3, Model::MlpSgd, false, 0xc450f97631d70750, 0xec9bdb5deda4a6e7, 0x07f7177db2d58862),
    (4, Model::MlpSgd, false, 0xfe62bdac77c43612, 0x29424af063578975, 0x69f0f2f22cf93319),
    (2, Model::MlpSgd, true, 0xc176d1c52f16bd3c, 0x6f9cdcd9de3e9111, 0xf47e44fb823a0933),
    (3, Model::MlpSgd, true, 0xc450f97631d70750, 0xec9bdb5deda4a6e7, 0x07f7177db2d58862),
    (4, Model::MlpSgd, true, 0xfe62bdac77c43612, 0x29424af063578975, 0x69f0f2f22cf93319),
    (2, Model::BatchNormAdam, false, 0x54d59eb8b367fced, 0x9ca737e6b41ee59e, 0xa87db2a45d6576f1),
    (3, Model::BatchNormAdam, false, 0xc03ec16d11af7d7b, 0x2ec25abc784983bb, 0xf040121221838837),
    (4, Model::BatchNormAdam, false, 0xa0713c4efb494072, 0x4163c0d1678a6d3a, 0xb4dc706894776847),
    (2, Model::BatchNormAdam, true, 0x54d59eb8b367fced, 0x9ca737e6b41ee59e, 0xa87db2a45d6576f1),
    (3, Model::BatchNormAdam, true, 0xc03ec16d11af7d7b, 0x2ec25abc784983bb, 0xf040121221838837),
    (4, Model::BatchNormAdam, true, 0xa0713c4efb494072, 0x4163c0d1678a6d3a, 0xb4dc706894776847),
];

#[test]
fn dense_runs_keep_the_replicated_steps_digests() {
    for (workers, model, fused, params, losses, snapshot) in REPLICATED_STEP_DIGESTS {
        let cell = Cell {
            workers,
            fusion: if fused {
                FusionConfig::fused(64)
            } else {
                FusionConfig::unfused().overlap(true)
            },
            prefetch: 2,
            model,
            ..base()
        };
        let r = cell.run(&cell.trainer()).expect("no snapshot").completed();
        let snap = r.latest_snapshot.expect("the config checkpoints");
        let got = (
            fnv1a(r.final_params.iter().map(|x| x.to_bits())),
            fnv1a(r.epochs.iter().map(|e| e.mean_loss.to_bits())),
            fnv1a(snap),
        );
        assert_eq!(got, (params, losses, snapshot), "{cell}");
    }
}

#[test]
#[ignore = "the whole product; CI runs it in release"]
fn all_cells_hold() {
    let cells = cells();
    cells.iter().for_each(check);
    println!("{} cells hold", cells.len());
}
