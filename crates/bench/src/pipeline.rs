//! PR-10 overlapped input-pipeline report (`experiments pipeline` →
//! `BENCH_pr10.json`).
//!
//! Four deterministic sections plus one measured section:
//!
//! * **Identity grid** — the whole point of the prefetcher is that it
//!   buys time without touching the math. At p ∈ {1, 4, 8} under all
//!   three [`GradCodec`]s, a depth-2 run must be bit-identical to the
//!   depth-0 run: final params, per-epoch mean losses, and the
//!   canonical obs snapshot filtered down to everything the feature
//!   does *not* promise to move (`trainer.stage_overlap.saved`,
//!   `trainer.sim_wall` and the per-epoch `trainer.epoch.time` rollups
//!   are excluded and asserted to move in the promised direction
//!   instead).
//! * **Modeled sweep** — depths {0, 1, 2, 4} on a stage-heavy
//!   [`StepCost`]: the priced clock must satisfy
//!   `sim_wall(d) + stage_overlap_saved(d) == sim_wall(0)` exactly,
//!   and the partition invariant `breakdown.total_ps() == sim_wall_ps`
//!   on every row.
//! * **Alloc proof** — the slab pool warms up to its circulation bound
//!   (`depth + 2`, capped by the epoch's batch count) and then every
//!   later epoch allocates exactly nothing.
//! * **Scaling projection** — [`ScalingModel`] with the
//!   [`StageTerm`] attached: at the paper's 96/128-GPU points the
//!   shared PFS fair-share makes the run input-bound, and the modeled
//!   per-step saving of prefetch-vs-serial staging is reported at
//!   p ∈ {1, 4, 8, 96, 128}.
//! * **Real timing** (full report only) — epoch wall-clock of the real
//!   input pipeline on a stage-bound configuration (wide rows, ~41 MB
//!   batches). Depth 0 re-allocates every batch (the seed's behavior);
//!   depth 2 streams through recycled slabs. On this box the win is
//!   allocator/page-fault traffic, not thread overlap (single core) —
//!   the committed flag requires ≥ 1.2×.
//!
//! The counters sections are byte-identical between runs.

use std::sync::Arc;
use std::time::Instant;

use data::stream::{with_prefetch, BatchSource, BatchStream, SlabPool, DEFAULT_PREFETCH_DEPTH};
use distrib::{FusionConfig, ScalingModel, StageTerm, StepCost, TrainConfig, TrainReport, Trainer};
use msa_core::fnv1a;
use msa_core::hw::catalog;
use msa_net::{GradCodec, LinkParams};
use msa_obs::json::{Contracts, Obj};
use msa_obs::MetricsRegistry;
use msa_storage::ParallelFs;
use tensor::{Rng, Tensor};

use crate::codec::CODECS;
use crate::report::Report;
use crate::{bits_hash, mlp, pin_pool, run_trainer, same_bits, sgd, speedup_milli, toy_dataset};

/// The contract read off the wall clock, which a fresh run on a busy
/// machine cannot vouch for: the committed artifact pins it.
pub const WALL_CLOCK_FLAG: &str = "real_epoch_speedup_ge_1_2x";

/// The keys the prefetcher is *allowed* (and expected) to move. The
/// identity grid compares snapshots with these excluded and checks the
/// exclusions separately.
const MOVED_KEY_PREFIXES: [&str; 3] = [
    "trainer.stage_overlap.saved",
    "trainer.sim_wall",
    "trainer.epoch.time",
];

fn moved_key(key: &str) -> bool {
    MOVED_KEY_PREFIXES.iter().any(|p| key.starts_with(p))
}

/// Rank counts of the identity grid and the modeled sweep.
const RANKS: [usize; 3] = [1, 4, 8];

// ---------------------------------------------------------------------------
// Shared trainer fixture.
// ---------------------------------------------------------------------------

/// One run of the shared fixture; returns the report and its canonical
/// obs snapshot split into the unchanged part and the moved part.
fn run_fixture(
    ranks: usize,
    codec: GradCodec,
    depth: usize,
    cost: Option<StepCost>,
) -> (TrainReport, Vec<u8>, Vec<u8>) {
    let cfg = TrainConfig {
        workers: ranks,
        epochs: 3,
        batch_per_worker: 8,
        seed: 29,
        ..TrainConfig::default()
    };
    let reg = Arc::new(MetricsRegistry::new());
    let mut t = Trainer::new(cfg)
        .fusion(FusionConfig::fused(1024))
        .codec(codec)
        .prefetch(depth)
        .recorder(Arc::clone(&reg));
    if let Some(c) = cost {
        t = t.cost(c);
    }
    let report = run_trainer(
        t,
        &toy_dataset(ranks * 16, 16, 4, 53),
        mlp(16, 32, 4),
        sgd(0.0),
    );
    let snap = reg.snapshot();
    let unchanged = snap.filtered(|k| !moved_key(k)).to_bytes();
    let moved = snap.filtered(moved_key).to_bytes();
    (report, unchanged, moved)
}

fn losses_hash(report: &TrainReport) -> u64 {
    let losses: Vec<f32> = report.epochs.iter().map(|e| e.mean_loss).collect();
    bits_hash(&losses)
}

// ---------------------------------------------------------------------------
// Identity grid: depth 2 ≡ depth 0, bit for bit.
// ---------------------------------------------------------------------------

/// One `(ranks, codec)` cell; also returns whether it held both of its
/// flags, and whether prefetch saved stage time.
fn identity_row(ranks: usize, codec: GradCodec, c: &mut Contracts) -> (Obj, bool, bool) {
    let (base, base_obs, base_moved) = run_fixture(ranks, codec, 0, None);
    let (pre, pre_obs, pre_moved) = run_fixture(ranks, codec, DEFAULT_PREFETCH_DEPTH, None);
    let identical = same_bits(&base.final_params, &pre.final_params)
        && base
            .final_state
            .iter()
            .zip(&pre.final_state)
            .all(|(a, b)| a.to_bits() == b.to_bits())
        && losses_hash(&base) == losses_hash(&pre)
        && base_obs == pre_obs;
    // The excluded keys must move in the promised direction: the
    // prefetch run saves stage time off the same wall.
    let saved = pre.breakdown.stage_overlap_saved_ps;
    let wall_invariant =
        saved > 0 && pre.sim_wall_ps + saved == base.sim_wall_ps && base_moved != pre_moved;
    let row = Obj::new()
        .field("ranks", ranks)
        .text("codec", codec.name())
        .hash("params_hash", bits_hash(&pre.final_params))
        .hash("losses_hash", losses_hash(&pre))
        .hash("obs_hash", fnv1a(pre_obs))
        .flag(c, "bit_identical", identical)
        .field("stage_overlap_saved_ps", saved)
        .flag(c, "wall_invariant", wall_invariant);
    (row, identical && wall_invariant, saved > 0)
}

// ---------------------------------------------------------------------------
// Modeled depth sweep on a stage-heavy cost.
// ---------------------------------------------------------------------------

/// Depths {0, 1, 2, 4} at `ranks` on a link-starved host: staging at
/// 0.1 GB/s makes the input pipeline a first-order term of the modeled
/// step, so hiding it is visible. Also returns whether every row kept
/// its invariant and saved time exactly when it prefetched.
fn sweep_rows(ranks: usize, c: &mut Contracts) -> (Vec<Obj>, bool) {
    let cost = StepCost {
        stage_gbs: 0.1,
        ..StepCost::default()
    };
    let (base, _, _) = run_fixture(ranks, GradCodec::Dense32, 0, Some(cost));
    let mut saves_time = true;
    let rows = [0usize, 1, 2, 4]
        .into_iter()
        .map(|depth| {
            let r = if depth == 0 {
                base.clone()
            } else {
                run_fixture(ranks, GradCodec::Dense32, depth, Some(cost)).0
            };
            let saved = r.breakdown.stage_overlap_saved_ps;
            let invariant = r.breakdown.total_ps() == r.sim_wall_ps
                && r.sim_wall_ps + saved == base.sim_wall_ps;
            saves_time &= invariant && (depth == 0) == (saved == 0);
            Obj::new()
                .field("ranks", ranks)
                .field("depth", depth)
                .field("sim_wall_ps", r.sim_wall_ps)
                .field("stage_ps", r.breakdown.stage_ps)
                .field("stage_overlap_saved_ps", saved)
                .field(
                    "wall_speedup_milli",
                    speedup_milli(r.sim_wall_ps + saved, r.sim_wall_ps),
                )
                .flag(c, "partition_invariant", invariant)
        })
        .collect();
    (rows, saves_time)
}

// ---------------------------------------------------------------------------
// Slab-pool steady-state alloc proof.
// ---------------------------------------------------------------------------

/// Streams several epochs through one persistent pool and records the
/// cumulative allocation counter after each; the warm-up count is the
/// pre-seeded circulation bound and every later delta must be zero.
fn cumulative_allocs() -> Vec<u64> {
    let items = 48usize;
    let item_len = 256usize;
    let x: Vec<f32> = (0..items * item_len).map(|i| (i % 13) as f32).collect();
    let y: Vec<f32> = (0..items).map(|i| (i % 3) as f32).collect();
    let ds = data::Dataset {
        x: Tensor::from_vec(x, &[items, item_len]),
        y: Tensor::from_vec(y, &[items]),
    };
    let mut rng = Rng::seed(17);
    let mut pool = SlabPool::new();
    let mut per_epoch = Vec::new();
    for _ in 0..4 {
        let mut s = BatchStream::new(&ds, 16, &mut rng);
        with_prefetch(&mut s, DEFAULT_PREFETCH_DEPTH, &mut pool, |src| {
            while let Some(batch) = src.next_batch() {
                src.recycle(batch);
            }
        });
        per_epoch.push(pool.allocs());
    }
    per_epoch
}

// ---------------------------------------------------------------------------
// Scaling projection with the stage term.
// ---------------------------------------------------------------------------

/// The row at `gpus`; also returns whether it is input-bound exactly
/// from 96 GPUs on, and saves time there.
fn scaling_row(gpus: usize) -> (Obj, bool) {
    let fs = ParallelFs::deep_sssm();
    let term = StageTerm::bigearth_from_pfs(&fs);
    let base = ScalingModel::resnet50(catalog::v100(), LinkParams::infiniband_edr());
    let overlapped = base.clone().stage(term);
    let serial = base.clone().stage(term.prefetch(false));
    let prefetch_ps = overlapped.step_time(gpus).as_ps();
    let serial_ps = serial.step_time(gpus).as_ps();
    let input_bound = overlapped.input_bound(gpus);
    let saved = serial_ps - prefetch_ps;
    let row = Obj::new()
        .field("gpus", gpus)
        .field("base_step_ps", base.step_time(gpus).as_ps())
        .field("prefetch_step_ps", prefetch_ps)
        .field("serial_step_ps", serial_ps)
        .field("stage_ps", overlapped.stage_time(gpus).as_ps())
        .field("stage_overlap_saved_ps", saved)
        .field("input_bound", input_bound);
    (row, input_bound == (gpus >= 96) && (gpus < 96 || saved > 0))
}

// ---------------------------------------------------------------------------
// Real epoch wall-clock: stage-bound configuration.
// ---------------------------------------------------------------------------

/// Wide rows so one x-batch is ≈ 41 MB — past the allocator's mmap
/// threshold cap, so the depth-0 path (fresh buffers per batch, the
/// seed's behavior) pays map/fault/unmap on every batch while depth 2
/// streams through the warm slab pool. Minimum of five epochs per
/// depth, interleaved, after one warm-up each. Returns the
/// `real_timing` object and the depth-2 speedup in thousandths.
fn real_timing() -> (Obj, u64) {
    let (items, item_len, batch) = (192usize, 160_000usize, 64usize);
    let x: Vec<f32> = (0..items * item_len).map(|i| (i % 251) as f32).collect();
    let y: Vec<f32> = (0..items).map(|i| (i % 7) as f32).collect();
    let ds = data::Dataset {
        x: Tensor::from_vec(x, &[items, item_len]),
        y: Tensor::from_vec(y, &[items]),
    };
    // A deliberately thin consumer: the epoch is input-bound, which is
    // exactly the regime the acceptance flag is about.
    let consume =
        |bx: &Tensor| -> f64 { bx.data().iter().step_by(4096).map(|&v| f64::from(v)).sum() };

    let epoch_d0 = |rng: &mut Rng| -> f64 {
        let mut s = BatchStream::new(&ds, batch, rng);
        let mut acc = 0.0;
        while let Some((bx, _by)) = s.next_batch() {
            acc += consume(&bx);
        }
        acc
    };
    let epoch_d2 = |rng: &mut Rng, pool: &mut SlabPool| -> f64 {
        let mut s = BatchStream::new(&ds, batch, rng);
        let mut acc = 0.0;
        with_prefetch(&mut s, DEFAULT_PREFETCH_DEPTH, pool, |src| {
            while let Some((bx, by)) = src.next_batch() {
                acc += consume(&bx);
                src.recycle((bx, by));
            }
        });
        acc
    };

    let mut rng = Rng::seed(7);
    let mut pool = SlabPool::new();
    // Warm-up: touch the dataset, fill the pool, settle the allocator.
    std::hint::black_box(epoch_d0(&mut rng));
    std::hint::black_box(epoch_d2(&mut rng, &mut pool));

    let (mut d0, mut d2) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..5 {
        let t = Instant::now();
        std::hint::black_box(epoch_d0(&mut rng));
        d0 = d0.min(t.elapsed().as_nanos() as f64);
        let t = Instant::now();
        std::hint::black_box(epoch_d2(&mut rng, &mut pool));
        d2 = d2.min(t.elapsed().as_nanos() as f64);
    }
    let speedup = speedup_milli(d0 as u64, d2 as u64);
    let batch_mb = (batch * item_len * size_of::<f32>()) as f64 / 1e6;
    let timing = Obj::new()
        .field("stage_bound_batch_mb", format_args!("{batch_mb:.1}"))
        .field("depth0_epoch_ns", d0 as u64)
        .field("depth2_epoch_ns", d2 as u64)
        .field("epoch_speedup_milli", speedup);
    (timing, speedup)
}

// ---------------------------------------------------------------------------
// Entry point.
// ---------------------------------------------------------------------------

/// The full pipeline report: `counters` holds the deterministic sections
/// and their flags, the body adds the measured epoch timing and its flag.
pub fn pipeline_report() -> Report {
    pin_pool();
    let mut c = Contracts::new();
    let (mut identity, mut bit_identical, mut overlap_saves) = (Vec::new(), true, true);
    for ranks in RANKS {
        for codec in CODECS {
            let (row, identical, saved) = identity_row(ranks, codec, &mut c);
            identity.push(row);
            bit_identical &= identical;
            overlap_saves &= saved;
        }
    }
    let mut sweep = Vec::new();
    for ranks in RANKS {
        let (rows, saves) = sweep_rows(ranks, &mut c);
        sweep.extend(rows);
        overlap_saves &= saves;
    }
    let allocs = cumulative_allocs();
    let (scaling, bound): (Vec<Obj>, Vec<bool>) =
        [1, 4, 8, 96, 128].map(scaling_row).into_iter().unzip();
    let (timing, speedup) = real_timing();

    let sections = Obj::new()
        .rows("identity", identity)
        .rows("modeled_sweep", sweep)
        .field(
            "allocs",
            Obj::new()
                .field("warm_allocs", allocs[0])
                .list("cumulative_after_epoch", &allocs),
        )
        .rows("scaling", scaling);
    let flags = |o: Obj, c: &mut Contracts| {
        o.flag(c, "prefetch_bit_identical", bit_identical)
            .flag(c, "overlap_saves_time", overlap_saves)
            .flag(
                c,
                "zero_steady_state_allocs",
                allocs.iter().all(|&a| a == allocs[0]),
            )
            .flag(c, "input_bound_at_scale", bound.iter().all(|&b| b))
    };
    let counters = flags(sections.clone(), &mut c).doc();
    let full = flags(sections.field("real_timing", timing), &mut c)
        .flag(&mut c, WALL_CLOCK_FLAG, speedup >= 1200)
        .doc();
    Report {
        bodies: vec![full],
        counters: Some(counters),
        contracts: c,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::assert_contracts_hold;

    #[test]
    fn pipeline_counters_are_deterministic_and_contract_flags_hold() {
        let (a, b) = (pipeline_report(), pipeline_report());
        assert_eq!(
            a.counters, b.counters,
            "pipeline counters differ between runs"
        );
        assert_contracts_hold(&a, &[WALL_CLOCK_FLAG]);
        let c1 = a
            .counters
            .as_deref()
            .expect("pipeline writes a counters section");
        assert!(c1.contains("\"prefetch_bit_identical\": true"), "{c1}");
        assert!(c1.contains("\"overlap_saves_time\": true"), "{c1}");
        assert!(c1.contains("\"zero_steady_state_allocs\": true"), "{c1}");
        assert!(c1.contains("\"input_bound_at_scale\": true"), "{c1}");
        // No identity row may fail its per-row checks.
        assert!(!c1.contains("\"bit_identical\": false"), "{c1}");
        assert!(!c1.contains("\"wall_invariant\": false"), "{c1}");
        assert!(!c1.contains("\"partition_invariant\": false"), "{c1}");
        // The full report carries the measured section and its flag (the
        // flag value is timing-dependent; only its presence is checked).
        let f1 = &a.bodies[0];
        assert!(f1.contains("\"real_timing\""), "{f1}");
        assert!(f1.contains(&format!("\"{WALL_CLOCK_FLAG}\"")), "{f1}");
    }
}
