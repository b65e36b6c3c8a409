//! PR-5 comm-pipeline report (`experiments comm` → `BENCH_pr5.json`).
//!
//! Measures the zero-allocation slice-path collectives and the fused,
//! overlapped gradient exchange against the serialized seed schedule.
//! Like the PR-4 kernel report, the output has two sections:
//!
//! * `counters` — fully deterministic (CI runs the subcommand twice and
//!   byte-compares): per-collective wire traffic (including the
//!   empty-chunk case `len < p`), the steady-state allocation count
//!   after warm-up (**must be 0**), FNV-1a hashes of trained parameters
//!   across fusion thresholds with the `bit_equal_fused_vs_serialized`
//!   flag, and the modeled overlap speedup on a ResNet-style workload at
//!   p = 8 (integer picoseconds off the virtual clock);
//! * `timings` — min-of-reps wall-clock for the allreduce size sweep
//!   (1 KiB … 64 MiB at p ∈ {2, 4, 8}) and the fused-vs-unfused trainer
//!   step, which naturally vary run to run.
//!
//! The overlap workload is "ResNet-style" in its *ratios*, not its raw
//! size: a deep stack of equal-width blocks (so buckets become ready
//! evenly through backward), a compute intensity of ~470 FLOPs per
//! parameter per sample (ResNet-50's 12 GFLOP over 25.6 M parameters)
//! and a sustained-throughput GPU model, which together put the gradient
//! allreduce at roughly half the backward tail — the regime bucket
//! overlap exists for.

use std::fmt::Write as _;

use crate::kernels::{bits_hash, min_ns};
use data::Dataset;
use distrib::{FusionConfig, StepCost, TrainConfig, TrainReport, Trainer};
use msa_net::collectives;
use msa_net::{Arena, CollectiveOp, PointToPoint as _, ThreadComm};
use nn::{Dense, Optimizer, Relu, Sequential, Sgd, SoftmaxCrossEntropy};
use tensor::{Rng, Tensor};

/// Pool width the report is pinned to (first caller wins; the trainer's
/// overlapped exchange schedules on this pool, and pinning keeps the
/// deterministic counters independent of the runner's core count).
const POOL_THREADS: usize = 4;

// ---------------------------------------------------------------------------
// Wire-traffic counters.
// ---------------------------------------------------------------------------

struct WireRow {
    collective: &'static str,
    ranks: usize,
    len: usize,
    msgs_total: u64,
    bytes_total: u64,
}

/// Runs one collective on `p` ranks and returns the wire totals summed
/// over all ranks (per-rank numbers differ by position in the schedule;
/// the sum is the deterministic cross-rank invariant).
///
/// Each collective scopes its traffic under its own [`CollectiveOp`], so
/// the row must read the matching counter — PR 5 read `Allreduce` for
/// every row, which made the recursive-doubling row a phantom zero (its
/// traffic sat under `RecursiveDoubling`). A zero wire row at p > 1 is
/// a measurement bug by definition, so it panics rather than lands in
/// the report.
fn wire_row(collective: &'static str, ranks: usize, len: usize) -> WireRow {
    let op = match collective {
        "ring_allreduce" => CollectiveOp::Allreduce,
        "pipeline_allreduce" => CollectiveOp::Pipeline,
        "recursive_doubling_allreduce" => CollectiveOp::RecursiveDoubling,
        other => panic!("unknown collective {other:?}"),
    };
    let per_rank = ThreadComm::run(ranks, move |c| {
        let mut buf: Vec<f32> = (0..len).map(|i| (c.rank() * len + i) as f32).collect();
        let arena = &mut Arena::new();
        match collective {
            "ring_allreduce" => collectives::ring_allreduce(c, &mut buf, arena),
            "pipeline_allreduce" => collectives::pipeline_allreduce(c, &mut buf, arena),
            _ => collectives::recursive_doubling_allreduce(c, &mut buf, arena),
        }
        let t = c.stats().map(|s| s.export().op(op)).unwrap_or_default();
        (t.msgs_sent, t.bytes_sent)
    });
    let (msgs_total, bytes_total) = per_rank
        .iter()
        .fold((0, 0), |(m, b), &(mm, bb)| (m + mm, b + bb));
    assert!(
        ranks == 1 || msgs_total > 0,
        "phantom-zero wire row: {collective} at p={ranks} recorded no traffic under {op:?}"
    );
    WireRow {
        collective,
        ranks,
        len,
        msgs_total,
        bytes_total,
    }
}

/// Steady-state allocation probe: warm the per-peer buffer pools and the
/// scratch arena (two rounds — the pool cycles two credits per channel),
/// snapshot the growth counters, run five more full rounds and report
/// the growth delta summed over ranks. The contract is **zero**.
fn steady_state_allocs(ranks: usize, len: usize) -> u64 {
    let deltas = ThreadComm::run(ranks, move |c| {
        let mut buf = vec![1.0f32; len];
        let mut arena = Arena::new();
        let mut round = |arena: &mut Arena| {
            collectives::ring_allreduce(c, &mut buf, arena);
            collectives::pipeline_allreduce(c, &mut buf, arena);
            collectives::recursive_doubling_allreduce(c, &mut buf, arena);
            collectives::dissemination_barrier(c);
        };
        for _ in 0..2 {
            round(&mut arena);
        }
        let warm = c.pool_allocs() + arena.grows();
        for _ in 0..5 {
            round(&mut arena);
        }
        c.pool_allocs() + arena.grows() - warm
    });
    deltas.iter().sum()
}

// ---------------------------------------------------------------------------
// Trainer runs: bit-equality sweep and the overlap workload.
// ---------------------------------------------------------------------------

/// A small classification model: `dim → hidden → classes`.
fn small_model(dim: usize, hidden: usize, classes: usize) -> impl Fn(u64) -> Sequential + Sync {
    move |seed| {
        let mut rng = Rng::seed(seed);
        Sequential::new()
            .push(Dense::new(dim, hidden, &mut rng))
            .push(Relu::new())
            .push(Dense::new(hidden, classes, &mut rng))
    }
}

/// The ResNet-style deep stack: `depth` equal-width blocks, so gradient
/// buckets become ready evenly through the backward pass.
fn deep_model(dim: usize, width: usize, depth: usize, classes: usize) -> impl Fn(u64) -> Sequential + Sync {
    move |seed| {
        let mut rng = Rng::seed(seed);
        let mut m = Sequential::new().push(Dense::new(dim, width, &mut rng)).push(Relu::new());
        for _ in 0..depth {
            m = m.push(Dense::new(width, width, &mut rng)).push(Relu::new());
        }
        m.push(Dense::new(width, classes, &mut rng))
    }
}

fn opt(lr: f32) -> Box<dyn Optimizer> {
    Box::new(Sgd::new(lr, 0.9, 1e-4))
}

fn toy_dataset(n: usize, dim: usize, classes: usize, seed: u64) -> Dataset {
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

fn run_train<M>(
    cfg: &TrainConfig,
    ds: &Dataset,
    model: M,
    cost: StepCost,
    fusion: FusionConfig,
) -> TrainReport
where
    M: Fn(u64) -> Sequential + Sync,
{
    Trainer::new(cfg.clone())
        .cost(cost)
        .fusion(fusion)
        .run(ds, model, opt, SoftmaxCrossEntropy)
        // lint: allow(unwrap) -- no resume snapshot is armed, so run() cannot fail
        .expect("no snapshot to validate")
        .completed()
}

struct BucketCase {
    bucket_bytes: usize,
    hash: u64,
    bit_equal: bool,
}

struct TrainSection {
    ranks: usize,
    params: usize,
    hash_serialized: u64,
    cases: Vec<BucketCase>,
}

/// Sweeps fusion thresholds and compares the trained parameters against
/// the serialized exchange bit for bit.
fn bench_bit_equality(ranks: usize) -> TrainSection {
    let (dim, hidden, classes) = (16, 32, 4);
    let ds = toy_dataset(ranks * 8, dim, classes, 71);
    let cfg = TrainConfig {
        workers: ranks,
        epochs: 2,
        batch_per_worker: 4,
        base_lr: 0.05,
        lr_scaling: true,
        warmup_epochs: 1,
        seed: 17,
        checkpoint: None,
    };
    let cost = StepCost::default();
    let model = small_model(dim, hidden, classes);
    let base = run_train(&cfg, &ds, &model, cost, FusionConfig::unfused());
    let cases = [1024usize, 64 * 1024, 1024 * 1024]
        .iter()
        .map(|&bucket_bytes| {
            let got = run_train(&cfg, &ds, &model, cost, FusionConfig::fused(bucket_bytes));
            BucketCase {
                bucket_bytes,
                hash: bits_hash(&got.final_params),
                bit_equal: got.final_params.len() == base.final_params.len()
                    && got
                        .final_params
                        .iter()
                        .zip(&base.final_params)
                        .all(|(a, b)| a.to_bits() == b.to_bits()),
            }
        })
        .collect();
    TrainSection {
        ranks,
        params: base.final_params.len(),
        hash_serialized: bits_hash(&base.final_params),
        cases,
    }
}

struct OverlapSection {
    ranks: usize,
    params: usize,
    buckets: usize,
    serialized_wall_ps: u64,
    fused_wall_ps: u64,
    overlap_saved_ps: u64,
    speedup_milli: u64,
    wall_secs_serialized: f64,
    wall_secs_fused: f64,
}

/// The headline workload: p = 8, a deep equal-width stack, ResNet-50's
/// compute intensity (~470 FLOPs/parameter/sample) on a
/// sustained-throughput device model. The speedup is read off the
/// deterministic virtual clock, so it is a *counter*, not a timing.
fn bench_overlap(fast: bool) -> OverlapSection {
    let ranks = 8;
    let (dim, classes) = (64, 16);
    // Full mode: 512-wide × 8 blocks ≈ 2.1 M parameters, ~1 MB gradient
    // buckets — bandwidth-dominated (per-bucket α overhead ~10%), the
    // regime where overlap pays. Fast mode shrinks the model for debug
    // smoke runs; its speedup flag is not asserted (latency-dominated).
    let (width, depth) = if fast { (128, 4) } else { (512, 8) };
    let model = deep_model(dim, width, depth, classes);
    let params: usize = model(1).param_count();
    // One bucket per residual-block-sized slab of gradient.
    let bucket_bytes = (width * width + width) * size_of::<f32>();
    let ds = toy_dataset(ranks * 16, dim, classes, 91);
    let cfg = TrainConfig {
        workers: ranks,
        epochs: 1,
        batch_per_worker: 8,
        base_lr: 0.02,
        lr_scaling: true,
        warmup_epochs: 1,
        seed: 29,
        checkpoint: None,
    };
    let cost = StepCost {
        // ResNet-50 runs ~12 GFLOP/sample over 25.6 M parameters.
        flops_per_sample: 470.0 * params as f64,
        // Sustained ResNet-50 throughput on a V100 (~380 img/s × 12 GF),
        // not FP32 peak.
        gpu_tflops: 3.5,
        ..StepCost::default()
    };
    let fused_cfg = FusionConfig::fused(bucket_bytes);
    let serial = run_train(&cfg, &ds, &model, cost, FusionConfig::unfused());
    let fused = run_train(&cfg, &ds, &model, cost, fused_cfg);
    let reps = if fast { 1 } else { 2 };
    let wall_secs_serialized = min_ns(reps, || {
        run_train(&cfg, &ds, &model, cost, FusionConfig::unfused()).wall_secs
    }) / 1e9;
    let wall_secs_fused =
        min_ns(reps, || run_train(&cfg, &ds, &model, cost, fused_cfg).wall_secs) / 1e9;
    let buckets = distrib::FusionBuffer::new(
        &model(1).layer_param_spans(),
        params,
        fused_cfg.bucket_bytes,
    )
    .buckets()
    .len();
    OverlapSection {
        ranks,
        params,
        buckets,
        serialized_wall_ps: serial.sim_wall_ps,
        fused_wall_ps: fused.sim_wall_ps,
        overlap_saved_ps: fused.breakdown.overlap_saved_ps,
        speedup_milli: serial.sim_wall_ps * 1000 / fused.sim_wall_ps.max(1),
        wall_secs_serialized,
        wall_secs_fused,
    }
}

// ---------------------------------------------------------------------------
// Wall-clock size sweep.
// ---------------------------------------------------------------------------

struct SweepRow {
    ranks: usize,
    bytes: usize,
    ns_ring: f64,
    ns_pipeline: f64,
    ns_rdb: f64,
}

/// Min-of-reps wall time of each allreduce on `p` ranks at `bytes`
/// message size (rank 0's observation; all ranks finish together).
fn sweep_row(ranks: usize, bytes: usize, reps: usize) -> SweepRow {
    let len = bytes / size_of::<f32>();
    let times = ThreadComm::run(ranks, move |c| {
        let mut buf = vec![0.5f32; len];
        let mut arena = Arena::new();
        let ring = min_ns(reps, || collectives::ring_allreduce(c, &mut buf, &mut arena));
        let pipe = min_ns(reps, || {
            collectives::pipeline_allreduce(c, &mut buf, &mut arena)
        });
        let rdb = min_ns(reps, || {
            collectives::recursive_doubling_allreduce(c, &mut buf, &mut arena)
        });
        (ring, pipe, rdb)
    });
    SweepRow {
        ranks,
        bytes,
        ns_ring: times[0].0,
        ns_pipeline: times[0].1,
        ns_rdb: times[0].2,
    }
}

// ---------------------------------------------------------------------------
// JSON emission (hand-built, like the PR-4 report: no serde in the tree).
// ---------------------------------------------------------------------------

fn counters_json(
    wire: &[WireRow],
    allocs: u64,
    train: &TrainSection,
    overlap: &OverlapSection,
) -> String {
    let mut s = String::from("{\n  \"pool_threads\": ");
    let _ = write!(s, "{}", rayon::current_num_threads());
    s.push_str(",\n  \"wire\": [\n");
    for (i, r) in wire.iter().enumerate() {
        let _ = writeln!(
            s,
            "    {{\"collective\": \"{}\", \"ranks\": {}, \"len\": {}, \"msgs_total\": {}, \"bytes_total\": {}}}{}",
            r.collective,
            r.ranks,
            r.len,
            r.msgs_total,
            r.bytes_total,
            if i + 1 < wire.len() { "," } else { "" }
        );
    }
    let _ = writeln!(s, "  ],\n  \"steady_state_allocs\": {allocs},");
    let _ = writeln!(
        s,
        "  \"train\": {{\"ranks\": {}, \"params\": {}, \"hash_serialized\": \"{:016x}\", \"buckets\": [",
        train.ranks, train.params, train.hash_serialized
    );
    for (i, c) in train.cases.iter().enumerate() {
        let _ = writeln!(
            s,
            "    {{\"bucket_bytes\": {}, \"hash\": \"{:016x}\", \"bit_equal\": {}}}{}",
            c.bucket_bytes,
            c.hash,
            c.bit_equal,
            if i + 1 < train.cases.len() { "," } else { "" }
        );
    }
    let all_equal = train.cases.iter().all(|c| c.bit_equal);
    let _ = writeln!(
        s,
        "  ], \"bit_equal_fused_vs_serialized\": {all_equal}}},"
    );
    let _ = writeln!(
        s,
        "  \"overlap\": {{\"ranks\": {}, \"params\": {}, \"buckets\": {}, \"serialized_wall_ps\": {}, \"fused_wall_ps\": {}, \"overlap_saved_ps\": {}, \"speedup_milli\": {}, \"speedup_ge_1_3x\": {}}}",
        overlap.ranks,
        overlap.params,
        overlap.buckets,
        overlap.serialized_wall_ps,
        overlap.fused_wall_ps,
        overlap.overlap_saved_ps,
        overlap.speedup_milli,
        overlap.speedup_milli >= 1300
    );
    s.push('}');
    s
}

fn timings_json(sweep: &[SweepRow], overlap: &OverlapSection) -> String {
    let mut s = String::from("{\n  \"allreduce\": [\n");
    for (i, r) in sweep.iter().enumerate() {
        let _ = writeln!(
            s,
            "    {{\"ranks\": {}, \"bytes\": {}, \"ns_ring\": {:.0}, \"ns_pipeline\": {:.0}, \"ns_rdb\": {:.0}}}{}",
            r.ranks,
            r.bytes,
            r.ns_ring,
            r.ns_pipeline,
            r.ns_rdb,
            if i + 1 < sweep.len() { "," } else { "" }
        );
    }
    s.push_str("  ],\n  \"trainer_step\": ");
    let _ = writeln!(
        s,
        "{{\"wall_secs_serialized\": {:.6}, \"wall_secs_fused\": {:.6}}}",
        overlap.wall_secs_serialized, overlap.wall_secs_fused
    );
    s.push('}');
    s
}

/// The full comm report. Returns `(counters_json, full_json)`:
/// `counters_json` is deterministic run-to-run (CI byte-compares two
/// invocations), `full_json` embeds counters plus wall-clock timings and
/// is the committed `BENCH_pr5.json` artifact.
pub fn comm_report(fast: bool) -> (String, String) {
    let _ = rayon::init_with_threads(POOL_THREADS);

    let wire = vec![
        wire_row("ring_allreduce", 4, 4096),
        wire_row("ring_allreduce", 8, 4096),
        // len < p: the empty-chunk skip drops 10 of 14 per-rank rounds.
        wire_row("ring_allreduce", 8, 3),
        wire_row("pipeline_allreduce", 8, 4096),
        wire_row("recursive_doubling_allreduce", 8, 4096),
    ];
    let allocs = steady_state_allocs(4, 4096);
    let train = bench_bit_equality(if fast { 4 } else { 8 });
    let overlap = bench_overlap(fast);

    let (sizes, ranks, reps): (&[usize], &[usize], usize) = if fast {
        (&[1024, 64 * 1024], &[2, 4], 2)
    } else {
        (
            &[1024, 64 * 1024, 1024 * 1024, 16 * 1024 * 1024, 64 * 1024 * 1024],
            &[2, 4, 8],
            3,
        )
    };
    let mut sweep = Vec::new();
    for &p in ranks {
        for &bytes in sizes {
            sweep.push(sweep_row(p, bytes, reps));
        }
    }

    let counters = counters_json(&wire, allocs, &train, &overlap);
    let mut full = String::from("{\n\"counters\": ");
    full.push_str(&counters);
    full.push_str(",\n\"timings\": ");
    full.push_str(&timings_json(&sweep, &overlap));
    full.push_str("\n}");
    (counters, full)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_are_deterministic_and_contract_flags_hold() {
        let (c1, _) = comm_report(true);
        let (c2, _) = comm_report(true);
        assert_eq!(c1, c2, "deterministic counters differ between runs");
        assert!(c1.contains("\"steady_state_allocs\": 0"), "{c1}");
        assert!(c1.contains("\"bit_equal_fused_vs_serialized\": true"), "{c1}");
        assert!(!c1.contains("\"bit_equal\": false"), "{c1}");
        // Some allreduce picoseconds must hide under the backward tail
        // even on the small fast-mode model. The ≥ 1.3× speedup flag is
        // a full-mode contract (bandwidth-dominated buckets) — CI
        // asserts it on the committed BENCH_pr5.json artifact.
        assert!(!c1.contains("\"overlap_saved_ps\": 0,"), "{c1}");
    }

    #[test]
    fn empty_chunk_ring_ships_less_than_the_full_schedule() {
        let full = wire_row("ring_allreduce", 8, 4096);
        let small = wire_row("ring_allreduce", 8, 3);
        // A full ring is 2(p−1) messages per rank; with len = 3 < p = 8
        // only the three non-empty chunks circulate.
        assert_eq!(full.msgs_total, 2 * 7 * 8);
        assert!(small.msgs_total < 2 * 7 * 8, "{}", small.msgs_total);
        assert_eq!(small.bytes_total, small.msgs_total * 4);
    }
}
