//! The PR-9 gradient wire-codec contract, end to end:
//!
//! 1. the **default codec is the seed trainer** — `Trainer::new(cfg)`
//!    with and without an explicit `.codec(GradCodec::Dense32)` produce
//!    bit-identical parameters (the codec plumbing must not perturb the
//!    dense path by a single ULP);
//! 2. the **bf16 exchange is partition-invariant** like the dense
//!    pipeline: fused, serialized and overlapped schedules at several
//!    bucket sizes all land on the same bits;
//! 3. **sparse top-k trains** — error feedback accumulates what the
//!    wire dropped, so the model still learns the toy problem — and its
//!    fused/serialized schedules agree at a fixed partition;
//! 4. the **extended decision table round-trips**: `ccell` rows survive
//!    `to_table_string` → `parse` byte-identically, while codec-free
//!    tables serialize exactly as before (old artifacts stay stable);
//! 5. the **transport's priced clock** charges each exchange the trainer
//!    can run exactly its critical path of α–β hops.

use std::sync::Arc;

use msa_suite::data::Dataset;
use msa_suite::distrib::{
    sparse_allreduce_mean, FusionConfig, TopKCompressor, TrainConfig, Trainer,
};
use msa_suite::msa_net::collectives::pipeline_allreduce_mean;
use msa_suite::msa_net::tune::{measure_codec, CodecEntry, TuneGrid};
use msa_suite::msa_net::{
    bf16_allreduce, Arena, CollectiveAlgo, CommOptions, DecisionTable, GradCodec, LinkParams,
    PointToPoint, ThreadComm, Topology,
};
use msa_suite::nn::{Dense, Optimizer, Relu, Sequential, Sgd, SoftmaxCrossEntropy};
use msa_suite::tensor::{Rng, Tensor};

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

fn mlp(seed: u64) -> Sequential {
    let mut rng = Rng::seed(seed);
    Sequential::new()
        .push(Dense::new(8, 32, &mut rng))
        .push(Relu::new())
        .push(Dense::new(32, 4, &mut rng))
}

fn opt(lr: f32) -> Box<dyn Optimizer> {
    Box::new(Sgd::new(lr, 0.9, 0.0))
}

fn train(codec: GradCodec, fusion: FusionConfig) -> Vec<f32> {
    let ds = toy_dataset(256, 8, 4, 47);
    let cfg = TrainConfig {
        workers: 4,
        epochs: 3,
        batch_per_worker: 8,
        base_lr: 0.05,
        lr_scaling: true,
        warmup_epochs: 1,
        seed: 47,
        checkpoint: None,
    };
    Trainer::new(cfg)
        .fusion(fusion)
        .codec(codec)
        .run(&ds, mlp, opt, SoftmaxCrossEntropy)
        .expect("no snapshot to validate")
        .completed()
        .final_params
}

fn bits_equal(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

#[test]
fn default_codec_is_bit_identical_to_explicit_dense() {
    let implicit = {
        let ds = toy_dataset(256, 8, 4, 47);
        let cfg = TrainConfig {
            workers: 4,
            epochs: 3,
            batch_per_worker: 8,
            base_lr: 0.05,
            lr_scaling: true,
            warmup_epochs: 1,
            seed: 47,
            checkpoint: None,
        };
        Trainer::new(cfg)
            .run(&ds, mlp, opt, SoftmaxCrossEntropy)
            .expect("no snapshot to validate")
            .completed()
            .final_params
    };
    let explicit = train(GradCodec::Dense32, FusionConfig::unfused());
    assert!(
        bits_equal(&implicit, &explicit),
        "explicit Dense32 perturbed the seed trainer"
    );
}

#[test]
fn bf16_training_is_partition_invariant_and_overlap_safe() {
    // The bf16 chain folds element-wise, so — like the dense pipeline —
    // its bits cannot depend on how the flat gradient is bucketed or on
    // whether the exchange overlaps backward.
    let base = train(GradCodec::Bf16, FusionConfig::unfused());
    for fusion in [
        FusionConfig::fused(1024).overlap(false),
        FusionConfig::fused(1024),
        FusionConfig::fused(64),
        FusionConfig::unfused().overlap(true),
    ] {
        let got = train(GradCodec::Bf16, fusion);
        assert!(bits_equal(&base, &got), "{fusion:?}: bf16 bits diverged");
    }
    // And it genuinely quantises: the dense result differs.
    let dense = train(GradCodec::Dense32, FusionConfig::unfused());
    assert!(!bits_equal(&base, &dense), "bf16 cannot equal dense bit-for-bit");
}

#[test]
fn sparse_topk_learns_and_agrees_across_schedules_at_fixed_partition() {
    // Error feedback: what the wire drops this step rides the residual
    // into the next, so top-k training still converges on the toy task.
    let ds = toy_dataset(256, 8, 4, 53);
    let (train_ds, test) = ds.split(0.25);
    let cfg = TrainConfig {
        workers: 2,
        epochs: 12,
        batch_per_worker: 16,
        base_lr: 0.1,
        lr_scaling: true,
        warmup_epochs: 1,
        seed: 53,
        checkpoint: None,
    };
    let run = |fusion: FusionConfig| {
        Trainer::new(cfg.clone())
            .fusion(fusion)
            .codec(GradCodec::SparseTopK { ratio: 0.05 })
            .run(&train_ds, mlp, opt, SoftmaxCrossEntropy)
            .expect("no snapshot to validate")
            .completed()
    };
    let serial = run(FusionConfig::unfused());
    let acc = msa_suite::distrib::evaluate_classifier(mlp, cfg.seed, &serial, &test);
    assert!(acc > 0.8, "sparse top-k failed to learn: acc {acc}");
    // Same partition (one whole-gradient bucket), overlap on/off: the
    // per-bucket compressor sees the same segments in the same order.
    let overlapped = run(FusionConfig::unfused().overlap(true));
    assert!(
        bits_equal(&serial.final_params, &overlapped.final_params),
        "sparse overlap changed bits at a fixed partition"
    );
}

#[test]
fn extended_table_round_trips_and_codec_free_tables_stay_stable() {
    let grid = TuneGrid::smoke();
    let report = grid.run();
    let mut table = report.table();
    let plain = table.to_table_string();
    // Codec-free serialization must not mention ccell at all — the
    // committed TUNE_pr7.table cannot change bytes.
    assert!(!plain.contains("ccell"));

    let (ranks, bytes) = (4usize, 64 * 1024usize);
    let link = LinkParams::extoll();
    let topo = Topology::esb(4);
    let dense = measure_codec(GradCodec::Dense32, ranks, bytes, link, topo);
    for codec in [GradCodec::Bf16, GradCodec::SparseTopK { ratio: 0.01 }] {
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
    }
    let extended = table.to_table_string();
    assert!(extended.starts_with(&plain), "ccell rows must append, not rewrite");
    let parsed = DecisionTable::parse(&extended).expect("extended table parses");
    assert_eq!(parsed.to_table_string(), extended, "round-trip must be byte-exact");
    assert_eq!(parsed.codec_entries().len(), 2);
    // The measured ratio the scaling model consumes is derivable from
    // the parsed rows.
    let ratio = parsed
        .codec_ratio(ranks, bytes, GradCodec::Bf16)
        .expect("bf16 cell present");
    assert!(ratio > 0.0 && ratio < 1.0, "bf16 must beat dense here: {ratio}");
    let _ = Arc::new(parsed);
}

#[test]
fn transport_clock_prices_each_exchange_by_its_critical_path() {
    // The chain (dense and bf16) is p−1 reduce hops then p−1 broadcast
    // hops of the whole wire buffer; the sparse exchange is a ring
    // allgather of p−1 hops, each one rank's block. The latest endpoint's
    // Lamport clock must land on exactly that many priced hops.
    let link = LinkParams::infiniband_edr();
    let len = 960;
    let ratio = 0.01;
    let opts = CommOptions::new().link(link);
    let hops = |p: usize, bytes: usize| link.p2p(bytes as f64).as_ps() * p as u64;
    for p in [2usize, 3, 4, 8] {
        let max_vtime = |exchange: &(dyn Fn(&ThreadComm, &mut [f32]) + Sync)| {
            let out = ThreadComm::run_with(p, &opts, |c| {
                let mut buf: Vec<f32> = (0..len).map(|i| (i + c.rank()) as f32).collect();
                exchange(c, &mut buf);
                c.stats().map_or(0, |s| s.vtime_ps())
            });
            out.into_iter().max().unwrap_or(0)
        };
        let dense = max_vtime(&|c, buf| pipeline_allreduce_mean(c, buf));
        assert_eq!(dense, hops(2 * (p - 1), GradCodec::Dense32.wire_bytes(len)), "dense p={p}");
        let bf16 = max_vtime(&|c, buf| bf16_allreduce(c, buf, &mut Arena::new()));
        assert_eq!(bf16, hops(2 * (p - 1), GradCodec::Bf16.wire_bytes(len)), "bf16 p={p}");
        let sparse = max_vtime(&|c, buf| {
            sparse_allreduce_mean(c, buf, &mut TopKCompressor::new(len, ratio))
        });
        let block = GradCodec::SparseTopK { ratio }.wire_bytes(len);
        assert_eq!(sparse, hops(p - 1, block), "top-k p={p}");
        // The chain's α–β formula rounds once, the clock once per hop.
        let model = CollectiveAlgo::Pipeline
            .allreduce_time(p, (len * 4) as f64, link)
            .as_ps();
        assert!(model.abs_diff(dense) <= 2 * (p as u64 - 1), "p={p}: {model} vs {dense}");
    }
}
