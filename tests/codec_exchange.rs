//! The PR-9 gradient wire-codec contract, end to end:
//!
//! 1. the **default codec is the seed trainer** — `Trainer::new(cfg)`
//!    with and without an explicit `.codec(GradCodec::Dense32)` produce
//!    bit-identical results (the codec plumbing must not perturb the
//!    dense path by a single ULP);
//! 2. the **bf16 exchange is partition-invariant** like the dense
//!    pipeline: fused, serialized and overlapped schedules at several
//!    bucket sizes all land on the same bits;
//! 3. **sparse top-k trains** — error feedback accumulates what the
//!    wire dropped, so the model still learns the toy problem — and its
//!    overlapped/serialized schedules agree at a fixed partition;
//! 4. the **extended decision table round-trips**: `ccell` rows survive
//!    `to_table_string` → `parse` byte-identically, while codec-free
//!    tables serialize exactly as before (old artifacts stay stable);
//! 5. the **transport's priced clock** charges each exchange the trainer
//!    can run exactly its critical path of α–β hops, the sharded dense
//!    step's reduce-scatter and parameter allgather included.

mod common;

use common::*;
use msa_suite::distrib::{sparse_allreduce_mean, TopKCompressor};
use msa_suite::msa_net::collectives::{
    pipeline_allreduce_mean, pipeline_reduce_scatter_mean, shard_gather,
};
use msa_suite::msa_net::tune::{measure_codec, CodecEntry, TuneGrid};
use msa_suite::msa_net::{
    bf16_allreduce, Arena, CollectiveAlgo, CommOptions, LinkParams, PointToPoint, ThreadComm,
    Topology,
};

#[test]
fn default_codec_is_bit_identical_to_explicit_dense() {
    // The reference run sets nothing; the cell sets `.codec(Dense32)`.
    check(&Cell {
        workers: 4,
        ..base()
    });
}

#[test]
fn bf16_training_is_partition_invariant_and_overlap_safe() {
    // The bf16 chain folds element-wise, so — like the dense pipeline —
    // its bits cannot depend on how the flat gradient is bucketed or on
    // whether the exchange overlaps backward.
    let bf16 = Cell {
        workers: 4,
        codec: GradCodec::Bf16,
        ..base()
    };
    for fusion in fusions() {
        check(&Cell { fusion, ..bf16 });
    }
    // And it genuinely quantises: the dense result differs.
    let params = |c: Cell| c.run(&c.trainer()).expect("no snapshot").completed();
    let dense = Cell {
        codec: GradCodec::Dense32,
        ..bf16
    };
    let (bf16, dense) = (params(bf16).final_params, params(dense).final_params);
    assert_ne!(bf16, dense, "bf16 cannot equal dense bit-for-bit");
}

#[test]
fn sparse_topk_learns_and_agrees_across_schedules_at_fixed_partition() {
    // Error feedback: what the wire drops this step rides the residual
    // into the next, so top-k training still converges on the toy task.
    let codec = GradCodec::SparseTopK { ratio: 0.05 };
    let (train, test) = toy_dataset(256, 8, 4, 53).split(0.25);
    let cfg = TrainConfig {
        epochs: 12,
        batch_per_worker: 16,
        base_lr: 0.1,
        ..config()
    };
    let report = Trainer::new(cfg.clone())
        .codec(codec)
        .run(&train, mlp, sgd, SoftmaxCrossEntropy)
        .expect("no snapshot to validate")
        .completed();
    let acc = msa_suite::distrib::evaluate_classifier(mlp, cfg.seed, &report, &test);
    assert!(acc > 0.8, "sparse top-k failed to learn: acc {acc}");
    // Same partition (one whole-gradient bucket), overlap on/off: the
    // per-bucket compressor sees the same segments in the same order.
    check(&Cell {
        codec,
        fusion: FusionConfig::unfused().overlap(true),
        ..base()
    });
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

#[test]
fn transport_clock_prices_the_sharded_exchange_by_its_critical_path() {
    // The owner-fold reduce-scatter is p − 2 up-chain hops of the whole
    // buffer, then one hop of one shard to its owner (rank p − 1 sends
    // its slices at once, so they never wait on the chain). The parameter
    // allgather adds one more shard hop: every rank sends straight to
    // every other.
    let link = LinkParams::infiniband_edr();
    let len = 960;
    let opts = CommOptions::new().link(link);
    let hop = |floats: usize| link.p2p((floats * 4) as f64).as_ps();
    for p in [2usize, 4] {
        let clocks = ThreadComm::run_with(p, &opts, |c| {
            let vtime = || c.stats().map_or(0, |s| s.vtime_ps());
            let mut buf: Vec<f32> = (0..len).map(|i| (i + c.rank()) as f32).collect();
            pipeline_reduce_scatter_mean(c, &mut buf, 0, len);
            let scattered = vtime();
            shard_gather(
                c,
                None,
                len,
                &mut buf[..],
                |b, r, msg| msg.copy_from_slice(&b[r]),
                |b, r, msg| b[r].copy_from_slice(msg),
            );
            (scattered, vtime())
        });
        let latest = |f: fn(&(u64, u64)) -> u64| clocks.iter().map(f).max().unwrap_or(0);
        let chain = (p as u64 - 2) * hop(len);
        assert_eq!(latest(|c| c.0), chain + hop(len / p), "reduce-scatter p={p}");
        assert_eq!(latest(|c| c.1), chain + 2 * hop(len / p), "allgather p={p}");
    }
}
