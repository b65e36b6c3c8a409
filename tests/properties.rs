//! Property-style tests over the core invariants of the workspace:
//! collectives compute exactly what serial code computes, cost models are
//! monotone, the annealer never reports inconsistent energies, the data
//! engine preserves multisets.
//!
//! Cases are generated deterministically (seeded xorshift + explicit
//! sweeps) instead of via a property-testing framework, so the suite runs
//! identically in the offline build container and failures are directly
//! reproducible from the printed case.

use msa_suite::data;
use msa_suite::distrib::compress::{densify, top_k};
use msa_suite::hpda::Pdata;
use msa_suite::msa_core::{SimTime, XorShift};
use msa_suite::msa_net::collectives::{chunk_ranges, recursive_doubling_allreduce};
use msa_suite::msa_net::{
    CollectiveAlgo, Communicator as _, LinkParams, PointToPoint as _, ThreadComm,
};
use msa_suite::distrib::{FusionConfig, TrainConfig, Trainer};
use msa_suite::nn::{
    BatchNorm, Dense, Optimizer, Relu, Sequential, Sgd, SoftmaxCrossEntropy,
};
use msa_suite::qa::{anneal, brute_force, Qubo, SaParams};
use msa_suite::tensor::matmul::{matmul, matmul_nt, matmul_tn};
use msa_suite::tensor::Tensor;

/// Deterministic case generator: `msa_core::XorShift` (xorshift64*)
/// from a scrambled seed.
fn cases(seed: u64) -> XorShift {
    XorShift(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
}

/// The draws the cases take from the generator.
trait Draws {
    /// Uniform in `[0, n)`.
    fn below(&mut self, n: usize) -> usize;
    /// Uniform in `[lo, hi)`.
    fn f64_in(&mut self, lo: f64, hi: f64) -> f64;
    fn f32_in(&mut self, lo: f32, hi: f32) -> f32 {
        self.f64_in(lo as f64, hi as f64) as f32
    }
}

impl Draws for XorShift {
    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    fn f64_in(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }
}

#[test]
fn ring_allreduce_equals_serial_sum() {
    let mut xs = cases(11);
    for ranks in 2usize..6 {
        for &len in &[0usize, 1, 7, 39] {
            let base = xs.f32_in(-100.0, 100.0);
            let results = ThreadComm::run(ranks, |c| {
                let mut buf: Vec<f32> =
                    (0..len).map(|i| base + (c.rank() * len + i) as f32).collect();
                c.allreduce_sum(&mut buf);
                buf
            });
            let expected: Vec<f32> = (0..len)
                .map(|i| (0..ranks).map(|r| base + (r * len + i) as f32).sum())
                .collect();
            for buf in results {
                for (a, b) in buf.iter().zip(&expected) {
                    assert!(
                        (a - b).abs() <= 1e-3 * (1.0 + b.abs()),
                        "ranks={ranks} len={len} base={base}: {a} vs {b}"
                    );
                }
            }
        }
    }
}

/// Satellite property: `recursive_doubling_allreduce` handles non-power-
/// of-two rank counts (the fold-in pre/post phases) without corrupting
/// the sum. p = 3, 5, 6, 7, 12 covers every fold-in shape up to 16.
#[test]
fn recursive_doubling_handles_non_power_of_two_ranks() {
    for &ranks in &[3usize, 5, 6, 7, 12] {
        for &len in &[1usize, 4, 33] {
            let results = ThreadComm::run(ranks, |c| {
                let mut buf: Vec<f32> =
                    (0..len).map(|i| (c.rank() + 1) as f32 * (i + 1) as f32).collect();
                recursive_doubling_allreduce(c, &mut buf);
                buf
            });
            let rank_sum: f32 = (1..=ranks).map(|r| r as f32).sum();
            for (who, buf) in results.iter().enumerate() {
                for (i, v) in buf.iter().enumerate() {
                    let want = rank_sum * (i + 1) as f32;
                    assert!(
                        (v - want).abs() <= 1e-4 * (1.0 + want.abs()),
                        "p={ranks} len={len} rank={who} elem={i}: {v} vs {want}"
                    );
                }
            }
        }
    }
}

/// Satellite property: `chunk_ranges(len, parts)` is an exact partition —
/// ranges are contiguous and monotone, their sizes sum to `len`, and the
/// first `len % parts` ranges get exactly one extra element.
#[test]
fn chunk_ranges_is_an_exact_balanced_partition() {
    for len in 0usize..65 {
        for parts in 1usize..17 {
            let ranges = chunk_ranges(len, parts);
            assert_eq!(ranges.len(), parts, "len={len} parts={parts}");
            // Contiguous cover of 0..len.
            assert_eq!(ranges[0].start, 0);
            assert_eq!(ranges[parts - 1].end, len);
            for w in ranges.windows(2) {
                assert_eq!(w[0].end, w[1].start, "gap at len={len} parts={parts}");
            }
            // Sizes sum to len.
            let total: usize = ranges.iter().map(|r| r.end - r.start).sum();
            assert_eq!(total, len);
            // Balanced: first len % parts ranges hold ceil(len/parts),
            // the rest floor(len/parts).
            let (q, rem) = (len / parts, len % parts);
            for (i, r) in ranges.iter().enumerate() {
                let want = if i < rem { q + 1 } else { q };
                assert_eq!(r.end - r.start, want, "len={len} parts={parts} i={i}");
            }
        }
    }
}

#[test]
fn allgather_preserves_every_rank_block() {
    for ranks in 1usize..6 {
        for &len in &[1usize, 3, 11] {
            let results = ThreadComm::run(ranks, |c| {
                let mine = vec![c.rank() as f32; len];
                c.allgather(&mine)
            });
            for blocks in results {
                assert_eq!(blocks.len(), ranks);
                for (r, b) in blocks.iter().enumerate() {
                    assert_eq!(b, &vec![r as f32; len]);
                }
            }
        }
    }
}

#[test]
fn collective_costs_are_monotone_in_message_size() {
    let link = LinkParams::infiniband_edr();
    let mut xs = cases(23);
    for _ in 0..24 {
        let p = 2 + xs.below(254);
        let bytes = xs.f64_in(1.0, 1e8);
        for algo in CollectiveAlgo::software().into_iter().chain([CollectiveAlgo::GceOffload]) {
            let t1 = algo.allreduce_time(p, bytes, link);
            let t2 = algo.allreduce_time(p, bytes * 2.0, link);
            assert!(t2 >= t1, "{algo:?} not monotone at p={p}, bytes={bytes}");
        }
    }
}

#[test]
fn simtime_ordering_is_consistent_with_secs() {
    let mut xs = cases(31);
    for _ in 0..200 {
        let a = xs.f64_in(0.0, 1e6);
        let b = xs.f64_in(0.0, 1e6);
        let (ta, tb) = (SimTime::from_secs(a), SimTime::from_secs(b));
        // Rounding to the picosecond is monotone and off by at most half
        // a picosecond, plus the f64 rounding of a value this large.
        assert!(a >= b || ta <= tb, "{a} < {b} but {ta:?} > {tb:?}");
        for (t, x) in [(ta, a), (tb, b)] {
            assert!(
                (t.as_secs() - x).abs() <= 0.5e-12 + 2.0 * x * f64::EPSILON,
                "{x}"
            );
        }
        assert_eq!((ta + tb).as_ps(), ta.as_ps() + tb.as_ps());
        assert_eq!(ta.max(tb).as_ps(), ta.as_ps().max(tb.as_ps()));
    }
    // Integer addition is associative: any order sums to the same time.
    let mut spans: Vec<SimTime> = (0..200)
        .map(|_| SimTime::from_secs(xs.f64_in(0.0, 1.0)))
        .collect();
    let mut sums = Vec::new();
    for _ in 0..3 {
        for i in (1..spans.len()).rev() {
            spans.swap(i, xs.below(i + 1));
        }
        sums.push(spans.iter().fold(SimTime::ZERO, |acc, &t| acc + t));
    }
    assert!(sums.iter().all(|&s| s == sums[0]), "{sums:?}");
}

#[test]
fn annealer_energy_reports_are_self_consistent() {
    for (n, seed) in [(2usize, 1u64), (5, 7), (9, 13), (13, 42)] {
        // Random QUBO: all returned samples must carry their true energy,
        // and SA on small problems must reach the brute-force optimum
        // given enough restarts.
        let mut q = Qubo::new(n);
        let mut xs = cases(seed);
        for i in 0..n {
            q.add_linear(i, xs.f64_in(-0.5, 0.5));
            for j in (i + 1)..n {
                q.add_quadratic(i, j, xs.f64_in(-0.5, 0.5));
            }
        }
        let samples = anneal(&q, &SaParams { sweeps: 300, restarts: 12, ..Default::default() });
        for s in &samples {
            assert!((q.energy(&s.bits) - s.energy).abs() < 1e-9);
        }
        let exact = brute_force(&q);
        assert!(samples[0].energy <= exact.energy + 1e-6, "n={n} seed={seed}");
    }
}

#[test]
fn pdata_roundtrip_preserves_multiset() {
    let mut xs = cases(41);
    for &count in &[0usize, 1, 17, 180] {
        for parts in 1usize..9 {
            let items: Vec<i64> = (0..count).map(|_| xs.below(1000) as i64).collect();
            let d = Pdata::from_vec(items.clone(), parts);
            assert_eq!(d.count(), items.len());
            let mut collected = d.collect();
            let mut original = items.clone();
            collected.sort_unstable();
            original.sort_unstable();
            assert_eq!(collected, original);
            // reduce == serial fold
            let sum = d.reduce(|a, b| a + b);
            assert_eq!(sum, items.iter().copied().reduce(|a, b| a + b));
        }
    }
}

#[test]
fn reduce_by_key_matches_hashmap() {
    let mut xs = cases(43);
    for &count in &[0usize, 9, 140] {
        for parts in 1usize..6 {
            let pairs: Vec<(u32, u64)> = (0..count)
                .map(|_| (xs.below(20) as u32, 1 + xs.below(4) as u64))
                .collect();
            let d = Pdata::from_vec(pairs.clone(), parts);
            let mut got: Vec<(u32, u64)> = d.reduce_by_key(|a, b| a + b).collect();
            got.sort_unstable();
            let mut want = std::collections::BTreeMap::new();
            for (k, v) in pairs {
                *want.entry(k).or_insert(0u64) += v;
            }
            let want: Vec<(u32, u64)> = want.into_iter().collect();
            assert_eq!(got, want);
        }
    }
}

#[test]
fn matmul_transpose_identities() {
    let mut xs = cases(47);
    for seed in 0u64..12 {
        let (m, k, n) = (1 + xs.below(7), 1 + xs.below(7), 1 + xs.below(7));
        let mut rng = msa_suite::tensor::Rng::seed(seed);
        let a = rng.normal_tensor(&[m, k], 1.0);
        let b = rng.normal_tensor(&[k, n], 1.0);
        let c = matmul(&a, &b);
        // (AB)ᵀ = Bᵀ Aᵀ
        let lhs = c.transpose();
        let rhs = matmul(&b.transpose(), &a.transpose());
        for (x, y) in lhs.data().iter().zip(rhs.data()) {
            assert!((x - y).abs() < 1e-4);
        }
        // tn/nt agree with explicit transposes
        let tn = matmul_tn(&a.transpose(), &b);
        for (x, y) in tn.data().iter().zip(c.data()) {
            assert!((x - y).abs() < 1e-4);
        }
        let nt = matmul_nt(&a, &b.transpose());
        for (x, y) in nt.data().iter().zip(c.data()) {
            assert!((x - y).abs() < 1e-4);
        }
    }
}

/// PR4 invariant: blocking never reassociates the sum. The cache-blocked
/// matmul walks k-panels in ascending order and accumulates each output
/// element in the seed's exact per-element order, so the panel split
/// points are invisible in the bits — on random odd shapes and on shapes
/// either side of the 128-deep k-block and 512-wide j-panel edges, with a
/// dense `A` and with a third of the same `A` signed zeros (skipped taps),
/// and the thread pool on or off ([`rayon::serial_scope`]), the result
/// equals the seed's serial ikj/dot kernels under exact `to_bits`
/// equality, not a tolerance.
#[test]
fn matmul_k_blocking_never_reassociates_the_sum() {
    use msa_suite::tensor::matmul::reference;

    fn assert_bits_eq(got: &Tensor, want: &Tensor, what: &str) {
        assert_eq!(got.shape(), want.shape(), "{what}: shape mismatch");
        for (i, (x, y)) in got.data().iter().zip(want.data()).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{what} elem {i}: {x} vs {y}");
        }
    }

    /// `t` and a copy of it with a signed zero in about a third of the
    /// places: a zero tap of `A` is skipped, never added as `0·b`.
    fn dense_and_sparse(t: Tensor, seed: u64) -> [Tensor; 2] {
        let mut rng = msa_suite::tensor::Rng::seed(seed);
        let mut sparse = t.clone();
        for v in sparse.data_mut() {
            if rng.chance(1.0 / 3.0) {
                *v = if rng.chance(0.5) { 0.0 } else { -0.0 };
            }
        }
        [t, sparse]
    }

    // Widen the pool even on a 1-CPU runner so the parallel path is the
    // one under test (first caller wins; every kernel is width-invariant).
    rayon::init_with_threads(4);
    let mut xs = cases(61);
    for case in 0u64..10 {
        // Odd shapes straddle every tile boundary: 8/4-row register
        // tiles, 4-column nt chains, kc/nc panel edges. k = 0 is legal.
        let (m, k, n) = (1 + xs.below(41), xs.below(49), 1 + xs.below(41));
        let mut rng = msa_suite::tensor::Rng::seed(100 + case);
        let a = rng.normal_tensor(&[m, k], 1.0);
        let b = rng.normal_tensor(&[k, n], 1.0);
        let at = rng.normal_tensor(&[k, m], 1.0);
        let bt = rng.normal_tensor(&[n, k], 1.0);
        let [a_s, at_s] = [a, at].map(|t| dense_and_sparse(t, 200 + case));
        for (a, at, draw) in [(&a_s[0], &at_s[0], "dense"), (&a_s[1], &at_s[1], "sparse")] {
            let tag = format!("case {case} ({m}x{k})·({k}x{n}) {draw}");

            let want = reference::matmul_ikj(a, &b);
            assert_bits_eq(&matmul(a, &b), &want, &format!("{tag} pool-on"));
            assert_bits_eq(
                &rayon::serial_scope(|| matmul(a, &b)),
                &want,
                &format!("{tag} pool-off"),
            );
            assert_bits_eq(
                &matmul_tn(at, &b),
                &reference::matmul_tn_ikj(at, &b),
                &format!("{tag} tn"),
            );
            assert_bits_eq(
                &matmul_nt(a, &bt),
                &reference::matmul_nt_dot(a, &bt),
                &format!("{tag} nt"),
            );
        }
    }
    // One short of, on and one past each panel edge, and two k-blocks deep.
    for k in [127, 128, 129, 257] {
        for n in [511, 512, 513] {
            let mut rng = msa_suite::tensor::Rng::seed((k * n) as u64);
            let a = rng.normal_tensor(&[9, k], 1.0);
            let b = rng.normal_tensor(&[k, n], 1.0);
            let draws = dense_and_sparse(a, (k * n + 1) as u64);
            for (a, draw) in draws.iter().zip(["dense", "sparse"]) {
                let tag = format!("edge (9x{k})·({k}x{n}) {draw}");
                let want = reference::matmul_ikj(a, &b);
                assert_bits_eq(&matmul(a, &b), &want, &format!("{tag} pool-on"));
                assert_bits_eq(
                    &rayon::serial_scope(|| matmul(a, &b)),
                    &want,
                    &format!("{tag} pool-off"),
                );
            }
        }
    }
}

/// PR5 invariant: gradient bucket fusion with backward/allreduce overlap
/// never reassociates the gradient sum. Every bucket is exchanged with
/// `pipeline_allreduce`, whose element-wise fold order depends only on
/// rank order — never on where the flat gradient was cut — so for every
/// worker count and every fusion threshold (1 KiB, 64 KiB, 1 MiB,
/// unfused) the trained parameters, BatchNorm running statistics and
/// per-epoch mean losses equal the serialized path under exact `to_bits`
/// equality, not a tolerance.
#[test]
fn gradient_bucket_fusion_never_reassociates_the_sum() {
    fn model(seed: u64) -> Sequential {
        let mut rng = msa_suite::tensor::Rng::seed(seed);
        Sequential::new()
            .push(Dense::new(8, 24, &mut rng))
            .push(BatchNorm::new(24))
            .push(Relu::new())
            .push(Dense::new(24, 4, &mut rng))
    }
    fn opt(lr: f32) -> Box<dyn Optimizer> {
        Box::new(Sgd::new(lr, 0.9, 1e-4))
    }
    let dim = 8;
    let classes = 4;
    let mut rng = msa_suite::tensor::Rng::seed(71);
    let n = 192;
    let mut x = Vec::with_capacity(n * dim);
    let mut y = Vec::with_capacity(n);
    for _ in 0..n {
        let c = rng.below(classes);
        let mut row: Vec<f32> = (0..dim).map(|_| rng.normal() * 0.3).collect();
        row[c] += 2.0;
        x.extend(row);
        y.push(c as f32);
    }
    let ds = data::Dataset {
        x: Tensor::from_vec(x, &[n, dim]),
        y: Tensor::from_vec(y, &[n]),
    };

    for &workers in &[1usize, 4, 8] {
        let cfg = TrainConfig {
            workers,
            epochs: 2,
            batch_per_worker: 8,
            base_lr: 0.05,
            lr_scaling: true,
            warmup_epochs: 1,
            seed: 17,
            checkpoint: None,
        };
        let base = Trainer::new(cfg.clone())
            .run(&ds, model, opt, SoftmaxCrossEntropy)
            .expect("no snapshot to validate")
            .completed();
        for fusion in [
            FusionConfig::fused(1024),
            FusionConfig::fused(64 * 1024),
            FusionConfig::fused(1024 * 1024),
            FusionConfig::unfused().overlap(true),
        ] {
            let got = Trainer::new(cfg.clone())
                .fusion(fusion)
                .run(&ds, model, opt, SoftmaxCrossEntropy)
                .expect("no snapshot to validate")
                .completed();
            assert_eq!(
                base.final_params, got.final_params,
                "p={workers} {fusion:?}: parameters diverged"
            );
            assert_eq!(
                base.final_state, got.final_state,
                "p={workers} {fusion:?}: BatchNorm state diverged"
            );
            assert_eq!(base.epochs.len(), got.epochs.len());
            for (b, g) in base.epochs.iter().zip(&got.epochs) {
                assert_eq!(
                    b.mean_loss.to_bits(),
                    g.mean_loss.to_bits(),
                    "p={workers} {fusion:?} epoch {}: {} vs {}",
                    b.epoch,
                    b.mean_loss,
                    g.mean_loss
                );
            }
        }
    }
}

#[test]
fn softmax_rows_are_distributions() {
    let mut xs = cases(53);
    for seed in 0u64..12 {
        let (rows, cols) = (1 + xs.below(5), 1 + xs.below(7));
        let mut rng = msa_suite::tensor::Rng::seed(seed);
        let t = rng.normal_tensor(&[rows, cols], 10.0);
        let s = t.softmax_rows();
        for r in 0..rows {
            let row = s.row(r);
            let sum: f32 = row.iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
            assert!(row.iter().all(|&p| (0.0..=1.0).contains(&p)));
        }
    }
}

#[test]
fn top_k_is_a_projection_preserving_largest_mass() {
    let mut xs = cases(59);
    for &n in &[1usize, 2, 13, 63] {
        for &k in &[1usize, 2, 5, 15] {
            let values: Vec<f32> = (0..n).map(|_| xs.f32_in(-100.0, 100.0)).collect();
            let (idx, vals) = top_k(&values, k);
            let k_eff = k.min(values.len());
            assert_eq!(idx.len(), k_eff);
            // Indices strictly ascending and in range.
            for w in idx.windows(2) {
                assert!(w[0] < w[1]);
            }
            // Every kept entry is ≥ every dropped entry in magnitude.
            let kept: std::collections::HashSet<u32> = idx.iter().copied().collect();
            let min_kept = vals.iter().map(|v| v.abs()).fold(f32::INFINITY, f32::min);
            for (i, v) in values.iter().enumerate() {
                if !kept.contains(&(i as u32)) {
                    assert!(v.abs() <= min_kept + 1e-6);
                }
            }
            // densify ∘ top_k is idempotent under a second top_k.
            let dense = densify(values.len(), &idx, &vals);
            let (idx2, vals2) = top_k(&dense, k_eff);
            let d2 = densify(values.len(), &idx2, &vals2);
            assert_eq!(dense, d2);
        }
    }
}

#[test]
fn dataset_sharding_partitions_exactly() {
    for &n in &[1usize, 7, 64, 99] {
        for shards in 1usize..10 {
            let ds = data::Dataset {
                x: Tensor::from_vec((0..n * 2).map(|v| v as f32).collect(), &[n, 2]),
                y: Tensor::from_vec((0..n).map(|v| v as f32).collect(), &[n]),
            };
            let mut seen = Vec::new();
            for s in 0..shards {
                let shard = ds.shard(s, shards);
                seen.extend(shard.y.data().iter().copied());
            }
            seen.sort_by(f32::total_cmp);
            let want: Vec<f32> = (0..n).map(|v| v as f32).collect();
            assert_eq!(seen, want, "n={n} shards={shards}");
        }
    }
}
