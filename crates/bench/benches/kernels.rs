//! E3/E6 micro-bench: the tensor kernels every training step leans on —
//! parallel matmul, im2col convolution, GRU steps. The matmul sweep runs
//! every size both over the persistent pool (`pool_on`) and inside
//! [`rayon::serial_scope`] (`pool_off`) so the scheduling overhead is
//! separable from kernel throughput. `MSA_BENCH_FAST=1` (honoured by the
//! criterion shim) cuts this to a smoke run; `BENCH_pr4.json` numbers
//! come from `experiments kernels`, not from here.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use nn::Layer;
use tensor::matmul::{matmul, matmul_nt, matmul_tn};
use tensor::Rng;

fn matmul_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("matmul");
    let mut rng = Rng::seed(1);
    for &n in &[64usize, 128, 256, 512] {
        let a = rng.normal_tensor(&[n, n], 1.0);
        let b = rng.normal_tensor(&[n, n], 1.0);
        group.bench_with_input(BenchmarkId::new("nn_pool_on", n), &n, |bch, _| {
            bch.iter(|| matmul(&a, &b));
        });
        group.bench_with_input(BenchmarkId::new("nn_pool_off", n), &n, |bch, _| {
            bch.iter(|| rayon::serial_scope(|| matmul(&a, &b)));
        });
        group.bench_with_input(BenchmarkId::new("tn", n), &n, |bch, _| {
            bch.iter(|| matmul_tn(&a, &b));
        });
        group.bench_with_input(BenchmarkId::new("nt", n), &n, |bch, _| {
            bch.iter(|| matmul_nt(&a, &b));
        });
    }
    group.finish();
}

fn conv_forward_backward(c: &mut Criterion) {
    let mut group = c.benchmark_group("conv2d");
    group.sample_size(20);
    let mut rng = Rng::seed(2);
    let x = rng.normal_tensor(&[8, 8, 16, 16], 1.0);
    let mut conv = nn::Conv2d::new(8, 16, 3, 1, 1, &mut rng);
    group.bench_function("fwd_8x8c16x16", |b| {
        b.iter(|| conv.forward(&x, true));
    });
    group.bench_function("fwd_8x8c16x16_pool_off", |b| {
        b.iter(|| rayon::serial_scope(|| conv.forward(&x, true)));
    });
    let y = conv.forward(&x, true);
    let g = rng.normal_tensor(y.shape(), 1.0);
    group.bench_function("bwd_8x8c16x16", |b| {
        b.iter(|| conv.backward(&g));
    });
    group.bench_function("bwd_8x8c16x16_pool_off", |b| {
        b.iter(|| rayon::serial_scope(|| conv.backward(&g)));
    });
    group.finish();
}

fn gru_step(c: &mut Criterion) {
    let mut group = c.benchmark_group("gru");
    group.sample_size(20);
    let mut rng = Rng::seed(3);
    let mut gru = nn::Gru::new(10, 32, &mut rng);
    let x = rng.normal_tensor(&[16, 48, 10], 1.0);
    group.bench_function("fwd_16x48x10_h32", |b| {
        b.iter(|| gru.forward(&x, true));
    });
    // `backward` consumes what `forward` cached, so the pair is the unit.
    let g = rng.normal_tensor(&[16, 48, 32], 1.0);
    group.bench_function("fwd_bwd_16x48x10_h32", |b| {
        b.iter(|| {
            gru.forward(&x, true);
            gru.backward(&g)
        });
    });
    group.finish();
}

criterion_group!(benches, matmul_kernels, conv_forward_backward, gru_step);
criterion_main!(benches);
