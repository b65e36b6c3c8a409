//! E3/E6 micro-bench: the tensor kernels every training step leans on —
//! parallel matmul, im2col convolution, GRU steps, and the elementwise
//! layers and optimiser around them. The matmul sweep runs
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

/// The layers of a step that are not GEMMs, on the benchmark's shapes:
/// `icu_gru_p1`'s dropout and `Dense(32→1)` head, the ResNet's first
/// batch norm, and Adam over the wide MLP's 2.1 M parameters.
fn streaming_layers(c: &mut Criterion) {
    let mut rng = Rng::seed(4);
    let mut group = c.benchmark_group("dropout");
    let mut dropout = nn::Dropout::new(0.2, 1001);
    let x = rng.normal_tensor(&[240, 48, 32], 1.0);
    group.bench_function("fwd_240x48x32", |b| {
        b.iter(|| dropout.forward(&x, true));
    });
    group.finish();

    let mut group = c.benchmark_group("dense");
    let mut dense = nn::Dense::new(32, 1, &mut rng);
    let g = rng.normal_tensor(&[240, 48, 1], 1.0);
    group.bench_function("fwd_bwd_11520x32x1", |b| {
        b.iter(|| {
            dense.forward(&x, true);
            dense.backward(&g)
        });
    });
    group.finish();

    let mut group = c.benchmark_group("batchnorm");
    let mut bn = nn::BatchNorm::new(16);
    let x = rng.normal_tensor(&[32, 16, 16, 16], 1.0);
    let g = rng.normal_tensor(&[32, 16, 16, 16], 1.0);
    group.bench_function("fwd_bwd_32x16x16x16", |b| {
        b.iter(|| {
            bn.forward(&x, true);
            bn.backward(&g)
        });
    });
    group.finish();

    let mut group = c.benchmark_group("adam");
    group.sample_size(20);
    let mut p = nn::Param::new(rng.normal_tensor(&[2_097_152], 1.0));
    p.grad = rng.normal_tensor(&[2_097_152], 0.01);
    let mut adam = nn::Adam::new(1e-3);
    group.bench_function("step_2m", |b| {
        b.iter(|| nn::Optimizer::step(&mut adam, &mut [&mut p]));
    });
    group.finish();
}

criterion_group!(
    benches,
    matmul_kernels,
    conv_forward_backward,
    gru_step,
    streaming_layers
);
criterion_main!(benches);
