//! PR-4 kernel-throughput report (`experiments kernels` →
//! `BENCH_pr4.json`).
//!
//! Measures the blocked/packed compute kernels against the seed
//! baselines they replaced, on the shapes the training hot path actually
//! runs: square matmul at 64/256/512, the `A·Bᵀ` products of the conv,
//! GRU and Dense backward passes (`nt` rows: register tile vs the seed
//! row dots), the narrow `A·B` products of the GRU, the MLP head and an
//! 8×8 conv (`narrow` rows: the register-resident row kernel vs the seed
//! ikj loop, one thread each), and a Conv2d forward+backward step. Four
//! variants per square matmul shape:
//!
//! * `new_pool_on` — blocked kernels over the persistent pool;
//! * `new_pool_off` — same kernels inside `serial_scope` (pool bypassed);
//! * `ref_serial` — the seed ikj kernel, serial (the bit-exactness
//!   oracle);
//! * `seed_spawn` — the seed kernel scheduled the seed-shim way: fresh
//!   scoped OS threads and per-batch index `Vec`s on every call.
//!
//! The counters also carry a `layers` section: output and gradient
//! checksums of the layers that are not GEMMs (dropout, the `Dense(32→1)`
//! head, batch norm, ReLU, Adam) on fixed inputs, each compared with the
//! value recorded before PR 21 rewrote them as streaming passes. The
//! timings carry a `layers` section of their own: the wall time of those
//! layers and of a GRU forward+backward on the benchmark's shapes, the
//! repo's one set of per-layer micro timings.
//!
//! `experiments kernels BENCH_pr4.json` writes both sections into one
//! file: `counters` is fully deterministic (pool width, kernel
//! checksums, bit-equality flags, scratch-growth counts) and is
//! byte-compared under `cargo test`; `timings` carries the min-of-reps
//! wall-clock numbers and speedups, which vary run to run and are
//! informative only. No other harness in the repo times a kernel.

use msa_obs::json::{Contracts, Obj};
use nn::Layer;
use rayon::prelude::*;
use tensor::conv::{col2im, im2col};
use tensor::matmul::{matmul, matmul_nt, matmul_tn, reference};
use tensor::{Rng, Tensor};

use crate::report::{counters_and_timings, Report};
use crate::{bits_hash, min_ns, pin_pool, same_bits};

/// Repetitions per timing; the `nt` shapes run tens of microseconds and
/// take eight times as many.
const REPS: usize = 9;

/// Same shape and the same f32 bit pattern in every element.
fn bits_equal(x: &Tensor, y: &Tensor) -> bool {
    x.shape() == y.shape() && same_bits(x.data(), y.data())
}

/// Seed-style Conv2d baseline: the exact allocation and kernel pattern
/// the layer had before the arena rework — per-sample column/gradient
/// `Tensor`s, a cloned weight matrix per pass, serial seed ikj kernels,
/// batch parallelism over the pool.
struct SeedConv {
    w: Tensor, // (F, C, K, K)
    b: Tensor,
    stride: usize,
    pad: usize,
    cols: Vec<Tensor>,
    in_shape: Vec<usize>,
    oh: usize,
    ow: usize,
}

impl SeedConv {
    fn new(w: Tensor, b: Tensor, stride: usize, pad: usize) -> SeedConv {
        SeedConv {
            w,
            b,
            stride,
            pad,
            cols: Vec::new(),
            in_shape: Vec::new(),
            oh: 0,
            ow: 0,
        }
    }

    fn wmat(&self) -> Tensor {
        let s = self.w.shape();
        self.w.clone().reshape(&[s[0], s[1] * s[2] * s[3]])
    }

    fn forward(&mut self, input: &Tensor) -> Tensor {
        let (n, c, h, w) = (
            input.shape()[0],
            input.shape()[1],
            input.shape()[2],
            input.shape()[3],
        );
        let k = self.w.shape()[2];
        let f = self.w.shape()[0];
        let oh = tensor::conv::out_dim(h, k, self.stride, self.pad);
        let ow = tensor::conv::out_dim(w, k, self.stride, self.pad);
        let wmat = self.wmat();
        let bias = self.b.data().to_vec();
        let per_img = c * h * w;
        let results: Vec<(Tensor, Tensor)> = (0..n)
            .into_par_iter()
            .map(|i| {
                let img = &input.data()[i * per_img..(i + 1) * per_img];
                let cols = im2col(img, c, h, w, k, k, self.stride, self.pad, self.pad);
                let mut y = reference::matmul_ikj(&wmat, &cols);
                for (ff, &bf) in bias.iter().enumerate() {
                    for v in y.row_mut(ff) {
                        *v += bf;
                    }
                }
                (y, cols)
            })
            .collect();
        let mut out = Vec::with_capacity(n * f * oh * ow);
        let mut cols_cache = Vec::with_capacity(n);
        for (y, cols) in results {
            out.extend_from_slice(y.data());
            cols_cache.push(cols);
        }
        self.cols = cols_cache;
        self.in_shape = input.shape().to_vec();
        self.oh = oh;
        self.ow = ow;
        Tensor::from_vec(out, &[n, f, oh, ow])
    }

    fn backward(&mut self, grad_out: &Tensor) -> (Tensor, Tensor, Vec<f32>) {
        let (n, c, h, w) = (
            self.in_shape[0],
            self.in_shape[1],
            self.in_shape[2],
            self.in_shape[3],
        );
        let k = self.w.shape()[2];
        let f = self.w.shape()[0];
        let (oh, ow) = (self.oh, self.ow);
        let wmat = self.wmat();
        let per_g = f * oh * ow;
        let results: Vec<(Tensor, Vec<f32>, Vec<f32>)> = (0..n)
            .into_par_iter()
            .map(|i| {
                let g = Tensor::from_vec(
                    grad_out.data()[i * per_g..(i + 1) * per_g].to_vec(),
                    &[f, oh * ow],
                );
                let cols = &self.cols[i];
                let dw = reference::matmul_nt_dot(&g, cols);
                let db: Vec<f32> = (0..f).map(|ff| g.row(ff).iter().sum()).collect();
                let dcols = reference::matmul_tn_ikj(&wmat, &g);
                let dx = col2im(&dcols, c, h, w, k, k, self.stride, self.pad, self.pad);
                (dw, db, dx)
            })
            .collect();
        let mut dw_acc = Tensor::zeros(&[f, c * k * k]);
        let mut db_acc = vec![0.0f32; f];
        let mut dx_all = Vec::with_capacity(n * c * h * w);
        for (dw, db, dx) in results {
            dw_acc.zip_inplace(&dw, |a, b| a + b);
            for (acc, d) in db_acc.iter_mut().zip(&db) {
                *acc += d;
            }
            dx_all.extend_from_slice(&dx);
        }
        (Tensor::from_vec(dx_all, &self.in_shape), dw_acc, db_acc)
    }
}

/// The `A·Bᵀ` products backward passes spend their time in.
const NT_SHAPES: [(&str, usize, usize, usize); 4] = [
    ("conv_dw", 16, 256, 144),
    ("conv_dw", 32, 64, 288),
    ("gru", 240, 32, 32),
    ("dense_dx", 4, 768, 2048),
];

/// Narrow `A·B` products `(m×k)·(k×n)` and the share of `A` that is
/// exact zeros, both as the workloads run them (zero shares counted over
/// every product of a run, drawn here independently per element):
/// `icu_gru_p1`'s recurrent `h·U` (`h_0`), layer-2 `x·W` (dropout) and
/// weight gradient after packing (`n = 32`), `widemlp_*`'s head `dW`
/// (`n = 8`, ReLU zeros), and an 8×8 conv's forward and `dcols` products
/// (`n = 64`, dense weights).
const NARROW_SHAPES: [(&str, usize, usize, usize, f64); 6] = [
    ("gru_hu", 32, 32, 32, 0.02),
    ("gru_xw", 1536, 32, 32, 0.20),
    ("gru_dw", 32, 32, 32, 0.08),
    ("head_dw", 768, 4, 8, 0.65),
    ("conv_fwd", 32, 288, 64, 0.0),
    ("conv_dcols", 288, 32, 64, 0.0),
];

/// `(hash_out, hash_grads)` of each [`layer_rows`] case as commit
/// `16c71cf` computed them, before those layers were rewritten as
/// streaming passes: what `bit_equal_seed` compares against. The inputs
/// come from `uniform_tensor` and the layers use no libm function, so
/// the values do not depend on the machine.
const SEED_LAYER_HASHES: [(u64, u64); 5] = [
    (0xeeae_fe95_ac24_ffd9, 0xc356_40d0_cf57_e2ef),
    (0x55b8_b5ec_b0de_bc7a, 0xd41a_a4a5_dfb6_626e),
    (0xed97_a3d0_2cd7_0903, 0x5044_a29a_4df0_d019),
    (0x5bd6_87e0_cded_09a3, 0x1f54_e0e6_9341_3169),
    (0xcc35_841c_6a70_f1ef, 0xe558_2b1b_cc5c_47dc),
];

/// `U(-1, 1)` values with `0.0` in every seventh and `-0.0` in every
/// eleventh place, for the zero-skipping kernels and `x.max(0.0)`.
fn fixed_tensor(rng: &mut Rng, shape: &[usize]) -> Tensor {
    let mut t = rng.uniform_tensor(shape, -1.0, 1.0);
    for (i, v) in t.data_mut().iter_mut().enumerate() {
        if i % 7 == 0 {
            *v = 0.0;
        } else if i % 11 == 0 {
            *v = -0.0;
        }
    }
    t
}

/// Two training passes of `layer` with no `zero_grad` between them, then
/// an eval forward.
fn layer_hashes(mut layer: impl Layer, in_shape: &[usize], out_shape: &[usize]) -> (u64, u64) {
    let mut rng = Rng::seed(21);
    for p in layer.params_mut() {
        p.value = fixed_tensor(&mut rng, p.value.shape());
    }
    let (mut outs, mut grads) = (Vec::new(), Vec::new());
    for _ in 0..2 {
        let x = fixed_tensor(&mut rng, in_shape);
        let g = fixed_tensor(&mut rng, out_shape);
        outs.extend_from_slice(layer.forward(&x, true).data());
        grads.extend_from_slice(layer.backward(&g).data());
    }
    for p in layer.params() {
        grads.extend_from_slice(p.grad().data());
    }
    // An eval pass shows the state training left (batch-norm statistics).
    let x = fixed_tensor(&mut rng, in_shape);
    outs.extend_from_slice(layer.forward(&x, false).data());
    (bits_hash(&outs), bits_hash(&grads))
}

/// Three Adam steps over one parameter of 300 000 scalars.
fn adam_hashes() -> (u64, u64) {
    let mut rng = Rng::seed(22);
    let mut p = nn::Param::new(fixed_tensor(&mut rng, &[300_000]));
    let mut adam = nn::Adam::new(1e-3);
    for _ in 0..3 {
        *p.grad_mut() = fixed_tensor(&mut rng, &[300_000]);
        nn::Optimizer::step(&mut adam, &mut [&mut p]);
    }
    let state = nn::Optimizer::state(&adam);
    (bits_hash(p.value.data()), bits_hash(&state))
}

/// `icu_gru_p1`'s activations (sequences × steps × features), and what
/// its `Dense(32→1)` head makes of them.
const SEQ: [usize; 3] = [240, 48, 32];
const HEAD: [usize; 3] = [240, 48, 1];
/// The ResNet's first batch-norm input.
const IMG: [usize; 4] = [32, 16, 16, 16];

fn dropout() -> nn::Dropout {
    nn::Dropout::new(0.2, 1001)
}

fn dense_head() -> nn::Dense {
    nn::Dense::new(32, 1, &mut Rng::seed(1))
}

fn batchnorm() -> nn::BatchNorm {
    nn::BatchNorm::new(16)
}

fn layer_rows(c: &mut Contracts) -> Vec<Obj> {
    type Case = (&'static str, fn() -> (u64, u64));
    let cases: [Case; 5] = [
        ("dropout_240x48x32", || layer_hashes(dropout(), &SEQ, &SEQ)),
        ("dense_11520x32x1", || {
            layer_hashes(dense_head(), &SEQ, &HEAD)
        }),
        ("batchnorm_32x16x16x16", || {
            layer_hashes(batchnorm(), &IMG, &IMG)
        }),
        ("relu_32x16x16x16", || {
            layer_hashes(nn::Relu::new(), &IMG, &IMG)
        }),
        ("adam_300k", adam_hashes),
    ];
    cases
        .iter()
        .zip(SEED_LAYER_HASHES)
        .map(|(&(layer, run), seed)| {
            let got = run();
            Obj::new()
                .text("layer", layer)
                .hash("hash_out", got.0)
                .hash("hash_grads", got.1)
                .flag(c, "bit_equal_seed", got == seed)
                .flag(c, "bit_equal_pool_off", rayon::serial_scope(run) == got)
        })
        .collect()
}

/// Minimum wall time of a training forward then a backward of `layer`:
/// backward consumes what forward cached, so the pair is the unit.
fn fwd_bwd_ns(layer: &mut impl Layer, x: &Tensor, g: &Tensor) -> f64 {
    min_ns(REPS, || {
        layer.forward(x, true);
        layer.backward(g)
    })
}

/// Timings rows of the layers of a step that are not GEMMs, and of a GRU
/// step, on the benchmark's shapes: `icu_gru_p1`'s dropout and
/// `Dense(32→1)` head, the ResNet's first batch norm, Adam over the wide
/// MLP's 2.1 M parameters, and a GRU(10→32) over 16 sequences of 48.
fn layer_timings() -> Vec<Obj> {
    let mut rng = Rng::seed(4);
    let mut normal = |shape: &[usize]| rng.normal_tensor(shape, 1.0);
    let (seq, head_g, img, img_g) = (normal(&SEQ), normal(&HEAD), normal(&IMG), normal(&IMG));
    let (gru_x, gru_g) = (normal(&[16, 48, 10]), normal(&[16, 48, 32]));
    let mut p = nn::Param::new(normal(&[2_097_152]));
    *p.grad_mut() = rng.normal_tensor(&[2_097_152], 0.01);
    let mut gru = nn::Gru::new(10, 32, &mut rng);
    let (mut d, mut adam) = (dropout(), nn::Adam::new(1e-3));
    let dropout_ns = min_ns(REPS, || d.forward(&seq, true));
    let dense_ns = fwd_bwd_ns(&mut dense_head(), &seq, &head_g);
    let batchnorm_ns = fwd_bwd_ns(&mut batchnorm(), &img, &img_g);
    let adam_ns = min_ns(REPS, || nn::Optimizer::step(&mut adam, &mut [&mut p]));
    let gru_ns = fwd_bwd_ns(&mut gru, &gru_x, &gru_g);
    [
        ("dropout_fwd_240x48x32", dropout_ns),
        ("dense_fwd_bwd_11520x32x1", dense_ns),
        ("batchnorm_fwd_bwd_32x16x16x16", batchnorm_ns),
        ("adam_step_2m", adam_ns),
        ("gru_fwd_bwd_16x48x10_h32", gru_ns),
    ]
    .into_iter()
    .map(|(layer, ns)| {
        Obj::new()
            .text("layer", layer)
            .field("ns", format_args!("{ns:.0}"))
    })
    .collect()
}

/// One square size: `(counters row, timings row)`.
fn bench_matmul(n: usize, c: &mut Contracts) -> (Obj, Obj) {
    let mut rng = Rng::seed(n as u64);
    let a = rng.normal_tensor(&[n, n], 1.0);
    let b = rng.normal_tensor(&[n, n], 1.0);

    let c_new = matmul(&a, &b);
    let c_tn = matmul_tn(&a, &b);
    let c_nt = matmul_nt(&a, &b);
    let bit_equal_ref = bits_equal(&c_new, &reference::matmul_ikj(&a, &b))
        && bits_equal(&c_tn, &reference::matmul_tn_ikj(&a, &b))
        && bits_equal(&c_nt, &reference::matmul_nt_dot(&a, &b));
    let counters = Obj::new()
        .field("n", n)
        .hash("hash_nn", bits_hash(c_new.data()))
        .hash("hash_tn", bits_hash(c_tn.data()))
        .hash("hash_nt", bits_hash(c_nt.data()))
        .flag(c, "bit_equal_ref", bit_equal_ref)
        .flag(
            c,
            "bit_equal_pool_off",
            bits_equal(&c_new, &rayon::serial_scope(|| matmul(&a, &b))),
        );

    let pool_on = min_ns(REPS, || matmul(&a, &b));
    let pool_off = min_ns(REPS, || rayon::serial_scope(|| matmul(&a, &b)));
    let ref_serial = min_ns(REPS, || reference::matmul_ikj(&a, &b));
    let threads = rayon::current_num_threads();
    let seed_spawn = min_ns(REPS, || {
        reference::matmul_ikj_spawn_per_call(&a, &b, threads)
    });
    let timings = Obj::new()
        .field("n", n)
        .field("ns_new_pool_on", format_args!("{pool_on:.0}"))
        .field("ns_new_pool_off", format_args!("{pool_off:.0}"))
        .field("ns_ref_serial", format_args!("{ref_serial:.0}"))
        .field("ns_seed_spawn", format_args!("{seed_spawn:.0}"))
        .field(
            "speedup_vs_seed_spawn",
            format_args!("{:.2}", seed_spawn / pool_on),
        )
        .field(
            "speedup_serial_vs_ref",
            format_args!("{:.2}", ref_serial / pool_off),
        );
    (counters, timings)
}

/// One `matmul_nt` shape off the training hot path, `(m×k)·(n×k)ᵀ`:
/// `(counters row, timings row)`.
fn bench_nt(&(layer, m, k, n): &(&str, usize, usize, usize), c: &mut Contracts) -> (Obj, Obj) {
    let mut rng = Rng::seed((m * 1_000_003 + k * 1_009 + n) as u64);
    let a = rng.normal_tensor(&[m, k], 1.0);
    let b = rng.normal_tensor(&[n, k], 1.0);
    let c_new = matmul_nt(&a, &b);
    let shape = format!("{layer}_{m}x{k}x{n}");
    let counters = Obj::new()
        .text("shape", &shape)
        .hash("hash_nt", bits_hash(c_new.data()))
        .flag(
            c,
            "bit_equal_ref",
            bits_equal(&c_new, &reference::matmul_nt_dot(&a, &b)),
        )
        .flag(
            c,
            "bit_equal_pool_off",
            bits_equal(&c_new, &rayon::serial_scope(|| matmul_nt(&a, &b))),
        );

    let ns_new = min_ns(REPS * 8, || matmul_nt(&a, &b));
    let ns_ref = min_ns(REPS * 8, || reference::matmul_nt_dot(&a, &b));
    let flop = 2.0 * (m * k * n) as f64;
    let timings = Obj::new()
        .text("shape", shape)
        .field("ns_new", format_args!("{ns_new:.0}"))
        .field("ns_ref", format_args!("{ns_ref:.0}"))
        .field("gflops_new", format_args!("{:.1}", flop / ns_new))
        .field("gflops_ref", format_args!("{:.1}", flop / ns_ref))
        .field("speedup_vs_ref", format_args!("{:.2}", ns_ref / ns_new));
    (counters, timings)
}

/// One [`NARROW_SHAPES`] product: `(counters row, timings row)`. The
/// timings are single-threaded on both sides and cycle through eight
/// draws of `A`, so no branch predictor learns one zero pattern.
fn bench_narrow(
    &(layer, m, k, n, zeros): &(&str, usize, usize, usize, f64),
    c: &mut Contracts,
) -> (Obj, Obj) {
    let mut rng = Rng::seed((m * 1_000_003 + k * 1_009 + n) as u64);
    let a: Vec<Tensor> = (0..8)
        .map(|_| {
            let mut t = rng.normal_tensor(&[m, k], 1.0);
            for v in t.data_mut() {
                if rng.chance(zeros) {
                    *v = 0.0;
                }
            }
            t
        })
        .collect();
    let b = rng.normal_tensor(&[k, n], 1.0);
    let c_new = matmul(&a[0], &b);
    let shape = format!("{layer}_{m}x{k}x{n}");
    let counters = Obj::new()
        .text("shape", &shape)
        .hash("hash_nn", bits_hash(c_new.data()))
        .flag(
            c,
            "bit_equal_ref",
            bits_equal(&c_new, &reference::matmul_ikj(&a[0], &b)),
        )
        .flag(
            c,
            "bit_equal_pool_off",
            bits_equal(&c_new, &rayon::serial_scope(|| matmul(&a[0], &b))),
        );

    let mut i = 0;
    let mut next = || {
        i += 1;
        &a[i % a.len()]
    };
    let ns_new = min_ns(REPS * 8, || rayon::serial_scope(|| matmul(next(), &b)));
    let ns_seed = min_ns(REPS * 8, || reference::matmul_ikj(next(), &b));
    let flop = 2.0 * (m * k * n) as f64;
    let timings = Obj::new()
        .text("shape", shape)
        .field("ns_new", format_args!("{ns_new:.0}"))
        .field("ns_seed", format_args!("{ns_seed:.0}"))
        .field("gflops_new", format_args!("{:.1}", flop / ns_new))
        .field("gflops_seed", format_args!("{:.1}", flop / ns_seed))
        .field("speedup_vs_seed", format_args!("{:.2}", ns_seed / ns_new));
    (counters, timings)
}

/// A Conv2d forward+backward step against [`SeedConv`]:
/// `(counters object, timings object)`.
fn bench_conv(c: &mut Contracts) -> (Obj, Obj) {
    let mut rng = Rng::seed(42);
    let x = rng.normal_tensor(&[8, 8, 16, 16], 1.0);
    let mut conv = nn::Conv2d::new(8, 16, 3, 1, 1, &mut rng);
    let (w0, b0) = {
        let p = conv.params();
        (p[0].value.clone(), p[1].value.clone())
    };
    let mut seed = SeedConv::new(w0, b0, 1, 1);

    let y_new = conv.forward(&x, true);
    let y_seed = seed.forward(&x);
    let g = Tensor::ones(y_new.shape());
    let dx_new = conv.backward(&g);
    let (dx_seed, _, _) = seed.backward(&g);
    let y_off = rayon::serial_scope(|| conv.forward(&x, true));
    let dx_off = rayon::serial_scope(|| conv.backward(&g));

    // Warm-up happened above; steady-state steps must not grow scratch.
    let grows_warm = conv.scratch_grows();
    for _ in 0..3 {
        let _ = conv.forward(&x, true);
        let _ = conv.backward(&g);
    }
    let counters = Obj::new()
        .hash("hash_fwd", bits_hash(y_new.data()))
        .hash("hash_bwd", bits_hash(dx_new.data()))
        .flag(
            c,
            "bit_equal_seed",
            bits_equal(&y_new, &y_seed) && bits_equal(&dx_new, &dx_seed),
        )
        .flag(
            c,
            "bit_equal_pool_off",
            bits_equal(&y_new, &y_off) && bits_equal(&dx_new, &dx_off),
        )
        .list("scratch_grows", [grows_warm.0, grows_warm.1])
        .flag(c, "grows_stable", conv.scratch_grows() == grows_warm);

    let fwd_new = min_ns(REPS, || conv.forward(&x, true));
    let fwd_seed = min_ns(REPS, || seed.forward(&x));
    let bwd_new = min_ns(REPS, || conv.backward(&g));
    let bwd_seed = min_ns(REPS, || seed.backward(&g));
    let timings = Obj::new()
        .field("ns_fwd_new", format_args!("{fwd_new:.0}"))
        .field("ns_fwd_seed", format_args!("{fwd_seed:.0}"))
        .field("ns_bwd_new", format_args!("{bwd_new:.0}"))
        .field("ns_bwd_seed", format_args!("{bwd_seed:.0}"))
        .field("speedup_fwd", format_args!("{:.2}", fwd_seed / fwd_new))
        .field("speedup_bwd", format_args!("{:.2}", bwd_seed / bwd_new))
        .field(
            "speedup_fwd_bwd",
            format_args!("{:.2}", (fwd_seed + bwd_seed) / (fwd_new + bwd_new)),
        );
    (counters, timings)
}

/// The full kernel report: `counters` is deterministic run to run, the
/// body adds the wall-clock `timings` (the committed `BENCH_pr4.json`).
pub fn kernel_report() -> Report {
    pin_pool();
    let mut c = Contracts::new();
    let (matmul, matmul_t): (Vec<_>, Vec<_>) = [64, 256, 512]
        .into_iter()
        .map(|n| bench_matmul(n, &mut c))
        .unzip();
    let (nt, nt_t): (Vec<_>, Vec<_>) = NT_SHAPES.iter().map(|s| bench_nt(s, &mut c)).unzip();
    let (narrow, narrow_t): (Vec<_>, Vec<_>) = NARROW_SHAPES
        .iter()
        .map(|s| bench_narrow(s, &mut c))
        .unzip();
    let (conv, conv_t) = bench_conv(&mut c);
    let counters = Obj::new()
        .field("pool_threads", rayon::current_num_threads())
        .rows("matmul", matmul)
        .rows("nt", nt)
        .rows("narrow", narrow)
        .field("conv2d", conv)
        .rows("layers", layer_rows(&mut c))
        .doc();
    let timings = Obj::new()
        .rows("matmul", matmul_t)
        .rows("nt", nt_t)
        .rows("narrow", narrow_t)
        .field("conv2d", conv_t)
        .rows("layers", layer_timings())
        .doc();
    Report {
        bodies: vec![counters_and_timings(&counters, &timings)],
        counters: Some(counters),
        contracts: c,
    }
}

#[cfg(test)]
mod tests {
    use crate::artifacts::{self, assert_contracts_hold};

    #[test]
    fn counters_are_deterministic_and_kernels_bit_exact() {
        let a = artifacts::kernels();
        assert_contracts_hold(a, &[]);

        // Every timed layer row ran and reads a finite, positive time.
        let body = &a.bodies[0];
        let timings = &body[body.find("\"timings\": ").expect("a timings section")..];
        for layer in [
            "dropout_fwd_240x48x32",
            "dense_fwd_bwd_11520x32x1",
            "batchnorm_fwd_bwd_32x16x16x16",
            "adam_step_2m",
            "gru_fwd_bwd_16x48x10_h32",
        ] {
            let key = format!("{{\"layer\": \"{layer}\", \"ns\": ");
            let at = timings
                .find(&key)
                .unwrap_or_else(|| panic!("no {layer} row"))
                + key.len();
            let ns: f64 = timings[at..]
                .split('}')
                .next()
                .and_then(|v| v.parse().ok())
                .expect(layer);
            assert!(ns.is_finite() && ns > 0.0, "{layer}: {ns} ns");
        }
    }
}
