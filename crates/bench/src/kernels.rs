//! PR-4 kernel-throughput report (`experiments kernels` →
//! `BENCH_pr4.json`).
//!
//! Measures the blocked/packed compute kernels against the seed
//! baselines they replaced, on the shapes the training hot path actually
//! runs: square matmul at 64/256/512, the `A·Bᵀ` products of the conv,
//! GRU and Dense backward passes (`nt` rows: register tile vs the seed
//! row dots), and a Conv2d forward+backward step. Four variants per
//! square matmul shape:
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
//! value recorded before PR 21 rewrote them as streaming passes.
//!
//! The report has two sections: `counters` is fully deterministic
//! (kernel checksums, bit-equality flags, scratch-growth counts — CI
//! runs the subcommand twice and byte-compares this section) and
//! `timings` carries the wall-clock numbers and speedups, which
//! naturally vary run to run.

use std::fmt::Write as _;
use std::time::Instant;

use nn::Layer;
use rayon::prelude::*;
use tensor::conv::{col2im, im2col};
use tensor::matmul::{matmul, matmul_nt, matmul_tn, reference};
use tensor::{Rng, Tensor};

/// Pool width the report is pinned to (first caller wins; pinning makes
/// the deterministic counters independent of the runner's core count).
const POOL_THREADS: usize = 4;

/// Order-sensitive FNV-style hash over the exact f32 bit patterns: any
/// single-bit deviation in any element changes the checksum.
pub(crate) fn bits_hash(data: &[f32]) -> u64 {
    data.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &v| {
        (h ^ u64::from(v.to_bits())).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Same shape and the same f32 bit pattern in every element.
fn bits_equal(x: &Tensor, y: &Tensor) -> bool {
    let same = |(a, b): (&f32, &f32)| a.to_bits() == b.to_bits();
    x.shape() == y.shape() && x.data().iter().zip(y.data()).all(same)
}

/// Minimum wall time of `reps` runs of `f`, in nanoseconds. The minimum
/// is the noise-robust estimator here: scheduler preemption and
/// frequency dips only ever make a run *slower*, so the fastest
/// observation is the closest to the kernel's true cost.
pub(crate) fn min_ns<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    (0..reps.max(1))
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(f());
            t.elapsed().as_nanos() as f64
        })
        .fold(f64::INFINITY, f64::min)
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

struct MatmulRow {
    n: usize,
    hash_nn: u64,
    hash_tn: u64,
    hash_nt: u64,
    bit_equal_ref: bool,
    bit_equal_pool_off: bool,
    ns_new_pool_on: f64,
    ns_new_pool_off: f64,
    ns_ref_serial: f64,
    ns_seed_spawn: f64,
}

/// One `matmul_nt` shape off the training hot path, `(m×k)·(n×k)ᵀ`.
struct NtRow {
    /// `<layer>_<m>x<k>x<n>`.
    shape: String,
    /// `2·m·k·n`.
    flop: f64,
    hash_nt: u64,
    bit_equal_ref: bool,
    bit_equal_pool_off: bool,
    ns_new: f64,
    ns_ref: f64,
}

/// The `A·Bᵀ` products backward passes spend their time in.
const NT_SHAPES: [(&str, usize, usize, usize); 4] = [
    ("conv_dw", 16, 256, 144),
    ("conv_dw", 32, 64, 288),
    ("gru", 240, 32, 32),
    ("dense_dx", 4, 768, 2048),
];

struct ConvSection {
    hash_fwd: u64,
    hash_bwd: u64,
    bit_equal_seed: bool,
    bit_equal_pool_off: bool,
    grows_warm: (u64, u64),
    grows_stable: bool,
    ns_fwd_new: f64,
    ns_fwd_seed: f64,
    ns_bwd_new: f64,
    ns_bwd_seed: f64,
}

/// One of the layers that are not GEMMs (PR 21), on fixed inputs.
struct LayerRow {
    layer: &'static str,
    /// Outputs of two training passes and an eval pass (Adam: weights).
    hash_out: u64,
    /// Input gradients and the accumulated parameter gradients (Adam:
    /// the optimiser state).
    hash_grads: u64,
    bit_equal_seed: bool,
    bit_equal_pool_off: bool,
}

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
        grads.extend_from_slice(p.grad.data());
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
        p.grad = fixed_tensor(&mut rng, &[300_000]);
        nn::Optimizer::step(&mut adam, &mut [&mut p]);
    }
    let state = nn::Optimizer::state(&adam);
    (bits_hash(p.value.data()), bits_hash(&state))
}

fn layer_rows() -> Vec<LayerRow> {
    let seq: &[usize] = &[240, 48, 32];
    let img: &[usize] = &[32, 16, 16, 16];
    type Case<'a> = (&'static str, &'a dyn Fn() -> (u64, u64));
    let dropout = || layer_hashes(nn::Dropout::new(0.2, 1001), seq, seq);
    let dense = || layer_hashes(nn::Dense::new(32, 1, &mut Rng::seed(1)), seq, &[240, 48, 1]);
    let batchnorm = || layer_hashes(nn::BatchNorm::new(16), img, img);
    let relu = || layer_hashes(nn::Relu::new(), img, img);
    let cases: [Case; 5] = [
        ("dropout_240x48x32", &dropout),
        ("dense_11520x32x1", &dense),
        ("batchnorm_32x16x16x16", &batchnorm),
        ("relu_32x16x16x16", &relu),
        ("adam_300k", &adam_hashes),
    ];
    cases
        .iter()
        .zip(SEED_LAYER_HASHES)
        .map(|(&(layer, run), seed)| {
            let got = run();
            LayerRow {
                layer,
                hash_out: got.0,
                hash_grads: got.1,
                bit_equal_seed: got == seed,
                bit_equal_pool_off: rayon::serial_scope(run) == got,
            }
        })
        .collect()
}

fn bench_matmul(n: usize, reps: usize) -> MatmulRow {
    let mut rng = Rng::seed(n as u64);
    let a = rng.normal_tensor(&[n, n], 1.0);
    let b = rng.normal_tensor(&[n, n], 1.0);

    let c_new = matmul(&a, &b);
    let c_ref = reference::matmul_ikj(&a, &b);
    let c_off = rayon::serial_scope(|| matmul(&a, &b));
    let c_tn = matmul_tn(&a, &b);
    let c_nt = matmul_nt(&a, &b);
    let bit_equal_ref = bits_equal(&c_new, &c_ref)
        && bits_equal(&c_tn, &reference::matmul_tn_ikj(&a, &b))
        && bits_equal(&c_nt, &reference::matmul_nt_dot(&a, &b));
    let bit_equal_pool_off = bits_equal(&c_new, &c_off);

    MatmulRow {
        n,
        hash_nn: bits_hash(c_new.data()),
        hash_tn: bits_hash(c_tn.data()),
        hash_nt: bits_hash(c_nt.data()),
        bit_equal_ref,
        bit_equal_pool_off,
        ns_new_pool_on: min_ns(reps, || matmul(&a, &b)),
        ns_new_pool_off: min_ns(reps, || rayon::serial_scope(|| matmul(&a, &b))),
        ns_ref_serial: min_ns(reps, || reference::matmul_ikj(&a, &b)),
        ns_seed_spawn: min_ns(reps, || {
            reference::matmul_ikj_spawn_per_call(&a, &b, POOL_THREADS)
        }),
    }
}

fn bench_nt(&(layer, m, k, n): &(&str, usize, usize, usize), reps: usize) -> NtRow {
    let mut rng = Rng::seed((m * 1_000_003 + k * 1_009 + n) as u64);
    let a = rng.normal_tensor(&[m, k], 1.0);
    let b = rng.normal_tensor(&[n, k], 1.0);
    let c_new = matmul_nt(&a, &b);
    NtRow {
        shape: format!("{layer}_{m}x{k}x{n}"),
        flop: 2.0 * (m * k * n) as f64,
        hash_nt: bits_hash(c_new.data()),
        bit_equal_ref: bits_equal(&c_new, &reference::matmul_nt_dot(&a, &b)),
        bit_equal_pool_off: bits_equal(&c_new, &rayon::serial_scope(|| matmul_nt(&a, &b))),
        // These run tens of microseconds: more reps than the big shapes.
        ns_new: min_ns(reps * 8, || matmul_nt(&a, &b)),
        ns_ref: min_ns(reps * 8, || reference::matmul_nt_dot(&a, &b)),
    }
}

fn bench_conv(reps: usize) -> ConvSection {
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

    let bit_equal_seed = bits_equal(&y_new, &y_seed) && bits_equal(&dx_new, &dx_seed);
    let bit_equal_pool_off = bits_equal(&y_new, &y_off) && bits_equal(&dx_new, &dx_off);

    // Warm-up happened above; steady-state steps must not grow scratch.
    let grows_warm = conv.scratch_grows();
    for _ in 0..3 {
        let _ = conv.forward(&x, true);
        let _ = conv.backward(&g);
    }
    let grows_stable = conv.scratch_grows() == grows_warm;

    ConvSection {
        hash_fwd: bits_hash(y_new.data()),
        hash_bwd: bits_hash(dx_new.data()),
        bit_equal_seed,
        bit_equal_pool_off,
        grows_warm,
        grows_stable,
        ns_fwd_new: min_ns(reps, || conv.forward(&x, true)),
        ns_fwd_seed: min_ns(reps, || seed.forward(&x)),
        ns_bwd_new: min_ns(reps, || conv.backward(&g)),
        ns_bwd_seed: min_ns(reps, || seed.backward(&g)),
    }
}

fn counters_json(
    rows: &[MatmulRow],
    nt: &[NtRow],
    conv: &ConvSection,
    layers: &[LayerRow],
) -> String {
    let mut s = String::from("{\n  \"pool_threads\": ");
    let _ = write!(s, "{}", rayon::current_num_threads());
    s.push_str(",\n  \"matmul\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = writeln!(
            s,
            "    {{\"n\": {}, \"hash_nn\": \"{:016x}\", \"hash_tn\": \"{:016x}\", \"hash_nt\": \"{:016x}\", \"bit_equal_ref\": {}, \"bit_equal_pool_off\": {}}}{}",
            r.n,
            r.hash_nn,
            r.hash_tn,
            r.hash_nt,
            r.bit_equal_ref,
            r.bit_equal_pool_off,
            if i + 1 < rows.len() { "," } else { "" }
        );
    }
    s.push_str("  ],\n  \"nt\": [\n");
    for (i, r) in nt.iter().enumerate() {
        let _ = writeln!(
            s,
            "    {{\"shape\": \"{}\", \"hash_nt\": \"{:016x}\", \"bit_equal_ref\": {}, \"bit_equal_pool_off\": {}}}{}",
            r.shape,
            r.hash_nt,
            r.bit_equal_ref,
            r.bit_equal_pool_off,
            if i + 1 < nt.len() { "," } else { "" }
        );
    }
    s.push_str("  ],\n  \"conv2d\": ");
    let _ = write!(
        s,
        "{{\"hash_fwd\": \"{:016x}\", \"hash_bwd\": \"{:016x}\", \"bit_equal_seed\": {}, \"bit_equal_pool_off\": {}, \"scratch_grows\": [{}, {}], \"grows_stable\": {}}}",
        conv.hash_fwd,
        conv.hash_bwd,
        conv.bit_equal_seed,
        conv.bit_equal_pool_off,
        conv.grows_warm.0,
        conv.grows_warm.1,
        conv.grows_stable
    );
    s.push_str(",\n  \"layers\": [\n");
    for (i, r) in layers.iter().enumerate() {
        let _ = writeln!(
            s,
            "    {{\"layer\": \"{}\", \"hash_out\": \"{:016x}\", \"hash_grads\": \"{:016x}\", \"bit_equal_seed\": {}, \"bit_equal_pool_off\": {}}}{}",
            r.layer,
            r.hash_out,
            r.hash_grads,
            r.bit_equal_seed,
            r.bit_equal_pool_off,
            if i + 1 < layers.len() { "," } else { "" }
        );
    }
    s.push_str("  ]\n}");
    s
}

fn timings_json(rows: &[MatmulRow], nt: &[NtRow], conv: &ConvSection) -> String {
    let mut s = String::from("{\n  \"matmul\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = writeln!(
            s,
            "    {{\"n\": {}, \"ns_new_pool_on\": {:.0}, \"ns_new_pool_off\": {:.0}, \"ns_ref_serial\": {:.0}, \"ns_seed_spawn\": {:.0}, \"speedup_vs_seed_spawn\": {:.2}, \"speedup_serial_vs_ref\": {:.2}}}{}",
            r.n,
            r.ns_new_pool_on,
            r.ns_new_pool_off,
            r.ns_ref_serial,
            r.ns_seed_spawn,
            r.ns_seed_spawn / r.ns_new_pool_on,
            r.ns_ref_serial / r.ns_new_pool_off,
            if i + 1 < rows.len() { "," } else { "" }
        );
    }
    s.push_str("  ],\n  \"nt\": [\n");
    for (i, r) in nt.iter().enumerate() {
        let _ = writeln!(
            s,
            "    {{\"shape\": \"{}\", \"ns_new\": {:.0}, \"ns_ref\": {:.0}, \"gflops_new\": {:.1}, \"gflops_ref\": {:.1}, \"speedup_vs_ref\": {:.2}}}{}",
            r.shape,
            r.ns_new,
            r.ns_ref,
            r.flop / r.ns_new,
            r.flop / r.ns_ref,
            r.ns_ref / r.ns_new,
            if i + 1 < nt.len() { "," } else { "" }
        );
    }
    s.push_str("  ],\n  \"conv2d\": ");
    let _ = writeln!(
        s,
        "{{\"ns_fwd_new\": {:.0}, \"ns_fwd_seed\": {:.0}, \"ns_bwd_new\": {:.0}, \"ns_bwd_seed\": {:.0}, \"speedup_fwd\": {:.2}, \"speedup_bwd\": {:.2}, \"speedup_fwd_bwd\": {:.2}}}",
        conv.ns_fwd_new,
        conv.ns_fwd_seed,
        conv.ns_bwd_new,
        conv.ns_bwd_seed,
        conv.ns_fwd_seed / conv.ns_fwd_new,
        conv.ns_bwd_seed / conv.ns_bwd_new,
        (conv.ns_fwd_seed + conv.ns_bwd_seed) / (conv.ns_fwd_new + conv.ns_bwd_new)
    );
    s.push('}');
    s
}

/// The full kernel report. Returns `(counters_json, full_json)`:
/// `counters_json` is deterministic run-to-run (CI byte-compares two
/// invocations), `full_json` embeds counters plus wall-clock timings and
/// is the committed `BENCH_pr4.json` artifact.
pub fn kernel_report(fast: bool) -> (String, String) {
    // Pin the pool width so partitioning (and thus every counter) is
    // independent of the runner; no-op if the pool is already up.
    let _ = rayon::init_with_threads(POOL_THREADS);
    // Fast mode (MSA_BENCH_FAST=1, debug-test runs) drops the 512 size
    // and trims repetitions; the committed artifact uses the full sweep.
    let (sizes, reps): (&[usize], usize) = if fast { (&[64, 256], 2) } else { (&[64, 256, 512], 9) };
    let rows: Vec<MatmulRow> = sizes.iter().map(|&n| bench_matmul(n, reps)).collect();
    let nt: Vec<NtRow> = NT_SHAPES.iter().map(|s| bench_nt(s, reps)).collect();
    let conv = bench_conv(reps);

    let counters = counters_json(&rows, &nt, &conv, &layer_rows());
    let mut full = String::from("{\n\"counters\": ");
    full.push_str(&counters);
    full.push_str(",\n\"timings\": ");
    full.push_str(&timings_json(&rows, &nt, &conv));
    full.push_str("\n}");
    (counters, full)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_are_deterministic_and_kernels_bit_exact() {
        let (c1, _) = kernel_report(true);
        let (c2, _) = kernel_report(true);
        assert_eq!(c1, c2, "deterministic counters differ between runs");
        assert!(c1.contains("\"bit_equal_ref\": true"));
        assert!(!c1.contains("\"bit_equal_ref\": false"));
        assert!(c1.contains("\"bit_equal_seed\": true"));
        assert!(c1.contains("\"grows_stable\": true"));
    }
}
