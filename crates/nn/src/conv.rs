//! Convolution layers lowered to GEMM via im2col, parallel over the
//! batch with rayon — the same strategy cuDNN's GEMM algorithm uses.
//!
//! Hot-path memory discipline: the seed allocated a fresh column
//! `Tensor` per sample per step (plus a cloned weight matrix and
//! per-sample gradient tensors). This version routes every workspace
//! through layer-owned [`Arena`] scratch buffers — the im2col column
//! cache, the per-sample `dW`/`db`/`dcols` staging — and reads weights
//! in place (a `(F, C, KH, KW)` tensor is already the `(F, C·KH·KW)`
//! GEMM operand, row-major). After the first step a forward performs
//! zero heap allocation for column data, which tests assert through
//! [`Conv2d::scratch_grows`]. The transposed weight panel used by the
//! backward `dcols` product is packed once per backward call
//! ([`PackedT`]) and reused across the whole batch.
//!
//! An eval forward (`train == false`) keeps no column cache: each
//! image's columns go through a one-image buffer owned by the thread
//! that lowers it, then the same GEMM runs, so its output is bit-equal
//! to the training forward's while its working memory does not grow
//! with the batch. A `backward` after it panics, as before any forward.
//!
//! Gradient accumulation over samples stays sequential and in sample
//! order, so results are bit-identical regardless of pool size.

use crate::layer::Layer;
use crate::param::Param;
use rayon::prelude::*;
use std::cell::RefCell;
use tensor::conv::{col2im_into, im2col_into, out_dim};
use tensor::matmul::{gemm_nn_into, gemm_nt_into, PackedT};
use tensor::scratch::Arena;
use tensor::{Rng, Tensor};

/// 2-D convolution over `(N, C, H, W)` inputs with `(F, C, KH, KW)`
/// weights, stride and zero padding.
#[derive(Clone)]
pub struct Conv2d {
    w: Param,
    b: Param,
    in_channels: usize,
    out_channels: usize,
    kernel: usize,
    stride: usize,
    pad: usize,
    cache: Option<ConvCache>,
    /// Column cache: `n · (C·KH·KW) · (OH·OW)` floats written by forward,
    /// read back by backward. Reused across steps.
    cols_arena: Arena,
    /// Backward staging: per-sample `dW`, `db` and `dcols` slabs.
    bwd_arena: Arena,
    /// `Wᵀ` panel packed once per backward, shared by every sample.
    packed_w: PackedT,
}

/// Shape bookkeeping from the last forward (the column data itself lives
/// in the arena, not here).
#[derive(Clone)]
struct ConvCache {
    in_shape: Vec<usize>,
    oh: usize,
    ow: usize,
}

impl Conv2d {
    /// He-initialised square-kernel convolution.
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
        rng: &mut Rng,
    ) -> Self {
        let fan_in = in_channels * kernel * kernel;
        Conv2d {
            w: Param::new(rng.he_init(&[out_channels, in_channels, kernel, kernel], fan_in)),
            b: Param::new(Tensor::zeros(&[out_channels])),
            in_channels,
            out_channels,
            kernel,
            stride,
            pad,
            cache: None,
            cols_arena: Arena::new(),
            bwd_arena: Arena::new(),
            packed_w: PackedT::new(),
        }
    }

    /// Scratch-growth counters `(forward cols, backward staging)`: each
    /// arena grows on warm-up and must then stay flat across steps of
    /// identical shape — the "no per-step allocation" assertion used by
    /// tests and benches.
    pub fn scratch_grows(&self) -> (u64, u64) {
        (self.cols_arena.grows(), self.bwd_arena.grows())
    }

    /// The forward of both layers over the lowering `dims` of the batch
    /// `cache` describes. Training keeps the batch's columns in
    /// `cols_arena` and `cache` for backward; an eval forward lowers
    /// through [`COLS`] and clears the cache.
    fn forward_lowered(
        &mut self,
        input: &[f32],
        dims: ForwardDims,
        train: bool,
        cache: ConvCache,
    ) -> Vec<f32> {
        let n = cache.in_shape[0];
        let mut out = vec![0.0f32; n * dims.f * dims.ohow];
        let cols_len = n * dims.c * dims.kh * dims.kw * dims.ohow;
        let col_cache = train.then(|| self.cols_arena.frame(cols_len).take(cols_len));
        let (w, b) = (self.w.value.data(), self.b.value.data());
        conv_forward_into(input, w, b, dims, col_cache, &mut out);
        self.cache = train.then_some(cache);
        out
    }
}

thread_local! {
    /// One image's im2col columns for eval forwards. Thread-local, as
    /// `tensor::matmul`'s packing buffer is, so it is reused across
    /// calls and its memory is bounded by the pool width, not the batch.
    static COLS: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// Lends `f` the first `len` floats of this thread's [`COLS`] buffer
/// (contents unspecified; im2col overwrites every element), growing it
/// if needed. Not re-entrant: `f` must not lower another image.
fn with_cols<R>(len: usize, f: impl FnOnce(&mut [f32]) -> R) -> R {
    COLS.with(|cell| {
        let mut buf = cell.borrow_mut();
        if buf.len() < len {
            buf.resize(len, 0.0);
        }
        f(&mut buf[..len])
    })
}

/// Shared forward over the im2col lowering: `W·cols + b` into `out`
/// chunks, parallel over the batch (sample kernels run serially inside
/// the batch stage). Each image's columns go into its chunk of
/// `col_cache` when there is one (training: backward reads them), and
/// into this thread's [`COLS`] buffer otherwise; the products are the
/// same either way.
fn conv_forward_into(
    input: &[f32],
    w_mat: &[f32],
    bias: &[f32],
    dims: ForwardDims,
    col_cache: Option<&mut [f32]>,
    out: &mut [f32],
) {
    let ForwardDims {
        c,
        h,
        w,
        kh,
        kw,
        stride,
        pad_h,
        pad_w,
        f,
        ohow,
    } = dims;
    let per_img = c * h * w;
    let ckk = c * kh * kw;
    let image = |i: usize, cols: &mut [f32], y: &mut [f32]| {
        let img = &input[i * per_img..(i + 1) * per_img];
        im2col_into(img, c, h, w, kh, kw, stride, pad_h, pad_w, cols);
        gemm_nn_into(f, ckk, ohow, w_mat, cols, y);
        for (ff, &bf) in bias.iter().enumerate() {
            for v in &mut y[ff * ohow..(ff + 1) * ohow] {
                *v += bf;
            }
        }
    };
    let ys = out.par_chunks_mut(f * ohow).enumerate();
    match col_cache {
        Some(cache) => ys
            .zip(cache.par_chunks_mut(ckk * ohow))
            .for_each(|((i, y), cols)| image(i, cols, y)),
        None => ys.for_each(|(i, y)| with_cols(ckk * ohow, |cols| image(i, cols, y))),
    }
}

#[derive(Clone, Copy)]
struct ForwardDims {
    c: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    stride: usize,
    pad_h: usize,
    pad_w: usize,
    f: usize,
    ohow: usize,
}

/// Shared backward: per-sample `dW = g·colsᵀ`, `db`, `dcols = Wᵀ·g` and
/// `dx = col2im(dcols)` staged into disjoint scratch chunks in parallel,
/// then folded into the parameter gradients sequentially in sample order
/// (bit-stable under any pool size).
#[allow(clippy::too_many_arguments)]
fn conv_backward(
    grad_out: &[f32],
    cols_all: &[f32],
    packed_w: &PackedT,
    dims: ForwardDims,
    n: usize,
    bwd: &mut Arena,
    w_grad: &mut [f32],
    b_grad: &mut [f32],
) -> Vec<f32> {
    let ForwardDims {
        c,
        h,
        w,
        kh,
        kw,
        stride,
        pad_h,
        pad_w,
        f,
        ohow,
    } = dims;
    let ckk = c * kh * kw;
    let per_img = c * h * w;
    let per_g = f * ohow;

    let mut dx_all = vec![0.0f32; n * per_img];
    let mut frame = bwd.frame(n * (f * ckk + f + ckk * ohow));
    let dw_all = frame.take(n * f * ckk);
    let db_all = frame.take(n * f);
    let dcols_all = frame.take(n * ckk * ohow);

    dx_all
        .par_chunks_mut(per_img)
        .zip(dw_all.par_chunks_mut(f * ckk))
        .zip(db_all.par_chunks_mut(f))
        .zip(dcols_all.par_chunks_mut(ckk * ohow))
        .enumerate()
        .for_each(|(i, (((dx, dw), db), dcols))| {
            let g = &grad_out[i * per_g..(i + 1) * per_g];
            let cols = &cols_all[i * ckk * ohow..(i + 1) * ckk * ohow];
            // dW = g (F×OHOW) · colsᵀ (CKK×OHOW)ᵀ
            gemm_nt_into(f, ohow, ckk, g, cols, dw);
            for (ff, d) in db.iter_mut().enumerate() {
                *d = g[ff * ohow..(ff + 1) * ohow].iter().sum();
            }
            // dcols = Wᵀ (CKK×F) · g (F×OHOW); dcols is frame-zeroed.
            packed_w.gemm_into(g, ohow, dcols);
            col2im_into(dcols, c, h, w, kh, kw, stride, pad_h, pad_w, dx);
        });

    // Deterministic accumulation: ascending sample order, elementwise —
    // the same chain as the seed's sequential per-sample zip_inplace.
    for i in 0..n {
        let dw = &dw_all[i * f * ckk..(i + 1) * f * ckk];
        for (acc, d) in w_grad.iter_mut().zip(dw) {
            *acc += d;
        }
        let db = &db_all[i * f..(i + 1) * f];
        for (acc, d) in b_grad.iter_mut().zip(db) {
            *acc += d;
        }
    }
    dx_all
}

impl Layer for Conv2d {
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        assert_eq!(input.ndim(), 4, "Conv2d expects (N, C, H, W)");
        let (n, c, h, w) = (
            input.shape()[0],
            input.shape()[1],
            input.shape()[2],
            input.shape()[3],
        );
        assert_eq!(c, self.in_channels, "channel mismatch");
        let oh = out_dim(h, self.kernel, self.stride, self.pad);
        let ow = out_dim(w, self.kernel, self.stride, self.pad);
        let dims = ForwardDims {
            c,
            h,
            w,
            kh: self.kernel,
            kw: self.kernel,
            stride: self.stride,
            pad_h: self.pad,
            pad_w: self.pad,
            f: self.out_channels,
            ohow: oh * ow,
        };
        let cache = ConvCache {
            in_shape: input.shape().to_vec(),
            oh,
            ow,
        };
        let out = self.forward_lowered(input.data(), dims, train, cache);
        Tensor::from_vec(out, &[n, self.out_channels, oh, ow])
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        // lint: allow(unwrap) -- layer API contract: backward requires a prior forward
        let cache = self.cache.as_ref().expect("backward before forward");
        let (n, c, h, w) = (
            cache.in_shape[0],
            cache.in_shape[1],
            cache.in_shape[2],
            cache.in_shape[3],
        );
        let (oh, ow) = (cache.oh, cache.ow);
        assert_eq!(grad_out.shape(), &[n, self.out_channels, oh, ow]);
        let dims = ForwardDims {
            c,
            h,
            w,
            kh: self.kernel,
            kw: self.kernel,
            stride: self.stride,
            pad_h: self.pad,
            pad_w: self.pad,
            f: self.out_channels,
            ohow: oh * ow,
        };
        let ckk = c * self.kernel * self.kernel;
        // Pack Wᵀ once for the whole batch. The weight tensor is the
        // (F, CKK) operand in place; tn packing wants (k=F, m=CKK)ᵀ,
        // i.e. the (CKK, F) layout, which is exactly W viewed (F, CKK)
        // transposed — PackedT materialises that.
        self.packed_w.pack_from(self.out_channels, ckk, self.w.value.data());
        let in_shape = cache.in_shape.clone();

        let cols_all = self.cols_arena.filled(n * ckk * oh * ow);
        let dx_all = conv_backward(
            grad_out.data(),
            cols_all,
            &self.packed_w,
            dims,
            n,
            &mut self.bwd_arena,
            self.w.grad_mut().data_mut(),
            self.b.grad_mut().data_mut(),
        );
        Tensor::from_vec(dx_all, &in_shape)
    }

    fn params(&self) -> Vec<&Param> {
        vec![&self.w, &self.b]
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.w, &mut self.b]
    }

    fn name(&self) -> &'static str {
        "Conv2d"
    }
}

/// 1-D convolution over `(N, C, L)` sequences: a thin adapter over the
/// 2-D machinery with a 1×K kernel (the §IV-B "1D-CNN" imputer baseline).
#[derive(Clone)]
pub struct Conv1d {
    inner: Conv2d,
}

impl Conv1d {
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
        rng: &mut Rng,
    ) -> Self {
        // Build the inner layer, then reshape its weights to 1×K kernels.
        let mut inner = Conv2d::new(in_channels, out_channels, kernel, stride, pad, rng);
        let fan_in = in_channels * kernel;
        inner.w = Param::new(rng.he_init(&[out_channels, in_channels, 1, kernel], fan_in));
        inner.kernel = kernel;
        Conv1d { inner }
    }

    /// Lowering of `(N, C, L)` to the 2-D machinery: a `(C, 1, L)` image
    /// with a 1×K kernel, padded only along the sequence axis.
    fn dims(&self, c: usize, l: usize) -> ForwardDims {
        ForwardDims {
            c,
            h: 1,
            w: l,
            kh: 1,
            kw: self.inner.kernel,
            stride: self.inner.stride,
            pad_h: 0,
            pad_w: self.inner.pad,
            f: self.inner.out_channels,
            ohow: out_dim(l, self.inner.kernel, self.inner.stride, self.inner.pad),
        }
    }
}

impl Layer for Conv1d {
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        assert_eq!(input.ndim(), 3, "Conv1d expects (N, C, L)");
        let (n, c, l) = (input.shape()[0], input.shape()[1], input.shape()[2]);
        let dims = self.dims(c, l);
        let (f, ol) = (dims.f, dims.ohow);
        let cache = ConvCache {
            in_shape: vec![n, c, 1, l],
            oh: 1,
            ow: ol,
        };
        let out = self.inner.forward_lowered(input.data(), dims, train, cache);
        Tensor::from_vec(out, &[n, f, ol])
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        assert_eq!(grad_out.ndim(), 3);
        // lint: allow(unwrap) -- layer API contract: backward requires a prior forward
        let cache = self.inner.cache.as_ref().expect("backward before forward");
        let (n, c, l) = (cache.in_shape[0], cache.in_shape[1], cache.in_shape[3]);
        let dims = self.dims(c, l);
        let (f, ol) = (dims.f, dims.ohow);
        assert_eq!(grad_out.shape(), &[n, f, ol]);
        let ck = c * self.inner.kernel;
        self.inner.packed_w.pack_from(f, ck, self.inner.w.value.data());

        let cols_all = self.inner.cols_arena.filled(n * ck * ol);
        let dx_all = conv_backward(
            grad_out.data(),
            cols_all,
            &self.inner.packed_w,
            dims,
            n,
            &mut self.inner.bwd_arena,
            self.inner.w.grad_mut().data_mut(),
            self.inner.b.grad_mut().data_mut(),
        );
        Tensor::from_vec(dx_all, &[n, c, l])
    }

    fn params(&self) -> Vec<&Param> {
        self.inner.params()
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        self.inner.params_mut()
    }

    fn name(&self) -> &'static str {
        "Conv1d"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conv2d_shapes() {
        let mut rng = Rng::seed(1);
        let mut conv = Conv2d::new(3, 8, 3, 1, 1, &mut rng);
        let x = rng.normal_tensor(&[2, 3, 8, 8], 1.0);
        let y = conv.forward(&x, true);
        assert_eq!(y.shape(), &[2, 8, 8, 8]); // same-padding
        let gx = conv.backward(&Tensor::ones(&[2, 8, 8, 8]));
        assert_eq!(gx.shape(), &[2, 3, 8, 8]);
    }

    #[test]
    fn conv2d_stride_downsamples() {
        let mut rng = Rng::seed(2);
        let mut conv = Conv2d::new(1, 4, 3, 2, 1, &mut rng);
        let x = rng.normal_tensor(&[1, 1, 8, 8], 1.0);
        let y = conv.forward(&x, true);
        assert_eq!(y.shape(), &[1, 4, 4, 4]);
    }

    #[test]
    fn conv2d_known_kernel() {
        // Single 1×1 kernel with weight 2 and bias 1: y = 2x + 1.
        let mut rng = Rng::seed(3);
        let mut conv = Conv2d::new(1, 1, 1, 1, 0, &mut rng);
        conv.w.value = Tensor::full(&[1, 1, 1, 1], 2.0);
        conv.b.value = Tensor::full(&[1], 1.0);
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 2, 2]);
        let y = conv.forward(&x, true);
        assert_eq!(y.data(), &[3.0, 5.0, 7.0, 9.0]);
    }

    #[test]
    fn conv2d_batch_items_are_independent() {
        let mut rng = Rng::seed(4);
        let mut conv = Conv2d::new(2, 3, 3, 1, 1, &mut rng);
        let a = rng.normal_tensor(&[1, 2, 5, 5], 1.0);
        let b = rng.normal_tensor(&[1, 2, 5, 5], 1.0);
        let ya = conv.forward(&a, true);
        let yb = conv.forward(&b, true);
        let both = Tensor::from_vec(
            [a.data(), b.data()].concat(),
            &[2, 2, 5, 5],
        );
        let y_both = conv.forward(&both, true);
        let half = ya.numel();
        assert_eq!(&y_both.data()[..half], ya.data());
        assert_eq!(&y_both.data()[half..], yb.data());
    }

    #[test]
    fn conv1d_shapes_and_known_kernel() {
        let mut rng = Rng::seed(5);
        let mut conv = Conv1d::new(1, 1, 3, 1, 1, &mut rng);
        conv.inner.w.value = Tensor::from_vec(vec![1.0, 1.0, 1.0], &[1, 1, 1, 3]);
        conv.inner.b.value = Tensor::zeros(&[1]);
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 4]);
        let y = conv.forward(&x, true);
        // moving sum with zero padding: [0+1+2, 1+2+3, 2+3+4, 3+4+0]
        assert_eq!(y.shape(), &[1, 1, 4]);
        assert_eq!(y.data(), &[3.0, 6.0, 9.0, 7.0]);
        let gx = conv.backward(&Tensor::ones(&[1, 1, 4]));
        assert_eq!(gx.shape(), &[1, 1, 4]);
        // each input position feeds ≤3 outputs: counts [2,3,3,2]
        assert_eq!(gx.data(), &[2.0, 3.0, 3.0, 2.0]);
    }

    #[test]
    fn conv2d_scratch_stops_growing_after_warmup() {
        let mut rng = Rng::seed(6);
        let mut conv = Conv2d::new(2, 4, 3, 1, 1, &mut rng);
        let x = rng.normal_tensor(&[3, 2, 6, 6], 1.0);
        let g = Tensor::ones(&[3, 4, 6, 6]);
        // Warm-up step may grow both arenas.
        let _ = conv.forward(&x, true);
        let _ = conv.backward(&g);
        let warm = conv.scratch_grows();
        // Steady-state steps must not allocate column/staging scratch.
        for _ in 0..5 {
            let _ = conv.forward(&x, true);
            let _ = conv.backward(&g);
        }
        assert_eq!(
            conv.scratch_grows(),
            warm,
            "conv scratch arenas grew after warm-up (per-step allocation)"
        );
    }

    /// Every output element's bits, for `to_bits` comparisons.
    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn eval_forward_is_bit_equal_to_the_training_forward() {
        let _ = rayon::init_with_threads(4);
        let mut rng = Rng::seed(8);
        // (c, f, kernel, stride, pad, h, w): odd sizes, strides that skip
        // the last column, padding wider than the kernel reaches.
        let geometries = [
            (1, 4, 3, 1, 1, 7, 9),
            (3, 5, 3, 2, 1, 9, 8),
            (2, 3, 5, 3, 2, 11, 7),
            (4, 2, 1, 1, 0, 5, 5),
            (2, 6, 3, 2, 0, 6, 13),
            (3, 2, 2, 1, 2, 3, 4),
        ];
        for (c, f, k, stride, pad, h, w) in geometries {
            for n in [1, 3] {
                let x = rng.normal_tensor(&[n, c, h, w], 1.0);
                let seq = rng.normal_tensor(&[n, c, w], 1.0);
                let conv2 = Conv2d::new(c, f, k, stride, pad, &mut rng);
                let conv1 = Conv1d::new(c, f, k, stride, pad, &mut rng);
                let run = || {
                    let (mut a, mut b) = (conv2.clone(), conv1.clone());
                    let eval = (a.forward(&x, false), b.forward(&seq, false));
                    assert_eq!(a.scratch_grows(), (0, 0), "eval forward grew scratch");
                    assert_eq!(b.inner.scratch_grows(), (0, 0), "eval forward grew scratch");
                    let train = (a.forward(&x, true), b.forward(&seq, true));
                    (eval, train)
                };
                let ctx = format!("c{c} f{f} k{k} s{stride} p{pad} {h}x{w} n{n}");
                let ((e2, e1), (t2, t1)) = run();
                assert_eq!(bits(&e2), bits(&t2), "Conv2d {ctx}");
                assert_eq!(bits(&e1), bits(&t1), "Conv1d {ctx}");
                let ((s2, s1), _) = rayon::serial_scope(run);
                assert_eq!(bits(&s2), bits(&t2), "Conv2d {ctx} pool off");
                assert_eq!(bits(&s1), bits(&t1), "Conv1d {ctx} pool off");
            }
        }
    }

    #[test]
    #[should_panic(expected = "backward before forward")]
    fn conv2d_backward_after_an_eval_forward_panics() {
        let mut rng = Rng::seed(9);
        let mut conv = Conv2d::new(2, 3, 3, 1, 1, &mut rng);
        let x = rng.normal_tensor(&[2, 2, 5, 5], 1.0);
        let g = Tensor::ones(&[2, 3, 5, 5]);
        let _ = conv.forward(&x, true);
        let _ = conv.backward(&g);
        let _ = conv.forward(&x, false);
        let _ = conv.backward(&g);
    }

    #[test]
    #[should_panic(expected = "backward before forward")]
    fn conv1d_backward_after_an_eval_forward_panics() {
        let mut rng = Rng::seed(10);
        let mut conv = Conv1d::new(2, 3, 3, 1, 1, &mut rng);
        let x = rng.normal_tensor(&[2, 2, 6], 1.0);
        let _ = conv.forward(&x, true);
        let _ = conv.forward(&x, false);
        let _ = conv.backward(&Tensor::ones(&[2, 3, 6]));
    }

    #[test]
    fn conv2d_grads_match_seed_order() {
        // Two samples: accumulated gradients must equal the sum of
        // single-sample gradients in ascending sample order, bit for bit.
        let mut rng = Rng::seed(7);
        let mut conv = Conv2d::new(2, 3, 3, 1, 1, &mut rng);
        let a = rng.normal_tensor(&[1, 2, 5, 5], 1.0);
        let b = rng.normal_tensor(&[1, 2, 5, 5], 1.0);
        let both = Tensor::from_vec([a.data(), b.data()].concat(), &[2, 2, 5, 5]);
        let g1 = Tensor::ones(&[1, 3, 5, 5]);
        let g2 = Tensor::ones(&[2, 3, 5, 5]);

        let _ = conv.forward(&a, true);
        let _ = conv.backward(&g1);
        let wa: Vec<f32> = conv.w.grad().data().to_vec();
        for p in conv.params_mut() {
            p.grad_mut().map_inplace(|_| 0.0);
        }
        let _ = conv.forward(&b, true);
        let _ = conv.backward(&g1);
        let wb: Vec<f32> = conv.w.grad().data().to_vec();
        for p in conv.params_mut() {
            p.grad_mut().map_inplace(|_| 0.0);
        }
        let _ = conv.forward(&both, true);
        let _ = conv.backward(&g2);
        for ((acc, x), y) in conv.w.grad().data().iter().zip(&wa).zip(&wb) {
            assert_eq!(acc.to_bits(), (x + y).to_bits());
        }
    }
}
