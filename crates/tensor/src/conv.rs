//! im2col/col2im convolution lowering.
//!
//! Convolutions are lowered to matrix multiplication exactly the way
//! cuDNN's GEMM algorithm does it: the input patches are unrolled into a
//! `(C·KH·KW) × (OH·OW)` column matrix, so the convolution becomes
//! `weights(F, C·KH·KW) · cols`, and the backward pass w.r.t. the input
//! is the transposed product folded back with [`col2im`].

use crate::Tensor;
use std::ops::Range;

/// Output spatial size for one axis.
#[inline]
pub fn out_dim(input: usize, kernel: usize, stride: usize, pad: usize) -> usize {
    assert!(stride > 0, "stride must be positive");
    assert!(
        input + 2 * pad >= kernel,
        "kernel {kernel} larger than padded input {input}+2*{pad}"
    );
    (input + 2 * pad - kernel) / stride + 1
}

/// Output positions `o` along one axis whose tap `o·stride + k − pad`
/// lands inside `0..input`; the rest of `0..out` sees zero padding. Empty
/// (possibly `start > end`) when the tap never reaches the image.
#[inline]
fn valid_outputs(input: usize, out: usize, k: usize, stride: usize, pad: usize) -> Range<usize> {
    let lo = pad.saturating_sub(k).div_ceil(stride);
    // o·stride + k − pad < input  ⇔  o < ⌈(input + pad − k) / stride⌉
    let hi = (input + pad).saturating_sub(k).div_ceil(stride).min(out);
    lo..hi
}

/// Unrolls one `(C, H, W)` image into a `(C·KH·KW) × (OH·OW)` column
/// matrix allocated here. Hot paths should prefer [`im2col_into`] with a
/// reusable scratch buffer (see [`crate::scratch::Arena`]).
#[allow(clippy::too_many_arguments)]
pub fn im2col(
    image: &[f32],
    c: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    stride: usize,
    pad_h: usize,
    pad_w: usize,
) -> Tensor {
    let oh = out_dim(h, kh, stride, pad_h);
    let ow = out_dim(w, kw, stride, pad_w);
    let rows = c * kh * kw;
    let cols = oh * ow;
    let mut out = vec![0.0f32; rows * cols];
    im2col_into(image, c, h, w, kh, kw, stride, pad_h, pad_w, &mut out);
    Tensor::from_vec(out, &[rows, cols])
}

/// [`im2col`] into a caller-owned buffer of length
/// `(c·kh·kw) · (oh·ow)` — no allocation. `out` is fully overwritten
/// (padding positions zeroed), so stale scratch contents are harmless.
#[allow(clippy::too_many_arguments)]
pub fn im2col_into(
    image: &[f32],
    c: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    stride: usize,
    pad_h: usize,
    pad_w: usize,
    out: &mut [f32],
) {
    assert_eq!(image.len(), c * h * w, "image length mismatch");
    let oh = out_dim(h, kh, stride, pad_h);
    let ow = out_dim(w, kw, stride, pad_w);
    let rows = c * kh * kw;
    let cols = oh * ow;
    assert_eq!(out.len(), rows * cols, "cols buffer length mismatch");

    for ch in 0..c {
        let img_c = &image[ch * h * w..(ch + 1) * h * w];
        for ky in 0..kh {
            let ys = valid_outputs(h, oh, ky, stride, pad_h);
            for kx in 0..kw {
                let xs = valid_outputs(w, ow, kx, stride, pad_w);
                let row = (ch * kh + ky) * kw + kx;
                let out_row = &mut out[row * cols..(row + 1) * cols];
                if ys.is_empty() || xs.is_empty() {
                    out_row.fill(0.0); // this tap only ever sees padding
                    continue;
                }
                out_row[..ys.start * ow].fill(0.0);
                out_row[ys.end * ow..].fill(0.0);
                let ix0 = xs.start * stride + kx - pad_w;
                for oy in ys.clone() {
                    let iy = oy * stride + ky - pad_h;
                    let src = &img_c[iy * w + ix0..(iy + 1) * w];
                    let seg = &mut out_row[oy * ow..(oy + 1) * ow];
                    seg[..xs.start].fill(0.0);
                    seg[xs.end..].fill(0.0);
                    let dst = &mut seg[xs.clone()];
                    if stride == 1 {
                        dst.copy_from_slice(&src[..dst.len()]);
                    } else {
                        for (d, &v) in dst.iter_mut().zip(src.iter().step_by(stride)) {
                            *d = v;
                        }
                    }
                }
            }
        }
    }
}

/// Folds a `(C·KH·KW) × (OH·OW)` column-gradient matrix back into an
/// image gradient of length `c*h*w` (accumulating overlapping patches) —
/// the adjoint of [`im2col`].
#[allow(clippy::too_many_arguments)]
pub fn col2im(
    cols: &Tensor,
    c: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    stride: usize,
    pad_h: usize,
    pad_w: usize,
) -> Vec<f32> {
    let oh = out_dim(h, kh, stride, pad_h);
    let ow = out_dim(w, kw, stride, pad_w);
    assert_eq!(cols.shape(), &[c * kh * kw, oh * ow], "cols shape mismatch");
    let mut img = vec![0.0f32; c * h * w];
    col2im_into(cols.data(), c, h, w, kh, kw, stride, pad_h, pad_w, &mut img);
    img
}

/// [`col2im`] into a caller-owned image buffer of length `c·h·w` — no
/// allocation. `img` is overwritten (zeroed, then accumulated into).
#[allow(clippy::too_many_arguments)]
pub fn col2im_into(
    data: &[f32],
    c: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    stride: usize,
    pad_h: usize,
    pad_w: usize,
    img: &mut [f32],
) {
    let oh = out_dim(h, kh, stride, pad_h);
    let ow = out_dim(w, kw, stride, pad_w);
    let ncols = oh * ow;
    assert_eq!(data.len(), c * kh * kw * ncols, "cols length mismatch");
    assert_eq!(img.len(), c * h * w, "image buffer length mismatch");
    img.fill(0.0);

    // Loop order (ch, ky, kx) is part of the contract: an image pixel
    // receives at most one term per (ky, kx), so this order *is* its
    // accumulation chain.
    for ch in 0..c {
        let img_c = &mut img[ch * h * w..(ch + 1) * h * w];
        for ky in 0..kh {
            let ys = valid_outputs(h, oh, ky, stride, pad_h);
            for kx in 0..kw {
                let xs = valid_outputs(w, ow, kx, stride, pad_w);
                if ys.is_empty() || xs.is_empty() {
                    continue;
                }
                let row = (ch * kh + ky) * kw + kx;
                let col_row = &data[row * ncols..(row + 1) * ncols];
                let ix0 = xs.start * stride + kx - pad_w;
                for oy in ys.clone() {
                    let iy = oy * stride + ky - pad_h;
                    let dst = &mut img_c[iy * w + ix0..(iy + 1) * w];
                    let src = &col_row[oy * ow + xs.start..oy * ow + xs.end];
                    if stride == 1 {
                        for (d, &v) in dst.iter_mut().zip(src) {
                            *d += v;
                        }
                    } else {
                        for (d, &v) in dst.iter_mut().step_by(stride).zip(src) {
                            *d += v;
                        }
                    }
                }
            }
        }
    }
}

/// Max-pool of one `(C, H, W)` image with a `k×k` window at `stride`
/// and no padding, into caller-owned `out` and `arg` of length
/// `c·oh·ow` (both fully overwritten; no allocation). `arg` receives the
/// flat index into `image` of each output's maximum, for backprop.
///
/// Ties and NaN: a window's elements are visited in `(ky, kx)` order
/// starting from −∞, and the first value strictly greater than the
/// running maximum wins. So the earliest of tied maxima is chosen, NaN is
/// never chosen, and a window holding nothing greater than −∞ (all −∞ or
/// NaN) outputs −∞ with its argmax at the window's own first element.
///
/// The 2×2, stride-2 window every model uses runs a fixed-shape loop over
/// row pairs; any other window walks the general `k×k` loop. Both apply
/// the rule above, so they agree to the bit.
#[allow(clippy::too_many_arguments)]
pub fn maxpool(
    image: &[f32],
    c: usize,
    h: usize,
    w: usize,
    k: usize,
    stride: usize,
    out: &mut [f32],
    arg: &mut [usize],
) {
    assert_eq!(image.len(), c * h * w, "image length mismatch");
    let oh = out_dim(h, k, stride, 0);
    let ow = out_dim(w, k, stride, 0);
    assert_eq!(out.len(), c * oh * ow, "pooled buffer length mismatch");
    assert_eq!(arg.len(), c * oh * ow, "argmax buffer length mismatch");
    if k == 2 && stride == 2 {
        maxpool_2x2(image, h, w, ow, out, arg);
        return;
    }
    for ch in 0..c {
        for oy in 0..oh {
            for ox in 0..ow {
                let first = (ch * h + oy * stride) * w + ox * stride;
                let (mut m, mut at) = (f32::NEG_INFINITY, first);
                for ky in 0..k {
                    let row = first + ky * w;
                    for (idx, &v) in (row..).zip(&image[row..row + k]) {
                        if v > m {
                            (m, at) = (v, idx);
                        }
                    }
                }
                let o = (ch * oh + oy) * ow + ox;
                (out[o], arg[o]) = (m, at);
            }
        }
    }
}

/// [`maxpool`]'s fixed 2×2, stride-2 window: each output row reads one
/// pair of input rows, two columns at a time.
fn maxpool_2x2(image: &[f32], h: usize, w: usize, ow: usize, out: &mut [f32], arg: &mut [usize]) {
    // Output row `r = ch·oh + oy` reads input rows 2·oy and 2·oy + 1 of
    // channel `ch`; an odd trailing row or column is never read.
    let oh = h / 2;
    for (r, (o_row, a_row)) in out
        .chunks_exact_mut(ow)
        .zip(arg.chunks_exact_mut(ow))
        .enumerate()
    {
        let top = (r / oh * h + r % oh * 2) * w;
        let r0 = &image[top..top + 2 * ow];
        let r1 = &image[top + w..top + w + 2 * ow];
        for (x, (((o, a), p), q)) in o_row
            .iter_mut()
            .zip(a_row.iter_mut())
            .zip(r0.chunks_exact(2))
            .zip(r1.chunks_exact(2))
            .enumerate()
        {
            // (ky, kx) order, offsets from the window's first element.
            let (mut m, mut at) = (f32::NEG_INFINITY, 0);
            if p[0] > m {
                m = p[0];
            }
            if p[1] > m {
                (m, at) = (p[1], 1);
            }
            if q[0] > m {
                (m, at) = (q[0], w);
            }
            if q[1] > m {
                (m, at) = (q[1], w + 1);
            }
            (*o, *a) = (m, top + 2 * x + at);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matmul::matmul;
    use crate::Rng;

    /// Direct (definition-level) convolution for cross-checking.
    #[allow(clippy::too_many_arguments)]
    fn conv_direct(
        image: &[f32],
        c: usize,
        h: usize,
        w: usize,
        weight: &Tensor, // (F, C, KH, KW)
        stride: usize,
        pad: usize,
    ) -> Vec<f32> {
        let (f, _, kh, kw) = (
            weight.shape()[0],
            weight.shape()[1],
            weight.shape()[2],
            weight.shape()[3],
        );
        let oh = out_dim(h, kh, stride, pad);
        let ow = out_dim(w, kw, stride, pad);
        let mut out = vec![0.0; f * oh * ow];
        for ff in 0..f {
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut s = 0.0;
                    for ch in 0..c {
                        for ky in 0..kh {
                            for kx in 0..kw {
                                let iy = (oy * stride + ky) as isize - pad as isize;
                                let ix = (ox * stride + kx) as isize - pad as isize;
                                if iy < 0 || iy >= h as isize || ix < 0 || ix >= w as isize {
                                    continue;
                                }
                                s += image[(ch * h + iy as usize) * w + ix as usize]
                                    * weight.at(&[ff, ch, ky, kx]);
                            }
                        }
                    }
                    out[(ff * oh + oy) * ow + ox] = s;
                }
            }
        }
        out
    }

    /// The seed's element-at-a-time lowering, kept as the oracle the
    /// row-sliced [`im2col_into`] must match to the bit.
    #[allow(clippy::too_many_arguments)]
    fn im2col_elementwise(
        image: &[f32],
        c: usize,
        h: usize,
        w: usize,
        kh: usize,
        kw: usize,
        stride: usize,
        pad_h: usize,
        pad_w: usize,
        out: &mut [f32],
    ) {
        let oh = out_dim(h, kh, stride, pad_h);
        let ow = out_dim(w, kw, stride, pad_w);
        let cols = oh * ow;
        out.fill(0.0);

        for ch in 0..c {
            let img_c = &image[ch * h * w..(ch + 1) * h * w];
            for ky in 0..kh {
                for kx in 0..kw {
                    let row = (ch * kh + ky) * kw + kx;
                    let out_row = &mut out[row * cols..(row + 1) * cols];
                    for oy in 0..oh {
                        let iy = (oy * stride + ky) as isize - pad_h as isize;
                        if iy < 0 || iy >= h as isize {
                            continue; // zero padding
                        }
                        let iy = iy as usize;
                        for ox in 0..ow {
                            let ix = (ox * stride + kx) as isize - pad_w as isize;
                            if ix < 0 || ix >= w as isize {
                                continue;
                            }
                            out_row[oy * ow + ox] = img_c[iy * w + ix as usize];
                        }
                    }
                }
            }
        }
    }

    /// The seed's element-at-a-time fold, the oracle for [`col2im_into`].
    #[allow(clippy::too_many_arguments)]
    fn col2im_elementwise(
        data: &[f32],
        c: usize,
        h: usize,
        w: usize,
        kh: usize,
        kw: usize,
        stride: usize,
        pad_h: usize,
        pad_w: usize,
        img: &mut [f32],
    ) {
        let oh = out_dim(h, kh, stride, pad_h);
        let ow = out_dim(w, kw, stride, pad_w);
        let ncols = oh * ow;
        img.fill(0.0);

        for ch in 0..c {
            let img_c = &mut img[ch * h * w..(ch + 1) * h * w];
            for ky in 0..kh {
                for kx in 0..kw {
                    let row = (ch * kh + ky) * kw + kx;
                    let col_row = &data[row * ncols..(row + 1) * ncols];
                    for oy in 0..oh {
                        let iy = (oy * stride + ky) as isize - pad_h as isize;
                        if iy < 0 || iy >= h as isize {
                            continue;
                        }
                        let iy = iy as usize;
                        for ox in 0..ow {
                            let ix = (ox * stride + kx) as isize - pad_w as isize;
                            if ix < 0 || ix >= w as isize {
                                continue;
                            }
                            img_c[iy * w + ix as usize] += col_row[oy * ow + ox];
                        }
                    }
                }
            }
        }
    }

    /// Row-sliced lowering ≡ element-at-a-time lowering, to the bit, over
    /// stride 1–3 × pad 0–2 × kernel 1/3/5 on non-square images, the
    /// `Conv1d` geometry (`kh = 1`, pad on `w` only) and a kernel wider
    /// than `w + pad` (some `kx` never reach the image).
    #[test]
    fn row_sliced_lowering_matches_elementwise_bit_exactly() {
        let mut r = Rng::seed(13);
        // (h, w, kh, kw, pad_h, pad_w)
        let mut geoms = Vec::new();
        for (h, w) in [(5, 8), (9, 4), (6, 6), (1, 7)] {
            for k in [1, 3, 5] {
                for pad in 0..=2 {
                    geoms.push((h, w, k, k, pad, pad));
                }
            }
        }
        for kw in [1, 3, 5] {
            for pad_w in 0..=2 {
                geoms.push((1, 11, 1, kw, 0, pad_w)); // Conv1d
            }
        }
        geoms.push((4, 2, 3, 5, 1, 2)); // kw > w + pad_w
        geoms.push((2, 1, 5, 3, 2, 1)); // kh > h + pad_h
        let mut checked = 0;
        for (h, w, kh, kw, pad_h, pad_w) in geoms {
            if h + 2 * pad_h < kh || w + 2 * pad_w < kw {
                continue;
            }
            for stride in 1..=3 {
                for c in [1, 3] {
                    let ctx = format!("c={c} {h}x{w} k={kh}x{kw} s={stride} p={pad_h},{pad_w}");
                    // Every output starts as garbage: unwritten slots show.
                    let run = |f: Lowering, src: &[f32], len: usize| {
                        let mut out = vec![f32::NAN; len];
                        f(src, c, h, w, kh, kw, stride, pad_h, pad_w, &mut out);
                        out
                    };
                    let oh = out_dim(h, kh, stride, pad_h);
                    let ow = out_dim(w, kw, stride, pad_w);
                    let image = r.normal_tensor(&[c * h * w], 1.0).into_vec();
                    let dcols = r.normal_tensor(&[c * kh * kw * oh * ow], 1.0).into_vec();
                    assert_bits(
                        &run(im2col_into, &image, dcols.len()),
                        &run(im2col_elementwise, &image, dcols.len()),
                        &format!("im2col {ctx}"),
                    );
                    assert_bits(
                        &run(col2im_into, &dcols, image.len()),
                        &run(col2im_elementwise, &dcols, image.len()),
                        &format!("col2im {ctx}"),
                    );
                    checked += 1;
                }
            }
        }
        assert!(checked > 200, "grid collapsed to {checked} cases");
    }

    /// The shared signature of the lowerings and their oracles.
    type Lowering = fn(&[f32], usize, usize, usize, usize, usize, usize, usize, usize, &mut [f32]);

    fn assert_bits(got: &[f32], want: &[f32], ctx: &str) {
        assert_eq!(got.len(), want.len(), "{ctx}: length");
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert_eq!(
                g.to_bits(),
                w.to_bits(),
                "{ctx}: element {i}: {g:?} vs {w:?}"
            );
        }
    }

    #[test]
    fn out_dim_formula() {
        assert_eq!(out_dim(8, 3, 1, 0), 6);
        assert_eq!(out_dim(8, 3, 1, 1), 8);
        assert_eq!(out_dim(8, 3, 2, 1), 4);
        assert_eq!(out_dim(1, 1, 1, 0), 1);
    }

    #[test]
    #[should_panic(expected = "larger than padded input")]
    fn oversized_kernel_rejected() {
        let _ = out_dim(2, 5, 1, 0);
    }

    #[test]
    fn im2col_matmul_equals_direct_convolution() {
        let mut r = Rng::seed(11);
        for (c, h, w, f, k, stride, pad) in [
            (1, 5, 5, 2, 3, 1, 0),
            (3, 8, 8, 4, 3, 1, 1),
            (2, 7, 9, 3, 3, 2, 1),
            (1, 4, 4, 1, 1, 1, 0),
        ] {
            let img = r.normal_tensor(&[c * h * w], 1.0);
            let weight = r.normal_tensor(&[f, c, k, k], 0.5);
            let cols = im2col(img.data(), c, h, w, k, k, stride, pad, pad);
            let wmat = weight.clone().reshape(&[f, c * k * k]);
            let out = matmul(&wmat, &cols);
            let direct = conv_direct(img.data(), c, h, w, &weight, stride, pad);
            for (a, b) in out.data().iter().zip(&direct) {
                assert!(
                    (a - b).abs() < 1e-4,
                    "c={c} h={h} k={k} s={stride} p={pad}: {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> for all x, y — the defining
        // property of the adjoint, which is what backprop relies on.
        let mut r = Rng::seed(12);
        let (c, h, w, k, stride, pad) = (2, 6, 5, 3, 2, 1);
        let x = r.normal_tensor(&[c * h * w], 1.0);
        let cols = im2col(x.data(), c, h, w, k, k, stride, pad, pad);
        let y = r.normal_tensor(cols.shape(), 1.0);
        let lhs: f32 = cols.data().iter().zip(y.data()).map(|(a, b)| a * b).sum();
        let folded = col2im(&y, c, h, w, k, k, stride, pad, pad);
        let rhs: f32 = x.data().iter().zip(&folded).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-3, "{lhs} vs {rhs}");
    }

    /// The general-window loop [`maxpool`] replaced, kept as its oracle:
    /// outputs start at −∞ and every argmax at 0.
    fn maxpool_reference(
        image: &[f32],
        c: usize,
        h: usize,
        w: usize,
        k: usize,
        stride: usize,
    ) -> (Vec<f32>, Vec<usize>) {
        let oh = out_dim(h, k, stride, 0);
        let ow = out_dim(w, k, stride, 0);
        let mut out = vec![f32::NEG_INFINITY; c * oh * ow];
        let mut arg = vec![0usize; c * oh * ow];
        for ch in 0..c {
            for oy in 0..oh {
                for ox in 0..ow {
                    let o = (ch * oh + oy) * ow + ox;
                    for ky in 0..k {
                        for kx in 0..k {
                            let iy = oy * stride + ky;
                            let ix = ox * stride + kx;
                            let idx = (ch * h + iy) * w + ix;
                            if image[idx] > out[o] {
                                out[o] = image[idx];
                                arg[o] = idx;
                            }
                        }
                    }
                }
            }
        }
        (out, arg)
    }

    /// [`maxpool`] into fresh garbage-filled buffers, so an unwritten
    /// slot shows.
    fn pool(
        image: &[f32],
        c: usize,
        h: usize,
        w: usize,
        k: usize,
        stride: usize,
    ) -> (Vec<f32>, Vec<usize>) {
        let len = c * out_dim(h, k, stride, 0) * out_dim(w, k, stride, 0);
        let (mut out, mut arg) = (vec![f32::NAN; len], vec![usize::MAX; len]);
        maxpool(image, c, h, w, k, stride, &mut out, &mut arg);
        (out, arg)
    }

    #[test]
    fn maxpool_picks_maxima_and_indices() {
        // 1 channel, 4x4
        #[rustfmt::skip]
        let img = vec![
            1.0, 2.0, 5.0, 0.0,
            3.0, 4.0, 1.0, 1.0,
            0.0, 0.0, 9.0, 8.0,
            0.0, 7.0, 6.0, 9.5,
        ];
        let (out, arg) = pool(&img, 1, 4, 4, 2, 2);
        assert_eq!(out, vec![4.0, 5.0, 7.0, 9.5]);
        assert_eq!(arg, vec![5, 2, 13, 15]);
    }

    /// [`maxpool`] ≡ the reference loop over random `(c, h, w, k, stride)`
    /// with overlapping windows, odd sizes, ties, NaN and ±∞: bit-equal
    /// outputs and equal argmax, except that a window with nothing
    /// greater than −∞ now points at its own first element, not at 0.
    #[test]
    fn maxpool_matches_reference_loop() {
        let mut r = Rng::seed(14);
        let palette = [
            0.0,
            -0.0,
            1.0,
            1.0,
            -1.0,
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
        ];
        let mut empty_windows = 0;
        for case in 0..600 {
            // Every third case is the 2×2, stride-2 window the models use.
            let (k, stride) = if case % 3 == 0 {
                (2, 2)
            } else {
                (1 + r.below(4), 1 + r.below(3))
            };
            let (c, h, w) = (1 + r.below(3), k + r.below(8), k + r.below(8));
            // Mostly palette values (ties, NaN, ±∞), the rest normals; a
            // few images are nothing but NaN and −∞.
            let special = if case % 10 == 9 { 1.0 } else { 0.6 };
            let image: Vec<f32> = (0..c * h * w)
                .map(|_| match (r.chance(special), case % 10 == 9) {
                    (true, true) => [f32::NAN, f32::NEG_INFINITY][r.below(2)],
                    (true, false) => palette[r.below(palette.len())],
                    (false, _) => r.normal(),
                })
                .collect();
            let ctx = format!("case {case}: c={c} {h}x{w} k={k} s={stride}");
            let (want, want_arg) = maxpool_reference(&image, c, h, w, k, stride);
            let (got, got_arg) = pool(&image, c, h, w, k, stride);
            assert_bits(&got, &want, &ctx);
            let (oh, ow) = (out_dim(h, k, stride, 0), out_dim(w, k, stride, 0));
            for (o, (&g, &a)) in got_arg.iter().zip(&want_arg).enumerate() {
                let (ch, oy, ox) = (o / (oh * ow), o / ow % oh, o % ow);
                let first = (ch * h + oy * stride) * w + ox * stride;
                let expected = if want[o] > f32::NEG_INFINITY {
                    a
                } else {
                    empty_windows += 1;
                    first
                };
                assert_eq!(g, expected, "{ctx}: argmax of output {o}");
            }
        }
        assert!(
            empty_windows > 100,
            "only {empty_windows} all-−∞/NaN windows"
        );
    }

    #[test]
    fn padding_zero_regions_stay_zero_in_cols() {
        let img = vec![1.0; 4]; // 1×2×2
        let cols = im2col(&img, 1, 2, 2, 3, 3, 1, 1, 1);
        // center tap row (ky=1,kx=1) has all ones, corner taps have zeros
        assert_eq!(cols.shape(), &[9, 4]);
        let center = cols.row(4);
        assert_eq!(center, &[1.0, 1.0, 1.0, 1.0]);
        let corner = cols.row(0); // (0,0) tap sees padding for output (0,0)
        assert_eq!(corner[0], 0.0);
    }
}
