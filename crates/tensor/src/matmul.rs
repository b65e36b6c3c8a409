//! Cache-blocked, bit-exact parallel matrix multiplication.
//!
//! The kernel underneath every Dense layer, every im2col convolution and
//! every kernel-matrix in `ml`. The seed kernel was a row-parallel ikj
//! loop: for each output row, ascending-`kk` saxpy passes over the full
//! width of `B`, skipping exact structural zeros of `A`. These kernels
//! keep *that accumulation order per output element* — ascending `kk`,
//! zero-skip included, one accumulator per element — while reorganising
//! the loops for cache reuse and wider parallelism:
//!
//! * **i-blocking**: rows are distributed over the persistent pool in
//!   blocks (each element's history is untouched — rows are independent).
//! * **sequential in-order k-blocking**: `kk` is processed in `KC`-sized
//!   blocks, *in order*, so for every `(i, j)` the contributions still
//!   arrive in ascending `kk` — this is the determinism argument: f32
//!   addition is not associative, but we never reassociate, we only
//!   re-nest loops around an order-preserving chain.
//! * **j-tiling**: within a k-block, columns are walked in `NC`-sized
//!   panels so the `KC×NC` slab of `B` stays cache-resident across all
//!   rows of the block. Elements of a row are independent, so j-order is
//!   irrelevant to the result.
//! * **4-way unrolled saxpy bundles**: four consecutive `kk` taps are
//!   fused into one pass over the panel, written left-associatively
//!   (`((((o + a0·b0) + a1·b1) + a2·b2) + a3·b3)`) — the exact same
//!   per-element chain as four sequential passes. A bundle is only taken
//!   when all four `a` taps are nonzero; otherwise the scalar zero-skip
//!   path runs, preserving the seed's sparsity semantics bit for bit
//!   (skipping a tap is *not* the same as adding `0.0·b` when the
//!   accumulator is `-0.0` or `b` is non-finite).
//! * **A·Bᵀ register tile**: `nt` walks both operands along `k`, so it
//!   has no saxpy form; `block_nt` packs 16/8/4/1 rows of `A` tap-major
//!   and keeps one accumulator *lane per output element*, four rows of
//!   `B` at a time — SIMD across independent dots, each still the seed's
//!   single ascending-`kk` chain from `-0.0`, with no zero-skip.
//! * the `m == 1` row-vector case — every batch-1 Dense — parallelises
//!   over column blocks instead of staying serial.
//! * **one output column or one tap** (a `Dense(k→1)` head and its
//!   backward products) has no panel to tile and skips the strips: `nn`
//!   with `n == 1` is a running dot per row (`dot_rows`), `tn` with
//!   `n == 1` advances all `m` chains a row of `A` at a time, unpacked
//!   (`tn_col`), `nt` with `k == 1` is an outer product from `-0.0`.
//!   Same chains, ascending `kk` from what `out` holds, the zero-skip a
//!   branch-free select; which kernel runs depends on the shape alone.
//!
//! [`reference`](mod@reference) keeps the seed kernels verbatim as the bit-exactness
//! oracle for tests and the baseline for `BENCH_pr4.json`. The blocking
//! argument is checked on shapes one short of, on and one past the
//! `KC`/`NC` edges, pool on and off, by `blocking_params_are_bit_invariant`
//! here and `matmul_k_blocking_never_reassociates_the_sum` in
//! `tests/properties.rs`.

use crate::{Tensor, PAR_THRESHOLD};
use rayon::prelude::*;
use std::cell::RefCell;

/// k-block depth: rows of `B` per panel, processed in order.
const KC: usize = 128;
/// j-panel width: columns of `B` per panel. The `KC×NC` panel of `B` is
/// 128·512·4 B = 256 KiB: L2-resident across every row of an i-block on
/// any recent core.
const NC: usize = 512;

// ---------------------------------------------------------------------------
// Inner kernels (serial building blocks).
// ---------------------------------------------------------------------------

/// One saxpy tap: `o += a · b_row`, skipping structural zeros exactly
/// like the seed kernel.
#[inline]
fn saxpy1(a: f32, b_row: &[f32], o: &mut [f32]) {
    // lint: allow(float-eq) -- sparsity fast path: skip exact structural zeros
    if a == 0.0 {
        return;
    }
    for (oo, &bb) in o.iter_mut().zip(b_row) {
        *oo += a * bb;
    }
}

/// Ascending-`kk` saxpy over one `[j0, j0+o.len())` panel of one output
/// row, taps `k0..k1`. Four-tap bundles when all four `a` values are
/// nonzero; scalar zero-skip otherwise. Per-element accumulation order
/// is identical to the seed ikj kernel restricted to this tap range.
#[inline]
fn saxpy_panel(a_row: &[f32], b: &[f32], n: usize, k0: usize, k1: usize, j0: usize, o: &mut [f32]) {
    let w = o.len();
    let mut kk = k0;
    while kk + 4 <= k1 {
        let (a0, a1, a2, a3) = (a_row[kk], a_row[kk + 1], a_row[kk + 2], a_row[kk + 3]);
        // lint: allow(float-eq) -- bundle only when no tap needs the zero-skip path
        if a0 != 0.0 && a1 != 0.0 && a2 != 0.0 && a3 != 0.0 {
            let b0 = &b[kk * n + j0..kk * n + j0 + w];
            let b1 = &b[(kk + 1) * n + j0..(kk + 1) * n + j0 + w];
            let b2 = &b[(kk + 2) * n + j0..(kk + 2) * n + j0 + w];
            let b3 = &b[(kk + 3) * n + j0..(kk + 3) * n + j0 + w];
            for ((((oo, &v0), &v1), &v2), &v3) in
                o.iter_mut().zip(b0).zip(b1).zip(b2).zip(b3)
            {
                // Left-associative: the same chain as four sequential taps.
                *oo = (((*oo + a0 * v0) + a1 * v1) + a2 * v2) + a3 * v3;
            }
        } else {
            for t in kk..kk + 4 {
                saxpy1(a_row[t], &b[t * n + j0..t * n + j0 + w], o);
            }
        }
        kk += 4;
    }
    while kk < k1 {
        saxpy1(a_row[kk], &b[kk * n + j0..kk * n + j0 + w], o);
        kk += 1;
    }
}

/// Four-row register-tiled variant of [`saxpy_panel`]: the same tap
/// range applied to four independent output rows in one pass, so every
/// `B` panel value is loaded once per four rows instead of once per row.
/// Each row's element keeps its own ascending-`kk` left-associative
/// chain — the rows never mix, so this is bit-identical to four
/// [`saxpy_panel`] calls. The fused 4×4 pass is only taken when all 16
/// `a` taps are nonzero; any zero drops the affected bundle back to the
/// per-row zero-skip path.
#[inline]
#[allow(clippy::too_many_arguments)]
fn saxpy_panel4(
    a0: &[f32],
    a1: &[f32],
    a2: &[f32],
    a3: &[f32],
    b: &[f32],
    n: usize,
    k0: usize,
    k1: usize,
    j0: usize,
    o0: &mut [f32],
    o1: &mut [f32],
    o2: &mut [f32],
    o3: &mut [f32],
) {
    let w = o0.len();
    let mut kk = k0;
    while kk + 4 <= k1 {
        let t0 = [a0[kk], a0[kk + 1], a0[kk + 2], a0[kk + 3]];
        let t1 = [a1[kk], a1[kk + 1], a1[kk + 2], a1[kk + 3]];
        let t2 = [a2[kk], a2[kk + 1], a2[kk + 2], a2[kk + 3]];
        let t3 = [a3[kk], a3[kk + 1], a3[kk + 2], a3[kk + 3]];
        let dense = t0
            .iter()
            .chain(&t1)
            .chain(&t2)
            .chain(&t3)
            // lint: allow(float-eq) -- fused pass only when no tap needs the zero-skip path
            .all(|&t| t != 0.0);
        if dense {
            let b0 = &b[kk * n + j0..kk * n + j0 + w];
            let b1 = &b[(kk + 1) * n + j0..(kk + 1) * n + j0 + w];
            let b2 = &b[(kk + 2) * n + j0..(kk + 2) * n + j0 + w];
            let b3 = &b[(kk + 3) * n + j0..(kk + 3) * n + j0 + w];
            let (o0, o1, o2, o3) = (
                &mut o0[..w],
                &mut o1[..w],
                &mut o2[..w],
                &mut o3[..w],
            );
            for jj in 0..w {
                let (v0, v1, v2, v3) = (b0[jj], b1[jj], b2[jj], b3[jj]);
                o0[jj] = (((o0[jj] + t0[0] * v0) + t0[1] * v1) + t0[2] * v2) + t0[3] * v3;
                o1[jj] = (((o1[jj] + t1[0] * v0) + t1[1] * v1) + t1[2] * v2) + t1[3] * v3;
                o2[jj] = (((o2[jj] + t2[0] * v0) + t2[1] * v1) + t2[2] * v2) + t2[3] * v3;
                o3[jj] = (((o3[jj] + t3[0] * v0) + t3[1] * v1) + t3[2] * v2) + t3[3] * v3;
            }
        } else {
            saxpy_panel(a0, b, n, kk, kk + 4, j0, o0);
            saxpy_panel(a1, b, n, kk, kk + 4, j0, o1);
            saxpy_panel(a2, b, n, kk, kk + 4, j0, o2);
            saxpy_panel(a3, b, n, kk, kk + 4, j0, o3);
        }
        kk += 4;
    }
    if kk < k1 {
        saxpy_panel(a0, b, n, kk, k1, j0, o0);
        saxpy_panel(a1, b, n, kk, k1, j0, o1);
        saxpy_panel(a2, b, n, kk, k1, j0, o2);
        saxpy_panel(a3, b, n, kk, k1, j0, o3);
    }
}

/// Eight-row register tile: two [`saxpy_panel4`] row groups fused into
/// one pass over the `B` panel, halving `B` traffic again. Rows stay
/// independent — bit-identical to eight [`saxpy_panel`] calls. The fused
/// pass requires all 32 `a` taps nonzero; otherwise the two 4-row groups
/// fall back independently (which themselves fall back per row).
#[inline]
#[allow(clippy::too_many_arguments)]
fn saxpy_panel8(
    a: [&[f32]; 8],
    b: &[f32],
    n: usize,
    k0: usize,
    k1: usize,
    j0: usize,
    o: [&mut [f32]; 8],
) {
    let [o0, o1, o2, o3, o4, o5, o6, o7] = o;
    let w = o0.len();
    let mut kk = k0;
    while kk + 4 <= k1 {
        let t0 = [a[0][kk], a[0][kk + 1], a[0][kk + 2], a[0][kk + 3]];
        let t1 = [a[1][kk], a[1][kk + 1], a[1][kk + 2], a[1][kk + 3]];
        let t2 = [a[2][kk], a[2][kk + 1], a[2][kk + 2], a[2][kk + 3]];
        let t3 = [a[3][kk], a[3][kk + 1], a[3][kk + 2], a[3][kk + 3]];
        let t4 = [a[4][kk], a[4][kk + 1], a[4][kk + 2], a[4][kk + 3]];
        let t5 = [a[5][kk], a[5][kk + 1], a[5][kk + 2], a[5][kk + 3]];
        let t6 = [a[6][kk], a[6][kk + 1], a[6][kk + 2], a[6][kk + 3]];
        let t7 = [a[7][kk], a[7][kk + 1], a[7][kk + 2], a[7][kk + 3]];
        let dense = t0
            .iter()
            .chain(&t1)
            .chain(&t2)
            .chain(&t3)
            .chain(&t4)
            .chain(&t5)
            .chain(&t6)
            .chain(&t7)
            // lint: allow(float-eq) -- fused pass only when no tap needs the zero-skip path
            .all(|&t| t != 0.0);
        if dense {
            let b0 = &b[kk * n + j0..kk * n + j0 + w];
            let b1 = &b[(kk + 1) * n + j0..(kk + 1) * n + j0 + w];
            let b2 = &b[(kk + 2) * n + j0..(kk + 2) * n + j0 + w];
            let b3 = &b[(kk + 3) * n + j0..(kk + 3) * n + j0 + w];
            let (o0, o1, o2, o3) = (&mut o0[..w], &mut o1[..w], &mut o2[..w], &mut o3[..w]);
            let (o4, o5, o6, o7) = (&mut o4[..w], &mut o5[..w], &mut o6[..w], &mut o7[..w]);
            for jj in 0..w {
                let (v0, v1, v2, v3) = (b0[jj], b1[jj], b2[jj], b3[jj]);
                o0[jj] = (((o0[jj] + t0[0] * v0) + t0[1] * v1) + t0[2] * v2) + t0[3] * v3;
                o1[jj] = (((o1[jj] + t1[0] * v0) + t1[1] * v1) + t1[2] * v2) + t1[3] * v3;
                o2[jj] = (((o2[jj] + t2[0] * v0) + t2[1] * v1) + t2[2] * v2) + t2[3] * v3;
                o3[jj] = (((o3[jj] + t3[0] * v0) + t3[1] * v1) + t3[2] * v2) + t3[3] * v3;
                o4[jj] = (((o4[jj] + t4[0] * v0) + t4[1] * v1) + t4[2] * v2) + t4[3] * v3;
                o5[jj] = (((o5[jj] + t5[0] * v0) + t5[1] * v1) + t5[2] * v2) + t5[3] * v3;
                o6[jj] = (((o6[jj] + t6[0] * v0) + t6[1] * v1) + t6[2] * v2) + t6[3] * v3;
                o7[jj] = (((o7[jj] + t7[0] * v0) + t7[1] * v1) + t7[2] * v2) + t7[3] * v3;
            }
        } else {
            saxpy_panel4(a[0], a[1], a[2], a[3], b, n, kk, kk + 4, j0, o0, o1, o2, o3);
            saxpy_panel4(a[4], a[5], a[6], a[7], b, n, kk, kk + 4, j0, o4, o5, o6, o7);
        }
        kk += 4;
    }
    if kk < k1 {
        saxpy_panel4(a[0], a[1], a[2], a[3], b, n, kk, k1, j0, o0, o1, o2, o3);
        saxpy_panel4(a[4], a[5], a[6], a[7], b, n, kk, k1, j0, o4, o5, o6, o7);
    }
}

/// [`block_nn`] for a one-column `B` (`k > 0`): `out[r] += ⟨a_row_r, b⟩`, one
/// ascending chain per row from `out[r]`, zero taps of `A` skipped by select.
fn dot_rows(a_blk: &[f32], b: &[f32], out_blk: &mut [f32]) {
    for (o, a_row) in out_blk.iter_mut().zip(a_blk.chunks_exact(b.len())) {
        let mut acc = *o;
        for (&a, &bv) in a_row.iter().zip(b) {
            // lint: allow(float-eq) -- the seed's structural-zero skip, as a select
            acc = if a != 0.0 { acc + a * bv } else { acc };
        }
        *o = acc;
    }
}

/// `out += Aᵀ · b` for a one-column `B`: every lane `out[i]` is its own
/// ascending-`kk` zero-skipping chain, `A` (`k×m`) walked row by row.
fn tn_col(a: &[f32], b: &[f32], out: &mut [f32]) {
    for (a_row, &bv) in a.chunks_exact(out.len()).zip(b) {
        for (o, &a) in out.iter_mut().zip(a_row) {
            // lint: allow(float-eq) -- the seed's structural-zero skip, as a select
            *o = if a != 0.0 { *o + a * bv } else { *o };
        }
    }
}

/// Blocked `out_blk += A_blk · B` for a contiguous block of output rows.
/// `a_blk` holds the matching rows of `A` (row-major, width `k`). Rows
/// are walked in register tiles of eight, then four, then singly.
fn block_nn(a_blk: &[f32], b: &[f32], out_blk: &mut [f32], k: usize, n: usize) {
    if n == 1 {
        return dot_rows(a_blk, b, out_blk);
    }
    let rows = out_blk.len() / n;
    let mut k0 = 0;
    while k0 < k {
        // In-order k-blocks: ascending kk per element across blocks.
        let k1 = (k0 + KC).min(k);
        let mut j0 = 0;
        while j0 < n {
            let j1 = (j0 + NC).min(n);
            let mut r = 0;
            while r + 8 <= rows {
                let (q0, rest) = out_blk[r * n..(r + 8) * n].split_at_mut(n);
                let (q1, rest) = rest.split_at_mut(n);
                let (q2, rest) = rest.split_at_mut(n);
                let (q3, rest) = rest.split_at_mut(n);
                let (q4, rest) = rest.split_at_mut(n);
                let (q5, rest) = rest.split_at_mut(n);
                let (q6, q7) = rest.split_at_mut(n);
                saxpy_panel8(
                    [
                        &a_blk[r * k..(r + 1) * k],
                        &a_blk[(r + 1) * k..(r + 2) * k],
                        &a_blk[(r + 2) * k..(r + 3) * k],
                        &a_blk[(r + 3) * k..(r + 4) * k],
                        &a_blk[(r + 4) * k..(r + 5) * k],
                        &a_blk[(r + 5) * k..(r + 6) * k],
                        &a_blk[(r + 6) * k..(r + 7) * k],
                        &a_blk[(r + 7) * k..(r + 8) * k],
                    ],
                    b,
                    n,
                    k0,
                    k1,
                    j0,
                    [
                        &mut q0[j0..j1],
                        &mut q1[j0..j1],
                        &mut q2[j0..j1],
                        &mut q3[j0..j1],
                        &mut q4[j0..j1],
                        &mut q5[j0..j1],
                        &mut q6[j0..j1],
                        &mut q7[j0..j1],
                    ],
                );
                r += 8;
            }
            if r + 4 <= rows {
                let (q0, rest) = out_blk[r * n..(r + 4) * n].split_at_mut(n);
                let (q1, rest) = rest.split_at_mut(n);
                let (q2, q3) = rest.split_at_mut(n);
                saxpy_panel4(
                    &a_blk[r * k..(r + 1) * k],
                    &a_blk[(r + 1) * k..(r + 2) * k],
                    &a_blk[(r + 2) * k..(r + 3) * k],
                    &a_blk[(r + 3) * k..(r + 4) * k],
                    b,
                    n,
                    k0,
                    k1,
                    j0,
                    &mut q0[j0..j1],
                    &mut q1[j0..j1],
                    &mut q2[j0..j1],
                    &mut q3[j0..j1],
                );
                r += 4;
            }
            while r < rows {
                let a_row = &a_blk[r * k..(r + 1) * k];
                let o = &mut out_blk[r * n + j0..r * n + j1];
                saxpy_panel(a_row, b, n, k0, k1, j0, o);
                r += 1;
            }
            j0 = j1;
        }
        k0 = k1;
    }
}

/// Tallest A·Bᵀ register tile; the shorter ones (8, 4, 1) take the rows
/// a block has left over.
const NT_MR: usize = 16;

/// `NR` columns of one A·Bᵀ register tile: `out[l, j] = ⟨a_l, b_j⟩` for
/// the `MR` rows packed in `panel` (`k×MR`, tap-major) and the `NR` rows
/// of `b_rows`. Every output element owns one accumulator lane that
/// starts at `-0.0` — what `f32::sum()` folds from, the IEEE additive
/// identity (`x + -0.0 == x` for every `x`, signed zeros included) — and
/// takes `+= a·b` in ascending `kk` with a separate mul and add: the
/// seed's exact chain. The lanes of a SIMD register are *different*
/// output elements, so vectorising over `l` reorders nothing.
#[inline]
fn nt_cols<const MR: usize, const NR: usize>(
    panel: &[[f32; MR]],
    b_rows: &[f32],
    out_tile: &mut [f32],
    n: usize,
    j: usize,
) {
    let k = panel.len();
    let b_j: [&[f32]; NR] = std::array::from_fn(|c| &b_rows[c * k..][..k]);
    let mut acc = [[-0.0f32; MR]; NR];
    for (kk, a_kk) in panel.iter().enumerate() {
        for c in 0..NR {
            let bv = b_j[c][kk];
            for l in 0..MR {
                acc[c][l] += a_kk[l] * bv;
            }
        }
    }
    for (c, acc_c) in acc.iter().enumerate() {
        for (l, &v) in acc_c.iter().enumerate() {
            out_tile[l * n + j + c] = v;
        }
    }
}

/// One `MR`-row register tile of A·Bᵀ: packs the `MR` rows of `a_tile`
/// tap-major into `pack` (values are copied, not recombined), then walks
/// the rows of `B` four at a time — four independent chains per lane
/// hide the add latency that serialises a lone running sum — and singly
/// for the last `n % 4`.
fn nt_tile<const MR: usize>(
    a_tile: &[f32],
    b: &[f32],
    out_tile: &mut [f32],
    k: usize,
    n: usize,
    pack: &mut [f32],
) {
    let (panel, _) = pack[..k * MR].as_chunks_mut::<MR>();
    for (kk, p) in panel.iter_mut().enumerate() {
        for (l, v) in p.iter_mut().enumerate() {
            *v = a_tile[l * k + kk];
        }
    }
    let mut j = 0;
    while j + 4 <= n {
        nt_cols::<MR, 4>(panel, &b[j * k..(j + 4) * k], out_tile, n, j);
        j += 4;
    }
    while j < n {
        nt_cols::<MR, 1>(panel, &b[j * k..(j + 1) * k], out_tile, n, j);
        j += 1;
    }
}

/// Runs [`nt_tile`]`::<MR>` over the whole `MR`-row tiles at the head of
/// a block (`a`: its rows of `A`, `out`: its rows of the result) and
/// returns the rows left over.
fn nt_tiles<'a, const MR: usize>(
    a: &'a [f32],
    b: &[f32],
    out: &'a mut [f32],
    k: usize,
    n: usize,
    pack: &mut [f32],
) -> (&'a [f32], &'a mut [f32]) {
    let whole = out.len() / (MR * n) * MR;
    let (a_head, a_rest) = a.split_at(whole * k);
    let (out_head, out_rest) = out.split_at_mut(whole * n);
    let out_tiles = out_head.chunks_exact_mut(MR * n);
    for (a_tile, out_tile) in a_head.chunks_exact(MR * k).zip(out_tiles) {
        nt_tile::<MR>(a_tile, b, out_tile, k, n, pack);
    }
    (a_rest, out_rest)
}

/// A·Bᵀ for a contiguous block of output rows (`k > 0`): `out_blk[r, j]
/// = ⟨a_row_r, b_row_j⟩`, rows walked in register tiles of sixteen, then
/// eight, four and one. Bit-identical to [`reference::matmul_nt_dot`]
/// (see [`nt_cols`]).
fn block_nt(a_blk: &[f32], b: &[f32], out_blk: &mut [f32], k: usize, n: usize) {
    if k == 1 {
        // One-tap dots: the outer product, each element `-0.0 + a·b`.
        for (o_row, &a) in out_blk.chunks_exact_mut(n).zip(a_blk) {
            for (o, &bv) in o_row.iter_mut().zip(b) {
                *o = -0.0 + a * bv;
            }
        }
        return;
    }
    let rows = out_blk.len() / n;
    with_pack(k * rows.min(NT_MR), |pack| {
        let (a, out) = nt_tiles::<NT_MR>(a_blk, b, out_blk, k, n, pack);
        let (a, out) = nt_tiles::<8>(a, b, out, k, n, pack);
        let (a, out) = nt_tiles::<4>(a, b, out, k, n, pack);
        nt_tiles::<1>(a, b, out, k, n, pack);
    });
}

/// Tallest row strip of [`block_nn`] (then 4, then 1).
const NN_MR: usize = 8;

/// Rows per parallel block: oversubscribe 4× the pool width so uneven
/// sparsity self-balances through the atomic index, rounded up to whole
/// `strip`-row register tiles — a block shorter than the tile would run
/// on the narrow leftover tiles only. Blocks stay whole rows, so the
/// split cannot move a bit.
fn rows_per_block(m: usize, strip: usize) -> usize {
    let nblocks = (rayon::current_num_threads() * 4).clamp(1, m);
    m.div_ceil(nblocks).next_multiple_of(strip)
}

/// Column-block width for the `m == 1` split.
fn cols_per_block(n: usize) -> usize {
    let nblocks = (rayon::current_num_threads() * 4).clamp(1, n);
    n.div_ceil(nblocks).max(16).min(n)
}

// ---------------------------------------------------------------------------
// Slice-level GEMM entry points (caller-owned outputs; no allocation).
// ---------------------------------------------------------------------------

/// `out += A · B` for row-major slices: `(m×k) · (k×n)` accumulated into
/// `out` (length `m·n`; pass zeroed scratch for a plain product).
/// Bit-identical to the seed ikj kernel for every element.
pub fn gemm_nn_into(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    assert_eq!(a.len(), m * k, "lhs length mismatch");
    assert_eq!(b.len(), k * n, "rhs length mismatch");
    assert_eq!(out.len(), m * n, "out length mismatch");
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    if m == 1 {
        if k * n >= PAR_THRESHOLD && n > 1 {
            let cb = cols_per_block(n);
            // One row has no `B` panel to reuse, so no k-blocking: the
            // taps run in one ascending pass per column block.
            out.par_chunks_mut(cb)
                .enumerate()
                .for_each(|(ci, o)| saxpy_panel(a, b, n, 0, k, ci * cb, o));
        } else {
            block_nn(a, b, out, k, n);
        }
        return;
    }
    if m * n >= PAR_THRESHOLD {
        let rb = rows_per_block(m, NN_MR);
        out.par_chunks_mut(rb * n)
            .zip(a.par_chunks(rb * k))
            .for_each(|(oc, ac)| block_nn(ac, b, oc, k, n));
    } else {
        block_nn(a, b, out, k, n);
    }
}

/// `out = A · Bᵀ` for row-major slices: `(m×k) · (n×k)ᵀ`, overwriting
/// `out`. Single-accumulator row dots — the seed's exact chain.
pub fn gemm_nt_into(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    assert_eq!(a.len(), m * k, "lhs length mismatch");
    assert_eq!(b.len(), n * k, "rhs length mismatch");
    assert_eq!(out.len(), m * n, "out length mismatch");
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        // Empty dots: `f32::sum()` of nothing is `-0.0`.
        out.fill(-0.0);
        return;
    }
    if m == 1 {
        if n * k >= PAR_THRESHOLD && n > 1 {
            let cb = cols_per_block(n);
            out.par_chunks_mut(cb)
                .zip(b.par_chunks(cb * k))
                .for_each(|(oc, bc)| block_nt(a, bc, oc, k, oc.len()));
        } else {
            block_nt(a, b, out, k, n);
        }
        return;
    }
    if m * n >= PAR_THRESHOLD {
        let rb = rows_per_block(m, NT_MR);
        out.par_chunks_mut(rb * n)
            .zip(a.par_chunks(rb * k))
            .for_each(|(oc, ac)| block_nt(ac, b, oc, k, n));
    } else {
        block_nt(a, b, out, k, n);
    }
}

thread_local! {
    /// Packing scratch: the Aᵀ panel of ad-hoc `matmul_tn` calls and the
    /// tap-major row tile of `block_nt`. Thread-local so the buffer is
    /// reused across calls (allocation traffic is bounded by the pool
    /// width, not the step count); batch-reusable packing goes through
    /// [`PackedT`] instead.
    static PACK: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// Lends `f` the first `len` elements of this thread's [`PACK`] buffer
/// (contents unspecified), growing it if needed. Not re-entrant: `f`
/// must not reach another `with_pack` on the same thread.
fn with_pack<R>(len: usize, f: impl FnOnce(&mut [f32]) -> R) -> R {
    PACK.with(|cell| {
        let mut buf = cell.borrow_mut();
        if buf.len() < len {
            buf.resize(len, 0.0);
        }
        f(&mut buf[..len])
    })
}

/// Transposes `a` (`k×m`, row-major) into `at` (`m×k`).
fn pack_transpose(k: usize, m: usize, a: &[f32], at: &mut [f32]) {
    for kk in 0..k {
        let src = &a[kk * m..(kk + 1) * m];
        for (i, &v) in src.iter().enumerate() {
            at[i * k + kk] = v;
        }
    }
}

/// `out += Aᵀ · B` for row-major slices: `(k×m)ᵀ · (k×n)` accumulated
/// into `out`. For `m > 1` the transpose is materialised into a
/// thread-local panel (values are copied, not recombined, so every
/// element's accumulation chain is unchanged); `m == 1` is already
/// contiguous and runs the nn kernel directly, and `n == 1` needs no
/// transpose (`tn_col`).
pub fn gemm_tn_into(k: usize, m: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    assert_eq!(a.len(), k * m, "lhs length mismatch");
    assert_eq!(b.len(), k * n, "rhs length mismatch");
    assert_eq!(out.len(), m * n, "out length mismatch");
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    if m == 1 {
        // (k×1)ᵀ is the same bytes as (1×k).
        gemm_nn_into(1, k, n, a, b, out);
        return;
    }
    if n == 1 {
        return tn_col(a, b, out);
    }
    with_pack(m * k, |at| {
        pack_transpose(k, m, a, at);
        gemm_nn_into(m, k, n, at, b, out);
    });
}

/// A lhs-transposed operand packed once and reused across many products
/// — e.g. the conv weight matrix `Wᵀ` shared by every sample of a batch.
/// Packing copies values without recombining them, so products through
/// a `PackedT` are bit-identical to [`matmul_tn`] on the original.
#[derive(Debug, Default, Clone)]
pub struct PackedT {
    data: Vec<f32>,
    m: usize,
    k: usize,
}

impl PackedT {
    pub fn new() -> PackedT {
        PackedT::default()
    }

    /// Packs the row-major `k×m` slice `a` as `Aᵀ` (`m×k`), reusing the
    /// existing buffer when large enough.
    pub fn pack_from(&mut self, k: usize, m: usize, a: &[f32]) {
        assert_eq!(a.len(), k * m, "operand length mismatch");
        if self.data.len() < m * k {
            self.data.resize(m * k, 0.0);
        }
        pack_transpose(k, m, a, &mut self.data[..m * k]);
        self.m = m;
        self.k = k;
    }

    /// `out += Aᵀ · B` with the packed operand: `(m×k) · (k×n)`.
    pub fn gemm_into(&self, b: &[f32], n: usize, out: &mut [f32]) {
        gemm_nn_into(self.m, self.k, n, &self.data[..self.m * self.k], b, out);
    }
}

// ---------------------------------------------------------------------------
// Tensor-level API (unchanged signatures).
// ---------------------------------------------------------------------------

/// `C = A · B` for 2-D tensors: `(m×k) · (k×n) → (m×n)`.
pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.ndim(), 2, "matmul lhs must be 2-D");
    assert_eq!(b.ndim(), 2, "matmul rhs must be 2-D");
    let (m, k) = (a.shape()[0], a.shape()[1]);
    let (k2, n) = (b.shape()[0], b.shape()[1]);
    assert_eq!(k, k2, "inner dimensions differ: {k} vs {k2}");
    let mut out = vec![0.0f32; m * n];
    gemm_nn_into(m, k, n, a.data(), b.data(), &mut out);
    Tensor::from_vec(out, &[m, n])
}

/// `C = Aᵀ · B` without materialising the transpose at the call site:
/// `(k×m)ᵀ · (k×n)`.
pub fn matmul_tn(a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.ndim(), 2);
    assert_eq!(b.ndim(), 2);
    let (k, m) = (a.shape()[0], a.shape()[1]);
    let (k2, n) = (b.shape()[0], b.shape()[1]);
    assert_eq!(k, k2, "inner dimensions differ: {k} vs {k2}");
    let mut out = vec![0.0f32; m * n];
    gemm_tn_into(k, m, n, a.data(), b.data(), &mut out);
    Tensor::from_vec(out, &[m, n])
}

/// `C = A · Bᵀ` without materialising the transpose: `(m×k) · (n×k)ᵀ`.
pub fn matmul_nt(a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.ndim(), 2);
    assert_eq!(b.ndim(), 2);
    let (m, k) = (a.shape()[0], a.shape()[1]);
    let (n, k2) = (b.shape()[0], b.shape()[1]);
    assert_eq!(k, k2, "inner dimensions differ: {k} vs {k2}");
    let mut out = vec![0.0f32; m * n];
    gemm_nt_into(m, k, n, a.data(), b.data(), &mut out);
    Tensor::from_vec(out, &[m, n])
}

pub mod reference {
    //! The seed ikj kernels, kept verbatim (serial form) as the
    //! bit-exactness oracle for the blocked kernels and the baseline the
    //! `BENCH_pr4.json` speedups are measured against. The
    //! `*_spawn_per_call` variants additionally reproduce the seed
    //! *shim*'s cost model — fresh scoped threads and per-batch item
    //! `Vec`s on every call — for pool-on-vs-seed comparisons.

    use crate::Tensor;

    /// Seed `matmul`: row-major ikj with structural-zero skip.
    pub fn matmul_ikj(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k) = (a.shape()[0], a.shape()[1]);
        let (k2, n) = (b.shape()[0], b.shape()[1]);
        assert_eq!(k, k2, "inner dimensions differ: {k} vs {k2}");
        let mut out = vec![0.0f32; m * n];
        let (a_data, b_data) = (a.data(), b.data());
        for (i, out_row) in out.chunks_mut(n.max(1)).enumerate() {
            row_ikj(&a_data[i * k..(i + 1) * k], b_data, out_row, n);
        }
        Tensor::from_vec(out, &[m, n])
    }

    fn row_ikj(a_row: &[f32], b_data: &[f32], out_row: &mut [f32], n: usize) {
        for (kk, &a_ik) in a_row.iter().enumerate() {
            // lint: allow(float-eq) -- sparsity fast path: skip exact structural zeros
            if a_ik == 0.0 {
                continue;
            }
            let b_row = &b_data[kk * n..(kk + 1) * n];
            for (o, &b_kj) in out_row.iter_mut().zip(b_row) {
                *o += a_ik * b_kj;
            }
        }
    }

    /// Seed `matmul_tn`: strided-lhs ikj with structural-zero skip.
    pub fn matmul_tn_ikj(a: &Tensor, b: &Tensor) -> Tensor {
        let (k, m) = (a.shape()[0], a.shape()[1]);
        let (k2, n) = (b.shape()[0], b.shape()[1]);
        assert_eq!(k, k2, "inner dimensions differ: {k} vs {k2}");
        let (a_data, b_data) = (a.data(), b.data());
        let mut out = vec![0.0f32; m * n];
        for (i, out_row) in out.chunks_mut(n.max(1)).enumerate() {
            for kk in 0..k {
                let a_ki = a_data[kk * m + i];
                // lint: allow(float-eq) -- sparsity fast path: skip exact structural zeros
                if a_ki == 0.0 {
                    continue;
                }
                let b_row = &b_data[kk * n..(kk + 1) * n];
                for (o, &b_kj) in out_row.iter_mut().zip(b_row) {
                    *o += a_ki * b_kj;
                }
            }
        }
        Tensor::from_vec(out, &[m, n])
    }

    /// Seed `matmul_nt`: sequential row dots.
    pub fn matmul_nt_dot(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k) = (a.shape()[0], a.shape()[1]);
        let (n, k2) = (b.shape()[0], b.shape()[1]);
        assert_eq!(k, k2, "inner dimensions differ: {k} vs {k2}");
        let (a_data, b_data) = (a.data(), b.data());
        let mut out = vec![0.0f32; m * n];
        for (i, out_row) in out.chunks_mut(n.max(1)).enumerate() {
            let a_row = &a_data[i * k..(i + 1) * k];
            for (j, o) in out_row.iter_mut().enumerate() {
                let b_row = &b_data[j * k..(j + 1) * k];
                *o = a_row.iter().zip(b_row).map(|(x, y)| x * y).sum();
            }
        }
        Tensor::from_vec(out, &[m, n])
    }

    /// Seed-shim cost model: one fresh scoped OS thread per row batch
    /// and per-batch index `Vec`s, exactly like the pre-pool rayon shim
    /// scheduled the seed kernel. Benchmark baseline only.
    pub fn matmul_ikj_spawn_per_call(a: &Tensor, b: &Tensor, threads: usize) -> Tensor {
        let (m, k) = (a.shape()[0], a.shape()[1]);
        let (k2, n) = (b.shape()[0], b.shape()[1]);
        assert_eq!(k, k2, "inner dimensions differ: {k} vs {k2}");
        let (a_data, b_data) = (a.data(), b.data());
        let mut out = vec![0.0f32; m * n];
        let threads = threads.clamp(1, m.max(1));
        let batch = m.div_ceil(threads).max(1);
        // The seed shim materialised the item list, then cloned one Vec
        // per batch; reproduce that allocation pattern.
        let rows: Vec<usize> = (0..m).collect();
        let batches: Vec<Vec<usize>> = rows.chunks(batch).map(|c| c.to_vec()).collect();
        std::thread::scope(|scope| {
            // Split the output into per-batch slices first, then spawn.
            let mut rest: &mut [f32] = &mut out;
            let mut joins = Vec::new();
            for rows in &batches {
                let (head, tail) = rest.split_at_mut(rows.len() * n);
                rest = tail;
                let h = scope.spawn(move || {
                    for (r, out_row) in rows.iter().zip(head.chunks_mut(n.max(1))) {
                        row_ikj(&a_data[r * k..(r + 1) * k], b_data, out_row, n);
                    }
                });
                joins.push(h);
            }
            for h in joins {
                if let Err(e) = h.join() {
                    std::panic::resume_unwind(e);
                }
            }
        });
        Tensor::from_vec(out, &[m, n])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Rng;

    fn naive(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k) = (a.shape()[0], a.shape()[1]);
        let n = b.shape()[1];
        let mut out = Tensor::zeros(&[m, n]);
        for i in 0..m {
            for j in 0..n {
                let mut s = 0.0;
                for kk in 0..k {
                    s += a.at(&[i, kk]) * b.at(&[kk, j]);
                }
                *out.at_mut(&[i, j]) = s;
            }
        }
        out
    }

    fn assert_close(a: &Tensor, b: &Tensor, tol: f32) {
        assert_eq!(a.shape(), b.shape());
        for (x, y) in a.data().iter().zip(b.data()) {
            assert!((x - y).abs() <= tol * (1.0 + x.abs()), "{x} vs {y}");
        }
    }

    fn assert_bits_equal(a: &Tensor, b: &Tensor, ctx: &str) {
        assert_eq!(a.shape(), b.shape(), "{ctx}: shape");
        for (i, (x, y)) in a.data().iter().zip(b.data()).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{ctx}: element {i}: {x:?} vs {y:?}"
            );
        }
    }

    /// Random tensor with exact structural zeros sprinkled in, to
    /// exercise the sparsity fast path (and signed zeros to catch a
    /// `+ 0.0·b` shortcut that the zero-skip must not take).
    fn sparse_tensor(r: &mut Rng, shape: &[usize]) -> Tensor {
        let mut t = r.normal_tensor(shape, 1.0);
        for (i, v) in t.data_mut().iter_mut().enumerate() {
            if i % 3 == 0 {
                *v = 0.0;
            } else if i % 7 == 0 {
                *v = -0.0;
            }
        }
        t
    }

    #[test]
    fn matmul_small_known() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let b = Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], &[2, 2]);
        let c = matmul(&a, &b);
        assert_eq!(c.data(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn identity_is_neutral() {
        let mut r = Rng::seed(1);
        let a = r.normal_tensor(&[7, 7], 1.0);
        assert_close(&matmul(&a, &Tensor::eye(7)), &a, 1e-6);
        assert_close(&matmul(&Tensor::eye(7), &a), &a, 1e-6);
    }

    #[test]
    fn matches_naive_on_random_rectangles() {
        let mut r = Rng::seed(2);
        for (m, k, n) in [(3, 5, 4), (1, 8, 1), (16, 3, 9), (70, 70, 70)] {
            let a = r.normal_tensor(&[m, k], 1.0);
            let b = r.normal_tensor(&[k, n], 1.0);
            assert_close(&matmul(&a, &b), &naive(&a, &b), 1e-4);
        }
    }

    #[test]
    fn parallel_path_matches_naive() {
        let mut r = Rng::seed(3);
        let a = r.normal_tensor(&[80, 90], 1.0);
        let b = r.normal_tensor(&[90, 100], 1.0); // 8000 elements > threshold
        assert_close(&matmul(&a, &b), &naive(&a, &b), 1e-4);
    }

    #[test]
    fn tn_and_nt_match_explicit_transposes() {
        let mut r = Rng::seed(4);
        let a = r.normal_tensor(&[6, 9], 1.0);
        let b = r.normal_tensor(&[6, 5], 1.0);
        assert_close(&matmul_tn(&a, &b), &matmul(&a.transpose(), &b), 1e-5);
        let c = r.normal_tensor(&[9, 6], 1.0);
        let d = r.normal_tensor(&[5, 6], 1.0);
        assert_close(&matmul_nt(&c, &d), &matmul(&c, &d.transpose()), 1e-5);
    }

    #[test]
    #[should_panic(expected = "inner dimensions differ")]
    fn dimension_mismatch_rejected() {
        let _ = matmul(&Tensor::zeros(&[2, 3]), &Tensor::zeros(&[4, 2]));
    }

    /// The headline contract: blocked/unrolled kernels are bit-identical
    /// to the seed ikj kernels, at shapes that are not multiples of the
    /// block sizes, at m∈{1,2}, at k=0, at the short-and-wide Dense and
    /// conv shapes whose pool split must keep whole row strips, and with
    /// structural zeros (±0.0) exercising the sparsity fast path. Pool
    /// on ≡ pool off.
    #[test]
    fn blocked_kernels_match_seed_bit_exactly() {
        for (m, strip) in [(1, 8), (4, 8), (16, 8), (17, 16), (240, 16), (1000, 8)] {
            let rb = rows_per_block(m, strip);
            assert!(rb > 0 && rb.is_multiple_of(strip), "m={m}: {rb}-row blocks");
        }
        let mut r = Rng::seed(77);
        for (m, k, n) in [
            (1, 1, 1),
            (1, 7, 130),
            (1, 300, 257),
            (2, 5, 129),
            (2, 150, 300),
            (3, 0, 4),
            (5, 130, 1),
            (33, 17, 65),
            (64, 64, 64),
            (70, 129, 131),
            (4, 256, 2048),
            (16, 144, 256),
            (17, 90, 256),
            (24, 32, 256),
        ] {
            let a = sparse_tensor(&mut r, &[m, k]);
            let b = sparse_tensor(&mut r, &[k, n]);
            let ctx = format!("nn {m}x{k}x{n}");
            let got = matmul(&a, &b);
            assert_bits_equal(&got, &reference::matmul_ikj(&a, &b), &ctx);
            assert_bits_equal(&got, &rayon::serial_scope(|| matmul(&a, &b)), &ctx);

            let at = sparse_tensor(&mut r, &[k, m]);
            let ctx = format!("tn {k}x{m}x{n}");
            let got = matmul_tn(&at, &b);
            assert_bits_equal(&got, &reference::matmul_tn_ikj(&at, &b), &ctx);
            assert_bits_equal(&got, &rayon::serial_scope(|| matmul_tn(&at, &b)), &ctx);

            let bt = sparse_tensor(&mut r, &[n, k]);
            let ctx = format!("nt {m}x{k}x{n}");
            assert_bits_equal(&matmul_nt(&a, &bt), &reference::matmul_nt_dot(&a, &bt), &ctx);
        }
    }

    /// The A·Bᵀ register tile at every tile edge: `m` straddling the
    /// 16/8/4/1 row tiles (240 also crosses the pool split), `n` the
    /// four-column step, `k` from empty to deeper than a conv `dW`. `nt`
    /// has no zero-skip, so non-finite values in *either* operand must
    /// poison exactly the elements the seed's chain poisons (`0·inf` is
    /// NaN, not skipped), and an empty dot is `-0.0`. Pool on ≡ pool off.
    ///
    /// Against the seed a NaN must meet a NaN, but not bit for bit: which
    /// operand's sign and payload an add of two NaNs keeps is the
    /// instruction's operand order, which the compiler is free to swap.
    #[test]
    fn nt_tile_edges_match_seed_bit_exactly() {
        fn assert_bits_equal_nan_blind(a: &Tensor, b: &Tensor, ctx: &str) {
            assert_eq!(a.shape(), b.shape(), "{ctx}: shape");
            for (i, (&x, &y)) in a.data().iter().zip(b.data()).enumerate() {
                let same = x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan());
                assert!(same, "{ctx}: element {i}: {x:?} vs {y:?}");
            }
        }
        const SPECIALS: [f32; 5] = [0.0, -0.0, f32::INFINITY, f32::NEG_INFINITY, f32::NAN];
        /// Overwrites a sparse, position-dependent subset with specials,
        /// leaving most dots finite so a wrong chain still shows.
        fn sprinkle(t: &mut Tensor, salt: usize) {
            for (i, v) in t.data_mut().iter_mut().enumerate() {
                let h = (i + salt).wrapping_mul(2_654_435_761) >> 7;
                if h.is_multiple_of(61) {
                    *v = SPECIALS[(h / 61) % SPECIALS.len()];
                }
            }
        }
        let mut r = Rng::seed(81);
        for m in [3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 33, 240] {
            for n in [1, 3, 4, 5, 10, 23, 144] {
                for k in [0, 1, 32, 37, 256] {
                    let mut a = sparse_tensor(&mut r, &[m, k]);
                    let mut b = sparse_tensor(&mut r, &[n, k]);
                    for pass in ["finite", "specials"] {
                        let ctx = format!("nt {m}x{k}x{n} {pass}");
                        let got = matmul_nt(&a, &b);
                        let want = reference::matmul_nt_dot(&a, &b);
                        assert_bits_equal_nan_blind(&got, &want, &ctx);
                        let off = rayon::serial_scope(|| matmul_nt(&a, &b));
                        assert_bits_equal(&got, &off, &format!("{ctx} pool off"));
                        let empty_dot = |v: &f32| v.to_bits() == (-0.0f32).to_bits();
                        assert!(k > 0 || got.data().iter().all(empty_dot), "{ctx}");
                        sprinkle(&mut a, m);
                        sprinkle(&mut b, n + 1000);
                    }
                }
            }
        }
    }

    /// The one-column and one-tap kernels against the seed: `nn` and `tn`
    /// with `n == 1` (zero-skip: a `0·inf` tap is skipped, not NaN), `nt`
    /// with `k == 1` (no skip: it is NaN), with `m` on both sides of the
    /// pool's row split and `k` from one tap to deeper than a strip.
    /// Signed zeros in a third of each operand, then NaN and `±inf`.
    /// Pool on ≡ pool off, and the `_into` forms continue the chain from
    /// what `out` already holds exactly as the general kernels do.
    #[test]
    fn one_column_and_one_tap_kernels_match_seed_bit_exactly() {
        fn same(x: &[f32], y: &[f32], ctx: &str) {
            assert_eq!(x.len(), y.len(), "{ctx}: length");
            for (i, (&a, &b)) in x.iter().zip(y).enumerate() {
                let same = a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan());
                assert!(same, "{ctx}: element {i}: {a:?} vs {b:?}");
            }
        }
        fn sprinkle(t: &mut Tensor, salt: usize) {
            const SPECIALS: [f32; 3] = [f32::INFINITY, f32::NEG_INFINITY, f32::NAN];
            for (i, v) in t.data_mut().iter_mut().enumerate() {
                let h = (i + salt).wrapping_mul(2_654_435_761) >> 7;
                if h.is_multiple_of(61) {
                    *v = SPECIALS[(h / 61) % SPECIALS.len()];
                }
            }
        }
        /// Both columns of the two-column `v`.
        fn twice(v: &[f32]) -> Vec<f32> {
            v.iter().flat_map(|&x| [x, x]).collect()
        }
        let mut r = Rng::seed(83);
        for m in [1, 2, 7, 8, 9, 33, 4096, 5000, 11520] {
            for k in [1, 2, 5, 32, 131] {
                // `tn` reduces over its rows: keep `Aᵀ` small when `m` is not.
                let (kt, mt) = (k.max(m.min(300)), m.min(300));
                let mut a = sparse_tensor(&mut r, &[m, k]);
                let mut col = sparse_tensor(&mut r, &[k, 1]);
                let mut at = sparse_tensor(&mut r, &[kt, mt]);
                let mut tall = sparse_tensor(&mut r, &[kt, 1]);
                let mut a1 = sparse_tensor(&mut r, &[m, 1]);
                let mut b1 = sparse_tensor(&mut r, &[k, 1]);
                let start = sparse_tensor(&mut r, &[m]);
                for pass in ["finite", "specials"] {
                    let ctx = format!("{m}x{k} {pass}");
                    let got = matmul(&a, &col);
                    let want = reference::matmul_ikj(&a, &col);
                    same(got.data(), want.data(), &format!("nn {ctx}"));
                    let off = rayon::serial_scope(|| matmul(&a, &col));
                    assert_bits_equal(&got, &off, &format!("nn {ctx} pool off"));

                    let got = matmul_tn(&at, &tall);
                    let want = reference::matmul_tn_ikj(&at, &tall);
                    same(got.data(), want.data(), &format!("tn {ctx}"));

                    let got = matmul_nt(&a1, &b1);
                    let want = reference::matmul_nt_dot(&a1, &b1);
                    same(got.data(), want.data(), &format!("nt {ctx}"));
                    let off = rayon::serial_scope(|| matmul_nt(&a1, &b1));
                    assert_bits_equal(&got, &off, &format!("nt {ctx} pool off"));

                    // `out +=`: against the product with `col` as both of
                    // two columns, which takes the strips.
                    let mut one = start.data().to_vec();
                    gemm_nn_into(m, k, 1, a.data(), col.data(), &mut one);
                    let mut two = twice(start.data());
                    gemm_nn_into(m, k, 2, a.data(), &twice(col.data()), &mut two);
                    same(&twice(&one), &two, &format!("nn into {ctx}"));
                    let mut one = start.data()[..mt].to_vec();
                    gemm_tn_into(kt, mt, 1, at.data(), tall.data(), &mut one);
                    let mut two = twice(&start.data()[..mt]);
                    gemm_tn_into(kt, mt, 2, at.data(), &twice(tall.data()), &mut two);
                    same(&twice(&one), &two, &format!("tn into {ctx}"));

                    for (salt, t) in [&mut a, &mut col, &mut at, &mut tall, &mut a1, &mut b1]
                        .into_iter()
                        .enumerate()
                    {
                        sprinkle(t, salt);
                    }
                }
            }
        }
    }

    /// The k-blocks and j-panels must not change a single bit: shapes one
    /// short of, on and one past the `KC` and `NC` edges (and two
    /// k-blocks deep) equal the seed kernel, pool on and off.
    #[test]
    fn blocking_params_are_bit_invariant() {
        let mut r = Rng::seed(78);
        for k in [KC - 1, KC, KC + 1, 2 * KC + 1] {
            for n in [NC - 1, NC, NC + 1] {
                let a = sparse_tensor(&mut r, &[9, k]);
                let b = sparse_tensor(&mut r, &[k, n]);
                let want = reference::matmul_ikj(&a, &b);
                let ctx = format!("9x{k}x{n}");
                assert_bits_equal(&matmul(&a, &b), &want, &ctx);
                let off = rayon::serial_scope(|| matmul(&a, &b));
                assert_bits_equal(&off, &want, &format!("{ctx} pool off"));
            }
        }
    }

    #[test]
    fn packed_tn_matches_unpacked_bit_exactly() {
        let mut r = Rng::seed(79);
        for (k, m, n) in [(8, 5, 9), (64, 33, 70), (3, 1, 40)] {
            let a = sparse_tensor(&mut r, &[k, m]);
            let b = sparse_tensor(&mut r, &[k, n]);
            let mut p = PackedT::new();
            p.pack_from(k, m, a.data());
            let mut out = vec![0.0f32; m * n];
            p.gemm_into(b.data(), n, &mut out);
            let packed = Tensor::from_vec(out, &[m, n]);
            assert_bits_equal(&packed, &matmul_tn(&a, &b), &format!("packed {k}x{m}x{n}"));
        }
    }

    #[test]
    fn spawn_per_call_baseline_matches_seed() {
        let mut r = Rng::seed(80);
        let a = sparse_tensor(&mut r, &[19, 23]);
        let b = sparse_tensor(&mut r, &[23, 31]);
        for threads in [1, 3, 8] {
            assert_bits_equal(
                &reference::matmul_ikj_spawn_per_call(&a, &b, threads),
                &reference::matmul_ikj(&a, &b),
                &format!("spawn t={threads}"),
            );
        }
    }
}
