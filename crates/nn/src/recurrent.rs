//! The row-block sweep shared by [`crate::Gru`] and [`crate::Lstm`].
//!
//! A recurrent timestep is independent per batch row; only the weight
//! gradients sum over rows. A layer pass is therefore three pool stages
//! whose items run their kernels inline ([`rayon::serial_scope`]):
//!
//! 1. **Forward**, over row blocks. A block copies its rows of the
//!    `(N, T, F)` input into the slab time-major, forms `X·W_g` for *all*
//!    its timesteps as one GEMM per gate straight into that gate's slab
//!    field, then walks `t` ascending: the [`Cell`] adds the recurrent
//!    product and the bias, applies the nonlinearity and blends the state
//!    in fused passes ([`gate`]); `h_t` goes to the `(N, T, H)` output.
//! 2. **Backward sweep**, the same blocks in descending `t`. The cell
//!    overwrites each gate's field with its pre-activation gradient
//!    `dA_g` in place and leaves the carry `∂L/∂h_{t−1}`; the block
//!    scatters `dx_t = Σ_g dA_g·W_gᵀ`.
//! 3. **Weight gradients**, over timesteps. Timestep `t` forms
//!    `X_tᵀ·dA_g`, `R_gᵀ·dA_g` (`R_g`: the rows gate `g`'s recurrent weight
//!    multiplied, [`Cell::REC`]) and the column sums of `dA_g` into its
//!    own staging row (`T × parameters` floats of scratch in all); the
//!    rows are then added into the [`Param`] gradients sequentially, in
//!    descending `t`.
//!
//! # Slab
//!
//! What forward leaves for backward: one buffer on the layer, reused
//! while the shape repeats. Blocks of `rb` whole rows (the last may be
//! short) tile it in row order, and a block of `rows` rows holds
//!
//! ```text
//! x      [t][row][F]     the block's input, time-major
//! field₀ [t][row][H]     gate 0: x·W₀ → activation → dA₀
//!   …                    one per gate, then the cell's state fields
//! ```
//!
//! so every kernel operand — all of a block's `x`, one field at one
//! timestep — is a contiguous row-major matrix.
//!
//! # Bit-exactness
//!
//! Results are `to_bits`-equal to the per-step layers (the `#[cfg(test)]`
//! oracles in `gru.rs`/`lstm.rs`) for any block size and pool width:
//!
//! * *Rows are independent.* A `tensor::matmul` kernel computes an output
//!   row from its own lhs row alone, in ascending `k`, so cutting the
//!   batch into blocks, or stacking a block's timesteps into one taller
//!   GEMM, moves no bit. Each product is accumulated from zero on its own
//!   and combined as `((x·W) + (h·U)) + b`.
//! * *The weight-gradient chain continues block by block.* A per-step
//!   `Xᵀ·dA` is one ascending-row chain per element from `0.0`;
//!   `gemm_tn_into` accumulates, so visiting the blocks in row order
//!   continues that chain.
//! * *Descending-`t` adds.* A timestep's product is complete before it
//!   meets the gradient, and the staging rows are added last timestep
//!   first, the order BPTT produced them in.

use crate::layer::Layer;
use crate::param::Param;
use rayon::prelude::*;
use tensor::matmul::{gemm_nn_into, gemm_nt_into, gemm_tn_into};
use tensor::scratch::Arena;
use tensor::Tensor;

/// The cell math a layer plugs into the sweep; block partition, slab
/// tiling, input-side GEMMs, `dx` and the ordered weight-gradient
/// reduction are shared.
pub(crate) trait Cell: Layer + Sync {
    /// Gates. `params()` lists their input weights `(F, H)`, then their
    /// recurrent weights `(H, H)`, then their biases `(H)`, each in gate
    /// order; gate `g` also owns slab field `g`.
    const GATES: usize;
    /// `H`-wide slab fields per row and timestep (the gates' first).
    const FIELDS: usize;
    /// `H`-wide scratch lanes per row that a block's time loop needs.
    const LANES: usize;
    /// Per gate, the slab field whose rows its recurrent weight multiplies.
    const REC: &'static [usize];

    /// The layer's slab and scratch.
    fn sweep(&mut self) -> &mut Sweep;
    /// Forward timestep. On entry gate field `g` holds `x_t·W_g` and lane
    /// 0 `h_{t−1}`; on exit the fields hold what [`Cell::step_back`]
    /// reads and lane 0 `h_t`. Lanes start at zero and carry over.
    fn step(&self, s: Step<'_>);
    /// Backward timestep. On entry lane 0 holds `∂L/∂h_t` (upstream plus
    /// carry); on exit gate field `g` holds `dA_g`, the [`Cell::REC`]
    /// fields are untouched and lane 0 holds the carry `∂L/∂h_{t−1}`.
    fn step_back(&self, s: Step<'_>);
}

/// One timestep of one row block, as a [`Cell`] sees it.
pub(crate) struct Step<'a> {
    rows: usize,
    t: usize,
    steps: usize,
    fields: &'a mut [f32],
    lanes: &'a mut [f32],
}

impl<'a> Step<'a> {
    /// This timestep's first `K` slab fields and the first `L` scratch
    /// lanes, each `rows × h`.
    pub(crate) fn split<const K: usize, const L: usize>(
        self,
        h: usize,
    ) -> ([&'a mut [f32]; K], [&'a mut [f32]; L]) {
        let m = self.rows * h;
        let fields = cut(self.fields, self.steps * m).map(|f| &mut f[self.t * m..][..m]);
        (fields, cut(self.lanes, m))
    }
}

/// The first `K` `len`-long lanes of `buf`.
fn cut<const K: usize>(buf: &mut [f32], len: usize) -> [&mut [f32]; K] {
    let mut rest = buf;
    std::array::from_fn(|_| {
        let (lane, tail) = std::mem::take(&mut rest).split_at_mut(len);
        rest = tail;
        lane
    })
}

/// Finishes one gate in place: `a ← act((a + src·U) + b)`, where `a`
/// holds `x·W` and the recurrent product is formed on its own in `hu`.
pub(crate) fn gate(
    src: &[f32],
    u: &Param,
    b: &Param,
    hu: &mut [f32],
    a: &mut [f32],
    act: impl Fn(f32) -> f32,
) {
    let h = b.numel();
    hu.fill(0.0);
    gemm_nn_into(a.len() / h, h, h, src, u.value.data(), hu);
    for (a_row, hu_row) in a.chunks_exact_mut(h).zip(hu.chunks_exact(h)) {
        for ((a, &p), &bias) in a_row.iter_mut().zip(hu_row).zip(b.value.data()) {
            *a = act((*a + p) + bias);
        }
    }
}

/// `out ← dA·Mᵀ` for `dA` of `M`'s column count per row.
pub(crate) fn nt(da: &[f32], m: &Param, out: &mut [f32]) {
    let (n, k) = (m.value.shape()[0], m.value.shape()[1]);
    gemm_nt_into(da.len() / k, k, n, da, m.value.data(), out);
}

/// `acc ← acc + dA·Mᵀ`, the product formed on its own in `tmp`.
pub(crate) fn add_nt(da: &[f32], m: &Param, acc: &mut [f32], tmp: &mut [f32]) {
    nt(da, m, tmp);
    add(acc, tmp);
}

fn add(acc: &mut [f32], v: &[f32]) {
    for (a, &x) in acc.iter_mut().zip(v) {
        *a += x;
    }
}

/// Tallest row strip of the `nn` GEMM kernel: blocks are whole strips.
/// Only hidden widths other than 1, 8, 32 and 64 run the 8-row strips;
/// those four (`icu_gru_p1`'s 32 among them) run `tensor::matmul`'s
/// register-resident row kernel, for which the block height is only the
/// pool split.
const STRIP: usize = 8;

/// A layer's slab and scratch.
#[derive(Clone, Default)]
pub(crate) struct Sweep {
    slab: Vec<f32>,
    scratch: Arena,
    /// `(n, t, rb)` of the forward whose slab is live.
    live: Option<(usize, usize, usize)>,
    /// Forces the block height (the block-size invariance test).
    #[cfg(test)]
    pub(crate) rows_per_block: Option<usize>,
}

impl Sweep {
    /// Rows per block: 4× the pool width in blocks, as the GEMM row split
    /// does, rounded up to whole kernel strips.
    fn rows_per_block(&self, n: usize) -> usize {
        #[cfg(test)]
        if let Some(rb) = self.rows_per_block {
            return rb;
        }
        let nblocks = (rayon::current_num_threads() * 4).clamp(1, n);
        n.div_ceil(nblocks).next_multiple_of(STRIP)
    }
}

/// Cuts `K` per-row buffers of `n > 0` rows into blocks of `rb` rows (the
/// last possibly short): `(first row, the block's share of each)`.
fn partition<const K: usize>(
    n: usize,
    rb: usize,
    bufs: [&mut [f32]; K],
) -> Vec<(usize, [&mut [f32]; K])> {
    let widths = bufs.each_ref().map(|b| b.len() / n);
    let mut rest = bufs;
    let blocks = (0..n).step_by(rb).map(|r0| {
        let rows = rb.min(n - r0);
        let share = std::array::from_fn(|i| {
            let (head, tail) = std::mem::take(&mut rest[i]).split_at_mut(rows * widths[i]);
            rest[i] = tail;
            head
        });
        (r0, share)
    });
    blocks.collect()
}

/// One pool stage over `items`, each item's kernels inline.
fn stage<T: Send>(items: Vec<T>, body: impl Fn(T) + Sync) {
    items
        .into_par_iter()
        .for_each(|item| rayon::serial_scope(|| body(item)));
}

/// `(F, H)` of a cell, read off its first input weight.
fn dims(cell: &impl Cell) -> (usize, usize) {
    let w = cell.params()[0].value.shape();
    (w[0], w[1])
}

/// Stage 1: `(N, T, F)` → the full hidden sequence `(N, T, H)`. The
/// cell's [`Sweep`] is moved out for the call, so the stage can share the
/// whole cell across the pool.
pub(crate) fn forward<C: Cell>(cell: &mut C, input: &Tensor) -> Tensor {
    let mut sw = std::mem::take(cell.sweep());
    let (n, t) = (input.shape()[0], input.shape()[1]);
    let (f, h) = dims(cell);
    let mut out = vec![0.0f32; n * t * h];
    let rb = sw.rows_per_block(n.max(1));
    sw.live = Some((n, t, rb));
    if !out.is_empty() {
        let slab_len = n * t * (f + C::FIELDS * h);
        if sw.slab.len() < slab_len {
            sw.slab.resize(slab_len, 0.0);
        }
        let lanes = sw.scratch.frame(n * C::LANES * h).take(n * C::LANES * h);
        let (w, x_all, shared) = (cell.params(), input.data(), &*cell);
        let blocks = partition(n, rb, [&mut sw.slab[..slab_len], lanes, &mut out[..]]);
        stage(blocks, |(r0, [slab, lanes, y])| {
            let rows = rb.min(n - r0);
            let m = rows * h;
            let (x, fields) = slab.split_at_mut(t * rows * f);
            let x_in = &x_all[r0 * t * f..][..rows * t * f];
            for r in 0..rows {
                for tt in 0..t {
                    x[(tt * rows + r) * f..][..f].copy_from_slice(&x_in[(r * t + tt) * f..][..f]);
                }
            }
            for (g, xw) in fields.chunks_exact_mut(t * m).take(C::GATES).enumerate() {
                xw.fill(0.0);
                gemm_nn_into(t * rows, f, h, x, w[g].value.data(), xw);
            }
            for tt in 0..t {
                shared.step(Step {
                    rows,
                    t: tt,
                    steps: t,
                    fields: &mut *fields,
                    lanes: &mut *lanes,
                });
                for (r, h_row) in lanes[..m].chunks_exact(h).enumerate() {
                    y[(r * t + tt) * h..][..h].copy_from_slice(h_row);
                }
            }
        });
    }
    *cell.sweep() = sw;
    Tensor::from_vec(out, &[n, t, h])
}

/// Stages 2 and 3: accumulates the parameter gradients and returns `dx`.
/// Consumes the slab: a second `backward` needs a new [`forward`].
pub(crate) fn backward<C: Cell>(cell: &mut C, grad_out: &Tensor) -> Tensor {
    let (f, h) = dims(cell);
    // lint: allow(unwrap) -- layer API contract: backward requires a prior forward
    let (n, t, rb) = cell.sweep().live.expect("backward before forward");
    assert_eq!(grad_out.shape(), &[n, t, h]);
    let mut sw = std::mem::take(cell.sweep());
    sw.live = None;
    let mut dx = vec![0.0f32; n * t * f];
    if n * t * h > 0 {
        let slab_row = t * (f + C::FIELDS * h);
        let lane_row = C::LANES * h + 2 * f;
        let staged = C::GATES * (f * h + h * h + h);
        let mut frame = sw.scratch.frame(n * lane_row + t * staged);
        let (scratch, staging) = (frame.take(n * lane_row), frame.take(t * staged));
        let slab = &mut sw.slab[..n * slab_row];
        let (w, g_all, shared) = (cell.params(), grad_out.data(), &*cell);
        let blocks = partition(n, rb, [&mut *slab, scratch, &mut dx[..]]);
        stage(blocks, |(r0, [slab, scratch, dx])| {
            let rows = rb.min(n - r0);
            let m = rows * h;
            let fields = &mut slab[t * rows * f..];
            let (lanes, io) = scratch.split_at_mut(C::LANES * m);
            let (dx_t, tmp) = io.split_at_mut(rows * f);
            let g_in = &g_all[r0 * t * h..][..rows * t * h];
            for tt in (0..t).rev() {
                for (r, dh) in lanes[..m].chunks_exact_mut(h).enumerate() {
                    for (d, &g) in dh.iter_mut().zip(&g_in[(r * t + tt) * h..][..h]) {
                        let carry = *d;
                        *d = g + carry;
                    }
                }
                shared.step_back(Step {
                    rows,
                    t: tt,
                    steps: t,
                    fields: &mut *fields,
                    lanes: &mut *lanes,
                });
                for g in 0..C::GATES {
                    let da = &fields[(g * t + tt) * m..][..m];
                    if g == 0 {
                        nt(da, w[g], dx_t);
                    } else {
                        add_nt(da, w[g], dx_t, tmp);
                    }
                }
                for r in 0..rows {
                    dx[(r * t + tt) * f..][..f].copy_from_slice(&dx_t[r * f..][..f]);
                }
            }
        });

        // A staging row lays the gradients out as `params()` lists them.
        let slab = &*slab;
        let timesteps = staging.chunks_mut(staged).enumerate().collect();
        stage(timesteps, |(tt, st): (usize, &mut [f32])| {
            for r0 in (0..n).step_by(rb) {
                let rows = rb.min(n - r0);
                let (x, fields) = slab[r0 * slab_row..][..rows * slab_row].split_at(t * rows * f);
                let x_t = &x[tt * rows * f..][..rows * f];
                let at = |k: usize| &fields[(k * t + tt) * rows * h..][..rows * h];
                let mut rest = &mut *st;
                for (k, p) in w.iter().enumerate() {
                    let (d, tail) = rest.split_at_mut(p.numel());
                    let g = k % C::GATES;
                    match k / C::GATES {
                        0 => gemm_tn_into(rows, f, h, x_t, at(g), d),
                        1 => gemm_tn_into(rows, h, h, at(C::REC[g]), at(g), d),
                        _ => at(g).chunks_exact(h).for_each(|row| add(d, row)),
                    }
                    rest = tail;
                }
            }
        });
        for st in staging.chunks(staged).rev() {
            let mut rest = st;
            for p in cell.params_mut() {
                let (d, tail) = rest.split_at(p.numel());
                add(p.grad_mut().data_mut(), d);
                rest = tail;
            }
        }
    }
    *cell.sweep() = sw;
    Tensor::from_vec(dx, &[n, t, f])
}

#[cfg(test)]
pub(crate) mod testing {
    //! The sweep against the per-step layers it replaced, generic over
    //! the layer; `gru.rs` and `lstm.rs` instantiate it.

    use super::*;
    use tensor::Rng;

    /// The host libm's logistic function: the per-step oracles stay on
    /// the host (`f32::exp`, `f32::tanh`), so comparing the sweep with
    /// them also checks `tensor::math` against libm.
    pub(crate) fn host_sigmoid(x: f32) -> f32 {
        1.0 / (1.0 + (-x).exp())
    }

    /// `(n, t, f, h)`: the benchmark's two GRU layers, then shapes on
    /// every side of the 8-row strip, the block split and `T = 1`, and
    /// the empty batch and empty sequence, which reach no stage.
    const SHAPES: [(usize, usize, usize, usize); 11] = [
        (240, 48, 10, 32),
        (240, 48, 32, 32),
        (1, 5, 3, 4),
        (3, 11, 5, 7),
        (17, 9, 6, 33),
        (32, 24, 6, 32),
        (7, 1, 2, 5),
        (64, 3, 1, 1),
        (100, 13, 12, 20),
        (0, 5, 3, 4),
        (3, 0, 3, 4),
    ];

    const SPECIALS: [f32; 5] = [0.0, -0.0, f32::INFINITY, f32::NEG_INFINITY, f32::NAN];

    /// Input flavours `(name, kinds, every)` for [`sprinkle`]: finite; zeros
    /// dense enough to break up a kernel's 4-tap bundles; non-finite values
    /// sparse enough that most rows stay finite.
    pub(crate) const FLAVOURS: [(&str, usize, usize); 3] =
        [("finite", 0, 1), ("zeros", 2, 5), ("specials", 5, 401)];

    /// Overwrites a position-dependent one in `every` elements of `t`
    /// with the first `kinds` of [`SPECIALS`] (2: signed zeros only).
    pub(crate) fn sprinkle(t: &mut Tensor, salt: usize, kinds: usize, every: usize) {
        for (i, v) in t.data_mut().iter_mut().enumerate() {
            let h = (i + salt).wrapping_mul(2_654_435_761) >> 7;
            if kinds > 0 && h.is_multiple_of(every) {
                *v = SPECIALS[(h / every) % kinds];
            }
        }
    }

    /// `to_bits` equality, except that a NaN need only meet a NaN: which
    /// operand's sign and payload an add of two NaNs keeps is the
    /// compiler's choice per kernel strip, as in `tensor::matmul`'s tests.
    pub(crate) fn assert_same(got: &[Tensor], want: &[Tensor], ctx: &str) {
        assert_eq!(got.len(), want.len(), "{ctx}");
        for (k, (a, b)) in got.iter().zip(want).enumerate() {
            assert_eq!(a.shape(), b.shape(), "{ctx}: tensor {k} shape");
            for (i, (&x, &y)) in a.data().iter().zip(b.data()).enumerate() {
                let same = x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan());
                assert!(same, "{ctx}: tensor {k} element {i}: {x:?} vs {y:?}");
            }
        }
    }

    /// `oracle` is one forward/backward pass, `(x, grad_out)` → `(y, dx)`,
    /// of the per-step implementation `L` keeps for tests.
    pub(crate) fn sweep_matches_oracle<L: Cell>(
        new: fn(usize, usize, &mut Rng) -> L,
        oracle: impl Fn(&mut L, &Tensor, &Tensor) -> (Tensor, Tensor),
    ) {
        let _ = rayon::init_with_threads(4);
        let mut rng = Rng::seed(19);
        for (n, t, f, h) in SHAPES {
            for (flavour, kinds, every) in FLAVOURS {
                let io = [1, 2].map(|salt| {
                    let mut x = rng.normal_tensor(&[n, t, f], 1.0);
                    let mut g = rng.normal_tensor(&[n, t, h], 1.0);
                    sprinkle(&mut x, salt, kinds, every);
                    sprinkle(&mut g, salt + 500, kinds.min(2), every);
                    (x, g)
                });
                // Outputs, `dx` and every parameter gradient after each of
                // two consecutive passes with no `zero_grad` between them,
                // so the order gradients accumulate in shows.
                let two_passes = |pass: &dyn Fn(&mut L, &Tensor, &Tensor) -> (Tensor, Tensor)| {
                    let mut layer = new(f, h, &mut Rng::seed(7));
                    let mut seen = Vec::new();
                    for (x, g) in &io {
                        let (y, dx) = pass(&mut layer, x, g);
                        seen.extend([y, dx]);
                        seen.extend(layer.params().iter().map(|p| p.grad().clone()));
                    }
                    seen
                };
                let sweep = |rb: Option<usize>| {
                    two_passes(&|l, x, g| {
                        l.sweep().rows_per_block = rb;
                        let y = l.forward(x, true);
                        (y, l.backward(g))
                    })
                };
                let ctx = format!("{n}x{t}x{f}x{h} {flavour}");
                let got = sweep(None);
                assert_same(&got, &two_passes(&oracle), &ctx);
                let off = rayon::serial_scope(|| sweep(None));
                assert_same(&off, &got, &format!("{ctx} pool off"));
                for rb in [1, 3, 8, 32, n] {
                    assert_same(&sweep(Some(rb)), &got, &format!("{ctx} rb={rb}"));
                }
            }
        }
    }
}
