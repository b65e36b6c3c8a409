//! Optimisers: SGD with momentum/weight-decay and Adam (the paper's
//! §IV-B setting: Adam, lr = 1e-4).
//!
//! Both updates are element-wise, so stepping each part of a split of
//! the parameters' flat range gives the bits of one whole step: a
//! data-parallel rank steps only its shard, and keeps state (velocity,
//! moments) in flat buffers over that range alone.

use crate::param::{pieces, Param};
use crate::serialize::SnapshotError;
use crate::STREAM_BLOCK;
use rayon::prelude::*;
use std::ops::Range;

/// An optimiser updates parameters in place from their accumulated
/// gradients (and then the caller zeroes the gradients).
pub trait Optimizer {
    /// Applies one update step to every parameter in `params`.
    fn step(&mut self, params: &mut [&mut Param]);

    /// Steps only the flat range `owned` of `params`, reading its
    /// gradient from `grads` (`owned.len()` scalars) instead of the
    /// parameters' accumulators. The state then covers `owned` alone:
    /// fresh state is bound to it and loaded state narrowed to it.
    fn step_with_grads(&mut self, params: &mut [&mut Param], owned: Range<usize>, grads: &[f32]);

    /// Current learning rate.
    fn lr(&self) -> f32;

    /// Overrides the learning rate (for warmup / scaling schedules).
    fn set_lr(&mut self, lr: f32);

    /// The state of the range this optimiser steps, in
    /// [`Optimizer::state`]'s layout: `(head words, one buffer per
    /// element-wise state)`, with no buffers before a step or a load.
    fn shard_state(&self) -> (Vec<f32>, Vec<&[f32]>);

    /// Serialises the optimiser's internal state (momentum buffers,
    /// moments, step counters) as a flat `f32` vector. Non-float fields
    /// (e.g. Adam's step counter `t`) are stored as raw bit patterns via
    /// [`u64_to_words`], so the round trip through [`Optimizer::load_state`]
    /// is bit-exact. An optimiser that has not stepped yet returns the
    /// state it would resume from (empty for a fresh instance).
    fn state(&self) -> Vec<f32> {
        let (head, parts) = self.shard_state();
        head.iter().chain(parts.into_iter().flatten()).copied().collect()
    }

    /// Restores state captured by [`Optimizer::state`], binding its
    /// buffers to all of `params` (the set later steps update). An
    /// empty slice resets to fresh state; a length these parameters cannot
    /// hold — another optimiser's state, or another model's — is
    /// [`SnapshotError::ShapeMismatch`] and leaves `self` untouched.
    fn load_state(&mut self, params: &[&Param], state: &[f32]) -> Result<(), SnapshotError>;
}

/// `Ok` when `state` has one of the lengths in `lens`, the last being
/// that of a full state.
fn check_len(lens: &[usize], state: &[f32]) -> Result<(), SnapshotError> {
    let (expected, found) = (lens[lens.len() - 1], state.len());
    let mismatch = SnapshotError::ShapeMismatch { expected, found };
    lens.contains(&found).then_some(()).ok_or(mismatch)
}

/// Packs a `u64` into two `f32` bit patterns (little-endian word order)
/// so integer state can ride inside float snapshot sections without
/// rounding. The inverse is [`words_to_u64`].
pub fn u64_to_words(x: u64) -> [f32; 2] {
    [f32::from_bits(x as u32), f32::from_bits((x >> 32) as u32)]
}

/// Recovers a `u64` packed by [`u64_to_words`].
pub fn words_to_u64(words: [f32; 2]) -> u64 {
    (words[0].to_bits() as u64) | ((words[1].to_bits() as u64) << 32)
}

/// `K` element-wise state buffers over one flat range of the parameters.
#[derive(Debug, Default)]
struct FlatState<const K: usize> {
    bound: Option<(Range<usize>, [Vec<f32>; K])>,
}

impl<const K: usize> FlatState<K> {
    /// The buffers over `owned`: zeroed on first use, else narrowed to
    /// `owned` from the range they hold.
    fn bind(&mut self, owned: &Range<usize>) -> &mut [Vec<f32>; K] {
        let fresh = || std::array::from_fn(|_| vec![0.0; owned.len()]);
        let (range, bufs) = self.bound.get_or_insert_with(|| (owned.clone(), fresh()));
        if range != owned {
            assert!(range.start <= owned.start && owned.end <= range.end, "param set changed");
            let part = owned.start - range.start..owned.end - range.start;
            bufs.iter_mut().for_each(|b| *b = b[part.clone()].to_vec());
            *range = owned.clone();
        }
        bufs
    }

    fn parts(&self) -> Vec<&[f32]> {
        self.bound.iter().flat_map(|(_, bufs)| bufs.iter().map(Vec::as_slice)).collect()
    }

    /// Binds `flat`, `K` equal buffers back to back, from 0 (none if empty).
    fn load(&mut self, flat: &[f32]) {
        let n = flat.len() / K;
        let part = |k: usize| flat[k * n..(k + 1) * n].to_vec();
        self.bound = (n > 0).then(|| (0..n, std::array::from_fn(part)));
    }

    /// Runs `f(w, g, state)` over the parts of `owned` that fall in one
    /// parameter each: its values, their gradient (from `grads`, which
    /// covers `owned`, else the parameter's accumulator) and the matching
    /// slices of the state buffers, bound to `owned`.
    fn sweep(
        &mut self,
        params: &mut [&mut Param],
        owned: Range<usize>,
        grads: Option<&[f32]>,
        mut f: impl FnMut(&mut [f32], &[f32], [&mut [f32]; K]),
    ) {
        assert!(grads.is_none_or(|g| g.len() == owned.len()), "flat gradient length mismatch");
        let (bufs, mut covered) = (self.bind(&owned), 0);
        for (p, part, at) in pieces(params.iter_mut().map(|p| &mut **p), owned.clone()) {
            let n = part.len();
            let (w, grad) = p.value_and_grad();
            let g = grads.map_or(&grad.data()[part.clone()], |g| &g[at..at + n]);
            f(&mut w.data_mut()[part], g, bufs.each_mut().map(|b| &mut b[at..at + n]));
            covered += n;
        }
        assert_eq!(covered, owned.len(), "owned range exceeds the parameters");
    }
}

/// Stochastic gradient descent with optional Nesterov-free momentum and
/// decoupled weight decay (SGDW, Loshchilov & Hutter): the decay term
/// `lr·wd·w` is applied directly to the weights and never enters the
/// momentum buffer, so decay strength does not compound through the
/// velocity the way coupled L2 regularisation does.
pub struct Sgd {
    lr: f32,
    momentum: f32,
    weight_decay: f32,
    velocity: FlatState<1>,
}

impl Sgd {
    pub fn new(lr: f32, momentum: f32, weight_decay: f32) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        assert!((0.0..1.0).contains(&momentum));
        Sgd {
            lr,
            momentum,
            weight_decay,
            velocity: FlatState::default(),
        }
    }

    fn sweep(&mut self, params: &mut [&mut Param], owned: Range<usize>, grads: Option<&[f32]>) {
        let (lr, mu, wd) = (self.lr, self.momentum, self.weight_decay);
        // Decoupled decay: shrink the weights outside the momentum path,
        // after the gradient step.
        let shrink = 1.0 - lr * wd;
        self.velocity.sweep(params, owned, grads, |w, g, [v]| {
            w.par_chunks_mut(STREAM_BLOCK)
                .zip(v.par_chunks_mut(STREAM_BLOCK))
                .zip(g.par_chunks(STREAM_BLOCK))
                .for_each(|((w, v), g)| {
                    for ((w, v), &g) in w.iter_mut().zip(v).zip(g) {
                        if mu > 0.0 {
                            *v *= mu;
                            *v += g;
                            *w += -lr * *v;
                        } else {
                            *w -= lr * g;
                        }
                        if wd > 0.0 {
                            *w *= shrink;
                        }
                    }
                });
        });
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, params: &mut [&mut Param]) {
        self.sweep(params, 0..params.iter().map(|p| p.numel()).sum(), None);
    }

    fn step_with_grads(&mut self, params: &mut [&mut Param], owned: Range<usize>, grads: &[f32]) {
        self.sweep(params, owned, Some(grads));
    }

    fn lr(&self) -> f32 {
        self.lr
    }

    fn set_lr(&mut self, lr: f32) {
        self.lr = lr;
    }

    fn shard_state(&self) -> (Vec<f32>, Vec<&[f32]>) {
        (Vec::new(), self.velocity.parts())
    }

    fn load_state(&mut self, params: &[&Param], state: &[f32]) -> Result<(), SnapshotError> {
        check_len(&[0, params.iter().map(|p| p.numel()).sum()], state)?;
        self.velocity.load(state);
        Ok(())
    }

}

/// Adam (Kingma & Ba) with bias correction.
///
/// A step is one sweep, `STREAM_BLOCK` blocks over the pool: `m`, `v` and
/// the weight are each read and written once. Elements are independent
/// and go through the expressions of the three-sweep step this replaced
/// (the `#[cfg(test)]` oracle below) in their order, so the result is
/// `to_bits`-equal for any block size, pool width and split into ranges.
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: u64,
    /// `m` then `v`.
    moments: FlatState<2>,
}

impl Adam {
    /// The paper's §IV-B configuration: `Adam::new(1e-4)`.
    pub fn new(lr: f32) -> Self {
        Self::with_betas(lr, 0.9, 0.999, 1e-8)
    }

    pub fn with_betas(lr: f32, beta1: f32, beta2: f32, eps: f32) -> Self {
        assert!(lr > 0.0);
        Adam {
            lr,
            beta1,
            beta2,
            eps,
            t: 0,
            moments: FlatState::default(),
        }
    }

    fn sweep(&mut self, params: &mut [&mut Param], owned: Range<usize>, grads: Option<&[f32]>) {
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        let (b1, b2, eps, lr) = (self.beta1, self.beta2, self.eps, self.lr);
        self.moments.sweep(params, owned, grads, |w, g, [m, v]| {
            w.par_chunks_mut(STREAM_BLOCK)
                .zip(m.par_chunks_mut(STREAM_BLOCK))
                .zip(v.par_chunks_mut(STREAM_BLOCK))
                .zip(g.par_chunks(STREAM_BLOCK))
                .for_each(|(((w, m), v), g)| {
                    for (((w, mm), vv), &g) in w.iter_mut().zip(m).zip(v).zip(g) {
                        *mm = b1 * *mm + (1.0 - b1) * g;
                        *vv = b2 * *vv + (1.0 - b2) * g * g;
                        let mhat = *mm / bc1;
                        let vhat = *vv / bc2;
                        *w -= lr * mhat / (vhat.sqrt() + eps);
                    }
                });
        });
    }
}

impl Optimizer for Adam {
    fn step(&mut self, params: &mut [&mut Param]) {
        self.sweep(params, 0..params.iter().map(|p| p.numel()).sum(), None);
    }

    fn step_with_grads(&mut self, params: &mut [&mut Param], owned: Range<usize>, grads: &[f32]) {
        self.sweep(params, owned, Some(grads));
    }

    fn lr(&self) -> f32 {
        self.lr
    }

    fn set_lr(&mut self, lr: f32) {
        self.lr = lr;
    }

    fn shard_state(&self) -> (Vec<f32>, Vec<&[f32]>) {
        // Layout: [t (2 bit-pattern words)] ++ m ++ v.
        (u64_to_words(self.t).to_vec(), self.moments.parts())
    }

    fn load_state(&mut self, params: &[&Param], state: &[f32]) -> Result<(), SnapshotError> {
        // Empty is a fresh optimiser; the step counter alone, one that
        // never stepped.
        let n: usize = params.iter().map(|p| p.numel()).sum();
        check_len(&[0, 2, 2 + 2 * n], state)?;
        self.t = state.get(..2).map_or(0, |w| words_to_u64([w[0], w[1]]));
        self.moments.load(state.get(2..).unwrap_or_default());
        Ok(())
    }

}

#[cfg(test)]
mod tests {
    use super::*;
    use tensor::Tensor;

    /// Minimise f(w) = (w − 3)² with the given optimiser; returns final w.
    fn minimise(opt: &mut dyn Optimizer, steps: usize) -> f32 {
        let mut p = Param::new(Tensor::zeros(&[1]));
        for _ in 0..steps {
            let w = p.value.data()[0];
            p.grad_mut().data_mut()[0] = 2.0 * (w - 3.0);
            opt.step(&mut [&mut p]);
            p.zero_grad();
        }
        p.value.data()[0]
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let mut opt = Sgd::new(0.1, 0.0, 0.0);
        let w = minimise(&mut opt, 100);
        assert!((w - 3.0).abs() < 1e-4, "w = {w}");
    }

    #[test]
    fn sgd_momentum_converges() {
        let mut opt = Sgd::new(0.05, 0.9, 0.0);
        let w = minimise(&mut opt, 200);
        assert!((w - 3.0).abs() < 1e-3, "w = {w}");
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut opt = Adam::new(0.1);
        let w = minimise(&mut opt, 500);
        assert!((w - 3.0).abs() < 1e-2, "w = {w}");
    }

    #[test]
    fn weight_decay_shrinks_weights_without_gradient() {
        let mut opt = Sgd::new(0.1, 0.0, 0.5);
        let mut p = Param::new(Tensor::full(&[1], 10.0));
        for _ in 0..10 {
            p.zero_grad();
            opt.step(&mut [&mut p]);
        }
        let w = p.value.data()[0];
        assert!(w < 10.0 && w > 0.0, "decay should shrink toward 0: {w}");
    }

    #[test]
    fn set_lr_takes_effect() {
        let mut opt = Sgd::new(1.0, 0.0, 0.0);
        opt.set_lr(0.0001);
        assert_eq!(opt.lr(), 0.0001);
        let mut p = Param::new(Tensor::zeros(&[1]));
        p.grad_mut().data_mut()[0] = 1.0;
        opt.step(&mut [&mut p]);
        assert!((p.value.data()[0] + 0.0001).abs() < 1e-9);
    }

    #[test]
    fn weight_decay_is_decoupled_from_momentum() {
        // Decoupled (SGDW): the decay never enters the velocity buffer.
        // Replay both the decoupled and the coupled-L2 recurrences by
        // hand and check the optimiser follows the former, not the
        // latter (they diverge from step 2 once momentum has memory).
        let (lr, mu, wd) = (0.1f32, 0.9f32, 0.5f32);
        let grad = 1.0f32;
        let mut opt = Sgd::new(lr, mu, wd);
        let mut p = Param::new(Tensor::full(&[1], 2.0));

        let mut w_dec = 2.0f32; // decoupled reference
        let mut v_dec = 0.0f32;
        let mut w_cpl = 2.0f32; // coupled-L2 reference
        let mut v_cpl = 0.0f32;
        for _ in 0..5 {
            p.grad_mut().data_mut()[0] = grad;
            opt.step(&mut [&mut p]);
            p.zero_grad();

            v_dec = mu * v_dec + grad;
            w_dec += -lr * v_dec;
            w_dec *= 1.0 - lr * wd;

            v_cpl = mu * v_cpl + (grad + wd * w_cpl);
            w_cpl += -lr * v_cpl;
        }
        let w = p.value.data()[0];
        assert_eq!(w, w_dec, "optimiser should follow the decoupled path");
        assert!(
            (w - w_cpl).abs() > 1e-3,
            "decoupled and coupled-L2 must be distinguishable: {w} vs {w_cpl}"
        );
    }

    #[test]
    fn decay_without_gradient_leaves_velocity_untouched() {
        // Pure decay under momentum: the weights shrink geometrically and
        // the velocity (= the whole optimiser state) stays zero.
        let mut opt = Sgd::new(0.1, 0.9, 0.5);
        let mut p = Param::new(Tensor::full(&[1], 8.0));
        for _ in 0..10 {
            p.zero_grad();
            opt.step(&mut [&mut p]);
        }
        let mut expected = 8.0f32;
        for _ in 0..10 {
            expected *= 1.0 - 0.1 * 0.5;
        }
        assert_eq!(p.value.data()[0], expected);
        assert!(opt.state().iter().all(|&v| v == 0.0), "velocity polluted");
    }

    /// The three-sweep Adam update this module shipped before the
    /// one-sweep rewrite, verbatim, over its per-tensor moments.
    fn seed_adam_step(opt: &mut Adam, mv: &mut [(Tensor, Tensor)], params: &mut [&mut Param]) {
        opt.t += 1;
        let bc1 = 1.0 - opt.beta1.powi(opt.t as i32);
        let bc2 = 1.0 - opt.beta2.powi(opt.t as i32);
        let (b1, b2, eps, lr) = (opt.beta1, opt.beta2, opt.eps, opt.lr);

        for (p, (m, v)) in params.iter_mut().zip(mv) {
            m.zip_inplace(p.grad(), |mm, g| b1 * mm + (1.0 - b1) * g);
            v.zip_inplace(p.grad(), |vv, g| b2 * vv + (1.0 - b2) * g * g);
            for ((w, &mm), &vv) in p.value.data_mut().iter_mut().zip(m.data()).zip(v.data()) {
                let mhat = mm / bc1;
                let vhat = vv / bc2;
                *w -= lr * mhat / (vhat.sqrt() + eps);
            }
        }
    }

    /// Weights and optimiser state after each of four steps, to the bit:
    /// one-sweep ≡ three-sweep and pool-on ≡ `serial_scope`, on parameter
    /// sizes around one and two [`STREAM_BLOCK`]s, one element and empty,
    /// with `±0.0` gradients and then NaN/`±inf` mixed in.
    #[test]
    fn adam_matches_the_three_sweep_step() {
        use crate::recurrent::testing::{assert_same, sprinkle, FLAVOURS};
        use tensor::Rng;
        let _ = rayon::init_with_threads(4);
        let sizes = [2 * STREAM_BLOCK + 17, STREAM_BLOCK, 300, 1, 0];
        for (flavour, kinds, every) in FLAVOURS {
            let run = |oracle: bool| {
                let mut rng = Rng::seed(31);
                let mut params: Vec<Param> = sizes
                    .iter()
                    .map(|&n| Param::new(rng.normal_tensor(&[n], 1.0)))
                    .collect();
                let mut opt = Adam::new(0.01);
                let zeros = |p: &Param| Tensor::zeros(p.value.shape());
                let mut mv: Vec<_> = params.iter().map(|p| (zeros(p), zeros(p))).collect();
                let mut seen = Vec::new();
                for t in 0..4 {
                    for p in &mut params {
                        *p.grad_mut() = rng.normal_tensor(p.value.shape(), 1.0);
                        sprinkle(p.grad_mut(), t, kinds, every);
                    }
                    let mut refs: Vec<&mut Param> = params.iter_mut().collect();
                    let state = if oracle {
                        seed_adam_step(&mut opt, &mut mv, &mut refs);
                        let (m, v): (Vec<_>, Vec<_>) = mv.iter().cloned().unzip();
                        let flat = m.iter().chain(&v).flat_map(|t| t.data().to_vec());
                        u64_to_words(opt.t).into_iter().chain(flat).collect()
                    } else {
                        opt.step(&mut refs);
                        opt.state()
                    };
                    seen.extend(params.iter().map(|p| p.value.clone()));
                    seen.push(Tensor::from_vec(state.clone(), &[state.len()]));
                }
                seen
            };
            let got = run(false);
            assert_same(&got, &run(true), flavour);
            assert_same(
                &rayon::serial_scope(|| run(false)),
                &got,
                &format!("{flavour} pool off"),
            );
        }
    }

    /// Stepping the parts of a split of the parameters' flat range, each
    /// with its own optimiser and its slice of a flat gradient, ≡ one
    /// full `step` from the accumulators: weights after every step, and
    /// the shards' state laid back together ≡ `state()`, to the bit. The
    /// splits cut inside parameters and include empty parts; the shard
    /// runs poison the accumulators so only the flat gradient can be
    /// read. After two steps each shard reloads the full state and takes a
    /// third step over its own range, as a resumed trainer rank does.
    #[test]
    fn step_with_grads_matches_set_grads_then_step() {
        use crate::recurrent::testing::{assert_same, sprinkle, FLAVOURS};
        use tensor::Rng;
        let _ = rayon::init_with_threads(4);
        let sizes = [2 * STREAM_BLOCK + 17, 300, 1, 0, 40];
        let total: usize = sizes.iter().sum();
        let cuts = |points: &[usize]| -> Vec<Range<usize>> {
            let ends: Vec<usize> = points.iter().copied().chain([total]).collect();
            let starts = [0].into_iter().chain(points.iter().copied());
            starts.zip(ends).map(|(a, b)| a..b).collect()
        };
        let splits = [
            cuts(&[]),
            cuts(&[total / 2]),
            cuts(&[5, 5, STREAM_BLOCK + 3, total - 40, total - 1]),
            cuts(&[0, 2 * STREAM_BLOCK + 17, total]),
        ];
        type Make = fn() -> Box<dyn Optimizer>;
        let makers: [(&str, Make); 3] = [
            ("adam", || Box::new(Adam::new(0.01))),
            ("sgd", || Box::new(Sgd::new(0.05, 0.9, 0.01))),
            ("plain sgd", || Box::new(Sgd::new(0.05, 0.0, 0.0))),
        ];
        for ((name, make), (flavour, kinds, every)) in
            makers.iter().flat_map(|m| FLAVOURS.map(|f| (m, f)))
        {
            let run = |split: Option<&[Range<usize>]>| {
                let mut rng = Rng::seed(41);
                let mut params: Vec<Param> = sizes
                    .iter()
                    .map(|&n| Param::new(rng.normal_tensor(&[n], 1.0)))
                    .collect();
                let parts = split.map_or(1, <[_]>::len);
                let mut opts: Vec<Box<dyn Optimizer>> = (0..parts).map(|_| make()).collect();
                let mut seen = Vec::new();
                for t in 0..3 {
                    let mut flat = rng.normal_tensor(&[total], 1.0);
                    sprinkle(&mut flat, t, kinds, every);
                    let mut refs: Vec<&mut Param> = params.iter_mut().collect();
                    let Some(split) = split else {
                        crate::param::set_grads_from_vec(&mut refs, flat.data());
                        opts[0].step(&mut refs);
                        seen.extend(params.iter().map(|p| p.value.clone()));
                        let state = opts[0].state();
                        seen.push(Tensor::from_vec(state.clone(), &[state.len()]));
                        continue;
                    };
                    refs.iter_mut().for_each(|p| p.grad_mut().data_mut().fill(f32::NAN));
                    if t == 2 {
                        let full = gathered(&opts, total);
                        let values: Vec<&Param> = refs.iter().map(|p| &**p).collect();
                        for opt in &mut opts {
                            opt.load_state(&values, &full).unwrap();
                        }
                    }
                    for (opt, r) in opts.iter_mut().zip(split) {
                        opt.step_with_grads(&mut refs, r.clone(), &flat.data()[r.clone()]);
                    }
                    seen.extend(params.iter().map(|p| p.value.clone()));
                    let state = gathered(&opts, total);
                    seen.push(Tensor::from_vec(state.clone(), &[state.len()]));
                }
                seen
            };
            let want = run(None);
            for split in &splits {
                let ctx = format!("{name} {flavour} {split:?}");
                assert_same(&run(Some(split)), &want, &ctx);
                let off = rayon::serial_scope(|| run(Some(split)));
                assert_same(&off, &want, &format!("{ctx} pool off"));
            }
        }
    }

    /// The shards' states laid back into one: the shared head, then each
    /// element-wise buffer across the shards in range order.
    fn gathered(opts: &[Box<dyn Optimizer>], total: usize) -> Vec<f32> {
        let shards: Vec<_> = opts.iter().map(|o| o.shard_state()).collect();
        let (head, parts) = &shards[0];
        let mut out = head.clone();
        for j in 0..parts.len() {
            shards.iter().for_each(|s| out.extend_from_slice(s.1[j]));
        }
        assert!(shards.iter().all(|s| &s.0 == head), "heads differ");
        assert_eq!(out.len(), head.len() + parts.len() * total);
        out
    }

    #[test]
    fn u64_word_packing_roundtrips() {
        for x in [0u64, 1, 42, u32::MAX as u64, u64::MAX, 0xDEAD_BEEF_0BAD_F00D] {
            assert_eq!(words_to_u64(u64_to_words(x)), x);
        }
    }

    /// Take `a` steps, snapshot, take `b` more; then rebuild from the
    /// snapshot and take the same `b` steps — trajectories must match
    /// bit for bit.
    fn assert_resume_bit_exact(mut make: impl FnMut() -> Box<dyn Optimizer>, a: usize, b: usize) {
        let grad_at = |w: f32| 2.0 * (w - 3.0) + 0.25 * w.sin();
        let mut opt = make();
        let mut p = Param::new(Tensor::full(&[3], 5.0));
        for _ in 0..a {
            let vals: Vec<f32> = p.value.data().iter().map(|&w| grad_at(w)).collect();
            p.grad_mut().data_mut().copy_from_slice(&vals);
            opt.step(&mut [&mut p]);
            p.zero_grad();
        }
        let snap_state = opt.state();
        let snap_w = p.value.data().to_vec();
        for _ in 0..b {
            let vals: Vec<f32> = p.value.data().iter().map(|&w| grad_at(w)).collect();
            p.grad_mut().data_mut().copy_from_slice(&vals);
            opt.step(&mut [&mut p]);
            p.zero_grad();
        }
        let direct = p.value.data().to_vec();

        let mut resumed = make();
        let mut q = Param::new(Tensor::from_vec(snap_w, &[3]));
        resumed.load_state(&[&q], &snap_state).unwrap();
        for _ in 0..b {
            let vals: Vec<f32> = q.value.data().iter().map(|&w| grad_at(w)).collect();
            q.grad_mut().data_mut().copy_from_slice(&vals);
            resumed.step(&mut [&mut q]);
            q.zero_grad();
        }
        assert_eq!(q.value.data(), &direct[..], "resumed run diverged");
        assert_eq!(resumed.state(), opt.state(), "optimiser state diverged");
    }

    #[test]
    fn sgd_state_roundtrip_is_bit_exact() {
        assert_resume_bit_exact(|| Box::new(Sgd::new(0.05, 0.9, 0.01)), 7, 9);
    }

    #[test]
    fn adam_state_roundtrip_is_bit_exact() {
        // Includes the step counter `t`: bias correction depends on it,
        // so a dropped `t` would show up as a different trajectory.
        assert_resume_bit_exact(|| Box::new(Adam::new(0.05)), 7, 9);
    }

    #[test]
    fn state_before_first_step_roundtrips() {
        let opt = Adam::new(0.1);
        let s = opt.state();
        let mut opt2 = Adam::new(0.1);
        opt2.load_state(&[], &s).unwrap();
        assert_eq!(opt2.state(), s);
        let sgd = Sgd::new(0.1, 0.9, 0.0);
        assert!(sgd.state().is_empty());
    }

    #[test]
    fn adam_steps_are_lr_bounded() {
        // |update| ≤ lr/(1−β1-ish) — first step is exactly lr for a
        // constant gradient.
        let mut opt = Adam::new(0.01);
        let mut p = Param::new(Tensor::zeros(&[1]));
        p.grad_mut().data_mut()[0] = 1000.0;
        opt.step(&mut [&mut p]);
        assert!(p.value.data()[0].abs() <= 0.0101, "{}", p.value.data()[0]);
    }
}
