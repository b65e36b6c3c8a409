//! Optimisers: SGD with momentum/weight-decay and Adam (the paper's
//! §IV-B setting: Adam, lr = 1e-4).
//!
//! Optimisers keep their state (velocities, moments) in flat per-param
//! slots indexed by position, matching the deterministic parameter order
//! of [`crate::Layer::params_mut`].

use crate::param::Param;
use crate::serialize::SnapshotError;
use crate::STREAM_BLOCK;
use rayon::prelude::*;
use tensor::Tensor;

/// An optimiser updates parameters in place from their accumulated
/// gradients (and then the caller zeroes the gradients).
pub trait Optimizer {
    /// Applies one update step to `params`.
    fn step(&mut self, params: &mut [&mut Param]);

    /// [`Optimizer::step`] with the gradients read from the flat `grads`
    /// (laid out as [`crate::param::grads_to_vec`]) instead of the
    /// parameters' accumulators: by default it unpacks them first; Adam
    /// reads them in place, with the same bits.
    fn step_with_grads(&mut self, params: &mut [&mut Param], grads: &[f32]) {
        crate::param::set_grads_from_vec(params, grads);
        self.step(params);
    }

    /// Current learning rate.
    fn lr(&self) -> f32;

    /// Overrides the learning rate (for warmup / scaling schedules).
    fn set_lr(&mut self, lr: f32);

    /// Serialises the optimiser's internal state (momentum buffers,
    /// moments, step counters) as a flat `f32` vector. Non-float fields
    /// (e.g. Adam's step counter `t`) are stored as raw bit patterns via
    /// [`u64_to_words`], so the round trip through [`Optimizer::load_state`]
    /// is bit-exact. An optimiser that has not stepped yet returns the
    /// state it would resume from (empty for a fresh instance).
    fn state(&self) -> Vec<f32> {
        Vec::new()
    }

    /// Restores state captured by [`Optimizer::state`], binding its
    /// buffers to the shapes of `params` (the set later steps update). An
    /// empty slice resets to fresh state; a length these parameters cannot
    /// hold — another optimiser's state, or another model's — is
    /// [`SnapshotError::ShapeMismatch`] and leaves `self` untouched.
    fn load_state(&mut self, _params: &[&Param], state: &[f32]) -> Result<(), SnapshotError> {
        check_len(&[0], state)
    }
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

/// Appends same-ordered tensors to `out`, each copied once.
fn append_flat(out: &mut Vec<f32>, tensors: &[Tensor]) {
    for t in tensors {
        out.extend_from_slice(t.data());
    }
}

/// One tensor per parameter, shaped like it, from consecutive scalars of
/// `flat`; none when `flat` is empty (the caller has checked its length).
fn unflatten(params: &[&Param], mut flat: &[f32]) -> Vec<Tensor> {
    if flat.is_empty() {
        return Vec::new();
    }
    let next = |p: &&Param| {
        let (head, rest) = flat.split_at(p.numel());
        flat = rest;
        Tensor::from_vec(head.to_vec(), p.value.shape())
    };
    params.iter().map(next).collect()
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
    velocity: Vec<Tensor>,
}

impl Sgd {
    pub fn new(lr: f32, momentum: f32, weight_decay: f32) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        assert!((0.0..1.0).contains(&momentum));
        Sgd {
            lr,
            momentum,
            weight_decay,
            velocity: Vec::new(),
        }
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, params: &mut [&mut Param]) {
        if self.velocity.is_empty() {
            self.velocity = params.iter().map(|p| Tensor::zeros(p.value.shape())).collect();
        }
        assert_eq!(self.velocity.len(), params.len(), "param set changed");
        for (p, v) in params.iter_mut().zip(&mut self.velocity) {
            if self.momentum > 0.0 {
                v.scale(self.momentum);
                v.add_assign(&p.grad);
                p.value.axpy(-self.lr, v);
            } else {
                let lr = self.lr;
                p.value.zip_inplace(&p.grad, move |w, g| w - lr * g);
            }
            if self.weight_decay > 0.0 {
                // Decoupled decay: shrink the weights outside the
                // momentum path, after the gradient step.
                let shrink = 1.0 - self.lr * self.weight_decay;
                p.value.map_inplace(move |w| w * shrink);
            }
        }
    }

    fn lr(&self) -> f32 {
        self.lr
    }

    fn set_lr(&mut self, lr: f32) {
        self.lr = lr;
    }

    fn state(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.velocity.iter().map(Tensor::numel).sum());
        append_flat(&mut out, &self.velocity);
        out
    }

    fn load_state(&mut self, params: &[&Param], state: &[f32]) -> Result<(), SnapshotError> {
        check_len(&[0, params.iter().map(|p| p.numel()).sum()], state)?;
        self.velocity = unflatten(params, state);
        Ok(())
    }
}

/// Adam (Kingma & Ba) with bias correction.
///
/// A step is one sweep per parameter, [`STREAM_BLOCK`] blocks over the
/// pool: `m`, `v` and the weight are each read and written once. Elements
/// are independent and go through the expressions of the three-sweep step
/// this replaced (the `#[cfg(test)]` oracle below) in their order, so the
/// result is `to_bits`-equal for any block size and pool width.
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: u64,
    m: Vec<Tensor>,
    v: Vec<Tensor>,
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
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// The one-sweep step. Parameter `i` reads its gradient from the next
    /// `numel` scalars of `flat` when given, else from its own `grad`.
    fn sweep(&mut self, params: &mut [&mut Param], flat: Option<&[f32]>) {
        if self.m.is_empty() {
            self.m = params.iter().map(|p| Tensor::zeros(p.value.shape())).collect();
            self.v = params.iter().map(|p| Tensor::zeros(p.value.shape())).collect();
        }
        assert_eq!(self.m.len(), params.len(), "param set changed");
        let total: usize = params.iter().map(|p| p.numel()).sum();
        assert!(flat.is_none_or(|f| f.len() == total), "flat gradient length mismatch");
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        let (b1, b2, eps, lr) = (self.beta1, self.beta2, self.eps, self.lr);

        let mut off = 0;
        for ((p, m), v) in params.iter_mut().zip(&mut self.m).zip(&mut self.v) {
            let n = p.numel();
            let g = flat.map_or(p.grad.data(), |f| &f[off..off + n]);
            off += n;
            p.value
                .data_mut()
                .par_chunks_mut(STREAM_BLOCK)
                .zip(m.data_mut().par_chunks_mut(STREAM_BLOCK))
                .zip(v.data_mut().par_chunks_mut(STREAM_BLOCK))
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
        }
    }
}

impl Optimizer for Adam {
    fn step(&mut self, params: &mut [&mut Param]) {
        self.sweep(params, None);
    }

    fn step_with_grads(&mut self, params: &mut [&mut Param], grads: &[f32]) {
        self.sweep(params, Some(grads));
    }

    fn lr(&self) -> f32 {
        self.lr
    }

    fn set_lr(&mut self, lr: f32) {
        self.lr = lr;
    }

    fn state(&self) -> Vec<f32> {
        // Layout: [t (2 bit-pattern words)] ++ m ++ v; `m`/`v` are empty
        // until the first step or a load binds them.
        let moments: usize = self.m.iter().chain(&self.v).map(Tensor::numel).sum();
        let mut out = Vec::with_capacity(2 + moments);
        out.extend_from_slice(&u64_to_words(self.t));
        append_flat(&mut out, &self.m);
        append_flat(&mut out, &self.v);
        out
    }

    fn load_state(&mut self, params: &[&Param], state: &[f32]) -> Result<(), SnapshotError> {
        // Empty is a fresh optimiser; the step counter alone, one that
        // never stepped.
        let n: usize = params.iter().map(|p| p.numel()).sum();
        check_len(&[0, 2, 2 + 2 * n], state)?;
        self.t = state.get(..2).map_or(0, |w| words_to_u64([w[0], w[1]]));
        let moments = state.get(2..).unwrap_or_default();
        let (m, v) = moments.split_at(moments.len() / 2);
        (self.m, self.v) = (unflatten(params, m), unflatten(params, v));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimise f(w) = (w − 3)² with the given optimiser; returns final w.
    fn minimise(opt: &mut dyn Optimizer, steps: usize) -> f32 {
        let mut p = Param::new(Tensor::zeros(&[1]));
        for _ in 0..steps {
            let w = p.value.data()[0];
            p.grad.data_mut()[0] = 2.0 * (w - 3.0);
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
        p.grad.data_mut()[0] = 1.0;
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
            p.grad.data_mut()[0] = grad;
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
    /// one-sweep rewrite, verbatim.
    fn seed_adam_step(opt: &mut Adam, params: &mut [&mut Param]) {
        opt.t += 1;
        let bc1 = 1.0 - opt.beta1.powi(opt.t as i32);
        let bc2 = 1.0 - opt.beta2.powi(opt.t as i32);
        let (b1, b2, eps, lr) = (opt.beta1, opt.beta2, opt.eps, opt.lr);

        for ((p, m), v) in params.iter_mut().zip(&mut opt.m).zip(&mut opt.v) {
            m.zip_inplace(&p.grad, |mm, g| b1 * mm + (1.0 - b1) * g);
            v.zip_inplace(&p.grad, |vv, g| b2 * vv + (1.0 - b2) * g * g);
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
            let run = |step: &dyn Fn(&mut Adam, &mut [&mut Param])| {
                let mut rng = Rng::seed(31);
                let mut params: Vec<Param> = sizes
                    .iter()
                    .map(|&n| Param::new(rng.normal_tensor(&[n], 1.0)))
                    .collect();
                let mut opt = Adam::new(0.01);
                let mut seen = Vec::new();
                for t in 0..4 {
                    for p in &mut params {
                        p.grad = rng.normal_tensor(p.value.shape(), 1.0);
                        sprinkle(&mut p.grad, t, kinds, every);
                    }
                    step(&mut opt, &mut params.iter_mut().collect::<Vec<_>>());
                    seen.extend(params.iter().map(|p| p.value.clone()));
                    seen.push(Tensor::from_vec(opt.state(), &[opt.state().len()]));
                }
                seen
            };
            let new = |opt: &mut Adam, params: &mut [&mut Param]| opt.step(params);
            let oracle = |opt: &mut Adam, params: &mut [&mut Param]| {
                if opt.m.is_empty() {
                    opt.m = params
                        .iter()
                        .map(|p| Tensor::zeros(p.value.shape()))
                        .collect();
                    opt.v = opt.m.clone();
                }
                seed_adam_step(opt, params);
            };
            let got = run(&new);
            assert_same(&got, &run(&oracle), flavour);
            assert_same(
                &rayon::serial_scope(|| run(&new)),
                &got,
                &format!("{flavour} pool off"),
            );
        }
    }

    /// `step_with_grads` from a flat gradient ≡ `set_grads` + `step`,
    /// over two steps: Adam through its own sweep (pool on and
    /// `serial_scope`), with its accumulators poisoned so only the flat
    /// gradient can be read; Sgd through the trait default.
    #[test]
    fn step_with_grads_matches_set_grads_then_step() {
        use crate::param::set_grads_from_vec;
        use crate::recurrent::testing::{assert_same, sprinkle, FLAVOURS};
        use tensor::Rng;
        let _ = rayon::init_with_threads(4);
        let sizes = [2 * STREAM_BLOCK + 17, 300, 1, 0];
        let total: usize = sizes.iter().sum();
        type Make = fn() -> Box<dyn Optimizer>;
        let makers: [(&str, Make); 2] = [
            ("adam", || Box::new(Adam::new(0.01))),
            ("sgd", || Box::new(Sgd::new(0.05, 0.9, 0.01))),
        ];
        for ((name, make), (flavour, kinds, every)) in
            makers.iter().flat_map(|m| FLAVOURS.map(|f| (m, f)))
        {
            let run = |from_flat: bool| {
                let mut rng = Rng::seed(41);
                let mut params: Vec<Param> = sizes
                    .iter()
                    .map(|&n| Param::new(rng.normal_tensor(&[n], 1.0)))
                    .collect();
                let mut opt = make();
                let mut seen = Vec::new();
                for t in 0..2 {
                    let mut flat = rng.normal_tensor(&[total], 1.0);
                    sprinkle(&mut flat, t, kinds, every);
                    let mut refs: Vec<&mut Param> = params.iter_mut().collect();
                    if from_flat {
                        refs.iter_mut().for_each(|p| p.grad.data_mut().fill(f32::NAN));
                        opt.step_with_grads(&mut refs, flat.data());
                    } else {
                        set_grads_from_vec(&mut refs, flat.data());
                        opt.step(&mut refs);
                    }
                    seen.extend(params.iter().map(|p| p.value.clone()));
                    seen.push(Tensor::from_vec(opt.state(), &[opt.state().len()]));
                }
                seen
            };
            let want = run(false);
            let ctx = format!("{name} {flavour}");
            assert_same(&run(true), &want, &ctx);
            assert_same(&rayon::serial_scope(|| run(true)), &want, &format!("{ctx} pool off"));
        }
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
            p.grad.data_mut().copy_from_slice(&vals);
            opt.step(&mut [&mut p]);
            p.zero_grad();
        }
        let snap_state = opt.state();
        let snap_w = p.value.data().to_vec();
        for _ in 0..b {
            let vals: Vec<f32> = p.value.data().iter().map(|&w| grad_at(w)).collect();
            p.grad.data_mut().copy_from_slice(&vals);
            opt.step(&mut [&mut p]);
            p.zero_grad();
        }
        let direct = p.value.data().to_vec();

        let mut resumed = make();
        let mut q = Param::new(Tensor::from_vec(snap_w, &[3]));
        resumed.load_state(&[&q], &snap_state).unwrap();
        for _ in 0..b {
            let vals: Vec<f32> = q.value.data().iter().map(|&w| grad_at(w)).collect();
            q.grad.data_mut().copy_from_slice(&vals);
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
        p.grad.data_mut()[0] = 1000.0;
        opt.step(&mut [&mut p]);
        assert!(p.value.data()[0].abs() <= 0.0101, "{}", p.value.data()[0]);
    }
}
