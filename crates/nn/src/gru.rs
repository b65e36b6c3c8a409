//! Gated Recurrent Unit layer with full backpropagation-through-time.
//!
//! Implements the classic GRU of Cho et al. used by the paper's §IV-B
//! ARDS time-series model:
//!
//! ```text
//! z_t = σ(x_t·Wz + h_{t−1}·Uz + bz)        (update gate)
//! r_t = σ(x_t·Wr + h_{t−1}·Ur + br)        (reset gate)
//! ĥ_t = tanh(x_t·Wh + (r_t ⊙ h_{t−1})·Uh + bh)
//! h_t = (1 − z_t) ⊙ h_{t−1} + z_t ⊙ ĥ_t
//! ```
//!
//! Input `(N, T, F)`, output the full hidden sequence `(N, T, H)` (Keras
//! `return_sequences=True`), so layers stack and a time-distributed
//! [`crate::Dense`] head can regress per-timestep values.

use crate::layer::Layer;
use crate::param::Param;
use crate::recurrent::{self, add_nt, gate, nt, Cell, Step, Sweep};
use tensor::math::{sigmoid, tanh};
use tensor::{Rng, Tensor};

/// A single GRU layer returning full sequences.
///
/// `backward` consumes what `forward` cached: a second `backward`
/// without a new `forward` panics with "backward before forward".
#[derive(Clone)]
pub struct Gru {
    // Input weights (F×H), recurrent weights (H×H), biases (H).
    wz: Param,
    wr: Param,
    wh: Param,
    uz: Param,
    ur: Param,
    uh: Param,
    bz: Param,
    br: Param,
    bh: Param,
    in_dim: usize,
    hidden: usize,
    sweep: Sweep,
}

impl Gru {
    pub fn new(in_dim: usize, hidden: usize, rng: &mut Rng) -> Self {
        let wstd = (1.0 / in_dim.max(1) as f32).sqrt();
        let ustd = (1.0 / hidden.max(1) as f32).sqrt();
        let w = |rng: &mut Rng| Param::new(rng.normal_tensor(&[in_dim, hidden], wstd));
        let u = |rng: &mut Rng| Param::new(rng.normal_tensor(&[hidden, hidden], ustd));
        Gru {
            wz: w(rng),
            wr: w(rng),
            wh: w(rng),
            uz: u(rng),
            ur: u(rng),
            uh: u(rng),
            bz: Param::new(Tensor::zeros(&[hidden])),
            br: Param::new(Tensor::zeros(&[hidden])),
            bh: Param::new(Tensor::zeros(&[hidden])),
            in_dim,
            hidden,
            sweep: Sweep::default(),
        }
    }

    pub fn hidden(&self) -> usize {
        self.hidden
    }
}

/// Slab fields after the gates `z, r, ĥ` (0, 1, 2): `h_{t−1}` and
/// `r ⊙ h_{t−1}`, the rows the recurrent weights multiply.
const H_PREV: usize = 3;
const RH: usize = 4;

impl Cell for Gru {
    const GATES: usize = 3;
    const FIELDS: usize = 5;
    const LANES: usize = 2;
    const REC: &'static [usize] = &[H_PREV, H_PREV, RH];

    fn sweep(&mut self) -> &mut Sweep {
        &mut self.sweep
    }

    fn step(&self, s: Step<'_>) {
        let ([z, r, hhat, h_prev, rh], [h, hu]) = s.split(self.hidden);
        h_prev.copy_from_slice(h);
        gate(h_prev, &self.uz, &self.bz, hu, z, sigmoid);
        gate(h_prev, &self.ur, &self.br, hu, r, sigmoid);
        for ((rh, &r), &hp) in rh.iter_mut().zip(r.iter()).zip(h_prev.iter()) {
            *rh = r * hp;
        }
        gate(rh, &self.uh, &self.bh, hu, hhat, tanh);
        for ((h, &z), &hhat) in h.iter_mut().zip(z.iter()).zip(hhat.iter()) {
            *h = *h * (1.0 - z) + z * hhat;
        }
    }

    fn step_back(&self, s: Step<'_>) {
        let ([z, r, hhat, h_prev, _], [dh, tmp]) = s.split(self.hidden);
        // dĥ = dh ⊙ z ; dz = (ĥ − h_prev) ⊙ dh ; dh_prev = dh ⊙ (1 − z)
        for i in 0..dh.len() {
            let (g, zz, hh) = (dh[i], z[i], hhat[i]);
            dh[i] = g * (1.0 - zz);
            hhat[i] = g * zz * (1.0 - hh * hh);
            z[i] = (hh - h_prev[i]) * g * zz * (1.0 - zz);
        }
        // Through the r ⊙ h_prev product.
        nt(hhat, &self.uh, tmp);
        for i in 0..dh.len() {
            let (drh, rr) = (tmp[i], r[i]);
            dh[i] += drh * rr;
            r[i] = drh * h_prev[i] * rr * (1.0 - rr);
        }
        add_nt(z, &self.uz, dh, tmp);
        add_nt(r, &self.ur, dh, tmp);
    }
}

impl Layer for Gru {
    fn forward(&mut self, input: &Tensor, _train: bool) -> Tensor {
        assert_eq!(input.ndim(), 3, "Gru expects (N, T, F)");
        assert_eq!(input.shape()[2], self.in_dim, "feature dim mismatch");
        recurrent::forward(self, input)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        recurrent::backward(self, grad_out)
    }

    fn params(&self) -> Vec<&Param> {
        vec![
            &self.wz, &self.wr, &self.wh, &self.uz, &self.ur, &self.uh, &self.bz, &self.br,
            &self.bh,
        ]
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![
            &mut self.wz,
            &mut self.wr,
            &mut self.wh,
            &mut self.uz,
            &mut self.ur,
            &mut self.uh,
            &mut self.bz,
            &mut self.br,
            &mut self.bh,
        ]
    }

    fn name(&self) -> &'static str {
        "GRU"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recurrent::testing;
    use tensor::matmul::{matmul, matmul_nt, matmul_tn};

    pub(crate) struct StepCache {
        x: Tensor,      // (N, F)
        h_prev: Tensor, // (N, H)
        z: Tensor,
        r: Tensor,
        hhat: Tensor,
    }

    pub(crate) struct GruCache {
        steps: Vec<StepCache>,
        n: usize,
        t: usize,
    }

    /// One gate pre-activation: `x·W + h·U + b`.
    fn gate_per_step(x: &Tensor, h: &Tensor, w: &Param, u: &Param, b: &Param) -> Tensor {
        let mut a = matmul(x, &w.value);
        a.add_assign(&matmul(h, &u.value));
        a.add_row_broadcast(&b.value);
        a
    }

    /// The per-step layer the sweep replaced — its `forward`/`backward`
    /// bodies verbatim, the cache handed over instead of stored.
    impl Gru {
        fn forward_per_step(&self, input: &Tensor) -> (Tensor, GruCache) {
            let (n, t, f) = (input.shape()[0], input.shape()[1], input.shape()[2]);
            let h_dim = self.hidden;

            let mut h = Tensor::zeros(&[n, h_dim]);
            let mut steps = Vec::with_capacity(t);
            let mut out = Vec::with_capacity(n * t * h_dim);
            // Gather x_t as (N, F) slices: input is (N, T, F) so timestep
            // slices are strided; build them explicitly.
            for tt in 0..t {
                let mut x_t = Tensor::zeros(&[n, f]);
                for i in 0..n {
                    let src = &input.data()[(i * t + tt) * f..(i * t + tt + 1) * f];
                    x_t.row_mut(i).copy_from_slice(src);
                }

                let mut z = gate_per_step(&x_t, &h, &self.wz, &self.uz, &self.bz);
                z.map_inplace(testing::host_sigmoid);
                let mut r = gate_per_step(&x_t, &h, &self.wr, &self.ur, &self.br);
                r.map_inplace(testing::host_sigmoid);

                let mut rh = r.clone();
                rh.mul_assign(&h);
                let mut hhat = matmul(&x_t, &self.wh.value);
                hhat.add_assign(&matmul(&rh, &self.uh.value));
                hhat.add_row_broadcast(&self.bh.value);
                hhat.map_inplace(f32::tanh);

                // h_new = (1 − z)⊙h + z⊙ĥ
                let mut h_new = h.clone();
                h_new.zip_inplace(&z, |hp, zz| hp * (1.0 - zz));
                let mut zh = z.clone();
                zh.mul_assign(&hhat);
                h_new.add_assign(&zh);

                steps.push(StepCache {
                    x: x_t,
                    h_prev: h.clone(),
                    z,
                    r,
                    hhat,
                });
                h = h_new;
                out.extend_from_slice(h.data()); // temporarily (T, N, H) order
            }

            // Reorder from (T, N, H) to (N, T, H).
            let mut reordered = vec![0.0f32; n * t * h_dim];
            for tt in 0..t {
                for i in 0..n {
                    let src = &out[(tt * n + i) * h_dim..(tt * n + i + 1) * h_dim];
                    reordered[(i * t + tt) * h_dim..(i * t + tt + 1) * h_dim].copy_from_slice(src);
                }
            }
            (
                Tensor::from_vec(reordered, &[n, t, h_dim]),
                GruCache { steps, n, t },
            )
        }

        fn backward_per_step(&mut self, cache: &GruCache, grad_out: &Tensor) -> Tensor {
            let (n, t) = (cache.n, cache.t);
            let h_dim = self.hidden;
            let f = self.in_dim;
            assert_eq!(grad_out.shape(), &[n, t, h_dim]);

            let mut dh_next = Tensor::zeros(&[n, h_dim]);
            let mut dx_all = vec![0.0f32; n * t * f];

            for tt in (0..t).rev() {
                let step = &cache.steps[tt];
                // dh = grad from output at this step + carry from the future.
                let mut dh = Tensor::zeros(&[n, h_dim]);
                for i in 0..n {
                    dh.row_mut(i).copy_from_slice(
                        &grad_out.data()[(i * t + tt) * h_dim..(i * t + tt + 1) * h_dim],
                    );
                }
                dh.add_assign(&dh_next);

                // dĥ = dh ⊙ z ; dz = dh ⊙ (ĥ − h_prev) ; dh_prev = dh ⊙ (1 − z)
                let mut dhhat = dh.clone();
                dhhat.mul_assign(&step.z);
                let mut dz = step.hhat.clone();
                dz.sub_assign(&step.h_prev);
                dz.mul_assign(&dh);
                let mut dh_prev = dh.clone();
                dh_prev.zip_inplace(&step.z, |g, z| g * (1.0 - z));

                // Candidate pre-activation: da_h = dĥ ⊙ (1 − ĥ²)
                let mut da_h = dhhat;
                da_h.zip_inplace(&step.hhat, |g, hh| g * (1.0 - hh * hh));

                // rh = r ⊙ h_prev (recompute, cheaper than caching)
                let mut rh = step.r.clone();
                rh.mul_assign(&step.h_prev);

                self.wh.grad_mut().add_assign(&matmul_tn(&step.x, &da_h));
                self.uh.grad_mut().add_assign(&matmul_tn(&rh, &da_h));
                self.bh.grad_mut().add_assign(&da_h.sum_axis0());

                // Through the r ⊙ h_prev product.
                let drh = matmul_nt(&da_h, &self.uh.value);
                let mut dr = drh.clone();
                dr.mul_assign(&step.h_prev);
                let mut drh_h = drh;
                drh_h.mul_assign(&step.r);
                dh_prev.add_assign(&drh_h);

                // Gate pre-activations.
                let mut da_z = dz;
                da_z.zip_inplace(&step.z, |g, z| g * z * (1.0 - z));
                let mut da_r = dr;
                da_r.zip_inplace(&step.r, |g, r| g * r * (1.0 - r));

                self.wz.grad_mut().add_assign(&matmul_tn(&step.x, &da_z));
                self.uz.grad_mut().add_assign(&matmul_tn(&step.h_prev, &da_z));
                self.bz.grad_mut().add_assign(&da_z.sum_axis0());
                self.wr.grad_mut().add_assign(&matmul_tn(&step.x, &da_r));
                self.ur.grad_mut().add_assign(&matmul_tn(&step.h_prev, &da_r));
                self.br.grad_mut().add_assign(&da_r.sum_axis0());

                // Input gradient.
                let mut dx = matmul_nt(&da_z, &self.wz.value);
                dx.add_assign(&matmul_nt(&da_r, &self.wr.value));
                dx.add_assign(&matmul_nt(&da_h, &self.wh.value));
                for i in 0..n {
                    dx_all[(i * t + tt) * f..(i * t + tt + 1) * f].copy_from_slice(dx.row(i));
                }

                // Recurrent gradient carried to t−1.
                dh_prev.add_assign(&matmul_nt(&da_z, &self.uz.value));
                dh_prev.add_assign(&matmul_nt(&da_r, &self.ur.value));
                dh_next = dh_prev;
            }

            Tensor::from_vec(dx_all, &[n, t, f])
        }
    }

    #[test]
    fn recurrent_sweep_matches_per_step_oracle_bit_exactly() {
        testing::sweep_matches_oracle(Gru::new, |l, x, g| {
            let (y, cache) = l.forward_per_step(x);
            (y, l.backward_per_step(&cache, g))
        });
    }

    #[test]
    #[should_panic(expected = "backward before forward")]
    fn second_backward_needs_a_new_forward() {
        let mut gru = Gru::new(3, 4, &mut Rng::seed(1));
        gru.forward(&Tensor::ones(&[2, 5, 3]), true);
        gru.backward(&Tensor::ones(&[2, 5, 4]));
        gru.backward(&Tensor::ones(&[2, 5, 4]));
    }

    #[test]
    fn rejected_grad_shape_leaves_the_forward_state_in_place() {
        let mut gru = Gru::new(3, 4, &mut Rng::seed(1));
        gru.forward(&Tensor::ones(&[2, 5, 3]), true);
        let wrong = Tensor::ones(&[2, 5, 3]);
        let attempt = std::panic::AssertUnwindSafe(|| gru.backward(&wrong));
        assert!(std::panic::catch_unwind(attempt).is_err());
        assert_eq!(gru.backward(&Tensor::ones(&[2, 5, 4])).shape(), &[2, 5, 3]);
    }

    #[test]
    fn output_shape_is_full_sequence() {
        let mut rng = Rng::seed(1);
        let mut gru = Gru::new(5, 7, &mut rng);
        let x = rng.normal_tensor(&[3, 11, 5], 1.0);
        let y = gru.forward(&x, true);
        assert_eq!(y.shape(), &[3, 11, 7]);
        let gx = gru.backward(&Tensor::ones(&[3, 11, 7]));
        assert_eq!(gx.shape(), &[3, 11, 5]);
    }

    #[test]
    fn hidden_state_stays_bounded() {
        // h is a convex combination of tanh outputs ⇒ |h| ≤ 1 always.
        let mut rng = Rng::seed(2);
        let mut gru = Gru::new(4, 6, &mut rng);
        let x = rng.normal_tensor(&[2, 50, 4], 10.0); // wild inputs
        let y = gru.forward(&x, true);
        for &v in y.data() {
            assert!(v.abs() <= 1.0 + 1e-6, "hidden state escaped [-1,1]: {v}");
        }
    }

    #[test]
    fn zero_update_gate_bias_extreme_keeps_state_near_zero() {
        // Force z ≈ 0 via a very negative update-gate bias: h stays ~0.
        let mut rng = Rng::seed(3);
        let mut gru = Gru::new(3, 4, &mut rng);
        gru.bz.value = Tensor::full(&[4], -30.0);
        let x = rng.normal_tensor(&[1, 10, 3], 1.0);
        let y = gru.forward(&x, true);
        for &v in y.data() {
            assert!(v.abs() < 1e-4, "state leaked with closed update gate: {v}");
        }
    }

    #[test]
    fn batch_items_are_independent() {
        let mut rng = Rng::seed(4);
        let mut gru = Gru::new(3, 5, &mut rng);
        let a = rng.normal_tensor(&[1, 6, 3], 1.0);
        let b = rng.normal_tensor(&[1, 6, 3], 1.0);
        let ya = gru.forward(&a, true);
        let yb = gru.forward(&b, true);
        let both = Tensor::from_vec([a.data(), b.data()].concat(), &[2, 6, 3]);
        let y_both = gru.forward(&both, true);
        for (u, v) in ya.data().iter().zip(&y_both.data()[..ya.numel()]) {
            assert!((u - v).abs() < 1e-6);
        }
        for (u, v) in yb.data().iter().zip(&y_both.data()[ya.numel()..]) {
            assert!((u - v).abs() < 1e-6);
        }
    }

    #[test]
    fn param_count_matches_keras_formula() {
        // Keras GRU params (reset_after=False): 3·(F·H + H·H + H)
        let mut rng = Rng::seed(5);
        let gru = Gru::new(9, 32, &mut rng);
        let count: usize = gru.params().iter().map(|p| p.numel()).sum();
        assert_eq!(count, 3 * (9 * 32 + 32 * 32 + 32));
    }
}
