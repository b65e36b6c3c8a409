//! Long Short-Term Memory layer with full backpropagation-through-time.
//!
//! The other workhorse RNN of the clinical-time-series literature the
//! paper's §IV-B sits in (Che et al.'s GRU-D comparisons include LSTMs).
//! Same conventions as [`crate::Gru`]: input `(N, T, F)`, output the full
//! hidden sequence `(N, T, H)`, forget-gate bias initialised to 1.
//!
//! ```text
//! i = σ(x·Wi + h·Ui + bi)   f = σ(x·Wf + h·Uf + bf)
//! o = σ(x·Wo + h·Uo + bo)   g = tanh(x·Wg + h·Ug + bg)
//! c_t = f ⊙ c_{t−1} + i ⊙ g     h_t = o ⊙ tanh(c_t)
//! ```

use crate::layer::Layer;
use crate::param::Param;
use crate::recurrent::{self, add_nt, gate, nt, Cell, Step, Sweep};
use tensor::math::{sigmoid, tanh};
use tensor::{Rng, Tensor};

/// A single LSTM layer returning full sequences.
///
/// `backward` consumes what `forward` cached: a second `backward`
/// without a new `forward` panics with "backward before forward".
#[derive(Clone)]
pub struct Lstm {
    wi: Param,
    wf: Param,
    wo: Param,
    wg: Param,
    ui: Param,
    uf: Param,
    uo: Param,
    ug: Param,
    bi: Param,
    bf: Param,
    bo: Param,
    bg: Param,
    in_dim: usize,
    hidden: usize,
    sweep: Sweep,
}

impl Lstm {
    pub fn new(in_dim: usize, hidden: usize, rng: &mut Rng) -> Self {
        let wstd = (1.0 / in_dim.max(1) as f32).sqrt();
        let ustd = (1.0 / hidden.max(1) as f32).sqrt();
        let w = |rng: &mut Rng| Param::new(rng.normal_tensor(&[in_dim, hidden], wstd));
        let u = |rng: &mut Rng| Param::new(rng.normal_tensor(&[hidden, hidden], ustd));
        Lstm {
            wi: w(rng),
            wf: w(rng),
            wo: w(rng),
            wg: w(rng),
            ui: u(rng),
            uf: u(rng),
            uo: u(rng),
            ug: u(rng),
            bi: Param::new(Tensor::zeros(&[hidden])),
            // Standard trick: open the forget gate at init.
            bf: Param::new(Tensor::ones(&[hidden])),
            bo: Param::new(Tensor::zeros(&[hidden])),
            bg: Param::new(Tensor::zeros(&[hidden])),
            in_dim,
            hidden,
            sweep: Sweep::default(),
        }
    }

    pub fn hidden(&self) -> usize {
        self.hidden
    }
}

/// Slab field after the gates `i, f, o, g` (0–3): `h_{t−1}`, the rows
/// every recurrent weight multiplies. Then `c_{t−1}` and `tanh(c_t)`.
const H_PREV: usize = 4;

impl Cell for Lstm {
    const GATES: usize = 4;
    const FIELDS: usize = 7;
    const LANES: usize = 3;
    const REC: &'static [usize] = &[H_PREV; 4];

    fn sweep(&mut self) -> &mut Sweep {
        &mut self.sweep
    }

    fn step(&self, s: Step<'_>) {
        let ([i, f, o, g, h_prev, c_prev, tanh_c], [h, c, hu]) = s.split(self.hidden);
        h_prev.copy_from_slice(h);
        c_prev.copy_from_slice(c);
        gate(h_prev, &self.ui, &self.bi, hu, i, sigmoid);
        gate(h_prev, &self.uf, &self.bf, hu, f, sigmoid);
        gate(h_prev, &self.uo, &self.bo, hu, o, sigmoid);
        gate(h_prev, &self.ug, &self.bg, hu, g, tanh);
        // c_t = f ⊙ c_{t−1} + i ⊙ g ; h_t = tanh(c_t) ⊙ o
        for k in 0..h.len() {
            c[k] = f[k] * c[k] + i[k] * g[k];
            tanh_c[k] = tanh(c[k]);
            h[k] = tanh_c[k] * o[k];
        }
    }

    fn step_back(&self, s: Step<'_>) {
        let ([i, f, o, g, _, c_prev, tanh_c], [dh, dc, tmp]) = s.split(self.hidden);
        for k in 0..dh.len() {
            let (d, th) = (dh[k], tanh_c[k]);
            let (ii, ff, oo, gg) = (i[k], f[k], o[k], g[k]);
            // dc = dh ⊙ o ⊙ (1 − tanh²c) + carry
            let c = d * oo * (1.0 - th * th) + dc[k];
            o[k] = d * th * oo * (1.0 - oo);
            i[k] = c * gg * ii * (1.0 - ii);
            f[k] = c * c_prev[k] * ff * (1.0 - ff);
            g[k] = c * ii * (1.0 - gg * gg);
            dc[k] = c * ff;
        }
        nt(i, &self.ui, dh);
        add_nt(f, &self.uf, dh, tmp);
        add_nt(o, &self.uo, dh, tmp);
        add_nt(g, &self.ug, dh, tmp);
    }
}

impl Layer for Lstm {
    fn forward(&mut self, input: &Tensor, _train: bool) -> Tensor {
        assert_eq!(input.ndim(), 3, "Lstm expects (N, T, F)");
        assert_eq!(input.shape()[2], self.in_dim, "feature dim mismatch");
        recurrent::forward(self, input)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        recurrent::backward(self, grad_out)
    }

    fn params(&self) -> Vec<&Param> {
        vec![
            &self.wi, &self.wf, &self.wo, &self.wg, &self.ui, &self.uf, &self.uo, &self.ug,
            &self.bi, &self.bf, &self.bo, &self.bg,
        ]
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![
            &mut self.wi,
            &mut self.wf,
            &mut self.wo,
            &mut self.wg,
            &mut self.ui,
            &mut self.uf,
            &mut self.uo,
            &mut self.ug,
            &mut self.bi,
            &mut self.bf,
            &mut self.bo,
            &mut self.bg,
        ]
    }

    fn name(&self) -> &'static str {
        "LSTM"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_layer;
    use crate::recurrent::testing;
    use tensor::matmul::{matmul, matmul_nt, matmul_tn};

    pub(crate) struct StepCache {
        x: Tensor,
        h_prev: Tensor,
        c_prev: Tensor,
        i: Tensor,
        f: Tensor,
        o: Tensor,
        g: Tensor,
        c: Tensor,
    }

    pub(crate) struct LstmCache {
        steps: Vec<StepCache>,
        n: usize,
        t: usize,
    }

    fn gate_per_step(x: &Tensor, h: &Tensor, w: &Param, u: &Param, b: &Param) -> Tensor {
        let mut a = matmul(x, &w.value);
        a.add_assign(&matmul(h, &u.value));
        a.add_row_broadcast(&b.value);
        a
    }

    /// The per-step layer the sweep replaced — its `forward`/`backward`
    /// bodies verbatim, the cache handed over instead of stored.
    impl Lstm {
        fn forward_per_step(&self, input: &Tensor) -> (Tensor, LstmCache) {
            let (n, t, feat) = (input.shape()[0], input.shape()[1], input.shape()[2]);
            let h_dim = self.hidden;

            let mut h = Tensor::zeros(&[n, h_dim]);
            let mut c = Tensor::zeros(&[n, h_dim]);
            let mut steps = Vec::with_capacity(t);
            let mut out = vec![0.0f32; n * t * h_dim];

            for tt in 0..t {
                let mut x_t = Tensor::zeros(&[n, feat]);
                for row in 0..n {
                    x_t.row_mut(row).copy_from_slice(
                        &input.data()[(row * t + tt) * feat..(row * t + tt + 1) * feat],
                    );
                }

                let mut i = gate_per_step(&x_t, &h, &self.wi, &self.ui, &self.bi);
                i.map_inplace(testing::host_sigmoid);
                let mut f = gate_per_step(&x_t, &h, &self.wf, &self.uf, &self.bf);
                f.map_inplace(testing::host_sigmoid);
                let mut o = gate_per_step(&x_t, &h, &self.wo, &self.uo, &self.bo);
                o.map_inplace(testing::host_sigmoid);
                let mut g = gate_per_step(&x_t, &h, &self.wg, &self.ug, &self.bg);
                g.map_inplace(f32::tanh);

                // c_new = f ⊙ c + i ⊙ g
                let mut c_new = f.clone();
                c_new.mul_assign(&c);
                let mut ig = i.clone();
                ig.mul_assign(&g);
                c_new.add_assign(&ig);

                // h_new = o ⊙ tanh(c_new)
                let mut h_new = c_new.map(f32::tanh);
                h_new.mul_assign(&o);

                for row in 0..n {
                    out[(row * t + tt) * h_dim..(row * t + tt + 1) * h_dim]
                        .copy_from_slice(h_new.row(row));
                }
                steps.push(StepCache {
                    x: x_t,
                    h_prev: h,
                    c_prev: c,
                    i,
                    f,
                    o,
                    g,
                    c: c_new.clone(),
                });
                h = h_new;
                c = c_new;
            }

            (
                Tensor::from_vec(out, &[n, t, h_dim]),
                LstmCache { steps, n, t },
            )
        }

        fn backward_per_step(&mut self, cache: &LstmCache, grad_out: &Tensor) -> Tensor {
            let (n, t) = (cache.n, cache.t);
            let h_dim = self.hidden;
            let feat = self.in_dim;
            assert_eq!(grad_out.shape(), &[n, t, h_dim]);

            let mut dh_next = Tensor::zeros(&[n, h_dim]);
            let mut dc_next = Tensor::zeros(&[n, h_dim]);
            let mut dx_all = vec![0.0f32; n * t * feat];

            for tt in (0..t).rev() {
                let s = &cache.steps[tt];
                let mut dh = Tensor::zeros(&[n, h_dim]);
                for row in 0..n {
                    dh.row_mut(row).copy_from_slice(
                        &grad_out.data()[(row * t + tt) * h_dim..(row * t + tt + 1) * h_dim],
                    );
                }
                dh.add_assign(&dh_next);

                let tanh_c = s.c.map(f32::tanh);

                // do = dh ⊙ tanh(c); dc += dh ⊙ o ⊙ (1 − tanh²c)
                let mut d_o = dh.clone();
                d_o.mul_assign(&tanh_c);
                let mut dc = dh;
                dc.mul_assign(&s.o);
                dc.zip_inplace(&tanh_c, |v, th| v * (1.0 - th * th));
                dc.add_assign(&dc_next);

                // Gate input grads.
                let mut d_f = dc.clone();
                d_f.mul_assign(&s.c_prev);
                let mut d_i = dc.clone();
                d_i.mul_assign(&s.g);
                let mut d_g = dc.clone();
                d_g.mul_assign(&s.i);
                let mut dc_prev = dc;
                dc_prev.mul_assign(&s.f);

                // Pre-activation grads.
                let mut da_i = d_i;
                da_i.zip_inplace(&s.i, |v, a| v * a * (1.0 - a));
                let mut da_f = d_f;
                da_f.zip_inplace(&s.f, |v, a| v * a * (1.0 - a));
                let mut da_o = d_o;
                da_o.zip_inplace(&s.o, |v, a| v * a * (1.0 - a));
                let mut da_g = d_g;
                da_g.zip_inplace(&s.g, |v, a| v * (1.0 - a * a));

                // Parameter gradients.
                for (da, w, u, b) in [
                    (&da_i, &mut self.wi, &mut self.ui, &mut self.bi),
                    (&da_f, &mut self.wf, &mut self.uf, &mut self.bf),
                    (&da_o, &mut self.wo, &mut self.uo, &mut self.bo),
                    (&da_g, &mut self.wg, &mut self.ug, &mut self.bg),
                ] {
                    w.grad_mut().add_assign(&matmul_tn(&s.x, da));
                    u.grad_mut().add_assign(&matmul_tn(&s.h_prev, da));
                    b.grad_mut().add_assign(&da.sum_axis0());
                }

                // Input and recurrent gradients.
                let mut dx = matmul_nt(&da_i, &self.wi.value);
                dx.add_assign(&matmul_nt(&da_f, &self.wf.value));
                dx.add_assign(&matmul_nt(&da_o, &self.wo.value));
                dx.add_assign(&matmul_nt(&da_g, &self.wg.value));
                for row in 0..n {
                    dx_all[(row * t + tt) * feat..(row * t + tt + 1) * feat]
                        .copy_from_slice(dx.row(row));
                }

                let mut dh_prev = matmul_nt(&da_i, &self.ui.value);
                dh_prev.add_assign(&matmul_nt(&da_f, &self.uf.value));
                dh_prev.add_assign(&matmul_nt(&da_o, &self.uo.value));
                dh_prev.add_assign(&matmul_nt(&da_g, &self.ug.value));
                dh_next = dh_prev;
                dc_next = dc_prev;
            }

            Tensor::from_vec(dx_all, &[n, t, feat])
        }
    }

    #[test]
    fn recurrent_sweep_matches_per_step_oracle_bit_exactly() {
        testing::sweep_matches_oracle(Lstm::new, |l, x, g| {
            let (y, cache) = l.forward_per_step(x);
            (y, l.backward_per_step(&cache, g))
        });
    }

    #[test]
    #[should_panic(expected = "backward before forward")]
    fn second_backward_needs_a_new_forward() {
        let mut lstm = Lstm::new(3, 4, &mut Rng::seed(1));
        lstm.forward(&Tensor::ones(&[2, 5, 3]), true);
        lstm.backward(&Tensor::ones(&[2, 5, 4]));
        lstm.backward(&Tensor::ones(&[2, 5, 4]));
    }

    #[test]
    fn shapes_roundtrip() {
        let mut rng = Rng::seed(1);
        let mut lstm = Lstm::new(5, 7, &mut rng);
        let x = rng.normal_tensor(&[3, 9, 5], 1.0);
        let y = lstm.forward(&x, true);
        assert_eq!(y.shape(), &[3, 9, 7]);
        let gx = lstm.backward(&Tensor::ones(&[3, 9, 7]));
        assert_eq!(gx.shape(), &[3, 9, 5]);
    }

    #[test]
    fn gradients_check_out() {
        let mut rng = Rng::seed(2);
        let mut lstm = Lstm::new(3, 4, &mut rng);
        let x = rng.normal_tensor(&[2, 5, 3], 1.0);
        let rep = check_layer(&mut lstm, &x, 1e-2, 77);
        // f32 central differences are noisy on near-zero entries deep in
        // the 5-step recurrence; bound the bulk tightly and the max
        // loosely.
        assert!(rep.p90_param_err < 2e-2, "param p90 err {}", rep.p90_param_err);
        assert!(rep.p90_input_err < 2e-2, "input p90 err {}", rep.p90_input_err);
        assert!(rep.max_param_err < 0.15, "param max err {}", rep.max_param_err);
        assert!(rep.max_input_err < 0.15, "input max err {}", rep.max_input_err);
    }

    #[test]
    fn hidden_state_is_bounded() {
        let mut rng = Rng::seed(3);
        let mut lstm = Lstm::new(4, 6, &mut rng);
        let x = rng.normal_tensor(&[2, 40, 4], 10.0);
        let y = lstm.forward(&x, true);
        for &v in y.data() {
            assert!(v.abs() <= 1.0 + 1e-6, "h = o·tanh(c) must stay in [-1,1]: {v}");
        }
    }

    #[test]
    fn param_count_matches_formula() {
        // 4 gates × (F·H + H·H + H)
        let mut rng = Rng::seed(4);
        let lstm = Lstm::new(9, 32, &mut rng);
        let count: usize = lstm.params().iter().map(|p| p.numel()).sum();
        assert_eq!(count, 4 * (9 * 32 + 32 * 32 + 32));
    }

    #[test]
    fn closed_input_gate_keeps_cell_empty() {
        let mut rng = Rng::seed(5);
        let mut lstm = Lstm::new(3, 4, &mut rng);
        lstm.bi.value = Tensor::full(&[4], -30.0); // input gate ≈ 0
        let x = rng.normal_tensor(&[1, 12, 3], 1.0);
        let y = lstm.forward(&x, true);
        for &v in y.data() {
            assert!(v.abs() < 1e-4, "cell leaked with closed input gate: {v}");
        }
    }
}
