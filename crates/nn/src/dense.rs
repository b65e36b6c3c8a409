//! Fully-connected layer.
//!
//! The three products go through the slice-level `tensor::matmul` entry
//! points on `input.data()`, so a time-distributed `(N, T, F)` input is
//! never copied to be reshaped; the one copy kept is the input, in a
//! grow-only buffer, for `dW`. Bits equal the `matmul(x.reshape(..), W)`
//! layer this replaced (the `#[cfg(test)]` oracle below): those calls
//! were the same entry points on a zeroed output, each product is still
//! formed from zero on its own before it meets the bias or the
//! accumulated gradient, and `db` is `sum_axis0`'s ascending-row sum.
//!
//! `dW` and `db` are formed through [`Param::accumulate`]: right after a
//! `zero_grad` they are chains built straight in the zeroed accumulator,
//! with no per-call temporary. A chain started at `+0.0` never ends on
//! `−0.0`, so that is the bits of `0.0 + product` (the argument is in
//! [`crate::param`]). A second backward without `zero_grad` forms its
//! product in a zeroed temporary and adds it, as before.

use crate::layer::Layer;
use crate::param::Param;
use tensor::matmul::{gemm_nn_into, gemm_nt_into, gemm_tn_into};
use tensor::{Rng, Tensor};

/// `y = x · W + b` with `W: (in, out)`, `b: (out)`.
///
/// Inputs of more than two dimensions are treated as
/// `(batch…, in) → (batch…, out)` by flattening all leading axes — this
/// is what makes the GRU imputer's time-distributed output head work
/// without a dedicated wrapper.
#[derive(Clone)]
pub struct Dense {
    w: Param,
    b: Param,
    in_dim: usize,
    out_dim: usize,
    /// The last forward's input, flat (grow-only).
    cache_x: Vec<f32>,
    /// Shape of that input; empty before any forward.
    cache_shape: Vec<usize>,
}

impl Dense {
    /// He-initialised dense layer.
    pub fn new(in_dim: usize, out_dim: usize, rng: &mut Rng) -> Self {
        Dense {
            w: Param::new(rng.he_init(&[in_dim, out_dim], in_dim)),
            b: Param::new(Tensor::zeros(&[out_dim])),
            in_dim,
            out_dim,
            cache_x: Vec::new(),
            cache_shape: Vec::new(),
        }
    }

    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    pub fn out_dim(&self) -> usize {
        self.out_dim
    }
}

/// Rows of a `(batch…, width)` shape flattened to `(rows, width)`.
fn rows_of(shape: &[usize]) -> usize {
    shape[..shape.len() - 1].iter().product()
}

impl Layer for Dense {
    fn forward(&mut self, input: &Tensor, _train: bool) -> Tensor {
        let shape = input.shape();
        assert_eq!(
            // lint: allow(unwrap) -- shape validation: scalar input is a caller bug worth a panic
            *shape.last().expect("dense input needs at least 1 axis"),
            self.in_dim,
            "last axis must equal in_dim"
        );
        let (rows, k, n) = (rows_of(shape), self.in_dim, self.out_dim);
        let (x, w) = (input.data(), self.w.value.data());
        let mut y = vec![0.0f32; rows * n];
        gemm_nn_into(rows, k, n, x, w, &mut y);
        let mut y = Tensor::from_vec(y, &[rows, n]);
        y.add_row_broadcast(&self.b.value);
        self.cache_x.clear();
        self.cache_x.extend_from_slice(x);
        self.cache_shape = shape.to_vec();
        let mut out_shape = shape.to_vec();
        out_shape[shape.len() - 1] = n;
        y.reshape(&out_shape)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let seen = !self.cache_shape.is_empty();
        assert!(seen, "backward called before forward");
        let (rows, k, n) = (rows_of(&self.cache_shape), self.in_dim, self.out_dim);
        let g = grad_out.data();
        assert_eq!(g.len(), rows * n, "grad_out is not the output's size");

        // dW = xᵀ · g ; db = column sums ; dx = g · Wᵀ
        self.w.accumulate(|dw| gemm_tn_into(rows, k, n, &self.cache_x, g, dw));
        self.b.accumulate(|db| {
            for row in g.chunks_exact(n.max(1)) {
                for (o, x) in db.iter_mut().zip(row) {
                    *o += x;
                }
            }
        });
        let mut dx = vec![0.0f32; rows * k];
        gemm_nt_into(rows, n, k, g, self.w.value.data(), &mut dx);
        Tensor::from_vec(dx, &self.cache_shape)
    }

    fn params(&self) -> Vec<&Param> {
        vec![&self.w, &self.b]
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.w, &mut self.b]
    }

    fn name(&self) -> &'static str {
        "Dense"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::testing::layer_matches_oracle;
    use tensor::matmul::reference::{matmul_ikj, matmul_nt_dot, matmul_tn_ikj};

    /// The dense layer this module shipped before: clone-and-reshape,
    /// tensor-level products, bodies verbatim except that the three
    /// products are the seed kernels of `tensor::matmul::reference`, so
    /// the oracle shares no kernel with the layer under test.
    #[derive(Clone)]
    struct SeedDense {
        w: Param,
        b: Param,
        in_dim: usize,
        out_dim: usize,
        cache_x: Option<Tensor>,
        cache_lead: Vec<usize>,
    }

    impl SeedDense {
        fn new(in_dim: usize, out_dim: usize) -> Self {
            SeedDense {
                w: Param::new(Tensor::zeros(&[in_dim, out_dim])),
                b: Param::new(Tensor::zeros(&[out_dim])),
                in_dim,
                out_dim,
                cache_x: None,
                cache_lead: Vec::new(),
            }
        }

        fn flatten_input(&self, input: &Tensor) -> (Tensor, Vec<usize>) {
            let shape = input.shape();
            let lead: Vec<usize> = shape[..shape.len() - 1].to_vec();
            let rows: usize = lead.iter().product::<usize>().max(1);
            (input.clone().reshape(&[rows, self.in_dim]), lead)
        }
    }

    impl Layer for SeedDense {
        fn forward(&mut self, input: &Tensor, _train: bool) -> Tensor {
            let (x2, lead) = self.flatten_input(input);
            let mut y = matmul_ikj(&x2, &self.w.value);
            y.add_row_broadcast(&self.b.value);
            self.cache_x = Some(x2);
            self.cache_lead = lead.clone();
            let mut out_shape = lead;
            out_shape.push(self.out_dim);
            y.reshape(&out_shape)
        }

        fn backward(&mut self, grad_out: &Tensor) -> Tensor {
            let x = self
                .cache_x
                .as_ref()
                .expect("backward called before forward");
            let rows = x.shape()[0];
            let g2 = grad_out.clone().reshape(&[rows, self.out_dim]);

            self.w.grad_mut().add_assign(&matmul_tn_ikj(x, &g2));
            self.b.grad_mut().add_assign(&g2.sum_axis0());
            let dx = matmul_nt_dot(&g2, &self.w.value);
            let mut in_shape = self.cache_lead.clone();
            in_shape.push(self.in_dim);
            dx.reshape(&in_shape)
        }

        fn params(&self) -> Vec<&Param> {
            vec![&self.w, &self.b]
        }

        fn params_mut(&mut self) -> Vec<&mut Param> {
            vec![&mut self.w, &mut self.b]
        }

        fn name(&self) -> &'static str {
            "Dense"
        }
    }

    /// `(lead shape, in, out)`: the GRU imputer's time-distributed head
    /// (one output column, so the dot, lane and outer-product kernels),
    /// the same across the pool's row split with an odd width, one-row
    /// and one-element cases, a 1-D input, ordinary `n > 1` layers, and
    /// a batch-4 layer wider than one 512-column panel: the harness's
    /// first pass forms its `dW` in the zeroed accumulator, the second in
    /// the temporary.
    #[test]
    fn matches_the_layer_it_replaced() {
        let cases: [(&[usize], usize, usize); 10] = [
            (&[240, 48], 32, 1),
            (&[4099], 37, 1),
            (&[5], 130, 1),
            (&[1], 1, 1),
            (&[1, 3], 7, 1),
            (&[], 6, 1),
            (&[], 6, 4),
            (&[33], 17, 9),
            (&[4100], 1, 3),
            (&[4], 40, 1030),
        ];
        for (lead, k, n) in cases {
            let (x, y) = ([lead, &[k]].concat(), [lead, &[n]].concat());
            // The harness overwrites the parameters of both.
            let new = || Dense::new(k, n, &mut Rng::seed(1));
            layer_matches_oracle(new, || SeedDense::new(k, n), &[(&x, &y)]);
        }
    }

    #[test]
    fn forward_matches_manual() {
        let mut rng = Rng::seed(1);
        let mut d = Dense::new(2, 3, &mut rng);
        d.w.value = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        d.b.value = Tensor::from_vec(vec![0.1, 0.2, 0.3], &[3]);
        let x = Tensor::from_vec(vec![1.0, 1.0], &[1, 2]);
        let y = d.forward(&x, true);
        assert_eq!(y.shape(), &[1, 3]);
        assert_eq!(y.data(), &[5.1, 7.2, 9.3]);
    }

    #[test]
    fn backward_shapes_and_accumulation() {
        let mut rng = Rng::seed(2);
        let mut d = Dense::new(4, 3, &mut rng);
        let x = rng.normal_tensor(&[5, 4], 1.0);
        let _ = d.forward(&x, true);
        let g = Tensor::ones(&[5, 3]);
        let gx = d.backward(&g);
        assert_eq!(gx.shape(), &[5, 4]);
        let gw1 = d.params()[0].grad().clone();
        // Accumulate: second backward doubles the gradient.
        let _ = d.forward(&x, true);
        let _ = d.backward(&g);
        let gw2 = d.params()[0].grad().clone();
        for (a, b) in gw1.data().iter().zip(gw2.data()) {
            assert!((2.0 * a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn bias_gradient_is_column_sum() {
        let mut rng = Rng::seed(3);
        let mut d = Dense::new(2, 2, &mut rng);
        let x = rng.normal_tensor(&[4, 2], 1.0);
        let _ = d.forward(&x, true);
        let g = Tensor::from_vec(vec![1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0], &[4, 2]);
        let _ = d.backward(&g);
        assert_eq!(d.params()[1].grad().data(), &[4.0, 8.0]);
    }

    #[test]
    fn three_d_input_is_time_distributed() {
        let mut rng = Rng::seed(4);
        let mut d = Dense::new(3, 1, &mut rng);
        let x = rng.normal_tensor(&[2, 5, 3], 1.0); // (N, T, F)
        let y = d.forward(&x, true);
        assert_eq!(y.shape(), &[2, 5, 1]);
        let gx = d.backward(&Tensor::ones(&[2, 5, 1]));
        assert_eq!(gx.shape(), &[2, 5, 3]);

        // Equals applying the same dense to the flattened batch.
        let mut d2 = Dense::new(3, 1, &mut rng);
        d2.w.value = d.w.value.clone();
        d2.b.value = d.b.value.clone();
        let y2 = d2.forward(&x.clone().reshape(&[10, 3]), true);
        assert_eq!(y.data(), y2.data());
    }

    #[test]
    #[should_panic(expected = "last axis must equal in_dim")]
    fn wrong_width_rejected() {
        let mut rng = Rng::seed(5);
        let mut d = Dense::new(3, 1, &mut rng);
        let _ = d.forward(&Tensor::zeros(&[2, 4]), true);
    }
}
