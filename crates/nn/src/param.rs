//! Trainable parameters: a value tensor paired with its gradient
//! accumulator.
//!
//! # The accumulate contract
//!
//! A [`Param`] knows when its accumulator is all `+0.0`: [`Param::new`]
//! and [`Param::zero_grad`] leave it so, and every other write
//! ([`Param::grad_mut`], [`Param::accumulate`], [`set_grads_from_vec`])
//! forgets it. [`Param::accumulate`] uses that to let a layer form a
//! product straight in the accumulator, with no temporary, whenever
//! that gives the bits the temporary would. It does whenever the
//! product is a chain `((0.0 + t₀) + t₁) + …` started from what the
//! buffer holds, as every `tensor::matmul` entry point and a plain
//! column sum are: under round-to-nearest a chain started at `+0.0`
//! never ends on `−0.0` (`+0.0 + −0.0` and `x + −x` are both `+0.0`),
//! so adding it to `+0.0` returns it to the bit, NaN payload included.

use std::ops::{Deref, Range};
use tensor::Tensor;

/// One trainable parameter of a layer.
#[derive(Debug, Clone)]
pub struct Param {
    pub value: Tensor,
    grad: Tensor,
    /// Whether every element of `grad` is `+0.0`.
    zeroed: bool,
}

impl Param {
    /// Wraps an initial value with a zeroed gradient of the same shape.
    pub fn new(value: Tensor) -> Self {
        let grad = Tensor::zeros(value.shape());
        Param {
            value,
            grad,
            zeroed: true,
        }
    }

    /// Number of scalar parameters.
    pub fn numel(&self) -> usize {
        self.value.numel()
    }

    /// The gradient accumulator.
    pub fn grad(&self) -> &Tensor {
        &self.grad
    }

    /// The values to write and the gradient to read, borrowed together
    /// as an optimizer step needs them.
    pub fn value_and_grad(&mut self) -> (&mut Tensor, &Tensor) {
        (&mut self.value, &self.grad)
    }

    /// Write access to the gradient accumulator. The caller may write
    /// anything, so the accumulator no longer counts as zeroed.
    pub fn grad_mut(&mut self) -> &mut Tensor {
        self.zeroed = false;
        &mut self.grad
    }

    /// Resets the gradient accumulator to `+0.0`.
    pub fn zero_grad(&mut self) {
        self.grad.data_mut().fill(0.0);
        self.zeroed = true;
    }

    /// Adds the product `form` writes to the accumulator. `form` must
    /// *accumulate* into the slice it is given (`out += …`, a chain per
    /// element started from what `out` holds), never overwrite it.
    ///
    /// On a zeroed accumulator `form` runs on the accumulator itself; on
    /// any other it runs on a zeroed temporary, which is then added
    /// elementwise. The two give equal bits for a chain product (see the
    /// [module docs](self)); the temporary path keeps the order of a
    /// second accumulation without a `zero_grad` between.
    pub fn accumulate(&mut self, form: impl FnOnce(&mut [f32])) {
        if self.zeroed {
            form(self.grad.data_mut());
        } else {
            let mut part = vec![0.0f32; self.grad.numel()];
            form(&mut part);
            for (g, p) in self.grad.data_mut().iter_mut().zip(&part) {
                *g += p;
            }
        }
        self.zeroed = false;
    }
}

/// Flattens the parameter *values* of a set of params into one vector
/// (rank-order deterministic) — used to broadcast initial weights.
pub fn values_to_vec(params: &[&Param]) -> Vec<f32> {
    let total: usize = params.iter().map(|p| p.numel()).sum();
    let mut out = Vec::with_capacity(total);
    for p in params {
        out.extend_from_slice(p.value.data());
    }
    out
}

/// Flattens the parameter *gradients* into one vector — the payload of
/// the Horovod-style allreduce.
pub fn grads_to_vec(params: &[&Param]) -> Vec<f32> {
    let total: usize = params.iter().map(|p| p.numel()).sum();
    let mut out = Vec::with_capacity(total);
    for p in params {
        out.extend_from_slice(p.grad().data());
    }
    out
}

/// Flattens the parameter *gradients* into a caller-provided slice —
/// the zero-allocation variant of [`grads_to_vec`] used by the fused
/// gradient exchange. `out.len()` must equal the total parameter count.
pub fn copy_grads_into(params: &[&Param], out: &mut [f32]) {
    let mut off = 0;
    for p in params {
        let n = p.numel();
        out[off..off + n].copy_from_slice(p.grad().data());
        off += n;
    }
    assert_eq!(off, out.len(), "flat slice length mismatch");
}

/// Writes a flat vector back into the parameter values. Length must match
/// exactly.
pub fn set_values_from_vec(params: &mut [&mut Param], flat: &[f32]) {
    let total: usize = params.iter().map(|p| p.numel()).sum();
    assert_eq!(total, flat.len(), "flat vector length mismatch");
    write_values(params, 0..total, flat);
}

/// The parameters the flat range `at` touches, as `(param, part, offset)`:
/// `part` is its share of that parameter, `offset` where it starts in `at`.
pub fn pieces<P: Deref<Target = Param>>(
    params: impl IntoIterator<Item = P>,
    at: Range<usize>,
) -> impl Iterator<Item = (P, Range<usize>, usize)> {
    let mut next = 0;
    params.into_iter().filter_map(move |p| {
        let (s, e) = (next, next + p.numel());
        next = e;
        let (lo, hi) = (at.start.clamp(s, e), at.end.clamp(s, e));
        (lo < hi).then(|| (p, lo - s..hi - s, lo - at.start))
    })
}

/// Copies the values of the flat range `at` into `out`.
pub fn read_values(params: &[&mut Param], at: Range<usize>, out: &mut [f32]) {
    for (p, part, off) in pieces(params.iter().map(|p| &**p), at) {
        out[off..off + part.len()].copy_from_slice(&p.value.data()[part]);
    }
}

/// Writes `src` over the values of the flat range `at`.
pub fn write_values(params: &mut [&mut Param], at: Range<usize>, src: &[f32]) {
    for (p, part, off) in pieces(params.iter_mut().map(|p| &mut **p), at) {
        let n = part.len();
        p.value.data_mut()[part].copy_from_slice(&src[off..off + n]);
    }
}

/// Writes a flat vector back into the parameter gradients.
pub fn set_grads_from_vec(params: &mut [&mut Param], flat: &[f32]) {
    let mut off = 0;
    for p in params.iter_mut() {
        let n = p.numel();
        p.grad_mut().data_mut().copy_from_slice(&flat[off..off + n]);
        off += n;
    }
    assert_eq!(off, flat.len(), "flat vector length mismatch");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flatten_roundtrip() {
        let mut a = Param::new(Tensor::from_vec(vec![1.0, 2.0], &[2]));
        let mut b = Param::new(Tensor::from_vec(vec![3.0, 4.0, 5.0], &[3]));
        a.grad_mut().data_mut().copy_from_slice(&[0.1, 0.2]);
        b.grad_mut().data_mut().copy_from_slice(&[0.3, 0.4, 0.5]);

        let vals = values_to_vec(&[&a, &b]);
        assert_eq!(vals, vec![1.0, 2.0, 3.0, 4.0, 5.0]);
        let grads = grads_to_vec(&[&a, &b]);
        assert_eq!(grads, vec![0.1, 0.2, 0.3, 0.4, 0.5]);
        let mut flat_grads = vec![0.0f32; 5];
        copy_grads_into(&[&a, &b], &mut flat_grads);
        assert_eq!(flat_grads, grads);

        let flat: Vec<f32> = (10..15).map(|x| x as f32).collect();
        set_values_from_vec(&mut [&mut a, &mut b], &flat);
        assert_eq!(a.value.data(), &[10.0, 11.0]);
        assert_eq!(b.value.data(), &[12.0, 13.0, 14.0]);
        set_grads_from_vec(&mut [&mut a, &mut b], &flat);
        assert_eq!(b.grad().data(), &[12.0, 13.0, 14.0]);
    }

    #[test]
    fn zero_grad_clears() {
        let mut p = Param::new(Tensor::ones(&[3]));
        p.grad_mut().data_mut().fill(7.0);
        p.zero_grad();
        assert!(p.grad().data().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn new_and_zero_grad_mark_the_accumulator_zeroed_and_writes_unmark_it() {
        let mut p = Param::new(Tensor::ones(&[3]));
        assert!(p.zeroed);
        let _ = p.grad_mut();
        assert!(!p.zeroed);
        p.zero_grad();
        assert!(p.zeroed && p.clone().zeroed);
        set_grads_from_vec(&mut [&mut p], &[1.0, 2.0, 3.0]);
        assert!(!p.zeroed && !p.clone().zeroed);
        p.zero_grad();
        p.accumulate(|_| {});
        assert!(!p.zeroed);
    }

    /// On a zeroed accumulator the product is formed in place; on any
    /// other it is formed from zero apart and then added.
    #[test]
    fn accumulate_forms_in_place_only_on_a_zeroed_accumulator() {
        let mut p = Param::new(Tensor::zeros(&[2]));
        let at = p.grad().data().as_ptr();
        p.accumulate(|acc| {
            assert_eq!(acc.as_ptr(), at);
            acc.iter_mut().for_each(|a| *a += -0.0);
        });
        // `+0.0 + −0.0` is `+0.0`: the chain from `+0.0` cannot end on `−0.0`.
        assert!(p.grad().data().iter().all(|v| v.to_bits() == 0));
        p.accumulate(|acc| {
            assert_ne!(acc.as_ptr(), at);
            assert!(acc.iter().all(|v| v.to_bits() == 0));
            acc[0] += 1.5;
            acc[1] += f32::NAN;
        });
        p.accumulate(|acc| acc[0] += 2.0);
        assert_eq!(p.grad().data()[0], 3.5);
        assert!(p.grad().data()[1].is_nan());
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn wrong_length_rejected() {
        let mut a = Param::new(Tensor::zeros(&[2]));
        set_values_from_vec(&mut [&mut a], &[1.0, 2.0, 3.0]);
    }
}
