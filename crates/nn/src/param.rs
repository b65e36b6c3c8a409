//! Trainable parameters: a value tensor paired with its gradient
//! accumulator.

use std::ops::{Deref, Range};
use tensor::Tensor;

/// One trainable parameter of a layer.
#[derive(Debug, Clone)]
pub struct Param {
    pub value: Tensor,
    pub grad: Tensor,
}

impl Param {
    /// Wraps an initial value with a zeroed gradient of the same shape.
    pub fn new(value: Tensor) -> Self {
        let grad = Tensor::zeros(value.shape());
        Param { value, grad }
    }

    /// Number of scalar parameters.
    pub fn numel(&self) -> usize {
        self.value.numel()
    }

    /// Resets the gradient accumulator to zero.
    pub fn zero_grad(&mut self) {
        self.grad.data_mut().fill(0.0);
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
        out.extend_from_slice(p.grad.data());
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
        out[off..off + n].copy_from_slice(p.grad.data());
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
        p.grad.data_mut().copy_from_slice(&flat[off..off + n]);
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
        a.grad.data_mut().copy_from_slice(&[0.1, 0.2]);
        b.grad.data_mut().copy_from_slice(&[0.3, 0.4, 0.5]);

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
        assert_eq!(b.grad.data(), &[12.0, 13.0, 14.0]);
    }

    #[test]
    fn zero_grad_clears() {
        let mut p = Param::new(Tensor::ones(&[3]));
        p.grad.data_mut().fill(7.0);
        p.zero_grad();
        assert!(p.grad.data().iter().all(|&x| x == 0.0));
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn wrong_length_rejected() {
        let mut a = Param::new(Tensor::zeros(&[2]));
        set_values_from_vec(&mut [&mut a], &[1.0, 2.0, 3.0]);
    }
}
