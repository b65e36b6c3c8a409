//! The [`Layer`] trait and structural layers ([`Sequential`],
//! [`Residual`], [`Flatten`]).

use crate::param::Param;
use tensor::Tensor;

/// A differentiable layer.
///
/// `forward` caches whatever the backward pass needs; `backward` consumes
/// the upstream gradient, **accumulates** parameter gradients into its
/// [`Param`]s and returns the gradient with respect to its input. A
/// product added whole goes through [`Param::accumulate`], which forms it
/// straight in an accumulator that `zero_grad` left at `+0.0` and in a
/// zeroed temporary otherwise, with equal bits either way.
///
/// Every layer is `Clone` (through [`LayerClone`], so a boxed stack
/// clones too): a clone is an independent replica with the same
/// parameters, state and scratch, which is how the serving tier runs one
/// loaded model on several threads at once.
pub trait Layer: Send + LayerClone {
    /// Forward pass. `train` toggles training-time behaviour
    /// (dropout masks, batch-norm statistics).
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor;

    /// Backward pass; must be preceded by a `forward` on the same input.
    fn backward(&mut self, grad_out: &Tensor) -> Tensor;

    /// The layer's trainable parameters (empty for stateless layers).
    fn params(&self) -> Vec<&Param> {
        Vec::new()
    }

    /// Mutable access to the trainable parameters.
    fn params_mut(&mut self) -> Vec<&mut Param> {
        Vec::new()
    }

    /// Short display name.
    fn name(&self) -> &'static str;

    /// Length of the layer's non-trainable state (e.g. batch-norm
    /// running statistics). Zero for stateless layers.
    fn state_len(&self) -> usize {
        0
    }

    /// Serialises the non-trainable state (length `state_len()`).
    fn state(&self) -> Vec<f32> {
        Vec::new()
    }

    /// Restores non-trainable state written by [`Layer::state`].
    fn set_state(&mut self, state: &[f32]) {
        assert!(state.is_empty(), "layer has no state to restore");
    }
}

/// Object-safe cloning for [`Layer`]: implemented for every
/// `Layer + Clone`, it lets `Box<dyn Layer>` (and so [`Sequential`])
/// implement `Clone`.
pub trait LayerClone {
    /// A boxed clone of `self`.
    fn clone_box(&self) -> Box<dyn Layer>;
}

impl<T: Layer + Clone + 'static> LayerClone for T {
    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

impl Clone for Box<dyn Layer> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// A chain of layers applied in order.
#[derive(Clone)]
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
}

impl Sequential {
    pub fn new() -> Self {
        Sequential { layers: Vec::new() }
    }

    /// Appends a layer (builder style).
    pub fn push(mut self, layer: impl Layer + 'static) -> Self {
        self.layers.push(Box::new(layer));
        self
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether the model has no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Total scalar parameter count.
    pub fn param_count(&self) -> usize {
        self.params().iter().map(|p| p.numel()).sum()
    }

    /// Zeroes every parameter gradient.
    pub fn zero_grad(&mut self) {
        for p in self.params_mut() {
            p.zero_grad();
        }
    }

    /// Flattened parameter values in deterministic order.
    pub fn values_vec(&self) -> Vec<f32> {
        crate::param::values_to_vec(&self.params())
    }

    /// Flattened gradients in deterministic order.
    pub fn grads_vec(&self) -> Vec<f32> {
        crate::param::grads_to_vec(&self.params())
    }

    /// Overwrites all parameter values from a flat vector.
    pub fn set_values(&mut self, flat: &[f32]) {
        crate::param::set_values_from_vec(&mut self.params_mut(), flat);
    }

    /// Overwrites all gradients from a flat vector (after allreduce).
    pub fn set_grads(&mut self, flat: &[f32]) {
        crate::param::set_grads_from_vec(&mut self.params_mut(), flat);
    }

    /// Inference convenience: forward in eval mode.
    pub fn predict(&mut self, input: &Tensor) -> Tensor {
        self.forward(input, false)
    }

    /// Per-top-level-layer spans into the flat parameter order of
    /// [`Sequential::grads_vec`]: entry `i` is the `[start, end)` range
    /// of layer `i`'s scalars (empty span for stateless layers). Gradient
    /// fusion buckets align to these boundaries.
    pub fn layer_param_spans(&self) -> Vec<(usize, usize)> {
        let mut spans = Vec::with_capacity(self.layers.len());
        let mut off = 0;
        for layer in &self.layers {
            let n: usize = layer.params().iter().map(|p| p.numel()).sum();
            spans.push((off, off + n));
            off += n;
        }
        spans
    }

    /// Backward pass with a per-layer completion hook: `after_layer(i)`
    /// fires right after top-level layer `i` finishes its backward (and
    /// its parameter gradients are final). Layers run back-to-front, so
    /// the hook sees indices `len()-1, …, 0` — exactly the order the
    /// fused gradient exchange flushes its buckets in.
    pub fn backward_with(
        &mut self,
        grad_out: &Tensor,
        mut after_layer: impl FnMut(usize, &dyn Layer),
    ) -> Tensor {
        let mut layers = self.layers.iter_mut().enumerate().rev();
        let Some((i, last)) = layers.next() else {
            return grad_out.clone();
        };
        let mut g = last.backward(grad_out);
        after_layer(i, &**last);
        for (i, layer) in layers {
            g = layer.backward(&g);
            after_layer(i, &**layer);
        }
        g
    }
}

impl Default for Sequential {
    fn default() -> Self {
        Self::new()
    }
}

impl Layer for Sequential {
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        let Some((first, rest)) = self.layers.split_first_mut() else {
            return input.clone();
        };
        let mut x = first.forward(input, train);
        for layer in rest {
            x = layer.forward(&x, train);
        }
        x
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        self.backward_with(grad_out, |_, _| {})
    }

    fn params(&self) -> Vec<&Param> {
        self.layers.iter().flat_map(|l| l.params()).collect()
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        self.layers.iter_mut().flat_map(|l| l.params_mut()).collect()
    }

    fn name(&self) -> &'static str {
        "Sequential"
    }

    fn state_len(&self) -> usize {
        self.layers.iter().map(|l| l.state_len()).sum()
    }

    fn state(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.state_len());
        for l in &self.layers {
            out.extend(l.state());
        }
        out
    }

    fn set_state(&mut self, state: &[f32]) {
        let mut off = 0;
        for l in &mut self.layers {
            let n = l.state_len();
            l.set_state(&state[off..off + n]);
            off += n;
        }
        assert_eq!(off, state.len(), "state vector length mismatch");
    }
}

/// A residual block: `output = main(x) + x`. The inner stack must be
/// shape-preserving (as in the identity blocks of ResNet-50).
#[derive(Clone)]
pub struct Residual {
    main: Sequential,
}

impl Residual {
    pub fn new(main: Sequential) -> Self {
        Residual { main }
    }
}

impl Layer for Residual {
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        let mut out = self.main.forward(input, train);
        assert_eq!(
            out.shape(),
            input.shape(),
            "residual branch must preserve shape"
        );
        out.add_assign(input);
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        // d/dx [f(x) + x] = f'(x)·g + g
        let mut g = self.main.backward(grad_out);
        g.add_assign(grad_out);
        g
    }

    fn params(&self) -> Vec<&Param> {
        self.main.params()
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        self.main.params_mut()
    }

    fn name(&self) -> &'static str {
        "Residual"
    }

    fn state_len(&self) -> usize {
        self.main.state_len()
    }

    fn state(&self) -> Vec<f32> {
        self.main.state()
    }

    fn set_state(&mut self, state: &[f32]) {
        self.main.set_state(state);
    }
}

/// Flattens `(N, …)` to `(N, prod(…))` and restores the shape on the way
/// back.
#[derive(Clone)]
pub struct Flatten {
    input_shape: Vec<usize>,
}

impl Flatten {
    pub fn new() -> Self {
        Flatten {
            input_shape: Vec::new(),
        }
    }
}

impl Default for Flatten {
    fn default() -> Self {
        Self::new()
    }
}

impl Layer for Flatten {
    fn forward(&mut self, input: &Tensor, _train: bool) -> Tensor {
        self.input_shape = input.shape().to_vec();
        let n = input.shape()[0];
        let rest: usize = input.shape()[1..].iter().product();
        Tensor::from_vec(input.data().to_vec(), &[n, rest])
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        Tensor::from_vec(grad_out.data().to_vec(), &self.input_shape)
    }

    fn name(&self) -> &'static str {
        "Flatten"
    }
}

#[cfg(test)]
pub(crate) mod testing {
    //! A rewritten layer against the implementation it replaced, which
    //! its module keeps verbatim under `#[cfg(test)]` as a [`Layer`].

    use super::*;
    use crate::recurrent::testing::{assert_same, sprinkle, FLAVOURS};
    use tensor::Rng;

    /// Everything observable about `layer` over two training passes with
    /// no `zero_grad` between them (so the order gradients accumulate in
    /// shows) and then an eval forward: outputs, input gradients, every
    /// parameter gradient and the non-trainable state (batch-norm
    /// statistics, dropout's keystream position) after each.
    fn trace(mut layer: impl Layer, io: &[(Tensor, Tensor)], kinds: usize) -> Vec<Tensor> {
        let mut rng = Rng::seed(7);
        for p in layer.params_mut() {
            p.value = rng.normal_tensor(p.value.shape(), 1.0);
            sprinkle(&mut p.value, 900, kinds.min(2), 5);
        }
        let mut seen = Vec::new();
        let mut observe = |layer: &dyn Layer, out: Vec<Tensor>| {
            seen.extend(out);
            seen.extend(layer.params().iter().map(|p| p.grad().clone()));
            seen.push(Tensor::from_vec(layer.state(), &[layer.state_len()]));
        };
        for (x, g) in io {
            let y = layer.forward(x, true);
            let dx = layer.backward(g);
            observe(&layer, vec![y, dx]);
        }
        let y = layer.forward(&io[0].0, false);
        observe(&layer, vec![y]);
        seen
    }

    /// `new()` ≡ `oracle()` to the bit, and pool-on ≡ [`rayon::serial_scope`],
    /// on every `(input shape, output shape)`: finite inputs, then `±0.0`
    /// in about one element in five (what a zero-skipping kernel and
    /// `x.max(0.0)` care about), then NaN and `±inf` in one in 401.
    pub(crate) fn layer_matches_oracle<A: Layer, B: Layer>(
        new: impl Fn() -> A,
        oracle: impl Fn() -> B,
        shapes: &[(&[usize], &[usize])],
    ) {
        let _ = rayon::init_with_threads(4);
        let mut rng = Rng::seed(23);
        for &(in_shape, out_shape) in shapes {
            for (flavour, kinds, every) in FLAVOURS {
                let io = [1, 2].map(|salt| {
                    let mut x = rng.normal_tensor(in_shape, 1.0);
                    let mut g = rng.normal_tensor(out_shape, 1.0);
                    sprinkle(&mut x, salt, kinds, every);
                    sprinkle(&mut g, salt + 500, kinds, every);
                    (x, g)
                });
                let ctx = format!("{in_shape:?} {flavour}");
                let got = trace(new(), &io, kinds);
                assert_same(&got, &trace(oracle(), &io, kinds), &ctx);
                let off = rayon::serial_scope(|| trace(new(), &io, kinds));
                assert_same(&off, &got, &format!("{ctx} pool off"));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::Dense;
    use crate::Relu;
    use tensor::Rng;

    #[test]
    fn sequential_chains_forward_and_backward() {
        let mut rng = Rng::seed(1);
        let mut model = Sequential::new()
            .push(Dense::new(4, 8, &mut rng))
            .push(Relu::new())
            .push(Dense::new(8, 2, &mut rng));
        assert_eq!(model.len(), 3);
        assert_eq!(model.param_count(), 4 * 8 + 8 + 8 * 2 + 2);

        let x = rng.normal_tensor(&[5, 4], 1.0);
        let y = model.forward(&x, true);
        assert_eq!(y.shape(), &[5, 2]);
        let gx = model.backward(&Tensor::ones(&[5, 2]));
        assert_eq!(gx.shape(), &[5, 4]);
    }

    #[test]
    fn values_and_grads_roundtrip_through_flat_vecs() {
        let mut rng = Rng::seed(2);
        let mut model = Sequential::new().push(Dense::new(3, 3, &mut rng));
        let v = model.values_vec();
        assert_eq!(v.len(), 12);
        let new: Vec<f32> = (0..12).map(|i| i as f32).collect();
        model.set_values(&new);
        assert_eq!(model.values_vec(), new);
        model.set_grads(&new);
        assert_eq!(model.grads_vec(), new);
        model.zero_grad();
        assert!(model.grads_vec().iter().all(|&g| g == 0.0));
    }

    #[test]
    fn layer_param_spans_tile_the_flat_gradient() {
        let mut rng = Rng::seed(7);
        let model = Sequential::new()
            .push(Dense::new(4, 8, &mut rng))
            .push(Relu::new())
            .push(Dense::new(8, 2, &mut rng));
        let spans = model.layer_param_spans();
        assert_eq!(spans, vec![(0, 40), (40, 40), (40, 58)]);
        assert_eq!(spans.last().unwrap().1, model.param_count());
    }

    #[test]
    fn backward_with_matches_backward_and_fires_back_to_front() {
        let mut rng = Rng::seed(8);
        let make = |rng: &mut Rng| {
            Sequential::new()
                .push(Dense::new(4, 8, rng))
                .push(Relu::new())
                .push(Dense::new(8, 2, rng))
        };
        let mut a = make(&mut rng);
        let mut rng2 = Rng::seed(8);
        let mut b = make(&mut rng2);
        let x = rng.normal_tensor(&[5, 4], 1.0);
        let g = Tensor::ones(&[5, 2]);
        a.forward(&x, true);
        b.forward(&x, true);

        let ga = a.backward(&g);
        let mut order = Vec::new();
        let gb = b.backward_with(&g, |i, layer| {
            order.push((i, layer.name()));
        });
        assert_eq!(ga, gb);
        assert_eq!(a.grads_vec(), b.grads_vec());
        assert_eq!(order, vec![(2, "Dense"), (1, "ReLU"), (0, "Dense")]);
    }

    #[test]
    fn a_cloned_model_predicts_bit_equal_and_trains_apart_from_its_source() {
        use crate::optim::{Optimizer, Sgd};
        let mut rng = Rng::seed(9);
        let mut source = crate::models::covidnet_lite(1, 3, &mut rng);
        let x = rng.normal_tensor(&[2, 1, 16, 16], 1.0);
        // A training step first, so the clone also copies warm scratch
        // and non-default batch-norm statistics.
        let y = source.forward(&x, true);
        source.backward(&Tensor::ones(y.shape()));
        let (values, state) = (source.values_vec(), source.state());

        let mut clone = source.clone();
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&clone.predict(&x)), bits(&source.predict(&x)));

        let mut opt = Sgd::new(0.1, 0.9, 0.0);
        let y = clone.forward(&x, true);
        clone.backward(&Tensor::ones(y.shape()));
        opt.step(&mut clone.params_mut());
        assert_ne!(clone.values_vec(), values, "the step moved the clone");
        assert_eq!(source.values_vec(), values, "the step reached the source");
        assert_eq!(
            source.state(),
            state,
            "the clone's statistics reached the source"
        );
    }

    #[test]
    fn residual_adds_skip_path() {
        // Main branch = Dense initialised to zero ⇒ output == input and
        // input gradient == upstream gradient (identity skip).
        let mut rng = Rng::seed(3);
        let mut dense = Dense::new(4, 4, &mut rng);
        for p in dense.params_mut() {
            p.value.data_mut().fill(0.0);
        }
        let mut block = Residual::new(Sequential::new().push(dense));
        let x = rng.normal_tensor(&[2, 4], 1.0);
        let y = block.forward(&x, true);
        assert_eq!(y, x);
        let g = rng.normal_tensor(&[2, 4], 1.0);
        let gx = block.backward(&g);
        assert_eq!(gx, g);
    }

    #[test]
    fn flatten_roundtrips_shape() {
        let mut f = Flatten::new();
        let x = Tensor::zeros(&[2, 3, 4, 5]);
        let y = f.forward(&x, true);
        assert_eq!(y.shape(), &[2, 60]);
        let g = f.backward(&Tensor::ones(&[2, 60]));
        assert_eq!(g.shape(), &[2, 3, 4, 5]);
    }
}
