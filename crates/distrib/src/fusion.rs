//! Horovod-style gradient bucket fusion.
//!
//! Horovod's tensor-fusion buffer coalesces small gradients into few
//! large allreduces and launches each as soon as the layers feeding it
//! have finished backward. This module provides the deterministic core:
//! [`FusionConfig`] (the fusion threshold + overlap switch, a [`Trainer`]
//! option) and [`FusionBuffer`], which partitions the flat gradient into
//! size-targeted, **layer-aligned** buckets. It owns no memory: the
//! buckets tile the caller's flat buffer, [`FusionBuffer::segments`]
//! lends one `&mut [f32]` per bucket, and a finished bucket is packed and
//! reduced in place.
//!
//! Bucket boundary rules:
//! * buckets are contiguous ranges of the flat gradient, covering whole
//!   top-level layers — a parameter tensor is never split;
//! * a bucket closes once it holds ≥ `bucket_bytes` of gradient, so every
//!   bucket except possibly the last meets the threshold;
//! * backward runs back-to-front, so buckets become ready in descending
//!   ("flush") order, the same on every rank; a bucket is complete right
//!   after the backward of its lowest-indexed parameterised layer
//!   ([`Bucket::first_layer`]).
//!
//! Bit-exactness across bucket counts rests on the default exchange
//! being partition-invariant: the trainer reduces every bucket with
//! `msa_net::collectives::pipeline_reduce_scatter_mean`, whose
//! element-wise fold order depends only on rank order, never on how the
//! flat gradient was cut, with the division by the rank count done in
//! the last fold (see `msa_net::collectives::pipeline_allreduce`).
//! `experiments comm` (`BENCH_pr5.json`) measures fusion: wire totals,
//! steady-state allocations, parameter hashes per fusion threshold and
//! the modeled overlap speedup of a ResNet-ratio workload.
//!
//! [`Trainer`]: crate::trainer::Trainer

use crate::compress::{sparse_allreduce_mean, TopKCompressor};
use msa_net::codec::bf16_allreduce;
use msa_net::tune::{tuned_allreduce, DecisionTable};
use msa_net::{collectives, Arena, Communicator, GradCodec};
use nn::Layer;
use std::sync::Arc;

/// Which allreduce each fusion bucket dispatches through.
///
/// The default keeps the PR 5 contract: every bucket goes through the
/// pipeline chain, whose fold order is partition-invariant, so the result
/// is bit-identical for *every* `bucket_bytes`; with the dense codec the
/// trainer runs it as a reduce-scatter and steps each rank's shard
/// (see [`crate::trainer`]). `Tuned` trades
/// that cross-partition guarantee for measured speed: each bucket runs
/// the decision table's winner for its (ranks, bytes). Selection depends
/// only on the bucket's byte length, so the fused and serialized paths
/// of the *same* partition still pick identical algorithms bucket for
/// bucket — fused ≡ serialized stays bit-exact per partition; only
/// equality *across different* `bucket_bytes` is given up (different
/// algorithms fold in different orders).
#[derive(Debug, Clone, Default)]
pub enum ExchangeDispatch {
    /// Partition-invariant pipeline chain for every bucket (PR 5
    /// behaviour, bit-identical across bucket sizes).
    #[default]
    Pipeline,
    /// Per-bucket measured-winner dispatch through a
    /// [`msa_net::tune::DecisionTable`].
    Tuned(Arc<DecisionTable>),
}

impl ExchangeDispatch {
    /// Wraps a decision table for tuned dispatch.
    pub fn tuned(table: DecisionTable) -> Self {
        ExchangeDispatch::Tuned(Arc::new(table))
    }

    /// Allreduce-**mean** of one bucket segment under a wire codec.
    ///
    /// * [`GradCodec::Dense32`] — the configured dispatch followed by
    ///   the division by `size()`: exactly the seed sequence,
    ///   bit-identical to the pre-codec trainer. Under
    ///   [`ExchangeDispatch::Pipeline`] the division happens inside the
    ///   chain ([`collectives::pipeline_allreduce_mean`]), as each final
    ///   sum is written out — the same bits without a pass of its own.
    /// * [`GradCodec::Bf16`] — the bf16-wire pipeline chain (half the
    ///   wire bytes; partition-invariant like the dense chain, so
    ///   bit-equality across bucket sizes is preserved), then the same
    ///   division. `scratch` holds its decoded running sum.
    /// * [`GradCodec::SparseTopK`] — [`sparse_allreduce_mean`] with this
    ///   bucket's error-feedback `compressor` (required; the residual is
    ///   per-bucket state). The sparse path divides internally.
    ///
    /// The division lives here so every codec leaves the segment holding
    /// the *mean* — callers never divide.
    pub fn reduce_bucket_codec<C: Communicator + ?Sized>(
        &self,
        c: &C,
        seg: &mut [f32],
        scratch: &mut Arena,
        codec: GradCodec,
        compressor: Option<&mut TopKCompressor>,
    ) {
        match (codec, self) {
            (GradCodec::Dense32, ExchangeDispatch::Pipeline) => {
                return collectives::pipeline_allreduce_mean(c, seg)
            }
            (GradCodec::Dense32, ExchangeDispatch::Tuned(table)) => {
                tuned_allreduce(c, seg, table)
            }
            (GradCodec::Bf16, _) => bf16_allreduce(c, seg, scratch),
            (GradCodec::SparseTopK { .. }, _) => {
                let comp = compressor
                    // lint: allow(unwrap) -- the trainer builds one compressor per bucket whenever the sparse codec is selected
                    .expect("SparseTopK needs this bucket's error-feedback compressor");
                return sparse_allreduce_mean(c, seg, comp);
            }
        }
        let n = c.size() as f32;
        for x in seg.iter_mut() {
            *x /= n;
        }
    }
}

/// How the trainer exchanges gradients.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FusionConfig {
    /// Fusion-buffer target in bytes (Horovod's fusion threshold).
    /// `None` — the default — keeps the seed behaviour: one
    /// whole-gradient exchange after backward completes.
    pub bucket_bytes: Option<usize>,
    /// Drain the queue of finished buckets beside the remaining backward
    /// pass (on a thread-pool lane) instead of after it, and price the
    /// step as `max(compute_tail, comm)` per bucket. Same reduce calls in
    /// the same order either way.
    pub overlap: bool,
}

impl FusionConfig {
    /// The serialized seed schedule: one exchange after backward.
    pub fn unfused() -> Self {
        Self::default()
    }

    /// Fused + overlapped exchange with the given fusion threshold.
    pub fn fused(bucket_bytes: usize) -> Self {
        assert!(bucket_bytes > 0, "fusion threshold must be positive");
        FusionConfig {
            bucket_bytes: Some(bucket_bytes),
            overlap: true,
        }
    }

    /// Overrides the overlap switch (builder style).
    pub fn overlap(mut self, on: bool) -> Self {
        self.overlap = on;
        self
    }
}

/// One fusion bucket: a layer-aligned contiguous range of the flat
/// gradient.
#[derive(Debug)]
pub struct Bucket {
    /// Flat gradient range `[start, end)` this bucket covers.
    pub start: usize,
    pub end: usize,
    /// Lowest-indexed top-level layer with parameters in this bucket.
    /// Backward visits layers in descending order, so the bucket's
    /// gradients are final right after this layer's backward.
    pub first_layer: usize,
}

impl Bucket {
    /// Scalars in this bucket.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the bucket covers no parameters (never constructed).
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

/// Layer-aligned partition of the flat gradient into fusion buckets.
#[derive(Debug)]
pub struct FusionBuffer {
    buckets: Vec<Bucket>,
    /// `spans[i]` = layer `i`'s `[start, end)` range of the flat
    /// gradient (empty span for stateless layers).
    spans: Vec<(usize, usize)>,
    /// `bucket_of[i]` = index of the bucket holding layer `i`'s
    /// parameters (meaningless for empty spans).
    bucket_of: Vec<usize>,
}

impl FusionBuffer {
    /// Partitions `total` flat gradient scalars, laid out as
    /// `layer_spans` (from [`nn::Sequential::layer_param_spans`]), into
    /// buckets of at least `bucket_bytes` (`None` ⇒ one bucket). Models
    /// with no parameters yield zero buckets.
    pub fn new(layer_spans: &[(usize, usize)], total: usize, bucket_bytes: Option<usize>) -> Self {
        debug_assert_eq!(layer_spans.last().map_or(0, |s| s.1), total);
        let threshold = bucket_bytes.unwrap_or(usize::MAX);
        let mut buckets: Vec<Bucket> = Vec::new();
        let mut bucket_of = vec![usize::MAX; layer_spans.len()];
        let mut open: Option<Bucket> = None;
        for (i, &(start, end)) in layer_spans.iter().enumerate() {
            if start == end {
                continue;
            }
            let b = open.get_or_insert(Bucket {
                start,
                end: start,
                first_layer: i,
            });
            b.end = end;
            bucket_of[i] = buckets.len();
            if (b.end - b.start) * size_of::<f32>() >= threshold {
                // lint: allow(unwrap) -- `open` was just populated above
                buckets.push(open.take().expect("bucket is open"));
            }
        }
        if let Some(b) = open {
            buckets.push(b);
        }
        FusionBuffer {
            buckets,
            spans: layer_spans.to_vec(),
            bucket_of,
        }
    }

    /// The buckets in ascending flat order.
    pub fn buckets(&self) -> &[Bucket] {
        &self.buckets
    }

    /// Splits `flat` into one segment per bucket, in bucket order. The
    /// buckets tile the flat gradient, so the segments are disjoint and
    /// cover it exactly.
    pub fn segments<'a>(&self, flat: &'a mut [f32]) -> Vec<&'a mut [f32]> {
        assert_eq!(flat.len(), self.spans.last().map_or(0, |s| s.1));
        let mut rest = flat;
        let cut = |b: &Bucket| {
            let (seg, tail) = std::mem::take(&mut rest).split_at_mut(b.len());
            rest = tail;
            seg
        };
        self.buckets.iter().map(cut).collect()
    }

    /// Copies layer `i`'s parameter gradients into its place in `segs`
    /// (from [`FusionBuffer::segments`]). When this layer completes its
    /// bucket — backward order guarantees every other layer of the bucket
    /// has already been packed — the bucket's index and segment are moved
    /// out to the caller, ready to reduce.
    pub fn pack_layer<'a>(
        &self,
        i: usize,
        layer: &dyn Layer,
        segs: &mut [&'a mut [f32]],
    ) -> Option<(usize, &'a mut [f32])> {
        let (start, end) = self.spans[i];
        if start == end {
            return None;
        }
        let bidx = self.bucket_of[i];
        let b = &self.buckets[bidx];
        nn::param::copy_grads_into(
            &layer.params(),
            &mut segs[bidx][start - b.start..end - b.start],
        );
        (i == b.first_layer).then(|| (bidx, std::mem::take(&mut segs[bidx])))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unfused_is_one_bucket_covering_everything() {
        let spans = [(0, 40), (40, 40), (40, 58)];
        let fb = FusionBuffer::new(&spans, 58, None);
        assert_eq!(fb.buckets().len(), 1);
        let b = &fb.buckets()[0];
        assert_eq!((b.start, b.end, b.first_layer), (0, 58, 0));
        assert!(!b.is_empty());
    }

    #[test]
    fn buckets_align_to_layer_boundaries_and_meet_the_threshold() {
        // Layers of 10/6/0/8/4 floats, 32-byte threshold (8 floats).
        let spans = [(0, 10), (10, 16), (16, 16), (16, 24), (24, 28)];
        let fb = FusionBuffer::new(&spans, 28, Some(32));
        let got: Vec<(usize, usize, usize)> = fb
            .buckets()
            .iter()
            .map(|b| (b.start, b.end, b.first_layer))
            .collect();
        // Layer 0 alone meets the threshold; 1+3 fuse; 4 trails.
        assert_eq!(got, vec![(0, 10, 0), (10, 24, 1), (24, 28, 4)]);
        // Every bucket except the last meets the threshold.
        for b in &fb.buckets()[..fb.buckets().len() - 1] {
            assert!(b.len() * size_of::<f32>() >= 32);
        }
        // Buckets tile the flat gradient.
        assert_eq!(fb.buckets()[0].start, 0);
        assert_eq!(fb.buckets().last().unwrap().end, 28);
        for w in fb.buckets().windows(2) {
            assert_eq!(w[0].end, w[1].start);
        }
        // The segments are exactly those tiles of a flat buffer.
        let mut flat: Vec<f32> = (0..28).map(|i| i as f32).collect();
        let segs = fb.segments(&mut flat);
        assert_eq!(segs.len(), 3);
        for (seg, b) in segs.iter().zip(fb.buckets()) {
            assert_eq!((seg.len(), seg[0]), (b.len(), b.start as f32));
        }
    }

    #[test]
    fn tiny_threshold_gives_one_bucket_per_parameterised_layer() {
        let spans = [(0, 3), (3, 3), (3, 7), (7, 12)];
        let fb = FusionBuffer::new(&spans, 12, Some(1));
        assert_eq!(fb.buckets().len(), 3);
        assert_eq!(fb.buckets()[1].first_layer, 2);
    }

    #[test]
    fn parameterless_model_has_no_buckets() {
        let fb = FusionBuffer::new(&[(0, 0), (0, 0)], 0, Some(1024));
        assert!(fb.buckets().is_empty());
        assert!(fb.segments(&mut []).is_empty());
    }

    #[test]
    fn packing_back_to_front_fills_flat_and_completes_buckets_in_descending_order() {
        let mut rng = tensor::Rng::seed(3);
        let mut model = nn::Sequential::new()
            .push(nn::Dense::new(5, 4, &mut rng))
            .push(nn::Relu::new())
            .push(nn::Dense::new(4, 3, &mut rng))
            .push(nn::Dense::new(3, 2, &mut rng));
        let out = model.forward(&rng.normal_tensor(&[6, 5], 1.0), true);
        // Layers of 24/0/15/8 floats, 64-byte threshold: 0 alone, 2+3 fuse.
        let fb = FusionBuffer::new(&model.layer_param_spans(), model.param_count(), Some(64));
        let mut flat = vec![f32::NAN; model.param_count()];
        let mut segs = fb.segments(&mut flat);
        let mut completed = Vec::new();
        model.backward_with(&out, |i, layer| {
            if let Some((bidx, seg)) = fb.pack_layer(i, layer, &mut segs) {
                assert_eq!(seg.len(), fb.buckets()[bidx].len());
                completed.push(bidx);
            }
        });
        assert_eq!(completed, vec![1, 0]);
        assert_eq!(flat, model.grads_vec());
    }
}
