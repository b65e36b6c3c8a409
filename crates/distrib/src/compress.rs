//! Gradient compression: top-k sparsification with error feedback.
//!
//! The paper points at DeepSpeed as the successor to Horovod; a core part
//! of that lineage is cutting allreduce volume by communicating only the
//! largest gradient entries and accumulating the rest locally ("error
//! feedback"), which preserves convergence. This module provides:
//!
//! * [`top_k`] / [`densify`] — the sparsification primitives;
//! * [`TopKCompressor`] — per-rank compressor with an error-feedback
//!   residual and **reusable wire slabs**: selection scratch, the
//!   [`WirePair`] payload and the gather buffer all live on the
//!   compressor, so a steady-state [`sparse_allreduce_mean`] performs
//!   zero heap allocation (`msa-lint`'s alloc-in-kernel rule covers this
//!   file);
//! * [`sparse_allreduce_mean`] — a real sparse gradient exchange over any
//!   [`Communicator`] (equal-block allgather of [`WirePair`]s, since
//!   sparse sums don't fit the dense ring);
//! * a cost comparison hook: the communicated volume per step drops from
//!   `4·n` bytes to `8·k`.
//!
//! # The exchange
//!
//! Under `GradCodec::SparseTopK` each rank contributes an equal block of
//! `2k` wire words to an allgather, and every rank then folds all `p`
//! blocks and divides. Equal blocks keep the exchange a fixed-size
//! collective the stats layer can price; a dense ring over a 1 %-sparse
//! vector would ship the zeros back. The compressor's error-feedback
//! residual carries what the wire drops this step into the next step's
//! selection, which is why 1 % top-k still converges. [`TopKCompressor::k`]
//! floors at 1, so a tiny bucket under a small ratio still ships one
//! pair. The trainer's only codec-aware code is the reduce lane of its
//! exchange: the default dense exchange reduce-scatters each bucket to
//! its owners, and the other codecs go through
//! [`crate::ExchangeDispatch::reduce_bucket_codec`], so all three codecs
//! share the serialized and overlapped schedules and the dense path is
//! unchanged.
//!
//! # Selection
//!
//! [`top_k`] and the compressor share one routine, `select_top_k`, which
//! costs about one streaming pass over the residual:
//!
//! 1. **Key.** An entry's magnitude key is its bit pattern with the sign
//!    cleared, `x.to_bits() & 0x7FFF_FFFF`. IEEE total order on
//!    non-negative floats is the integer order of their bits, so comparing
//!    keys is exactly `x.abs().total_cmp(&y.abs())`: ±0.0 both key 0, and
//!    every NaN keys above ±inf.
//! 2. **Lower bound.** One post-feedback key per 64-entry block is
//!    sampled (the same f32 add the main pass does, at a hashed offset in
//!    the block), and the ⌈1.25·k/64⌉+8-th largest sample is the bound
//!    `lo`. At 1 % about 1.3 % of the entries reach it.
//! 3. **One fused pass** over 16-entry chunks adds the gradient into the
//!    residual, takes the chunk's largest key and, only when that reaches
//!    `lo`, appends the chunk's indices whose key is at least `lo`. The
//!    candidates come out ascending.
//! 4. **Fallback.** Fewer than `k` candidates makes every index a
//!    candidate: slower, same answer.
//! 5. **Exact select.** `select_nth_unstable` over the candidates under
//!    the total order below, then the `k` winners are sorted ascending.
//!
//! Every entry left out keys below `lo`, and so below every candidate:
//! with at least `k` candidates the top k are among them. The bound
//! therefore changes only the speed, never the output.
//!
//! **Tie rule: equal magnitudes at the k-th place go to the lowest
//! index.** Entries rank by key descending, then index ascending. The
//! earlier selection ran introselect over the whole index permutation and
//! kept whichever of several equal-magnitude entries it happened to leave
//! in front, which nothing could pin. Real gradients do tie across the
//! k-th place, so top-k training bits differ from that selection's in the
//! steps where one does; the dense and bf16 codecs never reach this code.
//!
//! Wire format: each entry ships as a [`WirePair`] — two `f32` transport
//! words holding the index bits and the value bits. Index words can
//! alias signalling NaNs, so they must only ever cross memcpy transports
//! (`ThreadComm` qualifies; a bits-preserved round-trip test in
//! `msa_net::codec` pins it) and never touch an arithmetic path.

use msa_net::{Communicator, WirePair};

/// Entries per chunk of the fused pass: one chunk-max test skips a chunk
/// without a candidate, which at 1 % is nearly every chunk.
const CHUNK: usize = 16;
/// The lower-bound sample takes one key per block of this many entries.
const SAMPLE_STRIDE: usize = 64;

/// Magnitude key: orders exactly as `x.abs().total_cmp`, NaN included.
fn key(x: f32) -> u32 {
    x.to_bits() & 0x7FFF_FFFF
}

/// The selection's total order as one integer: the key, then the
/// complemented index, so a larger rank is a larger magnitude or an equal
/// magnitude at a lower index.
fn rank(x: f32, i: u32) -> u64 {
    (u64::from(key(x)) << 32) | u64::from(!i)
}

/// Indices and values of the `k` largest-magnitude entries (indices
/// ascending; ties at the k-th place go to the lowest index). Degenerate
/// requests — `k == 0` or an empty gradient — yield an empty sparse
/// vector rather than panicking.
pub fn top_k(grad: &[f32], k: usize) -> (Vec<u32>, Vec<f32>) {
    let k = k.min(grad.len());
    let mut idx = vec![0; grad.len()];
    select_top_k(&mut grad.to_vec(), None, k, &mut Vec::new(), &mut idx);
    idx.truncate(k);
    let values = idx.iter().map(|&i| grad[i as usize]).collect();
    (idx, values)
}

/// Leaves in `idx[..k]`, ascending, the `k ≤ n` entries of `values` that
/// rank highest (see the module header); `idx` holds at least `n` slots.
/// With `feed`, first adds it into `values` element-wise, in the same
/// pass. `sample` needs room for `n/64` keys.
///
/// Returns whether the sampled bound admitted fewer than `k` candidates,
/// so that the exact select ran over every index.
fn select_top_k(
    values: &mut [f32],
    feed: Option<&[f32]>,
    k: usize,
    sample: &mut Vec<u32>,
    idx: &mut [u32],
) -> bool {
    let n = values.len();
    debug_assert!(k <= n && idx.len() >= n && feed.is_none_or(|g| g.len() == n));
    let lo = lower_bound(values, feed, k, sample);
    let (chunks, tail) = values.as_chunks_mut::<CHUNK>();
    let mut c = 0;
    for (j, chunk) in chunks.iter_mut().enumerate() {
        let base = j * CHUNK;
        if let Some(g) = feed {
            add_into(chunk, &g[base..base + CHUNK]);
        }
        c = push_candidates(chunk, base, lo, idx, c);
    }
    let base = n - tail.len();
    if let Some(g) = feed {
        add_into(tail, &g[base..]);
    }
    c = push_candidates(tail, base, lo, idx, c);

    let fell_back = c < k;
    if fell_back {
        c = n;
        idx[..n].iter_mut().zip(0..).for_each(|(slot, i)| *slot = i);
    }
    // `k == 0` admits no candidate, so here `k ≥ 1`.
    if k < c {
        let v = &*values;
        idx[..c].select_nth_unstable_by(k - 1, |&a, &b| {
            rank(v[b as usize], b).cmp(&rank(v[a as usize], a))
        });
        idx[..k].sort_unstable();
    }
    fell_back
}

/// The ⌈1.25·k/64⌉+8-th largest post-feedback key of one sample per
/// 64-entry block: 0 (everything qualifies) when there are too few
/// samples, and above every key when `k == 0`.
fn lower_bound(values: &[f32], feed: Option<&[f32]>, k: usize, sample: &mut Vec<u32>) -> u32 {
    if k == 0 {
        return u32::MAX;
    }
    let m = (5 * k).div_ceil(4 * SAMPLE_STRIDE) + 8;
    let at = (0..values.len() / SAMPLE_STRIDE).map(sample_index);
    sample.clear();
    match feed {
        Some(g) => sample.extend(at.map(|i| key(values[i] + g[i]))),
        None => sample.extend(at.map(|i| key(values[i]))),
    }
    if m > sample.len() {
        return 0;
    }
    *sample.select_nth_unstable_by(m - 1, |a, b| b.cmp(a)).1
}

/// Where block `j` is sampled: at an offset given by the top six bits of
/// a golden-ratio hash of `j`. A fixed offset would alias with a weight
/// matrix whose rows are a multiple of 64 long, showing the sample the
/// same few output units in every row; on the wide MLP's 2048×768 layer
/// that left a quarter of the selections below `k` candidates.
fn sample_index(j: usize) -> usize {
    j * SAMPLE_STRIDE + ((j as u32).wrapping_mul(0x9E37_79B9) >> 26) as usize
}

fn add_into(dst: &mut [f32], src: &[f32]) {
    for (d, &s) in dst.iter_mut().zip(src) {
        *d += s;
    }
}

/// Writes from `idx[c]` on the indices (offset by `base`) of `chunk`'s
/// entries whose key is at least `lo`, and returns the new count. One max
/// test usually rules the whole chunk out; past it the writes are
/// unconditional, so no branch depends on a single entry.
fn push_candidates(chunk: &[f32], base: usize, lo: u32, idx: &mut [u32], mut c: usize) -> usize {
    if chunk.iter().fold(0, |m, &x| m.max(key(x))) >= lo {
        for (i, &x) in (base..).zip(chunk) {
            idx[c] = i as u32;
            c += usize::from(key(x) >= lo);
        }
    }
    c
}

/// Scatters a sparse gradient back to a dense vector of length `len`.
pub fn densify(len: usize, indices: &[u32], values: &[f32]) -> Vec<f32> {
    assert_eq!(indices.len(), values.len());
    let mut out = vec![0.0f32; len];
    for (&i, &v) in indices.iter().zip(values) {
        out[i as usize] = v;
    }
    out
}

/// Per-rank compressor state: the error-feedback residual plus the
/// reusable selection/wire slabs (all sized once, so the per-step
/// exchange never allocates after warm-up).
pub struct TopKCompressor {
    residual: Vec<f32>,
    /// Fraction of entries communicated per step (0 < ratio ≤ 1).
    ratio: f64,
    /// Lower-bound sample: one key per 64-entry block.
    sample: Vec<u32>,
    /// One slot per entry (the fallback needs them all): the selection
    /// candidates, then the current step's winners ascending at the front.
    idx_scratch: Vec<u32>,
    /// The current step's wire payload: `2·k` [`WirePair`] words.
    payload: Vec<f32>,
    /// Gather buffer for every rank's payload (`p · 2k` words); grows on
    /// the first exchange (when the communicator size is first seen) and
    /// is reused verbatim afterwards.
    gathered: Vec<f32>,
}

impl TopKCompressor {
    pub fn new(param_len: usize, ratio: f64) -> Self {
        assert!(ratio > 0.0 && ratio <= 1.0, "ratio must be in (0, 1]");
        let mut c = TopKCompressor {
            residual: vec![0.0; param_len],
            ratio,
            sample: Vec::with_capacity(param_len / SAMPLE_STRIDE),
            idx_scratch: vec![0; param_len],
            payload: Vec::new(),
            gathered: Vec::new(),
        };
        c.payload.reserve(2 * c.k().min(param_len));
        c
    }

    /// Number of entries sent per step: `max(1, ⌈ratio · n⌉)`.
    ///
    /// The `.max(1)` **floor** is deliberate: a `ratio` near zero on a
    /// short gradient still ships one entry per step — error feedback
    /// needs a nonzero channel or the residual would grow forever. Two
    /// boundary consequences, pinned by regression tests:
    /// * a rank ships at least one 8-byte (index, value) entry per step,
    ///   however tiny the ratio;
    /// * for an *empty* parameter vector `k()` still reports the floor
    ///   of 1, but the actual selection (and the wire payload) is empty
    ///   — `k()` is the configured channel width, not the payload size.
    ///
    /// `msa_net::codec::sparse_k` mirrors this formula (clamped to `n`)
    /// so wire-byte pricing agrees with the real payload.
    pub fn k(&self) -> usize {
        ((self.residual.len() as f64 * self.ratio).ceil() as usize).max(1)
    }

    /// Adds `grad` into the residual, selects the top-k by magnitude into
    /// `idx_scratch`/`payload` (zeroing those residual entries), using
    /// only the pre-sized slabs — no heap allocation in steady state.
    fn select_into_payload(&mut self, grad: &[f32]) {
        assert_eq!(grad.len(), self.residual.len(), "gradient length changed");
        let k = self.k().min(grad.len());
        // Error feedback: what we failed to send last time rides along.
        let residual = &mut self.residual;
        select_top_k(
            residual,
            Some(grad),
            k,
            &mut self.sample,
            &mut self.idx_scratch,
        );
        self.payload.clear();
        self.payload.resize(2 * k, 0.0);
        for (slot, &i) in self.payload.chunks_exact_mut(2).zip(&self.idx_scratch) {
            WirePair::new(i, residual[i as usize]).to_words(slot);
            residual[i as usize] = 0.0;
        }
    }

    /// Compresses `grad` (adding the carried residual first) and records
    /// the new residual. Returns the sparse representation.
    ///
    /// This is the allocating convenience API (fresh `Vec`s per call);
    /// the hot exchange path is [`sparse_allreduce_mean`], which stays
    /// on the internal slabs.
    pub fn compress(&mut self, grad: &[f32]) -> (Vec<u32>, Vec<f32>) {
        self.select_into_payload(grad);
        self.payload
            .chunks_exact(2)
            .map(|w| {
                let pair = WirePair::from_words(w);
                (pair.index, pair.value())
            })
            .unzip()
    }
}

/// Sparse gradient averaging: every rank contributes its top-k (with its
/// own compressor), the union of contributions is summed and divided by
/// the rank count, and the dense average is written back into `grad`.
///
/// Note the division by `comm.size()` happens *here* — unlike the dense
/// paths, where the collective sums and the caller divides.
pub fn sparse_allreduce_mean<C: Communicator + ?Sized>(
    comm: &C,
    grad: &mut [f32],
    compressor: &mut TopKCompressor,
) {
    compressor.select_into_payload(grad);
    // Equal-block exchange: `k()` depends only on (length, ratio), which
    // every rank shares, so the payload length is uniform and the flat
    // equal-block allgather applies. Payload and gather buffer are the
    // compressor's slabs — zero allocation per step once `gathered` has
    // seen this communicator size (`resize` to an unchanged length is
    // free).
    let need = comm.size() * compressor.payload.len();
    compressor.gathered.resize(need, 0.0);
    comm.allgather_into(&compressor.payload, &mut compressor.gathered);
    let n = comm.size() as f32;
    grad.iter_mut().for_each(|g| *g = 0.0);
    // Rank blocks land in ascending order, so walking flat pairs keeps
    // the seed's accumulation order exactly.
    for pair_words in compressor.gathered.chunks_exact(2) {
        let pair = WirePair::from_words(pair_words);
        grad[pair.index as usize] += pair.value() / n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msa_net::{GradCodec, ThreadComm};

    #[test]
    fn top_k_picks_largest_magnitudes() {
        let g = [0.1, -5.0, 0.0, 3.0, -0.2];
        let (idx, vals) = top_k(&g, 2);
        assert_eq!(idx, vec![1, 3]);
        assert_eq!(vals, vec![-5.0, 3.0]);
        let dense = densify(5, &idx, &vals);
        assert_eq!(dense, vec![0.0, -5.0, 0.0, 3.0, 0.0]);
    }

    #[test]
    fn k_larger_than_len_is_clamped() {
        let g = [1.0, 2.0];
        let (idx, vals) = top_k(&g, 10);
        assert_eq!(idx.len(), 2);
        assert_eq!(vals, vec![1.0, 2.0]);
    }

    #[test]
    fn compressor_compress_matches_top_k_primitives() {
        // The slab path and the primitive agree, ties at the k-th place
        // included (the second gradient ties four ways for three slots).
        for grad in [
            [0.3f32, -2.5, 0.01, 4.0, -4.0, 0.7],
            [2.0, 0.5, -2.0, 2.0, -2.0, 1.0],
        ] {
            let mut c = TopKCompressor::new(grad.len(), 0.5);
            let (idx, vals) = c.compress(&grad);
            let (want_idx, want_vals) = top_k(&grad, 3);
            assert_eq!(idx, want_idx);
            assert_eq!(vals, want_vals);
        }
        assert_eq!(top_k(&[2.0, 0.5, -2.0, 2.0, -2.0, 1.0], 3).0, vec![0, 2, 3]);
    }

    /// The selection spelled out: a full sort by magnitude descending,
    /// then index ascending, keeping the first `k`.
    fn reference_top_k(v: &[f32], k: usize) -> Vec<u32> {
        let mut idx: Vec<u32> = (0..v.len() as u32).collect();
        idx.sort_by(|&a, &b| {
            let (x, y) = (v[a as usize].abs(), v[b as usize].abs());
            y.total_cmp(&x).then(a.cmp(&b))
        });
        idx.truncate(k.min(v.len()));
        idx.sort_unstable();
        idx
    }

    /// A compressor built on [`reference_top_k`]: returns the new
    /// residual's winners and values.
    fn reference_compress(residual: &mut [f32], grad: &[f32], k: usize) -> (Vec<u32>, Vec<f32>) {
        for (r, &g) in residual.iter_mut().zip(grad) {
            *r += g;
        }
        let idx = reference_top_k(residual, k);
        let vals = idx
            .iter()
            .map(|&i| std::mem::take(&mut residual[i as usize]))
            .collect();
        (idx, vals)
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Test inputs by flavour: plain normals, signed zeros, NaN/±inf
    /// sprinkles, subnormals, and long runs of equal magnitudes with
    /// mixed signs.
    fn flavoured(flavour: &str, len: usize, seed: u64) -> Vec<f32> {
        let mut rng = tensor::Rng::seed(seed);
        (0..len)
            .map(|_| {
                let sign = if rng.chance(0.5) { -1.0 } else { 1.0 };
                match flavour {
                    "normal" => rng.normal(),
                    "zeros" if rng.chance(0.8) => sign * 0.0,
                    "nan_inf" if rng.chance(0.02) => match rng.below(4) {
                        0 => f32::NAN,
                        1 => -f32::NAN,
                        2 => f32::from_bits(0x7F80_0001 + rng.below(1 << 22) as u32),
                        _ => sign * f32::INFINITY,
                    },
                    "subnormal" => sign * f32::from_bits(rng.below(0x7F_FFFF) as u32),
                    "ties" => sign * (1 + rng.below(3)) as f32,
                    _ => rng.normal() * 1e-3,
                }
            })
            .collect()
    }

    const FLAVOURS: [&str; 5] = ["normal", "zeros", "nan_inf", "subnormal", "ties"];

    #[test]
    fn selection_matches_a_full_sort_on_every_flavour() {
        for len in [0usize, 1, 15, 16, 17, 63, 64, 65, 1_000, 70_001] {
            for ratio in [0.001, 0.01, 0.3, 1.0] {
                for (f, flavour) in FLAVOURS.into_iter().enumerate() {
                    let grad = flavoured(flavour, len, (len * 8 + f) as u64);
                    let mut c = TopKCompressor::new(len, ratio);
                    let k = c.k().min(len);
                    let want = reference_top_k(&grad, k);
                    let (idx, vals) = top_k(&grad, k);
                    let label = format!("{flavour} len {len} ratio {ratio}");
                    assert_eq!(idx, want, "top_k: {label}");
                    let want_vals: Vec<f32> = want.iter().map(|&i| grad[i as usize]).collect();
                    assert_eq!(bits(&vals), bits(&want_vals), "top_k values: {label}");

                    let mut residual = vec![0.0; len];
                    let (want, want_vals) = reference_compress(&mut residual, &grad, k);
                    let (idx, vals) = c.compress(&grad);
                    assert_eq!(idx, want, "compress: {label}");
                    assert_eq!(bits(&vals), bits(&want_vals), "compress values: {label}");
                }
            }
        }
    }

    /// The selector without feedback: whether it fell back, and the
    /// winners.
    fn select(values: &[f32], k: usize) -> (bool, Vec<u32>) {
        let mut idx = vec![0; values.len()];
        let fell_back = select_top_k(&mut values.to_vec(), None, k, &mut Vec::new(), &mut idx);
        idx.truncate(k);
        (fell_back, idx)
    }

    #[test]
    fn sampled_bound_does_not_fall_back_on_a_plain_gradient() {
        let values = flavoured("normal", 70_001, 3);
        assert_eq!(select(&values, 701), (false, reference_top_k(&values, 701)));
        // Rows of 768 whose every 64th column is large, as a weight
        // gradient can be: a sample taken at fixed multiples of 64 would
        // see only those columns and set the bound among them.
        let mut values = flavoured("normal", 768 * 100, 4);
        for (i, v) in values.iter_mut().enumerate() {
            if i % 768 % 64 == 0 {
                *v *= 100.0;
            }
        }
        assert_eq!(select(&values, 768), (false, reference_top_k(&values, 768)));
    }

    #[test]
    fn ties_at_the_kth_place_go_to_the_lowest_index() {
        let (idx, vals) = top_k(&[3.0, -3.0, 1.0, 3.0], 2);
        assert_eq!(idx, vec![0, 1]);
        assert_eq!(vals, vec![3.0, -3.0]);
        let (idx, _) = TopKCompressor::new(4, 0.5).compress(&[3.0, -3.0, 1.0, 3.0]);
        assert_eq!(idx, vec![0, 1]);
    }

    #[test]
    fn fallback_selects_exactly_when_the_bound_admits_too_few() {
        // Large values only at the sampled indices: the bound lands among
        // them, so few of the 200 large entries pass it, and k = 300
        // forces the every-index select.
        let n = 64 * 200;
        let mut values = flavoured("small", n, 5);
        for j in 0..200 {
            values[sample_index(j)] = (100 + j) as f32 * if j % 2 == 0 { 1.0 } else { -1.0 };
        }
        assert_eq!(select(&values, 300), (true, reference_top_k(&values, 300)));
        let (idx, _) = top_k(&values, 300);
        assert_eq!(idx, reference_top_k(&values, 300));
    }

    #[test]
    fn error_feedback_residual_matches_a_reference_compressor() {
        // No NaN flavour: which payload `NaN + NaN` keeps is the
        // compiler's choice of operand order, not the selection's.
        for (f, flavour) in ["normal", "zeros", "subnormal", "ties"]
            .into_iter()
            .enumerate()
        {
            let n = 5_000;
            let mut c = TopKCompressor::new(n, 0.01);
            let mut residual = vec![0.0f32; n];
            for step in 0..10u64 {
                let grad = flavoured(flavour, n, 100 * f as u64 + step);
                let (want, want_vals) = reference_compress(&mut residual, &grad, c.k());
                let (idx, vals) = c.compress(&grad);
                assert_eq!(idx, want, "{flavour} step {step}");
                assert_eq!(bits(&vals), bits(&want_vals), "{flavour} step {step}");
                assert_eq!(bits(&c.residual), bits(&residual), "{flavour} step {step}");
            }
        }
    }

    #[test]
    fn error_feedback_conserves_mass() {
        // Everything not sent now is sent later: over many steps of a
        // constant gradient the total transmitted equals steps × grad.
        let mut c = TopKCompressor::new(10, 0.2); // k = 2
        let grad = vec![1.0f32; 10];
        let mut received = vec![0.0f32; 10];
        let steps = 50;
        for _ in 0..steps {
            let (idx, vals) = c.compress(&grad);
            assert_eq!(idx.len(), 2);
            for (&i, &v) in idx.iter().zip(&vals) {
                received[i as usize] += v;
            }
        }
        let total: f32 = received.iter().sum();
        // Conservation: everything injected is either sent or still in
        // the residual, so the outstanding mass is bounded by what the
        // 2-of-10 channel simply hasn't had time to drain.
        let outstanding: f32 = 10.0 * steps as f32 - total;
        assert!(
            outstanding <= 10.0 * steps as f32 * 0.8 + 1e-3,
            "residual never drained: {outstanding}"
        );
        // Per-coordinate fairness: every coordinate eventually gets sent.
        assert!(received.iter().all(|&r| r > 0.0), "{received:?}");
    }

    #[test]
    fn sparse_allreduce_matches_dense_for_ratio_one() {
        let out = ThreadComm::run(4, |comm| {
            use msa_net::PointToPoint as _;
            let grad: Vec<f32> = (0..16).map(|i| (comm.rank() + i) as f32).collect();
            let mut dense = grad.clone();
            comm.allreduce_mean(&mut dense);
            let mut sparse = grad;
            let mut c = TopKCompressor::new(16, 1.0);
            sparse_allreduce_mean(comm, &mut sparse, &mut c);
            (dense, sparse)
        });
        for (dense, sparse) in out {
            for (a, b) in dense.iter().zip(&sparse) {
                assert!((a - b).abs() < 1e-5, "{a} vs {b}");
            }
        }
    }

    #[test]
    fn sparse_allreduce_steady_state_allocates_nothing() {
        // The slabs must stop moving after the first exchange: same
        // pointer, same capacity, for ten further steps.
        ThreadComm::run(4, |comm| {
            let dim = 64;
            let mut c = TopKCompressor::new(dim, 0.1);
            let mut grad: Vec<f32> = (0..dim).map(|i| (i as f32).sin()).collect();
            sparse_allreduce_mean(comm, &mut grad, &mut c);
            let slabs = |c: &TopKCompressor| {
                (
                    (c.sample.as_ptr(), c.sample.capacity()),
                    (c.idx_scratch.as_ptr(), c.idx_scratch.capacity()),
                    (c.payload.as_ptr(), c.payload.capacity()),
                    (c.gathered.as_ptr(), c.gathered.capacity()),
                )
            };
            let fingerprints = slabs(&c);
            for s in 0..10 {
                grad.iter_mut().enumerate().for_each(|(i, g)| {
                    *g = ((i + s) as f32).cos();
                });
                sparse_allreduce_mean(comm, &mut grad, &mut c);
                assert_eq!(slabs(&c), fingerprints, "slab moved at step {s}");
            }
        });
    }

    #[test]
    fn compression_cuts_communication_volume() {
        let c = TopKCompressor::new(25_600_000, 0.01); // ResNet-50 size, 1%
        assert_eq!(c.k(), 256_000);
        // 8 wire bytes per entry against 4 per dense value: a 50× cut.
        assert_eq!(50 * 8 * c.k(), 4 * 25_600_000);
    }

    #[test]
    fn k_floor_pins_bytes_per_step_for_degenerate_ratios() {
        // ratio → 0 on a short gradient: the documented floor of one
        // entry (8 bytes), not zero.
        let c = TopKCompressor::new(10, 1e-9);
        assert_eq!(c.k(), 1);
        // A ratio that rounds up: ceil(3 · 0.5) = 2 entries.
        let c = TopKCompressor::new(3, 0.5);
        assert_eq!(c.k(), 2);
        // Empty parameter vector: k() reports the configured floor but
        // the selection — and therefore the wire payload — is empty.
        let mut c = TopKCompressor::new(0, 0.5);
        assert_eq!(c.k(), 1);
        let (idx, vals) = c.compress(&[]);
        assert!(idx.is_empty() && vals.is_empty());
    }

    #[test]
    fn wire_words_agree_with_grad_codec_pricing() {
        // The codec layer prices what the compressor actually ships: for
        // every (len, ratio), payload words == GradCodec wire words.
        for len in [1usize, 5, 64, 1000] {
            for ratio in [0.01, 0.1, 0.5, 1.0] {
                let mut c = TopKCompressor::new(len, ratio);
                let grad: Vec<f32> = (0..len).map(|i| i as f32 + 0.5).collect();
                c.select_into_payload(&grad);
                let codec = GradCodec::SparseTopK { ratio };
                assert_eq!(
                    c.payload.len(),
                    codec.wire_words(len),
                    "len {len} ratio {ratio}"
                );
            }
        }
    }

    #[test]
    fn sparse_training_signal_survives_compression() {
        // SGD on f(w) = ‖w − w*‖²/2 with 10% top-k + error feedback must
        // still converge (the error-feedback guarantee).
        let dim = 50;
        let target: Vec<f32> = (0..dim).map(|i| (i % 7) as f32 - 3.0).collect();
        let out = ThreadComm::run(2, |comm| {
            let mut w = vec![0.0f32; dim];
            let mut c = TopKCompressor::new(dim, 0.1);
            // Error feedback delays each coordinate by up to ~1/ratio
            // steps, so the *effective* step is staleness × lr; keep
            // lr small enough that it stays inside the stability region.
            for _ in 0..600 {
                let mut grad: Vec<f32> = w.iter().zip(&target).map(|(wi, ti)| wi - ti).collect();
                sparse_allreduce_mean(comm, &mut grad, &mut c);
                for (wi, g) in w.iter_mut().zip(&grad) {
                    *wi -= 0.1 * g;
                }
            }
            w
        });
        for w in out {
            let err: f32 = w
                .iter()
                .zip(&target)
                .map(|(a, b)| (a - b).powi(2))
                .sum::<f32>()
                .sqrt();
            assert!(err < 0.5, "compressed SGD failed to converge: err {err}");
        }
    }

    #[test]
    #[should_panic(expected = "ratio must be in")]
    fn zero_ratio_rejected() {
        let _ = TopKCompressor::new(10, 0.0);
    }

    #[test]
    fn degenerate_top_k_is_empty_not_a_panic() {
        // An empty gradient clamps any k to zero entries…
        let (idx, vals) = top_k(&[], 1);
        assert!(idx.is_empty() && vals.is_empty());
        let (idx, vals) = top_k(&[], 0);
        assert!(idx.is_empty() && vals.is_empty());
        // …and k = 0 on a non-empty gradient selects nothing.
        let (idx, vals) = top_k(&[1.0, -2.0, 3.0], 0);
        assert!(idx.is_empty() && vals.is_empty());
        // densify of the empty selection is the zero vector.
        assert_eq!(densify(3, &idx, &vals), vec![0.0; 3]);
    }
}
