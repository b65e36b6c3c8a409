//! Deterministic random tensor generation.
//!
//! Every stochastic component in the workspace (weight init, synthetic
//! datasets, annealers) is seeded explicitly so experiments are exactly
//! reproducible run-to-run — a prerequisite for the "accuracy is
//! preserved under data-parallel scaling" claims to be testable.

use crate::Tensor;
use rand::{Rng as _, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// A seedable RNG wrapper for tensor generation.
#[derive(Clone)]
pub struct Rng {
    inner: ChaCha8Rng,
}

impl Rng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed(seed: u64) -> Self {
        Rng {
            inner: ChaCha8Rng::seed_from_u64(seed),
        }
    }

    /// Absolute keystream position in 32-bit words (within the current
    /// stream). Together with the seed this fully identifies the
    /// generator state; checkpoints persist it so a resumed run replays
    /// the exact shuffling sequence.
    pub fn word_pos(&self) -> u64 {
        self.inner.word_pos()
    }

    /// Seeks to an absolute keystream word position, the inverse of
    /// [`Rng::word_pos`]. Seeking a same-seeded generator reproduces the
    /// stream bit-exactly from that point.
    pub fn set_word_pos(&mut self, pos: u64) {
        self.inner.set_word_pos(pos);
    }

    /// Keystream `stream` of the key `seed` expands to: each `(seed,
    /// stream)` pair is its own counter-mode sequence, so values keyed by
    /// an index can be drawn in any order, on any thread.
    pub fn keyed(seed: u64, stream: u64) -> Self {
        let mut inner = ChaCha8Rng::seed_from_u64(seed);
        inner.set_stream(stream);
        Rng { inner }
    }

    /// Derives an independent stream (e.g. one per data-parallel worker).
    pub fn fork(&mut self, stream: u64) -> Rng {
        let mut r = ChaCha8Rng::seed_from_u64(self.inner.gen::<u64>() ^ stream);
        r.set_stream(stream);
        Rng { inner: r }
    }

    /// Uniform in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f32, hi: f32) -> f32 {
        self.inner.gen_range(lo..hi)
    }

    /// Standard normal via Box–Muller.
    pub fn normal(&mut self) -> f32 {
        standard_normal(&mut self.inner)
    }

    /// Uniform integer in `[0, n)`.
    pub fn below(&mut self, n: usize) -> usize {
        self.inner.gen_range(0..n)
    }

    /// Bernoulli with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.inner.gen_bool(p.clamp(0.0, 1.0))
    }

    /// `out[i] = self.chance(p)` for every `i` in order, from bulk
    /// keystream: a draw is two words, low word first, and is
    /// `(u64 >> 11) · 2⁻⁵³ < p` as in `gen_bool`. Exactly two words is what
    /// lets a caller fill disjoint ranges from clones seeked to
    /// `word_pos + 2·first_index`.
    pub fn fill_chance(&mut self, p: f64, out: &mut [bool]) {
        const DRAWS: usize = 512; // per keystream request: 4 KiB of stack
        let p = p.clamp(0.0, 1.0);
        let mut words = [0u32; 2 * DRAWS];
        for chunk in out.chunks_mut(DRAWS) {
            let words = &mut words[..2 * chunk.len()];
            self.inner.fill_u32(words);
            for (o, w) in chunk.iter_mut().zip(words.chunks_exact(2)) {
                let u = (u64::from(w[1]) << 32) | u64::from(w[0]);
                *o = ((u >> 11) as f64 * (1.0 / (1u64 << 53) as f64)) < p;
            }
        }
    }

    /// Tensor of i.i.d. `N(0, std²)` entries: the same values, and the
    /// same generator state afterwards, as `n` calls of
    /// `self.normal() * std`. Each value consumes 4 keystream words (a
    /// 2-word draw for `u1`, then one for `u2`), plus 2 for each draw
    /// rejected because it rounded onto the open bound 1.0. The words are
    /// read in bulk through `fill_u32`.
    pub fn normal_tensor(&mut self, shape: &[usize], std: f32) -> Tensor {
        let n: usize = shape.iter().product();
        let mut words = Keystream::new(&mut self.inner, 4 * n);
        let data = (0..n).map(|_| standard_normal(&mut words) * std).collect();
        Tensor::from_vec(data, shape)
    }

    /// Tensor of i.i.d. `U[lo, hi)` entries.
    pub fn uniform_tensor(&mut self, shape: &[usize], lo: f32, hi: f32) -> Tensor {
        let n: usize = shape.iter().product();
        let data = (0..n).map(|_| self.uniform(lo, hi)).collect();
        Tensor::from_vec(data, shape)
    }

    /// He/Kaiming initialisation for a layer with `fan_in` inputs.
    pub fn he_init(&mut self, shape: &[usize], fan_in: usize) -> Tensor {
        let std = (2.0 / fan_in.max(1) as f32).sqrt();
        self.normal_tensor(shape, std)
    }

    /// Fisher–Yates shuffle of indices `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = self.inner.gen_range(0..=i);
            idx.swap(i, j);
        }
        idx
    }
}

/// Box–Muller: one standard normal from two uniform draws.
fn standard_normal<R: RngCore>(r: &mut R) -> f32 {
    let u1: f32 = r.gen_range(f32::EPSILON..1.0);
    let u2: f32 = r.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
}

/// The generator's keystream read ahead through `fill_u32`, up to 4 KiB
/// at a time. Its caller consumes at least the `at_least` words it was
/// built with, and no read runs past them except one word at a time, so
/// no word is read that is not consumed: the generator ends up where the
/// same `next_u32` calls on it would have left it.
struct Keystream<'a> {
    inner: &'a mut ChaCha8Rng,
    end: u64,
    words: [u32; 1024],
    at: usize,
    len: usize,
}

impl<'a> Keystream<'a> {
    fn new(inner: &'a mut ChaCha8Rng, at_least: usize) -> Self {
        let end = inner.word_pos() + at_least as u64;
        Keystream {
            inner,
            end,
            words: [0; 1024],
            at: 0,
            len: 0,
        }
    }
}

impl RngCore for Keystream<'_> {
    fn next_u32(&mut self) -> u32 {
        if self.at == self.len {
            let left = self.end.saturating_sub(self.inner.word_pos());
            self.len = left.clamp(1, self.words.len() as u64) as usize;
            self.inner.fill_u32(&mut self.words[..self.len]);
            self.at = 0;
        }
        self.at += 1;
        self.words[self.at - 1]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keyed_streams_are_independent_and_stream_zero_is_the_seed() {
        let mut zero = Rng::keyed(9, 0);
        let mut plain = Rng::seed(9);
        assert_eq!(zero.normal().to_bits(), plain.normal().to_bits());
        let a = Rng::keyed(9, 1).normal_tensor(&[64], 1.0);
        assert_eq!(a, Rng::keyed(9, 1).normal_tensor(&[64], 1.0));
        assert_ne!(a, Rng::keyed(9, 2).normal_tensor(&[64], 1.0));
        assert_ne!(a, Rng::keyed(10, 1).normal_tensor(&[64], 1.0));
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = Rng::seed(7);
        let mut b = Rng::seed(7);
        for _ in 0..100 {
            assert_eq!(a.normal(), b.normal());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Rng::seed(1);
        let mut b = Rng::seed(2);
        let va: Vec<f32> = (0..16).map(|_| a.normal()).collect();
        let vb: Vec<f32> = (0..16).map(|_| b.normal()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn forks_are_independent_of_order() {
        let mut a = Rng::seed(7);
        let mut f1 = a.fork(1);
        let x = f1.normal();
        let mut b = Rng::seed(7);
        let mut g1 = b.fork(1);
        assert_eq!(x, g1.normal());
    }

    #[test]
    fn normal_moments_are_sane() {
        let mut r = Rng::seed(42);
        let n = 20_000;
        let xs: Vec<f32> = (0..n).map(|_| r.normal()).collect();
        let mean = xs.iter().sum::<f32>() / n as f32;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f32>() / n as f32;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn uniform_respects_bounds() {
        let mut r = Rng::seed(3);
        for _ in 0..1000 {
            let x = r.uniform(-2.0, 5.0);
            assert!((-2.0..5.0).contains(&x));
        }
    }

    #[test]
    fn word_pos_roundtrip_resumes_permutations() {
        // Draw a few permutations, snapshot the position, draw one more;
        // a fresh generator seeked to the snapshot must reproduce it.
        let mut r = Rng::seed(77);
        for _ in 0..3 {
            let _ = r.permutation(13);
        }
        let pos = r.word_pos();
        let expected = r.permutation(13);
        let mut resumed = Rng::seed(77);
        resumed.set_word_pos(pos);
        assert_eq!(resumed.word_pos(), pos);
        assert_eq!(resumed.permutation(13), expected);
        assert_eq!(resumed.word_pos(), r.word_pos());
    }

    /// `fill_chance` ≡ repeated `chance`: same draws, same `word_pos`
    /// and same next draw, from aligned and unaligned positions, for
    /// lengths around the request size, at the clamped and exact edges
    /// of `p`.
    #[test]
    fn fill_chance_matches_repeated_chance() {
        for p in [-0.5, 0.0, 0.2, 0.5, 1.0, 1.5] {
            for start in [0u64, 1, 7, 31] {
                for len in [0usize, 1, 2, 511, 512, 513, 1500] {
                    let mut bulk = Rng::seed(9);
                    bulk.set_word_pos(start);
                    let mut serial = bulk.clone();
                    let mut got = vec![false; len];
                    bulk.fill_chance(p, &mut got);
                    let want: Vec<bool> = (0..len).map(|_| serial.chance(p)).collect();
                    assert_eq!(got, want, "p {p} start {start} len {len}");
                    assert_eq!(bulk.word_pos(), start + 2 * len as u64);
                    assert_eq!(bulk.word_pos(), serial.word_pos());
                    assert_eq!(bulk.chance(0.5), serial.chance(0.5));
                }
            }
        }
        let mut r = Rng::seed(10);
        let mut draws = vec![false; 20_000];
        r.fill_chance(0.2, &mut draws);
        let hits = draws.iter().filter(|&&d| d).count();
        assert!((3_700..4_300).contains(&hits), "{hits} of 20000 at p = 0.2");
    }

    /// `normal_tensor` ≡ repeated `normal() * std`: same bits, same
    /// `word_pos` and same next draw, for lengths around the 1,024-word
    /// (256-value) read-ahead, from aligned and unaligned positions, and
    /// across the draw of seed 7 at word 14,851,854 that rounds onto 1.0
    /// and is rejected.
    #[test]
    fn normal_tensor_matches_repeated_normal() {
        const REJECTED: u64 = 14_851_854;
        let mut r = Rng::seed(7);
        r.set_word_pos(REJECTED);
        let _ = r.normal();
        assert_eq!(
            r.word_pos(),
            REJECTED + 6,
            "the draw at {REJECTED} is no longer rejected"
        );
        let starts = [
            0u64,
            1,
            7,
            31,
            REJECTED,
            REJECTED - 1,
            REJECTED - 2,
            REJECTED - 3,
        ];
        for start in starts {
            for len in [0usize, 1, 2, 255, 256, 257, 600] {
                let mut bulk = Rng::seed(7);
                bulk.set_word_pos(start);
                let mut serial = bulk.clone();
                let got = bulk.normal_tensor(&[len], 0.5);
                let want: Vec<u32> = (0..len)
                    .map(|_| (serial.normal() * 0.5).to_bits())
                    .collect();
                let got: Vec<u32> = got.data().iter().map(|v| v.to_bits()).collect();
                assert_eq!(got, want, "start {start} len {len}");
                assert_eq!(
                    bulk.word_pos(),
                    serial.word_pos(),
                    "start {start} len {len}"
                );
                assert_eq!(bulk.normal().to_bits(), serial.normal().to_bits());
            }
        }
    }

    #[test]
    fn permutation_is_a_bijection() {
        let mut r = Rng::seed(9);
        let p = r.permutation(100);
        let mut seen = vec![false; 100];
        for &i in &p {
            assert!(!seen[i]);
            seen[i] = true;
        }
        assert!(seen.into_iter().all(|b| b));
    }

    #[test]
    fn he_init_scales_with_fan_in() {
        let mut r = Rng::seed(5);
        let t = r.he_init(&[64, 256], 256);
        let var = t.data().iter().map(|x| x * x).sum::<f32>() / t.numel() as f32;
        let expected = 2.0 / 256.0;
        assert!((var - expected).abs() < 0.2 * expected, "var {var} vs {expected}");
    }

    #[test]
    fn tensor_generators_match_shape() {
        let mut r = Rng::seed(1);
        assert_eq!(r.normal_tensor(&[3, 4], 1.0).shape(), &[3, 4]);
        assert_eq!(r.uniform_tensor(&[5], 0.0, 1.0).numel(), 5);
    }
}
