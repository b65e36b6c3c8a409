//! Deterministic random numbers for every stochastic part of the
//! workspace.
//!
//! Weight init, synthetic datasets, shuffling, Dropout masks and serving
//! inputs are all seeded explicitly, so experiments are exactly
//! reproducible run-to-run — a prerequisite for the "accuracy is
//! preserved under data-parallel scaling" claims to be testable.
//!
//! [`Rng`] is a counter-mode ChaCha8 generator, the keyed and seekable
//! design of Salmon et al., "Parallel Random Numbers: As Easy as 1, 2, 3"
//! (SC 2011): 8 rounds of the RFC 7539 quarter-round over a 256-bit key,
//! a 64-bit block counter and a 64-bit stream id. The key is expanded
//! from the 64-bit seed by four [`msa_core::rng::splitmix64`] outputs, so
//! the words are not those of the upstream `rand_chacha` crate; they are
//! this workspace's own, and its tests pin them. Counter mode makes the
//! generator random-access: seed, stream and [`Rng::word_pos`] are its
//! whole state, and the word position is what checkpoints persist.

use crate::Tensor;
use msa_core::rng::splitmix64;

const CHACHA_ROUNDS: usize = 8;

/// Blocks one refill computes together, one lane each. Eight: sixteen
/// rows of eight lanes fill sixteen 256-bit registers, the width rustc
/// vectorises to even where wider ones exist; sixteen lanes spill (60
/// against 44 cycles a block measured).
const LANES: usize = 8;

/// Words the generator buffers: [`LANES`] blocks of sixteen.
const BUF: usize = 16 * LANES;

/// A seeded ChaCha8 generator and the draws the workspace takes from it.
#[derive(Clone)]
pub struct Rng {
    /// 256-bit key as eight little-endian words.
    key: [u32; 8],
    /// The block after the buffered ones (words 12–13 of the state).
    counter: u64,
    /// Stream id (words 14–15 of the state).
    stream: u64,
    /// Blocks `counter - LANES .. counter`, in keystream order.
    buf: [u32; BUF],
    /// Next unread index into `buf`; `BUF` means "refill needed".
    idx: usize,
}

#[inline(always)]
fn quarter_round(s: &mut [[u32; LANES]; 16], a: usize, b: usize, c: usize, d: usize) {
    let add = |x: [u32; LANES], y: [u32; LANES]| std::array::from_fn(|l| x[l].wrapping_add(y[l]));
    let xor_rotl =
        |x: [u32; LANES], y: [u32; LANES], r| std::array::from_fn(|l| (x[l] ^ y[l]).rotate_left(r));
    s[a] = add(s[a], s[b]);
    s[d] = xor_rotl(s[d], s[a], 16);
    s[c] = add(s[c], s[d]);
    s[b] = xor_rotl(s[b], s[c], 12);
    s[a] = add(s[a], s[b]);
    s[d] = xor_rotl(s[d], s[a], 8);
    s[c] = add(s[c], s[d]);
    s[b] = xor_rotl(s[b], s[c], 7);
}

/// The ChaCha8 block function for the [`LANES`] consecutive blocks
/// starting at `counter`, lane-major: `out[w][l]` is word `w` of block
/// `counter + l`. Lanes never mix, so a block's words do not depend on
/// the lane count; the lane loops are plain `u32` arrays that vectorise
/// under `target-cpu=native`.
#[inline]
fn blocks(key: &[u32; 8], counter: u64, stream: u64) -> [[u32; LANES]; 16] {
    let lane_counter = |l: usize| counter.wrapping_add(l as u64);
    let mut s = [
        // "expand 32-byte k"
        [0x6170_7865; LANES],
        [0x3320_646E; LANES],
        [0x7962_2D32; LANES],
        [0x6B20_6574; LANES],
        [key[0]; LANES],
        [key[1]; LANES],
        [key[2]; LANES],
        [key[3]; LANES],
        [key[4]; LANES],
        [key[5]; LANES],
        [key[6]; LANES],
        [key[7]; LANES],
        std::array::from_fn(|l| lane_counter(l) as u32),
        std::array::from_fn(|l| (lane_counter(l) >> 32) as u32),
        [stream as u32; LANES],
        [(stream >> 32) as u32; LANES],
    ];
    let input = s;
    for _ in 0..CHACHA_ROUNDS / 2 {
        // Column round.
        quarter_round(&mut s, 0, 4, 8, 12);
        quarter_round(&mut s, 1, 5, 9, 13);
        quarter_round(&mut s, 2, 6, 10, 14);
        quarter_round(&mut s, 3, 7, 11, 15);
        // Diagonal round.
        quarter_round(&mut s, 0, 5, 10, 15);
        quarter_round(&mut s, 1, 6, 11, 12);
        quarter_round(&mut s, 2, 7, 8, 13);
        quarter_round(&mut s, 3, 4, 9, 14);
    }
    for (out, inp) in s.iter_mut().zip(&input) {
        *out = std::array::from_fn(|l| out[l].wrapping_add(inp[l]));
    }
    s
}

/// A uniform draw in `[0, 1)` from the top 53 bits of `u`.
#[inline]
fn unit_f64(u: u64) -> f64 {
    (u >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

impl Rng {
    /// Creates a generator from a 64-bit seed: stream 0 of its key.
    pub fn seed(seed: u64) -> Self {
        Rng::keyed(seed, 0)
    }

    /// Keystream `stream` of the key `seed` expands to: each `(seed,
    /// stream)` pair is its own counter-mode sequence, so values keyed by
    /// an index can be drawn in any order, on any thread.
    pub fn keyed(seed: u64, stream: u64) -> Self {
        let mut state = seed;
        let mut key = [0u32; 8];
        for pair in key.chunks_exact_mut(2) {
            let w = splitmix64(&mut state);
            pair[0] = w as u32;
            pair[1] = (w >> 32) as u32;
        }
        Rng {
            key,
            counter: 0,
            stream,
            buf: [0; BUF],
            idx: BUF,
        }
    }

    /// Absolute keystream position in 32-bit words (within the current
    /// stream). Together with the seed this fully identifies the
    /// generator state; checkpoints persist it so a resumed run replays
    /// the exact shuffling sequence.
    pub fn word_pos(&self) -> u64 {
        if self.idx >= BUF {
            // Nothing buffered is left: `counter` is the next block.
            self.counter.wrapping_mul(16)
        } else {
            let first = self.counter.wrapping_sub(LANES as u64);
            first.wrapping_mul(16).wrapping_add(self.idx as u64)
        }
    }

    /// Seeks to an absolute keystream word position, the inverse of
    /// [`Rng::word_pos`]. Seeking a same-seeded generator reproduces the
    /// stream bit-exactly from that point.
    pub fn set_word_pos(&mut self, pos: u64) {
        self.counter = pos / 16;
        self.idx = BUF;
        let rem = (pos % 16) as usize;
        if rem != 0 {
            self.refill();
            self.idx = rem;
        }
    }

    /// Buffers the next [`LANES`] blocks. Kept out of line: inlined into
    /// the draws, it slowed a keyed 4,096-value `normal_tensor` from
    /// 99–102 to 134–188 µs (2-vCPU x86-64, `target-cpu=native`).
    #[inline(never)]
    fn refill(&mut self) {
        let s = blocks(&self.key, self.counter, self.stream);
        for (l, block) in self.buf.chunks_exact_mut(16).enumerate() {
            for (w, out) in block.iter_mut().enumerate() {
                *out = s[w][l];
            }
        }
        self.counter = self.counter.wrapping_add(LANES as u64);
        self.idx = 0;
    }

    #[inline]
    fn next_u32(&mut self) -> u32 {
        if self.idx >= BUF {
            self.refill();
        }
        self.idx += 1;
        self.buf[self.idx - 1]
    }

    /// Two words, low word first.
    #[inline]
    fn next_u64(&mut self) -> u64 {
        let lo = u64::from(self.next_u32());
        (u64::from(self.next_u32()) << 32) | lo
    }

    /// Fills `dest` with the next keystream words: the same words, and
    /// the same generator state afterwards, as `dest.len()` calls of
    /// `next_u32`.
    pub(crate) fn fill_u32(&mut self, mut dest: &mut [u32]) {
        while !dest.is_empty() {
            if self.idx >= BUF {
                self.refill();
            }
            let take = dest.len().min(BUF - self.idx);
            let (head, rest) = dest.split_at_mut(take);
            head.copy_from_slice(&self.buf[self.idx..self.idx + take]);
            self.idx += take;
            dest = rest;
        }
    }

    /// Uniform in `[lo, hi)`: `lo + (hi − lo)·u` in f64 from one 2-word
    /// draw `u`, redrawn if it rounds onto `hi` in f32.
    // Inlined, with `normal`, so the draw loops see constant bounds: out
    // of line, a keyed 1,024-value `normal_tensor` read 24–26 µs against
    // 20–21 µs.
    #[inline]
    pub fn uniform(&mut self, lo: f32, hi: f32) -> f32 {
        assert!(lo < hi, "uniform: empty range {lo}..{hi}");
        loop {
            let u = unit_f64(self.next_u64());
            let v = (f64::from(lo) + (f64::from(hi) - f64::from(lo)) * u) as f32;
            if v < hi {
                return v.max(lo);
            }
        }
    }

    /// Standard normal via Box–Muller: `u1` in `[ε, 1)`, then `u2` in
    /// `[0, 1)`, each a [`Rng::uniform`] draw.
    #[inline]
    pub fn normal(&mut self) -> f32 {
        let u1 = self.uniform(f32::EPSILON, 1.0);
        let u2 = self.uniform(0.0, 1.0);
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
    }

    /// Uniform integer in `[0, n)`: one 2-word draw modulo `n`.
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "below(0): empty range");
        (self.next_u64() % n as u64) as usize
    }

    /// Bernoulli with probability `p` clamped to `[0, 1]`: one 2-word
    /// draw `u`, and `u < p`. A NaN `p` never fires.
    pub fn chance(&mut self, p: f64) -> bool {
        unit_f64(self.next_u64()) < p.clamp(0.0, 1.0)
    }

    /// `out[i] = self.chance(p)` for every `i` in order, from bulk
    /// keystream. Exactly two words a draw is what lets a caller fill
    /// disjoint ranges from clones seeked to `word_pos + 2·first_index`.
    pub fn fill_chance(&mut self, p: f64, out: &mut [bool]) {
        const DRAWS: usize = 512; // per keystream request: 4 KiB of stack
        let p = p.clamp(0.0, 1.0);
        let mut words = [0u32; 2 * DRAWS];
        for chunk in out.chunks_mut(DRAWS) {
            let words = &mut words[..2 * chunk.len()];
            self.fill_u32(words);
            for (o, w) in chunk.iter_mut().zip(words.chunks_exact(2)) {
                *o = unit_f64((u64::from(w[1]) << 32) | u64::from(w[0])) < p;
            }
        }
    }

    /// Tensor of i.i.d. `N(0, std²)` entries: `n` calls of
    /// `self.normal() * std`.
    pub fn normal_tensor(&mut self, shape: &[usize], std: f32) -> Tensor {
        let n: usize = shape.iter().product();
        let data = (0..n).map(|_| self.normal() * std).collect();
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

    /// Fisher–Yates shuffle of indices `0..n`; swap `i` takes one 2-word
    /// draw modulo `i + 1`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            idx.swap(i, j);
        }
        idx
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = Rng::seed(42);
        let mut b = Rng::seed(42);
        for _ in 0..100 {
            assert_eq!(a.next_u32(), b.next_u32());
        }
        let mut c = Rng::seed(43);
        let va: Vec<u32> = (0..8).map(|_| a.next_u32()).collect();
        let vc: Vec<u32> = (0..8).map(|_| c.next_u32()).collect();
        assert_ne!(va, vc);
    }

    #[test]
    fn streams_are_distinct() {
        let mut a = Rng::seed(7);
        let mut b = Rng::keyed(7, 1);
        let va: Vec<u32> = (0..8).map(|_| a.next_u32()).collect();
        let vb: Vec<u32> = (0..8).map(|_| b.next_u32()).collect();
        assert_ne!(va, vb);
    }

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
    fn word_pos_tracks_consumption_and_seeks() {
        let mut a = Rng::seed(11);
        assert_eq!(a.word_pos(), 0);
        for expect in 1..=300u64 {
            a.next_u32();
            assert_eq!(a.word_pos(), expect);
        }
        // Seeking a fresh generator to the same position resumes the
        // identical stream, across block and buffer boundaries.
        for pos in [
            0u64, 1, 15, 16, 17, 31, 32, 40, 127, 128, 129, 143, 144, 250,
        ] {
            let mut replay = Rng::seed(11);
            for _ in 0..pos {
                replay.next_u32();
            }
            let mut seeked = Rng::seed(11);
            seeked.set_word_pos(pos);
            assert_eq!(seeked.word_pos(), pos, "pos {pos}");
            for _ in 0..200 {
                assert_eq!(seeked.next_u32(), replay.next_u32(), "pos {pos}");
            }
        }
    }

    /// Bulk fill ≡ repeated `next_u32`: same words, same `word_pos`, same
    /// next word, from every start offset inside and across a block and
    /// the buffer, for lengths on both sides of the block and buffer
    /// edges.
    #[test]
    fn fill_u32_matches_next_u32_from_every_offset() {
        for start in (0..=33u64).chain([127, 128, 129, 250]) {
            for len in [0, 1, 15, 16, 17, 127, 128, 129, 144, 261] {
                let at = format!("start {start} len {len}");
                let mut bulk = Rng::keyed(5, 3);
                let mut serial = bulk.clone();
                for _ in 0..start {
                    bulk.next_u32();
                    serial.next_u32();
                }
                let mut got = vec![0u32; len];
                bulk.fill_u32(&mut got);
                let want: Vec<u32> = (0..len).map(|_| serial.next_u32()).collect();
                assert_eq!(got, want, "{at}");
                assert_eq!(bulk.word_pos(), start + len as u64, "{at}");
                assert_eq!(bulk.word_pos(), serial.word_pos());
                assert_eq!(bulk.next_u32(), serial.next_u32(), "{at}");
                // A seek lands on the same stream the fill left.
                let mut seeked = Rng::keyed(5, 3);
                seeked.set_word_pos(bulk.word_pos());
                assert_eq!(seeked.next_u32(), bulk.next_u32(), "{at}");
            }
        }
    }

    /// Words recorded from the scalar block function the generator
    /// shipped before it went lane-major (commit 16c71cf): the rewrite
    /// must not move the keystream. The last row has a block counter
    /// above 2^32 and a nonzero stream, so state words 13–15 count.
    #[test]
    fn keystream_matches_the_scalar_block_function() {
        let take = |a: &mut Rng, n| (0..n).map(|_| a.next_u32()).collect::<Vec<_>>();
        let mut a = Rng::seed(42);
        assert_eq!(
            take(&mut a, 4),
            [0x87c9_1afc, 0x3115_9ef9, 0xb416_9001, 0x1755_9844]
        );
        a.set_word_pos(16 * 300 + 14);
        assert_eq!(
            take(&mut a, 4),
            [0x14b1_4ef9, 0xbe30_d35f, 0x2b64_7fbf, 0x36aa_693b]
        );
        let mut a = Rng::keyed(42, 7);
        a.set_word_pos((1u64 << 36) + 15);
        assert_eq!(take(&mut a, 3), [0x3c63_e2c7, 0xbf65_aac1, 0xd31f_2104]);
        // A bulk read across buffer edges yields the same words.
        let mut wide = vec![0u32; BUF + 3];
        a.set_word_pos((1u64 << 36) - 16 * 5);
        a.fill_u32(&mut wide);
        a.set_word_pos((1u64 << 36) + 15);
        assert_eq!(wide[16 * 5 + 15..16 * 5 + 18], take(&mut a, 3));
    }

    #[test]
    fn uniformity_is_rough_but_sane() {
        let mut r = Rng::seed(1);
        let n = 50_000;
        let mean = (0..n).map(|_| unit_f64(r.next_u64())).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
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
        for _ in 0..2000 {
            let x = r.uniform(-2.0, 5.0);
            assert!((-2.0..5.0).contains(&x));
            let k = 3 + r.below(14);
            assert!((3..17).contains(&k));
            assert!(r.below(5) < 5);
            assert_eq!(r.below(1), 0);
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
    /// of `p` and at a NaN `p`. Probability 0 (or NaN) never fires, and
    /// probability 1 always does.
    #[test]
    fn fill_chance_matches_repeated_chance() {
        for p in [-0.5, 0.0, 0.2, 0.5, 1.0, 1.5, f64::NAN] {
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
                    if p <= 0.0 || p.is_nan() {
                        assert!(got.iter().all(|&d| !d), "p {p} fired");
                    }
                    if p >= 1.0 {
                        assert!(got.iter().all(|&d| d), "p {p} missed");
                    }
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
    /// `word_pos` and same next draw, for lengths around the buffer
    /// (32 values) and several buffers, from aligned and unaligned
    /// positions, and across the draw of seed 7 at word 14,851,854 that
    /// rounds onto 1.0 and is rejected.
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
            for len in [0usize, 1, 2, 31, 32, 33, 255, 256, 257, 600] {
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

    /// One FNV-1a digest per draw kind over its output bits and the
    /// `word_pos` it leaves, from three (seed, stream, start word)
    /// states: a fresh stream, one mid-block, and a stream above 2³²
    /// started mid-block inside a group of eight blocks. The values were
    /// recorded from the generator as it stood behind the generic
    /// sampling traits; any change to a formula or to the keystream
    /// moves one.
    #[test]
    fn every_draw_kind_keeps_its_recorded_digest() {
        const STATES: [(u64, u64, u64); 3] =
            [(1, 0, 0), (7, 3, 9), (0xDEAD_BEEF, 1 << 40, 16 * 5 + 11)];
        let check = |kind: &str, want: u64, draw: &dyn Fn(&mut Rng, &mut Vec<u64>)| {
            let mut words = Vec::new();
            for (seed, stream, start) in STATES {
                let mut r = Rng::keyed(seed, stream);
                r.set_word_pos(start);
                draw(&mut r, &mut words);
                words.push(r.word_pos());
            }
            assert_eq!(msa_core::fnv1a(words), want, "{kind}");
        };
        let bits =
            |t: Tensor, w: &mut Vec<u64>| w.extend(t.data().iter().map(|v| u64::from(v.to_bits())));
        check("uniform", 0xb808_5099_b585_85b0, &|r, w| {
            for (lo, hi) in [(0.0, 1.0), (-2.0, 5.0), (-1e-3, 1e-3), (3.0, 3.5)] {
                w.extend((0..50).map(|_| u64::from(r.uniform(lo, hi).to_bits())));
            }
        });
        check("below", 0x0910_2279_4f58_524a, &|r, w| {
            for n in [1usize, 2, 3, 10, 1000, 1 << 33, usize::MAX] {
                w.extend((0..20).map(|_| r.below(n) as u64));
            }
        });
        check("permutation", 0xf94c_4c9c_b40a_6445, &|r, w| {
            for n in [0usize, 1, 2, 50, 1280] {
                w.extend(r.permutation(n).into_iter().map(|i| i as u64));
            }
        });
        check("chance", 0xdf0f_4de9_f7fc_5019, &|r, w| {
            for p in [-0.5, 0.0, 0.3, 0.999, 1.0, 1.5] {
                w.extend((0..40).map(|_| u64::from(r.chance(p))));
            }
        });
        check("fill_chance", 0xf6f5_ad6f_e2a5_be8b, &|r, w| {
            for (p, n) in [(0.0, 3), (0.2, 700), (0.5, 129), (1.0, 5)] {
                let mut out = vec![false; n];
                r.fill_chance(p, &mut out);
                w.extend(out.into_iter().map(u64::from));
            }
        });
        check("normal", 0x39fd_41d9_6131_d514, &|r, w| {
            w.extend((0..200).map(|_| u64::from(r.normal().to_bits())))
        });
        check("normal_tensor", 0x8f3e_28b1_88b7_4faf, &|r, w| {
            for n in [0usize, 1, 24, 300] {
                bits(r.normal_tensor(&[n], 0.5), w);
            }
        });
        check("uniform_tensor", 0x1c46_beda_ffbe_d84e, &|r, w| {
            bits(r.uniform_tensor(&[7, 31], -3.0, 5.0), w)
        });
        check("he_init", 0x7806_262a_dbb7_da16, &|r, w| {
            bits(r.he_init(&[300], 17), w)
        });
        check("keyed normal_tensor", 0xeb01_240e_804e_f768, &|r, w| {
            let (seed, stream) = (r.below(usize::MAX) as u64, r.below(usize::MAX) as u64);
            bits(Rng::keyed(seed, stream).normal_tensor(&[2, 3, 50], 1.0), w);
        });
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
        assert!(
            (var - expected).abs() < 0.2 * expected,
            "var {var} vs {expected}"
        );
    }

    #[test]
    fn tensor_generators_match_shape() {
        let mut r = Rng::seed(1);
        assert_eq!(r.normal_tensor(&[3, 4], 1.0).shape(), &[3, 4]);
        assert_eq!(r.uniform_tensor(&[5], 0.0, 1.0).numel(), 5);
    }
}
