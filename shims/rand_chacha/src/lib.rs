//! Offline stand-in for `rand_chacha`, implementing a genuine ChaCha8
//! block cipher as a counter-mode generator.
//!
//! The workspace needs exactly one generator type — [`ChaCha8Rng`] with
//! `seed_from_u64` and `set_stream` — seeded explicitly everywhere for
//! reproducible experiments. The keystream is real ChaCha (8 rounds,
//! RFC 7539 quarter-round), but key expansion from the 64-bit seed uses
//! SplitMix64, so outputs are deterministic and stream-separated without
//! being bit-compatible with the upstream crate (nothing in the
//! workspace depends on upstream golden values).

use rand::{RngCore, SeedableRng};

const CHACHA_ROUNDS: usize = 8;

/// A ChaCha8 counter-mode pseudo-random generator.
#[derive(Debug, Clone)]
pub struct ChaCha8Rng {
    /// 256-bit key as eight little-endian words.
    key: [u32; 8],
    /// 64-bit block counter (words 12–13 of the state).
    counter: u64,
    /// 64-bit stream id (words 14–15 of the state; `set_stream`).
    stream: u64,
    /// Unconsumed words of the current block.
    buf: [u32; 16],
    /// Next unread index into `buf`; 16 means "refill needed".
    idx: usize,
}

/// Blocks [`ChaCha8Rng::fill_u32`] computes together, one lane each. Eight:
/// sixteen rows of eight lanes fill sixteen 256-bit registers, the width
/// rustc vectorises to even where wider ones exist; sixteen lanes spill
/// (60 against 44 cycles a block measured).
const LANES: usize = 8;

#[inline(always)]
fn quarter_round<const L: usize>(s: &mut [[u32; L]; 16], a: usize, b: usize, c: usize, d: usize) {
    let add = |x: [u32; L], y: [u32; L]| std::array::from_fn(|l| x[l].wrapping_add(y[l]));
    let xor_rotl =
        |x: [u32; L], y: [u32; L], r| std::array::from_fn(|l| (x[l] ^ y[l]).rotate_left(r));
    s[a] = add(s[a], s[b]);
    s[d] = xor_rotl(s[d], s[a], 16);
    s[c] = add(s[c], s[d]);
    s[b] = xor_rotl(s[b], s[c], 12);
    s[a] = add(s[a], s[b]);
    s[d] = xor_rotl(s[d], s[a], 8);
    s[c] = add(s[c], s[d]);
    s[b] = xor_rotl(s[b], s[c], 7);
}

/// The ChaCha8 block function for the `L` consecutive blocks starting at
/// `counter`, lane-major: `out[w][l]` is word `w` of block `counter + l`.
/// Lanes never mix, so a block's words do not depend on `L`; the lane
/// loops are plain `u32` arrays that vectorise under `target-cpu=native`.
#[inline]
fn blocks<const L: usize>(key: &[u32; 8], counter: u64, stream: u64) -> [[u32; L]; 16] {
    let lane_counter = |l: usize| counter.wrapping_add(l as u64);
    let mut s = [
        // "expand 32-byte k"
        [0x6170_7865; L],
        [0x3320_646E; L],
        [0x7962_2D32; L],
        [0x6B20_6574; L],
        [key[0]; L],
        [key[1]; L],
        [key[2]; L],
        [key[3]; L],
        [key[4]; L],
        [key[5]; L],
        [key[6]; L],
        [key[7]; L],
        std::array::from_fn(|l| lane_counter(l) as u32),
        std::array::from_fn(|l| (lane_counter(l) >> 32) as u32),
        [stream as u32; L],
        [(stream >> 32) as u32; L],
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

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl ChaCha8Rng {
    /// Selects an independent keystream for the same key; used to derive
    /// per-worker streams from one master seed.
    pub fn set_stream(&mut self, stream: u64) {
        if self.stream != stream {
            self.stream = stream;
            self.counter = 0;
            self.idx = 16;
        }
    }

    /// Number of 32-bit words consumed from the current keystream.
    ///
    /// Counter mode makes the generator random-access: the pair
    /// (`seed`, `word_pos`) fully identifies the generator state, which is
    /// what training-state snapshots persist to make shuffling resumable.
    pub fn word_pos(&self) -> u64 {
        if self.idx >= 16 {
            // No block loaded (fresh generator or exactly at a block edge
            // after `set_word_pos`): `counter` is the next block to emit.
            self.counter.wrapping_mul(16)
        } else {
            // A block is loaded and `counter` already points past it.
            (self.counter.wrapping_sub(1)).wrapping_mul(16) + self.idx as u64
        }
    }

    /// Seeks the keystream to an absolute word position (within the
    /// current stream), the inverse of [`ChaCha8Rng::word_pos`].
    pub fn set_word_pos(&mut self, pos: u64) {
        self.counter = pos / 16;
        let rem = (pos % 16) as usize;
        if rem == 0 {
            self.idx = 16; // next draw refills at `counter`
        } else {
            self.refill(); // loads block `counter`, bumps it
            self.idx = rem;
        }
    }

    fn refill(&mut self) {
        self.buf = blocks::<1>(&self.key, self.counter, self.stream).map(|[w]| w);
        self.idx = 0;
        self.counter = self.counter.wrapping_add(1);
    }

    /// Fills `dest` with the next keystream words: the same words, and the
    /// same generator state afterwards, as `dest.len()` [`RngCore::next_u32`]
    /// calls. Whole groups of [`LANES`] blocks go straight into `dest` from
    /// one wide [`blocks`] call, the words around them through the buffer.
    pub fn fill_u32(&mut self, mut dest: &mut [u32]) {
        while !dest.is_empty() {
            if self.idx >= 16 && dest.len() >= 16 * LANES {
                let (group, rest) = dest.split_at_mut(16 * LANES);
                let s = blocks::<LANES>(&self.key, self.counter, self.stream);
                for (l, block) in group.chunks_exact_mut(16).enumerate() {
                    for (w, out) in block.iter_mut().enumerate() {
                        *out = s[w][l];
                    }
                }
                self.counter = self.counter.wrapping_add(LANES as u64);
                dest = rest;
                continue;
            }
            if self.idx >= 16 {
                self.refill();
            }
            let take = dest.len().min(16 - self.idx);
            let (head, rest) = dest.split_at_mut(take);
            head.copy_from_slice(&self.buf[self.idx..self.idx + take]);
            self.idx += take;
            dest = rest;
        }
    }
}

impl SeedableRng for ChaCha8Rng {
    fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let mut key = [0u32; 8];
        for pair in key.chunks_mut(2) {
            let w = splitmix64(&mut sm);
            pair[0] = w as u32;
            if pair.len() > 1 {
                pair[1] = (w >> 32) as u32;
            }
        }
        ChaCha8Rng {
            key,
            counter: 0,
            stream: 0,
            buf: [0; 16],
            idx: 16,
        }
    }
}

impl RngCore for ChaCha8Rng {
    fn next_u32(&mut self) -> u32 {
        if self.idx >= 16 {
            self.refill();
        }
        let w = self.buf[self.idx];
        self.idx += 1;
        w
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng as _;

    #[test]
    fn deterministic_per_seed() {
        let mut a = ChaCha8Rng::seed_from_u64(42);
        let mut b = ChaCha8Rng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u32(), b.next_u32());
        }
        let mut c = ChaCha8Rng::seed_from_u64(43);
        let va: Vec<u32> = (0..8).map(|_| a.next_u32()).collect();
        let vc: Vec<u32> = (0..8).map(|_| c.next_u32()).collect();
        assert_ne!(va, vc);
    }

    #[test]
    fn streams_are_distinct() {
        let mut a = ChaCha8Rng::seed_from_u64(7);
        let mut b = ChaCha8Rng::seed_from_u64(7);
        b.set_stream(1);
        let va: Vec<u32> = (0..8).map(|_| a.next_u32()).collect();
        let vb: Vec<u32> = (0..8).map(|_| b.next_u32()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn word_pos_tracks_consumption_and_seeks() {
        let mut a = ChaCha8Rng::seed_from_u64(11);
        assert_eq!(a.word_pos(), 0);
        for expect in 1..=40u64 {
            a.next_u32();
            assert_eq!(a.word_pos(), expect);
        }
        // Seeking a fresh generator to the same position resumes the
        // identical stream, including across block boundaries.
        for pos in [0u64, 1, 15, 16, 17, 31, 32, 40] {
            let mut replay = ChaCha8Rng::seed_from_u64(11);
            for _ in 0..pos {
                replay.next_u32();
            }
            let mut seeked = ChaCha8Rng::seed_from_u64(11);
            seeked.set_word_pos(pos);
            assert_eq!(seeked.word_pos(), pos, "pos {pos}");
            for _ in 0..20 {
                assert_eq!(seeked.next_u32(), replay.next_u32(), "pos {pos}");
            }
        }
    }

    /// Bulk fill ≡ repeated `next_u32`: same words, same `word_pos`, same
    /// next word, from every start offset inside and across a block and
    /// for lengths on both sides of the block and lane-group edges.
    #[test]
    fn fill_u32_matches_next_u32_from_every_offset() {
        let group = 16 * LANES;
        let lens = [
            0,
            1,
            15,
            16,
            17,
            group - 1,
            group,
            group + 1,
            group + 16,
            2 * group + 5,
        ];
        for start in 0..=33u64 {
            for len in lens {
                let mut bulk = ChaCha8Rng::seed_from_u64(5);
                bulk.set_stream(3);
                let mut serial = bulk.clone();
                for _ in 0..start {
                    bulk.next_u32();
                    serial.next_u32();
                }
                let mut got = vec![0u32; len];
                bulk.fill_u32(&mut got);
                let want: Vec<u32> = (0..len).map(|_| serial.next_u32()).collect();
                assert_eq!(got, want, "start {start} len {len}");
                assert_eq!(
                    bulk.word_pos(),
                    start + len as u64,
                    "start {start} len {len}"
                );
                assert_eq!(bulk.word_pos(), serial.word_pos());
                assert_eq!(
                    bulk.next_u32(),
                    serial.next_u32(),
                    "start {start} len {len}"
                );
                // A seek lands on the same stream the fill left.
                let mut seeked = ChaCha8Rng::seed_from_u64(5);
                seeked.set_stream(3);
                seeked.set_word_pos(bulk.word_pos());
                assert_eq!(
                    seeked.next_u32(),
                    bulk.next_u32(),
                    "start {start} len {len}"
                );
            }
        }
    }

    /// Words recorded from the scalar block function this crate shipped
    /// before [`blocks`] went lane-major (commit 16c71cf): the rewrite
    /// must not move the keystream. The last row has a block counter
    /// above 2^32 and a nonzero stream, so state words 13–15 count.
    #[test]
    fn keystream_matches_the_scalar_block_function() {
        let mut a = ChaCha8Rng::seed_from_u64(42);
        let take = |a: &mut ChaCha8Rng, n| (0..n).map(|_| a.next_u32()).collect::<Vec<_>>();
        assert_eq!(
            take(&mut a, 4),
            [0x87c9_1afc, 0x3115_9ef9, 0xb416_9001, 0x1755_9844]
        );
        a.set_word_pos(16 * 300 + 14);
        assert_eq!(
            take(&mut a, 4),
            [0x14b1_4ef9, 0xbe30_d35f, 0x2b64_7fbf, 0x36aa_693b]
        );
        a.set_stream(7);
        a.set_word_pos((1u64 << 36) + 15);
        assert_eq!(take(&mut a, 3), [0x3c63_e2c7, 0xbf65_aac1, 0xd31f_2104]);
        // The wide path computes the same blocks.
        let mut wide = vec![0u32; 16 * LANES + 3];
        a.set_word_pos((1u64 << 36) - 16 * 5);
        a.fill_u32(&mut wide);
        a.set_word_pos((1u64 << 36) + 15);
        assert_eq!(wide[16 * 5 + 15..16 * 5 + 18], take(&mut a, 3));
    }

    #[test]
    fn uniformity_is_rough_but_sane() {
        let mut r = ChaCha8Rng::seed_from_u64(1);
        let n = 50_000;
        let mean = (0..n).map(|_| r.gen::<f64>()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }
}
