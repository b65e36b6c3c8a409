//! bf16 wire-codec kernels: deterministic f32 ⇄ bf16 conversion packed
//! two-per-word into `f32` transport words.
//!
//! The gradient exchange ships `Vec<f32>` payloads (the `ThreadComm`
//! transport is an f32-word memcpy path), so the bf16 wire format packs
//! two bf16 values into each 32-bit word: element `2i` in the low half,
//! element `2i + 1` in the high half, an odd tail leaving the high half
//! zero. Encoded words are *bit containers*, not numbers — they must
//! only ever cross memcpy transports and be decoded, never touched by
//! arithmetic (a packed word can be any bit pattern, including
//! signalling-NaN ones).
//!
//! ## Determinism
//!
//! Conversion is round-to-nearest-even on the raw bits
//! (`b + 0x7FFF + ((b >> 16) & 1)`, the same integer rounding TensorFlow
//! and PyTorch use for bf16 casts): pure integer arithmetic, no FPU
//! rounding mode involved, so the mapping is identical on every host.
//! NaNs are truncated instead (quieting the payload only when truncation
//! would produce an infinity), which keeps every one of the 2^16 bf16
//! bit patterns an exact encode∘decode fixed point — the exhaustive
//! round-trip test below. Both kernels are elementwise, so results are
//! independent of how the pool splits them: a buffer of at least
//! `PAR_THRESHOLD` values goes out in `PAR_THRESHOLD`-word chunks, which
//! only bounds fork-join overhead.

use crate::PAR_THRESHOLD;
use rayon::prelude::*;

/// Packed words needed to encode `len` f32 values in bf16 (two per word).
#[inline]
pub const fn bf16_words(len: usize) -> usize {
    len.div_ceil(2)
}

/// f32 → bf16 with round-to-nearest-even on the raw bits — the scalar
/// reference every vectorised/chunked path must match bit for bit.
///
/// NaN inputs truncate (keeping the sign and payload high bits); a NaN
/// whose truncated mantissa would be zero — which the rounding add would
/// otherwise turn into an infinity — is quieted with `0x0040` instead.
#[inline]
pub fn f32_to_bf16_rtne(x: f32) -> u16 {
    let b = x.to_bits();
    if x.is_nan() {
        let t = (b >> 16) as u16;
        if t & 0x7F != 0 {
            t
        } else {
            t | 0x0040
        }
    } else {
        ((b.wrapping_add(0x7FFF + ((b >> 16) & 1))) >> 16) as u16
    }
}

/// bf16 → f32: exact (bf16 is a prefix of f32, so widening never rounds).
#[inline]
pub fn bf16_to_f32(h: u16) -> f32 {
    f32::from_bits((h as u32) << 16)
}

#[inline]
fn encode_pair(lo: f32, hi: f32) -> f32 {
    let w = (f32_to_bf16_rtne(lo) as u32) | ((f32_to_bf16_rtne(hi) as u32) << 16);
    f32::from_bits(w)
}

fn encode_scalar(src: &[f32], dst: &mut [f32]) {
    debug_assert_eq!(dst.len(), bf16_words(src.len()));
    let pairs = src.chunks_exact(2);
    let tail = pairs.remainder();
    for (d, p) in dst.iter_mut().zip(pairs) {
        *d = encode_pair(p[0], p[1]);
    }
    if let [last] = tail {
        dst[src.len() / 2] = f32::from_bits(f32_to_bf16_rtne(*last) as u32);
    }
}

fn decode_scalar(src: &[f32], dst: &mut [f32]) {
    debug_assert_eq!(src.len(), bf16_words(dst.len()));
    let n_pairs = dst.len() / 2;
    let pairs = dst.chunks_exact_mut(2);
    for (s, p) in src.iter().zip(pairs) {
        let w = s.to_bits();
        p[0] = bf16_to_f32(w as u16);
        p[1] = bf16_to_f32((w >> 16) as u16);
    }
    if dst.len() % 2 == 1 {
        dst[dst.len() - 1] = bf16_to_f32(src[n_pairs].to_bits() as u16);
    }
}

/// Encodes `src` into `bf16_words(src.len())` packed words in `dst`,
/// in parallel `PAR_THRESHOLD`-word chunks once `src` reaches
/// `PAR_THRESHOLD` values. Elementwise, so every word is
/// [`f32_to_bf16_rtne`] of its pair whatever the split.
pub fn encode_bf16_into(src: &[f32], dst: &mut [f32]) {
    assert_eq!(
        dst.len(),
        bf16_words(src.len()),
        "encode_bf16: dst must hold ceil(src.len() / 2) packed words"
    );
    if src.len() < PAR_THRESHOLD {
        encode_scalar(src, dst);
        return;
    }
    dst.par_chunks_mut(PAR_THRESHOLD)
        .enumerate()
        .for_each(|(ci, d)| {
            let start = ci * PAR_THRESHOLD * 2;
            let end = (start + d.len() * 2).min(src.len());
            encode_scalar(&src[start..end], d);
        });
}

/// Decodes packed words back into `dst`: the inverse of
/// [`encode_bf16_into`] up to bf16 rounding, split the same way.
pub fn decode_bf16_into(src: &[f32], dst: &mut [f32]) {
    assert_eq!(
        src.len(),
        bf16_words(dst.len()),
        "decode_bf16: src must hold ceil(dst.len() / 2) packed words"
    );
    if dst.len() < PAR_THRESHOLD {
        decode_scalar(src, dst);
        return;
    }
    dst.par_chunks_mut(PAR_THRESHOLD * 2)
        .enumerate()
        .for_each(|(ci, d)| {
            let start = ci * PAR_THRESHOLD;
            decode_scalar(&src[start..start + bf16_words(d.len())], d);
        });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Rng;

    /// Independent scalar reference: widen, round via integer add, with
    /// the float parts done through explicit mantissa inspection.
    fn reference_rtne(x: f32) -> u16 {
        if x.is_nan() {
            return f32_to_bf16_rtne(x); // NaN policy is definitional
        }
        let b = x.to_bits();
        let truncated = (b >> 16) as u16;
        let rest = b & 0xFFFF;
        // Round up when the dropped half exceeds the halfway point, or
        // ties exactly and the kept lsb is odd (round to even).
        let round_up = rest > 0x8000 || (rest == 0x8000 && truncated & 1 == 1);
        if round_up {
            truncated.wrapping_add(1)
        } else {
            truncated
        }
    }

    #[test]
    fn every_bf16_value_round_trips_exactly() {
        for h in 0..=u16::MAX {
            let back = f32_to_bf16_rtne(bf16_to_f32(h));
            assert_eq!(back, h, "bf16 0x{h:04x} did not survive the round trip");
        }
    }

    #[test]
    fn rtne_matches_the_scalar_reference_on_random_f32s() {
        let mut rng = Rng::seed(0x9e37);
        for _ in 0..200_000 {
            let bits = (rng.below(1 << 16) as u32) << 16 | rng.below(1 << 16) as u32;
            let x = f32::from_bits(bits);
            assert_eq!(
                f32_to_bf16_rtne(x),
                reference_rtne(x),
                "mismatch at input bits 0x{:08x}",
                x.to_bits()
            );
        }
    }

    #[test]
    fn rtne_rounds_ties_to_even() {
        // 1.0 + 2^-9 is exactly halfway between bf16(1.0) and the next
        // value up; the kept lsb of bf16(1.0) is even, so it rounds down.
        let tie_even = f32::from_bits(0x3F80_8000);
        assert_eq!(f32_to_bf16_rtne(tie_even), 0x3F80);
        // One mantissa step up from bf16(1.0) has an odd kept lsb, so
        // the same halfway offset rounds up.
        let tie_odd = f32::from_bits(0x3F81_8000);
        assert_eq!(f32_to_bf16_rtne(tie_odd), 0x3F82);
        // Just above the halfway point always rounds up.
        assert_eq!(f32_to_bf16_rtne(f32::from_bits(0x3F80_8001)), 0x3F81);
    }

    #[test]
    fn specials_encode_as_themselves() {
        assert_eq!(f32_to_bf16_rtne(0.0), 0x0000);
        assert_eq!(f32_to_bf16_rtne(-0.0), 0x8000);
        assert_eq!(f32_to_bf16_rtne(f32::INFINITY), 0x7F80);
        assert_eq!(f32_to_bf16_rtne(f32::NEG_INFINITY), 0xFF80);
        assert!(bf16_to_f32(f32_to_bf16_rtne(f32::NAN)).is_nan());
        // Overflow past bf16 range saturates to infinity under RTNE.
        assert_eq!(f32_to_bf16_rtne(f32::MAX), 0x7F80);
    }

    #[test]
    fn encode_decode_round_trips_bf16_exact_data() {
        let mut rng = Rng::seed(7);
        for len in [0usize, 1, 2, 3, 7, 64, 4095, 4096, 4097, 10_001] {
            let src: Vec<f32> = (0..len)
                .map(|_| {
                    // Finite bf16-exact values only: round-tripping NaN
                    // payload policy is covered by the exhaustive test.
                    bf16_to_f32(f32_to_bf16_rtne(rng.uniform(-100.0, 100.0)))
                })
                .collect();
            let mut enc = vec![0.0f32; bf16_words(len)];
            let mut dec = vec![1.0f32; len];
            encode_bf16_into(&src, &mut enc);
            decode_bf16_into(&enc, &mut dec);
            for (a, b) in src.iter().zip(dec.iter()) {
                assert_eq!(a.to_bits(), b.to_bits(), "len {len}");
            }
        }
    }

    /// Lengths on both sides of every chunk edge the pool split can put
    /// in a buffer, against the scalar rounding one value at a time.
    #[test]
    fn encode_is_invariant_across_chunk_widths() {
        let mut rng = Rng::seed(42);
        let p = PAR_THRESHOLD;
        for len in [5, p - 1, p, p + 1, 2 * p - 1, 2 * p, 2 * p + 1, 4 * p + 3] {
            let src: Vec<f32> = (0..len).map(|_| rng.uniform(-4.0, 4.0)).collect();
            let mut enc = vec![0.0f32; bf16_words(len)];
            encode_bf16_into(&src, &mut enc);
            let mut dec = vec![0.0f32; len];
            decode_bf16_into(&enc, &mut dec);
            for (i, (&x, &y)) in src.iter().zip(&dec).enumerate() {
                let h = f32_to_bf16_rtne(x);
                let half = (enc[i / 2].to_bits() >> (16 * (i % 2))) as u16;
                assert_eq!(half, h, "len {len} element {i}");
                assert_eq!(
                    y.to_bits(),
                    bf16_to_f32(h).to_bits(),
                    "len {len} element {i}"
                );
            }
            if len % 2 == 1 {
                assert_eq!(enc[len / 2].to_bits() >> 16, 0, "len {len}: odd tail");
            }
        }
    }

    #[test]
    fn odd_tail_leaves_the_high_half_zero() {
        let src = [1.5f32, -2.0, 0.25];
        let mut enc = [0.0f32; 2];
        encode_bf16_into(&src, &mut enc);
        assert_eq!(enc[1].to_bits() >> 16, 0, "odd tail must zero the high half");
        let mut dec = [0.0f32; 3];
        decode_bf16_into(&enc, &mut dec);
        assert_eq!(dec, src);
    }

    #[test]
    #[should_panic(expected = "dst must hold")]
    fn encode_rejects_wrong_dst_len() {
        let mut enc = [0.0f32; 1];
        encode_bf16_into(&[1.0, 2.0, 3.0], &mut enc);
    }
}
