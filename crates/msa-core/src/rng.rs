//! The xorshift64* generator behind the seeded random processes on the
//! modeled clock: trace generation (`msa-sched`), open-loop arrivals
//! (`msa-serve`) and failure injection (`msa-storage`); the SplitMix64
//! step that scrambles seeds (arrivals, and the ChaCha8 key expansion
//! of `tensor::Rng`); and the FNV-1a hash that folds names into seeds
//! (`msa-serve`) and checksums bit patterns (`bench`). One definition
//! each keeps their streams the same construction.

/// xorshift64* state. It must be non-zero; every caller seeds with
/// `seed | 1` after whatever scrambling of its own.
#[derive(Debug, Clone)]
pub struct XorShift(pub u64);

impl XorShift {
    /// The next 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// A uniform draw in `[0, 1)` from the output's top 53 bits.
    #[inline]
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// One SplitMix64 step: advances `state` by the golden-ratio increment
/// and returns its mix. Consecutive calls give well-spread words even
/// from seeds that differ in one bit.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a (64-bit) over `words`, in order: any change to any word
/// changes it. Bytes (`s.bytes()`) give the textbook string hash.
pub fn fnv1a(words: impl IntoIterator<Item = impl Into<u64>>) -> u64 {
    words.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, w| {
        (h ^ w.into()).wrapping_mul(0x0000_0100_0000_01b3)
    })
}
