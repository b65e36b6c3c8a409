//! In-tree `f32` transcendentals: [`exp`], [`tanh`] and [`sigmoid`].
//!
//! # Bit contract
//!
//! Each function equals glibc 2.36's FMA build (`expf`, `tanhf`, and
//! `1/(1 + expf(−x))`) on every one of the 2³² inputs, NaN payloads
//! included, independent of CPU and libm. The release CI step sweeps all
//! of them, through a scalar call and through a slice loop.
//!
//! # Algorithms
//!
//! * [`exp`] is glibc's table-driven `expf` (`sysdeps/ieee754/flt-32`):
//!   `x·32/ln 2 = k + r` by the `0x1.8p52` rounding shift, `2^(k/32)`
//!   from a 32-entry table, `2^(r/32)` by a cubic, all in `f64`. The FMA
//!   build contracts the reduction (`InvLn2N·x + shift`, `InvLn2N·x − kd`)
//!   and the polynomial's three multiply-adds; here they are written as
//!   [`f64::mul_add`], which is correctly rounded on every target (an
//!   `fma` instruction where the CPU has one, a libm `fma()` call where it
//!   does not). Without those contractions the same code equals the
//!   non-FMA build instead, which differs from the FMA build on two
//!   inputs, `0x4202422f` and `0xc27c65d9`, each within 0.0014 ulp of a
//!   rounding midpoint.
//! * [`tanh`] is fdlibm's `tanhf` over fdlibm's `expm1f`, as glibc's
//!   `flt-32` sources have them: every operation single precision, none
//!   contracted.
//!
//! Every path of both is computed for each element and the result
//! selected, with IEEE add, sub, mul, div, `mul_add`, `trunc` (exact) and
//! wrapping integer bit operations only. There are no branches, so rustc
//! vectorizes a caller's element loop, and the lanes give the same bits as
//! the scalar code. Lanes whose result is selected from a special case
//! evaluate the main path on a harmless stand-in argument, so no lane
//! computes with infinities, NaNs or subnormals it does not return.
//!
//! # What still calls the host
//!
//! The Box–Muller draws in [`crate::rng`] (`f32::ln`, `f32::cos`) and
//! every `f64` transcendental in the workspace.

/// `bits(2^(i/32)) − (i << 47)`: adding `k << 47` for `k ≡ i (mod 32)`
/// gives the bits of `2^(k/32)`.
#[rustfmt::skip]
const EXP2_TAB: [u64; 32] = [
    0x3ff0000000000000, 0x3fefd9b0d3158574, 0x3fefb5586cf9890f, 0x3fef9301d0125b51,
    0x3fef72b83c7d517b, 0x3fef54873168b9aa, 0x3fef387a6e756238, 0x3fef1e9df51fdee1,
    0x3fef06fe0a31b715, 0x3feef1a7373aa9cb, 0x3feedea64c123422, 0x3feece086061892d,
    0x3feebfdad5362a27, 0x3feeb42b569d4f82, 0x3feeab07dd485429, 0x3feea47eb03a5585,
    0x3feea09e667f3bcd, 0x3fee9f75e8ec5f74, 0x3feea11473eb0187, 0x3feea589994cce13,
    0x3feeace5422aa0db, 0x3feeb737b0cdc5e5, 0x3feec49182a3f090, 0x3feed503b23e255d,
    0x3feee89f995ad3ad, 0x3feeff76f2fb5e47, 0x3fef199bdd85529c, 0x3fef3720dcef9069,
    0x3fef5818dcfba487, 0x3fef7c97337b9b5f, 0x3fefa4afa2a490da, 0x3fefd0765b6e4540,
];
/// `32/ln 2` (`0x1.71547652b82fep+5`).
const INV_LN2_N: f64 = f64::from_bits(0x4047_1547_652b_82fe);
/// `0x1.8p52`: adding it rounds to an integer held in the low bits.
const SHIFT: f64 = f64::from_bits(0x4338_0000_0000_0000);
/// `2^(r/32) ≈ 1 + C2·r + C1·r² + C0·r³`.
const C0: f64 = f64::from_bits(0x3ebc_6af8_4b91_2394);
const C1: f64 = f64::from_bits(0x3f2e_bfce_50fa_c4f3);
const C2: f64 = f64::from_bits(0x3f96_2e42_ff0c_52d6);

/// `e^x`, bit-equal to glibc's `expf` (see the module doc).
#[inline]
pub fn exp(x: f32) -> f32 {
    // Beyond the cut-offs below the result is selected, not computed.
    let xd = f64::from(x.clamp(-104.0, 89.0));
    let kd = INV_LN2_N.mul_add(xd, SHIFT);
    let ki = kd.to_bits();
    let kd = kd - SHIFT;
    let r = INV_LN2_N.mul_add(xd, -kd);
    let s = f64::from_bits(EXP2_TAB[(ki % 32) as usize].wrapping_add(ki << 47));
    let y = C0.mul_add(r, C1).mul_add(r * r, C2.mul_add(r, 1.0));
    let y = (y * s) as f32;
    // Past log(0x1p128) the result overflows, below log(0x1p-150) it
    // rounds to zero (−inf included); NaN comes back quiet.
    let y = if x > f32::from_bits(0x42b1_7217) {
        f32::INFINITY
    } else {
        y
    };
    let y = if x < f32::from_bits(0xc2cf_f1b4) {
        0.0
    } else {
        y
    };
    if x.is_nan() {
        x + x
    } else {
        y
    }
}

/// The logistic function `1/(1 + e^−x)`, through [`exp`].
#[inline]
pub fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + exp(-x))
}

/// Hyperbolic tangent, bit-equal to glibc's `tanhf` (see the module doc).
#[inline]
pub fn tanh(x: f32) -> f32 {
    let jx = x.to_bits();
    let ix = jx & 0x7fff_ffff;
    // Lanes outside 2⁻⁵⁵ ≤ |x| < 22 are selected below; evaluating |x| = 1
    // for them keeps infinities, NaNs and subnormals (a microcode assist
    // each) out of the arithmetic.
    let a = if (0x2400_0000..0x41b0_0000).contains(&ix) {
        f32::from_bits(ix)
    } else {
        1.0
    };
    // |x| ≥ 1: 1 − 2/(expm1(2|x|) + 2); below: −t/(t + 2), t = expm1(−2|x|).
    // The argument's sign is a bit operation: a branch on `big` ahead of
    // the call would let the optimiser evaluate expm1 once per side.
    let big = a >= 1.0;
    let t = expm1(2.0 * f32::from_bits(a.to_bits() | u32::from(!big) << 31));
    let q = if big { 2.0 } else { -t } / (t + 2.0);
    let z = if big { 1.0 - q } else { q };
    // |x| ≥ 22 (±inf included) saturates; `1 − 1e-30` rounds to 1.
    let z = if ix >= 0x41b0_0000 { 1.0 } else { z };
    let z = f32::from_bits(z.to_bits() ^ (jx & 0x8000_0000));
    // |x| < 2⁻⁵⁵ (±0 included): `x·(1 + x)` is `x`. NaN comes back quiet.
    let z = if ix < 0x2400_0000 { x } else { z };
    if ix > 0x7f80_0000 {
        x + x
    } else {
        z
    }
}

// fdlibm `expm1f`'s constants.
const LN2_HI: f32 = f32::from_bits(0x3f31_7180);
const LN2_LO: f32 = f32::from_bits(0x3717_f7d1);
const INV_LN2: f32 = f32::from_bits(0x3fb8_aa3b);
const Q1: f32 = f32::from_bits(0xbd08_8889);
const Q2: f32 = f32::from_bits(0x3ad0_0d01);
const Q3: f32 = f32::from_bits(0xb8a6_70cd);
const Q4: f32 = f32::from_bits(0x3686_7e54);
const Q5: f32 = f32::from_bits(0xb457_edbb);
/// `1.5·2²³`: an integer-valued `f32` below 2²² in magnitude plus this
/// holds the integer in its low mantissa bits.
const TO_INT: f32 = 12_582_912.0;

/// fdlibm's `expm1f` for the arguments [`tanh`] passes, `2|x|` or
/// `−2|x|` with `2⁻⁵⁵ ≤ |x| < 22`; it leaves out the paths beyond those
/// (near overflow, below `−27 ln 2`). Always inlined, so the caller's
/// loop vectorizes through it.
#[inline(always)]
fn expm1(x: f32) -> f32 {
    let sign = x.to_bits() & 0x8000_0000;
    let hx = x.to_bits() & 0x7fff_ffff;
    // Reduce |x| > ln2/2 to x − k·ln2 = hi − lo: k = ±1 below 1.5·ln2,
    // else `x/ln2 ± 0.5` truncated, as C's float-to-int conversion does.
    let kf = (INV_LN2 * x + f32::from_bits(0x3f00_0000 | sign)).trunc();
    let kf = if hx < 0x3f85_1592 {
        f32::from_bits(0x3f80_0000 | sign)
    } else {
        kf
    };
    let kf = if hx > 0x3eb1_7218 { kf } else { 0.0 };
    let k = (kf + TO_INT).to_bits() as i32 - TO_INT.to_bits() as i32;
    let (hi, lo) = (x - kf * LN2_HI, kf * LN2_LO);
    let xr = hi - lo;
    // |x| < 2⁻²⁵ returns x; reducing 0 instead keeps those lanes off
    // subnormal intermediates.
    let tiny = hx < 0x3300_0000;
    let (xr, c) = match (tiny, k) {
        (true, _) => (0.0, 0.0),
        (_, 0) => (x, 0.0),
        _ => (xr, (hi - xr) - lo),
    };

    let hfx = 0.5 * xr;
    let hxs = xr * hfx;
    let r1 = 1.0 + hxs * (Q1 + hxs * (Q2 + hxs * (Q3 + hxs * (Q4 + hxs * Q5))));
    let t = 3.0 - r1 * hfx;
    let e = hxs * ((r1 - t) / (6.0 - xr * t));
    let y_k0 = xr - (xr * e - hxs);
    let e = (xr * (e - c) - c) - hxs;
    let y_km1 = 0.5 * (xr - e) - 0.5;
    let y_k1 = if xr < -0.25 {
        -2.0 * (e - (xr + 0.5))
    } else {
        1.0 + 2.0 * (xr - e)
    };
    // |k| ≥ 2: y·2^k, y from one of three spellings by k, then −1 for
    // the one that returns `y − 1`.
    let far = k <= -2 || k > 56;
    let one_minus = f32::from_bits(0x3f80_0000 - (0x0100_0000u32.wrapping_shr(k as u32)));
    let pow_neg = f32::from_bits((0x7f - k).wrapping_shl(23) as u32);
    let y = if far {
        1.0 - (e - xr)
    } else if k < 23 {
        one_minus - (e - xr)
    } else {
        (xr - (e + pow_neg)) + 1.0
    };
    let y = f32::from_bits(y.to_bits().wrapping_add(k.wrapping_shl(23) as u32));
    let y = if far { y - 1.0 } else { y };
    let y = match k {
        0 => y_k0,
        -1 => y_km1,
        1 => y_k1,
        _ => y,
    };
    if tiny {
        x
    } else {
        y
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Rng;
    use std::hint::black_box;

    /// The host's `1/(1 + expf(−x))`.
    fn host_sigmoid(x: f32) -> f32 {
        1.0 / (1.0 + (-x).exp())
    }

    /// `(name, in-tree, host)` for each function.
    type F = fn(f32) -> f32;

    const FNS: [(&str, F, F); 3] = [
        ("tanh", tanh, f32::tanh),
        ("exp", exp, f32::exp),
        ("sigmoid", sigmoid, host_sigmoid),
    ];

    /// Inputs whose glibc `expf` depends on the FMA contractions: each is
    /// within 0.0014 ulp of a rounding midpoint, so the non-FMA build
    /// rounds it the other way. Pinned to the FMA build's bits.
    const MIDPOINT_EXP: [(u32, u32); 2] = [(0x4202_422f, 0x56fc_9f1c), (0xc27c_65d9, 0x11fa_2993)];

    /// What glibc's FMA build returns: the host's bits, except where
    /// [`MIDPOINT_EXP`] pins them, so the check holds on a host whose
    /// libm runs the non-FMA `expf`.
    fn fma_build(name: &str, host: F, x: f32) -> u32 {
        let pinned = |x: f32| {
            MIDPOINT_EXP
                .iter()
                .find(|p| p.0 == x.to_bits())
                .map(|p| f32::from_bits(p.1))
        };
        match (name, pinned(x), pinned(-x)) {
            ("exp", Some(e), _) => e.to_bits(),
            ("sigmoid", _, Some(e)) => (1.0 / (1.0 + e)).to_bits(),
            _ => host(x).to_bits(),
        }
    }

    /// The element loop a caller writes, one per function so each is
    /// inlined into its own loop as at the call sites; kept out of line so
    /// every check runs the same compiled lanes, tails included.
    #[inline(never)]
    fn lanes(name: &str, xs: &mut [f32]) {
        match name {
            "tanh" => xs.iter_mut().for_each(|v| *v = tanh(*v)),
            "exp" => xs.iter_mut().for_each(|v| *v = exp(*v)),
            _ => xs.iter_mut().for_each(|v| *v = sigmoid(*v)),
        }
    }

    /// Checks `bits` against [`fma_build`], through an opaque fn pointer
    /// (scalar) and through [`lanes`]: the number of mismatches and the
    /// first few.
    fn check(name: &str, ours: F, host: F, bits: &[u32]) -> (usize, Vec<String>) {
        let xs: Vec<f32> = bits.iter().map(|&b| f32::from_bits(b)).collect();
        let mut lane = xs.clone();
        lanes(name, &mut lane);
        // Opaque, so neither side is folded at compile time: rustc's
        // constant folder need not round like the FMA build.
        let (scalar, host) = (black_box(ours), black_box(host));
        let (mut count, mut first) = (0, Vec::new());
        for (&x, &l) in xs.iter().zip(&lane) {
            let want = fma_build(name, host, x);
            let got = [scalar(x).to_bits(), l.to_bits()];
            if got != [want; 2] {
                count += 1;
                if first.len() < 8 {
                    first.push(format!(
                        "{name}({:#010x}) = {:#010x?}, want {want:#010x}",
                        x.to_bits(),
                        got
                    ));
                }
            }
        }
        (count, first)
    }

    /// Boundary inputs, each with its neighbours and both signs: signed
    /// zeros, subnormals, each `tanhf`/`expm1f` branch threshold, `expf`'s
    /// 88 / overflow / underflow cut-offs, infinities and NaNs with
    /// payloads.
    fn edge_bits() -> Vec<u32> {
        #[rustfmt::skip]
        let points: [u32; 24] = [
            0x0000_0000, 0x0000_0001, 0x0000_1234, 0x007f_ffff, 0x0080_0000,
            0x2400_0000, 0x3eb1_7218, 0x3300_0000, 0x3f85_1592, 0x3f80_0000,
            0x4195_b844, 0x41b0_0000, 0x42b1_7218,
            0x42b0_0000, 0x42b1_7217, 0x42cf_f1b4, 0x42ce_8ed0,
            0x7f7f_ffff, 0x7f80_0000, 0x7f80_0001, 0x7fa0_0000, 0x7fc0_0000, 0x7fc1_2345, 0x7fff_ffff,
        ];
        let mut bits = Vec::new();
        for p in points {
            for d in [-2, -1, 0, 1, 2] {
                let b = p.wrapping_add_signed(d) & 0x7fff_ffff;
                bits.extend([b, b | 0x8000_0000]);
            }
        }
        bits
    }

    #[test]
    fn edge_inputs_equal_the_host() {
        let bits = edge_bits();
        for (name, ours, host) in FNS {
            let (count, first) = check(name, ours, host, &bits);
            assert_eq!(count, 0, "{}", first.join("\n"));
        }
    }

    #[test]
    fn a_seeded_sample_equals_the_host() {
        let mut bits = vec![0u32; 1 << 20];
        Rng::seed(0x6d61_7468).fill_u32(&mut bits);
        for (name, ours, host) in FNS {
            let (count, first) = check(name, ours, host, &bits);
            assert_eq!(count, 0, "{}", first.join("\n"));
        }
    }

    #[test]
    fn near_midpoint_exp_inputs_keep_the_fma_builds_bits() {
        for (x, want) in MIDPOINT_EXP {
            let x = f32::from_bits(x);
            assert_eq!(exp(black_box(x)).to_bits(), want, "exp({x:e})");
            let mut lane = [x; 9];
            lanes("exp", &mut lane);
            assert!(
                lane.iter().all(|v| v.to_bits() == want),
                "exp({x:e}) in lanes"
            );
        }
    }

    #[test]
    fn every_slice_length_matches_the_scalar_function() {
        for len in 0..=17usize {
            let xs: Vec<f32> = (0..len).map(|i| (i as f32 - 8.3) * 1.37).collect();
            for (name, ours, _) in FNS {
                let mut lane = xs.clone();
                lanes(name, &mut lane);
                for (x, l) in xs.iter().zip(&lane) {
                    assert_eq!(
                        l.to_bits(),
                        black_box(ours)(*x).to_bits(),
                        "{name}({x}), len {len}"
                    );
                }
            }
        }
    }

    /// All 2³² inputs of each function, scalar and in lanes. About four
    /// minutes on two threads in release; CI runs it in the release step:
    /// `cargo test --release -p tensor every_input -- --ignored --nocapture`.
    #[test]
    #[ignore = "exhaustive: all 2^32 inputs per function"]
    fn every_input_equals_the_host() {
        const CHUNK: u64 = 1 << 16;
        let threads = std::thread::available_parallelism().map_or(2, |n| n.get().min(8)) as u64;
        for (name, ours, host) in FNS {
            let start = std::time::Instant::now();
            let (count, first) = std::thread::scope(|s| {
                let workers: Vec<_> = (0..threads)
                    .map(|w| {
                        s.spawn(move || {
                            let (mut count, mut first) = (0, Vec::new());
                            for c in (w..(1 << 32) / CHUNK).step_by(threads as usize) {
                                let bits: Vec<u32> =
                                    (c * CHUNK..(c + 1) * CHUNK).map(|b| b as u32).collect();
                                let (n, f) = check(name, ours, host, &bits);
                                count += n;
                                first.extend(f.into_iter().take(8 - first.len().min(8)));
                            }
                            (count, first)
                        })
                    })
                    .collect();
                workers
                    .into_iter()
                    .map(|h| h.join().expect("sweep worker"))
                    .fold((0, Vec::new()), |(n, mut f), (wn, wf)| {
                        f.extend(wf);
                        (n + wn, f)
                    })
            });
            println!(
                "{name}: all 2^32 inputs in {:.1} s on {threads} threads",
                start.elapsed().as_secs_f64()
            );
            assert_eq!(count, 0, "{}", first.join("\n"));
        }
    }
}
