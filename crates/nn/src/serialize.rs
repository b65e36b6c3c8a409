//! Model serialisation: flat little-endian binary snapshots of a model's
//! parameters **and** non-trainable state (batch-norm running stats), so
//! trained models survive process boundaries — the building block behind
//! the checkpoint/restart experiments and the "transfer the model to the
//! inference module" workflow.
//!
//! One on-disk format, version 3 under the `b"MSNN"` magic: `magic ·
//! u32 version · u64 param_len · u64 state_len · u64 opt_len · u64
//! meta_len · param_len×f32 · state_len×f32 · opt_len×f32 · meta_len
//! bytes · u64 checksum`. The optimiser section holds
//! [`crate::Optimizer::state`] and the opaque metadata section the
//! trainer's progress (epoch, step, RNG stream positions, LR schedule
//! point — encoded by `distrib::checkpoint`); a model-only snapshot
//! ([`save`]) leaves both empty. [`save`], [`save_with`] and
//! [`save_into`] write it; any other version reads as
//! [`SnapshotError::UnsupportedVersion`].
//!
//! All integers little-endian. The trailing checksum covers every
//! preceding byte: four FNV-1a lanes, lane *i* folding the *i*-th
//! little-endian `u64` of every 32-byte block, then lanes 1–3 folded into
//! lane 0 and the < 32-byte tail byte by byte. Four independent multiply
//! chains run at memory speed. Every step is a bijection of the state, so
//! single-bit corruption anywhere still becomes a typed
//! [`SnapshotError`], never a panic.

use crate::layer::{Layer as _, Sequential};

const MAGIC: &[u8; 4] = b"MSNN";
const VERSION: u32 = 3;
/// Fixed header size (magic + version + four lengths).
const HEADER: usize = 40;

/// Serialisation errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotError {
    BadMagic,
    UnsupportedVersion(u32),
    Truncated,
    ChecksumMismatch,
    /// A section's length does not match the target model, or (from
    /// [`crate::Optimizer::load_state`]) the optimiser and model.
    ShapeMismatch { expected: usize, found: usize },
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::BadMagic => write!(f, "not an MSNN snapshot"),
            SnapshotError::UnsupportedVersion(v) => write!(f, "unsupported version {v}"),
            SnapshotError::Truncated => write!(f, "snapshot truncated"),
            SnapshotError::ChecksumMismatch => write!(f, "checksum mismatch"),
            SnapshotError::ShapeMismatch { expected, found } => {
                write!(f, "expected {expected} scalars, snapshot has {found}")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

/// Reads the fixed-size little-endian field starting at `at`, or reports
/// the snapshot as truncated. Replaces the `try_into().unwrap()` pattern:
/// a short slice becomes a typed error, not a panic.
fn field<const N: usize>(bytes: &[u8], at: usize) -> Result<[u8; N], SnapshotError> {
    bytes
        .get(at..at + N)
        .and_then(|s| s.try_into().ok())
        .ok_or(SnapshotError::Truncated)
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x100_0000_01b3;

/// One FNV-1a step: fold `x` into `h`.
fn fnv(h: u64, x: u64) -> u64 {
    (h ^ x).wrapping_mul(FNV_PRIME)
}

/// The checksum: four word lanes over 32-byte blocks, folded into lane
/// 0, then the tail bytes (see the module doc).
fn checksum(bytes: &[u8]) -> u64 {
    let mut lanes = [FNV_OFFSET; 4];
    let mut blocks = bytes.chunks_exact(32);
    for block in &mut blocks {
        for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            let mut w = [0u8; 8];
            w.copy_from_slice(word); // chunks_exact(8) guarantees the length
            *lane = fnv(*lane, u64::from_le_bytes(w));
        }
    }
    let h = lanes[1..].iter().fold(lanes[0], |h, &l| fnv(h, l));
    blocks.remainder().iter().fold(h, |h, &b| fnv(h, b as u64))
}

/// Serialises the model's values + state: a snapshot with empty
/// optimiser and progress sections.
pub fn save(model: &Sequential) -> Vec<u8> {
    save_with(model, &[], &[])
}

/// Serialises a full training-state snapshot: model values + state, the
/// optimiser's flat state vector ([`crate::Optimizer::state`]) and an
/// opaque `meta` blob (trainer progress, encoded by the caller).
pub fn save_with(model: &Sequential, opt_state: &[f32], meta: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    save_into(&mut out, model, opt_state, meta);
    out
}

/// [`save_with`] into a reused buffer: `out` is resized and overwritten
/// whatever it held, so a checkpoint loop handing back its previous
/// snapshot allocates nothing once warm. Values encode straight from the
/// model's parameters.
pub fn save_into(out: &mut Vec<u8>, model: &Sequential, opt_state: &[f32], meta: &[u8]) {
    let (params, state) = (model.params(), model.state());
    let p_len: usize = params.iter().map(|p| p.numel()).sum();
    let body = HEADER + 4 * (p_len + state.len() + opt_state.len()) + meta.len();
    out.resize(body + 8, 0);
    out[..4].copy_from_slice(MAGIC);
    out[4..8].copy_from_slice(&VERSION.to_le_bytes());
    for (i, n) in [p_len, state.len(), opt_state.len(), meta.len()].into_iter().enumerate() {
        out[8 + 8 * i..16 + 8 * i].copy_from_slice(&(n as u64).to_le_bytes());
    }
    let mut at = HEADER;
    for xs in params.iter().map(|p| p.value.data()).chain([&state[..], opt_state]) {
        let words = out[at..at + 4 * xs.len()].chunks_exact_mut(4);
        words.zip(xs).for_each(|(w, x)| w.copy_from_slice(&x.to_le_bytes()));
        at += 4 * xs.len();
    }
    out[at..body].copy_from_slice(meta);
    let sum = checksum(&out[..body]);
    out[body..].copy_from_slice(&sum.to_le_bytes());
}

/// Section lengths of a validated snapshot; the float body starts at
/// `HEADER`.
struct Sections {
    p_len: usize,
    s_len: usize,
    opt_len: usize,
    meta_len: usize,
}

/// Validates magic, version, lengths and checksum; returns the section
/// layout. Shape checks against a concrete model happen in the callers.
fn parse(bytes: &[u8]) -> Result<Sections, SnapshotError> {
    if bytes.len() < 8 {
        return Err(SnapshotError::Truncated);
    }
    if &bytes[..4] != MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let version = u32::from_le_bytes(field(bytes, 4)?);
    if version != VERSION {
        return Err(SnapshotError::UnsupportedVersion(version));
    }
    let len = |i: usize| {
        let n = u64::from_le_bytes(field(bytes, 8 + 8 * i)?);
        usize::try_from(n).map_err(|_| SnapshotError::Truncated)
    };
    let (p_len, s_len, opt_len, meta_len) = (len(0)?, len(1)?, len(2)?, len(3)?);
    // Checked arithmetic: a corrupted length field must surface as
    // `Truncated`, not wrap around and alias a different layout.
    let floats = p_len
        .checked_add(s_len)
        .and_then(|n| n.checked_add(opt_len))
        .ok_or(SnapshotError::Truncated)?;
    let body_end = floats
        .checked_mul(4)
        .and_then(|n| n.checked_add(HEADER))
        .and_then(|n| n.checked_add(meta_len))
        .ok_or(SnapshotError::Truncated)?;
    if bytes.len() != body_end.checked_add(8).ok_or(SnapshotError::Truncated)? {
        return Err(SnapshotError::Truncated);
    }
    let stored = u64::from_le_bytes(field(bytes, body_end)?);
    if checksum(&bytes[..body_end]) != stored {
        return Err(SnapshotError::ChecksumMismatch);
    }
    Ok(Sections {
        p_len,
        s_len,
        opt_len,
        meta_len,
    })
}

/// Decodes `n` little-endian `f32`s starting at byte offset `at`.
fn floats_at(bytes: &[u8], at: usize, n: usize) -> Vec<f32> {
    bytes[at..at + 4 * n]
        .chunks_exact(4)
        .map(|c| {
            let mut word = [0u8; 4];
            word.copy_from_slice(c); // chunks_exact(4) guarantees the length
            f32::from_le_bytes(word)
        })
        .collect()
}

/// Restores values + state into `model` (which must have the same
/// architecture the snapshot was taken from). Any training sections are
/// ignored — use [`load_training`] to recover them.
pub fn load(model: &mut Sequential, bytes: &[u8]) -> Result<(), SnapshotError> {
    let _ = restore_model(model, bytes)?;
    Ok(())
}

/// Restores the model **and** returns the training sections
/// `(optimizer_state, progress_meta)`. A model-only snapshot yields two
/// empty sections, which the trainer's progress decoder then refuses.
pub fn load_training(
    model: &mut Sequential,
    bytes: &[u8],
) -> Result<(Vec<f32>, Vec<u8>), SnapshotError> {
    let sections = restore_model(model, bytes)?;
    let opt_at = HEADER + 4 * (sections.p_len + sections.s_len);
    let opt_state = floats_at(bytes, opt_at, sections.opt_len);
    let meta_at = opt_at + 4 * sections.opt_len;
    let meta = bytes[meta_at..meta_at + sections.meta_len].to_vec();
    Ok((opt_state, meta))
}

fn restore_model(model: &mut Sequential, bytes: &[u8]) -> Result<Sections, SnapshotError> {
    let sections = parse(bytes)?;
    let expected = model.param_count();
    if sections.p_len != expected {
        return Err(SnapshotError::ShapeMismatch {
            expected,
            found: sections.p_len,
        });
    }
    if sections.s_len != model.state_len() {
        return Err(SnapshotError::ShapeMismatch {
            expected: model.state_len(),
            found: sections.s_len,
        });
    }
    let values = floats_at(bytes, HEADER, sections.p_len);
    let state = floats_at(bytes, HEADER + 4 * sections.p_len, sections.s_len);
    model.set_values(&values);
    model.set_state(&state);
    Ok(sections)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::Dense;
    use crate::layer::Layer;
    use crate::norm::BatchNorm;
    use crate::optim::{Adam, Optimizer};
    use crate::Relu;
    use tensor::{Rng, Tensor};

    fn model(seed: u64) -> Sequential {
        let mut rng = Rng::seed(seed);
        Sequential::new()
            .push(Dense::new(4, 8, &mut rng))
            .push(BatchNorm::new(8))
            .push(Relu::new())
            .push(Dense::new(8, 2, &mut rng))
    }

    /// A model with trained batch-norm stats and the Adam state after
    /// four steps.
    fn trained(seed: u64) -> (Sequential, Adam) {
        let mut rng = Rng::seed(seed);
        let mut m = model(1);
        let mut opt = Adam::new(1e-3);
        for _ in 0..4 {
            let x = rng.normal_tensor(&[6, 4], 1.0);
            m.zero_grad();
            let y = m.forward(&x, true);
            m.backward(&y);
            opt.step(&mut m.params_mut());
        }
        (m, opt)
    }

    #[test]
    fn roundtrip_preserves_outputs_including_bn_state() {
        let mut rng = Rng::seed(9);
        let mut m = model(1);
        // Touch batch-norm running stats with a few training passes.
        for _ in 0..5 {
            let x = rng.normal_tensor(&[16, 4], 2.0);
            let _ = m.forward(&x, true);
        }
        let x = rng.normal_tensor(&[3, 4], 1.0);
        let y_before = m.predict(&x);

        let bytes = save(&m);
        let mut restored = model(2); // different init
        load(&mut restored, &bytes).unwrap();
        let y_after = restored.predict(&x);
        assert_eq!(y_before.data(), y_after.data());
    }

    #[test]
    fn save_into_a_dirty_larger_buffer_writes_save_with_bytes() {
        let (m, opt) = trained(3);
        let want = save_with(&m, &opt.state(), b"meta");
        let mut buf = vec![0xA5u8; want.len() + 1000];
        save_into(&mut buf, &m, &opt.state(), b"meta");
        assert_eq!(buf, want);
        // Shorter than the snapshot and dirty: grows, same bytes.
        let mut buf = vec![0x5Au8; 17];
        save_into(&mut buf, &m, &opt.state(), b"meta");
        assert_eq!(buf, want);
    }

    #[test]
    fn training_sections_roundtrip() {
        let (m, opt) = trained(3);
        let meta = b"epoch=3;step=17".to_vec();
        let bytes = save_with(&m, &opt.state(), &meta);
        let mut restored = model(9);
        let (opt_state, meta_back) = load_training(&mut restored, &bytes).unwrap();
        assert_eq!(opt_state, opt.state());
        assert_eq!(meta_back, meta);
        assert_eq!(restored.values_vec(), m.values_vec());
        assert_eq!(restored.state(), m.state());
    }

    #[test]
    fn corruption_is_detected() {
        let m = model(1);
        let mut bytes = save(&m);
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        let mut target = model(1);
        assert_eq!(load(&mut target, &bytes), Err(SnapshotError::ChecksumMismatch));
    }

    #[test]
    fn single_bit_flips_yield_typed_errors() {
        let m = model(1);
        let clean = save(&m);
        let flip = |at: usize, bit: u8| {
            let mut b = clean.clone();
            b[at] ^= 1 << bit;
            let mut target = model(1);
            load(&mut target, &b)
        };
        // Every lane step is a bijection of the checksum state, so no
        // single flip anywhere can go unnoticed.
        for at in 0..clean.len() {
            for bit in 0..8 {
                assert!(flip(at, bit).is_err(), "flip of bit {bit} in byte {at} loaded");
            }
        }
        // Magic: any flipped bit breaks the tag before anything else.
        assert_eq!(flip(0, 0), Err(SnapshotError::BadMagic));
        assert_eq!(flip(3, 7), Err(SnapshotError::BadMagic));
        // Version field: 3 ^ 1 = 2 and 3 ^ 4 = 7 are unknown versions.
        assert_eq!(flip(4, 0), Err(SnapshotError::UnsupportedVersion(2)));
        assert_eq!(flip(4, 2), Err(SnapshotError::UnsupportedVersion(7)));
        // Length fields: the section sum no longer matches the byte count
        // (including high bits, which must not overflow the arithmetic).
        for at in [8usize, 16, 24, 32] {
            for bit in [0u8, 5] {
                assert_eq!(flip(at, bit), Err(SnapshotError::Truncated), "byte {at}");
            }
            assert_eq!(flip(at + 7, 7), Err(SnapshotError::Truncated), "byte {at}+7");
        }
        // Payload (first float of the body) and trailing checksum.
        assert_eq!(flip(HEADER, 3), Err(SnapshotError::ChecksumMismatch));
        let last = clean.len() - 1;
        assert_eq!(flip(last, 6), Err(SnapshotError::ChecksumMismatch));
    }

    /// Rewrites the trailing checksum so a mutated snapshot gets past it.
    fn reseal(bytes: &mut [u8]) {
        let n = bytes.len() - 8;
        let sum = checksum(&bytes[..n]);
        bytes[n..].copy_from_slice(&sum.to_le_bytes());
    }

    /// The `i`-th header length (params, state, optimiser, meta).
    fn len_of(bytes: &[u8], i: usize) -> u64 {
        u64::from_le_bytes(field(bytes, 8 + 8 * i).unwrap())
    }

    fn set_len(bytes: &mut [u8], i: usize, v: u64) {
        bytes[8 + 8 * i..16 + 8 * i].copy_from_slice(&v.to_le_bytes());
    }

    #[test]
    fn mutated_snapshots_parse_totally_and_round_trip() {
        let (m, opt) = trained(3);
        let good = save_with(&m, &opt.state(), b"epoch=1;step=4");
        // Every cut is short of the length the header declares.
        for len in 0..good.len() {
            let cut = &good[..len];
            assert_eq!(load(&mut model(1), cut), Err(SnapshotError::Truncated), "cut {len}");
            assert_eq!(load_training(&mut model(1), cut), Err(SnapshotError::Truncated));
        }
        let mut rng = Rng::seed(0x4D53_4E4E); // "MSNN"
        let mut counts = std::collections::BTreeMap::<String, usize>::new();
        for case in 0..4000 {
            let mut bytes = good.clone();
            match case % 4 {
                // A header that moves `d` floats between two of the
                // float sections keeps the total, so it reaches the
                // shape checks.
                0 => {
                    let (from, to, d) = (rng.below(3), rng.below(3), 1 + rng.below(3) as u64);
                    let (f, t) = (len_of(&bytes, from), len_of(&bytes, to));
                    if from != to && f >= d {
                        set_len(&mut bytes, from, f - d);
                        set_len(&mut bytes, to, t + d);
                    }
                }
                // A length near an overflow boundary, or off by a
                // multiple of 2^62 (which wraps to the same byte count).
                1 => {
                    let i = rng.below(4);
                    let v = match rng.below(3) {
                        0 => u64::MAX - rng.below(64) as u64,
                        1 => len_of(&bytes, i).wrapping_add((1 + rng.below(3) as u64) << 62),
                        _ => rng.below(1 << 12) as u64,
                    };
                    set_len(&mut bytes, i, v);
                }
                // One to three random bytes, in the header or anywhere.
                _ => {
                    let span = if case % 4 == 2 { HEADER } else { bytes.len() };
                    for _ in 0..=rng.below(3) {
                        let at = rng.below(span);
                        bytes[at] = rng.below(256) as u8;
                    }
                }
            }
            reseal(&mut bytes);
            let plain = load(&mut model(1), &bytes);
            let mut target = model(1);
            match load_training(&mut target, &bytes) {
                Ok((opt_state, meta)) => {
                    assert_eq!(plain, Ok(()), "case {case}: load and load_training disagree");
                    let again = save_with(&target, &opt_state, &meta);
                    assert_eq!(again, bytes, "case {case} re-encoded differently");
                    *counts.entry("Ok".into()).or_default() += 1;
                }
                Err(e) => {
                    assert_eq!(plain, Err(e), "case {case}: load and load_training disagree");
                    let kind = format!("{e:?}");
                    let kind = kind.split(['(', ' ']).next().unwrap_or_default().to_string();
                    *counts.entry(kind).or_default() += 1;
                }
            }
        }
        // The re-seal lets every mutation past the checksum, to the
        // version, length, overflow and shape checks behind it.
        let count = |k: &str| counts.get(k).copied().unwrap_or(0);
        assert_eq!(count("ChecksumMismatch"), 0, "{counts:?}");
        for kind in ["Ok", "Truncated", "ShapeMismatch", "UnsupportedVersion", "BadMagic"] {
            assert!(count(kind) > 20, "{kind}: {counts:?}");
        }
    }

    #[test]
    fn v2_training_snapshot_into_wrong_model_is_shape_mismatch() {
        // A full training snapshot (with optimiser + meta sections, the
        // layout version 2 introduced) loaded into a smaller model must
        // fail cleanly.
        let mut m = model(1);
        let mut opt = Adam::new(1e-3);
        let x = Tensor::ones(&[2, 4]);
        m.zero_grad();
        let y = m.forward(&x, true);
        m.backward(&y);
        opt.step(&mut m.params_mut());
        let bytes = save_with(&m, &opt.state(), b"progress");

        let mut rng = Rng::seed(3);
        let mut small = Sequential::new().push(Dense::new(2, 2, &mut rng));
        match load(&mut small, &bytes) {
            Err(SnapshotError::ShapeMismatch { .. }) => {}
            other => panic!("expected shape mismatch, got {other:?}"),
        }
        match load_training(&mut small, &bytes) {
            Err(SnapshotError::ShapeMismatch { .. }) => {}
            other => panic!("expected shape mismatch, got {other:?}"),
        }
    }

    #[test]
    fn wrong_architecture_is_rejected() {
        let m = model(1);
        let bytes = save(&m);
        let mut rng = Rng::seed(3);
        let mut small = Sequential::new().push(Dense::new(2, 2, &mut rng));
        match load(&mut small, &bytes) {
            Err(SnapshotError::ShapeMismatch { .. }) => {}
            other => panic!("expected shape mismatch, got {other:?}"),
        }
    }

    #[test]
    fn bad_magic_and_truncation_are_rejected() {
        let mut m = model(1);
        assert_eq!(load(&mut m, b"nope"), Err(SnapshotError::Truncated));
        let mut bytes = save(&m);
        bytes[0] = b'X';
        assert_eq!(load(&mut m, &bytes), Err(SnapshotError::BadMagic));
        let bytes2 = save(&m);
        assert_eq!(
            load(&mut m, &bytes2[..bytes2.len() - 3]),
            Err(SnapshotError::Truncated)
        );
    }
}
