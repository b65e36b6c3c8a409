//! Model serialisation: flat little-endian binary snapshots of a model's
//! parameters **and** non-trainable state (batch-norm running stats), so
//! trained models survive process boundaries — the building block behind
//! the checkpoint/restart experiments and the "transfer the model to the
//! inference module" workflow.
//!
//! Three on-disk versions share the `b"MSNN"` magic:
//!
//! * **v1** (legacy, read-only): `magic · u32 version · u64 param_len ·
//!   u64 state_len · param_len×f32 · state_len×f32 · u64 checksum`.
//!   Model weights and batch-norm stats only — restoring mid-training
//!   from a v1 snapshot silently reset the optimiser, which is exactly
//!   the bug v2 fixes.
//! * **v2** (read-only): `magic · u32 version · u64 param_len ·
//!   u64 state_len · u64 opt_len · u64 meta_len · param_len×f32 ·
//!   state_len×f32 · opt_len×f32 · meta_len bytes · u64 checksum`.
//!   Adds an optimiser-state section ([`crate::Optimizer::state`]) and an
//!   opaque metadata section for trainer progress (epoch, step, RNG
//!   stream positions, LR schedule point — encoded by
//!   `distrib::checkpoint`).
//! * **v3** (current): the v2 layout byte for byte, same length, with a
//!   word-wise checksum. [`save`], [`save_with`] and [`save_into`] write
//!   v3; [`load`] reads all three.
//!
//! All integers little-endian. The trailing checksum covers every
//! preceding byte: byte-serial FNV-1a in v1/v2; in v3 four FNV-1a lanes,
//! lane *i* folding the *i*-th little-endian `u64` of every 32-byte
//! block, then lanes 1–3 folded into lane 0 and the < 32-byte tail byte
//! by byte. Four independent multiply chains run at memory speed. Every
//! step is a bijection of the state, so single-bit corruption anywhere
//! still becomes a typed [`SnapshotError`], never a panic.

use crate::layer::{Layer as _, Sequential};

const MAGIC: &[u8; 4] = b"MSNN";
const VERSION: u32 = 3;
/// Fixed header size of a v1 snapshot (magic + version + two lengths).
const V1_HEADER: usize = 24;
/// Fixed header size of a v2/v3 snapshot (magic + version + four lengths).
const V2_HEADER: usize = 40;

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
    /// The snapshot carries no optimiser/progress sections (a v1 model
    /// snapshot), so a training-state restore is impossible.
    NotATrainingSnapshot,
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
            SnapshotError::NotATrainingSnapshot => {
                write!(f, "snapshot has no optimiser/progress sections (v1 model-only)")
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

/// The v1/v2 checksum: byte-serial FNV-1a.
fn checksum(bytes: &[u8]) -> u64 {
    bytes.iter().fold(FNV_OFFSET, |h, &b| fnv(h, b as u64))
}

/// The v3 checksum: four word lanes over 32-byte blocks, folded into
/// lane 0, then the tail bytes (see the module doc).
fn checksum_v3(bytes: &[u8]) -> u64 {
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

/// Serialises the model's values + state (no optimiser/progress
/// sections): a v3 snapshot with empty training sections.
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
    let body = V2_HEADER + 4 * (p_len + state.len() + opt_state.len()) + meta.len();
    out.resize(body + 8, 0);
    out[..4].copy_from_slice(MAGIC);
    out[4..8].copy_from_slice(&VERSION.to_le_bytes());
    for (i, n) in [p_len, state.len(), opt_state.len(), meta.len()].into_iter().enumerate() {
        out[8 + 8 * i..16 + 8 * i].copy_from_slice(&(n as u64).to_le_bytes());
    }
    let mut at = V2_HEADER;
    for xs in params.iter().map(|p| p.value.data()).chain([&state[..], opt_state]) {
        let words = out[at..at + 4 * xs.len()].chunks_exact_mut(4);
        words.zip(xs).for_each(|(w, x)| w.copy_from_slice(&x.to_le_bytes()));
        at += 4 * xs.len();
    }
    out[at..body].copy_from_slice(meta);
    let sum = checksum_v3(&out[..body]);
    out[body..].copy_from_slice(&sum.to_le_bytes());
}

/// Parsed section bounds of a validated snapshot.
struct Sections {
    p_len: usize,
    s_len: usize,
    opt_len: usize,
    meta_len: usize,
    /// Byte offset where the float body starts.
    body: usize,
    version: u32,
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
    let (header, opt_len, meta_len) = match version {
        1 => (V1_HEADER, 0usize, 0usize),
        2 | 3 => (
            V2_HEADER,
            u64::from_le_bytes(field(bytes, 24)?) as usize,
            u64::from_le_bytes(field(bytes, 32)?) as usize,
        ),
        v => return Err(SnapshotError::UnsupportedVersion(v)),
    };
    let p_len = u64::from_le_bytes(field(bytes, 8)?) as usize;
    let s_len = u64::from_le_bytes(field(bytes, 16)?) as usize;
    // Checked arithmetic: a corrupted length field must surface as
    // `Truncated`, not wrap around and alias a different layout.
    let floats = p_len
        .checked_add(s_len)
        .and_then(|n| n.checked_add(opt_len))
        .ok_or(SnapshotError::Truncated)?;
    let body_end = floats
        .checked_mul(4)
        .and_then(|n| n.checked_add(header))
        .and_then(|n| n.checked_add(meta_len))
        .ok_or(SnapshotError::Truncated)?;
    if bytes.len() != body_end.checked_add(8).ok_or(SnapshotError::Truncated)? {
        return Err(SnapshotError::Truncated);
    }
    let stored = u64::from_le_bytes(field(bytes, body_end)?);
    let sum = if version >= 3 { checksum_v3 } else { checksum };
    if sum(&bytes[..body_end]) != stored {
        return Err(SnapshotError::ChecksumMismatch);
    }
    Ok(Sections {
        p_len,
        s_len,
        opt_len,
        meta_len,
        body: header,
        version,
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
/// architecture the snapshot was taken from). Accepts v1, v2 and v3
/// snapshots; any training sections are ignored — use
/// [`load_training`] to recover them.
pub fn load(model: &mut Sequential, bytes: &[u8]) -> Result<(), SnapshotError> {
    let _ = restore_model(model, bytes)?;
    Ok(())
}

/// Restores the model **and** returns the training sections
/// `(optimizer_state, progress_meta)` of a v2/v3 snapshot. A v1 (model-only)
/// snapshot restores the model but yields
/// [`SnapshotError::NotATrainingSnapshot`], since resuming training from
/// it would silently reset the optimiser.
pub fn load_training(
    model: &mut Sequential,
    bytes: &[u8],
) -> Result<(Vec<f32>, Vec<u8>), SnapshotError> {
    let sections = restore_model(model, bytes)?;
    if sections.version < 2 {
        return Err(SnapshotError::NotATrainingSnapshot);
    }
    let opt_at = sections.body + 4 * (sections.p_len + sections.s_len);
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
    let values = floats_at(bytes, sections.body, sections.p_len);
    let state = floats_at(bytes, sections.body + 4 * sections.p_len, sections.s_len);
    model.set_values(&values);
    model.set_state(&state);
    Ok(sections)
}

/// Saves to a file.
pub fn save_file(model: &Sequential, path: &std::path::Path) -> std::io::Result<()> {
    std::fs::write(path, save(model))
}

/// Loads from a file.
pub fn load_file(model: &mut Sequential, path: &std::path::Path) -> std::io::Result<()> {
    let bytes = std::fs::read(path)?;
    load(model, &bytes).map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
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

    /// Hand-writes a v1 snapshot of `model` (the legacy format the
    /// reader must keep accepting).
    fn save_v1(model: &Sequential) -> Vec<u8> {
        let values = model.values_vec();
        let state = model.state();
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&1u32.to_le_bytes());
        out.extend_from_slice(&(values.len() as u64).to_le_bytes());
        out.extend_from_slice(&(state.len() as u64).to_le_bytes());
        for v in values.iter().chain(&state) {
            out.extend_from_slice(&v.to_le_bytes());
        }
        let sum = checksum(&out);
        out.extend_from_slice(&sum.to_le_bytes());
        out
    }

    /// Hand-writes a v2 snapshot (the previous training format, with the
    /// byte-serial checksum the reader must keep accepting).
    fn save_v2(model: &Sequential, opt_state: &[f32], meta: &[u8]) -> Vec<u8> {
        let values = model.values_vec();
        let state = model.state();
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&2u32.to_le_bytes());
        for len in [values.len(), state.len(), opt_state.len(), meta.len()] {
            out.extend_from_slice(&(len as u64).to_le_bytes());
        }
        for v in values.iter().chain(&state).chain(opt_state) {
            out.extend_from_slice(&v.to_le_bytes());
        }
        out.extend_from_slice(meta);
        let sum = checksum(&out);
        out.extend_from_slice(&sum.to_le_bytes());
        out
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
    fn v1_snapshots_still_load() {
        let mut rng = Rng::seed(9);
        let mut m = model(1);
        for _ in 0..3 {
            let x = rng.normal_tensor(&[8, 4], 1.0);
            let _ = m.forward(&x, true);
        }
        let bytes = save_v1(&m);
        let mut restored = model(5);
        load(&mut restored, &bytes).unwrap();
        let x = rng.normal_tensor(&[2, 4], 1.0);
        assert_eq!(m.predict(&x).data(), restored.predict(&x).data());
        // ...but they are not training snapshots.
        let mut target = model(6);
        assert_eq!(
            load_training(&mut target, &bytes),
            Err(SnapshotError::NotATrainingSnapshot)
        );
    }

    #[test]
    fn v2_snapshots_still_load() {
        let (m, opt) = trained(3);
        let meta = b"epoch=3;step=17".to_vec();
        let bytes = save_v2(&m, &opt.state(), &meta);
        // Same layout and length as v3; only the version and checksum differ.
        let v3 = save_with(&m, &opt.state(), &meta);
        assert_eq!(bytes.len(), v3.len());
        assert_eq!(bytes[8..bytes.len() - 8], v3[8..v3.len() - 8]);
        let mut restored = model(9);
        load(&mut restored, &bytes).unwrap();
        assert_eq!(restored.values_vec(), m.values_vec());
        let mut restored = model(9);
        let (opt_state, meta_back) = load_training(&mut restored, &bytes).unwrap();
        assert_eq!((opt_state, meta_back), (opt.state(), meta));
        assert_eq!(restored.values_vec(), m.values_vec());
        assert_eq!(restored.state(), m.state());
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
        // Version field: 3 ^ 1 = 2 parses as v2, whose byte-serial
        // checksum disagrees; 3 ^ 4 = 7 is an unknown version.
        assert_eq!(flip(4, 0), Err(SnapshotError::ChecksumMismatch));
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
        assert_eq!(flip(V2_HEADER, 3), Err(SnapshotError::ChecksumMismatch));
        let last = clean.len() - 1;
        assert_eq!(flip(last, 6), Err(SnapshotError::ChecksumMismatch));
    }

    #[test]
    fn v2_training_snapshot_into_wrong_model_is_shape_mismatch() {
        // A full training snapshot (with optimiser + meta sections)
        // loaded into a smaller "v1-shaped" model must fail cleanly.
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

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("msa_suite_snapshot_test");
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("model.msnn");
        let m = model(1);
        save_file(&m, &path).unwrap();
        let mut restored = model(4);
        load_file(&mut restored, &path).unwrap();
        let x = Tensor::ones(&[1, 4]);
        let mut m = m;
        assert_eq!(m.predict(&x).data(), restored.predict(&x).data());
        let _ = std::fs::remove_file(&path);
    }
}
