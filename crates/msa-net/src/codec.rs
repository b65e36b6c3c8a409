//! Gradient wire codecs: what a gradient looks like *on the wire*.
//!
//! The paper's scaling story is bytes-bound: at 96–128 GPUs the ResNet-50
//! allreduce is interconnect-limited, and its DeepSpeed outlook points at
//! low-precision and sparsified gradient exchange as the lever. A
//! [`GradCodec`] picks the wire format for one exchanged buffer:
//!
//! * [`GradCodec::Dense32`] — the seed format, 4 bytes/element, bit-exact;
//! * [`GradCodec::Bf16`] — two bf16 values packed per f32 transport word
//!   ([`tensor::codec`]), exactly **half** the wire bytes; rounding is
//!   deterministic RTNE so results stay bit-reproducible across runs,
//!   pool widths and bucket partitions;
//! * [`GradCodec::SparseTopK`] — error-feedback top-k (`distrib`'s
//!   compressor) shipping `2k` words of [`WirePair`]s, `k ≈ ratio·n`.
//!
//! Because the transport counts whatever slice length it ships, sending
//! encoded payloads automatically makes the [`crate::CommStats`] wire
//! counters and the priced Lamport clock see the *encoded* byte count —
//! the codec's effect on comm time is measured, not asserted.
//!
//! Encoded words are bit containers: they cross the memcpy transport and
//! are decoded, never operated on. [`WirePair`] makes that contract a
//! type instead of a convention (see DESIGN.md §15).

use crate::collectives::add_into;
use crate::comm::PointToPoint;
use crate::scratch::Arena;
use crate::stats::CollectiveOp;
use tensor::codec::{bf16_to_f32, bf16_words, decode_bf16_into, encode_bf16_into, f32_to_bf16_rtne};

/// Wire format for one exchanged gradient buffer.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum GradCodec {
    /// Dense f32 — the seed wire format, bit-exact.
    #[default]
    Dense32,
    /// Packed bf16, round-to-nearest-even: half the wire bytes.
    Bf16,
    /// Error-feedback top-k: `2·k` wire words per buffer of `n` elements,
    /// `k = max(1, ⌈ratio·n⌉)` (the `TopKCompressor::k` floor).
    SparseTopK {
        /// Fraction of entries kept per step, in `(0, 1]`.
        ratio: f64,
    },
}

impl GradCodec {
    /// Stable name used in tables, JSON reports and CLI flags.
    /// `Dense32` → `dense32`, `Bf16` → `bf16`, top-k → `topk<ratio>`.
    pub fn name(&self) -> String {
        match self {
            GradCodec::Dense32 => "dense32".to_string(),
            GradCodec::Bf16 => "bf16".to_string(),
            GradCodec::SparseTopK { ratio } => format!("topk{ratio}"),
        }
    }

    /// Parses [`GradCodec::name`] output back; `None` on unknown names.
    pub fn parse(s: &str) -> Option<GradCodec> {
        match s {
            "dense32" => Some(GradCodec::Dense32),
            "bf16" => Some(GradCodec::Bf16),
            _ => {
                let ratio: f64 = s.strip_prefix("topk")?.parse().ok()?;
                (ratio > 0.0 && ratio <= 1.0).then_some(GradCodec::SparseTopK { ratio })
            }
        }
    }

    /// Number of `f32` transport words one buffer of `len` elements
    /// occupies on the wire under this codec.
    pub fn wire_words(&self, len: usize) -> usize {
        match self {
            GradCodec::Dense32 => len,
            GradCodec::Bf16 => bf16_words(len),
            GradCodec::SparseTopK { ratio } => {
                if len == 0 {
                    0
                } else {
                    2 * sparse_k(len, *ratio)
                }
            }
        }
    }

    /// Wire bytes for `len` elements — what the `CommStats` counters and
    /// the priced clock will see per shipped buffer.
    pub fn wire_bytes(&self, len: usize) -> usize {
        self.wire_words(len) * std::mem::size_of::<f32>()
    }
}

/// Entries kept per step for a `len`-element buffer at `ratio` — the
/// same `max(1, ⌈ratio·len⌉)` floor as `TopKCompressor::k`, clamped to
/// `len` (a selection can never exceed the buffer).
pub fn sparse_k(len: usize, ratio: f64) -> usize {
    (((len as f64 * ratio).ceil() as usize).max(1)).min(len)
}

/// One sparse wire entry: a gradient index and its value, packed into
/// two `f32` transport words.
///
/// The index word is `f32::from_bits(index)` — an arbitrary bit pattern
/// that may alias signalling NaNs. The contract (and the reason this is
/// a type, not an inline `from_bits` call) is that pair words only ever
/// cross **memcpy transports** and come back through
/// [`WirePair::from_words`]; any arithmetic path could quiet the NaN and
/// corrupt the index. A `ThreadComm` round-trip test pins the
/// bits-preserved property for NaN-adjacent patterns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WirePair {
    /// Index into the dense gradient buffer.
    pub index: u32,
    /// Gradient value at that index (raw bits preserved end to end).
    pub value_bits: u32,
}

impl WirePair {
    /// Builds a pair from an index and an `f32` value.
    pub fn new(index: u32, value: f32) -> WirePair {
        WirePair {
            index,
            value_bits: value.to_bits(),
        }
    }

    /// The value as `f32`.
    pub fn value(&self) -> f32 {
        f32::from_bits(self.value_bits)
    }

    /// Packs into two transport words at `out[0..2]`.
    pub fn to_words(self, out: &mut [f32]) {
        out[0] = f32::from_bits(self.index);
        out[1] = f32::from_bits(self.value_bits);
    }

    /// Unpacks from two transport words.
    pub fn from_words(words: &[f32]) -> WirePair {
        WirePair {
            index: words[0].to_bits(),
            value_bits: words[1].to_bits(),
        }
    }
}

/// Pipeline allreduce (sum) over a **bf16 wire**: every hop ships packed
/// bf16, so the wire counters and the priced clock see half the dense
/// bytes. Result: the partition-invariant chain fold
/// `rtne(g_{p−1} + dec(rtne(g_{p−2} + … dec(rtne(g_0)))))`, identical
/// bits on every rank (all ranks — including the chain head — decode the
/// same final encoded words).
///
/// The fold is element-wise, so like the dense pipeline it is invariant
/// to how the gradient is partitioned into buckets — the property the
/// fused exchange needs for bit-equality across bucket sizes.
///
/// Each hop encodes into the lent send buffer and decodes from the lent
/// receive buffer; only the decoded running sum (not a message) is
/// staged, in a `scratch` frame, on ranks that fold.
pub fn bf16_allreduce<C: PointToPoint + ?Sized>(c: &C, buf: &mut [f32], scratch: &mut Arena) {
    let p = c.size();
    if buf.is_empty() {
        return;
    }
    if p == 1 {
        // Degenerate chain: the "sum" still passes through the wire
        // format so p = 1 agrees with the p > 1 quantization semantics.
        for x in buf.iter_mut() {
            *x = bf16_to_f32(f32_to_bf16_rtne(*x));
        }
        return;
    }
    let _scope = c.stats().map(|s| s.scope(CollectiveOp::Pipeline));
    let (rank, ew) = (c.rank(), bf16_words(buf.len()));

    // Phase 1 — reduce chain 0 → 1 → … → p−1, re-encoding after each
    // fold so every hop ships `ew` packed words.
    if rank > 0 {
        let mut frame = scratch.frame(buf.len());
        let dec = frame.take(buf.len());
        c.recv_with(rank - 1, |enc| decode_bf16_into(enc, dec));
        add_into(buf, dec);
    }
    if rank == p - 1 {
        // The chain's end starts phase 2 and keeps what it sent.
        c.send_with(rank - 1, ew, |enc| {
            encode_bf16_into(buf, enc);
            decode_bf16_into(enc, buf);
        });
        return;
    }
    c.send_with(rank + 1, ew, |enc| encode_bf16_into(buf, enc));
    // Phase 2 — the finished encoded sum chains back down; every rank
    // decodes the same final words → identical bits.
    c.recv_with(rank + 1, |enc| {
        if rank > 0 {
            c.send_from(rank - 1, enc);
        }
        decode_bf16_into(enc, buf);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::thread_comm::ThreadComm;

    #[test]
    fn codec_names_round_trip() {
        for c in [
            GradCodec::Dense32,
            GradCodec::Bf16,
            GradCodec::SparseTopK { ratio: 0.01 },
            GradCodec::SparseTopK { ratio: 1.0 },
        ] {
            assert_eq!(GradCodec::parse(&c.name()), Some(c));
        }
        assert_eq!(GradCodec::parse("fp8"), None);
        assert_eq!(GradCodec::parse("topk0"), None);
        assert_eq!(GradCodec::parse("topk1.5"), None);
    }

    #[test]
    fn wire_bytes_per_codec() {
        let dense = GradCodec::Dense32;
        let bf16 = GradCodec::Bf16;
        let topk = GradCodec::SparseTopK { ratio: 0.01 };
        assert_eq!(dense.wire_bytes(1000), 4000);
        assert_eq!(bf16.wire_bytes(1000), 2000);
        assert_eq!(bf16.wire_bytes(1001), 2004); // odd tail still packs
        assert_eq!(topk.wire_bytes(1000), 2 * 10 * 4);
        assert_eq!(topk.wire_bytes(5), 8); // the k() floor: one pair, two words
        assert_eq!(topk.wire_bytes(0), 0);
        // ratio 1.0 never exceeds the dense element count.
        let full = GradCodec::SparseTopK { ratio: 1.0 };
        assert_eq!(full.wire_words(7), 14);
    }

    #[test]
    fn bf16_allreduce_matches_chain_reference_and_halves_bytes() {
        let p = 4;
        let n = 6;
        // Per-rank gradients with values that do round under bf16.
        let grads: Vec<Vec<f32>> = (0..p)
            .map(|r| (0..n).map(|i| 0.1 + r as f32 * 0.3 + i as f32 * 0.01).collect())
            .collect();
        // Scalar reference: the per-hop encode/fold chain.
        let mut want = vec![0.0f32; n];
        for (hop, g) in grads.iter().enumerate() {
            for i in 0..n {
                let folded = if hop == 0 { g[i] } else { want[i] + g[i] };
                want[i] = f32::from_bits((f32_to_bf16_rtne(folded) as u32) << 16);
            }
        }
        let g2 = grads.clone();
        let results = ThreadComm::run(p, move |comm| {
            let mut buf = g2[comm.rank()].clone();
            bf16_allreduce(comm, &mut buf, &mut Arena::new());
            let bytes = comm
                .stats()
                .unwrap()
                .export()
                .op(CollectiveOp::Pipeline)
                .bytes_sent;
            (buf, bytes)
        });
        for (r, (buf, _)) in results.iter().enumerate() {
            for i in 0..n {
                assert_eq!(
                    buf[i].to_bits(),
                    want[i].to_bits(),
                    "rank {r} elem {i}: got {} want {}",
                    buf[i],
                    want[i]
                );
            }
        }
        // Each interior rank ships 2 messages of bf16_words(n) words.
        let ew = bf16_words(n);
        let per_msg = ew * 4;
        let total: u64 = results.iter().map(|(_, b)| b).sum();
        assert_eq!(total as usize, 2 * (p - 1) * per_msg);
    }

    #[test]
    fn bf16_allreduce_is_partition_invariant() {
        let p = 3;
        let n = 10;
        let grads: Vec<Vec<f32>> = (0..p)
            .map(|r| (0..n).map(|i| (i as f32 - 4.3) * (r as f32 + 0.7)).collect())
            .collect();
        let whole = {
            let g = grads.clone();
            ThreadComm::run(p, move |comm| {
                let mut buf = g[comm.rank()].clone();
                bf16_allreduce(comm, &mut buf, &mut Arena::new());
                buf
            })
        };
        for split in 1..n {
            let g = grads.clone();
            let got = ThreadComm::run(p, move |comm| {
                let mut buf = g[comm.rank()].clone();
                let (a, b) = buf.split_at_mut(split);
                bf16_allreduce(comm, a, &mut Arena::new());
                bf16_allreduce(comm, b, &mut Arena::new());
                buf
            });
            for r in 0..p {
                for i in 0..n {
                    assert_eq!(
                        got[r][i].to_bits(),
                        whole[r][i].to_bits(),
                        "split {split} rank {r} elem {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn bf16_allreduce_is_exact_on_small_integers() {
        // Integers up to 256 are bf16-exact, so the all-ones reduction
        // the tuner's measurement asserts is bit-exact up to p = 128.
        let p = 8;
        let results = ThreadComm::run(p, move |comm| {
            let mut buf = vec![1.0f32; 33];
            bf16_allreduce(comm, &mut buf, &mut Arena::new());
            buf
        });
        for buf in &results {
            assert!(buf.iter().all(|v| v.to_bits() == (p as f32).to_bits()));
        }
    }

    #[test]
    fn wire_pairs_preserve_nan_adjacent_index_bits_through_threadcomm() {
        // Indices whose f32 aliases are signalling NaNs / infinities:
        // 0x7F800000 (+inf), 0x7F800001 (sNaN), 0x7FC00000 (qNaN),
        // 0xFF800123 (negative sNaN range). A memcpy transport must
        // return them bit-exact; an arithmetic path would quiet or
        // collapse them — this is the contract WirePair encodes.
        let indices = [0x7F80_0000u32, 0x7F80_0001, 0x7FC0_0000, 0xFF80_0123, 0, 7];
        let results = ThreadComm::run(2, move |comm| {
            let mut payload = vec![0.0f32; 2 * indices.len()];
            for (i, &idx) in indices.iter().enumerate() {
                WirePair::new(idx, f32::NAN).to_words(&mut payload[2 * i..2 * i + 2]);
            }
            if comm.rank() == 0 {
                comm.send_from(1, &payload);
                let mut back = vec![0.0f32; payload.len()];
                comm.recv_into(1, &mut back);
                back
            } else {
                let mut got = vec![0.0f32; payload.len()];
                comm.recv_into(0, &mut got);
                comm.send_from(0, &got);
                got
            }
        });
        for got in &results {
            for (i, &idx) in indices.iter().enumerate() {
                let pair = WirePair::from_words(&got[2 * i..2 * i + 2]);
                assert_eq!(pair.index, idx, "index bits corrupted in transit");
                assert!(pair.value().is_nan());
            }
        }
    }
}
