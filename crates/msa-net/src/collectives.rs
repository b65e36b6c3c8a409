//! MPI-style collective algorithms over any [`PointToPoint`] transport.
//!
//! These are the textbook algorithms the paper's software stack (MPI +
//! Horovod) relies on:
//!
//! * [`ring_allreduce`] — bandwidth-optimal chunked ring (reduce-scatter
//!   followed by allgather), Horovod's workhorse for large gradient
//!   tensors;
//! * [`recursive_doubling_allreduce`] — latency-optimal for small
//!   messages, log₂(p) rounds (handles non-power-of-two sizes with a
//!   fold-in pre/post phase);
//! * [`pipeline_allreduce`] (and [`pipeline_allreduce_mean`]) — a
//!   rank-ordered reduce chain plus a return chain whose element-wise
//!   fold order is *independent of how the buffer is partitioned*, the
//!   property the fused gradient exchange needs for bit-equality across
//!   bucket sizes (see DESIGN.md §11);
//! * [`binomial_broadcast`] / [`tree_reduce`] — log₂(p) tree collectives;
//! * [`ring_allgather`] and the [`dissemination_barrier`].
//!
//! All functions must be called collectively by every rank. The
//! send-then-receive schedules below need one buffered message per
//! channel: msa-verify proves every one of them deadlock-free under
//! `Bounded(1)` channels, and [`crate::ThreadComm`] gives every message
//! `Bounded(2)` (two send credits per channel).
//!
//! Nothing is staged: each reduction folds inside
//! [`PointToPoint::recv_with`], straight from the lent receive buffer
//! (the pipeline chain also writes into the lent send buffer, one pass
//! per hop), so steady-state collectives allocate nothing on pooled
//! transports. Accumulation order is load-bearing: every fold is the
//! element-wise `*dst += incoming` of `add_into` over the same message
//! schedule as the seed, so results are `to_bits`-equal to the seed
//! collectives.

use crate::comm::PointToPoint;
use crate::stats::CollectiveOp;

/// Splits `len` elements into `parts` contiguous ranges as evenly as
/// possible (first `len % parts` ranges get one extra element).
pub fn chunk_ranges(len: usize, parts: usize) -> Vec<std::ops::Range<usize>> {
    assert!(parts > 0);
    let base = len / parts;
    let extra = len % parts;
    let mut out = Vec::with_capacity(parts);
    let mut start = 0;
    for i in 0..parts {
        let sz = base + usize::from(i < extra);
        out.push(start..start + sz);
        start += sz;
    }
    out
}

/// Bandwidth-optimal ring allreduce (sum). After the call every rank
/// holds the element-wise sum over all ranks.
///
/// Two phases of `p − 1` steps each: reduce-scatter (each rank ends up
/// owning the fully-reduced chunk `(rank + 1) mod p`), then ring
/// allgather of the reduced chunks. Total bytes sent per rank:
/// `2 (p−1)/p · n` — independent of `p` for large `n`, which is why
/// Horovod scales to hundreds of GPUs.
///
/// When `parts > len`, `chunk_ranges` produces empty trailing ranges;
/// both phases skip those chunks entirely instead of shipping zero-length
/// messages every step. The skip predicate is the chunk's emptiness, and
/// a rank's receive of chunk `i` pairs with its left neighbour's send of
/// the *same* chunk index, so the skips agree on both ends of every
/// channel and the schedule stays deadlock-free.
pub fn ring_allreduce<C: PointToPoint + ?Sized>(c: &C, buf: &mut [f32]) {
    let p = c.size();
    if p == 1 || buf.is_empty() {
        return;
    }
    let _scope = c.stats().map(|s| s.scope(CollectiveOp::Allreduce));
    let rank = c.rank();
    let right = (rank + 1) % p;
    let left = (rank + p - 1) % p;
    let chunks = chunk_ranges(buf.len(), p);

    // Reduce-scatter: in step s we send chunk (rank − s) and accumulate
    // chunk (rank − s − 1) arriving from the left.
    for s in 0..p - 1 {
        let send_idx = (rank + p - s) % p;
        let recv_idx = (rank + p - s - 1) % p;
        if !chunks[send_idx].is_empty() {
            c.send_from(right, &buf[chunks[send_idx].clone()]);
        }
        let dst = &mut buf[chunks[recv_idx].clone()];
        if !dst.is_empty() {
            c.recv_with(left, |x| add_into(dst, x));
        }
    }

    // Allgather: circulate the reduced chunks. Rank r owns chunk (r+1).
    for s in 0..p - 1 {
        let send_idx = (rank + 1 + p - s) % p;
        let recv_idx = (rank + p - s) % p;
        if !chunks[send_idx].is_empty() {
            c.send_from(right, &buf[chunks[send_idx].clone()]);
        }
        if !chunks[recv_idx].is_empty() {
            c.recv_into(left, &mut buf[chunks[recv_idx].clone()]);
        }
    }
}

/// Latency-optimal recursive-doubling allreduce (sum): ⌈log₂ p⌉ rounds of
/// pairwise exchanges. Non-power-of-two sizes are handled by folding the
/// `p − 2^⌊log₂ p⌋` extra ranks into partners before/after the core phase.
pub fn recursive_doubling_allreduce<C: PointToPoint + ?Sized>(c: &C, buf: &mut [f32]) {
    let p = c.size();
    if p == 1 || buf.is_empty() {
        return;
    }
    let _scope = c.stats().map(|s| s.scope(CollectiveOp::RecursiveDoubling));
    let rank = c.rank();
    let p2 = p.next_power_of_two() / if p.is_power_of_two() { 1 } else { 2 };
    let rem = p - p2;

    // Fold-in: ranks in [p2, p) send to (rank − p2) and sit out, then
    // receive the finished sum at the end.
    if rank >= p2 {
        c.send_from(rank - p2, buf);
        c.recv_into(rank - p2, buf);
        return;
    }
    if rank < rem {
        c.recv_with(rank + p2, |x| add_into(buf, x));
    }

    let mut mask = 1;
    while mask < p2 {
        let partner = rank ^ mask;
        c.send_from(partner, buf);
        c.recv_with(partner, |x| add_into(buf, x));
        mask <<= 1;
    }
    if rank < rem {
        c.send_from(rank + p2, buf);
    }
}

/// Chain allreduce (sum) with a **partition-invariant fold order**.
///
/// Phase 1 chains the buffers up the rank order — rank r receives the
/// running sum from rank r−1 and adds its own contribution — so every
/// element ends up folded in the one canonical order
/// `g_{p−1} + (… + (g_1 + g_0))` regardless of where the buffer starts or
/// ends. Phase 2 chains the finished sum back down. Splitting a gradient
/// into buckets and allreducing each therefore produces exactly the bits
/// of one whole-buffer call — the property the fused gradient exchange
/// rests on (a chunked ring cannot offer it: its per-element fold
/// *rotates with the chunk index*, so bucket boundaries would change the
/// bits). Despite the name it is a chain, not a pipeline: one message
/// carries the whole buffer per hop, and each hop is one pass from the
/// lent receive buffer into the lent send buffer.
///
/// The schedule is also rendezvous-safe: every send has a matching
/// receive already posted (or next in program order on an idle rank), so
/// it completes even under `Bounded(0)` channel capacity, unlike the
/// eager ring.
pub fn pipeline_allreduce<C: PointToPoint + ?Sized>(c: &C, buf: &mut [f32]) {
    chain_allreduce(c, buf, |s| s);
}

/// [`pipeline_allreduce`] then `*x /= size() as f32`, to the bit (also at
/// `size() == 1`), with each division done as the final sum is written.
pub fn pipeline_allreduce_mean<C: PointToPoint + ?Sized>(c: &C, buf: &mut [f32]) {
    let n = c.size() as f32;
    chain_allreduce(c, buf, move |s| s / n);
}

/// The chain: every rank leaves `out(sum)` in `buf`; messages carry sums.
fn chain_allreduce<C, F>(c: &C, buf: &mut [f32], out: F)
where
    C: PointToPoint + ?Sized,
    F: Fn(f32) -> f32 + Copy,
{
    let p = c.size();
    if p == 1 {
        buf.iter_mut().for_each(|x| *x = out(*x));
        return;
    }
    if buf.is_empty() {
        return;
    }
    let _scope = c.stats().map(|s| s.scope(CollectiveOp::Pipeline));
    let (rank, len) = (c.rank(), buf.len());
    let expect = |got: &[f32]| assert_eq!(got.len(), len, "chain message length mismatch");
    if rank == 0 {
        c.send_from(1, buf);
        c.recv_with(1, |sum| {
            expect(sum);
            write_out(buf, sum, out);
        });
    } else if rank == p - 1 {
        // The chain's end folds, sends the total back and writes it out.
        c.recv_with(rank - 1, |run| {
            expect(run);
            c.send_with(rank - 1, len, |msg| forward_out(msg, buf, run, true, out));
        });
    } else {
        c.recv_with(rank - 1, |run| {
            expect(run);
            c.send_with(rank + 1, len, |msg| {
                for ((m, &d), &x) in msg.iter_mut().zip(&*buf).zip(run) {
                    *m = d + x;
                }
            });
        });
        c.recv_with(rank + 1, |sum| {
            expect(sum);
            c.send_with(rank - 1, len, |msg| forward_out(msg, buf, sum, false, out));
        });
    }
}

// The fold loops take slices as parameters: their `noalias` keeps the
// captures in registers, where a loop over closure-captured slices
// reloads them every element (≈ 40 % slower on the 8 MiB two-rank
// chain, measured on a two-core Xeon).

/// `dst[i] += x[i]`, the one fold every reduction uses. Panics if the
/// lengths differ — a collective-schedule bug, not a recoverable
/// condition.
pub(crate) fn add_into(dst: &mut [f32], x: &[f32]) {
    assert_eq!(dst.len(), x.len(), "reduction message length mismatch");
    for (d, &x) in dst.iter_mut().zip(x) {
        *d += x;
    }
}

/// `buf[i] = out(sum[i])`.
fn write_out(buf: &mut [f32], sum: &[f32], out: impl Fn(f32) -> f32) {
    for (d, &s) in buf.iter_mut().zip(sum) {
        *d = out(s);
    }
}

/// Forwards the final sum — `buf[i] + x[i]` where the chain ends
/// (`fold`), else `x[i]` — in `msg` and writes its `out` to `buf`.
fn forward_out(msg: &mut [f32], buf: &mut [f32], x: &[f32], fold: bool, out: impl Fn(f32) -> f32) {
    for ((m, d), &x) in msg.iter_mut().zip(buf.iter_mut()).zip(x) {
        let s = if fold { *d + x } else { x };
        *m = s;
        *d = out(s);
    }
}

/// Binomial-tree broadcast from `root`: ⌈log₂ p⌉ rounds. Non-root
/// ranks need not know the length: their `buf` is replaced by the
/// root's, reusing its capacity.
pub fn binomial_broadcast<C: PointToPoint + ?Sized>(c: &C, buf: &mut Vec<f32>, root: usize) {
    broadcast_tree(c, buf, root, |buf, m| {
        buf.clear();
        buf.extend_from_slice(m);
    });
}

/// [`binomial_broadcast`] in place, when every rank already knows
/// `buf.len()` (a length mismatch panics).
pub fn binomial_broadcast_into<C: PointToPoint + ?Sized>(c: &C, buf: &mut [f32], root: usize) {
    broadcast_tree(c, buf, root, |buf, m| buf.copy_from_slice(m));
}

/// The binomial tree both broadcasts walk: `land` stores the message
/// from the parent, then `buf` goes to each child.
fn broadcast_tree<C, B>(c: &C, buf: &mut B, root: usize, land: impl FnOnce(&mut B, &[f32]))
where
    C: PointToPoint + ?Sized,
    B: AsRef<[f32]> + ?Sized,
{
    let p = c.size();
    if p == 1 {
        return;
    }
    let _scope = c.stats().map(|s| s.scope(CollectiveOp::Broadcast));
    let vrank = (c.rank() + p - root) % p;

    let mut mask = 1usize;
    while mask < p {
        if vrank & mask != 0 {
            c.recv_with((vrank - mask + root) % p, |m| land(buf, m));
            break;
        }
        mask <<= 1;
    }
    mask >>= 1;
    while mask > 0 {
        let dst_v = vrank + mask;
        if dst_v < p {
            c.send_from((dst_v + root) % p, buf.as_ref());
        }
        mask >>= 1;
    }
}

/// Binomial-tree sum-reduction to `root`. On return `root`'s `buf` holds
/// the global sum; other ranks' buffers hold partial sums (unspecified).
pub fn tree_reduce<C: PointToPoint + ?Sized>(c: &C, buf: &mut [f32], root: usize) {
    let p = c.size();
    if p == 1 {
        return;
    }
    let _scope = c.stats().map(|s| s.scope(CollectiveOp::Reduce));
    let rank = c.rank();
    let vrank = (rank + p - root) % p;

    let mut mask = 1usize;
    while mask < p {
        if vrank & mask == 0 {
            let src_v = vrank | mask;
            if src_v < p {
                c.recv_with((src_v + root) % p, |x| add_into(buf, x));
            }
        } else {
            let dst_v = vrank & !mask;
            c.send_from((dst_v + root) % p, buf);
            break;
        }
        mask <<= 1;
    }
}

/// Ring allgather: returns `result` where `result[r]` is rank `r`'s
/// `mine` slice, identical on every rank. Blocks may be ragged (each
/// rank's length may differ); see [`ring_allgather_into`] for the
/// equal-block variant into one flat buffer.
pub fn ring_allgather<C: PointToPoint + ?Sized>(c: &C, mine: &[f32]) -> Vec<Vec<f32>> {
    let p = c.size();
    let rank = c.rank();
    let mut blocks: Vec<Vec<f32>> = vec![Vec::new(); p];
    blocks[rank] = mine.to_vec();
    if p == 1 {
        return blocks;
    }
    let _scope = c.stats().map(|s| s.scope(CollectiveOp::Allgather));
    let right = (rank + 1) % p;
    let left = (rank + p - 1) % p;
    for s in 0..p - 1 {
        let send_idx = (rank + p - s) % p;
        let recv_idx = (rank + p - s - 1) % p;
        c.send_from(right, &blocks[send_idx]);
        c.recv_with(left, |m| blocks[recv_idx].extend_from_slice(m));
    }
    blocks
}

/// Equal-block ring allgather: `out.len()` must be `p × mine.len()` and
/// every rank must pass the same block length. On return
/// `out[r·len..(r+1)·len]` holds rank `r`'s block on every rank. The
/// circulating blocks live directly in `out`, so the collective
/// allocates nothing.
pub fn ring_allgather_into<C: PointToPoint + ?Sized>(c: &C, mine: &[f32], out: &mut [f32]) {
    let p = c.size();
    let rank = c.rank();
    let blk = mine.len();
    assert_eq!(
        out.len(),
        p * blk,
        "ring_allgather_into: out must hold size() × mine.len() floats"
    );
    out[rank * blk..(rank + 1) * blk].copy_from_slice(mine);
    if p == 1 || blk == 0 {
        return;
    }
    let _scope = c.stats().map(|s| s.scope(CollectiveOp::Allgather));
    let right = (rank + 1) % p;
    let left = (rank + p - 1) % p;
    for s in 0..p - 1 {
        let send_idx = (rank + p - s) % p;
        let recv_idx = (rank + p - s - 1) % p;
        c.send_from(right, &out[send_idx * blk..(send_idx + 1) * blk]);
        c.recv_into(left, &mut out[recv_idx * blk..(recv_idx + 1) * blk]);
    }
}

/// Dissemination barrier: ⌈log₂ p⌉ rounds; in round k each rank signals
/// `(rank + 2^k) mod p` and waits for `(rank − 2^k) mod p`. The signals
/// are empty messages, so a barrier allocates nothing.
pub fn dissemination_barrier<C: PointToPoint + ?Sized>(c: &C) {
    let p = c.size();
    if p == 1 {
        return;
    }
    let _scope = c.stats().map(|s| s.scope(CollectiveOp::Barrier));
    let rank = c.rank();
    let mut dist = 1;
    while dist < p {
        c.send_from((rank + dist) % p, &[]);
        c.recv_into((rank + p - dist) % p, &mut []);
        dist <<= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_ranges_cover_exactly() {
        for len in [0usize, 1, 7, 16, 100] {
            for parts in [1usize, 2, 3, 7, 16] {
                let ranges = chunk_ranges(len, parts);
                assert_eq!(ranges.len(), parts);
                assert_eq!(ranges[0].start, 0);
                assert_eq!(ranges.last().unwrap().end, len);
                for w in ranges.windows(2) {
                    assert_eq!(w[0].end, w[1].start, "ranges must be contiguous");
                }
                let sizes: Vec<usize> = ranges.iter().map(|r| r.len()).collect();
                let (min, max) = (
                    *sizes.iter().min().unwrap(),
                    *sizes.iter().max().unwrap(),
                );
                assert!(max - min <= 1, "chunks must be balanced: {sizes:?}");
            }
        }
    }

    #[test]
    #[should_panic]
    fn chunk_ranges_zero_parts_panics() {
        let _ = chunk_ranges(10, 0);
    }
}
