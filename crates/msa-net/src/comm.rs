//! Communicator traits.
//!
//! [`PointToPoint`] is the minimal transport (ordered send/recv between
//! ranks); [`Communicator`] adds the collectives every distributed ML
//! algorithm in this workspace is written against. The algorithms in
//! [`crate::collectives`] provide the default implementations, so a
//! transport only has to implement `send_with`/`recv_with`.

use crate::collectives;
use crate::stats::CommStats;

/// Minimal reliable, ordered point-to-point transport between `size()`
/// ranks.
///
/// Its one message path *lends* buffers: `send_with` lets the caller
/// write the payload straight into a transport-owned buffer, and
/// `recv_with` lends the arrived buffer to the caller before taking it
/// back. A reduction therefore reads the incoming data and writes the
/// outgoing message in one pass, with no staging copy. `send_from` /
/// `recv_into` are the copying one-liners on top. Pooled transports
/// ([`crate::ThreadComm`]) recycle every buffer, so steady-state
/// collectives allocate nothing.
pub trait PointToPoint {
    /// This endpoint's rank in `0..size()`.
    fn rank(&self) -> usize;

    /// Number of ranks in the communicator.
    fn size(&self) -> usize;

    /// Sends a `len`-float message to rank `to` whose payload `fill`
    /// writes in place (`fill` must write every element it is lent).
    fn send_with(&self, to: usize, len: usize, fill: impl FnOnce(&mut [f32]));

    /// Receives the next message from rank `from` (blocking, FIFO per
    /// sender), lends it to `read` and returns what `read` returns.
    fn recv_with<R>(&self, from: usize, read: impl FnOnce(&[f32]) -> R) -> R;

    /// Sends a copy of `data` to rank `to`.
    fn send_from(&self, to: usize, data: &[f32]) {
        self.send_with(to, data.len(), |buf| buf.copy_from_slice(data));
    }

    /// Receives the next message from rank `from` into `dst`. Panics if
    /// the message length differs from `dst.len()` — a collective-schedule
    /// bug, not a recoverable condition.
    fn recv_into(&self, from: usize, dst: &mut [f32]) {
        self.recv_with(from, |src| dst.copy_from_slice(src));
    }

    /// The endpoint's traffic counters, when it keeps any. Transports
    /// that do ([`crate::ThreadComm`]) call [`CommStats::on_send`] /
    /// [`CommStats::on_recv_priced`] themselves; the collective defaults
    /// below use this hook only to open per-op attribution scopes.
    /// Defaults to `None` (unobserved transport).
    fn stats(&self) -> Option<&CommStats> {
        None
    }
}

/// MPI-style collectives over a point-to-point transport.
///
/// All collectives must be called by **every** rank of the communicator
/// (they are collective operations in the MPI sense); deadlock otherwise.
pub trait Communicator: PointToPoint {
    /// Element-wise sum-allreduce of `buf` across all ranks; on return
    /// every rank holds the global sum. Uses the bandwidth-optimal ring
    /// algorithm (what Horovod uses for large tensors).
    fn allreduce_sum(&self, buf: &mut [f32]) {
        collectives::ring_allreduce(self, buf);
    }

    /// Allreduce then divide by `size()` — gradient averaging.
    fn allreduce_mean(&self, buf: &mut [f32]) {
        self.allreduce_sum(buf);
        let n = self.size() as f32;
        for x in buf.iter_mut() {
            *x /= n;
        }
    }

    /// Broadcast `buf` from `root` to every rank (binomial tree).
    fn broadcast(&self, buf: &mut Vec<f32>, root: usize) {
        collectives::binomial_broadcast(self, buf, root);
    }

    /// Gathers each rank's `mine` (lengths may differ) into rank order
    /// on every rank.
    fn allgather(&self, mine: &[f32]) -> Vec<Vec<f32>> {
        collectives::ring_allgather(self, mine)
    }

    /// Equal-block allgather into a caller-provided flat buffer:
    /// `out.len()` must be `size() × mine.len()`, and on return
    /// `out[r·len..(r+1)·len]` holds rank `r`'s block. Zero-alloc on
    /// pooled transports; every rank must pass the same block length.
    fn allgather_into(&self, mine: &[f32], out: &mut [f32]) {
        collectives::ring_allgather_into(self, mine, out);
    }
}

/// Every point-to-point transport gets the collectives for free.
impl<T: PointToPoint + ?Sized> Communicator for T {}
