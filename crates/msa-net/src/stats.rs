//! Per-endpoint communication statistics.
//!
//! [`CommStats`] counts, per collective operation, the messages and bytes
//! an endpoint sent and received, plus a *modeled* wait time: every
//! receive is priced at the α–β cost of the message on the endpoint's
//! [`LinkParams`] ([`LinkParams::p2p`]), accumulated as integer
//! picoseconds. Wall-clock waits would be nondeterministic (scheduling
//! noise), so the recorded wait is the analytic cost of the same traffic
//! — which is exactly what makes it comparable to
//! [`crate::cost::CollectiveAlgo`]'s predictions (and testable, see
//! `tests/observability.rs`).
//!
//! All counters are relaxed atomics: endpoint owners may be shared across
//! scoped threads (`ThreadComm` is `Sync`), and every operation here is a
//! commutative add, so totals are deterministic regardless of
//! interleaving.

use crate::cost::LinkParams;
use msa_obs::Recorder;
use msa_sync::atomic::{AtomicU64, AtomicU8, Ordering};

/// The collective (or bare point-to-point traffic) an endpoint is
/// currently executing. Used to attribute per-message counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CollectiveOp {
    /// Traffic outside any collective scope.
    P2p,
    /// Ring sum-allreduce ([`crate::collectives::ring_allreduce`]).
    Allreduce,
    /// Recursive-doubling allreduce.
    RecursiveDoubling,
    /// Binomial-tree broadcast.
    Broadcast,
    /// Tree reduce to a root.
    Reduce,
    /// Ring allgather.
    Allgather,
    /// Dissemination barrier.
    Barrier,
    /// Pipelined chunked allreduce
    /// ([`crate::collectives::pipeline_allreduce`]).
    Pipeline,
}

/// Number of [`CollectiveOp`] variants.
pub const OP_COUNT: usize = 8;

impl CollectiveOp {
    /// Every op, index-ordered (see [`CollectiveOp::index`]).
    pub const ALL: [CollectiveOp; OP_COUNT] = [
        CollectiveOp::P2p,
        CollectiveOp::Allreduce,
        CollectiveOp::RecursiveDoubling,
        CollectiveOp::Broadcast,
        CollectiveOp::Reduce,
        CollectiveOp::Allgather,
        CollectiveOp::Barrier,
        CollectiveOp::Pipeline,
    ];

    /// Stable slot index of this op.
    pub fn index(self) -> usize {
        match self {
            CollectiveOp::P2p => 0,
            CollectiveOp::Allreduce => 1,
            CollectiveOp::RecursiveDoubling => 2,
            CollectiveOp::Broadcast => 3,
            CollectiveOp::Reduce => 4,
            CollectiveOp::Allgather => 5,
            CollectiveOp::Barrier => 6,
            CollectiveOp::Pipeline => 7,
        }
    }

    /// Metric-label name of this op.
    pub fn name(self) -> &'static str {
        match self {
            CollectiveOp::P2p => "p2p",
            CollectiveOp::Allreduce => "allreduce",
            CollectiveOp::RecursiveDoubling => "recursive_doubling",
            CollectiveOp::Broadcast => "broadcast",
            CollectiveOp::Reduce => "reduce",
            CollectiveOp::Allgather => "allgather",
            CollectiveOp::Barrier => "barrier",
            CollectiveOp::Pipeline => "pipeline",
        }
    }
}

#[derive(Debug, Default)]
struct OpCounters {
    msgs_sent: AtomicU64,
    msgs_recv: AtomicU64,
    bytes_sent: AtomicU64,
    bytes_recv: AtomicU64,
    wait_ps: AtomicU64,
}

/// Per-endpoint traffic counters, attributed to the collective currently
/// in scope.
///
/// A transport calls [`CommStats::on_send`] /
/// [`CommStats::on_recv_priced`] from its `send_with`/`recv_with`; the
/// collective default methods on [`crate::Communicator`] wrap themselves
/// in [`CommStats::scope`] so the traffic lands in the right slot. Anything
/// outside a scope counts as [`CollectiveOp::P2p`].
#[derive(Debug)]
pub struct CommStats {
    ops: [OpCounters; OP_COUNT],
    current: AtomicU8,
    link: LinkParams,
    vtime_ps: AtomicU64,
}

impl CommStats {
    /// Fresh counters; receives are priced on `link`.
    pub fn new(link: LinkParams) -> Self {
        CommStats {
            ops: Default::default(),
            current: AtomicU8::new(CollectiveOp::P2p.index() as u8),
            link,
            vtime_ps: AtomicU64::new(0),
        }
    }

    /// The link model receives are priced against.
    pub fn link(&self) -> LinkParams {
        self.link
    }

    /// Opens an attribution scope: until the guard drops, traffic counts
    /// toward `op`. Nested scopes restore the outer op on drop.
    pub fn scope(&self, op: CollectiveOp) -> OpScope<'_> {
        let prev = self.current.swap(op.index() as u8, Ordering::Relaxed);
        OpScope { stats: self, prev }
    }

    fn slot(&self) -> &OpCounters {
        &self.ops[self.current.load(Ordering::Relaxed) as usize]
    }

    /// Records one outbound message of `bytes` payload bytes.
    pub fn on_send(&self, bytes: usize) {
        let slot = self.slot();
        slot.msgs_sent.fetch_add(1, Ordering::Relaxed);
        slot.bytes_sent.fetch_add(bytes as u64, Ordering::Relaxed);
    }

    /// Records one inbound message of `bytes` payload bytes, charging the
    /// modeled α–β transfer time on the per-peer `link` as wait, stamped
    /// with the *sender's* virtual send time.
    ///
    /// This is the discrete-event half of the measured autotuner
    /// ([`crate::tune`]): the message is modeled as arriving at
    /// `sent_at_ps + p2p(bytes)`, and the receiver's clock jumps to
    /// `max(current, arrival)` — a Lamport clock priced in picoseconds.
    /// Because every stamp is derived from the matching send on a FIFO
    /// channel, the resulting per-endpoint `vtime_ps` is the critical-path
    /// time of the schedule the collective actually executed, independent
    /// of host scheduling.
    pub fn on_recv_priced(&self, bytes: usize, link: LinkParams, sent_at_ps: u64) {
        let slot = self.slot();
        slot.msgs_recv.fetch_add(1, Ordering::Relaxed);
        slot.bytes_recv.fetch_add(bytes as u64, Ordering::Relaxed);
        let cost = link.p2p(bytes as f64).as_ps();
        slot.wait_ps.fetch_add(cost, Ordering::Relaxed);
        self.vtime_ps
            .fetch_max(sent_at_ps.saturating_add(cost), Ordering::Relaxed);
    }

    /// Current virtual clock of this endpoint, integer picoseconds.
    ///
    /// Advanced only by receives; after a collective completes, the max
    /// over all endpoints is the modeled critical-path completion time of
    /// the executed schedule.
    pub fn vtime_ps(&self) -> u64 {
        self.vtime_ps.load(Ordering::Relaxed)
    }

    /// Snapshots every op's totals (index order).
    pub fn export(&self) -> CommStatsSnapshot {
        CommStatsSnapshot {
            per_op: CollectiveOp::ALL
                .iter()
                .map(|op| {
                    let c = &self.ops[op.index()];
                    (
                        *op,
                        OpTotals {
                            msgs_sent: c.msgs_sent.load(Ordering::Relaxed),
                            msgs_recv: c.msgs_recv.load(Ordering::Relaxed),
                            bytes_sent: c.bytes_sent.load(Ordering::Relaxed),
                            bytes_recv: c.bytes_recv.load(Ordering::Relaxed),
                            wait_ps: c.wait_ps.load(Ordering::Relaxed),
                        },
                    )
                })
                .collect(),
        }
    }
}

/// Guard returned by [`CommStats::scope`].
#[derive(Debug)]
pub struct OpScope<'a> {
    stats: &'a CommStats,
    prev: u8,
}

impl Drop for OpScope<'_> {
    fn drop(&mut self) {
        self.stats.current.store(self.prev, Ordering::Relaxed);
    }
}

/// Totals for one op slot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpTotals {
    /// Messages sent while the op was in scope.
    pub msgs_sent: u64,
    /// Messages received.
    pub msgs_recv: u64,
    /// Payload bytes sent.
    pub bytes_sent: u64,
    /// Payload bytes received.
    pub bytes_recv: u64,
    /// Modeled α–β receive time, integer picoseconds.
    pub wait_ps: u64,
}

impl OpTotals {
    fn absorb(&mut self, other: &OpTotals) {
        self.msgs_sent += other.msgs_sent;
        self.msgs_recv += other.msgs_recv;
        self.bytes_sent += other.bytes_sent;
        self.bytes_recv += other.bytes_recv;
        self.wait_ps += other.wait_ps;
    }
}

/// Point-in-time export of a [`CommStats`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommStatsSnapshot {
    per_op: Vec<(CollectiveOp, OpTotals)>,
}

impl CommStatsSnapshot {
    /// Totals for one op.
    pub fn op(&self, op: CollectiveOp) -> OpTotals {
        self.per_op
            .iter()
            .find(|(o, _)| *o == op)
            .map(|(_, t)| *t)
            .unwrap_or_default()
    }

    /// Grand totals across all ops.
    pub fn total(&self) -> OpTotals {
        let mut sum = OpTotals::default();
        for (_, t) in &self.per_op {
            sum.absorb(t);
        }
        sum
    }

    /// Publishes every non-empty op slot into a [`Recorder`] under
    /// `net.comm.*{op=…}` plus the given extra labels (typically
    /// `rank=…`, `run=…`).
    pub fn record_into(&self, rec: &dyn Recorder, labels: &[(&str, &str)]) {
        for (op, t) in &self.per_op {
            if *t == OpTotals::default() {
                continue;
            }
            let mut with_op: Vec<(&str, &str)> = labels.to_vec();
            with_op.push(("op", op.name()));
            rec.add(&msa_obs::key("net.comm.msgs_sent", &with_op), t.msgs_sent);
            rec.add(&msa_obs::key("net.comm.msgs_recv", &with_op), t.msgs_recv);
            rec.add(&msa_obs::key("net.comm.bytes_sent", &with_op), t.bytes_sent);
            rec.add(&msa_obs::key("net.comm.bytes_recv", &with_op), t.bytes_recv);
            rec.time_ps(&msa_obs::key("net.comm.wait", &with_op), t.wait_ps);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msa_obs::{MetricsRegistry, MetricValue};

    #[test]
    fn traffic_lands_in_the_scoped_slot() {
        let link = LinkParams::extoll();
        let stats = CommStats::new(link);
        stats.on_send(100);
        {
            let _g = stats.scope(CollectiveOp::Allreduce);
            stats.on_send(40);
            stats.on_recv_priced(40, link, 0);
            {
                let _inner = stats.scope(CollectiveOp::Barrier);
                stats.on_send(0);
            }
            stats.on_send(40);
        }
        stats.on_recv_priced(8, link, 0);

        let snap = stats.export();
        assert_eq!(snap.op(CollectiveOp::P2p).msgs_sent, 1);
        assert_eq!(snap.op(CollectiveOp::P2p).bytes_sent, 100);
        assert_eq!(snap.op(CollectiveOp::P2p).msgs_recv, 1);
        assert_eq!(snap.op(CollectiveOp::Allreduce).msgs_sent, 2);
        assert_eq!(snap.op(CollectiveOp::Allreduce).bytes_sent, 80);
        assert_eq!(snap.op(CollectiveOp::Barrier).msgs_sent, 1);
        assert_eq!(snap.total().msgs_sent, 4);
    }

    #[test]
    fn recv_wait_is_the_alpha_beta_price() {
        let link = LinkParams::extoll();
        let stats = CommStats::new(link);
        stats.on_recv_priced(1_000_000, link, 0);
        let want = link.p2p(1e6).as_ps();
        assert_eq!(stats.export().op(CollectiveOp::P2p).wait_ps, want);
    }

    #[test]
    fn vtime_is_a_priced_lamport_clock() {
        let link = LinkParams::extoll();
        let stats = CommStats::new(link);
        assert_eq!(stats.vtime_ps(), 0);
        let cost = link.p2p(1024.0).as_ps();
        // Message stamped "sent at 5000 ps" arrives at 5000 + cost.
        stats.on_recv_priced(1024, link, 5000);
        assert_eq!(stats.vtime_ps(), 5000 + cost);
        // A stale message (older stamp) never rewinds the clock.
        stats.on_recv_priced(1024, link, 0);
        assert_eq!(stats.vtime_ps(), 5000 + cost);
        // A message sent "now" advances the clock by its price.
        stats.on_recv_priced(1024, link, stats.vtime_ps());
        assert_eq!(stats.vtime_ps(), 5000 + 2 * cost);
    }

    #[test]
    fn record_into_skips_empty_ops_and_labels_them() {
        let stats = CommStats::new(LinkParams::extoll());
        {
            let _g = stats.scope(CollectiveOp::Allreduce);
            stats.on_send(12);
        }
        let reg = MetricsRegistry::new();
        stats.export().record_into(&reg, &[("rank", "3")]);
        let snap = reg.snapshot();
        assert_eq!(
            snap.get("net.comm.bytes_sent{op=allreduce,rank=3}"),
            Some(&MetricValue::Counter(12))
        );
        // Ops with no traffic emit nothing.
        assert!(snap.get("net.comm.bytes_sent{op=barrier,rank=3}").is_none());
    }
}
