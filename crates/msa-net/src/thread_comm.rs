//! A real in-process communicator: `n` endpoints joined by two full
//! meshes of channels (the `crossbeam` shim's `Mutex<VecDeque>` plus a
//! `Condvar`) — payloads, each carrying its sender's virtual send time,
//! and the buffer credits flowing back. Every send draws one of a
//! channel's two credits and every receive returns it, so each channel
//! holds at most two messages (`Bounded(2)`) and buffers are recycled,
//! never reallocated, once warm. One OS thread per rank plays the role of
//! one GPU worker in the Horovod-style experiments; the collectives from
//! [`crate::collectives`] then run *for real* over these channels.

use crate::comm::PointToPoint;
use crate::cost::{LinkParams, Topology};
use crate::stats::CommStats;
use crossbeam::channel::{unbounded, Receiver, Sender};

/// Deterministic fault injection: "kill rank `rank` at step `at_step`".
///
/// Synchronous data-parallel training is all-or-nothing: when one rank
/// dies, the next collective can never complete on any rank, and the job
/// scheduler tears the whole job down. The injector models exactly that
/// observable behaviour — every endpoint of the communicator reports the
/// failure at the same step boundary (steps are in lock-step by
/// construction), so the abort is deterministic and deadlock-free.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// The rank that dies.
    pub rank: usize,
    /// The global step at which it dies (checked via
    /// [`ThreadComm::poll_fault`]; fires for every `step >= at_step`).
    pub at_step: u64,
}

/// The error surfaced on every rank when an armed [`FaultPlan`] fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RankKilled {
    /// The rank that died.
    pub rank: usize,
    /// The step it died at.
    pub at_step: u64,
}

impl std::fmt::Display for RankKilled {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "rank {} killed at step {}", self.rank, self.at_step)
    }
}

impl std::error::Error for RankKilled {}

/// Everything configurable about a communicator, in one place: the
/// armed fault plan and the link model traffic statistics are priced
/// against. [`ThreadComm::create_with`] / [`ThreadComm::run_with`] take
/// this; the old per-option constructor pairs are gone (the
/// `removed-api` lint keeps them from reappearing).
///
/// ```
/// use msa_net::{CommOptions, FaultPlan, ThreadComm};
///
/// let opts = CommOptions::new().fault(FaultPlan { rank: 1, at_step: 3 });
/// let outs = ThreadComm::run_with(2, &opts, |c| c.poll_fault(5).is_err());
/// assert_eq!(outs, vec![true, true]);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct CommOptions {
    /// Deterministic fault to arm, if any.
    pub fault: Option<FaultPlan>,
    /// Link model for [`CommStats`] receive pricing; `None` uses
    /// [`LinkParams::extoll`] (the DEEP federation fabric).
    pub link: Option<LinkParams>,
    /// Node topology: when set, messages between ranks of the same node
    /// are priced on NVLink 3 ([`LinkParams::nvlink3`]) instead of `link`,
    /// in both the wait counters and the virtual-time measurement.
    pub topo: Option<Topology>,
}

impl CommOptions {
    /// Defaults: no fault, EXTOLL link model.
    pub fn new() -> Self {
        Self::default()
    }

    /// Arms a deterministic [`FaultPlan`].
    pub fn fault(mut self, plan: FaultPlan) -> Self {
        self.fault = Some(plan);
        self
    }

    /// Sets the link model used to price recorded traffic.
    pub fn link(mut self, link: LinkParams) -> Self {
        self.link = Some(link);
        self
    }

    /// Sets the node topology for per-peer link pricing.
    pub fn topo(mut self, topo: Topology) -> Self {
        self.topo = Some(topo);
        self
    }

    fn link_or_default(&self) -> LinkParams {
        self.link.unwrap_or_else(LinkParams::extoll)
    }
}

/// One endpoint of an `n`-way in-process communicator.
///
/// Create the full set with [`ThreadComm::create`] and move each endpoint
/// into its own thread:
///
/// ```
/// use msa_net::{Communicator, PointToPoint, ThreadComm};
///
/// let comms = ThreadComm::create(4);
/// let handles: Vec<_> = comms
///     .into_iter()
///     .map(|c| {
///         std::thread::spawn(move || {
///             let mut grad = vec![c.rank() as f32; 8];
///             c.allreduce_mean(&mut grad);
///             grad[0]
///         })
///     })
///     .collect();
/// for h in handles {
///     assert_eq!(h.join().unwrap(), (0.0 + 1.0 + 2.0 + 3.0) / 4.0);
/// }
/// ```
pub struct ThreadComm {
    rank: usize,
    size: usize,
    /// `senders[to]` feeds the (self → to) channel.
    senders: Vec<Sender<Msg>>,
    /// `receivers[from]` drains the (from → self) channel.
    receivers: Vec<Receiver<Msg>>,
    /// `pool_credits[to]` holds recycled buffers this endpoint may use
    /// for its next send to `to` (seeded with
    /// [`CREDITS_PER_CHANNEL`] empty buffers at construction; refilled by
    /// the peer's `recv_with`).
    pool_credits: Vec<Receiver<Vec<f32>>>,
    /// `pool_return[from]` hands a consumed buffer back to the rank that
    /// sent it, as a fresh send credit.
    pool_return: Vec<Sender<Vec<f32>>>,
    /// Times a send had to grow a pooled buffer (capacity
    /// smaller than the payload). Grows only while message sizes still
    /// grow — zero in steady state, and deterministic: credits cycle
    /// through each channel in FIFO order, so the count depends only on
    /// the per-channel message-length sequence, never on thread timing.
    pool_allocs: msa_sync::atomic::AtomicU64,
    /// Armed fault, shared (by value) across all endpoints.
    fault: Option<FaultPlan>,
    /// Node topology for per-peer link pricing, if any.
    topo: Option<Topology>,
    /// Per-endpoint traffic counters (always on; relaxed atomics).
    stats: CommStats,
}

/// One message on the wire: the payload plus the sender's virtual clock
/// at the send, so every receive can compute a deterministic modeled
/// arrival time (see [`CommStats::on_recv_priced`]). The payload is
/// `data[..len]`: a recycled buffer keeps the length of the largest
/// message it has carried, so reusing it never re-fills it.
#[derive(Debug)]
struct Msg {
    sent_at_ps: u64,
    len: usize,
    data: Vec<f32>,
}

/// One rank's ends of a channel mesh: its senders by destination and its
/// receivers by source.
type Ends<T> = (Vec<Sender<T>>, Vec<Receiver<T>>);

/// `n × n` unbounded channels, handed out per rank. One row of channels
/// per sender, the receiver ends transposed as they are built — no
/// placeholder `Option`s.
fn mesh<T>(n: usize) -> Vec<Ends<T>> {
    let mut rx: Vec<Vec<Receiver<T>>> = (0..n).map(|_| Vec::with_capacity(n)).collect();
    let tx: Vec<Vec<Sender<T>>> = (0..n)
        .map(|_| {
            let (senders, receivers): (Vec<_>, Vec<_>) = (0..n).map(|_| unbounded()).unzip();
            for (j, r) in receivers.into_iter().enumerate() {
                rx[j].push(r);
            }
            senders
        })
        .collect();
    tx.into_iter().zip(rx).collect()
}

/// Send credits pre-seeded per directed channel. Every message holds one
/// from `send_with` until the peer's `recv_with` returns, so at most this
/// many are queued or lent per channel — `Bounded(2)` semantics. No
/// collective reads two lent messages of one channel at once, so one
/// credit is always left for a queued message: at least the `Bounded(1)`
/// capacity msa-verify proves sufficient for every collective schedule
/// in this workspace.
const CREDITS_PER_CHANNEL: usize = 2;

impl ThreadComm {
    /// Builds `n` fully-connected endpoints with default
    /// [`CommOptions`]. `n` must be ≥ 1.
    pub fn create(n: usize) -> Vec<ThreadComm> {
        Self::create_with(n, &CommOptions::new())
    }

    /// Builds `n` fully-connected endpoints configured by `opts` — the
    /// single constructor everything else forwards to.
    pub fn create_with(n: usize, opts: &CommOptions) -> Vec<ThreadComm> {
        assert!(n >= 1, "communicator needs at least one rank");
        if let Some(plan) = opts.fault {
            assert!(
                plan.rank < n,
                "fault plan kills rank {} of a {n}-way communicator",
                plan.rank
            );
        }
        let fault = opts.fault;
        let link = opts.link_or_default();
        // The same mesh twice: payloads, and the buffer-pool return path
        // (row i of the pool mesh carries spent buffers from consumer i
        // back to their senders as credits).
        let payload = mesh::<Msg>(n);
        let pool = mesh::<Vec<f32>>(n);
        // Seed the credits: pool channel (i ⇒ j) feeds rank j's sends
        // *to* i, so each cross pair starts with CREDITS_PER_CHANNEL
        // empty (capacity-0, allocation-free) buffers ready to be grown
        // on first use.
        for (i, (row, _)) in pool.iter().enumerate() {
            for (_, s) in row.iter().enumerate().filter(|&(j, _)| j != i) {
                for _ in 0..CREDITS_PER_CHANNEL {
                    // Unbounded channel with both ends in hand: the send
                    // cannot fail.
                    let _ = s.send(Vec::new());
                }
            }
        }
        payload
            .into_iter()
            .zip(pool)
            .enumerate()
            .map(
                |(rank, ((senders, receivers), (pool_return, pool_credits)))| ThreadComm {
                    rank,
                    size: n,
                    senders,
                    receivers,
                    pool_credits,
                    pool_return,
                    pool_allocs: msa_sync::atomic::AtomicU64::new(0),
                    fault,
                    topo: opts.topo,
                    stats: CommStats::new(link),
                },
            )
            .collect()
    }

    /// Runs `f` on every rank of a fresh `n`-way communicator (default
    /// [`CommOptions`]) in parallel and returns the per-rank results in
    /// rank order. Convenience wrapper used heavily by tests and
    /// `distrib`.
    pub fn run<R, F>(n: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(&ThreadComm) -> R + Sync,
    {
        Self::run_with(n, &CommOptions::new(), f)
    }

    /// Runs `f` on every rank of a fresh `n`-way communicator configured
    /// by `opts` — the single runner everything else forwards to.
    pub fn run_with<R, F>(n: usize, opts: &CommOptions, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(&ThreadComm) -> R + Sync,
    {
        let comms = ThreadComm::create_with(n, opts);
        std::thread::scope(|scope| {
            let handles: Vec<_> = comms
                .iter()
                .map(|c| scope.spawn(|| f(c)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
                .collect()
        })
    }

    /// Checks the armed fault at a step boundary. Returns
    /// `Err(RankKilled)` on **every** rank once `step` reaches the plan's
    /// `at_step` — the synchronous-SGD failure model: one dead rank makes
    /// the next collective impossible for everyone, so all ranks abort at
    /// the same deterministic point instead of deadlocking in a receive.
    pub fn poll_fault(&self, step: u64) -> Result<(), RankKilled> {
        match self.fault {
            Some(plan) if step >= plan.at_step => Err(RankKilled {
                rank: plan.rank,
                at_step: plan.at_step,
            }),
            _ => Ok(()),
        }
    }

    /// Number of pooled-buffer growths this endpoint's sends have
    /// performed — the zero-steady-state-allocation counter. Warm-up
    /// grows each channel's credits up to the largest payload seen; after
    /// that, repeating the same collectives keeps this constant. The
    /// value is deterministic across runs (see the field doc).
    pub fn pool_allocs(&self) -> u64 {
        self.pool_allocs.load(msa_sync::atomic::Ordering::Relaxed)
    }

    /// The link a message to/from `peer` travels: NVLink 3 when the
    /// topology puts both ranks on one node, the fabric link otherwise.
    fn link_for(&self, peer: usize) -> LinkParams {
        match self.topo {
            Some(t) if t.same_node(self.rank, peer) => LinkParams::nvlink3(),
            _ => self.stats.link(),
        }
    }
}

impl PointToPoint for ThreadComm {
    fn rank(&self) -> usize {
        self.rank
    }

    fn size(&self) -> usize {
        self.size
    }

    /// Lends a recycled credit buffer to `fill`, then ships it stamped
    /// with this endpoint's virtual clock.
    fn send_with(&self, to: usize, len: usize, fill: impl FnOnce(&mut [f32])) {
        assert!(to < self.size && to != self.rank, "invalid peer {to}");
        // Blocking on a credit is the flow control: at most
        // CREDITS_PER_CHANNEL un-consumed messages per channel, i.e.
        // Bounded(2) semantics (see the constant's doc).
        let mut buf = self
            .pool_credits[to]
            .recv()
            // lint: allow(unwrap) -- a dropped peer is a harness bug, not a recoverable state
            .expect("peer endpoint dropped while communicator in use");
        if buf.capacity() < len {
            self.pool_allocs
                .fetch_add(1, msa_sync::atomic::Ordering::Relaxed);
        }
        // Only a credit's first message of a new largest size is
        // zero-filled first; `fill` overwrites every element it is lent.
        if buf.len() < len {
            buf.resize(len, 0.0);
        }
        fill(&mut buf[..len]);
        self.stats.on_send(len * std::mem::size_of::<f32>());
        let sent_at_ps = self.stats.vtime_ps();
        // Unbounded channel: never blocks (the credit is the bound).
        self.senders[to]
            .send(Msg { sent_at_ps, len, data: buf })
            // lint: allow(unwrap) -- a dropped peer is a harness bug, not a recoverable state
            .expect("peer endpoint dropped while communicator in use");
    }

    /// Prices the arrival on the link it travelled, lends the payload to
    /// `read`, then recycles the buffer: it goes back to its sender as a
    /// fresh credit.
    fn recv_with<R>(&self, from: usize, read: impl FnOnce(&[f32]) -> R) -> R {
        assert!(from < self.size && from != self.rank, "invalid peer {from}");
        let Msg { sent_at_ps, len, data } = self
            .receivers[from]
            .recv()
            // lint: allow(unwrap) -- a dropped peer is a harness bug, not a recoverable state
            .expect("peer endpoint dropped while communicator in use");
        self.stats
            .on_recv_priced(len * std::mem::size_of::<f32>(), self.link_for(from), sent_at_ps);
        let out = read(&data[..len]);
        // Ignore a dropped peer here — by then the data channel has
        // already surfaced the failure.
        let _ = self.pool_return[from].send(data);
        out
    }

    fn stats(&self) -> Option<&CommStats> {
        Some(&self.stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collectives;
    use crate::comm::Communicator;

    #[test]
    fn p2p_is_fifo_per_sender() {
        let out = ThreadComm::run(2, |c| {
            if c.rank() == 0 {
                for i in 0..10 {
                    c.send_from(1, &[i as f32]);
                }
                Vec::new()
            } else {
                (0..10).map(|_| c.recv_with(0, |m| m[0])).collect::<Vec<f32>>()
            }
        });
        assert_eq!(out[1], (0..10).map(|i| i as f32).collect::<Vec<_>>());
    }

    #[test]
    fn ring_allreduce_sums_across_ranks() {
        for p in [2usize, 3, 4, 7, 8] {
            let out = ThreadComm::run(p, |c| {
                // buf[i] = rank * 100 + i, so the sum is predictable.
                let mut buf: Vec<f32> =
                    (0..23).map(|i| (c.rank() * 100 + i) as f32).collect();
                c.allreduce_sum(&mut buf);
                buf
            });
            let expected: Vec<f32> = (0..23)
                .map(|i| (0..p).map(|r| (r * 100 + i) as f32).sum())
                .collect();
            for (r, buf) in out.iter().enumerate() {
                assert_eq!(buf, &expected, "rank {r} of {p} disagrees");
            }
        }
    }

    #[test]
    fn ring_allreduce_handles_buffers_smaller_than_ranks() {
        // 3 elements across 8 ranks: some chunks are empty.
        let out = ThreadComm::run(8, |c| {
            let mut buf = vec![c.rank() as f32; 3];
            c.allreduce_sum(&mut buf);
            buf
        });
        let total: f32 = (0..8).map(|r| r as f32).sum();
        for buf in out {
            assert_eq!(buf, vec![total; 3]);
        }
    }

    #[test]
    fn recursive_doubling_matches_ring_incl_non_pow2() {
        for p in [2usize, 3, 4, 5, 6, 8, 12] {
            let out = ThreadComm::run(p, |c| {
                let mut buf: Vec<f32> = (0..17).map(|i| (c.rank() + i) as f32).collect();
                collectives::recursive_doubling_allreduce(c, &mut buf);
                buf
            });
            let expected: Vec<f32> = (0..17)
                .map(|i| (0..p).map(|r| (r + i) as f32).sum())
                .collect();
            for buf in &out {
                assert_eq!(buf, &expected, "p={p}");
            }
        }
    }

    #[test]
    fn allreduce_mean_averages() {
        let out = ThreadComm::run(4, |c| {
            let mut buf = vec![(c.rank() + 1) as f32];
            c.allreduce_mean(&mut buf);
            buf[0]
        });
        for v in out {
            assert_eq!(v, 2.5);
        }
    }

    #[test]
    fn broadcast_from_every_root() {
        for p in [2usize, 3, 5, 8] {
            for root in 0..p {
                let out = ThreadComm::run(p, |c| {
                    let mut buf = if c.rank() == root {
                        vec![42.0, 43.0, 44.0]
                    } else {
                        Vec::new()
                    };
                    c.broadcast(&mut buf, root);
                    buf
                });
                for (r, buf) in out.iter().enumerate() {
                    assert_eq!(buf, &vec![42.0, 43.0, 44.0], "p={p} root={root} rank={r}");
                }
            }
        }
    }

    #[test]
    fn tree_reduce_collects_at_root() {
        for p in [2usize, 3, 6, 8] {
            for root in [0, p - 1] {
                let out = ThreadComm::run(p, |c| {
                    let mut buf = vec![2.0f32; 5];
                    c.reduce_sum(&mut buf, root);
                    (c.rank(), buf)
                });
                let at_root = out.iter().find(|(r, _)| *r == root).unwrap();
                assert_eq!(at_root.1, vec![2.0 * p as f32; 5], "p={p} root={root}");
            }
        }
    }

    #[test]
    fn allgather_returns_rank_ordered_blocks() {
        for p in [1usize, 2, 5, 8] {
            let out = ThreadComm::run(p, |c| {
                let mine = vec![c.rank() as f32; c.rank() + 1]; // ragged
                c.allgather(&mine)
            });
            for blocks in out {
                assert_eq!(blocks.len(), p);
                for (r, b) in blocks.iter().enumerate() {
                    assert_eq!(b, &vec![r as f32; r + 1]);
                }
            }
        }
    }

    #[test]
    fn barrier_completes_for_odd_sizes() {
        for p in [2usize, 3, 5, 9] {
            let out = ThreadComm::run(p, |c| {
                for _ in 0..3 {
                    c.barrier();
                }
                true
            });
            assert!(out.into_iter().all(|b| b));
        }
    }

    #[test]
    fn fault_fires_on_every_rank_at_the_same_step() {
        let plan = FaultPlan { rank: 2, at_step: 5 };
        let out = ThreadComm::run_with(4, &CommOptions::new().fault(plan), |c| {
            for step in 0..10u64 {
                if let Err(killed) = c.poll_fault(step) {
                    assert_eq!(killed, RankKilled { rank: 2, at_step: 5 });
                    return step;
                }
                // A real collective between fault checks: all ranks must
                // stay in lock-step right up to the abort.
                let mut buf = vec![1.0f32; 4];
                c.allreduce_sum(&mut buf);
            }
            10
        });
        assert_eq!(out, vec![5, 5, 5, 5]);
    }

    #[test]
    fn unarmed_fault_never_fires() {
        let out = ThreadComm::run(3, |c| (0..100u64).all(|s| c.poll_fault(s).is_ok()));
        assert!(out.into_iter().all(|ok| ok));
    }

    #[test]
    #[should_panic(expected = "fault plan kills rank")]
    fn out_of_range_fault_rank_rejected() {
        let _ = ThreadComm::create_with(
            2,
            &CommOptions::new().fault(FaultPlan { rank: 2, at_step: 0 }),
        );
    }

    #[test]
    fn fault_options_route_through_comm_options() {
        // The CommOptions forms are the only entry points (the old
        // `*_with_fault` names were removed; see the `removed-api` lint).
        let plan = FaultPlan { rank: 0, at_step: 2 };
        let out = ThreadComm::run_with(2, &CommOptions::new().fault(plan), |c| {
            c.poll_fault(3).is_err()
        });
        assert_eq!(out, vec![true, true]);
        let comms = ThreadComm::create_with(2, &CommOptions::new());
        assert_eq!(comms.len(), 2);
        assert!(comms[0].poll_fault(u64::MAX).is_ok());
    }

    #[test]
    fn endpoint_stats_count_collective_traffic() {
        use crate::stats::CollectiveOp;

        let per_rank = ThreadComm::run(4, |c| {
            let mut buf = vec![c.rank() as f32; 8];
            c.allreduce_sum(&mut buf);
            c.barrier();
            c.stats().map(|s| s.export())
        });
        for (rank, snap) in per_rank.iter().enumerate() {
            let snap = snap.as_ref().expect("ThreadComm always keeps stats");
            let ar = snap.op(CollectiveOp::Allreduce);
            // Ring over p=4: 2(p−1) = 6 messages each way per rank.
            assert_eq!(ar.msgs_sent, 6, "rank {rank}");
            assert_eq!(ar.msgs_recv, 6, "rank {rank}");
            // 8 f32s split into 4 chunks of 2 → every message is 8 bytes.
            assert_eq!(ar.bytes_sent, 48, "rank {rank}");
            assert!(ar.wait_ps > 0);
            // Barrier traffic is attributed separately, zero-byte payloads.
            let b = snap.op(CollectiveOp::Barrier);
            assert_eq!(b.msgs_sent, 2);
            assert_eq!(b.bytes_sent, 0);
            // Nothing leaked into the p2p slot.
            assert_eq!(snap.op(CollectiveOp::P2p), Default::default());
        }
    }

    #[test]
    fn options_link_prices_recorded_wait() {
        use crate::cost::LinkParams;
        use crate::stats::CollectiveOp;

        let link = LinkParams::nvlink3();
        let out = ThreadComm::run_with(2, &CommOptions::new().link(link), |c| {
            let mut buf = vec![1.0f32; 100];
            c.allreduce_sum(&mut buf);
            c.stats().map(|s| s.export())
        });
        // p=2 ring: 2 recvs of one 50-element (200-byte) chunk each.
        let want = 2 * link.p2p(200.0).as_ps();
        for snap in out {
            let snap = snap.expect("stats always present");
            assert_eq!(snap.op(CollectiveOp::Allreduce).wait_ps, want);
        }
    }

    #[test]
    fn vtime_measures_the_ring_critical_path() {
        use crate::cost::LinkParams;

        // p=2 ring over 100 f32s: reduce-scatter + allgather = 2 serial
        // steps, each moving one 50-element (200-byte) chunk. The priced
        // Lamport clock must land on exactly 2 hops of α + m/β.
        let link = LinkParams::extoll();
        let out = ThreadComm::run_with(2, &CommOptions::new().link(link), |c| {
            let mut buf = vec![1.0f32; 100];
            c.allreduce_sum(&mut buf);
            c.stats().map(|s| s.vtime_ps()).unwrap_or(0)
        });
        let want = 2 * link.p2p(200.0).as_ps();
        assert_eq!(out, vec![want, want]);
    }

    #[test]
    fn topology_prices_intra_node_hops_on_the_intra_link() {
        use crate::cost::{LinkParams, Topology};
        use crate::stats::CollectiveOp;

        // Both ranks on one node: every hop must be priced on NVLink,
        // not the fabric, in both wait and vtime.
        let fabric = LinkParams::extoll();
        let opts = CommOptions::new().link(fabric).topo(Topology::esb(2));
        let out = ThreadComm::run_with(2, &opts, |c| {
            let mut buf = vec![1.0f32; 100];
            c.allreduce_sum(&mut buf);
            let s = c.stats().expect("stats always on");
            (s.export().op(CollectiveOp::Allreduce).wait_ps, s.vtime_ps())
        });
        let hop = LinkParams::nvlink3().p2p(200.0).as_ps();
        for (wait, vtime) in out {
            assert_eq!(wait, 2 * hop);
            assert_eq!(vtime, 2 * hop);
        }
        // Split across two nodes, the same traffic pays the fabric.
        let opts = CommOptions::new().link(fabric).topo(Topology::esb(1));
        let out = ThreadComm::run_with(2, &opts, |c| {
            let mut buf = vec![1.0f32; 100];
            c.allreduce_sum(&mut buf);
            c.stats().map(|s| s.vtime_ps()).unwrap_or(0)
        });
        assert_eq!(out, vec![2 * fabric.p2p(200.0).as_ps(); 2]);
    }

    #[test]
    fn slice_path_does_zero_steady_state_allocation() {
        use crate::cost::CollectiveAlgo;

        type Round = fn(&ThreadComm, &mut Vec<f32>);
        let flat: Round = |c, buf| {
            collectives::ring_allreduce(c, buf);
            collectives::pipeline_allreduce(c, buf);
            collectives::pipeline_allreduce_mean(c, buf);
            collectives::recursive_doubling_allreduce(c, buf);
            // Into a warm `Vec`: non-root ranks reuse its capacity.
            collectives::binomial_broadcast(c, buf, 1);
            let ragged = collectives::ring_allgather(c, &buf[..c.rank() % 3 + 1]);
            assert_eq!(ragged.len(), c.size());
        };
        let hier: Round = |c, buf| CollectiveAlgo::Hierarchical { ranks_per_node: 4 }.run(c, buf);
        for (p, round) in [(4usize, flat), (8, hier)] {
            let out = ThreadComm::run(p, |c| {
                let mut buf: Vec<f32> = (0..257).map(|i| (c.rank() + i) as f32).collect();
                // Warm-up grows the per-channel credits. Two rounds, because
                // each channel cycles CREDITS_PER_CHANNEL = 2 buffers FIFO —
                // one round only grows the first credit.
                for _ in 0..2 {
                    round(c, &mut buf);
                    c.barrier();
                }
                let warm = c.pool_allocs();
                for _ in 0..10 {
                    round(c, &mut buf);
                    c.barrier();
                }
                c.pool_allocs() - warm
            });
            for (rank, pool_delta) in out.into_iter().enumerate() {
                assert_eq!(pool_delta, 0, "p={p} rank {rank}: steady-state pool allocation");
            }
        }
    }

    /// Regression for the `parts > len` bugfix: empty trailing chunks
    /// must not ship zero-length messages, and skipping them must not
    /// change a single result bit. The reference below replays the ring's
    /// exact fold order for chunk `e`: contributions fold in ascending
    /// ring order starting at rank `e`, each new term added on the left.
    #[test]
    fn empty_chunk_skip_shrinks_traffic_and_keeps_bits() {
        use crate::stats::CollectiveOp;

        let p = 8usize;
        let v = |r: usize, i: usize| 0.1f32 + r as f32 * 0.3 + i as f32 * 0.7;
        let out = ThreadComm::run(p, |c| {
            let mut buf: Vec<f32> = (0..3).map(|i| v(c.rank(), i)).collect();
            c.allreduce_sum(&mut buf);
            let ar = c.stats().expect("stats always on").export().op(CollectiveOp::Allreduce);
            (buf, ar.msgs_sent, ar.bytes_sent)
        });
        for (rank, (buf, msgs, bytes)) in out.into_iter().enumerate() {
            // Dense schedule would be 2(p−1) = 14 messages; only the 3
            // nonempty chunks circulate now.
            assert!(msgs < 14, "rank {rank} sent {msgs} messages");
            assert!(msgs >= 4, "rank {rank} sent {msgs} messages");
            // Every surviving message carries exactly one f32.
            assert_eq!(bytes, msgs * 4, "rank {rank} wire bytes");
            for (e, got) in buf.iter().enumerate() {
                let mut acc = v(e % p, e);
                for k in 1..p {
                    // Spelled `new + acc` (not `+=`): the ring folds each
                    // arriving contribution in on the *left*.
                    #[allow(clippy::assign_op_pattern)]
                    {
                        acc = v((e + k) % p, e) + acc;
                    }
                }
                assert_eq!(
                    got.to_bits(),
                    acc.to_bits(),
                    "rank {rank} elem {e}: ring fold order changed"
                );
            }
        }
    }

    /// The property the fused gradient exchange rests on: splitting a
    /// buffer into arbitrary buckets and pipeline-allreducing each gives
    /// exactly the bits of one whole-buffer call — and both equal the
    /// canonical rank-ordered left fold.
    #[test]
    fn pipeline_allreduce_is_partition_invariant() {
        let len = 29usize;
        let v = |r: usize, i: usize| (0.37f32 + r as f32 * 1.13) * (i as f32 - 11.5);
        for p in [2usize, 3, 5, 8] {
            let whole = ThreadComm::run(p, |c| {
                let mut buf: Vec<f32> = (0..len).map(|i| v(c.rank(), i)).collect();
                collectives::pipeline_allreduce(c, &mut buf);
                buf
            });
            for split in [&[29usize][..], &[1, 28], &[7, 9, 13], &[4, 5, 6, 7, 7], &[1; 29]] {
                assert_eq!(split.iter().sum::<usize>(), len);
                let bucketed = ThreadComm::run(p, |c| {
                    let mut buf: Vec<f32> = (0..len).map(|i| v(c.rank(), i)).collect();
                    let mut off = 0;
                    for &sz in split {
                        collectives::pipeline_allreduce(c, &mut buf[off..off + sz]);
                        off += sz;
                    }
                    buf
                });
                for (rank, (w, b)) in whole.iter().zip(&bucketed).enumerate() {
                    for i in 0..len {
                        assert_eq!(
                            w[i].to_bits(),
                            b[i].to_bits(),
                            "p={p} split={split:?} rank={rank} elem={i}"
                        );
                    }
                }
            }
            // Canonical fold: g_{p−1} + (… + (g_1 + g_0)).
            for buf in &whole {
                for (i, got) in buf.iter().enumerate() {
                    let mut acc = v(0, i);
                    for r in 1..p {
                        acc += v(r, i);
                    }
                    assert_eq!(got.to_bits(), acc.to_bits(), "p={p} elem={i}");
                }
            }
        }
    }

    /// The trainer's averaging chain: `pipeline_allreduce_mean` on any
    /// split ≡ the whole-buffer `pipeline_allreduce` then `/= p`, to the
    /// bit — so it is partition-invariant too — over finite, ±0.0,
    /// subnormal and NaN/±inf inputs. Where NaNs of different payloads
    /// meet, a NaN need only meet a NaN: which operand's payload an add
    /// keeps is not something Rust pins. At p = 1 it still divides.
    #[test]
    fn pipeline_mean_is_the_sum_chain_then_division() {
        type Flavour = fn(usize, usize) -> f32;
        let len = 29usize;
        let flavours: [(&str, Flavour); 4] = [
            ("finite", |r, i| (0.37 + r as f32 * 1.13) * (i as f32 - 11.5)),
            ("zeros", |r, i| [0.0, -0.0, 1.5, -1.5][(r + 2 * i) % 4]),
            ("subnormal", |r, i| {
                let x = f32::from_bits(1 + (r * 131 + i * 7) as u32);
                if (r + i) % 3 == 0 { -x } else { x }
            }),
            ("nan/inf", |r, i| match (r + i) % 5 {
                0 => f32::from_bits(0x7fc0_0001 + r as u32),
                1 => f32::INFINITY,
                2 => f32::NEG_INFINITY,
                3 => -f32::from_bits(0x7fc0_0100 + r as u32),
                _ => r as f32 - 0.25 * i as f32,
            }),
        ];
        let bits = |v: &[f32]| {
            let canon = |x: f32| if x.is_nan() { f32::NAN.to_bits() } else { x.to_bits() };
            v.iter().map(|&x| canon(x)).collect::<Vec<u32>>()
        };
        for (name, v) in flavours {
            for p in [1usize, 2, 3, 5, 8] {
                let want = ThreadComm::run(p, |c| {
                    let mut buf: Vec<f32> = (0..len).map(|i| v(c.rank(), i)).collect();
                    collectives::pipeline_allreduce(c, &mut buf);
                    for x in &mut buf {
                        *x /= p as f32;
                    }
                    bits(&buf)
                });
                for split in [&[29usize][..], &[1, 28], &[7, 9, 13], &[4, 5, 6, 7, 7], &[1; 29]] {
                    let got = ThreadComm::run(p, |c| {
                        let mut buf: Vec<f32> = (0..len).map(|i| v(c.rank(), i)).collect();
                        let mut rest = &mut buf[..];
                        for &sz in split {
                            let (seg, tail) = rest.split_at_mut(sz);
                            collectives::pipeline_allreduce_mean(c, seg);
                            rest = tail;
                        }
                        bits(&buf)
                    });
                    assert_eq!(got, want, "{name} p={p} split={split:?}");
                }
            }
        }
    }

    /// The sharded exchange: per bucket, `pipeline_reduce_scatter_mean`
    /// leaves on each owner's range the bits `pipeline_allreduce_mean`
    /// leaves there, at p = 1..=8, for `len < p` and for random bucket
    /// cuts, over finite, ±0.0, subnormal and NaN/±inf inputs (a NaN need
    /// only meet a NaN, as above). A `shard_gather` to every rank then leaves every
    /// rank with the whole mean.
    #[test]
    fn owner_fold_mean_is_the_chain_mean_on_every_shard() {
        let value = |flavour: usize, r: usize, i: usize| match (flavour, (r + i) % 5) {
            (0, _) => (0.37 + r as f32 * 1.13) * (i as f32 - 11.5),
            (1, k) => [0.0, -0.0, 1.5, -1.5, 0.0][k],
            (2, k) => f32::from_bits(1 + (r * 131 + i * 7) as u32) * [1.0, -1.0][k % 2],
            (_, 0) => f32::from_bits(0x7fc0_0001 + r as u32),
            (_, 1) => f32::INFINITY,
            (_, 2) => f32::NEG_INFINITY,
            (_, k) => r as f32 - 0.25 * (i + k) as f32,
        };
        let canon = |x: f32| if x.is_nan() { f32::NAN.to_bits() } else { x.to_bits() };
        let mut rng = msa_core::XorShift(0x5AAD_0FF5);
        let runs = (1..=8usize).flat_map(|p| [3, 29].map(|len| (p, len)));
        for (p, len, flavour) in runs.flat_map(|(p, len)| (0..4).map(move |f| (p, len, f))) {
            let want = ThreadComm::run(p, |c| {
                let mut buf: Vec<f32> = (0..len).map(|i| value(flavour, c.rank(), i)).collect();
                collectives::pipeline_allreduce_mean(c, &mut buf);
                buf.iter().map(|&x| canon(x)).collect::<Vec<u32>>()
            });
            let mut cuts: Vec<usize> = (0..rng.next_u64() % 5)
                .map(|_| rng.next_u64() as usize % (len + 1))
                .collect();
            cuts.extend([0, len]);
            cuts.sort_unstable();
            let got = ThreadComm::run(p, |c| {
                let mut buf: Vec<f32> = (0..len).map(|i| value(flavour, c.rank(), i)).collect();
                for w in cuts.windows(2).rev() {
                    collectives::pipeline_reduce_scatter_mean(c, &mut buf[w[0]..w[1]], w[0], len);
                }
                let owned = collectives::chunk_range(len, p, c.rank());
                let shard: Vec<u32> = buf[owned].iter().map(|&x| canon(x)).collect();
                collectives::shard_gather(
                    c,
                    None,
                    len,
                    &mut buf[..],
                    |b, r, msg| msg.copy_from_slice(&b[r]),
                    |b, r, msg| b[r].copy_from_slice(msg),
                );
                (shard, buf.iter().map(|&x| canon(x)).collect::<Vec<u32>>())
            });
            for (rank, (shard, all)) in got.iter().enumerate() {
                let ctx = format!("flavour {flavour} p={p} len={len} cuts={cuts:?} rank={rank}");
                assert_eq!(shard[..], want[0][collectives::chunk_range(len, p, rank)], "{ctx}");
                assert_eq!(all, &want[0], "{ctx}: after the allgather");
            }
        }
    }

    /// Bit pins for the reductions that fold received messages: per-rank
    /// FNV-1a digests of the output bits over finite, ±0.0, subnormal and
    /// NaN/±inf inputs (NaN canonicalised: a NaN need only meet a NaN),
    /// recorded before the folds were rewritten to read lent buffers.
    #[test]
    fn reduction_folds_keep_their_bits() {
        use crate::hierarchical::hierarchical_allreduce;
        type Run = fn(&ThreadComm, &mut [f32]);
        let runs: [(&str, Run); 5] = [
            ("ring", |c, b| collectives::ring_allreduce(c, b)),
            ("rdb", |c, b| collectives::recursive_doubling_allreduce(c, b)),
            ("tree", |c, b| collectives::tree_reduce(c, b, c.size() - 1)),
            ("hier", |c, b| {
                // Ranks per node: all of them when p is prime, else 2 at
                // p = 6 and 4 at p = 8, where the leaders' ring runs too.
                let rpn = [0, 1, 2, 3, 4, 5, 2, 7, 4][c.size()];
                hierarchical_allreduce(c, b, rpn);
            }),
            ("bf16", |c, b| crate::bf16_allreduce(c, b, &mut crate::Arena::new())),
        ];
        let inputs: [fn(usize, usize) -> f32; 4] = [
            |r, i| (0.37 + r as f32 * 1.13) * (i as f32 - 11.5),
            |r, i| [0.0, -0.0, 1.5e-3, -1.5][(r + 2 * i) % 4],
            |r, i| f32::from_bits(1 + (r * 131 + i * 7) as u32) * if (r + i) % 3 == 0 { -1.0 } else { 1.0 },
            |r, i| match (r + i) % 5 {
                0 => f32::from_bits(0x7fc0_0001 + r as u32),
                1 => f32::INFINITY,
                2 => f32::NEG_INFINITY,
                3 => -f32::from_bits(0x7fc0_0100 + r as u32),
                _ => r as f32 - 0.25 * i as f32,
            },
        ];
        // Allreduces leave the same bits on every rank: one digest per p.
        // Tree reduce's non-root ranks keep partial sums: one per rank.
        let pins: [[&[u64]; 5]; 5] = [
            [&[0xc89958ecd3750b23], &[0x6b37a75eeeed21f5], &[0xed514d834ebe34cd], &[0x3d154b055d51c0b8], &[0xae4ef3e579e3039d]],
            [&[0xc89958ecd3750b23], &[0xcc1e6f3bb4d76e13], &[0xfa1e53e19324644e], &[0xca2cf8b399da7358], &[0xf09b527311e91e75]],
            [
                &[0xc2e46b4f128a408f, 0xc89958ecd3750b23],
                &[0xc2e46b4f128a408f, 0xbd5d338a1b4f72ed, 0xcc1e6f3bb4d76e13],
                &[0xc2e46b4f128a408f, 0xca1dd42a51e05c65, 0xd785f257295578e7, 0xb9e5d641196050bb, 0x03959046825b828f],
                &[0xc2e46b4f128a408f, 0xca1dd42a51e05c65, 0xd785f257295578e7, 0x676c055144d3474d, 0xd8fdc72d2d708690, 0x11e628019ee78748],
                &[
                    0xc2e46b4f128a408f, 0xca1dd42a51e05c65, 0xd785f257295578e7, 0xac789a8a7a60deb7,
                    0xd8fdc72d2d708690, 0xf02cd885b905def3, 0x67a6df4e0cd531c6, 0x872b98b6522234e9,
                ],
            ],
            [&[0xc89958ecd3750b23], &[0x8575fadedc899b65], &[0xaedc74c0b6fbb3c5], &[0xa0f1b57171cfb4f5], &[0xf09b527311e91e75]],
            [&[0xb0c98013454158b5], &[0xba47cec6526758b5], &[0xf3a41ce9af4558b5], &[0x227c58b5fea458b5], &[0xe33dc99046a258b5]],
        ];
        for ((name, run), row) in runs.into_iter().zip(pins) {
            for (p, pin) in [2usize, 3, 5, 6, 8].into_iter().zip(row) {
                let got = ThreadComm::run(p, |c| {
                    let mut bits = Vec::new();
                    for v in inputs {
                        let mut buf: Vec<f32> = (0..29).map(|i| v(c.rank(), i)).collect();
                        run(c, &mut buf);
                        for x in buf {
                            bits.push(if x.is_nan() { f32::NAN } else { x }.to_bits());
                        }
                    }
                    msa_core::fnv1a(bits)
                });
                let want = if pin.len() == 1 { vec![pin[0]; p] } else { pin.to_vec() };
                assert_eq!(got, want, "{name} p={p}: per-rank digests moved");
            }
        }
    }

    #[test]
    fn allgather_into_matches_allgather() {
        for p in [1usize, 2, 5, 8] {
            let out = ThreadComm::run(p, |c| {
                let mine: Vec<f32> = (0..4).map(|i| (c.rank() * 10 + i) as f32).collect();
                let mut flat = vec![0.0f32; p * 4];
                c.allgather_into(&mine, &mut flat);
                (flat, c.allgather(&mine))
            });
            for (flat, blocks) in out {
                let want: Vec<f32> = blocks.concat();
                assert_eq!(flat, want, "p={p}");
            }
        }
    }

    #[test]
    fn broadcast_into_matches_broadcast() {
        for p in [1usize, 2, 5, 8] {
            for root in [0, p - 1] {
                let out = ThreadComm::run(p, |c| {
                    let mut buf = vec![0.0f32; 6];
                    if c.rank() == root {
                        for (i, x) in buf.iter_mut().enumerate() {
                            *x = 42.0 + i as f32;
                        }
                    }
                    collectives::binomial_broadcast_into(c, &mut buf, root);
                    buf
                });
                let want: Vec<f32> = (0..6).map(|i| 42.0 + i as f32).collect();
                for (r, buf) in out.iter().enumerate() {
                    assert_eq!(buf, &want, "p={p} root={root} rank={r}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "invalid peer")]
    fn send_to_self_rejected() {
        let comms = ThreadComm::create(2);
        comms[0].send_from(0, &[]);
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zero_ranks_rejected() {
        let _ = ThreadComm::create(0);
    }
}
