//! Hierarchical (two-level) allreduce.
//!
//! JUWELS nodes carry 4 GPUs joined by NVLink, with InfiniBand between
//! nodes. Horovod exploits that: GPUs on one node reduce over NVLink,
//! one *leader* per node joins an inter-node ring, and the result is
//! broadcast back over NVLink. This module is the **real**
//! implementation over any [`PointToPoint`] transport (ranks grouped by
//! node); its α–β price is [`crate::CollectiveAlgo::Hierarchical`]'s.
//! It runs on [`GroupComm`] views that renumber a node's (or the
//! leaders') ranks and forward the lending pair to the parent, so group
//! traffic draws the parent's credits and lands in its stats.

use crate::collectives;
use crate::comm::PointToPoint;

/// A view of a parent communicator restricted to a subset of ranks,
/// with ranks renumbered `0..group.len()`. All members of the group must
/// enter the same collective; ranks outside must not participate.
pub struct GroupComm<'a, C: PointToPoint + ?Sized> {
    parent: &'a C,
    /// Parent ranks of the group members, sorted ascending.
    members: Vec<usize>,
    /// This endpoint's index within `members`.
    my_index: usize,
}

impl<'a, C: PointToPoint + ?Sized> GroupComm<'a, C> {
    /// Builds the group view for the calling rank. Panics if the caller
    /// is not in `members`.
    pub fn new(parent: &'a C, members: Vec<usize>) -> Self {
        debug_assert!(members.windows(2).all(|w| w[0] < w[1]), "members sorted");
        let my_index = members
            .iter()
            .position(|&r| r == parent.rank())
            // lint: allow(unwrap) -- documented panic: GroupComm::new requires membership
            .expect("calling rank must be a group member");
        GroupComm {
            parent,
            members,
            my_index,
        }
    }
}

impl<C: PointToPoint + ?Sized> PointToPoint for GroupComm<'_, C> {
    fn rank(&self) -> usize {
        self.my_index
    }

    fn size(&self) -> usize {
        self.members.len()
    }

    fn send_with(&self, to: usize, len: usize, fill: impl FnOnce(&mut [f32])) {
        self.parent.send_with(self.members[to], len, fill);
    }

    fn recv_with<R>(&self, from: usize, read: impl FnOnce(&[f32]) -> R) -> R {
        self.parent.recv_with(self.members[from], read)
    }

    fn stats(&self) -> Option<&crate::stats::CommStats> {
        // Group traffic flows through (and is counted by) the parent
        // endpoint; forwarding keeps collective attribution working for
        // the hierarchical phases.
        self.parent.stats()
    }
}

/// Two-level allreduce: ranks are grouped into "nodes" of
/// `ranks_per_node`; each node reduces to its leader (lowest rank of the
/// group), leaders ring-allreduce across nodes, then each leader
/// broadcasts within its node. Result: every rank holds the global sum.
///
/// `c.size()` must be divisible by `ranks_per_node`.
pub fn hierarchical_allreduce<C: PointToPoint + ?Sized>(
    c: &C,
    buf: &mut [f32],
    ranks_per_node: usize,
) {
    let p = c.size();
    assert!(ranks_per_node >= 1 && p.is_multiple_of(ranks_per_node),
        "size {p} not divisible by group size {ranks_per_node}");
    if p == 1 || buf.is_empty() {
        return;
    }
    let node = c.rank() / ranks_per_node;
    let members: Vec<usize> =
        (node * ranks_per_node..(node + 1) * ranks_per_node).collect();
    let local = GroupComm::new(c, members);

    // Phase 1: reduce to the node leader (local rank 0).
    collectives::tree_reduce(&local, buf, 0);

    // Phase 2: leaders allreduce across nodes.
    let is_leader = local.rank() == 0;
    if p > ranks_per_node && is_leader {
        let leaders: Vec<usize> = (0..p / ranks_per_node)
            .map(|n| n * ranks_per_node)
            .collect();
        let inter = GroupComm::new(c, leaders);
        collectives::ring_allreduce(&inter, buf);
    }

    // Phase 3: broadcast back within the node, in place (every member
    // knows the length).
    collectives::binomial_broadcast_into(&local, buf, 0);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{CollectiveAlgo, LinkParams};
    use crate::thread_comm::ThreadComm;

    #[test]
    fn hierarchical_equals_flat_allreduce() {
        for (p, k) in [(4usize, 2usize), (8, 4), (8, 2), (6, 3), (8, 1), (4, 4)] {
            let out = ThreadComm::run(p, |c| {
                let mut buf: Vec<f32> =
                    (0..13).map(|i| (c.rank() * 10 + i) as f32).collect();
                hierarchical_allreduce(c, &mut buf, k);
                buf
            });
            let expected: Vec<f32> = (0..13)
                .map(|i| (0..p).map(|r| (r * 10 + i) as f32).sum())
                .collect();
            for (r, buf) in out.iter().enumerate() {
                assert_eq!(buf, &expected, "p={p} k={k} rank={r}");
            }
        }
    }

    #[test]
    fn group_comm_renumbers_ranks() {
        let out = ThreadComm::run(6, |c| {
            // Two groups of 3; allreduce within each group only.
            let node = c.rank() / 3;
            let members: Vec<usize> = (node * 3..node * 3 + 3).collect();
            let g = GroupComm::new(c, members);
            assert_eq!(g.size(), 3);
            let mut buf = vec![c.rank() as f32];
            collectives::ring_allreduce(&g, &mut buf);
            buf[0]
        });
        // Group 0 = ranks 0+1+2 = 3; group 1 = 3+4+5 = 12.
        assert_eq!(out, vec![3.0, 3.0, 3.0, 12.0, 12.0, 12.0]);
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn indivisible_group_size_rejected() {
        // The size check fires before any communication, so calling on
        // one endpoint (without peers running) panics cleanly.
        let comms = ThreadComm::create(6);
        let mut buf = vec![0.0f32; 4];
        hierarchical_allreduce(&comms[0], &mut buf, 4);
    }

    #[test]
    fn cost_model_beats_flat_ring_where_latency_matters() {
        // 128 GPUs as 32 nodes × 4: NVLink inside, EDR between. A flat
        // ring pays 2(p−1) fabric latencies; the hierarchy pays 2(n−1)
        // plus cheap NVLink hops — a clear win for latency-bound sizes,
        // and near-parity for huge payloads (the ring is already
        // bandwidth-optimal).
        let edr = LinkParams::infiniband_edr();
        let hier4 = CollectiveAlgo::Hierarchical { ranks_per_node: 4 };
        let small = 1.0e5;
        let flat_s = CollectiveAlgo::Ring.allreduce_time(128, small, edr);
        let hier_s = hier4.allreduce_time(128, small, edr);
        assert!(
            hier_s.as_secs() < flat_s.as_secs() / 2.0,
            "hierarchical {hier_s} should clearly beat flat {flat_s} at 100 KB"
        );

        let big = 102.4e6; // ResNet-50 gradients
        let flat_b = CollectiveAlgo::Ring.allreduce_time(128, big, edr);
        let hier_b = hier4.allreduce_time(128, big, edr);
        assert!(
            hier_b.as_secs() < flat_b.as_secs() * 1.15,
            "hierarchical must stay near parity for large payloads: {hier_b} vs {flat_b}"
        );
    }

    #[test]
    fn cost_reduces_to_ring_when_one_rank_per_node() {
        let bytes = 1e6;
        let ring =
            CollectiveAlgo::Ring.allreduce_time(16, bytes, LinkParams::infiniband_edr());
        let hier = CollectiveAlgo::Hierarchical { ranks_per_node: 1 };
        let hier = hier.allreduce_time(16, bytes, LinkParams::infiniband_edr());
        assert!((hier.as_secs() - ring.as_secs()).abs() < 1e-9);
    }
}
