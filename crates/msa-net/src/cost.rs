//! Analytic α–β cost models for the collectives, including the DEEP
//! Extreme Scale Booster's FPGA **Global Collective Engine** (GCE).
//!
//! The α–β (latency–bandwidth) model prices a point-to-point message of
//! `m` bytes at `α + m/β`. The collective costs below are the standard
//! results from the literature; the GCE model captures an in-fabric
//! hardware reduction: a single pipelined traversal instead of log p
//! software rounds, which is exactly why the MSA puts an FPGA into the
//! booster fabric for MPI reduce operations.
//!
//! These models back experiment E8 (allreduce latency vs message size and
//! node count) and, via `distrib::perf`, the E3 scaling curves.

use msa_core::SimTime;

pub use msa_core::LinkParams;

/// Node-level topology: ranks are packed into nodes of `ranks_per_node`
/// consecutive ranks (the CM/ESB module layout — e.g. 4 GPUs per JUWELS
/// Booster node), and traffic between two ranks of the same node travels
/// the `intra` link (NVLink) instead of the fabric.
///
/// Handed to `ThreadComm` via `CommOptions::topo`, this makes both the
/// α–β wait pricing and the virtual-time measurement per-peer aware,
/// which is what lets `hierarchical_allreduce` actually *win* its cells
/// in the autotuner grid: its intra-node phases get NVLink pricing while
/// flat algorithms pay the fabric for every hop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Topology {
    /// Consecutive ranks per node; node id of rank r is `r / ranks_per_node`.
    pub ranks_per_node: usize,
    /// Link used between ranks of the same node.
    pub intra: LinkParams,
}

impl Topology {
    /// ESB-style nodes of `ranks_per_node` GPUs bridged by NVLink 3.
    pub fn esb(ranks_per_node: usize) -> Self {
        assert!(ranks_per_node >= 1);
        Topology {
            ranks_per_node,
            intra: LinkParams::nvlink3(),
        }
    }

    /// Whether two ranks share a node.
    pub fn same_node(&self, a: usize, b: usize) -> bool {
        a / self.ranks_per_node == b / self.ranks_per_node
    }
}

/// Which allreduce algorithm to price.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CollectiveAlgo {
    /// Chunked ring: 2(p−1) steps of α + (m/p)/β. Bandwidth-optimal.
    Ring,
    /// Recursive doubling: ⌈log₂ p⌉ steps of α + m/β. Latency-optimal.
    RecursiveDoubling,
    /// Reduce + broadcast over binomial trees: 2⌈log₂ p⌉ steps.
    BinomialTree,
    /// Chunked ring pipeline ([`crate::collectives::pipeline_allreduce`]):
    /// 2(p−1) full-message hops along a chain, overlapped across chunks.
    /// Critical path 2(p−1)(α + m/β) — latency-heavy at large p, but the
    /// partition-invariant fold order is what bucket fusion needs.
    Pipeline,
    /// FPGA Global Collective Engine: the reduction happens inside the
    /// fabric in one pipelined traversal — one injection, a per-hop
    /// pipeline delay, one ejection.
    GceOffload,
}

impl CollectiveAlgo {
    /// All algorithms, for sweep-style benches.
    pub fn all() -> [CollectiveAlgo; 5] {
        [
            CollectiveAlgo::Ring,
            CollectiveAlgo::RecursiveDoubling,
            CollectiveAlgo::BinomialTree,
            CollectiveAlgo::Pipeline,
            CollectiveAlgo::GceOffload,
        ]
    }

    /// The software algorithms (everything but the FPGA offload), in the
    /// fixed preference order used to break exact ties.
    pub fn software() -> [CollectiveAlgo; 4] {
        [
            CollectiveAlgo::Ring,
            CollectiveAlgo::RecursiveDoubling,
            CollectiveAlgo::BinomialTree,
            CollectiveAlgo::Pipeline,
        ]
    }

    /// Predicted wall-clock of a `bytes`-sized allreduce over `p` ranks.
    pub fn allreduce_time(self, p: usize, bytes: f64, link: LinkParams) -> SimTime {
        assert!(p >= 1);
        assert!(bytes >= 0.0);
        if p == 1 {
            return SimTime::ZERO;
        }
        let alpha = link.latency_us * 1e-6;
        let beta = link.bw_gbs * 1e9;
        let logp = (p as f64).log2().ceil();
        let secs = match self {
            CollectiveAlgo::Ring => {
                let steps = 2.0 * (p as f64 - 1.0);
                steps * (alpha + bytes / p as f64 / beta)
            }
            CollectiveAlgo::RecursiveDoubling => logp * (alpha + bytes / beta),
            CollectiveAlgo::BinomialTree => 2.0 * logp * (alpha + bytes / beta),
            CollectiveAlgo::Pipeline => {
                // Reduce chain + broadcast chain, full message per hop.
                2.0 * (p as f64 - 1.0) * (alpha + bytes / beta)
            }
            CollectiveAlgo::GceOffload => {
                // Inject once, reduce inside the fabric's switch tree
                // (depth log₂ p, ~100 ns of FPGA ALU pipeline per stage),
                // eject once. No software rounds at all.
                let hop_s = 100e-9;
                2.0 * alpha + bytes / beta + logp * hop_s
            }
        };
        SimTime::from_secs(secs)
    }

    /// The best *software* algorithm for the given size (what an MPI
    /// implementation's heuristic would pick): the modeled argmin over
    /// every software candidate — recursive doubling ends up winning
    /// small messages, ring large ones. Exact ties go to the earlier
    /// entry of [`CollectiveAlgo::software`], so the answer is
    /// deterministic.
    pub fn best_software(p: usize, bytes: f64, link: LinkParams) -> CollectiveAlgo {
        let mut best = CollectiveAlgo::Ring;
        let mut best_t = best.allreduce_time(p, bytes, link);
        for algo in CollectiveAlgo::software().into_iter().skip(1) {
            let t = algo.allreduce_time(p, bytes, link);
            if t < best_t {
                best = algo;
                best_t = t;
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LINK: LinkParams = LinkParams {
        latency_us: 1.0,
        bw_gbs: 12.5,
    };

    #[test]
    fn p2p_is_alpha_plus_beta() {
        let t = LINK.p2p(12.5e9);
        assert!((t.as_secs() - (1e-6 + 1.0)).abs() < 1e-9);
    }

    #[test]
    fn single_rank_costs_nothing() {
        for algo in CollectiveAlgo::all() {
            assert_eq!(algo.allreduce_time(1, 1e6, LINK), SimTime::ZERO);
        }
    }

    #[test]
    fn small_messages_favor_recursive_doubling() {
        // 1 KiB over 64 ranks: log-depth wins over 126 ring steps.
        let ring = CollectiveAlgo::Ring.allreduce_time(64, 1024.0, LINK);
        let rd = CollectiveAlgo::RecursiveDoubling.allreduce_time(64, 1024.0, LINK);
        assert!(rd < ring);
        assert_eq!(
            CollectiveAlgo::best_software(64, 1024.0, LINK),
            CollectiveAlgo::RecursiveDoubling
        );
    }

    #[test]
    fn large_messages_favor_ring() {
        // 100 MB over 64 ranks: bandwidth term dominates.
        let ring = CollectiveAlgo::Ring.allreduce_time(64, 1e8, LINK);
        let rd = CollectiveAlgo::RecursiveDoubling.allreduce_time(64, 1e8, LINK);
        assert!(ring < rd);
        assert_eq!(
            CollectiveAlgo::best_software(64, 1e8, LINK),
            CollectiveAlgo::Ring
        );
    }

    #[test]
    fn gce_beats_best_software_at_small_sizes_and_scale() {
        // The GCE's raison d'être: small-message collectives at scale.
        for p in [16usize, 64, 256] {
            let sw = CollectiveAlgo::best_software(p, 4096.0, LINK)
                .allreduce_time(p, 4096.0, LINK);
            let gce = CollectiveAlgo::GceOffload.allreduce_time(p, 4096.0, LINK);
            assert!(gce < sw, "GCE should win at p={p}: {gce} vs {sw}");
        }
    }

    #[test]
    fn gce_advantage_grows_with_node_count() {
        let speedup = |p: usize| {
            let sw = CollectiveAlgo::best_software(p, 4096.0, LINK)
                .allreduce_time(p, 4096.0, LINK);
            let gce = CollectiveAlgo::GceOffload.allreduce_time(p, 4096.0, LINK);
            sw / gce
        };
        assert!(speedup(256) > speedup(16));
    }

    #[test]
    fn ring_bandwidth_term_is_size_invariant_for_large_m() {
        // 2(p-1)/p·m/β converges: doubling p shouldn't change large-m cost
        // by more than the latency delta.
        let t64 = CollectiveAlgo::Ring.allreduce_time(64, 1e9, LINK).as_secs();
        let t128 = CollectiveAlgo::Ring.allreduce_time(128, 1e9, LINK).as_secs();
        assert!((t128 - t64).abs() < 0.01 * t64 + 130.0 * 1e-6);
    }

    #[test]
    fn preset_links_are_sane() {
        assert!(LinkParams::infiniband_hdr200x4().bw_gbs > LinkParams::infiniband_edr().bw_gbs);
        assert!(LinkParams::nvlink3().latency_us < LinkParams::extoll().latency_us);
    }
}
