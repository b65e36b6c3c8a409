//! Memory-tier cost model for analytics stages.
//!
//! Spark-class pipelines stream their working set repeatedly; when it
//! exceeds DRAM the overflow is served from the next tier (the DAM's
//! NVMe, or — without local NVM — the network to shared storage). The
//! model prices one pass of a stage over its working set and composes
//! multi-pass jobs, reproducing the "DAM exists because Spark needs
//! memory" argument quantitatively (E10).

use msa_core::hw::{MemoryKind, NodeSpec};
use msa_core::SimTime;

/// Memory configuration of one analytics node.
#[derive(Debug, Clone, Copy)]
pub struct TierModel {
    /// DRAM capacity in GiB.
    pub ddr_gib: f64,
    /// DRAM streaming bandwidth GB/s.
    pub ddr_bw_gbs: f64,
    /// Overflow-tier capacity in GiB (NVMe or remote).
    pub overflow_gib: f64,
    /// Overflow-tier bandwidth GB/s.
    pub overflow_bw_gbs: f64,
}

impl TierModel {
    /// Builds a tier model from a node spec: DDR + (NVM if present, else
    /// the network at a congestion-discounted rate).
    pub fn from_node(node: &NodeSpec) -> TierModel {
        let ddr: f64 = node
            .memory
            .iter()
            .filter(|m| m.kind == MemoryKind::Ddr)
            .map(|m| m.capacity_gib)
            .sum();
        let ddr_bw = node
            .memory
            .iter()
            .find(|m| m.kind == MemoryKind::Ddr)
            .map(|m| m.read_bw_gbs)
            .unwrap_or(100.0);
        let nvm = node
            .memory
            .iter()
            .find(|m| m.kind == MemoryKind::Nvm);
        match nvm {
            Some(m) => TierModel {
                ddr_gib: ddr,
                ddr_bw_gbs: ddr_bw,
                overflow_gib: m.capacity_gib,
                overflow_bw_gbs: m.read_bw_gbs,
            },
            None => TierModel {
                ddr_gib: ddr,
                ddr_bw_gbs: ddr_bw,
                overflow_gib: f64::INFINITY,
                // Remote storage over a congested fabric.
                overflow_bw_gbs: node.net_bw_gbs * 0.1,
            },
        }
    }

    /// Time for one streaming pass over a working set of `ws_gib`.
    pub fn pass_time(&self, ws_gib: f64) -> SimTime {
        assert!(ws_gib >= 0.0);
        assert!(
            ws_gib <= self.ddr_gib + self.overflow_gib,
            "working set {ws_gib} GiB exceeds total capacity"
        );
        let in_ram = ws_gib.min(self.ddr_gib);
        let spilled = (ws_gib - in_ram).max(0.0);
        SimTime::from_secs(in_ram / self.ddr_bw_gbs + spilled / self.overflow_bw_gbs)
    }

    /// Effective streaming bandwidth for a working set (GB/s).
    pub fn effective_bw(&self, ws_gib: f64) -> f64 {
        if ws_gib == 0.0 {
            return self.ddr_bw_gbs;
        }
        ws_gib / self.pass_time(ws_gib).as_secs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msa_core::hw::catalog;

    #[test]
    fn dam_node_tiers_match_table_i() {
        let t = TierModel::from_node(&catalog::deep_dam_node());
        assert_eq!(t.ddr_gib, 384.0);
        assert_eq!(t.overflow_gib, 3072.0);
        assert!(t.overflow_bw_gbs < t.ddr_bw_gbs);
    }

    #[test]
    fn in_ram_jobs_run_at_dram_speed() {
        let t = TierModel::from_node(&catalog::deep_dam_node());
        assert!((t.effective_bw(100.0) - t.ddr_bw_gbs).abs() < 1e-9);
    }

    #[test]
    fn spill_cliff_appears_past_dram_capacity() {
        let t = TierModel::from_node(&catalog::deep_dam_node());
        let bw_fit = t.effective_bw(300.0);
        let bw_spill = t.effective_bw(1200.0);
        assert!(
            bw_spill < bw_fit / 3.0,
            "spilling should cost ≥3× bandwidth: {bw_spill} vs {bw_fit}"
        );
    }

    #[test]
    fn dam_beats_cpu_node_for_oversized_working_sets() {
        // The E10 claim: same working set, DAM (local NVMe spill) vs a
        // cluster node (network spill) — DAM wins clearly.
        let dam = TierModel::from_node(&catalog::deep_dam_node());
        let cm = TierModel::from_node(&catalog::juwels_cluster_node());
        let ws = 500.0; // exceeds both nodes' DRAM? CM: 96 GiB, DAM: 384.
        let t_dam = dam.pass_time(ws);
        let t_cm = cm.pass_time(ws);
        assert!(
            t_dam < t_cm / 2.0,
            "DAM should be ≥2× faster: {t_dam} vs {t_cm}"
        );
    }

    #[test]
    #[should_panic(expected = "exceeds total capacity")]
    fn oversized_working_set_rejected() {
        let t = TierModel::from_node(&catalog::deep_dam_node());
        let _ = t.pass_time(1e9);
    }
}
