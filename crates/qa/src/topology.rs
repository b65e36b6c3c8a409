//! Annealer hardware graphs and minor embedding.
//!
//! A QUBO only maps 1:1 onto the device if its coupling graph is a
//! subgraph of the hardware graph. Dense problems (like the QSVM QUBO)
//! are not: each logical variable must be *minor-embedded* as a chain of
//! physical qubits. This is the real reason the paper's SVM subsamples
//! are tiny — the D-Wave 2000Q's Chimera graph hosts at most a ~65-vertex
//! clique despite having 2048 qubits, while the Advantage's Pegasus graph
//! hosts ~180.

/// A quantum annealer's qubit-connectivity graph.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HardwareGraph {
    pub name: &'static str,
    /// Physical qubits.
    pub qubits: usize,
    /// Physical couplers.
    pub couplers: usize,
    /// Largest complete graph embeddable as a minor.
    pub max_clique: usize,
    /// Chain length used by the standard clique embedding.
    pub clique_chain_len: usize,
}

impl HardwareGraph {
    /// Chimera `C_m` (the 2000Q is `C_16`): an `m × m` grid of `K_{4,4}`
    /// cells. Qubits `8m²`; couplers `16m² + 8m(m−1)`; the standard
    /// clique embedding reaches `K_{4m+1}` with chains of length `m+1`.
    pub fn chimera(m: usize) -> Self {
        assert!(m >= 1);
        HardwareGraph {
            name: "Chimera",
            qubits: 8 * m * m,
            couplers: 16 * m * m + 8 * m * (m - 1),
            max_clique: 4 * m + 1,
            clique_chain_len: m + 1,
        }
    }

    /// Pegasus `P_m` (the Advantage is `P_16`): degree-15 connectivity.
    /// Qubits `24m(m−1)`; couplers ≈ `180(m−1)² −…` (we use the exact
    /// P16 figures scaled); clique `K_{12(m−1)}` with chains of ~`m/2+1`.
    pub fn pegasus(m: usize) -> Self {
        assert!(m >= 2);
        let qubits = 24 * m * (m - 1);
        HardwareGraph {
            name: "Pegasus",
            // Pegasus has 15 couplers/qubit on average (interior).
            couplers: qubits * 15 / 2,
            qubits,
            max_clique: 12 * (m - 1),
            clique_chain_len: m / 2 + 1,
        }
    }

    /// The D-Wave 2000Q (Chimera C16).
    pub fn dwave_2000q() -> Self {
        Self::chimera(16)
    }

    /// The D-Wave Advantage (Pegasus P16).
    pub fn dwave_advantage() -> Self {
        Self::pegasus(16)
    }

    /// Whether a *dense* problem over `n` logical variables embeds.
    pub fn embeds_dense(&self, n: usize) -> bool {
        n <= self.max_clique
    }

    /// Physical qubits consumed by a dense `n`-variable problem under
    /// the clique embedding (n chains).
    pub fn physical_qubits_for_dense(&self, n: usize) -> Option<usize> {
        if self.embeds_dense(n) {
            Some(n * self.clique_chain_len)
        } else {
            None
        }
    }

    /// Largest QSVM subsample (with `k_bits` per multiplier) whose dense
    /// QUBO embeds on this graph.
    pub fn max_qsvm_subsample(&self, k_bits: usize) -> usize {
        assert!(k_bits >= 1);
        self.max_clique / k_bits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chimera_c16_matches_the_2000q() {
        let g = HardwareGraph::dwave_2000q();
        assert_eq!(g.qubits, 2048);
        assert_eq!(g.couplers, 16 * 256 + 8 * 16 * 15); // 4096 + 1920 = 6016
        assert_eq!(g.couplers, 6016);
        assert_eq!(g.max_clique, 65);
    }

    #[test]
    fn pegasus_p16_matches_the_advantage() {
        let g = HardwareGraph::dwave_advantage();
        assert_eq!(g.qubits, 24 * 16 * 15); // 5760 fabricated (≈5000+ working)
        assert_eq!(g.max_clique, 180);
        assert!(g.couplers > 35_000, "paper: 35,000 working couplers");
    }

    #[test]
    fn advantage_hosts_nearly_3x_larger_dense_problems() {
        let old = HardwareGraph::dwave_2000q();
        let new = HardwareGraph::dwave_advantage();
        let ratio = new.max_clique as f64 / old.max_clique as f64;
        assert!((2.5..3.0).contains(&ratio), "clique ratio {ratio}");
        // And with 3-bit QSVM encoding: 21 vs 60 samples per member.
        assert_eq!(old.max_qsvm_subsample(3), 21);
        assert_eq!(new.max_qsvm_subsample(3), 60);
    }

    #[test]
    fn embedding_overhead_is_substantial() {
        // The headline lesson: "2048 qubits" hosts only 65 dense
        // variables — a 17-qubit chain per variable.
        let g = HardwareGraph::dwave_2000q();
        assert_eq!(g.clique_chain_len, 17);
        let phys = g.physical_qubits_for_dense(65).unwrap();
        assert!(phys <= g.qubits);
        assert!(g.physical_qubits_for_dense(66).is_none());
    }

    #[test]
    fn embeds_dense_boundary() {
        let g = HardwareGraph::chimera(4);
        assert_eq!(g.max_clique, 17);
        assert!(g.embeds_dense(17));
        assert!(!g.embeds_dense(18));
    }
}
