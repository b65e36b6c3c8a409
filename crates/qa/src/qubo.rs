//! Quadratic Unconstrained Binary Optimisation problems and annealer
//! capacity limits.

use std::collections::HashMap;

/// A QUBO: minimise `x' Q x` over `x ∈ {0,1}^n`, stored as linear terms
/// (diagonal) and strictly-upper-triangular quadratic couplings.
#[derive(Debug, Clone, Default)]
pub struct Qubo {
    n: usize,
    linear: Vec<f64>,
    quadratic: HashMap<(usize, usize), f64>,
}

impl Qubo {
    /// A QUBO over `n` binary variables, initially all-zero.
    pub fn new(n: usize) -> Self {
        Qubo {
            n,
            linear: vec![0.0; n],
            quadratic: HashMap::new(),
        }
    }

    /// Number of variables (qubits required).
    pub fn num_vars(&self) -> usize {
        self.n
    }

    /// Number of non-zero couplings (couplers required).
    pub fn num_couplers(&self) -> usize {
        self.quadratic.len()
    }

    /// Adds to the linear coefficient of variable `i`.
    pub fn add_linear(&mut self, i: usize, v: f64) {
        assert!(i < self.n);
        self.linear[i] += v;
    }

    /// Adds to the coupling between `i` and `j` (`i ≠ j`, order-free).
    pub fn add_quadratic(&mut self, i: usize, j: usize, v: f64) {
        assert!(i < self.n && j < self.n && i != j, "bad coupling ({i},{j})");
        if v == 0.0 {
            return;
        }
        let key = (i.min(j), i.max(j));
        let e = self.quadratic.entry(key).or_insert(0.0);
        *e += v;
        if *e == 0.0 {
            self.quadratic.remove(&key);
        }
    }

    /// Linear coefficients.
    pub fn linear(&self) -> &[f64] {
        &self.linear
    }

    /// Energy of an assignment.
    pub fn energy(&self, x: &[u8]) -> f64 {
        assert_eq!(x.len(), self.n);
        let mut e = 0.0;
        for (i, &l) in self.linear.iter().enumerate() {
            if x[i] != 0 {
                e += l;
            }
        }
        for (&(i, j), &v) in &self.quadratic {
            if x[i] != 0 && x[j] != 0 {
                e += v;
            }
        }
        e
    }

    /// Adjacency list: for each variable, its `(neighbour, coupling)`s.
    pub fn adjacency(&self) -> Vec<Vec<(usize, f64)>> {
        let mut adj = vec![Vec::new(); self.n];
        for (&(i, j), &v) in &self.quadratic {
            adj[i].push((j, v));
            adj[j].push((i, v));
        }
        adj
    }
}

/// Capacity of an annealing device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AnnealerSpec {
    pub name: &'static str,
    pub qubits: usize,
    pub couplers: usize,
}

impl AnnealerSpec {
    /// D-Wave 2000Q (the paper's first study: "2000 qubits").
    pub fn dwave_2000q() -> Self {
        AnnealerSpec {
            name: "D-Wave 2000Q",
            qubits: 2048,
            couplers: 6016,
        }
    }

    /// D-Wave Advantage via JUNIQ/Leap ("5000 qubits and 35000 couplers").
    pub fn dwave_advantage() -> Self {
        AnnealerSpec {
            name: "D-Wave Advantage",
            qubits: 5000,
            couplers: 35000,
        }
    }

    /// Whether a QUBO fits this device directly (no minor embedding).
    pub fn fits(&self, q: &Qubo) -> bool {
        q.num_vars() <= self.qubits && q.num_couplers() <= self.couplers
    }

    /// Largest dense-QUBO variable count this device can host: dense
    /// problems need n(n−1)/2 couplers.
    pub fn max_dense_vars(&self) -> usize {
        let mut n = 1usize;
        while (n + 1) * n / 2 <= self.couplers && n < self.qubits {
            n += 1;
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn energy_matches_manual() {
        let mut q = Qubo::new(3);
        q.add_linear(0, 1.0);
        q.add_linear(2, -2.0);
        q.add_quadratic(0, 1, 3.0);
        q.add_quadratic(2, 1, -1.0); // order-free
        assert_eq!(q.energy(&[0, 0, 0]), 0.0);
        assert_eq!(q.energy(&[1, 0, 0]), 1.0);
        assert_eq!(q.energy(&[1, 1, 0]), 4.0);
        assert_eq!(q.energy(&[0, 1, 1]), -3.0);
        assert_eq!(q.energy(&[1, 1, 1]), 1.0);
    }

    #[test]
    fn couplings_accumulate_and_cancel() {
        let mut q = Qubo::new(2);
        q.add_quadratic(0, 1, 2.0);
        q.add_quadratic(1, 0, 3.0);
        assert_eq!(q.num_couplers(), 1);
        assert_eq!(q.energy(&[1, 1]), 5.0);
        q.add_quadratic(0, 1, -5.0);
        assert_eq!(q.num_couplers(), 0, "zeroed coupling is removed");
    }

    #[test]
    fn adjacency_is_symmetric() {
        let mut q = Qubo::new(4);
        q.add_quadratic(0, 3, 1.5);
        q.add_quadratic(1, 2, -0.5);
        let adj = q.adjacency();
        assert_eq!(adj[0], vec![(3, 1.5)]);
        assert_eq!(adj[3], vec![(0, 1.5)]);
        assert_eq!(adj[2], vec![(1, -0.5)]);
    }

    #[test]
    fn advantage_hosts_larger_dense_problems_than_2000q() {
        let old = AnnealerSpec::dwave_2000q();
        let new = AnnealerSpec::dwave_advantage();
        assert!(new.max_dense_vars() > 2 * old.max_dense_vars());
        // Dense coupler math: n(n-1)/2 ≤ couplers.
        let n = old.max_dense_vars();
        assert!(n * (n - 1) / 2 <= old.couplers);
        assert!((n + 1) * n / 2 > old.couplers);
    }

    #[test]
    fn fits_checks_both_budgets() {
        let spec = AnnealerSpec {
            name: "tiny",
            qubits: 3,
            couplers: 1,
        };
        let mut q = Qubo::new(3);
        q.add_quadratic(0, 1, 1.0);
        assert!(spec.fits(&q));
        q.add_quadratic(1, 2, 1.0);
        assert!(!spec.fits(&q), "coupler budget exceeded");
        let big = Qubo::new(4);
        assert!(!spec.fits(&big), "qubit budget exceeded");
    }

    #[test]
    #[should_panic(expected = "bad coupling")]
    fn self_coupling_rejected() {
        Qubo::new(2).add_quadratic(1, 1, 1.0);
    }
}
