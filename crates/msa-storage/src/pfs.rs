//! Striped parallel file system model (Lustre/GPFS on the SSSM).

/// A parallel file system: `osts` object storage targets each delivering
/// `ost_bw_gbs`, files striped with `stripe_count` ≤ osts, clients
/// capped at `client_bw_gbs` each.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ParallelFs {
    pub osts: usize,
    pub ost_bw_gbs: f64,
    pub stripe_count: usize,
    pub client_bw_gbs: f64,
}

impl ParallelFs {
    /// The DEEP SSSM Lustre configuration (small: 4 servers).
    pub fn deep_sssm() -> Self {
        ParallelFs {
            osts: 8,
            ost_bw_gbs: 6.0,
            stripe_count: 4,
            client_bw_gbs: 12.5,
        }
    }

    /// Aggregate backend bandwidth in GB/s.
    pub fn aggregate_bw_gbs(&self) -> f64 {
        self.osts as f64 * self.ost_bw_gbs
    }

    /// Bandwidth one client sees reading one file (striping limits the
    /// number of OSTs serving a single file).
    pub fn single_client_bw_gbs(&self) -> f64 {
        (self.stripe_count.min(self.osts) as f64 * self.ost_bw_gbs).min(self.client_bw_gbs)
    }

    /// Bandwidth one of `clients` concurrent readers sees: its fair share
    /// of the backend, capped by its own striped read path.
    pub fn per_client_bw_gbs(&self, clients: usize) -> f64 {
        assert!(clients >= 1, "a concurrent read needs at least one client");
        self.single_client_bw_gbs().min(self.aggregate_bw_gbs() / clients as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn striping_multiplies_single_file_bandwidth_up_to_client_limit() {
        let mut fs = ParallelFs::deep_sssm();
        fs.client_bw_gbs = 100.0; // lift the NIC cap for this check
        fs.stripe_count = 1;
        let one = fs.single_client_bw_gbs();
        fs.stripe_count = 4;
        assert_eq!(fs.single_client_bw_gbs(), 4.0 * one);
        fs.stripe_count = 100; // > osts: capped at osts
        assert_eq!(fs.single_client_bw_gbs(), fs.aggregate_bw_gbs());
    }

    #[test]
    fn client_nic_caps_single_stream() {
        // Four 6 GB/s stripes would deliver 24 GB/s; the NIC caps it.
        let fs = ParallelFs::deep_sssm();
        assert_eq!(fs.single_client_bw_gbs(), fs.client_bw_gbs);
    }

    #[test]
    fn many_clients_saturate_backend() {
        let fs = ParallelFs::deep_sssm();
        let (one, hundred) = (fs.per_client_bw_gbs(1), fs.per_client_bw_gbs(100));
        assert!(hundred < one, "contention must slow clients down");
        // At 100 clients each gets aggregate/100.
        assert_eq!(hundred, fs.aggregate_bw_gbs() / 100.0);
    }

    #[test]
    fn few_clients_are_link_limited_not_contended() {
        // 3 × 12.5 GB/s = 37.5 < 48 aggregate: no contention yet.
        let fs = ParallelFs::deep_sssm();
        assert_eq!(fs.per_client_bw_gbs(3), fs.per_client_bw_gbs(1));
    }
}
