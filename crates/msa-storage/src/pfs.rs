//! Striped parallel file system model (Lustre/GPFS on the SSSM).

use msa_core::SimTime;

/// A parallel file system: `osts` object storage targets each delivering
/// `ost_bw_gbs`, files striped with `stripe_count` ≤ osts, clients
/// capped at `client_bw_gbs` each.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ParallelFs {
    pub osts: usize,
    pub ost_bw_gbs: f64,
    pub stripe_count: usize,
    pub client_bw_gbs: f64,
    /// Metadata-server latency per open, microseconds.
    pub mds_latency_us: f64,
}

impl ParallelFs {
    /// The DEEP SSSM Lustre configuration (small: 4 servers).
    pub fn deep_sssm() -> Self {
        ParallelFs {
            osts: 8,
            ost_bw_gbs: 6.0,
            stripe_count: 4,
            client_bw_gbs: 12.5,
            mds_latency_us: 300.0,
        }
    }

    /// JUST at JUWELS (large GPFS: hundreds of GB/s aggregate).
    pub fn juwels_just() -> Self {
        ParallelFs {
            osts: 40,
            ost_bw_gbs: 10.0,
            stripe_count: 16,
            client_bw_gbs: 12.5,
            mds_latency_us: 200.0,
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

    /// Time for one client to read `bytes`.
    pub fn read_time(&self, bytes: f64) -> SimTime {
        assert!(bytes >= 0.0);
        SimTime::from_secs(self.mds_latency_us * 1e-6 + bytes / (self.single_client_bw_gbs() * 1e9))
    }

    /// Bandwidth one of `clients` concurrent readers sees: its fair share
    /// of the backend, capped by its own striped read path.
    pub fn per_client_bw_gbs(&self, clients: usize) -> f64 {
        assert!(clients >= 1, "a concurrent read needs at least one client");
        self.single_client_bw_gbs().min(self.aggregate_bw_gbs() / clients as f64)
    }

    /// Time for `clients` to each read `bytes` concurrently.
    pub fn concurrent_read_time(&self, bytes: f64, clients: usize) -> SimTime {
        let per_client = self.per_client_bw_gbs(clients);
        SimTime::from_secs(self.mds_latency_us * 1e-6 + bytes / (per_client * 1e9))
    }

    /// Effective aggregate delivered bandwidth for a concurrent read.
    pub fn delivered_bw_gbs(&self, clients: usize) -> f64 {
        (self.single_client_bw_gbs() * clients as f64).min(self.aggregate_bw_gbs())
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
        let fs = ParallelFs::juwels_just();
        assert_eq!(fs.single_client_bw_gbs(), fs.client_bw_gbs);
    }

    #[test]
    fn many_clients_saturate_backend() {
        let fs = ParallelFs::deep_sssm();
        // 1 GiB per client.
        let b = 1e9;
        let t1 = fs.concurrent_read_time(b, 1);
        let t100 = fs.concurrent_read_time(b, 100);
        assert!(t100 > t1, "contention must slow clients down");
        // At 100 clients each gets aggregate/100.
        let expected = b / (fs.aggregate_bw_gbs() / 100.0 * 1e9);
        assert!((t100.as_secs() - expected).abs() / expected < 0.01);
        assert_eq!(fs.delivered_bw_gbs(100), fs.aggregate_bw_gbs());
    }

    #[test]
    fn few_clients_are_link_limited_not_contended() {
        let fs = ParallelFs::juwels_just();
        let t1 = fs.concurrent_read_time(1e9, 1);
        let t4 = fs.concurrent_read_time(1e9, 4);
        // 4 × 12.5 GB/s = 50 ≪ 400 aggregate: no contention yet.
        assert!((t4.as_secs() - t1.as_secs()).abs() < 1e-9);
    }

    #[test]
    fn read_time_includes_metadata_latency() {
        let fs = ParallelFs::deep_sssm();
        let t = fs.read_time(0.0);
        assert!((t.as_micros() - fs.mds_latency_us).abs() < 1e-9);
    }
}
