//! Network Attached Memory and the dataset staging planner.
//!
//! The NAM is a prototype module holding datasets in fabric-attached
//! memory so that research-group members (or the ranks of a training
//! job) *share one copy* instead of each staging their own from the
//! archive/parallel FS. [`StagingPlan`] compares the two strategies for
//! experiment E9.

use msa_core::SimTime;
use msa_obs::{key, Recorder};

/// The external data source (e.g. the Copernicus/BigEarthNet archive or
/// a B2DROP share): a single shared wide-area link.
#[derive(Debug, Clone, Copy)]
pub struct ArchiveLink {
    /// Total bandwidth of the site's external link in GB/s.
    pub bw_gbs: f64,
    /// Per-request latency in milliseconds.
    pub latency_ms: f64,
}

impl ArchiveLink {
    /// A typical academic site uplink.
    pub fn site_uplink() -> Self {
        ArchiveLink {
            bw_gbs: 2.0,
            latency_ms: 30.0,
        }
    }

    /// Time for `streams` concurrent downloads of `bytes` each, sharing
    /// the link fairly.
    pub fn download_time(&self, bytes: f64, streams: usize) -> SimTime {
        assert!(streams >= 1);
        let per = self.bw_gbs / streams as f64;
        SimTime::from_secs(self.latency_ms * 1e-3 + bytes / (per * 1e9))
    }
}

/// A NAM device: fabric-attached memory with its own injection bandwidth.
#[derive(Debug, Clone, Copy)]
pub struct Nam {
    pub capacity_gib: f64,
    /// Aggregate serving bandwidth in GB/s.
    pub bw_gbs: f64,
    /// Access latency in microseconds.
    pub latency_us: f64,
}

impl Nam {
    /// The DEEP NAM prototype (2 boards, libNAM over EXTOLL).
    pub fn deep_prototype() -> Self {
        Nam {
            capacity_gib: 2.0 * 768.0,
            bw_gbs: 2.0 * 10.0,
            latency_us: 3.0,
        }
    }

    /// Time for `clients` nodes to each stream `bytes` from the NAM,
    /// sharing its bandwidth fairly (capped by each client's NIC).
    pub fn serve_time(&self, bytes: f64, clients: usize, client_bw_gbs: f64) -> SimTime {
        assert!(clients >= 1);
        let per_client = (self.bw_gbs / clients as f64).min(client_bw_gbs);
        SimTime::from_secs(self.latency_us * 1e-6 + bytes / (per_client * 1e9))
    }
}

/// How a dataset gets to the consumers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StagingStrategy {
    /// Every consumer downloads its own copy from the archive.
    DuplicateDownloads,
    /// One copy is downloaded into the NAM, all consumers stream from
    /// there over the fabric.
    SharedViaNam,
}

/// Why a staging strategy cannot be executed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StagingError {
    /// The dataset does not fit in the NAM: a 10 TiB collection cannot be
    /// shared out of a 1.5 TiB prototype, whatever the bandwidth math
    /// says. Callers fall back to [`StagingStrategy::DuplicateDownloads`]
    /// or shard the dataset.
    CapacityExceeded {
        dataset_gib: f64,
        capacity_gib: f64,
    },
}

impl std::fmt::Display for StagingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StagingError::CapacityExceeded {
                dataset_gib,
                capacity_gib,
            } => write!(
                f,
                "dataset {dataset_gib} GiB exceeds NAM capacity {capacity_gib} GiB"
            ),
        }
    }
}

impl std::error::Error for StagingError {}

/// Cost of staging a dataset of `dataset_gib` to `nodes` consumers.
#[derive(Debug, Clone)]
pub struct StagingPlan {
    pub strategy: StagingStrategy,
    pub time: SimTime,
    /// Total bytes moved over the external link (duplicate traffic is the
    /// waste the NAM eliminates).
    pub wan_traffic_gib: f64,
}

impl StagingPlan {
    /// Evaluates one strategy. [`StagingStrategy::SharedViaNam`] fails
    /// with [`StagingError::CapacityExceeded`] when the dataset cannot
    /// fit in the NAM.
    pub fn evaluate(
        strategy: StagingStrategy,
        dataset_gib: f64,
        nodes: usize,
        archive: &ArchiveLink,
        nam: &Nam,
        client_bw_gbs: f64,
    ) -> Result<StagingPlan, StagingError> {
        assert!(nodes >= 1);
        let bytes = dataset_gib * 1024.0 * 1024.0 * 1024.0;
        match strategy {
            StagingStrategy::DuplicateDownloads => Ok(StagingPlan {
                strategy,
                time: archive.download_time(bytes, nodes),
                wan_traffic_gib: dataset_gib * nodes as f64,
            }),
            StagingStrategy::SharedViaNam => {
                if dataset_gib > nam.capacity_gib {
                    return Err(StagingError::CapacityExceeded {
                        dataset_gib,
                        capacity_gib: nam.capacity_gib,
                    });
                }
                // Download once into the NAM, then serve all consumers
                // over the fabric.
                let load = archive.download_time(bytes, 1);
                let serve = nam.serve_time(bytes, nodes, client_bw_gbs);
                Ok(StagingPlan {
                    strategy,
                    time: load + serve,
                    wan_traffic_gib: dataset_gib,
                })
            }
        }
    }

    /// Dumps the plan into an [`msa_obs::Recorder`]: staging time and
    /// WAN traffic, labelled by strategy.
    pub fn record_into(&self, rec: &dyn Recorder, labels: &[(&str, &str)]) {
        let strategy = match self.strategy {
            StagingStrategy::DuplicateDownloads => "duplicate",
            StagingStrategy::SharedViaNam => "nam",
        };
        let mut sl: Vec<(&str, &str)> = labels.to_vec();
        sl.push(("strategy", strategy));
        rec.time_ps(&key("storage.staging.time", &sl), self.time.as_ps());
        // WAN traffic in whole bytes: exact for any GiB-granular dataset,
        // and integer counters merge deterministically.
        let wan_bytes = (self.wan_traffic_gib * 1024.0 * 1024.0 * 1024.0).round() as u64;
        rec.add(&key("storage.staging.wan_bytes", &sl), wan_bytes);
        rec.add(&key("storage.staging.plans", &sl), 1);
    }

    /// Evaluates both strategies and returns `(duplicate, shared)`;
    /// fails if the shared path cannot hold the dataset.
    pub fn compare(
        dataset_gib: f64,
        nodes: usize,
        archive: &ArchiveLink,
        nam: &Nam,
        client_bw_gbs: f64,
    ) -> Result<(StagingPlan, StagingPlan), StagingError> {
        Ok((
            StagingPlan::evaluate(
                StagingStrategy::DuplicateDownloads,
                dataset_gib,
                nodes,
                archive,
                nam,
                client_bw_gbs,
            )?,
            StagingPlan::evaluate(
                StagingStrategy::SharedViaNam,
                dataset_gib,
                nodes,
                archive,
                nam,
                client_bw_gbs,
            )?,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nam_sharing_wins_at_scale() {
        let archive = ArchiveLink::site_uplink();
        let nam = Nam::deep_prototype();
        let (dup, shared) = StagingPlan::compare(100.0, 64, &archive, &nam, 12.5).unwrap();
        assert!(
            shared.time < dup.time / 4.0,
            "NAM should win clearly at 64 consumers: {} vs {}",
            shared.time,
            dup.time
        );
        assert_eq!(shared.wan_traffic_gib, 100.0);
        assert_eq!(dup.wan_traffic_gib, 6400.0);
    }

    #[test]
    fn staging_plans_record_labelled_metrics() {
        let archive = ArchiveLink::site_uplink();
        let nam = Nam::deep_prototype();
        let (dup, shared) = StagingPlan::compare(100.0, 64, &archive, &nam, 12.5).unwrap();
        let reg = msa_obs::MetricsRegistry::new();
        dup.record_into(&reg, &[("dataset", "bigearth")]);
        shared.record_into(&reg, &[("dataset", "bigearth")]);
        let snap = reg.snapshot();
        assert_eq!(
            snap.get("storage.staging.wan_bytes{dataset=bigearth,strategy=duplicate}")
                .and_then(|v| v.as_counter()),
            Some(6400 * 1024 * 1024 * 1024)
        );
        assert_eq!(
            snap.get("storage.staging.time{dataset=bigearth,strategy=nam}")
                .and_then(|v| v.as_time_ps()),
            Some(shared.time.as_ps())
        );
        assert_eq!(
            snap.get("storage.staging.plans{dataset=bigearth,strategy=nam}")
                .and_then(|v| v.as_counter()),
            Some(1)
        );
    }

    #[test]
    fn duplicate_wins_for_single_node() {
        // One consumer: no sharing benefit, the NAM hop is pure overhead.
        let archive = ArchiveLink::site_uplink();
        let nam = Nam::deep_prototype();
        let (dup, shared) = StagingPlan::compare(50.0, 1, &archive, &nam, 12.5).unwrap();
        assert!(dup.time <= shared.time);
    }

    #[test]
    fn nam_advantage_grows_with_node_count() {
        let archive = ArchiveLink::site_uplink();
        let nam = Nam::deep_prototype();
        let ratio = |nodes: usize| {
            let (dup, shared) = StagingPlan::compare(100.0, nodes, &archive, &nam, 12.5).unwrap();
            dup.time / shared.time
        };
        assert!(ratio(64) > ratio(16));
        assert!(ratio(16) > ratio(4));
    }

    #[test]
    fn oversized_dataset_is_a_typed_error_not_a_fit() {
        // 10 TiB into the 1.5 TiB DEEP prototype: must not "fit".
        let archive = ArchiveLink::site_uplink();
        let nam = Nam::deep_prototype();
        let err = StagingPlan::evaluate(
            StagingStrategy::SharedViaNam,
            10.0 * 1024.0,
            4,
            &archive,
            &nam,
            12.5,
        )
        .unwrap_err();
        assert_eq!(
            err,
            StagingError::CapacityExceeded {
                dataset_gib: 10.0 * 1024.0,
                capacity_gib: nam.capacity_gib,
            }
        );
        // `compare` propagates the same error...
        assert!(StagingPlan::compare(10.0 * 1024.0, 4, &archive, &nam, 12.5).is_err());
        // ...while duplicate downloads don't involve the NAM at all.
        let dup = StagingPlan::evaluate(
            StagingStrategy::DuplicateDownloads,
            10.0 * 1024.0,
            4,
            &archive,
            &nam,
            12.5,
        );
        assert!(dup.is_ok());
        // Exactly at capacity still fits.
        let fit = StagingPlan::evaluate(
            StagingStrategy::SharedViaNam,
            nam.capacity_gib,
            4,
            &archive,
            &nam,
            12.5,
        );
        assert!(fit.is_ok());
    }

    #[test]
    fn serve_time_respects_client_nic() {
        let nam = Nam::deep_prototype();
        // One client capped by its 12.5 GB/s NIC even though the NAM has 20.
        let t = nam.serve_time(12.5e9, 1, 12.5);
        assert!((t.as_secs() - 1.0).abs() < 1e-3);
    }
}
