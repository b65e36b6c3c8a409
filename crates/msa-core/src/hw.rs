//! Hardware catalog.
//!
//! Peak numbers for the devices the DEEP and JUWELS systems are built
//! from, as published by the vendors and in the MSA literature. The
//! analytic performance models in `distrib::perf` and `msa-net` are
//! parameterised by these specs; only *ratios* between them (A100 vs
//! V100, NVLink vs PCIe, …) are load-bearing for the reproduction.


/// A multi- or many-core CPU.
#[derive(Debug, Clone, PartialEq)]
pub struct CpuSpec {
    /// Marketing name, e.g. "Intel Xeon Platinum 8168".
    pub name: &'static str,
    /// Physical cores per socket.
    pub cores: u32,
    /// Base clock in GHz.
    pub clock_ghz: f64,
    /// Peak double-precision GFLOP/s per socket.
    pub peak_gflops: f64,
    /// Sustained memory bandwidth in GB/s per socket.
    pub mem_bw_gbs: f64,
    /// Thermal design power in watts.
    pub tdp_w: f64,
}

/// A GPU accelerator.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuSpec {
    /// Marketing name, e.g. "NVIDIA A100".
    pub name: &'static str,
    /// Peak single-precision (FP32) TFLOP/s.
    pub fp32_tflops: f64,
    /// Peak tensor-core / mixed-precision TFLOP/s (what DL training uses).
    pub tensor_tflops: f64,
    /// Device memory in GiB.
    pub mem_gib: f64,
    /// Device memory bandwidth in GB/s.
    pub mem_bw_gbs: f64,
    /// Inter-GPU link bandwidth (NVLink generation) in GB/s per direction.
    pub nvlink_gbs: f64,
    /// Board power in watts.
    pub tdp_w: f64,
}

/// An FPGA accelerator (e.g. the Stratix-10 in the DEEP DAM, or the
/// Global Collective Engine in the ESB fabric).
#[derive(Debug, Clone, PartialEq)]
pub struct FpgaSpec {
    /// Marketing name.
    pub name: &'static str,
    /// On-board memory in GiB.
    pub mem_gib: f64,
    /// PCIe generation bandwidth to the host in GB/s.
    pub host_bw_gbs: f64,
    /// Typical power in watts.
    pub tdp_w: f64,
}

/// Kind of a memory/storage tier. Ordering reflects the hierarchy:
/// smaller discriminant = faster/closer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MemoryKind {
    /// On-package high-bandwidth memory (GPU HBM2).
    Hbm,
    /// Node-local DDR4 DRAM.
    Ddr,
    /// Node-local non-volatile memory (NVMe SSD used as memory extension).
    Nvm,
    /// Network Attached Memory (DEEP NAM prototype).
    Nam,
    /// Parallel file system (Lustre / GPFS on the SSSM).
    ParallelFs,
}

/// One tier of the memory hierarchy.
#[derive(Debug, Clone, PartialEq)]
pub struct MemorySpec {
    pub kind: MemoryKind,
    /// Capacity in GiB (per node for node-local tiers, aggregate for
    /// shared tiers).
    pub capacity_gib: f64,
    /// Read bandwidth in GB/s.
    pub read_bw_gbs: f64,
    /// Write bandwidth in GB/s.
    pub write_bw_gbs: f64,
    /// Access latency in microseconds.
    pub latency_us: f64,
}

/// A block storage device.
#[derive(Debug, Clone, PartialEq)]
pub struct StorageSpec {
    pub name: &'static str,
    pub capacity_tb: f64,
    pub read_bw_gbs: f64,
    pub write_bw_gbs: f64,
}

/// Full specification of one node type.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeSpec {
    pub name: &'static str,
    pub cpu: CpuSpec,
    /// Sockets per node.
    pub sockets: u32,
    pub gpus: Vec<GpuSpec>,
    pub fpgas: Vec<FpgaSpec>,
    pub memory: Vec<MemorySpec>,
    pub storage: Vec<StorageSpec>,
    /// Injection bandwidth into the module interconnect, GB/s.
    pub net_bw_gbs: f64,
    /// Network latency to a neighbour in the module, microseconds.
    pub net_latency_us: f64,
}

impl NodeSpec {
    /// Total CPU cores in the node.
    pub fn cpu_cores(&self) -> u32 {
        self.cpu.cores * self.sockets
    }

    /// Number of GPUs in the node.
    pub fn gpu_count(&self) -> u32 {
        self.gpus.len() as u32
    }

    /// Peak node power draw in watts (all devices at TDP).
    pub fn peak_power_w(&self) -> f64 {
        self.cpu.tdp_w * self.sockets as f64
            + self.gpus.iter().map(|g| g.tdp_w).sum::<f64>()
            + self.fpgas.iter().map(|f| f.tdp_w).sum::<f64>()
            // Base board/DRAM/NIC overhead.
            + 150.0
    }

    /// Single-precision CPU throughput in TFLOP/s: ≈ 2× the DP peak.
    pub fn cpu_tflops(&self) -> f64 {
        self.cpu.peak_gflops * self.sockets as f64 * 2.0 / 1000.0
    }

    /// Peak DL (tensor-core) throughput of the node in TFLOP/s; nodes
    /// without GPUs fall back to [`NodeSpec::cpu_tflops`].
    pub fn dl_tflops(&self) -> f64 {
        let gpu: f64 = self.gpus.iter().map(|g| g.tensor_tflops).sum();
        if gpu > 0.0 {
            gpu
        } else {
            self.cpu_tflops()
        }
    }

    /// DDR capacity per node in GiB.
    pub fn ddr_gib(&self) -> f64 {
        self.memory
            .iter()
            .filter(|m| m.kind == MemoryKind::Ddr)
            .map(|m| m.capacity_gib)
            .sum()
    }
}

/// Catalog of the concrete devices used by the paper's systems.
pub mod catalog {
    use super::*;

    /// Intel Xeon Platinum 8168 (JUWELS cluster module, Skylake, 24c).
    pub fn xeon_skylake_8168() -> CpuSpec {
        CpuSpec {
            name: "Intel Xeon Platinum 8168",
            cores: 24,
            clock_ghz: 2.7,
            peak_gflops: 1600.0,
            mem_bw_gbs: 128.0,
            tdp_w: 205.0,
        }
    }

    /// Intel Xeon Cascade Lake (DEEP DAM nodes).
    pub fn xeon_cascade_lake() -> CpuSpec {
        CpuSpec {
            name: "Intel Xeon Cascade Lake 8260M",
            cores: 24,
            clock_ghz: 2.4,
            peak_gflops: 1800.0,
            mem_bw_gbs: 131.0,
            tdp_w: 165.0,
        }
    }

    /// AMD EPYC Rome 7402 (JUWELS booster host CPU).
    pub fn epyc_rome_7402() -> CpuSpec {
        CpuSpec {
            name: "AMD EPYC 7402",
            cores: 24,
            clock_ghz: 2.8,
            peak_gflops: 1075.0,
            mem_bw_gbs: 190.0,
            tdp_w: 180.0,
        }
    }

    /// Many-core CPU standing in for the DEEP-EST ESB node host.
    pub fn esb_manycore() -> CpuSpec {
        CpuSpec {
            name: "Intel Xeon Silver 4215 (ESB host)",
            cores: 8,
            clock_ghz: 2.5,
            peak_gflops: 640.0,
            mem_bw_gbs: 100.0,
            tdp_w: 85.0,
        }
    }

    /// NVIDIA V100 SXM2 (DEEP DAM / JUWELS cluster GPU, Volta).
    pub fn v100() -> GpuSpec {
        GpuSpec {
            name: "NVIDIA V100",
            fp32_tflops: 15.7,
            tensor_tflops: 125.0,
            mem_gib: 32.0,
            mem_bw_gbs: 900.0,
            nvlink_gbs: 150.0,
            tdp_w: 300.0,
        }
    }

    /// NVIDIA A100 SXM4 (JUWELS booster GPU, Ampere).
    pub fn a100() -> GpuSpec {
        GpuSpec {
            name: "NVIDIA A100",
            fp32_tflops: 19.5,
            tensor_tflops: 312.0,
            mem_gib: 40.0,
            mem_bw_gbs: 1555.0,
            nvlink_gbs: 300.0,
            tdp_w: 400.0,
        }
    }

    /// Intel Stratix-10 FPGA (DEEP DAM).
    pub fn stratix10() -> FpgaSpec {
        FpgaSpec {
            name: "Intel Stratix 10",
            mem_gib: 32.0,
            host_bw_gbs: 15.75, // PCIe3 x16
            tdp_w: 125.0,
        }
    }

    /// DDR4 tier of a given capacity.
    pub fn ddr4(capacity_gib: f64) -> MemorySpec {
        MemorySpec {
            kind: MemoryKind::Ddr,
            capacity_gib,
            read_bw_gbs: 120.0,
            write_bw_gbs: 100.0,
            latency_us: 0.1,
        }
    }

    /// HBM2 tier of a given capacity (GPU memory).
    pub fn hbm2(capacity_gib: f64) -> MemorySpec {
        MemorySpec {
            kind: MemoryKind::Hbm,
            capacity_gib,
            read_bw_gbs: 900.0,
            write_bw_gbs: 900.0,
            latency_us: 0.05,
        }
    }

    /// NVMe tier (the DEEP DAM's 2×1.5 TB NVMe per node, striped).
    pub fn nvme(capacity_gib: f64) -> MemorySpec {
        MemorySpec {
            kind: MemoryKind::Nvm,
            capacity_gib,
            read_bw_gbs: 12.0,
            write_bw_gbs: 6.0,
            latency_us: 15.0,
        }
    }

    /// NAM tier: network-attached memory reachable over the federation.
    pub fn nam(capacity_gib: f64) -> MemorySpec {
        MemorySpec {
            kind: MemoryKind::Nam,
            capacity_gib,
            read_bw_gbs: 10.0,
            write_bw_gbs: 8.0,
            latency_us: 3.0,
        }
    }

    /// Parallel-FS tier (Lustre/GPFS on the SSSM) with aggregate bandwidth.
    pub fn parallel_fs(capacity_gib: f64, agg_bw_gbs: f64) -> MemorySpec {
        MemorySpec {
            kind: MemoryKind::ParallelFs,
            capacity_gib,
            read_bw_gbs: agg_bw_gbs,
            write_bw_gbs: agg_bw_gbs * 0.7,
            latency_us: 500.0,
        }
    }

    /// DEEP DAM node: 2× Cascade Lake, 1 V100, 1 Stratix-10, 384 GiB DDR4,
    /// 32 GiB FPGA DDR4, 32 GiB HBM2, 2×1.5 TB NVMe — Table I of the paper.
    pub fn deep_dam_node() -> NodeSpec {
        NodeSpec {
            name: "DEEP DAM node",
            cpu: xeon_cascade_lake(),
            sockets: 2,
            gpus: vec![v100()],
            fpgas: vec![stratix10()],
            memory: vec![ddr4(384.0), hbm2(32.0), nvme(3072.0)],
            storage: vec![StorageSpec {
                name: "2x 1.5 TB NVMe SSD",
                capacity_tb: 3.0,
                read_bw_gbs: 6.0,
                write_bw_gbs: 3.0,
            }],
            net_bw_gbs: 12.5, // EXTOLL Tourmalet ~100 Gbit/s
            net_latency_us: 1.1,
        }
    }

    /// DEEP cluster-module node.
    pub fn deep_cm_node() -> NodeSpec {
        NodeSpec {
            name: "DEEP CM node",
            cpu: xeon_cascade_lake(),
            sockets: 2,
            gpus: vec![],
            fpgas: vec![],
            memory: vec![ddr4(192.0)],
            storage: vec![],
            net_bw_gbs: 12.5,
            net_latency_us: 1.1,
        }
    }

    /// DEEP ESB node: many-core host + 1 V100, GCE in fabric.
    pub fn deep_esb_node() -> NodeSpec {
        NodeSpec {
            name: "DEEP ESB node",
            cpu: esb_manycore(),
            sockets: 1,
            gpus: vec![v100()],
            fpgas: vec![],
            memory: vec![ddr4(48.0), hbm2(32.0)],
            storage: vec![],
            net_bw_gbs: 12.5,
            net_latency_us: 1.0,
        }
    }

    /// JUWELS cluster node: 2× Skylake 8168, 96 GiB.
    pub fn juwels_cluster_node() -> NodeSpec {
        NodeSpec {
            name: "JUWELS cluster node",
            cpu: xeon_skylake_8168(),
            sockets: 2,
            gpus: vec![],
            fpgas: vec![],
            memory: vec![ddr4(96.0)],
            storage: vec![],
            net_bw_gbs: 12.5, // EDR Infiniband 100 Gb/s
            net_latency_us: 1.0,
        }
    }

    /// JUWELS cluster *accelerated* node (the 224 cluster GPUs live here:
    /// 56 nodes × 4 V100).
    pub fn juwels_cluster_gpu_node() -> NodeSpec {
        NodeSpec {
            name: "JUWELS cluster GPU node",
            cpu: xeon_skylake_8168(),
            sockets: 2,
            gpus: vec![v100(); 4],
            fpgas: vec![],
            memory: vec![ddr4(192.0), hbm2(4.0 * 32.0)],
            storage: vec![],
            net_bw_gbs: 12.5,
            net_latency_us: 1.0,
        }
    }

    /// JUWELS booster node: 2× EPYC Rome + 4× A100 + 4× HDR200 HCAs.
    pub fn juwels_booster_node() -> NodeSpec {
        NodeSpec {
            name: "JUWELS booster node",
            cpu: epyc_rome_7402(),
            sockets: 2,
            gpus: vec![a100(); 4],
            fpgas: vec![],
            memory: vec![ddr4(512.0), hbm2(4.0 * 40.0)],
            storage: vec![],
            net_bw_gbs: 4.0 * 25.0, // 4× HDR200 Infiniband
            net_latency_us: 0.9,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::catalog::*;
    use super::*;

    #[test]
    fn dam_node_matches_table_i() {
        let n = deep_dam_node();
        assert_eq!(n.sockets, 2);
        assert_eq!(n.gpu_count(), 1);
        assert_eq!(n.fpgas.len(), 1);
        assert_eq!(n.ddr_gib(), 384.0);
        assert_eq!(n.storage[0].capacity_tb, 3.0);
    }

    #[test]
    fn a100_is_faster_generation_than_v100() {
        let (a, v) = (a100(), v100());
        assert!(a.tensor_tflops > 2.0 * v.tensor_tflops);
        assert!(a.mem_bw_gbs > v.mem_bw_gbs);
        assert!(a.nvlink_gbs > v.nvlink_gbs);
    }

    #[test]
    fn booster_node_outclasses_cluster_node_for_dl() {
        let b = juwels_booster_node();
        let c = juwels_cluster_node();
        assert!(b.dl_tflops() > 100.0 * c.dl_tflops());
    }

    #[test]
    fn cpu_only_node_has_cpu_fallback_tflops() {
        let c = juwels_cluster_node();
        assert!(c.dl_tflops() > 0.0);
        assert_eq!(c.cpu_cores(), 48);
    }

    #[test]
    fn peak_power_accumulates_all_devices() {
        let n = deep_dam_node();
        // 2×165 (CPU) + 300 (V100) + 125 (FPGA) + 150 overhead
        assert_eq!(n.peak_power_w(), 2.0 * 165.0 + 300.0 + 125.0 + 150.0);
    }

    #[test]
    fn memory_kind_order_reflects_hierarchy() {
        assert!(MemoryKind::Hbm < MemoryKind::Ddr);
        assert!(MemoryKind::Ddr < MemoryKind::Nvm);
        assert!(MemoryKind::Nvm < MemoryKind::Nam);
        assert!(MemoryKind::Nam < MemoryKind::ParallelFs);
    }
}
