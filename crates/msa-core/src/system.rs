//! Assembling modules into a full MSA system, plus presets for the two
//! production implementations the paper reports on (DEEP and JUWELS).

use crate::hw::catalog;
use crate::module::{Module, ModuleId, ModuleKind};
use crate::SimTime;

/// α–β parameters of one interconnect, shared by the collectives' cost
/// models, the communicator's message pricing and the federation links.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkParams {
    /// One-way small-message latency (α) in microseconds.
    pub latency_us: f64,
    /// Sustained bandwidth (β) in GB/s.
    pub bw_gbs: f64,
}

impl LinkParams {
    /// EDR InfiniBand (JUWELS cluster): 100 Gb/s, ~1 µs.
    pub fn infiniband_edr() -> Self {
        LinkParams {
            latency_us: 1.0,
            bw_gbs: 12.5,
        }
    }

    /// HDR200 InfiniBand (JUWELS booster, 4 HCAs/node): 4 × 200 Gb/s.
    pub fn infiniband_hdr200x4() -> Self {
        LinkParams {
            latency_us: 0.9,
            bw_gbs: 100.0,
        }
    }

    /// EXTOLL Tourmalet (DEEP federation).
    pub fn extoll() -> Self {
        LinkParams {
            latency_us: 1.1,
            bw_gbs: 12.5,
        }
    }

    /// NVLink 3 between GPUs inside one node.
    pub fn nvlink3() -> Self {
        LinkParams {
            latency_us: 0.3,
            bw_gbs: 300.0,
        }
    }

    /// Time for one point-to-point message of `bytes`.
    pub fn p2p(&self, bytes: f64) -> SimTime {
        assert!(bytes >= 0.0);
        SimTime::from_secs(self.latency_us * 1e-6 + bytes / (self.bw_gbs * 1e9))
    }
}

/// A link of the high-performance network federation joining two modules.
#[derive(Debug, Clone)]
pub struct FederationLink {
    pub a: ModuleId,
    pub b: ModuleId,
    /// Aggregate gateway bandwidth and one-way latency.
    pub link: LinkParams,
}

/// A complete Modular Supercomputing Architecture system.
#[derive(Debug, Clone)]
pub struct MsaSystem {
    pub name: String,
    pub modules: Vec<Module>,
    pub federation: Vec<FederationLink>,
}

impl MsaSystem {
    /// Module by id. Panics if out of range (ids are dense indices).
    pub fn module(&self, id: ModuleId) -> &Module {
        &self.modules[id.0]
    }

    /// First module of a given kind, if present.
    pub fn module_of_kind(&self, kind: ModuleKind) -> Option<&Module> {
        self.modules.iter().find(|m| m.kind == kind)
    }

    /// All modules of a given kind.
    pub fn modules_of_kind(&self, kind: ModuleKind) -> impl Iterator<Item = &Module> {
        self.modules.iter().filter(move |m| m.kind == kind)
    }

    /// Federation link between two modules, in either direction.
    pub fn link(&self, a: ModuleId, b: ModuleId) -> Option<&FederationLink> {
        self.federation
            .iter()
            .find(|l| (l.a == a && l.b == b) || (l.a == b && l.b == a))
    }

    /// Total CPU cores over all modules.
    pub fn total_cpu_cores(&self) -> u64 {
        self.modules.iter().map(|m| m.total_cpu_cores()).sum()
    }

    /// Total GPUs over all modules.
    pub fn total_gpus(&self) -> u64 {
        self.modules.iter().map(|m| m.total_gpus()).sum()
    }

    /// Peak power of the whole system in kW.
    pub fn peak_power_kw(&self) -> f64 {
        self.modules.iter().map(|m| m.peak_power_kw()).sum()
    }
}

/// Incremental builder for [`MsaSystem`].
///
/// ```
/// use msa_core::{SystemBuilder, ModuleKind};
/// use msa_core::hw::catalog;
///
/// let sys = SystemBuilder::new("toy")
///     .module(ModuleKind::Cluster, "CM", catalog::deep_cm_node(), 4)
///     .module(ModuleKind::Booster, "ESB", catalog::deep_esb_node(), 8)
///     .all_to_all_federation(12.5, 2.0)
///     .build();
/// assert_eq!(sys.modules.len(), 2);
/// assert!(sys.link(sys.modules[0].id, sys.modules[1].id).is_some());
/// ```
pub struct SystemBuilder {
    name: String,
    modules: Vec<Module>,
    federation: Vec<FederationLink>,
}

impl SystemBuilder {
    pub fn new(name: impl Into<String>) -> Self {
        SystemBuilder {
            name: name.into(),
            modules: Vec::new(),
            federation: Vec::new(),
        }
    }

    /// Adds a module of `count` identical `node`s.
    pub fn module(
        mut self,
        kind: ModuleKind,
        name: impl Into<String>,
        node: crate::hw::NodeSpec,
        count: usize,
    ) -> Self {
        let id = ModuleId(self.modules.len());
        self.modules.push(Module {
            id,
            kind,
            name: name.into(),
            node,
            node_count: count,
            has_gce: false,
            qubits: None,
            couplers: None,
        });
        self
    }

    /// Marks the most recently added module as carrying a Global
    /// Collective Engine in its fabric.
    pub fn with_gce(mut self) -> Self {
        self.modules
            .last_mut()
            // lint: allow(unwrap) -- builder misuse panic is the API contract
            .expect("with_gce called before any module")
            .has_gce = true;
        self
    }

    /// Attaches annealer dimensions to the most recently added module.
    pub fn with_annealer(mut self, qubits: usize, couplers: usize) -> Self {
        let m = self
            .modules
            .last_mut()
            // lint: allow(unwrap) -- builder misuse panic is the API contract
            .expect("with_annealer called before any module");
        m.qubits = Some(qubits);
        m.couplers = Some(couplers);
        self
    }

    /// Connects every module pair with identical links.
    pub fn all_to_all_federation(mut self, bw_gbs: f64, latency_us: f64) -> Self {
        for i in 0..self.modules.len() {
            for j in (i + 1)..self.modules.len() {
                self.federation.push(FederationLink {
                    a: ModuleId(i),
                    b: ModuleId(j),
                    link: LinkParams { latency_us, bw_gbs },
                });
            }
        }
        self
    }

    pub fn build(self) -> MsaSystem {
        MsaSystem {
            name: self.name,
            modules: self.modules,
            federation: self.federation,
        }
    }
}

/// Ready-made systems matching the paper's §II-B.
pub mod presets {
    use super::*;

    /// The DEEP(-EST) modular supercomputer prototype at JSC:
    /// CM + ESB (with GCE) + DAM (Table I) + SSSM + NAM + QM.
    pub fn deep() -> MsaSystem {
        SystemBuilder::new("DEEP")
            .module(ModuleKind::Cluster, "DEEP CM", catalog::deep_cm_node(), 50)
            .module(ModuleKind::Booster, "DEEP ESB", catalog::deep_esb_node(), 75)
            .with_gce()
            .module(
                ModuleKind::DataAnalytics,
                "DEEP DAM",
                catalog::deep_dam_node(),
                16,
            )
            .module(
                ModuleKind::Storage,
                "DEEP SSSM",
                crate::hw::NodeSpec {
                    name: "SSSM server",
                    cpu: catalog::xeon_skylake_8168(),
                    sockets: 2,
                    gpus: vec![],
                    fpgas: vec![],
                    memory: vec![
                        catalog::ddr4(192.0),
                        catalog::parallel_fs(2_000_000.0, 50.0),
                    ],
                    storage: vec![crate::hw::StorageSpec {
                        name: "Lustre OSS",
                        capacity_tb: 500.0,
                        read_bw_gbs: 12.0,
                        write_bw_gbs: 8.0,
                    }],
                    net_bw_gbs: 12.5,
                    net_latency_us: 1.5,
                },
                4,
            )
            .module(
                ModuleKind::Nam,
                "DEEP NAM",
                crate::hw::NodeSpec {
                    name: "NAM board",
                    cpu: catalog::esb_manycore(),
                    sockets: 1,
                    gpus: vec![],
                    fpgas: vec![catalog::stratix10()],
                    memory: vec![catalog::nam(768.0)],
                    storage: vec![],
                    net_bw_gbs: 12.5,
                    net_latency_us: 1.2,
                },
                2,
            )
            .module(
                ModuleKind::Quantum,
                "JUNIQ D-Wave",
                crate::hw::NodeSpec {
                    name: "QA frontend",
                    cpu: catalog::xeon_cascade_lake(),
                    sockets: 1,
                    gpus: vec![],
                    fpgas: vec![],
                    memory: vec![catalog::ddr4(64.0)],
                    storage: vec![],
                    net_bw_gbs: 1.25,
                    net_latency_us: 50.0,
                },
                1,
            )
            .with_annealer(5000, 35000)
            .all_to_all_federation(12.5, 2.5)
            .build()
    }

    /// JUWELS: 2,583 cluster nodes (122,768 CPU cores incl. 56 GPU nodes
    /// with 4 V100 each = 224 GPUs) + 936 booster nodes (45,024 cores,
    /// 3,744 A100 GPUs) + SSSM.
    pub fn juwels() -> MsaSystem {
        SystemBuilder::new("JUWELS")
            .module(
                ModuleKind::Cluster,
                "JUWELS Cluster",
                catalog::juwels_cluster_node(),
                2527,
            )
            .module(
                ModuleKind::Cluster,
                "JUWELS Cluster (GPU)",
                catalog::juwels_cluster_gpu_node(),
                56,
            )
            .module(
                ModuleKind::Booster,
                "JUWELS Booster",
                catalog::juwels_booster_node(),
                936,
            )
            .module(
                ModuleKind::Storage,
                "JUST (GPFS)",
                crate::hw::NodeSpec {
                    name: "GPFS NSD server",
                    cpu: catalog::xeon_skylake_8168(),
                    sockets: 2,
                    gpus: vec![],
                    fpgas: vec![],
                    memory: vec![
                        catalog::ddr4(384.0),
                        catalog::parallel_fs(75_000_000.0, 400.0),
                    ],
                    storage: vec![crate::hw::StorageSpec {
                        name: "GPFS building block",
                        capacity_tb: 18_750.0,
                        read_bw_gbs: 100.0,
                        write_bw_gbs: 80.0,
                    }],
                    net_bw_gbs: 25.0,
                    net_latency_us: 1.5,
                },
                4,
            )
            .all_to_all_federation(200.0, 2.0)
            .build()
    }
}

#[cfg(test)]
mod tests {
    use super::presets::*;
    use super::*;

    #[test]
    fn juwels_core_and_gpu_counts_match_paper() {
        let j = juwels();
        // Paper §II-B: 2,583 cluster nodes totalling 122,768 CPU cores and
        // 224 GPUs; booster: 45,024 cores and 3,744 GPUs.
        let cluster_nodes: usize = j
            .modules_of_kind(ModuleKind::Cluster)
            .map(|m| m.node_count)
            .sum();
        assert_eq!(cluster_nodes, 2583);
        let cluster_cores: u64 = j
            .modules_of_kind(ModuleKind::Cluster)
            .map(|m| m.total_cpu_cores())
            .sum();
        assert_eq!(cluster_cores, 123_984); // 2583 × 48 (paper's 122,768 counts a few drained nodes out)
        let cluster_gpus: u64 = j
            .modules_of_kind(ModuleKind::Cluster)
            .map(|m| m.total_gpus())
            .sum();
        assert_eq!(cluster_gpus, 224);
        let booster = j.module_of_kind(ModuleKind::Booster).unwrap();
        assert_eq!(booster.total_gpus(), 3744);
        assert_eq!(booster.total_cpu_cores(), 936 * 48);
    }

    #[test]
    fn deep_has_all_six_module_kinds() {
        let d = deep();
        for kind in ModuleKind::all() {
            assert!(
                d.module_of_kind(kind).is_some(),
                "DEEP should have a {kind} module"
            );
        }
        assert!(d.module_of_kind(ModuleKind::Booster).unwrap().has_gce);
        let qm = d.module_of_kind(ModuleKind::Quantum).unwrap();
        assert_eq!(qm.qubits, Some(5000));
        assert_eq!(qm.couplers, Some(35000));
    }

    #[test]
    fn federation_is_all_to_all_in_presets() {
        let d = deep();
        let n = d.modules.len();
        assert_eq!(d.federation.len(), n * (n - 1) / 2);
        for i in 0..n {
            for j in (i + 1)..n {
                assert!(d.link(ModuleId(i), ModuleId(j)).is_some());
                // symmetric lookup
                assert!(d.link(ModuleId(j), ModuleId(i)).is_some());
            }
        }
    }

    #[test]
    fn builder_dense_ids() {
        let s = SystemBuilder::new("x")
            .module(ModuleKind::Cluster, "a", catalog::deep_cm_node(), 1)
            .module(ModuleKind::Booster, "b", catalog::deep_esb_node(), 1)
            .build();
        assert_eq!(s.modules[0].id, ModuleId(0));
        assert_eq!(s.modules[1].id, ModuleId(1));
        assert_eq!(s.module(ModuleId(1)).name, "b");
    }

    #[test]
    fn system_totals_sum_modules() {
        let d = deep();
        let sum: u64 = d.modules.iter().map(|m| m.total_gpus()).sum();
        assert_eq!(d.total_gpus(), sum);
        assert!(d.peak_power_kw() > 0.0);
    }
}
