//! Workload classes and module-affinity model.
//!
//! Paper Fig. 2 shows that no single node technology satisfies all user
//! communities: low/medium-scalable, data-heavy codes want the Cluster
//! Module; highly scalable regular codes want the Booster; HPDA/DL wants
//! the Data Analytics Module. This module captures that placement logic
//! quantitatively: a [`WorkloadProfile`] describes an application part and
//! [`WorkloadProfile::time_on`] predicts its time-to-solution on a given
//! module, from which [`WorkloadProfile::energy_on`] derives
//! energy-to-solution.

use crate::energy::PowerModel;
use crate::module::{Module, ModuleKind};
use crate::simtime::SimTime;

/// Broad classes of application workloads seen at an HPC centre.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkloadClass {
    /// Traditional modelling & simulation, moderate scalability, heavy
    /// data management (earth system, biophysics).
    Simulation,
    /// Highly scalable, regular communication patterns (lattice QCD,
    /// stencils).
    HighlyScalable,
    /// High-performance data analytics: Spark-style pipelines, large
    /// memory footprints.
    DataAnalytics,
    /// Deep-learning training: dense linear algebra, wants tensor cores.
    DlTraining,
    /// Deep-learning inference / testing: less compute-intense, scale-out.
    DlInference,
    /// Combinatorial optimisation suited to a quantum annealer.
    QuantumOptimization,
}

impl WorkloadClass {
    /// All classes, for report iteration.
    pub fn all() -> [WorkloadClass; 6] {
        [
            WorkloadClass::Simulation,
            WorkloadClass::HighlyScalable,
            WorkloadClass::DataAnalytics,
            WorkloadClass::DlTraining,
            WorkloadClass::DlInference,
            WorkloadClass::QuantumOptimization,
        ]
    }

    /// The module kind the MSA design intends this class to run on.
    pub fn intended_module(self) -> ModuleKind {
        match self {
            WorkloadClass::Simulation => ModuleKind::Cluster,
            WorkloadClass::HighlyScalable => ModuleKind::Booster,
            WorkloadClass::DataAnalytics => ModuleKind::DataAnalytics,
            WorkloadClass::DlTraining => ModuleKind::Booster,
            WorkloadClass::DlInference => ModuleKind::Booster,
            WorkloadClass::QuantumOptimization => ModuleKind::Quantum,
        }
    }
}

/// Quantitative profile of one application part.
#[derive(Debug, Clone)]
pub struct WorkloadProfile {
    pub name: String,
    pub class: WorkloadClass,
    /// Total useful compute, in TFLOP.
    pub total_tflop: f64,
    /// Fraction of the compute expressible as dense tensor ops (GPU-able).
    pub dl_fraction: f64,
    /// Amdahl parallel fraction.
    pub parallel_fraction: f64,
    /// Total working set in GiB (spills if it exceeds module DDR).
    pub working_set_gib: f64,
    /// Bytes communicated per node per synchronisation step, in GiB.
    pub comm_gib_per_step: f64,
    /// Number of synchronisation steps (e.g. training epochs × iterations).
    pub sync_steps: u64,
}

impl WorkloadProfile {
    /// Effective per-node throughput of `module` for this workload, in
    /// TFLOP/s: GPU-able fraction runs at the node's DL rate, the rest on
    /// the CPU.
    pub fn node_throughput_tflops(&self, module: &Module) -> f64 {
        // Harmonic blend: time = dl_frac/dl_rate + (1-dl_frac)/cpu_rate.
        let inv = self.dl_fraction / module.node.dl_tflops()
            + (1.0 - self.dl_fraction) / module.node.cpu_tflops();
        // Codes never reach peak; 50% of peak is a generous sustained rate.
        0.5 / inv
    }

    /// Slowdown factor from memory-capacity pressure: if the working set
    /// exceeds the allocation's DDR, the overflow is served from the next
    /// tier (NVM if present, else the federation) at its bandwidth ratio.
    pub fn memory_penalty(&self, module: &Module, nodes: usize) -> f64 {
        let ddr = module.node.ddr_gib() * nodes as f64;
        if self.working_set_gib <= ddr || self.working_set_gib == 0.0 {
            return 1.0;
        }
        let overflow_frac = (self.working_set_gib - ddr) / self.working_set_gib;
        let nvm = module
            .node
            .memory
            .iter()
            .find(|m| m.kind == crate::hw::MemoryKind::Nvm);
        // DDR ~120 GB/s vs overflow-tier bandwidth. Without local NVM the
        // overflow goes over the federation to shared storage, where
        // congestion leaves each node a fraction of its injection rate.
        let slow_bw = nvm
            .map(|m| m.read_bw_gbs)
            .unwrap_or(module.node.net_bw_gbs * 0.1);
        let ratio = (120.0 / slow_bw).max(1.0);
        1.0 + overflow_frac * (ratio - 1.0)
    }

    /// Predicted time-to-solution on `nodes` nodes of `module`.
    pub fn time_on(&self, module: &Module, nodes: usize) -> SimTime {
        assert!(nodes >= 1 && nodes <= module.node_count.max(1));
        let n = nodes as f64;
        let tput = self.node_throughput_tflops(module);
        // Amdahl: serial part runs on one node.
        let parallel_t = self.total_tflop * self.parallel_fraction / (tput * n);
        let serial_t = self.total_tflop * (1.0 - self.parallel_fraction) / tput;
        let compute = (parallel_t + serial_t) * self.memory_penalty(module, nodes);
        // Communication: ring-style exchange of comm_gib_per_step per node
        // per step, paid at the node injection bandwidth; vanishes at n=1.
        let comm = if nodes > 1 {
            self.sync_steps as f64
                * (self.comm_gib_per_step * 2.0 * (n - 1.0) / n / module.node.net_bw_gbs
                    + module.node.net_latency_us * 1e-6 * (n).log2().ceil())
        } else {
            0.0
        };
        SimTime::from_secs(compute + comm)
    }

    /// Predicted energy-to-solution in joules on `nodes` nodes of `module`.
    pub fn energy_on(&self, module: &Module, nodes: usize) -> f64 {
        let t = self.time_on(module, nodes);
        let model = PowerModel::for_node(&module.node);
        model.energy_j(nodes, 0.9, t)
    }

    /// A canonical example profile for each class (used by the Fig. 2
    /// affinity report and experiment E2).
    pub fn canonical(class: WorkloadClass) -> WorkloadProfile {
        match class {
            WorkloadClass::Simulation => WorkloadProfile {
                name: "earth-system simulation".into(),
                class,
                total_tflop: 5_000.0,
                dl_fraction: 0.0,
                parallel_fraction: 0.95,
                working_set_gib: 1_000.0,
                comm_gib_per_step: 0.05,
                sync_steps: 1_000,
            },
            WorkloadClass::HighlyScalable => WorkloadProfile {
                name: "lattice stencil code".into(),
                class,
                total_tflop: 200_000.0,
                dl_fraction: 0.99,
                parallel_fraction: 0.999,
                working_set_gib: 500.0,
                comm_gib_per_step: 0.01,
                sync_steps: 10_000,
            },
            WorkloadClass::DataAnalytics => WorkloadProfile {
                name: "Spark RS pipeline".into(),
                class,
                total_tflop: 500.0,
                dl_fraction: 0.1,
                parallel_fraction: 0.98,
                working_set_gib: 12_000.0,
                comm_gib_per_step: 0.5,
                sync_steps: 50,
            },
            WorkloadClass::DlTraining => WorkloadProfile {
                name: "ResNet-50 training".into(),
                class,
                total_tflop: 120_000.0,
                dl_fraction: 0.98,
                parallel_fraction: 0.999,
                working_set_gib: 300.0,
                comm_gib_per_step: 0.095, // ResNet-50 gradients ≈ 97.5 MB
                sync_steps: 40_000,
            },
            WorkloadClass::DlInference => WorkloadProfile {
                name: "RS inference sweep".into(),
                class,
                total_tflop: 8_000.0,
                dl_fraction: 0.95,
                parallel_fraction: 1.0,
                working_set_gib: 100.0,
                comm_gib_per_step: 0.0,
                sync_steps: 1,
            },
            WorkloadClass::QuantumOptimization => WorkloadProfile {
                name: "QUBO SVM training".into(),
                class,
                total_tflop: 10.0,
                dl_fraction: 0.0,
                parallel_fraction: 0.8,
                working_set_gib: 10.0,
                comm_gib_per_step: 0.001,
                sync_steps: 100,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::presets;

    #[test]
    fn dl_training_prefers_booster_over_cluster() -> Result<(), String> {
        let j = presets::juwels();
        let w = WorkloadProfile::canonical(WorkloadClass::DlTraining);
        let cluster = j
            .module_of_kind(ModuleKind::Cluster)
            .ok_or("JUWELS preset lacks a Cluster module")?;
        let booster = j
            .module_of_kind(ModuleKind::Booster)
            .ok_or("JUWELS preset lacks a Booster module")?;
        let tc = w.time_on(cluster, 16);
        let tb = w.time_on(booster, 16);
        assert!(
            tb < tc / 10.0,
            "booster should be >10x faster for DL: booster={tb} cluster={tc}"
        );
        Ok(())
    }

    #[test]
    fn big_memory_analytics_prefers_dam_nvm_over_cluster() -> Result<(), String> {
        let d = presets::deep();
        let w = WorkloadProfile::canonical(WorkloadClass::DataAnalytics);
        let dam = d
            .module_of_kind(ModuleKind::DataAnalytics)
            .ok_or("DEEP preset lacks a DataAnalytics module")?;
        let cm = d
            .module_of_kind(ModuleKind::Cluster)
            .ok_or("DEEP preset lacks a Cluster module")?;
        // On 4 nodes the 5 TB working set spills on both, but the DAM
        // serves spill from local NVMe, the CM from the network.
        assert!(w.memory_penalty(dam, 4) < w.memory_penalty(cm, 4));
        Ok(())
    }

    #[test]
    fn more_nodes_reduce_time_for_scalable_work() -> Result<(), String> {
        let j = presets::juwels();
        let b = j
            .module_of_kind(ModuleKind::Booster)
            .ok_or("JUWELS preset lacks a Booster module")?;
        let w = WorkloadProfile::canonical(WorkloadClass::HighlyScalable);
        let t1 = w.time_on(b, 1);
        let t16 = w.time_on(b, 16);
        let t64 = w.time_on(b, 64);
        assert!(t16 < t1);
        assert!(t64 < t16);
        Ok(())
    }

    #[test]
    fn amdahl_limits_serial_workload_scaling() -> Result<(), String> {
        let j = presets::juwels();
        let c = j
            .module_of_kind(ModuleKind::Cluster)
            .ok_or("JUWELS preset lacks a Cluster module")?;
        let mut w = WorkloadProfile::canonical(WorkloadClass::Simulation);
        w.parallel_fraction = 0.5;
        w.working_set_gib = 0.0;
        let t1 = w.time_on(c, 1);
        let t256 = w.time_on(c, 256);
        // Amdahl: max speedup 2x at p=0.5.
        assert!(t1 / t256 < 2.01);
        assert!(t1 / t256 > 1.5);
        Ok(())
    }

    #[test]
    fn no_memory_penalty_when_fits() -> Result<(), String> {
        let d = presets::deep();
        let dam = d
            .module_of_kind(ModuleKind::DataAnalytics)
            .ok_or("DEEP preset lacks a DataAnalytics module")?;
        let mut w = WorkloadProfile::canonical(WorkloadClass::DataAnalytics);
        w.working_set_gib = 100.0;
        assert_eq!(w.memory_penalty(dam, 16), 1.0);
        Ok(())
    }

    #[test]
    fn intended_module_covers_all_classes() {
        for c in WorkloadClass::all() {
            let _ = c.intended_module(); // must not panic
            let w = WorkloadProfile::canonical(c);
            assert_eq!(w.class, c);
        }
    }

    #[test]
    fn energy_positive_and_scales_with_time() -> Result<(), String> {
        let d = presets::deep();
        let cm = d
            .module_of_kind(ModuleKind::Cluster)
            .ok_or("DEEP preset lacks a Cluster module")?;
        let w = WorkloadProfile::canonical(WorkloadClass::Simulation);
        let e8 = w.energy_on(cm, 8);
        assert!(e8 > 0.0);
        Ok(())
    }
}
