//! # msa-core
//!
//! Core model of a heterogeneous **Modular Supercomputing Architecture**
//! (MSA) as described in the DEEP series of projects and deployed at the
//! Jülich Supercomputing Centre (JUWELS, DEEP).
//!
//! The MSA breaks with the tradition of replicating identical compute
//! nodes: instead, heterogeneous resources are integrated at the *system*
//! level as **modules** — a general-purpose Cluster Module (CM), a
//! many-core Extreme Scale Booster (ESB) with an FPGA Global Collective
//! Engine, a GPU/large-memory Data Analytics Module (DAM), a Scalable
//! Storage Service Module (SSSM), a prototype Network Attached Memory
//! (NAM), and disruptive modules such as a Quantum Module (QM) — all
//! joined by a high-performance network federation.
//!
//! This crate provides:
//!
//! * a [`hw`] hardware catalog with published peak numbers for the devices
//!   the paper's systems are built from (Xeon Cascade Lake, V100, A100,
//!   Stratix-10, NVMe, HBM2, …);
//! * [`module`] and [`system`] types to assemble modules into full systems,
//!   with ready-made [`system::presets`] for the DEEP cluster and JUWELS;
//! * an [`energy`] model (idle/peak power, energy-to-solution accounting);
//! * [`simtime`] virtual time, an [`event`] discrete-event queue used by
//!   the scheduler, and the [`rng`] generator behind every seeded random
//!   process on the modeled clock;
//! * [`workload`] classes and module-affinity scoring, mirroring the
//!   paper's Fig. 2 placement of diverse application workloads.

pub mod energy;
pub mod event;
pub mod hw;
pub mod module;
pub mod report;
pub mod rng;
pub mod simtime;
pub mod system;
pub mod workload;

pub use energy::PowerModel;
pub use event::EventEngine;
pub use hw::{CpuSpec, FpgaSpec, GpuSpec, MemoryKind, MemorySpec, NodeSpec, StorageSpec};
pub use module::{Module, ModuleId, ModuleKind};
pub use rng::{fnv1a, XorShift};
pub use simtime::SimTime;
pub use system::{FederationLink, LinkParams, MsaSystem, SystemBuilder};
pub use workload::{WorkloadClass, WorkloadProfile};
