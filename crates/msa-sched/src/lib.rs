//! # msa-sched
//!
//! Resource management for the MSA. The paper's conclusion claims the
//! MSA "is able to schedule heterogeneous workloads onto matching
//! combinations of MSA module resources"; this crate makes that claim
//! testable:
//!
//! * [`job`] — jobs carry a [`msa_core::WorkloadClass`] and a
//!   quantitative profile; their runtime on any module comes from the
//!   `msa-core` time/energy model;
//! * [`scheduler`] — a discrete-event FCFS + EASY-backfill scheduler over
//!   the modules of an [`msa_core::MsaSystem`];
//! * [`policy`] — placement policies: class-aware MSA placement vs the
//!   monolithic everything-on-one-pool baseline;
//! * [`generator`] — deterministic mixed-workload traces;
//! * [`compare`] — the E11 experiment: one trace, MSA vs monolithic,
//!   makespan / wait / energy.

pub mod compare;
pub mod generator;
pub mod interactive;
pub mod job;
pub mod policy;
pub mod scheduler;

pub use compare::{compare_architectures, ComparisonResult};
pub use generator::{generate_trace, TraceConfig};
pub use interactive::{
    compare_interactive, interactive_sessions, AdmissionPolicy, InteractiveReport,
};
pub use job::{JobOutcome, JobSpec};
pub use policy::{MonolithicPlacement, MsaPlacement, Placement};
pub use scheduler::{schedule, ScheduleReport};
