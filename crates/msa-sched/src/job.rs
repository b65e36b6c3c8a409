//! Job model.

use msa_core::module::ModuleId;
use msa_core::workload::{WorkloadClass, WorkloadProfile};
use msa_core::SimTime;

/// A job submitted to the system.
#[derive(Debug, Clone)]
pub struct JobSpec {
    pub id: usize,
    pub class: WorkloadClass,
    pub profile: WorkloadProfile,
    /// Nodes requested.
    pub nodes: usize,
    /// Submission time.
    pub submit: SimTime,
}

impl JobSpec {
    /// Scales a canonical class profile down by `factor` (so simulated
    /// traces finish in simulated minutes, not days) and wraps it in a
    /// job.
    pub fn scaled(
        id: usize,
        class: WorkloadClass,
        nodes: usize,
        submit: SimTime,
        factor: f64,
    ) -> JobSpec {
        assert!(factor > 0.0);
        let mut profile = WorkloadProfile::canonical(class);
        profile.total_tflop /= factor;
        profile.sync_steps = ((profile.sync_steps as f64 / factor).ceil() as u64).max(1);
        profile.working_set_gib /= factor;
        JobSpec {
            id,
            class,
            profile,
            nodes,
            submit,
        }
    }
}

/// What happened to a job.
#[derive(Debug, Clone)]
pub struct JobOutcome {
    pub id: usize,
    pub module: ModuleId,
    pub nodes: usize,
    pub start: SimTime,
    pub end: SimTime,
    pub wait: SimTime,
    /// Energy-to-solution in joules.
    pub energy_j: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_job_shrinks_work() {
        let full = WorkloadProfile::canonical(WorkloadClass::DlTraining);
        let job = JobSpec::scaled(0, WorkloadClass::DlTraining, 4, SimTime::ZERO, 100.0);
        assert!((job.profile.total_tflop - full.total_tflop / 100.0).abs() < 1e-9);
        assert!(job.profile.sync_steps >= 1);
        assert_eq!(job.nodes, 4);
    }
}
