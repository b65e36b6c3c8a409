//! Interactive supercomputing (Jupyter) on the MSA.
//!
//! Both case studies lean on JupyterLab at JSC ([3], Goebbert et al.) so
//! that "medical doctors, medical imaging experts, or neuroscientists"
//! can use DEEP/JUWELS without touching job scripts. The operational
//! question behind that experience: interactive kernels need *seconds*
//! of start-up latency, which a busy batch queue cannot give. The MSA
//! answer is to dedicate a module slice (in practice the DAM) to
//! interactive sessions. This module quantifies the effect: the same
//! batch trace + interactive sessions, with the sessions either thrown
//! into the shared queue or routed to a DAM reserved for them.

use crate::generator::{generate_trace, TraceConfig};
use crate::job::JobSpec;
use crate::policy::{MsaPlacement, Placement};
use crate::scheduler::schedule;
use msa_core::module::ModuleId;
use msa_core::system::MsaSystem;
use msa_core::workload::WorkloadClass;
use msa_core::{ModuleKind, SimTime};

/// Batch placement that keeps batch work *off* a reserved module.
struct AvoidModule<'a> {
    inner: MsaPlacement,
    reserved: ModuleId,
    fallback: &'a dyn Fn(&JobSpec, &MsaSystem) -> ModuleId,
}

impl Placement for AvoidModule<'_> {
    fn place(&self, job: &JobSpec, sys: &MsaSystem) -> ModuleId {
        let m = self.inner.place(job, sys);
        if m == self.reserved {
            (self.fallback)(job, sys)
        } else {
            m
        }
    }
}

/// Admission control for interactive request queues.
///
/// The serving tier (`msa-serve`) and any other latency-sensitive queue
/// price admission the same way this module prices session placement: a
/// request only joins a queue when the wait it is *predicted* to suffer —
/// the backlog ahead of it, served at the endpoint's sustained rate —
/// stays within the SLO. Requests past that point are shed at arrival,
/// which keeps the queue length (and therefore every admitted request's
/// latency) bounded no matter how far the offered load exceeds capacity.
///
/// All arithmetic is deterministic: the prediction is a single f64
/// multiply rounded to integer picoseconds, so two identical runs make
/// bit-identical admit/shed decisions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdmissionPolicy {
    /// Predicted-wait budget: a request predicted to wait longer than
    /// this is shed instead of enqueued.
    pub slo: SimTime,
}

impl AdmissionPolicy {
    /// Admission against an explicit wait budget.
    pub fn new(slo: SimTime) -> Self {
        assert!(slo.as_secs() > 0.0, "admission SLO must be positive");
        AdmissionPolicy { slo }
    }

    /// The interactive-computing default: this module's 10 s
    /// "feels interactive" threshold (see [`InteractiveReport::within_10s`]).
    pub fn interactive() -> Self {
        Self::new(SimTime::from_secs(10.0))
    }

    /// Predicted wait, in integer picoseconds, for a request joining a
    /// queue with `backlog` requests ahead of it, served at a sustained
    /// `service_rate_rps` requests/second.
    pub fn predicted_wait_ps(backlog: u64, service_rate_rps: f64) -> u64 {
        assert!(
            service_rate_rps > 0.0 && service_rate_rps.is_finite(),
            "service rate must be positive and finite, got {service_rate_rps}"
        );
        (backlog as f64 / service_rate_rps * 1e12).round() as u64
    }

    /// The SLO as integer picoseconds (the unit admission compares in).
    pub fn slo_ps(&self) -> u64 {
        (self.slo.as_secs() * 1e12).round() as u64
    }

    /// True when a request arriving behind `backlog` queued requests
    /// should be admitted.
    pub fn admit(&self, backlog: u64, service_rate_rps: f64) -> bool {
        Self::predicted_wait_ps(backlog, service_rate_rps) <= self.slo_ps()
    }

    /// Largest backlog the policy will still admit behind — the queue
    /// length bound admission enforces at `service_rate_rps`.
    pub fn max_backlog(&self, service_rate_rps: f64) -> u64 {
        let exact = self.slo.as_secs() * service_rate_rps;
        let cap = exact.floor() as u64;
        // `floor` under-counts when slo·rate is exactly representable
        // (e.g. 10 s × 100 rps = 1000): check the boundary explicitly.
        if Self::predicted_wait_ps(cap + 1, service_rate_rps) <= self.slo_ps() {
            cap + 1
        } else {
            cap
        }
    }
}

/// Interactive session statistics for one scenario.
#[derive(Debug, Clone)]
pub struct InteractiveReport {
    /// Mean time-to-kernel (wait) of the interactive sessions.
    pub mean_session_wait: SimTime,
    /// Worst session wait.
    pub max_session_wait: SimTime,
    /// Fraction of sessions that started within 10 s ("feels
    /// interactive").
    pub within_10s: f64,
    /// Batch makespan (to show what reserving the DAM costs).
    pub batch_makespan: SimTime,
}

/// Builds `count` one-node interactive sessions arriving uniformly over
/// `span` seconds, each lasting `duration` seconds of light analytics.
pub fn interactive_sessions(count: usize, span: f64, duration: f64) -> Vec<JobSpec> {
    (0..count)
        .map(|i| {
            let submit = SimTime::from_secs(span * (i as f64 + 0.5) / count as f64);
            let mut job = JobSpec::scaled(
                usize::MAX - count + i, // ids disjoint from the batch trace
                WorkloadClass::DataAnalytics,
                1,
                submit,
                50_000.0, // tiny compute: a notebook kernel
            );
            // Sessions hold their node for the human's dwell time, which
            // dwarfs their compute.
            job.profile.total_tflop = job.profile.total_tflop.max(1e-6);
            job.profile.sync_steps = 1;
            job.profile.working_set_gib = 1.0;
            // Encode dwell time as extra serial work on the DAM-class
            // node (≈ duration seconds at the node's analytics rate is
            // messy; instead we scale total work so time_on ≈ duration).
            job.profile.parallel_fraction = 0.0;
            job.profile.total_tflop = duration * 1.8; // ≈ node rate × duration
            job
        })
        .collect()
}

/// Runs both scenarios on `sys` (which must have a DAM) and returns
/// `(shared_queue, reserved_dam)` reports.
pub fn compare_interactive(
    sys: &MsaSystem,
    batch_cfg: &TraceConfig,
    sessions: &[JobSpec],
) -> (InteractiveReport, InteractiveReport) {
    let dam = sys
        .module_of_kind(ModuleKind::DataAnalytics)
        // lint: allow(unwrap) -- interactive-study systems always include a DAM
        .expect("system needs a DAM")
        .id;
    let batch = generate_trace(batch_cfg);

    // Scenario A: everything shares one queue and all modules.
    let mut all: Vec<JobSpec> = batch.clone();
    all.extend(sessions.to_vec());
    // Re-id jobs densely (the scheduler indexes by id); the sessions are
    // the tail, ids from `n_batch` on.
    for (i, j) in all.iter_mut().enumerate() {
        j.id = i;
    }
    let n_batch = batch.len();
    let shared = schedule(sys, &all, &MsaPlacement);
    let shared_report = summarize(&shared, n_batch);

    // Scenario B: batch avoids the DAM; sessions get it exclusively.
    let fallback = |job: &JobSpec, sys: &MsaSystem| -> ModuleId {
        // Redirect analytics batch work to the cluster module.
        sys.modules
            .iter()
            .find(|m| m.kind == ModuleKind::Cluster && m.node_count >= job.nodes)
            .map(|m| m.id)
            .unwrap_or_else(|| MsaPlacement.place(job, sys))
    };
    let avoid = AvoidModule {
        inner: MsaPlacement,
        reserved: dam,
        fallback: &fallback,
    };
    struct SplitPolicy<'a> {
        n_batch: usize,
        avoid: AvoidModule<'a>,
        dam: ModuleId,
    }
    impl Placement for SplitPolicy<'_> {
        fn place(&self, job: &JobSpec, sys: &MsaSystem) -> ModuleId {
            if job.id >= self.n_batch {
                self.dam
            } else {
                self.avoid.place(job, sys)
            }
        }
    }
    let reserved = schedule(
        sys,
        &all,
        &SplitPolicy {
            n_batch,
            avoid,
            dam,
        },
    );
    let reserved_report = summarize(&reserved, n_batch);

    (shared_report, reserved_report)
}

fn summarize(report: &crate::scheduler::ScheduleReport, n_batch: usize) -> InteractiveReport {
    let sessions: Vec<_> = report
        .outcomes
        .iter()
        .filter(|o| o.id >= n_batch)
        .collect();
    let n = sessions.len().max(1) as f64;
    let mean = sessions
        .iter()
        .map(|o| o.wait)
        .fold(SimTime::ZERO, |a, b| a + b)
        / n;
    let max = sessions
        .iter()
        .map(|o| o.wait)
        .fold(SimTime::ZERO, SimTime::max);
    let within = sessions
        .iter()
        .filter(|o| o.wait.as_secs() <= 10.0)
        .count() as f64
        / n;
    let batch_makespan = report
        .outcomes
        .iter()
        .filter(|o| o.id < n_batch)
        .map(|o| o.end)
        .fold(SimTime::ZERO, SimTime::max);
    InteractiveReport {
        mean_session_wait: mean,
        max_session_wait: max,
        within_10s: within,
        batch_makespan,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msa_core::system::presets;

    #[test]
    fn admission_prices_wait_in_closed_form() {
        // 100 rps, 10 s SLO: backlog 1000 predicts exactly 10 s — the
        // boundary is admitted; one more request is shed.
        let p = AdmissionPolicy::interactive();
        assert_eq!(AdmissionPolicy::predicted_wait_ps(0, 100.0), 0);
        assert_eq!(
            AdmissionPolicy::predicted_wait_ps(1000, 100.0),
            10_000_000_000_000
        );
        assert!(p.admit(0, 100.0));
        assert!(p.admit(1000, 100.0));
        assert!(!p.admit(1001, 100.0));
        assert_eq!(p.max_backlog(100.0), 1000);
    }

    #[test]
    fn admission_is_deterministic_and_monotone() {
        let p = AdmissionPolicy::new(SimTime::from_millis(250.0));
        let decisions: Vec<bool> = (0..64).map(|b| p.admit(b, 37.5)).collect();
        assert_eq!(decisions, (0..64).map(|b| p.admit(b, 37.5)).collect::<Vec<_>>());
        // Once shed, always shed at higher backlog.
        let first_shed = decisions.iter().position(|d| !d).unwrap();
        assert!(decisions[first_shed..].iter().all(|d| !d));
        assert_eq!(first_shed as u64, p.max_backlog(37.5) + 1);
    }

    fn busy_trace() -> TraceConfig {
        TraceConfig {
            jobs: 100,
            mean_interarrival_s: 2.0,
            scale: 30.0,
            max_nodes: 14,
            ..Default::default()
        }
    }

    #[test]
    fn reserving_the_dam_makes_sessions_interactive() {
        let deep = presets::deep();
        let sessions = interactive_sessions(20, 250.0, 120.0);
        let (shared, reserved) = compare_interactive(&deep, &busy_trace(), &sessions);
        assert!(
            reserved.mean_session_wait < shared.mean_session_wait,
            "reserved {} vs shared {}",
            reserved.mean_session_wait,
            shared.mean_session_wait
        );
        assert!(
            reserved.within_10s > 0.9,
            "reserved DAM should start ≥90% of sessions within 10 s: {}",
            reserved.within_10s
        );
    }

    #[test]
    fn sessions_have_expected_count_and_duration() {
        let deep = presets::deep();
        let sessions = interactive_sessions(5, 100.0, 60.0);
        assert_eq!(sessions.len(), 5);
        let dam = deep
            .module_of_kind(ModuleKind::DataAnalytics)
            .unwrap();
        for s in &sessions {
            let t = s.profile.time_on(dam, 1).as_secs();
            assert!(
                (20.0..300.0).contains(&t),
                "session dwell should be minutes-scale: {t}"
            );
        }
    }

    #[test]
    fn batch_work_pays_a_bounded_price_for_the_reservation() {
        let deep = presets::deep();
        let sessions = interactive_sessions(10, 200.0, 90.0);
        let (shared, reserved) = compare_interactive(&deep, &busy_trace(), &sessions);
        // Batch loses at most 50% makespan from giving up the 16-node DAM.
        assert!(
            reserved.batch_makespan.as_secs() <= shared.batch_makespan.as_secs() * 1.5,
            "reservation cost too high: {} vs {}",
            reserved.batch_makespan,
            shared.batch_makespan
        );
    }
}
