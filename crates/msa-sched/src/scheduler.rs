//! Discrete-event FCFS + EASY-backfill scheduler over MSA modules.
//!
//! Jobs arrive over virtual time, are placed on a module by a
//! [`Placement`] policy, and wait in a single FCFS queue. EASY backfill
//! lets later jobs jump the queue only if they cannot delay the queue
//! head: the head gets a *reservation* (the earliest instant enough
//! nodes free up on its module), and a backfill candidate on the same
//! module must finish before that reservation.

use crate::job::{JobOutcome, JobSpec};
use crate::policy::Placement;
use msa_core::energy::PowerModel;
use msa_core::module::ModuleId;
use msa_core::system::MsaSystem;
use msa_core::{EventEngine, SimTime};
use msa_obs::{key, simtime_to_ps, Recorder};
use std::collections::VecDeque;

/// Result of scheduling one trace.
#[derive(Debug, Clone)]
pub struct ScheduleReport {
    pub outcomes: Vec<JobOutcome>,
    pub makespan: SimTime,
    pub mean_wait: SimTime,
    pub total_energy_kwh: f64,
    /// Per-module busy node-seconds.
    pub busy_node_secs: Vec<f64>,
    /// Jobs that were backfilled past the queue head.
    pub backfilled: usize,
}

impl ScheduleReport {
    /// Per-module utilization: busy node-seconds over available
    /// node-seconds (`node_count × makespan`), one entry per module of
    /// the system the report was produced on. Zero-makespan reports
    /// (empty traces) report zero everywhere.
    pub fn module_utilization(&self, sys: &MsaSystem) -> Vec<f64> {
        let span = self.makespan.as_secs();
        sys.modules
            .iter()
            .zip(&self.busy_node_secs)
            .map(|(m, &busy)| {
                let capacity = m.node_count as f64 * span;
                if capacity > 0.0 {
                    busy / capacity
                } else {
                    0.0
                }
            })
            .collect()
    }

    /// Dumps the report into an [`msa_obs::Recorder`]: makespan, mean
    /// wait, job/backfill counts, energy, and per-module busy time and
    /// utilization (labelled with the module's short code).
    pub fn record_into(&self, rec: &dyn Recorder, sys: &MsaSystem, labels: &[(&str, &str)]) {
        rec.time_ps(&key("sched.makespan", labels), simtime_to_ps(self.makespan));
        rec.time_ps(&key("sched.mean_wait", labels), simtime_to_ps(self.mean_wait));
        rec.add(&key("sched.jobs", labels), self.outcomes.len() as u64);
        rec.add(&key("sched.backfilled", labels), self.backfilled as u64);
        rec.gauge(&key("sched.energy_kwh", labels), self.total_energy_kwh);
        for ((module, &busy), util) in sys
            .modules
            .iter()
            .zip(&self.busy_node_secs)
            .zip(self.module_utilization(sys))
        {
            let mut ml: Vec<(&str, &str)> = labels.to_vec();
            let code = module.kind.code();
            ml.push(("module", code));
            rec.time_ps(
                &key("sched.module.busy", &ml),
                simtime_to_ps(SimTime::from_secs(busy)),
            );
            rec.gauge(&key("sched.module.utilization", &ml), util);
        }
    }
}

#[derive(Clone, Copy, PartialEq)]
struct Running {
    end: SimTime,
    module: ModuleId,
    nodes: usize,
}

/// What happens at an instant of the scheduling clock.
enum Event {
    /// Job `id` joins the queue.
    Submit(usize),
    /// A running job frees its nodes.
    End(Running),
}

struct State<'a> {
    jobs: &'a [JobSpec],
    /// Pre-computed placement, runtime and energy per job.
    placed: Vec<(ModuleId, SimTime, f64)>,
    free: Vec<usize>,
    queue: VecDeque<usize>,
    running: Vec<Running>,
    outcomes: Vec<Option<JobOutcome>>,
    busy_node_secs: Vec<f64>,
    backfilled: usize,
}

/// Earliest time at which `nodes` nodes are free on `module`, given the
/// currently running set.
fn reservation_time(
    now: SimTime,
    free: usize,
    nodes: usize,
    module: ModuleId,
    running: &[Running],
) -> SimTime {
    if free >= nodes {
        return now;
    }
    let mut ends: Vec<(SimTime, usize)> = running
        .iter()
        .filter(|r| r.module == module)
        .map(|r| (r.end, r.nodes))
        .collect();
    ends.sort_by_key(|(t, _)| *t);
    let mut avail = free;
    for (t, n) in ends {
        avail += n;
        if avail >= nodes {
            return t;
        }
    }
    // Should not happen if the placement fits the module.
    SimTime::from_secs(f64::MAX / 4.0)
}

fn try_schedule(state: &mut State, eng: &mut EventEngine<Event>) {
    let now = eng.now();
    // Reservation for the queue head.
    let head_res = state.queue.front().map(|&h| {
        let (module, _, _) = state.placed[h];
        let free = state.free[module.0];
        (
            module,
            reservation_time(now, free, state.jobs[h].nodes, module, &state.running),
        )
    });

    let mut qi = 0;
    while qi < state.queue.len() {
        let job_id = state.queue[qi];
        let (module, runtime, energy) = state.placed[job_id];
        let nodes = state.jobs[job_id].nodes;
        let fits = state.free[module.0] >= nodes;

        let allowed = if qi == 0 {
            fits
        } else if !fits {
            false
        } else {
            // EASY: must not delay the head's reservation.
            match head_res {
                Some((head_module, res)) if head_module == module => now + runtime <= res,
                _ => true,
            }
        };

        if allowed {
            if qi > 0 {
                state.backfilled += 1;
            }
            state.queue.remove(qi);
            state.free[module.0] -= nodes;
            let end = now + runtime;
            let run = Running { end, module, nodes };
            state.running.push(run);
            state.busy_node_secs[module.0] += nodes as f64 * runtime.as_secs();
            let submit = state.jobs[job_id].submit;
            state.outcomes[job_id] = Some(JobOutcome {
                id: job_id,
                module,
                nodes,
                start: now,
                end,
                wait: now.saturating_sub(submit),
                energy_j: energy,
            });
            eng.schedule(end, Event::End(run));
            // Restart the scan: head may have changed.
            qi = 0;
            continue;
        }
        qi += 1;
    }
}

/// Runs the trace through the scheduler and returns the report.
pub fn schedule(sys: &MsaSystem, jobs: &[JobSpec], policy: &dyn Placement) -> ScheduleReport {
    let placed: Vec<(ModuleId, SimTime, f64)> = jobs
        .iter()
        .map(|j| {
            let m = policy.place(j, sys);
            let module = sys.module(m);
            let nodes = j.nodes.min(module.node_count);
            let runtime = j.profile.time_on(module, nodes);
            let energy = j.profile.energy_on(module, nodes);
            (m, runtime, energy)
        })
        .collect();

    let mut state = State {
        jobs,
        placed,
        free: sys.modules.iter().map(|m| m.node_count).collect(),
        queue: VecDeque::new(),
        running: Vec::new(),
        outcomes: vec![None; jobs.len()],
        busy_node_secs: vec![0.0; sys.modules.len()],
        backfilled: 0,
    };
    let mut eng = EventEngine::new();
    for job in jobs {
        eng.schedule(job.submit, Event::Submit(job.id));
    }
    while let Some((_, ev)) = eng.pop() {
        match ev {
            Event::Submit(id) => state.queue.push_back(id),
            Event::End(run) => {
                state.free[run.module.0] += run.nodes;
                // Remove exactly one matching running record.
                if let Some(pos) = state.running.iter().position(|r| *r == run) {
                    state.running.swap_remove(pos);
                }
            }
        }
        try_schedule(&mut state, &mut eng);
    }

    let outcomes: Vec<JobOutcome> = state
        .outcomes
        .into_iter()
        // lint: allow(unwrap) -- simulation invariant: the engine runs every job to completion
        .map(|o| o.expect("every job must complete"))
        .collect();
    let makespan = outcomes
        .iter()
        .map(|o| o.end)
        .fold(SimTime::ZERO, SimTime::max);
    let mean_wait = outcomes
        .iter()
        .map(|o| o.wait)
        .fold(SimTime::ZERO, |a, b| a + b)
        / outcomes.len().max(1) as f64;
    // Energy: job energy plus idle burn of unused nodes until makespan.
    let mut total_j: f64 = outcomes.iter().map(|o| o.energy_j).sum();
    for (m, busy) in sys.modules.iter().zip(&state.busy_node_secs) {
        let idle_node_secs = m.node_count as f64 * makespan.as_secs() - busy;
        let idle_w = PowerModel::for_node(&m.node).idle_w;
        total_j += idle_node_secs.max(0.0) * idle_w;
    }

    ScheduleReport {
        outcomes,
        makespan,
        mean_wait,
        total_energy_kwh: total_j / 3.6e6,
        busy_node_secs: state.busy_node_secs,
        backfilled: state.backfilled,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobSpec;
    use crate::policy::MsaPlacement;
    use msa_core::system::presets;
    use msa_core::workload::WorkloadClass;

    fn job(id: usize, class: WorkloadClass, nodes: usize, submit_s: f64) -> JobSpec {
        JobSpec::scaled(id, class, nodes, SimTime::from_secs(submit_s), 200.0)
    }

    #[test]
    fn single_job_runs_immediately() {
        let sys = presets::deep();
        let jobs = vec![job(0, WorkloadClass::DlTraining, 4, 0.0)];
        let rep = schedule(&sys, &jobs, &MsaPlacement);
        assert_eq!(rep.outcomes.len(), 1);
        assert_eq!(rep.outcomes[0].wait, SimTime::ZERO);
        assert!(rep.makespan.as_secs() > 0.0);
        assert!(rep.total_energy_kwh > 0.0);
    }

    #[test]
    fn oversubscribed_module_queues_jobs() {
        let sys = presets::deep();
        // DAM has 16 nodes; three 10-node analytics jobs can't all run.
        let jobs: Vec<JobSpec> = (0..3)
            .map(|i| job(i, WorkloadClass::DataAnalytics, 10, 0.0))
            .collect();
        let rep = schedule(&sys, &jobs, &MsaPlacement);
        let waited = rep
            .outcomes
            .iter()
            .filter(|o| o.wait.as_secs() > 0.0)
            .count();
        assert!(waited >= 2, "two jobs must wait, got {waited}");
        // Jobs on the same module must not overlap beyond capacity:
        // at any completion boundary ≤16 nodes are in use.
        let dam = sys
            .module_of_kind(msa_core::ModuleKind::DataAnalytics)
            .unwrap()
            .id;
        let mut events: Vec<(SimTime, i64)> = Vec::new();
        for o in rep.outcomes.iter().filter(|o| o.module == dam) {
            events.push((o.start, o.nodes as i64));
            events.push((o.end, -(o.nodes as i64)));
        }
        events.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)));
        let mut used = 0i64;
        for (_, d) in events {
            used += d;
            assert!(used <= 16, "DAM oversubscribed: {used}");
        }
    }

    #[test]
    fn different_modules_run_concurrently() {
        let sys = presets::deep();
        let jobs = vec![
            job(0, WorkloadClass::Simulation, 8, 0.0),
            job(1, WorkloadClass::DlTraining, 8, 0.0),
            job(2, WorkloadClass::DataAnalytics, 8, 0.0),
        ];
        let rep = schedule(&sys, &jobs, &MsaPlacement);
        for o in &rep.outcomes {
            assert_eq!(o.wait, SimTime::ZERO, "job {} should not wait", o.id);
        }
        // They occupy three different modules.
        let modules: std::collections::HashSet<_> =
            rep.outcomes.iter().map(|o| o.module).collect();
        assert_eq!(modules.len(), 3);
    }

    #[test]
    fn backfill_fills_holes_without_delaying_head() {
        let sys = presets::deep();
        // DAM: 16 nodes. j0 takes 12 now; j1 (head of queue) wants 16;
        // j2 wants 4 and is short — it can backfill beside j0 only if it
        // finishes before j0 frees the nodes j1 needs.
        let jobs = vec![
            // Long-running jobs (low scale factor = more work).
            JobSpec::scaled(0, WorkloadClass::DataAnalytics, 12, SimTime::ZERO, 2.0),
            JobSpec::scaled(
                1,
                WorkloadClass::DataAnalytics,
                16,
                SimTime::from_secs(1.0),
                2.0,
            ),
            JobSpec::scaled(
                2,
                WorkloadClass::DataAnalytics,
                4,
                SimTime::from_secs(2.0),
                20_000.0, // tiny job
            ),
        ];
        let rep = schedule(&sys, &jobs, &MsaPlacement);
        let o: Vec<_> = rep.outcomes.iter().collect();
        // j2 starts before j1 (backfilled) and j1 is not delayed by it:
        // j1 starts exactly when j0 ends.
        assert!(o[2].start < o[1].start, "tiny job should backfill");
        assert_eq!(o[1].start, o[0].end, "head must start when j0 frees");
        assert!(rep.backfilled >= 1);
    }

    #[test]
    fn submit_at_a_release_instant_starts_then() {
        // j0 holds the whole 16-node DAM; j1 and j2 each want all of it
        // and arrive at the very instant j0 ends.
        let sys = presets::deep();
        let first = vec![job(0, WorkloadClass::DataAnalytics, 16, 0.0)];
        let release = schedule(&sys, &first, &MsaPlacement).outcomes[0].end;
        let mut jobs = first;
        for id in 1..3 {
            jobs.push(job(id, WorkloadClass::DataAnalytics, 16, release.as_secs()));
        }
        let o = schedule(&sys, &jobs, &MsaPlacement).outcomes;
        assert_eq!(o[0].end, release);
        assert_eq!(o[1].start, release, "j1 starts at the release instant");
        assert_eq!(o[1].wait, SimTime::ZERO);
        assert_eq!(o[2].start, o[1].end, "j2 waits its FIFO turn behind j1");
    }

    #[test]
    fn report_records_utilization_metrics() {
        let sys = presets::deep();
        let jobs: Vec<JobSpec> = (0..6)
            .map(|i| job(i, WorkloadClass::DlTraining, 4, i as f64))
            .collect();
        let rep = schedule(&sys, &jobs, &MsaPlacement);
        let utils = rep.module_utilization(&sys);
        assert_eq!(utils.len(), sys.modules.len());
        assert!(utils.iter().all(|&u| (0.0..=1.0).contains(&u)));
        assert!(utils.iter().any(|&u| u > 0.0), "DL jobs must occupy a module");

        let reg = msa_obs::MetricsRegistry::new();
        rep.record_into(&reg, &sys, &[("trace", "t")]);
        let snap = reg.snapshot();
        assert_eq!(
            snap.get("sched.makespan{trace=t}").and_then(|v| v.as_time_ps()),
            Some(simtime_to_ps(rep.makespan))
        );
        assert_eq!(
            snap.get("sched.jobs{trace=t}").and_then(|v| v.as_counter()),
            Some(6)
        );
        // One utilization gauge per module, labelled by its code.
        for m in &sys.modules {
            let k = format!("sched.module.utilization{{module={},trace=t}}", m.kind.code());
            assert!(snap.get(&k).is_some(), "missing {k}");
        }
    }

    #[test]
    fn report_is_deterministic() {
        let sys = presets::deep();
        let jobs: Vec<JobSpec> = (0..10)
            .map(|i| job(i, WorkloadClass::Simulation, 1 + i % 5, i as f64))
            .collect();
        let a = schedule(&sys, &jobs, &MsaPlacement);
        let b = schedule(&sys, &jobs, &MsaPlacement);
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.mean_wait, b.mean_wait);
    }
}
