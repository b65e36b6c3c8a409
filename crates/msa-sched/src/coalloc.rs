//! Co-allocation: jobs that hold nodes on *several* modules at once.
//!
//! The paper's conclusions highlight "scheduling heterogeneous workloads
//! onto matching **combinations** of MSA module resources" — e.g. a
//! coupled workflow keeping its solver on the Cluster Module while its
//! in-situ analytics run on the DAM, or DL training on GPUs feeding an
//! inference/testing stage scaled out on the Booster. This module
//! schedules such multi-resource jobs: a job starts only when *all* its
//! parts can be allocated simultaneously (atomic co-allocation, FCFS with
//! all-or-nothing starts).

use msa_core::energy::PowerModel;
use msa_core::module::ModuleKind;
use msa_core::system::MsaSystem;
use msa_core::{EventEngine, SimTime};
use std::collections::VecDeque;

/// One resource request of a co-allocated job.
#[derive(Debug, Clone)]
pub struct PartRequest {
    pub kind: ModuleKind,
    pub nodes: usize,
}

/// A workflow job spanning several modules for a common duration.
#[derive(Debug, Clone)]
pub struct CoallocJob {
    pub id: usize,
    pub parts: Vec<PartRequest>,
    /// Wall-clock the coupled workflow holds all its parts.
    pub duration: SimTime,
    pub submit: SimTime,
}

/// Outcome of a co-allocated job.
#[derive(Debug, Clone)]
pub struct CoallocOutcome {
    pub id: usize,
    pub start: SimTime,
    pub end: SimTime,
    pub wait: SimTime,
    pub energy_j: f64,
}

/// Report over a co-allocation trace.
#[derive(Debug, Clone)]
pub struct CoallocReport {
    pub outcomes: Vec<CoallocOutcome>,
    pub makespan: SimTime,
    pub mean_wait: SimTime,
    pub total_energy_kwh: f64,
}

/// What happens at an instant of the scheduling clock.
enum Event {
    /// Job `id` joins the queue.
    Submit(usize),
    /// Job `id` releases all its parts.
    End(usize),
}

struct State<'a> {
    jobs: &'a [CoallocJob],
    /// Module index per (job, part): resolved placement.
    placements: Vec<Vec<usize>>,
    /// Energy per job (all parts, 90% utilisation for the duration).
    energies: Vec<f64>,
    free: Vec<usize>,
    queue: VecDeque<usize>,
    outcomes: Vec<Option<CoallocOutcome>>,
}

fn try_start(state: &mut State, eng: &mut EventEngine<Event>) {
    // Strict FCFS: only the queue head may start (atomicity keeps this
    // simple and starvation-free; backfill over vector resources is
    // future work).
    while let Some(&job_id) = state.queue.front() {
        let placement = &state.placements[job_id];
        let job = &state.jobs[job_id];
        let fits = placement
            .iter()
            .zip(&job.parts)
            .all(|(&m, part)| state.free[m] >= part.nodes);
        if !fits {
            return;
        }
        state.queue.pop_front();
        for (&m, part) in placement.iter().zip(&job.parts) {
            state.free[m] -= part.nodes;
        }
        let now = eng.now();
        let end = now + job.duration;
        state.outcomes[job_id] = Some(CoallocOutcome {
            id: job_id,
            start: now,
            end,
            wait: now.saturating_sub(job.submit),
            energy_j: state.energies[job_id],
        });
        eng.schedule(end, Event::End(job_id));
    }
}

/// Schedules a co-allocation trace on `sys`. Every part is mapped to the
/// first module of its kind with enough total nodes; panics if a request
/// can never be satisfied.
pub fn schedule_coalloc(sys: &MsaSystem, jobs: &[CoallocJob]) -> CoallocReport {
    let placements: Vec<Vec<usize>> = jobs
        .iter()
        .map(|j| {
            j.parts
                .iter()
                .map(|part| {
                    sys.modules
                        .iter()
                        .position(|m| m.kind == part.kind && m.node_count >= part.nodes)
                        .unwrap_or_else(|| {
                            panic!(
                                "no {:?} module can host {} nodes",
                                part.kind, part.nodes
                            )
                        })
                })
                .collect()
        })
        .collect();
    let energies: Vec<f64> = jobs
        .iter()
        .zip(&placements)
        .map(|(j, placement)| {
            placement
                .iter()
                .zip(&j.parts)
                .map(|(&m, part)| {
                    PowerModel::for_node(&sys.modules[m].node).energy_j(
                        part.nodes,
                        0.9,
                        j.duration,
                    )
                })
                .sum()
        })
        .collect();

    let mut state = State {
        jobs,
        placements,
        energies,
        free: sys.modules.iter().map(|m| m.node_count).collect(),
        queue: VecDeque::new(),
        outcomes: vec![None; jobs.len()],
    };
    let mut eng = EventEngine::new();
    for job in jobs {
        eng.schedule(job.submit, Event::Submit(job.id));
    }
    while let Some((_, ev)) = eng.pop() {
        match ev {
            Event::Submit(id) => state.queue.push_back(id),
            Event::End(id) => {
                for (&m, part) in state.placements[id].iter().zip(&jobs[id].parts) {
                    state.free[m] += part.nodes;
                }
            }
        }
        try_start(&mut state, &mut eng);
    }

    let outcomes: Vec<CoallocOutcome> = state
        .outcomes
        .into_iter()
        // lint: allow(unwrap) -- simulation invariant: the engine runs every job to completion
        .map(|o| o.expect("all co-allocated jobs must finish"))
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
    let total_energy_kwh = outcomes.iter().map(|o| o.energy_j).sum::<f64>() / 3.6e6;

    CoallocReport {
        outcomes,
        makespan,
        mean_wait,
        total_energy_kwh,
    }
}

/// A canonical coupled workflow: simulation part on the CM + in-situ
/// analytics part on the DAM (the classic MSA showcase).
pub fn coupled_workflow(id: usize, submit: SimTime, duration: SimTime) -> CoallocJob {
    CoallocJob {
        id,
        parts: vec![
            PartRequest {
                kind: ModuleKind::Cluster,
                nodes: 8,
            },
            PartRequest {
                kind: ModuleKind::DataAnalytics,
                nodes: 4,
            },
        ],
        duration,
        submit,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msa_core::system::presets;

    fn secs(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn single_workflow_runs_immediately() {
        let sys = presets::deep();
        let jobs = vec![coupled_workflow(0, SimTime::ZERO, secs(100.0))];
        let rep = schedule_coalloc(&sys, &jobs);
        assert_eq!(rep.outcomes[0].wait, SimTime::ZERO);
        assert_eq!(rep.makespan, secs(100.0));
        assert!(rep.total_energy_kwh > 0.0);
    }

    #[test]
    fn dam_capacity_serialises_workflows() {
        // DAM has 16 nodes; each workflow needs 4 → at most 4 concurrent,
        // even though the CM could host many more.
        let sys = presets::deep();
        let jobs: Vec<CoallocJob> = (0..6)
            .map(|i| coupled_workflow(i, SimTime::ZERO, secs(100.0)))
            .collect();
        let rep = schedule_coalloc(&sys, &jobs);
        let concurrent_at_start = rep
            .outcomes
            .iter()
            .filter(|o| o.start == SimTime::ZERO)
            .count();
        assert_eq!(concurrent_at_start, 4, "DAM fits exactly 4 workflows");
        assert_eq!(rep.makespan, secs(200.0), "remaining 2 run in a second wave");
    }

    #[test]
    fn all_parts_allocated_atomically() {
        // A CM-heavy job (40 nodes) and workflows competing for the CM:
        // the big job must eventually run, and while it does, at most
        // ⌊(50-40)/8⌋ = 1 workflow can hold CM nodes.
        let sys = presets::deep();
        let mut jobs = vec![CoallocJob {
            id: 0,
            parts: vec![PartRequest {
                kind: ModuleKind::Cluster,
                nodes: 40,
            }],
            duration: secs(50.0),
            submit: SimTime::ZERO,
        }];
        for i in 1..4 {
            jobs.push(coupled_workflow(i, secs(1.0), secs(50.0)));
        }
        let rep = schedule_coalloc(&sys, &jobs);
        // FCFS: the big job runs first; workflows queue behind capacity.
        assert_eq!(rep.outcomes[0].start, SimTime::ZERO);
        let during_big: Vec<_> = rep.outcomes[1..]
            .iter()
            .filter(|o| o.start < secs(50.0))
            .collect();
        assert!(during_big.len() <= 1, "CM capacity violated: {during_big:?}");
        // Everyone completes.
        assert_eq!(rep.outcomes.len(), 4);
    }

    #[test]
    fn workflow_submitted_at_a_release_instant_starts_then() {
        // Job 0 holds the whole 16-node DAM until t = 100 s; a workflow
        // and a second whole-DAM job both arrive at exactly t = 100 s.
        let sys = presets::deep();
        let whole_dam = |id, submit, duration| CoallocJob {
            id,
            parts: vec![PartRequest {
                kind: ModuleKind::DataAnalytics,
                nodes: 16,
            }],
            duration,
            submit,
        };
        let jobs = vec![
            whole_dam(0, SimTime::ZERO, secs(100.0)),
            coupled_workflow(1, secs(100.0), secs(50.0)),
            whole_dam(2, secs(100.0), secs(10.0)),
        ];
        let o = schedule_coalloc(&sys, &jobs).outcomes;
        assert_eq!(
            o[1].start,
            secs(100.0),
            "the workflow starts at the release"
        );
        assert_eq!(o[1].wait, SimTime::ZERO);
        assert_eq!(o[2].start, o[1].end, "job 2 waits its FIFO turn behind it");
    }

    #[test]
    #[should_panic(expected = "no Quantum module can host")]
    fn impossible_request_rejected() {
        let sys = presets::deep();
        let jobs = vec![CoallocJob {
            id: 0,
            parts: vec![PartRequest {
                kind: ModuleKind::Quantum,
                nodes: 99,
            }],
            duration: secs(1.0),
            submit: SimTime::ZERO,
        }];
        let _ = schedule_coalloc(&sys, &jobs);
    }

    #[test]
    fn fcfs_order_is_respected() {
        let sys = presets::deep();
        let jobs: Vec<CoallocJob> = (0..8)
            .map(|i| coupled_workflow(i, secs(i as f64), secs(30.0)))
            .collect();
        let rep = schedule_coalloc(&sys, &jobs);
        for w in rep.outcomes.windows(2) {
            assert!(
                w[0].start <= w[1].start,
                "FCFS violated: job {} before {}",
                w[1].id,
                w[0].id
            );
        }
    }
}
