//! Dynamic batching as a deterministic discrete-event queue.
//!
//! One model endpoint is a single server: requests queue up, and the
//! server launches a batch when either (a) `max_batch` requests are
//! waiting, or (b) the oldest waiting request has been queued for
//! `max_delay`. Batch service time is priced by a caller-supplied
//! `service(k)` function (see `server.rs` for the module-hardware
//! pricing); admission control sheds requests whose predicted queue wait
//! exceeds the SLO *before* they enter the queue, which bounds the
//! latency of everything that is admitted.
//!
//! The engine is a pure function of the arrival stream and the policy —
//! no wall clock, no threads — so the same inputs always produce the
//! same per-request latencies, bit for bit. Event ordering ties are
//! resolved explicitly (see `run_queue`), which is what makes the
//! `max_batch = 1` path provably identical to the unbatched mirror
//! [`run_unbatched`].

use crate::arrivals::Arrival;
use msa_core::SimTime;
use msa_sched::AdmissionPolicy;
use std::collections::VecDeque;

/// Dynamic-batching policy for one endpoint.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchPolicy {
    /// Largest batch the server will launch.
    pub max_batch: usize,
    /// Longest the oldest queued request may wait before a partial
    /// batch launches anyway.
    pub max_delay: SimTime,
}

impl BatchPolicy {
    /// A policy that batches up to `max_batch` requests, holding a
    /// partial batch at most `max_delay`. Panics on a policy that fails
    /// [`BatchPolicy::check`].
    pub fn new(max_batch: usize, max_delay: SimTime) -> Self {
        let policy = BatchPolicy {
            max_batch,
            max_delay,
        };
        if let Err(why) = policy.check() {
            panic!("batch policy rejected: {why}");
        }
        policy
    }

    /// Whether [`run_queue`] can serve under this policy: a batch must
    /// hold at least one request, or the queue launches empty batches
    /// forever. The fields are public, so a struct literal skips
    /// [`BatchPolicy::new`]; `Server::run` returns the failure as
    /// `ServeError::BadPolicy`.
    pub fn check(&self) -> Result<(), &'static str> {
        if self.max_batch == 0 {
            Err("max_batch must be at least 1")
        } else {
            Ok(())
        }
    }

    /// No batching: every request is its own batch, launched as soon as
    /// the server frees up.
    pub fn none() -> Self {
        BatchPolicy::new(1, SimTime::ZERO)
    }
}

/// One launched batch (reported to the `on_batch` callback in launch
/// order).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Batch {
    /// Launch time in picoseconds.
    pub launched_at_ps: u64,
    /// Number of requests in the batch (`1..=max_batch`).
    pub size: usize,
}

/// Aggregate counters from one queue run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueOutcome {
    /// Requests that passed admission control.
    pub admitted: u64,
    /// Requests shed at the door.
    pub shed: u64,
    /// Requests that finished (equals `admitted`: the queue drains).
    pub completed: u64,
    /// Batches launched.
    pub batches: u64,
    /// Total picoseconds the server spent busy.
    pub busy_ps: u64,
    /// Completion time of the last batch, ps.
    pub last_done_ps: u64,
    /// Deepest the waiting queue ever got.
    pub max_queue_depth: usize,
    /// Sum of batch sizes (mean occupancy = this / batches).
    pub batch_occupancy_sum: u64,
}

/// Runs the dynamic-batching discrete-event queue over a sorted arrival
/// stream.
///
/// * `service_ps(k)` — batch service time for `k` requests, integer ps.
/// * `admission` + `service_rate_rps` — requests are shed on arrival
///   when the predicted wait `queue_depth / service_rate_rps` exceeds
///   the policy's SLO; `None` admits everything.
/// * `on_request(latency_ps, user)` — called once per completed request
///   in batch-launch order (FIFO within a batch).
/// * `on_batch(&Batch)` — called once per launched batch.
///
/// Tie-breaks (these define the semantics — the determinism tests and
/// the `max_batch = 1` equivalence depend on them):
/// * a **full** batch that is ready at time `t` launches before an
///   arrival at the same `t` (the batch cannot grow, so the arrival can
///   only start a new one);
/// * a **partial** batch whose delay expires at `t` yields to an
///   arrival at the same `t` (the arrival joins the batch).
///
/// Panics on a policy that fails [`BatchPolicy::check`].
pub fn run_queue(
    arrivals: &[Arrival],
    policy: &BatchPolicy,
    admission: Option<&AdmissionPolicy>,
    service_rate_rps: f64,
    mut service_ps: impl FnMut(usize) -> u64,
    mut on_request: impl FnMut(u64, u64),
    mut on_batch: impl FnMut(&Batch),
) -> QueueOutcome {
    enum Step {
        Arrive(Arrival),
        Launch(u64),
    }

    if let Err(why) = policy.check() {
        panic!("batch policy rejected: {why}");
    }
    let delay_ps = policy.max_delay.as_ps();
    let mut out = QueueOutcome::default();
    let mut queue: VecDeque<Arrival> = VecDeque::new();
    let mut pending = arrivals.iter().peekable();
    let mut now: u64 = 0;
    let mut free_at: u64 = 0;

    loop {
        // When would the current queue launch, if no further arrival
        // intervened?
        let full = queue.len() >= policy.max_batch;
        let launch_at = queue.front().map(|head| {
            let trigger = if full {
                // Batch already full: ready immediately.
                now
            } else {
                head.at_ps.saturating_add(delay_ps)
            };
            trigger.max(free_at).max(now)
        });

        let step = match (pending.peek().map(|a| **a), launch_at) {
            (None, None) => break,
            (Some(a), None) => Step::Arrive(a),
            (None, Some(t)) => Step::Launch(t),
            (Some(a), Some(t)) => {
                let arrival_first = if full { a.at_ps < t } else { a.at_ps <= t };
                if arrival_first {
                    Step::Arrive(a)
                } else {
                    Step::Launch(t)
                }
            }
        };

        match step {
            Step::Arrive(a) => {
                pending.next();
                now = now.max(a.at_ps);
                let admit = admission
                    .map(|p| p.admit(queue.len() as u64, service_rate_rps))
                    .unwrap_or(true);
                if admit {
                    out.admitted += 1;
                    queue.push_back(a);
                    out.max_queue_depth = out.max_queue_depth.max(queue.len());
                } else {
                    out.shed += 1;
                }
            }
            Step::Launch(t) => {
                now = t;
                let k = queue.len().min(policy.max_batch);
                let busy = service_ps(k);
                let done = t + busy;
                for req in queue.drain(..k) {
                    out.completed += 1;
                    on_request(done - req.at_ps, req.user);
                }
                on_batch(&Batch {
                    launched_at_ps: t,
                    size: k,
                });
                out.batches += 1;
                out.batch_occupancy_sum += k as u64;
                out.busy_ps += busy;
                out.last_done_ps = done;
                free_at = done;
            }
        }
    }
    out
}

/// The no-batching mirror: a plain FIFO single-server queue, one request
/// per service slot, written independently of the event engine above.
///
/// `run_queue` with `BatchPolicy::none()` must agree with this function
/// request-for-request (same admissions, same latencies) — the
/// workspace serving tests assert exactly that, which pins down the
/// engine's tie-break semantics.
pub fn run_unbatched(
    arrivals: &[Arrival],
    admission: Option<&AdmissionPolicy>,
    service_rate_rps: f64,
    mut service_ps: impl FnMut(usize) -> u64,
    mut on_request: impl FnMut(u64, u64),
    mut on_batch: impl FnMut(&Batch),
) -> QueueOutcome {
    let mut out = QueueOutcome::default();
    // Launch times of admitted-but-not-yet-started requests.
    let mut waiting: VecDeque<u64> = VecDeque::new();
    let mut free_at: u64 = 0;

    for a in arrivals {
        // Requests whose service has started by `a.at_ps` are no longer
        // queue backlog (strictly-earlier starts, matching the engine's
        // full-batch tie-break: a launch at exactly `a.at_ps` happens
        // first).
        while waiting.front().is_some_and(|s| *s <= a.at_ps) {
            waiting.pop_front();
        }
        let admit = admission
            .map(|p| p.admit(waiting.len() as u64, service_rate_rps))
            .unwrap_or(true);
        if !admit {
            out.shed += 1;
            continue;
        }
        out.admitted += 1;
        let start = free_at.max(a.at_ps);
        let busy = service_ps(1);
        let done = start + busy;
        waiting.push_back(start);
        out.max_queue_depth = out.max_queue_depth.max(waiting.len());
        out.completed += 1;
        on_request(done - a.at_ps, a.user);
        on_batch(&Batch {
            launched_at_ps: start,
            size: 1,
        });
        out.batches += 1;
        out.batch_occupancy_sum += 1;
        out.busy_ps += busy;
        out.last_done_ps = done;
        free_at = done;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrivals::{open_loop, OfferedLoad};

    fn at(ms: f64) -> u64 {
        (ms * 1e9) as u64
    }

    fn arrivals(ats_ms: &[f64]) -> Vec<Arrival> {
        ats_ms
            .iter()
            .enumerate()
            .map(|(i, ms)| Arrival {
                at_ps: at(*ms),
                user: i as u64,
            })
            .collect()
    }

    #[test]
    fn a_full_batch_launches_as_soon_as_it_fills() {
        // Three arrivals in 2 ms, max_batch 3 with a long delay: the
        // batch fills at t=2ms and launches there, not at head+delay.
        let arr = arrivals(&[0.0, 1.0, 2.0]);
        let policy = BatchPolicy::new(3, SimTime::from_millis(50.0));
        let mut batches = Vec::new();
        let mut lat = Vec::new();
        let out = run_queue(
            &arr,
            &policy,
            None,
            1000.0,
            |_k| at(10.0),
            |l, _u| lat.push(l),
            |b| batches.push(*b),
        );
        assert_eq!(batches, vec![Batch { launched_at_ps: at(2.0), size: 3 }]);
        // done = 2ms + 10ms; latencies = done - arrival.
        assert_eq!(lat, vec![at(12.0), at(11.0), at(10.0)]);
        assert_eq!(out.completed, 3);
        assert_eq!(out.busy_ps, at(10.0));
    }

    #[test]
    fn a_partial_batch_launches_when_the_delay_expires() {
        // One arrival, then nothing: launches at head + max_delay.
        let arr = arrivals(&[1.0]);
        let policy = BatchPolicy::new(8, SimTime::from_millis(4.0));
        let mut batches = Vec::new();
        run_queue(
            &arr,
            &policy,
            None,
            1000.0,
            |_k| at(2.0),
            |_l, _u| {},
            |b| batches.push(*b),
        );
        assert_eq!(batches, vec![Batch { launched_at_ps: at(5.0), size: 1 }]);
    }

    #[test]
    fn an_arrival_on_the_delay_boundary_joins_the_partial_batch() {
        // Head at 0, delay 4ms; second arrival at exactly 4ms joins.
        let arr = arrivals(&[0.0, 4.0]);
        let policy = BatchPolicy::new(8, SimTime::from_millis(4.0));
        let mut batches = Vec::new();
        run_queue(
            &arr,
            &policy,
            None,
            1000.0,
            |_k| at(2.0),
            |_l, _u| {},
            |b| batches.push(*b),
        );
        assert_eq!(batches, vec![Batch { launched_at_ps: at(4.0), size: 2 }]);
    }

    #[test]
    fn admission_sheds_when_the_queue_outgrows_the_slo() {
        // Service 1 rps, SLO 2 s: at most 2 requests may wait. A burst
        // of 6 simultaneous arrivals admits 3 (1 queued-then-launched
        // + 2 waiting) and sheds the rest.
        let arr = arrivals(&[0.0; 6]);
        let policy = BatchPolicy::none();
        let adm = AdmissionPolicy::new(SimTime::from_secs(2.0));
        let out = run_queue(
            &arr,
            &policy,
            Some(&adm),
            1.0,
            |_k| at(1000.0),
            |_l, _u| {},
            |_b| {},
        );
        assert_eq!(out.admitted + out.shed, 6);
        assert!(out.shed > 0, "overload must shed");
        assert_eq!(out.completed, out.admitted);
    }

    #[test]
    fn batch_of_one_equals_the_unbatched_mirror() {
        // 1200 rps against a ~909 rps server: saturated, so admission
        // must shed and the backlog logic in both paths gets exercised.
        let load = OfferedLoad::new(1200.0, SimTime::from_secs(5.0)).seed(42);
        let arr = open_loop(&load);
        let adm = AdmissionPolicy::new(SimTime::from_secs(0.05));
        let svc = |_k: usize| at(1.1);

        let mut lat_q = Vec::new();
        let out_q = run_queue(
            &arr,
            &BatchPolicy::none(),
            Some(&adm),
            1.0 / 0.0011,
            svc,
            |l, u| lat_q.push((l, u)),
            |_b| {},
        );
        let mut lat_u = Vec::new();
        let out_u = run_unbatched(
            &arr,
            Some(&adm),
            1.0 / 0.0011,
            svc,
            |l, u| lat_u.push((l, u)),
            |_b| {},
        );
        assert_eq!(lat_q, lat_u);
        assert_eq!(out_q, out_u);
        assert!(out_q.shed > 0, "this load must overload the server");
    }

    #[test]
    fn run_queue_is_deterministic() {
        let load = OfferedLoad::new(500.0, SimTime::from_secs(4.0));
        let arr = open_loop(&load);
        let policy = BatchPolicy::new(8, SimTime::from_millis(1.0));
        let run = || {
            let mut lat = Vec::new();
            let out = run_queue(
                &arr,
                &policy,
                None,
                500.0,
                |k| at(1.0) + k as u64 * at(0.2),
                |l, u| lat.push((l, u)),
                |_b| {},
            );
            (lat, out)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn larger_batches_raise_throughput_under_the_same_load() {
        // Per-request cost 1 ms + 5 ms launch overhead: batch-1 caps at
        // ~166 rps, batch-32 at ~865 rps. Offer 600 rps and admission
        // must shed far less with the bigger batch.
        let load = OfferedLoad::new(600.0, SimTime::from_secs(10.0));
        let arr = open_loop(&load);
        let svc = |k: usize| at(5.0) + k as u64 * at(1.0);
        let adm = AdmissionPolicy::interactive();
        let run = |max_batch: usize| {
            let rate = max_batch as f64 / ((5.0 + max_batch as f64) * 1e-3);
            run_queue(
                &arr,
                &BatchPolicy::new(max_batch, SimTime::from_millis(2.0)),
                Some(&adm),
                rate,
                svc,
                |_l, _u| {},
                |_b| {},
            )
        };
        let small = run(1);
        let big = run(32);
        assert!(
            big.completed > small.completed,
            "batch-32 completed {} vs batch-1 {}",
            big.completed,
            small.completed
        );
        assert!(big.batch_occupancy_sum / big.batches > 1);
    }
}
