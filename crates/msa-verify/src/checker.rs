//! A bounded-buffer model checker for collective communication
//! schedules.
//!
//! [`TraceComm`] implements [`msa_net::PointToPoint`], but instead of a
//! production transport it runs the schedule against an instrumented
//! channel model with a chosen per-channel buffer [`Capacity`]:
//!
//! * `Unbounded` — the eager-send model (send never blocks);
//! * `Bounded(k)` — sends block once `k` messages are in flight on one
//!   (sender → receiver) channel, modelling an MPI implementation with a
//!   finite eager buffer (`ThreadComm` gives every channel `Bounded(2)`);
//! * `Bounded(0)` — rendezvous semantics: a send completes only when the
//!   receiver has posted the matching receive (MPI synchronous mode).
//!
//! While the schedule runs, every rank's sends/receives are logged, and
//! a global wait-state tracker detects the moment no rank can make
//! progress. The checker then reconstructs the wait-for cycle (or the
//! dead chain ending at a terminated rank), aborts all ranks, and
//! reports it via [`CheckFailure::Deadlock`] — turning the "one
//! buffered message per channel suffices" doc-comment claim in
//! `msa-net/src/collectives.rs` into an executable theorem checked by
//! `crates/msa-verify/tests/collective_schedules.rs`.
//!
//! Because detection triggers exactly when all live ranks are blocked
//! and none is runnable, no timeouts are involved: verification is exact
//! for a given (schedule, rank count, capacity) triple, and a passing
//! run also certifies that every message sent was received (channels
//! drain), message sizes were consistent (the collectives' own internal
//! assertions run against the recorded sizes), and all ranks executed
//! the same sequence of collective phases (see [`TraceComm::mark`]).

use msa_net::PointToPoint;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

/// Marker used for the internal "deadlock detected, unwind this rank"
/// panic; never surfaced as a user-visible violation.
const ABORT_MARKER: &str = "msa-verify-abort";

/// Thread-name prefix for rank threads; the quiet panic hook suppresses
/// panic output from threads carrying it.
const RANK_THREAD_PREFIX: &str = "msa-verify-rank-";

/// Per-channel buffer model under which the schedule is replayed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Capacity {
    /// Eager sends with unlimited buffering.
    Unbounded,
    /// At most `k` in-flight messages per (sender, receiver) channel;
    /// `Bounded(0)` means rendezvous (synchronous-send) semantics.
    Bounded(usize),
}

impl std::fmt::Display for Capacity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Capacity::Unbounded => write!(f, "unbounded"),
            Capacity::Bounded(0) => write!(f, "rendezvous"),
            Capacity::Bounded(k) => write!(f, "bounded({k})"),
        }
    }
}

/// What a rank is currently blocked on (or Running / Done).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Wait {
    Running,
    RecvFrom(usize),
    SendTo(usize),
    Done,
}

/// One edge of a wait-for chain: `rank` cannot progress until `on` acts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitEdge {
    pub rank: usize,
    pub kind: WaitKind,
    pub on: usize,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitKind {
    Recv,
    Send,
}

/// A detected deadlock: either a proper cycle of waiting ranks, or a
/// chain ending at a rank that already terminated (and therefore will
/// never satisfy the wait).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeadlockReport {
    /// The offending wait-for edges, in order. For `is_cycle`, the last
    /// edge points back at the first edge's rank.
    pub path: Vec<WaitEdge>,
    pub is_cycle: bool,
    /// Number of ranks blocked at detection time.
    pub blocked_ranks: usize,
}

impl std::fmt::Display for DeadlockReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_cycle {
            write!(f, "cyclic wait among {} blocked ranks: ", self.blocked_ranks)?;
        } else {
            write!(
                f,
                "dead wait chain ({} blocked ranks) ending at a terminated rank: ",
                self.blocked_ranks
            )?;
        }
        for (i, e) in self.path.iter().enumerate() {
            if i > 0 {
                write!(f, " -> ")?;
            }
            match e.kind {
                WaitKind::Recv => write!(f, "rank {} awaits a message from {}", e.rank, e.on)?,
                WaitKind::Send => write!(f, "rank {} awaits buffer space toward {}", e.rank, e.on)?,
            }
        }
        if self.is_cycle {
            if let Some(first) = self.path.first() {
                write!(f, " -> back to rank {}", first.rank)?;
            }
        }
        Ok(())
    }
}

/// A non-deadlock protocol violation found after the run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// A rank's schedule panicked (e.g. a message-size assertion inside
    /// the collective fired).
    RankPanicked { rank: usize, message: String },
    /// Messages were sent on (from → to) that no receive ever consumed.
    UnconsumedMessages { from: usize, to: usize, count: usize },
    /// Ranks disagreed on the sequence of collective phases executed.
    MarkMismatch {
        rank: usize,
        expected: Vec<String>,
        found: Vec<String>,
    },
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Violation::RankPanicked { rank, message } => {
                write!(f, "rank {rank} panicked: {message}")
            }
            Violation::UnconsumedMessages { from, to, count } => write!(
                f,
                "{count} message(s) from rank {from} to rank {to} were never received"
            ),
            Violation::MarkMismatch { rank, expected, found } => write!(
                f,
                "rank {rank} executed collective sequence {found:?}, rank 0 executed {expected:?}"
            ),
        }
    }
}

/// Why a schedule failed verification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckFailure {
    Deadlock(DeadlockReport),
    Violations(Vec<Violation>),
}

impl std::fmt::Display for CheckFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckFailure::Deadlock(d) => write!(f, "deadlock: {d}"),
            CheckFailure::Violations(vs) => {
                write!(f, "{} violation(s):", vs.len())?;
                for v in vs {
                    write!(f, "\n  {v}")?;
                }
                Ok(())
            }
        }
    }
}

/// Statistics of a successfully verified schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduleReport {
    pub ranks: usize,
    pub capacity: Capacity,
    /// Total messages delivered across all channels.
    pub messages: u64,
    /// Total f32 payload elements moved.
    pub floats: u64,
    /// Highest number of in-flight messages observed on any single
    /// channel — a lower bound certificate for the eager-buffer depth
    /// the schedule can require.
    pub peak_queue_depth: usize,
    /// The collective-phase sequence (identical on every rank).
    pub marks: Vec<String>,
}

#[derive(Default)]
struct RankLog {
    marks: Vec<String>,
    sends: u64,
    recvs: u64,
    floats: u64,
}

struct NetState {
    /// `chans[from * size + to]`: lengths of in-flight messages.
    chans: Vec<VecDeque<usize>>,
    wait: Vec<Wait>,
    deadlock: Option<DeadlockReport>,
    logs: Vec<RankLog>,
    peak_queue_depth: usize,
}

struct ModelNet {
    size: usize,
    capacity: Capacity,
    state: Mutex<NetState>,
    ready: Condvar,
}

impl ModelNet {
    fn new(size: usize, capacity: Capacity) -> Self {
        ModelNet {
            size,
            capacity,
            state: Mutex::new(NetState {
                chans: (0..size * size).map(|_| VecDeque::new()).collect(),
                wait: vec![Wait::Running; size],
                deadlock: None,
                logs: (0..size).map(|_| RankLog::default()).collect(),
                peak_queue_depth: 0,
            }),
            ready: Condvar::new(),
        }
    }

    /// Locks the shared state, recovering from poison: a rank panicking
    /// mid-operation must not take the checker down with it.
    fn lock(&self) -> MutexGuard<'_, NetState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn wait_on<'a>(&self, guard: MutexGuard<'a, NetState>) -> MutexGuard<'a, NetState> {
        self.ready
            .wait(guard)
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Returns true if `rank` (currently in wait state `w`) could make
    /// progress right now.
    fn runnable(&self, st: &NetState, rank: usize, w: Wait) -> bool {
        match w {
            Wait::Running | Wait::Done => true,
            Wait::RecvFrom(s) => !st.chans[s * self.size + rank].is_empty(),
            Wait::SendTo(t) => {
                let ch = rank * self.size + t;
                match self.capacity {
                    Capacity::Unbounded => true,
                    Capacity::Bounded(0) => {
                        st.wait[t] == Wait::RecvFrom(rank) && st.chans[ch].is_empty()
                    }
                    Capacity::Bounded(k) => st.chans[ch].len() < k,
                }
            }
        }
    }

    /// Global progress check. Must be called with the caller's own wait
    /// state already recorded in `st.wait`. If no live rank can make
    /// progress, records the wait-for diagnosis and wakes everyone.
    fn detect_deadlock(&self, st: &mut NetState) {
        if st.deadlock.is_some() {
            return;
        }
        let mut blocked = 0usize;
        let mut first_blocked = None;
        for r in 0..self.size {
            let w = st.wait[r];
            if w == Wait::Done {
                continue;
            }
            if self.runnable(st, r, w) {
                return; // someone can still move; not a deadlock (yet)
            }
            blocked += 1;
            if first_blocked.is_none() {
                first_blocked = Some(r);
            }
        }
        let Some(start) = first_blocked else {
            return; // everyone finished cleanly
        };

        // Follow wait-for edges from an arbitrary blocked rank until we
        // revisit a rank (cycle) or hit a terminated rank (dead chain).
        let mut path: Vec<WaitEdge> = Vec::new();
        let mut pos = vec![usize::MAX; self.size];
        let mut cur = start;
        let report = loop {
            let (kind, on) = match st.wait[cur] {
                Wait::RecvFrom(s) => (WaitKind::Recv, s),
                Wait::SendTo(t) => (WaitKind::Send, t),
                // Unreachable given the scan above; treat defensively as
                // a zero-length chain.
                Wait::Running | Wait::Done => {
                    break DeadlockReport {
                        path,
                        is_cycle: false,
                        blocked_ranks: blocked,
                    }
                }
            };
            pos[cur] = path.len();
            path.push(WaitEdge { rank: cur, kind, on });
            if st.wait[on] == Wait::Done {
                break DeadlockReport {
                    path,
                    is_cycle: false,
                    blocked_ranks: blocked,
                };
            }
            if pos[on] != usize::MAX {
                break DeadlockReport {
                    path: path.split_off(pos[on]),
                    is_cycle: true,
                    blocked_ranks: blocked,
                };
            }
            cur = on;
        };
        st.deadlock = Some(report);
        self.ready.notify_all();
    }
}

/// A recording endpoint: plugs into any code written against
/// [`PointToPoint`] and replays it under the checker's channel model.
pub struct TraceComm {
    rank: usize,
    size: usize,
    net: Arc<ModelNet>,
}

impl TraceComm {
    /// Records a named collective phase boundary; the checker verifies
    /// that all ranks log identical mark sequences.
    pub fn mark(&self, label: &str) {
        let mut st = self.net.lock();
        st.logs[self.rank].marks.push(label.to_string());
    }

    fn abort(&self) -> ! {
        panic!("{ABORT_MARKER}: rank {} unwound after deadlock detection", self.rank);
    }
}

impl PointToPoint for TraceComm {
    fn rank(&self) -> usize {
        self.rank
    }

    fn size(&self) -> usize {
        self.size
    }

    /// Payload values are irrelevant to schedule structure; only the
    /// length is recorded. `fill` runs before the send blocks: it never
    /// communicates, so where it runs does not change the schedule.
    fn send_with(&self, to: usize, len: usize, fill: impl FnOnce(&mut [f32])) {
        assert!(to < self.size && to != self.rank, "invalid peer {to}");
        fill(&mut vec![0.0; len]);
        let ch = self.rank * self.size + to;
        let mut st = self.net.lock();
        loop {
            if st.deadlock.is_some() {
                drop(st);
                self.abort();
            }
            let can_send = match self.net.capacity {
                Capacity::Unbounded => true,
                Capacity::Bounded(0) => {
                    st.wait[to] == Wait::RecvFrom(self.rank) && st.chans[ch].is_empty()
                }
                Capacity::Bounded(k) => st.chans[ch].len() < k,
            };
            if can_send {
                break;
            }
            st.wait[self.rank] = Wait::SendTo(to);
            self.net.detect_deadlock(&mut st);
            if st.deadlock.is_some() {
                drop(st);
                self.abort();
            }
            st = self.net.wait_on(st);
        }
        st.wait[self.rank] = Wait::Running;
        st.chans[ch].push_back(len);
        let depth = st.chans[ch].len();
        st.peak_queue_depth = st.peak_queue_depth.max(depth);
        st.logs[self.rank].sends += 1;
        st.logs[self.rank].floats += len as u64;
        self.net.ready.notify_all();
    }

    /// Lends a zero payload of the recorded length (the collectives' own
    /// size assertions run against it), with the net unlocked so `read`
    /// may send.
    fn recv_with<R>(&self, from: usize, read: impl FnOnce(&[f32]) -> R) -> R {
        assert!(from < self.size && from != self.rank, "invalid peer {from}");
        let ch = from * self.size + self.rank;
        let mut st = self.net.lock();
        loop {
            if st.deadlock.is_some() {
                drop(st);
                self.abort();
            }
            if let Some(len) = st.chans[ch].pop_front() {
                st.wait[self.rank] = Wait::Running;
                st.logs[self.rank].recvs += 1;
                self.net.ready.notify_all();
                drop(st);
                return read(&vec![0.0; len]);
            }
            st.wait[self.rank] = Wait::RecvFrom(from);
            // Registering as a receiver can *unblock a sender*: under
            // rendezvous capacity a SendTo(us) becomes runnable the
            // moment our RecvFrom lands in the wait table. That sender
            // may already be parked on the condvar, so wake the net
            // before sleeping or the handoff is a lost wakeup and both
            // sides sleep forever.
            self.net.ready.notify_all();
            self.net.detect_deadlock(&mut st);
            if st.deadlock.is_some() {
                drop(st);
                self.abort();
            }
            st = self.net.wait_on(st);
        }
    }
}

/// Installs (once per process) a panic hook that silences panic output
/// from checker rank threads; their panics are captured and reported
/// through [`CheckFailure`] instead.
fn install_quiet_panic_hook() {
    static HOOK: OnceLock<()> = OnceLock::new();
    HOOK.get_or_init(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let quiet = std::thread::current()
                .name()
                .is_some_and(|n| n.starts_with(RANK_THREAD_PREFIX));
            if !quiet {
                previous(info);
            }
        }));
    });
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Verifies one collective schedule: runs `f` on every rank of a
/// `p`-way [`TraceComm`] under the given buffer model and checks that
/// (a) every send is matched by a receive, (b) no rank blocks forever
/// (deadlocks are reported with the offending wait-for cycle), and
/// (c) all ranks terminate having logged the same collective sequence.
pub fn check_schedule<F>(p: usize, capacity: Capacity, f: F) -> Result<ScheduleReport, CheckFailure>
where
    F: Fn(&TraceComm) + Sync,
{
    assert!(p >= 1, "schedule needs at least one rank");
    install_quiet_panic_hook();
    let net = Arc::new(ModelNet::new(p, capacity));
    let mut rank_panics: Vec<(usize, String)> = Vec::new();

    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(p);
        for rank in 0..p {
            let tc = TraceComm {
                rank,
                size: p,
                net: Arc::clone(&net),
            };
            let f = &f;
            let builder = std::thread::Builder::new()
                .name(format!("{RANK_THREAD_PREFIX}{rank}"))
                .stack_size(4 << 20);
            let handle = builder.spawn_scoped(scope, move || {
                let outcome = catch_unwind(AssertUnwindSafe(|| f(&tc)));
                let mut st = tc.net.lock();
                st.wait[rank] = Wait::Done;
                // A rank finishing can strand peers that still wait on
                // it; give detection a chance and wake everyone.
                tc.net.detect_deadlock(&mut st);
                drop(st);
                tc.net.ready.notify_all();
                match outcome {
                    Ok(()) => None,
                    Err(payload) => Some(panic_message(payload.as_ref())),
                }
            });
            match handle {
                Ok(h) => handles.push((rank, h)),
                Err(e) => panic!("failed to spawn checker rank thread: {e}"),
            }
        }
        for (rank, h) in handles {
            match h.join() {
                Ok(Some(msg)) if !msg.starts_with(ABORT_MARKER) => rank_panics.push((rank, msg)),
                Ok(_) => {}
                Err(payload) => rank_panics.push((rank, panic_message(payload.as_ref()))),
            }
        }
    });

    let st = net.lock();
    // Root cause first: a rank that panicked (e.g. on a message-size
    // assertion) usually strands its peers into a *secondary* deadlock;
    // report the panic, not the symptom.
    if !rank_panics.is_empty() {
        return Err(CheckFailure::Violations(
            rank_panics
                .into_iter()
                .map(|(rank, message)| Violation::RankPanicked { rank, message })
                .collect(),
        ));
    }
    if let Some(d) = &st.deadlock {
        return Err(CheckFailure::Deadlock(d.clone()));
    }

    let mut violations: Vec<Violation> = Vec::new();
    for from in 0..p {
        for to in 0..p {
            let n = st.chans[from * p + to].len();
            if n > 0 {
                violations.push(Violation::UnconsumedMessages { from, to, count: n });
            }
        }
    }
    let expected = st.logs[0].marks.clone();
    for (rank, log) in st.logs.iter().enumerate().skip(1) {
        if log.marks != expected {
            violations.push(Violation::MarkMismatch {
                rank,
                expected: expected.clone(),
                found: log.marks.clone(),
            });
        }
    }
    if !violations.is_empty() {
        return Err(CheckFailure::Violations(violations));
    }

    Ok(ScheduleReport {
        ranks: p,
        capacity,
        messages: st.logs.iter().map(|l| l.recvs).sum(),
        floats: st.logs.iter().map(|l| l.floats).sum(),
        peak_queue_depth: st.peak_queue_depth,
        marks: expected,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use msa_net::collectives;

    #[test]
    fn ring_allreduce_verifies_under_eager_sends() {
        let report = check_schedule(5, Capacity::Unbounded, |tc| {
            tc.mark("ring_allreduce");
            let mut buf = vec![1.0f32; 13];
            collectives::ring_allreduce(tc, &mut buf);
        })
        .expect("ring allreduce must verify");
        assert_eq!(report.marks, vec!["ring_allreduce"]);
        // Reduce-scatter + allgather: 2(p-1) messages per rank.
        assert_eq!(report.messages, 5 * 2 * 4);
    }

    #[test]
    fn recv_before_send_ring_is_reported_as_a_cycle() {
        let err = check_schedule(4, Capacity::Unbounded, |tc| {
            // Deliberately broken: every rank posts its receive first,
            // so nobody ever reaches the send.
            let p = tc.size();
            let left = (tc.rank() + p - 1) % p;
            let right = (tc.rank() + 1) % p;
            tc.recv_with(left, |m| tc.send_from(right, m));
        })
        .expect_err("recv-first ring must deadlock");
        match err {
            CheckFailure::Deadlock(d) => {
                assert!(d.is_cycle, "expected a cycle, got {d}");
                assert_eq!(d.blocked_ranks, 4);
                assert_eq!(d.path.len(), 4, "cycle must cover all ranks: {d}");
                assert!(d.path.iter().all(|e| e.kind == WaitKind::Recv));
            }
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn rendezvous_sends_deadlock_the_eager_ring_schedule() {
        // Under synchronous-send semantics the ring's send-then-recv
        // schedule forms a send cycle: the buffering assumption in the
        // collectives' doc comment is load-bearing, and the checker
        // proves it.
        let err = check_schedule(3, Capacity::Bounded(0), |tc| {
            let mut buf = vec![1.0f32; 6];
            collectives::ring_allreduce(tc, &mut buf);
        })
        .expect_err("rendezvous ring must deadlock");
        match err {
            CheckFailure::Deadlock(d) => {
                assert!(d.is_cycle);
                assert!(d.path.iter().all(|e| e.kind == WaitKind::Send), "{d}");
            }
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn rendezvous_handoff_completes_when_the_sender_blocks_first() {
        // Regression: a sender that parks on a zero-capacity channel
        // *before* the receiver posts its recv must be woken by that
        // recv's registration. (The recv's wait-table entry is what
        // makes the sender runnable under rendezvous; without a notify
        // there, the handoff was a lost wakeup and both sides hung.)
        let report = check_schedule(2, Capacity::Bounded(0), |tc| {
            if tc.rank() == 0 {
                tc.send_from(1, &[1.0, 2.0, 3.0]);
            } else {
                // Arrive demonstrably after the sender has parked.
                std::thread::sleep(std::time::Duration::from_millis(50));
                assert_eq!(tc.recv_with(0, <[f32]>::len), 3);
            }
        })
        .expect("rendezvous handoff must complete");
        assert_eq!(report.messages, 1);
    }

    #[test]
    fn early_exit_rank_is_reported_as_dead_chain() {
        let err = check_schedule(3, Capacity::Unbounded, |tc| {
            if tc.rank() == 2 {
                return; // skips the barrier everyone else enters
            }
            collectives::dissemination_barrier(tc);
        })
        .expect_err("missing participant must strand the barrier");
        match err {
            CheckFailure::Deadlock(d) => {
                assert!(!d.is_cycle, "chain must end at terminated rank 2: {d}");
                assert_eq!(d.path.last().map(|e| e.on), Some(2));
            }
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn unmatched_send_is_a_violation() {
        let err = check_schedule(2, Capacity::Unbounded, |tc| {
            if tc.rank() == 0 {
                tc.send_from(1, &[1.0, 2.0]);
            }
            // Rank 1 never receives.
        })
        .expect_err("stray message must be flagged");
        match err {
            CheckFailure::Violations(vs) => {
                assert!(vs
                    .iter()
                    .any(|v| matches!(v, Violation::UnconsumedMessages { from: 0, to: 1, count: 1 })));
            }
            other => panic!("expected violations, got {other:?}"),
        }
    }

    #[test]
    fn divergent_mark_sequences_are_flagged() {
        let err = check_schedule(2, Capacity::Unbounded, |tc| {
            if tc.rank() == 0 {
                tc.mark("phase-a");
            } else {
                tc.mark("phase-b");
            }
        })
        .expect_err("marks must agree");
        match err {
            CheckFailure::Violations(vs) => {
                assert!(vs.iter().any(|v| matches!(v, Violation::MarkMismatch { rank: 1, .. })));
            }
            other => panic!("expected violations, got {other:?}"),
        }
    }

    #[test]
    fn single_rank_schedules_are_trivially_clean() {
        let report = check_schedule(1, Capacity::Bounded(0), |tc| {
            let mut buf = vec![1.0f32; 4];
            collectives::ring_allreduce(tc, &mut buf);
            collectives::dissemination_barrier(tc);
        })
        .expect("p=1 has no communication");
        assert_eq!(report.messages, 0);
    }

    #[test]
    fn size_mismatch_panics_surface_as_violations() {
        let err = check_schedule(2, Capacity::Unbounded, |tc| {
            // A hand-rolled broken exchange: rank 0 sends 3 floats but
            // rank 1's schedule copies into a 5-element buffer.
            if tc.rank() == 0 {
                tc.send_from(1, &[0.0; 3]);
                tc.recv_with(1, |_| ());
            } else {
                let mut buf = [0.0f32; 5];
                tc.recv_into(0, &mut buf); // panics: 3 != 5
                tc.send_from(0, &buf);
            }
        })
        .expect_err("size mismatch must be caught");
        match err {
            CheckFailure::Violations(vs) => {
                assert!(vs.iter().any(|v| matches!(v, Violation::RankPanicked { rank: 1, .. })), "{vs:?}");
            }
            CheckFailure::Deadlock(d) => panic!("expected panic violation, got deadlock {d}"),
        }
    }
}
