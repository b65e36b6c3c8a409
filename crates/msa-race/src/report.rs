//! Failure reports: what the explorer hands back when a schedule goes
//! wrong, including the full trace replay of the offending schedule.
//!
//! These types are shared with `msa-verify`, whose rank-level schedule
//! checker renders its deadlock diagnostics through the same
//! [`TraceEvent`]/[`render_trace`] machinery so both checkers print in
//! one format.

use std::fmt;

/// One instrumented operation executed by the failing schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// 1-based position in the serialized execution.
    pub step: usize,
    /// Model thread id (`0` is the thread that entered `explore`).
    pub thread: usize,
    /// Human-readable operation, e.g. `lock(queue)`.
    pub what: String,
}

/// One side of a data race.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Access {
    pub thread: usize,
    /// `true` for a write, `false` for a read.
    pub is_write: bool,
}

impl fmt::Display for Access {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} by t{}",
            if self.is_write { "write" } else { "read" },
            self.thread
        )
    }
}

/// Why a schedule failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FailureKind {
    /// Two accesses to the same non-atomic location with no
    /// happens-before edge between them.
    DataRace {
        /// Label of the racing `RaceCell`.
        object: String,
        /// The earlier access (by vector-clock epoch).
        prior: Access,
        /// The access that observed the race.
        current: Access,
    },
    /// Threads blocked on locks/joins with no runnable thread left.
    Deadlock {
        /// Blocked-thread descriptions; a cycle when `is_cycle`.
        chain: Vec<String>,
        is_cycle: bool,
    },
    /// Condvar waiters left with no thread that could ever notify them.
    LostWakeup {
        /// Descriptions of the stranded waiters.
        waiting: Vec<String>,
        /// Where the wakeup went missing (e.g. a notify that fired
        /// before any thread was waiting).
        note: String,
    },
    /// A model thread panicked (assertion failure inside the model).
    Panic { thread: usize, message: String },
    /// A single schedule exceeded `Options::max_steps` — almost always
    /// an uninstrumented busy-wait in the model.
    DepthExceeded { steps: usize },
}

impl fmt::Display for FailureKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FailureKind::DataRace {
                object,
                prior,
                current,
            } => write!(
                f,
                "data race on {object}: {current} is unordered with earlier {prior}"
            ),
            FailureKind::Deadlock { chain, is_cycle } => {
                if *is_cycle {
                    write!(f, "deadlock cycle: {}", chain.join(" -> "))
                } else {
                    write!(f, "deadlock: {}", chain.join("; "))
                }
            }
            FailureKind::LostWakeup { waiting, note } => {
                write!(f, "lost wakeup: {} ({note})", waiting.join("; "))
            }
            FailureKind::Panic { thread, message } => {
                write!(f, "model thread t{thread} panicked: {message}")
            }
            FailureKind::DepthExceeded { steps } => {
                write!(f, "schedule exceeded max_steps ({steps} instrumented ops)")
            }
        }
    }
}

/// A failing exploration: the kind, the exact schedule that produced it
/// (choice indices, replayable), and the per-op trace of that schedule.
#[derive(Debug, Clone)]
pub struct Failure {
    pub kind: FailureKind,
    /// Every instrumented op of the failing schedule, in order.
    pub trace: Vec<TraceEvent>,
    /// Scheduler choice indices; feeding these back reproduces the
    /// schedule exactly.
    pub schedule: Vec<usize>,
    /// Schedules explored before (and including) the failing one.
    pub schedules_explored: u64,
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "schedule exploration failed after {} schedule(s): {}",
            self.schedules_explored, self.kind
        )?;
        writeln!(f, "schedule (choice indices): {:?}", self.schedule)?;
        writeln!(f, "trace replay:")?;
        f.write_str(&render_trace(&self.trace))
    }
}

/// Renders a trace as aligned `#step tN op` lines, one per event.
pub fn render_trace(events: &[TraceEvent]) -> String {
    let mut out = String::new();
    for e in events {
        out.push_str(&format!("  #{:<4} t{:<3} {}\n", e.step, e.thread, e.what));
    }
    out
}

/// A clean exploration: how much of the space was covered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stats {
    /// Schedules executed.
    pub schedules: u64,
    /// `true` when exploration stopped at `Options::max_schedules`
    /// rather than exhausting the (bounded) space.
    pub truncated: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_renders_one_line_per_event() {
        let t = vec![
            TraceEvent {
                step: 1,
                thread: 0,
                what: "lock(q)".to_string(),
            },
            TraceEvent {
                step: 2,
                thread: 1,
                what: "notify(ready) — no waiter".to_string(),
            },
        ];
        let s = render_trace(&t);
        assert_eq!(s.lines().count(), 2);
        assert!(s.contains("t0"));
        assert!(s.contains("notify(ready)"));
    }

    #[test]
    fn failure_display_includes_schedule_and_trace() {
        let f = Failure {
            kind: FailureKind::LostWakeup {
                waiting: vec!["t1 waiting on condvar(ready)".to_string()],
                note: "notify at step 3 found no waiting thread".to_string(),
            },
            trace: vec![TraceEvent {
                step: 1,
                thread: 1,
                what: "wait(ready)".to_string(),
            }],
            schedule: vec![0, 1, 0],
            schedules_explored: 7,
        };
        let s = f.to_string();
        assert!(s.contains("lost wakeup"));
        assert!(s.contains("[0, 1, 0]"));
        assert!(s.contains("trace replay"));
    }
}
