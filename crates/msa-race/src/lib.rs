//! msa-race: an exhaustive interleaving checker with vector-clock race
//! detection for the workspace's hand-rolled concurrency primitives.
//!
//! The checker is loom-shaped: a model is an ordinary closure that
//! spawns threads and uses the instrumented [`sync`] / [`thread`]
//! types; [`explore`] runs it under a cooperative scheduler
//! that serializes the threads and enumerates interleavings
//! (depth-first with a preemption bound, or seeded random walks), one
//! schedule per run. Every instrumented operation is a choice point.
//!
//! Three analyses run on every schedule:
//! * **data races** — a vector-clock happens-before relation built from
//!   mutex, condvar, atomic (per the C11 ordering actually used),
//!   spawn, and join edges; conflicting [`sync::RaceCell`] accesses not
//!   ordered by it are reported with both access sites;
//! * **lost wakeups / deadlocks** — when every live thread is blocked,
//!   the blocked-on graph is classified into a lock/join cycle or a
//!   condvar wait that nobody will notify (including the
//!   notify-fired-before-wait shape);
//! * **panics** — assertion failures inside the model are reported with
//!   the interleaving that caused them.
//!
//! Failures carry the full schedule trace ([`Failure::trace`]) and the
//! choice sequence ([`Failure::schedule`]) so a report is replayable by
//! eye. Real builds never see any of this: production code reaches
//! these types only through the `msa-sync` facade, which re-exports
//! `std::sync` unless built with `--cfg msa_check`.
//!
//! Models of the workspace's actual protocols (pool task lifecycle,
//! channel + slab credit pool, batch-prefetch ring) live in [`models`],
//! each parameterized so that both the shipped and the known-bad pre-fix
//! configurations can be checked; the harness tests assert the shipped
//! ones pass and the pre-fix ones are *found*.

mod clock;
pub(crate) mod sched;

pub mod models;
pub mod report;
pub mod sync;
pub mod thread;

pub use report::{render_trace, Failure, FailureKind, Stats, TraceEvent};
pub use sched::{explore, Mode, Options};
