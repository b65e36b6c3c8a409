//! msa-race: an exhaustive interleaving checker with vector-clock race
//! detection for the workspace's hand-rolled concurrency primitives.
//!
//! The checker is loom-shaped: a model is an ordinary closure that
//! spawns threads and uses the instrumented [`sync`] / [`thread`]
//! types; [`explore`] runs it under a cooperative scheduler that
//! serializes the threads and enumerates interleavings, one schedule
//! per run. Every instrumented operation (lock, unlock, condvar
//! wait/notify, atomic access, [`sync::RaceCell`] access, spawn, join)
//! is a choice point. Exhaustive mode is CHESS-style iterative DFS
//! under a preemption bound (Musuvathi et al., OSDI 2008: bugs need
//! few preemptions, and the bound collapses the space);
//! [`Options::random`] is a seeded random walk for larger spaces. Both
//! are deterministic, so a failing schedule replays exactly.
//!
//! Three analyses run on every schedule:
//! * **data races** — a vector-clock happens-before relation built from
//!   mutex, condvar, spawn and join edges and from atomics per the C11
//!   ordering actually used (an acquiring load/RMW joins the location's
//!   clock, a releasing store replaces it, a relaxed store clears it, a
//!   releasing RMW accumulates into it; `SeqCst` counts as its
//!   acquire/release half, which is only stricter); conflicting
//!   [`sync::RaceCell`] accesses it does not order are reported with
//!   both access sites;
//! * **lost wakeups / deadlocks** — when every live thread is blocked,
//!   the blocked-on graph is classified into a lock/join cycle or a
//!   condvar wait that nobody will notify (including the
//!   notify-fired-before-wait shape);
//! * **panics** — assertion failures inside the model are reported with
//!   the interleaving that caused them.
//!
//! Failures carry the full schedule trace ([`Failure::trace`]) and the
//! choice sequence ([`Failure::schedule`]). There is no spin support:
//! no shipped code spins, and a model that busy-waits runs into
//! [`Options::max_steps`].
//!
//! **The shipped code is what gets checked.** Production code reaches
//! these types only through the `msa-sync` facade, which re-exports
//! `std` unless the whole build sets `RUSTFLAGS="--cfg msa_check"`.
//! Under that cfg the real pool task (`shims/rayon/src/pool.rs`), the
//! `ThreadComm` credit ring over the channel shim and
//! `data::stream::with_prefetch` run inside [`explore`]; their
//! producer and rank threads spawn through [`thread::scope`]. Those
//! checks live beside the pool and in `tests/real_primitives.rs`, and
//! CI runs them in one instrumented step. Pure counters stay on `std`'s
//! atomics (`msa_net::CommStats`): nothing branches on them, so their
//! operations would only multiply schedules that order nothing. The failure classes the
//! checker must keep finding (the pool's old `Release` done-counter,
//! notifies fired outside the lock a waiter checks under, relaxed
//! publication) are pinned as minimal litmus models in
//! `tests/harnesses.rs`, which run in every plain build.

mod clock;
pub(crate) mod sched;

pub mod report;
pub mod sync;
pub mod thread;

pub use report::{render_trace, Failure, FailureKind, Stats, TraceEvent};
pub use sched::{explore, Mode, Options};
