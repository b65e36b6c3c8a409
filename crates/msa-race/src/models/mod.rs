//! Checkable models of the workspace's concurrency protocols.
//!
//! Each model is a faithful port of the protocol logic of a real
//! primitive — the pool's claim/done/finish protocol
//! (`shims/rayon/src/pool.rs`), the channel + credit-pool plumbing
//! behind the slab collectives (`shims/crossbeam`,
//! `crates/msa-net/src/thread_comm.rs`), and the batch-prefetch ring
//! (`crates/data/src/stream.rs`) — built on the instrumented
//! [`crate::sync`] types and parameterized over the knobs whose values
//! the checker is meant to audit (memory orderings, the
//! notify-under-lock fix). Harnesses run them under [`crate::explore`]
//! both in their shipped configuration (must pass) and in the known-bad
//! pre-fix configuration (must be *found* — the regression direction).

pub mod channel;
pub mod pool;
pub mod prefetch;

use crate::sync::{Condvar, Mutex, MutexGuard};
use std::sync::PoisonError;

/// Poison-tolerant lock, as used across the modeled code.
pub(crate) fn lock<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

pub(crate) fn cv_wait<'a, T>(cv: &Condvar, g: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(g).unwrap_or_else(PoisonError::into_inner)
}
