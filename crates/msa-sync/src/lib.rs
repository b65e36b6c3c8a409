//! msa-sync: the synchronization facade the workspace's concurrent code
//! imports instead of `std::sync`.
//!
//! In a normal build this crate is nothing but `pub use` of the real
//! std types — zero wrappers, zero overhead, and the facade-purity test
//! in `tests/race_checker.rs` pins that down. Built with
//! `RUSTFLAGS="--cfg msa_check"`, the same paths resolve to the
//! instrumented types from `msa-race`, so the *real* pool, channel and
//! prefetch-ring code (not just models of it) can run under the
//! interleaving checker. There are no spin hints: no shipped code spins. The instrumented types fall back to real std behavior when
//! no model is active, so an `msa_check` build still runs its ordinary
//! test suite correctly.
//!
//! Import rules are enforced by `msa-lint` (`raw-sync` rule):
//! `shims/rayon` and `crates/msa-net` must not import
//! `std::sync::{Mutex, Condvar}` or `std::sync::atomic` directly.

#[cfg(not(msa_check))]
mod backend {
    pub use std::sync::{Arc, Condvar, LockResult, Mutex, MutexGuard, Once, OnceLock, PoisonError};

    pub mod atomic {
        pub use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
    }
}

#[cfg(msa_check)]
mod backend {
    pub use msa_race::sync::{Condvar, Mutex, MutexGuard};
    pub use std::sync::{Arc, LockResult, Once, OnceLock, PoisonError};

    pub mod atomic {
        pub use msa_race::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
    }
}

pub use backend::*;

// Keep the dependency referenced in both configurations so the
// always-on dep does not trip `unused_crate_dependencies`-style tooling
// in plain builds.
#[cfg(not(msa_check))]
use msa_race as _;
