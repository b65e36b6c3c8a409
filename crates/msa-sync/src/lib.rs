//! msa-sync: the synchronization facade the workspace's concurrent code
//! imports instead of `std::sync` and `std::thread::scope`.
//!
//! In a normal build this crate is nothing but `pub use` of the real
//! std items — zero wrappers, zero overhead, which the `facade_purity`
//! tests pin down. Built with `RUSTFLAGS="--cfg msa_check"` (a cfg, not
//! a feature, so the whole dependency graph flips at once), the same
//! paths resolve to the instrumented types and [`thread::scope`] from
//! `msa-race`, so the *shipped* pool, channel, credit ring and prefetch
//! ring run under the interleaving checker. The instrumented types fall
//! back to real std behavior on any thread outside a model, so an
//! `msa_check` build still runs its ordinary test suite. There are no
//! spin hints: no shipped code spins.
//!
//! Import rules are enforced by `msa-lint`'s `raw-sync` rule: in
//! `shims/rayon`, `shims/crossbeam`, `msa-net` and `data`, a direct
//! `std::sync::{Mutex, Condvar}`, `std::sync::atomic` or
//! `std::thread::scope` would be invisible to the checker, so they come
//! from here. Its `ordering-audit` rule makes every `Relaxed`/`AcqRel`
//! outside the checked sync cores justify itself.

#[cfg(not(msa_check))]
mod backend {
    pub use std::sync::{Arc, Condvar, LockResult, Mutex, MutexGuard, Once, OnceLock, PoisonError};

    pub mod atomic {
        pub use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
    }

    pub mod thread {
        pub use std::thread::scope;
    }
}

#[cfg(msa_check)]
mod backend {
    pub use msa_race::sync::{Condvar, Mutex, MutexGuard};
    pub use std::sync::{Arc, LockResult, Once, OnceLock, PoisonError};

    pub mod atomic {
        pub use msa_race::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
    }

    pub mod thread {
        pub use msa_race::thread::scope;
    }
}

pub use backend::*;

// Keep the dependency referenced in both configurations so the
// always-on dep does not trip `unused_crate_dependencies`-style tooling
// in plain builds.
#[cfg(not(msa_check))]
use msa_race as _;

#[cfg(test)]
#[cfg(not(msa_check))]
mod facade_purity {
    use std::any::TypeId;

    #[test]
    fn msa_sync_types_are_std_types_in_plain_builds() {
        assert_eq!(
            TypeId::of::<crate::Mutex<u8>>(),
            TypeId::of::<std::sync::Mutex<u8>>(),
            "msa_sync::Mutex must be a re-export, not a wrapper"
        );
        assert_eq!(TypeId::of::<crate::Condvar>(), TypeId::of::<std::sync::Condvar>());
        assert_eq!(
            TypeId::of::<crate::atomic::AtomicUsize>(),
            TypeId::of::<std::sync::atomic::AtomicUsize>(),
        );
        assert_eq!(
            TypeId::of::<crate::atomic::AtomicU64>(),
            TypeId::of::<std::sync::atomic::AtomicU64>(),
        );
        assert_eq!(
            TypeId::of::<crate::atomic::AtomicBool>(),
            TypeId::of::<std::sync::atomic::AtomicBool>(),
        );
    }

    #[test]
    fn msa_sync_types_add_no_size() {
        assert_eq!(
            std::mem::size_of::<crate::Mutex<u64>>(),
            std::mem::size_of::<std::sync::Mutex<u64>>(),
        );
        assert_eq!(
            std::mem::size_of::<crate::atomic::AtomicUsize>(),
            std::mem::size_of::<usize>(),
        );
    }
}
