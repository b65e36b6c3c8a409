//! Workspace-level acceptance for the concurrency checker (DESIGN.md §12).
//!
//! A bounded, deterministic subset of the `msa-race` harnesses runs
//! here so the top-level suite exercises the checker end to end: the
//! shipped pool/channel protocols must explore clean, and the known
//! pre-fix bugs — the pool's `Release` done-counter and the channel's
//! unlocked disconnect notify — and a Relaxed publication store must
//! still be *found*. The full matrix (more sizes, random walks, ordering
//! mutations) lives in `crates/msa-race/tests/harnesses.rs`; this file keeps the CI cost of
//! the representative cases well under 30 seconds.
//!
//! The facade-purity tests pin down the other half of the contract: in
//! a plain build (no `--cfg msa_check`) `msa_sync` must be a zero-cost
//! re-export of `std::sync`, type-for-type.

use msa_race::models::channel::drop_last_sender_wakes_receiver;
use msa_race::models::pool::{pool_protocol, PoolConfig};
use msa_race::sync::atomic::{AtomicUsize, Ordering};
use msa_race::sync::RaceCell;
use msa_race::{explore, thread, FailureKind, Options};
use std::sync::Arc;

fn assert_clean(opts: &Options, what: &str, f: impl Fn() + Send + Sync + 'static) {
    match explore(opts, f) {
        Ok(stats) => assert!(stats.schedules > 0, "{what}: explored nothing"),
        Err(failure) => panic!("{what}: expected clean exploration, found:\n{failure}"),
    }
}

#[test]
fn shipped_pool_protocol_explores_clean() {
    assert_clean(
        &Options::exhaustive(2),
        "pool AcqRel, 1 worker x 3 blocks",
        || pool_protocol(PoolConfig::correct(1, 3)),
    );
}

#[test]
fn prefix_pool_release_done_counter_is_found() {
    // The bug fixed in `shims/rayon/src/pool.rs`: with `Release` on the
    // done-counter RMW, the last finisher does not acquire the other
    // workers' block writes, and the caller reads outputs unordered.
    let cfg = PoolConfig {
        done_order: Ordering::Release,
        ..PoolConfig::correct(1, 3)
    };
    match explore(&Options::exhaustive(2), move || pool_protocol(cfg)) {
        Ok(stats) => panic!(
            "checker lost the pool done-counter bug ({} schedules clean)",
            stats.schedules
        ),
        Err(failure) => {
            assert!(
                matches!(&failure.kind, FailureKind::DataRace { object, .. }
                    if object.contains("task.slot")),
                "wrong failure kind:\n{failure}"
            );
            assert!(!failure.trace.is_empty(), "failure must carry a trace");
        }
    }
}

#[test]
fn prefix_publication_relaxed_store_is_found() {
    // The writer sets a cell and publishes with a Relaxed store; the
    // reader that sees the flag acquires nothing, so its read races.
    let model = || {
        let cell = Arc::new(RaceCell::named(0u64, "litmus.cell"));
        let flag = Arc::new(AtomicUsize::named(0, "litmus.flag"));
        let (c, f) = (Arc::clone(&cell), Arc::clone(&flag));
        let writer = thread::spawn(move || {
            c.set(1);
            f.store(1, Ordering::Relaxed);
        });
        if flag.load(Ordering::Acquire) == 1 {
            assert_eq!(cell.get(), 1);
        }
        writer.join();
    };
    match explore(&Options::exhaustive(2), model) {
        Ok(stats) => panic!(
            "checker lost the relaxed-store publication race ({} schedules clean)",
            stats.schedules
        ),
        Err(failure) => assert!(
            matches!(&failure.kind, FailureKind::DataRace { object, .. }
                if object == "litmus.cell"),
            "wrong failure kind:\n{failure}"
        ),
    }
}

#[test]
fn shipped_channel_disconnect_explores_clean() {
    assert_clean(
        &Options::exhaustive(2),
        "channel disconnect, notify under lock",
        || drop_last_sender_wakes_receiver(true),
    );
}

#[test]
fn prefix_channel_unlocked_disconnect_is_found_as_lost_wakeup() {
    // The PR 5 bug shape: the last sender's notify lands between the
    // receiver's empty-queue check and its wait.
    match explore(&Options::exhaustive(2), || {
        drop_last_sender_wakes_receiver(false)
    }) {
        Ok(stats) => panic!(
            "checker lost the unlocked-notify lost wakeup ({} schedules clean)",
            stats.schedules
        ),
        Err(failure) => assert!(
            matches!(&failure.kind, FailureKind::LostWakeup { .. }),
            "wrong failure kind:\n{failure}"
        ),
    }
}

#[test]
fn exploration_is_deterministic() {
    // Same options, same model → byte-identical failing schedule; the
    // replay workflow in DESIGN.md §12 depends on this.
    let run = || {
        explore(&Options::exhaustive(2), || {
            drop_last_sender_wakes_receiver(false)
        })
        .expect_err("known-bad shape must fail")
    };
    let (a, b) = (run(), run());
    assert_eq!(a.schedule, b.schedule, "failing schedule must be reproducible");
    assert_eq!(a.schedules_explored, b.schedules_explored);
    assert_eq!(a.trace.len(), b.trace.len());
}

// --- facade purity: plain builds pay nothing for the checker --------------

#[cfg(not(msa_check))]
mod facade_purity {
    use std::any::TypeId;

    #[test]
    fn msa_sync_types_are_std_types_in_plain_builds() {
        assert_eq!(
            TypeId::of::<msa_sync::Mutex<u8>>(),
            TypeId::of::<std::sync::Mutex<u8>>(),
            "msa_sync::Mutex must be a re-export, not a wrapper"
        );
        assert_eq!(
            TypeId::of::<msa_sync::Condvar>(),
            TypeId::of::<std::sync::Condvar>(),
        );
        assert_eq!(
            TypeId::of::<msa_sync::atomic::AtomicUsize>(),
            TypeId::of::<std::sync::atomic::AtomicUsize>(),
        );
        assert_eq!(
            TypeId::of::<msa_sync::atomic::AtomicU64>(),
            TypeId::of::<std::sync::atomic::AtomicU64>(),
        );
        assert_eq!(
            TypeId::of::<msa_sync::atomic::AtomicBool>(),
            TypeId::of::<std::sync::atomic::AtomicBool>(),
        );
    }

    #[test]
    fn msa_sync_types_add_no_size() {
        assert_eq!(
            std::mem::size_of::<msa_sync::Mutex<u64>>(),
            std::mem::size_of::<std::sync::Mutex<u64>>(),
        );
        assert_eq!(
            std::mem::size_of::<msa_sync::atomic::AtomicUsize>(),
            std::mem::size_of::<usize>(),
        );
    }
}
