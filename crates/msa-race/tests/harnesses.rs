//! Checker harnesses over the workspace protocol models, plus a
//! publication litmus on the instrumented atomics (the checker's test of
//! store/load ordering edges).
//!
//! Two directions, both load-bearing:
//! * shipped configurations must explore **clean** (no failure);
//! * known-bad pre-fix configurations must be **found** — these are the
//!   regression tests for the checker itself. If a "found" test starts
//!   passing clean, the checker lost its teeth.
//!
//! Exploration sizes are tuned for CI: small thread counts exhaustive
//! under a preemption bound, larger ones as seeded random walks.

use msa_race::models::channel::{
    credit_pool, drop_last_sender_wakes_receiver, rendezvous_handoff,
};
use msa_race::models::pool::{nested_join, pool_protocol, PoolConfig};
use msa_race::models::prefetch::{prefetch_ring, PrefetchKnobs};
use msa_race::sync::atomic::{AtomicUsize, Ordering};
use msa_race::sync::RaceCell;
use msa_race::{explore, thread, FailureKind, Options};
use std::sync::Arc;

fn assert_clean(opts: &Options, what: &str, f: impl Fn() + Send + Sync + 'static) {
    match explore(opts, f) {
        Ok(stats) => {
            assert!(stats.schedules > 0, "{what}: explored nothing");
        }
        Err(failure) => panic!("{what}: expected clean exploration, found:\n{failure}"),
    }
}

fn assert_found(
    opts: &Options,
    what: &str,
    f: impl Fn() + Send + Sync + 'static,
    matches: impl Fn(&FailureKind) -> bool,
) {
    match explore(opts, f) {
        Ok(stats) => panic!(
            "{what}: expected the checker to find the bug, but {} schedules were clean",
            stats.schedules
        ),
        Err(failure) => {
            assert!(
                matches(&failure.kind),
                "{what}: found the wrong failure kind:\n{failure}"
            );
            assert!(
                !failure.trace.is_empty(),
                "{what}: failure must carry a replayable trace"
            );
        }
    }
}

// --- pool: claim / done / finished protocol -------------------------------

#[test]
fn pool_shipped_protocol_is_clean() {
    assert_clean(
        &Options::exhaustive(2),
        "pool AcqRel, 2 workers x 3 blocks",
        || pool_protocol(PoolConfig::correct(1, 3)),
    );
}

#[test]
fn pool_release_done_counter_is_found() {
    // The pre-fix bug: `done.fetch_add(1, Release)` — the RMW read side
    // is relaxed, so the last finisher does not happen-after the other
    // workers' block writes, and the submitter's read of their output
    // slots races.
    let cfg = PoolConfig {
        done_order: Ordering::Release,
        ..PoolConfig::correct(1, 3)
    };
    assert_found(
        &Options::exhaustive(2),
        "pool Release done-counter",
        move || pool_protocol(cfg),
        |k| matches!(k, FailureKind::DataRace { object, .. } if object.contains("task.slot")),
    );
}

#[test]
fn pool_panic_block_is_stashed_for_caller() {
    let cfg = PoolConfig {
        panic_block: Some(1),
        ..PoolConfig::correct(1, 3)
    };
    assert_clean(
        &Options::exhaustive(2),
        "pool with a panicking block",
        move || pool_protocol(cfg),
    );
}

#[test]
fn pool_three_workers_random_walk_is_clean() {
    assert_clean(
        &Options::random(0x5eed_0001, 400),
        "pool AcqRel, 3 workers x 4 blocks (random)",
        || pool_protocol(PoolConfig::correct(2, 4)),
    );
}

#[test]
fn nested_join_propagates_writes() {
    assert_clean(&Options::exhaustive(2), "nested fork/join", nested_join);
}

// --- publication litmus: store/load ordering edges ------------------------

/// How the writer publishes its cell write.
#[derive(Clone, Copy)]
enum Publish {
    Store(Ordering),
    FetchAdd(Ordering),
}

/// The writer sets a cell, then publishes through a flag; the reader
/// loads the flag and reads the cell only if the flag is set. The read
/// is ordered after the write exactly when the publish releases and the
/// load acquires.
fn publication(publish: Publish, load: Ordering) {
    let cell = Arc::new(RaceCell::named(0u64, "litmus.cell"));
    let flag = Arc::new(AtomicUsize::named(0, "litmus.flag"));
    let (c, f) = (Arc::clone(&cell), Arc::clone(&flag));
    let writer = thread::spawn(move || {
        c.set(1);
        match publish {
            Publish::Store(ord) => f.store(1, ord),
            Publish::FetchAdd(ord) => {
                f.fetch_add(1, ord);
            }
        }
    });
    if flag.load(load) == 1 {
        assert_eq!(cell.get(), 1, "a set flag publishes the write");
    }
    writer.join();
}

fn is_cell_race(k: &FailureKind) -> bool {
    matches!(k, FailureKind::DataRace { object, .. } if object == "litmus.cell")
}

#[test]
fn publication_release_store_acquire_load_is_clean() {
    assert_clean(&Options::exhaustive(2), "Release store, Acquire load", || {
        publication(Publish::Store(Ordering::Release), Ordering::Acquire)
    });
}

#[test]
fn publication_acqrel_fetch_add_acquire_load_is_clean() {
    assert_clean(&Options::exhaustive(2), "AcqRel fetch_add, Acquire load", || {
        publication(Publish::FetchAdd(Ordering::AcqRel), Ordering::Acquire)
    });
}

#[test]
fn publication_relaxed_store_is_found() {
    // A relaxed store carries no release: the reader that sees the flag
    // acquires nothing, so its read of the cell races the write.
    assert_found(
        &Options::exhaustive(2),
        "Relaxed store, Acquire load",
        || publication(Publish::Store(Ordering::Relaxed), Ordering::Acquire),
        is_cell_race,
    );
}

#[test]
fn publication_relaxed_load_is_found() {
    assert_found(
        &Options::exhaustive(2),
        "Release store, Relaxed load",
        || publication(Publish::Store(Ordering::Release), Ordering::Relaxed),
        is_cell_race,
    );
}

#[test]
fn publication_relaxed_fetch_add_is_found() {
    // The arrive shape: a relaxed RMW joins nothing into the flag's
    // release sequence, so an acquiring reader still races the cell.
    assert_found(
        &Options::exhaustive(2),
        "Relaxed fetch_add, Acquire load",
        || publication(Publish::FetchAdd(Ordering::Relaxed), Ordering::Acquire),
        is_cell_race,
    );
}

// --- channel + slab credit pool -------------------------------------------

#[test]
fn channel_locked_disconnect_notify_is_clean() {
    assert_clean(
        &Options::exhaustive(2),
        "channel disconnect with locked notify",
        || drop_last_sender_wakes_receiver(true),
    );
}

#[test]
fn channel_unlocked_disconnect_notify_is_found() {
    // The PR 5 bug as shipped pre-fix in `Drop<Sender>`: notify_all
    // without the queue lock can fire between the receiver's
    // senders-alive check and its wait — the receiver sleeps forever.
    assert_found(
        &Options::exhaustive(2),
        "channel disconnect with unlocked notify",
        || drop_last_sender_wakes_receiver(false),
        |k| matches!(k, FailureKind::LostWakeup { .. }),
    );
}

#[test]
fn rendezvous_locked_notify_is_clean() {
    assert_clean(
        &Options::exhaustive(2),
        "rendezvous handoff, notify under lock",
        || rendezvous_handoff(true),
    );
}

#[test]
fn rendezvous_unlocked_notify_is_found() {
    assert_found(
        &Options::exhaustive(2),
        "rendezvous handoff, notify without lock",
        || rendezvous_handoff(false),
        |k| matches!(k, FailureKind::LostWakeup { .. }),
    );
}

#[test]
fn credit_pool_reuse_is_ordered_by_channels() {
    assert_clean(
        &Options::exhaustive(1),
        "slab credit pool, 2 producers, 1 credit",
        || credit_pool(2, 1, 1),
    );
}

#[test]
fn credit_pool_contended_random_walk_is_clean() {
    assert_clean(
        &Options::random(0x5eed_0003, 250),
        "slab credit pool, 2 producers x 2 msgs, 2 credits (random)",
        || credit_pool(2, 2, 2),
    );
}

// --- batch-prefetch ring --------------------------------------------------

#[test]
fn prefetch_shipped_ring_is_clean() {
    // Full consumption exercises claim/fill/push, slab recycling, and
    // the locked done path; a slab reused without the mutex edge would
    // be a data race on `prefetch.slab`.
    assert_clean(
        &Options::exhaustive(2),
        "prefetch ring, 3 batches through depth 1, drained",
        || prefetch_ring(3, 1, 3, PrefetchKnobs::correct()),
    );
}

#[test]
fn prefetch_shipped_early_exit_is_clean() {
    // The consumer walks away mid-epoch; the locked stop path must wake
    // the producer off `not_full` so the join always completes.
    assert_clean(
        &Options::exhaustive(2),
        "prefetch ring, early exit after 0 of 2",
        || prefetch_ring(2, 1, 0, PrefetchKnobs::correct()),
    );
}

#[test]
fn prefetch_shipped_overrun_random_walk_is_clean() {
    // Deeper ring, consumer pulls past exhaustion: the done path must
    // convert every extra pull into `None`.
    assert_clean(
        &Options::random(0x5eed_0004, 300),
        "prefetch ring, depth 2, pull past exhaustion (random)",
        || prefetch_ring(2, 2, 3, PrefetchKnobs::correct()),
    );
}

#[test]
fn prefetch_unlocked_done_notify_is_found() {
    // Pre-fix exhaustion path: done as an atomic stored outside the
    // ring mutex + unlocked notify_all. The store + notify can land
    // between the consumer's done-check and its wait — the consumer
    // sleeps on `not_empty` forever.
    assert_found(
        &Options::exhaustive(2),
        "prefetch ring with unlocked done notify",
        || {
            prefetch_ring(
                1,
                1,
                2,
                PrefetchKnobs {
                    locked_done: false,
                    ..PrefetchKnobs::correct()
                },
            )
        },
        |k| matches!(k, FailureKind::LostWakeup { .. }),
    );
}

#[test]
fn prefetch_unlocked_stop_notify_is_found() {
    // Pre-fix early-exit path: same window on the other condvar. The
    // producer checks stop under the mutex, the consumer's store +
    // notify land before the wait, and the producer is stranded on
    // `not_full` with the ring full — taking the join down with it.
    assert_found(
        &Options::exhaustive(2),
        "prefetch ring with unlocked stop notify",
        || {
            prefetch_ring(
                2,
                1,
                0,
                PrefetchKnobs {
                    locked_stop: false,
                    ..PrefetchKnobs::correct()
                },
            )
        },
        |k| matches!(k, FailureKind::LostWakeup { .. }),
    );
}

// --- failure reports ------------------------------------------------------

#[test]
fn found_failure_renders_schedule_and_trace() {
    let failure = explore(&Options::exhaustive(2), || {
        drop_last_sender_wakes_receiver(false)
    })
    .expect_err("pre-fix drop must be found");
    let text = failure.to_string();
    assert!(text.contains("lost wakeup"), "report names the class: {text}");
    assert!(text.contains("schedule"), "report carries the schedule: {text}");
    assert!(
        text.contains("chan.ready"),
        "report names the condvar involved: {text}"
    );
    assert_eq!(
        msa_race::render_trace(&failure.trace).lines().count(),
        failure.trace.len(),
        "one rendered line per trace event"
    );
}
