//! Checker litmus models: minimal shapes of the failure classes the
//! checker must find, each beside its fixed twin. They run in every
//! plain build; the shipped pool, credit ring and prefetch ring are
//! explored for real under `--cfg msa_check` (`real_primitives.rs` and
//! the pool's own `race` tests).
//!
//! Two directions, both load-bearing:
//! * fixed shapes must explore **clean** (no failure);
//! * broken shapes must be **found** — the regression tests for the
//!   checker itself. If a "found" test starts passing clean, the
//!   checker lost its teeth.

use msa_race::sync::atomic::{AtomicUsize, Ordering};
use msa_race::sync::{Condvar, Mutex, MutexGuard, RaceCell};
use msa_race::{explore, thread, FailureKind, Options};
use std::sync::PoisonError;

fn assert_clean(opts: &Options, what: &str, f: impl Fn() + Send + Sync + 'static) {
    if let Err(failure) = explore(opts, f) {
        panic!("{what}: expected clean exploration, found:\n{failure}");
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
            assert!(matches(&failure.kind), "{what}: found the wrong failure kind:\n{failure}");
            assert!(!failure.trace.is_empty(), "{what}: failure must carry a replayable trace");
        }
    }
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

fn is_lost_wakeup(k: &FailureKind) -> bool {
    matches!(k, FailureKind::LostWakeup { .. })
}

// --- fork/join edges ------------------------------------------------------

/// A spawned thread spawns and joins its own child, and the root
/// observes the grandchild's write purely through the join edges.
fn nested_join() {
    let cell = RaceCell::named(0u64, "nested.out");
    let seen = thread::scope(|s| {
        let outer = s.spawn(|| {
            thread::scope(|s| s.spawn(|| cell.set(42)).join()).ok();
            cell.get()
        });
        outer.join()
    });
    assert_eq!(seen.ok(), Some(42));
    assert_eq!(cell.get(), 42, "root sees the grandchild write via joins");
}

#[test]
fn nested_join_propagates_writes() {
    assert_clean(&Options::exhaustive(2), "nested fork/join", nested_join);
}

#[test]
fn scoped_threads_are_joined_at_scope_end() {
    // The scope's implicit join of an unjoined child is a model join.
    assert_clean(&Options::exhaustive(2), "scope end joins its children", || {
        let cell = RaceCell::named(0u64, "scoped.cell");
        thread::scope(|s| {
            s.spawn(|| cell.set(1));
        });
        assert_eq!(cell.get(), 1);
    });
    // A model assertion inside the scope is reported, not hung on while
    // std waits for the parked child.
    assert_found(
        &Options::exhaustive(2),
        "assertion inside a scope",
        || thread::scope(|s| {
            s.spawn(|| ());
            panic!("scope body fails");
        }),
        |k| matches!(k, FailureKind::Panic { message, .. } if message == "scope body fails"),
    );
    // Outside a model it is a plain scoped spawn.
    let v = thread::scope(|s| s.spawn(|| 5).join());
    assert_eq!(v.ok(), Some(5));
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
    let cell = RaceCell::named(0u64, "litmus.cell");
    let flag = AtomicUsize::named(0, "litmus.flag");
    thread::scope(|s| {
        s.spawn(|| {
            cell.set(1);
            match publish {
                Publish::Store(ord) => flag.store(1, ord),
                Publish::FetchAdd(ord) => {
                    flag.fetch_add(1, ord);
                }
            }
        });
        if flag.load(load) == 1 {
            assert_eq!(cell.get(), 1, "a set flag publishes the write");
        }
    });
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

// --- done counter: a Release RMW chain ------------------------------------

/// The pool task's completion shape, two blocks: each thread writes its
/// block, then counts it done; the last finisher flips `finished` under
/// a mutex and notifies, and the root reads both blocks once it sees the
/// flag. The root's read of the child's block is ordered only if the
/// last finisher's RMW acquires the other's release.
fn done_counter(order: Ordering) {
    let blocks = [const { RaceCell::named(0u64, "litmus.block") }; 2];
    let done = AtomicUsize::named(0, "litmus.done");
    let finished = Mutex::named(false, "litmus.finished");
    let finished_cv = Condvar::named("litmus.finished_cv");
    let finish = |b: usize| {
        blocks[b].set(1);
        if done.fetch_add(1, order) + 1 == 2 {
            *lock(&finished) = true;
            finished_cv.notify_all();
        }
    };
    thread::scope(|s| {
        s.spawn(|| finish(1));
        finish(0);
        let mut f = lock(&finished);
        while !*f {
            f = finished_cv.wait(f).unwrap_or_else(PoisonError::into_inner);
        }
        assert_eq!(blocks[0].get() + blocks[1].get(), 2);
    });
}

#[test]
fn done_counter_acqrel_is_clean() {
    assert_clean(&Options::exhaustive(2), "AcqRel done counter", || {
        done_counter(Ordering::AcqRel)
    });
}

#[test]
fn pool_release_done_counter_is_found() {
    // The pool's pre-fix bug: with `Release` the RMW's read side is
    // relaxed, the chain hands the last finisher nothing, and the
    // root's read of the other thread's block races.
    assert_found(
        &Options::exhaustive(2),
        "Release done counter",
        || done_counter(Ordering::Release),
        |k| matches!(k, FailureKind::DataRace { object, .. } if object == "litmus.block"),
    );
}

// --- rendezvous: a flag outside the lock a waiter checks under ------------

/// A waiter checks an atomic flag under `gate` and sleeps on the condvar
/// while it is unset; a signaller stores the flag and notifies. Holding
/// `gate` across the notify closes the window between the waiter's check
/// and its wait; without it the notify can land in that window and the
/// waiter sleeps forever. `child_waits` picks the stranded side: the
/// root as a consumer waiting for data (the channel's disconnect and
/// the prefetch ring's `done`), or a child the root signals and then
/// joins (the ring's producer parked on `stop`).
fn rendezvous(child_waits: bool, locked_notify: bool) {
    let flag = AtomicUsize::named(0, "rendezvous.flag");
    let gate = Mutex::named((), "rendezvous.gate");
    let cv = Condvar::named("rendezvous.cv");
    let wait = || {
        let mut held = lock(&gate);
        while flag.load(Ordering::Acquire) == 0 {
            held = cv.wait(held).unwrap_or_else(PoisonError::into_inner);
        }
    };
    let signal = || {
        flag.store(1, Ordering::Release);
        let _held = locked_notify.then(|| lock(&gate));
        cv.notify_one();
    };
    thread::scope(|s| {
        if child_waits {
            s.spawn(wait);
            signal();
        } else {
            s.spawn(signal);
            wait();
        }
    });
}

#[test]
fn rendezvous_locked_notify_is_clean() {
    for child_waits in [false, true] {
        assert_clean(
            &Options::exhaustive(2),
            &format!("rendezvous, notify under lock, child waits: {child_waits}"),
            move || rendezvous(child_waits, true),
        );
    }
}

#[test]
fn rendezvous_unlocked_notify_is_found() {
    // Both stranded sides: the root waiting for the child's store +
    // notify, and a child the root signals and then joins, whose wait
    // takes the root's join down with it.
    for child_waits in [false, true] {
        assert_found(
            &Options::exhaustive(2),
            &format!("rendezvous, notify without lock, child waits: {child_waits}"),
            move || rendezvous(child_waits, false),
            is_lost_wakeup,
        );
    }
}

#[test]
fn a_torn_down_thread_unwinds_through_instrumented_drops() {
    // A drop that touches instrumented state on the way out of a
    // torn-down run (a channel end, here a counter) must not re-enter
    // the scheduler, which would panic mid-unwind and abort the process.
    struct Release<'a>(&'a AtomicUsize);
    impl Drop for Release<'_> {
        fn drop(&mut self) {
            self.0.fetch_sub(1, Ordering::AcqRel);
        }
    }
    assert_found(
        &Options::exhaustive(2),
        "lost wakeup with an instrumented drop in scope",
        || {
            let count = AtomicUsize::named(1, "teardown.count");
            let _release = Release(&count);
            rendezvous(false, false);
        },
        is_lost_wakeup,
    );
}

// --- failure reports ------------------------------------------------------

#[test]
fn found_failure_renders_schedule_and_trace() {
    let run = || {
        explore(&Options::exhaustive(2), || rendezvous(false, false))
            .expect_err("unlocked notify must be found")
    };
    let failure = run();
    let text = failure.to_string();
    assert!(text.contains("lost wakeup"), "report names the class: {text}");
    assert!(text.contains("schedule"), "report carries the schedule: {text}");
    assert!(text.contains("rendezvous.cv"), "report names the condvar involved: {text}");
    assert_eq!(
        msa_race::render_trace(&failure.trace).lines().count(),
        failure.trace.len(),
        "one rendered line per trace event"
    );
    // Same options, same model → the same failing schedule, which is
    // what makes a report replayable.
    let again = run();
    assert_eq!(failure.schedule, again.schedule, "failing schedule must be reproducible");
    assert_eq!(failure.schedules_explored, again.schedules_explored);
    assert_eq!(failure.trace, again.trace);
}
