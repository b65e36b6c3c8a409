// lint: allow(unreached) -- a hand copy of `data::stream`'s ring; ROADMAP item 11 replaces it with the shipped ring under `--cfg msa_check`
//! Model of the batch-prefetch ring (`crates/data/src/stream.rs`).
//!
//! The real ring is one mutex around `{queue, free, done, stop}` plus
//! two condvars (`not_empty` toward the consumer, `not_full` toward the
//! producer); every flag lives *inside* the mutex and every notify
//! fires while holding it. The model reproduces that protocol over the
//! instrumented [`crate::sync`] types, with payload slabs as
//! [`RaceCell`]s so a slab reused without the mutex's happens-before
//! edge is reported as a data race.
//!
//! Two knobs reproduce the pre-fix shapes, one per stranded side:
//!
//! * [`PrefetchKnobs::locked_done`] — the producer's exhaustion path.
//!   Shipped: `done = true` + `notify_all(not_empty)` under the lock.
//!   Broken: `done` as an atomic stored outside the lock with an
//!   unlocked notify — the store + notify can land between the
//!   consumer's done-check and its wait, stranding the *consumer*.
//! * [`PrefetchKnobs::locked_stop`] — the consumer's early-exit path.
//!   Shipped: `stop = true` + `notify_all(not_full)` under the lock.
//!   Broken: atomic flag + unlocked notify — same window on the other
//!   condvar, stranding the *producer* while the ring is full (and
//!   with it the join).

use super::{cv_wait, lock};
use crate::sync::atomic::{AtomicUsize, Ordering};
use crate::sync::{Condvar, Mutex, RaceCell};
use crate::thread;
use std::collections::VecDeque;
use std::sync::Arc;

/// Which notify paths hold the ring mutex. [`PrefetchKnobs::correct`]
/// is the shipped configuration; either `false` is a pre-fix shape the
/// checker must find.
#[derive(Debug, Clone, Copy)]
pub struct PrefetchKnobs {
    /// Producer exhaustion: set `done` and notify `not_empty` under the
    /// ring mutex.
    pub locked_done: bool,
    /// Consumer early exit: set `stop` and notify `not_full` under the
    /// ring mutex.
    pub locked_stop: bool,
}

impl PrefetchKnobs {
    /// The shipped configuration (both paths notify under the lock).
    pub fn correct() -> Self {
        PrefetchKnobs {
            locked_done: true,
            locked_stop: true,
        }
    }
}

struct RingState {
    /// Slab ids carrying filled payloads, oldest first.
    queue: VecDeque<usize>,
    /// Recycled slab ids the producer may refill.
    free: Vec<usize>,
    done: bool,
    stop: bool,
}

struct ModelRing {
    state: Mutex<RingState>,
    not_empty: Condvar,
    not_full: Condvar,
    /// The broken done path stores here instead of `RingState::done`.
    done_flag: AtomicUsize,
    /// The broken stop path stores here instead of `RingState::stop`.
    stop_flag: AtomicUsize,
    /// Payload slots; the mutex hand-off is the only ordering between
    /// the producer's fill and the consumer's read.
    slabs: Vec<RaceCell<u64>>,
}

impl ModelRing {
    fn new(depth: usize) -> ModelRing {
        // The real pool's circulation bound: `depth` queued + 1 being
        // filled + 1 held by the consumer.
        let slots = depth + 2;
        ModelRing {
            state: Mutex::named(
                RingState {
                    queue: VecDeque::new(),
                    free: (0..slots).collect(),
                    done: false,
                    stop: false,
                },
                "prefetch.ring",
            ),
            not_empty: Condvar::named("prefetch.not_empty"),
            not_full: Condvar::named("prefetch.not_full"),
            done_flag: AtomicUsize::named(0, "prefetch.done_flag"),
            stop_flag: AtomicUsize::named(0, "prefetch.stop_flag"),
            slabs: (0..slots).map(|_| RaceCell::named(0, "prefetch.slab")).collect(),
        }
    }

    fn stopped(&self, st: &RingState) -> bool {
        st.stop || self.stop_flag.load(Ordering::Acquire) == 1
    }

    fn finished(&self, st: &RingState) -> bool {
        st.done || self.done_flag.load(Ordering::Acquire) == 1
    }

    /// Consumer pull: pop (freeing a producer slot) or wait until the
    /// producer pushes or finishes.
    fn next(&self) -> Option<usize> {
        let mut st = lock(&self.state);
        loop {
            if let Some(slab) = st.queue.pop_front() {
                self.not_full.notify_one();
                return Some(slab);
            }
            if self.finished(&st) {
                return None;
            }
            st = cv_wait(&self.not_empty, st);
        }
    }

    /// Consumer hand-back of a drained slab.
    fn recycle(&self, slab: usize) {
        let mut st = lock(&self.state);
        st.free.push(slab);
        self.not_full.notify_one();
    }
}

/// One producer prefetching `batches` payloads through a depth-`depth`
/// ring; the main thread consumes `consume` of them then exits —
/// early (stop path) when `consume < batches`, on the exhaustion path
/// otherwise. Every assertion inside is a checker-reported failure.
pub fn prefetch_ring(batches: usize, depth: usize, consume: usize, knobs: PrefetchKnobs) {
    assert!(depth >= 1);
    let ring = Arc::new(ModelRing::new(depth));

    let prod_ring = Arc::clone(&ring);
    let producer = thread::spawn(move || {
        let ring = prod_ring;
        for b in 0..batches {
            let slab = {
                let mut st = lock(&ring.state);
                while st.queue.len() >= depth && !ring.stopped(&st) {
                    st = cv_wait(&ring.not_full, st);
                }
                if ring.stopped(&st) {
                    return;
                }
                // lint: allow(unwrap) -- model assertion: the circulation bound guarantees a free slab here
                st.free.pop().expect("free slab under the circulation bound")
            };
            // Fill outside the lock, exactly like the real producer.
            ring.slabs[slab].set(b as u64 + 1);
            let mut st = lock(&ring.state);
            st.queue.push_back(slab);
            assert!(st.queue.len() <= depth, "ring exceeded its depth bound");
            ring.not_empty.notify_one();
        }
        if knobs.locked_done {
            let mut st = lock(&ring.state);
            st.done = true;
            ring.not_empty.notify_all();
        } else {
            // Pre-fix shape: flag outside the mutex, notify without it.
            ring.done_flag.store(1, Ordering::Release);
            ring.not_empty.notify_all();
        }
    });

    let mut seen = 0u64;
    for _ in 0..consume {
        match ring.next() {
            Some(slab) => {
                seen += 1;
                assert_eq!(ring.slabs[slab].get(), seen, "batches arrive in order");
                ring.recycle(slab);
            }
            None => break,
        }
    }
    if seen < batches as u64 {
        // Early exit: tell the producer to stop before joining it.
        if knobs.locked_stop {
            let mut st = lock(&ring.state);
            st.stop = true;
            ring.not_full.notify_all();
        } else {
            // Pre-fix shape: flag outside the mutex, notify without it.
            ring.stop_flag.store(1, Ordering::Release);
            ring.not_full.notify_all();
        }
    } else if consume > batches {
        // Pulling past exhaustion must observe the done flag, not hang.
        assert_eq!(ring.next(), None, "exhausted ring keeps returning None");
    }
    producer.join();
}
