//! A sense-reversing centralised barrier built from atomics.
//!
//! The shared-memory counterpart of the message-passing
//! [`crate::collectives::dissemination_barrier`]: used when several
//! rayon/OS threads on one simulated node must rendezvous without a
//! communicator. The design follows the classic two-variable scheme
//! (counter + flipping "sense" flag) described in the concurrency
//! literature; release/acquire orderings establish the happens-before
//! edges between the last arriver and the waiters.

use msa_sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// A reusable barrier for exactly `n` threads.
pub struct SenseBarrier {
    n: usize,
    count: AtomicUsize,
    sense: AtomicBool,
}

impl SenseBarrier {
    /// Creates a barrier for `n` threads. `n` must be ≥ 1.
    pub fn new(n: usize) -> Self {
        assert!(n >= 1, "barrier needs at least one thread");
        SenseBarrier {
            n,
            count: AtomicUsize::new(0),
            sense: AtomicBool::new(false),
        }
    }

    /// Blocks until all `n` threads have called `wait`. Returns `true` on
    /// exactly one thread per generation (the last arriver), like
    /// `std::sync::Barrier`'s leader flag.
    pub fn wait(&self) -> bool {
        let my_sense = !self.sense.load(Ordering::Relaxed);
        // AcqRel: the last arriver must observe all writes the earlier
        // arrivers made before the barrier.
        let arrived = self.count.fetch_add(1, Ordering::AcqRel) + 1;
        if arrived == self.n {
            self.count.store(0, Ordering::Relaxed);
            // Release: publishes every pre-barrier write to the waiters.
            self.sense.store(my_sense, Ordering::Release);
            true
        } else {
            let mut spins = 0u32;
            // Acquire pairs with the leader's release store.
            while self.sense.load(Ordering::Acquire) != my_sense {
                spins += 1;
                if spins < 64 {
                    msa_sync::hint::spin_loop();
                } else {
                    msa_sync::thread::yield_now();
                }
            }
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn single_thread_is_always_leader() {
        let b = SenseBarrier::new(1);
        for _ in 0..5 {
            assert!(b.wait());
        }
    }

    #[test]
    fn exactly_one_leader_per_generation() {
        const T: usize = 8;
        const GENS: usize = 50;
        let b = SenseBarrier::new(T);
        let leaders = AtomicU64::new(0);
        std::thread::scope(|s| {
            for _ in 0..T {
                s.spawn(|| {
                    for _ in 0..GENS {
                        if b.wait() {
                            leaders.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        assert_eq!(leaders.load(Ordering::Relaxed), GENS as u64);
    }

    #[test]
    fn barrier_orders_phases() {
        // Every thread increments a phase counter, then the barrier, then
        // reads it: all threads must observe the full increment of the
        // previous phase — this fails if the barrier leaks.
        const T: usize = 4;
        let b = SenseBarrier::new(T);
        let phase = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..T {
                s.spawn(|| {
                    for round in 1..=20 {
                        phase.fetch_add(1, Ordering::Relaxed);
                        b.wait();
                        assert_eq!(phase.load(Ordering::Relaxed), round * T);
                        b.wait();
                    }
                });
            }
        });
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn zero_threads_rejected() {
        let _ = SenseBarrier::new(0);
    }
}
