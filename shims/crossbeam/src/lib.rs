//! Offline stand-in for the `crossbeam::channel` subset this workspace
//! uses: unbounded MPMC channels whose `Sender`/`Receiver` are both
//! `Send + Sync` (the property `ThreadComm::run` relies on when sharing
//! endpoints into scoped threads — `std::sync::mpsc::Receiver` is not
//! `Sync`, so it cannot back this shim).
//!
//! Implementation: a `Mutex<VecDeque>` plus `Condvar`, with live
//! sender/receiver counts for disconnect detection. Throughput is far
//! below real crossbeam, but the communicator moves whole gradient
//! buffers per message, so channel overhead is not on the critical path.

pub mod channel {
    use msa_sync::atomic::{AtomicUsize, Ordering};
    use msa_sync::{Arc, Condvar, Mutex};
    use std::collections::VecDeque;

    struct Shared<T> {
        queue: Mutex<VecDeque<T>>,
        ready: Condvar,
        senders: AtomicUsize,
        receivers: AtomicUsize,
    }

    /// Error returned by [`Sender::send`] when every receiver is gone.
    #[derive(Debug, PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    impl<T> std::fmt::Display for SendError<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            write!(f, "sending on a disconnected channel")
        }
    }

    /// Error returned by [`Receiver::recv`] when the channel is empty and
    /// every sender is gone.
    #[derive(Debug, PartialEq, Eq)]
    pub struct RecvError;

    impl std::fmt::Display for RecvError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            write!(f, "receiving on an empty, disconnected channel")
        }
    }

    /// The sending half; cloneable and `Sync`.
    pub struct Sender<T> {
        shared: Arc<Shared<T>>,
    }

    /// The receiving half; cloneable and `Sync` (MPMC).
    pub struct Receiver<T> {
        shared: Arc<Shared<T>>,
    }

    /// Creates an unbounded channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
            senders: AtomicUsize::new(1),
            receivers: AtomicUsize::new(1),
        });
        (
            Sender {
                shared: Arc::clone(&shared),
            },
            Receiver { shared },
        )
    }

    impl<T> Sender<T> {
        /// Enqueues `value`; never blocks. Fails only if all receivers
        /// have been dropped.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            if self.shared.receivers.load(Ordering::Acquire) == 0 {
                return Err(SendError(value));
            }
            match self.shared.queue.lock() {
                Ok(mut q) => {
                    q.push_back(value);
                    self.shared.ready.notify_one();
                    Ok(())
                }
                // A poisoned lock means a peer panicked mid-operation;
                // treat it like disconnection rather than propagating.
                Err(poisoned) => {
                    let mut q = poisoned.into_inner();
                    q.push_back(value);
                    self.shared.ready.notify_one();
                    Ok(())
                }
            }
        }
    }

    impl<T> Receiver<T> {
        /// Blocks until a message arrives; fails once the channel is both
        /// empty and sender-less.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut q = match self.shared.queue.lock() {
                Ok(g) => g,
                Err(p) => p.into_inner(),
            };
            loop {
                if let Some(v) = q.pop_front() {
                    return Ok(v);
                }
                if self.shared.senders.load(Ordering::Acquire) == 0 {
                    return Err(RecvError);
                }
                q = match self.shared.ready.wait(q) {
                    Ok(g) => g,
                    Err(p) => p.into_inner(),
                };
            }
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            // lint: allow(ordering-audit) -- refcount in an Arc-style clone/drop chain
            self.shared.senders.fetch_add(1, Ordering::AcqRel);
            Sender {
                shared: Arc::clone(&self.shared),
            }
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            // lint: allow(ordering-audit) -- refcount in an Arc-style clone/drop chain
            self.shared.receivers.fetch_add(1, Ordering::AcqRel);
            Receiver {
                shared: Arc::clone(&self.shared),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            // lint: allow(ordering-audit) -- refcount in an Arc-style clone/drop chain
            if self.shared.senders.fetch_sub(1, Ordering::AcqRel) == 1 {
                // Last sender: wake blocked receivers so they observe
                // disconnection. The notify must happen *under the queue
                // lock*: `recv` checks `senders` (an atomic, not state
                // under the mutex) between its pop and its wait, and an
                // unlocked notify can fire exactly inside that window —
                // nobody is waiting yet, the notification is dropped,
                // and the receiver sleeps forever. Holding the lock
                // pins the receiver on one side of the window or the
                // other (the msa-race harness
                // `channel_unlocked_disconnect_notify_is_found` shows
                // the unlocked variant losing the wakeup).
                let _guard = match self.shared.queue.lock() {
                    Ok(g) => g,
                    Err(p) => p.into_inner(),
                };
                self.shared.ready.notify_all();
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            // lint: allow(ordering-audit) -- refcount in an Arc-style clone/drop chain
            self.shared.receivers.fetch_sub(1, Ordering::AcqRel);
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn fifo_roundtrip() {
            let (tx, rx) = unbounded();
            for i in 0..100 {
                tx.send(i).expect("receiver alive");
            }
            for i in 0..100 {
                assert_eq!(rx.recv(), Ok(i));
            }
        }

        #[test]
        fn disconnect_is_observed() {
            let (tx, rx) = unbounded::<u8>();
            drop(rx);
            assert!(tx.send(1).is_err());
            let (tx2, rx2) = unbounded::<u8>();
            tx2.send(9).expect("receiver alive");
            drop(tx2);
            assert_eq!(rx2.recv(), Ok(9));
            assert_eq!(rx2.recv(), Err(RecvError));
        }

        #[test]
        fn cross_thread_blocking_recv() {
            let (tx, rx) = unbounded();
            let h = std::thread::spawn(move || rx.recv());
            std::thread::sleep(std::time::Duration::from_millis(20));
            tx.send(7u32).expect("receiver alive");
            assert_eq!(h.join().expect("receiver thread ok"), Ok(7));
        }

        #[test]
        fn endpoints_are_sync() {
            fn assert_sync<T: Sync + Send>() {}
            assert_sync::<Sender<Vec<f32>>>();
            assert_sync::<Receiver<Vec<f32>>>();
        }
    }
}
