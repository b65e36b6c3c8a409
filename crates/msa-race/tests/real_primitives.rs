//! The shipped workspace primitives under the checker: the channel
//! shim, the `ThreadComm` credit ring and the `data::stream` prefetch
//! ring, explored as they ship (the pool task's checks sit beside it in
//! `shims/rayon/src/pool.rs`).
//!
//! Only meaningful when the whole dependency graph is built with
//! `RUSTFLAGS="--cfg msa_check"`: then the `msa-sync` facade routes
//! their locks, condvars, atomics and scoped threads onto the
//! instrumented types, and `explore` drives the real code through
//! interleavings. In a plain build this file is empty.
#![cfg(msa_check)]

use data::stream::{with_prefetch, BatchSource, BatchStream, PrefetchConsumer, SlabPool};
use data::Dataset;
use msa_net::{PointToPoint, ThreadComm};
use msa_race::{explore, thread, Options};
use tensor::{Rng, Tensor};

fn assert_clean(opts: &Options, what: &str, f: impl Fn() + Send + Sync + 'static) {
    match explore(opts, f) {
        Ok(stats) => assert!(stats.schedules > 1, "{what}: explored {} schedule(s)", stats.schedules),
        Err(failure) => panic!("{what} failed under the checker:\n{failure}"),
    }
}

#[test]
fn real_channel_disconnect_wakes_receiver() {
    // The fixed Drop<Sender> (notify under the queue lock) must survive
    // every interleaving of drop vs. the receiver's check-then-wait.
    assert_clean(&Options::exhaustive(2), "channel disconnect", || {
        let (tx, rx) = crossbeam::channel::unbounded::<u64>();
        thread::scope(|s| {
            s.spawn(move || drop(tx));
            assert!(rx.recv().is_err(), "disconnect must surface as Err");
        });
    });
}

#[test]
fn real_channel_send_then_disconnect_delivers_in_order() {
    assert_clean(&Options::exhaustive(2), "channel send then disconnect", || {
        let (tx, rx) = crossbeam::channel::unbounded::<u64>();
        thread::scope(|s| {
            s.spawn(move || {
                tx.send(7).expect("receiver alive");
                tx.send(8).expect("receiver alive");
            });
            assert_eq!(rx.recv(), Ok(7));
            assert_eq!(rx.recv(), Ok(8));
        });
        assert!(rx.recv().is_err(), "after sender drop the channel closes");
    });
}

#[test]
fn real_credit_ring_recycles_credits() {
    // Three sends through a channel seeded with two credits: the third
    // waits for a buffer the receiver hands back, then reuses it. The
    // traffic counters are `std` atomics the checker does not see, which
    // keeps two preemptions under 3,000 schedules.
    assert_clean(&Options::exhaustive(2), "ThreadComm credit ring", || {
        let got = ThreadComm::run(2, |c| match c.rank() {
            0 => {
                for i in 1..=3 {
                    c.send_from(1, &[i as f32; 2]);
                }
                Vec::new()
            }
            _ => (0..3).map(|_| c.recv_with(0, <[f32]>::to_vec)).collect(),
        });
        assert_eq!(got[1], [[1.0; 2], [2.0; 2], [3.0; 2]], "payloads arrive whole and in order");
    });
}

// --- the prefetch ring ----------------------------------------------------

/// `n` one-feature items whose label is their index.
fn toy(n: usize) -> Dataset {
    let ids: Vec<f32> = (0..n).map(|i| i as f32).collect();
    Dataset {
        x: Tensor::from_vec(ids.clone(), &[n, 1]),
        y: Tensor::from_vec(ids, &[n]),
    }
}

/// Runs `consume` on a `with_prefetch` ring of depth `depth` over `n`
/// one-item batches, inside the model. The pool is off, so the
/// producer's gathers run inline on its own model thread.
fn prefetch<R>(n: usize, depth: usize, consume: impl FnOnce(&mut PrefetchConsumer<'_>) -> R) -> R {
    rayon::init_with_threads(1);
    assert_eq!(rayon::current_num_threads(), 1, "the pool must be off under the checker");
    let ds = toy(n);
    let mut stream = BatchStream::new(&ds, 1, &mut Rng::seed(7));
    with_prefetch(&mut stream, depth, &mut SlabPool::new(), consume)
}

/// The labels of the batches the ring hands out, in order, recycling
/// each one; then one pull past the end.
fn drain(c: &mut PrefetchConsumer<'_>) -> Vec<f32> {
    let mut seen = Vec::new();
    while let Some(batch) = c.next_batch() {
        seen.push(batch.1.data()[0]);
        c.recycle(batch);
    }
    assert!(c.next_batch().is_none(), "an exhausted ring keeps returning None");
    seen
}

/// The labels of an epoch in stream order, assembled without the ring.
fn epoch_order(n: usize) -> Vec<f32> {
    rayon::init_with_threads(1);
    let ds = toy(n);
    let mut stream = BatchStream::new(&ds, 1, &mut Rng::seed(7));
    std::iter::from_fn(|| stream.next_batch().map(|b| b.1.data()[0])).collect()
}

#[test]
fn real_prefetch_ring_drains_then_stays_exhausted() {
    let want = epoch_order(3);
    assert_clean(&Options::exhaustive(2), "prefetch ring, 3 batches through depth 1", move || {
        assert_eq!(prefetch(3, 1, drain), want, "batches arrive whole and in order");
    });
}

#[test]
fn real_prefetch_ring_early_exit_joins_the_producer() {
    // The consumer takes nothing; the stop path must wake a producer
    // parked on a full ring so the scope's join completes.
    assert_clean(&Options::exhaustive(2), "prefetch ring, early exit", || {
        prefetch(2, 1, |_| ());
    });
}

#[test]
fn real_prefetch_ring_depth_two_random_walk_is_clean() {
    let want = epoch_order(3);
    assert_clean(&Options::random(0x5eed_0004, 300), "prefetch ring, depth 2", move || {
        assert_eq!(prefetch(3, 2, drain), want);
    });
}
