//! The real workspace primitives — not models — under the checker.
//!
//! Only meaningful when the whole dependency graph is built with
//! `RUSTFLAGS="--cfg msa_check"`: then the `msa-sync` facade routes
//! the crossbeam channel shim onto the instrumented types, and `explore`
//! can drive its actual shipped code through interleavings. In a plain build this file is empty.
//!
//! The pool (`shims/rayon`) is deliberately *not* driven here: it owns
//! process-global state (the `POOL` OnceLock and long-lived workers),
//! which cannot be reset between schedules; its protocol is covered by
//! the faithful model in `msa_race::models::pool` instead.
#![cfg(msa_check)]

use msa_race::{explore, thread, Options};

#[test]
fn real_channel_disconnect_wakes_receiver() {
    // The fixed Drop<Sender> (notify under the queue lock) must survive
    // every interleaving of drop vs. the receiver's check-then-wait.
    let result = explore(&Options::exhaustive(2), || {
        let (tx, rx) = crossbeam::channel::unbounded::<u64>();
        let sender = thread::spawn(move || drop(tx));
        assert!(rx.recv().is_err(), "disconnect must surface as Err");
        sender.join();
    });
    if let Err(failure) = result {
        panic!("real channel shim failed under the checker:\n{failure}");
    }
}

#[test]
fn real_channel_send_then_disconnect_delivers_in_order() {
    let result = explore(&Options::exhaustive(2), || {
        let (tx, rx) = crossbeam::channel::unbounded::<u64>();
        let sender = thread::spawn(move || {
            tx.send(7).expect("receiver alive");
            tx.send(8).expect("receiver alive");
        });
        assert_eq!(rx.recv(), Ok(7));
        assert_eq!(rx.recv(), Ok(8));
        sender.join();
        assert!(rx.recv().is_err(), "after sender drop the channel closes");
    });
    if let Err(failure) = result {
        panic!("real channel shim failed under the checker:\n{failure}");
    }
}
