//! Model-thread spawning and joining. Inside [`crate::explore`] these
//! register a new scheduler-controlled thread (spawn and join are
//! happens-before edges).

use crate::sched::{self, Sched, Tid};
use std::sync::{Arc, Mutex, PoisonError};

/// Spawns a model thread. Panics when called outside `explore` — real
/// code never calls this directly; it goes through the `msa_sync`
/// facade, which only routes here in checker builds under a model.
pub fn spawn<T, F>(f: F) -> JoinHandle<T>
where
    F: FnOnce() -> T + Send + 'static,
    T: Send + 'static,
{
    let Some(ctx) = sched::current() else {
        panic!("msa_race::thread::spawn requires an active explore() model")
    };
    let (tid, result) = ctx.sched.spawn_model(ctx.tid, f);
    JoinHandle {
        sched: ctx.sched,
        tid,
        result,
    }
}

/// Handle to a model thread; `join` blocks the model (a choice point)
/// until the target finishes.
pub struct JoinHandle<T> {
    sched: Arc<Sched>,
    tid: Tid,
    result: Arc<Mutex<Option<T>>>,
}

impl<T> JoinHandle<T> {
    pub fn join(self) -> T {
        let Some(ctx) = sched::current() else {
            panic!("msa_race::thread::JoinHandle::join requires an active explore() model")
        };
        debug_assert!(Arc::ptr_eq(&ctx.sched, &self.sched), "join across models");
        self.sched.join_model(ctx.tid, self.tid);
        let v = self
            .result
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take();
        match v {
            Some(v) => v,
            // A child panic aborts the whole run before join returns,
            // so this is unreachable in practice; keep join total.
            None => panic!("model thread finished without a result"),
        }
    }
}
