//! Model threads. Inside [`crate::explore`] a [`scope`]'s spawns register
//! new scheduler-controlled threads (spawn and join are happens-before
//! edges); real code reaches [`scope`] through `msa_sync::thread`.

use crate::sched::{self, Ctx, Sched, Tid};
use std::cell::RefCell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// Blocks the calling model thread (a choice point) until `target`
/// finishes, joining its clock.
fn join_model(sched: &Arc<Sched>, target: Tid) {
    let Some(ctx) = sched::current() else {
        panic!("joining a model thread requires an active explore() model")
    };
    debug_assert!(Arc::ptr_eq(&ctx.sched, sched), "join across models");
    sched.join_model(ctx.tid, target);
}

/// [`std::thread::scope`] for code the checker must see: while a model
/// is active on the calling thread, [`Scope::spawn`] registers model
/// threads, and the scope's implicit join of the children it did not
/// join is a model join too. With no model active it is a plain scoped
/// spawn.
pub fn scope<'env, F, T>(f: F) -> T
where
    F: for<'a, 'scope> FnOnce(&'a Scope<'scope, 'env>) -> T,
{
    std::thread::scope(|inner| {
        let scope = Scope {
            inner,
            ctx: sched::current(),
            children: RefCell::new(Vec::new()),
        };
        let Some(ctx) = scope.ctx.clone() else {
            return f(&scope);
        };
        let run = catch_unwind(AssertUnwindSafe(|| {
            let out = f(&scope);
            for child in scope.children.take() {
                join_model(&ctx.sched, child);
            }
            out
        }));
        // A model thread unwinding here must stop the run before std
        // joins the children, which are parked until the scheduler
        // hands them the token.
        run.unwrap_or_else(|p| {
            ctx.sched.abort_on_panic(ctx.tid, p.as_ref());
            resume_unwind(p)
        })
    })
}

/// The scope handed to [`scope`]'s closure.
pub struct Scope<'scope, 'env: 'scope> {
    inner: &'scope std::thread::Scope<'scope, 'env>,
    ctx: Option<Ctx>,
    /// Every model child spawned here; joined when the scope ends. Only
    /// the thread that opened the scope can spawn on it.
    children: RefCell<Vec<Tid>>,
}

impl<'scope> Scope<'scope, '_> {
    pub fn spawn<F, T>(&self, f: F) -> ScopedJoinHandle<'scope, T>
    where
        F: FnOnce() -> T + Send + 'scope,
        T: Send + 'scope,
    {
        match &self.ctx {
            Some(ctx) => {
                let (tid, inner) = ctx.sched.spawn_scoped(ctx.tid, self.inner, f);
                self.children.borrow_mut().push(tid);
                ScopedJoinHandle {
                    inner,
                    model: Some((Arc::clone(&ctx.sched), tid)),
                }
            }
            None => ScopedJoinHandle {
                inner: self.inner.spawn(move || Some(f())),
                model: None,
            },
        }
    }
}

/// Handle to a thread spawned on a [`Scope`].
pub struct ScopedJoinHandle<'scope, T> {
    /// `None` only from a model thread torn down mid-run.
    inner: std::thread::ScopedJoinHandle<'scope, Option<T>>,
    model: Option<(Arc<Sched>, Tid)>,
}

impl<T> ScopedJoinHandle<'_, T> {
    /// Waits for the thread (a model join inside a model), like
    /// [`std::thread::ScopedJoinHandle::join`].
    pub fn join(self) -> std::thread::Result<T> {
        if let Some((sched, tid)) = &self.model {
            join_model(sched, *tid);
        }
        self.inner.join().map(|v| match v {
            Some(v) => v,
            // A torn-down child aborts the run, so a model join
            // unwinds before it gets here.
            None => panic!("scoped thread finished without a result"),
        })
    }
}
