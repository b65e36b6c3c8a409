//! Persistent, lazily-initialised thread pool with atomic-index work
//! splitting.
//!
//! The seed shim spawned fresh OS threads on every parallel stage; this
//! module spawns the workers once (first parallel call) and parks them on
//! a condvar between stages. A stage is a [`Task`]: `blocks` indivisible
//! units of work claimed through an atomic counter (`next.fetch_add`).
//! That is the index-splitting flavour of work stealing — an idle thread
//! keeps claiming the next unclaimed block until the counter runs out,
//! so imbalanced blocks self-balance without a deque, and the caller
//! thread participates instead of blocking idle.
//!
//! Sizing: `MSA_POOL_THREADS` overrides `available_parallelism`; a value
//! of 0 or 1 disables the pool (everything runs inline). Tests and
//! benches can force a size before first use with [`init_with_threads`].
//! [`serial_scope`] forces inline execution for a closure (the pool-off
//! switch determinism tests and benches compare against), and a pool
//! worker that re-enters a parallel stage runs it inline — nested
//! parallelism cannot deadlock and per-item work stays serial inside an
//! already-parallel region.
//!
//! # Safety invariants
//!
//! All `unsafe` in this crate is confined to this module and [`crate::batch`].
//!
//! * A task's closure crosses to workers as a `&'static` reference
//!   obtained by a lifetime transmute. This is sound because
//!   [`run_blocks`] does not return until every block has *finished
//!   executing* (`done == blocks`, not merely "claimed"), so the borrow
//!   the caller holds outlives every use. Workers may keep the
//!   `Arc<Task>` briefly after completion but only touch its atomics,
//!   never the closure.
//! * Panics inside a block are caught per block, stashed in the task,
//!   and re-thrown on the calling thread after *all* blocks finish —
//!   unwinding never crosses the pool boundary and never shortens the
//!   lifetime guarantee above.

#![allow(unsafe_code)]

use msa_sync::atomic::{AtomicUsize, Ordering};
use msa_sync::{Arc, Condvar, Mutex, MutexGuard, Once, OnceLock, PoisonError};
use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

type PanicPayload = Box<dyn std::any::Any + Send + 'static>;

/// Poison-tolerant lock: a worker panic is already captured by
/// `catch_unwind`, so a poisoned mutex carries no extra information.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

fn cv_wait<'a, T>(cv: &Condvar, g: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(g).unwrap_or_else(PoisonError::into_inner)
}

/// One parallel stage: `blocks` work units executed by whoever claims
/// them first (workers plus the submitting thread).
struct Task {
    body: &'static (dyn Fn(usize) + Sync),
    blocks: usize,
    /// Next unclaimed block index (may overshoot `blocks`).
    next: AtomicUsize,
    /// Completed blocks; the task is finished when this reaches `blocks`.
    done: AtomicUsize,
    /// First panic payload from any block, re-thrown by the caller.
    panic: Mutex<Option<PanicPayload>>,
    finished: Mutex<bool>,
    finished_cv: Condvar,
}

impl Task {
    fn new(body: &'static (dyn Fn(usize) + Sync), blocks: usize) -> Task {
        Task {
            body,
            blocks,
            next: AtomicUsize::new(0),
            done: AtomicUsize::new(0),
            panic: Mutex::new(None),
            finished: Mutex::new(false),
            finished_cv: Condvar::new(),
        }
    }

    fn exhausted(&self) -> bool {
        self.next.load(Ordering::Relaxed) >= self.blocks
    }

    /// Claims and runs blocks until the index counter runs out.
    fn run_to_exhaustion(&self) {
        loop {
            let b = self.next.fetch_add(1, Ordering::Relaxed);
            if b >= self.blocks {
                return;
            }
            if let Err(p) = catch_unwind(AssertUnwindSafe(|| (self.body)(b))) {
                let mut slot = lock(&self.panic);
                if slot.is_none() {
                    *slot = Some(p);
                }
            }
            // AcqRel, not Release: the caller reads every block's output
            // after `wait_finished`, including blocks run by threads
            // other than the last finisher. The acquire side of this RMW
            // chains those threads' release-increments into the last
            // finisher's clock, which the `finished` mutex then hands to
            // the caller. With plain Release the read side is relaxed,
            // the chain accumulates nothing, and those reads race (the
            // `race` tests below find exactly this under `--cfg
            // msa_check`).
            let d = self.done.fetch_add(1, Ordering::AcqRel) + 1;
            if d == self.blocks {
                *lock(&self.finished) = true;
                self.finished_cv.notify_all();
            }
        }
    }

    fn wait_finished(&self) {
        let mut f = lock(&self.finished);
        while !*f {
            f = cv_wait(&self.finished_cv, f);
        }
    }
}

struct Pool {
    /// Pending stages; workers pop exhausted tasks off the front.
    queue: Mutex<VecDeque<Arc<Task>>>,
    work_cv: Condvar,
    /// Total concurrency (workers + the submitting thread).
    threads: usize,
    spawn_workers: Once,
}

impl Pool {
    fn new(threads: usize) -> Pool {
        Pool {
            queue: Mutex::new(VecDeque::new()),
            work_cv: Condvar::new(),
            threads,
            spawn_workers: Once::new(),
        }
    }

    /// Spawns `threads - 1` parked workers on first use. Deferred past
    /// construction so worker threads can hold the `&'static Pool` that
    /// only exists once the pool is stored in [`POOL`].
    fn ensure_workers(&'static self) {
        self.spawn_workers.call_once(|| {
            for i in 0..self.threads - 1 {
                let res = std::thread::Builder::new()
                    .name(format!("msa-pool-{i}"))
                    .spawn(move || self.worker_loop());
                if res.is_err() {
                    // Out of threads: the caller thread still drains every
                    // task, so parallel stages degrade to fewer claimants
                    // rather than failing.
                    break;
                }
            }
        });
    }

    fn worker_loop(&'static self) {
        IS_WORKER.with(|w| w.set(true));
        loop {
            let task = {
                let mut q = lock(&self.queue);
                loop {
                    while q.front().is_some_and(|t| t.exhausted()) {
                        q.pop_front();
                    }
                    match q.front() {
                        Some(t) => break Arc::clone(t),
                        None => q = cv_wait(&self.work_cv, q),
                    }
                }
            };
            task.run_to_exhaustion();
        }
    }
}

/// `None` means the pool is disabled (single thread): stages run inline.
static POOL: OnceLock<Option<Pool>> = OnceLock::new();

thread_local! {
    static IS_WORKER: Cell<bool> = const { Cell::new(false) };
    static SERIAL_DEPTH: Cell<usize> = const { Cell::new(0) };
}

fn configured_threads() -> usize {
    if let Ok(v) = std::env::var("MSA_POOL_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            return n;
        }
    }
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

fn build(threads: usize) -> Option<Pool> {
    if threads <= 1 {
        None
    } else {
        Some(Pool::new(threads))
    }
}

fn global() -> &'static Option<Pool> {
    POOL.get_or_init(|| build(configured_threads()))
}

/// Forces the pool size before first use. Returns `true` if this call
/// decided the size, `false` if the pool was already initialised (the
/// existing size stays). Intended for tests and benches that must
/// exercise real workers regardless of host core count.
pub fn init_with_threads(threads: usize) -> bool {
    POOL.set(build(threads)).is_ok()
}

/// Effective parallelism: the partition width `fold`/batch splitting is
/// computed from. Stable for the process lifetime.
pub fn current_num_threads() -> usize {
    global().as_ref().map_or(1, |p| p.threads)
}

/// Runs `f` with the pool bypassed on this thread: every parallel stage
/// entered inside the closure executes inline, in block order. Batch
/// partitioning still uses [`current_num_threads`], so results that are
/// deterministic pool-on are bit-identical pool-off.
pub fn serial_scope<R>(f: impl FnOnce() -> R) -> R {
    struct Guard;
    impl Drop for Guard {
        fn drop(&mut self) {
            SERIAL_DEPTH.with(|d| d.set(d.get() - 1));
        }
    }
    SERIAL_DEPTH.with(|d| d.set(d.get() + 1));
    let _g = Guard;
    f()
}

/// True when parallel stages on this thread must run inline: pool
/// disabled, inside [`serial_scope`], or already on a pool worker
/// (nested parallelism runs serial — no deadlock, no oversubscription).
fn inline_mode() -> bool {
    IS_WORKER.with(Cell::get) || SERIAL_DEPTH.with(Cell::get) > 0
}

/// Executes `body(b)` for every `b in 0..blocks`, distributing blocks
/// over the pool. The submitting thread participates; the call returns
/// only after every block has finished. Block-to-thread assignment is
/// nondeterministic but each block runs exactly once, so order-dependent
/// results must be written to per-block slots (see [`crate::batch`]).
/// Panics from any block are re-thrown here after completion.
pub(crate) fn run_blocks(blocks: usize, body: &(dyn Fn(usize) + Sync)) {
    if blocks == 0 {
        return;
    }
    let pool = match global() {
        Some(p) if blocks > 1 && !inline_mode() => p,
        _ => {
            for b in 0..blocks {
                body(b);
            }
            return;
        }
    };
    pool.ensure_workers();

    // SAFETY: see module docs — the reference is only dereferenced by
    // blocks counted in `done`, and we wait for `done == blocks` below,
    // inside this borrow's lifetime.
    let body_static: &'static (dyn Fn(usize) + Sync) =
        unsafe { std::mem::transmute::<&(dyn Fn(usize) + Sync), _>(body) };
    let task = Arc::new(Task::new(body_static, blocks));
    {
        let mut q = lock(&pool.queue);
        q.push_back(Arc::clone(&task));
    }
    pool.work_cv.notify_all();

    task.run_to_exhaustion();
    task.wait_finished();

    let payload = lock(&task.panic).take();
    if let Some(p) = payload {
        resume_unwind(p);
    }
}

/// Runs the two closures, potentially in parallel, and returns both
/// results — rayon's primitive for recursive splitting. Inline when the
/// pool is off, inside [`serial_scope`], or on a worker.
pub fn join<RA, RB>(a: impl FnOnce() -> RA + Send, b: impl FnOnce() -> RB + Send) -> (RA, RB)
where
    RA: Send,
    RB: Send,
{
    let fa = Mutex::new(Some(a));
    let fb = Mutex::new(Some(b));
    let ra = Mutex::new(None);
    let rb = Mutex::new(None);
    run_blocks(2, &|i| {
        if i == 0 {
            if let Some(f) = lock(&fa).take() {
                *lock(&ra) = Some(f());
            }
        } else if let Some(f) = lock(&fb).take() {
            *lock(&rb) = Some(f());
        }
    });
    let results = (lock(&ra).take(), lock(&rb).take());
    match results {
        (Some(x), Some(y)) => (x, y),
        // Unreachable: run_blocks runs each block exactly once or
        // propagates the panic that prevented it.
        _ => panic!("join: a branch did not complete"),
    }
}

/// The shipped task protocol under the msa-race checker: model workers
/// and the submitter drain one [`Task`], then the submitter waits and
/// reads every block's output, as [`run_blocks`]' caller does. The
/// outputs are statics because a task body is `&'static`.
#[cfg(test)]
#[cfg(msa_check)]
mod race {
    use super::*;
    use msa_race::sync::RaceCell;
    use msa_race::{explore, thread, Options};

    static CLEAN: [RaceCell<u64>; 3] = [const { RaceCell::named(0, "pool.out") }; 3];
    static PANICKY: [RaceCell<u64>; 3] = [const { RaceCell::named(0, "pool.out") }; 3];
    static WIDE: [RaceCell<u64>; 4] = [const { RaceCell::named(0, "pool.out") }; 4];

    /// One submit of one block per `out` cell with `workers` model
    /// workers beside the submitter; block `panicking`, if any, panics
    /// instead of writing its output.
    fn submit(
        body: &'static (dyn Fn(usize) + Sync),
        out: &'static [RaceCell<u64>],
        workers: usize,
        panicking: Option<usize>,
    ) {
        for cell in out {
            cell.set(0);
        }
        let task = Task::new(body, out.len());
        thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(|| task.run_to_exhaustion());
            }
            task.run_to_exhaustion();
            task.wait_finished();
            // Read before the workers are joined, as `run_blocks`' caller
            // returns while workers may still hold the task.
            for (b, cell) in out.iter().enumerate() {
                let want = if panicking == Some(b) { 0 } else { b as u64 + 1 };
                assert_eq!(cell.get(), want, "block {b} ran exactly once, before the wait returned");
            }
        });
        let stashed = lock(&task.panic).take().is_some();
        assert_eq!(stashed, panicking.is_some(), "a block's panic is stashed for the caller");
    }

    fn assert_clean(opts: &Options, f: impl Fn() + Send + Sync + 'static) {
        match explore(opts, f) {
            Ok(stats) => assert!(stats.schedules > 1, "explored {} schedule(s)", stats.schedules),
            Err(failure) => panic!("the shipped pool task failed under the checker:\n{failure}"),
        }
    }

    #[test]
    fn one_worker_three_blocks_explore_clean() {
        assert_clean(&Options::exhaustive(2), || {
            submit(&|b| CLEAN[b].set(b as u64 + 1), &CLEAN, 1, None)
        });
    }

    #[test]
    fn a_panicking_block_is_stashed_for_the_caller() {
        assert_clean(&Options::exhaustive(2), || {
            let body = &|b: usize| match b {
                1 => panic!("block 1 fails"),
                _ => PANICKY[b].set(b as u64 + 1),
            };
            submit(body, &PANICKY, 1, Some(1))
        });
    }

    #[test]
    fn two_workers_four_blocks_random_walk_is_clean() {
        assert_clean(&Options::random(0x5eed_0001, 400), || {
            submit(&|b| WIDE[b].set(b as u64 + 1), &WIDE, 2, None)
        });
    }
}
