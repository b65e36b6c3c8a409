//! The deterministic schedule-exploring executor.
//!
//! Model threads are real OS threads, but only one ever runs at a time:
//! every instrumented operation (lock, wait, notify, atomic access,
//! `RaceCell` access, spawn, join) is a *choice point* where the
//! running thread parks and the scheduler picks who runs next. A whole
//! execution is therefore summarized by the sequence of choice indices,
//! which makes schedules exactly replayable and the search systematic.
//!
//! Exploration is CHESS-style iterative DFS with a preemption bound:
//! choice alternatives are ordered previous-thread-first, so index 0
//! never costs a preemption and deeper indices cost one each time they
//! switch away from a still-runnable previous thread. `next_prefix`
//! backtracks to the deepest choice with an untried alternative whose
//! preemption cost stays within the bound. A seeded random-walk mode
//! covers state spaces too large to enumerate.
//!
//! On top of the serialized execution sit three analyses:
//! * vector-clock happens-before tracking (see [`crate::clock`]) with
//!   race checks on every [`crate::sync::RaceCell`] access,
//! * lost-wakeup detection: all threads blocked and at least one parked
//!   on a condvar nobody can ever notify again,
//! * wait-for-graph deadlock detection over mutex owners and joins.
//!
//! There is no spin support: a model that busy-waits on an atomic runs
//! into `Options::max_steps` and is reported as
//! [`FailureKind::DepthExceeded`]. No shipped code spins; every wait
//! blocks on a condvar, a join or a channel.

use crate::clock::VClock;
use crate::report::{Access, Failure, FailureKind, Stats, TraceEvent};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, Once, PoisonError};

pub(crate) type Tid = usize;

/// Poison-tolerant lock: a model-thread panic is part of normal
/// teardown, so poisoning carries no information here.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

fn cv_wait<'a, T>(cv: &Condvar, g: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(g).unwrap_or_else(PoisonError::into_inner)
}

/// How the schedule space is covered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Iterative DFS over all schedules within the preemption bound.
    Exhaustive,
    /// `iterations` independent runs with seeded random choices.
    Random { seed: u64, iterations: u64 },
}

/// Exploration limits. The defaults suit small protocol models (2–4
/// threads, tens of ops); harnesses tune them per model.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// Max preemptions per schedule in [`Mode::Exhaustive`]; `None`
    /// removes the bound (full DFS — only for tiny models).
    pub preemption_bound: Option<usize>,
    /// Hard cap on schedules per exploration; hitting it returns a
    /// truncated [`Stats`] rather than an error.
    pub max_schedules: u64,
    /// Hard cap on instrumented ops in one schedule.
    pub max_steps: usize,
    pub mode: Mode,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            preemption_bound: Some(2),
            max_schedules: 100_000,
            max_steps: 20_000,
            mode: Mode::Exhaustive,
        }
    }
}

impl Options {
    /// Exhaustive exploration with the given preemption bound.
    pub fn exhaustive(preemption_bound: usize) -> Self {
        Options {
            preemption_bound: Some(preemption_bound),
            ..Options::default()
        }
    }

    /// Seeded random walk: `iterations` independent schedules.
    pub fn random(seed: u64, iterations: u64) -> Self {
        Options {
            mode: Mode::Random { seed, iterations },
            ..Options::default()
        }
    }
}

/// Panic payload used to unwind model threads during teardown. Never
/// reported; the quiet panic hook suppresses its output.
struct AbortToken;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Block {
    Mutex(u64),
    Condvar(u64),
    Join(Tid),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    Runnable,
    Running,
    Blocked(Block),
    Finished,
}

struct ThreadSt {
    status: Status,
    clock: VClock,
}

#[derive(Default)]
struct MutexSt {
    owner: Option<Tid>,
    /// Clock of the last release; joined by the next acquirer.
    sync: VClock,
}

#[derive(Default)]
struct CondvarSt {
    /// FIFO wait queue.
    waiters: Vec<Tid>,
    /// Step of the most recent notify that found nobody waiting.
    unheard_notify: Option<usize>,
}

#[derive(Default)]
struct AtomicSt {
    /// Release-sequence clock: set by releasing stores, accumulated by
    /// releasing RMWs, cleared by relaxed stores, joined by acquiring
    /// loads/RMWs.
    sync: VClock,
}

#[derive(Default)]
struct CellSt {
    /// Last write: `(thread, that thread's clock component at write)`.
    write: Option<(Tid, u32)>,
    /// Per-thread clock components of reads since the last write.
    reads: VClock,
}

enum Obj {
    Mutex(MutexSt),
    Condvar(CondvarSt),
    Atomic(AtomicSt),
    Cell(CellSt),
}

/// One scheduler decision, with what `next_prefix` needs to enumerate
/// its untried alternatives under the preemption bound.
struct ChoiceRec {
    n_alts: usize,
    chosen: usize,
    /// Whether the previously running thread was among the alternatives
    /// (index 0); if so, any other index costs a preemption.
    prev_enabled: bool,
    /// Preemptions spent before this choice.
    preempt_before: usize,
}

struct State {
    threads: Vec<ThreadSt>,
    running: Option<Tid>,
    prev: Option<Tid>,
    replay: Vec<usize>,
    replay_pos: usize,
    /// Random-walk RNG state; `None` in exhaustive mode.
    rng: Option<u64>,
    choices: Vec<ChoiceRec>,
    preemptions: usize,
    step: usize,
    max_steps: usize,
    trace: Vec<TraceEvent>,
    objects: BTreeMap<u64, Obj>,
    labels: BTreeMap<u64, String>,
    failure: Option<FailureKind>,
    abort: bool,
    complete: bool,
}

pub(crate) struct Sched {
    st: Mutex<State>,
    cv: Condvar,
}

thread_local! {
    static CTX: std::cell::RefCell<Option<Ctx>> = const { std::cell::RefCell::new(None) };
}

/// The per-OS-thread handle back into the model, set for the lifetime
/// of a model thread. Instrumented types fall back to plain `std`
/// behavior when no context is present.
#[derive(Clone)]
pub(crate) struct Ctx {
    pub(crate) sched: Arc<Sched>,
    pub(crate) tid: Tid,
}

/// The calling thread's model context. `None` while the thread unwinds
/// through a torn-down run: the drops on its way out (a channel end, a
/// lock) then act on the plain std values instead of re-entering a
/// scheduler that would panic again mid-unwind.
pub(crate) fn current() -> Option<Ctx> {
    CTX.with(|c| c.borrow().clone())
        .filter(|ctx| !(std::thread::panicking() && lock(&ctx.sched.st).abort))
}

fn acquires(ord: std::sync::atomic::Ordering) -> bool {
    use std::sync::atomic::Ordering::{AcqRel, Acquire, SeqCst};
    matches!(ord, Acquire | AcqRel | SeqCst)
}

fn releases(ord: std::sync::atomic::Ordering) -> bool {
    use std::sync::atomic::Ordering::{AcqRel, Release, SeqCst};
    matches!(ord, Release | AcqRel | SeqCst)
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn payload_message(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Suppresses panic output from model threads (named `msa-race-*`):
/// their panics are either deliberate teardown or captured into the
/// failure report, so stderr noise would only obscure the real report.
fn install_quiet_panic_hook() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let quiet = std::thread::current()
                .name()
                .is_some_and(|n| n.starts_with("msa-race-"));
            if !quiet {
                prev(info);
            }
        }));
    });
}

impl Sched {
    fn new(opts: &Options, replay: Vec<usize>, rng: Option<u64>) -> Sched {
        Sched {
            st: Mutex::new(State {
                threads: Vec::new(),
                running: None,
                prev: None,
                replay,
                replay_pos: 0,
                rng,
                choices: Vec::new(),
                preemptions: 0,
                step: 0,
                max_steps: opts.max_steps,
                trace: Vec::new(),
                objects: BTreeMap::new(),
                labels: BTreeMap::new(),
                failure: None,
                abort: false,
                complete: false,
            }),
            cv: Condvar::new(),
        }
    }

    fn ensure_obj(
        &self,
        st: &mut State,
        id: u64,
        label: Option<&'static str>,
        kind: &'static str,
        make: fn() -> Obj,
    ) {
        st.objects.entry(id).or_insert_with(make);
        st.labels
            .entry(id)
            .or_insert_with(|| label.map_or_else(|| format!("{kind}#{id}"), str::to_string));
    }

    fn label_of(st: &State, id: u64) -> String {
        st.labels
            .get(&id)
            .cloned()
            .unwrap_or_else(|| format!("obj#{id}"))
    }

    /// Records one instrumented op; trips the depth guard.
    fn note(&self, st: &mut State, tid: Tid, what: String) {
        st.step += 1;
        st.trace.push(TraceEvent {
            step: st.step,
            thread: tid,
            what,
        });
        if st.step > st.max_steps && st.failure.is_none() {
            st.failure = Some(FailureKind::DepthExceeded { steps: st.step });
            st.abort = true;
            self.cv.notify_all();
        }
    }

    /// Sets the failure, aborts the run and unwinds the current thread.
    fn fail(&self, mut st: MutexGuard<'_, State>, kind: FailureKind) -> ! {
        if st.failure.is_none() {
            st.failure = Some(kind);
        }
        st.abort = true;
        self.cv.notify_all();
        drop(st);
        std::panic::panic_any(AbortToken);
    }

    /// Choice point: marks `tid` runnable, lets the scheduler pick the
    /// next thread, and returns once `tid` is granted the token again.
    fn enter_op(&self, tid: Tid) -> MutexGuard<'_, State> {
        let mut st = lock(&self.st);
        if st.abort {
            drop(st);
            std::panic::panic_any(AbortToken);
        }
        st.threads[tid].status = Status::Runnable;
        st.threads[tid].clock.tick(tid);
        self.schedule(&mut st);
        self.wait_running(st, tid)
    }

    fn wait_running<'a>(
        &self,
        mut st: MutexGuard<'a, State>,
        tid: Tid,
    ) -> MutexGuard<'a, State> {
        loop {
            if st.abort {
                drop(st);
                std::panic::panic_any(AbortToken);
            }
            if st.running == Some(tid) {
                st.threads[tid].status = Status::Running;
                return st;
            }
            st = cv_wait(&self.cv, st);
        }
    }

    /// Parks `tid` with `reason` and returns once it is rescheduled.
    fn block_on<'a>(
        &self,
        mut st: MutexGuard<'a, State>,
        tid: Tid,
        reason: Block,
    ) -> MutexGuard<'a, State> {
        st.threads[tid].status = Status::Blocked(reason);
        self.schedule(&mut st);
        self.wait_running(st, tid)
    }

    /// Picks the next running thread among the runnable ones (replay
    /// prefix, then RNG or default-0 which is previous-thread-first and
    /// costs no preemption). Detects terminal states.
    fn schedule(&self, st: &mut State) {
        if st.abort || st.failure.is_some() {
            st.abort = true;
            self.cv.notify_all();
            return;
        }
        let mut alts: Vec<Tid> = st
            .threads
            .iter()
            .enumerate()
            .filter(|(_, t)| t.status == Status::Runnable)
            .map(|(i, _)| i)
            .collect();
        if alts.is_empty() {
            if st.threads.iter().all(|t| t.status == Status::Finished) {
                st.complete = true;
                st.running = None;
            } else {
                st.failure = Some(self.classify(st));
                st.abort = true;
            }
            self.cv.notify_all();
            return;
        }
        let prev_enabled = st.prev.is_some_and(|p| alts.contains(&p));
        if prev_enabled {
            // Previous thread first: index 0 continues it for free.
            if let Some(p) = st.prev {
                alts.retain(|&t| t != p);
                alts.insert(0, p);
            }
        }
        let idx = if st.replay_pos < st.replay.len() {
            st.replay[st.replay_pos]
        } else if let Some(s) = st.rng.as_mut() {
            (splitmix(s) as usize) % alts.len()
        } else {
            0
        };
        st.replay_pos += 1;
        // A replay index out of range would mean the model behaved
        // differently on the same schedule — models must be
        // deterministic for DFS to be sound. Clamp defensively.
        debug_assert!(idx < alts.len(), "nondeterministic model: replay diverged");
        let idx = idx.min(alts.len() - 1);
        st.choices.push(ChoiceRec {
            n_alts: alts.len(),
            chosen: idx,
            prev_enabled,
            preempt_before: st.preemptions,
        });
        if prev_enabled && idx != 0 {
            st.preemptions += 1;
        }
        let next = alts[idx];
        st.prev = Some(next);
        st.running = Some(next);
        self.cv.notify_all();
    }

    /// Classifies an all-blocked state (no runnable, not all finished).
    fn classify(&self, st: &State) -> FailureKind {
        let n = st.threads.len();
        let target = |i: Tid| -> Option<Tid> {
            match st.threads[i].status {
                Status::Blocked(Block::Mutex(m)) => match st.objects.get(&m) {
                    Some(Obj::Mutex(ms)) => ms.owner,
                    _ => None,
                },
                Status::Blocked(Block::Join(t)) => Some(t),
                _ => None,
            }
        };
        let describe = |i: Tid| -> String {
            match st.threads[i].status {
                Status::Blocked(Block::Mutex(m)) => {
                    let held = match st.objects.get(&m) {
                        Some(Obj::Mutex(ms)) => ms
                            .owner
                            .map_or_else(String::new, |o| format!(" held by t{o}")),
                        _ => String::new(),
                    };
                    format!("t{i} blocked on lock({}){held}", Self::label_of(st, m))
                }
                Status::Blocked(Block::Condvar(c)) => {
                    format!("t{i} waiting on condvar({})", Self::label_of(st, c))
                }
                Status::Blocked(Block::Join(t)) => format!("t{i} blocked joining t{t}"),
                _ => format!("t{i}"),
            }
        };
        // Lock/join cycles first: the classic deadlock.
        for start in 0..n {
            let mut path = vec![start];
            let mut cur = start;
            while let Some(nx) = target(cur) {
                if let Some(pos) = path.iter().position(|&p| p == nx) {
                    let chain: Vec<String> = path[pos..].iter().map(|&t| describe(t)).collect();
                    return FailureKind::Deadlock {
                        chain,
                        is_cycle: true,
                    };
                }
                path.push(nx);
                cur = nx;
                if path.len() > n {
                    break;
                }
            }
        }
        // Condvar waiters with nobody left to notify them.
        let waiting: Vec<Tid> = (0..n)
            .filter(|&i| matches!(st.threads[i].status, Status::Blocked(Block::Condvar(_))))
            .collect();
        if !waiting.is_empty() {
            let mut notes: Vec<String> = Vec::new();
            for &w in &waiting {
                if let Status::Blocked(Block::Condvar(c)) = st.threads[w].status {
                    if let Some(Obj::Condvar(cs)) = st.objects.get(&c) {
                        if let Some(step) = cs.unheard_notify {
                            notes.push(format!(
                                "notify on {} at step {step} found no waiting thread",
                                Self::label_of(st, c)
                            ));
                        }
                    }
                }
            }
            notes.sort();
            notes.dedup();
            let note = if notes.is_empty() {
                "no notify was ever issued on the condvar(s) being waited on".to_string()
            } else {
                notes.join("; ")
            };
            return FailureKind::LostWakeup {
                waiting: waiting.iter().map(|&t| describe(t)).collect(),
                note,
            };
        }
        FailureKind::Deadlock {
            chain: (0..n)
                .filter(|&i| matches!(st.threads[i].status, Status::Blocked(_)))
                .map(describe)
                .collect(),
            is_cycle: false,
        }
    }

    // -- instrumented operations -------------------------------------------

    pub(crate) fn mutex_lock(&self, tid: Tid, id: u64, label: Option<&'static str>) {
        let mut st = self.enter_op(tid);
        self.ensure_obj(&mut st, id, label, "mutex", || Obj::Mutex(MutexSt::default()));
        loop {
            let owner = match st.objects.get(&id) {
                Some(Obj::Mutex(ms)) => ms.owner,
                _ => None,
            };
            if owner.is_none() {
                let sync = match st.objects.get(&id) {
                    Some(Obj::Mutex(ms)) => ms.sync.clone(),
                    _ => VClock::default(),
                };
                st.threads[tid].clock.join(&sync);
                if let Some(Obj::Mutex(ms)) = st.objects.get_mut(&id) {
                    ms.owner = Some(tid);
                }
                let l = Self::label_of(&st, id);
                self.note(&mut st, tid, format!("lock({l})"));
                return;
            }
            let l = Self::label_of(&st, id);
            self.note(&mut st, tid, format!("blocked on lock({l})"));
            st = self.block_on(st, tid, Block::Mutex(id));
        }
    }

    pub(crate) fn mutex_unlock(&self, tid: Tid, id: u64) {
        let mut st = self.enter_op(tid);
        self.release_mutex(&mut st, tid, id);
        let l = Self::label_of(&st, id);
        self.note(&mut st, tid, format!("unlock({l})"));
    }

    /// Guard-drop during an unwind. Must not be a choice point:
    /// `enter_op` panics under abort, and a panic while unwinding is a
    /// process abort. Releases the mutex directly so a non-abort panic
    /// leaves no stuck owner behind for `classify` to misread.
    pub(crate) fn release_on_unwind(&self, tid: Tid, id: u64) {
        let mut st = lock(&self.st);
        self.release_mutex(&mut st, tid, id);
    }

    fn release_mutex(&self, st: &mut State, tid: Tid, id: u64) {
        let clock = st.threads[tid].clock.clone();
        if let Some(Obj::Mutex(ms)) = st.objects.get_mut(&id) {
            ms.owner = None;
            ms.sync = clock;
        }
        for t in &mut st.threads {
            if t.status == Status::Blocked(Block::Mutex(id)) {
                t.status = Status::Runnable;
            }
        }
    }

    pub(crate) fn condvar_wait(
        &self,
        tid: Tid,
        cv_id: u64,
        cv_label: Option<&'static str>,
        mutex_id: u64,
    ) {
        let mut st = self.enter_op(tid);
        self.ensure_obj(&mut st, cv_id, cv_label, "condvar", || {
            Obj::Condvar(CondvarSt::default())
        });
        // Atomically release the mutex and join the wait queue; the
        // caller reacquires through `mutex_lock` after the wakeup, which
        // is where the happens-before edge comes from (same guarantee a
        // real condvar gives).
        self.release_mutex(&mut st, tid, mutex_id);
        if let Some(Obj::Condvar(cs)) = st.objects.get_mut(&cv_id) {
            cs.waiters.push(tid);
        }
        let l = Self::label_of(&st, cv_id);
        self.note(&mut st, tid, format!("wait({l})"));
        let mut st = self.block_on(st, tid, Block::Condvar(cv_id));
        let l = Self::label_of(&st, cv_id);
        self.note(&mut st, tid, format!("woken({l})"));
    }

    pub(crate) fn condvar_notify(
        &self,
        tid: Tid,
        id: u64,
        label: Option<&'static str>,
        all: bool,
    ) {
        let mut st = self.enter_op(tid);
        self.ensure_obj(&mut st, id, label, "condvar", || {
            Obj::Condvar(CondvarSt::default())
        });
        let woken: Vec<Tid> = if let Some(Obj::Condvar(cs)) = st.objects.get_mut(&id) {
            if all {
                std::mem::take(&mut cs.waiters)
            } else if cs.waiters.is_empty() {
                Vec::new()
            } else {
                vec![cs.waiters.remove(0)]
            }
        } else {
            Vec::new()
        };
        let l = Self::label_of(&st, id);
        let verb = if all { "notify_all" } else { "notify_one" };
        if woken.is_empty() {
            let step = st.step + 1;
            if let Some(Obj::Condvar(cs)) = st.objects.get_mut(&id) {
                cs.unheard_notify = Some(step);
            }
            self.note(&mut st, tid, format!("{verb}({l}) — no waiter"));
        } else {
            for &w in &woken {
                st.threads[w].status = Status::Runnable;
            }
            let names: Vec<String> = woken.iter().map(|w| format!("t{w}")).collect();
            self.note(
                &mut st,
                tid,
                format!("{verb}({l}) wakes {}", names.join(", ")),
            );
        }
    }

    pub(crate) fn atomic_load(
        &self,
        tid: Tid,
        id: u64,
        label: Option<&'static str>,
        ord: std::sync::atomic::Ordering,
        read: impl FnOnce() -> u64,
    ) -> u64 {
        let mut st = self.enter_op(tid);
        self.ensure_obj(&mut st, id, label, "atomic", || {
            Obj::Atomic(AtomicSt::default())
        });
        let v = read();
        if acquires(ord) {
            let sync = match st.objects.get(&id) {
                Some(Obj::Atomic(a)) => a.sync.clone(),
                _ => VClock::default(),
            };
            st.threads[tid].clock.join(&sync);
        }
        let l = Self::label_of(&st, id);
        self.note(&mut st, tid, format!("load({l}, {ord:?}) -> {v}"));
        v
    }

    pub(crate) fn atomic_store(
        &self,
        tid: Tid,
        id: u64,
        label: Option<&'static str>,
        ord: std::sync::atomic::Ordering,
        write: impl FnOnce() -> u64,
    ) {
        let mut st = self.enter_op(tid);
        self.ensure_obj(&mut st, id, label, "atomic", || {
            Obj::Atomic(AtomicSt::default())
        });
        let v = write();
        let clock = st.threads[tid].clock.clone();
        if let Some(Obj::Atomic(a)) = st.objects.get_mut(&id) {
            if releases(ord) {
                a.sync = clock;
            } else {
                // A relaxed store breaks the location's release
                // sequence: later acquiring loads of this value
                // synchronize with nothing.
                a.sync.clear();
            }
        }
        let l = Self::label_of(&st, id);
        self.note(&mut st, tid, format!("store({l}, {ord:?}) <- {v}"));
    }

    pub(crate) fn atomic_rmw(
        &self,
        tid: Tid,
        id: u64,
        label: Option<&'static str>,
        ord: std::sync::atomic::Ordering,
        rmw: impl FnOnce() -> (u64, u64),
    ) {
        let mut st = self.enter_op(tid);
        self.ensure_obj(&mut st, id, label, "atomic", || {
            Obj::Atomic(AtomicSt::default())
        });
        let (old, new) = rmw();
        if acquires(ord) {
            let sync = match st.objects.get(&id) {
                Some(Obj::Atomic(a)) => a.sync.clone(),
                _ => VClock::default(),
            };
            st.threads[tid].clock.join(&sync);
        }
        if releases(ord) {
            let clock = st.threads[tid].clock.clone();
            if let Some(Obj::Atomic(a)) = st.objects.get_mut(&id) {
                // An RMW continues the release sequence: accumulate
                // rather than replace, so earlier releasers stay
                // visible to later acquirers through the chain.
                a.sync.join(&clock);
            }
        }
        // A relaxed RMW neither clears nor contributes: it continues
        // the release sequence unchanged.
        let l = Self::label_of(&st, id);
        self.note(&mut st, tid, format!("rmw({l}, {ord:?}) {old} -> {new}"));
    }

    pub(crate) fn cell_read<R>(
        &self,
        tid: Tid,
        id: u64,
        label: Option<&'static str>,
        read: impl FnOnce() -> R,
    ) -> R {
        let mut st = self.enter_op(tid);
        self.ensure_obj(&mut st, id, label, "cell", || Obj::Cell(CellSt::default()));
        let prior_write = match st.objects.get(&id) {
            Some(Obj::Cell(c)) => c.write,
            _ => None,
        };
        if let Some((wt, wc)) = prior_write {
            if wt != tid && st.threads[tid].clock.get(wt) < wc {
                let l = Self::label_of(&st, id);
                self.note(&mut st, tid, format!("RACING read({l})"));
                self.fail(
                    st,
                    FailureKind::DataRace {
                        object: l,
                        prior: Access {
                            thread: wt,
                            is_write: true,
                        },
                        current: Access {
                            thread: tid,
                            is_write: false,
                        },
                    },
                );
            }
        }
        let now = st.threads[tid].clock.get(tid);
        if let Some(Obj::Cell(c)) = st.objects.get_mut(&id) {
            c.reads.set_max(tid, now);
        }
        let l = Self::label_of(&st, id);
        self.note(&mut st, tid, format!("read({l})"));
        read()
    }

    pub(crate) fn cell_write(
        &self,
        tid: Tid,
        id: u64,
        label: Option<&'static str>,
        write: impl FnOnce(),
    ) {
        let mut st = self.enter_op(tid);
        self.ensure_obj(&mut st, id, label, "cell", || Obj::Cell(CellSt::default()));
        let (prior_write, readers) = match st.objects.get(&id) {
            Some(Obj::Cell(c)) => (c.write, c.reads.clone()),
            _ => (None, VClock::default()),
        };
        let racer = prior_write
            .filter(|&(wt, wc)| wt != tid && st.threads[tid].clock.get(wt) < wc)
            .map(|(wt, _)| Access {
                thread: wt,
                is_write: true,
            })
            .or_else(|| {
                readers
                    .iter_nonzero()
                    .find(|&(rt, rc)| rt != tid && st.threads[tid].clock.get(rt) < rc)
                    .map(|(rt, _)| Access {
                        thread: rt,
                        is_write: false,
                    })
            });
        if let Some(prior) = racer {
            let l = Self::label_of(&st, id);
            self.note(&mut st, tid, format!("RACING write({l})"));
            self.fail(
                st,
                FailureKind::DataRace {
                    object: l,
                    prior,
                    current: Access {
                        thread: tid,
                        is_write: true,
                    },
                },
            );
        }
        let now = st.threads[tid].clock.get(tid);
        if let Some(Obj::Cell(c)) = st.objects.get_mut(&id) {
            c.write = Some((tid, now));
            c.reads = VClock::default();
        }
        write();
        let l = Self::label_of(&st, id);
        self.note(&mut st, tid, format!("write({l})"));
    }

    /// A model thread on `scope`, forked from `parent` (the spawn edge:
    /// the child starts from the parent's clock, the parent ticks). The
    /// enclosing `std::thread::scope` joins its OS thread, which returns
    /// `None` only when torn down.
    pub(crate) fn spawn_scoped<'scope, T: Send + 'scope>(
        self: &Arc<Self>,
        parent: Tid,
        scope: &'scope std::thread::Scope<'scope, '_>,
        f: impl FnOnce() -> T + Send + 'scope,
    ) -> (Tid, std::thread::ScopedJoinHandle<'scope, Option<T>>) {
        let mut st = self.enter_op(parent);
        let child = st.threads.len();
        let mut clock = st.threads[parent].clock.clone();
        clock.tick(child);
        st.threads.push(ThreadSt {
            status: Status::Runnable,
            clock,
        });
        self.note(&mut st, parent, format!("spawn t{child}"));
        let sched = Arc::clone(self);
        let spawned = std::thread::Builder::new()
            .name(format!("msa-race-{child}"))
            .spawn_scoped(scope, move || {
                let mut out = None;
                sched.thread_main(child, || out = Some(f()));
                out
            });
        match spawned {
            Ok(h) => (child, h),
            Err(_) => self.fail(
                st,
                FailureKind::Panic {
                    thread: parent,
                    message: "could not spawn a model OS thread".to_string(),
                },
            ),
        }
    }

    pub(crate) fn join_model(&self, me: Tid, target: Tid) {
        let mut st = self.enter_op(me);
        loop {
            if st.threads[target].status == Status::Finished {
                let c = st.threads[target].clock.clone();
                st.threads[me].clock.join(&c);
                self.note(&mut st, me, format!("joined t{target}"));
                return;
            }
            self.note(&mut st, me, format!("blocked joining t{target}"));
            st = self.block_on(st, me, Block::Join(target));
        }
    }

    /// Entry point of every model OS thread (including thread 0).
    pub(crate) fn thread_main(self: &Arc<Self>, tid: Tid, body: impl FnOnce()) {
        CTX.with(|c| {
            *c.borrow_mut() = Some(Ctx {
                sched: Arc::clone(self),
                tid,
            });
        });
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            {
                let st = lock(&self.st);
                let _st = self.wait_running(st, tid);
            }
            body();
        }));
        match outcome {
            Ok(()) => self.finish(tid, false),
            Err(p) if p.is::<AbortToken>() => self.finish(tid, true),
            Err(p) => {
                self.abort_on_panic(tid, p.as_ref());
                lock(&self.st).threads[tid].status = Status::Finished;
            }
        }
        CTX.with(|c| *c.borrow_mut() = None);
    }

    /// Aborts the run for a panic unwinding out of `tid`'s model code,
    /// recorded as the failure unless it is the teardown token. Every
    /// parked thread then unwinds, so OS-level joins can complete.
    pub(crate) fn abort_on_panic(&self, tid: Tid, payload: &(dyn std::any::Any + Send)) {
        let mut st = lock(&self.st);
        if st.failure.is_none() && !payload.is::<AbortToken>() {
            st.failure = Some(FailureKind::Panic {
                thread: tid,
                message: payload_message(payload),
            });
        }
        st.abort = true;
        self.cv.notify_all();
    }

    fn finish(&self, tid: Tid, teardown: bool) {
        let mut st = lock(&self.st);
        if st.abort {
            // Teardown in progress: just make sure nobody waits on us.
            st.threads[tid].status = Status::Finished;
            self.cv.notify_all();
            return;
        }
        st.threads[tid].status = Status::Finished;
        if !teardown {
            self.note(&mut st, tid, "exits".to_string());
        }
        for t in &mut st.threads {
            if t.status == Status::Blocked(Block::Join(tid)) {
                t.status = Status::Runnable;
            }
        }
        if st.running == Some(tid) {
            self.schedule(&mut st);
        }
    }
}

/// Computes the next DFS prefix: the deepest choice with an untried
/// alternative whose preemption cost fits the bound, or `None` when the
/// bounded space is exhausted.
fn next_prefix(choices: &[ChoiceRec], bound: Option<usize>) -> Option<Vec<usize>> {
    for d in (0..choices.len()).rev() {
        let c = &choices[d];
        let next = c.chosen + 1;
        if next >= c.n_alts {
            continue;
        }
        let cost = usize::from(c.prev_enabled && next != 0);
        if bound.is_none_or(|b| c.preempt_before + cost <= b) {
            let mut prefix: Vec<usize> = choices[..d].iter().map(|c| c.chosen).collect();
            prefix.push(next);
            return Some(prefix);
        }
    }
    None
}

struct RunOutcome {
    failure: Option<FailureKind>,
    trace: Vec<TraceEvent>,
    choices: Vec<ChoiceRec>,
}

fn run_once<F>(opts: &Options, f: &Arc<F>, replay: Vec<usize>, rng: Option<u64>) -> RunOutcome
where
    F: Fn() + Send + Sync + 'static,
{
    let sched = Arc::new(Sched::new(opts, replay, rng));
    {
        let mut st = lock(&sched.st);
        let mut clock = VClock::default();
        clock.tick(0);
        st.threads.push(ThreadSt {
            status: Status::Runnable,
            clock,
        });
        st.running = Some(0);
        st.prev = Some(0);
    }
    let sched0 = Arc::clone(&sched);
    let f0 = Arc::clone(f);
    let root = std::thread::Builder::new()
        .name("msa-race-0".to_string())
        .spawn(move || sched0.thread_main(0, move || f0()));
    let root = match root {
        Ok(h) => h,
        Err(_) => {
            return RunOutcome {
                failure: Some(FailureKind::Panic {
                    thread: 0,
                    message: "could not spawn the root model thread".to_string(),
                }),
                trace: Vec::new(),
                choices: Vec::new(),
            }
        }
    };
    {
        let mut st = lock(&sched.st);
        while !st.complete && !st.abort {
            st = cv_wait(&sched.cv, st);
        }
    }
    // Every other model thread is scoped, so joining the root joins all.
    let _ = root.join();
    let mut st = lock(&sched.st);
    RunOutcome {
        failure: st.failure.take(),
        trace: std::mem::take(&mut st.trace),
        choices: std::mem::take(&mut st.choices),
    }
}

/// Explores the schedules of the model closure `f` under `opts`.
///
/// `f` is run once per schedule; it must build all of its state fresh
/// on every call and be deterministic apart from scheduling (no real
/// time, no OS randomness). On a clean exploration, returns how many
/// schedules were covered; on the first failing schedule, returns the
/// failure with its full trace replay.
pub fn explore<F>(opts: &Options, f: F) -> Result<Stats, Box<Failure>>
where
    F: Fn() + Send + Sync + 'static,
{
    install_quiet_panic_hook();
    let f = Arc::new(f);
    let mut schedules: u64 = 0;
    match opts.mode {
        Mode::Exhaustive => {
            let mut prefix: Vec<usize> = Vec::new();
            loop {
                let run = run_once(opts, &f, prefix.clone(), None);
                schedules += 1;
                if let Some(kind) = run.failure {
                    return Err(Box::new(Failure {
                        kind,
                        trace: run.trace,
                        schedule: run.choices.iter().map(|c| c.chosen).collect(),
                        schedules_explored: schedules,
                    }));
                }
                if schedules >= opts.max_schedules {
                    return Ok(Stats {
                        schedules,
                        truncated: true,
                    });
                }
                match next_prefix(&run.choices, opts.preemption_bound) {
                    Some(p) => prefix = p,
                    None => {
                        return Ok(Stats {
                            schedules,
                            truncated: false,
                        })
                    }
                }
            }
        }
        Mode::Random { seed, iterations } => {
            for i in 0..iterations {
                let mut s = seed ^ (i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
                let run_seed = splitmix(&mut s);
                let run = run_once(opts, &f, Vec::new(), Some(run_seed));
                schedules += 1;
                if let Some(kind) = run.failure {
                    return Err(Box::new(Failure {
                        kind,
                        trace: run.trace,
                        schedule: run.choices.iter().map(|c| c.chosen).collect(),
                        schedules_explored: schedules,
                    }));
                }
            }
            Ok(Stats {
                schedules,
                truncated: false,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(n_alts: usize, chosen: usize, prev_enabled: bool, preempt_before: usize) -> ChoiceRec {
        ChoiceRec {
            n_alts,
            chosen,
            prev_enabled,
            preempt_before,
        }
    }

    #[test]
    fn next_prefix_advances_deepest_choice() {
        let choices = vec![rec(2, 0, true, 0), rec(3, 1, true, 1)];
        assert_eq!(next_prefix(&choices, Some(2)), Some(vec![0, 2]));
    }

    #[test]
    fn next_prefix_respects_preemption_bound() {
        // Deepest alternative would need a second preemption; with
        // bound 1 the explorer must back up to the shallower choice.
        let choices = vec![rec(2, 0, true, 0), rec(2, 0, true, 1)];
        assert_eq!(next_prefix(&choices, Some(1)), Some(vec![1]));
        // With bound 2 the deep alternative is in budget.
        assert_eq!(next_prefix(&choices, Some(2)), Some(vec![0, 1]));
    }

    #[test]
    fn next_prefix_exhausts() {
        let choices = vec![rec(2, 1, true, 0)];
        assert_eq!(next_prefix(&choices, Some(2)), None);
        assert_eq!(next_prefix(&[], Some(2)), None);
    }

    #[test]
    fn single_thread_model_explores_one_schedule() {
        let stats = explore(&Options::default(), || {
            let c = crate::sync::RaceCell::new(1u64);
            c.set(2);
            assert_eq!(c.get(), 2);
        })
        .unwrap_or_else(|f| panic!("unexpected failure: {f}"));
        assert_eq!(stats.schedules, 1);
        assert!(!stats.truncated);
    }

    #[test]
    fn model_panic_is_reported_with_trace() {
        let err = explore(&Options::default(), || {
            let c = crate::sync::RaceCell::new(0u64);
            c.set(1);
            panic!("model assertion failed");
        })
        .expect_err("panic must be reported");
        match &err.kind {
            FailureKind::Panic { thread, message } => {
                assert_eq!(*thread, 0);
                assert!(message.contains("model assertion failed"));
            }
            other => panic!("wrong kind: {other}"),
        }
        assert!(!err.trace.is_empty(), "trace must capture the write");
    }

    /// Two threads write one cell with nothing ordering them.
    fn racing_writers(label: &'static str) {
        let c = crate::sync::RaceCell::named(0u64, label);
        crate::thread::scope(|s| {
            s.spawn(|| c.set(1));
            c.set(2);
        });
    }

    #[test]
    fn two_unsynchronized_writers_race() {
        let err = explore(&Options::default(), || racing_writers("shared"))
            .expect_err("unsynchronized writes must race");
        assert!(
            matches!(err.kind, FailureKind::DataRace { .. }),
            "wrong kind: {}",
            err.kind
        );
        assert!(err.to_string().contains("shared"));
    }

    #[test]
    fn mutex_orders_accesses() {
        let stats = explore(&Options::default(), || {
            let m = crate::sync::Mutex::named(0u64, "m");
            let c = crate::sync::RaceCell::named(0u64, "data");
            let bump = || {
                let mut g = m.lock().unwrap_or_else(PoisonError::into_inner);
                *g += 1;
                if *g == 1 {
                    c.set(10);
                }
            };
            crate::thread::scope(|s| {
                s.spawn(bump);
                bump();
            });
        })
        .unwrap_or_else(|f| panic!("mutex-protected writes must not race: {f}"));
        assert!(stats.schedules > 1, "exploration must branch");
    }

    #[test]
    fn lock_cycle_is_reported_as_deadlock() {
        let err = explore(&Options::default(), || {
            let a = crate::sync::Mutex::named((), "A");
            let b = crate::sync::Mutex::named((), "B");
            let both = |x: &crate::sync::Mutex<()>, y: &crate::sync::Mutex<()>| {
                let _gx = x.lock().unwrap_or_else(PoisonError::into_inner);
                let _gy = y.lock().unwrap_or_else(PoisonError::into_inner);
            };
            crate::thread::scope(|s| {
                s.spawn(|| both(&a, &b));
                both(&b, &a);
            });
        })
        .expect_err("AB/BA locking must deadlock under some schedule");
        match &err.kind {
            FailureKind::Deadlock { is_cycle, chain } => {
                assert!(is_cycle, "chain: {chain:?}");
                assert_eq!(chain.len(), 2);
            }
            other => panic!("wrong kind: {other}"),
        }
    }

    #[test]
    fn wait_without_notify_is_lost_wakeup() {
        let err = explore(&Options::default(), || {
            let m = crate::sync::Mutex::named(false, "flag");
            let cv = crate::sync::Condvar::named("never");
            let g = m.lock().unwrap_or_else(PoisonError::into_inner);
            // Nobody will ever notify: immediately diagnosed once all
            // threads are blocked.
            let _g = cv.wait(g);
        })
        .expect_err("wait with no notifier is a lost wakeup");
        assert!(
            matches!(err.kind, FailureKind::LostWakeup { .. }),
            "wrong kind: {}",
            err.kind
        );
        assert!(err.to_string().contains("never"));
    }

    #[test]
    fn exploration_is_deterministic() {
        let model = || racing_writers("x");
        let a = explore(&Options::default(), model).expect_err("races");
        let b = explore(&Options::default(), model).expect_err("races");
        assert_eq!(a.schedule, b.schedule);
        assert_eq!(a.schedules_explored, b.schedules_explored);
        assert_eq!(a.kind, b.kind);
    }

    #[test]
    fn random_mode_is_seed_deterministic() {
        let model = || racing_writers("x");
        let a = explore(&Options::random(42, 50), model).expect_err("races");
        let b = explore(&Options::random(42, 50), model).expect_err("races");
        assert_eq!(a.schedules_explored, b.schedules_explored);
        assert_eq!(a.schedule, b.schedule);
    }
}
