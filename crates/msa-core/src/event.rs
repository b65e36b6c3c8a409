//! A small discrete-event simulation engine.
//!
//! Drives the modular scheduler (`msa-sched`) and the large-scale
//! training-time models (`distrib::perf`). Events are closures scheduled
//! at virtual [`SimTime`] instants; handlers may schedule further events
//! and may cancel pending ones.
//!
//! ```
//! use msa_core::{EventEngine, SimTime};
//!
//! let mut engine: EventEngine<Vec<u32>> = EventEngine::new();
//! engine.schedule(SimTime::from_secs(2.0), |log, eng| {
//!     log.push(2);
//!     eng.schedule_in(SimTime::from_secs(1.0), |log, _| log.push(3));
//! });
//! engine.schedule(SimTime::from_secs(1.0), |log, _| log.push(1));
//! let mut log = Vec::new();
//! engine.run(&mut log);
//! assert_eq!(log, vec![1, 2, 3]);
//! assert_eq!(engine.now().as_secs(), 3.0);
//! ```

use crate::simtime::SimTime;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};

/// Handle to a scheduled event, usable for cancellation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventId(u64);

type Handler<S> = Box<dyn FnOnce(&mut S, &mut EventEngine<S>)>;

struct Scheduled<S> {
    at: SimTime,
    seq: u64,
    handler: Handler<S>,
}

// Order by (time, insertion sequence) so simultaneous events run FIFO.
impl<S> PartialEq for Scheduled<S> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<S> Eq for Scheduled<S> {}
impl<S> PartialOrd for Scheduled<S> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<S> Ord for Scheduled<S> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// Discrete-event engine over a user state `S`.
pub struct EventEngine<S> {
    now: SimTime,
    seq: u64,
    queue: BinaryHeap<Reverse<Scheduled<S>>>,
    cancelled: HashSet<u64>,
    executed: u64,
}

impl<S> Default for EventEngine<S> {
    fn default() -> Self {
        Self::new()
    }
}

impl<S> EventEngine<S> {
    pub fn new() -> Self {
        EventEngine {
            now: SimTime::ZERO,
            seq: 0,
            queue: BinaryHeap::new(),
            cancelled: HashSet::new(),
            executed: 0,
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events executed so far.
    pub fn executed(&self) -> u64 {
        self.executed
    }

    /// Number of events still pending (including cancelled tombstones).
    pub fn pending(&self) -> usize {
        self.queue.len() - self.cancelled.len()
    }

    /// Schedules `handler` at absolute time `at`. `at` must not be in the
    /// past.
    pub fn schedule(
        &mut self,
        at: SimTime,
        handler: impl FnOnce(&mut S, &mut EventEngine<S>) + 'static,
    ) -> EventId {
        assert!(
            at >= self.now,
            "cannot schedule in the past: {at:?} < {:?}",
            self.now
        );
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Reverse(Scheduled {
            at,
            seq,
            handler: Box::new(handler),
        }));
        EventId(seq)
    }

    /// Schedules `handler` `delay` after the current time.
    pub fn schedule_in(
        &mut self,
        delay: SimTime,
        handler: impl FnOnce(&mut S, &mut EventEngine<S>) + 'static,
    ) -> EventId {
        let at = self.now + delay;
        self.schedule(at, handler)
    }

    /// Cancels a still-queued event. Returns false if it already ran, was
    /// already cancelled, or was never scheduled. Linear in the queue
    /// length.
    pub fn cancel(&mut self, id: EventId) -> bool {
        let queued = self.queue.iter().any(|Reverse(ev)| ev.seq == id.0);
        queued && self.cancelled.insert(id.0)
    }

    /// Runs one event if any; returns whether an event ran.
    pub fn step(&mut self, state: &mut S) -> bool {
        while let Some(Reverse(ev)) = self.queue.pop() {
            if self.cancelled.remove(&ev.seq) {
                continue;
            }
            debug_assert!(ev.at >= self.now, "event queue went back in time");
            self.now = ev.at;
            self.executed += 1;
            (ev.handler)(state, self);
            return true;
        }
        false
    }

    /// Runs to quiescence.
    pub fn run(&mut self, state: &mut S) {
        while self.step(state) {}
    }

    /// Runs until the next event would be after `deadline` (events at
    /// exactly `deadline` still run). The clock is then advanced to
    /// `deadline` if it is ahead of the last executed event.
    pub fn run_until(&mut self, state: &mut S, deadline: SimTime) {
        loop {
            let next_at = loop {
                match self.queue.peek() {
                    Some(Reverse(ev)) if self.cancelled.contains(&ev.seq) => {
                        let seq = ev.seq;
                        self.queue.pop();
                        self.cancelled.remove(&seq);
                    }
                    Some(Reverse(ev)) => break Some(ev.at),
                    None => break None,
                }
            };
            match next_at {
                Some(at) if at <= deadline => {
                    self.step(state);
                }
                _ => break,
            }
        }
        self.now = self.now.max(deadline);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_run_in_time_order() {
        let mut eng: EventEngine<Vec<i32>> = EventEngine::new();
        eng.schedule(SimTime::from_secs(3.0), |s, _| s.push(3));
        eng.schedule(SimTime::from_secs(1.0), |s, _| s.push(1));
        eng.schedule(SimTime::from_secs(2.0), |s, _| s.push(2));
        let mut log = Vec::new();
        eng.run(&mut log);
        assert_eq!(log, vec![1, 2, 3]);
        assert_eq!(eng.executed(), 3);
    }

    #[test]
    fn simultaneous_events_run_fifo() {
        let mut eng: EventEngine<Vec<i32>> = EventEngine::new();
        for i in 0..10 {
            eng.schedule(SimTime::from_secs(1.0), move |s, _| s.push(i));
        }
        let mut log = Vec::new();
        eng.run(&mut log);
        assert_eq!(log, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn handlers_can_schedule_chains() {
        let mut eng: EventEngine<u32> = EventEngine::new();
        fn tick(count: &mut u32, eng: &mut EventEngine<u32>) {
            *count += 1;
            if *count < 5 {
                eng.schedule_in(SimTime::from_secs(1.0), tick);
            }
        }
        eng.schedule(SimTime::ZERO, tick);
        let mut count = 0;
        eng.run(&mut count);
        assert_eq!(count, 5);
        assert_eq!(eng.now().as_secs(), 4.0);
    }

    #[test]
    fn cancellation_prevents_execution() {
        let mut eng: EventEngine<Vec<i32>> = EventEngine::new();
        let a = eng.schedule(SimTime::from_secs(1.0), |s, _| s.push(1));
        let b = eng.schedule(SimTime::from_secs(2.0), |s, _| s.push(2));
        assert!(eng.cancel(b));
        assert!(!eng.cancel(b), "double cancel reports false");
        assert!(!eng.cancel(EventId(999)), "unknown id reports false");
        let mut log = Vec::new();
        eng.run(&mut log);
        assert_eq!(log, vec![1]);
        assert_eq!(eng.pending(), 0);
        assert!(!eng.cancel(a), "an event that ran cannot be cancelled");
        assert_eq!(eng.pending(), 0);
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let mut eng: EventEngine<Vec<i32>> = EventEngine::new();
        eng.schedule(SimTime::from_secs(1.0), |s, _| s.push(1));
        eng.schedule(SimTime::from_secs(5.0), |s, _| s.push(5));
        let mut log = Vec::new();
        eng.run_until(&mut log, SimTime::from_secs(2.0));
        assert_eq!(log, vec![1]);
        assert_eq!(eng.now().as_secs(), 2.0);
        eng.run(&mut log);
        assert_eq!(log, vec![1, 5]);
    }

    #[test]
    #[should_panic(expected = "past")]
    fn scheduling_in_past_panics() {
        let mut eng: EventEngine<()> = EventEngine::new();
        eng.schedule(SimTime::from_secs(1.0), |_, _| {});
        eng.run(&mut ());
        eng.schedule(SimTime::from_secs(0.5), |_, _| {});
    }

    #[test]
    fn pending_excludes_cancelled() {
        let mut eng: EventEngine<()> = EventEngine::new();
        let a = eng.schedule(SimTime::from_secs(1.0), |_, _| {});
        let _b = eng.schedule(SimTime::from_secs(2.0), |_, _| {});
        assert_eq!(eng.pending(), 2);
        eng.cancel(a);
        assert_eq!(eng.pending(), 1);
    }
}
