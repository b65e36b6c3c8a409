//! A small discrete-event queue.
//!
//! Drives the modular scheduler (`msa-sched`). Callers schedule events of
//! their own type at virtual [`SimTime`] instants and pop them back in
//! (time, scheduling order), handling each one themselves; handling an
//! event may schedule further ones.
//!
//! ```
//! use msa_core::{EventEngine, SimTime};
//!
//! let mut engine = EventEngine::new();
//! engine.schedule(SimTime::from_secs(2.0), 2);
//! engine.schedule(SimTime::from_secs(1.0), 1);
//! let mut log = Vec::new();
//! while let Some((_, ev)) = engine.pop() {
//!     log.push(ev);
//!     if ev == 2 {
//!         engine.schedule_in(SimTime::from_secs(1.0), 3);
//!     }
//! }
//! assert_eq!(log, vec![1, 2, 3]);
//! assert_eq!(engine.now().as_secs(), 3.0);
//! ```

use crate::simtime::SimTime;
use std::collections::BTreeMap;

/// Handle to a scheduled event, usable for cancellation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct EventId(SimTime, u64);

/// Discrete-event queue of caller-typed events `E`, ordered by (time,
/// scheduling order) so simultaneous events pop FIFO.
pub struct EventEngine<E> {
    now: SimTime,
    seq: u64,
    queue: BTreeMap<EventId, E>,
    executed: u64,
}

impl<E> Default for EventEngine<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventEngine<E> {
    pub fn new() -> Self {
        EventEngine {
            now: SimTime::ZERO,
            seq: 0,
            queue: BTreeMap::new(),
            executed: 0,
        }
    }

    /// Current virtual time: the instant of the last popped event.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events popped so far.
    pub fn executed(&self) -> u64 {
        self.executed
    }

    /// Number of events still queued.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Schedules `event` at absolute time `at`. `at` must not be in the
    /// past.
    pub fn schedule(&mut self, at: SimTime, event: E) -> EventId {
        assert!(
            at >= self.now,
            "cannot schedule in the past: {at:?} < {:?}",
            self.now
        );
        let id = EventId(at, self.seq);
        self.seq += 1;
        self.queue.insert(id, event);
        id
    }

    /// Schedules `event` `delay` after the current time.
    pub fn schedule_in(&mut self, delay: SimTime, event: E) -> EventId {
        self.schedule(self.now + delay, event)
    }

    /// Removes a still-queued event. Returns false if it already popped,
    /// was already cancelled, or was never scheduled.
    pub fn cancel(&mut self, id: EventId) -> bool {
        self.queue.remove(&id).is_some()
    }

    /// Pops the next event, advancing the clock to its instant.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let (EventId(at, _), event) = self.queue.pop_first()?;
        self.now = at;
        self.executed += 1;
        Some((at, event))
    }

    /// Pops the next event if it is due by `deadline` (inclusive);
    /// otherwise advances the clock to `deadline` and returns `None`.
    pub fn pop_until(&mut self, deadline: SimTime) -> Option<(SimTime, E)> {
        match self.queue.first_key_value() {
            Some((EventId(at, _), _)) if *at <= deadline => self.pop(),
            _ => {
                self.now = self.now.max(deadline);
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn secs(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn drain<E>(eng: &mut EventEngine<E>) -> Vec<E> {
        std::iter::from_fn(|| eng.pop().map(|(_, ev)| ev)).collect()
    }

    #[test]
    fn events_run_in_time_order() {
        let mut eng = EventEngine::new();
        eng.schedule(secs(3.0), 3);
        eng.schedule(secs(1.0), 1);
        eng.schedule(secs(2.0), 2);
        assert_eq!(drain(&mut eng), vec![1, 2, 3]);
        assert_eq!(eng.executed(), 3);
    }

    #[test]
    fn simultaneous_events_run_fifo() {
        let mut eng = EventEngine::new();
        for i in 0..10 {
            eng.schedule(secs(1.0), i);
        }
        assert_eq!(drain(&mut eng), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn handlers_can_schedule_chains() {
        let mut eng = EventEngine::new();
        eng.schedule(SimTime::ZERO, ());
        let mut count = 0;
        while eng.pop().is_some() {
            count += 1;
            if count < 5 {
                eng.schedule_in(secs(1.0), ());
            }
        }
        assert_eq!(count, 5);
        assert_eq!(eng.now().as_secs(), 4.0);
    }

    #[test]
    fn cancellation_prevents_execution() {
        let mut eng = EventEngine::new();
        let a = eng.schedule(secs(1.0), 1);
        let b = eng.schedule(secs(2.0), 2);
        assert!(eng.cancel(b));
        assert!(!eng.cancel(b), "double cancel reports false");
        assert!(
            !eng.cancel(EventId(secs(1.0), 999)),
            "unknown id reports false"
        );
        assert_eq!(drain(&mut eng), vec![1]);
        assert_eq!(eng.pending(), 0);
        assert!(!eng.cancel(a), "an event that ran cannot be cancelled");
        assert_eq!(eng.pending(), 0);
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let mut eng = EventEngine::new();
        eng.schedule(secs(1.0), 1);
        eng.schedule(secs(5.0), 5);
        let mut log = Vec::new();
        while let Some((_, ev)) = eng.pop_until(secs(2.0)) {
            log.push(ev);
        }
        assert_eq!(log, vec![1]);
        assert_eq!(eng.now().as_secs(), 2.0);
        log.extend(drain(&mut eng));
        assert_eq!(log, vec![1, 5]);
    }

    #[test]
    #[should_panic(expected = "past")]
    fn scheduling_in_past_panics() {
        let mut eng = EventEngine::new();
        eng.schedule(secs(1.0), ());
        eng.pop();
        eng.schedule(secs(0.5), ());
    }

    #[test]
    fn pending_excludes_cancelled() {
        let mut eng = EventEngine::new();
        let a = eng.schedule(secs(1.0), ());
        let _b = eng.schedule(secs(2.0), ());
        assert_eq!(eng.pending(), 2);
        eng.cancel(a);
        assert_eq!(eng.pending(), 1);
    }
}
