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

/// Discrete-event queue of caller-typed events `E`, ordered by (time,
/// scheduling order) so simultaneous events pop FIFO.
pub struct EventEngine<E> {
    now: SimTime,
    seq: u64,
    /// Keyed by (instant, scheduling sequence number).
    queue: BTreeMap<(SimTime, u64), E>,
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
        }
    }

    /// Current virtual time: the instant of the last popped event.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `event` at absolute time `at`. `at` must not be in the
    /// past.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "cannot schedule in the past: {at:?} < {:?}",
            self.now
        );
        self.queue.insert((at, self.seq), event);
        self.seq += 1;
    }

    /// Schedules `event` `delay` after the current time.
    pub fn schedule_in(&mut self, delay: SimTime, event: E) {
        self.schedule(self.now + delay, event)
    }

    /// Pops the next event, advancing the clock to its instant.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let ((at, _), event) = self.queue.pop_first()?;
        self.now = at;
        Some((at, event))
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
    #[should_panic(expected = "past")]
    fn scheduling_in_past_panics() {
        let mut eng = EventEngine::new();
        eng.schedule(secs(1.0), ());
        eng.pop();
        eng.schedule(secs(0.5), ());
    }
}
