//! The discrete-event simulation engine.
//!
//! [`Simulator`] owns the virtual clock and the event queue. The driving
//! loop belongs to the caller:
//!
//! ```
//! use react_sim::{SimDuration, SimTime, Simulator};
//!
//! #[derive(Debug)]
//! enum Ev { Ping(u32) }
//!
//! let mut sim = Simulator::new();
//! sim.schedule_in(SimDuration::from_secs(1.0), Ev::Ping(0));
//! let mut pings = 0;
//! while let Some((now, ev)) = sim.next_event() {
//!     match ev {
//!         Ev::Ping(n) if n < 4 => {
//!             pings += 1;
//!             sim.schedule_at(now + SimDuration::from_secs(1.0), Ev::Ping(n + 1));
//!         }
//!         Ev::Ping(_) => pings += 1,
//!     }
//! }
//! assert_eq!(pings, 5);
//! assert_eq!(sim.now(), SimTime::from_secs(5.0));
//! ```
//!
//! Keeping the loop external (rather than a handler-trait callback) lets
//! the experiment harness own all its state mutably without interior
//! mutability or `Rc` cycles — the idiomatic Rust shape for a DES.

use crate::event::EventQueue;
use crate::time::{SimDuration, SimTime};

/// A discrete-event simulator with event payloads of type `E`.
pub struct Simulator<E> {
    queue: EventQueue<E>,
    now: SimTime,
    processed: u64,
}

impl<E> Default for Simulator<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Simulator<E> {
    /// Creates a simulator with the clock at zero and no pending events.
    pub fn new() -> Self {
        Simulator {
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            processed: 0,
        }
    }

    /// The current virtual time (the timestamp of the last event popped).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events processed so far.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Schedules an event at an absolute time.
    ///
    /// # Panics
    /// Panics when `at` is before the current clock — scheduling into the
    /// past would silently corrupt causality, so it fails loudly.
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "cannot schedule into the past: now={}, requested={}",
            self.now,
            at
        );
        self.queue.push(at, event);
    }

    /// Schedules an event `delay` after the current clock.
    pub fn schedule_in(&mut self, delay: SimDuration, event: E) {
        self.queue.push(self.now + delay, event);
    }

    /// Pops the next event and advances the clock to it.
    pub fn next_event(&mut self) -> Option<(SimTime, E)> {
        let (t, e) = self.queue.pop()?;
        self.now = t;
        self.processed += 1;
        Some((t, e))
    }

    /// The timestamp of the next pending event without popping it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.queue.peek_time()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq)]
    enum Ev {
        A,
        B,
    }

    #[test]
    fn clock_advances_with_events() {
        let mut sim = Simulator::new();
        sim.schedule_at(SimTime::from_secs(2.0), Ev::B);
        sim.schedule_at(SimTime::from_secs(1.0), Ev::A);
        let (t1, e1) = sim.next_event().unwrap();
        assert_eq!((t1, e1), (SimTime::from_secs(1.0), Ev::A));
        assert_eq!(sim.now(), SimTime::from_secs(1.0));
        let (t2, _) = sim.next_event().unwrap();
        assert_eq!(t2, SimTime::from_secs(2.0));
        assert!(sim.next_event().is_none());
        assert_eq!(sim.processed(), 2);
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn rejects_scheduling_into_past() {
        let mut sim = Simulator::new();
        sim.schedule_at(SimTime::from_secs(5.0), Ev::A);
        sim.next_event();
        sim.schedule_at(SimTime::from_secs(1.0), Ev::B);
    }

    #[test]
    fn schedule_in_is_relative() {
        let mut sim = Simulator::new();
        sim.schedule_at(SimTime::from_secs(10.0), Ev::A);
        sim.next_event();
        sim.schedule_in(SimDuration::from_secs(5.0), Ev::B);
        let (t, _) = sim.next_event().unwrap();
        assert_eq!(t, SimTime::from_secs(15.0));
    }

    #[test]
    fn self_scheduling_cascade() {
        let mut sim = Simulator::new();
        sim.schedule_in(SimDuration::from_secs(1.0), 1u32);
        let mut count = 0;
        while let Some((_, n)) = sim.next_event() {
            count += 1;
            if n < 10 {
                sim.schedule_in(SimDuration::from_secs(1.0), n + 1);
            }
        }
        assert_eq!(count, 10);
        assert_eq!(sim.now(), SimTime::from_secs(10.0));
    }
}
