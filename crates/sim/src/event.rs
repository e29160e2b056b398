//! Time-ordered event queue with deterministic tie-breaking.

use crate::time::SimTime;
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

/// Internal heap entry: `(time, seq)` so that events scheduled for the
/// same instant pop in scheduling (FIFO) order — this is what makes runs
/// bit-for-bit reproducible.
struct Entry<E> {
    time: SimTime,
    seq: u64,
    payload: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.time.cmp(&other.time).then(self.seq.cmp(&other.seq))
    }
}

/// A min-heap of `(SimTime, E)` events.
pub struct EventQueue<E> {
    heap: BinaryHeap<Reverse<Entry<E>>>,
    next_seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// An empty queue with room for `n` events.
    pub fn with_capacity(n: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::with_capacity(n),
            next_seq: 0,
        }
    }

    /// Schedules `payload` at `time`.
    pub fn push(&mut self, time: SimTime, payload: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse(Entry { time, seq, payload }));
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|Reverse(e)| (e.time, e.payload))
    }

    /// The timestamp of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse(e)| e.time)
    }

    /// The earliest pending event, left in the queue.
    pub fn peek(&self) -> Option<(SimTime, &E)> {
        self.heap.peek().map(|Reverse(e)| (e.time, &e.payload))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(3.0), "c");
        q.push(SimTime::from_secs(1.0), "a");
        q.push(SimTime::from_secs(2.0), "b");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn simultaneous_events_pop_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(5.0);
        for i in 0..100 {
            q.push(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn fifo_preserved_across_interleaved_pushes() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1.0);
        q.push(t, "first");
        q.push(SimTime::from_secs(0.5), "early");
        q.push(t, "second");
        assert_eq!(q.pop().unwrap().1, "early");
        assert_eq!(q.pop().unwrap().1, "first");
        assert_eq!(q.pop().unwrap().1, "second");
    }

    /// `-0.0` and `0.0` are one instant: a tie between them pops in
    /// scheduling order, ahead of any later event.
    #[test]
    fn signed_zero_tie_pops_fifo() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(-0.0), "first");
        q.push(SimTime::from_secs(1.0), "later");
        q.push(SimTime::from_secs(0.0), "second");
        q.push(SimTime::from_secs(-0.0), "third");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["first", "second", "third", "later"]);
    }

    #[test]
    fn peek_and_len() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.push(SimTime::from_secs(2.0), ());
        q.push(SimTime::from_secs(1.0), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(1.0)));
        assert_eq!(q.peek(), Some((SimTime::from_secs(1.0), &())));
        assert_eq!(
            q.pop(),
            Some((SimTime::from_secs(1.0), ())),
            "peek leaves the event queued"
        );
        assert!(q.pop().is_some());
        assert_eq!(q.pop(), None);
    }
}
