//! Time-ordered event queue.
//!
//! The gossip protocols are driven by clock ticks; the message-passing
//! runtime's wire (`geogossip_net`) is what schedules deferred work here:
//! every in-flight message and every retransmission timer. `EventQueue` is a
//! minimal binary-heap priority queue keyed by `f64` simulation time with
//! deterministic FIFO tie-breaking.

use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// An event scheduled for a future simulation time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScheduledEvent<E> {
    /// Absolute time at which the event fires.
    pub time: f64,
    /// Monotone sequence number used to break ties deterministically
    /// (first-scheduled fires first).
    pub sequence: u64,
    /// The event payload.
    pub payload: E,
}

/// Internal heap entry ordered so the *earliest* event is popped first.
#[derive(Debug, Clone)]
struct HeapEntry<E> {
    time: f64,
    sequence: u64,
    payload: E,
}

impl<E> PartialEq for HeapEntry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.sequence == other.sequence
    }
}
impl<E> Eq for HeapEntry<E> {}

impl<E> Ord for HeapEntry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse ordering: BinaryHeap is a max-heap, we want the minimum time.
        other
            .time
            .partial_cmp(&self.time)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.sequence.cmp(&self.sequence))
    }
}
impl<E> PartialOrd for HeapEntry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A priority queue of [`ScheduledEvent`]s ordered by firing time.
///
/// # Example
///
/// ```
/// use geogossip_sim::EventQueue;
/// let mut q = EventQueue::new();
/// q.schedule(2.0, "later");
/// q.schedule(1.0, "sooner");
/// assert_eq!(q.pop().unwrap().payload, "sooner");
/// assert_eq!(q.pop().unwrap().payload, "later");
/// assert!(q.pop().is_none());
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    heap: BinaryHeap<HeapEntry<E>>,
    next_sequence: u64,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_sequence: 0,
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedules `payload` to fire at absolute time `time`.
    ///
    /// # Panics
    ///
    /// Panics if `time` is NaN (events must be orderable).
    pub fn schedule(&mut self, time: f64, payload: E) {
        assert!(!time.is_nan(), "event time must not be NaN");
        let sequence = self.next_sequence;
        self.next_sequence += 1;
        self.heap.push(HeapEntry {
            time,
            sequence,
            payload,
        });
    }

    /// Removes and returns the earliest pending event.
    pub fn pop(&mut self) -> Option<ScheduledEvent<E>> {
        self.heap.pop().map(|e| ScheduledEvent {
            time: e.time,
            sequence: e.sequence,
            payload: e.payload,
        })
    }

    /// The firing time of the earliest pending event without removing it.
    pub fn peek_time(&self) -> Option<f64> {
        self.heap.peek().map(|e| e.time)
    }

    /// Removes and returns the earliest pending event if it fires at or
    /// before `horizon`, so `while let Some(e) = q.pop_due(t)` drains every
    /// due event in firing order.
    pub fn pop_due(&mut self, horizon: f64) -> Option<ScheduledEvent<E>> {
        if self.peek_time()? <= horizon {
            self.pop()
        } else {
            None
        }
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_fire_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(3.0, 3);
        q.schedule(1.0, 1);
        q.schedule(2.0, 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop()).map(|e| e.payload).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn ties_break_in_insertion_order() {
        let mut q = EventQueue::new();
        q.schedule(1.0, "a");
        q.schedule(1.0, "b");
        q.schedule(1.0, "c");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop()).map(|e| e.payload).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn pop_due_returns_only_due_events() {
        let mut q = EventQueue::new();
        q.schedule(0.5, "early");
        q.schedule(1.5, "late");
        q.schedule(1.0, "boundary");
        let names: Vec<&str> = std::iter::from_fn(|| q.pop_due(1.0))
            .map(|e| e.payload)
            .collect();
        assert_eq!(names, vec!["early", "boundary"]);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn empty_queue_behaviour() {
        let mut q: EventQueue<u8> = EventQueue::default();
        assert!(q.is_empty());
        assert!(q.pop().is_none());
        assert!(q.peek_time().is_none());
        assert!(q.pop_due(10.0).is_none());
    }

    #[test]
    #[should_panic(expected = "must not be NaN")]
    fn nan_times_rejected() {
        let mut q = EventQueue::new();
        q.schedule(f64::NAN, ());
    }
}
