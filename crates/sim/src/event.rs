//! Time-ordered event queue.
//!
//! The gossip protocols are driven by clock ticks; the message-passing
//! runtime's wire (`geogossip_net`) is what schedules deferred work here:
//! every in-flight message and every retransmission timer. `EventQueue` pops
//! events in `(time, sequence)` order: the earliest time first, and events
//! due at one time in the order they were scheduled.
//!
//! # One integer key
//!
//! Each event is ordered by one `u128` key, `ordered_bits(time) << 64 |
//! sequence`. `ordered_bits` maps a time to a `u64` whose unsigned order is
//! the numeric order of every non-NaN time: `bits | 1 << 63` for a
//! non-negative time and `!bits` for a negative one, after `time + 0.0` has
//! folded `-0.0` into `0.0`. One integer compare then does what a
//! `partial_cmp` of the times followed by a sequence tie-break did. A popped
//! event's time is read back from its key, so an event scheduled at `-0.0`
//! pops at `0.0`; NaN times are refused.
//!
//! # Lanes
//!
//! Beside its heap, the queue keeps FIFO lanes
//! ([`EventQueue::schedule_in_lane`]) for callers that already produce
//! events in time order, such as the wire's retry timers of one attempt
//! number. A lane push and a lane pop are O(1), and the heap holds only the
//! events no lane takes. Every read takes the smallest key among the heap's
//! top and each lane's head.
//!
//! The merged order is exactly the order one heap holding every event pops.
//! Within a lane the times never decrease (the queue asserts it) and the
//! sequence numbers rise with every schedule, so each lane is sorted by key,
//! and the smallest key of the heap and the lane heads is the smallest key
//! in the queue. Which lane, or the heap, an event rides changes no pop.

use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

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

/// The `u64` whose unsigned order is the numeric order of `time`, for every
/// non-NaN time; `-0.0` maps where `0.0` does.
fn ordered_bits(time: f64) -> u64 {
    let bits = (time + 0.0).to_bits();
    if bits >> 63 == 0 {
        bits | 1 << 63
    } else {
        !bits
    }
}

/// The time a key was made from (`-0.0` reads back as `0.0`).
fn time_of(key: u128) -> f64 {
    let ordered = (key >> 64) as u64;
    f64::from_bits(if ordered >> 63 == 1 {
        ordered ^ 1 << 63
    } else {
        !ordered
    })
}

/// A queued event: its `(time, sequence)` key and its payload.
#[derive(Debug, Clone)]
struct Entry<E> {
    key: u128,
    payload: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl<E> Eq for Entry<E> {}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse ordering: BinaryHeap is a max-heap, we want the minimum key.
        other.key.cmp(&self.key)
    }
}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A priority queue of [`ScheduledEvent`]s ordered by firing time, with
/// FIFO lanes for events scheduled in time order (see the module docs).
///
/// # Example
///
/// ```
/// use geogossip_sim::EventQueue;
/// let mut q = EventQueue::new();
/// q.schedule(2.0, "later");
/// q.schedule(1.0, "sooner");
/// q.schedule_in_lane(0, 1.5, "between");
/// assert_eq!(q.pop().unwrap().payload, "sooner");
/// assert_eq!(q.pop().unwrap().payload, "between");
/// assert_eq!(q.pop().unwrap().payload, "later");
/// assert!(q.pop().is_none());
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    /// FIFO lanes, each sorted by key; a lane exists once it was first used.
    lanes: Vec<VecDeque<Entry<E>>>,
    next_sequence: u64,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            lanes: Vec::new(),
            next_sequence: 0,
        }
    }

    /// Number of pending events, in the heap and the lanes.
    pub fn len(&self) -> usize {
        self.heap.len() + self.lanes.iter().map(VecDeque::len).sum::<usize>()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty() && self.lanes.iter().all(VecDeque::is_empty)
    }

    /// The key of an event at `time` that takes the next sequence number.
    fn next_key(&mut self, time: f64) -> u128 {
        assert!(!time.is_nan(), "event time must not be NaN");
        let sequence = self.next_sequence;
        self.next_sequence += 1;
        (ordered_bits(time) as u128) << 64 | sequence as u128
    }

    /// Schedules `payload` to fire at absolute time `time`.
    ///
    /// # Panics
    ///
    /// Panics if `time` is NaN (events must be orderable).
    pub fn schedule(&mut self, time: f64, payload: E) {
        let key = self.next_key(time);
        self.heap.push(Entry { key, payload });
    }

    /// Schedules `payload` to fire at absolute time `time`, at the back of
    /// FIFO lane `lane`. It pops exactly when [`EventQueue::schedule`] would
    /// have popped it; the lane only spares the heap's ordering work.
    ///
    /// # Panics
    ///
    /// Panics if `time` is NaN, or earlier than the time of the event last
    /// scheduled into the same lane while that event is still pending.
    pub fn schedule_in_lane(&mut self, lane: usize, time: f64, payload: E) {
        let key = self.next_key(time);
        if lane >= self.lanes.len() {
            self.lanes.resize_with(lane + 1, VecDeque::new);
        }
        let lane = &mut self.lanes[lane];
        assert!(
            lane.back().is_none_or(|last| last.key >> 64 <= key >> 64),
            "lane times must not decrease"
        );
        lane.push_back(Entry { key, payload });
    }

    /// The key of the earliest pending event and where it waits: `None` for
    /// the heap, `Some(lane)` for a lane.
    fn earliest(&self) -> Option<(u128, Option<usize>)> {
        let mut earliest = self.heap.peek().map(|top| (top.key, None));
        for (index, lane) in self.lanes.iter().enumerate() {
            if let Some(head) = lane.front() {
                if earliest.is_none_or(|(key, _)| head.key < key) {
                    earliest = Some((head.key, Some(index)));
                }
            }
        }
        earliest
    }

    /// Removes and returns the earliest pending event.
    pub fn pop(&mut self) -> Option<ScheduledEvent<E>> {
        self.pop_due(f64::INFINITY)
    }

    /// The firing time of the earliest pending event without removing it.
    pub fn peek_time(&self) -> Option<f64> {
        self.earliest().map(|(key, _)| time_of(key))
    }

    /// Removes and returns the earliest pending event if it fires at or
    /// before `horizon`, so `while let Some(e) = q.pop_due(t)` drains every
    /// due event in firing order.
    pub fn pop_due(&mut self, horizon: f64) -> Option<ScheduledEvent<E>> {
        let (key, source) = self.earliest()?;
        let time = time_of(key);
        if time <= horizon {
            let entry = match source {
                None => self.heap.pop(),
                Some(lane) => self.lanes[lane].pop_front(),
            }?;
            Some(ScheduledEvent {
                time,
                sequence: key as u64,
                payload: entry.payload,
            })
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
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

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

    /// One binary heap ordered by `partial_cmp` of the times, then by
    /// sequence: the queue every event went through before it had lanes.
    struct Reference {
        time: f64,
        sequence: u64,
        payload: u64,
    }

    impl PartialEq for Reference {
        fn eq(&self, other: &Self) -> bool {
            self.cmp(other) == Ordering::Equal
        }
    }
    impl Eq for Reference {}
    impl Ord for Reference {
        fn cmp(&self, other: &Self) -> Ordering {
            other
                .time
                .partial_cmp(&self.time)
                .unwrap_or(Ordering::Equal)
                .then_with(|| other.sequence.cmp(&self.sequence))
        }
    }
    impl PartialOrd for Reference {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }

    #[test]
    fn lanes_pop_the_order_one_heap_pops() {
        const LANES: usize = 4;
        let mut rng = ChaCha8Rng::seed_from_u64(20070612);
        let mut queue = EventQueue::new();
        let mut reference = BinaryHeap::new();
        // Times sit on a coarse grid, so they tie often: within a lane,
        // across lanes, and between lanes and the heap.
        let grid = |steps: u64| steps as f64 * 0.25;
        let mut horizon = -2.0;
        let mut lane_last = [horizon; LANES];
        let mut sequence = 0u64;
        let mut popped = 0;
        for _ in 0..20_000 {
            let op = rng.gen_range(0..5u32);
            if op < 3 {
                let lane = (op > 0).then(|| rng.gen_range(0..LANES));
                let time = match lane {
                    // Anywhere from well before the horizon to well after.
                    None => horizon - 2.0 + grid(rng.gen_range(0..40u64)),
                    // Half the time the lane's last time again, else the
                    // wire's rule: the horizon plus the lane's constant.
                    Some(lane) => {
                        if rng.gen_range(0..2u32) == 1 {
                            lane_last[lane] = lane_last[lane].max(horizon + grid(lane as u64));
                        }
                        lane_last[lane]
                    }
                };
                match lane {
                    None => queue.schedule(time, sequence),
                    Some(lane) => queue.schedule_in_lane(lane, time, sequence),
                }
                reference.push(Reference {
                    time,
                    sequence,
                    payload: sequence,
                });
                sequence += 1;
            } else {
                horizon += grid(rng.gen_range(0..3u64));
                while let Some(event) = queue.pop_due(horizon) {
                    let expected = reference.pop().expect("the reference holds it too");
                    assert_eq!(
                        (event.time, event.sequence, event.payload),
                        (expected.time, expected.sequence, expected.payload)
                    );
                    popped += 1;
                }
                assert!(reference.peek().is_none_or(|r| r.time > horizon));
            }
            assert_eq!(queue.len(), reference.len());
            assert_eq!(
                queue.peek_time(),
                reference.peek().map(|r| r.time),
                "after {sequence} schedules"
            );
        }
        while let Some(event) = queue.pop() {
            let expected = reference.pop().expect("the reference holds it too");
            assert_eq!(
                (event.time, event.sequence, event.payload),
                (expected.time, expected.sequence, expected.payload)
            );
            popped += 1;
        }
        assert!(reference.is_empty() && queue.is_empty());
        assert_eq!(popped, sequence);
    }

    #[test]
    #[should_panic(expected = "lane times must not decrease")]
    fn a_decreasing_lane_time_is_refused() {
        let mut q = EventQueue::new();
        q.schedule_in_lane(1, 2.0, ());
        q.schedule_in_lane(1, 1.0, ());
    }

    #[test]
    fn negative_and_positive_zero_tie_by_sequence() {
        let mut q = EventQueue::new();
        q.schedule(5e-324, "smallest positive");
        q.schedule(0.0, "a");
        q.schedule_in_lane(0, -0.0, "b");
        q.schedule(-0.0, "c");
        q.schedule_in_lane(1, 0.0, "d");
        q.schedule_in_lane(2, -5e-324, "largest negative");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop()).map(|e| e.payload).collect();
        assert_eq!(
            order,
            ["largest negative", "a", "b", "c", "d", "smallest positive"]
        );
    }
}
