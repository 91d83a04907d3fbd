//! The deterministic event queue and virtual clock at the heart of the
//! emulator.
//!
//! [`EventQueue`] is a time-ordered priority queue of `(SimTime, sequence,
//! event)` entries. Ties in time are broken by insertion order (the sequence
//! number), which — together with the seeded PRNG — makes every run of a
//! scenario bit-for-bit reproducible.
//!
//! Events arrive through two containers. [`EventQueue::schedule_at`] pushes
//! onto a binary heap. [`EventQueue::schedule_presorted`] appends to a FIFO
//! *lane* for callers that already hold their events in time order (the
//! emulator's pre-built traffic): an append and a pop cost O(1) instead of
//! two O(log n) sift passes over the whole backlog. Both draw from one
//! sequence counter, and `pop` takes the smaller `(time, seq)` of the heap top
//! and the lane front, so the pop order is exactly the heap-only order.
//!
//! The queue is generic over the event payload so the kernel can be tested in
//! isolation and reused by any world model (the GNF emulator defines its own
//! event enum in `gnf-core`).

use gnf_types::{SimDuration, SimTime};
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

/// Internal heap entry. Ordered so that the *earliest* time pops first and,
/// within a time, the lowest sequence number pops first.
struct Entry<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> Entry<E> {
    /// The pop-order key: earliest time first, then insertion order.
    fn key(&self) -> (SimTime, u64) {
        (self.time, self.seq)
    }
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
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
        // BinaryHeap is a max-heap; invert so the smallest (time, seq) wins.
        other.key().cmp(&self.key())
    }
}

/// A scheduled event popped from the queue.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Scheduled<E> {
    /// The virtual time at which the event fires.
    pub time: SimTime,
    /// The event payload.
    pub event: E,
}

/// A deterministic, time-ordered event queue with a virtual clock.
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    /// Presorted events, ascending in `(time, seq)` from front to back.
    lane: VecDeque<Entry<E>>,
    now: SimTime,
    next_seq: u64,
    scheduled_total: u64,
    processed_total: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at `t = 0`.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            lane: VecDeque::new(),
            now: SimTime::ZERO,
            next_seq: 0,
            scheduled_total: 0,
            processed_total: 0,
        }
    }

    /// The current virtual time (the time of the most recently popped event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events currently pending.
    pub fn len(&self) -> usize {
        self.heap.len() + self.lane.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty() && self.lane.is_empty()
    }

    /// Total number of events ever scheduled.
    pub fn scheduled_total(&self) -> u64 {
        self.scheduled_total
    }

    /// Total number of events popped so far.
    pub fn processed_total(&self) -> u64 {
        self.processed_total
    }

    /// Schedules an event at an absolute time. Times in the past are clamped
    /// to `now` (the event will still run, immediately, preserving causality).
    pub fn schedule_at(&mut self, time: SimTime, event: E) {
        let entry = self.entry(time, event);
        self.heap.push(entry);
    }

    /// Schedules an event exactly as [`EventQueue::schedule_at`] would (same
    /// clamping, same sequence number, same pop order), but appends it to the
    /// presorted lane when its time is not earlier than the lane's last
    /// event. A caller feeding events in time order therefore skips the heap
    /// entirely; an event that would go backwards falls back to the heap.
    pub fn schedule_presorted(&mut self, time: SimTime, event: E) {
        let entry = self.entry(time, event);
        match self.lane.back() {
            Some(last) if entry.time < last.time => self.heap.push(entry),
            _ => self.lane.push_back(entry),
        }
    }

    /// Stamps a new event with its clamped time and the next sequence number.
    fn entry(&mut self, time: SimTime, event: E) -> Entry<E> {
        let time = time.max(self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.scheduled_total += 1;
        Entry { time, seq, event }
    }

    /// Schedules an event `delay` after the current time.
    pub fn schedule_after(&mut self, delay: SimDuration, event: E) {
        self.schedule_at(self.now + delay, event);
    }

    /// Schedules an event at the current time (runs after already-pending
    /// events with the same timestamp).
    pub fn schedule_now(&mut self, event: E) {
        self.schedule_at(self.now, event);
    }

    /// The time of the next pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        match (self.heap.peek(), self.lane.front()) {
            (Some(h), Some(l)) => Some(h.time.min(l.time)),
            (h, l) => h.or(l).map(|e| e.time),
        }
    }

    /// Pops the next event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<Scheduled<E>> {
        let from_lane = match (self.heap.peek(), self.lane.front()) {
            (Some(h), Some(l)) => l.key() < h.key(),
            (h, _) => h.is_none(),
        };
        let entry = if from_lane {
            self.lane.pop_front()?
        } else {
            self.heap.pop()?
        };
        debug_assert!(entry.time >= self.now, "virtual time must not go backwards");
        self.now = entry.time;
        self.processed_total += 1;
        Some(Scheduled {
            time: entry.time,
            event: entry.event,
        })
    }

    /// Pops the next event only if it fires at or before `limit`.
    pub fn pop_until(&mut self, limit: SimTime) -> Option<Scheduled<E>> {
        match self.peek_time() {
            Some(t) if t <= limit => self.pop(),
            _ => None,
        }
    }

    /// Advances the clock to `time` without processing anything (used at the
    /// end of a run to account for trailing idle time). Does nothing if `time`
    /// is in the past.
    pub fn advance_to(&mut self, time: SimTime) {
        if time > self.now {
            self.now = time;
        }
    }

    /// Drops every pending event (used when a scenario is aborted).
    pub fn clear(&mut self) {
        self.heap.clear();
        self.lane.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_pop_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_millis(30), "c");
        q.schedule_at(SimTime::from_millis(10), "a");
        q.schedule_at(SimTime::from_millis(20), "b");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|s| s.event)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
        assert_eq!(q.now(), SimTime::from_millis(30));
        assert_eq!(q.processed_total(), 3);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        for i in 0..100 {
            q.schedule_at(t, i);
        }
        let popped: Vec<i32> = std::iter::from_fn(|| q.pop().map(|s| s.event)).collect();
        let expected: Vec<i32> = (0..100).collect();
        assert_eq!(popped, expected);
    }

    #[test]
    fn clock_advances_with_pops_and_relative_scheduling_uses_it() {
        let mut q = EventQueue::new();
        q.schedule_after(SimDuration::from_secs(5), "first");
        let first = q.pop().unwrap();
        assert_eq!(first.time, SimTime::from_secs(5));
        q.schedule_after(SimDuration::from_secs(2), "second");
        let second = q.pop().unwrap();
        assert_eq!(second.time, SimTime::from_secs(7));
    }

    #[test]
    fn past_events_are_clamped_to_now() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_secs(10), "late");
        q.pop();
        q.schedule_at(SimTime::from_secs(1), "early-but-clamped");
        let e = q.pop().unwrap();
        assert_eq!(e.time, SimTime::from_secs(10));
    }

    #[test]
    fn pop_until_respects_the_limit() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_secs(1), 1);
        q.schedule_at(SimTime::from_secs(3), 3);
        assert_eq!(q.pop_until(SimTime::from_secs(2)).unwrap().event, 1);
        assert!(q.pop_until(SimTime::from_secs(2)).is_none());
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop_until(SimTime::from_secs(10)).unwrap().event, 3);
    }

    #[test]
    fn advance_to_never_goes_backwards() {
        let mut q: EventQueue<()> = EventQueue::new();
        q.advance_to(SimTime::from_secs(4));
        assert_eq!(q.now(), SimTime::from_secs(4));
        q.advance_to(SimTime::from_secs(2));
        assert_eq!(q.now(), SimTime::from_secs(4));
    }

    #[test]
    fn presorted_lane_pops_in_heap_order() {
        // Lane and heap events at one timestamp interleave by seq.
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        q.schedule_at(t, "heap-0");
        q.schedule_presorted(t, "lane-1");
        q.schedule_at(t, "heap-2");
        q.schedule_presorted(SimTime::from_secs(2), "lane-3");
        // Goes backwards against the lane's tail: falls back to the heap.
        q.schedule_presorted(t, "heap-4");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|s| s.event)).collect();
        assert_eq!(
            order,
            vec!["heap-0", "lane-1", "heap-2", "heap-4", "lane-3"]
        );
    }

    /// Seeded property: any interleaving of heap and lane scheduling, pops,
    /// bounded pops and clears behaves exactly like a heap-only queue.
    #[test]
    fn lane_matches_a_heap_only_reference() {
        use crate::rng::Rng;
        for seed in 0..64 {
            let mut rng = Rng::new(seed);
            let mut q: EventQueue<u64> = EventQueue::new();
            let mut reference: EventQueue<u64> = EventQueue::new();
            // The time the next presorted event is scheduled at: mostly
            // nondecreasing (equal-time ties included), sometimes rewound.
            let mut cursor = SimTime::ZERO;
            for id in 0..600u64 {
                let now = q.now();
                match rng.next_below(100) {
                    0..=24 => {
                        let t = now + SimDuration::from_millis(rng.next_below(40));
                        q.schedule_at(t, id);
                        reference.schedule_at(t, id);
                    }
                    25..=59 => {
                        match rng.next_below(10) {
                            0 => {
                                cursor = SimTime::from_nanos(rng.next_below(cursor.as_nanos() + 1))
                            }
                            1..=4 => {}
                            _ => cursor += SimDuration::from_millis(rng.next_below(5)),
                        }
                        q.schedule_presorted(cursor, id);
                        reference.schedule_at(cursor, id);
                    }
                    60..=79 => {
                        let limit = now + SimDuration::from_millis(rng.next_below(10));
                        assert_eq!(q.pop_until(limit), reference.pop_until(limit));
                    }
                    80..=98 => assert_eq!(q.pop(), reference.pop()),
                    _ => {
                        q.clear();
                        reference.clear();
                    }
                }
                assert_eq!(q.now(), reference.now(), "seed {seed} op {id}");
                assert_eq!(q.len(), reference.len(), "seed {seed} op {id}");
                assert_eq!(q.is_empty(), reference.is_empty());
                assert_eq!(q.peek_time(), reference.peek_time());
            }
            while let Some(popped) = reference.pop() {
                assert_eq!(q.pop(), Some(popped), "seed {seed} drain");
            }
            assert!(q.is_empty());
            assert_eq!(q.scheduled_total(), reference.scheduled_total());
            assert_eq!(q.processed_total(), reference.processed_total());
        }
    }

    #[test]
    fn clear_empties_the_queue() {
        let mut q = EventQueue::new();
        q.schedule_now(1);
        q.schedule_presorted(SimTime::from_secs(1), 2);
        assert_eq!(q.len(), 2);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        assert_eq!(q.scheduled_total(), 2);
    }
}
