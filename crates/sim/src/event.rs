//! The binary-heap event queue.
//!
//! A binary heap keyed on `(time, sequence)` — the sequence number makes the
//! pop order of same-timestamp events equal to their scheduling order, which
//! is what makes whole-week replays deterministic across runs and platforms.
//! Entries hold their payloads inline: every scheduled event fires exactly
//! once, so there is no slab, no handle and no tombstone to skip.
//!
//! The timing wheel ([`crate::TimingWheel`]) is the production scheduler;
//! this queue is the reference it is checked against — the heap ≡ wheel
//! lockstep proptests, and `sim.scheduler=heap` replays diffed against
//! wheel replays byte for byte.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// One pending event: the ordering key plus its payload.
struct Entry<E> {
    time: SimTime,
    seq: u64,
    payload: E,
}

// Orderings are inverted so `BinaryHeap` (a max-heap) pops the earliest
// `(time, seq)` first. `seq` is unique, so the ordering is total.
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
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

/// A deterministic future-event list: O(log n) `schedule` and `pop`.
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// An empty queue with room for `capacity` concurrently pending events
    /// before the heap reallocates.
    pub fn with_capacity(capacity: usize) -> Self {
        EventQueue { heap: BinaryHeap::with_capacity(capacity), next_seq: 0 }
    }

    /// Schedule `payload` to fire at `time`. Events scheduled for the same
    /// instant fire in scheduling order.
    pub fn schedule(&mut self, time: SimTime, payload: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.schedule_with_seq(time, seq, payload);
    }

    /// Reserve sequence numbers `0..n` for [`EventQueue::schedule_with_seq`]:
    /// plain `schedule` calls will draw sequence numbers from `n` upward, so
    /// a caller that knows its arrival count up front can keep injecting
    /// arrivals lazily while preserving the same-timestamp tie-break order
    /// an eager up-front scheduling pass would have produced.
    pub fn reserve_seqs(&mut self, n: u64) {
        self.next_seq = self.next_seq.max(n);
    }

    /// Schedule `payload` at `time` with an explicit, caller-reserved
    /// sequence number (see [`EventQueue::reserve_seqs`]). The caller must
    /// keep reserved sequence numbers unique; pop order is `(time, seq)`.
    pub fn schedule_with_seq(&mut self, time: SimTime, seq: u64, payload: E) {
        self.heap.push(Entry { time, seq, payload });
    }

    /// Remove and return the earliest pending event.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|e| (e.time, e.payload))
    }

    /// The firing time of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(t(30), "c");
        q.schedule(t(10), "a");
        q.schedule(t(20), "b");
        assert_eq!(q.pop(), Some((t(10), "a")));
        assert_eq!(q.pop(), Some((t(20), "b")));
        assert_eq!(q.pop(), Some((t(30), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_break_by_scheduling_order() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(t(5), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((t(5), i)));
        }
    }

    #[test]
    fn with_capacity_behaves_like_new() {
        let mut q = EventQueue::with_capacity(16);
        q.schedule(t(2), "b");
        q.schedule(t(1), "a");
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(t(1)));
        assert_eq!(q.pop(), Some((t(1), "a")));
        assert_eq!(q.pop(), Some((t(2), "b")));
        assert!(q.is_empty());
    }

    #[test]
    fn interleaved_schedule_and_pop() {
        let mut q = EventQueue::new();
        q.schedule(t(10), 1);
        assert_eq!(q.pop(), Some((t(10), 1)));
        q.schedule(t(5), 2); // earlier than the already-popped event is fine
        q.schedule(t(6) + SimDuration::from_millis(0), 3);
        assert_eq!(q.pop(), Some((t(5), 2)));
        assert_eq!(q.pop(), Some((t(6), 3)));
    }
}
