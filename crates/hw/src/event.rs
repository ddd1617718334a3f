//! Deterministic discrete-event queue for virtual-time execution.
//!
//! The thread-pool engine orders concurrent work by lock acquisition:
//! whichever OS thread wins the TPM lock or the journal commit gate
//! goes first, and determinism is *enforced* by folding every
//! worker-visible quantity back into interleaving-invariant form. A
//! discrete-event executor inverts that: there are no OS threads, only
//! events on a virtual timeline, and ordering is *structural* — events
//! fire in `(time, id)` order, period.
//!
//! [`EventQueue`] is the one source of that ordering. The tie-break
//! contract (documented in DESIGN.md and pinned by the property suite):
//!
//! 1. earlier [`SimTime`] fires first;
//! 2. at equal times, the **lower event id** (session id, for the
//!    executor) fires first;
//! 3. at equal `(time, id)` — e.g. a session re-scheduling itself at
//!    zero cost — insertion order is preserved (FIFO).
//!
//! Nothing here consults wall-clock time, thread identity, or map
//! iteration order, so a queue replayed from the same schedule calls is
//! byte-identical on every host.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// One scheduled event: a payload due at `at`, ordered by
/// `(at, id, seq)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event<T> {
    /// Virtual due time.
    pub at: SimTime,
    /// Tie-break identity (the executor uses the session id).
    pub id: u64,
    /// Caller payload.
    pub payload: T,
    seq: u64,
}

impl<T> Event<T> {
    /// Insertion sequence number (the final FIFO tie-break).
    pub fn seq(&self) -> u64 {
        self.seq
    }
}

// BinaryHeap is a max-heap; invert so the *earliest* (time, id, seq)
// is the maximum. Ordering deliberately ignores the payload.
impl<T: Eq> Ord for Event<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        (other.at, other.id, other.seq).cmp(&(self.at, self.id, self.seq))
    }
}

impl<T: Eq> PartialOrd for Event<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A deterministic virtual-time event queue.
///
/// # Example
///
/// ```
/// use sea_hw::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_ns(20), 0, "late");
/// q.schedule(SimTime::from_ns(10), 7, "tied-high");
/// q.schedule(SimTime::from_ns(10), 3, "tied-low");
/// assert_eq!(q.pop().unwrap().payload, "tied-low");
/// assert_eq!(q.pop().unwrap().payload, "tied-high");
/// assert_eq!(q.pop().unwrap().payload, "late");
/// assert!(q.pop().is_none());
/// ```
#[derive(Debug)]
pub struct EventQueue<T: Eq> {
    heap: BinaryHeap<Event<T>>,
    next_seq: u64,
    now: SimTime,
}

impl<T: Eq> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Eq> EventQueue<T> {
    /// An empty queue at virtual time zero.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// Schedules `payload` to fire at `at` with tie-break identity
    /// `id`. Scheduling in the past is clamped to `now` — an event can
    /// never fire before the queue's current time.
    pub fn schedule(&mut self, at: SimTime, id: u64, payload: T) {
        let at = at.max(self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Event {
            at,
            id,
            payload,
            seq,
        });
    }

    /// Removes and returns the next event in `(time, id, insertion)`
    /// order, advancing the queue's clock to its due time.
    pub fn pop(&mut self) -> Option<Event<T>> {
        let ev = self.heap.pop()?;
        self.now = ev.at;
        Some(ev)
    }

    /// The queue's current virtual time: the due time of the last event
    /// popped ([`SimTime::ZERO`] before the first pop).
    pub fn now(&self) -> SimTime {
        self.now
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

    #[test]
    fn orders_by_time_then_id_then_insertion() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ns(5), 9, "t5-id9");
        q.schedule(SimTime::from_ns(5), 2, "t5-id2-first");
        q.schedule(SimTime::from_ns(1), 40, "t1");
        q.schedule(SimTime::from_ns(5), 2, "t5-id2-second");
        let fired: Vec<&str> = std::iter::from_fn(|| q.pop()).map(|e| e.payload).collect();
        assert_eq!(fired, ["t1", "t5-id2-first", "t5-id2-second", "t5-id9"]);
    }

    #[test]
    fn clock_never_runs_backwards() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ns(100), 0, ());
        assert_eq!(q.pop().unwrap().at, SimTime::from_ns(100));
        // Scheduling "in the past" clamps to now.
        q.schedule(SimTime::from_ns(3), 1, ());
        let e = q.pop().unwrap();
        assert_eq!(e.at, SimTime::from_ns(100));
        assert_eq!(q.now(), SimTime::from_ns(100));
    }

    #[test]
    fn pop_returns_the_scheduled_event() {
        let mut q = EventQueue::new();
        let t = SimTime::ZERO + SimDuration::from_us(7);
        q.schedule(t, 3, 'a');
        assert_eq!(q.len(), 1);
        let e = q.pop().unwrap();
        assert_eq!((e.at, e.id, e.payload), (t, 3, 'a'));
        assert!(q.is_empty());
    }
}
