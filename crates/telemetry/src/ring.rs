//! Bounded event rings — one per (thread, sink) pair, where a named thread
//! that is respawned (a per-batch worker) takes over the ring its namesake
//! left behind.
//!
//! Each emitting thread gets its own ring, so an `emit` from execution or a
//! compile worker takes a lock nobody else holds except a concurrent drain
//! (trace export / inspection), and the buffer is allocated once, up front:
//! a push never allocates.
//!
//! When the ring is full the *newest* event is dropped and counted — bounded
//! memory beats complete history for an always-on tracing layer, and the
//! `dropped` counter keeps the loss observable.

use crate::event::TraceEvent;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

/// One thread's bounded event buffer.
pub struct EventRing {
    label: String,
    capacity: usize,
    events: Mutex<VecDeque<TraceEvent>>,
    /// Events discarded because the ring was full.
    dropped: AtomicU64,
}

impl EventRing {
    /// Creates a ring holding at most `capacity` events (minimum 8).
    pub fn new(label: String, capacity: usize) -> EventRing {
        let capacity = capacity.max(8);
        EventRing {
            label,
            capacity,
            events: Mutex::new(VecDeque::with_capacity(capacity)),
            dropped: AtomicU64::new(0),
        }
    }

    /// The thread label the ring was registered under.
    pub fn label(&self) -> &str {
        &self.label
    }

    fn events(&self) -> MutexGuard<'_, VecDeque<TraceEvent>> {
        self.events.lock().expect("an event ring's lock is never held across a panic")
    }

    /// Appends an event. On a full ring the event is dropped (and counted),
    /// not blocked on — tracing must never stall execution.
    pub fn push(&self, event: TraceEvent) {
        let mut events = self.events();
        if events.len() >= self.capacity {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        } else {
            events.push_back(event);
        }
    }

    /// Moves every buffered event into `out`, oldest first.
    pub fn drain_into(&self, out: &mut Vec<TraceEvent>) {
        out.extend(self.events().drain(..));
    }

    /// Events currently buffered.
    pub fn len(&self) -> usize {
        self.events().len()
    }

    /// True if nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events discarded because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;

    fn ev(t: u64) -> TraceEvent {
        TraceEvent {
            t_us: t,
            kind: EventKind::CacheLookup { hit: t.is_multiple_of(2) },
        }
    }

    #[test]
    fn push_and_drain_preserve_order() {
        let ring = EventRing::new("t".into(), 16);
        for i in 0..10 {
            ring.push(ev(i));
        }
        assert_eq!(ring.len(), 10);
        let mut out = Vec::new();
        ring.drain_into(&mut out);
        assert!(ring.is_empty());
        assert_eq!(out.len(), 10);
        for (i, e) in out.iter().enumerate() {
            assert_eq!(e.t_us, i as u64);
        }
        // Post-drain pushes wrap the slot array transparently.
        for i in 10..20 {
            ring.push(ev(i));
        }
        out.clear();
        ring.drain_into(&mut out);
        assert_eq!(out.first().map(|e| e.t_us), Some(10));
        assert_eq!(out.last().map(|e| e.t_us), Some(19));
        assert_eq!(ring.dropped(), 0);
    }

    #[test]
    fn a_full_ring_drops_newest_and_counts() {
        let ring = EventRing::new("t".into(), 8);
        for i in 0..12 {
            ring.push(ev(i));
        }
        assert_eq!(ring.len(), 8);
        assert_eq!(ring.dropped(), 4);
        let mut out = Vec::new();
        ring.drain_into(&mut out);
        // The oldest 8 survive; the overflow was dropped at the tail end.
        assert_eq!(out.iter().map(|e| e.t_us).collect::<Vec<_>>(), (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn concurrent_producer_and_consumer_lose_nothing_when_not_full() {
        let ring = std::sync::Arc::new(EventRing::new("spsc".into(), 1 << 14));
        let producer = {
            let ring = std::sync::Arc::clone(&ring);
            std::thread::spawn(move || {
                for i in 0..10_000u64 {
                    ring.push(ev(i));
                }
            })
        };
        let mut seen: Vec<TraceEvent> = Vec::new();
        while seen.len() < 10_000 {
            ring.drain_into(&mut seen);
            std::thread::yield_now();
        }
        producer.join().unwrap();
        assert_eq!(ring.dropped(), 0);
        for (i, e) in seen.iter().enumerate() {
            assert_eq!(e.t_us, i as u64, "in-order, no tearing");
        }
    }
}
