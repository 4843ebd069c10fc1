//! The trace sink: one ring per actor behind a light mutex, a shared
//! clock, and a global sequence counter.
//!
//! Each rank (and the coordinator) records into *its own* ring, so the
//! only cross-thread contention on the hot path is the sequence-counter
//! `fetch_add` — rank-to-rank recording never shares a lock. The mutexes
//! exist because dumping and the network hook may touch a ring from
//! another thread; they are uncontended in steady state.

use crate::clock::{Clock, TestClock, WallClock};
use crate::event::{EventKind, TraceEvent, COORD_ACTOR};
use crate::ring::Ring;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// The shared recording endpoint for one world: `n` rank rings plus a
/// coordinator ring, stamped by one [`Clock`].
pub struct TraceSink {
    clock: Arc<dyn Clock>,
    /// Rings `0..n` belong to ranks; the last is the coordinator's.
    rings: Vec<Mutex<Ring>>,
    n: usize,
    capacity: usize,
    seq: AtomicU64,
}

impl fmt::Debug for TraceSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TraceSink")
            .field("ranks", &self.n)
            .field("capacity", &self.capacity)
            .field("seq", &self.seq.load(Ordering::Relaxed))
            .finish()
    }
}

impl TraceSink {
    /// A sink for `n_ranks` ranks with `capacity` events per ring,
    /// stamped by `clock`.
    pub fn new(n_ranks: usize, capacity: usize, clock: Arc<dyn Clock>) -> Arc<TraceSink> {
        Arc::new(TraceSink {
            clock,
            rings: (0..n_ranks + 1)
                .map(|_| Mutex::new(Ring::with_capacity(capacity)))
                .collect(),
            n: n_ranks,
            capacity,
            seq: AtomicU64::new(0),
        })
    }

    /// A wall-clock sink (benches, chaos runs).
    pub fn wall(n_ranks: usize, capacity: usize) -> Arc<TraceSink> {
        Self::new(n_ranks, capacity, Arc::new(WallClock::new()))
    }

    /// A deterministic sink: timestamps are a shared read counter
    /// ([`TestClock`]), so single-actor event sequences are reproducible.
    pub fn deterministic(n_ranks: usize, capacity: usize) -> Arc<TraceSink> {
        Self::new(n_ranks, capacity, Arc::new(TestClock::new()))
    }

    /// Number of rank rings (the coordinator ring is extra).
    pub fn n_ranks(&self) -> usize {
        self.n
    }

    /// Per-ring capacity, in events.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    fn ring_index(&self, actor: i32) -> usize {
        if actor == COORD_ACTOR {
            self.n
        } else {
            let a = actor as usize;
            assert!(a < self.n, "actor {actor} out of range (n = {})", self.n);
            a
        }
    }

    fn lock_ring(&self, idx: usize) -> MutexGuard<'_, Ring> {
        // A panicking recorder must not take the whole trace down:
        // recover the ring from a poisoned mutex.
        self.rings[idx]
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Record one event into `actor`'s ring. `actor` is a world rank or
    /// [`COORD_ACTOR`]; `round` is the checkpoint round or
    /// [`crate::NO_ROUND`].
    pub fn record(&self, actor: i32, round: i64, kind: EventKind) {
        let ev = TraceEvent {
            ts_ns: self.clock.now_ns(),
            actor,
            seq: self.seq.fetch_add(1, Ordering::Relaxed),
            round,
            kind,
        };
        self.lock_ring(self.ring_index(actor)).push(ev);
    }

    /// All events of one actor's ring, oldest first.
    pub fn ring_events(&self, actor: i32) -> Vec<TraceEvent> {
        self.lock_ring(self.ring_index(actor)).to_vec()
    }

    /// Every ring merged into one list, sorted by `(ts_ns, seq)`.
    pub fn merged(&self) -> Vec<TraceEvent> {
        let mut all = Vec::new();
        for idx in 0..self.rings.len() {
            all.extend(self.lock_ring(idx).iter().copied());
        }
        all.sort_by_key(|e| (e.ts_ns, e.seq));
        all
    }

    /// Total events overwritten across all rings.
    pub fn dropped(&self) -> u64 {
        (0..self.rings.len())
            .map(|idx| self.lock_ring(idx).dropped())
            .sum()
    }

    /// Events overwritten per ring: indices `0..n` are ranks, the last
    /// entry is the coordinator ring.
    pub fn dropped_by_ring(&self) -> Vec<u64> {
        (0..self.rings.len())
            .map(|idx| self.lock_ring(idx).dropped())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Phase;

    #[test]
    fn events_land_in_their_actors_ring() {
        let sink = TraceSink::deterministic(2, 8);
        sink.record(0, 0, EventKind::Begin(Phase::Intent));
        sink.record(1, 0, EventKind::Begin(Phase::Intent));
        sink.record(COORD_ACTOR, 0, EventKind::Begin(Phase::Commit));
        assert_eq!(sink.ring_events(0).len(), 1);
        assert_eq!(sink.ring_events(1).len(), 1);
        assert_eq!(sink.ring_events(COORD_ACTOR).len(), 1);
        assert_eq!(sink.merged().len(), 3);
    }

    #[test]
    fn merged_is_sorted_and_seqs_unique() {
        let sink = TraceSink::deterministic(2, 8);
        for i in 0..6 {
            sink.record(i % 2, 0, EventKind::NetMatch { src: 0, bytes: 1 });
        }
        let merged = sink.merged();
        let mut seqs: Vec<u64> = merged.iter().map(|e| e.seq).collect();
        let sorted = seqs.clone();
        seqs.dedup();
        assert_eq!(seqs.len(), 6);
        assert_eq!(sorted, {
            let mut s = sorted.clone();
            s.sort_unstable();
            s
        });
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_actor_panics() {
        let sink = TraceSink::deterministic(2, 8);
        sink.record(2, 0, EventKind::NetMatch { src: 0, bytes: 1 });
    }
}
