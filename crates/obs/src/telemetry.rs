//! One telemetry handle per actor: its flight-recorder ring and its
//! metrics shard behind one total API.
//!
//! A rank, the coordinator, a store write each hold a [`Telemetry`] and
//! record a fact with one call. The handle is *total*: built without a
//! sink, events go nowhere; built without a registry, so do counters and
//! histograms — callers never test for either. A [`Span`] brackets one
//! checkpoint phase: it emits the `Begin`/`End` pair, feeds the phase's
//! latency histogram and hands the duration back, so a phase is timed
//! once however many places want the number.
//!
//! Cost, with both halves absent: a branch per call. A span reads the
//! wall clock only for phases that own a histogram (see [`phase_hist`]);
//! the sink stamps its events through its own [`crate::Clock`].
//!
//! Work fanned out over helper threads records through
//! [`Telemetry::deferred`] handles: their counters land at once, their
//! events wait until [`Telemetry::replay`] records them, so a ring's
//! order does not depend on which helper finished first.

use crate::event::{EventKind, FaultKind, Phase, COORD_ACTOR};
use crate::metrics::{self as met, MetricId, MetricsRegistry};
use crate::sink::TraceSink;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The latency histogram a span of `phase` feeds when `actor` closes it.
///
/// | actor       | phase         | histogram             |
/// |-------------|---------------|-----------------------|
/// | coordinator | `Intent`      | `ROUND_QUIESCE_NS`    |
/// | coordinator | `ImageWrite`  | `ROUND_WRITE_NS`      |
/// | coordinator | `Commit`      | `ROUND_COMMIT_NS`     |
/// | rank        | `ImageWrite`  | `STORE_WRITE_NS`      |
/// | rank        | `TpcBarrier`  | `TPC_BARRIER_WAIT_NS` |
/// | rank        | `Drain{..}`   | `DRAIN_SWEEP_NS`      |
/// | rank        | `FlushWait`   | `CKPT_FLUSH_WAIT_NS`  |
///
/// Every other phase is trace-only and never reads the wall clock.
fn phase_hist(actor: i32, phase: Phase) -> Option<MetricId> {
    let coord = actor == COORD_ACTOR;
    match phase {
        Phase::Intent if coord => Some(met::ROUND_QUIESCE_NS),
        Phase::ImageWrite if coord => Some(met::ROUND_WRITE_NS),
        Phase::Commit if coord => Some(met::ROUND_COMMIT_NS),
        Phase::ImageWrite => Some(met::STORE_WRITE_NS),
        Phase::TpcBarrier => Some(met::TPC_BARRIER_WAIT_NS),
        Phase::Drain { .. } => Some(met::DRAIN_SWEEP_NS),
        Phase::FlushWait => Some(met::CKPT_FLUSH_WAIT_NS),
        _ => None,
    }
}

/// One actor's recording handle: trace ring plus metrics shard, either
/// of which may be absent.
#[derive(Clone)]
pub struct Telemetry {
    actor: i32,
    events: Events,
    reg: Option<Arc<MetricsRegistry>>,
}

/// Where a handle's events go.
#[derive(Clone)]
enum Events {
    Off,
    Sink(Arc<TraceSink>),
    /// Held, in order, for [`Telemetry::replay`].
    Held(Arc<Mutex<Vec<(i64, EventKind)>>>),
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("actor", &self.actor)
            .field("tracing", &self.tracing())
            .field("metered", &self.reg.is_some())
            .finish()
    }
}

/// An open phase span: plain data, so it never borrows the handle (or
/// whatever owns the handle) across the work it brackets. Close it with
/// [`Telemetry::end`]; a span that is dropped instead simply never ends.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    round: i64,
    phase: Phase,
    /// The histogram this span feeds and when it opened.
    timer: Option<(MetricId, Instant)>,
}

impl Telemetry {
    /// A handle recording as `actor` (a world rank or
    /// [`crate::COORD_ACTOR`]) into whichever of `sink` / `reg` is
    /// present.
    pub fn new(
        actor: i32,
        sink: Option<Arc<TraceSink>>,
        reg: Option<Arc<MetricsRegistry>>,
    ) -> Telemetry {
        let events = sink.map_or(Events::Off, Events::Sink);
        Telemetry { actor, events, reg }
    }

    /// A handle that records nothing.
    pub fn off() -> Telemetry {
        Telemetry::new(met::PROCESS_ACTOR, None, None)
    }

    /// Is a trace sink armed? Guard event payloads that cost a lookup
    /// to build with this; scalar payloads need no guard.
    #[inline]
    pub fn tracing(&self) -> bool {
        !matches!(self.events, Events::Off)
    }

    /// Is a metrics registry armed? Guard a sample that costs a system
    /// call to take with this.
    #[inline]
    pub fn metered(&self) -> bool {
        self.reg.is_some()
    }

    /// Record a point event.
    #[inline]
    pub fn event(&self, round: i64, kind: EventKind) {
        match &self.events {
            Events::Off => {}
            Events::Sink(s) => s.record(self.actor, round, kind),
            Events::Held(held) => held
                .lock()
                .expect("held events poisoned by a panic")
                .push((round, kind)),
        }
    }

    /// A handle for work on a helper thread: it counts into this one's
    /// metrics shard as it goes, and holds its events until
    /// [`Telemetry::replay`] records them here. Holds nothing when this
    /// handle traces nothing.
    pub fn deferred(&self) -> Telemetry {
        let events = match self.events {
            Events::Off => Events::Off,
            _ => Events::Held(Arc::default()),
        };
        Telemetry {
            actor: self.actor,
            events,
            reg: self.reg.clone(),
        }
    }

    /// Record here, in the order they were recorded, the events a
    /// [`Telemetry::deferred`] handle has held since the last replay.
    pub fn replay(&self, deferred: &Telemetry) {
        if let Events::Held(held) = &deferred.events {
            let held = std::mem::take(&mut *held.lock().expect("held events poisoned by a panic"));
            held.into_iter()
                .for_each(|(round, kind)| self.event(round, kind));
        }
    }

    /// Add `delta` to a counter.
    #[inline]
    pub fn add(&self, id: MetricId, delta: u64) {
        if let Some(r) = &self.reg {
            r.add(self.actor, id, delta);
        }
    }

    /// Record a latency into a histogram.
    #[inline]
    pub fn observe(&self, id: MetricId, took: Duration) {
        if let Some(r) = &self.reg {
            r.observe(self.actor, id, took.as_nanos() as u64);
        }
    }

    /// A fault-plan fault fired on this actor: counted and traced.
    pub fn fault_fired(&self, round: i64, fault: FaultKind) {
        self.add(met::FAULTS_FIRED, 1);
        self.event(round, EventKind::FaultFired { fault });
    }

    /// Open a span of `phase`. A drain sweep is also counted here.
    #[inline]
    pub fn begin(&self, round: i64, phase: Phase) -> Span {
        if let Phase::Drain { .. } = phase {
            self.add(met::DRAIN_SWEEPS, 1);
        }
        self.event(round, EventKind::Begin(phase));
        Span {
            round,
            phase,
            timer: phase_hist(self.actor, phase).map(|h| (h, Instant::now())),
        }
    }

    /// Close `span`: feed its histogram, emit `End`, and return how long
    /// it was open (zero for a trace-only phase).
    #[inline]
    pub fn end(&self, span: Span) -> Duration {
        let took = span.timer.map(|(hist, opened)| {
            let took = opened.elapsed();
            self.observe(hist, took);
            took
        });
        self.event(span.round, EventKind::End(span.phase));
        took.unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handle_without_sink_or_registry_is_a_no_op() {
        let t = Telemetry::off();
        assert!(!t.tracing());
        t.add(met::DRAINED_MSGS, 1);
        t.fault_fired(0, FaultKind::Trigger);
        let s = t.begin(0, Phase::EmuCollective);
        assert_eq!(t.end(s), Duration::ZERO);
    }

    #[test]
    fn deferred_events_wait_for_replay_and_counters_do_not() {
        let sink = TraceSink::deterministic(1, 16);
        let reg = MetricsRegistry::deterministic(1);
        let coord = Telemetry::new(COORD_ACTOR, Some(sink.clone()), Some(reg.clone()));
        let (a, b) = (coord.deferred(), coord.deferred());
        // Recorded b first, a second; replayed a first.
        b.event(1, EventKind::FlushRank { rank: 1 });
        a.event(1, EventKind::FlushRank { rank: 0 });
        a.add(met::STORE_FSYNCS, 2);
        assert!(sink.ring_events(COORD_ACTOR).is_empty());
        assert_eq!(reg.snapshot().value("mana2_store_fsyncs_total"), Some(2));
        coord.replay(&a);
        coord.replay(&b);
        coord.replay(&a);
        let kinds: Vec<EventKind> = (sink.ring_events(COORD_ACTOR).iter())
            .map(|e| e.kind)
            .collect();
        assert_eq!(
            kinds,
            [
                EventKind::FlushRank { rank: 0 },
                EventKind::FlushRank { rank: 1 }
            ]
        );
        let off = Telemetry::off().deferred();
        assert!(!off.tracing());
    }

    #[test]
    fn handle_records_as_its_actor() {
        let sink = TraceSink::deterministic(2, 8);
        let reg = MetricsRegistry::deterministic(2);
        let t = Telemetry::new(1, Some(sink.clone()), Some(reg.clone()));
        t.add(met::EMU_COLLECTIVES, 2);
        t.observe(met::TPC_BARRIER_WAIT_NS, Duration::from_nanos(40));
        t.fault_fired(3, FaultKind::ReadyStall);
        let snap = reg.snapshot();
        assert_eq!(snap.value("mana2_emu_collectives_total"), Some(2));
        assert_eq!(snap.value("mana2_faults_fired_total"), Some(1));
        assert_eq!(snap.hist("mana2_tpc_barrier_wait_ns").unwrap().max, 40);
        assert!(sink.ring_events(0).is_empty());
        let evs = sink.ring_events(1);
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].round, 3);
    }

    #[test]
    fn span_emits_the_pair_and_feeds_the_phase_histogram_once() {
        let sink = TraceSink::deterministic(1, 16);
        let reg = MetricsRegistry::deterministic(1);
        let rank = Telemetry::new(0, Some(sink.clone()), Some(reg.clone()));
        let coord = Telemetry::new(COORD_ACTOR, Some(sink.clone()), Some(reg.clone()));
        let sweep = rank.begin(4, Phase::Drain { sweep: 1 });
        rank.end(sweep);
        // Same phase, different actor, different histogram.
        let a = rank.begin(4, Phase::ImageWrite);
        let b = coord.begin(4, Phase::ImageWrite);
        rank.end(a);
        coord.end(b);
        // Trace-only on a rank: no clock, no sample.
        let i = rank.begin(4, Phase::Intent);
        assert_eq!(rank.end(i), Duration::ZERO);
        let kinds: Vec<EventKind> = sink.ring_events(0).iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            [
                EventKind::Begin(Phase::Drain { sweep: 1 }),
                EventKind::End(Phase::Drain { sweep: 1 }),
                EventKind::Begin(Phase::ImageWrite),
                EventKind::End(Phase::ImageWrite),
                EventKind::Begin(Phase::Intent),
                EventKind::End(Phase::Intent),
            ]
        );
        assert_eq!(sink.ring_events(COORD_ACTOR).len(), 2);
        let snap = reg.snapshot();
        assert_eq!(snap.value("mana2_drain_sweeps_total"), Some(1));
        for (name, n) in [
            ("mana2_drain_sweep_ns", 1),
            ("mana2_store_write_ns", 1),
            ("mana2_round_write_ns", 1),
            ("mana2_round_quiesce_ns", 0),
        ] {
            assert_eq!(snap.hist(name).unwrap().count, n, "{name}");
        }
    }
}
