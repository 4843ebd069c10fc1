//! Adapter from `mpisim`'s dependency-free [`mpisim::TraceHook`] onto the
//! `obs` flight recorder.
//!
//! The simulator cannot depend on `obs` (it depends on nothing), so it
//! exposes a narrow hook trait instead; this adapter routes fabric
//! events into per-rank rings. Send events are attributed to the sending
//! rank's ring, match and hold events to the receiving rank's — the
//! actor whose timeline they explain. Fabric events carry no checkpoint
//! round (the fabric does not know it), so they record [`obs::NO_ROUND`].

use obs::{EventKind, TraceSink};
use std::sync::Arc;

/// Routes fabric send/match/hold events into an [`obs::TraceSink`].
pub struct FabricTraceAdapter {
    sink: Arc<TraceSink>,
}

impl FabricTraceAdapter {
    /// Adapter recording into `sink`.
    pub fn new(sink: Arc<TraceSink>) -> Self {
        FabricTraceAdapter { sink }
    }

    /// Wrap into the handle form [`mpisim::WorldCfg`] accepts.
    pub fn hook(sink: Arc<TraceSink>) -> mpisim::TraceHookRef {
        mpisim::TraceHookRef::new(Arc::new(FabricTraceAdapter::new(sink)))
    }
}

impl mpisim::TraceHook for FabricTraceAdapter {
    fn on_send(&self, src: usize, dst: usize, bytes: usize, user: bool) {
        self.sink.record(
            src as i32,
            obs::NO_ROUND,
            EventKind::NetSend {
                dst: dst as u32,
                bytes: bytes as u64,
                user,
            },
        );
    }

    fn on_match(&self, src: usize, dst: usize, bytes: usize) {
        self.sink.record(
            dst as i32,
            obs::NO_ROUND,
            EventKind::NetMatch {
                src: src as u32,
                bytes: bytes as u64,
            },
        );
    }

    fn on_hold(&self, src: usize, dst: usize, reorder: bool) {
        self.sink.record(
            dst as i32,
            obs::NO_ROUND,
            EventKind::NetHold {
                src: src as u32,
                reorder,
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpisim::TraceHook as _;

    #[test]
    fn events_route_to_the_right_rings() {
        let sink = TraceSink::deterministic(3, 16);
        let a = FabricTraceAdapter::new(Arc::clone(&sink));
        a.on_send(0, 2, 64, true);
        a.on_match(0, 2, 64);
        a.on_hold(1, 2, false);
        assert_eq!(sink.ring_events(0).len(), 1, "send goes to the sender");
        assert_eq!(
            sink.ring_events(2).len(),
            2,
            "match+hold go to the receiver"
        );
        assert_eq!(sink.ring_events(1).len(), 0);
    }

    #[test]
    fn fabric_emits_through_the_hook() {
        let sink = TraceSink::deterministic(2, 64);
        let cfg = mpisim::WorldCfg {
            trace: Some(FabricTraceAdapter::hook(Arc::clone(&sink))),
            ..crate::from_env().expect("MANA2_* environment").world
        };
        let (_, _) = mpisim::run(2, cfg, |p| {
            let world = p.comm_world();
            if p.rank() == 0 {
                p.send_t(world, 1, 7, &[1u64, 2, 3]).unwrap();
            } else {
                let _ = p
                    .recv_t::<u64>(world, mpisim::SrcSel::Rank(0), mpisim::TagSel::Tag(7))
                    .unwrap();
            }
        })
        .unwrap();
        let sends = sink
            .ring_events(0)
            .iter()
            .filter(|e| matches!(e.kind, EventKind::NetSend { .. }))
            .count();
        let matches = sink
            .ring_events(1)
            .iter()
            .filter(|e| matches!(e.kind, EventKind::NetMatch { .. }))
            .count();
        assert!(sends >= 1, "no send events recorded");
        assert!(matches >= 1, "no match events recorded");
    }
}
