//! MPI tools-interface analog: per-rank activity introspection.
//!
//! The paper's conclusion proposes extending MANA-2.0 with the MPI-3.1
//! tools interfaces so it "could play a supportive role within other
//! fault-tolerant libraries", explicitly naming a **deadlock detector** as
//! the first application. This module is that interface for the simulated
//! library: each rank publishes what (if anything) it is currently blocked
//! on, plus a monotonically-increasing progress counter; an external
//! observer (MANA's detector, `mana_core::runtime`) samples the whole
//! world and infers a deadlock when nothing progresses while real message
//! dependencies are outstanding.

use crate::unpoisoned;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// What a rank is currently blocked on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockKind {
    /// Waiting for a receive to complete: (source world rank if known,
    /// tag if exact, communicator context).
    RecvWait {
        /// Source world rank (`None` = `ANY_SOURCE` or unknown).
        src: Option<usize>,
        /// Exact tag, if the wait is tag-specific.
        tag: Option<i32>,
        /// Communicator context.
        ctx: u64,
    },
    /// Parked in a polling loop (MANA test loops, probe loops).
    Park,
}

/// Snapshot of one rank's activity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RankActivity {
    /// Current blocking state (`None` = running).
    pub blocked: Option<BlockKind>,
    /// Progress counter: bumps on every send deposited and every receive
    /// matched by this rank.
    pub progress: u64,
}

/// Shared per-world activity table.
#[derive(Debug)]
pub struct ToolsState {
    blocked: Vec<Mutex<Option<BlockKind>>>,
    progress: Vec<AtomicU64>,
}

impl ToolsState {
    /// Table for `n` ranks.
    pub fn new(n: usize) -> Self {
        ToolsState {
            blocked: (0..n).map(|_| Mutex::new(None)).collect(),
            progress: (0..n).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Mark `rank` blocked.
    pub fn set_blocked(&self, rank: usize, kind: BlockKind) {
        *unpoisoned(self.blocked[rank].lock()) = Some(kind);
    }

    /// Mark `rank` running.
    pub fn clear_blocked(&self, rank: usize) {
        *unpoisoned(self.blocked[rank].lock()) = None;
    }

    /// Bump `rank`'s progress counter.
    pub fn bump(&self, rank: usize) {
        self.progress[rank].fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshot every rank.
    pub fn snapshot(&self) -> Vec<RankActivity> {
        self.blocked
            .iter()
            .zip(&self.progress)
            .map(|(b, p)| RankActivity {
                blocked: *unpoisoned(b.lock()),
                progress: p.load(Ordering::Relaxed),
            })
            .collect()
    }
}

/// Render a human-readable description of a blocked state.
pub fn describe(rank: usize, a: &RankActivity) -> String {
    match a.blocked {
        None => format!("rank {rank}: running (progress {})", a.progress),
        Some(BlockKind::Park) => format!("rank {rank}: parked in poll loop"),
        Some(BlockKind::RecvWait { src, tag, ctx }) => format!(
            "rank {rank}: blocked receiving from {} tag {} on comm ctx {ctx}",
            src.map_or("ANY".into(), |s| s.to_string()),
            tag.map_or("ANY".into(), |t| t.to_string()),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reflects_state() {
        let t = ToolsState::new(2);
        let s = t.snapshot();
        assert!(s.iter().all(|a| a.blocked.is_none() && a.progress == 0));
        t.set_blocked(
            1,
            BlockKind::RecvWait {
                src: Some(0),
                tag: Some(5),
                ctx: 0,
            },
        );
        t.bump(0);
        t.bump(0);
        let s = t.snapshot();
        assert_eq!(s[0].progress, 2);
        assert!(matches!(s[1].blocked, Some(BlockKind::RecvWait { .. })));
        t.clear_blocked(1);
        assert!(t.snapshot()[1].blocked.is_none());
    }

    #[test]
    fn describe_is_readable() {
        let a = RankActivity {
            blocked: Some(BlockKind::RecvWait {
                src: None,
                tag: Some(3),
                ctx: 7,
            }),
            progress: 0,
        };
        let d = describe(4, &a);
        assert!(d.contains("rank 4"));
        assert!(d.contains("ANY"));
        assert!(d.contains("tag 3"));
    }
}
