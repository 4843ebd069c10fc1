//! Virtualized MPI requests and the two-step retirement algorithm
//! (paper §III-A).
//!
//! Requests are generated far more often than any other virtualized
//! object, so stale entries must be pruned aggressively or the table
//! grows without bound (memory + lookup cost). The two retirement paths:
//!
//! * **Non-blocking collectives** (log-and-replay): the wrapper knows the
//!   request's address at `test`/`wait` time, so on completion the entry
//!   is removed immediately and the application's variable is set to
//!   `MPI_REQUEST_NULL` directly.
//! * **Point-to-point**: a request may be completed *internally* (by the
//!   drain, where the application's storage address is unknown). Step one:
//!   the virtual ID is re-pointed at `MPI_REQUEST_NULL` inside the table,
//!   with the completion payload parked alongside. Step two: the next
//!   `test`/`wait` that presents the request observes the null binding,
//!   hands over the parked completion, deletes the entry, and overwrites
//!   the application's variable with `MPI_REQUEST_NULL`.

use crate::ids::{VComm, VReq};
use crate::vtable::{VirtualTable, VtBackend};
use mpisim::TagSel;

/// What kind of operation a virtual request stands for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VReqKind {
    /// A non-blocking send (eager: complete at post time).
    SendP2p {
        /// Destination world rank.
        dst_world: usize,
        /// Tag used.
        tag: i32,
        /// Payload length.
        len: usize,
    },
    /// A non-blocking receive.
    RecvP2p {
        /// Virtual communicator posted on.
        vcomm: VComm,
        /// Source world rank (`None` = `ANY_SOURCE`).
        src_world: Option<usize>,
        /// Tag selector.
        tag: TagSel,
    },
    /// A non-blocking (emulated) collective; `op_id` indexes the CollOp
    /// table.
    Coll {
        /// Collective-operation ID.
        op_id: u64,
    },
}

/// A completion parked by step one of the retirement algorithm.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoredCompletion {
    /// Sender world rank (destination world rank for sends).
    pub src_world: usize,
    /// Tag of the completed message.
    pub tag: i32,
    /// Payload (empty for sends).
    pub payload: Vec<u8>,
}

/// The real object a virtual request currently points at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Binding {
    /// A live lower-half request (raw `RReq`). Invalid after restart.
    Real(u64),
    /// No real request exists; one must be (re)posted lazily. This is the
    /// state of every pending receive after a restart.
    Unbound,
    /// Step one applied: the request is really `MPI_REQUEST_NULL`; the
    /// optional completion is parked for the user's next test/wait.
    NullPending(Option<StoredCompletion>),
}

/// One table entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VReqEntry {
    /// Operation kind.
    pub kind: VReqKind,
    /// Current real binding.
    pub binding: Binding,
}

/// Per-rank virtual request manager.
pub struct RequestManager {
    table: VirtualTable<VReqEntry>,
    created: u64,
    retired: u64,
}

impl RequestManager {
    /// Empty manager (vids start at 1; 0 is `MPI_REQUEST_NULL`).
    pub fn new(backend: VtBackend) -> Self {
        RequestManager {
            table: VirtualTable::new(backend, 1),
            created: 0,
            retired: 0,
        }
    }

    /// Create a virtual request.
    pub fn create(&mut self, kind: VReqKind, binding: Binding) -> VReq {
        self.created += 1;
        VReq(self.table.insert(VReqEntry { kind, binding }))
    }

    /// Borrow an entry.
    pub fn entry(&self, r: VReq) -> Option<&VReqEntry> {
        self.table.lookup(r.0)
    }

    /// Mutably borrow an entry.
    pub fn entry_mut(&mut self, r: VReq) -> Option<&mut VReqEntry> {
        self.table.lookup_mut(r.0)
    }

    /// Step one of two-step retirement: the request completed internally
    /// (drain); re-point it at `MPI_REQUEST_NULL` and park the completion.
    pub fn mark_null(&mut self, r: VReq, completion: Option<StoredCompletion>) {
        if let Some(e) = self.table.lookup_mut(r.0) {
            e.binding = Binding::NullPending(completion);
        }
    }

    /// Step two / direct retirement: remove the entry entirely. The caller
    /// (a wrapper holding `&mut VReq`) overwrites the application variable
    /// with `VREQ_NULL`.
    pub fn retire(&mut self, r: VReq) -> Option<VReqEntry> {
        let e = self.table.remove(r.0);
        if e.is_some() {
            self.retired += 1;
        }
        e
    }

    /// All live vids, ascending (deterministic iteration for drain and
    /// serialization).
    pub fn live_vids(&self) -> Vec<VReq> {
        self.table.sorted_vids().into_iter().map(VReq).collect()
    }

    /// Live p2p receives that may still hold a real lower-half request —
    /// the set the drain's `MPI_Test` fallback sweeps (§III-B).
    pub fn testable_recvs(&self) -> Vec<VReq> {
        self.live_vids()
            .into_iter()
            .filter(|r| {
                matches!(
                    self.entry(*r),
                    Some(VReqEntry {
                        kind: VReqKind::RecvP2p { .. },
                        binding: Binding::Real(_) | Binding::Unbound,
                    })
                )
            })
            .collect()
    }

    /// Table size (the §III-A growth symptom when retirement is broken).
    pub fn live(&self) -> usize {
        self.table.len()
    }

    /// Checkpoint-window invariant: every live request must be in a legal
    /// retirement state once the drain has finished. Returns a description
    /// of the first violation found.
    ///
    /// Legal states after a drain:
    /// * sends are eager, so a `SendP2p` is complete the moment it is
    ///   posted — it is either still `Real` (complete, unretired) or has
    ///   been collapsed to `NullPending(None)`. `Unbound` would mean a
    ///   send lost its lower-half object while the process was alive, and
    ///   a parked completion payload on a send is nonsense;
    /// * receives may be in any state (`Real`/`Unbound` pending,
    ///   `NullPending` drained);
    /// * emulated collectives track their state in the CollOp table, never
    ///   in a lower-half request — a `Real` binding on a `Coll` entry is a
    ///   leak.
    ///
    /// The lifecycle counters must also balance the table.
    pub fn check_retirement_invariants(&self) -> std::result::Result<(), String> {
        for vid in self.table.sorted_vids() {
            let e = self.table.lookup(vid).expect("sorted vid is live");
            match (&e.kind, &e.binding) {
                (VReqKind::SendP2p { .. }, Binding::Unbound) => {
                    return Err(format!("send request {vid} lost its binding (Unbound)"));
                }
                (VReqKind::SendP2p { .. }, Binding::NullPending(Some(_))) => {
                    return Err(format!(
                        "send request {vid} has a parked receive completion"
                    ));
                }
                (VReqKind::Coll { op_id }, Binding::Real(raw)) => {
                    return Err(format!(
                        "collective request {vid} (op {op_id}) bound to raw request {raw}"
                    ));
                }
                _ => {}
            }
        }
        let (created, retired) = self.lifecycle_counts();
        if created - retired != self.live() as u64 {
            return Err(format!(
                "request lifecycle out of balance: created {created} - retired {retired} \
                 != live {}",
                self.live()
            ));
        }
        Ok(())
    }

    /// (created, retired) counters.
    pub fn lifecycle_counts(&self) -> (u64, u64) {
        (self.created, self.retired)
    }

    /// Serialize for the checkpoint image, applying the restart transform:
    /// `Real` bindings are meaningless in the next process, so pending
    /// receives become `Unbound` (repost lazily) and completed-by-
    /// construction sends become `NullPending(None)`.
    pub fn to_meta(&self) -> RequestMeta {
        let mut entries = Vec::new();
        for vid in self.table.sorted_vids() {
            let e = self.table.lookup(vid).expect("sorted vid is live");
            let binding = match (&e.kind, &e.binding) {
                (VReqKind::SendP2p { .. }, Binding::Real(_)) => Binding::NullPending(None),
                (VReqKind::RecvP2p { .. }, Binding::Real(_)) => Binding::Unbound,
                (_, b) => b.clone(),
            };
            entries.push((
                vid,
                VReqEntry {
                    kind: e.kind.clone(),
                    binding,
                },
            ));
        }
        RequestMeta {
            entries,
            created: self.created,
            retired: self.retired,
        }
    }

    /// Rebuild from image metadata.
    pub fn from_meta(meta: &RequestMeta, backend: VtBackend) -> Self {
        let mut m = RequestManager {
            table: VirtualTable::new(backend, 1),
            created: meta.created,
            retired: meta.retired,
        };
        for (vid, e) in &meta.entries {
            m.table.bind(*vid, e.clone());
        }
        // Vids are issued 1, 2, … so `created` is the highest ever issued,
        // live or retired: none of them may come back after the restart.
        m.table.reserve_through(meta.created);
        m
    }
}

/// Serializable request-table state.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RequestMeta {
    /// (vid, entry) pairs, ascending.
    pub entries: Vec<(u64, VReqEntry)>,
    /// Creation counter.
    pub created: u64,
    /// Retirement counter.
    pub retired: u64,
}

splitproc::wire!(VReqKind {
    0 => SendP2p { dst_world, tag, len },
    1 => RecvP2p { vcomm, src_world, tag },
    2 => Coll { op_id },
});
splitproc::wire!(StoredCompletion {
    src_world,
    tag,
    payload
});
splitproc::wire!(Binding {
    0 => Real(id),
    1 => Unbound,
    2 => NullPending(completion),
});
splitproc::wire!(VReqEntry { kind, binding });
splitproc::wire!(RequestMeta {
    entries,
    created,
    retired
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::VCOMM_WORLD;
    use splitproc::{Decode, Encode};

    fn recv_kind() -> VReqKind {
        VReqKind::RecvP2p {
            vcomm: VCOMM_WORLD,
            src_world: Some(2),
            tag: TagSel::Tag(5),
        }
    }

    #[test]
    fn create_retire_lifecycle() {
        let mut m = RequestManager::new(VtBackend::FxHash);
        let r = m.create(recv_kind(), Binding::Real(77));
        assert_eq!(m.live(), 1);
        let e = m.retire(r).unwrap();
        assert_eq!(e.binding, Binding::Real(77));
        assert_eq!(m.live(), 0);
        assert_eq!(m.lifecycle_counts(), (1, 1));
        assert!(m.retire(r).is_none(), "double retire is harmless");
    }

    #[test]
    fn two_step_retirement() {
        let mut m = RequestManager::new(VtBackend::FxHash);
        let r = m.create(recv_kind(), Binding::Real(10));
        // Step one: drain completed it internally.
        m.mark_null(
            r,
            Some(StoredCompletion {
                src_world: 2,
                tag: 5,
                payload: vec![9, 9],
            }),
        );
        // Entry still exists (the app may still test it)...
        match &m.entry(r).unwrap().binding {
            Binding::NullPending(Some(c)) => assert_eq!(c.payload, vec![9, 9]),
            other => panic!("expected NullPending, got {other:?}"),
        }
        // Step two: the wrapper retires it.
        m.retire(r).unwrap();
        assert_eq!(m.live(), 0);
    }

    #[test]
    fn testable_recvs_excludes_nulled_and_sends() {
        let mut m = RequestManager::new(VtBackend::FxHash);
        let send = m.create(
            VReqKind::SendP2p {
                dst_world: 1,
                tag: 0,
                len: 4,
            },
            Binding::Real(1),
        );
        let recv_live = m.create(recv_kind(), Binding::Real(2));
        let recv_nulled = m.create(recv_kind(), Binding::NullPending(None));
        let testable = m.testable_recvs();
        assert_eq!(testable, vec![recv_live]);
        let _ = (send, recv_nulled);
    }

    #[test]
    fn meta_transform_for_restart() {
        let mut m = RequestManager::new(VtBackend::BTree);
        let s = m.create(
            VReqKind::SendP2p {
                dst_world: 0,
                tag: 1,
                len: 8,
            },
            Binding::Real(100),
        );
        let r = m.create(recv_kind(), Binding::Real(200));
        let nulled = m.create(
            recv_kind(),
            Binding::NullPending(Some(StoredCompletion {
                src_world: 2,
                tag: 5,
                payload: vec![1],
            })),
        );

        let meta = m.to_meta();
        let bytes = meta.to_bytes();
        let back = RequestMeta::from_bytes(&bytes).unwrap();
        assert_eq!(back, meta);

        let restored = RequestManager::from_meta(&back, VtBackend::FxHash);
        assert_eq!(restored.live(), 3);
        // Send: Real → NullPending(None) (eager sends are complete).
        assert_eq!(
            restored.entry(s).unwrap().binding,
            Binding::NullPending(None)
        );
        // Pending recv: Real → Unbound (repost lazily).
        assert_eq!(restored.entry(r).unwrap().binding, Binding::Unbound);
        // Parked completion survives verbatim.
        match &restored.entry(nulled).unwrap().binding {
            Binding::NullPending(Some(c)) => assert_eq!(c.payload, vec![1]),
            other => panic!("unexpected {other:?}"),
        }
        // New requests allocate past restored vids.
        let mut restored = restored;
        let fresh = restored.create(recv_kind(), Binding::Unbound);
        assert!(fresh.0 > nulled.0);
    }

    #[test]
    fn restart_never_reissues_a_retired_vid() {
        let mut m = RequestManager::new(VtBackend::FxHash);
        let live = m.create(recv_kind(), Binding::Unbound);
        let retired = m.create(recv_kind(), Binding::Real(7));
        m.retire(retired);
        // The image holds only `live`; the application may still hold a
        // stale copy of `retired`.
        let mut restored = RequestManager::from_meta(&m.to_meta(), VtBackend::FxHash);
        let fresh = restored.create(recv_kind(), Binding::Unbound);
        assert!(fresh.0 > retired.0, "{fresh:?} re-issues {retired:?}");
        assert!(restored.entry(retired).is_none());
        assert!(restored.entry(live).is_some());
    }

    #[test]
    fn retirement_invariants_catch_illegal_states() {
        let mut m = RequestManager::new(VtBackend::FxHash);
        let send = m.create(
            VReqKind::SendP2p {
                dst_world: 1,
                tag: 0,
                len: 4,
            },
            Binding::Real(1),
        );
        m.create(recv_kind(), Binding::Unbound);
        m.create(recv_kind(), Binding::NullPending(None));
        assert!(m.check_retirement_invariants().is_ok());

        // A send with a parked receive completion is illegal.
        m.mark_null(
            send,
            Some(StoredCompletion {
                src_world: 0,
                tag: 0,
                payload: vec![],
            }),
        );
        let err = m.check_retirement_invariants().unwrap_err();
        assert!(err.contains("parked receive completion"), "{err}");

        m.retire(send);
        assert!(m.check_retirement_invariants().is_ok());

        // A collective bound to a raw lower-half request is a leak.
        let c = m.create(VReqKind::Coll { op_id: 3 }, Binding::Real(9));
        let err = m.check_retirement_invariants().unwrap_err();
        assert!(err.contains("collective request"), "{err}");
        m.retire(c);
        assert!(m.check_retirement_invariants().is_ok());
    }

    #[test]
    fn coll_kind_roundtrip() {
        let e = VReqEntry {
            kind: VReqKind::Coll { op_id: 42 },
            binding: Binding::Unbound,
        };
        let bytes = e.to_bytes();
        assert_eq!(VReqEntry::from_bytes(&bytes).unwrap(), e);
    }

    #[test]
    fn any_source_any_tag_roundtrip() {
        let e = VReqEntry {
            kind: VReqKind::RecvP2p {
                vcomm: VComm(3),
                src_world: None,
                tag: TagSel::Below(99),
            },
            binding: Binding::Unbound,
        };
        assert_eq!(VReqEntry::from_bytes(&e.to_bytes()).unwrap(), e);
    }
}
