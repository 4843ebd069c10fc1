//! Communicator virtualization and the active-communicator list
//! (paper §II-C, §III-C, §III-K).
//!
//! Every communicator the application sees is a [`crate::ids::VComm`];
//! the manager maps it to the real lower-half communicator, remembers its
//! *group membership in world ranks* (which is all restart needs, per
//! §III-C), its globally-unique ID (§III-K), and — for the ablation
//! baseline — a full constructor replay log (the original MANA's restart
//! strategy).

use crate::ids::{VComm, VCOMM_WORLD};
use crate::vtable::{VirtualTable, VtBackend};
use mpisim::{fnv1a_usizes, Comm};
use std::collections::HashMap;

/// Globally-unique communicator ID (§III-K): a hash of the group's image
/// under `MPI_Group_translate_ranks` to the world group, computed from
/// purely local information. Two communicators over the same group share a
/// gid — the coordinator only needs gids to recognize "these ranks are in
/// the same collective", and same-group communicators are
/// indistinguishable for that purpose.
pub fn global_comm_id(world_ranks: &[usize]) -> u64 {
    let mut v = Vec::with_capacity(world_ranks.len() + 1);
    v.push(world_ranks.len() ^ 0x6D61_6E61); // "mana" salt + size
    v.extend_from_slice(world_ranks);
    fnv1a_usizes(&v)
}

/// Everything MANA remembers about one virtual communicator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommRecord {
    /// The virtual ID.
    pub vid: u64,
    /// Group membership as world ranks, in rank order — sufficient to
    /// recreate a semantically identical communicator (§III-C).
    pub world_ranks: Vec<usize>,
    /// Globally-unique ID (§III-K).
    pub gid: u64,
    /// Set by `comm_free`; freed communicators stay in the record map (the
    /// replay log needs them) but leave the active list.
    pub freed: bool,
}

impl CommRecord {
    /// Communicator-local rank → world rank (`None`: out of range).
    pub fn world_of(&self, local: usize) -> Option<usize> {
        self.world_ranks.get(local).copied()
    }

    /// World rank → communicator-local rank (`None`: not a member).
    pub fn local_of(&self, world: usize) -> Option<usize> {
        self.world_ranks.iter().position(|&w| w == world)
    }
}

splitproc::wire!(CommRecord {
    vid,
    world_ranks,
    gid,
    freed
});

/// One entry of the legacy constructor replay log (`CommRestore::ReplayLog`
/// baseline): enough to re-execute the construction at restart.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommCall {
    /// A constructor produced `vid` over `world_ranks`.
    Create {
        /// Virtual ID the constructor returned.
        vid: u64,
        /// Members at creation time.
        world_ranks: Vec<usize>,
    },
    /// `comm_free(vid)` was called. The legacy replay ignores frees — that
    /// is exactly its pathology (§III-C: "communicators could not be
    /// retired").
    Free {
        /// Virtual ID freed.
        vid: u64,
    },
}

splitproc::wire!(CommCall {
    1 => Create { vid, world_ranks },
    2 => Free { vid },
});

/// Serializable communicator state (goes into the checkpoint image).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CommMeta {
    /// All records, active and freed, in vid order.
    pub records: Vec<CommRecord>,
    /// Constructor replay log (only consulted in `ReplayLog` restart mode).
    pub replay_log: Vec<CommCall>,
    /// Per-vcomm emulated-collective sequence counters (tags must continue
    /// from where they left off so in-flight emu traffic pairs correctly).
    pub emu_seqs: Vec<(u64, u64)>,
}

splitproc::wire!(CommMeta {
    records,
    replay_log,
    emu_seqs
});

/// Per-rank communicator manager.
pub struct CommManager {
    table: VirtualTable<Comm>,
    records: HashMap<u64, CommRecord>,
    replay_log: Vec<CommCall>,
    emu_seq: HashMap<u64, u64>,
}

impl CommManager {
    /// Fresh manager with `MPI_COMM_WORLD` pre-bound as [`VCOMM_WORLD`].
    pub fn new(backend: VtBackend, world_size: usize) -> Self {
        let mut m = CommManager {
            table: VirtualTable::new(backend, 2),
            records: HashMap::new(),
            replay_log: Vec::new(),
            emu_seq: HashMap::new(),
        };
        let world_ranks: Vec<usize> = (0..world_size).collect();
        m.table.bind(VCOMM_WORLD.0, Comm::WORLD);
        m.records.insert(
            VCOMM_WORLD.0,
            CommRecord {
                vid: VCOMM_WORLD.0,
                gid: global_comm_id(&world_ranks),
                world_ranks,
                freed: false,
            },
        );
        m
    }

    /// Register a freshly-constructed real communicator; returns its new
    /// virtual handle and logs the construction.
    pub fn register(&mut self, world_ranks: Vec<usize>, real: Comm) -> VComm {
        let gid = global_comm_id(&world_ranks);
        let vid = self.table.insert(real);
        self.replay_log.push(CommCall::Create {
            vid,
            world_ranks: world_ranks.clone(),
        });
        self.records.insert(
            vid,
            CommRecord {
                vid,
                world_ranks,
                gid,
                freed: false,
            },
        );
        VComm(vid)
    }

    /// Virtual→real translation (the per-call hot path).
    pub fn real(&self, vc: VComm) -> Option<Comm> {
        self.table.lookup(vc.0).copied()
    }

    /// The record for a virtual communicator.
    pub fn record(&self, vc: VComm) -> Option<&CommRecord> {
        self.records.get(&vc.0)
    }

    /// Mark freed: removes the real binding and the active-list membership,
    /// appends to the replay log.
    pub fn free(&mut self, vc: VComm) -> Option<Comm> {
        let real = self.table.remove(vc.0);
        if let Some(rec) = self.records.get_mut(&vc.0) {
            rec.freed = true;
        }
        self.replay_log.push(CommCall::Free { vid: vc.0 });
        real
    }

    /// Active (not freed) records in vid order — what `ActiveList` restart
    /// reconstructs.
    pub fn active_records(&self) -> Vec<&CommRecord> {
        let mut v: Vec<&CommRecord> = self.records.values().filter(|r| !r.freed).collect();
        v.sort_by_key(|r| r.vid);
        v
    }

    /// Number of live virtual→real bindings.
    pub fn live_bindings(&self) -> usize {
        self.table.len()
    }

    /// Checkpoint-window invariant (§III-C): the active-communicator list
    /// and the live virtual→real bindings must agree. Every active record
    /// this rank belongs to needs a real communicator behind it (it is
    /// what restart will recreate, so it must exist now), and every live
    /// binding needs an active record (a binding without a record would be
    /// invisible to restart — a silent leak). `me` is this rank's world
    /// rank.
    pub fn check_active_bound(&self, me: usize) -> std::result::Result<(), String> {
        for rec in self.active_records() {
            if rec.world_ranks.contains(&me) && self.real(VComm(rec.vid)).is_none() {
                return Err(format!(
                    "active communicator {} (gid {:#x}) has no real binding on rank {me}",
                    rec.vid, rec.gid
                ));
            }
        }
        for vid in self.table.sorted_vids() {
            match self.records.get(&vid) {
                None => {
                    return Err(format!(
                        "live communicator binding {vid} has no record (leak on rank {me})"
                    ));
                }
                Some(rec) if rec.freed => {
                    return Err(format!(
                        "freed communicator {vid} still has a live binding on rank {me}"
                    ));
                }
                Some(_) => {}
            }
        }
        Ok(())
    }

    /// Length of the replay log (ablation metric).
    pub fn replay_log_len(&self) -> usize {
        self.replay_log.len()
    }

    /// Table op counters (lookups, inserts, removes).
    pub fn table_ops(&self) -> (u64, u64, u64) {
        self.table.op_counts()
    }

    /// Next emulated-collective sequence number on `vc` (shared tag space:
    /// all members call collectives in the same order, so counters agree).
    pub fn next_emu_seq(&mut self, vc: VComm) -> u64 {
        let c = self.emu_seq.entry(vc.0).or_insert(0);
        let v = *c;
        *c += 1;
        v
    }

    /// Serialize for the checkpoint image.
    pub fn to_meta(&self) -> CommMeta {
        let mut records: Vec<CommRecord> = self.records.values().cloned().collect();
        records.sort_by_key(|r| r.vid);
        let mut emu_seqs: Vec<(u64, u64)> = self.emu_seq.iter().map(|(k, v)| (*k, *v)).collect();
        emu_seqs.sort_unstable();
        CommMeta {
            records,
            replay_log: self.replay_log.clone(),
            emu_seqs,
        }
    }

    /// Rebuild from image metadata with an *empty* real side; restart code
    /// rebinds each record via [`CommManager::rebind`].
    pub fn from_meta(meta: &CommMeta, backend: VtBackend) -> Self {
        let mut m = CommManager {
            table: VirtualTable::new(backend, 2),
            records: meta.records.iter().map(|r| (r.vid, r.clone())).collect(),
            replay_log: meta.replay_log.clone(),
            emu_seq: meta.emu_seqs.iter().copied().collect(),
        };
        // Records outlive `comm_free`, so the highest saved vid is the
        // highest ever issued.
        if let Some(max) = meta.records.iter().map(|r| r.vid).max() {
            m.table.reserve_through(max);
        }
        m
    }

    /// Bind a saved vid to a freshly-created real communicator (restart).
    pub fn rebind(&mut self, vid: u64, real: Comm) {
        self.table.bind(vid, real);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use splitproc::{Decode, Encode};

    fn mgr() -> CommManager {
        CommManager::new(VtBackend::FxHash, 4)
    }

    #[test]
    fn world_is_prebound() {
        let m = mgr();
        assert_eq!(m.real(VCOMM_WORLD), Some(Comm::WORLD));
        let rec = m.record(VCOMM_WORLD).unwrap();
        assert_eq!(rec.world_ranks, vec![0, 1, 2, 3]);
        assert!(!rec.freed);
    }

    #[test]
    fn record_translates_ranks_both_ways() {
        let mut m = mgr();
        let vc = m.register(vec![3, 0, 2], Comm::from_ctx(5));
        let rec = m.record(vc).unwrap();
        assert_eq!(rec.world_of(0), Some(3));
        assert_eq!(rec.world_of(3), None);
        assert_eq!(rec.local_of(2), Some(2));
        assert_eq!(rec.local_of(1), None, "world rank 1 is not a member");
    }

    #[test]
    fn active_bound_invariant_catches_leaks() {
        let mut m = mgr();
        assert!(m.check_active_bound(0).is_ok());
        let vc = m.register(vec![0, 2], Comm::from_ctx(5));
        assert!(m.check_active_bound(0).is_ok());
        // Rank 1 is not a member of {0, 2}; the missing binding there is
        // legal.
        assert!(m.check_active_bound(1).is_ok());
        m.free(vc);
        assert!(m.check_active_bound(0).is_ok());
        // Re-registering then tampering: an active record with no binding
        // is a violation for its members.
        let vc2 = m.register(vec![0, 1], Comm::from_ctx(9));
        m.table.remove(vc2.0);
        let err = m.check_active_bound(0).unwrap_err();
        assert!(err.contains("no real binding"), "{err}");
    }

    #[test]
    fn register_free_lifecycle() {
        let mut m = mgr();
        let vc = m.register(vec![0, 2], Comm::from_ctx(5));
        assert_eq!(m.real(vc), Some(Comm::from_ctx(5)));
        assert_eq!(m.active_records().len(), 2);
        assert_eq!(m.replay_log_len(), 1);

        m.free(vc);
        assert_eq!(m.real(vc), None);
        assert_eq!(m.active_records().len(), 1, "freed comm leaves active list");
        assert_eq!(m.replay_log_len(), 2, "free is logged");
        assert!(m.record(vc).unwrap().freed);
    }

    #[test]
    fn gid_is_local_and_group_determined() {
        // Same group → same gid regardless of which rank computes it; the
        // §III-K property that lets the coordinator match reports.
        let a = global_comm_id(&[0, 3, 5]);
        let b = global_comm_id(&[0, 3, 5]);
        let c = global_comm_id(&[3, 0, 5]);
        let d = global_comm_id(&[0, 3]);
        assert_eq!(a, b);
        assert_ne!(a, c, "order-sensitive (rank order is part of identity)");
        assert_ne!(a, d);
    }

    #[test]
    fn meta_roundtrip() {
        let mut m = mgr();
        let v1 = m.register(vec![0, 1], Comm::from_ctx(7));
        let _v2 = m.register(vec![2, 3], Comm::from_ctx(8));
        m.free(v1);
        m.next_emu_seq(VCOMM_WORLD);
        m.next_emu_seq(VCOMM_WORLD);

        let meta = m.to_meta();
        let bytes = meta.to_bytes();
        let back = CommMeta::from_bytes(&bytes).unwrap();
        assert_eq!(back, meta);

        let restored = CommManager::from_meta(&back, VtBackend::BTree);
        // Real side is empty until rebind.
        assert_eq!(restored.real(VCOMM_WORLD), None);
        assert_eq!(restored.active_records().len(), 2); // world + v2
        assert_eq!(restored.replay_log_len(), 3);
        // Emu sequence continues.
        let mut r2 = restored;
        assert_eq!(r2.next_emu_seq(VCOMM_WORLD), 2);
    }

    #[test]
    fn rebind_restores_translation() {
        let mut m = mgr();
        let vc = m.register(vec![0, 1], Comm::from_ctx(9));
        let meta = m.to_meta();
        let mut r = CommManager::from_meta(&meta, VtBackend::FxHash);
        r.rebind(VCOMM_WORLD.0, Comm::WORLD);
        r.rebind(vc.0, Comm::from_ctx(42));
        assert_eq!(r.real(vc), Some(Comm::from_ctx(42)));
        // Fresh registrations keep allocating past the saved vids.
        let fresh = r.register(vec![0], Comm::from_ctx(50));
        assert!(fresh.0 > vc.0);
    }

    #[test]
    fn active_records_sorted_by_vid() {
        let mut m = mgr();
        let a = m.register(vec![0], Comm::from_ctx(11));
        let b = m.register(vec![1], Comm::from_ctx(12));
        let recs = m.active_records();
        assert_eq!(recs.len(), 3);
        assert!(recs[0].vid < recs[1].vid && recs[1].vid < recs[2].vid);
        assert_eq!(recs[1].vid, a.0);
        assert_eq!(recs[2].vid, b.0);
    }
}
