//! Communicators and the context-id registry.
//!
//! A [`Comm`] handle is just a context id; the registry maps it to the
//! underlying [`Group`]. Communicator creation uses a rendezvous keyed by
//! (group fingerprint, creation tag): the k-th creation call for the same
//! (group, tag) on every member joins the k-th rendezvous entry and gets
//! the same fresh context id — modeling an MPI library's internal
//! context-id agreement without user-visible communication. This is the
//! primitive MANA-2.0's active-communicator restart (§III-C) uses to
//! rebuild a semantically identical communicator from the group alone.

use crate::error::{MpiError, Result};
use crate::group::Group;
use crate::unpoisoned;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// A communicator handle: cheap to copy, resolved against the registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Comm {
    pub(crate) ctx: u64,
}

impl Comm {
    /// `MPI_COMM_WORLD`.
    pub const WORLD: Comm = Comm { ctx: 0 };

    /// The raw context id. MANA-2.0 treats this as the *real* communicator
    /// object it virtualizes (paper §II-C).
    pub fn ctx(&self) -> u64 {
        self.ctx
    }

    /// Rebuild a handle from a raw context id (restart path; the id must
    /// name a live communicator when used).
    pub fn from_ctx(ctx: u64) -> Comm {
        Comm { ctx }
    }
}

#[derive(Debug)]
struct PendingCreate {
    ctx: u64,
    joined: Vec<usize>, // world ranks that have joined, small groups → Vec
    size: usize,
}

/// Registry of live communicators for one world.
#[derive(Debug)]
pub struct CommRegistry {
    /// ctx → (group, remaining free count). The free count starts at group
    /// size; `comm_free` decrements and the entry is dropped at zero.
    map: Mutex<HashMap<u64, (Group, usize)>>,
    next_ctx: AtomicU64,
    pending: Mutex<HashMap<(u64, u64), VecDeque<PendingCreate>>>,
}

impl CommRegistry {
    /// Registry pre-populated with `MPI_COMM_WORLD` (ctx 0) over `n` ranks.
    pub fn new(n: usize) -> Self {
        let mut map = HashMap::new();
        map.insert(0u64, (Group::world(n), usize::MAX)); // world is never freed
        CommRegistry {
            map: Mutex::new(map),
            next_ctx: AtomicU64::new(1),
            pending: Mutex::new(HashMap::new()),
        }
    }

    /// Resolve a handle to its group.
    pub fn group_of(&self, comm: Comm) -> Result<Group> {
        unpoisoned(self.map.lock())
            .get(&comm.ctx)
            .map(|(g, _)| g.clone())
            .ok_or(MpiError::InvalidComm(comm.ctx))
    }

    /// Is the context live?
    pub fn is_live(&self, ctx: u64) -> bool {
        unpoisoned(self.map.lock()).contains_key(&ctx)
    }

    /// Number of live communicators (including the world).
    pub fn live_count(&self) -> usize {
        unpoisoned(self.map.lock()).len()
    }

    /// Create (or join the creation of) a communicator over `group`.
    ///
    /// All members must call with an identical group and `tag`; the k-th
    /// such call on each member returns the same fresh context. Members may
    /// proceed immediately after joining — stragglers join later and get
    /// the same context (matching `MPI_Comm_create_group` semantics, where
    /// only group members participate).
    pub fn create_from_group(&self, group: &Group, tag: u64, my_world_rank: usize) -> Result<Comm> {
        if group.is_empty() {
            return Err(MpiError::InvalidComm(u64::MAX));
        }
        if !group.contains(my_world_rank) {
            return Err(MpiError::InvalidRank {
                rank: my_world_rank,
                size: group.size(),
            });
        }
        let key = (group.fingerprint(), tag);
        let mut pending = unpoisoned(self.pending.lock());
        let queue = pending.entry(key).or_default();
        // Join the first entry we have not joined yet (k-th call → k-th entry).
        let mut chosen: Option<usize> = None;
        for (i, pc) in queue.iter().enumerate() {
            if !pc.joined.contains(&my_world_rank) {
                chosen = Some(i);
                break;
            }
        }
        let idx = match chosen {
            Some(i) => i,
            None => {
                let ctx = self.next_ctx.fetch_add(1, Ordering::Relaxed);
                // Register eagerly so early joiners can use the comm at once.
                unpoisoned(self.map.lock()).insert(ctx, (group.clone(), group.size()));
                queue.push_back(PendingCreate {
                    ctx,
                    joined: Vec::with_capacity(group.size()),
                    size: group.size(),
                });
                queue.len() - 1
            }
        };
        queue[idx].joined.push(my_world_rank);
        let ctx = queue[idx].ctx;
        if queue[idx].joined.len() == queue[idx].size {
            queue.remove(idx);
            if queue.is_empty() {
                pending.remove(&key);
            }
        }
        Ok(Comm { ctx })
    }

    /// Release one member's reference (`MPI_Comm_free`). The communicator
    /// disappears once every member has freed it.
    pub fn free(&self, comm: Comm) -> Result<()> {
        if comm.ctx == 0 {
            return Ok(()); // freeing the world is a no-op
        }
        let mut map = unpoisoned(self.map.lock());
        match map.get_mut(&comm.ctx) {
            None => Err(MpiError::InvalidComm(comm.ctx)),
            Some((_, cnt)) => {
                *cnt -= 1;
                if *cnt == 0 {
                    map.remove(&comm.ctx);
                }
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn world_is_preregistered() {
        let reg = CommRegistry::new(4);
        let g = reg.group_of(Comm::WORLD).unwrap();
        assert_eq!(g.size(), 4);
        assert!(reg.is_live(0));
    }

    #[test]
    fn members_agree_on_context() {
        let reg = CommRegistry::new(4);
        let g = Group::new(vec![1, 3]).unwrap();
        let c1 = reg.create_from_group(&g, 7, 1).unwrap();
        let c3 = reg.create_from_group(&g, 7, 3).unwrap();
        assert_eq!(c1, c3);
        assert_eq!(reg.group_of(c1).unwrap(), g);
    }

    #[test]
    fn kth_call_gets_kth_context() {
        let reg = CommRegistry::new(4);
        let g = Group::new(vec![0, 1]).unwrap();
        // Rank 0 races ahead and creates twice before rank 1 arrives.
        let a0 = reg.create_from_group(&g, 0, 0).unwrap();
        let b0 = reg.create_from_group(&g, 0, 0).unwrap();
        assert_ne!(a0, b0);
        let a1 = reg.create_from_group(&g, 0, 1).unwrap();
        let b1 = reg.create_from_group(&g, 0, 1).unwrap();
        assert_eq!(a0, a1);
        assert_eq!(b0, b1);
    }

    #[test]
    fn different_tags_are_independent() {
        let reg = CommRegistry::new(2);
        let g = Group::new(vec![0, 1]).unwrap();
        let a = reg.create_from_group(&g, 1, 0).unwrap();
        let b = reg.create_from_group(&g, 2, 0).unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn nonmember_rejected() {
        let reg = CommRegistry::new(4);
        let g = Group::new(vec![0, 1]).unwrap();
        assert!(reg.create_from_group(&g, 0, 3).is_err());
    }

    #[test]
    fn empty_group_rejected() {
        let reg = CommRegistry::new(2);
        let g = Group::new(vec![]).unwrap();
        assert!(reg.create_from_group(&g, 0, 0).is_err());
    }

    #[test]
    fn free_removes_after_all_members() {
        let reg = CommRegistry::new(2);
        let g = Group::new(vec![0, 1]).unwrap();
        let c = reg.create_from_group(&g, 0, 0).unwrap();
        let _ = reg.create_from_group(&g, 0, 1).unwrap();
        assert!(reg.is_live(c.ctx()));
        reg.free(c).unwrap();
        assert!(reg.is_live(c.ctx()), "still referenced by rank 1");
        reg.free(c).unwrap();
        assert!(!reg.is_live(c.ctx()));
        assert!(matches!(reg.free(c), Err(MpiError::InvalidComm(_))));
    }

    #[test]
    fn world_free_is_noop() {
        let reg = CommRegistry::new(2);
        reg.free(Comm::WORLD).unwrap();
        assert!(reg.is_live(0));
    }

    #[test]
    fn live_count_tracks() {
        let reg = CommRegistry::new(3);
        assert_eq!(reg.live_count(), 1);
        let g = Group::new(vec![0, 2]).unwrap();
        reg.create_from_group(&g, 0, 0).unwrap();
        assert_eq!(reg.live_count(), 2);
    }
}
