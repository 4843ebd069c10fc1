//! Per-rank process handle: the point-to-point API of the simulated MPI
//! library ("the lower half", in MANA's split-process vocabulary).
//!
//! Matching model: sends are eager (the envelope is deposited and the send
//! request completes immediately, like a buffered `MPI_Send` under the
//! eager protocol); receives are matched by a progress sweep that runs
//! inside `test`/`wait`/`recv`/`iprobe` calls — MPI's "progress happens on
//! calls into the library" behaviour. Posted receives match in post order,
//! envelopes in arrival order, which together give MPI's non-overtaking
//! guarantee.

use crate::comm::Comm;
use crate::costmodel::{spin_ns, MachineProfile};
use crate::envelope::{Envelope, MatchSpec, MsgClass, SrcSel, TagSel, MAX_USER_TAG};
use crate::error::{MpiError, Result};
use crate::group::Group;
use crate::request::{Completion, RReq, ReqSlab, ReqState, Status};
use crate::tools::BlockKind;
use crate::world::Fabric;
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Ceiling on a single park when a watchdog is armed: the deadline is
/// checked by the parked rank itself, so every blocked call must wake at
/// least this often to notice it.
const WATCHDOG_SLICE: Duration = Duration::from_millis(10);

/// Ceiling on a single park otherwise. All state-changing wakeups are
/// event-driven (deposits and poison unpark the rank through the engine's
/// parker), so this is purely a safety net against a lost wakeup bug.
const SAFETY_SLICE: Duration = Duration::from_millis(100);

/// Handle owned by one rank's thread. Not `Sync`: each rank drives its own
/// requests (matching `MPI_THREAD_FUNNELED`, the model MANA-2.0 targets —
/// the paper explicitly leaves `MPI_THREAD_MULTIPLE` out of scope).
pub struct Proc {
    rank: usize,
    fabric: Arc<Fabric>,
    slab: RefCell<ReqSlab>,
    pub(crate) coll_seq: RefCell<HashMap<u64, u64>>,
    send_seq: RefCell<HashMap<usize, u64>>,
    seen_arrivals: std::cell::Cell<u64>,
}

impl Proc {
    pub(crate) fn new(rank: usize, fabric: Arc<Fabric>) -> Proc {
        Proc {
            rank,
            fabric,
            slab: RefCell::new(ReqSlab::default()),
            coll_seq: RefCell::new(HashMap::new()),
            send_seq: RefCell::new(HashMap::new()),
            seen_arrivals: std::cell::Cell::new(0),
        }
    }

    /// World rank of this process.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the world.
    pub fn world_size(&self) -> usize {
        self.fabric.n
    }

    /// `MPI_COMM_WORLD`.
    pub fn comm_world(&self) -> Comm {
        Comm::WORLD
    }

    /// The machine cost profile of this world.
    pub fn profile(&self) -> &MachineProfile {
        &self.fabric.cfg.profile
    }

    /// The world seed (plumbed to workloads for determinism).
    pub fn seed(&self) -> u64 {
        self.fabric.cfg.seed
    }

    // ---- communicator management -------------------------------------

    /// Group underlying `comm`.
    pub fn group_of(&self, comm: Comm) -> Result<Group> {
        self.fabric.comms.group_of(comm)
    }

    /// `MPI_Comm_rank`.
    pub fn comm_rank(&self, comm: Comm) -> Result<usize> {
        let g = self.group_of(comm)?;
        g.local_rank(self.rank).ok_or(MpiError::InvalidRank {
            rank: self.rank,
            size: g.size(),
        })
    }

    /// `MPI_Comm_size`.
    pub fn comm_size(&self, comm: Comm) -> Result<usize> {
        Ok(self.group_of(comm)?.size())
    }

    /// `MPI_Comm_create_group`: build a communicator over `group`. Only
    /// group members call; `tag` disambiguates concurrent creations over
    /// the same group. This is the primitive MANA-2.0's restart uses to
    /// rebuild active communicators from their saved groups (§III-C).
    pub fn comm_create_from_group(&self, group: &Group, tag: u64) -> Result<Comm> {
        self.fabric.comms.create_from_group(group, tag, self.rank)
    }

    /// `MPI_Comm_dup`.
    pub fn comm_dup(&self, comm: Comm) -> Result<Comm> {
        let group = self.group_of(comm)?;
        let seq = self.next_coll_seq(comm.ctx());
        let tag = crate::group::fnv1a_usizes(&[0xD0B1_usize, comm.ctx() as usize, seq as usize]);
        self.comm_create_from_group(&group, tag)
    }

    /// `MPI_Comm_free`.
    pub fn comm_free(&self, comm: Comm) -> Result<()> {
        self.fabric.comms.free(comm)
    }

    pub(crate) fn next_coll_seq(&self, ctx: u64) -> u64 {
        let mut m = self.coll_seq.borrow_mut();
        let c = m.entry(ctx).or_insert(0);
        let v = *c;
        *c += 1;
        v
    }

    // ---- point-to-point ------------------------------------------------

    fn resolve_member(&self, comm: Comm) -> Result<(Group, usize)> {
        let g = self.group_of(comm)?;
        let me = g.local_rank(self.rank).ok_or(MpiError::InvalidRank {
            rank: self.rank,
            size: g.size(),
        })?;
        Ok((g, me))
    }

    fn check_user_tag(tag: i32) -> Result<()> {
        if !(0..MAX_USER_TAG).contains(&tag) {
            return Err(MpiError::TagOutOfRange(tag));
        }
        Ok(())
    }

    /// `MPI_Isend` (eager: completes immediately).
    pub fn isend(&self, comm: Comm, dst: usize, tag: i32, data: &[u8]) -> Result<RReq> {
        Self::check_user_tag(tag)?;
        self.isend_class(comm, dst, tag, data, MsgClass::User)
    }

    /// `MPI_Send`.
    pub fn send(&self, comm: Comm, dst: usize, tag: i32, data: &[u8]) -> Result<()> {
        let r = self.isend(comm, dst, tag, data)?;
        self.wait(r).map(|_| ())
    }

    pub(crate) fn isend_class(
        &self,
        comm: Comm,
        dst: usize,
        tag: i32,
        data: &[u8],
        class: MsgClass,
    ) -> Result<RReq> {
        let (group, _me) = self.resolve_member(comm)?;
        let dst_world = group.world_rank(dst)?;
        let seq = {
            let mut m = self.send_seq.borrow_mut();
            let c = m.entry(dst_world).or_insert(0);
            let v = *c;
            *c += 1;
            v
        };
        match class {
            MsgClass::User => self
                .fabric
                .stats
                .record_user_send(self.rank, dst_world, data.len()),
            MsgClass::Internal => self.fabric.stats.record_internal_send(data.len()),
        }
        self.fabric.tools.bump(self.rank);
        self.fabric.net.deposit(Envelope {
            src: self.rank,
            dst: dst_world,
            ctx: comm.ctx(),
            tag,
            seq,
            arrival: 0,
            class,
            payload: data.to_vec().into_boxed_slice(),
        });
        Ok(self.slab.borrow_mut().alloc(ReqState::SendDone {
            dst_local: dst,
            tag,
            len: data.len(),
        }))
    }

    /// `MPI_Irecv` with no size limit (payload arrives as a `Vec`).
    pub fn irecv(&self, comm: Comm, src: SrcSel, tag: TagSel) -> Result<RReq> {
        self.irecv_cap(comm, src, tag, None)
    }

    /// `MPI_Irecv` with an explicit buffer capacity; a larger message
    /// completes the request with [`MpiError::Truncated`].
    pub fn irecv_cap(
        &self,
        comm: Comm,
        src: SrcSel,
        tag: TagSel,
        cap: Option<usize>,
    ) -> Result<RReq> {
        if let TagSel::Tag(t) = tag {
            Self::check_user_tag(t)?;
        }
        let (group, _me) = self.resolve_member(comm)?;
        let src_world = match src {
            SrcSel::Rank(r) => Some(group.world_rank(r)?),
            SrcSel::Any => None,
        };
        let spec = MatchSpec {
            ctx: comm.ctx(),
            src_world,
            tag,
        };
        Ok(self
            .slab
            .borrow_mut()
            .alloc(ReqState::RecvPending { spec, comm, cap }))
    }

    pub(crate) fn irecv_internal(&self, ctx: u64, src_world: usize, tag: i32) -> RReq {
        let spec = MatchSpec {
            ctx,
            src_world: Some(src_world),
            tag: TagSel::Tag(tag),
        };
        self.slab.borrow_mut().alloc(ReqState::RecvPending {
            spec,
            comm: Comm::from_ctx(ctx),
            cap: None,
        })
    }

    /// `MPI_Recv`.
    pub fn recv(&self, comm: Comm, src: SrcSel, tag: TagSel) -> Result<(Status, Vec<u8>)> {
        let r = self.irecv(comm, src, tag)?;
        let c = self.wait(r)?;
        Ok((c.status, c.data))
    }

    /// Sweep the mailbox, matching envelopes to posted receives in post
    /// order. Called with the mailbox lock held.
    fn progress_locked(&self, mb: &mut crate::network::Mailbox) {
        let mut slab = self.slab.borrow_mut();
        let mut i = 0;
        while i < slab.pending_order.len() {
            let req = slab.pending_order[i];
            let (spec, comm, cap) = match slab.peek(req) {
                Ok(ReqState::RecvPending { spec, comm, cap }) => (*spec, *comm, *cap),
                _ => {
                    slab.pending_order.remove(i);
                    continue;
                }
            };
            let pos = mb.queue.iter().position(|e| spec.matches(e));
            match pos {
                None => i += 1,
                Some(p) => {
                    let env = mb.queue.remove(p);
                    self.fabric.net.note_matched(&env);
                    self.fabric
                        .stats
                        .matches
                        .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    self.fabric.tools.bump(self.rank);
                    spin_ns(self.fabric.cfg.profile.transfer_ns(env.payload.len()));
                    let state = match self.fabric.comms.group_of(comm) {
                        Err(e) => ReqState::Failed(e),
                        Ok(group) => {
                            let source = group.local_rank(env.src).unwrap_or(usize::MAX);
                            let len = env.payload.len();
                            if cap.is_some_and(|c| len > c) {
                                ReqState::Failed(MpiError::Truncated {
                                    message_len: len,
                                    buffer_len: cap.unwrap(),
                                })
                            } else {
                                ReqState::RecvDone(Completion {
                                    status: Status {
                                        source,
                                        tag: env.tag,
                                        len,
                                    },
                                    data: env.payload.into_vec(),
                                })
                            }
                        }
                    };
                    *slab.peek_mut(req).expect("live request") = state;
                    slab.pending_order.remove(i);
                }
            }
        }
    }

    /// Longest a blocking call may park between liveness checks. Under a
    /// fault plan the network caps parks tighter still (limbo deadlines
    /// are wall-clock and pumped on mailbox locks).
    fn liveness_slice(&self) -> Duration {
        if self.fabric.deadline.is_some() {
            WATCHDOG_SLICE
        } else {
            SAFETY_SLICE
        }
    }

    fn check_alive(&self) -> Result<()> {
        if self.fabric.net.is_poisoned() {
            return Err(MpiError::Poisoned);
        }
        if let Some(dl) = self.fabric.deadline {
            if Instant::now() > dl {
                self.fabric.net.poison();
                return Err(MpiError::Timeout);
            }
        }
        Ok(())
    }

    fn consume(&self, req: RReq) -> Result<Completion> {
        match self.slab.borrow_mut().take(req)? {
            ReqState::SendDone {
                dst_local,
                tag,
                len,
            } => Ok(Completion {
                status: Status {
                    source: dst_local,
                    tag,
                    len,
                },
                data: Vec::new(),
            }),
            ReqState::RecvDone(c) => Ok(c),
            ReqState::Failed(e) => Err(e),
            ReqState::RecvPending { .. } => unreachable!("consume of pending request"),
        }
    }

    /// `MPI_Test`: non-blocking completion check; on success the request is
    /// freed and its completion returned.
    pub fn test(&self, req: RReq) -> Result<Option<Completion>> {
        let still_pending = {
            let mut mb = self.fabric.net.lock_box(self.rank);
            self.progress_locked(&mut mb);
            matches!(self.slab.borrow().peek(req)?, ReqState::RecvPending { .. })
        };
        if still_pending {
            self.check_alive()?;
            Ok(None)
        } else {
            self.consume(req).map(Some)
        }
    }

    /// `MPI_Request_get_status`: non-destructive completion check — the
    /// request stays live even when complete. This is the alternative
    /// retirement probe discussed in paper §III-A.
    pub fn peek_status(&self, req: RReq) -> Result<Option<Status>> {
        let mut mb = self.fabric.net.lock_box(self.rank);
        self.progress_locked(&mut mb);
        drop(mb);
        match self.slab.borrow().peek(req)? {
            ReqState::RecvPending { .. } => Ok(None),
            ReqState::SendDone {
                dst_local,
                tag,
                len,
            } => Ok(Some(Status {
                source: *dst_local,
                tag: *tag,
                len: *len,
            })),
            ReqState::RecvDone(c) => Ok(Some(c.status.clone())),
            ReqState::Failed(e) => Err(e.clone()),
        }
    }

    /// `MPI_Wait`.
    pub fn wait(&self, req: RReq) -> Result<Completion> {
        loop {
            let mut mb = self.fabric.net.lock_box(self.rank);
            self.progress_locked(&mut mb);
            let block_info = match self.slab.borrow().peek(req)? {
                ReqState::RecvPending { spec, .. } => Some(BlockKind::RecvWait {
                    src: spec.src_world,
                    tag: match spec.tag {
                        TagSel::Tag(t) => Some(t),
                        _ => None,
                    },
                    ctx: spec.ctx,
                }),
                _ => None,
            };
            let kind = match block_info {
                None => {
                    drop(mb);
                    return self.consume(req);
                }
                Some(k) => k,
            };
            // No liveness check here: `mb` is held, and a watchdog expiry
            // seen by `check_alive` poisons the fabric, which locks every
            // mailbox — this rank's included. `wait_on` returns at once on
            // a poisoned fabric, and the check below runs unlocked.
            self.fabric.tools.set_blocked(self.rank, kind);
            let mb = self
                .fabric
                .net
                .wait_on(self.rank, mb, self.liveness_slice());
            self.fabric.tools.clear_blocked(self.rank);
            drop(mb);
            self.check_alive()?;
        }
    }

    /// `MPI_Waitall`.
    pub fn waitall(&self, reqs: &[RReq]) -> Result<Vec<Completion>> {
        reqs.iter().map(|&r| self.wait(r)).collect()
    }

    /// `MPI_Cancel` + `MPI_Request_free` for a pending receive.
    pub fn cancel(&self, req: RReq) -> Result<()> {
        let mut slab = self.slab.borrow_mut();
        match slab.peek(req)? {
            ReqState::RecvPending { .. } => {
                slab.take(req)?;
                Ok(())
            }
            _ => Err(MpiError::InvalidRequest(req.raw())),
        }
    }

    /// `MPI_Iprobe`: is there a matching message in the network? Posted
    /// receives are settled first, so a message already claimed by an
    /// `irecv` is *not* visible — the exact behaviour MANA-2.0's drain has
    /// to compensate for with `MPI_Test` on pending receives (§III-B).
    pub fn iprobe(&self, comm: Comm, src: SrcSel, tag: TagSel) -> Result<Option<Status>> {
        self.fabric
            .stats
            .probes
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let (group, _me) = self.resolve_member(comm)?;
        let src_world = match src {
            SrcSel::Rank(r) => Some(group.world_rank(r)?),
            SrcSel::Any => None,
        };
        let spec = MatchSpec {
            ctx: comm.ctx(),
            src_world,
            tag,
        };
        let mut mb = self.fabric.net.lock_box(self.rank);
        self.progress_locked(&mut mb);
        let found = mb.queue.iter().find(|e| spec.matches(e)).map(|e| Status {
            source: group.local_rank(e.src).unwrap_or(usize::MAX),
            tag: e.tag,
            len: e.payload.len(),
        });
        Ok(found)
    }

    /// Blocking `MPI_Probe`.
    pub fn probe(&self, comm: Comm, src: SrcSel, tag: TagSel) -> Result<Status> {
        loop {
            if let Some(s) = self.iprobe(comm, src, tag)? {
                return Ok(s);
            }
            self.park(self.liveness_slice())?;
        }
    }

    /// `MPI_Sendrecv`.
    pub fn sendrecv(
        &self,
        comm: Comm,
        dst: usize,
        send_tag: i32,
        data: &[u8],
        src: SrcSel,
        recv_tag: TagSel,
    ) -> Result<(Status, Vec<u8>)> {
        let s = self.isend(comm, dst, send_tag, data)?;
        let out = self.recv(comm, src, recv_tag)?;
        self.wait(s)?;
        Ok(out)
    }

    // ---- scheduling helpers --------------------------------------------

    /// Park until new mail arrives or `timeout` elapses (capped at the
    /// liveness slice); returns immediately on mail that arrived since the
    /// last park. Spurious early returns are allowed — callers re-check
    /// their predicate in a loop. Used by MANA's test loops.
    pub fn park(&self, timeout: Duration) -> Result<()> {
        self.check_alive()?;
        let mb = self.fabric.net.lock_box(self.rank);
        // Return immediately only on *new* mail since the last park — a
        // stale unmatched envelope must not turn the caller's poll loop
        // into a busy spin.
        if mb.arrivals != self.seen_arrivals.get() {
            self.seen_arrivals.set(mb.arrivals);
            return Ok(());
        }
        self.fabric.tools.set_blocked(self.rank, BlockKind::Park);
        let mb = self
            .fabric
            .net
            .wait_on(self.rank, mb, timeout.min(self.liveness_slice()));
        self.fabric.tools.clear_blocked(self.rank);
        self.seen_arrivals.set(mb.arrivals);
        drop(mb);
        self.check_alive()
    }

    /// Simulate `units` of application compute under the machine profile.
    pub fn compute(&self, units: u64) {
        spin_ns(self.fabric.cfg.profile.compute_ns(units));
    }

    /// This rank's engine parker. Components that block a rank outside the
    /// fabric (MANA's coordinator channel) park on this instead of
    /// sleeping, so the engine sees the block site and can hand the run
    /// token to another rank meanwhile.
    pub fn parker(&self) -> crate::engine::Parker {
        self.fabric.net.parker(self.rank)
    }

    /// Is the world poisoned (peer panic or watchdog)?
    pub fn is_poisoned(&self) -> bool {
        self.fabric.net.is_poisoned()
    }

    /// Abort the world (`MPI_Abort` analog): poison the fabric so every
    /// blocked peer unblocks with [`MpiError::Poisoned`] instead of
    /// waiting forever for a rank that has errored out.
    pub fn abort_world(&self) {
        self.fabric.net.poison();
    }

    // ---- introspection ---------------------------------------------------

    pub(crate) fn stats_handle(&self) -> &crate::stats::WorldStats {
        &self.fabric.stats
    }

    pub(crate) fn win_registry(&self) -> &crate::onesided::WinRegistry {
        &self.fabric.wins
    }

    /// (messages, bytes) currently in the network, world-wide.
    pub fn in_flight(&self) -> (usize, usize) {
        self.fabric.net.in_flight()
    }

    /// User-class messages still owed to this rank (mailbox queue plus any
    /// fault-injection limbo). MANA's per-rank checkpoint invariant asserts
    /// this is zero after a drain.
    pub fn queued_user_msgs(&self) -> usize {
        self.fabric
            .net
            .queued_for(self.rank, Some(crate::envelope::MsgClass::User))
    }

    /// Live request count in this rank's slab (leak checks).
    pub fn live_requests(&self) -> usize {
        self.slab.borrow().live()
    }

    /// Number of pending (unmatched) posted receives on this rank.
    pub fn pending_recvs(&self) -> usize {
        self.slab.borrow().pending_order.len()
    }
}

impl Proc {
    /// `MPI_Waitany`: block until one of `reqs` completes; returns its
    /// index and completion. Completed requests are removed from MANA-style
    /// wrappers by the caller; here the chosen request is consumed.
    pub fn waitany(&self, reqs: &[RReq]) -> Result<(usize, Completion)> {
        if reqs.is_empty() {
            return Err(MpiError::InvalidRequest(0));
        }
        loop {
            for (i, &r) in reqs.iter().enumerate() {
                if let Some(c) = self.test(r)? {
                    return Ok((i, c));
                }
            }
            self.park(self.liveness_slice())?;
        }
    }

    /// `MPI_Testall`: complete-and-consume all requests iff every one is
    /// ready; otherwise consume none and return `None`.
    pub fn testall(&self, reqs: &[RReq]) -> Result<Option<Vec<Completion>>> {
        // First a non-destructive readiness sweep.
        for &r in reqs {
            if self.peek_status(r)?.is_none() {
                return Ok(None);
            }
        }
        let mut out = Vec::with_capacity(reqs.len());
        for &r in reqs {
            out.push(self.test(r)?.expect("peeked complete"));
        }
        Ok(Some(out))
    }

    /// `MPI_Sendrecv_replace`: exchange with neighbours reusing one buffer.
    pub fn sendrecv_replace(
        &self,
        comm: Comm,
        dst: usize,
        send_tag: i32,
        data: &mut Vec<u8>,
        src: SrcSel,
        recv_tag: TagSel,
    ) -> Result<Status> {
        let (st, incoming) = self.sendrecv(comm, dst, send_tag, data, src, recv_tag)?;
        *data = incoming;
        Ok(st)
    }
}
