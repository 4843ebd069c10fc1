//! The `Mana` handle: the "stub MPI library" each rank links against
//! (paper §II-A, Fig. 1).
//!
//! Every public method is a MANA wrapper with the Fig. 1 skeleton:
//! commit-begin (callback style dispatch, checkpoint-disable), virtual→real
//! translation, `JUMP_TO_LOWER_HALF`, the real MPI call, return, re-enable,
//! commit-finish. Blocking point-to-point calls decompose into
//! non-blocking post + test loop (§III challenge 1) so a checkpoint can
//! never land inside a blocking lower-half call.

use crate::callbacks::CommitState;
use crate::collective_emu::{CollOpTable, EmuIo, IRecvSlot, MANA_TAG_BASE};
use crate::comm_mgr::CommManager;
use crate::config::ManaConfig;
use crate::coordinator::CoordHandle;
use crate::error::{ManaError, Result};
use crate::ids::{VComm, VReq, VCOMM_WORLD, VREQ_NULL};
use crate::mana_win::WinManager;
use crate::p2p_log::{src_to_world, DrainBuffer, P2pLog};
use crate::requests::{Binding, RequestManager, StoredCompletion, VReqKind};
use mpisim::{Comm, Completion, Proc, RReq, SrcSel, Status, TagSel};
use splitproc::{LowerHalf, UpperHalf};
use std::time::Duration;

/// Per-rank MANA runtime statistics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ManaStats {
    /// Total wrapper invocations.
    pub wrapper_calls: u64,
    /// Point-to-point sends issued.
    pub sends: u64,
    /// Point-to-point receives completed.
    pub recvs: u64,
    /// Blocking collective wrapper calls.
    pub collectives: u64,
    /// Collectives executed via the p2p emulation path.
    pub emu_collectives: u64,
    /// 2PC barriers executed.
    pub tpc_barriers: u64,
    /// Checkpoints taken by this rank.
    pub ckpts: u64,
    /// Checkpoint rounds that ended in `AbortRound` (some rank's image
    /// write failed; partial generation discarded, execution resumed).
    pub ckpt_aborts: u64,
    /// Messages captured by the drain.
    pub drained_msgs: u64,
    /// Bytes captured by the drain.
    pub drained_bytes: u64,
    /// Drain sweep iterations (process-lifetime total, kept for
    /// compatibility; see `drain_sweeps_by_round` for per-round counts).
    pub drain_sweeps: u64,
    /// Drain sweeps per checkpoint round, as `(round, sweeps)` in round
    /// order — the per-round visibility the lifetime total hides.
    pub drain_sweeps_by_round: Vec<(u64, u64)>,
    /// Communicators reconstructed at restart.
    pub restored_comms: u64,
    /// Constructor calls replayed at restart (ReplayLog mode).
    pub replayed_calls: u64,
    /// Nanoseconds spent on FS-register switches (from the lower half).
    pub fs_switch_ns: u64,
    /// Lower-half jumps.
    pub lh_jumps: u64,
}

impl ManaStats {
    /// The schedule-invariant projection of these stats: counters that are
    /// a pure function of the program and the seeded fault plan, not of
    /// thread interleaving or wall-clock timing. The dual-engine
    /// equivalence suite demands these match across execution engines.
    ///
    /// Excluded as timing-coupled: `wrapper_calls` (poll-style wrappers
    /// such as `test`/`probe` may run a timing-dependent number of times),
    /// the drain counters (`drained_msgs`/`drained_bytes`/`drain_sweeps*`
    /// depend on what happened to be in flight), `fs_switch_ns`, and
    /// `lh_jumps`.
    ///
    /// Note for checkpoint-and-exit runs: *where* the checkpoint lands in
    /// a non-trigger rank's call stream is itself schedule-dependent, so
    /// only the *sum* of this projection across the checkpoint leg and the
    /// restart leg is invariant, not each leg alone.
    pub fn schedule_invariant(&self) -> [(&'static str, u64); 9] {
        [
            ("sends", self.sends),
            ("recvs", self.recvs),
            ("collectives", self.collectives),
            ("emu_collectives", self.emu_collectives),
            ("tpc_barriers", self.tpc_barriers),
            ("ckpts", self.ckpts),
            ("ckpt_aborts", self.ckpt_aborts),
            ("restored_comms", self.restored_comms),
            ("replayed_calls", self.replayed_calls),
        ]
    }

    /// Serialize as a JSON object (hand-rolled — this repo carries no
    /// serde). `drain_sweeps_by_round` becomes an array of
    /// `{"round":r,"sweeps":s}` objects.
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::with_capacity(512);
        let _ = write!(
            s,
            "{{\"wrapper_calls\":{},\"sends\":{},\"recvs\":{},\"collectives\":{},\"emu_collectives\":{},\"tpc_barriers\":{},\"ckpts\":{},\"ckpt_aborts\":{},\"drained_msgs\":{},\"drained_bytes\":{},\"drain_sweeps\":{},\"restored_comms\":{},\"replayed_calls\":{},\"fs_switch_ns\":{},\"lh_jumps\":{},\"drain_sweeps_by_round\":[",
            self.wrapper_calls,
            self.sends,
            self.recvs,
            self.collectives,
            self.emu_collectives,
            self.tpc_barriers,
            self.ckpts,
            self.ckpt_aborts,
            self.drained_msgs,
            self.drained_bytes,
            self.drain_sweeps,
            self.restored_comms,
            self.replayed_calls,
            self.fs_switch_ns,
            self.lh_jumps
        );
        for (i, (round, sweeps)) in self.drain_sweeps_by_round.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "{{\"round\":{round},\"sweeps\":{sweeps}}}");
        }
        s.push_str("]}");
        s
    }
}

/// The per-rank MANA handle. `'p` is the lifetime of the lower-half MPI
/// endpoint (one world launch).
pub struct Mana<'p> {
    pub(crate) lh: LowerHalf<'p>,
    pub(crate) cfg: ManaConfig,
    pub(crate) upper: UpperHalf,
    pub(crate) comms: CommManager,
    pub(crate) wins: WinManager,
    pub(crate) reqs: RequestManager,
    pub(crate) collops: CollOpTable,
    pub(crate) p2p: P2pLog,
    pub(crate) drain_buf: DrainBuffer,
    pub(crate) coord: CoordHandle,
    pub(crate) commit: CommitState,
    pub(crate) in_ckpt: bool,
    pub(crate) exited: bool,
    pub(crate) cur_collective_gid: Option<u64>,
    pub(crate) round: u64,
    pub(crate) stats: ManaStats,
    /// Whether this rank's fault-plan checkpoint trigger already fired
    /// (once per process lifetime; restarts reset it but the round guard
    /// keeps the trigger from re-firing).
    pub(crate) fault_triggered: bool,
    /// This rank's telemetry: its trace ring (from `cfg.trace`) and its
    /// metrics shard (from `cfg.metrics`).
    pub(crate) tel: obs::Telemetry,
}

impl<'p> Mana<'p> {
    /// Fresh start (no checkpoint image).
    pub fn fresh(proc: &'p Proc, cfg: ManaConfig, coord: CoordHandle) -> Self {
        let n = proc.world_size();
        Mana {
            lh: LowerHalf::new(proc, cfg.fs_mode),
            comms: CommManager::new(cfg.vtable, n),
            wins: WinManager::new(cfg.vtable),
            reqs: RequestManager::new(cfg.vtable),
            collops: CollOpTable::new(),
            p2p: P2pLog::new(n),
            drain_buf: DrainBuffer::new(),
            upper: UpperHalf::new(),
            coord,
            commit: CommitState::new(),
            in_ckpt: false,
            exited: false,
            cur_collective_gid: None,
            round: 0,
            stats: ManaStats::default(),
            fault_triggered: false,
            tel: Self::telemetry(proc, &cfg),
            cfg,
        }
    }

    /// The telemetry handle of `proc`'s rank under `cfg`.
    pub(crate) fn telemetry(proc: &Proc, cfg: &ManaConfig) -> obs::Telemetry {
        obs::Telemetry::new(proc.rank() as i32, cfg.trace.clone(), cfg.metrics.clone())
    }

    // ---- identity & state access ---------------------------------------

    /// World rank (identity lives in upper-half memory: no lower-half jump).
    pub fn rank(&self) -> usize {
        self.lh.rank()
    }

    /// World size.
    pub fn world_size(&self) -> usize {
        self.lh.world_size()
    }

    /// The world communicator.
    pub fn comm_world(&self) -> VComm {
        VCOMM_WORLD
    }

    /// Checkpointable application memory.
    pub fn upper(&self) -> &UpperHalf {
        &self.upper
    }

    /// Mutable checkpointable application memory.
    pub fn upper_mut(&mut self) -> &mut UpperHalf {
        &mut self.upper
    }

    /// Number of checkpoint rounds this rank has survived (0 before any
    /// checkpoint; after a restart it continues from the image's round).
    /// Applications use it to gate "first pass only" actions.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Snapshot of runtime statistics (merges lower-half counters).
    pub fn stats(&self) -> ManaStats {
        let mut s = self.stats.clone();
        s.fs_switch_ns = self.lh.total_switch_ns();
        s.lh_jumps = self.lh.jump_count();
        s
    }

    /// Live virtual-request count (§III-A growth metric).
    pub fn live_requests(&self) -> usize {
        self.reqs.live()
    }

    /// Live communicator bindings.
    pub fn live_comms(&self) -> usize {
        self.comms.live_bindings()
    }

    /// The active configuration.
    pub fn config(&self) -> &ManaConfig {
        &self.cfg
    }

    // ---- communicator wrappers ------------------------------------------

    pub(crate) fn real_comm(&self, vc: VComm) -> Result<Comm> {
        self.comms.real(vc).ok_or(ManaError::InvalidVComm(vc.0))
    }

    pub(crate) fn ranks_of(&self, vc: VComm) -> Result<Vec<usize>> {
        self.comms
            .record(vc)
            .map(|r| r.world_ranks.clone())
            .ok_or(ManaError::InvalidVComm(vc.0))
    }

    /// `MPI_Comm_rank` — resolved from MANA's own record, no lower-half
    /// jump needed (a §III-I.3-style "answer locally" optimization).
    pub fn comm_rank(&self, vc: VComm) -> Result<usize> {
        let rec = self.comms.record(vc).ok_or(ManaError::InvalidVComm(vc.0))?;
        rec.world_ranks
            .iter()
            .position(|&w| w == self.rank())
            .ok_or(ManaError::InvalidVComm(vc.0))
    }

    /// `MPI_Comm_size` — likewise local.
    pub fn comm_size(&self, vc: VComm) -> Result<usize> {
        Ok(self
            .comms
            .record(vc)
            .ok_or(ManaError::InvalidVComm(vc.0))?
            .world_ranks
            .len())
    }

    /// The globally-unique communicator ID of §III-K.
    pub fn comm_gid(&self, vc: VComm) -> Result<u64> {
        Ok(self
            .comms
            .record(vc)
            .ok_or(ManaError::InvalidVComm(vc.0))?
            .gid)
    }

    /// `MPI_Comm_dup`.
    pub fn comm_dup(&mut self, vc: VComm) -> Result<VComm> {
        self.stats.wrapper_calls += 1;
        self.maybe_checkpoint(false)?;
        let style = self.cfg.callback_style;
        self.commit.enter(style);
        let real = self.real_comm(vc)?;
        let out = (|| {
            let new_real = self.lh.call(|p| p.comm_dup(real))?;
            let ranks = self.ranks_of(vc)?;
            Ok(self.comms.register(ranks, new_real))
        })();
        self.commit.exit(style);
        out
    }

    /// `MPI_Comm_split`. Color < 0 acts as `MPI_UNDEFINED`.
    pub fn comm_split(&mut self, vc: VComm, color: i32, key: i32) -> Result<Option<VComm>> {
        self.stats.wrapper_calls += 1;
        self.maybe_checkpoint(false)?;
        let style = self.cfg.callback_style;
        self.commit.enter(style);
        let real = self.real_comm(vc)?;
        let out = (|| match self.lh.call(|p| p.comm_split(real, color, key))? {
            None => Ok(None),
            Some(new_real) => {
                let ranks = self
                    .lh
                    .call(|p| p.group_of(new_real))?
                    .translate_all()
                    .to_vec();
                Ok(Some(self.comms.register(ranks, new_real)))
            }
        })();
        self.commit.exit(style);
        out
    }

    /// `MPI_Comm_free`: retires the virtual communicator (active-list
    /// removal, §III-C) and frees the real one.
    pub fn comm_free(&mut self, vc: VComm) -> Result<()> {
        self.stats.wrapper_calls += 1;
        let style = self.cfg.callback_style;
        self.commit.enter(style);
        let out = match self.comms.free(vc) {
            None => Err(ManaError::InvalidVComm(vc.0)),
            Some(real) => self.lh.call(|p| p.comm_free(real)).map_err(ManaError::Mpi),
        };
        self.commit.exit(style);
        out
    }

    // ---- point-to-point wrappers -----------------------------------------

    fn check_user_tag(tag: i32) -> Result<()> {
        if !(0..MANA_TAG_BASE).contains(&tag) {
            return Err(ManaError::ReservedTag(tag));
        }
        Ok(())
    }

    /// Translate an application tag selector for the lower half: wildcard
    /// receives must not capture MANA's reserved band.
    fn lower_tagsel(tag: TagSel) -> TagSel {
        match tag {
            TagSel::Any => TagSel::Below(MANA_TAG_BASE),
            other => other,
        }
    }

    /// `MPI_Isend`.
    pub fn isend(&mut self, vc: VComm, dst: usize, tag: i32, data: &[u8]) -> Result<VReq> {
        self.stats.wrapper_calls += 1;
        self.stats.sends += 1;
        Self::check_user_tag(tag)?;
        self.maybe_checkpoint(false)?;
        let style = self.cfg.callback_style;
        self.commit.enter(style);
        let out = (|| {
            let ranks = self.ranks_of(vc)?;
            let dst_world = *ranks.get(dst).ok_or(ManaError::InvalidVComm(vc.0))?;
            let real = self.real_comm(vc)?;
            self.p2p.count_send(dst_world, data.len());
            let rreq = self.lh.call(|p| p.isend(real, dst, tag, data))?;
            Ok(self.reqs.create(
                VReqKind::SendP2p {
                    dst_world,
                    tag,
                    len: data.len(),
                },
                Binding::Real(rreq.raw()),
            ))
        })();
        self.commit.exit(style);
        out
    }

    /// `MPI_Send`, decomposed into `MPI_Isend` + test loop (§III ch. 1).
    pub fn send(&mut self, vc: VComm, dst: usize, tag: i32, data: &[u8]) -> Result<()> {
        let mut r = self.isend(vc, dst, tag, data)?;
        self.wait(&mut r).map(|_| ())
    }

    /// `MPI_Irecv`. The drain buffer is consulted before the lower half:
    /// a message captured at the last checkpoint must be delivered before
    /// any live-network message from the same source (non-overtaking).
    pub fn irecv(&mut self, vc: VComm, src: SrcSel, tag: TagSel) -> Result<VReq> {
        self.stats.wrapper_calls += 1;
        if let TagSel::Tag(t) = tag {
            Self::check_user_tag(t)?;
        }
        self.maybe_checkpoint(false)?;
        let style = self.cfg.callback_style;
        self.commit.enter(style);
        let out = (|| {
            let ranks = self.ranks_of(vc)?;
            let src_world = src_to_world(&ranks, src).ok_or(ManaError::InvalidVComm(vc.0))?;
            let kind = VReqKind::RecvP2p {
                vcomm: vc,
                src_world,
                tag,
            };
            if let Some(m) = self
                .drain_buf
                .take_match(vc, src_world, Self::lower_tagsel(tag))
            {
                // Born retired (step one already done by the drain).
                return Ok(self.reqs.create(
                    kind,
                    Binding::NullPending(Some(StoredCompletion {
                        src_world: m.src_world,
                        tag: m.tag,
                        payload: m.payload,
                    })),
                ));
            }
            let real = self.real_comm(vc)?;
            let lower_tag = Self::lower_tagsel(tag);
            let rreq = self.lh.call(|p| p.irecv(real, src, lower_tag))?;
            Ok(self.reqs.create(kind, Binding::Real(rreq.raw())))
        })();
        self.commit.exit(style);
        out
    }

    /// `MPI_Recv` = `MPI_Irecv` + test loop.
    pub fn recv(&mut self, vc: VComm, src: SrcSel, tag: TagSel) -> Result<(Status, Vec<u8>)> {
        let mut r = self.irecv(vc, src, tag)?;
        let c = self.wait(&mut r)?;
        Ok((c.status, c.data))
    }

    /// `MPI_Test`. On completion the request is retired and the
    /// application's variable is overwritten with `MPI_REQUEST_NULL`
    /// (§III-A retirement).
    pub fn test(&mut self, req: &mut VReq) -> Result<Option<Completion>> {
        if req.is_null() {
            // MPI semantics: testing MPI_REQUEST_NULL succeeds with an
            // empty status.
            return Ok(Some(Completion {
                status: Status {
                    source: usize::MAX,
                    tag: 0,
                    len: 0,
                },
                data: Vec::new(),
            }));
        }
        self.stats.wrapper_calls += 1;
        self.maybe_checkpoint(false)?;
        let style = self.cfg.callback_style;
        self.commit.enter(style);
        let out = self.test_inner(req);
        self.commit.exit(style);
        out
    }

    fn test_inner(&mut self, req: &mut VReq) -> Result<Option<Completion>> {
        let entry = self.reqs.entry(*req).ok_or(ManaError::InvalidVReq(req.0))?;
        let kind = entry.kind.clone();
        let binding = entry.binding.clone();
        match (kind, binding) {
            // Step two of two-step retirement: observe the nulled binding,
            // hand over the parked completion, delete the entry.
            (kind, Binding::NullPending(stored)) => {
                self.reqs.retire(*req);
                if matches!(kind, VReqKind::RecvP2p { .. }) {
                    self.stats.recvs += 1;
                }
                let c = match stored {
                    None => Completion {
                        status: Status {
                            source: match kind {
                                VReqKind::SendP2p { dst_world, .. } => dst_world,
                                _ => usize::MAX,
                            },
                            tag: 0,
                            len: 0,
                        },
                        data: Vec::new(),
                    },
                    Some(sc) => {
                        let source = self.local_of(&kind, sc.src_world)?;
                        Completion {
                            status: Status {
                                source,
                                tag: sc.tag,
                                len: sc.payload.len(),
                            },
                            data: sc.payload,
                        }
                    }
                };
                *req = VREQ_NULL;
                Ok(Some(c))
            }
            (
                VReqKind::SendP2p {
                    dst_world,
                    tag,
                    len,
                },
                Binding::Real(raw),
            ) => {
                // Eager sends: the lower half completes them at post time.
                let res = self.lh.call(|p| p.test(RReq::from_raw(raw)))?;
                debug_assert!(res.is_some(), "eager send must be complete");
                self.reqs.retire(*req);
                *req = VREQ_NULL;
                Ok(Some(Completion {
                    status: Status {
                        source: dst_world,
                        tag,
                        len,
                    },
                    data: Vec::new(),
                }))
            }
            (VReqKind::RecvP2p { vcomm, .. }, Binding::Real(raw)) => {
                match self.lh.call(|p| p.test(RReq::from_raw(raw)))? {
                    None => Ok(None),
                    Some(c) => {
                        let ranks = self.ranks_of(vcomm)?;
                        let src_world = *ranks
                            .get(c.status.source)
                            .ok_or(ManaError::InvalidVComm(vcomm.0))?;
                        self.p2p.count_recv(src_world, c.data.len());
                        self.stats.recvs += 1;
                        self.reqs.retire(*req);
                        *req = VREQ_NULL;
                        Ok(Some(c))
                    }
                }
            }
            // After restart: the receive has no real request yet. Check the
            // drain buffer, else (re)post to the new lower half.
            (
                VReqKind::RecvP2p {
                    vcomm,
                    src_world,
                    tag,
                },
                Binding::Unbound,
            ) => {
                if let Some(m) =
                    self.drain_buf
                        .take_match(vcomm, src_world, Self::lower_tagsel(tag))
                {
                    self.reqs.retire(*req);
                    let source = self.local_in(vcomm, m.src_world)?;
                    *req = VREQ_NULL;
                    self.stats.recvs += 1;
                    return Ok(Some(Completion {
                        status: Status {
                            source,
                            tag: m.tag,
                            len: m.payload.len(),
                        },
                        data: m.payload,
                    }));
                }
                let real = self.real_comm(vcomm)?;
                let ranks = self.ranks_of(vcomm)?;
                let src_sel = match src_world {
                    None => SrcSel::Any,
                    Some(w) => SrcSel::Rank(
                        ranks
                            .iter()
                            .position(|&x| x == w)
                            .ok_or(ManaError::InvalidVComm(vcomm.0))?,
                    ),
                };
                let lower_tag = Self::lower_tagsel(tag);
                let rreq = self.lh.call(|p| p.irecv(real, src_sel, lower_tag))?;
                self.reqs.entry_mut(*req).expect("live").binding = Binding::Real(rreq.raw());
                Ok(None)
            }
            (VReqKind::Coll { op_id }, _) => {
                if self.poll_collop(op_id)? {
                    let op = self.collops.remove(op_id).expect("completed op");
                    // Log-and-replay case: retire immediately (§III-A).
                    self.reqs.retire(*req);
                    *req = VREQ_NULL;
                    Ok(Some(Completion {
                        status: Status {
                            source: usize::MAX,
                            tag: 0,
                            len: op.out.len(),
                        },
                        data: op.out,
                    }))
                } else {
                    Ok(None)
                }
            }
            (VReqKind::SendP2p { .. }, Binding::Unbound) => {
                unreachable!("sends are never unbound")
            }
        }
    }

    fn local_of(&self, kind: &VReqKind, src_world: usize) -> Result<usize> {
        match kind {
            VReqKind::RecvP2p { vcomm, .. } => self.local_in(*vcomm, src_world),
            _ => Ok(src_world),
        }
    }

    pub(crate) fn local_in(&self, vc: VComm, world: usize) -> Result<usize> {
        let rec = self.comms.record(vc).ok_or(ManaError::InvalidVComm(vc.0))?;
        rec.world_ranks
            .iter()
            .position(|&w| w == world)
            .ok_or(ManaError::InvalidVComm(vc.0))
    }

    /// `MPI_Wait`, decomposed into a loop around `MPI_Test` (§III ch. 1).
    pub fn wait(&mut self, req: &mut VReq) -> Result<Completion> {
        loop {
            if let Some(c) = self.test(req)? {
                return Ok(c);
            }
            self.lh.sched_park(self.cfg.poll_interval)?;
        }
    }

    /// `MPI_Waitall`.
    pub fn waitall(&mut self, reqs: &mut [VReq]) -> Result<Vec<Completion>> {
        let mut out = Vec::with_capacity(reqs.len());
        for r in reqs.iter_mut() {
            out.push(self.wait(r)?);
        }
        Ok(out)
    }

    /// `MPI_Iprobe`: drain buffer first, then the live network.
    pub fn iprobe(&mut self, vc: VComm, src: SrcSel, tag: TagSel) -> Result<Option<Status>> {
        self.stats.wrapper_calls += 1;
        self.maybe_checkpoint(false)?;
        let style = self.cfg.callback_style;
        self.commit.enter(style);
        let out = (|| {
            let ranks = self.ranks_of(vc)?;
            let src_world = src_to_world(&ranks, src).ok_or(ManaError::InvalidVComm(vc.0))?;
            if let Some(m) = self
                .drain_buf
                .peek_match(vc, src_world, Self::lower_tagsel(tag))
            {
                let source = ranks
                    .iter()
                    .position(|&w| w == m.src_world)
                    .ok_or(ManaError::InvalidVComm(vc.0))?;
                return Ok(Some(Status {
                    source,
                    tag: m.tag,
                    len: m.payload.len(),
                }));
            }
            let real = self.real_comm(vc)?;
            let lower_tag = Self::lower_tagsel(tag);
            Ok(self.lh.call(|p| p.iprobe(real, src, lower_tag))?)
        })();
        self.commit.exit(style);
        out
    }

    // ---- memory wrappers (MPI_Alloc_mem → malloc, §III item 2) -----------

    /// `MPI_Alloc_mem`: allocates checkpointable upper-half memory and
    /// returns a handle. The original call would reserve network-registered
    /// memory in the MPI library; MANA converts it to plain (checkpointed)
    /// allocation.
    pub fn alloc_mem(&mut self, len: usize) -> u64 {
        self.stats.wrapper_calls += 1;
        let id = self.collops.next_id() | (1 << 62); // distinct id space
        self.upper
            .write_segment(&format!("mana_mem_{id:016x}"), vec![0u8; len]);
        id
    }

    /// Access an `alloc_mem` region.
    pub fn mem(&self, handle: u64) -> Option<&[u8]> {
        self.upper.segment(&format!("mana_mem_{handle:016x}"))
    }

    /// Mutable access to an `alloc_mem` region.
    pub fn mem_mut(&mut self, handle: u64) -> &mut Vec<u8> {
        self.upper.segment_mut(&format!("mana_mem_{handle:016x}"))
    }

    /// `MPI_Free_mem`.
    pub fn free_mem(&mut self, handle: u64) -> bool {
        self.stats.wrapper_calls += 1;
        self.upper
            .remove_segment(&format!("mana_mem_{handle:016x}"))
    }

    // ---- compute & lifecycle ---------------------------------------------

    /// Run `units` of application compute, polling checkpoint intent
    /// between slices — the cooperative stand-in for DMTCP's
    /// signal-interrupted compute (see DESIGN.md substitutions; this is
    /// what lets a checkpoint begin while a straggler crunches, §III-J).
    pub fn compute(&mut self, units: u64) -> Result<()> {
        const SLICE: u64 = 4096;
        let mut left = units;
        loop {
            let c = left.min(SLICE);
            self.lh.compute_units(c);
            left -= c;
            self.maybe_checkpoint(false)?;
            if left == 0 {
                return Ok(());
            }
        }
    }

    /// Application step boundary. In `exit_after_ckpt` mode this is the
    /// *only* place a checkpoint is acted on, so restart can re-enter the
    /// application at a committed step (see DESIGN.md: cooperative-resume
    /// substitution for DMTCP's instruction-pointer restore).
    ///
    /// Exit mode needs a **consistent cut**: intent propagates
    /// asynchronously, so without agreement one rank could checkpoint at
    /// boundary *k* while a peer sails past it and blocks inside the next
    /// step's communication, deadlocking the quiesce. The boundary
    /// therefore runs a one-word allreduce-OR of each rank's local intent
    /// observation: all ranks checkpoint at this boundary, or none do.
    pub fn step_commit(&mut self) -> Result<()> {
        self.stats.wrapper_calls += 1;
        if !self.cfg.exit_after_ckpt {
            return self.maybe_checkpoint(false);
        }
        if self.exited {
            return Ok(());
        }
        let bit = (self.coord.intent() && !self.in_ckpt && !self.commit.ckpt_disabled()) as u64;
        let agreed = self.allreduce_t(crate::ids::VCOMM_WORLD, mpisim::ReduceOp::Lor, &[bit])?;
        if agreed[0] != 0 {
            self.enter_checkpoint()
        } else {
            Ok(())
        }
    }

    /// Ask the coordinator for a checkpoint (`dmtcp_command -c` analog)
    /// and wait (bounded) until the intent flag is visible, so the
    /// requesting rank cannot race past its own request. The checkpoint
    /// itself still happens at the next safe point.
    pub fn request_checkpoint(&mut self) -> Result<()> {
        self.coord.request_checkpoint()?;
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while !self.coord.intent() && std::time::Instant::now() < deadline {
            // The coordinator unparks every rank when it raises intent, so
            // this park is event-driven, not a fixed-cadence poll.
            self.lh.sched_park(self.cfg.poll_interval)?;
        }
        Ok(())
    }

    /// Park briefly (used by application-level poll loops).
    pub fn park(&mut self, d: Duration) -> Result<()> {
        self.lh.sched_park(d)?;
        self.maybe_checkpoint(false)
    }

    /// `MPI_Abort` analog: poison the world so every peer unblocks with an
    /// error. The runtime calls this automatically when a rank's closure
    /// fails fatally.
    pub fn abort_world(&self) {
        self.lh.abort_world();
    }

    // ---- EmuIo plumbing ----------------------------------------------------

    /// Advance a collective state machine by one step; true when done.
    pub(crate) fn poll_collop(&mut self, op_id: u64) -> Result<bool> {
        let mut op = match self.collops.remove_for_poll(op_id) {
            Some(op) => op,
            None => return Err(ManaError::InvalidVReq(op_id)),
        };
        let ranks = self.ranks_of(op.vcomm)?;
        let me = self
            .local_in(op.vcomm, self.rank())
            .map_err(|_| ManaError::InvalidVComm(op.vcomm.0))?;
        let mut io = ManaEmuIo {
            mana: self,
            vcomm: op.vcomm,
            ranks: &ranks,
            me,
        };
        let res = op.advance(&mut io);
        let done = match res {
            Ok(d) => d,
            Err(e) => {
                self.collops.insert(op);
                return Err(e);
            }
        };
        self.collops.insert(op);
        Ok(done)
    }
}

/// [`EmuIo`] backed by the MANA counted p2p layer and drain buffer.
struct ManaEmuIo<'a, 'p> {
    mana: &'a mut Mana<'p>,
    vcomm: VComm,
    ranks: &'a [usize],
    me: usize,
}

impl EmuIo for ManaEmuIo<'_, '_> {
    fn me(&self) -> usize {
        self.me
    }

    fn size(&self) -> usize {
        self.ranks.len()
    }

    fn send(&mut self, dst_local: usize, tag: i32, data: &[u8]) -> Result<()> {
        let dst_world = self.ranks[dst_local];
        let real = self.mana.real_comm(self.vcomm)?;
        self.mana.p2p.count_send(dst_world, data.len());
        self.mana.lh.call(|p| -> mpisim::Result<()> {
            let r = p.isend(real, dst_local, tag, data)?;
            p.wait(r)?; // eager: completes immediately; frees the slot
            Ok(())
        })?;
        Ok(())
    }

    fn poll_slot(&mut self, slot: &mut IRecvSlot) -> Result<bool> {
        if slot.data.is_some() {
            return Ok(true);
        }
        let src_world = self.ranks[slot.src_local];
        // Drain buffer first: pre-checkpoint bytes live there.
        if let Some(m) =
            self.mana
                .drain_buf
                .take_match(self.vcomm, Some(src_world), TagSel::Tag(slot.tag))
        {
            slot.data = Some(m.payload);
            slot.real = None;
            return Ok(true);
        }
        let real = self.mana.real_comm(self.vcomm)?;
        if slot.real.is_none() {
            let src = SrcSel::Rank(slot.src_local);
            let tag = TagSel::Tag(slot.tag);
            let rreq = self.mana.lh.call(|p| p.irecv(real, src, tag))?;
            slot.real = Some(rreq.raw());
        }
        let raw = slot.real.unwrap();
        match self.mana.lh.call(|p| p.test(RReq::from_raw(raw)))? {
            None => Ok(false),
            Some(c) => {
                self.mana.p2p.count_recv(src_world, c.data.len());
                slot.real = None;
                slot.data = Some(c.data);
                Ok(true)
            }
        }
    }
}

impl Mana<'_> {
    /// `MPI_Waitany`: wait until one of the virtual requests completes;
    /// returns its index and completion. The completed entry in `reqs` is
    /// overwritten with `MPI_REQUEST_NULL` (§III-A retirement); the rest
    /// are untouched.
    pub fn waitany(&mut self, reqs: &mut [VReq]) -> Result<(usize, Completion)> {
        if reqs.is_empty() {
            return Err(ManaError::InvalidVReq(0));
        }
        loop {
            for (i, req) in reqs.iter_mut().enumerate() {
                if req.is_null() {
                    continue;
                }
                let mut r = *req;
                if let Some(c) = self.test(&mut r)? {
                    *req = r; // VREQ_NULL after retirement
                    return Ok((i, c));
                }
            }
            self.lh.sched_park(self.cfg.poll_interval)?;
        }
    }

    /// `MPI_Testall`: all-or-nothing completion check over virtual
    /// requests. On success every entry is retired and nulled.
    pub fn testall(&mut self, reqs: &mut [VReq]) -> Result<Option<Vec<Completion>>> {
        // Readiness probe without consuming (uses the non-destructive
        // lower-half `MPI_Request_get_status` for p2p; collectives are
        // advanced by one poll which is side-effect-safe).
        for r in reqs.iter() {
            if r.is_null() {
                continue;
            }
            let entry = self.reqs.entry(*r).ok_or(ManaError::InvalidVReq(r.0))?;
            let ready = match (&entry.kind, &entry.binding) {
                (_, Binding::NullPending(_)) => true,
                (VReqKind::SendP2p { .. }, _) => true,
                (VReqKind::RecvP2p { .. }, Binding::Real(raw)) => {
                    let raw = *raw;
                    self.lh
                        .call(|p| p.peek_status(RReq::from_raw(raw)))?
                        .is_some()
                }
                (VReqKind::RecvP2p { .. }, Binding::Unbound) => false,
                (VReqKind::Coll { op_id }, _) => {
                    let id = *op_id;
                    self.poll_collop(id)?
                }
            };
            if !ready {
                return Ok(None);
            }
        }
        let mut out = Vec::with_capacity(reqs.len());
        for r in reqs.iter_mut() {
            out.push(self.wait(r)?); // completes immediately
        }
        Ok(Some(out))
    }
}
