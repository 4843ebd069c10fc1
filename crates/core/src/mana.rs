//! The `Mana` handle: the "stub MPI library" each rank links against
//! (paper §II-A, Fig. 1).
//!
//! Every MANA wrapper enters through one skeleton, [`Mana::wrapper`], which
//! is Fig. 1: count the call, reach a safe point, commit-begin (callback
//! style dispatch, checkpoint-disable), virtual→real translation,
//! `JUMP_TO_LOWER_HALF`, the real MPI call, return, re-enable,
//! commit-finish. Blocking point-to-point calls decompose into
//! non-blocking post + test loop (§III challenge 1) so a checkpoint can
//! never land inside a blocking lower-half call.

use crate::callbacks::CommitState;
use crate::collective_emu::{CollOpTable, EmuIo, IRecvSlot, MANA_TAG_BASE};
use crate::comm_mgr::{CommManager, CommRecord};
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
    /// thread interleaving or wall-clock timing. The gating equivalence
    /// suite demands these match across engine worker counts.
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

/// Whether a wrapper polls checkpoint intent on its way in (Fig. 1's "reach
/// a safe point"). DESIGN.md §5 gives the reason for every `No`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SafePoint {
    /// A checkpoint may cut here, before the call touches any state.
    Here,
    /// The call is not a cut point.
    No,
}

/// The per-rank MANA handle. `'p` is the lifetime of the lower-half MPI
/// endpoint (one world launch).
pub struct Mana<'p> {
    pub(crate) lh: LowerHalf<'p>,
    pub(crate) cfg: ManaConfig,
    pub(crate) upper: UpperHalf,
    /// This rank's image file buffer, kept for its lifetime: every
    /// checkpoint encodes into it ([`splitproc::ImageHead::encode_into`])
    /// and the store seals and writes it in place, so a round after the
    /// first allocates no payload-sized memory.
    pub(crate) image_buf: Vec<u8>,
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
            image_buf: Vec::new(),
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

    // ---- the wrapper skeleton (Fig. 1) -----------------------------------

    /// The one shape every MANA wrapper has: charge the call, reach the
    /// safe point *before* any state is touched, then run `body` —
    /// virtual→real translation and the lower-half jumps — inside the
    /// `commit_begin` + `DISABLE_CKPT` … `ENABLE_CKPT` + `commit_finish`
    /// bracket, which closes on `Err` as on `Ok`.
    pub(crate) fn wrapper<T>(
        &mut self,
        safe: SafePoint,
        body: impl FnOnce(&mut Self) -> Result<T>,
    ) -> Result<T> {
        self.stats.wrapper_calls += 1;
        if safe == SafePoint::Here {
            self.maybe_checkpoint(false)?;
        }
        let style = self.cfg.callback_style;
        CommitState::with_commit(self, |m| &m.commit, style, body)
    }

    // ---- virtual→real translation ----------------------------------------

    pub(crate) fn comm(&self, vc: VComm) -> Result<&CommRecord> {
        self.comms.record(vc).ok_or(ManaError::InvalidVComm(vc.0))
    }

    pub(crate) fn real_comm(&self, vc: VComm) -> Result<Comm> {
        self.comms.real(vc).ok_or(ManaError::InvalidVComm(vc.0))
    }

    /// World rank of `vc`'s local rank `local`.
    pub(crate) fn world_in(&self, vc: VComm, local: usize) -> Result<usize> {
        let world = self.comm(vc)?.world_of(local);
        world.ok_or(ManaError::InvalidVComm(vc.0))
    }

    /// Rank within `vc` of world rank `world`.
    pub(crate) fn local_in(&self, vc: VComm, world: usize) -> Result<usize> {
        let local = self.comm(vc)?.local_of(world);
        local.ok_or(ManaError::InvalidVComm(vc.0))
    }

    // ---- communicator wrappers ------------------------------------------

    /// `MPI_Comm_rank` — resolved from MANA's own record, no lower-half
    /// jump needed (a §III-I.3-style "answer locally" optimization).
    pub fn comm_rank(&self, vc: VComm) -> Result<usize> {
        self.local_in(vc, self.rank())
    }

    /// `MPI_Comm_size` — likewise local.
    pub fn comm_size(&self, vc: VComm) -> Result<usize> {
        Ok(self.comm(vc)?.world_ranks.len())
    }

    /// The globally-unique communicator ID of §III-K.
    pub fn comm_gid(&self, vc: VComm) -> Result<u64> {
        Ok(self.comm(vc)?.gid)
    }

    /// `MPI_Comm_dup`.
    pub fn comm_dup(&mut self, vc: VComm) -> Result<VComm> {
        self.wrapper(SafePoint::Here, |m| {
            let real = m.real_comm(vc)?;
            let new_real = m.lh.call(|p| p.comm_dup(real))?;
            let ranks = m.comm(vc)?.world_ranks.clone();
            Ok(m.comms.register(ranks, new_real))
        })
    }

    /// `MPI_Comm_split`. Color < 0 acts as `MPI_UNDEFINED`.
    pub fn comm_split(&mut self, vc: VComm, color: i32, key: i32) -> Result<Option<VComm>> {
        self.wrapper(SafePoint::Here, |m| {
            let real = m.real_comm(vc)?;
            let Some(new_real) = m.lh.call(|p| p.comm_split(real, color, key))? else {
                return Ok(None);
            };
            let group = m.lh.call(|p| p.group_of(new_real))?;
            let ranks = group.translate_all().to_vec();
            Ok(Some(m.comms.register(ranks, new_real)))
        })
    }

    /// `MPI_Comm_free`: retires the virtual communicator (active-list
    /// removal, §III-C) and frees the real one.
    pub fn comm_free(&mut self, vc: VComm) -> Result<()> {
        self.wrapper(SafePoint::No, |m| {
            let real = m.comms.free(vc).ok_or(ManaError::InvalidVComm(vc.0))?;
            Ok(m.lh.call(|p| p.comm_free(real))?)
        })
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
        self.wrapper(SafePoint::Here, |m| {
            m.stats.sends += 1;
            Self::check_user_tag(tag)?;
            let dst_world = m.world_in(vc, dst)?;
            let real = m.real_comm(vc)?;
            m.p2p.count_send(dst_world, data.len());
            let rreq = m.lh.call(|p| p.isend(real, dst, tag, data))?;
            Ok(m.reqs.create(
                VReqKind::SendP2p {
                    dst_world,
                    tag,
                    len: data.len(),
                },
                Binding::Real(rreq.raw()),
            ))
        })
    }

    /// `MPI_Send`, decomposed into `MPI_Isend` + test loop (§III ch. 1).
    pub fn send(&mut self, vc: VComm, dst: usize, tag: i32, data: &[u8]) -> Result<()> {
        let mut r = self.isend(vc, dst, tag, data)?;
        self.wait(&mut r).map(|_| ())
    }

    /// Post the receive `(vc, src, tag)` and say what its request is bound
    /// to. The drain buffer is consulted before the lower half: a message
    /// captured at the last checkpoint must be delivered before any
    /// live-network message from the same source (non-overtaking), and the
    /// request it satisfies is born retired (step one already done by the
    /// drain). `src_world` is `src` in world ranks.
    fn post_recv(
        &mut self,
        vc: VComm,
        src: SrcSel,
        src_world: Option<usize>,
        tag: TagSel,
    ) -> Result<Binding> {
        let lower_tag = Self::lower_tagsel(tag);
        if let Some(m) = self.drain_buf.take_match(vc, src_world, lower_tag) {
            return Ok(Binding::NullPending(Some(StoredCompletion {
                src_world: m.src_world,
                tag: m.tag,
                payload: m.payload,
            })));
        }
        let real = self.real_comm(vc)?;
        let rreq = self.lh.call(|p| p.irecv(real, src, lower_tag))?;
        Ok(Binding::Real(rreq.raw()))
    }

    /// `MPI_Irecv`.
    pub fn irecv(&mut self, vc: VComm, src: SrcSel, tag: TagSel) -> Result<VReq> {
        self.wrapper(SafePoint::Here, |m| {
            if let TagSel::Tag(t) = tag {
                Self::check_user_tag(t)?;
            }
            let src_world =
                src_to_world(&m.comm(vc)?.world_ranks, src).ok_or(ManaError::InvalidVComm(vc.0))?;
            let binding = m.post_recv(vc, src, src_world, tag)?;
            let kind = VReqKind::RecvP2p {
                vcomm: vc,
                src_world,
                tag,
            };
            Ok(m.reqs.create(kind, binding))
        })
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
            // empty status. Nothing is translated, so nothing is charged.
            return Ok(Some(completion(usize::MAX, 0, Vec::new())));
        }
        self.wrapper(SafePoint::Here, |m| m.test_inner(req))
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
                let source = match (&kind, &stored) {
                    (VReqKind::RecvP2p { vcomm, .. }, Some(sc)) => {
                        self.local_in(*vcomm, sc.src_world)?
                    }
                    (_, Some(sc)) => sc.src_world,
                    (VReqKind::SendP2p { dst_world, .. }, None) => *dst_world,
                    (_, None) => usize::MAX,
                };
                *req = VREQ_NULL;
                let (tag, data) = stored.map_or((0, Vec::new()), |sc| (sc.tag, sc.payload));
                Ok(Some(completion(source, tag, data)))
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
                let mut c = completion(dst_world, tag, Vec::new());
                c.status.len = len;
                Ok(Some(c))
            }
            (VReqKind::RecvP2p { vcomm, .. }, Binding::Real(raw)) => {
                match self.lh.call(|p| p.test(RReq::from_raw(raw)))? {
                    None => Ok(None),
                    Some(c) => {
                        let src_world = self.world_in(vcomm, c.status.source)?;
                        self.p2p.count_recv(src_world, c.data.len());
                        self.stats.recvs += 1;
                        self.reqs.retire(*req);
                        *req = VREQ_NULL;
                        Ok(Some(c))
                    }
                }
            }
            // After restart: the receive has no real request yet, so it is
            // posted now — and handed over at once if the drain had it.
            (
                VReqKind::RecvP2p {
                    vcomm,
                    src_world,
                    tag,
                },
                Binding::Unbound,
            ) => {
                let src = match src_world {
                    None => SrcSel::Any,
                    Some(w) => SrcSel::Rank(self.local_in(vcomm, w)?),
                };
                let binding = self.post_recv(vcomm, src, src_world, tag)?;
                let drained = matches!(binding, Binding::NullPending(_));
                self.reqs.entry_mut(*req).expect("live").binding = binding;
                if drained {
                    self.test_inner(req)
                } else {
                    Ok(None)
                }
            }
            (VReqKind::Coll { op_id }, _) => {
                if self.poll_collop(op_id)? {
                    let op = self.collops.remove(op_id).expect("completed op");
                    // Log-and-replay case: retire immediately (§III-A).
                    self.reqs.retire(*req);
                    *req = VREQ_NULL;
                    Ok(Some(completion(usize::MAX, 0, op.out)))
                } else {
                    Ok(None)
                }
            }
            (VReqKind::SendP2p { .. }, Binding::Unbound) => {
                unreachable!("sends are never unbound")
            }
        }
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
        self.wrapper(SafePoint::Here, |m| {
            let rec = m.comm(vc)?;
            let src_world =
                src_to_world(&rec.world_ranks, src).ok_or(ManaError::InvalidVComm(vc.0))?;
            let lower_tag = Self::lower_tagsel(tag);
            if let Some(d) = m.drain_buf.peek_match(vc, src_world, lower_tag) {
                let source = rec.local_of(d.src_world);
                return Ok(Some(Status {
                    source: source.ok_or(ManaError::InvalidVComm(vc.0))?,
                    tag: d.tag,
                    len: d.payload.len(),
                }));
            }
            let real = m.real_comm(vc)?;
            Ok(m.lh.call(|p| p.iprobe(real, src, lower_tag))?)
        })
    }

    // ---- memory wrappers (MPI_Alloc_mem → malloc, §III item 2) -----------

    /// `MPI_Alloc_mem`: allocates checkpointable upper-half memory and
    /// returns a handle. The original call would reserve network-registered
    /// memory in the MPI library; MANA converts it to plain (checkpointed)
    /// allocation.
    pub fn alloc_mem(&mut self, len: usize) -> u64 {
        self.wrapper(SafePoint::No, |m| {
            let id = m.collops.next_id() | (1 << 62); // distinct id space
            m.upper
                .write_segment(&format!("mana_mem_{id:016x}"), vec![0u8; len]);
            Ok(id)
        })
        .expect("no safe point, infallible body")
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
        self.wrapper(SafePoint::No, |m| {
            Ok(m.upper.remove_segment(&format!("mana_mem_{handle:016x}")))
        })
        .expect("no safe point, infallible body")
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
        // Resume mode cuts at this safe point. Exit mode cuts only where
        // the vote below agrees, so its first safe point (where a seeded
        // fault trigger fires) is inside the voting allreduce.
        let safe = match self.cfg.exit_after_ckpt {
            false => SafePoint::Here,
            true => SafePoint::No,
        };
        self.wrapper(safe, |_| Ok(()))?;
        if !self.cfg.exit_after_ckpt || self.exited {
            return Ok(());
        }
        let bit = (self.coord.intent() && !self.in_ckpt) as u64;
        let agreed = self.allreduce_t(crate::ids::VCOMM_WORLD, mpisim::ReduceOp::Lor, &[bit])?;
        if agreed[0] != 0 {
            self.enter_checkpoint()
        } else {
            Ok(())
        }
    }

    /// Ask the coordinator for a checkpoint (`dmtcp_command -c` analog).
    /// When the request starts a round, intent is raised before this
    /// returns, so the requesting rank cannot race past its own request; one
    /// coalesced into a running round or skipped because ranks have
    /// finished returns at once too. The checkpoint itself still happens at
    /// the next safe point.
    pub fn request_checkpoint(&mut self) -> Result<()> {
        self.coord.request_checkpoint()
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
        let mut op = self
            .collops
            .remove_for_poll(op_id)
            .ok_or(ManaError::InvalidVReq(op_id))?;
        let res = self.emu_io(op.vcomm).and_then(|mut io| op.advance(&mut io));
        self.collops.insert(op);
        res
    }

    fn emu_io(&mut self, vcomm: VComm) -> Result<ManaEmuIo<'_, 'p>> {
        let rec = self.comm(vcomm)?;
        let size = rec.world_ranks.len();
        let me = rec.local_of(self.rank());
        Ok(ManaEmuIo {
            me: me.ok_or(ManaError::InvalidVComm(vcomm.0))?,
            mana: self,
            vcomm,
            size,
        })
    }
}

/// One completed operation's `(status, data)`; `len` is the payload's.
fn completion(source: usize, tag: i32, data: Vec<u8>) -> Completion {
    Completion {
        status: Status {
            source,
            tag,
            len: data.len(),
        },
        data,
    }
}

/// [`EmuIo`] backed by the MANA counted p2p layer and drain buffer.
struct ManaEmuIo<'a, 'p> {
    mana: &'a mut Mana<'p>,
    vcomm: VComm,
    size: usize,
    me: usize,
}

impl EmuIo for ManaEmuIo<'_, '_> {
    fn me(&self) -> usize {
        self.me
    }

    fn size(&self) -> usize {
        self.size
    }

    fn send(&mut self, dst_local: usize, tag: i32, data: &[u8]) -> Result<()> {
        let dst_world = self.mana.world_in(self.vcomm, dst_local)?;
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
        let src_world = self.mana.world_in(self.vcomm, slot.src_local)?;
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mana_win::VWin;
    use crate::{CallbackStyle, ManaRuntime};
    use mpisim::{Datatype, ReduceOp};

    type Failing = (&'static str, fn(&mut Mana<'_>) -> bool);

    /// Every wrapper, called so that it fails after its bracket opened.
    const FAILING: [Failing; 14] = [
        ("comm_dup", |m| m.comm_dup(STALE).is_err()),
        ("comm_split", |m| m.comm_split(STALE, 0, 0).is_err()),
        ("comm_free", |m| m.comm_free(STALE).is_err()),
        ("isend", |m| m.isend(STALE, 0, 1, b"x").is_err()),
        ("isend tag", |m| m.isend(VCOMM_WORLD, 0, -1, b"x").is_err()),
        ("irecv", |m| {
            m.irecv(STALE, SrcSel::Any, TagSel::Any).is_err()
        }),
        ("test", |m| m.test(&mut VReq(9999)).is_err()),
        ("iprobe", |m| {
            m.iprobe(STALE, SrcSel::Any, TagSel::Any).is_err()
        }),
        ("ibarrier", |m| m.ibarrier(STALE).is_err()),
        ("win_create", |m| m.win_create(STALE, 8).is_err()),
        ("win_put", |m| m.win_put(VWin(9999), 0, 0, &[1]).is_err()),
        ("win_get", |m| m.win_get(VWin(9999), 0, 0, 1).is_err()),
        ("win_accumulate", |m| {
            m.win_accumulate(VWin(9999), 0, 0, Datatype::U8, ReduceOp::Sum, &[1])
                .is_err()
        }),
        ("win_free", |m| m.win_free(VWin(9999)).is_err()),
    ];
    const STALE: VComm = VComm(9999);

    #[test]
    fn a_failed_wrapper_leaves_checkpointing_enabled() {
        for style in [CallbackStyle::Prepared, CallbackStyle::Lambda] {
            let cfg = ManaConfig {
                callback_style: style,
                ckpt_dir: std::env::temp_dir()
                    .join(format!("mana2_unit_bracket_{}", std::process::id())),
                ..ManaConfig::default()
            };
            let run = ManaRuntime::new(1, cfg).run_fresh(|m| {
                for (name, fails) in FAILING {
                    let before = m.stats.wrapper_calls;
                    assert!(fails(m), "{name} accepted a stale handle");
                    assert_eq!(m.stats.wrapper_calls, before + 1, "{name}");
                    assert!(!m.commit.ckpt_disabled(), "{name} leaked DISABLE_CKPT");
                    assert_eq!(m.commit.begun(), m.commit.finished(), "{name}");
                }
                Ok(())
            });
            run.unwrap_or_else(|e| panic!("{style:?}: {e}"));
        }
    }
}
