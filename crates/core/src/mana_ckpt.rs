//! Checkpoint, drain, and restart (paper §III-B, §III-C, §II-A).
//!
//! The checkpoint protocol per rank:
//!
//! 1. Observe intent at a safe point; report `Ready` (with the gid of any
//!    MANA-level collective the rank is parked inside, §III-K) and wait
//!    for `Go`.
//! 2. **Drain**: exchange per-pair sent-byte rows with one `MPI_Alltoall`
//!    (or the legacy coordinator totals loop), then locally pull the
//!    still-owed bytes out of the network — `iprobe`+`recv` for unmatched
//!    messages, `MPI_Test` on recorded pending `irecv`s for messages the
//!    library already claimed (the exact §III-B fallback).
//! 3. Freeze: serialize upper-half memory + MANA metadata into the rank's
//!    kept image buffer and lend it to the coordinator (`Frozen`).
//! 4. Wait for `Resume` (continue running while the coordinator's flush
//!    lands the images) or `Exit` (checkpoint-and-kill, once the round
//!    committed; restart will rebuild a fresh lower half).
//!
//! Restart rebuilds communicators from the **active list** — group
//! membership alone suffices (§III-C) — or, in the ablation baseline,
//! replays every logged constructor including freed communicators.

use crate::collective_emu::CollOpMeta;
use crate::comm_mgr::{CommManager, CommMeta};
use crate::config::{CommRestore, ManaConfig};
use crate::coordinator::{CoordHandle, CoordMsg, RankMsg};
use crate::error::{ManaError, Result};
use crate::ids::{VComm, VCOMM_WORLD};
use crate::mana::Mana;
use crate::p2p_log::{DrainBuffer, DrainedMsg, P2pLog};
use crate::requests::{Binding, RequestManager, RequestMeta, StoredCompletion, VReqKind};
use mpisim::{fnv1a_usizes, Comm, Group, Proc, RReq, SrcSel, TagSel};
use obs::metrics as met;
use obs::{EventKind, FaultKind, Phase};
use splitproc::{Decode, ImageHead, LowerHalf, UpperHalf};

/// Everything MANA saves alongside the upper half.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ManaMeta {
    /// Communicator records + replay log + emu sequence counters.
    pub comm: CommMeta,
    /// Virtual request table (restart-transformed bindings).
    pub reqs: RequestMeta,
    /// In-flight emulated collectives.
    pub collops: CollOpMeta,
    /// Drained-but-undelivered messages.
    pub drain_buf: DrainBuffer,
    /// One-sided windows (records + this rank's region contents).
    pub wins: crate::mana_win::WinMeta,
}

splitproc::wire!(ManaMeta {
    comm,
    reqs,
    collops,
    drain_buf,
    wins
});

impl<'p> Mana<'p> {
    /// The universal safe point. `at_step` marks an application step
    /// boundary ([`Mana::step_commit`]); in `exit_after_ckpt` mode only
    /// step boundaries act on intent, so restart re-enters the application
    /// at a committed step.
    pub(crate) fn maybe_checkpoint(&mut self, at_step: bool) -> Result<()> {
        // Fault-plan checkpoint trigger: the chosen rank requests a round
        // once its wrapper-call counter crosses the plan's threshold. That
        // lands the intent at whatever the plan picked — possibly
        // mid-collective or with requests pending. Fires once, on the
        // first pass only (round 0): a restarted run resumes at round ≥ 1
        // and must not re-trigger forever.
        if let Some(fp) = self.cfg.fault.clone() {
            if !self.fault_triggered
                && self.round == 0
                && !self.in_ckpt
                && !self.exited
                && fp.should_trigger(self.rank(), self.stats.wrapper_calls)
            {
                self.fault_triggered = true;
                self.tel.fault_fired(self.round as i64, FaultKind::Trigger);
                self.coord.request_checkpoint()?;
            }
        }
        if !self.coord.intent() || self.in_ckpt || self.commit.ckpt_disabled() || self.exited {
            return Ok(());
        }
        if self.cfg.exit_after_ckpt && !at_step {
            return Ok(());
        }
        self.enter_checkpoint()
    }

    /// Report Ready, await Go, and run the checkpoint. Callers guarantee a
    /// coordinator round is (or is about to be) in progress: either the
    /// local intent flag was observed, or a consistent-cut agreement
    /// ([`Mana::step_commit`] in exit mode) established that *some* rank
    /// observed it — in which case the coordinator's quiesce is already
    /// waiting for this rank's Ready.
    pub(crate) fn enter_checkpoint(&mut self) -> Result<()> {
        self.in_ckpt = true;
        // The coordinator bumps its round counter only after commit/abort,
        // so during the intent window `coord.round()` is the round about
        // to run — the right label for the Intent span.
        let intent_round = self.coord.round() as i64;
        let intent = self.tel.begin(intent_round, Phase::Intent);
        let res = (|| {
            // Fault-plan ready stall: the chosen straggler stalls inside
            // the intent window, stretching the coordinator's quiesce the
            // way a slow rank would at scale (§III-J pressure). Stalling
            // goes through the engine parker (CoordHandle::stall) so a
            // coop worker slot is not held hostage for the duration.
            if let Some(d) = self
                .cfg
                .fault
                .as_ref()
                .and_then(|fp| fp.ready_stall(self.rank()))
            {
                self.tel.fault_fired(intent_round, FaultKind::ReadyStall);
                self.coord.stall(d);
            }
            self.coord.send(RankMsg::Ready {
                rank: self.rank(),
                in_collective: self.cur_collective_gid,
            })?;
            let round = self.coord.await_reply("Go", |m| match m {
                CoordMsg::Go { round } => Ok(round),
                other => Err(other),
            })?;
            self.tel.end(intent);
            self.checkpoint_body(round)
        })();
        self.in_ckpt = false;
        res
    }

    /// Drain + freeze + await the verdict. The coordinator has already
    /// confirmed every rank is parked.
    pub(crate) fn checkpoint_body(&mut self, round: u64) -> Result<()> {
        // `self.round` counts *completed* rounds (so `Mana::round()` is
        // also "which pass is this" after a restart).
        self.round = round + 1;
        let sweeps_before = self.stats.drain_sweeps;
        self.quiesce()?;
        self.stats
            .drain_sweeps_by_round
            .push((round, self.stats.drain_sweeps - sweeps_before));
        // The drain just claimed the network is empty for this rank and
        // every request is parked in a legal state — assert it before the
        // image is written, so a protocol bug fails the checkpoint instead
        // of poisoning the image.
        self.check_ckpt_invariants()?;
        // Window regions are read through the lower half, which can fail;
        // nothing after it can, so the ImageWrite span opens here. It is
        // the freeze: the upper half and metadata encoded into this rank's
        // kept buffer, which is lent to the coordinator — its flush lands
        // the image (and any seeded storage fault with it) once the ranks
        // are released (DESIGN §7).
        let r = round as i64;
        let wins = self.wins_to_meta()?;
        let freeze = self.tel.begin(r, Phase::ImageWrite);
        let head = ImageHead {
            rank: self.rank(),
            world_size: self.world_size(),
            round,
        };
        // The drain buffer is lent to the metadata for the encode and
        // handed straight back (nothing between can fail): drained
        // payloads are not copied just to be serialized.
        let meta = ManaMeta {
            comm: self.comms.to_meta(),
            reqs: self.reqs.to_meta(),
            collops: self.collops.to_meta(),
            drain_buf: std::mem::take(&mut self.drain_buf),
            wins,
        };
        let mut buf = self.coord.image_buf();
        head.encode_into(&mut buf, &self.upper, &meta);
        self.drain_buf = meta.drain_buf;
        self.stats.ckpts += 1;
        self.tel.end(freeze);
        // Frozen: everything from here to the coordinator's verdict is
        // waiting for release.
        let release = self.tel.begin(r, Phase::Commit);
        self.coord.send(RankMsg::Frozen {
            rank: self.rank(),
            image: buf,
        })?;
        let exit = self.coord.await_reply("Resume or Exit", |m| match m {
            CoordMsg::Resume => Ok(false),
            CoordMsg::Exit => Ok(true),
            other => Err(other),
        });
        self.tel.end(release);
        if exit? {
            self.exited = true;
            return Err(ManaError::CkptExit);
        }
        // Network empty + both sides agreed: counters restart from zero
        // consistently on every rank — whether or not the round's flush
        // lands, since the drain completed globally before any rank froze.
        self.p2p.reset();
        Ok(())
    }

    // ---- drain -------------------------------------------------------------

    /// One drain sweep against the `expected` per-peer byte claims: for
    /// each peer still owing bytes, (a) iprobe+recv unmatched messages on
    /// every active communicator, (b) test recorded pending `irecv`s (the
    /// message may already be claimed — §III-B), on both user requests
    /// and emulated-collective slots. Shared by every drain protocol; the
    /// coordinator protocol passes `u64::MAX` claims to sweep everything
    /// receivable.
    ///
    /// Deficits are recomputed *live* from the [`P2pLog`] before every
    /// probe — never trusted from a snapshot — so a message matched
    /// mid-sweep (e.g. by a posted receive tested in stage (b) of an
    /// earlier sweep) immediately retires the peer's claim and cannot be
    /// drained twice.
    pub(crate) fn drain_sweep(&mut self, expected: &[u64]) -> Result<bool> {
        let mut progress = false;
        // (a) Unmatched messages in the network.
        let me = self.rank();
        let active = self.comms.active_records();
        let active: Vec<VComm> = active.iter().map(|r| VComm(r.vid)).collect();
        for vc in active {
            let real = match self.comms.real(vc) {
                Some(r) => r,
                None => continue,
            };
            let rec = self.comm(vc)?;
            if rec.local_of(me).is_none() {
                continue;
            }
            for local in 0..rec.world_ranks.len() {
                let w = self.world_in(vc, local)?;
                if w == me {
                    continue;
                }
                while self.p2p.deficit_from(expected, w) != 0 {
                    let st = self
                        .lh
                        .call(|p| p.iprobe(real, SrcSel::Rank(local), TagSel::Any))?;
                    let st = match st {
                        None => break,
                        Some(s) => s,
                    };
                    let (st2, data) = self
                        .lh
                        .call(|p| p.recv(real, SrcSel::Rank(local), TagSel::Tag(st.tag)))?;
                    self.count_drained(w, data.len());
                    self.drain_buf.push(DrainedMsg {
                        vcomm: vc,
                        src_world: w,
                        tag: st2.tag,
                        payload: data,
                    });
                    progress = true;
                }
            }
        }
        // (b) Messages already claimed by posted receives: user requests…
        for vr in self.reqs.testable_recvs() {
            let (vcomm, raw) = match self.reqs.entry(vr) {
                Some(e) => match (&e.kind, &e.binding) {
                    (VReqKind::RecvP2p { vcomm, .. }, Binding::Real(raw)) => (*vcomm, *raw),
                    _ => continue,
                },
                None => continue,
            };
            if let Some(c) = self.lh.call(|p| p.test(RReq::from_raw(raw)))? {
                let src_world = self.world_in(vcomm, c.status.source)?;
                self.count_drained(src_world, c.data.len());
                // Step one of two-step retirement: the user's address for
                // this request is unknown here, so park the completion.
                self.reqs.mark_null(
                    vr,
                    Some(StoredCompletion {
                        src_world,
                        tag: c.status.tag,
                        payload: c.data,
                    }),
                );
                progress = true;
            }
        }
        // … and emulated-collective slots (receive-only: advancing a state
        // machine could *send*, which would invalidate the exchanged
        // counts).
        for id in self.collops.sorted_ids() {
            let mut op = match self.collops.remove_for_poll(id) {
                Some(op) => op,
                None => continue,
            };
            for slot in &mut op.slots {
                if slot.data.is_some() {
                    continue;
                }
                let raw = match slot.real {
                    Some(r) => r,
                    None => continue,
                };
                if let Some(c) = self.lh.call(|p| p.test(RReq::from_raw(raw)))? {
                    let src_world = self.world_in(op.vcomm, slot.src_local)?;
                    self.count_drained(src_world, c.data.len());
                    slot.real = None;
                    slot.data = Some(c.data);
                    progress = true;
                }
            }
            self.collops.insert(op);
        }
        Ok(progress)
    }

    /// A drain sweep pulled one message from `src_world` out of the
    /// network: charge it to the [`P2pLog`] like any completed receive
    /// (so the peer's deficit retires at once), and account for it in the
    /// stats, the metrics plane and the trace of the draining round.
    fn count_drained(&mut self, src_world: usize, bytes: usize) {
        self.p2p.count_recv(src_world, bytes);
        self.stats.drained_msgs += 1;
        self.stats.drained_bytes += bytes as u64;
        self.tel.add(met::DRAINED_MSGS, 1);
        self.tel.add(met::DRAINED_BYTES, bytes as u64);
        self.tel.event(
            self.round as i64 - 1,
            EventKind::DrainCapture {
                src: src_world as u32,
                bytes: bytes as u64,
            },
        );
    }

    // ---- finalize -----------------------------------------------------------

    /// `MPI_Finalize` analog: a safe point, then a coordinated goodbye. If
    /// the coordinator is mid-quiesce, `Finishing` counts as `Ready` and
    /// this rank runs the checkpoint before retiring. Returns
    /// [`ManaError::CkptExit`] (after completing the goodbye handshake)
    /// when a checkpoint-and-kill landed here.
    pub fn finalize(&mut self) -> Result<()> {
        let mut ckpt_exit = self.exited;
        if !self.exited {
            match self.maybe_checkpoint(true) {
                Ok(()) => {}
                Err(ManaError::CkptExit) => ckpt_exit = true,
                Err(e) => return Err(e),
            }
        }
        loop {
            self.coord.send(RankMsg::Finishing { rank: self.rank() })?;
            let go = self.coord.await_reply("FinishAck or Go", |m| match m {
                CoordMsg::FinishAck => Ok(None),
                CoordMsg::Go { round } => Ok(Some(round)),
                other => Err(other),
            })?;
            let Some(round) = go else {
                return if ckpt_exit {
                    Err(ManaError::CkptExit)
                } else {
                    Ok(())
                };
            };
            // A round started concurrently; we were counted Ready.
            match self.checkpoint_body(round) {
                Ok(()) => {}
                Err(ManaError::CkptExit) => ckpt_exit = true, // still say goodbye
                Err(e) => return Err(e),
            }
        }
    }

    // ---- restart -------------------------------------------------------------

    /// Rebuild a rank from the image restart put in its buffer slot, on a
    /// fresh lower half. The buffer is taken and dropped once decoded, so a
    /// restart holds each image's bytes once: kept beside the decoded upper
    /// half it would double them, and the rank's first checkpoint encodes
    /// into a fresh buffer as a fresh rank's does (DESIGN §11).
    pub fn restore(proc: &'p Proc, cfg: ManaConfig, coord: CoordHandle) -> Result<Self> {
        let image = coord.image_buf();
        let head = image.head();
        if head.world_size != proc.world_size() {
            return Err(ManaError::RestartMismatch(format!(
                "image world size {} vs runtime {}",
                head.world_size,
                proc.world_size()
            )));
        }
        if head.rank != proc.rank() {
            return Err(ManaError::RestartMismatch(format!(
                "image rank {} vs runtime {}",
                head.rank,
                proc.rank()
            )));
        }
        let (upper, meta) = image.sections();
        let upper = UpperHalf::from_bytes(upper)?;
        // Taken apart so the drained payloads move into the rank rather
        // than being copied out of the decoded metadata.
        let ManaMeta {
            comm,
            reqs,
            collops,
            drain_buf,
            wins,
        } = ManaMeta::from_bytes(meta)?;
        drop(image);
        let lh = LowerHalf::new(proc, cfg.fs_mode);
        let mut comms = CommManager::from_meta(&comm, cfg.vtable);
        let mut stats = crate::mana::ManaStats::default();
        let tel = Self::telemetry(proc, &cfg);
        let restoring = tel.begin(head.round as i64, Phase::RestoreComms);

        // World first.
        comms.rebind(VCOMM_WORLD.0, Comm::WORLD);
        let me = proc.rank();
        match cfg.comm_restore {
            CommRestore::ActiveList => {
                // §III-C: only live communicators, straight from their
                // groups. vid order is creation order, consistent among
                // shared members.
                for rec in comm.records.iter().filter(|r| !r.freed) {
                    if rec.vid == VCOMM_WORLD.0 || !rec.world_ranks.contains(&me) {
                        continue;
                    }
                    let group = Group::new(rec.world_ranks.clone())?;
                    let tag =
                        fnv1a_usizes(&[0x7E57A7_usize, rec.gid as usize, head.round as usize]);
                    let real = lh.call(|p| p.comm_create_from_group(&group, tag))?;
                    comms.rebind(rec.vid, real);
                    stats.restored_comms += 1;
                }
            }
            CommRestore::ReplayLog => {
                // Original MANA baseline: replay every constructor, freed
                // or not (freed ones are wasted work + table bloat).
                for call in &comm.replay_log {
                    match call {
                        crate::comm_mgr::CommCall::Create { vid, world_ranks } => {
                            if !world_ranks.contains(&me) {
                                continue;
                            }
                            let group = Group::new(world_ranks.clone())?;
                            let gid = crate::comm_mgr::global_comm_id(world_ranks);
                            let tag =
                                fnv1a_usizes(&[0x7E57A7_usize, gid as usize, head.round as usize]);
                            let real = lh.call(|p| p.comm_create_from_group(&group, tag))?;
                            comms.rebind(*vid, real);
                            stats.replayed_calls += 1;
                            stats.restored_comms += 1;
                        }
                        crate::comm_mgr::CommCall::Free { .. } => {
                            stats.replayed_calls += 1;
                        }
                    }
                }
            }
        }

        tel.end(restoring);

        let mut mana = Mana {
            lh,
            comms,
            wins: crate::mana_win::WinManager::from_meta(&wins, cfg.vtable),
            reqs: RequestManager::from_meta(&reqs, cfg.vtable),
            collops: crate::collective_emu::CollOpTable::from_meta(&collops),
            p2p: P2pLog::new(proc.world_size()),
            drain_buf,
            upper,
            coord,
            commit: crate::callbacks::CommitState::new(),
            in_ckpt: false,
            exited: false,
            cur_collective_gid: None,
            round: head.round + 1,
            stats,
            fault_triggered: false,
            tel,
            cfg,
        };
        mana.restore_wins(&wins)?;
        Ok(mana)
    }
}
