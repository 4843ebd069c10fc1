//! Collective wrappers and the two-phase-commit protocols
//! (paper §III-D, §III-E, §III-J, §III-L).
//!
//! Under MANA, every blocking collective is translated into the p2p
//! state-machine implementation of [`crate::collective_emu`] — the
//! "alternative wrapper implementations … which use point-to-point
//! communication" of §III-E, applied uniformly. The drive loop polls
//! checkpoint intent between steps, so a rank waiting inside a collective
//! is *always* in checkpointable state: this is what dissolves the
//! straggler problem (§III-J) and the native-vs-emulated mode-agreement
//! fragility the paper reports around its hybrid algorithm (§III-L: the
//! barrier-free variant "was found to have some flaws"). See DESIGN.md
//! for the analysis.
//!
//! The two protocol variants then differ in exactly one observable:
//!
//! * `TpcMode::Original`: a phase-1 barrier precedes *every* collective —
//!   the measured §III-D slowdown (2-3× on bcast) and the §III-E deadlock
//!   (the root is forced to wait for all members).
//! * `TpcMode::Hybrid`: no barrier, ever. The MPI-standard
//!   root-need-not-wait semantics hold, and the fast path pays nothing.
//!
//! Non-blocking collectives return a virtual request pointing at the
//! state machine (log-and-replay, §III-A): `test`/`wait` advance it, and
//! restart resumes incomplete ones from their serialized state.

use crate::collective_emu::CollOp;
use crate::config::TpcMode;
use crate::error::{ManaError, Result};
use crate::ids::{VComm, VReq};
use crate::mana::{Mana, SafePoint};
use crate::requests::{Binding, VReqKind};
use mpisim::{CollKind, Datatype, ReduceOp};
use obs::metrics as met;
use obs::{EventKind, Phase, NO_ROUND};

impl Mana<'_> {
    /// The id and the sequence number (tag space) of the next emulated
    /// collective on `vc`, blocking or not. Only ever called past the
    /// call's safe point, so no image carries one without its op.
    fn next_coll(&mut self, vc: VComm) -> (u64, u64) {
        (self.collops.next_id(), self.comms.next_emu_seq(vc))
    }

    /// One blocking collective: the wrapper skeleton around the lower
    /// half's collective record; under `TpcMode::Original` (whatever the
    /// drain protocol) the phase-1 barrier; then the op `make(id, seq)`
    /// driven to completion *outside* the bracket, where its poll loop can
    /// service checkpoints.
    fn collective(
        &mut self,
        vc: VComm,
        kind: CollKind,
        make: impl FnOnce(u64, u64) -> CollOp,
    ) -> Result<Vec<u8>> {
        self.wrapper(SafePoint::Here, |m| {
            m.stats.collectives += 1;
            m.emu_record(kind);
            Ok(())
        })?;
        if self.cfg.tpc == TpcMode::Original {
            self.tpc_barrier(vc)?;
        }
        let (id, seq) = self.next_coll(vc);
        self.run_collective(make(id, seq))
    }

    /// Run one blocking collective through the state-machine path.
    fn run_collective(&mut self, op: CollOp) -> Result<Vec<u8>> {
        let id = op.id;
        self.collops.insert(op);
        let out = self.drive_collop(id);
        self.collops.remove(id);
        out
    }

    /// The interruptible 2PC phase-1 barrier (Original mode): an emulated
    /// dissemination barrier whose poll loop services checkpoints, so a
    /// rank waiting for a straggler (§III-J) parks in checkpointable state
    /// instead of blocking inside the lower half.
    fn tpc_barrier(&mut self, vc: VComm) -> Result<()> {
        self.stats.tpc_barriers += 1;
        self.tel.add(met::TPC_BARRIERS, 1);
        let (id, seq) = self.next_coll(vc);
        if self.tel.tracing() {
            // Arrival marker first: cross-rank skew on the same
            // (gid, coll_seq) key is the §III-J straggler signal the
            // analyzer's barrier table measures.
            let gid = self.comms.record(vc).map(|rc| rc.gid).unwrap_or(0);
            self.tel
                .event(NO_ROUND, EventKind::BarrierArrive { gid, coll_seq: seq });
        }
        let wait = self.tel.begin(NO_ROUND, Phase::TpcBarrier);
        let res = self.run_collective(CollOp::barrier(id, vc, seq));
        self.tel.end(wait);
        res.map(|_| ())
    }

    /// Drive an emulated collective to completion, interruptibly: between
    /// polls the rank may service a checkpoint (the op's state lives in
    /// the CollOp table and is serialized with everything else).
    fn drive_collop(&mut self, id: u64) -> Result<Vec<u8>> {
        // If a checkpoint interrupts this wait, Ready reports the gid of
        // the collective we are parked inside (§III-K).
        let gid = self
            .collops
            .get(id)
            .and_then(|op| self.comms.record(op.vcomm))
            .map(|r| r.gid);
        self.cur_collective_gid = gid;
        let driving = self.tel.begin(NO_ROUND, Phase::EmuCollective);
        let res = loop {
            match self.poll_collop(id) {
                Err(e) => break Err(e),
                Ok(true) => {
                    break Ok(self
                        .collops
                        .get(id)
                        .map(|o| o.out.clone())
                        .unwrap_or_default())
                }
                Ok(false) => {}
            }
            if let Err(e) = self.maybe_checkpoint(false) {
                break Err(e);
            }
            if let Err(e) = self.lh.sched_park(self.cfg.poll_interval) {
                break Err(e.into());
            }
        };
        self.tel.end(driving);
        self.cur_collective_gid = None;
        res
    }

    fn emu_record(&mut self, kind: CollKind) {
        self.stats.emu_collectives += 1;
        self.tel.add(met::EMU_COLLECTIVES, 1);
        self.lh.call(|p| p.record_collective_public(kind));
    }

    /// `MPI_Barrier`.
    pub fn barrier(&mut self, vc: VComm) -> Result<()> {
        self.collective(vc, CollKind::Barrier, |id, seq| {
            CollOp::barrier(id, vc, seq)
        })?;
        Ok(())
    }

    /// `MPI_Bcast`. On the root `data` is the message; elsewhere it is
    /// replaced. The root returns as soon as its tree sends are deposited
    /// (MPI-3.1 semantics — unless Original 2PC prepends its barrier).
    pub fn bcast(&mut self, vc: VComm, root: usize, data: &mut Vec<u8>) -> Result<()> {
        let payload = if self.comm_rank(vc)? == root {
            data.clone()
        } else {
            Vec::new()
        };
        *data = self.collective(vc, CollKind::Bcast, |id, seq| {
            CollOp::bcast(id, vc, seq, root, payload)
        })?;
        Ok(())
    }

    /// `MPI_Reduce`: `Some(result)` on the root.
    pub fn reduce(
        &mut self,
        vc: VComm,
        root: usize,
        dt: Datatype,
        op: ReduceOp,
        contrib: &[u8],
    ) -> Result<Option<Vec<u8>>> {
        let me = self.comm_rank(vc)?;
        let out = self.collective(vc, CollKind::Reduce, |id, seq| {
            CollOp::reduce(id, vc, seq, root, dt, op, contrib.to_vec())
        })?;
        Ok((me == root).then_some(out))
    }

    /// `MPI_Allreduce`.
    pub fn allreduce(
        &mut self,
        vc: VComm,
        dt: Datatype,
        op: ReduceOp,
        contrib: &[u8],
    ) -> Result<Vec<u8>> {
        self.collective(vc, CollKind::Allreduce, |id, seq| {
            CollOp::allreduce(id, vc, seq, dt, op, contrib.to_vec())
        })
    }

    /// `MPI_Alltoall` (per-destination chunks).
    pub fn alltoall(&mut self, vc: VComm, chunks: &[Vec<u8>]) -> Result<Vec<Vec<u8>>> {
        let out = self.collective(vc, CollKind::Alltoall, |id, seq| {
            CollOp::alltoall(id, vc, seq, chunks.to_vec())
        })?;
        Ok(mpisim::unframe_chunks(&out)?)
    }

    /// `MPI_Gather`: `Some(per-rank chunks)` on the root.
    pub fn gather(&mut self, vc: VComm, root: usize, data: &[u8]) -> Result<Option<Vec<Vec<u8>>>> {
        let me = self.comm_rank(vc)?;
        let out = self.collective(vc, CollKind::Gather, |id, seq| {
            CollOp::gather(id, vc, seq, root, data.to_vec())
        })?;
        if me == root {
            Ok(Some(mpisim::unframe_chunks(&out)?))
        } else {
            Ok(None)
        }
    }

    /// `MPI_Allgather`.
    pub fn allgather(&mut self, vc: VComm, data: &[u8]) -> Result<Vec<Vec<u8>>> {
        let out = self.collective(vc, CollKind::Allgather, |id, seq| {
            CollOp::allgather(id, vc, seq, data.to_vec())
        })?;
        Ok(mpisim::unframe_chunks(&out)?)
    }

    // ---- typed conveniences ----------------------------------------------

    /// Typed `MPI_Allreduce`.
    pub fn allreduce_t<T: mpisim::Scalar>(
        &mut self,
        vc: VComm,
        op: ReduceOp,
        contrib: &[T],
    ) -> Result<Vec<T>> {
        let bytes = self.allreduce(vc, T::DATATYPE, op, &mpisim::encode_slice(contrib))?;
        mpisim::decode_slice(&bytes).map_err(ManaError::Mpi)
    }

    /// Typed `MPI_Bcast`.
    pub fn bcast_t<T: mpisim::Scalar>(
        &mut self,
        vc: VComm,
        root: usize,
        data: &mut Vec<T>,
    ) -> Result<()> {
        let mut bytes = mpisim::encode_slice(data);
        self.bcast(vc, root, &mut bytes)?;
        *data = mpisim::decode_slice(&bytes).map_err(ManaError::Mpi)?;
        Ok(())
    }

    /// Typed `MPI_Send`.
    pub fn send_t<T: mpisim::Scalar>(
        &mut self,
        vc: VComm,
        dst: usize,
        tag: i32,
        data: &[T],
    ) -> Result<()> {
        self.send(vc, dst, tag, &mpisim::encode_slice(data))
    }

    /// Typed `MPI_Recv`.
    pub fn recv_t<T: mpisim::Scalar>(
        &mut self,
        vc: VComm,
        src: mpisim::SrcSel,
        tag: mpisim::TagSel,
    ) -> Result<(mpisim::Status, Vec<T>)> {
        let (st, bytes) = self.recv(vc, src, tag)?;
        Ok((st, mpisim::decode_slice(&bytes).map_err(ManaError::Mpi)?))
    }

    // ---- non-blocking collectives (log-and-replay; §III-A) ----------------

    /// One non-blocking collective, all of it inside the wrapper skeleton:
    /// allocate the op `make(id, seq)`, kick it once so its initial sends
    /// go out eagerly, bind a request to it. A call that fails leaves no op
    /// behind: no request would point at it, and the checkpoint invariants
    /// reject an in-flight op on a communicator that is not live.
    fn nb_collective(
        &mut self,
        vc: VComm,
        kind: CollKind,
        make: impl FnOnce(u64, u64) -> CollOp,
    ) -> Result<VReq> {
        self.wrapper(SafePoint::Here, |m| {
            m.real_comm(vc)?; // a stale or freed handle allocates nothing
            m.emu_record(kind);
            let (id, seq) = m.next_coll(vc);
            m.collops.insert(make(id, seq));
            if let Err(e) = m.poll_collop(id) {
                m.collops.remove_for_poll(id);
                return Err(e);
            }
            Ok(m.reqs
                .create(VReqKind::Coll { op_id: id }, Binding::Unbound))
        })
    }

    /// `MPI_Ibarrier`.
    pub fn ibarrier(&mut self, vc: VComm) -> Result<VReq> {
        self.nb_collective(vc, CollKind::Barrier, |id, seq| {
            CollOp::barrier(id, vc, seq)
        })
    }

    /// `MPI_Ibcast`; the payload arrives in the completion's `data` on
    /// every rank.
    pub fn ibcast(&mut self, vc: VComm, root: usize, data: Vec<u8>) -> Result<VReq> {
        let payload = if self.comm_rank(vc)? == root {
            data
        } else {
            Vec::new()
        };
        self.nb_collective(vc, CollKind::Bcast, |id, seq| {
            CollOp::bcast(id, vc, seq, root, payload)
        })
    }

    /// `MPI_Iallreduce`; the result arrives in the completion's `data`.
    pub fn iallreduce(
        &mut self,
        vc: VComm,
        dt: Datatype,
        op: ReduceOp,
        contrib: &[u8],
    ) -> Result<VReq> {
        self.nb_collective(vc, CollKind::Allreduce, |id, seq| {
            CollOp::allreduce(id, vc, seq, dt, op, contrib.to_vec())
        })
    }

    /// `MPI_Iallgather`; framed per-rank chunks arrive in the completion's
    /// `data` (decode with [`mpisim::unframe_chunks`]).
    pub fn iallgather(&mut self, vc: VComm, data: &[u8]) -> Result<VReq> {
        self.nb_collective(vc, CollKind::Allgather, |id, seq| {
            CollOp::allgather(id, vc, seq, data.to_vec())
        })
    }

    /// Live emulated-collective count (replay metric, §III-I.4).
    pub fn live_collops(&self) -> usize {
        self.collops.live()
    }
}
