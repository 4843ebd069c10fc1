//! `MpiFace`: one interface, two backends.
//!
//! The paper's Fig. 2 and Table II compare the *same application* running
//! natively and under MANA. To avoid maintaining two copies of every
//! workload, workloads are written against this trait; [`NativeFace`]
//! drives a bare [`mpisim::Proc`] and [`ManaFace`] drives a
//! [`mana_core::Mana`] handle. State persistence (`save`/`load`) maps to
//! upper-half memory under MANA — so the identical workload code is also
//! checkpoint-resumable — and to a plain map natively.

use mana_core::{Mana, ManaError, VComm, VReq};
use mpisim::{Proc, RReq, ReduceOp, SrcSel, TagSel};
use std::collections::HashMap;

/// Workload-level error, convertible back to either backend's error type.
#[derive(Debug)]
pub enum WlError {
    /// Native backend failure.
    Mpi(mpisim::MpiError),
    /// MANA backend failure (including the checkpoint-exit signal, which
    /// must propagate unscathed).
    Mana(ManaError),
    /// Workload state corruption.
    State(String),
}

impl std::fmt::Display for WlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WlError::Mpi(e) => write!(f, "native MPI: {e}"),
            WlError::Mana(e) => write!(f, "MANA: {e}"),
            WlError::State(s) => write!(f, "workload state: {s}"),
        }
    }
}

impl std::error::Error for WlError {}

impl From<mpisim::MpiError> for WlError {
    fn from(e: mpisim::MpiError) -> Self {
        WlError::Mpi(e)
    }
}

impl From<ManaError> for WlError {
    fn from(e: ManaError) -> Self {
        WlError::Mana(e)
    }
}

impl WlError {
    /// Convert into a MANA error (for closures handed to `ManaRuntime`).
    pub fn into_mana(self) -> ManaError {
        match self {
            WlError::Mana(e) => e,
            WlError::Mpi(e) => ManaError::Mpi(e),
            WlError::State(s) => ManaError::RestartMismatch(s),
        }
    }
}

/// Workload result alias.
pub type WlResult<T> = Result<T, WlError>;

/// Opaque communicator handle at the workload level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CommH(pub u64);

/// The world communicator handle.
pub const COMM_WORLD: CommH = CommH(1);

/// Opaque request handle at the workload level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReqH(pub u64);

/// The MPI-like interface workloads are written against.
pub trait MpiFace {
    /// World rank.
    fn rank(&self) -> usize;
    /// World size.
    fn size(&self) -> usize;
    /// Rank within a communicator.
    fn comm_rank(&mut self, c: CommH) -> WlResult<usize>;
    /// Size of a communicator.
    fn comm_size(&mut self, c: CommH) -> WlResult<usize>;

    /// Blocking send.
    fn send(&mut self, c: CommH, dst: usize, tag: i32, data: &[u8]) -> WlResult<()>;
    /// Non-blocking send.
    fn isend(&mut self, c: CommH, dst: usize, tag: i32, data: &[u8]) -> WlResult<ReqH>;
    /// Non-blocking receive from a specific rank/tag.
    fn irecv(&mut self, c: CommH, src: usize, tag: i32) -> WlResult<ReqH>;
    /// Blocking receive.
    fn recv(&mut self, c: CommH, src: usize, tag: i32) -> WlResult<Vec<u8>>;
    /// Wait for a request; returns the payload (empty for sends).
    fn wait(&mut self, req: ReqH) -> WlResult<Vec<u8>>;

    /// Barrier.
    fn barrier(&mut self, c: CommH) -> WlResult<()>;
    /// f64 allreduce.
    fn allreduce_f64(&mut self, c: CommH, op: ReduceOp, data: &[f64]) -> WlResult<Vec<f64>>;
    /// u64 allreduce.
    fn allreduce_u64(&mut self, c: CommH, op: ReduceOp, data: &[u64]) -> WlResult<Vec<u64>>;
    /// Byte broadcast.
    fn bcast(&mut self, c: CommH, root: usize, data: &mut Vec<u8>) -> WlResult<()>;
    /// Byte alltoall (chunk per destination).
    fn alltoall(&mut self, c: CommH, chunks: &[Vec<u8>]) -> WlResult<Vec<Vec<u8>>>;
    /// Byte gather to root.
    fn gather(&mut self, c: CommH, root: usize, data: &[u8]) -> WlResult<Option<Vec<Vec<u8>>>>;
    /// Communicator split (color < 0 = undefined).
    fn split(&mut self, c: CommH, color: i32, key: i32) -> WlResult<Option<CommH>>;

    /// Simulated compute.
    fn compute(&mut self, units: u64) -> WlResult<()>;
    /// Persist a state blob (upper-half memory under MANA).
    fn save(&mut self, key: &str, bytes: Vec<u8>);
    /// Load a state blob.
    fn load(&self, key: &str) -> Option<Vec<u8>>;
    /// Commit a step boundary (checkpoint location in exit mode; no-op
    /// natively).
    fn step_commit(&mut self) -> WlResult<()>;
    /// Request a checkpoint (no-op natively).
    fn request_checkpoint(&mut self) -> WlResult<()>;
    /// Checkpoint round counter (0 natively).
    fn round(&self) -> u64;
}

// ---- MANA backend --------------------------------------------------------

/// [`MpiFace`] over a MANA handle.
pub struct ManaFace<'a, 'p> {
    m: &'a mut Mana<'p>,
}

impl<'a, 'p> ManaFace<'a, 'p> {
    /// Wrap a MANA handle.
    pub fn new(m: &'a mut Mana<'p>) -> Self {
        ManaFace { m }
    }
}

impl MpiFace for ManaFace<'_, '_> {
    fn rank(&self) -> usize {
        self.m.rank()
    }
    fn size(&self) -> usize {
        self.m.world_size()
    }
    fn comm_rank(&mut self, c: CommH) -> WlResult<usize> {
        Ok(self.m.comm_rank(VComm(c.0))?)
    }
    fn comm_size(&mut self, c: CommH) -> WlResult<usize> {
        Ok(self.m.comm_size(VComm(c.0))?)
    }
    fn send(&mut self, c: CommH, dst: usize, tag: i32, data: &[u8]) -> WlResult<()> {
        Ok(self.m.send(VComm(c.0), dst, tag, data)?)
    }
    fn isend(&mut self, c: CommH, dst: usize, tag: i32, data: &[u8]) -> WlResult<ReqH> {
        Ok(ReqH(self.m.isend(VComm(c.0), dst, tag, data)?.0))
    }
    fn irecv(&mut self, c: CommH, src: usize, tag: i32) -> WlResult<ReqH> {
        Ok(ReqH(
            self.m
                .irecv(VComm(c.0), SrcSel::Rank(src), TagSel::Tag(tag))?
                .0,
        ))
    }
    fn recv(&mut self, c: CommH, src: usize, tag: i32) -> WlResult<Vec<u8>> {
        Ok(self
            .m
            .recv(VComm(c.0), SrcSel::Rank(src), TagSel::Tag(tag))?
            .1)
    }
    fn wait(&mut self, req: ReqH) -> WlResult<Vec<u8>> {
        let mut vr = VReq(req.0);
        Ok(self.m.wait(&mut vr)?.data)
    }
    fn barrier(&mut self, c: CommH) -> WlResult<()> {
        Ok(self.m.barrier(VComm(c.0))?)
    }
    fn allreduce_f64(&mut self, c: CommH, op: ReduceOp, data: &[f64]) -> WlResult<Vec<f64>> {
        Ok(self.m.allreduce_t(VComm(c.0), op, data)?)
    }
    fn allreduce_u64(&mut self, c: CommH, op: ReduceOp, data: &[u64]) -> WlResult<Vec<u64>> {
        Ok(self.m.allreduce_t(VComm(c.0), op, data)?)
    }
    fn bcast(&mut self, c: CommH, root: usize, data: &mut Vec<u8>) -> WlResult<()> {
        Ok(self.m.bcast(VComm(c.0), root, data)?)
    }
    fn alltoall(&mut self, c: CommH, chunks: &[Vec<u8>]) -> WlResult<Vec<Vec<u8>>> {
        Ok(self.m.alltoall(VComm(c.0), chunks)?)
    }
    fn gather(&mut self, c: CommH, root: usize, data: &[u8]) -> WlResult<Option<Vec<Vec<u8>>>> {
        Ok(self.m.gather(VComm(c.0), root, data)?)
    }
    fn split(&mut self, c: CommH, color: i32, key: i32) -> WlResult<Option<CommH>> {
        Ok(self
            .m
            .comm_split(VComm(c.0), color, key)?
            .map(|vc| CommH(vc.0)))
    }
    fn compute(&mut self, units: u64) -> WlResult<()> {
        Ok(self.m.compute(units)?)
    }
    fn save(&mut self, key: &str, bytes: Vec<u8>) {
        self.m.upper_mut().write_segment(key, bytes);
    }
    fn load(&self, key: &str) -> Option<Vec<u8>> {
        self.m.upper().segment(key).map(|s| s.to_vec())
    }
    fn step_commit(&mut self) -> WlResult<()> {
        Ok(self.m.step_commit()?)
    }
    fn request_checkpoint(&mut self) -> WlResult<()> {
        Ok(self.m.request_checkpoint()?)
    }
    fn round(&self) -> u64 {
        self.m.round()
    }
}

// ---- native backend --------------------------------------------------------

/// [`MpiFace`] over a bare simulator rank (no MANA, no checkpointing).
pub struct NativeFace<'p> {
    p: &'p Proc,
    comms: HashMap<u64, mpisim::Comm>,
    next_comm: u64,
    reqs: HashMap<u64, RReq>,
    next_req: u64,
    state: HashMap<String, Vec<u8>>,
}

impl<'p> NativeFace<'p> {
    /// Wrap a rank endpoint.
    pub fn new(p: &'p Proc) -> Self {
        let mut comms = HashMap::new();
        comms.insert(COMM_WORLD.0, p.comm_world());
        NativeFace {
            p,
            comms,
            next_comm: 2,
            reqs: HashMap::new(),
            next_req: 1,
            state: HashMap::new(),
        }
    }

    fn comm(&self, c: CommH) -> WlResult<mpisim::Comm> {
        self.comms
            .get(&c.0)
            .copied()
            .ok_or_else(|| WlError::State(format!("unknown comm handle {}", c.0)))
    }
}

impl MpiFace for NativeFace<'_> {
    fn rank(&self) -> usize {
        self.p.rank()
    }
    fn size(&self) -> usize {
        self.p.world_size()
    }
    fn comm_rank(&mut self, c: CommH) -> WlResult<usize> {
        Ok(self.p.comm_rank(self.comm(c)?)?)
    }
    fn comm_size(&mut self, c: CommH) -> WlResult<usize> {
        Ok(self.p.comm_size(self.comm(c)?)?)
    }
    fn send(&mut self, c: CommH, dst: usize, tag: i32, data: &[u8]) -> WlResult<()> {
        Ok(self.p.send(self.comm(c)?, dst, tag, data)?)
    }
    fn isend(&mut self, c: CommH, dst: usize, tag: i32, data: &[u8]) -> WlResult<ReqH> {
        let r = self.p.isend(self.comm(c)?, dst, tag, data)?;
        let h = self.next_req;
        self.next_req += 1;
        self.reqs.insert(h, r);
        Ok(ReqH(h))
    }
    fn irecv(&mut self, c: CommH, src: usize, tag: i32) -> WlResult<ReqH> {
        let r = self
            .p
            .irecv(self.comm(c)?, SrcSel::Rank(src), TagSel::Tag(tag))?;
        let h = self.next_req;
        self.next_req += 1;
        self.reqs.insert(h, r);
        Ok(ReqH(h))
    }
    fn recv(&mut self, c: CommH, src: usize, tag: i32) -> WlResult<Vec<u8>> {
        Ok(self
            .p
            .recv(self.comm(c)?, SrcSel::Rank(src), TagSel::Tag(tag))?
            .1)
    }
    fn wait(&mut self, req: ReqH) -> WlResult<Vec<u8>> {
        let r = self
            .reqs
            .remove(&req.0)
            .ok_or_else(|| WlError::State(format!("unknown request handle {}", req.0)))?;
        Ok(self.p.wait(r)?.data)
    }
    fn barrier(&mut self, c: CommH) -> WlResult<()> {
        Ok(self.p.barrier(self.comm(c)?)?)
    }
    fn allreduce_f64(&mut self, c: CommH, op: ReduceOp, data: &[f64]) -> WlResult<Vec<f64>> {
        Ok(self.p.allreduce_t(self.comm(c)?, op, data)?)
    }
    fn allreduce_u64(&mut self, c: CommH, op: ReduceOp, data: &[u64]) -> WlResult<Vec<u64>> {
        Ok(self.p.allreduce_t(self.comm(c)?, op, data)?)
    }
    fn bcast(&mut self, c: CommH, root: usize, data: &mut Vec<u8>) -> WlResult<()> {
        Ok(self.p.bcast(self.comm(c)?, root, data)?)
    }
    fn alltoall(&mut self, c: CommH, chunks: &[Vec<u8>]) -> WlResult<Vec<Vec<u8>>> {
        Ok(self.p.alltoall(self.comm(c)?, chunks)?)
    }
    fn gather(&mut self, c: CommH, root: usize, data: &[u8]) -> WlResult<Option<Vec<Vec<u8>>>> {
        Ok(self.p.gather(self.comm(c)?, root, data)?)
    }
    fn split(&mut self, c: CommH, color: i32, key: i32) -> WlResult<Option<CommH>> {
        match self.p.comm_split(self.comm(c)?, color, key)? {
            None => Ok(None),
            Some(sub) => {
                let h = self.next_comm;
                self.next_comm += 1;
                self.comms.insert(h, sub);
                Ok(Some(CommH(h)))
            }
        }
    }
    fn compute(&mut self, units: u64) -> WlResult<()> {
        self.p.compute(units);
        Ok(())
    }
    fn save(&mut self, key: &str, bytes: Vec<u8>) {
        self.state.insert(key.to_owned(), bytes);
    }
    fn load(&self, key: &str) -> Option<Vec<u8>> {
        self.state.get(key).cloned()
    }
    fn step_commit(&mut self) -> WlResult<()> {
        Ok(())
    }
    fn request_checkpoint(&mut self) -> WlResult<()> {
        Ok(())
    }
    fn round(&self) -> u64 {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpisim::run;

    #[test]
    fn native_face_basics() {
        let (out, _) = run(3, crate::test_world(), |p| {
            let mut f = NativeFace::new(p);
            assert_eq!(f.size(), 3);
            let s = f
                .allreduce_u64(COMM_WORLD, ReduceOp::Sum, &[f.rank() as u64])
                .unwrap();
            f.save("k", vec![1, 2]);
            assert_eq!(f.load("k"), Some(vec![1, 2]));
            assert!(f.load("missing").is_none());
            f.step_commit().unwrap();
            s[0]
        })
        .unwrap();
        assert_eq!(out, vec![3, 3, 3]);
    }

    #[test]
    fn native_face_p2p_and_split() {
        let (out, _) = run(4, crate::test_world(), |p| {
            let mut f = NativeFace::new(p);
            let sub = f
                .split(COMM_WORLD, (f.rank() % 2) as i32, 0)
                .unwrap()
                .unwrap();
            let n = f.comm_size(sub).unwrap();
            assert_eq!(n, 2);
            let me = f.comm_rank(sub).unwrap();
            let peer = 1 - me;
            let r = f.irecv(sub, peer, 4).unwrap();
            f.send(sub, peer, 4, &[f.rank() as u8]).unwrap();
            let got = f.wait(r).unwrap();
            got[0] as usize
        })
        .unwrap();
        // Pairs: (0,2) and (1,3) exchange world ranks.
        assert_eq!(out, vec![2, 3, 0, 1]);
    }

    #[test]
    fn bad_handles_error() {
        run(1, crate::test_world(), |p| {
            let mut f = NativeFace::new(p);
            assert!(f.barrier(CommH(99)).is_err());
            assert!(f.wait(ReqH(7)).is_err());
        })
        .unwrap();
    }
}
