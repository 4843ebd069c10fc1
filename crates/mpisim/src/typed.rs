//! Typed convenience wrappers over the byte-level API.
//!
//! Workloads and MANA internals mostly move `f64`/`u64` arrays; these
//! helpers keep call sites free of manual encode/decode noise.

use crate::comm::Comm;
use crate::datatype::{decode_slice, encode_slice, Scalar};
use crate::envelope::{SrcSel, TagSel};
use crate::error::{MpiError, Result};
use crate::op::ReduceOp;
use crate::proc_::Proc;
use crate::request::{RReq, Status};

impl Proc {
    /// Typed `MPI_Send`.
    pub fn send_t<T: Scalar>(&self, comm: Comm, dst: usize, tag: i32, data: &[T]) -> Result<()> {
        self.send(comm, dst, tag, &encode_slice(data))
    }

    /// Typed `MPI_Isend`.
    pub fn isend_t<T: Scalar>(&self, comm: Comm, dst: usize, tag: i32, data: &[T]) -> Result<RReq> {
        self.isend(comm, dst, tag, &encode_slice(data))
    }

    /// Typed `MPI_Recv`.
    pub fn recv_t<T: Scalar>(
        &self,
        comm: Comm,
        src: SrcSel,
        tag: TagSel,
    ) -> Result<(Status, Vec<T>)> {
        let (status, bytes) = self.recv(comm, src, tag)?;
        Ok((status, decode_slice(&bytes)?))
    }

    /// Typed `MPI_Bcast`.
    pub fn bcast_t<T: Scalar>(&self, comm: Comm, root: usize, data: &mut Vec<T>) -> Result<()> {
        let mut bytes = encode_slice(data);
        self.bcast(comm, root, &mut bytes)?;
        *data = decode_slice(&bytes)?;
        Ok(())
    }

    /// Typed `MPI_Reduce`.
    pub fn reduce_t<T: Scalar>(
        &self,
        comm: Comm,
        root: usize,
        op: ReduceOp,
        contrib: &[T],
    ) -> Result<Option<Vec<T>>> {
        match self.reduce(comm, root, T::DATATYPE, op, &encode_slice(contrib))? {
            None => Ok(None),
            Some(bytes) => Ok(Some(decode_slice(&bytes)?)),
        }
    }

    /// Typed `MPI_Allreduce`.
    pub fn allreduce_t<T: Scalar>(
        &self,
        comm: Comm,
        op: ReduceOp,
        contrib: &[T],
    ) -> Result<Vec<T>> {
        let bytes = self.allreduce(comm, T::DATATYPE, op, &encode_slice(contrib))?;
        decode_slice(&bytes)
    }

    /// Typed `MPI_Scan` (inclusive).
    pub fn scan_t<T: Scalar>(&self, comm: Comm, op: ReduceOp, contrib: &[T]) -> Result<Vec<T>> {
        let bytes = self.scan(comm, T::DATATYPE, op, &encode_slice(contrib))?;
        decode_slice(&bytes)
    }

    /// `MPI_Alltoall` of exactly one `u64` per peer — the shape MANA-2.0's
    /// drain uses to exchange per-pair sent-byte counts (§III-B).
    /// `vals[i]` goes to local rank `i`; `out[j]` is what local rank `j`
    /// sent to us.
    pub fn alltoall_u64(&self, comm: Comm, vals: &[u64]) -> Result<Vec<u64>> {
        let chunks: Vec<Vec<u8>> = vals.iter().map(|v| v.to_le_bytes().to_vec()).collect();
        let out = self.alltoall(comm, &chunks)?;
        out.into_iter()
            .map(|c| {
                <[u8; 8]>::try_from(c.as_slice())
                    .map(u64::from_le_bytes)
                    .map_err(|_| MpiError::LengthMismatch {
                        expected: 8,
                        got: c.len(),
                    })
            })
            .collect()
    }
}
