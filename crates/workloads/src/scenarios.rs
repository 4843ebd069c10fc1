//! Pathological scenarios from the paper: the §III-E deadlock pattern and
//! the §III-J straggler.

use crate::face::{MpiFace, WlResult, COMM_WORLD};
use crate::Kernel;
use mpisim::ReduceOp;

/// [`deadlock_pattern`] with this payload, as a kernel.
pub struct Deadlock(pub u64);

impl Kernel for Deadlock {
    type Out = u64;
    fn run<F: MpiFace>(&self, f: &mut F) -> WlResult<u64> {
        deadlock_pattern(f, self.0)
    }
}

/// [`straggler_pattern`] as a kernel.
pub struct Straggler {
    /// Compute units rank 0 spends before joining the collective.
    pub units: u64,
    /// Does rank 0 request a checkpoint before computing?
    pub request_ckpt: bool,
}

impl Kernel for Straggler {
    type Out = u64;
    fn run<F: MpiFace>(&self, f: &mut F) -> WlResult<u64> {
        straggler_pattern(f, self.units, self.request_ckpt)
    }
}

/// The §III-E deadlock pattern. Rank 0 broadcasts (as root) and *then*
/// sends the message rank 1 needs before rank 1 can enter the broadcast:
///
/// ```text
/// rank 0: MPI_Bcast(root=0); MPI_Send(→1)
/// rank 1: MPI_Recv(←0);      MPI_Bcast
/// ```
///
/// Legal under MPI-3.1 (the root need not wait for receivers). Deadlocks
/// iff the checkpointing layer turns the broadcast into a barrier — which
/// is exactly what the original MANA's two-phase commit did. Ranks ≥ 2
/// only participate in the broadcast.
///
/// Returns the broadcast value observed by this rank.
pub fn deadlock_pattern<M: MpiFace>(m: &mut M, payload: u64) -> WlResult<u64> {
    let w = COMM_WORLD;
    match m.rank() {
        0 => {
            let mut data = mpisim::encode_slice(&[payload]);
            m.bcast(w, 0, &mut data)?; // must return without waiting
            m.send(w, 1, 1, &mpisim::encode_slice(&[payload + 1]))?;
            Ok(payload)
        }
        1 => {
            let go = m.recv(w, 0, 1)?;
            assert_eq!(mpisim::decode_slice::<u64>(&go)?[0], payload + 1);
            let mut data = Vec::new();
            m.bcast(w, 0, &mut data)?;
            Ok(mpisim::decode_slice::<u64>(&data)?[0])
        }
        _ => {
            let mut data = Vec::new();
            m.bcast(w, 0, &mut data)?;
            Ok(mpisim::decode_slice::<u64>(&data)?[0])
        }
    }
}

/// The §III-J straggler: rank 0 computes for `straggler_units` while every
/// other rank waits in a collective. A checkpoint requested during the
/// compute must complete *without* waiting for the straggler to reach the
/// collective (the waiting ranks are in checkpointable MANA-level state).
///
/// Returns the allreduce result.
pub fn straggler_pattern<M: MpiFace>(
    m: &mut M,
    straggler_units: u64,
    request_ckpt: bool,
) -> WlResult<u64> {
    let w = COMM_WORLD;
    if m.rank() == 0 {
        if request_ckpt {
            m.request_checkpoint()?;
        }
        m.compute(straggler_units)?;
    }
    let s = m.allreduce_u64(w, ReduceOp::Sum, &[m.rank() as u64 + 1])?;
    Ok(s[0])
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpisim::World;

    #[test]
    fn deadlock_pattern_is_legal_mpi() {
        // Natively (true MPI semantics) the pattern completes.
        let out = crate::native(&World::new(3, crate::test_world()), &Deadlock(40));
        assert_eq!(out.unwrap(), vec![40, 40, 40]);
    }

    #[test]
    fn straggler_pattern_completes_natively() {
        let kernel = Straggler {
            units: 10_000,
            request_ckpt: false,
        };
        let out = crate::native(&World::new(4, crate::test_world()), &kernel);
        assert_eq!(out.unwrap(), vec![10, 10, 10, 10]);
    }
}
