//! Virtual object handles (paper §II-C).
//!
//! A virtual ID is what the application stores in *its* memory; the
//! virtual→real mapping lives in MANA's tables. On restart the real
//! objects are gone (the lower half is rebuilt), the virtual IDs are not —
//! MANA simply rebinds them. Virtual IDs are therefore plain integers with
//! stable, serializable values.

/// Virtual communicator handle stored in application memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VComm(pub u64);

/// `MPI_COMM_NULL`.
pub const VCOMM_NULL: VComm = VComm(0);
/// `MPI_COMM_WORLD` (pre-bound in every table).
pub const VCOMM_WORLD: VComm = VComm(1);

impl VComm {
    /// Is this the null communicator?
    pub fn is_null(self) -> bool {
        self == VCOMM_NULL
    }
}

/// Virtual request handle stored in application memory.
///
/// MANA-2.0's request-retirement algorithm (§III-A) overwrites the
/// application's request variable with [`VREQ_NULL`] once the request is
/// retired — wrappers here take `&mut VReq` for exactly that purpose.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VReq(pub u64);

/// `MPI_REQUEST_NULL`.
pub const VREQ_NULL: VReq = VReq(0);

impl VReq {
    /// Is this the null request?
    pub fn is_null(self) -> bool {
        self == VREQ_NULL
    }
}

splitproc::wire!(VComm { 0 });
splitproc::wire!(VReq { 0 });

#[cfg(test)]
mod tests {
    use super::*;
    use splitproc::{Decode, Encode};

    #[test]
    fn null_predicates() {
        assert!(VCOMM_NULL.is_null());
        assert!(!VCOMM_WORLD.is_null());
        assert!(VREQ_NULL.is_null());
        assert!(!VReq(3).is_null());
    }

    #[test]
    fn codec_roundtrip() {
        let bytes = VComm(99).to_bytes();
        assert_eq!(VComm::from_bytes(&bytes).unwrap(), VComm(99));
        let bytes = VReq(7).to_bytes();
        assert_eq!(VReq::from_bytes(&bytes).unwrap(), VReq(7));
    }
}
