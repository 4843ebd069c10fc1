//! MANA-layer error type.

use mpisim::MpiError;
use splitproc::{CodecError, ImageError};
use std::fmt;

/// Errors surfaced by the MANA-2.0 layer.
#[derive(Debug)]
pub enum ManaError {
    /// The underlying (lower-half) MPI library failed.
    Mpi(MpiError),
    /// Checkpoint metadata serialization failed.
    Codec(CodecError),
    /// Checkpoint image I/O failed.
    Image(ImageError),
    /// A virtual communicator handle did not resolve.
    InvalidVComm(u64),
    /// A virtual request handle did not resolve.
    InvalidVReq(u64),
    /// The application used a tag inside MANA's reserved band.
    ReservedTag(i32),
    /// Control-flow signal: a checkpoint was written and the configuration
    /// requested exit-after-checkpoint (checkpoint-and-kill, the mode used
    /// before a restart). Not a failure: the runtime converts it into
    /// [`crate::runtime::AppOutcome::Checkpointed`].
    CkptExit,
    /// The world was aborted while this rank was talking to the
    /// coordinator (or a peer panicked inside a coordinator transition):
    /// collateral of another rank's failure, never the cause.
    CoordinatorGone,
    /// A rank waited this long for the coordinator's next message and none
    /// came: some peer never reached the protocol step everyone else is
    /// waiting on (deaf to checkpoint intent, wedged in application code).
    CoordinatorTimeout(std::time::Duration),
    /// The coordinator answered with a message the protocol does not allow
    /// at this point. Always a bug in the checkpoint protocol.
    Protocol {
        /// The reply the rank was waiting for.
        awaiting: &'static str,
        /// What arrived instead.
        got: crate::coordinator::CoordMsg,
    },
    /// Restart-time inconsistency (e.g. image world size mismatch).
    RestartMismatch(String),
    /// A restart step could not be made durable in the restart journal.
    Journal(std::io::Error),
    /// An injected `RestartKill` fault killed the restart at journal-step
    /// boundary `k`. Models the coordinator dying mid-restart: the
    /// journal is left exactly as the crash would leave it and a
    /// subsequent restart must resume from it. Only ever produced under
    /// a chaos fault plan, never in normal operation.
    RestartKilled {
        /// Which journal-step boundary (0-based, global counter) died.
        step: u64,
    },
    /// A checkpoint-window invariant was violated: the drain left traffic
    /// in flight, a request is in an illegal retirement state, or the
    /// active-communicator list disagrees with the live bindings. Always a
    /// bug in the checkpoint protocol, never an application error — the
    /// chaos suite exists to surface these.
    InvariantViolation(String),
}

impl fmt::Display for ManaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ManaError::Mpi(e) => write!(f, "lower-half MPI error: {e}"),
            ManaError::Codec(e) => write!(f, "checkpoint codec error: {e}"),
            ManaError::Image(e) => write!(f, "checkpoint image error: {e}"),
            ManaError::InvalidVComm(v) => write!(f, "invalid virtual communicator {v}"),
            ManaError::InvalidVReq(v) => write!(f, "invalid virtual request {v}"),
            ManaError::ReservedTag(t) => {
                write!(f, "tag {t} is inside MANA's reserved internal band")
            }
            ManaError::CkptExit => write!(f, "checkpoint written; exiting as configured"),
            ManaError::CoordinatorGone => write!(f, "checkpoint coordinator disappeared"),
            ManaError::CoordinatorTimeout(d) => {
                write!(f, "no message from the checkpoint coordinator in {d:?}")
            }
            ManaError::Protocol { awaiting, got } => {
                write!(f, "coordinator protocol: awaiting {awaiting}, got {got:?}")
            }
            ManaError::RestartMismatch(s) => write!(f, "restart mismatch: {s}"),
            ManaError::Journal(e) => write!(f, "restart journal append failed: {e}"),
            ManaError::RestartKilled { step } => {
                write!(
                    f,
                    "restart killed at journal-step boundary {step} (injected)"
                )
            }
            ManaError::InvariantViolation(s) => {
                write!(f, "checkpoint invariant violated: {s}")
            }
        }
    }
}

impl std::error::Error for ManaError {}

impl From<MpiError> for ManaError {
    fn from(e: MpiError) -> Self {
        ManaError::Mpi(e)
    }
}

impl From<CodecError> for ManaError {
    fn from(e: CodecError) -> Self {
        ManaError::Codec(e)
    }
}

impl From<ImageError> for ManaError {
    fn from(e: ImageError) -> Self {
        ManaError::Image(e)
    }
}

/// Result alias for MANA-layer calls.
pub type Result<T> = std::result::Result<T, ManaError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        let e: ManaError = MpiError::Timeout.into();
        assert!(matches!(e, ManaError::Mpi(MpiError::Timeout)));
        let e: ManaError = CodecError::BadUtf8.into();
        assert!(matches!(e, ManaError::Codec(_)));
    }

    #[test]
    fn display() {
        assert!(ManaError::InvalidVComm(7).to_string().contains('7'));
        assert!(ManaError::CkptExit.to_string().contains("checkpoint"));
    }
}
