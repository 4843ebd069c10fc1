//! # splitproc — the split-process substrate for MANA-2.0
//!
//! Models the split-process architecture of MANA (paper §II-A) in safe
//! Rust:
//!
//! * [`UpperHalf`] — the application's checkpointable memory: named byte
//!   segments with a typed codec. A checkpoint serializes exactly this.
//! * [`LowerHalf`] — the live MPI endpoint (an [`mpisim::Proc`]), reachable
//!   only through a charged FS-register context switch and never saved.
//! * [`FsMode`]/[`ContextSwitcher`] — the §III-G cost model for the
//!   upper↔lower transition (kernel call vs workaround vs FSGSBASE).
//! * [`codec`] — the binary grammar of all checkpoint metadata and of
//!   every file the store writes: one prefix, one CRC-32 trailer, one
//!   [`FormatError`].
//! * [`CkptImage`] — per-rank checkpoint image files with CRC'd sections.
//! * [`store`] — durable generational checkpoint store: one [`Store`]
//!   handle for atomic image writes, committed-round `MANIFEST`s,
//!   restart-time fallback selection, and retention GC.
//! * [`blobs`] — the five storage operations the store is written
//!   against, the local-filesystem backend, and the fault-injecting
//!   wrapper.
//! * [`journal`] — crash-safe restart journal: one CRC-checked blob per
//!   restart step, landed atomically through [`blobs`] and replayed
//!   idempotently so a coordinator that dies mid-restart resumes instead
//!   of redoing work.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod blobs;
pub mod chunk;
pub mod codec;
mod fsreg;
mod image;
pub mod journal;
mod lowerhalf;
pub mod store;
mod upperhalf;

pub use chunk::{ChunkId, ChunkParams, ChunkRef, Recipe};
pub use codec::{crc32, crc32_combine, CodecError, Crc32, Decode, Encode, FormatError, Reader};
pub use fsreg::{ContextSwitcher, FsMode};
pub use image::{CkptImage, ImageBuf, ImageError, ImageHead, ImageHeader};
pub use journal::{EpochState, Journal, JournalRecord, JournalStep};
pub use lowerhalf::LowerHalf;
pub use store::{
    Blobs, ChunkGcOutcome, FaultyBlobs, GcOutcome, GenInfo, LocalFs, Manifest, ManifestEntry,
    RejectedGeneration, Rejection, Selected, Store, StoreConfig, StoreError, StoreMode, WriteFault,
    WriteOutcome,
};
pub use upperhalf::{UpperHalf, UpperRef};
