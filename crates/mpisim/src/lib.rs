//! # mpisim — a simulated MPI runtime for MANA-2.0 experiments
//!
//! `mpisim` is the *lower half* of this repository's split-process model:
//! an MPI-3.1-subset library whose ranks are OS threads and whose network
//! is an in-memory mailbox fabric with **explicit in-flight message
//! state** — a message exists in the network from the moment a send
//! deposits it until a matching receive removes it. That visible gap is
//! exactly what MANA-2.0's drain algorithm (paper §III-B) must empty
//! before a checkpoint, and why a real MPI library (not a toy rendezvous)
//! is the substrate here.
//!
//! ## Semantics implemented
//!
//! * **Point-to-point**: `send`/`isend`/`recv`/`irecv`/`test`/`wait`/
//!   `iprobe`/`probe` with `ANY_SOURCE`/`ANY_TAG` wildcards, eager sends,
//!   non-overtaking matching (posted receives match in post order,
//!   envelopes in arrival order), truncation errors, and
//!   `MPI_Request_get_status`-style non-destructive completion checks.
//! * **Collectives**: dissemination barrier, binomial-tree bcast (the root
//!   returns before receivers arrive — the semantics §III-D/E revolve
//!   around), binomial reduce, allreduce, alltoall (rows gathered at
//!   local rank 0, columns scattered back), gather/scatter/allgather,
//!   inclusive scan, and `comm_split`.
//! * **Communicators & groups**: full group algebra
//!   (incl/excl/union/intersection/difference/translate_ranks), `comm_dup`,
//!   `comm_create_group`, `comm_free`, context-id agreement via a
//!   registry rendezvous.
//! * **Introspection**: per-pair user-byte matrices, per-kind collective
//!   counters, in-flight accounting — the ground truth the paper's
//!   figures and this repo's property tests are built on.
//!
//! ## Example
//!
//! ```
//! use mpisim::{run, WorldCfg, ReduceOp, SrcSel, TagSel};
//!
//! let (sums, stats) = run(4, WorldCfg::default(), |p| {
//!     let world = p.comm_world();
//!     // Ring: send my rank right, receive from the left.
//!     let right = (p.rank() + 1) % p.world_size();
//!     let left = (p.rank() + p.world_size() - 1) % p.world_size();
//!     p.send_t(world, right, 7, &[p.rank() as u64]).unwrap();
//!     let (_st, got) = p.recv_t::<u64>(world, SrcSel::Rank(left), TagSel::Tag(7)).unwrap();
//!     // Then a collective sum of what everyone received.
//!     p.allreduce_t(world, ReduceOp::Sum, &got).unwrap()[0]
//! })
//! .unwrap();
//! assert_eq!(sums, vec![6, 6, 6, 6]); // 0+1+2+3
//! assert_eq!(stats.user_msgs, 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod collective;
mod comm;
mod costmodel;
mod datatype;
mod engine;
mod envelope;
mod error;
mod fault;
mod group;
mod names;
mod network;
mod onesided;
mod op;
mod proc_;
mod request;
mod stats;
mod tools;
mod trace;
mod typed;
mod world;

pub use collective::{frame_chunks, unframe_chunks};
pub use comm::{Comm, CommRegistry};
pub use costmodel::{spin_ns, MachineProfile};
pub use datatype::{decode_slice, encode_slice, Datatype, Scalar};
pub use engine::{
    CoopCfg, EngineKind, EngineMetrics, Parker, SchedDecision, ScheduleDivergence, SchedulePolicy,
    ScheduleRecorder, ScheduleScript, Unparker, UnparkerRef,
};
pub use envelope::{Envelope, MatchSpec, MsgClass, SrcSel, TagSel, INTERNAL_TAG_BIT, MAX_USER_TAG};
pub use error::{MpiError, Result};
pub use fault::{
    splitmix64, FaultPlan, FaultSpec, Fnv1a, Perturb, StorageFault, StorageFaultKind,
    StorageFaultSpec,
};
pub use group::{fnv1a_usizes, Group, GroupRelation};
pub use names::Named;
pub use network::{Mailbox, Network};
pub use onesided::{Win, WinRegistry};
pub use op::{reduce_bytes, ReduceOp};
pub use proc_::Proc;
pub use request::{Completion, RReq, Status};
pub use stats::{CollKind, StatsSnapshot, WorldStats, COLL_KIND_NAMES, N_COLL_KINDS};
pub use tools::{describe, BlockKind, RankActivity, ToolsState};
pub use trace::{TraceHook, TraceHookRef};
pub use world::{run, Introspect, World, WorldCfg, WorldError};

/// The guard of a lock result, even when a panicking rank poisoned the
/// lock: that rank poisons the *world* ([`Network::poison`]), and its
/// peers must see the poison as an error, not as a cascade of panics.
fn unpoisoned<G>(r: std::sync::LockResult<G>) -> G {
    r.unwrap_or_else(std::sync::PoisonError::into_inner)
}
