//! # mana-core — MANA-2.0 transparent checkpointing for MPI, in Rust
//!
//! A from-scratch reproduction of the MANA-2.0 system (Xu et al., SC 2021):
//! transparent checkpoint-restart of MPI applications via wrapper
//! interposition on the MPI API, built on the split-process model.
//!
//! ## Architecture (paper §II)
//!
//! Each rank holds a [`Mana`] handle — the "stub MPI library". Every call
//! follows the Fig. 1 wrapper skeleton: commit-begin, virtual→real
//! translation, a charged jump into the lower half (the live
//! [`mpisim`] endpoint), the real call, and commit-finish. Only upper-half
//! state (application memory + MANA's tables) is ever checkpointed; the
//! lower half is discarded at checkpoint and rebuilt at restart — which is
//! what makes the design MPI-agnostic and network-agnostic.
//!
//! ## The §III algorithms, by module
//!
//! | Paper | Module |
//! |---|---|
//! | §III-A request virtualization, two-step retirement | [`requests`] |
//! | §III-B alltoall drain (+ legacy coordinator drain) | `Mana` checkpoint path, [`p2p_log`] |
//! | §III-C active-communicator restart (+ replay-log baseline) | [`comm_mgr`] |
//! | §III-D/E/J/L two-phase commit, original & hybrid; p2p-emulated collectives | [`config::TpcMode`], [`collective_emu`] |
//! | §III-F Fortran named constants | [`fortran`] |
//! | §III-G FS-register cost (via `splitproc`) | [`config::ManaConfig`] `fs_mode` |
//! | §III-H lambda vs prepare/finish wrappers | [`callbacks`] |
//! | §III-I.1 vtable backends | [`vtable`] |
//! | §III-K globally-unique communicator IDs | [`comm_mgr::global_comm_id`] |
//! | coordinator protocol | [`coordinator`], its flush [`flush`] |
//!
//! ## Quick start
//!
//! ```
//! use mana_core::{ManaConfig, ManaRuntime};
//! use mpisim::ReduceOp;
//!
//! let rt = ManaRuntime::new(4, ManaConfig::default());
//! let report = rt
//!     .run_fresh(|m| {
//!         let world = m.comm_world();
//!         let sum = m.allreduce_t(world, ReduceOp::Sum, &[m.rank() as u64])?;
//!         Ok(sum[0])
//!     })
//!     .unwrap();
//! assert_eq!(report.values(), vec![6, 6, 6, 6]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod callbacks;
pub mod collective_emu;
pub mod comm_mgr;
pub mod config;
pub mod coordinator;
mod drain_strategy;
pub mod env;
pub mod error;
pub mod flush;
pub mod fortran;
pub mod fxhash;
pub mod ids;
pub mod invariants;
mod mana;
mod mana_ckpt;
mod mana_coll;
mod mana_fortran;
mod mana_win;
pub mod p2p_log;
pub mod requests;
pub mod runtime;
mod trace_adapter;
pub mod vtable;

pub use obs;

pub use callbacks::{CallbackStyle, CommitState};
pub use collective_emu::{emu_tag, CollOp, CollOpTable, EmuIo, EmuKind, IRecvSlot, MANA_TAG_BASE};
pub use comm_mgr::{global_comm_id, CommManager, CommRecord};
pub use config::{CommRestore, DrainMode, ManaConfig, TpcMode};
pub use coordinator::{
    topo_order, AbortedRound, CkptRoundStats, CommitCheck, CoordHandle, CoordReport, CoordSetup,
    Coordinator, TopoPlan,
};
pub use env::{from_env, ConfigError, EnvConfig};
pub use error::{ManaError, Result};
pub use fortran::{FortranConstants, NamedConstant};
pub use ids::{VComm, VReq, VCOMM_NULL, VCOMM_WORLD, VREQ_NULL};
pub use invariants::check_journal;
pub use mana::{Mana, ManaStats};
pub use mana_ckpt::ManaMeta;
pub use mana_win::{VWin, WinManager, WinMeta, WinRecord};
pub use p2p_log::{DrainBuffer, DrainedMsg, P2pLog};
pub use requests::{Binding, RequestManager, StoredCompletion, VReqEntry, VReqKind};
pub use runtime::{AppOutcome, ManaRuntime, Outputs, RestartMode, RunReport, RuntimeError};
pub use trace_adapter::FabricTraceAdapter;
pub use vtable::{VirtualTable, VtBackend};
