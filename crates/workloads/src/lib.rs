//! # workloads — synthetic HPC applications for the MANA-2.0 reproduction
//!
//! The paper evaluates MANA-2.0 with GROMACS (point-to-point-intensive
//! molecular dynamics) and VASP (collective-intensive materials science).
//! This crate provides deterministic, resumable kernels with the same
//! communication skeletons, written against the [`MpiFace`] trait so the
//! *identical* workload code runs natively on `mpisim` (the Fig. 2 / Table
//! II baselines) and under `mana-core` (the measured system):
//!
//! * [`gromacs`] — halo-exchange MD kernel (Fig. 2, Fig. 3).
//! * [`vasp`] — SCF kernel with the nine Table I cases (Table I, Table II,
//!   Fig. 4).
//! * [`cg`] — a conjugate-gradient solver whose numerical convergence is
//!   an end-to-end correctness oracle across checkpoint/restart.
//! * [`scenarios`] — the §III-E deadlock pattern and the §III-J straggler.
//! * [`runner`] — the [`Kernel`] trait the three kernels implement, and
//!   the one [`native`] / [`under_mana`] pair everything runs them with.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cg;
pub mod face;
pub mod gromacs;
pub mod runner;
pub mod scenarios;
pub mod vasp;

pub use face::{CommH, ManaFace, MpiFace, NativeFace, ReqH, WlError, WlResult, COMM_WORLD};
pub use runner::{native, under_mana, Kernel, Launch};

/// World configuration for this crate's unit tests: the CI matrix picks
/// the engine through `MANA2_ENGINE`.
#[cfg(test)]
pub(crate) fn test_world() -> mpisim::WorldCfg {
    mana_core::from_env().expect("MANA2_* environment").world
}
