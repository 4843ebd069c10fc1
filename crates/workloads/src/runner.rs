//! The one runner: "run kernel K natively, run it under MANA, restart it".
//!
//! A [`Kernel`] is a workload configuration that knows how to run itself
//! on any [`MpiFace`]; [`native`] runs one on a bare simulator world (the
//! reference answer) and [`under_mana`] runs it under a
//! [`ManaRuntime`] — fresh, restarted, or partially restarted. Benches,
//! the chaos families, the transparency tests and the examples all go
//! through these two functions, so the backends' faces are constructed
//! here and nowhere else.

use crate::face::{ManaFace, MpiFace, NativeFace, WlError, WlResult};
use crate::{cg, gromacs, vasp};
use mana_core::{Mana, ManaRuntime, RunReport, RuntimeError};
use mpisim::World;

/// A workload that runs on either backend. `Sync` because one kernel is
/// shared by every rank of a world.
pub trait Kernel: Sync {
    /// Per-rank result.
    type Out: Send + 'static;

    /// Run on `f`, resuming from saved state if `f` holds any.
    fn run<F: MpiFace>(&self, f: &mut F) -> WlResult<Self::Out>;
}

impl Kernel for gromacs::GromacsConfig {
    type Out = gromacs::GromacsResult;
    fn run<F: MpiFace>(&self, f: &mut F) -> WlResult<Self::Out> {
        gromacs::run(f, self)
    }
}

impl Kernel for cg::CgConfig {
    type Out = cg::CgResult;
    fn run<F: MpiFace>(&self, f: &mut F) -> WlResult<Self::Out> {
        cg::run(f, self)
    }
}

impl Kernel for vasp::VaspConfig {
    type Out = vasp::VaspResult;
    fn run<F: MpiFace>(&self, f: &mut F) -> WlResult<Self::Out> {
        vasp::run(f, self)
    }
}

/// Run `k` on every rank of `world` with no MANA layer: the answer MANA
/// must reproduce. The caller keeps the world (for `World::stats`).
pub fn native<K: Kernel>(world: &World, k: &K) -> WlResult<Vec<K::Out>> {
    world
        .launch(|p| k.run(&mut NativeFace::new(p)))
        .map_err(|e| WlError::State(format!("native world: {e}")))?
        .into_iter()
        .collect()
}

/// How [`under_mana`] enters the runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Launch<'a> {
    /// Empty upper halves ([`ManaRuntime::run_fresh`]).
    Fresh,
    /// Every rank rebuilt from its image ([`ManaRuntime::run_restart`]).
    Restart,
    /// Only these ranks replaced ([`ManaRuntime::run_restart_partial`]).
    Partial(&'a [usize]),
}

/// Run `k` under `rt`.
pub fn under_mana<K: Kernel>(
    rt: &ManaRuntime,
    how: Launch<'_>,
    k: &K,
) -> Result<RunReport<K::Out>, RuntimeError> {
    let f = |m: &mut Mana<'_>| k.run(&mut ManaFace::new(m)).map_err(WlError::into_mana);
    match how {
        Launch::Fresh => rt.run_fresh(f),
        Launch::Restart => rt.run_restart(f),
        Launch::Partial(failed) => rt.run_restart_partial(failed, f),
    }
}
