//! The lower half: the live MPI endpoint, reachable only via a charged
//! context switch.
//!
//! Split-process rule (paper §II-A): the upper half may call lower-half
//! functions only by jumping through the FS-register switch, and nothing
//! in the lower half is ever checkpointed. [`LowerHalf`] enforces the
//! first property by construction — the only access to the wrapped
//! [`mpisim::Proc`] is through [`LowerHalf::call`], which charges the
//! switch cost both ways — and the second by simply not implementing any
//! serialization.

use crate::fsreg::{ContextSwitcher, FsMode};
use mpisim::Proc;

/// The non-checkpointable half of a MANA rank: the real MPI library.
pub struct LowerHalf<'p> {
    proc: &'p Proc,
    switcher: ContextSwitcher,
}

impl<'p> LowerHalf<'p> {
    /// Wrap a live rank endpoint. The FS-switch cost is scaled by the
    /// world's core slowdown (wrapper code runs on the application core).
    pub fn new(proc: &'p Proc, mode: FsMode) -> Self {
        LowerHalf {
            switcher: ContextSwitcher::scaled(mode, proc.profile().core_slowdown()),
            proc,
        }
    }

    /// Call into the real MPI library (`JUMP_TO_LOWER_HALF` … call …
    /// `RETURN_TO_UPPER_HALF`). Every MANA wrapper funnels through here.
    pub fn call<R>(&self, f: impl FnOnce(&Proc) -> R) -> R {
        self.switcher.jump(|| f(self.proc))
    }

    /// Number of lower-half jumps so far (overhead accounting, §III-I.3:
    /// helpers that jump repeatedly instead of batching show up here).
    pub fn jump_count(&self) -> u64 {
        self.switcher.jump_count()
    }

    /// Simulated nanoseconds spent switching the FS register.
    pub fn total_switch_ns(&self) -> u64 {
        self.switcher.total_switch_ns()
    }

    /// The FS mode in force.
    pub fn fs_mode(&self) -> FsMode {
        self.switcher.mode()
    }

    /// World rank — cached identity information that does not require a
    /// lower-half jump (rank identity lives in upper-half memory in MANA).
    pub fn rank(&self) -> usize {
        self.proc.rank()
    }

    /// World size — likewise jump-free.
    pub fn world_size(&self) -> usize {
        self.proc.world_size()
    }

    /// Park the rank's thread until mail arrives or `timeout` elapses.
    /// Upper-half scheduling (a futex wait, not an MPI call) — no FS
    /// switch is charged.
    pub fn sched_park(&self, timeout: std::time::Duration) -> mpisim::Result<()> {
        self.proc.park(timeout)
    }

    /// Burn `units` of simulated application compute. Upper-half work — no
    /// FS switch is charged.
    pub fn compute_units(&self, units: u64) {
        self.proc.compute(units);
    }

    /// Abort the world (`MPI_Abort` analog): unblocks every peer with an
    /// error. Called by the runtime when a rank fails fatally.
    pub fn abort_world(&self) {
        self.proc.abort_world();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpisim::{EngineKind, World, WorldCfg};

    /// The CI matrix picks the engine through `MANA2_ENGINE`; the library
    /// never reads the environment, so the tests parse the variable.
    fn env_cfg() -> WorldCfg {
        let cfg = WorldCfg::default();
        let engine = std::env::var("MANA2_ENGINE").map_or(cfg.engine, |v| {
            EngineKind::parse(&v).unwrap_or_else(|| panic!("bad MANA2_ENGINE={v:?}"))
        });
        WorldCfg { engine, ..cfg }
    }

    #[test]
    fn call_charges_and_counts() {
        // A real machine profile: switch charges scale with core slowdown
        // (the zero profile deliberately makes switching free).
        let cfg = WorldCfg {
            profile: mpisim::MachineProfile::haswell(),
            ..env_cfg()
        };
        let w = World::new(2, cfg);
        w.launch(|p| {
            let lh = LowerHalf::new(p, FsMode::Fsgsbase);
            let size = lh.call(|proc| proc.world_size());
            assert_eq!(size, 2);
            assert_eq!(lh.jump_count(), 1);
            assert!(lh.total_switch_ns() > 0);
        })
        .unwrap();

        // Zero profile: jumps counted, nothing charged.
        let w = World::new(1, env_cfg());
        w.launch(|p| {
            let lh = LowerHalf::new(p, FsMode::KernelCall);
            lh.call(|_| ());
            assert_eq!(lh.jump_count(), 1);
            assert_eq!(lh.total_switch_ns(), 0);
        })
        .unwrap();
    }

    #[test]
    fn identity_is_jump_free() {
        let w = World::new(3, env_cfg());
        w.launch(|p| {
            let lh = LowerHalf::new(p, FsMode::KernelCall);
            assert_eq!(lh.rank(), p.rank());
            assert_eq!(lh.world_size(), 3);
            assert_eq!(lh.jump_count(), 0, "identity queries must not jump");
        })
        .unwrap();
    }
}
