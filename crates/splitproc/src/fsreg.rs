//! The FS-register context-switch cost model (paper §III-G).
//!
//! MANA's split-process design switches the x86 FS register (which anchors
//! thread-local storage) on every upper→lower transition. On kernels
//! without unprivileged FSGSBASE (pre-5.9 — which the paper notes most HPC
//! sites run), each switch is an `arch_prctl` syscall costing on the order
//! of a microsecond; MANA-2.0 added a workaround that avoids most of the
//! kernel cost, and FSGSBASE hardware instructions reduce it to tens of
//! nanoseconds. The three [`FsMode`]s charge those costs per transition so
//! the wrapper-overhead ablation (`ablation_fsreg`) reproduces the ratio.

use mpisim::spin_ns;
use std::cell::Cell;

/// How FS-register switching is performed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsMode {
    /// `arch_prctl(2)` kernel call per switch — the original MANA behaviour
    /// on pre-5.9 kernels (µs-scale).
    KernelCall,
    /// MANA-2.0's user-space workaround for kernels without FSGSBASE
    /// (see paper ref \[19\]).
    Workaround,
    /// Unprivileged FSGSBASE instructions (Linux ≥ 5.9).
    Fsgsbase,
}

impl FsMode {
    /// Simulated nanoseconds charged per FS-register write. Each
    /// upper↔lower transition performs one write, so a full wrapper call
    /// (jump + return) pays twice this.
    pub const fn switch_cost_ns(self) -> u64 {
        match self {
            FsMode::KernelCall => 1500,
            FsMode::Workaround => 130,
            FsMode::Fsgsbase => 40,
        }
    }
}

/// Per-rank context-switch accounting: counts and charges every
/// upper↔lower transition.
#[derive(Debug)]
pub struct ContextSwitcher {
    mode: FsMode,
    cost_ns: u64,
    jumps: Cell<u64>,
}

impl ContextSwitcher {
    /// New switcher in the given mode (reference-core cost).
    pub fn new(mode: FsMode) -> Self {
        Self::scaled(mode, 1.0)
    }

    /// New switcher whose per-switch cost is scaled by the host core's
    /// slowdown (see `mpisim::MachineProfile::core_slowdown`): FS writes
    /// and the surrounding wrapper instructions execute on the
    /// application core.
    pub fn scaled(mode: FsMode, core_slowdown: f64) -> Self {
        ContextSwitcher {
            mode,
            cost_ns: (mode.switch_cost_ns() as f64 * core_slowdown.max(0.0)) as u64,
            jumps: Cell::new(0),
        }
    }

    /// The active mode.
    pub fn mode(&self) -> FsMode {
        self.mode
    }

    /// Execute `f` "in the lower half": charge one FS write on entry and
    /// one on return, mirroring `JUMP_TO_LOWER_HALF`/`RETURN_TO_UPPER_HALF`
    /// in the paper's Fig. 1 wrapper skeleton.
    pub fn jump<R>(&self, f: impl FnOnce() -> R) -> R {
        self.jumps.set(self.jumps.get() + 1);
        spin_ns(self.cost_ns);
        let r = f();
        spin_ns(self.cost_ns);
        r
    }

    /// Number of lower-half jumps performed.
    pub fn jump_count(&self) -> u64 {
        self.jumps.get()
    }

    /// Total simulated nanoseconds spent on FS switching so far.
    pub fn total_switch_ns(&self) -> u64 {
        self.jumps.get() * 2 * self.cost_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn modes_are_ordered_by_cost() {
        assert!(FsMode::KernelCall.switch_cost_ns() > FsMode::Workaround.switch_cost_ns());
        assert!(FsMode::Workaround.switch_cost_ns() > FsMode::Fsgsbase.switch_cost_ns());
    }

    #[test]
    fn jump_counts_and_returns_value() {
        let cs = ContextSwitcher::new(FsMode::Fsgsbase);
        assert_eq!(cs.jump_count(), 0);
        let v = cs.jump(|| 41 + 1);
        assert_eq!(v, 42);
        cs.jump(|| ());
        assert_eq!(cs.jump_count(), 2);
        assert_eq!(
            cs.total_switch_ns(),
            2 * 2 * FsMode::Fsgsbase.switch_cost_ns()
        );
    }

    #[test]
    fn kernel_mode_measurably_slower() {
        let n = 200;
        let time = |mode: FsMode| {
            let cs = ContextSwitcher::new(mode);
            let t = Instant::now();
            for _ in 0..n {
                cs.jump(|| std::hint::black_box(0u64));
            }
            t.elapsed()
        };
        let slow = time(FsMode::KernelCall);
        let fast = time(FsMode::Fsgsbase);
        assert!(
            slow > fast,
            "kernel-call switching should dominate: {slow:?} vs {fast:?}"
        );
    }
}
