//! MANA runtime configuration: every paper-relevant design choice is a
//! knob here so the benchmark harness can ablate it.

use crate::callbacks::CallbackStyle;
use crate::vtable::VtBackend;
use mpisim::Named;
use splitproc::FsMode;
use std::path::PathBuf;
use std::time::Duration;

/// Two-phase-commit protocol variant (paper §III-D/E/J/L).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TpcMode {
    /// Original MANA: an interruptible barrier before *every* collective.
    /// Correctness hazard (§III-E deadlock) and 2-3× bcast slowdown
    /// (§III-D), but simple.
    Original,
    /// MANA-2.0 hybrid: no pre-collective barrier. Collectives run as
    /// intent-polling p2p state machines, which are checkpointable at any
    /// moment — see DESIGN.md §5.6 for why this subsumes the paper's
    /// window switch.
    Hybrid,
}

/// Point-to-point drain algorithm (paper §III-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DrainMode {
    /// MANA-2.0: one `MPI_Alltoall` of per-pair sent-byte counts; each rank
    /// then drains locally with no further coordination.
    Alltoall,
    /// Original MANA baseline: global sent/received totals round-tripped
    /// through the centralized coordinator until they balance.
    Coordinator,
    /// Topological-sort quiesce (arXiv 2408.02218): each rank ships its
    /// per-peer sent/received rows to the coordinator, which orders the
    /// in-flight send→receive dependencies topologically and hands every
    /// rank its exact expected-bytes column. No collective emulation and
    /// no pre-collective barrier are needed.
    TopoSort,
}

/// Short stable names, used in `MANA2_DRAIN`, metrics and artifacts.
impl Named for DrainMode {
    const NAMES: &'static [(Self, &'static str)] = &[
        (DrainMode::Alltoall, "alltoall"),
        (DrainMode::Coordinator, "coordinator"),
        (DrainMode::TopoSort, "toposort"),
    ];
}

impl DrainMode {
    /// Parse a `MANA2_DRAIN` spec: a name, case-insensitive, surrounding
    /// whitespace ignored. Anything else — including an empty string — is
    /// `None`.
    pub fn parse(spec: &str) -> Option<DrainMode> {
        Self::named(&spec.trim().to_ascii_lowercase())
    }
}

/// Communicator-restoration strategy at restart (paper §III-C).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommRestore {
    /// MANA-2.0: recreate only communicators on the active list, directly
    /// from their saved groups.
    ActiveList,
    /// Original MANA baseline: replay every recorded communicator
    /// constructor, including ones for long-freed communicators.
    ReplayLog,
}

/// Full MANA configuration for one run.
#[derive(Debug, Clone)]
pub struct ManaConfig {
    /// Two-phase-commit variant.
    pub tpc: TpcMode,
    /// Drain algorithm.
    pub drain: DrainMode,
    /// Virtual-ID table backend (§III-I.1 ablation).
    pub vtable: VtBackend,
    /// FS-register switching cost model (§III-G).
    pub fs_mode: FsMode,
    /// Communicator-restoration strategy at restart (§III-C ablation).
    pub comm_restore: CommRestore,
    /// Wrapper callback style (§III-H ablation).
    pub callback_style: CallbackStyle,
    /// If true, ranks exit after writing a checkpoint (checkpoint-and-kill,
    /// the mode preceding a restart). If false, ranks resume execution
    /// (the Fig. 3 "checkpoint while running" mode).
    pub exit_after_ckpt: bool,
    /// Root directory of the generational checkpoint store: each round
    /// writes `gen_<round>/ckpt_rank_*.mana` plus a `MANIFEST` committed
    /// by the coordinator once every rank's image is durable.
    pub ckpt_dir: PathBuf,
    /// How many committed checkpoint generations to keep (floor 1). Older
    /// generations are garbage-collected after each committed round.
    pub retain_generations: usize,
    /// Checkpoint-store policy: retry/backoff plus the on-disk layout
    /// (flat by default). Chunked mode splits payloads into a
    /// content-addressed `chunks/` pool so only bytes that changed since
    /// earlier generations are physically written.
    pub store: splitproc::StoreConfig,
    /// Ceiling on a single park in MANA's test loops. Wakeups are
    /// event-driven — message deposits and coordinator traffic unpark the
    /// rank through the engine's parker — so this only bounds the latency
    /// of a (hypothetical) lost wakeup, not the progress cadence.
    pub poll_interval: Duration,
    /// Enable the tools-interface deadlock detector (paper conclusion's
    /// proposed component): if every rank is blocked and no progress
    /// happens for this long, the run fails with
    /// [`crate::runtime::RuntimeError::Deadlock`] carrying a per-rank
    /// blocked-state report instead of hanging.
    pub deadlock_timeout: Option<Duration>,
    /// Deterministic fault plan for chaos testing. Threads the same seeded
    /// plan through the fabric (delays/reordering), the coordinator
    /// channel (latency), and the MANA layer (checkpoint triggers, ready
    /// stalls). `None` disables all injection.
    pub fault: Option<std::sync::Arc<mpisim::FaultPlan>>,
    /// Flight-recorder trace sink. When set, the checkpoint window is
    /// instrumented end to end: per-rank phase spans, drain captures,
    /// store write timings, fabric send/match events, and coordinator
    /// spans all land in the sink's bounded rings, and any
    /// [`crate::runtime::RuntimeError`] dumps them as JSONL +
    /// Chrome-trace files. `None` (the default) records nothing.
    pub trace: Option<std::sync::Arc<obs::TraceSink>>,
    /// Metrics registry for the always-on metrics plane. `None` (the
    /// default) makes [`crate::runtime::ManaRuntime`] create a fresh
    /// per-run registry, so every [`crate::runtime::RunReport`] carries a
    /// final snapshot; pass a shared registry to aggregate several runs
    /// (e.g. a checkpoint leg and its restart leg) into one series.
    pub metrics: Option<std::sync::Arc<obs::metrics::MetricsRegistry>>,
}

impl Default for ManaConfig {
    /// The MANA-2.0 configuration: hybrid 2PC, alltoall drain, flat store.
    /// A pure value — the environment is read only by
    /// [`crate::env::from_env`], which starts from this.
    fn default() -> Self {
        ManaConfig {
            tpc: TpcMode::Hybrid,
            drain: DrainMode::Alltoall,
            vtable: VtBackend::FxHash,
            fs_mode: FsMode::Workaround,
            comm_restore: CommRestore::ActiveList,
            callback_style: CallbackStyle::Prepared,
            exit_after_ckpt: false,
            ckpt_dir: std::env::temp_dir().join("mana2_ckpt"),
            retain_generations: 2,
            store: splitproc::StoreConfig::default(),
            poll_interval: Duration::from_millis(5),
            deadlock_timeout: None,
            fault: None,
            trace: None,
            metrics: None,
        }
    }
}

impl ManaConfig {
    /// The configuration matching the paper's "master branch" (used in the
    /// C/R experiments): original 2PC, lambda wrappers, tree-map tables,
    /// and the alltoall drain that branch shipped with.
    pub fn master_branch() -> Self {
        ManaConfig {
            tpc: TpcMode::Original,
            drain: DrainMode::Alltoall,
            vtable: VtBackend::BTree,
            callback_style: CallbackStyle::Lambda,
            fs_mode: FsMode::KernelCall,
            ..ManaConfig::default()
        }
    }

    /// The configuration matching the "feature/2pc" branch (Table II):
    /// hybrid 2PC, lambda removal, plus the FS workaround.
    pub fn feature_2pc_branch() -> Self {
        ManaConfig {
            tpc: TpcMode::Hybrid,
            vtable: VtBackend::FxHash,
            callback_style: CallbackStyle::Prepared,
            fs_mode: FsMode::Workaround,
            ..ManaConfig::default()
        }
    }

    /// The resolved ablation switches of a run under `engine`, for the
    /// header of every flight dump and metrics series. Values are the
    /// lower-cased variant names.
    pub fn record(&self, engine: &mpisim::EngineKind) -> obs::ConfigRecord {
        let lower = |v: &dyn std::fmt::Debug| format!("{v:?}").to_ascii_lowercase();
        obs::ConfigRecord::new([
            ("engine", engine.to_string()),
            ("tpc", lower(&self.tpc)),
            ("drain", self.drain.name().to_string()),
            ("store", self.store.mode.name().to_string()),
            ("vtable", lower(&self.vtable)),
            ("fs_mode", lower(&self.fs_mode)),
            ("comm_restore", lower(&self.comm_restore)),
            ("callback_style", lower(&self.callback_style)),
            ("retain_generations", self.retain_generations.to_string()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_the_modern_config() {
        let c = ManaConfig::default();
        assert_eq!(c.tpc, TpcMode::Hybrid);
        assert_eq!(c.drain, DrainMode::Alltoall);
        assert_eq!(c.vtable, VtBackend::FxHash);
        assert_eq!(c.fs_mode, FsMode::Workaround);
        assert_eq!(c.comm_restore, CommRestore::ActiveList);
        assert_eq!(c.callback_style, CallbackStyle::Prepared);
        assert_eq!(c.store, splitproc::StoreConfig::default());
        assert_eq!(c.store.mode, splitproc::StoreMode::Flat);
        assert_eq!(c.retain_generations, 2);
        assert!(!c.exit_after_ckpt);
    }

    #[test]
    fn record_names_every_ablation_switch() {
        let engine = mpisim::EngineKind::Coop(mpisim::CoopCfg {
            workers: 2,
            sched_seed: 42,
        });
        let rec = ManaConfig::master_branch().record(&engine);
        assert_eq!(
            rec.to_string(),
            "engine=coop:2:42 tpc=original drain=alltoall store=flat vtable=btree \
             fs_mode=kernelcall comm_restore=activelist callback_style=lambda \
             retain_generations=2"
        );
    }

    #[test]
    fn drain_parse_accepts_known_modes() {
        assert_eq!(DrainMode::parse("alltoall"), Some(DrainMode::Alltoall));
        assert_eq!(DrainMode::parse("  TopoSort "), Some(DrainMode::TopoSort));
        assert_eq!(
            DrainMode::parse("coordinator"),
            Some(DrainMode::Coordinator)
        );
    }

    #[test]
    fn drain_parse_rejects_unknown_value() {
        assert_eq!(DrainMode::parse("topological"), None);
        assert_eq!(DrainMode::parse("alltoall2"), None);
    }

    #[test]
    fn drain_parse_rejects_empty_string() {
        assert_eq!(DrainMode::parse(""), None);
        assert_eq!(DrainMode::parse("   "), None);
    }

    #[test]
    fn branch_presets_differ_where_the_paper_says() {
        let master = ManaConfig::master_branch();
        let feat = ManaConfig::feature_2pc_branch();
        assert_eq!(master.tpc, TpcMode::Original);
        assert_eq!(feat.tpc, TpcMode::Hybrid);
        assert_ne!(master.callback_style, feat.callback_style);
    }
}
