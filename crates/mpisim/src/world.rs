//! World lifecycle: run an SPMD closure as every rank on the engine, join.
//!
//! A [`World`] is disposable by design: MANA-2.0's restart path tears the
//! whole lower half down and builds a fresh one (split-process model,
//! paper §II-A) — in this simulator that is literally dropping one `World`
//! and constructing another.

use crate::comm::CommRegistry;
use crate::costmodel::MachineProfile;
use crate::engine::{CoopCfg, CoopEngine, EngineKind, Parker, SchedulePolicy, UnparkerRef};
use crate::error::MpiError;
use crate::network::Network;
use crate::onesided::WinRegistry;
use crate::proc_::Proc;
use crate::stats::{StatsSnapshot, WorldStats};
use crate::tools::{RankActivity, ToolsState};
use crate::unpoisoned;
use std::fmt;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Configuration for a world run.
#[derive(Debug, Clone)]
pub struct WorldCfg {
    /// Machine cost profile.
    pub profile: MachineProfile,
    /// Watchdog: blocking calls poison the world and fail with
    /// [`MpiError::Timeout`] once this much wall time has elapsed since
    /// launch. `None` disables the watchdog (production default); tests of
    /// deadlock scenarios set it.
    pub watchdog: Option<Duration>,
    /// Stack size per rank thread. Ranks are plentiful and mostly parked,
    /// and their stacks are the dominant per-rank cost, so the default is
    /// small (256 KiB).
    pub stack_size: usize,
    /// How the engine runs the ranks: its worker count and schedule seed
    /// (auto workers, seed 0 by default).
    pub engine: EngineKind,
    /// How the scheduler picks among ready ranks: the seeded default, a
    /// recording run, or an explicit choice-vector replay.
    pub schedule: SchedulePolicy,
    /// Seed for any randomized behaviour in workloads (plumbed through,
    /// unused by the runtime itself).
    pub seed: u64,
    /// Deterministic fault plan perturbing user traffic on the fabric.
    /// `None` (the default) leaves the network unperturbed.
    pub fault: Option<Arc<crate::fault::FaultPlan>>,
    /// Fabric trace hook (send/match/hold events). `None` (the default)
    /// records nothing and costs one pointer check per event site.
    pub trace: Option<crate::trace::TraceHookRef>,
}

impl Default for WorldCfg {
    fn default() -> Self {
        WorldCfg {
            profile: MachineProfile::zero(),
            watchdog: None,
            stack_size: 256 * 1024,
            engine: EngineKind::Coop(CoopCfg::default()),
            schedule: SchedulePolicy::Seeded,
            seed: 0,
            fault: None,
            trace: None,
        }
    }
}

/// Shared state of one world (the "fabric"): network, communicator
/// registry, statistics, configuration.
pub(crate) struct Fabric {
    pub n: usize,
    pub cfg: WorldCfg,
    pub net: Network,
    pub comms: CommRegistry,
    pub wins: WinRegistry,
    pub stats: WorldStats,
    pub tools: ToolsState,
    pub deadline: Option<Instant>,
}

/// Failure of a world run.
#[derive(Debug)]
pub enum WorldError {
    /// One or more ranks panicked; payload lists their world ranks.
    Panicked(Vec<usize>),
    /// One or more ranks returned an MPI error; payload lists (rank, error).
    RankErrors(Vec<(usize, MpiError)>),
}

impl fmt::Display for WorldError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorldError::Panicked(ranks) => write!(f, "ranks panicked: {ranks:?}"),
            WorldError::RankErrors(errs) => write!(f, "rank errors: {errs:?}"),
        }
    }
}

impl std::error::Error for WorldError {}

/// A simulated MPI world.
pub struct World {
    fabric: Arc<Fabric>,
    engine: Arc<CoopEngine>,
}

impl World {
    /// Build a world of `n` ranks (execution starts at [`World::launch`]).
    pub fn new(n: usize, cfg: WorldCfg) -> World {
        assert!(n > 0, "world must have at least one rank");
        let deadline = cfg.watchdog.map(|d| Instant::now() + d);
        let EngineKind::Coop(coop) = cfg.engine;
        let engine = CoopEngine::new(n, coop, cfg.schedule.clone());
        World {
            fabric: Arc::new(Fabric {
                n,
                net: Network::new(n, cfg.fault.clone(), cfg.trace.clone(), engine.clone()),
                comms: CommRegistry::new(n),
                wins: WinRegistry::new(),
                stats: WorldStats::new(n),
                tools: ToolsState::new(n),
                deadline,
                cfg,
            }),
            engine,
        }
    }

    /// The engine's shared activity counters (unparks, ready-queue
    /// depth), for the MANA layer's metrics plane to sample.
    pub fn engine_metrics(&self) -> Arc<crate::engine::EngineMetrics> {
        self.engine.metrics.clone()
    }

    /// Rank `rank`'s parker — the blocking primitive its own thread of
    /// execution uses. External components (the MANA coordinator) hand
    /// this to the rank so *all* its waits route through the engine.
    pub fn parker(&self, rank: usize) -> Parker {
        self.engine.parker(rank)
    }

    /// One unparker per rank, for external components that need to wake
    /// ranks out of parks (the coordinator on message delivery / intent).
    pub fn unparkers(&self) -> Vec<UnparkerRef> {
        (0..self.fabric.n)
            .map(|r| self.engine.unparker(r))
            .collect()
    }

    /// Number of ranks.
    pub fn size(&self) -> usize {
        self.fabric.n
    }

    /// Run `f` as every rank on the engine and join. Each rank's return
    /// value is collected in rank order.
    ///
    /// If any rank panics, the world is poisoned (so blocked peers unblock
    /// with [`MpiError::Poisoned`]) and `Err(WorldError::Panicked)` is
    /// returned.
    pub fn launch<T, F>(&self, f: F) -> Result<Vec<T>, WorldError>
    where
        T: Send,
        F: Fn(&mut Proc) -> T + Send + Sync,
    {
        let fabric = &self.fabric;
        // The engine runs a plain `Fn(usize)` body; per-rank results come
        // back through slots.
        let slots: Vec<Mutex<Option<std::thread::Result<T>>>> =
            (0..fabric.n).map(|_| Mutex::new(None)).collect();
        let body = |rank: usize| {
            let mut proc = Proc::new(rank, Arc::clone(fabric));
            let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&mut proc)));
            if out.is_err() {
                fabric.net.poison();
            }
            *unpoisoned(slots[rank].lock()) = Some(out);
        };
        self.engine.run(fabric.cfg.stack_size, &body);
        let mut panicked = Vec::new();
        let mut out = Vec::with_capacity(fabric.n);
        for (rank, slot) in slots.into_iter().enumerate() {
            match unpoisoned(slot.into_inner()).expect("rank body never ran") {
                Ok(v) => out.push(v),
                Err(_) => panicked.push(rank),
            }
        }
        if panicked.is_empty() {
            Ok(out)
        } else {
            Err(WorldError::Panicked(panicked))
        }
    }

    /// Like [`World::launch`] for closures returning `Result`, flattening
    /// rank-level MPI errors into [`WorldError::RankErrors`].
    pub fn launch_result<T, F>(&self, f: F) -> Result<Vec<T>, WorldError>
    where
        T: Send,
        F: Fn(&mut Proc) -> crate::error::Result<T> + Send + Sync,
    {
        let results = self.launch(f)?;
        let mut errs = Vec::new();
        let mut out = Vec::with_capacity(results.len());
        for (rank, r) in results.into_iter().enumerate() {
            match r {
                Ok(v) => out.push(v),
                Err(e) => errs.push((rank, e)),
            }
        }
        if errs.is_empty() {
            Ok(out)
        } else {
            Err(WorldError::RankErrors(errs))
        }
    }

    /// Snapshot of the world's statistics counters.
    pub fn stats(&self) -> StatsSnapshot {
        self.fabric.stats.snapshot()
    }

    /// (messages, bytes) currently in the network.
    pub fn in_flight(&self) -> (usize, usize) {
        self.fabric.net.in_flight()
    }

    /// Number of live communicators (including the world communicator).
    pub fn live_comms(&self) -> usize {
        self.fabric.comms.live_count()
    }

    /// Obtain an introspection handle usable from another thread while the
    /// world is running (the MPI tools-interface analog; used by MANA's
    /// deadlock detector).
    pub fn introspect(&self) -> Introspect {
        Introspect {
            fabric: Arc::clone(&self.fabric),
        }
    }
}

/// Cross-thread introspection handle over a running world.
#[derive(Clone)]
pub struct Introspect {
    fabric: Arc<Fabric>,
}

impl Introspect {
    /// Per-rank activity snapshot.
    pub fn activity(&self) -> Vec<RankActivity> {
        self.fabric.tools.snapshot()
    }

    /// (messages, bytes) currently in the network.
    pub fn in_flight(&self) -> (usize, usize) {
        self.fabric.net.in_flight()
    }

    /// (messages, bytes) of user-class traffic currently in the network,
    /// including fault-held envelopes. This is the quantity MANA's drain
    /// must bring to zero before a checkpoint commits; the coordinator's
    /// commit-time invariant checker reads it through this handle.
    pub fn user_in_flight(&self) -> (usize, usize) {
        self.fabric.net.user_in_flight()
    }

    /// World size.
    pub fn size(&self) -> usize {
        self.fabric.n
    }

    /// Poison the world: every blocked call unblocks with
    /// [`MpiError::Poisoned`]. Used by external supervisors (deadlock
    /// detector) to convert a hang into an error.
    pub fn poison(&self) {
        self.fabric.net.poison();
    }

    /// Is the world poisoned (rank panic, abort, watchdog or supervisor)?
    /// Poisoning unparks every rank, so a component that blocks a rank
    /// outside the fabric re-checks this after each park.
    pub fn is_poisoned(&self) -> bool {
        self.fabric.net.is_poisoned()
    }
}

/// Convenience: build a world, launch `f`, return results and stats.
pub fn run<T, F>(n: usize, cfg: WorldCfg, f: F) -> Result<(Vec<T>, StatsSnapshot), WorldError>
where
    T: Send,
    F: Fn(&mut Proc) -> T + Send + Sync,
{
    let w = World::new(n, cfg);
    let out = w.launch(f)?;
    Ok((out, w.stats()))
}

/// World configuration for this crate's unit tests: the CI matrix picks
/// the engine through `MANA2_ENGINE`. The library never reads the
/// environment (`mana_core::from_env`, above this crate, is the one
/// production reader), so the tests parse the variable themselves.
#[cfg(test)]
pub(crate) fn test_cfg() -> WorldCfg {
    let cfg = WorldCfg::default();
    let engine = std::env::var("MANA2_ENGINE").map_or(cfg.engine, |v| {
        EngineKind::parse(&v).unwrap_or_else(|| panic!("bad MANA2_ENGINE={v:?}"))
    });
    WorldCfg { engine, ..cfg }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_auto_workers_on_small_stacks() {
        let cfg = WorldCfg::default();
        assert_eq!(cfg.engine, EngineKind::Coop(CoopCfg::default()));
        assert_eq!(cfg.stack_size, 256 * 1024);
    }

    #[test]
    fn launch_collects_in_rank_order() {
        let w = World::new(5, test_cfg());
        let out = w.launch(|p| p.rank() * 10).unwrap();
        assert_eq!(out, vec![0, 10, 20, 30, 40]);
    }

    #[test]
    fn panic_reports_rank_and_poisons() {
        let w = World::new(3, test_cfg());
        let r = w.launch(|p| {
            if p.rank() == 1 {
                panic!("boom");
            }
            p.rank()
        });
        match r {
            Err(WorldError::Panicked(ranks)) => assert_eq!(ranks, vec![1]),
            other => panic!("expected panic error, got {other:?}"),
        }
    }

    #[test]
    fn launch_result_flattens_errors() {
        let w = World::new(2, test_cfg());
        let r = w.launch_result(|p| {
            if p.rank() == 0 {
                Err(MpiError::Shutdown)
            } else {
                Ok(p.rank())
            }
        });
        match r {
            Err(WorldError::RankErrors(errs)) => {
                assert_eq!(errs, vec![(0, MpiError::Shutdown)])
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn single_rank_world() {
        let (out, stats) = run(1, test_cfg(), |p| p.world_size()).unwrap();
        assert_eq!(out, vec![1]);
        assert_eq!(stats.user_msgs, 0);
    }
}
