//! `ManaRuntime`: launches a world of MANA-wrapped ranks plus the
//! coordinator, runs an application closure on every rank, and harvests
//! outcomes, statistics, and checkpoint-round reports.
//!
//! A *restart* run is the split-process story end-to-end: a brand-new
//! world (fresh lower half), each rank rebuilt from its image
//! ([`crate::mana::Mana`]`::restore`), the same application closure
//! re-entered — it finds its position in upper-half memory and continues.

use crate::config::ManaConfig;
use crate::coordinator::{self, CommitCheck, CoordReport, CoordSetup};
use crate::error::{ManaError, Result};
use crate::mana::{Mana, ManaStats};
use mpisim::{StatsSnapshot, World, WorldCfg};
use obs::metrics as met;
use splitproc::journal::{Journal, JournalStep};
use splitproc::store;
use std::fmt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// How one rank's application run ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AppOutcome<T> {
    /// The closure ran to completion.
    Finished(T),
    /// A checkpoint was written and the configuration requested
    /// exit-after-checkpoint; restart with [`ManaRuntime::run_restart`].
    Checkpointed,
}

impl<T> AppOutcome<T> {
    /// The finished value, if any.
    pub fn finished(self) -> Option<T> {
        match self {
            AppOutcome::Finished(v) => Some(v),
            AppOutcome::Checkpointed => None,
        }
    }

    /// Did this rank checkpoint-and-exit?
    pub fn is_checkpointed(&self) -> bool {
        matches!(self, AppOutcome::Checkpointed)
    }
}

/// What a restart run replaces. This is the restart *scope* — distinct
/// from [`crate::config::CommRestore`], which picks the communicator
/// *restoration strategy* used once the scope is decided.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RestartMode {
    /// Rebuild every rank from the selected generation.
    Full,
    /// Replace only `failed` ranks from the newest committed generation
    /// whose *failed-rank* images validate. Survivor ranks re-enter the
    /// world with their images read leniently — a survivor whose on-disk
    /// image has since rotted cannot veto the restart — and communicators
    /// are rebuilt around them. Only the failed ranks' restores are
    /// journaled.
    Partial {
        /// The ranks being replaced (sorted, deduplicated).
        failed: Vec<usize>,
    },
}

/// Everything a run produces.
#[derive(Debug)]
pub struct RunReport<T> {
    /// Per-rank outcomes in rank order.
    pub outcomes: Vec<AppOutcome<T>>,
    /// Lower-half (network) statistics.
    pub world_stats: StatsSnapshot,
    /// Per-rank MANA statistics.
    pub rank_stats: Vec<ManaStats>,
    /// Coordinator report (one entry per checkpoint round).
    pub coord: CoordReport,
    /// For restart runs: the committed generation the world was rebuilt
    /// from (it may be older than the newest on disk if newer generations
    /// failed validation). `None` for fresh runs.
    pub restored_round: Option<u64>,
    /// For restart runs: the ranks whose images were store-validated and
    /// journaled as restored — every rank for a full restart, exactly the
    /// failed set for a partial one. `None` for fresh runs.
    pub restored_ranks: Option<Vec<usize>>,
    /// Final metrics snapshot of the run's registry (always present on a
    /// successful run; merged across every rank, the coordinator, and the
    /// process-level samplers).
    pub metrics: Option<met::MetricsSnapshot>,
}

impl<T> RunReport<T> {
    /// All ranks finished (no checkpoint-and-exit).
    pub fn all_finished(&self) -> bool {
        self.outcomes
            .iter()
            .all(|o| matches!(o, AppOutcome::Finished(_)))
    }

    /// All ranks checkpointed-and-exited.
    pub fn all_checkpointed(&self) -> bool {
        self.outcomes.iter().all(|o| o.is_checkpointed())
    }

    /// Finished values in rank order (panics on a checkpointed rank).
    pub fn values(self) -> Vec<T> {
        self.outcomes
            .into_iter()
            .map(|o| o.finished().expect("rank checkpointed, not finished"))
            .collect()
    }
}

/// Runtime failure.
#[derive(Debug)]
pub enum RuntimeError {
    /// The world itself failed (rank panic).
    World(String),
    /// A rank returned a MANA error.
    Rank(usize, ManaError),
    /// The tools-interface deadlock detector fired; the payload is the
    /// per-rank blocked-state report.
    Deadlock(String),
    /// The coordinator's commit-time invariant checker found the global
    /// quiesced state inconsistent (e.g. user traffic still in flight when
    /// a checkpoint round committed). The payload lists the violations.
    Invariant(String),
    /// Restart found no usable checkpoint generation (or the store itself
    /// failed); the payload names every rejected generation and why.
    Store(store::StoreError),
    /// An injected `RestartKill` fault (chaos testing) killed the restart
    /// at the given journal-step boundary. The journal on disk is exactly
    /// what a real mid-restart crash would leave behind; rerunning the
    /// restart resumes the open epoch from it.
    RestartKilled {
        /// The 0-based global journal-step boundary that died.
        step: u64,
    },
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::World(s) => write!(f, "world failure: {s}"),
            RuntimeError::Rank(r, e) => write!(f, "rank {r}: {e}"),
            RuntimeError::Deadlock(report) => write!(f, "deadlock detected:\n{report}"),
            RuntimeError::Invariant(s) => {
                write!(f, "checkpoint commit invariant violated: {s}")
            }
            RuntimeError::Store(e) => write!(f, "checkpoint store: {e}"),
            RuntimeError::RestartKilled { step } => {
                write!(
                    f,
                    "restart killed at journal-step boundary {step} (injected)"
                )
            }
        }
    }
}

impl std::error::Error for RuntimeError {}

/// Why a run failed and, when `error` names one rank, what the other
/// failed ranks died of: `(rank, error)`, the flight dump's `rank_errors`.
struct Failure {
    error: RuntimeError,
    collateral: Vec<(usize, String)>,
}

impl From<RuntimeError> for Failure {
    fn from(error: RuntimeError) -> Self {
        Failure {
            error,
            collateral: Vec::new(),
        }
    }
}

/// The rank a [`JournalStep`]'s flight-recorder payload names: the
/// restored rank, else `-1`.
fn obs_rank(step: &JournalStep) -> i64 {
    match step {
        JournalStep::RankRestored { rank } => *rank as i64,
        _ => -1,
    }
}

/// Shared restart-protocol state: the open journal, the epoch being
/// driven, and the injected kill point. One instance per restart run,
/// shared by the pre-spawn coordinator-side steps and every rank closure.
struct RestartGuard {
    journal: Mutex<Journal>,
    /// The restart epoch this run is driving (resumed or freshly opened).
    epoch: u64,
    /// Kill the restart at this journal-step boundary (chaos only).
    kill_at: Option<u64>,
    /// Global boundary counter. Each [`RestartGuard::step`] passes two
    /// boundaries — one before and one after the durable append — so a
    /// sweep over `kill_at` crashes the restart both just-before and
    /// just-after every record it would write.
    boundary: AtomicU64,
    /// Ranks still restoring; the last one to finish journals the
    /// world-level `CommsRebuilt` and `RestartCommitted` steps.
    remaining: AtomicUsize,
    /// Partial (survivor-preserving) restart? Picks which restart
    /// counter/histogram the committed epoch lands in.
    partial: bool,
    /// When the restart preamble began; `RestartCommitted` observes the
    /// elapsed wall time as the restart-duration histogram sample.
    started: Instant,
}

impl RestartGuard {
    fn kill_point(&self, tel: &obs::Telemetry) -> Result<()> {
        let Some(k) = self.kill_at else {
            return Ok(());
        };
        if self.boundary.fetch_add(1, Ordering::SeqCst) == k {
            tel.fault_fired(obs::NO_ROUND, obs::FaultKind::RestartKill);
            tel.add(met::RESTART_KILLS, 1);
            return Err(ManaError::RestartKilled { step: k });
        }
        Ok(())
    }

    /// Drive one protocol step as the actor behind `tel`: kill point,
    /// durable idempotent append, trace event, kill point. Returns whether
    /// the record was freshly written (`false` means a resumed restart
    /// found it already durable and skipped it — the step is never
    /// redone).
    fn step(&self, tel: &obs::Telemetry, step: JournalStep) -> Result<bool> {
        self.kill_point(tel)?;
        let fresh = self
            .journal
            .lock()
            .expect("restart journal lock poisoned")
            .append(self.epoch, step.clone())
            .map_err(ManaError::Journal)?;
        if fresh {
            tel.add(met::JOURNAL_APPENDS, 1);
        }
        match &step {
            // A resumed restart re-restores the rank even when the record
            // was already durable, so the counter tracks work done this
            // run, not fresh journal records.
            JournalStep::RankRestored { .. } => {
                tel.add(met::RESTART_RANKS_RESTORED, 1);
            }
            JournalStep::RestartCommitted => {
                let (count, latency) = if self.partial {
                    (met::RESTARTS_PARTIAL, met::RESTART_PARTIAL_NS)
                } else {
                    (met::RESTARTS_FULL, met::RESTART_FULL_NS)
                };
                tel.add(count, 1);
                tel.observe(latency, self.started.elapsed());
            }
            _ => {}
        }
        tel.event(
            obs::NO_ROUND,
            obs::EventKind::JournalAppend {
                epoch: self.epoch,
                step: step.trace_step(),
                rank: obs_rank(&step),
                fresh,
            },
        );
        self.kill_point(tel)?;
        Ok(fresh)
    }
}

/// Where a run's diagnostics land.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outputs {
    /// Directory for flight-recorder dumps (written on any
    /// [`RuntimeError`] when [`ManaConfig::trace`] is armed).
    pub trace_dir: PathBuf,
    /// Live metrics export: when set, a background thread appends one
    /// registry snapshot every [`obs::metrics::EXPORT_INTERVAL`] to a
    /// JSONL series in this directory, and writes nothing else there.
    /// `None` (the default) streams nothing; the registry itself is
    /// always on.
    pub metrics_dir: Option<PathBuf>,
}

impl Default for Outputs {
    /// Dumps under `<tmp>/mana2_traces`, no live export.
    fn default() -> Self {
        Outputs {
            trace_dir: std::env::temp_dir().join("mana2_traces"),
            metrics_dir: None,
        }
    }
}

/// Launch configuration for MANA-wrapped worlds.
pub struct ManaRuntime {
    n: usize,
    cfg: ManaConfig,
    world_cfg: WorldCfg,
    outputs: Outputs,
}

impl ManaRuntime {
    /// Runtime for `n` ranks with default world settings and outputs.
    pub fn new(n: usize, cfg: ManaConfig) -> Self {
        ManaRuntime {
            n,
            cfg,
            world_cfg: WorldCfg::default(),
            outputs: Outputs::default(),
        }
    }

    /// Override the world (machine profile / watchdog / engine)
    /// configuration.
    pub fn with_world_cfg(mut self, wc: WorldCfg) -> Self {
        self.world_cfg = wc;
        self
    }

    /// Select the execution engine for the world.
    pub fn with_engine(mut self, engine: mpisim::EngineKind) -> Self {
        self.world_cfg.engine = engine;
        self
    }

    /// Override where flight dumps land and whether metrics are exported
    /// live.
    pub fn with_outputs(mut self, outputs: Outputs) -> Self {
        self.outputs = outputs;
        self
    }

    /// Number of ranks.
    pub fn size(&self) -> usize {
        self.n
    }

    /// The MANA configuration.
    pub fn config(&self) -> &ManaConfig {
        &self.cfg
    }

    /// Fresh run: empty upper halves.
    pub fn run_fresh<T, F>(&self, f: F) -> std::result::Result<RunReport<T>, RuntimeError>
    where
        T: Send + 'static,
        F: Fn(&mut Mana<'_>) -> Result<T> + Send + Sync,
    {
        self.run_inner(None, f)
    }

    /// Restart run: each rank is rebuilt from its image in
    /// `cfg.ckpt_dir`, then `f` is re-entered. Every restart step is
    /// journaled (crash-safe, idempotent): if the process dies mid-restart
    /// — modeled by the chaos `RestartKill` fault — calling `run_restart`
    /// again resumes the open journal epoch instead of redoing completed
    /// steps.
    pub fn run_restart<T, F>(&self, f: F) -> std::result::Result<RunReport<T>, RuntimeError>
    where
        T: Send + 'static,
        F: Fn(&mut Mana<'_>) -> Result<T> + Send + Sync,
    {
        self.run_inner(Some(RestartMode::Full), f)
    }

    /// Partial (survivor-preserving) restart: only `failed` ranks must
    /// restore from pristine, store-validated images — a survivor whose
    /// on-disk image has rotted cannot veto generation selection.
    /// Communicators are rebuilt across the whole world, and only the
    /// failed ranks' restores are journaled as `RankRestored`.
    pub fn run_restart_partial<T, F>(
        &self,
        failed: &[usize],
        f: F,
    ) -> std::result::Result<RunReport<T>, RuntimeError>
    where
        T: Send + 'static,
        F: Fn(&mut Mana<'_>) -> Result<T> + Send + Sync,
    {
        let mut failed: Vec<usize> = failed.to_vec();
        failed.sort_unstable();
        failed.dedup();
        if failed.is_empty() {
            return Err(RuntimeError::World(
                "partial restart needs a non-empty failed-rank set".into(),
            ));
        }
        if let Some(&r) = failed.iter().find(|&&r| r >= self.n) {
            return Err(RuntimeError::World(format!(
                "partial restart of rank {r} in a {}-rank world",
                self.n
            )));
        }
        self.run_inner(Some(RestartMode::Partial { failed }), f)
    }

    fn run_inner<T, F>(
        &self,
        restart: Option<RestartMode>,
        f: F,
    ) -> std::result::Result<RunReport<T>, RuntimeError>
    where
        T: Send + 'static,
        F: Fn(&mut Mana<'_>) -> Result<T> + Send + Sync,
    {
        // The run's metrics registry: the always-on plane every layer
        // below records into. A caller-supplied registry (cfg.metrics)
        // aggregates several runs into one series; otherwise the run gets
        // a fresh one and its final snapshot rides out in the RunReport.
        let reg = self
            .cfg
            .metrics
            .clone()
            .unwrap_or_else(|| met::MetricsRegistry::standard(self.n));
        // Restart: replay the journal and pick the generation *before*
        // spawning anything. Failing here is cheap; failing inside the
        // launched world is a mess.
        let tel = obs::Telemetry::new(obs::COORD_ACTOR, self.cfg.trace.clone(), Some(reg.clone()));
        let prepared = restart
            .as_ref()
            .map(|mode| self.prepare_restart(mode, &tel))
            .transpose()
            .map_err(|e| self.failed(e.into(), &reg.snapshot()))?;
        let mut world_cfg = self.world_cfg.clone();
        if world_cfg.fault.is_none() {
            world_cfg.fault = self.cfg.fault.clone();
        }
        if world_cfg.trace.is_none() {
            if let Some(sink) = &self.cfg.trace {
                world_cfg.trace =
                    Some(crate::trace_adapter::FabricTraceAdapter::hook(sink.clone()));
            }
        }
        let world = World::new(self.n, world_cfg);
        // Process-level sampler: pulls engine counters (mpisim stays
        // metrics-agnostic) and the trace rings' drop count into the
        // registry. Runs on every exporter tick and once at run end, so
        // the final snapshot is current even without an exporter.
        let sample: Arc<dyn Fn(&met::MetricsRegistry) + Send + Sync> = {
            let engine = world.engine_metrics();
            let sink = self.cfg.trace.clone();
            // ENGINE_UNPARKS must stay a monotone counter in the registry,
            // so the sampler feeds it deltas of the engine's raw total.
            let prev_unparks = Mutex::new(0u64);
            Arc::new(move |reg: &met::MetricsRegistry| {
                let cur = engine.unparks.load(Ordering::Relaxed);
                let mut prev = prev_unparks.lock().expect("unpark sampler lock poisoned");
                if cur > *prev {
                    reg.add(met::PROCESS_ACTOR, met::ENGINE_UNPARKS, cur - *prev);
                    *prev = cur;
                }
                drop(prev);
                reg.gauge_set(
                    met::PROCESS_ACTOR,
                    met::ENGINE_READY_RANKS,
                    engine.ready_depth.load(Ordering::Relaxed),
                );
                if let Some(s) = &sink {
                    reg.gauge_set(met::PROCESS_ACTOR, met::TRACE_DROPPED_EVENTS, s.dropped());
                }
            })
        };
        // Live export is opt-in (`Outputs::metrics_dir`); the registry
        // itself is always on.
        let exporter = self.outputs.metrics_dir.as_ref().and_then(|dir| {
            let meta = obs::JsonlHeader {
                label: obs::unique_label(if restart.is_some() {
                    "mana2_restart"
                } else {
                    "mana2_run"
                }),
                ranks: self.n,
                seed: self.cfg.fault.as_ref().map(|f| f.seed()),
                config: self.cfg.record(&self.world_cfg.engine),
            };
            met::MetricsExporter::spawn(reg.clone(), dir, meta, sample.clone())
                .map_err(|e| eprintln!("mana2: metrics exporter failed to start: {e}"))
                .ok()
        });
        // The commit-time invariant checker reads the world through an
        // introspection handle: a round must not commit with user traffic
        // still in flight.
        let commit_check: CommitCheck = {
            let intro = world.introspect();
            Box::new(move |round| {
                let (msgs, bytes) = intro.user_in_flight();
                if msgs != 0 || bytes != 0 {
                    return Err(format!(
                        "round {round} committed with user traffic in flight: \
                         {msgs} message(s) / {bytes} byte(s)"
                    ));
                }
                Ok(())
            })
        };
        let result = self.run_world(&world, restart, prepared, commit_check, f, &reg);
        // One teardown, however the run ended: a last sample, the
        // exporter drained, one merged snapshot — which rides out in the
        // report, or beside the flight dump of the failure.
        sample(&reg);
        if let Some(ex) = exporter {
            if let Err(e) = ex.finish() {
                eprintln!("mana2: metrics exporter finish failed: {e}");
            }
        }
        let snap = reg.snapshot();
        match result {
            Ok(mut report) => {
                report.metrics = Some(snap);
                Ok(report)
            }
            Err(failure) => Err(self.failed(failure, &snap)),
        }
    }

    /// Launch `world` with its coordinator and deadlock detector, run `f`
    /// on every rank (restored from `prepared` on a restart), and join
    /// everything. The report comes back without its metrics snapshot;
    /// [`ManaRuntime::run_inner`] takes that once, for success and failure
    /// alike.
    fn run_world<T, F>(
        &self,
        world: &World,
        restart: Option<RestartMode>,
        prepared: Option<(store::Selected, Arc<RestartGuard>)>,
        commit_check: CommitCheck,
        f: F,
        reg: &Arc<met::MetricsRegistry>,
    ) -> std::result::Result<RunReport<T>, Failure>
    where
        T: Send + 'static,
        F: Fn(&mut Mana<'_>) -> Result<T> + Send + Sync,
    {
        let (selected, guard) = match prepared {
            Some((sel, g)) => (Some(sel), Some(g)),
            None => (None, None),
        };
        let restored_round = selected.as_ref().map(|s| s.round);
        let restored_ranks = restart.as_ref().map(|m| match m {
            RestartMode::Full => (0..self.n).collect::<Vec<_>>(),
            RestartMode::Partial { failed } => failed.clone(),
        });
        let handles = coordinator::connect(
            world,
            CoordSetup {
                exit_after_ckpt: self.cfg.exit_after_ckpt,
                // Round numbers keep advancing across restarts so a new
                // round never reuses (and on abort, never deletes) the
                // generation directory of a previously committed round.
                initial_round: restored_round.map(|r| r + 1).unwrap_or(0),
                commit_check,
                ckpt_store: Some((Arc::new(self.store()), self.cfg.retain_generations)),
                fault: self.cfg.fault.clone(),
                trace: self.cfg.trace.clone(),
                metrics: Some(reg.clone()),
            },
        );
        // Each rank's verified image starts in its slot, where the rank
        // restores from it.
        let restored = selected.into_iter().flat_map(|sel| sel.images);
        for (handle, image) in handles.iter().zip(restored) {
            *handle.slot() = image.expect("every rank's image is loaded before launch");
        }
        // Optional tools-interface deadlock detector (paper conclusion).
        let detector = self.cfg.deadlock_timeout.map(|window| {
            let intro = world.introspect();
            let stop = Arc::new(AtomicBool::new(false));
            let stop2 = stop.clone();
            let handle = std::thread::spawn(move || watch_for_deadlock(&intro, window, &stop2));
            (stop, handle)
        });
        // The effective config the rank closures see always carries the
        // registry, so Mana::fresh/restore hand every rank a metered
        // telemetry handle.
        let eff_cfg = {
            let mut c = self.cfg.clone();
            c.metrics = Some(reg.clone());
            c
        };
        let cfg = &eff_cfg;
        let f = &f;
        let handles_ref = &handles;
        let guard_ref = &guard;
        let restored_ranks_ref = &restored_ranks;
        let launched = world.launch(move |proc| -> Result<(AppOutcome<T>, ManaStats)> {
            let coord = handles_ref[proc.rank()].clone();
            let mut mana = if restored_round.is_some() {
                let rank = proc.rank();
                let mana = Mana::restore(proc, cfg.clone(), coord)?;
                if let Some(g) = guard_ref {
                    // Journal this rank's restore (only ranks in the
                    // restart scope — survivors of a partial restart are
                    // rebuilt but not journaled), and let the last rank in
                    // journal the world-level completion steps. An
                    // injected kill here must poison the world so peers
                    // fail fast instead of blocking on a rank that will
                    // never speak.
                    let journaled = restored_ranks_ref
                        .as_ref()
                        .is_some_and(|v| v.contains(&rank));
                    let res = (|| -> Result<()> {
                        if journaled {
                            g.step(&mana.tel, JournalStep::RankRestored { rank: rank as u64 })?;
                        }
                        if g.remaining.fetch_sub(1, Ordering::SeqCst) == 1 {
                            g.step(&mana.tel, JournalStep::CommsRebuilt)?;
                            g.step(&mana.tel, JournalStep::RestartCommitted)?;
                        }
                        Ok(())
                    })();
                    if let Err(e) = res {
                        mana.abort_world();
                        return Err(e);
                    }
                }
                mana
            } else {
                Mana::fresh(proc, cfg.clone(), coord)
            };
            let res = f(&mut mana);
            let outcome = match res {
                Ok(v) => match mana.finalize() {
                    Ok(()) => AppOutcome::Finished(v),
                    Err(ManaError::CkptExit) => AppOutcome::Checkpointed,
                    Err(e) => {
                        mana.abort_world();
                        return Err(e);
                    }
                },
                Err(ManaError::CkptExit) => {
                    match mana.finalize() {
                        Ok(()) | Err(ManaError::CkptExit) => {}
                        Err(e) => {
                            mana.abort_world();
                            return Err(e);
                        }
                    }
                    AppOutcome::Checkpointed
                }
                // A fatal application/MPI error: abort the world so peers
                // blocked on this rank fail fast instead of hanging
                // (MPI_ERRORS_ARE_FATAL behaviour).
                Err(e) => {
                    mana.abort_world();
                    return Err(e);
                }
            };
            Ok((outcome, mana.stats()))
        });
        let world_stats = world.stats();
        let coord = coordinator::finish(handles);
        let deadlock_report = detector.and_then(|(stop, handle)| {
            stop.store(true, Ordering::Relaxed);
            handle.join().ok().flatten()
        });
        if let Some(report) = deadlock_report {
            return Err(RuntimeError::Deadlock(report).into());
        }
        let results = launched.map_err(|e| RuntimeError::World(e.to_string()))?;
        // An injected restart kill poisons the world, so peer ranks die of
        // secondary (fabric/coordinator) errors. Scan for the kill first
        // and report it, not the collateral.
        if let Some(step) = results.iter().find_map(|r| match r {
            Err(ManaError::RestartKilled { step }) => Some(*step),
            _ => None,
        }) {
            return Err(RuntimeError::RestartKilled { step }.into());
        }
        let mut outcomes = Vec::with_capacity(self.n);
        let mut rank_stats = Vec::with_capacity(self.n);
        let mut errors = Vec::new();
        for (rank, r) in results.into_iter().enumerate() {
            match r {
                Ok((o, s)) => {
                    outcomes.push(o);
                    rank_stats.push(s);
                }
                Err(e) => errors.push((rank, e)),
            }
        }
        if !errors.is_empty() {
            // Likewise a rank that fails aborts the world, and its peers
            // die of the poison or of the coordinator it took down: report
            // the first error that is not such collateral.
            let victim = |e: &ManaError| {
                matches!(
                    e,
                    ManaError::Mpi(mpisim::MpiError::Poisoned) | ManaError::CoordinatorGone
                )
            };
            let culprit = errors.iter().position(|(_, e)| !victim(e)).unwrap_or(0);
            let (rank, e) = errors.remove(culprit);
            return Err(Failure {
                error: RuntimeError::Rank(rank, e),
                collateral: errors
                    .into_iter()
                    .map(|(r, e)| (r, e.to_string()))
                    .collect(),
            });
        }
        // World-level restart roll-ups: comm restoration and call replay
        // happen per rank, but the counters read best as run totals.
        if restart.is_some() {
            let comms: u64 = rank_stats.iter().map(|s| s.restored_comms).sum();
            let replayed: u64 = rank_stats.iter().map(|s| s.replayed_calls).sum();
            reg.add(met::PROCESS_ACTOR, met::RESTART_COMMS_RESTORED, comms);
            reg.add(met::PROCESS_ACTOR, met::RESTART_REPLAYED_CALLS, replayed);
        }
        if !coord.invariant_violations.is_empty() {
            return Err(RuntimeError::Invariant(coord.invariant_violations.join("; ")).into());
        }
        Ok(RunReport {
            outcomes,
            world_stats,
            rank_stats,
            coord,
            restored_round,
            restored_ranks,
            metrics: None,
        })
    }

    /// A handle on this run's checkpoint store (untraced: the ranks trace
    /// their own image writes).
    fn store(&self) -> store::Store {
        store::Store::open(&self.cfg.ckpt_dir, self.cfg.store.clone())
    }

    /// Restart preamble, run before anything is spawned: replay the
    /// journal, resume the open epoch (or open a fresh one), select and
    /// validate the generation, and journal `RestartIntent` /
    /// `GenValidated` — all on the coordinator's timeline, `tel`.
    fn prepare_restart(
        &self,
        mode: &RestartMode,
        tel: &obs::Telemetry,
    ) -> std::result::Result<(store::Selected, Arc<RestartGuard>), RuntimeError> {
        // Journal replay is its own phase: a crash during a previous
        // attempt leaves an open epoch that this attempt resumes instead
        // of redoing completed steps.
        let replay = tel.begin(obs::NO_ROUND, obs::Phase::JournalReplay);
        let journal = Journal::open(&self.cfg.ckpt_dir)
            .map_err(|e| RuntimeError::Store(store::StoreError::Io(e)))?;
        if journal.unreadable_epoch().is_some() {
            tel.add(met::JOURNAL_UNREADABLE, 1);
        }
        let failed_u64: Vec<u64> = match mode {
            RestartMode::Full => Vec::new(),
            RestartMode::Partial { failed } => failed.iter().map(|&r| r as u64).collect(),
        };
        // Resume the open epoch only if it was attempting the same kind of
        // restart (same failed-rank set); a different scope supersedes it.
        let resume = journal.open_epoch().filter(|e| e.failed == failed_u64);
        let mut epoch = resume
            .as_ref()
            .map(|e| e.epoch)
            .unwrap_or_else(|| journal.next_epoch());
        tel.end(replay);
        // Generation scanning + manifest/CRC validation is its own restart
        // phase. A resumed epoch that already journaled `GenValidated`
        // re-validates that same generation (the open epoch pins it
        // against GC); if it has rotted anyway, the epoch is abandoned for
        // a fresh one rather than silently restoring a different
        // generation under an epoch that vouched for this one.
        let validate = tel.begin(obs::NO_ROUND, obs::Phase::RestartValidate);
        let only: Option<&[u64]> = match mode {
            RestartMode::Full => None,
            RestartMode::Partial { .. } => Some(&failed_u64),
        };
        let store = self.store();
        let mut sel = None;
        if let Some(g) = resume.as_ref().and_then(|e| e.validated_gen) {
            match store.select_at(g, Some(self.n), only) {
                Ok(s) => sel = Some(s),
                Err(rej) => {
                    skip_generation(tel, g, rej.code, &rej.reason);
                    epoch = journal.next_epoch();
                }
            }
        }
        let sel = match sel {
            Some(s) => Ok(s),
            None => store.select(Some(self.n), only),
        };
        // Survivors of a partial restart: validation deliberately did not
        // read their images, so they are loaded (and verified, flat or
        // chunked) here, before anything is spawned. One that has rotted
        // since is a typed rejection now, not a rank dying inside a
        // running world while its peers block on it.
        let sel = sel.and_then(|mut sel| {
            for (rank, slot) in sel.images.iter_mut().enumerate() {
                if slot.is_none() {
                    *slot = Some(store.load_image(sel.round, rank)?);
                }
            }
            Ok(sel)
        });
        tel.end(validate);
        let sel = sel.map_err(RuntimeError::Store)?;
        for rej in &sel.rejected {
            skip_generation(tel, rej.round, rej.code, &rej.reason);
        }
        let guard = Arc::new(RestartGuard {
            journal: Mutex::new(journal),
            epoch,
            kill_at: self.cfg.fault.as_ref().and_then(|p| p.restart_kill()),
            boundary: AtomicU64::new(0),
            remaining: AtomicUsize::new(self.n),
            partial: matches!(mode, RestartMode::Partial { .. }),
            started: Instant::now(),
        });
        for step in [
            JournalStep::RestartIntent {
                gen: sel.round,
                failed: failed_u64.clone(),
            },
            JournalStep::GenValidated { gen: sel.round },
        ] {
            guard.step(tel, step).map_err(|e| match e {
                ManaError::RestartKilled { step } => RuntimeError::RestartKilled { step },
                ManaError::Journal(io) => RuntimeError::Store(store::StoreError::Io(io)),
                other => RuntimeError::Rank(0, other),
            })?;
        }
        Ok((sel, guard))
    }

    /// The run failed: dump the flight recorder (JSONL + Chrome trace,
    /// `metrics` as the sidecar, the collateral as the header's
    /// `rank_errors`) under the label of the failure, and hand the error
    /// back. Best-effort: the dump is diagnostic material, never a reason
    /// to mask the original error. The paths — and the fault-plan seed,
    /// recorded in the dump header — are printed to stderr so a failure
    /// report always says where its trace went.
    fn failed(&self, failure: Failure, metrics: &met::MetricsSnapshot) -> RuntimeError {
        let Failure {
            error: e,
            collateral,
        } = failure;
        let Some(sink) = &self.cfg.trace else {
            return e;
        };
        let what = match &e {
            RuntimeError::Deadlock(_) => "deadlock",
            RuntimeError::World(_) => "world_fail",
            RuntimeError::RestartKilled { .. } => "restart_kill",
            RuntimeError::Rank(..) => "rank_fail",
            RuntimeError::Invariant(_) => "invariant",
            RuntimeError::Store(_) => "store_fail",
        };
        let label = obs::unique_label(&format!("mana2_{what}"));
        let seed = self.cfg.fault.as_ref().map(|f| f.seed());
        let config = self.cfg.record(&self.world_cfg.engine);
        let mut meta = obs::DumpMeta::of(sink, &label, seed, &config);
        meta.rank_errors = collateral;
        match obs::flight_record(sink, &self.outputs.trace_dir, &meta, Some(metrics)) {
            Ok(d) => eprintln!(
                "mana2: flight recorder dumped {} events (seed {:?}): {} / {}",
                d.events,
                seed,
                d.jsonl.display(),
                d.chrome.display()
            ),
            Err(e) => eprintln!("mana2: flight recorder dump failed: {e}"),
        }
        e
    }
}

/// A generation was rejected during restart validation. Not silent: it
/// lands on stderr *and* as a `restart_skip` trace event so the fallback
/// shows up in `mana2-trace` output.
fn skip_generation(tel: &obs::Telemetry, gen: u64, code: obs::RejectCode, reason: &str) {
    eprintln!("mana2: restart skipping generation {gen}: {reason}");
    tel.event(obs::NO_ROUND, obs::EventKind::RestartSkip { gen, code });
}

/// The tools-interface deadlock detector (paper conclusion): sample every
/// rank's activity until `stop`; once all ranks have been blocked in an
/// unchanged state for `window`, poison the world and return the per-rank
/// report.
fn watch_for_deadlock(
    intro: &mpisim::Introspect,
    window: Duration,
    stop: &AtomicBool,
) -> Option<String> {
    let slice = (window / 4).max(Duration::from_millis(10));
    let mut stuck_since: Option<Instant> = None;
    let mut last: Option<Vec<mpisim::RankActivity>> = None;
    loop {
        // Sleep one sampling slice, but in small chunks: the teardown
        // path joins this thread, so a coarse sleep would stall every
        // run's shutdown by up to a slice.
        let mut slept = Duration::ZERO;
        while slept < slice {
            if stop.load(Ordering::Relaxed) {
                return None;
            }
            let step = Duration::from_millis(20).min(slice - slept);
            std::thread::sleep(step);
            slept += step;
        }
        let snap = intro.activity();
        let all_blocked = snap.iter().all(|a| a.blocked.is_some());
        let unchanged = last.as_ref() == Some(&snap);
        last = Some(snap.clone());
        if all_blocked && unchanged {
            let since = *stuck_since.get_or_insert_with(Instant::now);
            if since.elapsed() >= window {
                let report = snap
                    .iter()
                    .enumerate()
                    .map(|(r, a)| mpisim::describe(r, a))
                    .collect::<Vec<_>>()
                    .join("\n");
                intro.poison();
                return Some(report);
            }
        } else {
            stuck_since = None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `body` on three fresh ranks through [`ManaRuntime::run_world`],
    /// ungated (a token per rank) and gated to two tokens, with `check` at
    /// the commit point. Each run gets two
    /// seconds on a thread of its own, so ranks left waiting on the
    /// coordinator read "still running", not a 120 s test.
    fn failures(
        name: &str,
        check: fn() -> CommitCheck,
        body: fn(&mut Mana<'_>) -> Result<()>,
    ) -> Vec<Failure> {
        let engines = ["coop:3", "coop:2:7"].into_iter();
        let runs = engines.map(|engine| {
            let cfg = ManaConfig {
                ckpt_dir: std::env::temp_dir()
                    .join(format!("mana2_unit_{name}_{}", std::process::id())),
                ..ManaConfig::default()
            };
            let dir = cfg.ckpt_dir.clone();
            let world_cfg = WorldCfg {
                engine: mpisim::EngineKind::parse(engine).expect("engine spec"),
                ..WorldCfg::default()
            };
            let run = std::thread::spawn(move || {
                let rt = ManaRuntime::new(3, cfg);
                let world = World::new(3, world_cfg);
                let reg = met::MetricsRegistry::standard(3);
                rt.run_world(&world, None, None, check(), body, &reg)
            });
            let deadline = Instant::now() + Duration::from_secs(2);
            while !run.is_finished() {
                assert!(
                    Instant::now() < deadline,
                    "{name} on {engine}: still running after 2 s"
                );
                std::thread::sleep(Duration::from_millis(5));
            }
            let failure = run
                .join()
                .expect("the runtime itself does not panic")
                .expect_err("the run must fail");
            std::fs::remove_dir_all(&dir).ok();
            failure
        });
        runs.collect()
    }

    /// Ranks 0 and 2 sit in a checkpoint window awaiting `Go` when rank 1,
    /// which never parked, dies: the window ends at once.
    #[test]
    fn a_rank_dying_outside_the_window_releases_the_ranks_inside_it() {
        let runs = failures(
            "hang",
            || Box::new(|_| Ok(())),
            |m| {
                if m.rank() == 1 {
                    std::thread::sleep(Duration::from_millis(300));
                    return Err(ManaError::RestartMismatch("boom".into()));
                }
                if m.rank() == 0 {
                    m.request_checkpoint()?;
                }
                m.barrier(m.comm_world())
            },
        );
        for Failure { error, collateral } in runs {
            assert!(
                matches!(&error, RuntimeError::Rank(1, ManaError::RestartMismatch(s)) if s == "boom"),
                "{error}"
            );
            let gone = ManaError::CoordinatorGone.to_string();
            assert_eq!(collateral, vec![(0, gone.clone()), (2, gone)]);
        }
    }

    /// The commit check runs inside the last reporter's transition, so its
    /// panic is that rank's: the run fails on it, and the peers waiting for
    /// the verdict are released rather than left to the receive cap.
    #[test]
    fn panicking_commit_check_fails_the_run_and_releases_the_peers() {
        let runs = failures(
            "commit_panic",
            || Box::new(|round| panic!("commit check blew up in round {round}")),
            |m| {
                if m.rank() == 0 {
                    m.request_checkpoint()?;
                }
                m.barrier(m.comm_world())
            },
        );
        for Failure { error, .. } in runs {
            assert!(
                matches!(&error, RuntimeError::World(msg) if msg.contains("panicked")),
                "{error}"
            );
        }
    }

    /// A journal step the store cannot make durable fails the restart as
    /// a store I/O error, before any rank is spawned.
    #[test]
    fn unwritable_journal_step_fails_restart_as_store_io() {
        let cfg = ManaConfig {
            ckpt_dir: std::env::temp_dir()
                .join(format!("mana2_unit_journal_io_{}", std::process::id())),
            exit_after_ckpt: true,
            ..ManaConfig::default()
        };
        let dir = cfg.ckpt_dir.clone();
        std::fs::remove_dir_all(&dir).ok();
        let body = |m: &mut Mana<'_>| -> Result<()> {
            let step = m.upper().read_value::<u64>("step").transpose()?;
            for step in step.unwrap_or(0)..3 {
                if step == 1 && m.rank() == 0 {
                    m.request_checkpoint()?;
                }
                m.barrier(m.comm_world())?;
                m.upper_mut().write_value("step", &(step + 1));
                m.step_commit()?;
            }
            Ok(())
        };
        let rt = ManaRuntime::new(2, cfg);
        assert!(rt
            .run_fresh(body)
            .expect("checkpoint run")
            .all_checkpointed());
        // Epoch 0's first record lands under `restart/e00000/`: a file in
        // that directory's place fails the put.
        std::fs::create_dir_all(dir.join("restart")).unwrap();
        std::fs::write(dir.join("restart").join("e00000"), b"").unwrap();
        match rt.run_restart(body) {
            Err(RuntimeError::Store(store::StoreError::Io(_))) => {}
            other => panic!("want a store I/O error, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A `rank_restored` step the journal cannot make durable, after the
    /// preamble's two steps landed, fails the restart as that rank's
    /// journal error — not as an image error.
    #[test]
    fn unwritable_rank_step_fails_restart_as_a_journal_error() {
        let cfg = ManaConfig {
            ckpt_dir: std::env::temp_dir()
                .join(format!("mana2_unit_journal_rank_{}", std::process::id())),
            exit_after_ckpt: true,
            ..ManaConfig::default()
        };
        let dir = cfg.ckpt_dir.clone();
        std::fs::remove_dir_all(&dir).ok();
        let body = |m: &mut Mana<'_>| -> Result<()> {
            if m.upper().read_value::<u64>("step").transpose()?.is_none() && m.rank() == 0 {
                m.request_checkpoint()?;
            }
            m.upper_mut().write_value("step", &1u64);
            m.barrier(m.comm_world())?;
            m.step_commit()
        };
        assert!(ManaRuntime::new(2, cfg.clone())
            .run_fresh(body)
            .expect("checkpoint run")
            .all_checkpointed());
        // Killed at boundary 4 — after `RestartIntent` and `GenValidated`
        // (boundaries 0–3), before the first rank's step — the restart
        // leaves epoch 0 open with those two records.
        let kill = mpisim::FaultSpec {
            restart_kill: Some(4),
            ..mpisim::FaultSpec::quiet()
        };
        let killed = ManaConfig {
            fault: Some(Arc::new(mpisim::FaultPlan::new(1, kill))),
            ..cfg.clone()
        };
        assert!(ManaRuntime::new(2, killed).run_restart(body).is_err());
        // The resumed epoch's rank records go at seq 2 or 3 (the kill may
        // have let the other rank's land): a directory where each one's
        // tmp file would go fails its put, and is no record to replay.
        let epoch = dir.join("restart").join("e00000");
        for (seq, rank) in [(2, 0), (2, 1), (3, 0), (3, 1)] {
            let tmp = format!(".tmp-{seq:05}-rank_restored-{rank}");
            std::fs::create_dir_all(epoch.join(tmp)).unwrap();
        }
        match ManaRuntime::new(2, cfg).run_restart(body) {
            Err(e @ RuntimeError::Rank(_, ManaError::Journal(_))) => {
                let msg = e.to_string();
                assert!(msg.contains("journal") && !msg.contains("image"), "{msg}");
            }
            other => panic!("want a rank's journal error, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
