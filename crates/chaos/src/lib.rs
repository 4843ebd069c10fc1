//! Seeded chaos harness for the MANA-2.0 reproduction.
//!
//! A [`Scenario`] describes a complete failure scenario of one of four
//! families — message faults (a [`mpisim::FaultPlan`]: message delays,
//! cross-pair reordering, ready stalls, coordinator latency, and an
//! adversarial checkpoint trigger), storage faults, killed restarts, and
//! explicit coop schedules ([`explore`]) — plus the shape of the run it is
//! applied to. Every family runs the kernel natively as a reference through
//! the shared `workloads` runner, runs it again under MANA with the fault
//! armed, and states what each leg must have done in the one vocabulary of
//! [`Leg`]: `expect_finished`, `expect_checkpointed`, `expect_restored`,
//! `expect_values` — the transparency oracle under adversarial scheduling.
//!
//! Every decision inside a scenario is a pure function of its one-line
//! spec, so a failure's report ends in a complete reproducer:
//!
//! ```text
//! CHAOS_CASE='<spec>' cargo test -p chaos --test chaos_suite case_replay -- --exact --nocapture
//! ```
//!
//! When a message-fault case fails, [`check_case`] also shrinks it by
//! disarming one fault feature at a time and keeping each disarm that
//! still fails, producing the minimal [`FaultSpec`] that reproduces the
//! failure.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use mana_core::obs;
use mana_core::{DrainMode, EnvConfig, ManaConfig, ManaRuntime, ManaStats, RuntimeError};
use mpisim::{
    EngineKind, FaultPlan, FaultSpec, StorageFaultKind, StorageFaultSpec, World, WorldCfg,
};
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;
use workloads::{cg, gromacs, under_mana, Kernel, Launch, MpiFace, WlResult};

pub mod explore;
mod legs;
mod scenario;

use legs::{ensure, run_scenario};
pub use legs::{leg, CaseFailure, Leg};
pub use scenario::{parse_drain, ChaosCase, RestartKillCase, Scenario, StorageCase, Workload};

/// Per-rank workload result, unified across kernels so reference and
/// faulted runs compare with one `==`.
#[derive(Debug, Clone, PartialEq)]
pub enum WlValue {
    /// A GROMACS-kernel result.
    G(gromacs::GromacsResult),
    /// A CG-kernel result.
    C(cg::CgResult),
}

/// The kernel of a scenario: either workload, one result type.
pub(crate) enum AnyKernel {
    G(gromacs::GromacsConfig),
    C(cg::CgConfig),
}

impl Kernel for AnyKernel {
    type Out = WlValue;
    fn run<F: MpiFace>(&self, f: &mut F) -> WlResult<WlValue> {
        match self {
            AnyKernel::G(cfg) => gromacs::run(f, cfg).map(WlValue::G),
            AnyKernel::C(cfg) => cg::run(f, cfg).map(WlValue::C),
        }
    }
}

/// The kernel a scenario drives: `workload`, at the fault families' size
/// or the schedule explorer's `small` one (its checkpoint window must
/// close within a few dozen scheduling decisions), with rank 0 requesting
/// checkpoint round `ckpt.1` at step `ckpt.0`.
pub(crate) fn kernel(workload: Workload, small: bool, ckpt: Option<(u64, u64)>) -> AnyKernel {
    let (at, ckpt_round) = ckpt.map_or((None, 0), |(step, round)| (Some(step), round));
    match workload {
        Workload::Gromacs => AnyKernel::G(gromacs::GromacsConfig {
            atoms_per_rank: if small { 48 } else { 96 },
            steps: if small { 6 } else { 8 },
            compute_per_step: 0,
            energy_interval: 2,
            halo: 8,
            ckpt_at_step: at,
            ckpt_round,
        }),
        Workload::Cg => AnyKernel::C(cg::CgConfig {
            local_n: if small { 24 } else { 32 },
            max_iters: if small { 16 } else { 40 },
            tol: 1e-10,
            ckpt_at_iter: at,
            ckpt_round,
        }),
    }
}

/// What a passing case looked like.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CaseReport {
    /// Checkpoint rounds the coordinator committed.
    pub rounds: usize,
    /// Did the case go through a full exit-and-restart cycle?
    pub restarted: bool,
}

/// The `MANA2_*` environment, read where the harness meets it: engine,
/// drain and store layout for everything a case does not pin, and the
/// directory flight dumps land in. A value that does not parse fails the
/// case instead of running it under some other configuration.
pub(crate) fn env() -> EnvConfig {
    mana_core::from_env().unwrap_or_else(|e| panic!("chaos: {e}"))
}

/// The environment's world under a watchdog, with `engine` pinned if given.
fn wcfg(engine: Option<EngineKind>) -> WorldCfg {
    let world = env().world;
    WorldCfg {
        watchdog: Some(Duration::from_secs(90)),
        engine: engine.unwrap_or(world.engine),
        ..world
    }
}

/// A runtime under `wc` with the environment's outputs (trace directory,
/// live metrics export).
pub(crate) fn runtime(ranks: usize, mcfg: ManaConfig, wc: WorldCfg) -> ManaRuntime {
    ManaRuntime::new(ranks, mcfg)
        .with_world_cfg(wc)
        .with_outputs(env().outputs)
}

/// The environment's MANA configuration, checkpointing into `dir` under
/// `drain` and recording into `sink`, with the deadlock detector armed.
pub(crate) fn mana_cfg(drain: DrainMode, dir: &Path, sink: &Arc<obs::TraceSink>) -> ManaConfig {
    ManaConfig {
        drain,
        ckpt_dir: dir.to_path_buf(),
        deadlock_timeout: Some(Duration::from_secs(30)),
        trace: Some(sink.clone()),
        ..env().mana
    }
}

/// The fault-free native reference: the answer MANA must reproduce. Runs
/// under the case's world config, so an engine-pinned case checks the
/// reference under the same engine.
fn native_reference<K: Kernel>(ranks: usize, wc: &WorldCfg, k: &K) -> Result<Vec<K::Out>, String> {
    workloads::native(&World::new(ranks, wc.clone()), k)
        .map_err(|e| format!("native reference: {e}"))
}

/// Project one trace event to its determinism token; `None` drops it
/// from cross-run and cross-gating comparisons.
///
/// Two things legitimately vary between runs of the same seed — at one
/// worker count or across worker counts — and are excluded:
///
/// - *where* the intent lands in a rank's user-traffic stream — a
///   non-trigger rank notices the checkpoint request at its next wrapper
///   call, so the surrounding `net_*` / collective events shift with
///   scheduling (wall timestamps and global sequence numbers shift too);
/// - the drain window (sweep count — possibly zero — and which in-flight
///   messages get captured) and with it the exact image size, which
///   embeds the captured bytes; both depend on delivery timing. The
///   quiesce protocol's own count exchange (`drain_exchange` /
///   `drain_plan` spans and `drain_schedule` events) is excluded for the
///   same reason — and because each [`DrainMode`] emits a different
///   shape, which would break cross-strategy token comparison.
///
/// Everything else inside the checkpoint window — phase spans, store
/// attempts and retries, fault firings, the committed outcome — must be
/// identical, per ring, in program order.
pub fn determinism_token(ev: &obs::TraceEvent) -> Option<String> {
    use obs::EventKind;
    match &ev.kind {
        EventKind::Begin(p) | EventKind::End(p)
            if matches!(p.name(), "drain" | "drain_exchange" | "drain_plan") =>
        {
            None
        }
        EventKind::DrainCapture { .. } => None,
        EventKind::DrainSchedule { .. } => None,
        EventKind::Begin(p) if p.name() == "emu_collective" || p.name() == "tpc_barrier" => None,
        EventKind::End(p) if p.name() == "emu_collective" || p.name() == "tpc_barrier" => None,
        EventKind::Begin(p) => Some(format!("begin:{}", p.name())),
        EventKind::End(p) => Some(format!("end:{}", p.name())),
        EventKind::StoreAttempt { attempt, ok, .. } => {
            Some(format!("store_attempt:{attempt}:{ok}"))
        }
        EventKind::StoreWrite { retries, .. } => Some(format!("store_write:{retries}")),
        EventKind::StoreFault { fault } => Some(format!("store_fault:{}", fault.name())),
        EventKind::FaultFired { fault } => Some(format!("fault_fired:{}", fault.name())),
        _ => None,
    }
}

/// Every actor's sequence of `token`s — coordinator first, then ranks in
/// order — so two runs diff with one `==`.
pub(crate) fn token_rings(
    sink: &obs::TraceSink,
    ranks: usize,
    token: impl Fn(&obs::TraceEvent) -> Option<String>,
) -> Vec<(i32, Vec<String>)> {
    std::iter::once(obs::COORD_ACTOR)
        .chain(0..ranks as i32)
        .map(|actor| {
            let events = sink.ring_events(actor);
            (actor, events.iter().filter_map(&token).collect())
        })
        .collect()
}

/// Every actor's [`determinism_token`] sequence.
pub fn case_token_rings(sink: &obs::TraceSink, ranks: usize) -> Vec<(i32, Vec<String>)> {
    token_rings(sink, ranks, determinism_token)
}

// ---- message-fault chaos ---------------------------------------------------

/// What an engine-pinned case run produced beyond the pass/fail summary:
/// the per-rank [`ManaStats`] of each MANA leg, so the gating
/// equivalence suite can compare their schedule-invariant projection
/// across worker counts.
#[derive(Debug)]
pub struct EngineCaseOutcome {
    /// The usual case summary.
    pub report: CaseReport,
    /// Per-rank stats from the faulted (checkpointing) leg.
    pub ckpt_stats: Vec<ManaStats>,
    /// Per-rank stats from the restart leg, when the case restarted.
    pub restart_stats: Option<Vec<ManaStats>>,
}

impl EngineCaseOutcome {
    /// Per-rank schedule-invariant totals summed across both legs. Only
    /// the sum is engine-invariant in checkpoint-and-exit cases: where the
    /// checkpoint lands in a non-trigger rank's call stream is itself
    /// schedule-dependent, so each leg's share of the program varies.
    pub fn invariant_totals(&self) -> Vec<Vec<(&'static str, u64)>> {
        (0..self.ckpt_stats.len())
            .map(|rank| {
                let mut key = self.ckpt_stats[rank].schedule_invariant().to_vec();
                if let Some(rs) = &self.restart_stats {
                    for (slot, (name, v)) in key.iter_mut().zip(rs[rank].schedule_invariant()) {
                        debug_assert_eq!(slot.0, name);
                        slot.1 += v;
                    }
                }
                key
            })
            .collect()
    }
}

/// One run as the determinism and equivalence suites compare it: its
/// outcome and every actor's determinism-token ring.
pub type Compared = (EngineCaseOutcome, Vec<(i32, Vec<String>)>);

/// Run one case with the execution engine pinned explicitly (`None` keeps
/// the environment's, `MANA2_ENGINE` or the default) — native reference,
/// faulted leg and restart leg alike — and no automatic dump, into a sink
/// generous enough never to wrap (an overwrite boundary would itself be
/// timing-dependent and invalidate any comparison). Panics with the
/// failure report if the case fails.
pub fn run_compared(
    case: &ChaosCase,
    plan: &Arc<FaultPlan>,
    engine: Option<EngineKind>,
) -> Compared {
    let sink = obs::TraceSink::wall(case.ranks, 16384);
    let out =
        run_faults(case, plan.clone(), &sink, engine, false).unwrap_or_else(|f| panic!("{f}"));
    assert_eq!(sink.dropped(), 0, "ring overwrote events; raise capacity");
    (out, case_token_rings(&sink, case.ranks))
}

/// Demand that two runs agree on everything the engine and the drain
/// protocol must not change: the case report, the per-rank
/// schedule-invariant `ManaStats` totals, and every actor's token ring.
pub fn assert_equivalent(what: &str, a: &Compared, b: &Compared) {
    assert_eq!(a.0.report, b.0.report, "{what} disagree on rounds/restart");
    assert_eq!(
        a.0.invariant_totals(),
        b.0.invariant_totals(),
        "{what}: schedule-invariant ManaStats diverged"
    );
    for ((actor_a, toks_a), (actor_b, toks_b)) in a.1.iter().zip(&b.1) {
        assert_eq!(actor_a, actor_b);
        assert_eq!(
            toks_a, toks_b,
            "{what}, actor {actor_a}: checkpoint-window sequence diverged"
        );
    }
}

/// A quiet plan with only the adversarial checkpoint trigger armed at
/// `rank`'s `call`-th wrapper call: injected delays would only shift
/// timing, but the trigger is what opens the checkpoint window the
/// compared runs must agree inside.
pub fn trigger_plan(seed: u64, rank: usize, call: u64) -> Arc<FaultPlan> {
    let mut spec = FaultSpec::quiet();
    spec.trigger_at_call = Some((rank, call));
    Arc::new(FaultPlan::new(seed, spec))
}

/// Run one case under an explicit plan (the shrinker substitutes reduced
/// specs here) with a sink of its own: dumped on failure, and on success
/// when `MANA2_TRACE=1`.
pub fn run_case_with_plan(
    case: &ChaosCase,
    plan: Arc<FaultPlan>,
    engine: Option<EngineKind>,
) -> Result<CaseReport, CaseFailure> {
    let sink = obs::TraceSink::wall(case.ranks, 4096);
    run_faults(case, plan, &sink, engine, true).map(|o| o.report)
}

fn run_faults(
    case: &ChaosCase,
    plan: Arc<FaultPlan>,
    sink: &Arc<obs::TraceSink>,
    engine: Option<EngineKind>,
    dump: bool,
) -> Result<EngineCaseOutcome, CaseFailure> {
    let scenario = Scenario::Faults {
        case: case.clone(),
        engine,
    };
    run_scenario(&scenario, sink, dump, |dir| {
        let wc = wcfg(engine);
        let k = kernel(case.workload, false, None);
        let native = native_reference(case.ranks, &wc, &k)?;
        let mcfg = ManaConfig {
            exit_after_ckpt: case.restart,
            fault: Some(plan),
            ..mana_cfg(case.drain, dir, sink)
        };
        let rt = runtime(case.ranks, mcfg, wc);
        let faulted = leg("faulted run", &rt, Launch::Fresh, &k)?;
        let rounds = faulted.report.coord.rounds.len();
        // Exit-after-checkpoint: rebuild every rank from its image and run
        // to completion — still under the same fault plan (the trigger
        // will not re-fire; delays and stalls stay armed). With no round
        // committed the trigger never fired, nothing exits, and the
        // restart leg is not exercised: not a correctness failure, but
        // `restarted` tells the two apart in reports.
        let restart = if faulted.report.all_checkpointed() {
            Some(leg("restart run", &rt, Launch::Restart, &k)?)
        } else {
            None
        };
        let last = restart.as_ref().unwrap_or(&faulted);
        last.expect_finished()?;
        last.expect_values(&native)?;
        Ok(EngineCaseOutcome {
            report: CaseReport {
                rounds,
                restarted: restart.is_some(),
            },
            ckpt_stats: faulted.report.rank_stats,
            restart_stats: restart.map(|l| l.report.rank_stats),
        })
    })
}

/// A shrunk failure: the minimal armed spec that still reproduces it.
#[derive(Debug, Clone)]
pub struct Shrunk {
    /// Minimal failing spec.
    pub minimal: FaultSpec,
    /// Feature names that were disarmed without losing the failure.
    pub disabled: Vec<&'static str>,
    /// Error from the minimal reproduction.
    pub error: String,
}

/// One shrinkable fault feature: its name and how to disarm it.
type Disarm = (&'static str, fn(&mut FaultSpec));

/// Shrink a failing case: try disarming each fault feature in turn, keep
/// every disarm under which the case still fails. `original_error` seeds
/// the report in case no disarm succeeds.
pub fn shrink(case: &ChaosCase, engine: Option<EngineKind>, original_error: String) -> Shrunk {
    let full = FaultPlan::from_seed(case.seed, case.ranks);
    let mut spec = full.spec().clone();
    let mut disabled = Vec::new();
    let mut error = original_error;
    let features: [Disarm; 4] = [
        ("delay", |s| {
            s.delay_pct = 0;
            s.max_delay_us = 0;
        }),
        ("reorder", |s| {
            s.reorder_pct = 0;
            s.max_reorder_arrivals = 0;
        }),
        ("ready-stall", |s| s.ready_stall = None),
        ("coord-delay", |s| {
            s.coord_delay_pct = 0;
            s.max_coord_delay_us = 0;
        }),
    ];
    for (name, disarm) in features {
        let mut candidate = spec.clone();
        disarm(&mut candidate);
        if candidate == spec {
            continue;
        }
        let plan = Arc::new(FaultPlan::new(case.seed, candidate.clone()));
        if let Err(f) = run_case_with_plan(case, plan, engine) {
            spec = candidate;
            disabled.push(name);
            error = f.error;
        }
    }
    Shrunk {
        minimal: spec,
        disabled,
        error,
    }
}

/// Run a case under the plan derived from its seed; on failure, shrink it
/// and return a ready-to-panic report ending in the repro command.
pub fn check_case(case: &ChaosCase, engine: Option<EngineKind>) -> Result<CaseReport, String> {
    let plan = FaultPlan::from_seed(case.seed, case.ranks);
    run_case_with_plan(case, plan, engine).map_err(|f| {
        let shrunk = shrink(case, engine, f.error.clone());
        format!(
            "{f}\n  minimal failing spec (disarmed: {:?}): {:?}\n  shrunk error: {}",
            shrunk.disabled, shrunk.minimal, shrunk.error
        )
    })
}

// ---- storage-fault chaos ---------------------------------------------------

/// Torn writes and bit flips go unnoticed at commit time.
fn is_silent(kind: StorageFaultKind) -> bool {
    kind != StorageFaultKind::WriteError
}

/// A quiet plan whose one fault damages `rank`'s image write of `round`.
fn storage_plan(seed: u64, rank: usize, round: u64, kind: StorageFaultKind) -> Arc<FaultPlan> {
    let mut spec = FaultSpec::quiet();
    spec.storage = Some(StorageFaultSpec { rank, round, kind });
    Arc::new(FaultPlan::new(seed, spec))
}

/// Generation 0 of a restart-mode store: the gromacs kernel checkpoints at
/// step 2, commits cleanly, and every rank exits.
fn clean_generation(
    stage: &str,
    ranks: usize,
    base: &ManaConfig,
    wc: &WorldCfg,
) -> Result<(), String> {
    let exit_cfg = ManaConfig {
        exit_after_ckpt: true,
        ..base.clone()
    };
    let rt = runtime(ranks, exit_cfg, wc.clone());
    let md = kernel(Workload::Gromacs, false, Some((2, 0)));
    leg(format!("{stage}leg 1"), &rt, Launch::Fresh, &md)?.expect_checkpointed()
}

/// Round 1 on top of [`clean_generation`]: a full restart from generation
/// 0 whose round-1 checkpoint (requested at step 5) is damaged by `plan`.
/// A write error aborts the round, so the job runs on to completion and
/// generation 0 stays the only one; silent damage commits and the job
/// exits again, leaving a generation that must never be restored.
fn damaged_generation(
    stage: &str,
    ranks: usize,
    base: &ManaConfig,
    wc: &WorldCfg,
    kind: StorageFaultKind,
    plan: Arc<FaultPlan>,
) -> Result<Leg<WlValue>, String> {
    let mcfg = ManaConfig {
        fault: Some(plan),
        exit_after_ckpt: true,
        ..base.clone()
    };
    let rt = runtime(ranks, mcfg, wc.clone());
    let md = kernel(Workload::Gromacs, false, Some((5, 1)));
    let leg2 = leg(format!("{stage}leg 2"), &rt, Launch::Restart, &md)?;
    leg2.expect_restored(0)?;
    if is_silent(kind) {
        leg2.expect_checkpointed()?;
    } else {
        leg2.expect_finished()?;
    }
    Ok(leg2)
}

/// Run one storage-fault scenario end to end and check the durability
/// contract for its (kind, mode) cell:
///
/// - `WriteError` — the round must abort (recorded in
///   `CoordReport::aborted_rounds`), every rank must resume and finish
///   with native-identical results, and (in restart mode) the previously
///   committed generation must survive untouched.
/// - `TornWrite` / `BitFlip` — the damage is silent at commit time, so the
///   round commits; restart-time validation must reject the damaged
///   generation, falling back to the older committed one when there is
///   one.
///
/// `Ok` says what the passing cell demonstrated.
pub fn run_storage_case(case: &StorageCase) -> Result<&'static str, CaseFailure> {
    let sink = obs::TraceSink::wall(case.ranks, 4096);
    run_scenario(&Scenario::Storage(case.clone()), &sink, true, |dir| {
        storage_legs(case, dir, &sink)
    })
}

fn storage_legs(
    case: &StorageCase,
    dir: &Path,
    sink: &Arc<obs::TraceSink>,
) -> Result<&'static str, String> {
    use splitproc::store::{Store, StoreError};
    let n = case.ranks;
    let wc = wcfg(None);
    let native = native_reference(n, &wc, &kernel(Workload::Gromacs, false, None))?;
    // Tiny chunk bounds relative to the ~KB GROMACS images, so chunked
    // cases split each payload into many chunks and the injected damage
    // really lands on an individual chunk file.
    let base = ManaConfig {
        store: splitproc::StoreConfig {
            mode: case.store,
            chunk: splitproc::ChunkParams {
                min_size: 64,
                avg_size: 256,
                max_size: 1024,
            },
            ..Default::default()
        },
        ..mana_cfg(case.drain, dir, sink)
    };
    let store = Store::open(dir, base.store.clone());
    let plan = |round| storage_plan(case.seed, case.victim, round, case.kind);
    if !case.restart {
        // Resume mode: the fault lands on the only checkpoint round.
        let mcfg = ManaConfig {
            fault: Some(plan(0)),
            ..base.clone()
        };
        let md = kernel(Workload::Gromacs, false, Some((3, 0)));
        let pass = leg("faulted run", &runtime(n, mcfg, wc), Launch::Fresh, &md)?;
        pass.expect_finished()?;
        pass.expect_values(&native)?;
        let coord = &pass.report.coord;
        let (aborted, committed) = (coord.aborted_rounds.len(), coord.rounds.len());
        if !is_silent(case.kind) {
            // The round must have aborted; nothing durable may remain.
            ensure!(
                aborted == 1 && committed == 0,
                "protocol: expected 1 aborted / 0 committed rounds, got {aborted} / {committed}"
            );
            ensure!(
                store.select(Some(n), None).is_err(),
                "store: aborted round left a selectable generation"
            );
            return Ok("the round aborted and left nothing durable");
        }
        // Silent damage: the round commits, but restart-time validation
        // must refuse to ever restore it.
        ensure!(
            committed == 1,
            "protocol: expected 1 committed round, got {committed}"
        );
        return match store.select(Some(n), None) {
            Ok(sel) => Err(format!(
                "store: damaged generation {} passed validation",
                sel.round
            )),
            Err(StoreError::NoUsableGeneration { rejected, .. })
                if rejected.iter().any(|r| r.round == 0) =>
            {
                Ok("the round committed; selection rejects the damaged generation")
            }
            Err(e) => Err(format!("store: unexpected store error: {e}")),
        };
    }
    // Exit-and-restart: gen_0 commits cleanly, then the fault lands on
    // round 1 after a restart.
    clean_generation("", n, &base, &wc)?;
    let leg2 = damaged_generation("", n, &base, &wc, case.kind, plan(1))?;
    let sel = store
        .select(Some(n), None)
        .map_err(|e| format!("store: {e}"))?;
    if !is_silent(case.kind) {
        // Round 1 aborted and the ranks ran on to completion; round 0
        // must survive the failed round untouched.
        let coord = &leg2.report.coord;
        ensure!(
            coord.aborted_rounds.len() == 1 && coord.rounds.is_empty(),
            "protocol: round 1 should abort, round 0 stay"
        );
        ensure!(
            coord.aborted_rounds[0].round == 1,
            "protocol: the aborted round must be round 1"
        );
        ensure!(
            leg2.report.rank_stats.iter().all(|s| s.ckpts == 1),
            "protocol: every rank must freeze round 1 and resume"
        );
        leg2.expect_values(&native)?;
        let got = sel.round;
        ensure!(got == 0, "store: expected round 0 to survive, got {got}");
        return Ok("round 1 aborted; round 0 survived untouched");
    }
    // Round 1 committed over a damaged image and the job exited; the next
    // restart must reject gen_1 and fall back to gen_0, then finish with
    // native-identical results.
    ensure!(
        sel.round == 0 && sel.rejected.iter().any(|r| r.round == 1),
        "store: expected fallback 1→0, got round {} (rejected {:?})",
        sel.round,
        sel.rejected
    );
    let md = kernel(Workload::Gromacs, false, None);
    let leg3 = leg("leg 3", &runtime(n, base, wc), Launch::Restart, &md)?;
    leg3.expect_restored(0)?;
    leg3.expect_finished()?;
    leg3.expect_values(&native)?;
    Ok("round 1 committed damaged; the restart fell back to round 0")
}

// ---- reentrant-restart (restart-kill) chaos --------------------------------

/// Run one restart-kill scenario end to end:
///
/// 1. Build identical stores in a baseline dir and a victim dir: a clean
///    committed generation 0, plus — for the storage cross — a damaged
///    round 1 that restart validation must reject. (That round runs as a
///    *full* restart regardless of `case.partial`: the damaged generation
///    must exist before the killed restarts start.)
/// 2. Baseline: one clean (uncrashed) restart to completion.
/// 3. Victim: one restart attempt per kill boundary in `case.kills`, each
///    of which must die with `RuntimeError::RestartKilled`, then a clean
///    restart that must converge.
/// 4. Oracle: victim's final values and restored generation equal the
///    baseline's (and the native reference), the on-disk journal passes
///    [`mana_core::check_journal`], its final epoch is committed, and the
///    set of journaled `RankRestored` ranks is exactly the restart scope —
///    no step duplicated, no rank lost, no matter where the crashes hit.
///
/// `Ok` says what the passing case demonstrated.
pub fn run_restart_kill_case(case: &RestartKillCase) -> Result<String, CaseFailure> {
    let sink = obs::TraceSink::wall(case.ranks, 4096);
    run_scenario(&Scenario::RestartKill(case.clone()), &sink, true, |root| {
        restart_kill_legs(case, root, &sink)
    })
}

fn restart_kill_legs(
    case: &RestartKillCase,
    root: &Path,
    sink: &Arc<obs::TraceSink>,
) -> Result<String, String> {
    use splitproc::journal;
    let n = case.ranks;
    let wc = wcfg(Some(case.engine));
    let md = kernel(Workload::Gromacs, false, None);
    let native = native_reference(n, &wc, &md)?;
    let base_of = |dir: &Path| mana_cfg(case.drain, dir, sink);
    let restart = |mcfg: ManaConfig| {
        let how = match &case.partial {
            None => Launch::Restart,
            Some(failed) => Launch::Partial(failed),
        };
        (runtime(n, mcfg, wc.clone()), how)
    };
    let (bdir, vdir) = (root.join("base"), root.join("victim"));
    for (who, dir) in [("baseline prepare ", &bdir), ("victim prepare ", &vdir)] {
        clean_generation(who, n, &base_of(dir), &wc)?;
        if let Some(kind) = case.storage {
            let victim = scenario::Derive(case.seed).victim(n);
            let plan = storage_plan(case.seed, victim, 1, kind);
            damaged_generation(who, n, &base_of(dir), &wc, kind, plan)?;
        }
    }
    // Baseline: the uncrashed restart this case's crashed one must match.
    let (rt, how) = restart(base_of(&bdir));
    let baseline = leg("baseline restart", &rt, how, &md)?;
    baseline.expect_finished()?;
    baseline.expect_values(&native)?;
    // Victim: killed attempts...
    for (i, &k) in case.kills.iter().enumerate() {
        let spec = FaultSpec {
            restart_kill: Some(k),
            ..FaultSpec::quiet()
        };
        let (rt, how) = restart(ManaConfig {
            fault: Some(Arc::new(FaultPlan::new(case.seed, spec))),
            ..base_of(&vdir)
        });
        match under_mana(&rt, how, &md) {
            Err(RuntimeError::RestartKilled { step }) if step == k => {}
            Err(RuntimeError::RestartKilled { step }) => {
                return Err(format!(
                    "kill: attempt {i} killed at boundary {step}, armed {k}"
                ));
            }
            Ok(_) => {
                return Err(format!(
                    "kill: attempt {i} survived an armed kill at boundary {k}"
                ));
            }
            Err(e) => {
                return Err(format!(
                    "kill: attempt {i} (boundary {k}) died of the wrong error: {e}"
                ));
            }
        }
    }
    // ...then the clean restart that must converge.
    let (rt, how) = restart(base_of(&vdir));
    let last = leg("final restart", &rt, how, &md)?;
    last.expect_finished()?;
    let (restored, want) = (last.report.restored_round, baseline.report.restored_round);
    ensure!(
        restored == want,
        "oracle: restored generation {restored:?} differs from baseline {want:?}"
    );
    let (scope, got) = (case.scope(), &last.report.restored_ranks);
    ensure!(
        got.as_ref() == Some(&scope),
        "oracle: restored_ranks {got:?} != scope {scope:?}"
    );
    // The baseline equalled the native reference, so this is also "the
    // final state equals the uncrashed baseline's".
    last.expect_values(&native)?;
    // Journal oracle: protocol invariants hold over everything the crash
    // storm wrote, and the final epoch committed with the full scope.
    let records = journal::read_records(&vdir).map_err(|e| format!("journal: {e}"))?;
    let violations = mana_core::check_journal(&records);
    ensure!(violations.is_empty(), "journal: {}", violations.join("; "));
    let epochs = journal::replay_epochs(&records);
    let Some(epoch) = epochs.last() else {
        return Err("journal: no epochs journaled".into());
    };
    let at = epoch.epoch;
    ensure!(epoch.committed, "journal: final epoch {at} never committed");
    let journaled: Vec<usize> = epoch.restored.iter().map(|&r| r as usize).collect();
    ensure!(
        journaled == scope,
        "journal: epoch {at} restored {journaled:?}, want {scope:?}"
    );
    let fell_back = restored == Some(0) && case.storage.is_some_and(is_silent);
    Ok(format!(
        "converged after {} killed attempt(s), {} journal records{}",
        case.kills.len(),
        records.len(),
        if fell_back {
            ", past a damaged generation"
        } else {
            ""
        }
    ))
}

// ---- replay hooks -----------------------------------------------------------

impl Scenario {
    /// Run the scenario under its family's oracle: a one-line summary of
    /// what it demonstrated, or the failure report.
    pub fn check(&self) -> Result<String, String> {
        match self {
            Scenario::Faults { case, engine } => {
                check_case(case, *engine).map(|r| format!("{r:?}"))
            }
            Scenario::Storage(case) => run_storage_case(case)
                .map(String::from)
                .map_err(|f| f.to_string()),
            Scenario::RestartKill(case) => run_restart_kill_case(case).map_err(|f| f.to_string()),
            Scenario::Schedule(fixture) => explore::check_schedule(fixture),
        }
    }
}

/// `CHAOS_CASE` env var, if set, parsed (the replay hook of every failure
/// report). A spec that does not parse is an error, never some other case.
pub fn env_case() -> Option<Result<Scenario, String>> {
    let spec = std::env::var("CHAOS_CASE").ok()?;
    Some(
        spec.parse()
            .map_err(|e| format!("CHAOS_CASE={spec:?}: {e}")),
    )
}

/// The harness's own knobs. Each is strict: a value that does not parse,
/// or a zero sweep count, is an error naming the variable and the value —
/// never a silent default.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Knobs {
    /// `CHAOS_BASE_SEED`: the first seed of the fresh sweeps (CI's nightly
    /// job passes its run id, so every night sweeps fresh seeds).
    pub base_seed: u64,
    /// `CHAOS_SWEEP_COUNT`: seeds per fresh sweep, at least 1 (2 by
    /// default so routine runs stay fast; CI asks for 32).
    pub sweep_count: u64,
    /// `CHAOS_KEEP_STORES=1`: keep every scenario's scratch directory.
    pub keep_stores: bool,
    /// `MANA2_TRACE=1`: dump the flight recorder of passing cases too.
    pub trace: bool,
}

impl Knobs {
    /// Read the four variables through `get` (tests pass a closure over a
    /// map); an unset variable keeps its default. Booleans are `0` or `1`.
    pub fn from_lookup(get: impl Fn(&str) -> Option<String>) -> Result<Knobs, String> {
        let knob = |var: &str, want: &str, parse: &dyn Fn(&str) -> Option<u64>| match get(var) {
            None => Ok(None),
            Some(v) => parse(v.trim())
                .map(Some)
                .ok_or_else(|| format!("{var}={v:?} is not valid: expected {want}")),
        };
        let num = |s: &str| s.parse().ok();
        let bit = |s: &str| ["0", "1"].iter().position(|&b| b == s).map(|b| b as u64);
        let flag = |var| knob(var, "0 | 1", &bit).map(|b| b == Some(1));
        Ok(Knobs {
            base_seed: knob("CHAOS_BASE_SEED", "a whole number", &num)?.unwrap_or(0xC0FF_EE00),
            sweep_count: knob("CHAOS_SWEEP_COUNT", "a whole number >= 1", &|s| {
                num(s).filter(|&n| n >= 1)
            })?
            .unwrap_or(2),
            keep_stores: flag("CHAOS_KEEP_STORES")?,
            trace: flag("MANA2_TRACE")?,
        })
    }

    /// [`Knobs::from_lookup`] over the process environment; a bad value
    /// panics with the error.
    pub fn from_env() -> Knobs {
        let get = |var: &str| std::env::var_os(var).map(|v| v.to_string_lossy().into_owned());
        Knobs::from_lookup(get).unwrap_or_else(|e| panic!("chaos: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn case_derivation_is_deterministic() {
        for seed in [0u64, 1, 42, u64::MAX] {
            assert_eq!(ChaosCase::from_seed(seed), ChaosCase::from_seed(seed));
            let c = ChaosCase::from_seed(seed);
            assert!((2..=4).contains(&c.ranks), "{c:?}");
        }
    }

    #[test]
    fn nearby_seeds_explore_different_shapes() {
        let cases: Vec<ChaosCase> = (0..32).map(ChaosCase::from_seed).collect();
        assert!(cases.iter().any(|c| c.workload == Workload::Gromacs));
        assert!(cases.iter().any(|c| c.workload == Workload::Cg));
        assert!(cases.iter().any(|c| c.drain == DrainMode::Alltoall));
        assert!(cases.iter().any(|c| c.drain == DrainMode::Coordinator));
        assert!(cases.iter().any(|c| c.drain == DrainMode::TopoSort));
        assert!(cases.iter().any(|c| c.restart));
        assert!(cases.iter().any(|c| !c.restart));
    }

    #[test]
    fn repro_command_names_the_seed() {
        let scenario = Scenario::Faults {
            case: ChaosCase::from_seed(12345),
            engine: None,
        };
        let cmd = scenario.repro();
        assert!(cmd.starts_with("CHAOS_CASE='faults seed=12345 "), "{cmd}");
        assert!(cmd.contains("case_replay"));
    }

    #[test]
    fn knobs_are_strict() {
        let with = |pairs: &[(&str, &str)]| {
            let map: std::collections::HashMap<String, String> = pairs
                .iter()
                .map(|&(k, v)| (k.to_string(), v.to_string()))
                .collect();
            Knobs::from_lookup(|var| map.get(var).cloned())
        };
        let defaults = Knobs {
            base_seed: 0xC0FF_EE00,
            sweep_count: 2,
            keep_stores: false,
            trace: false,
        };
        assert_eq!(with(&[]), Ok(defaults));
        let set = with(&[
            ("CHAOS_BASE_SEED", "7"),
            ("CHAOS_SWEEP_COUNT", " 32 "),
            ("CHAOS_KEEP_STORES", "1"),
            ("MANA2_TRACE", "1"),
        ]);
        let want = Knobs {
            base_seed: 7,
            sweep_count: 32,
            keep_stores: true,
            trace: true,
        };
        assert_eq!(set, Ok(want));
        assert!(!with(&[("MANA2_TRACE", "0")]).unwrap().trace);
        for (var, value) in [
            ("CHAOS_BASE_SEED", "abc"),
            ("CHAOS_BASE_SEED", "-1"),
            ("CHAOS_SWEEP_COUNT", "0"),
            ("CHAOS_SWEEP_COUNT", "many"),
            ("CHAOS_KEEP_STORES", "yes"),
            ("CHAOS_KEEP_STORES", "2"),
            ("MANA2_TRACE", ""),
            ("MANA2_TRACE", "true"),
        ] {
            let err = with(&[(var, value)]).expect_err(value);
            assert!(err.starts_with(&format!("{var}={value:?} ")), "{err}");
        }
    }

    #[test]
    fn shrink_disarms_everything_when_failure_is_unconditional() {
        // A case whose "failure" does not depend on the plan at all: the
        // shrinker should disarm every feature (each reduced run is
        // exercised via run_case_with_plan, which still passes here, so
        // nothing is disarmed — assert the other direction instead by
        // checking the spec arithmetic on a quiet candidate).
        let mut s = FaultSpec::quiet();
        s.delay_pct = 20;
        s.max_delay_us = 100;
        let mut c = s.clone();
        c.delay_pct = 0;
        c.max_delay_us = 0;
        assert!(c.is_quiet());
        assert_ne!(c, s);
    }
}
