//! One workload through its checkpoint/restart lifecycle.
//!
//! Untraced (`run_end_to_end`): set-up, then cycles of native/MANA steady
//! pairs, one resume-mode run of back-to-back checkpoint rounds, and
//! restarts of one checkpoint-and-exit generation. Every result is
//! checked against a native reference run.
//!
//! Traced (`run_traced`): the same lifecycle at reduced, fixed counts
//! with the flight recorder and call timing on, the other drain
//! protocols, and a single-threaded replay of the store and codec layers
//! on the workload's own last two generations.

use crate::inputs::Inputs;
use crate::layers::{self, ManaOpts, ManaRun, PhaseSpan, StoreCounters};
use crate::metrics::{Report, Value, PER_LAYER};
use crate::spans::SpanLog;
use crate::stats::{median, quantile, Summary};
use crate::timed_face::{stalls, CallTotal, FaceLog, Stall};
use crate::workloads::{AppResult, Deadline, Drain, Plan, Spec};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Shares of `--seconds` given to the three kinds of measured phase.
const STEADY_SHARE: f64 = 0.15;
const ROUNDS_SHARE: f64 = 0.50;
const RESTART_SHARE: f64 = 0.35;

/// Rounds discarded at the head of every round-measuring run: the first
/// rounds of a run create directories, fill the chunk pool and warm the
/// allocator.
const WARMUP_ROUNDS: u64 = 3;
/// Rounds of the cold run in set-up: a fresh store's first rounds.
const COLD_ROUNDS: u64 = 3;
const SETUP_REPEATS: usize = 3;
/// The measured phases are interleaved in this many cycles of (steady
/// pairs, a rounds run, restarts), so every metric samples the whole run
/// window instead of one contiguous stretch of it: the host's speed
/// drifts on a scale of seconds, and a fresh world per cycle re-rolls
/// where the scheduler places the rank threads.
const CYCLES: u32 = 5;
/// Fewest measured rounds of one rounds run, whatever the clock says.
const MIN_ROUNDS: u64 = 3;
const MAX_ROUNDS: u64 = 1000;

/// Fixed counts of the traced run.
const TRACED_ROUNDS: u64 = 20;
const TRACED_RESTARTS: usize = 6;
const TRACED_PAIRS: usize = 3;
/// Passes behind every replayed layer timing (the median is reported).
const REPLAY_REPEATS: usize = 3;

pub struct Config {
    pub seed: u64,
    pub seconds: f64,
    /// 2 rounds, 1 restart, 1 pair: checks the plumbing in seconds.
    pub smoke: bool,
    /// Directory the scratch stores are created under.
    pub store_root: PathBuf,
    /// Where the traced run writes `trace_<workload>.jsonl`.
    pub out_dir: PathBuf,
}

impl Config {
    fn warmup(&self) -> u64 {
        if self.smoke {
            1
        } else {
            WARMUP_ROUNDS
        }
    }
}

/// Operations attempted and failed, with the reason for each failure.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Tally {
    fn op(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.failed += 1;
            self.failures.push(why);
        }
    }

    fn report(self, spec: &Spec, scratch: &Scratch, values: Vec<Value>) -> Report {
        Report {
            workload: spec.name,
            attempted: self.attempted,
            failed: self.failed,
            failures: self.failures,
            values,
            store_fs: layers::filesystem_of(&scratch.0),
        }
    }
}

fn same_results(what: &str, got: Option<Vec<AppResult>>, want: &[AppResult]) -> Result<(), String> {
    let got = got.ok_or_else(|| format!("{what}: a rank did not finish"))?;
    match got.iter().zip(want).position(|(g, w)| g != w) {
        None if got.len() == want.len() => Ok(()),
        None => Err(format!(
            "{what}: {} ranks, expected {}",
            got.len(),
            want.len()
        )),
        Some(rank) => Err(format!(
            "{what}: result of rank {rank} differs from the native reference"
        )),
    }
}

/// A scratch directory that is removed when the run ends, however it ends.
struct Scratch(PathBuf);

impl Scratch {
    fn create(root: &Path, spec: &Spec, seed: u64) -> Result<Scratch, String> {
        let dir = root.join(format!("{}-{seed}-{}", spec.name, std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(Scratch(dir))
    }

    fn dir(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// What set-up produces: the inputs and the reference results of the run
/// that restarts are taken from.
struct Setup {
    inputs: Inputs,
    exit_plan: Plan,
    exit_ref: Vec<AppResult>,
}

/// The run that checkpoints once and exits: the trigger is in the first
/// of three segments, so a restart has real work left.
fn exit_plan() -> Plan {
    Plan {
        segments: 3,
        triggers: 0..1,
        mutate: true,
    }
}

/// Input generation, a native reference run, and a fresh store's first
/// rounds: what a job pays once before its steady checkpoint rhythm.
fn setup(spec: &Spec, cfg: &Config, scratch: &Scratch) -> Result<Setup, String> {
    let cold_rounds = if cfg.smoke { 1 } else { COLD_ROUNDS };
    let inputs = Inputs::generate(cfg.seed, spec.ranks, spec.slab.map_or(0, |s| s.len));
    let exit_plan = exit_plan();
    let exit_ref = layers::run_native(spec, &inputs, &exit_plan, false)?.results();
    let dir = scratch.dir("cold");
    let cold = layers::run_mana(
        spec,
        &inputs,
        &Plan::rounds(cold_rounds),
        &ManaOpts::resume_mode(spec, &dir),
    )?;
    if cold.rounds.len() as u64 != cold_rounds {
        return Err(format!(
            "set-up: {} of {cold_rounds} cold rounds committed",
            cold.rounds.len()
        ));
    }
    std::fs::remove_dir_all(&dir).map_err(|e| e.to_string())?;
    Ok(Setup {
        inputs,
        exit_plan,
        exit_ref,
    })
}

// ---- phases -----------------------------------------------------------------

struct Pair {
    ratio: f64,
    native_p2p: CallTotal,
    native_coll: CallTotal,
    mana_p2p: CallTotal,
    mana_coll: CallTotal,
    wrappers: layers::WrapperTotals,
}

/// Time inside p2p and collective face calls, summed over ranks.
fn call_totals<'a>(logs: impl Iterator<Item = &'a FaceLog>) -> (CallTotal, CallTotal) {
    let (mut p2p, mut coll) = (CallTotal::default(), CallTotal::default());
    for log in logs {
        p2p.add(log.p2p);
        coll.add(log.coll);
    }
    (p2p, coll)
}

/// One native and one MANA run of the same application, no checkpoint.
fn steady_pair(
    spec: &Spec,
    inputs: &Inputs,
    dir: &Path,
    native_first: bool,
    time_calls: bool,
    tally: &mut Tally,
    index: usize,
) -> Result<Pair, String> {
    let plan = Plan::steady(spec.steady_segments);
    let native = || layers::run_native(spec, inputs, &plan, time_calls);
    let mana = || {
        let mut opts = ManaOpts::resume_mode(spec, dir);
        opts.time_calls = time_calls;
        layers::run_mana(spec, inputs, &plan, &opts)
    };
    let (n, m) = if native_first {
        let n = native()?;
        (n, mana()?)
    } else {
        let m = mana()?;
        (native()?, m)
    };
    tally.op(same_results(
        &format!("steady run {index}"),
        m.results(),
        &n.results(),
    ));
    let (native_p2p, native_coll) = call_totals(n.ranks.iter().map(|r| &r.log));
    let (mana_p2p, mana_coll) = call_totals(m.ranks.iter().flatten().map(|r| &r.log));
    Ok(Pair {
        ratio: m.wall.as_secs_f64() / n.wall.as_secs_f64(),
        native_p2p,
        native_coll,
        mana_p2p,
        mana_coll,
        wrappers: m.wrappers,
    })
}

/// A resume-mode run of back-to-back checkpoint rounds.
struct RoundsLeg {
    run: ManaRun,
    /// Measured rounds only (warm-up discarded), in round order.
    stalls: Vec<Stall>,
}

impl RoundsLeg {
    fn stall_ms(&self) -> Vec<f64> {
        self.stalls.iter().map(Stall::ms).collect()
    }
}

/// Run `plan`'s rounds (ended early by `opts.deadline`, if any), check
/// the result against a native run of the same length, and take the
/// stall of every round after the first `warmup`.
fn rounds_leg(
    spec: &Spec,
    inputs: &Inputs,
    plan: &Plan,
    opts: &ManaOpts<'_>,
    warmup: u64,
    tally: &mut Tally,
) -> Result<RoundsLeg, String> {
    let run = layers::run_mana(spec, inputs, plan, opts)?;
    let what = format!("{} rounds run", opts.drain.name());
    let rounds = opts.deadline.map_or(plan.triggers.end, |d| d.rounds(plan));
    let reference = layers::run_native(spec, inputs, &Plan::rounds(rounds), false)?.results();
    tally.op(same_results(&what, run.results(), &reference));
    let logs = run
        .logs()
        .ok_or_else(|| format!("{what}: a rank did not finish"))?;
    let mut measured = Vec::new();
    for s in stalls(&logs) {
        match s {
            Ok(s) if s.round > warmup => {
                tally.op(Ok(()));
                measured.push(s);
            }
            Ok(_) => {}
            Err(round) => tally.op(Err(format!("{what}: no rank resumed from round {round}"))),
        }
    }
    if run.rounds.len() as u64 != rounds || run.aborted_rounds != 0 {
        tally.op(Err(format!(
            "{what}: {} of {rounds} rounds committed, {} aborted",
            run.rounds.len(),
            run.aborted_rounds
        )));
    }
    // Restart-style validation of what the last round left behind.
    let newest = rounds - 1;
    tally.op(match layers::select_clean(opts.dir, spec.ranks) {
        Ok(round) if round == newest => Ok(()),
        Ok(round) => Err(format!(
            "{what}: store selects generation {round}, newest is {newest}"
        )),
        Err(e) => Err(format!("{what}: {e}")),
    });
    if measured.is_empty() {
        return Err(format!("{what}: no measured round"));
    }
    Ok(RoundsLeg {
        run,
        stalls: measured,
    })
}

/// The checkpoint-and-exit run restarts are taken from.
fn exit_leg(spec: &Spec, setup: &Setup, dir: &Path, tally: &mut Tally) -> Result<u64, String> {
    let mut opts = ManaOpts::resume_mode(spec, dir);
    opts.exit_after_ckpt = true;
    let run = layers::run_mana(spec, &setup.inputs, &setup.exit_plan, &opts)?;
    tally.op(if run.all_checkpointed() {
        Ok(())
    } else {
        Err("checkpoint-and-exit run: a rank finished instead of exiting".into())
    });
    layers::newest_committed(dir)?.ok_or_else(|| "checkpoint-and-exit run committed nothing".into())
}

/// One restart from the exit leg's generation, run to completion.
fn restart_once(
    spec: &Spec,
    setup: &Setup,
    dir: &Path,
    newest: u64,
    trace: Option<layers::Sink>,
    tally: &mut Tally,
    index: usize,
) -> Option<ManaRun> {
    let mut opts = ManaOpts::resume_mode(spec, dir);
    opts.restart = true;
    opts.trace = trace;
    let what = format!("restart {index}");
    match layers::run_mana(
        spec,
        &setup.inputs,
        &setup.exit_plan.without_triggers(),
        &opts,
    ) {
        Ok(run) => {
            let checked = same_results(&what, run.results(), &setup.exit_ref).and_then(|()| {
                if run.restored_round == Some(newest) {
                    Ok(())
                } else {
                    Err(format!(
                        "{what}: restored generation {:?}, newest committed is {newest}",
                        run.restored_round
                    ))
                }
            });
            let ok = checked.is_ok();
            tally.op(checked);
            ok.then_some(run)
        }
        Err(e) => {
            tally.op(Err(format!("{what}: {e}")));
            None
        }
    }
}

/// The median of `values`, printed with the summary of `pooled`. For the
/// stall and restart metrics `values` holds one median per cycle and
/// `pooled` every sample of all cycles: a burst of host noise that spoils
/// one cycle moves that cycle's statistic, not the reported value.
fn median_of(name: &'static str, values: &[f64], pooled: &[f64]) -> Result<Value, String> {
    Ok(Value {
        name,
        value: median(values).ok_or_else(|| format!("{name}: no samples"))?,
        samples: Summary::of(pooled),
    })
}

fn plain(name: &'static str, value: f64) -> Value {
    Value {
        name,
        value,
        samples: None,
    }
}

// ---- the untraced run -------------------------------------------------------

pub fn run_end_to_end(spec: &Spec, cfg: &Config) -> Result<Report, String> {
    let scratch = Scratch::create(&cfg.store_root, spec, cfg.seed)?;
    let mut tally = Tally::default();
    let warmup = cfg.warmup();

    // Set-up, several times over: the last one's products are used.
    let mut setup_s = Vec::new();
    let mut made = None;
    for _ in 0..if cfg.smoke { 1 } else { SETUP_REPEATS } {
        let t = Instant::now();
        made = Some(setup(spec, cfg, &scratch)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let setup = made.expect("at least one set-up");

    let cycles = if cfg.smoke { 1 } else { CYCLES };
    // Phase ends are fixed on one schedule from the start of measurement,
    // so a phase that overruns shortens the next instead of the whole run
    // growing; every phase still does at least one operation.
    let started = Instant::now();
    let phase_end = |cycle: u32, share_done: f64| {
        started
            + Duration::from_secs_f64(
                cfg.seconds * (f64::from(cycle) + share_done) / f64::from(cycles),
            )
    };
    let steady_dir = scratch.dir("steady");
    let exit_dir = scratch.dir("exit");
    let mut ratios = Vec::new();
    // Per-cycle statistics, and the pooled samples they came from.
    let (mut stall_p50s, mut restart_p50s) = (Vec::new(), Vec::new());
    let mut stall_ms = Vec::new();
    let mut restart_ms = Vec::new();
    let mut written = StoreCounters::default();
    let mut space_amps = Vec::new();
    let mut newest_exit = None;
    let mut restarts = 0;
    for cycle in 0..cycles {
        // Steady pairs: native and MANA alternate which goes first.
        let deadline = phase_end(cycle, STEADY_SHARE);
        loop {
            let i = ratios.len();
            let pair = steady_pair(
                spec,
                &setup.inputs,
                &steady_dir,
                i % 2 == 0,
                false,
                &mut tally,
                i,
            )?;
            ratios.push(pair.ratio);
            if cfg.smoke || Instant::now() >= deadline {
                break;
            }
        }

        // Back-to-back checkpoint rounds in one resume-mode run of a
        // fresh world and a fresh store, ended by the clock.
        let rounds_dir = scratch.dir(&format!("rounds-{cycle}"));
        let deadline = if cfg.smoke {
            Deadline::new(Instant::now(), warmup + 2)
        } else {
            Deadline::new(
                phase_end(cycle, STEADY_SHARE + ROUNDS_SHARE),
                warmup + MIN_ROUNDS,
            )
        };
        let mut opts = ManaOpts::resume_mode(spec, &rounds_dir);
        opts.counters_at_round = Some(warmup);
        opts.deadline = Some(&deadline);
        let leg = rounds_leg(
            spec,
            &setup.inputs,
            &Plan::rounds(warmup + MAX_ROUNDS),
            &opts,
            warmup,
            &mut tally,
        )?;
        let cycle_stalls = leg.stall_ms();
        stall_p50s.extend(median(&cycle_stalls));
        stall_ms.extend(cycle_stalls);
        let mark = leg
            .run
            .counters_mark
            .ok_or("rounds run: store counters were not read at the first measured round")?;
        written.add(&leg.run.counters_end.since(&mark));
        let newest_logical = leg.run.rounds.last().map_or(0, |r| r.logical_bytes);
        if newest_logical == 0 {
            return Err("rounds run: the newest generation has no bytes".into());
        }
        let on_disk = layers::disk_bytes(&rounds_dir).map_err(|e| e.to_string())?;
        space_amps.push(on_disk as f64 / newest_logical as f64);
        std::fs::remove_dir_all(&rounds_dir).map_err(|e| e.to_string())?;

        // Checkpoint-and-exit once, then restarts of that same generation.
        let newest = match newest_exit {
            Some(round) => round,
            None => *newest_exit.insert(exit_leg(spec, &setup, &exit_dir, &mut tally)?),
        };
        let deadline = phase_end(cycle, STEADY_SHARE + ROUNDS_SHARE + RESTART_SHARE);
        let mut cycle_restarts = Vec::new();
        loop {
            let run = restart_once(spec, &setup, &exit_dir, newest, None, &mut tally, restarts);
            restarts += 1;
            // A failed restart is tallied; it is not retried.
            let Some(ms) = run.and_then(|r| r.reentry_ms()) else {
                break;
            };
            cycle_restarts.push(ms);
            if cfg.smoke || Instant::now() >= deadline {
                break;
            }
        }
        restart_p50s.extend(median(&cycle_restarts));
        restart_ms.extend(cycle_restarts);
    }
    if written.logical_bytes == 0 {
        return Err("rounds runs: no image bytes were written in a measured round".into());
    }

    let values = vec![
        median_of("setup_s", &setup_s, &setup_s)?,
        median_of("app_overhead_ratio", &ratios, &ratios)?,
        median_of("ckpt_stall_ms_p50", &stall_p50s, &stall_ms)?,
        median_of("restart_ms_p50", &restart_p50s, &restart_ms)?,
        plain(
            "write_amp",
            written.physical_bytes as f64 / written.logical_bytes as f64,
        ),
        median_of("space_amp", &space_amps, &space_amps)?,
    ];
    Ok(tally.report(spec, &scratch, values))
}

// ---- the traced run ---------------------------------------------------------

fn phase_ms(spans: &[PhaseSpan], actor: i32, round: i64, name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.actor == actor && s.round == round && s.name == name)
        .map(PhaseSpan::ms)
        .sum()
}

fn median_or_zero(samples: &[f64]) -> f64 {
    median(samples).unwrap_or(0.0)
}

const ROUND_PHASES: [&str; 5] = ["intent", "drain_exchange", "drain", "image_write", "commit"];

pub fn run_traced(spec: &Spec, cfg: &Config) -> Result<Report, String> {
    let scratch = Scratch::create(&cfg.store_root, spec, cfg.seed)?;
    let mut tally = Tally::default();
    let mut log = SpanLog::new();
    let (rounds, restarts, pairs, repeats) = if cfg.smoke {
        (2, 1, 1, 1)
    } else {
        (TRACED_ROUNDS, TRACED_RESTARTS, TRACED_PAIRS, REPLAY_REPEATS)
    };
    let warmup = cfg.warmup();

    let inputs = Inputs::generate(cfg.seed, spec.ranks, spec.slab.map_or(0, |s| s.len));
    let rounds_plan = Plan::rounds(warmup + rounds);
    let exit_plan = exit_plan();
    let setup = Setup {
        exit_ref: layers::run_native(spec, &inputs, &exit_plan, false)?.results(),
        exit_plan,
        inputs,
    };

    // Traced rounds: flight recorder and call timing on.
    let traced_dir = scratch.dir("rounds");
    let sink = layers::new_trace_sink(spec.ranks);
    let sink_origin = Instant::now();
    let mut opts = ManaOpts::resume_mode(spec, &traced_dir);
    opts.trace = Some(sink.clone());
    opts.time_calls = true;
    let traced = rounds_leg(spec, &setup.inputs, &rounds_plan, &opts, warmup, &mut tally)?;
    let trace = layers::read_trace(&sink);
    let mut per_phase: Vec<Vec<f64>> = vec![Vec::new(); ROUND_PHASES.len()];
    let mut unattributed = Vec::new();
    for s in &traced.stalls {
        // The coordinator numbers rounds from 0; `round()` counts them.
        let round = s.round as i64 - 1;
        let op = log.root(&format!("round:{round}"), "stall", s.requested, s.resumed);
        let mut attributed = 0.0;
        for (slot, name) in per_phase.iter_mut().zip(ROUND_PHASES) {
            let ms = phase_ms(&trace.spans, s.last_rank as i32, round, name);
            slot.push(ms);
            attributed += ms;
        }
        for p in trace
            .spans
            .iter()
            .filter(|p| p.actor == s.last_rank as i32 && p.round == round)
        {
            log.child_ns(op, p.name, sink_origin, p.start_ns, p.end_ns);
        }
        unattributed.push(s.ms() - attributed);
    }
    let measured: Vec<&layers::CoordRound> = traced
        .run
        .rounds
        .iter()
        .filter(|r| r.round >= warmup)
        .collect();
    let coord = |pick: fn(&layers::CoordRound) -> f64| {
        median_or_zero(&measured.iter().map(|r| pick(r)).collect::<Vec<_>>())
    };

    // The same rounds untraced, once per drain protocol: the workload's
    // own protocol doubles as the untraced side of the tracing overhead.
    let mut drain_stall = Vec::new();
    let mut untraced_p90 = 0.0;
    for drain in Drain::ALL {
        let dir = scratch.dir(&format!("drain-{}", drain.name()));
        let mut opts = ManaOpts::resume_mode(spec, &dir);
        opts.drain = drain;
        let leg = rounds_leg(spec, &setup.inputs, &rounds_plan, &opts, warmup, &mut tally)?;
        std::fs::remove_dir_all(&dir).map_err(|e| e.to_string())?;
        let ms = leg.stall_ms();
        if drain == spec.drain {
            untraced_p90 = quantile(&ms, 0.9).unwrap_or(0.0);
        }
        drain_stall.push((drain, median_or_zero(&ms)));
    }
    let drain_ms = |d: Drain| {
        drain_stall
            .iter()
            .find(|(x, _)| *x == d)
            .map_or(0.0, |(_, ms)| *ms)
    };
    let untraced_p50 = drain_ms(spec.drain);
    let traced_p50 = median_or_zero(&traced.stall_ms());

    // Checkpoint-and-exit, then traced restarts.
    let exit_dir = scratch.dir("exit");
    let newest = exit_leg(spec, &setup, &exit_dir, &mut tally)?;
    let mut restart_phases: [Vec<f64>; 3] = Default::default();
    for i in 0..restarts {
        let sink = layers::new_trace_sink(spec.ranks);
        let origin = Instant::now();
        let Some(run) = restart_once(
            spec,
            &setup,
            &exit_dir,
            newest,
            Some(sink.clone()),
            &mut tally,
            i,
        ) else {
            continue;
        };
        let t = layers::read_trace(&sink);
        let op = log.root(
            &format!("restart:{i}"),
            "reentry",
            run.called,
            run.last_entered().unwrap_or(run.called),
        );
        for (slot, name) in restart_phases
            .iter_mut()
            .zip(["restart_validate", "journal_replay"])
        {
            let spans: Vec<_> = t.spans.iter().filter(|s| s.name == name).collect();
            slot.push(spans.iter().map(|s| s.ms()).sum());
            for s in spans {
                log.child_ns(op, s.name, origin, s.start_ns, s.end_ns);
            }
        }
        // Ranks rebuild communicators concurrently: the slowest one gates.
        let slowest = t
            .spans
            .iter()
            .filter(|s| s.name == "restore_comms")
            .max_by(|a, b| a.ms().total_cmp(&b.ms()));
        restart_phases[2].push(slowest.map_or(0.0, PhaseSpan::ms));
        if let Some(s) = slowest {
            log.child_ns(op, s.name, origin, s.start_ns, s.end_ns);
        }
    }

    // Steady pairs with call timing.
    let steady_dir = scratch.dir("steady");
    let mut native_p2p = CallTotal::default();
    let mut native_coll = CallTotal::default();
    let mut mana_p2p = CallTotal::default();
    let mut mana_coll = CallTotal::default();
    let mut wrappers = layers::WrapperTotals::default();
    for i in 0..pairs {
        let started = Instant::now();
        let pair = steady_pair(
            spec,
            &setup.inputs,
            &steady_dir,
            i % 2 == 0,
            true,
            &mut tally,
            i,
        )?;
        let op = log.root(&format!("steady:{i}"), "pair", started, Instant::now());
        log.calls(op, "mpisim.p2p", pair.native_p2p);
        log.calls(op, "mpisim.coll", pair.native_coll);
        log.calls(op, "core.wrapper.p2p", pair.mana_p2p);
        log.calls(op, "core.wrapper.coll", pair.mana_coll);
        native_p2p.add(pair.native_p2p);
        native_coll.add(pair.native_coll);
        mana_p2p.add(pair.mana_p2p);
        mana_coll.add(pair.mana_coll);
        wrappers.wrapper_calls += pair.wrappers.wrapper_calls;
        wrappers.lh_jumps += pair.wrappers.lh_jumps;
        wrappers.fs_switch_ns += pair.wrappers.fs_switch_ns;
    }

    // Group A: the layers replayed single-threaded on the workload's own
    // last two generations.
    let replay_started = Instant::now();
    let replay = log.root("replay", "replay", replay_started, replay_started);
    let step = |log: &mut SpanLog, name: &str, since: Instant| {
        log.child(replay, name, since, Instant::now());
        Instant::now()
    };
    let (older, newer) = layers::last_two_generations(&traced_dir)?;
    let older = layers::load_generation(&traced_dir, older, spec.ranks)?;
    let newer = layers::load_generation(&traced_dir, newer, spec.ranks)?;
    let t = step(&mut log, "load_generations", replay_started);
    let image = layers::time_image_layers(&newer, spec.layout, repeats)?;
    let t = step(&mut log, "splitproc.codec+image+chunk", t);
    let writes = layers::time_store_writes(
        &scratch.dir("replay-store"),
        &older,
        &newer,
        spec.layout,
        repeats,
    )?;
    let t = step(&mut log, "splitproc.store.write", t);
    // The same replay on the checkout's own file system: what fsync and
    // rename cost on the sandbox's disk. Diagnostic, never gated.
    let disk_dir = cfg
        .out_dir
        .join(format!("disk-replay-{}", std::process::id()));
    let disk = layers::time_store_writes(&disk_dir, &older, &newer, spec.layout, repeats)?;
    let t = step(&mut log, "splitproc.store.write_disk", t);
    let reads = layers::time_store_reads(&traced_dir, spec.ranks, repeats)?;
    let t = step(&mut log, "splitproc.store.read", t);
    let journal = layers::time_journal(&scratch.dir("replay-journal"), spec.ranks, repeats)?;
    let t = step(&mut log, "splitproc.journal", t);
    let topo = layers::time_topo_order(spec.ranks, repeats);
    let topo_1024 = layers::time_topo_order(1024, repeats);
    let t = step(&mut log, "core.coordinator.topo_order", t);
    let spawn = layers::time_world_spawn(spec.ranks, setup.inputs.sched_seed, repeats);
    step(&mut log, "mpisim.world.spawn", t);
    log.close(replay, Instant::now());

    let StoreCounters {
        physical_bytes,
        fsyncs,
        chunks_written,
        chunks_deduped,
        ..
    } = writes.next;
    let chunk_refs = chunks_written + chunks_deduped;
    let sweeps = &traced.run.wrappers.drain_sweeps;
    let per_call = |total: u64| total as f64 / wrappers.wrapper_calls.max(1) as f64;

    let mut v = vec![
        plain("splitproc.codec.crc32_ms", image.crc32_ms),
        plain("splitproc.codec.encode_ms", image.encode_ms),
        plain("splitproc.codec.decode_ms", image.decode_ms),
        plain("splitproc.image.to_bytes_ms", image.to_bytes_ms),
        plain("splitproc.image.from_bytes_ms", image.from_bytes_ms),
        plain("splitproc.chunk.split_ms", image.split_ms),
        plain("splitproc.chunk.sha256_ms", image.sha256_ms),
        plain("splitproc.chunk.chunks_per_image", image.chunks_per_image),
        plain("splitproc.store.write_first_ms", writes.write_first_ms),
        plain("splitproc.store.write_next_ms", writes.write_next_ms),
        plain("splitproc.store.fsyncs_per_round", fsyncs as f64),
        plain(
            "splitproc.store.physical_bytes_per_round",
            physical_bytes as f64,
        ),
        plain(
            "splitproc.store.chunks_written_per_round",
            chunks_written as f64,
        ),
        plain(
            "splitproc.store.chunks_deduped_per_round",
            chunks_deduped as f64,
        ),
        plain(
            "splitproc.store.dedup_hit_ratio",
            chunks_deduped as f64 / chunk_refs.max(1) as f64,
        ),
        plain("splitproc.store.write_next_disk_ms", disk.write_next_ms),
        plain("splitproc.store.commit_ms", writes.commit_ms),
        plain(
            "splitproc.store.gc_generations_ms",
            writes.gc_generations_ms,
        ),
        plain("splitproc.store.gc_chunks_ms", writes.gc_chunks_ms),
        plain("splitproc.store.select_ms", reads.select_ms),
        plain("splitproc.store.load_image_ms", reads.load_image_ms),
        plain("splitproc.journal.open_ms", journal.open_ms),
        plain("splitproc.journal.append_us", journal.append_us),
        plain("core.coordinator.topo_order_ms", topo),
        plain("core.coordinator.topo_order_1024_ms", topo_1024),
        plain("core.drain.alltoall.stall_ms", drain_ms(Drain::Alltoall)),
        plain(
            "core.drain.coordinator.stall_ms",
            drain_ms(Drain::Coordinator),
        ),
        plain("core.drain.toposort.stall_ms", drain_ms(Drain::TopoSort)),
        plain("core.runtime.stall_ms_p90", untraced_p90),
        plain("mpisim.world.spawn_ms", spawn),
        plain("mpisim.p2p.call_us", native_p2p.mean_us()),
        plain("mpisim.coll.call_us", native_coll.mean_us()),
        plain("core.wrapper.p2p_call_us", mana_p2p.mean_us()),
        plain("core.wrapper.coll_call_us", mana_coll.mean_us()),
        plain("core.coordinator.quiesce_ms", coord(|r| r.quiesce_ms)),
        plain("core.coordinator.write_ms", coord(|r| r.write_ms)),
        plain("core.coordinator.msgs_per_round", coord(|r| r.msgs as f64)),
        plain(
            "core.wrapper.lh_jumps_per_call",
            per_call(wrappers.lh_jumps),
        ),
        plain(
            "core.wrapper.fs_switch_ns_per_call",
            per_call(wrappers.fs_switch_ns),
        ),
        plain(
            "core.drain.sweeps_per_round",
            sweeps.iter().sum::<u64>() as f64 / sweeps.len().max(1) as f64,
        ),
    ];
    for (name, samples) in [
        "core.phase.intent_ms",
        "core.phase.drain_exchange_ms",
        "core.phase.drain_ms",
        "core.phase.image_write_ms",
        "core.phase.commit_ms",
    ]
    .into_iter()
    .zip(&per_phase)
    {
        v.push(plain(name, median_or_zero(samples)));
    }
    v.extend([
        plain(
            "core.phase.restart_validate_ms",
            median_or_zero(&restart_phases[0]),
        ),
        plain(
            "core.phase.journal_replay_ms",
            median_or_zero(&restart_phases[1]),
        ),
        plain(
            "core.phase.restore_comms_ms",
            median_or_zero(&restart_phases[2]),
        ),
        plain("core.phase.unattributed_ms", median_or_zero(&unattributed)),
        plain(
            "obs.trace.overhead_pct",
            if untraced_p50 > 0.0 {
                (traced_p50 / untraced_p50 - 1.0) * 100.0
            } else {
                0.0
            },
        ),
        plain(
            "obs.trace.events_per_round",
            trace.events as f64 / (warmup + rounds) as f64,
        ),
        plain("obs.trace.dropped", trace.dropped as f64),
    ]);
    debug_assert_eq!(v.len(), PER_LAYER.len());

    std::fs::create_dir_all(&cfg.out_dir).map_err(|e| e.to_string())?;
    let path = cfg.out_dir.join(format!("trace_{}.jsonl", spec.name));
    std::fs::write(&path, log.to_jsonl()).map_err(|e| format!("{}: {e}", path.display()))?;

    Ok(tally.report(spec, &scratch, v))
}
