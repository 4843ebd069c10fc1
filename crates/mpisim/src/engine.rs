//! The rank-execution engine.
//!
//! A [`World`](crate::World) runs its ranks on one [`CoopEngine`]: gated
//! concurrency. All `n` rank threads exist (safe Rust cannot swap
//! stacks), but at most `workers` of them hold a *run token* at any
//! instant. Every park releases the holder's token and a seeded,
//! deterministic run-queue policy decides which runnable rank gets it
//! next — so the schedule is chosen by the engine, not the kernel, and a
//! fixed `(seed, workers)` pair replays the same state-relevant
//! interleaving. With `workers = n` every rank holds a token of its own,
//! the gate is never contended, and the kernel schedules the ranks
//! preemptively. Parked ranks cost only their stack
//! ([`WorldCfg::stack_size`](crate::WorldCfg::stack_size)), which lifts
//! the practical rank ceiling to 4096+.
//!
//! # The parking protocol
//!
//! [`Parker::park`] has *token semantics* (like [`std::thread::park`]): an
//! [`Unparker::unpark`] delivered while the rank is awake is banked and
//! consumed by the next `park`, which then returns immediately. This makes
//! the check-then-park sequence at every wait site race-free **without**
//! holding a lock across the park:
//!
//! ```text
//! waiter:   lock mailbox → predicate false → unlock → park()
//! sender:   lock mailbox → deposit → unlock → unpark(dst)
//! ```
//!
//! If the unpark lands in the unlock→park window it is banked, so the
//! park returns instantly and the waiter re-checks. Spurious wakeups are
//! allowed; every caller re-checks its predicate in a loop.

use crate::{splitmix64, unpoisoned};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Shared scheduler-activity counters, one set per engine instance.
///
/// `mpisim` depends on nothing, so it cannot feed the repo's metrics
/// registry directly; instead the engine maintains these relaxed atomics
/// and the MANA layer samples them into its own metrics plane (the same
/// arms-length pattern as [`crate::TraceHook`]).
#[derive(Debug, Default)]
pub struct EngineMetrics {
    /// Unpark calls delivered through the engine's [`Unparker`]s.
    pub unparks: AtomicU64,
    /// Current ready-queue depth.
    pub ready_depth: AtomicU64,
    /// High-water mark of `ready_depth`.
    pub ready_depth_max: AtomicU64,
}

impl EngineMetrics {
    fn note_ready(&self, depth: usize) {
        let d = depth as u64;
        self.ready_depth.store(d, Ordering::Relaxed);
        self.ready_depth_max.fetch_max(d, Ordering::Relaxed);
    }
}

/// One rank's blocking primitive, handed out by the engine.
///
/// `park` blocks the calling rank until a matching [`Unparker::unpark`]
/// arrives or `timeout` elapses. An unpark delivered since the previous
/// `park` returned is banked: the next `park` consumes it and returns
/// immediately. Spurious returns are permitted — callers must re-check
/// their predicate in a loop. Only the rank's own thread may park on it.
#[derive(Clone)]
pub struct Parker {
    rank: usize,
    engine: Arc<CoopEngine>,
}

impl Parker {
    /// Release the run token and block until unparked or `timeout`
    /// elapses (token semantics), then run again once a token is granted.
    pub fn park(&self, timeout: Duration) {
        self.engine.park(self.rank, timeout);
    }
}

/// The waker half of a [`Parker`], usable from any thread.
pub trait Unparker: Send + Sync {
    /// Wake the paired rank if parked; bank the wake otherwise.
    fn unpark(&self);
}

/// Shared handle to a rank's [`Unparker`].
pub type UnparkerRef = Arc<dyn Unparker>;

/// The engine's [`Unparker`] for one rank.
struct RankWaker {
    rank: usize,
    engine: Arc<CoopEngine>,
}

impl Unparker for RankWaker {
    fn unpark(&self) {
        self.engine.unpark(self.rank);
    }
}

// ---- schedule policies ------------------------------------------------------

/// One scheduling decision taken by a coop scheduler: at decision
/// `index`, the ready queue held `ready` (in queue order) and the rank at
/// `ready[chosen_idx]` was granted the freed run token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchedDecision {
    /// 0-based decision index (the policy-hash input).
    pub index: u64,
    /// The ready queue at decision time, in queue order.
    pub ready: Vec<usize>,
    /// Index into `ready` that was picked (the *choice*).
    pub chosen_idx: u32,
    /// Rank granted the token (`ready[chosen_idx]`).
    pub chosen_rank: usize,
}

/// Decision log filled in by the [`SchedulePolicy::Record`] and
/// [`SchedulePolicy::Replay`] policies. Shared (via `Arc`) between the
/// engine and the harness that reads the log back after the run.
#[derive(Debug, Default)]
pub struct ScheduleRecorder {
    decisions: Mutex<Vec<SchedDecision>>,
}

impl ScheduleRecorder {
    /// Fresh shared recorder.
    pub fn new() -> Arc<ScheduleRecorder> {
        Arc::new(ScheduleRecorder::default())
    }

    fn record(&self, d: SchedDecision) {
        unpoisoned(self.decisions.lock()).push(d);
    }

    /// Copy of the decision log so far.
    pub fn decisions(&self) -> Vec<SchedDecision> {
        unpoisoned(self.decisions.lock()).clone()
    }

    /// The decision log projected to its choice vector (one index per
    /// decision) — the form [`ScheduleScript`] replays.
    pub fn choices(&self) -> Vec<u32> {
        unpoisoned(self.decisions.lock())
            .iter()
            .map(|d| d.chosen_idx)
            .collect()
    }

    /// Number of decisions recorded.
    pub fn len(&self) -> usize {
        unpoisoned(self.decisions.lock()).len()
    }

    /// Whether no decision has been recorded yet.
    pub fn is_empty(&self) -> bool {
        unpoisoned(self.decisions.lock()).is_empty()
    }

    /// Drop all recorded decisions (reuse across runs).
    pub fn clear(&self) {
        unpoisoned(self.decisions.lock()).clear();
    }
}

/// Replay could not apply a scripted choice: at decision `index` the
/// ready queue had only `ready_len` entries but the script demanded
/// index `choice`. The run continues under the seeded policy from that
/// decision on; the harness checks [`ScheduleScript::divergence`] after
/// the run and treats `Some` as a failed replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduleDivergence {
    /// Decision index at which the script stopped being applicable.
    pub index: u64,
    /// Size of the ready queue at that decision.
    pub ready_len: usize,
    /// The out-of-range scripted choice.
    pub choice: u32,
}

/// An explicit choice vector driving [`SchedulePolicy::Replay`].
///
/// Each entry is an index into the ready queue at the corresponding
/// decision; decisions past the end of the vector fall back to the
/// seeded pick (so a *prefix* pins the interesting part of a schedule
/// and the rest completes deterministically). Replay always records the
/// decisions it actually took — [`ScheduleScript::recorded`] — which is
/// how the schedule explorer learns each decision's fan-out.
#[derive(Debug, Default)]
pub struct ScheduleScript {
    choices: Vec<u32>,
    recorder: ScheduleRecorder,
    divergence: Mutex<Option<ScheduleDivergence>>,
}

impl ScheduleScript {
    /// Script replaying `choices` (then seeded completion).
    pub fn new(choices: Vec<u32>) -> Arc<ScheduleScript> {
        Arc::new(ScheduleScript {
            choices,
            recorder: ScheduleRecorder::default(),
            divergence: Mutex::new(None),
        })
    }

    /// The scripted choice vector.
    pub fn choices(&self) -> &[u32] {
        &self.choices
    }

    /// Decisions actually taken during the replay (scripted prefix plus
    /// seeded completion), in order.
    pub fn recorded(&self) -> Vec<SchedDecision> {
        self.recorder.decisions()
    }

    /// The full choice vector the replayed run actually followed.
    pub fn recorded_choices(&self) -> Vec<u32> {
        self.recorder.choices()
    }

    /// First divergence between the script and the run, if any.
    pub fn divergence(&self) -> Option<ScheduleDivergence> {
        *unpoisoned(self.divergence.lock())
    }

    /// Whether the run consumed every scripted choice. A run that ended
    /// before the script did never exercised the scripted suffix — the
    /// other way a replay can silently diverge.
    pub fn fully_consumed(&self) -> bool {
        self.recorder.len() >= self.choices.len()
    }

    fn pick(&self, index: u64, ready_len: usize, seeded: usize) -> usize {
        match self.choices.get(index as usize) {
            Some(&c) if (c as usize) < ready_len => c as usize,
            Some(&c) => {
                let mut div = unpoisoned(self.divergence.lock());
                if div.is_none() {
                    *div = Some(ScheduleDivergence {
                        index,
                        ready_len,
                        choice: c,
                    });
                }
                seeded
            }
            None => seeded,
        }
    }
}

/// How the `CoopEngine` picks which ready rank gets a freed run token.
///
/// The policy only *selects among ready ranks*; liveness (every parked
/// rank eventually reconsidered) is the scheduler's own contract and
/// holds under every policy.
#[derive(Debug, Clone, Default)]
pub enum SchedulePolicy {
    /// The seeded splitmix64 pick keyed by `CoopCfg::sched_seed` (the
    /// default, and the behavior of every policy past its script).
    #[default]
    Seeded,
    /// Seeded pick, logging every decision as
    /// `(decision_index, ready_queue, chosen)` into the recorder.
    Record(Arc<ScheduleRecorder>),
    /// Drive an explicit choice vector (then seeded completion),
    /// recording what actually ran and flagging divergence.
    Replay(Arc<ScheduleScript>),
}

impl SchedulePolicy {
    /// Short policy name for logs.
    pub fn name(&self) -> &'static str {
        match self {
            SchedulePolicy::Seeded => "seeded",
            SchedulePolicy::Record(_) => "record",
            SchedulePolicy::Replay(_) => "replay",
        }
    }
}

impl PartialEq for SchedulePolicy {
    /// Identity semantics: `Seeded` equals `Seeded`; `Record`/`Replay`
    /// compare by shared-state identity (two handles to the same log).
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (SchedulePolicy::Seeded, SchedulePolicy::Seeded) => true,
            (SchedulePolicy::Record(a), SchedulePolicy::Record(b)) => Arc::ptr_eq(a, b),
            (SchedulePolicy::Replay(a), SchedulePolicy::Replay(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }
}

impl Eq for SchedulePolicy {}

/// Configuration of the `CoopEngine`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CoopCfg {
    /// Maximum ranks runnable at once (run tokens). `0` = auto (the
    /// machine's available parallelism). `1` fully serializes rank
    /// execution, which is the strongest determinism setting; the world
    /// size gives every rank its own token.
    pub workers: usize,
    /// Seed of the run-queue policy: which ready rank is granted a freed
    /// token. The same `(sched_seed, workers)` pair replays the same
    /// scheduling decisions for the same sequence of wake events.
    pub sched_seed: u64,
}

/// How a world's ranks are executed. There is one engine, the
/// token-gated `CoopEngine`; this value is its configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// Token-gated cooperative scheduling over per-rank threads.
    Coop(CoopCfg),
}

impl EngineKind {
    /// Every spelling [`EngineKind::parse`] accepts, for error messages.
    pub const SPELLINGS: &'static str =
        "coop | coop:<workers> | coop:<workers>:<seed> (workers: auto or >= 1)";

    /// Parse an engine spec (the `MANA2_ENGINE` syntax). Accepted values:
    ///
    /// * `coop` — auto worker count, schedule seed 0
    /// * `coop:<workers>` — a worker count ≥ 1, or `auto`
    /// * `coop:<workers>:<seed>` — plus an explicit schedule seed
    ///
    /// Every [`Display`](fmt::Display) form reads back. `None` when the
    /// spec is malformed, including the retired `thread`. An explicit
    /// `coop:0` is rejected: zero run tokens could never grant, so it must
    /// not silently mean "auto" — a worker-count typo has to surface, not
    /// deadlock or re-interpret itself.
    pub fn parse(spec: &str) -> Option<EngineKind> {
        let mut parts = spec.trim().split(':');
        if !parts.next()?.eq_ignore_ascii_case("coop") {
            return None;
        }
        let mut cfg = CoopCfg::default();
        if let Some(w) = parts.next() {
            let w = w.trim();
            if !w.eq_ignore_ascii_case("auto") {
                cfg.workers = w.parse().ok().filter(|&w| w >= 1)?;
            }
        }
        if let Some(s) = parts.next() {
            cfg.sched_seed = s.trim().parse().ok()?;
        }
        if parts.next().is_some() {
            return None;
        }
        Some(EngineKind::Coop(cfg))
    }
}

impl fmt::Display for EngineKind {
    /// `coop:<workers>:<seed>`, with `auto` for the machine-sized worker
    /// count — the one spelling of an engine in dump headers, metrics
    /// series and chaos specs.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let EngineKind::Coop(c) = self;
        match c.workers {
            0 => write!(f, "coop:auto:{}", c.sched_seed),
            w => write!(f, "coop:{w}:{}", c.sched_seed),
        }
    }
}

// ---- the engine --------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RankState {
    /// Not yet arrived at the start barrier.
    Starting,
    /// Holds a run token.
    Running,
    /// Parked: no token, waiting for an unpark (or park timeout).
    Parked,
    /// Runnable: waiting in the ready queue for a token grant.
    Ready,
    /// Returned from its body; its token is retired.
    Done,
}

struct CoopState {
    status: Vec<RankState>,
    /// Ranks waiting for a run token, in enqueue order. Grants pick an
    /// index by seeded hash, so the queue is a deterministic *set* with a
    /// deterministic *policy*, not a FIFO.
    ready: Vec<usize>,
    /// Banked unparks (token semantics), one per rank.
    pending: Vec<bool>,
    /// Free run tokens.
    free: usize,
    /// Ranks arrived at the start barrier. No token is granted until all
    /// `n` have arrived, so the first scheduling decision sees the full
    /// ready set regardless of spawn order.
    started: usize,
    /// Scheduling decisions taken (the policy hash input).
    decisions: u64,
}

/// Token-gated cooperative engine: `n` rank threads, at most `workers`
/// runnable at once, scheduling decided by a seeded deterministic policy.
/// One per [`World`](crate::World); its fabric and every [`Parker`] share
/// it.
pub(crate) struct CoopEngine {
    n: usize,
    seed: u64,
    workers: usize,
    /// How a freed token picks its next holder (seeded / record / replay).
    policy: SchedulePolicy,
    state: Mutex<CoopState>,
    /// Per-rank wake channels, all paired with `state`'s mutex.
    cvs: Vec<Condvar>,
    pub(crate) metrics: Arc<EngineMetrics>,
}

impl CoopEngine {
    pub(crate) fn new(n: usize, cfg: CoopCfg, policy: SchedulePolicy) -> Arc<CoopEngine> {
        let workers = match cfg.workers {
            0 => std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(4),
            w => w,
        }
        .min(n.max(1));
        Arc::new(CoopEngine {
            n,
            seed: cfg.sched_seed,
            workers,
            policy,
            state: Mutex::new(CoopState {
                status: vec![RankState::Starting; n],
                ready: Vec::with_capacity(n),
                pending: vec![false; n],
                free: workers,
                started: 0,
                decisions: 0,
            }),
            cvs: (0..n).map(|_| Condvar::new()).collect(),
            metrics: Arc::new(EngineMetrics::default()),
        })
    }

    /// Rank `rank`'s [`Parker`].
    pub(crate) fn parker(self: &Arc<Self>, rank: usize) -> Parker {
        Parker {
            rank,
            engine: self.clone(),
        }
    }

    /// The handle that wakes rank `rank`, from any thread.
    pub(crate) fn unparker(self: &Arc<Self>, rank: usize) -> UnparkerRef {
        Arc::new(RankWaker {
            rank,
            engine: self.clone(),
        })
    }

    /// Run `body(rank)` once per rank, each on its own `stack_size`
    /// thread, and return when every rank has finished. A world may be
    /// launched more than once; each launch re-runs the start barrier from
    /// zero. Banked unparks survive (a wake delivered between launches is
    /// still owed to its rank).
    pub(crate) fn run(&self, stack_size: usize, body: &(dyn Fn(usize) + Sync)) {
        {
            let mut st = unpoisoned(self.state.lock());
            debug_assert!(
                st.status
                    .iter()
                    .all(|s| matches!(s, RankState::Starting | RankState::Done)),
                "relaunch while ranks still active"
            );
            st.status.fill(RankState::Starting);
            st.ready.clear();
            st.free = self.workers;
            st.started = 0;
        }
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..self.n)
                .map(|rank| {
                    std::thread::Builder::new()
                        .name(format!("rank-{rank}"))
                        .stack_size(stack_size)
                        .spawn_scoped(s, move || {
                            self.start(rank);
                            body(rank);
                            self.retire(rank);
                        })
                        .expect("failed to spawn rank thread")
                })
                .collect();
            for h in handles {
                h.join().expect("rank thread join failed");
            }
        });
    }

    /// Grant free tokens to ready ranks, one policy pick per token. Held
    /// back until the start barrier completes.
    fn grant(&self, st: &mut CoopState) {
        while st.free > 0 && !st.ready.is_empty() && st.started == self.n {
            let k = st.decisions;
            let seeded = (splitmix64(self.seed ^ k) as usize) % st.ready.len();
            let (idx, log) = match &self.policy {
                SchedulePolicy::Seeded => (seeded, None),
                SchedulePolicy::Record(rec) => (seeded, Some(&**rec)),
                SchedulePolicy::Replay(script) => (
                    script.pick(k, st.ready.len(), seeded),
                    Some(&script.recorder),
                ),
            };
            if let Some(log) = log {
                log.record(SchedDecision {
                    index: k,
                    ready: st.ready.clone(),
                    chosen_idx: idx as u32,
                    chosen_rank: st.ready[idx],
                });
            }
            st.decisions = st.decisions.wrapping_add(1);
            let rank = st.ready.remove(idx);
            st.free -= 1;
            st.status[rank] = RankState::Running;
            self.cvs[rank].notify_all();
        }
        // Every ready-queue mutation site calls grant() before dropping
        // the lock, so sampling here keeps the depth gauge current.
        self.metrics.note_ready(st.ready.len());
    }

    /// Start barrier + initial token acquisition. Grants are held until
    /// the last rank arrives (see [`CoopState::started`]); that arrival
    /// also sorts the ready queue into ascending rank order, so the first
    /// scheduling decision sees a canonical ready set — a pure function of
    /// `(workers, sched_seed, policy)` — instead of the spawn race's
    /// arrival order. (Every later enqueue is ordered by unpark calls,
    /// which the running ranks' actions determine.)
    fn start(&self, rank: usize) {
        let mut st = unpoisoned(self.state.lock());
        st.started += 1;
        st.status[rank] = RankState::Ready;
        st.ready.push(rank);
        if st.started == self.n {
            st.ready.sort_unstable();
        }
        self.grant(&mut st);
        while st.status[rank] != RankState::Running {
            st = unpoisoned(self.cvs[rank].wait(st));
        }
    }

    /// Retire a finished rank's token.
    fn retire(&self, rank: usize) {
        let mut st = unpoisoned(self.state.lock());
        st.status[rank] = RankState::Done;
        st.free += 1;
        self.grant(&mut st);
    }

    /// The park: consume a banked wake, or release the token, wait for an
    /// unpark/timeout, then run again once the policy grants a token back.
    pub(crate) fn park(&self, rank: usize, timeout: Duration) {
        let deadline = Instant::now().checked_add(timeout);
        let mut st = unpoisoned(self.state.lock());
        if st.pending[rank] {
            // Banked wake: keep the token, return immediately.
            st.pending[rank] = false;
            return;
        }
        // Release the token; hand it to the next runnable rank.
        st.status[rank] = RankState::Parked;
        st.free += 1;
        self.grant(&mut st);
        // Wait until granted again. An unpark enqueues this rank directly
        // (Parked → Ready, see `unpark`); the deadline is the liveness
        // fallback where the sleeper enqueues itself.
        while st.status[rank] != RankState::Running {
            if st.status[rank] == RankState::Parked {
                let Some(dl) = deadline else {
                    st = unpoisoned(self.cvs[rank].wait(st));
                    continue;
                };
                let now = Instant::now();
                if now >= dl {
                    st.status[rank] = RankState::Ready;
                    st.ready.push(rank);
                    self.grant(&mut st);
                } else {
                    st = unpoisoned(self.cvs[rank].wait_timeout(st, dl - now)).0;
                }
            } else {
                // Ready: queued for a token; only a grant ends the wait.
                st = unpoisoned(self.cvs[rank].wait(st));
            }
        }
    }

    pub(crate) fn unpark(&self, rank: usize) {
        self.metrics.unparks.fetch_add(1, Ordering::Relaxed);
        let mut st = unpoisoned(self.state.lock());
        match st.status[rank] {
            RankState::Done => {}
            RankState::Parked => {
                // Direct handoff: the *unparker* moves the sleeper into
                // the ready queue, so queue order is fixed by the order of
                // unpark calls — under one worker a pure function of the
                // running rank's actions — not by how fast the sleeping
                // thread happens to wake. This is what makes a fixed
                // (workers, sched_seed) pair replay the same interleaving.
                st.status[rank] = RankState::Ready;
                st.ready.push(rank);
                self.grant(&mut st);
            }
            // Running / Ready / Starting: bank the wake for the next park.
            _ => st.pending[rank] = true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    fn coop(workers: usize, sched_seed: u64) -> EngineKind {
        EngineKind::Coop(CoopCfg {
            workers,
            sched_seed,
        })
    }

    fn engine(n: usize, workers: usize, seed: u64, policy: SchedulePolicy) -> Arc<CoopEngine> {
        CoopEngine::new(
            n,
            CoopCfg {
                workers,
                sched_seed: seed,
            },
            policy,
        )
    }

    fn run(eng: &CoopEngine, body: &(dyn Fn(usize) + Sync)) {
        eng.run(crate::WorldCfg::default().stack_size, body);
    }

    #[test]
    fn parse_engine_specs() {
        assert_eq!(EngineKind::parse("coop"), Some(coop(0, 0)));
        assert_eq!(EngineKind::parse("coop:4"), Some(coop(4, 0)));
        assert_eq!(EngineKind::parse("coop:1:42"), Some(coop(1, 42)));
        assert_eq!(EngineKind::parse("coop:auto"), Some(coop(0, 0)));
        assert_eq!(EngineKind::parse("coop:AUTO:7"), Some(coop(0, 7)));
        assert_eq!(EngineKind::parse("fiber"), None);
        assert_eq!(EngineKind::parse("coop:x"), None);
        assert_eq!(EngineKind::parse("coop:1:2:3"), None);
        // The retired thread engine is refused, never reinterpreted.
        assert_eq!(EngineKind::parse("thread"), None);
        assert_eq!(EngineKind::parse("Thread"), None);
    }

    #[test]
    fn parse_rejects_explicit_zero_workers() {
        // `coop` (bare) and `coop:auto` mean auto, but an explicit zero is
        // a malformed worker count: zero run tokens could never grant.
        assert_eq!(EngineKind::parse("coop:0"), None);
        assert_eq!(EngineKind::parse("coop:0:42"), None);
        assert_eq!(EngineKind::parse("coop: 0 "), None);
    }

    #[test]
    fn parse_edge_cases() {
        // Whitespace and case are forgiven.
        assert_eq!(EngineKind::parse("  coop  "), Some(coop(0, 0)));
        assert_eq!(EngineKind::parse("COOP"), Some(coop(0, 0)));
        assert_eq!(EngineKind::parse("coop: 3 : 9 "), Some(coop(3, 9)));
        // Malformed specs are rejected, never reinterpreted.
        assert_eq!(EngineKind::parse(""), None);
        assert_eq!(EngineKind::parse("coop:"), None);
        assert_eq!(EngineKind::parse("coop::5"), None);
        assert_eq!(EngineKind::parse("coop:1:"), None);
        assert_eq!(EngineKind::parse("coop:-1"), None);
        assert_eq!(EngineKind::parse("coop:1:-2"), None);
        assert_eq!(EngineKind::parse("coop:1:0x10"), None);
        assert_eq!(EngineKind::parse("coop:auto:"), None);
        assert_eq!(EngineKind::parse("thread:1"), None);
        assert_eq!(EngineKind::parse("coop:2:3:"), None);
        assert_eq!(EngineKind::parse("coop,2"), None);
        // Saturating-large values still parse as plain integers.
        let max = format!("coop:1:{}", u64::MAX);
        assert_eq!(EngineKind::parse(&max), Some(coop(1, u64::MAX)));
        assert_eq!(EngineKind::parse(&format!("coop:1:{}0", u64::MAX)), None);
    }

    #[test]
    fn every_engine_spelling_parses_back() {
        let default = crate::WorldCfg::default().engine;
        assert_eq!(default.to_string(), "coop:auto:0");
        for (kind, text) in [
            (default, "coop:auto:0"),
            (coop(0, 7), "coop:auto:7"),
            (coop(1, 0), "coop:1:0"),
            (coop(3, 9), "coop:3:9"),
        ] {
            assert_eq!(kind.to_string(), text);
            assert_eq!(EngineKind::parse(text), Some(kind), "{text}");
        }
    }

    #[test]
    fn parker_banks_unpark() {
        let eng = engine(1, 1, 0, SchedulePolicy::Seeded);
        let (banked, drained) = (Mutex::new(None), Mutex::new(None));
        run(&eng, &|rank| {
            let start = Instant::now();
            eng.unpark(rank);
            eng.parker(rank).park(Duration::from_secs(10));
            *banked.lock().unwrap() = Some(start.elapsed());
            // Token consumed: the next park must time out.
            let t = Instant::now();
            eng.parker(rank).park(Duration::from_millis(20));
            *drained.lock().unwrap() = Some(t.elapsed());
        });
        let banked = banked.into_inner().unwrap().unwrap();
        assert!(
            banked < Duration::from_secs(2),
            "banked unpark was not consumed"
        );
        assert!(drained.into_inner().unwrap().unwrap() >= Duration::from_millis(10));
    }

    #[test]
    fn parker_wakes_on_unpark_from_a_foreign_thread() {
        // The deadlock monitor and the flush helper are not ranks; their
        // unparks must still reach a parked rank.
        let eng = engine(1, 1, 0, SchedulePolicy::Seeded);
        let waker = eng.unparker(0);
        let waited = Mutex::new(None);
        std::thread::scope(|s| {
            s.spawn(|| {
                std::thread::sleep(Duration::from_millis(30));
                waker.unpark();
            });
            run(&eng, &|rank| {
                let t = Instant::now();
                eng.parker(rank).park(Duration::from_secs(30));
                *waited.lock().unwrap() = Some(t.elapsed());
            });
        });
        assert!(waited.into_inner().unwrap().unwrap() < Duration::from_secs(5));
    }

    #[test]
    fn coop_runs_all_ranks_gated() {
        let n = 16;
        let eng = engine(n, 2, 7, SchedulePolicy::Seeded);
        let running = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        let done = AtomicUsize::new(0);
        run(&eng, &|rank| {
            let cur = running.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(cur, Ordering::SeqCst);
            // Park with a banked self-wake: exercises release/re-acquire.
            eng.unpark(rank);
            eng.park(rank, Duration::from_secs(5));
            running.fetch_sub(1, Ordering::SeqCst);
            done.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(done.load(Ordering::SeqCst), n);
        assert!(
            peak.load(Ordering::SeqCst) <= 2,
            "token gate leaked: peak {} > workers 2",
            peak.load(Ordering::SeqCst)
        );
    }

    #[test]
    fn coop_park_wakes_on_cross_thread_unpark() {
        let eng = engine(2, 1, 0, SchedulePolicy::Seeded);
        // Rank 1 wakes rank 0, which parks with a long timeout. With one
        // token, rank 0's park must release it so rank 1 can run at all.
        run(&eng, &|rank| {
            if rank == 0 {
                let t = Instant::now();
                eng.park(rank, Duration::from_secs(30));
                assert!(
                    t.elapsed() < Duration::from_secs(10),
                    "unpark never delivered"
                );
            } else {
                std::thread::sleep(Duration::from_millis(20));
                eng.unpark(0);
            }
        });
    }

    /// Run an `n`-rank do-nothing body under the given policy. Every rank
    /// just parks once with a banked self-wake, so the decision log is
    /// short but non-trivial.
    fn run_policy(n: usize, seed: u64, policy: SchedulePolicy) {
        let eng = engine(n, 1, seed, policy);
        run(&eng, &|rank| {
            eng.unpark(rank);
            eng.park(rank, Duration::from_secs(5));
        });
    }

    #[test]
    fn record_logs_consistent_decisions() {
        let rec = ScheduleRecorder::new();
        run_policy(4, 0xABCD, SchedulePolicy::Record(rec.clone()));
        let log = rec.decisions();
        assert!(log.len() >= 4, "at least one grant per rank: {log:?}");
        for (i, d) in log.iter().enumerate() {
            assert_eq!(d.index, i as u64, "decision indices are dense");
            assert_eq!(d.chosen_rank, d.ready[d.chosen_idx as usize]);
            assert!(!d.ready.is_empty());
        }
        // The first decision is taken after the start barrier, so it sees
        // every rank in the ready set.
        assert_eq!(log[0].ready.len(), 4);
    }

    #[test]
    fn replay_follows_recorded_choices() {
        let rec = ScheduleRecorder::new();
        run_policy(4, 0x5EED, SchedulePolicy::Record(rec.clone()));
        let choices = rec.choices();
        let script = ScheduleScript::new(choices.clone());
        run_policy(4, 0x5EED, SchedulePolicy::Replay(script.clone()));
        assert_eq!(script.divergence(), None);
        assert!(script.fully_consumed());
        assert_eq!(
            script.recorded(),
            rec.decisions(),
            "single-worker replay must retake identical decisions"
        );
    }

    #[test]
    fn replay_deviates_where_told() {
        let rec = ScheduleRecorder::new();
        run_policy(4, 7, SchedulePolicy::Record(rec.clone()));
        let base = rec.decisions();
        // Flip decision 0 to a different ready index: the replayed first
        // grant must pick that rank instead.
        let alt = (base[0].chosen_idx + 1) % base[0].ready.len() as u32;
        let script = ScheduleScript::new(vec![alt]);
        run_policy(4, 7, SchedulePolicy::Replay(script.clone()));
        assert_eq!(script.divergence(), None);
        let replayed = script.recorded();
        assert_eq!(replayed[0].ready, base[0].ready);
        assert_eq!(replayed[0].chosen_rank, base[0].ready[alt as usize]);
    }

    #[test]
    fn replay_flags_out_of_range_choice() {
        // A 2-rank world can never have 9 ready ranks; the script must
        // flag divergence at decision 0 and fall back to the seeded pick
        // (the run itself still completes).
        let script = ScheduleScript::new(vec![9]);
        run_policy(2, 3, SchedulePolicy::Replay(script.clone()));
        let div = script.divergence().expect("divergence must be flagged");
        assert_eq!(div.index, 0);
        assert_eq!(div.choice, 9);
        assert!(div.ready_len <= 2);
    }

    #[test]
    fn replay_reports_unconsumed_script() {
        // Far more choices than a 2-rank park-once body takes decisions.
        let script = ScheduleScript::new(vec![0; 64]);
        run_policy(2, 3, SchedulePolicy::Replay(script.clone()));
        assert!(!script.fully_consumed());
    }

    #[test]
    fn schedule_policy_identity_eq() {
        let r = ScheduleRecorder::new();
        let s = ScheduleScript::new(vec![1]);
        assert_eq!(SchedulePolicy::Seeded, SchedulePolicy::Seeded);
        assert_eq!(
            SchedulePolicy::Record(r.clone()),
            SchedulePolicy::Record(r.clone())
        );
        assert_ne!(
            SchedulePolicy::Record(r.clone()),
            SchedulePolicy::Record(ScheduleRecorder::new())
        );
        assert_ne!(
            SchedulePolicy::Replay(s.clone()),
            SchedulePolicy::Replay(ScheduleScript::new(vec![1]))
        );
        assert_ne!(SchedulePolicy::Seeded, SchedulePolicy::Record(r));
        assert_eq!(SchedulePolicy::Replay(s.clone()), SchedulePolicy::Replay(s));
    }
}
