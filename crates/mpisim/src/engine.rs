//! Pluggable rank-execution engines.
//!
//! A [`World`](crate::World) no longer hard-codes "one OS thread per rank
//! with per-rank condvars". Instead it asks an [`Engine`] for two things:
//!
//! 1. a per-rank blocking primitive — a [`Parker`]/[`Unparker`] pair that
//!    every wait site in the workspace routes through (mailbox waits,
//!    collective barriers, one-sided fences, coordinator receives,
//!    scheduling parks), and
//! 2. an execution strategy — how the `n` rank bodies are actually run.
//!
//! Two engines exist:
//!
//! * [`ThreadEngine`] — the classic substrate: one OS thread per rank,
//!   each parker a private token+condvar. Behaviour-preserving default.
//! * [`CoopEngine`] — gated concurrency: `n` rank threads still exist
//!   (safe Rust cannot swap stacks), but at most `workers` of them hold a
//!   *run token* at any instant. Every park releases the holder's token
//!   and a seeded, deterministic run-queue policy decides which runnable
//!   rank gets it next — so the schedule is chosen by the engine, not the
//!   kernel, and a fixed `(seed, workers)` pair replays the same
//!   state-relevant interleaving. Parked ranks cost only their (small)
//!   stack, which lifts the practical rank ceiling to 4096+.
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

use parking_lot::{Condvar, Mutex};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Shared scheduler-activity counters, one set per engine instance.
///
/// `mpisim` depends on nothing, so it cannot feed the repo's metrics
/// registry directly; instead each engine maintains these relaxed
/// atomics and the MANA layer samples them into its own metrics plane
/// (the same arms-length pattern as [`crate::TraceHook`]).
#[derive(Debug, Default)]
pub struct EngineMetrics {
    /// Unpark calls delivered through the engine's [`Unparker`]s.
    pub unparks: AtomicU64,
    /// Current ready-queue depth (coop engine; always 0 under threads,
    /// whose ready set is kernel-owned).
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

/// One rank's blocking primitive, supplied by the engine.
///
/// `park` blocks the calling rank until a matching [`Unparker::unpark`]
/// arrives or `timeout` elapses. An unpark delivered since the previous
/// `park` returned is banked: the next `park` consumes it and returns
/// immediately. Spurious returns are permitted — callers must re-check
/// their predicate in a loop.
pub trait Parker: Send + Sync {
    /// Block until unparked or `timeout` elapses (token semantics).
    fn park(&self, timeout: Duration);
}

/// The waker half of a [`Parker`], usable from any thread.
pub trait Unparker: Send + Sync {
    /// Wake the paired rank if parked; bank the wake otherwise.
    fn unpark(&self);
}

/// Shared handle to a rank's [`Parker`].
pub type ParkerRef = Arc<dyn Parker>;
/// Shared handle to a rank's [`Unparker`].
pub type UnparkerRef = Arc<dyn Unparker>;

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
        self.decisions.lock().push(d);
    }

    /// Copy of the decision log so far.
    pub fn decisions(&self) -> Vec<SchedDecision> {
        self.decisions.lock().clone()
    }

    /// The decision log projected to its choice vector (one index per
    /// decision) — the form [`ScheduleScript`] replays.
    pub fn choices(&self) -> Vec<u32> {
        self.decisions.lock().iter().map(|d| d.chosen_idx).collect()
    }

    /// Number of decisions recorded.
    pub fn len(&self) -> usize {
        self.decisions.lock().len()
    }

    /// Whether no decision has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.decisions.lock().is_empty()
    }

    /// Drop all recorded decisions (reuse across runs).
    pub fn clear(&self) {
        self.decisions.lock().clear();
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
        *self.divergence.lock()
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
                let mut div = self.divergence.lock();
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

/// How a [`CoopEngine`] picks which ready rank gets a freed run token.
///
/// The policy only *selects among ready ranks*; liveness (every parked
/// rank eventually reconsidered) is the scheduler's own contract and
/// holds under every policy. The thread engine ignores this knob — its
/// interleavings are kernel-owned.
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

/// Configuration of a [`CoopEngine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CoopCfg {
    /// Maximum ranks runnable at once (run tokens). `0` = auto (the
    /// machine's available parallelism). `1` fully serializes rank
    /// execution, which is the strongest determinism setting.
    pub workers: usize,
    /// Seed of the run-queue policy: which ready rank is granted a freed
    /// token. The same `(sched_seed, workers)` pair replays the same
    /// scheduling decisions for the same sequence of wake events.
    pub sched_seed: u64,
}

/// Which engine executes a world's ranks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// One OS thread per rank, kernel-scheduled (the default).
    Thread,
    /// Token-gated cooperative scheduling over per-rank threads.
    Coop(CoopCfg),
}

impl EngineKind {
    /// Parse an engine spec (the `MANA2_ENGINE` syntax). Accepted values:
    ///
    /// * `thread`
    /// * `coop` — auto worker count, schedule seed 0
    /// * `coop:<workers>` — explicit worker count (must be ≥ 1; ask for
    ///   auto with the bare `coop` spec)
    /// * `coop:<workers>:<seed>` — plus an explicit schedule seed
    ///
    /// `None` when the spec is malformed. An explicit `coop:0` is
    /// rejected: zero run tokens could never grant, so it must not
    /// silently mean "auto" — a worker-count typo has to surface, not
    /// deadlock or re-interpret itself.
    pub fn parse(spec: &str) -> Option<EngineKind> {
        let spec = spec.trim();
        if spec.eq_ignore_ascii_case("thread") {
            return Some(EngineKind::Thread);
        }
        let mut parts = spec.split(':');
        if !parts.next()?.eq_ignore_ascii_case("coop") {
            return None;
        }
        let mut cfg = CoopCfg::default();
        if let Some(w) = parts.next() {
            cfg.workers = w.trim().parse().ok()?;
            // `CoopCfg::workers == 0` means auto internally, but an
            // *explicit* zero in a spec is a malformed worker count: a
            // token-less engine could never run a rank.
            if cfg.workers == 0 {
                return None;
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

    /// Short name for logs and reports.
    pub fn name(&self) -> &'static str {
        match self {
            EngineKind::Thread => "thread",
            EngineKind::Coop(_) => "coop",
        }
    }

    /// Instantiate the engine for an `n`-rank world. `policy` selects the
    /// coop scheduler's pick strategy (the thread engine ignores it — the
    /// kernel owns its interleavings).
    pub(crate) fn build(&self, n: usize, policy: SchedulePolicy) -> Arc<dyn Engine> {
        match *self {
            EngineKind::Thread => Arc::new(ThreadEngine::new()),
            EngineKind::Coop(cfg) => Arc::new(CoopEngine::new(n, cfg, policy)),
        }
    }
}

/// An execution substrate for a world's ranks. One instance per
/// [`World`](crate::World); a [`CoopEngine`] instance owns that world's
/// scheduler state.
pub(crate) trait Engine: Send + Sync {
    /// Build the per-rank `(Parker, Unparker)` pairs the world's network
    /// will route every wait through.
    fn parkers(&self, n: usize) -> Vec<(ParkerRef, UnparkerRef)>;

    /// Run `body(rank)` once per rank and return when every rank has
    /// finished. `stack_size` is the thread-engine stack request; the
    /// coop engine sizes its own (small) stacks.
    fn run(&self, n: usize, stack_size: usize, body: &(dyn Fn(usize) + Sync));

    /// The engine's shared activity counters.
    fn metrics(&self) -> Arc<EngineMetrics>;
}

// ---- thread engine ---------------------------------------------------------

/// The classic substrate: one kernel-scheduled OS thread per rank; each
/// parker is an independent token+condvar pair.
pub(crate) struct ThreadEngine {
    metrics: Arc<EngineMetrics>,
}

impl ThreadEngine {
    fn new() -> ThreadEngine {
        ThreadEngine {
            metrics: Arc::new(EngineMetrics::default()),
        }
    }
}

/// Token + condvar parker (the [`ThreadEngine`] primitive, also the
/// default for a bare [`Network`](crate::Network) built without a world).
struct ThreadParker {
    /// The banked-wake token.
    token: Mutex<bool>,
    cv: Condvar,
    metrics: Arc<EngineMetrics>,
}

impl ThreadParker {
    fn new(metrics: Arc<EngineMetrics>) -> Self {
        ThreadParker {
            token: Mutex::new(false),
            cv: Condvar::new(),
            metrics,
        }
    }
}

impl Parker for ThreadParker {
    fn park(&self, timeout: Duration) {
        let mut token = self.token.lock();
        if !*token {
            self.cv.wait_for(&mut token, timeout);
        }
        *token = false;
    }
}

impl Unparker for ThreadParker {
    fn unpark(&self) {
        self.metrics.unparks.fetch_add(1, Ordering::Relaxed);
        let mut token = self.token.lock();
        *token = true;
        drop(token);
        self.cv.notify_all();
    }
}

/// Default parker pairs for a fabric constructed without an engine (unit
/// tests building a bare [`Network`](crate::Network)).
pub(crate) fn default_parkers(n: usize) -> Vec<(ParkerRef, UnparkerRef)> {
    ThreadEngine::new().parkers(n)
}

impl Engine for ThreadEngine {
    fn parkers(&self, n: usize) -> Vec<(ParkerRef, UnparkerRef)> {
        (0..n)
            .map(|_| {
                let p = Arc::new(ThreadParker::new(self.metrics.clone()));
                (p.clone() as ParkerRef, p as UnparkerRef)
            })
            .collect()
    }

    fn run(&self, n: usize, stack_size: usize, body: &(dyn Fn(usize) + Sync)) {
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..n)
                .map(|rank| {
                    std::thread::Builder::new()
                        .name(format!("rank-{rank}"))
                        .stack_size(stack_size)
                        .spawn_scoped(s, move || body(rank))
                        .expect("failed to spawn rank thread")
                })
                .collect();
            for h in handles {
                h.join().expect("rank thread join failed");
            }
        });
    }

    fn metrics(&self) -> Arc<EngineMetrics> {
        self.metrics.clone()
    }
}

// ---- coop engine -----------------------------------------------------------

/// Stack per coop rank thread. Ranks are plentiful and mostly parked;
/// their stacks are the dominant per-rank cost, so keep them small. (The
/// `WorldCfg::stack_size` knob is thread-engine-only.)
const COOP_STACK: usize = 256 * 1024;

/// splitmix64 — the run-queue policy hash (same mixer the fault plan
/// uses, so a schedule seed is as well-dispersed as a fault seed).
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

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

/// The scheduler shared by a coop world's parkers and its `run` loop.
struct CoopShared {
    n: usize,
    seed: u64,
    workers: usize,
    /// How a freed token picks its next holder (seeded / record / replay).
    policy: SchedulePolicy,
    state: Mutex<CoopState>,
    /// Per-rank wake channels, all paired with `state`'s mutex.
    cvs: Vec<Condvar>,
    metrics: Arc<EngineMetrics>,
}

impl CoopShared {
    /// Rearm the scheduler for a fresh launch. A [`World`](crate::World)
    /// may be launched more than once; each launch re-runs the start
    /// barrier from zero. Banked unparks survive (a wake delivered between
    /// launches is still owed to its rank).
    fn reset(&self) {
        let mut st = self.state.lock();
        debug_assert!(
            st.status
                .iter()
                .all(|s| matches!(s, RankState::Starting | RankState::Done)),
            "reset while ranks still active"
        );
        st.status.fill(RankState::Starting);
        st.ready.clear();
        st.free = self.workers;
        st.started = 0;
    }
    /// Grant free tokens to ready ranks, one policy pick per token. Held
    /// back until the start barrier completes.
    fn grant(&self, st: &mut CoopState) {
        while st.free > 0 && !st.ready.is_empty() && st.started == self.n {
            let k = st.decisions;
            let seeded = (splitmix64(self.seed ^ k) as usize) % st.ready.len();
            let idx = match &self.policy {
                SchedulePolicy::Seeded | SchedulePolicy::Record(_) => seeded,
                SchedulePolicy::Replay(script) => script.pick(k, st.ready.len(), seeded),
            };
            match &self.policy {
                SchedulePolicy::Seeded => {}
                SchedulePolicy::Record(rec) => rec.record(SchedDecision {
                    index: k,
                    ready: st.ready.clone(),
                    chosen_idx: idx as u32,
                    chosen_rank: st.ready[idx],
                }),
                SchedulePolicy::Replay(script) => script.recorder.record(SchedDecision {
                    index: k,
                    ready: st.ready.clone(),
                    chosen_idx: idx as u32,
                    chosen_rank: st.ready[idx],
                }),
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
        let mut st = self.state.lock();
        st.started += 1;
        st.status[rank] = RankState::Ready;
        st.ready.push(rank);
        if st.started == self.n {
            st.ready.sort_unstable();
        }
        self.grant(&mut st);
        while st.status[rank] != RankState::Running {
            self.cvs[rank].wait(&mut st);
        }
    }

    /// Retire a finished rank's token.
    fn retire(&self, rank: usize) {
        let mut st = self.state.lock();
        st.status[rank] = RankState::Done;
        st.free += 1;
        self.grant(&mut st);
    }

    /// The coop park: consume a banked wake, or release the token, wait
    /// for an unpark/timeout, then run again once the policy grants a
    /// token back.
    fn park(&self, rank: usize, timeout: Duration) {
        let deadline = Instant::now().checked_add(timeout);
        let mut st = self.state.lock();
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
                    self.cvs[rank].wait(&mut st);
                    continue;
                };
                let now = Instant::now();
                if now >= dl {
                    st.status[rank] = RankState::Ready;
                    st.ready.push(rank);
                    self.grant(&mut st);
                } else {
                    self.cvs[rank].wait_for(&mut st, dl - now);
                }
            } else {
                // Ready: queued for a token; only a grant ends the wait.
                self.cvs[rank].wait(&mut st);
            }
        }
    }

    fn unpark(&self, rank: usize) {
        self.metrics.unparks.fetch_add(1, Ordering::Relaxed);
        let mut st = self.state.lock();
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

struct CoopParker {
    rank: usize,
    shared: Arc<CoopShared>,
}

impl Parker for CoopParker {
    fn park(&self, timeout: Duration) {
        self.shared.park(self.rank, timeout);
    }
}

struct CoopUnparker {
    rank: usize,
    shared: Arc<CoopShared>,
}

impl Unparker for CoopUnparker {
    fn unpark(&self) {
        self.shared.unpark(self.rank);
    }
}

/// Token-gated cooperative engine: `n` rank threads, at most `workers`
/// runnable at once, scheduling decided by a seeded deterministic policy.
pub(crate) struct CoopEngine {
    shared: Arc<CoopShared>,
}

impl CoopEngine {
    fn new(n: usize, cfg: CoopCfg, policy: SchedulePolicy) -> Self {
        let workers = match cfg.workers {
            0 => std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(4),
            w => w,
        }
        .min(n.max(1));
        CoopEngine {
            shared: Arc::new(CoopShared {
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
            }),
        }
    }
}

impl Engine for CoopEngine {
    fn parkers(&self, n: usize) -> Vec<(ParkerRef, UnparkerRef)> {
        assert_eq!(n, self.shared.n, "engine built for a different world size");
        (0..n)
            .map(|rank| {
                (
                    Arc::new(CoopParker {
                        rank,
                        shared: self.shared.clone(),
                    }) as ParkerRef,
                    Arc::new(CoopUnparker {
                        rank,
                        shared: self.shared.clone(),
                    }) as UnparkerRef,
                )
            })
            .collect()
    }

    fn run(&self, n: usize, _stack_size: usize, body: &(dyn Fn(usize) + Sync)) {
        assert_eq!(n, self.shared.n, "engine built for a different world size");
        self.shared.reset();
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..n)
                .map(|rank| {
                    let shared = self.shared.clone();
                    std::thread::Builder::new()
                        .name(format!("rank-{rank}"))
                        .stack_size(COOP_STACK)
                        .spawn_scoped(s, move || {
                            shared.start(rank);
                            body(rank);
                            shared.retire(rank);
                        })
                        .expect("failed to spawn rank thread")
                })
                .collect();
            for h in handles {
                h.join().expect("rank thread join failed");
            }
        });
    }

    fn metrics(&self) -> Arc<EngineMetrics> {
        self.shared.metrics.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_engine_specs() {
        assert_eq!(EngineKind::parse("thread"), Some(EngineKind::Thread));
        assert_eq!(EngineKind::parse("Thread"), Some(EngineKind::Thread));
        assert_eq!(
            EngineKind::parse("coop"),
            Some(EngineKind::Coop(CoopCfg::default()))
        );
        assert_eq!(
            EngineKind::parse("coop:4"),
            Some(EngineKind::Coop(CoopCfg {
                workers: 4,
                sched_seed: 0
            }))
        );
        assert_eq!(
            EngineKind::parse("coop:1:42"),
            Some(EngineKind::Coop(CoopCfg {
                workers: 1,
                sched_seed: 42
            }))
        );
        assert_eq!(EngineKind::parse("fiber"), None);
        assert_eq!(EngineKind::parse("coop:x"), None);
        assert_eq!(EngineKind::parse("coop:1:2:3"), None);
    }

    #[test]
    fn parse_rejects_explicit_zero_workers() {
        // `coop` (bare) means auto, but an explicit zero is a malformed
        // worker count: zero run tokens could never grant a rank.
        assert_eq!(EngineKind::parse("coop:0"), None);
        assert_eq!(EngineKind::parse("coop:0:42"), None);
        assert_eq!(EngineKind::parse("coop: 0 "), None);
    }

    #[test]
    fn parse_edge_cases() {
        // Whitespace and case are forgiven.
        assert_eq!(EngineKind::parse("  thread  "), Some(EngineKind::Thread));
        assert_eq!(
            EngineKind::parse("COOP"),
            Some(EngineKind::Coop(CoopCfg::default()))
        );
        assert_eq!(
            EngineKind::parse("coop: 3 : 9 "),
            Some(EngineKind::Coop(CoopCfg {
                workers: 3,
                sched_seed: 9
            }))
        );
        // Malformed specs are rejected, never reinterpreted.
        assert_eq!(EngineKind::parse(""), None);
        assert_eq!(EngineKind::parse("coop:"), None);
        assert_eq!(EngineKind::parse("coop::5"), None);
        assert_eq!(EngineKind::parse("coop:1:"), None);
        assert_eq!(EngineKind::parse("coop:-1"), None);
        assert_eq!(EngineKind::parse("coop:1:-2"), None);
        assert_eq!(EngineKind::parse("coop:1:0x10"), None);
        assert_eq!(EngineKind::parse("thread:1"), None);
        assert_eq!(EngineKind::parse("coop:2:3:"), None);
        assert_eq!(EngineKind::parse("coop,2"), None);
        // Saturating-large values still parse as plain integers.
        assert_eq!(
            EngineKind::parse(&format!("coop:1:{}", u64::MAX)),
            Some(EngineKind::Coop(CoopCfg {
                workers: 1,
                sched_seed: u64::MAX
            }))
        );
        assert_eq!(EngineKind::parse(&format!("coop:1:{}0", u64::MAX)), None);
    }

    #[test]
    fn thread_parker_banks_unpark() {
        let p = Arc::new(ThreadParker::new(Arc::new(EngineMetrics::default())));
        let start = Instant::now();
        Unparker::unpark(&*p);
        Parker::park(&*p, Duration::from_secs(10));
        assert!(
            start.elapsed() < Duration::from_secs(2),
            "banked unpark was not consumed"
        );
        // Token consumed: the next park must time out.
        let t = Instant::now();
        Parker::park(&*p, Duration::from_millis(20));
        assert!(t.elapsed() >= Duration::from_millis(10));
    }

    #[test]
    fn thread_parker_cross_thread_wake() {
        let p = Arc::new(ThreadParker::new(Arc::new(EngineMetrics::default())));
        let p2 = p.clone();
        let h = std::thread::spawn(move || {
            let t = Instant::now();
            Parker::park(&*p2, Duration::from_secs(30));
            t.elapsed()
        });
        std::thread::sleep(Duration::from_millis(30));
        Unparker::unpark(&*p);
        assert!(h.join().unwrap() < Duration::from_secs(5));
    }

    #[test]
    fn coop_runs_all_ranks_gated() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let n = 16;
        let eng = CoopEngine::new(
            n,
            CoopCfg {
                workers: 2,
                sched_seed: 7,
            },
            SchedulePolicy::Seeded,
        );
        let pairs = eng.parkers(n);
        let running = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        let done = AtomicUsize::new(0);
        eng.run(n, 0, &|rank| {
            let cur = running.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(cur, Ordering::SeqCst);
            // Park with a banked self-wake: exercises release/re-acquire.
            pairs[rank].1.unpark();
            pairs[rank].0.park(Duration::from_secs(5));
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
        let n = 2;
        let eng = CoopEngine::new(
            n,
            CoopCfg {
                workers: 1,
                sched_seed: 0,
            },
            SchedulePolicy::Seeded,
        );
        let pairs = eng.parkers(n);
        let unparker0 = pairs[0].1.clone();
        // Rank 1 wakes rank 0, which parks with a long timeout. With one
        // token, rank 0's park must release it so rank 1 can run at all.
        eng.run(n, 0, &|rank| {
            if rank == 0 {
                let t = Instant::now();
                pairs[rank].0.park(Duration::from_secs(30));
                assert!(
                    t.elapsed() < Duration::from_secs(10),
                    "unpark never delivered"
                );
            } else {
                std::thread::sleep(Duration::from_millis(20));
                unparker0.unpark();
            }
        });
    }

    /// Run an `n`-rank do-nothing body under the given policy and return
    /// (for Record) the recorder. Every rank just parks once with a banked
    /// self-wake, so the decision log is short but non-trivial.
    fn run_policy(n: usize, seed: u64, policy: SchedulePolicy) {
        let eng = CoopEngine::new(
            n,
            CoopCfg {
                workers: 1,
                sched_seed: seed,
            },
            policy,
        );
        let pairs = eng.parkers(n);
        eng.run(n, 0, &|rank| {
            pairs[rank].1.unpark();
            pairs[rank].0.park(Duration::from_secs(5));
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
