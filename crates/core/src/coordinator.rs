//! The centralized checkpoint coordinator (DMTCP-coordinator analog).
//!
//! The coordinator raises checkpoint *intent*, waits until every rank has
//! parked at a safe point (collecting each rank's in-collective status and
//! globally-unique communicator ID, §III-K), releases the drain, takes
//! every rank's frozen image, and resumes or kills the job. It also
//! carries the side-channel traffic of the *legacy* drain algorithm
//! (global totals, §III-B baseline) so the ablation bench can measure how
//! chatty it is.
//!
//! It is a state machine, not an actor: every step it takes is "a rank
//! message arrived", so [`CoordHandle::send`] runs the one transition
//! function [`Coordinator::on`] in place, on the sending rank's thread,
//! under one mutex. The transition pushes the replies into per-rank inboxes
//! and unparks their owners; [`CoordHandle::recv`] is the only place a
//! rank waits. DESIGN.md §5.9 has the phase × message table.
//!
//! Ranks pay for the snapshot, not the write: a rank lends its encoded
//! image to the coordinator ([`RankMsg::Frozen`]), and the last one in
//! concludes the round as a [`FlushJob`] that [`crate::flush`] performs.
//! A round ends for the ranks in `Resume` or, in exit mode once it has
//! committed, `Exit`; a round whose flush failed is recorded in
//! [`CoordReport::aborted_rounds`] and nowhere else.
//!
//! MANA-2.0's lesson §III-M — "additional communication by MANA should be
//! minimized … use MPI calls instead of the centralized coordinator" — is
//! visible in the message counters: with `DrainMode::Alltoall`, the
//! coordinator exchanges exactly 4 messages per rank per checkpoint
//! (Ready/Go, Frozen/Resume), while `DrainMode::Coordinator` adds rounds of
//! count reports.

use crate::error::{ManaError, Result};
use crate::flush::{Driver, FlushJob, Flushed};
use mpisim::{Parker, UnparkerRef};
use obs::metrics as met;
use obs::Phase;
use splitproc::store::Store;
use splitproc::ImageBuf;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Rank → coordinator messages.
#[derive(Debug)]
pub enum RankMsg {
    /// Any rank may ask for a checkpoint (`dmtcp_command -c` analog).
    RequestCkpt,
    /// Parked at a safe point; reports whether the rank was inside a
    /// MANA-level collective and, if so, its globally-unique gid (§III-K).
    Ready {
        /// Reporting rank.
        rank: usize,
        /// gid of the collective the rank is parked inside, if any.
        in_collective: Option<u64>,
    },
    /// Legacy-drain round report: this rank's total sent/received bytes.
    DrainReport {
        /// Reporting rank.
        rank: usize,
        /// Total user bytes sent.
        sent: u64,
        /// Total user bytes received (including drained).
        recvd: u64,
    },
    /// Topological-sort drain (arXiv 2408.02218): this rank's full
    /// per-peer sent/received rows. One exchange per round — the
    /// coordinator orders the in-flight dependencies and answers with
    /// each rank's exact expected-bytes column, so no collective
    /// emulation (and no repeat reporting) is needed.
    DrainRows {
        /// Reporting rank.
        rank: usize,
        /// Bytes sent to each peer (world-rank indexed).
        sent: Vec<u64>,
        /// Bytes received from each peer (world-rank indexed).
        recvd: Vec<u64>,
    },
    /// Drained and encoded: the rank lends its frozen image — encoded
    /// into the buffer it keeps across rounds, behind the header gap
    /// ([`splitproc::ImageHead::encode_into`]) — to the coordinator until
    /// the flush has landed it and handed the buffer back, and waits only
    /// for the verdict.
    Frozen {
        /// Reporting rank.
        rank: usize,
        /// The image, in the rank's kept buffer.
        image: ImageBuf,
    },
    /// The application closure wants to finish; the rank blocks until the
    /// coordinator acknowledges (so a concurrent checkpoint round cannot
    /// lose a participant).
    Finishing {
        /// Reporting rank.
        rank: usize,
    },
}

/// Coordinator → rank messages (per-rank channels).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoordMsg {
    /// All ranks parked; run the drain and write images.
    Go {
        /// Checkpoint round number.
        round: u64,
    },
    /// Legacy-drain verdict for the round just reported.
    DrainVerdict {
        /// True when global sent == received.
        balanced: bool,
    },
    /// Topological-sort drain schedule, answering [`RankMsg::DrainRows`].
    DrainSchedule {
        /// Exact bytes each peer sent this rank (the rank drains until
        /// its received counters meet this column).
        expected: Vec<u64>,
        /// This rank's position in the topological order of the
        /// in-flight send→receive dependency graph.
        order: u32,
        /// Edges in the dependency graph (global, for observability).
        edges: u64,
        /// Whether a cycle forced the planner to break ties (mutual
        /// in-flight traffic; the drain still terminates because the
        /// expected columns are exact).
        cyclic: bool,
    },
    /// Continue executing: sent once every image is frozen (the flush
    /// lands them behind the application) or, in exit mode, once the
    /// flush failed. A failed flush is recorded in
    /// [`CoordReport::aborted_rounds`]; no rank is told.
    Resume,
    /// Every image landed and the round committed; exit
    /// (checkpoint-and-kill).
    Exit,
    /// Acknowledge a `Finishing` rank: it may leave.
    FinishAck,
}

/// Statistics of one completed checkpoint round.
#[derive(Debug, Clone, PartialEq)]
pub struct CkptRoundStats {
    /// Round number (0-based).
    pub round: u64,
    /// Wall time from intent to all-parked.
    pub quiesce: Duration,
    /// Wall time from Go to the last image frozen (every rank drained and
    /// encoded).
    pub write: Duration,
    /// Wall time of the flush: every image landed, the manifest committed
    /// and the store collected — behind the running application, except
    /// in exit mode.
    pub flush: Duration,
    /// Sum of image sizes across ranks.
    pub total_image_bytes: u64,
    /// Distinct in-collective gids reported at park time.
    pub gids_in_flight: Vec<u64>,
    /// Coordinator messages exchanged during this round.
    pub coord_msgs: u64,
}

/// One rank's inbox: the coordinator's replies to it, in order.
type Inbox = Mutex<VecDeque<CoordMsg>>;

/// One rank's image buffer between checkpoints (at first, a restarted
/// rank's image): the flush puts it back here once its image has landed,
/// and the rank takes it again for its next encode.
pub(crate) type Slot = Mutex<ImageBuf>;

/// Longest a rank waits in [`CoordHandle::recv`] for the coordinator's next
/// message. Nothing else in the protocol waits, so this is its one
/// liveness cap: a peer that never reports (deaf to intent, wedged in
/// application code) costs the waiting ranks this long, then a typed
/// [`ManaError::CoordinatorTimeout`] — which aborts the world — not a hang.
const RECV_CAP: Duration = Duration::from_secs(120);

/// Handle held by each rank.
#[derive(Clone)]
pub struct CoordHandle {
    rank: usize,
    intent: Arc<AtomicBool>,
    round: Arc<AtomicU64>,
    coord: Arc<Mutex<Driver>>,
    inboxes: Arc<[Inbox]>,
    buffers: Arc<[Slot]>,
    /// Fault plan injecting latency into rank→coordinator messages.
    fault: Option<Arc<mpisim::FaultPlan>>,
    /// Per-rank counter identifying each sent message to the fault plan.
    sent_msgs: Arc<AtomicU64>,
    /// This rank's telemetry (fault-plan firings on the control channel).
    tel: obs::Telemetry,
    /// The rank's engine parker: every blocking point on the control
    /// channel (receive waits, injected stalls) parks through the engine
    /// instead of sleeping, which releases the run token so other ranks
    /// make progress during a quiesce.
    parker: Parker,
    /// Tells a waiting rank that the world was aborted under it.
    world: mpisim::Introspect,
}

impl CoordHandle {
    /// Is checkpoint intent raised? (The hot-path check in every wrapper.)
    #[inline]
    pub fn intent(&self) -> bool {
        self.intent.load(Ordering::Acquire)
    }

    /// Current checkpoint round number.
    pub fn round(&self) -> u64 {
        self.round.load(Ordering::Acquire)
    }

    /// Block this rank for `d` of wall time without holding its run token:
    /// parks on the engine parker in a deadline loop (early wakes from
    /// banked unparks just re-park). Used for injected stalls
    /// (coordinator-channel delay, ready-stall) so fault injection cannot
    /// wedge the engine's run tokens.
    pub fn stall(&self, d: Duration) {
        self.park_until(d, d, || None::<()>);
    }

    /// Park on the engine parker, at most `slice` at a time, until `ready`
    /// yields or `cap` of wall time has passed.
    fn park_until<T>(
        &self,
        cap: Duration,
        slice: Duration,
        mut ready: impl FnMut() -> Option<T>,
    ) -> Option<T> {
        let deadline = Instant::now() + cap;
        loop {
            let now = Instant::now();
            match ready() {
                None if now < deadline => self.parker.park((deadline - now).min(slice)),
                done => return done,
            }
        }
    }

    /// Send a message to the coordinator: run its transition for `msg`
    /// here, on this rank's thread. Under a fault plan, a seeded subset of
    /// messages is delayed first — modelling a slow control network between
    /// a rank and the DMTCP-style coordinator, which widens the window
    /// between a rank parking and the coordinator noticing.
    pub fn send(&self, msg: RankMsg) -> Result<()> {
        if let Some(fp) = &self.fault {
            let k = self.sent_msgs.fetch_add(1, Ordering::Relaxed);
            if let Some(d) = fp.coord_delay(self.rank, k) {
                self.tel
                    .fault_fired(obs::NO_ROUND, obs::FaultKind::CoordDelay);
                self.stall(d);
            }
        }
        // Poisoned: a peer panicked inside a transition (the commit
        // check). Its panic fails the run; this rank is collateral.
        let mut driver = self.coord.lock().map_err(|_| ManaError::CoordinatorGone)?;
        driver.send(msg, &self.tel);
        Ok(())
    }

    /// Blocking receive of the next coordinator message. The wait is
    /// event-driven — a transition unparks the rank after every message it
    /// queues, and aborting the world unparks everyone — so the 50 ms park
    /// slice is only a safety net. Ends with [`ManaError::CoordinatorGone`]
    /// as soon as the world is poisoned, and with
    /// [`ManaError::CoordinatorTimeout`] after `RECV_CAP`.
    pub fn recv(&self) -> Result<CoordMsg> {
        self.recv_within(RECV_CAP)
    }

    fn recv_within(&self, cap: Duration) -> Result<CoordMsg> {
        let inbox = &self.inboxes[self.rank];
        let next = || match inbox.lock().expect("inbox lock").pop_front() {
            Some(m) => Some(Ok(m)),
            None => (self.world.is_poisoned()).then_some(Err(ManaError::CoordinatorGone)),
        };
        self.park_until(cap, Duration::from_millis(50), next)
            .unwrap_or(Err(ManaError::CoordinatorTimeout(cap)))
    }

    /// Receive the reply this rank is `awaiting`: `pick` takes it out of
    /// the message, and hands back anything the protocol does not allow
    /// here, which becomes [`ManaError::Protocol`].
    pub fn await_reply<T>(
        &self,
        awaiting: &'static str,
        pick: impl FnOnce(CoordMsg) -> std::result::Result<T, CoordMsg>,
    ) -> Result<T> {
        pick(self.recv()?).map_err(|got| ManaError::Protocol { awaiting, got })
    }

    /// Ask for a checkpoint. When this starts a round, intent is raised
    /// before the call returns.
    pub fn request_checkpoint(&self) -> Result<()> {
        self.send(RankMsg::RequestCkpt)
    }

    /// Take this rank's image buffer for an encode (see `Slot`). Taken
    /// after `Go`, it is always back: the round's request waited out the
    /// previous flush.
    pub fn image_buf(&self) -> ImageBuf {
        std::mem::take(&mut *self.slot())
    }

    /// This rank's image buffer, where it lies between checkpoints.
    pub(crate) fn slot(&self) -> MutexGuard<'_, ImageBuf> {
        (self.buffers[self.rank].lock()).expect("buffer slot poisoned by a panic")
    }
}

/// One checkpoint round that failed to commit and was aborted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AbortedRound {
    /// The round that was aborted.
    pub round: u64,
    /// Per-rank failure reasons in rank order (usually one; a manifest
    /// write failure is recorded under `usize::MAX`).
    pub failures: Vec<(usize, String)>,
}

/// Coordinator outcome after all ranks finished.
#[derive(Debug, Clone, Default)]
pub struct CoordReport {
    /// One entry per completed (committed) checkpoint round.
    pub rounds: Vec<CkptRoundStats>,
    /// Rounds whose flush failed (or panicked) instead of committing: the
    /// one record of an aborted round, in either mode.
    pub aborted_rounds: Vec<AbortedRound>,
    /// Checkpoint requests ignored because ranks had already finished.
    pub skipped_requests: u64,
    /// Commit-time invariant violations, one entry per failing round. A
    /// non-empty list means a checkpoint committed over a broken global
    /// state (e.g. user traffic still in flight after the drain); the
    /// runtime converts it into an error.
    pub invariant_violations: Vec<String>,
}

/// A topological plan over the in-flight send→receive dependency graph,
/// computed by the coordinator from every rank's [`RankMsg::DrainRows`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TopoPlan {
    /// `order[r]` is rank `r`'s position in the topological order.
    pub order: Vec<u32>,
    /// Number of edges in the dependency graph.
    pub edges: u64,
    /// True when mutual in-flight traffic formed a cycle and the planner
    /// broke it (smallest-rank-first). The drain still terminates: the
    /// expected columns are exact regardless of order.
    pub cyclic: bool,
}

/// Order ranks topologically by in-flight traffic (arXiv 2408.02218).
///
/// `sent[i][j]` / `recvd[j][i]` are the rows every rank shipped in its
/// [`RankMsg::DrainRows`]; bytes in flight from `i` to `j` are
/// `sent[i][j] − recvd[j][i]`, and each positive entry is an edge `i → j`
/// ("`i`'s traffic must land before `j` is quiet"). Kahn's algorithm with
/// deterministic smallest-rank-first selection; a cycle (mutual in-flight
/// traffic) is broken by releasing the smallest remaining rank.
pub fn topo_order(sent: &[Vec<u64>], recvd: &[Vec<u64>]) -> TopoPlan {
    let n = sent.len();
    let mut indeg = vec![0usize; n];
    let mut out: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut edges = 0u64;
    for i in 0..n {
        for j in 0..n {
            if i == j {
                continue;
            }
            let s = sent[i].get(j).copied().unwrap_or(0);
            let r = recvd[j].get(i).copied().unwrap_or(0);
            if s.saturating_sub(r) > 0 {
                out[i].push(j);
                indeg[j] += 1;
                edges += 1;
            }
        }
    }
    let mut order = vec![0u32; n];
    let mut placed = vec![false; n];
    let mut cyclic = false;
    for pos in 0..n {
        let next = match (0..n).find(|&r| !placed[r] && indeg[r] == 0) {
            Some(r) => r,
            None => {
                cyclic = true;
                (0..n).find(|&r| !placed[r]).expect("unplaced rank exists")
            }
        };
        placed[next] = true;
        order[next] = pos as u32;
        for &j in &out[next] {
            if !placed[j] {
                indeg[j] = indeg[j].saturating_sub(1);
            }
        }
    }
    TopoPlan {
        order,
        edges,
        cyclic,
    }
}

/// Global invariant checker run by the coordinator at the commit point of
/// every round — after every image is frozen, before intent drops and
/// `Resume`/`Exit` is broadcast. Receives the round number; returns a
/// description of the violation if the committed global state is
/// inconsistent.
pub type CommitCheck = Box<dyn Fn(u64) -> std::result::Result<(), String> + Send>;

/// What a coordinator is built from.
pub struct CoordSetup {
    /// Checkpoint-and-kill: a committed round ends in `Exit`, not `Resume`.
    pub exit_after_ckpt: bool,
    /// The first round number. A restarted world passes `restored_round +
    /// 1` so round numbers — and therefore generation directories — keep
    /// advancing across restarts instead of colliding with committed
    /// generations.
    pub initial_round: u64,
    /// Run at the commit point of every round.
    pub commit_check: CommitCheck,
    /// The generational store rounds are committed to, and how many
    /// committed generations GC retains.
    pub ckpt_store: Option<(Arc<Store>, usize)>,
    /// Fault plan delaying rank→coordinator messages and damaging the
    /// image writes of the flush.
    pub fault: Option<Arc<mpisim::FaultPlan>>,
    /// Flight-recorder sink: the transitions and the flush record their
    /// spans and store events into the coordinator ring
    /// ([`obs::COORD_ACTOR`]) and each handle records control-channel
    /// fault firings into its rank's ring.
    pub trace: Option<Arc<obs::TraceSink>>,
    /// Metrics registry: round counters and quiesce/write/commit/fan-in
    /// latency histograms land in the [`obs::COORD_ACTOR`] shard, fault
    /// firings under the sending rank.
    pub metrics: Option<Arc<met::MetricsRegistry>>,
}

/// One checkpoint round in progress.
struct Round {
    round: u64,
    started: Instant,
    /// The open span: `Intent` while quiescing, `ImageWrite` — Go to the
    /// last image frozen, bracketing every rank's drain + encode — after.
    span: obs::Span,
    tally: Tally,
}

/// What a round has counted so far.
#[derive(Default)]
struct Tally {
    /// Ranks the current phase has heard from: `Ready` (or `Finishing`)
    /// while quiescing, `Frozen` while writing.
    heard: usize,
    /// Coordinator messages exchanged.
    msgs: u64,
    gids: Vec<u64>,
    quiesce: Duration,
    total_bytes: u64,
    images: Vec<(usize, ImageBuf)>,
    /// Legacy drain: the totals reported since the last verdict.
    totals: Vec<(u64, u64)>,
    /// Topo-sort drain: `(rank, sent, recvd)` rows, in arrival order.
    rows: Vec<(usize, Vec<u64>, Vec<u64>)>,
    /// Fan-in spread: first rank report this round to the last.
    first_report: Option<Instant>,
}

impl Tally {
    /// Count one rank's report for the current phase; true when it was the
    /// last of `n`, which also opens the next phase's count.
    fn hear(&mut self, n: usize) -> bool {
        self.msgs += 1;
        self.heard = (self.heard + 1) % n;
        self.heard == 0
    }
}

/// Where the protocol stands between two rank messages.
enum Stage {
    /// No round in progress.
    Idle,
    /// Intent raised; collecting `Ready` from every rank.
    Quiesce(Round),
    /// `Go` sent; collecting `Frozen` from every rank and answering the
    /// drain sub-exchanges.
    Write(Round),
}

/// The coordinator: protocol state plus one total transition,
/// [`Coordinator::on`], and one more input, [`Coordinator::flushed`]. It
/// owns no thread and never waits: the flush it concludes a round with is
/// a value it returns, and someone else performs it.
pub struct Coordinator {
    setup: CoordSetup,
    tel: obs::Telemetry,
    intent: Arc<AtomicBool>,
    round_ctr: Arc<AtomicU64>,
    inboxes: Arc<[Inbox]>,
    buffers: Arc<[Slot]>,
    /// One engine unparker per rank: a rank is unparked after every
    /// message queued for it, and all ranks when intent is raised, so a
    /// rank parked in [`CoordHandle::recv`] (or in a scheduling park
    /// between wrapper calls) notices control traffic promptly instead of
    /// waiting out its timeout.
    wakers: Vec<UnparkerRef>,
    stage: Stage,
    /// Ranks whose `Finishing` was acknowledged.
    finished: usize,
    /// An `Exit` verdict went out: no further round can run.
    exited: bool,
    /// The round whose [`FlushJob`] is out and whose outcome is not yet
    /// posted.
    flushing: Option<u64>,
    report: CoordReport,
}

impl Coordinator {
    /// An idle coordinator for `wakers.len()` ranks (one engine unparker
    /// each, from [`mpisim::World::unparkers`]).
    pub fn new(setup: CoordSetup, wakers: Vec<UnparkerRef>) -> Coordinator {
        Coordinator {
            tel: obs::Telemetry::new(obs::COORD_ACTOR, setup.trace.clone(), setup.metrics.clone()),
            intent: Arc::new(AtomicBool::new(false)),
            round_ctr: Arc::new(AtomicU64::new(setup.initial_round)),
            inboxes: wakers.iter().map(|_| Inbox::default()).collect(),
            buffers: wakers.iter().map(|_| Slot::default()).collect(),
            stage: Stage::Idle,
            finished: 0,
            exited: false,
            flushing: None,
            report: CoordReport::default(),
            setup,
            wakers,
        }
    }

    fn tell(&self, rank: usize, msg: CoordMsg) {
        self.inboxes[rank]
            .lock()
            .expect("inbox lock")
            .push_back(msg);
        self.wakers[rank].unpark();
    }

    /// Tell every rank; returns the number of messages that took.
    fn tell_all(&self, msg: CoordMsg) -> u64 {
        (0..self.wakers.len()).for_each(|rank| self.tell(rank, msg.clone()));
        self.wakers.len() as u64
    }

    /// The round the next intent runs, or the one in progress.
    pub fn round(&self) -> u64 {
        self.round_ctr.load(Ordering::Acquire)
    }

    /// The transition function: advance the protocol by one rank message.
    /// The last `Frozen` of a round returns the round's [`FlushJob`]; its
    /// outcome must be posted to [`Coordinator::flushed`] before the next
    /// request. Total — a `(stage, message)` pair the protocol does not
    /// allow (a request with a flush outstanding is one) changes nothing
    /// and is recorded in [`CoordReport::invariant_violations`], which
    /// fails the run.
    pub fn on(&mut self, msg: RankMsg) -> Option<FlushJob> {
        use {RankMsg::*, Stage::*};
        let mut job = None;
        let flushing = self.flushing.is_some();
        self.stage = match (std::mem::replace(&mut self.stage, Idle), msg) {
            (Idle, RequestCkpt) if !flushing && !self.exited && self.finished == 0 => {
                Quiesce(self.raise_intent())
            }
            // Coalesced into the running round, or too late: ranks have
            // already finished.
            (stage, RequestCkpt) if !flushing => {
                self.report.skipped_requests += 1;
                stage
            }
            (Idle, Finishing { rank }) => {
                self.finished += 1;
                self.tell(rank, CoordMsg::FinishAck);
                Idle
            }
            (Quiesce(r), Ready { in_collective, .. }) => self.parked(r, in_collective),
            // A rank announcing Finishing is at a safe point: count it
            // Ready. Its finalize loop handles the Go it receives instead
            // of FinishAck, runs the checkpoint, and re-announces Finishing
            // afterwards.
            (Quiesce(r), Finishing { .. }) => self.parked(r, None),
            (Write(r), DrainReport { sent, recvd, .. }) => Write(self.drain_totals(r, sent, recvd)),
            (Write(r), DrainRows { rank, sent, recvd }) => {
                Write(self.drain_rows(r, rank, sent, recvd))
            }
            (Write(mut r), Frozen { rank, image }) => {
                r.tally.total_bytes += image.len() as u64;
                r.tally.images.push((rank, image));
                r.tally.first_report.get_or_insert_with(Instant::now);
                if !r.tally.hear(self.wakers.len()) {
                    Write(r)
                } else {
                    job = Some(self.conclude(r));
                    Idle
                }
            }
            (stage, msg) => {
                let at = match stage {
                    Idle if flushing => "during a flush",
                    Idle => "outside a round",
                    Quiesce(_) => "during quiesce",
                    Write(_) => "during write",
                };
                let round = self.round_ctr.load(Ordering::Acquire);
                let violation = format!("round {round}: protocol violation: {msg:?} {at}");
                self.report.invariant_violations.push(violation);
                stage
            }
        };
        job
    }

    /// `RequestCkpt` while idle: one checkpoint round begins.
    fn raise_intent(&mut self) -> Round {
        let round = self.round();
        let r = Round {
            round,
            started: Instant::now(),
            span: self.tel.begin(round as i64, Phase::Intent),
            tally: Tally::default(),
        };
        self.intent.store(true, Ordering::Release);
        // Kick every rank: one parked between wrapper calls would
        // otherwise only notice the raised intent when its park timeout
        // expires.
        self.wakers.iter().for_each(|w| w.unpark());
        r
    }

    /// A rank parked at a safe point; the last one in releases the drain.
    fn parked(&mut self, mut r: Round, gid: Option<u64>) -> Stage {
        if let Some(g) = gid.filter(|g| !r.tally.gids.contains(g)) {
            r.tally.gids.push(g);
        }
        if !r.tally.hear(self.wakers.len()) {
            return Stage::Quiesce(r);
        }
        r.tally.quiesce = self.tel.end(r.span);
        r.span = self.tel.begin(r.round as i64, Phase::ImageWrite);
        r.tally.msgs += self.tell_all(CoordMsg::Go { round: r.round });
        Stage::Write(r)
    }

    /// Legacy drain: the ranks drive totals rounds; every complete set of
    /// n reports is answered with a verdict.
    fn drain_totals(&mut self, mut r: Round, sent: u64, recvd: u64) -> Round {
        r.tally.msgs += 1;
        r.tally.totals.push((sent, recvd));
        if r.tally.totals.len() == self.wakers.len() {
            let sent: u64 = r.tally.totals.iter().map(|t| t.0).sum();
            let recvd: u64 = r.tally.totals.iter().map(|t| t.1).sum();
            let balanced = sent == recvd;
            r.tally.msgs += self.tell_all(CoordMsg::DrainVerdict { balanced });
            r.tally.totals.clear();
        }
        r
    }

    /// Topo-sort drain: plan once all rows are in — order the in-flight
    /// dependency graph and hand every rank its exact expected column.
    fn drain_rows(&mut self, mut r: Round, rank: usize, sent: Vec<u64>, recvd: Vec<u64>) -> Round {
        r.tally.msgs += 1;
        r.tally.rows.push((rank, sent, recvd));
        if r.tally.rows.len() < self.wakers.len() {
            return r;
        }
        let planning = self.tel.begin(r.round as i64, Phase::DrainPlan);
        r.tally.rows.sort_by_key(|row| row.0);
        let (sent, recvd): (Vec<_>, Vec<_>) = r.tally.rows.drain(..).map(|t| (t.1, t.2)).unzip();
        let plan = topo_order(&sent, &recvd);
        self.tel.add(met::DRAIN_TOPO_PLANS, 1);
        self.tel.add(met::DRAIN_TOPO_EDGES, plan.edges);
        if plan.cyclic {
            self.tel.add(met::DRAIN_TOPO_CYCLES, 1);
        }
        for (j, &order) in plan.order.iter().enumerate() {
            let expected = sent.iter().map(|row| row.get(j).copied().unwrap_or(0));
            let schedule = CoordMsg::DrainSchedule {
                expected: expected.collect(),
                order,
                edges: plan.edges,
                cyclic: plan.cyclic,
            };
            self.tell(j, schedule);
            r.tally.msgs += 1;
        }
        self.tel.end(planning);
        r
    }

    /// Every rank has drained and frozen its image, none has resumed: the
    /// round becomes its flush job. Resume mode releases the ranks before
    /// the job runs; exit mode waits for its outcome.
    fn conclude(&mut self, r: Round) -> FlushJob {
        let (round, mut t) = (r.round, r.tally);
        let write = self.tel.end(r.span);
        if let Some(first) = t.first_report {
            self.tel.observe(met::COORD_FANIN_NS, first.elapsed());
        }
        t.images.sort_by_key(|(rank, _)| *rank);
        let ranks_wait = self.setup.exit_after_ckpt;
        if !ranks_wait {
            self.check(round);
            self.release(round, CoordMsg::Resume);
        }
        self.flushing = Some(round);
        FlushJob {
            images: t.images,
            stats: CkptRoundStats {
                round,
                quiesce: t.quiesce,
                write,
                flush: Duration::ZERO,
                total_image_bytes: t.total_bytes,
                gids_in_flight: t.gids,
                coord_msgs: t.msgs + self.wakers.len() as u64,
            },
            started: r.started,
            ranks_wait,
            store: self.setup.ckpt_store.clone(),
            fault: self.setup.fault.clone(),
            tel: self.tel.clone(),
            buffers: self.buffers.clone(),
        }
    }

    /// The outcome of the outstanding [`FlushJob`] (`None`: it panicked),
    /// recorded in the report and the round counters: a committed round
    /// in `rounds`, any other in `aborted_rounds`. Exit mode sends the
    /// verdict on it: `Exit` only for a committed round, after the commit
    /// check; `Resume` otherwise, as resume mode does.
    pub fn flushed(&mut self, flushed: Option<Flushed>) {
        let round = (self.flushing.take()).expect("an outcome answers the job of the last Frozen");
        // A flush that blew up fails the run like any broken invariant:
        // it must not read as a success.
        let flushed = flushed.unwrap_or_else(|| {
            let violation = "checkpoint flush panicked".to_string();
            self.report.invariant_violations.push(violation.clone());
            let failures = vec![(usize::MAX, violation)];
            Err(AbortedRound { round, failures })
        });
        let committed = flushed.is_ok();
        let (counter, verdict) = match committed {
            true => (met::ROUNDS_COMMITTED, CoordMsg::Exit),
            false => (met::ROUNDS_ABORTED, CoordMsg::Resume),
        };
        self.tel.add(counter, 1);
        match flushed {
            Ok(stats) => self.report.rounds.push(stats),
            Err(aborted) => self.report.aborted_rounds.push(aborted),
        }
        if self.setup.exit_after_ckpt {
            if committed {
                self.check(round);
                self.exited = true;
            }
            self.release(round, verdict);
        }
    }

    /// Run the commit-time invariant checker. Before any rank is released
    /// is the only instant the global quiesced state is observable.
    fn check(&mut self, round: u64) {
        if let Err(v) = (self.setup.commit_check)(round) {
            let violation = format!("round {round}: {v}");
            self.report.invariant_violations.push(violation);
        }
    }

    /// End the round with `verdict` to every rank. Intent must drop
    /// *before* the broadcast: popping the verdict from the inbox
    /// synchronizes-with its push, so a resuming rank is guaranteed to
    /// read intent == false and cannot emit a spurious Ready into the idle
    /// coordinator.
    fn release(&mut self, round: u64, verdict: CoordMsg) {
        self.intent.store(false, Ordering::Release);
        self.round_ctr.store(round + 1, Ordering::Release);
        self.tell_all(verdict);
    }
}

/// Build the coordinator of `world` and hand out its per-rank handles.
/// Each handle blocks on its rank's engine parker and stops waiting once
/// the world is poisoned.
pub fn connect(world: &mpisim::World, setup: CoordSetup) -> Vec<CoordHandle> {
    let (fault, trace, reg) = (
        setup.fault.clone(),
        setup.trace.clone(),
        setup.metrics.clone(),
    );
    let coord = Coordinator::new(setup, world.unparkers());
    let (intent, round, inboxes, buffers) = (
        coord.intent.clone(),
        coord.round_ctr.clone(),
        coord.inboxes.clone(),
        coord.buffers.clone(),
    );
    let coord = Arc::new(Mutex::new(Driver::new(coord)));
    (0..world.size())
        .map(|rank| CoordHandle {
            rank,
            intent: intent.clone(),
            round: round.clone(),
            coord: coord.clone(),
            inboxes: inboxes.clone(),
            buffers: buffers.clone(),
            fault: fault.clone(),
            sent_msgs: Arc::new(AtomicU64::new(0)),
            tel: obs::Telemetry::new(rank as i32, trace.clone(), reg.clone()),
            parker: world.parker(rank),
            world: world.introspect(),
        })
        .collect()
}

/// Teardown, once every rank is done with its handle: post the last
/// flush's outcome and take the coordinator's report.
pub fn finish(handles: Vec<CoordHandle>) -> CoordReport {
    // A poisoned lock means a rank panicked inside a transition; the
    // launch already failed on that panic, and the flush still needs
    // joining. Report pushes are each complete, so what is there is valid.
    let mut driver = (handles[0].coord.lock()).unwrap_or_else(PoisonError::into_inner);
    driver.join();
    std::mem::take(&mut driver.coord.report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flush;
    use mpisim::Named;
    use obs::EventKind;
    use splitproc::blobs::{BlobEntry, PutCost, PutMode};
    use splitproc::store;
    use splitproc::{Encode, ImageHead, UpperHalf};
    use std::io;
    use std::path::{Path, PathBuf};

    /// Resume mode from round 0: nothing checked, stored, injected or
    /// recorded.
    fn bare() -> CoordSetup {
        CoordSetup {
            exit_after_ckpt: false,
            initial_round: 0,
            commit_check: Box::new(|_| Ok(())),
            ckpt_store: None,
            fault: None,
            trace: None,
            metrics: None,
        }
    }

    /// The test's unparker. A transition unparks a rank right after it
    /// queues a message for it — the first instant the rank could see it —
    /// so this is where "intent is down before a verdict is observable" is
    /// checked, not after the transition has returned.
    struct Probe {
        rank: usize,
        wire: std::sync::OnceLock<(Arc<AtomicBool>, Arc<[Inbox]>)>,
    }

    impl mpisim::Unparker for Probe {
        fn unpark(&self) {
            let Some((intent, inboxes)) = self.wire.get() else {
                return;
            };
            let verdict = matches!(
                inboxes[self.rank].lock().unwrap().back(),
                Some(CoordMsg::Resume | CoordMsg::Exit)
            );
            assert!(
                !verdict || !intent.load(Ordering::Acquire),
                "rank {}: verdict observable with intent still up",
                self.rank
            );
        }
    }

    /// An in-memory blob backend that only keeps the ledger of what the
    /// coordinator's store did: `put <path>` / `rm <path>`. A put whose
    /// path contains one of `fail` fails.
    #[derive(Clone, Default)]
    struct Ledger {
        log: Arc<Mutex<Vec<String>>>,
        fail: Arc<Vec<String>>,
    }

    impl Ledger {
        fn failing(fail: Vec<String>) -> Ledger {
            Ledger {
                fail: Arc::new(fail),
                ..Ledger::default()
            }
        }

        fn has(&self, op: &str, name: &str) -> bool {
            let log = self.log.lock().unwrap();
            log.iter().any(|l| l.starts_with(op) && l.contains(name))
        }
    }

    impl store::Blobs for Ledger {
        fn put_atomic(&self, path: &Path, _: &[u8], _: PutMode) -> (PutCost, io::Result<()>) {
            let path = path.display().to_string();
            let failed = self.fail.iter().any(|f| path.contains(f.as_str()));
            self.log.lock().unwrap().push(format!("put {path}"));
            let res = match failed {
                true => Err(io::Error::other("injected put failure")),
                false => Ok(()),
            };
            (PutCost::default(), res)
        }
        fn get(&self, _: &Path, _: Option<&mut Vec<u8>>) -> io::Result<u64> {
            Err(io::ErrorKind::NotFound.into())
        }
        fn list(&self, _: &Path) -> io::Result<Vec<BlobEntry>> {
            Ok(Vec::new())
        }
        fn remove(&self, path: &Path) -> io::Result<()> {
            self.log
                .lock()
                .unwrap()
                .push(format!("rm {}", path.display()));
            Ok(())
        }
        fn sync_dir(&self, _: &Path) -> io::Result<()> {
            Ok(())
        }
    }

    /// The store of a simulated coordinator: flat, over `blobs`, one
    /// attempt per put.
    fn sim_store(root: &Path, blobs: impl store::Blobs + 'static) -> Arc<Store> {
        let cfg = store::StoreConfig {
            retry_attempts: 1,
            retry_backoff: Duration::ZERO,
            ..store::StoreConfig::default()
        };
        Arc::new(Store::new(
            root,
            cfg,
            obs::Telemetry::off(),
            Box::new(blobs),
        ))
    }

    /// A rank's frozen image: `upper` bytes of upper half and 8 of
    /// metadata, encoded for real into `buf`.
    fn freeze(mut buf: ImageBuf, rank: usize, round: u64, upper: usize) -> ImageBuf {
        let head = ImageHead {
            rank,
            world_size: 2,
            round,
        };
        let mut state = UpperHalf::new();
        state.write_segment("state", vec![7u8; upper]);
        head.encode_into(&mut buf, &state, &vec![rank as u8; 8]);
        buf
    }

    /// `rank`'s frozen image of `round`, `bytes` bytes in all: an empty
    /// upper half and metadata to fill it up (76 bytes are header and
    /// framing).
    fn frozen(rank: usize, round: u64, bytes: usize) -> ImageBuf {
        let mut buf = ImageBuf::default();
        let head = ImageHead {
            rank,
            world_size: 2,
            round,
        };
        head.encode_into(&mut buf, &UpperHalf::new(), &vec![0u8; bytes - 76]);
        assert_eq!(buf.len(), bytes);
        buf
    }

    /// A coordinator driven directly — no threads, no handles, no waiting —
    /// that checks on every transition what must hold on every transition,
    /// and runs each flush job inline with one writer where the driver
    /// would join its helper: before the next request, at once in exit
    /// mode, and at [`Sim::settle`].
    struct Sim {
        c: Coordinator,
        /// Ranks whose `Finishing` was acknowledged: told nothing since.
        acked: Vec<bool>,
        /// The job the last `Frozen` returned, not yet run.
        pending: Option<FlushJob>,
        /// The requesting rank's telemetry, for its `flush_wait` spans.
        tel: obs::Telemetry,
    }

    impl Sim {
        fn new(n: usize, setup: CoordSetup) -> Sim {
            let wire = std::sync::OnceLock::new;
            let probes: Vec<_> = (0..n)
                .map(|rank| Arc::new(Probe { rank, wire: wire() }))
                .collect();
            let wakers = probes.iter().map(|p| p.clone() as UnparkerRef).collect();
            let tel = obs::Telemetry::new(0, setup.trace.clone(), setup.metrics.clone());
            let c = Coordinator::new(setup, wakers);
            for p in probes {
                let _ = p.wire.set((c.intent.clone(), c.inboxes.clone()));
            }
            Sim {
                c,
                acked: vec![false; n],
                pending: None,
                tel,
            }
        }

        fn intent(&self) -> bool {
            self.c.intent.load(Ordering::Acquire)
        }

        fn round(&self) -> u64 {
            self.c.round()
        }

        /// One transition and the flush it concludes, as the driver
        /// performs them; returns what they told each rank.
        fn on(&mut self, msg: RankMsg) -> Vec<Vec<CoordMsg>> {
            let what = format!("{msg:?}");
            if matches!(msg, RankMsg::RequestCkpt) && self.pending.is_some() {
                let waiting = self.tel.begin(self.round() as i64, Phase::FlushWait);
                self.settle();
                self.tel.end(waiting);
            }
            if let Some(job) = self.c.on(msg) {
                let ranks_wait = job.ranks_wait;
                self.pending = Some(job);
                if ranks_wait {
                    self.settle();
                }
            }
            self.told(&what)
        }

        /// Run the pending flush job, if any, and post its outcome.
        fn settle(&mut self) {
            if let Some(job) = self.pending.take() {
                self.c.flushed(Some(flush::run(job, 1)));
            }
        }

        /// What each rank was told since the last look.
        fn told(&mut self, what: &str) -> Vec<Vec<CoordMsg>> {
            let told: Vec<Vec<CoordMsg>> = (self.c.inboxes.iter())
                .map(|q| q.lock().unwrap().drain(..).collect())
                .collect();
            for (rank, msgs) in told.iter().enumerate() {
                assert!(
                    msgs.is_empty() || !self.acked[rank],
                    "{what}: finished rank {rank} told {msgs:?}"
                );
                if msgs.contains(&CoordMsg::FinishAck) {
                    self.acked[rank] = true;
                }
            }
            told
        }

        /// A transition that tells nobody anything.
        fn quiet(&mut self, msg: RankMsg) {
            let told = self.on(msg);
            assert!(told.iter().all(Vec::is_empty), "unexpected {told:?}");
        }

        /// A transition that tells every rank exactly `msg(rank)`.
        fn tells_all(&mut self, sent: RankMsg, msg: impl Fn(usize) -> CoordMsg) {
            for (rank, told) in self.on(sent).into_iter().enumerate() {
                assert_eq!(told, vec![msg(rank)], "rank {rank}");
            }
        }
    }

    /// How the ranks count in-flight traffic between `Go` and their reports.
    #[derive(Clone)]
    enum Drain {
        /// Among themselves (alltoall): the coordinator hears nothing.
        Alltoall,
        /// Legacy totals: one arrival order per totals round; only the last
        /// round balances.
        Totals(Vec<Vec<usize>>),
        /// Topo-sort: the arrival order of the rows.
        Rows(Vec<usize>),
    }

    /// One round, as the coordinator sees it: who arrives when with what.
    /// Rank 0 has 10 bytes in flight to rank 1; even ranks park inside
    /// collective 42.
    #[derive(Clone)]
    struct Script {
        exit: bool,
        /// Park order, and (by rank) who parks with `Finishing`.
        parks: Vec<usize>,
        finishing: Vec<bool>,
        drain: Drain,
        /// Report order, and (by rank) whose image fails to land.
        reports: Vec<usize>,
        failed: Vec<bool>,
        /// A second `RequestCkpt` before event number `i` (parks, drain
        /// reports and image reports, in order); `len` is after the round.
        second: Option<usize>,
    }

    impl Script {
        /// Everyone `Ready`, then everyone `Frozen`, in rank order.
        fn plain(n: usize) -> Script {
            Script {
                exit: false,
                parks: (0..n).collect(),
                finishing: vec![false; n],
                drain: Drain::Alltoall,
                reports: (0..n).collect(),
                failed: vec![false; n],
                second: None,
            }
        }
    }

    enum Ev {
        Park(usize),
        Totals {
            rank: usize,
            balanced: bool,
            last: bool,
        },
        Rows {
            rank: usize,
            last: bool,
        },
        Report {
            rank: usize,
            last: bool,
        },
    }

    struct Played {
        report: CoordReport,
        ledger: Ledger,
    }

    /// Drive one scripted round through a fresh coordinator, asserting the
    /// round's contract, then retire every rank.
    fn play(s: &Script, setup: CoordSetup) -> Played {
        let n = s.parks.len();
        let failing = (0..n).filter(|&r| s.failed[r]);
        let ledger = Ledger::failing(failing.map(|r| format!("ckpt_rank_{r:05}")).collect());
        let mut sim = Sim::new(
            n,
            CoordSetup {
                exit_after_ckpt: s.exit,
                ckpt_store: Some((sim_store(Path::new("/mana2_sim"), ledger.clone()), 2)),
                ..setup
            },
        );
        let r0 = sim.round();
        let mut events: Vec<Ev> = s.parks.iter().map(|&r| Ev::Park(r)).collect();
        let mut sub_msgs = 0;
        match &s.drain {
            Drain::Alltoall => {}
            Drain::Totals(rounds) => {
                for (k, order) in rounds.iter().enumerate() {
                    events.extend(order.iter().enumerate().map(|(i, &rank)| Ev::Totals {
                        rank,
                        balanced: k + 1 == rounds.len(),
                        last: i + 1 == n,
                    }));
                    sub_msgs += 2 * n as u64;
                }
            }
            Drain::Rows(order) => {
                events.extend(order.iter().enumerate().map(|(i, &rank)| Ev::Rows {
                    rank,
                    last: i + 1 == n,
                }));
                sub_msgs += 2 * n as u64;
            }
        }
        events.extend(s.reports.iter().enumerate().map(|(i, &rank)| Ev::Report {
            rank,
            last: i + 1 == n,
        }));
        let aborted = s.failed.contains(&true);
        let mut skipped = 0;

        sim.quiet(RankMsg::RequestCkpt);
        assert!(sim.intent(), "intent is raised inside the request");
        let mut parked = 0;
        for (i, ev) in events.iter().enumerate() {
            if s.second == Some(i) {
                sim.quiet(RankMsg::RequestCkpt);
                skipped += 1;
            }
            match *ev {
                Ev::Park(rank) => {
                    let msg = match s.finishing[rank] {
                        true => RankMsg::Finishing { rank },
                        false => RankMsg::Ready {
                            rank,
                            in_collective: (rank % 2 == 0).then_some(42),
                        },
                    };
                    parked += 1;
                    match parked == n {
                        true => sim.tells_all(msg, |_| CoordMsg::Go { round: r0 }),
                        false => sim.quiet(msg),
                    }
                }
                Ev::Totals {
                    rank,
                    balanced,
                    last,
                } => {
                    let msg = RankMsg::DrainReport {
                        rank,
                        sent: if rank == 0 { 10 } else { 0 },
                        recvd: if rank == 1 && balanced { 10 } else { 0 },
                    };
                    match last {
                        true => sim.tells_all(msg, |_| CoordMsg::DrainVerdict { balanced }),
                        false => sim.quiet(msg),
                    }
                }
                Ev::Rows { rank, last } => {
                    let mut sent = vec![0; n];
                    if rank == 0 {
                        sent[1] = 10;
                    }
                    let msg = RankMsg::DrainRows {
                        rank,
                        sent,
                        recvd: vec![0; n],
                    };
                    // Each rank gets its own column of the sent matrix,
                    // and the sender precedes the receiver.
                    let schedule = |to: usize| CoordMsg::DrainSchedule {
                        expected: (0..n)
                            .map(|i| if (i, to) == (0, 1) { 10 } else { 0 })
                            .collect(),
                        order: to as u32,
                        edges: 1,
                        cyclic: false,
                    };
                    match last {
                        true => sim.tells_all(msg, schedule),
                        false => sim.quiet(msg),
                    }
                }
                Ev::Report { rank, last } => {
                    let image = frozen(rank, r0, 100);
                    let msg = RankMsg::Frozen { rank, image };
                    if !last {
                        sim.quiet(msg);
                        assert!(sim.intent() && sim.round() == r0);
                        continue;
                    }
                    // Resume mode releases every rank before any image
                    // lands. Exit mode lands them first, and a failed
                    // round must NOT exit: the job resumes, as in resume
                    // mode, and may checkpoint again later.
                    sim.tells_all(msg, |_| match s.exit && !aborted {
                        true => CoordMsg::Exit,
                        false => CoordMsg::Resume,
                    });
                    assert!(!sim.intent(), "intent cleared by the verdict");
                    assert_eq!(sim.round(), r0 + 1, "one round, one count");
                }
            }
        }
        if s.second == Some(events.len()) {
            sim.quiet(RankMsg::RequestCkpt);
            match s.exit && !aborted {
                // Checkpoint-and-kill already happened: nothing to start.
                true => skipped += 1,
                false => {
                    assert!(sim.intent(), "a request after the round starts the next");
                    assert!(matches!(&sim.c.stage, Stage::Quiesce(r) if r.round == r0 + 1));
                    assert_eq!(sim.round(), r0 + 1);
                }
            }
        }
        // Goodbye — unless that second request just started another round.
        if matches!(sim.c.stage, Stage::Idle) {
            for rank in 0..n {
                let told = sim.on(RankMsg::Finishing { rank });
                for (to, msgs) in told.iter().enumerate() {
                    let want = if to == rank {
                        vec![CoordMsg::FinishAck]
                    } else {
                        vec![]
                    };
                    assert_eq!(msgs, &want);
                }
            }
            sim.quiet(RankMsg::RequestCkpt);
            skipped += 1;
            assert!(!sim.intent(), "nobody left to checkpoint");
        }
        sim.settle();
        let report = std::mem::take(&mut sim.c.report);
        assert_eq!(report.skipped_requests, skipped);
        let manifest = format!("gen_{r0:05}/MANIFEST");
        assert_eq!(
            ledger.has("put", &manifest),
            !aborted,
            "manifest iff committed"
        );
        assert_eq!(ledger.has("rm", &format!("gen_{r0:05}")), aborted);
        match aborted {
            true => {
                assert!(
                    report.rounds.is_empty(),
                    "an aborted round is not a completed one"
                );
                let failures: Vec<usize> = (0..n).filter(|&r| s.failed[r]).collect();
                assert_eq!(report.aborted_rounds.len(), 1);
                assert_eq!(report.aborted_rounds[0].round, r0);
                let got: Vec<usize> = (report.aborted_rounds[0].failures.iter())
                    .map(|f| f.0)
                    .collect();
                assert_eq!(got, failures);
            }
            false => {
                assert!(report.aborted_rounds.is_empty());
                assert_eq!(report.rounds.len(), 1);
                let r = &report.rounds[0];
                assert_eq!(r.round, r0);
                assert_eq!(r.total_image_bytes, 100 * n as u64);
                assert_eq!(r.coord_msgs, 4 * n as u64 + sub_msgs);
                let in_coll = (0..n).any(|r| r % 2 == 0 && !s.finishing[r]);
                assert_eq!(r.gids_in_flight, if in_coll { vec![42] } else { vec![] });
            }
        }
        Played { report, ledger }
    }

    fn permutations(n: usize) -> Vec<Vec<usize>> {
        if n == 0 {
            return vec![vec![]];
        }
        let mut out = Vec::new();
        for p in permutations(n - 1) {
            for at in 0..n {
                let mut q = p.clone();
                q.insert(at, n - 1);
                out.push(q);
            }
        }
        out
    }

    fn flags(n: usize) -> Vec<Vec<bool>> {
        (0..1usize << n)
            .map(|bits| (0..n).map(|i| bits >> i & 1 == 1).collect())
            .collect()
    }

    /// Every order in which one round's messages can arrive at n = 3,
    /// crossed with which ranks' images fail to land. A rank's own
    /// messages are ordered by the protocol — it reports after `Go`, and
    /// again only after the reply to its previous drain report — which
    /// makes a round a sequence of all-rank waves: every permutation
    /// within every wave is an order, and there are no others.
    #[test]
    fn every_arrival_order_of_one_round_at_n3() {
        let n = 3;
        let perms = permutations(n);
        let mut orders = 0u64;
        let mut run = |s: &Script, events: usize, first_second: usize| {
            let seconds = std::iter::once(None).chain((first_second..=events).map(Some));
            for exit in [false, true] {
                for second in seconds.clone() {
                    let s = Script {
                        exit,
                        second,
                        ..s.clone()
                    };
                    let played = play(&s, bare());
                    assert_eq!(played.report.invariant_violations, Vec::<String>::new());
                    orders += 1;
                }
            }
        };
        for reports in &perms {
            for failed in flags(n) {
                let base = Script {
                    reports: reports.clone(),
                    failed,
                    ..Script::plain(n)
                };
                // The plain round: park order × who is finishing.
                for parks in &perms {
                    for finishing in flags(n) {
                        let s = Script {
                            parks: parks.clone(),
                            finishing,
                            ..base.clone()
                        };
                        run(&s, 2 * n, 0);
                    }
                }
                // The drain sub-exchanges sit between Go and the reports:
                // the park wave is as above, so it is held fixed here.
                for rows in &perms {
                    let s = Script {
                        drain: Drain::Rows(rows.clone()),
                        ..base.clone()
                    };
                    run(&s, 3 * n, n);
                    for totals in &perms {
                        let s = Script {
                            drain: Drain::Totals(vec![rows.clone(), totals.clone()]),
                            ..base.clone()
                        };
                        run(&s, 4 * n, n);
                    }
                }
            }
        }
        assert_eq!(orders, 36_864 + 4_608 + 38_016);
    }

    #[test]
    fn finishing_without_checkpoints() {
        let mut sim = Sim::new(3, bare());
        for rank in 0..3 {
            assert_eq!(
                sim.on(RankMsg::Finishing { rank })[rank],
                vec![CoordMsg::FinishAck]
            );
        }
        assert!(sim.c.report.rounds.is_empty());
    }

    #[test]
    fn one_full_round_resume() {
        let n = 4;
        let played = play(&Script::plain(n), bare());
        let r = &played.report.rounds[0];
        assert_eq!(r.total_image_bytes, 400);
        assert_eq!(r.gids_in_flight, vec![42]);
        assert_eq!(r.coord_msgs, 4 * n as u64);
    }

    #[test]
    fn exit_after_ckpt_sends_exit() {
        // Exiting ranks still announce Finishing (play's goodbye).
        let s = Script {
            exit: true,
            ..Script::plain(2)
        };
        assert_eq!(play(&s, bare()).report.rounds.len(), 1);
    }

    #[test]
    fn legacy_drain_rounds_answered() {
        let n = 2;
        let s = Script {
            drain: Drain::Totals(vec![vec![0, 1], vec![1, 0]]),
            ..Script::plain(n)
        };
        let played = play(&s, bare());
        // Legacy drain cost shows up in the message counter: 2 reports + 2
        // verdicts per totals round × 2 rounds on top of the base four per
        // rank.
        assert_eq!(played.report.rounds[0].coord_msgs, (4 + 2 * 2) * n as u64);
    }

    #[test]
    fn toposort_rows_answered_with_exact_columns() {
        let n = 2;
        let s = Script {
            drain: Drain::Rows(vec![1, 0]),
            ..Script::plain(n)
        };
        let played = play(&s, bare());
        // Topo drain costs exactly 2 extra messages per rank on top of
        // the base Ready/Go/Frozen/Resume four.
        assert_eq!(played.report.rounds[0].coord_msgs, 6 * n as u64);
    }

    #[test]
    fn commit_check_failure_is_recorded() {
        let setup = CoordSetup {
            commit_check: Box::new(|round| Err(format!("synthetic violation in round {round}"))),
            ..bare()
        };
        let report = play(&Script::plain(2), setup).report;
        assert_eq!(report.rounds.len(), 1, "the round still committed");
        assert_eq!(report.invariant_violations.len(), 1);
        assert!(report.invariant_violations[0].contains("round 0"));
    }

    #[test]
    fn ckpt_failed_aborts_round_and_all_ranks_resume() {
        // Exit mode: the flush runs before the verdict, and every rank
        // hears Resume (the play harness checks it).
        let s = Script {
            exit: true,
            failed: vec![false, true, false],
            ..Script::plain(3)
        };
        let played = play(&s, bare());
        let aborted = &played.report.aborted_rounds[0];
        assert_eq!(aborted.failures.len(), 1);
        assert!(aborted.failures[0].1.contains("injected put failure"));
        assert!(!played.ledger.has("put", "MANIFEST"));
    }

    #[test]
    fn exit_mode_sends_its_verdict_on_the_posted_flush_outcome() {
        let n = 3;
        let fail = |ranks: &[usize]| ranks.iter().map(|r| format!("ckpt_rank_{r:05}")).collect();
        // Committed, two images failed to land, the flush panicked.
        for (case, failing) in [(0, vec![]), (1, fail(&[0, 2])), (2, vec![])] {
            let ledger = Ledger::failing(failing);
            let setup = CoordSetup {
                exit_after_ckpt: true,
                ckpt_store: Some((sim_store(Path::new("/mana2_sim"), ledger), 2)),
                ..bare()
            };
            let mut sim = Sim::new(n, setup);
            sim.quiet(RankMsg::RequestCkpt);
            for rank in 0..n {
                sim.on(RankMsg::Ready {
                    rank,
                    in_collective: None,
                });
            }
            for rank in 1..n {
                let image = frozen(rank, 0, 100);
                sim.quiet(RankMsg::Frozen { rank, image });
            }
            let image = frozen(0, 0, 100);
            let job = (sim.c.on(RankMsg::Frozen { rank: 0, image })).expect("the round's job");
            let told = sim.told("the last Frozen");
            assert!(told.iter().all(Vec::is_empty), "case {case}: {told:?}");
            assert!(sim.intent(), "case {case}: nobody released yet");
            sim.c.flushed((case != 2).then(|| flush::run(job, 1)));
            let verdict = match case {
                0 => CoordMsg::Exit,
                _ => CoordMsg::Resume,
            };
            assert_eq!(
                sim.told("the outcome"),
                vec![vec![verdict]; n],
                "case {case}"
            );
            assert!(!sim.intent() && sim.round() == 1, "case {case}");
            let report = &sim.c.report;
            assert_eq!(report.rounds.len(), usize::from(case == 0), "case {case}");
            let failed: Vec<Vec<usize>> = (report.aborted_rounds.iter())
                .map(|a| a.failures.iter().map(|f| f.0).collect())
                .collect();
            let want = match case {
                0 => vec![],
                1 => vec![vec![0, 2]],
                _ => vec![vec![usize::MAX]],
            };
            assert_eq!(failed, want, "case {case}");
            let panicked = (case == 2).then_some("checkpoint flush panicked");
            assert_eq!(report.invariant_violations, Vec::from_iter(panicked));
        }
    }

    #[test]
    fn a_manifest_that_fails_after_release_aborts_the_round() {
        // Resume mode: every rank was released at Frozen and is not told;
        // the report records the round under `usize::MAX`.
        let ledger = Ledger::failing(vec!["MANIFEST".into()]);
        let setup = CoordSetup {
            ckpt_store: Some((sim_store(Path::new("/mana2_sim"), ledger.clone()), 2)),
            ..bare()
        };
        let mut sim = Sim::new(2, setup);
        sim.quiet(RankMsg::RequestCkpt);
        sim.quiet(RankMsg::Ready {
            rank: 0,
            in_collective: None,
        });
        let ready = RankMsg::Ready {
            rank: 1,
            in_collective: None,
        };
        sim.tells_all(ready, |_| CoordMsg::Go { round: 0 });
        let image = frozen(1, 0, 100);
        sim.quiet(RankMsg::Frozen { rank: 1, image });
        let image = frozen(0, 0, 100);
        sim.tells_all(RankMsg::Frozen { rank: 0, image }, |_| CoordMsg::Resume);
        sim.settle();
        let report = &sim.c.report;
        assert!(report.rounds.is_empty());
        assert_eq!(report.aborted_rounds.len(), 1);
        let failures = &report.aborted_rounds[0].failures;
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].0, usize::MAX);
        assert!(failures[0].1.contains("manifest write failed"));
        assert!(ledger.has("put", "gen_00000/ckpt_rank_00001"));
        assert!(ledger.has("rm", "gen_00000"), "the generation is scrapped");
    }

    #[test]
    fn rounds_keep_counting_from_the_initial_round() {
        let setup = CoordSetup {
            initial_round: 7,
            ..bare()
        };
        let played = play(&Script::plain(2), setup);
        assert_eq!(played.report.rounds[0].round, 7);
        assert!(played.ledger.has("put", "gen_00007/MANIFEST"));
    }

    #[test]
    fn request_after_finish_is_skipped() {
        let mut sim = Sim::new(2, bare());
        assert_eq!(
            sim.on(RankMsg::Finishing { rank: 0 })[0],
            vec![CoordMsg::FinishAck]
        );
        // Rank 1 is still running, but rank 0 can no longer take part.
        sim.quiet(RankMsg::RequestCkpt);
        assert!(!sim.intent());
        assert_eq!(sim.c.report.skipped_requests, 1);
        assert!(sim.c.report.rounds.is_empty());
    }

    #[test]
    fn disallowed_messages_change_nothing_and_are_reported() {
        let done = |rank| RankMsg::Frozen {
            rank,
            image: frozen(rank, 0, 80),
        };
        let ready = |rank| RankMsg::Ready {
            rank,
            in_collective: None,
        };
        let mut sim = Sim::new(2, bare());
        // Outside a round.
        sim.quiet(ready(0));
        sim.quiet(done(0));
        sim.quiet(RankMsg::RequestCkpt);
        // During quiesce: a report, a drain exchange.
        sim.quiet(done(0));
        sim.quiet(RankMsg::DrainReport {
            rank: 0,
            sent: 0,
            recvd: 0,
        });
        sim.quiet(ready(0));
        sim.tells_all(ready(1), |_| CoordMsg::Go { round: 0 });
        // During write: a park, a goodbye.
        sim.quiet(ready(1));
        sim.quiet(RankMsg::Finishing { rank: 1 });
        sim.quiet(done(0));
        sim.tells_all(done(1), |_| CoordMsg::Resume);
        // Released, its flush not yet posted: a request (the driver joins
        // the flush before any request runs).
        assert!(sim.c.on(RankMsg::RequestCkpt).is_none());
        assert!(!sim.intent(), "no round starts over an outstanding flush");
        sim.settle();
        let report = &sim.c.report;
        assert_eq!(
            report.rounds[0].coord_msgs, 8,
            "refused messages are not counted"
        );
        let v = &report.invariant_violations;
        assert_eq!(v.len(), 7, "{v:#?}");
        assert!(v[0].contains("Ready") && v[0].contains("outside a round"));
        assert!(v[2].contains("Frozen") && v[2].contains("during quiesce"));
        assert!(v[5].contains("Finishing") && v[5].contains("during write"));
        assert!(v[6].contains("RequestCkpt") && v[6].contains("during a flush"));
    }

    #[test]
    fn topo_order_respects_one_way_traffic() {
        // 0 → 1 → 2 in flight: the order must place 0 before 1 before 2.
        let sent = vec![vec![0, 10, 0], vec![0, 0, 5], vec![0, 0, 0]];
        let recvd = vec![vec![0; 3]; 3];
        let plan = topo_order(&sent, &recvd);
        assert_eq!(plan.order, vec![0, 1, 2]);
        assert_eq!(plan.edges, 2);
        assert!(!plan.cyclic);
    }

    #[test]
    fn topo_order_ignores_settled_traffic() {
        // Everything sent was already received: no edges, identity order.
        let sent = vec![vec![0, 8], vec![3, 0]];
        let recvd = vec![vec![0, 3], vec![8, 0]];
        let plan = topo_order(&sent, &recvd);
        assert_eq!(plan.edges, 0);
        assert!(!plan.cyclic);
        assert_eq!(plan.order, vec![0, 1]);
    }

    #[test]
    fn topo_order_breaks_cycles_deterministically() {
        // Mutual in-flight traffic 0 ⇄ 1: a cycle, broken smallest-first.
        let sent = vec![vec![0, 4], vec![4, 0]];
        let recvd = vec![vec![0; 2]; 2];
        let plan = topo_order(&sent, &recvd);
        assert!(plan.cyclic);
        assert_eq!(plan.edges, 2);
        assert_eq!(plan.order, vec![0, 1]);
    }

    #[test]
    fn committed_round_writes_manifest_and_gc_runs() {
        let n = 2;
        let root = std::env::temp_dir().join(format!("mana2_coord_store_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let ckpts = || store::Store::open(&root, store::StoreConfig::default());
        let setup = CoordSetup {
            ckpt_store: Some((Arc::new(ckpts()), 2)),
            ..bare()
        };
        let mut sim = Sim::new(n, setup);
        sim.quiet(RankMsg::RequestCkpt);
        for rank in 0..n {
            sim.on(RankMsg::Ready {
                rank,
                in_collective: None,
            });
        }
        let mut kept = Vec::new();
        for rank in 0..n {
            let image = freeze(ImageBuf::default(), rank, 0, 32);
            kept.push((image.bytes().as_ptr(), image.capacity()));
            sim.on(RankMsg::Frozen { rank, image });
        }
        assert!(sim.pending.is_some(), "the last Frozen returned a job");
        sim.settle();
        assert_eq!(sim.c.report.rounds.len(), 1);
        assert!(sim.c.report.invariant_violations.is_empty());
        // The generation is now committed and selectable.
        let sel = ckpts().select(Some(n), None).unwrap();
        assert_eq!(sel.round, 0);
        // Every buffer is back in its rank's slot, as it was lent.
        for (rank, kept) in kept.into_iter().enumerate() {
            let buf = sim.c.buffers[rank].lock().unwrap();
            assert_eq!((buf.bytes().as_ptr(), buf.capacity()), kept, "rank {rank}");
        }
        std::fs::remove_dir_all(&root).ok();
    }

    /// [`store::LocalFs`] that logs `put <path>` / `rm <path>`, sleeps in
    /// every put, and can refuse every remove.
    #[derive(Clone)]
    struct Slow {
        log: Arc<Mutex<Vec<String>>>,
        put_delay: Duration,
        refuse_removes: bool,
    }

    impl Slow {
        fn new(put_delay: Duration, refuse_removes: bool) -> Slow {
            Slow {
                log: Arc::default(),
                put_delay,
                refuse_removes,
            }
        }
    }

    impl store::Blobs for Slow {
        fn put_atomic(
            &self,
            path: &Path,
            bytes: &[u8],
            mode: PutMode,
        ) -> (PutCost, io::Result<()>) {
            std::thread::sleep(self.put_delay);
            let put = store::LocalFs.put_atomic(path, bytes, mode);
            self.log
                .lock()
                .unwrap()
                .push(format!("put {}", path.display()));
            put
        }
        fn get(&self, path: &Path, into: Option<&mut Vec<u8>>) -> io::Result<u64> {
            store::LocalFs.get(path, into)
        }
        fn list(&self, dir: &Path) -> io::Result<Vec<BlobEntry>> {
            store::LocalFs.list(dir)
        }
        fn remove(&self, path: &Path) -> io::Result<()> {
            if self.refuse_removes {
                return Err(io::Error::other("remove refused"));
            }
            self.log
                .lock()
                .unwrap()
                .push(format!("rm {}", path.display()));
            store::LocalFs.remove(path)
        }
        fn sync_dir(&self, dir: &Path) -> io::Result<()> {
            store::LocalFs.sync_dir(dir)
        }
    }

    /// Run `rounds` back-to-back resume-mode rounds of every rank, each
    /// rank encoding into whatever its slot holds — what a rank does.
    /// Returns each round's `(pointer, capacity)` of every rank's buffer.
    fn back_to_back(sim: &mut Sim, rounds: u64) -> Vec<Vec<(*const u8, usize)>> {
        let n = sim.acked.len();
        let mut lent = Vec::new();
        for round in 0..rounds {
            sim.quiet(RankMsg::RequestCkpt);
            for rank in 0..n {
                sim.on(RankMsg::Ready {
                    rank,
                    in_collective: None,
                });
            }
            let mut bufs = Vec::new();
            for rank in 0..n {
                let buf = std::mem::take(&mut *sim.c.buffers[rank].lock().unwrap());
                let image = freeze(buf, rank, round, 64 << 10);
                bufs.push((image.bytes().as_ptr(), image.capacity()));
                sim.on(RankMsg::Frozen { rank, image });
            }
            lent.push(bufs);
        }
        sim.settle();
        lent
    }

    #[test]
    fn a_request_waits_for_the_previous_flush_and_buffers_come_back() {
        let root = std::env::temp_dir().join(format!("mana2_coord_bp_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let blobs = Slow::new(Duration::from_millis(5), false);
        let reg = met::MetricsRegistry::deterministic(2);
        let setup = CoordSetup {
            ckpt_store: Some((sim_store(&root, blobs.clone()), 1)),
            metrics: Some(reg.clone()),
            ..bare()
        };
        let mut sim = Sim::new(2, setup);
        let lent = back_to_back(&mut sim, 3);
        assert_eq!(sim.c.report.rounds.len(), 3);
        let log = blobs.log.lock().unwrap().clone();
        let at = |what: &str| log.iter().position(|l| l.contains(what));
        let first_put = |g: u64| {
            at(&format!(
                "put {}",
                root.join(format!("gen_{g:05}")).display()
            ))
        };
        for g in 0..2u64 {
            let manifest = at(&format!("gen_{g:05}/MANIFEST")).expect("manifest landed");
            let next = first_put(g + 1).expect("next generation written");
            assert!(
                manifest < next,
                "gen {g}'s manifest after gen {}: {log:#?}",
                g + 1
            );
            // Retaining one, committing gen g collects gen g − 1.
            if let Some(old) = g.checked_sub(1) {
                let rm = at(&format!(
                    "rm {}",
                    root.join(format!("gen_{old:05}")).display()
                ));
                assert!(rm.expect("GC removed it") < next, "{log:#?}");
            }
        }
        // A rank's buffer after round 2 is the allocation it encoded
        // round 1 into: nothing fresh, nothing grown.
        for (rank, slot) in sim.c.buffers.iter().enumerate() {
            let buf = slot.lock().unwrap();
            assert_eq!(
                (buf.bytes().as_ptr(), buf.capacity()),
                lent[1][rank],
                "rank {rank}"
            );
            assert_eq!(lent[2][rank], lent[1][rank], "rank {rank}");
        }
        // Two requests found a flush to join.
        let waits = reg
            .snapshot()
            .hist("mana2_ckpt_flush_wait_ns")
            .unwrap()
            .count;
        assert_eq!(waits, 2);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn a_failed_gc_is_counted_and_traced_and_the_rounds_go_on() {
        let root = std::env::temp_dir().join(format!("mana2_coord_gcfail_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let reg = met::MetricsRegistry::deterministic(2);
        let sink = obs::TraceSink::deterministic(2, 256);
        let setup = CoordSetup {
            ckpt_store: Some((sim_store(&root, Slow::new(Duration::ZERO, true)), 1)),
            metrics: Some(reg.clone()),
            trace: Some(sink.clone()),
            ..bare()
        };
        let mut sim = Sim::new(2, setup);
        // Round 0's GC has nothing to remove; round 1's cannot remove
        // generation 0.
        back_to_back(&mut sim, 2);
        assert_eq!(sim.c.report.rounds.len(), 2);
        assert!(sim.c.report.invariant_violations.is_empty());
        let snap = reg.snapshot();
        assert_eq!(snap.value("mana2_store_gc_failures_total"), Some(1));
        assert_eq!(snap.value("mana2_rounds_committed_total"), Some(2));
        let failed: Vec<i64> = (sink.ring_events(obs::COORD_ACTOR).iter())
            .filter(|e| e.kind == EventKind::StoreGcFailed)
            .map(|e| e.round)
            .collect();
        assert_eq!(failed, [1]);
        let sel = store::Store::open(&root, store::StoreConfig::default());
        assert_eq!(sel.select(Some(2), None).unwrap().round, 1);
        std::fs::remove_dir_all(&root).ok();
    }

    /// The flush's durability sequence with one writer, as one list:
    /// every rank's image in rank order, then the manifest, then what GC
    /// removes; a failed image means no manifest and the generation
    /// scrapped. Every buffer comes back as it was lent.
    #[test]
    fn one_writer_puts_images_in_rank_order_then_the_manifest_then_gc() {
        let root = std::env::temp_dir().join(format!("mana2_coord_order_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let blobs = Slow::new(Duration::ZERO, false);
        let setup = CoordSetup {
            ckpt_store: Some((sim_store(&root, blobs.clone()), 1)),
            ..bare()
        };
        let mut sim = Sim::new(3, setup);
        let lent = back_to_back(&mut sim, 2);
        let op = |op: &str, rel: &str| format!("{op} {}", root.join(rel).display());
        let image = |rank| op("put", &format!("gen_00001/ckpt_rank_{rank:05}.mana"));
        let mut want: Vec<String> = (0..3).map(image).collect();
        want.push(op("put", "gen_00001/MANIFEST"));
        want.push(op("rm", "gen_00000"));
        let log = blobs.log.lock().unwrap().clone();
        assert_eq!(log[log.len() - 5..], want[..], "{log:#?}");
        for (rank, slot) in sim.c.buffers.iter().enumerate() {
            let buf = slot.lock().unwrap();
            assert_eq!(
                (buf.bytes().as_ptr(), buf.capacity()),
                lent[1][rank],
                "rank {rank}"
            );
        }
        std::fs::remove_dir_all(&root).ok();

        let ledger = Ledger::failing(vec!["ckpt_rank_00001".into()]);
        let setup = CoordSetup {
            ckpt_store: Some((sim_store(Path::new("/mana2_sim"), ledger.clone()), 1)),
            ..bare()
        };
        let mut sim = Sim::new(3, setup);
        let lent = back_to_back(&mut sim, 1);
        let image = |rank| format!("put /mana2_sim/gen_00000/ckpt_rank_{rank:05}.mana");
        let mut want: Vec<String> = (0..3).map(image).collect();
        want.push("rm /mana2_sim/gen_00000".into());
        assert_eq!(*ledger.log.lock().unwrap(), want);
        assert_eq!(sim.c.report.aborted_rounds.len(), 1);
        for (rank, slot) in sim.c.buffers.iter().enumerate() {
            let buf = slot.lock().unwrap();
            assert_eq!(
                (buf.bytes().as_ptr(), buf.capacity()),
                lent[0][rank],
                "rank {rank}"
            );
        }
    }

    /// Every file under `root`, by path relative to it, with its bytes.
    fn tree(root: &Path) -> std::collections::BTreeMap<PathBuf, Vec<u8>> {
        let mut files = std::collections::BTreeMap::new();
        let mut dirs = vec![root.to_path_buf()];
        while let Some(dir) = dirs.pop() {
            for entry in std::fs::read_dir(&dir).unwrap() {
                let path = entry.unwrap().path();
                if path.is_dir() {
                    dirs.push(path);
                } else {
                    let bytes = std::fs::read(&path).unwrap();
                    files.insert(path.strip_prefix(root).unwrap().to_path_buf(), bytes);
                }
            }
        }
        files
    }

    /// Five rounds of two ranks — a first round, a window edit, no edit,
    /// a segment ahead of the slab grown by a byte, the slab shrunk and
    /// edited — flushed from the ranks' kept buffers, land in either
    /// layout the very files, recipes, manifests and pool chunks that
    /// writing the same images through `Store::write_image` lands: the
    /// block table changes what is checksummed, never a byte on disk.
    #[test]
    fn kept_buffers_land_the_store_write_image_lands() {
        let (n, retain) = (2, 2);
        for mode in [store::StoreMode::Flat, store::StoreMode::Chunked] {
            let dir = |side: &str| {
                let name = format!(
                    "mana2_coord_same_{side}_{}_{}",
                    mode.name(),
                    std::process::id()
                );
                let root = std::env::temp_dir().join(name);
                let _ = std::fs::remove_dir_all(&root);
                root
            };
            let (kept_root, ref_root) = (dir("kept"), dir("ref"));
            let cfg = store::StoreConfig {
                mode,
                ..store::StoreConfig::default()
            };
            let reference = Store::open(&ref_root, cfg.clone());
            let setup = CoordSetup {
                ckpt_store: Some((Arc::new(Store::open(&kept_root, cfg)), retain)),
                ..bare()
            };
            let mut sim = Sim::new(n, setup);
            let mut uppers: Vec<UpperHalf> = (0..n)
                .map(|rank| {
                    let mut upper = UpperHalf::new();
                    upper.write_segment("head", vec![rank as u8; 100]);
                    let slab = (0..300_000u32).map(|i| (i.wrapping_mul(2654435761) >> 13) as u8);
                    upper.write_segment("slab", slab.collect());
                    upper
                })
                .collect();
            for round in 0..5u64 {
                for (rank, upper) in uppers.iter_mut().enumerate() {
                    let slab = upper.segment_mut("slab");
                    match round {
                        1 => slab[70_000 + rank..80_000].fill(0xEE),
                        3 => upper.segment_mut("head").push(1),
                        4 => {
                            slab.truncate(200_000);
                            slab[150_000] ^= 0xFF;
                        }
                        _ => {}
                    }
                }
                sim.quiet(RankMsg::RequestCkpt);
                for rank in 0..n {
                    sim.on(RankMsg::Ready {
                        rank,
                        in_collective: None,
                    });
                }
                let mut entries = Vec::new();
                for (rank, upper) in uppers.iter().enumerate() {
                    let head = ImageHead {
                        rank,
                        world_size: n,
                        round,
                    };
                    let meta = vec![round as u8 ^ rank as u8; 40];
                    let mut image = std::mem::take(&mut *sim.c.buffers[rank].lock().unwrap());
                    head.encode_into(&mut image, upper, &meta);
                    sim.on(RankMsg::Frozen { rank, image });
                    let out = reference
                        .write_image(&splitproc::CkptImage {
                            rank,
                            world_size: n,
                            round,
                            upper: upper.to_bytes(),
                            meta: meta.to_bytes(),
                        })
                        .unwrap();
                    entries.push(store::ManifestEntry {
                        rank: rank as u64,
                        bytes: out.bytes as u64,
                        crc: out.crc,
                    });
                }
                let world_size = n as u64;
                let manifest = store::Manifest {
                    round,
                    world_size,
                    entries,
                };
                reference.commit(&manifest).unwrap();
                reference.gc(retain).unwrap();
            }
            sim.settle();
            assert_eq!(sim.c.report.rounds.len(), 5, "{mode:?}");
            let kept = tree(&kept_root);
            assert!(kept.len() > 2 * retain, "{mode:?}: {:?}", kept.keys());
            assert!(kept == tree(&ref_root), "{mode:?}: the trees differ");
            std::fs::remove_dir_all(&kept_root).ok();
            std::fs::remove_dir_all(&ref_root).ok();
        }
    }

    fn world(n: usize, engine: &str) -> mpisim::World {
        let cfg = mpisim::WorldCfg {
            engine: mpisim::EngineKind::parse(engine).expect("engine spec"),
            ..mpisim::WorldCfg::default()
        };
        mpisim::World::new(n, cfg)
    }

    /// One round through real handles, each rank on its engine thread,
    /// ungated (a token per rank) and gated to two tokens.
    #[test]
    fn one_round_through_real_handles_ungated_and_gated() {
        for engine in ["coop:3", "coop:2:7"] {
            let n = 3;
            let world = world(n, engine);
            let handles = connect(&world, bare());
            let ranks = world.launch(|proc| -> Result<()> {
                let h = handles[proc.rank()].clone();
                if proc.rank() == 0 {
                    h.request_checkpoint()?;
                }
                // Wait for intent like a wrapper would.
                while !h.intent() {
                    proc.park(Duration::from_millis(1))?;
                }
                h.send(RankMsg::Ready {
                    rank: proc.rank(),
                    in_collective: None,
                })?;
                assert_eq!(h.recv()?, CoordMsg::Go { round: 0 });
                h.send(RankMsg::Frozen {
                    rank: proc.rank(),
                    image: frozen(proc.rank(), 0, 80),
                })?;
                assert_eq!(h.recv()?, CoordMsg::Resume);
                assert!(!h.intent(), "intent cleared after resume");
                assert_eq!(h.round(), 1);
                h.send(RankMsg::Finishing { rank: proc.rank() })?;
                h.await_reply("FinishAck", |m| match m {
                    CoordMsg::FinishAck => Ok(()),
                    other => Err(other),
                })
            });
            for r in ranks.expect("no rank panicked") {
                r.unwrap_or_else(|e| panic!("{engine}: {e}"));
            }
            let report = finish(handles);
            assert_eq!(report.rounds.len(), 1, "{engine}");
            assert_eq!(report.rounds[0].coord_msgs, 4 * n as u64, "{engine}");
        }
    }

    /// A blob backend whose every put panics.
    struct Panicking;

    impl store::Blobs for Panicking {
        fn put_atomic(&self, path: &Path, _: &[u8], _: PutMode) -> (PutCost, io::Result<()>) {
            panic!("injected panic putting {}", path.display())
        }
        fn get(&self, _: &Path, _: Option<&mut Vec<u8>>) -> io::Result<u64> {
            Err(io::ErrorKind::NotFound.into())
        }
        fn list(&self, _: &Path) -> io::Result<Vec<BlobEntry>> {
            Ok(Vec::new())
        }
        fn remove(&self, _: &Path) -> io::Result<()> {
            Ok(())
        }
        fn sync_dir(&self, _: &Path) -> io::Result<()> {
            Ok(())
        }
    }

    /// An exit-mode flush that panics still reaches the state machine:
    /// every rank hears `Resume` at once instead of waiting out
    /// `RECV_CAP`, the round is recorded as aborted, and the run is failed
    /// by the recorded violation.
    #[test]
    fn a_panicking_exit_mode_flush_releases_every_rank() {
        let n = 3;
        let world = world(n, "coop:2:7");
        let setup = CoordSetup {
            exit_after_ckpt: true,
            ckpt_store: Some((sim_store(Path::new("/mana2_sim"), Panicking), 2)),
            ..bare()
        };
        let handles = connect(&world, setup);
        let t = Instant::now();
        let ranks = world.launch(|proc| -> Result<CoordMsg> {
            let (h, rank) = (handles[proc.rank()].clone(), proc.rank());
            if rank == 0 {
                h.request_checkpoint()?;
            }
            while !h.intent() {
                proc.park(Duration::from_millis(1))?;
            }
            h.send(RankMsg::Ready {
                rank,
                in_collective: None,
            })?;
            assert_eq!(h.recv()?, CoordMsg::Go { round: 0 });
            let image = frozen(rank, 0, 80);
            h.send(RankMsg::Frozen { rank, image })?;
            let verdict = h.recv()?;
            h.send(RankMsg::Finishing { rank })?;
            assert_eq!(h.recv()?, CoordMsg::FinishAck);
            Ok(verdict)
        });
        for r in ranks.expect("no rank panicked") {
            assert_eq!(r.unwrap(), CoordMsg::Resume);
        }
        assert!(t.elapsed() < Duration::from_secs(5), "{:?}", t.elapsed());
        let report = finish(handles);
        assert_eq!(report.invariant_violations, ["checkpoint flush panicked"]);
        assert!(report.rounds.is_empty());
        let aborted = &report.aborted_rounds;
        assert_eq!(aborted.len(), 1);
        assert_eq!(aborted[0].round, 0);
        let failure = (usize::MAX, "checkpoint flush panicked".to_string());
        assert_eq!(aborted[0].failures, [failure]);
    }

    /// The driver times a request's wait for the previous round's flush
    /// on the requesting rank's ring, labelled with the round about to
    /// run, and feeds `mana2_ckpt_flush_wait_ns`; a request with no flush
    /// before it waits for nothing.
    #[test]
    fn a_request_records_its_flush_wait_on_its_own_ring() {
        let n = 2;
        let world = world(n, "coop:2:7");
        let sink = obs::TraceSink::deterministic(n, 256);
        let reg = met::MetricsRegistry::deterministic(n);
        let setup = CoordSetup {
            trace: Some(sink.clone()),
            metrics: Some(reg.clone()),
            ..bare()
        };
        let handles = connect(&world, setup);
        let ranks = world.launch(|proc| -> Result<()> {
            let (h, rank) = (handles[proc.rank()].clone(), proc.rank());
            for round in 0..2 {
                if rank == 0 {
                    h.request_checkpoint()?;
                }
                while !h.intent() {
                    proc.park(Duration::from_millis(1))?;
                }
                h.send(RankMsg::Ready {
                    rank,
                    in_collective: None,
                })?;
                assert_eq!(h.recv()?, CoordMsg::Go { round });
                let image = frozen(rank, round, 80);
                h.send(RankMsg::Frozen { rank, image })?;
                assert_eq!(h.recv()?, CoordMsg::Resume);
            }
            h.send(RankMsg::Finishing { rank })?;
            assert_eq!(h.recv()?, CoordMsg::FinishAck);
            Ok(())
        });
        for r in ranks.expect("no rank panicked") {
            r.unwrap();
        }
        assert_eq!(finish(handles).rounds.len(), 2);
        let waits = |rank| -> Vec<i64> {
            (sink.ring_events(rank).iter())
                .filter(|e| matches!(e.kind, EventKind::Begin(p) | EventKind::End(p) if p == Phase::FlushWait))
                .map(|e| e.round)
                .collect()
        };
        assert_eq!((waits(0), waits(1)), (vec![1, 1], vec![]));
        let snap = reg.snapshot();
        assert_eq!(snap.hist("mana2_ckpt_flush_wait_ns").unwrap().count, 1);
    }

    /// A rank deaf to intent never parks, so `Go` never comes: the waiting
    /// rank gets a typed timeout at the cap, and whoever else waits on the
    /// coordinator is released the moment the world is aborted.
    #[test]
    fn recv_gives_up_at_its_cap_and_when_the_world_is_aborted() {
        for engine in ["coop:1", "coop:2:7"] {
            let world = world(2, engine);
            let handles = connect(&world, bare());
            let cap = Duration::from_millis(60);
            let t = Instant::now();
            let ranks = world.launch(|proc| {
                let h = handles[proc.rank()].clone();
                if proc.rank() == 1 {
                    return h.recv();
                }
                h.request_checkpoint().unwrap();
                h.send(RankMsg::Ready {
                    rank: 0,
                    in_collective: None,
                })
                .unwrap();
                let gave_up = h.recv_within(cap);
                proc.abort_world();
                gave_up
            });
            let ranks = ranks.expect("no rank panicked");
            assert!(
                matches!(&ranks[0], Err(ManaError::CoordinatorTimeout(d)) if *d == cap),
                "{engine}: {:?}",
                ranks[0]
            );
            assert!(
                matches!(&ranks[1], Err(ManaError::CoordinatorGone)),
                "{engine}: {:?}",
                ranks[1]
            );
            assert!(t.elapsed() < Duration::from_secs(5), "{engine}");
            // An unexpected reply is a typed error too, naming both sides.
            let h = &handles[0];
            h.inboxes[0].lock().unwrap().push_back(CoordMsg::Resume);
            let got = h.await_reply("Go", |m| match m {
                CoordMsg::Go { round } => Ok(round),
                other => Err(other),
            });
            assert!(
                matches!(
                    &got,
                    Err(ManaError::Protocol {
                        awaiting: "Go",
                        got: CoordMsg::Resume
                    })
                ),
                "{engine}: {got:?}"
            );
        }
    }
}
