//! The centralized checkpoint coordinator (DMTCP-coordinator analog).
//!
//! The coordinator raises checkpoint *intent*, waits until every rank has
//! parked at a safe point (collecting each rank's in-collective status and
//! globally-unique communicator ID, §III-K), releases the drain, gathers
//! per-rank image sizes, and resumes or kills the job. It also carries the
//! side-channel traffic of the *legacy* drain algorithm (global totals,
//! §III-B baseline) so the ablation bench can measure how chatty it is.
//!
//! MANA-2.0's lesson §III-M — "additional communication by MANA should be
//! minimized … use MPI calls instead of the centralized coordinator" — is
//! visible in the message counters: with `DrainMode::Alltoall`, the
//! coordinator exchanges exactly 3 messages per rank per checkpoint
//! (Ready/Go, Done/Resume), while `DrainMode::Coordinator` adds rounds of
//! count reports.

use crossbeam::channel::{bounded, unbounded, Receiver, RecvTimeoutError, Sender, TryRecvError};
use mpisim::{ParkerRef, UnparkerRef};
use obs::metrics as met;
use obs::Phase;
use splitproc::store;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
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
    /// Image durably written.
    CkptDone {
        /// Reporting rank.
        rank: usize,
        /// Bytes of the written rank file — the flat image, or the recipe
        /// in chunked mode. Recorded in the generation manifest, so
        /// restart's whole-file size/CRC check matches what is on disk.
        image_bytes: u64,
        /// CRC32 of the written rank file (same manifest-facing rule).
        image_crc: u32,
        /// Logical image payload bytes, layout-independent — what the
        /// round report sums, so "image bytes per round" means the same
        /// thing under flat and chunked stores.
        logical_bytes: u64,
    },
    /// Image write failed (even after bounded retries). The round cannot
    /// commit; the coordinator aborts the generation.
    CkptFailed {
        /// Reporting rank.
        rank: usize,
        /// What went wrong.
        reason: String,
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
    /// Images written everywhere; continue executing.
    Resume,
    /// Images written everywhere; exit (checkpoint-and-kill).
    Exit,
    /// Some rank failed to write its image: the round did not commit.
    /// Every rank discards its partial image state and resumes; prior
    /// committed generations are untouched.
    AbortRound {
        /// The round that failed to commit.
        round: u64,
    },
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
    /// Wall time from Go to all images written.
    pub write: Duration,
    /// Sum of image sizes across ranks.
    pub total_image_bytes: u64,
    /// Distinct in-collective gids reported at park time.
    pub gids_in_flight: Vec<u64>,
    /// Coordinator messages exchanged during this round.
    pub coord_msgs: u64,
}

/// Handle held by each rank.
#[derive(Clone)]
pub struct CoordHandle {
    rank: usize,
    intent: Arc<AtomicBool>,
    round: Arc<AtomicU64>,
    to_coord: Sender<RankMsg>,
    from_coord: Receiver<CoordMsg>,
    /// Fault plan injecting latency into rank→coordinator messages.
    fault: Option<Arc<mpisim::FaultPlan>>,
    /// Per-rank counter identifying each sent message to the fault plan.
    sent_msgs: Arc<AtomicU64>,
    /// This rank's telemetry (fault-plan firings on the control channel).
    tel: obs::Telemetry,
    /// The rank's engine parker, attached by the runtime once the rank's
    /// `Proc` exists. When set, every blocking point on the control
    /// channel (receive waits, injected stalls) parks through the engine
    /// instead of sleeping — under the coop engine this releases the run
    /// token so other ranks make progress during a quiesce.
    parker: Option<ParkerRef>,
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

    /// My rank.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Route this handle's blocking points through the rank's engine
    /// parker. Called by the runtime as soon as the rank's `Proc` exists.
    pub fn attach_parker(&mut self, parker: ParkerRef) {
        self.parker = Some(parker);
    }

    /// Block this rank for `d` of wall time without holding its run token:
    /// parks on the engine parker in a deadline loop (early wakes from
    /// banked unparks just re-park), falling back to a plain sleep when no
    /// parker is attached. Used for injected stalls (coordinator-channel
    /// delay, ready-stall) so fault injection cannot wedge the coop
    /// engine's worker pool.
    pub fn stall(&self, d: Duration) {
        let Some(p) = &self.parker else {
            std::thread::sleep(d);
            return;
        };
        let deadline = Instant::now() + d;
        loop {
            let now = Instant::now();
            if now >= deadline {
                return;
            }
            p.park(deadline - now);
        }
    }

    /// Send a message to the coordinator. Under a fault plan, a seeded
    /// subset of messages is delayed first — modelling a slow control
    /// network between a rank and the DMTCP-style coordinator, which
    /// widens the window between a rank parking and the coordinator
    /// noticing.
    pub fn send(&self, msg: RankMsg) -> crate::error::Result<()> {
        if let Some(fp) = &self.fault {
            let k = self.sent_msgs.fetch_add(1, Ordering::Relaxed);
            if let Some(d) = fp.coord_delay(self.rank, k) {
                self.tel
                    .fault_fired(obs::NO_ROUND, obs::FaultKind::CoordDelay);
                self.stall(d);
            }
        }
        self.to_coord
            .send(msg)
            .map_err(|_| crate::error::ManaError::CoordinatorGone)
    }

    /// Blocking receive of the next coordinator message. With a parker
    /// attached the wait is event-driven: the coordinator unparks the rank
    /// after every message it sends, and the 50 ms cap is only a safety
    /// net. Without one (unit tests driving the protocol on bare OS
    /// threads) it degrades to a plain timeout loop.
    pub fn recv(&self) -> crate::error::Result<CoordMsg> {
        loop {
            match &self.parker {
                Some(p) => match self.from_coord.try_recv() {
                    Ok(m) => return Ok(m),
                    Err(TryRecvError::Empty) => p.park(Duration::from_millis(50)),
                    Err(TryRecvError::Disconnected) => {
                        return Err(crate::error::ManaError::CoordinatorGone)
                    }
                },
                None => match self.from_coord.recv_timeout(Duration::from_millis(50)) {
                    Ok(m) => return Ok(m),
                    Err(RecvTimeoutError::Timeout) => continue,
                    Err(RecvTimeoutError::Disconnected) => {
                        return Err(crate::error::ManaError::CoordinatorGone)
                    }
                },
            }
        }
    }

    /// Ask for a checkpoint.
    pub fn request_checkpoint(&self) -> crate::error::Result<()> {
        self.send(RankMsg::RequestCkpt)
    }
}

/// One checkpoint round that failed to commit and was aborted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AbortedRound {
    /// The round that was aborted.
    pub round: u64,
    /// Per-rank failure reasons (usually one; coordinator-side manifest
    /// write failures are recorded under `usize::MAX`).
    pub failures: Vec<(usize, String)>,
}

/// Coordinator outcome after all ranks finished.
#[derive(Debug, Clone, Default)]
pub struct CoordReport {
    /// One entry per completed (committed) checkpoint round.
    pub rounds: Vec<CkptRoundStats>,
    /// Rounds that ended in `AbortRound` instead of committing.
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
/// every round — after all `CkptDone`, before intent drops and `Resume`/
/// `Exit` is broadcast. Receives the round number; returns a description
/// of the violation if the committed global state is inconsistent.
pub type CommitCheck = Box<dyn Fn(u64) -> std::result::Result<(), String> + Send>;

/// The coordinator's outbound port to one rank: a bounded channel plus the
/// rank's engine unparker. Every send is followed by an unpark so a rank
/// parked in [`CoordHandle::recv`] (or in a scheduling park between
/// wrapper calls) wakes promptly instead of waiting out its timeout.
struct RankPort {
    tx: Sender<CoordMsg>,
    waker: Option<UnparkerRef>,
}

impl RankPort {
    fn send(&self, msg: CoordMsg) {
        let _ = self.tx.send(msg);
        if let Some(w) = &self.waker {
            w.unpark();
        }
    }
}

/// Spawn the coordinator thread for a world of `n` ranks; returns the
/// per-rank handles and a join handle whose result is the coordinator's
/// report. Takes fault injection, a commit-time invariant
/// checker, a generational store for two-phase round commit, the first
/// round number, and an optional flight-recorder sink. A restarted world
/// passes `restored_round + 1` so round numbers — and therefore
/// generation directories — keep advancing across restarts instead of
/// colliding with committed generations. When `trace` is set, the
/// coordinator records its own quiesce/write/commit spans into the
/// sink's coordinator ring ([`obs::COORD_ACTOR`]) and each handle
/// records control-channel fault firings into its rank's ring.
///
/// `wakers` carries one engine unparker per rank (from
/// [`mpisim::World::unparkers`]); the coordinator unparks a rank after
/// every message to it and unparks all ranks when it raises checkpoint
/// intent, so engine-parked ranks notice control traffic promptly.
///
/// When `metrics` is set, the coordinator records round counters and
/// quiesce/write/commit/fan-in latency histograms into its
/// [`obs::COORD_ACTOR`] shard, and each handle counts control-channel
/// fault firings under its rank.
#[allow(clippy::too_many_arguments)]
pub fn spawn_coordinator(
    n: usize,
    exit_after_ckpt: bool,
    fault: Option<Arc<mpisim::FaultPlan>>,
    commit_check: Option<CommitCheck>,
    ckpt_store: Option<(store::Store, usize)>,
    initial_round: u64,
    trace: Option<Arc<obs::TraceSink>>,
    wakers: Option<Vec<UnparkerRef>>,
    metrics: Option<Arc<met::MetricsRegistry>>,
) -> (Vec<CoordHandle>, std::thread::JoinHandle<CoordReport>) {
    if let Some(w) = &wakers {
        assert_eq!(w.len(), n, "need one waker per rank");
    }
    let (to_coord, from_ranks) = unbounded::<RankMsg>();
    let intent = Arc::new(AtomicBool::new(false));
    let round = Arc::new(AtomicU64::new(initial_round));
    let mut handles = Vec::with_capacity(n);
    let mut ports = Vec::with_capacity(n);
    for rank in 0..n {
        let (tx, rx) = bounded::<CoordMsg>(8);
        ports.push(RankPort {
            tx,
            waker: wakers.as_ref().map(|w| w[rank].clone()),
        });
        handles.push(CoordHandle {
            rank,
            intent: intent.clone(),
            round: round.clone(),
            to_coord: to_coord.clone(),
            from_coord: rx,
            fault: fault.clone(),
            sent_msgs: Arc::new(AtomicU64::new(0)),
            tel: obs::Telemetry::new(rank as i32, trace.clone(), metrics.clone()),
            parker: None,
        });
    }
    let tel = obs::Telemetry::new(obs::COORD_ACTOR, trace, metrics);
    let join = std::thread::Builder::new()
        .name("mana-coordinator".into())
        .spawn(move || {
            coordinator_loop(
                n,
                exit_after_ckpt,
                intent,
                round,
                from_ranks,
                ports,
                commit_check,
                ckpt_store,
                tel,
            )
        })
        .expect("spawn coordinator");
    (handles, join)
}

#[allow(clippy::too_many_arguments)]
fn coordinator_loop(
    n: usize,
    exit_after_ckpt: bool,
    intent: Arc<AtomicBool>,
    round_ctr: Arc<AtomicU64>,
    from_ranks: Receiver<RankMsg>,
    ports: Vec<RankPort>,
    commit_check: Option<CommitCheck>,
    ckpt_store: Option<(store::Store, usize)>,
    tel: obs::Telemetry,
) -> CoordReport {
    let mut report = CoordReport::default();
    let mut finished = vec![false; n];
    let mut finished_count = 0usize;
    let mut exited = false;

    'outer: while finished_count < n {
        let msg = match from_ranks.recv_timeout(Duration::from_secs(120)) {
            Ok(m) => m,
            Err(RecvTimeoutError::Timeout) => break,
            Err(RecvTimeoutError::Disconnected) => break,
        };
        match msg {
            RankMsg::Finishing { rank } => {
                finished[rank] = true;
                finished_count += 1;
                ports[rank].send(CoordMsg::FinishAck);
            }
            RankMsg::RequestCkpt => {
                if finished_count > 0 || exited {
                    report.skipped_requests += 1;
                    continue;
                }
                // ---- one checkpoint round ----
                let round = round_ctr.load(Ordering::Acquire);
                let rnd = round as i64;
                let t_round = Instant::now();
                let quiescing = tel.begin(rnd, Phase::Intent);
                let mut msgs = 0u64;
                intent.store(true, Ordering::Release);
                // Kick every rank: one parked between wrapper calls would
                // otherwise only notice the raised intent when its park
                // timeout expires.
                for port in &ports {
                    if let Some(w) = &port.waker {
                        w.unpark();
                    }
                }

                // Phase 1: collect Ready from every rank.
                let mut ready = 0usize;
                let mut gids = Vec::new();
                while ready < n {
                    match from_ranks.recv_timeout(Duration::from_secs(120)) {
                        Ok(RankMsg::Ready { in_collective, .. }) => {
                            msgs += 1;
                            ready += 1;
                            if let Some(g) = in_collective {
                                if !gids.contains(&g) {
                                    gids.push(g);
                                }
                            }
                        }
                        // A rank announcing Finishing is at a safe point:
                        // count it Ready. Its finalize loop handles the Go
                        // it receives instead of FinishAck, runs the
                        // checkpoint, and re-announces Finishing afterwards.
                        Ok(RankMsg::Finishing { .. }) => {
                            msgs += 1;
                            ready += 1;
                        }
                        Ok(RankMsg::RequestCkpt) => {
                            // Coalesce concurrent requests into this round.
                            report.skipped_requests += 1;
                        }
                        Ok(other) => {
                            debug_assert!(false, "unexpected during quiesce: {other:?}");
                        }
                        Err(_) => break 'outer,
                    }
                }
                let quiesce = tel.end(quiescing);
                // The coordinator's "write" window opens at Go and closes
                // when the last rank reports — it brackets every rank's
                // drain + image write.
                let writing = tel.begin(rnd, Phase::ImageWrite);

                // Phase 2: release the drain.
                for port in &ports {
                    port.send(CoordMsg::Go { round });
                    msgs += 1;
                }

                // Phase 2b (legacy drain only): totals rounds. The ranks
                // drive this; we answer every complete set of n reports.
                // Phase 3: collect Done/Failed from every rank.
                let mut reported = 0usize;
                let mut total_bytes = 0u64;
                let mut images: Vec<Option<store::ManifestEntry>> = vec![None; n];
                let mut failures: Vec<(usize, String)> = Vec::new();
                let mut drain_reports: Vec<(u64, u64)> = Vec::new();
                // Topo-sort drain: one (sent, recvd) row pair per rank.
                let mut topo_rows: Vec<Option<(Vec<u64>, Vec<u64>)>> = vec![None; n];
                let mut topo_count = 0usize;
                // Fan-in spread: first rank report this round to the last,
                // which is the one that ends the loop below.
                let mut first_report: Option<Instant> = None;
                while reported < n {
                    match from_ranks.recv_timeout(Duration::from_secs(120)) {
                        Ok(RankMsg::DrainReport { sent, recvd, .. }) => {
                            msgs += 1;
                            drain_reports.push((sent, recvd));
                            if drain_reports.len() == n {
                                let s: u64 = drain_reports.iter().map(|r| r.0).sum();
                                let r: u64 = drain_reports.iter().map(|r| r.1).sum();
                                let balanced = s == r;
                                for port in &ports {
                                    port.send(CoordMsg::DrainVerdict { balanced });
                                    msgs += 1;
                                }
                                drain_reports.clear();
                            }
                        }
                        Ok(RankMsg::DrainRows { rank, sent, recvd }) => {
                            msgs += 1;
                            if topo_rows[rank].replace((sent, recvd)).is_none() {
                                topo_count += 1;
                            }
                            if topo_count == n {
                                // Plan once all rows are in: order the
                                // in-flight dependency graph and hand every
                                // rank its exact expected column.
                                let planning = tel.begin(rnd, Phase::DrainPlan);
                                let rows: Vec<(Vec<u64>, Vec<u64>)> = topo_rows
                                    .iter_mut()
                                    .map(|r| r.take().expect("all rows present"))
                                    .collect();
                                topo_count = 0;
                                let sent: Vec<Vec<u64>> =
                                    rows.iter().map(|r| r.0.clone()).collect();
                                let recvd: Vec<Vec<u64>> =
                                    rows.iter().map(|r| r.1.clone()).collect();
                                let plan = topo_order(&sent, &recvd);
                                tel.add(met::DRAIN_TOPO_PLANS, 1);
                                tel.add(met::DRAIN_TOPO_EDGES, plan.edges);
                                if plan.cyclic {
                                    tel.add(met::DRAIN_TOPO_CYCLES, 1);
                                }
                                for (j, port) in ports.iter().enumerate() {
                                    let expected: Vec<u64> = (0..n)
                                        .map(|i| sent[i].get(j).copied().unwrap_or(0))
                                        .collect();
                                    port.send(CoordMsg::DrainSchedule {
                                        expected,
                                        order: plan.order[j],
                                        edges: plan.edges,
                                        cyclic: plan.cyclic,
                                    });
                                    msgs += 1;
                                }
                                tel.end(planning);
                            }
                        }
                        Ok(RankMsg::CkptDone {
                            rank,
                            image_bytes,
                            image_crc,
                            logical_bytes,
                        }) => {
                            msgs += 1;
                            reported += 1;
                            first_report.get_or_insert_with(Instant::now);
                            total_bytes += logical_bytes;
                            images[rank] = Some(store::ManifestEntry {
                                rank: rank as u64,
                                bytes: image_bytes,
                                crc: image_crc,
                            });
                        }
                        Ok(RankMsg::CkptFailed { rank, reason }) => {
                            msgs += 1;
                            reported += 1;
                            first_report.get_or_insert_with(Instant::now);
                            failures.push((rank, reason));
                        }
                        Ok(RankMsg::RequestCkpt) => {
                            report.skipped_requests += 1;
                        }
                        Ok(other) => {
                            debug_assert!(false, "unexpected during write: {other:?}");
                        }
                        Err(_) => break 'outer,
                    }
                }
                let write = tel.end(writing);
                if let Some(first) = first_report {
                    tel.observe(met::COORD_FANIN_NS, first.elapsed());
                }

                // Commit point: every rank has drained and reported, none
                // has resumed. The round commits only if *all* ranks wrote
                // durably — then the manifest makes it restart material.
                if failures.is_empty() {
                    let committing = tel.begin(rnd, Phase::Commit);
                    if let Some((store, _)) = &ckpt_store {
                        let manifest = store::Manifest {
                            round,
                            world_size: n as u64,
                            entries: images.iter().flatten().copied().collect(),
                        };
                        if let Err(e) = store.commit(&manifest) {
                            // Manifest didn't land: the generation is not
                            // committed. Treat like a rank failure.
                            failures.push((usize::MAX, format!("manifest write failed: {e}")));
                        }
                    }
                    tel.end(committing);
                }

                if !failures.is_empty() {
                    let aborting = tel.begin(rnd, Phase::AbortRound);
                    // Abort path: scrap the partial generation, tell every
                    // rank to discard and resume. Prior committed
                    // generations are untouched — round N's failure never
                    // costs round N−1.
                    if let Some((store, _)) = &ckpt_store {
                        let _ = store.abort(round);
                    }
                    intent.store(false, Ordering::Release);
                    round_ctr.store(round + 1, Ordering::Release);
                    for port in &ports {
                        port.send(CoordMsg::AbortRound { round });
                    }
                    tel.end(aborting);
                    tel.add(met::ROUNDS_ABORTED, 1);
                    report.aborted_rounds.push(AbortedRound { round, failures });
                    continue;
                }

                // This is the only instant where the global quiesced state
                // is observable — run the invariant checker here, before
                // intent drops.
                if let Some(check) = &commit_check {
                    if let Err(v) = check(round) {
                        report
                            .invariant_violations
                            .push(format!("round {round}: {v}"));
                    }
                }

                // Phase 4: resume or kill. Intent must drop *before* the
                // broadcast: the channel receive synchronizes-with the
                // send, so a resuming rank is guaranteed to read intent ==
                // false and cannot emit a spurious Ready into the main
                // loop.
                intent.store(false, Ordering::Release);
                round_ctr.store(round + 1, Ordering::Release);
                let fin = if exit_after_ckpt {
                    CoordMsg::Exit
                } else {
                    CoordMsg::Resume
                };
                for port in &ports {
                    port.send(fin.clone());
                    msgs += 1;
                }
                tel.add(met::ROUNDS_COMMITTED, 1);
                tel.observe(met::ROUND_LATENCY_NS, t_round.elapsed());
                report.rounds.push(CkptRoundStats {
                    round,
                    quiesce,
                    write,
                    total_image_bytes: total_bytes,
                    gids_in_flight: gids,
                    coord_msgs: msgs,
                });
                // The committed round supersedes older generations: sweep
                // beyond the retention window (best-effort; GC failure
                // must not fail the job). Generations pinned by an open
                // restart-journal epoch are exempt — a restart in flight
                // must never have its source collected out from under it.
                // Chunks only the removed rounds referenced go in the same
                // pass, which must not overlap image writes: no rank writes
                // one before this loop has started the next round.
                if let Some((store, retain)) = &ckpt_store {
                    if let Ok(gc) = store.gc(*retain) {
                        tel.add(met::STORE_GC_GENERATIONS, gc.generations.len() as u64);
                        tel.add(met::STORE_GC_CHUNKS, gc.chunks.removed);
                    }
                }
                if exit_after_ckpt {
                    exited = true;
                }
            }
            RankMsg::Ready { .. }
            | RankMsg::DrainReport { .. }
            | RankMsg::DrainRows { .. }
            | RankMsg::CkptDone { .. }
            | RankMsg::CkptFailed { .. } => {
                debug_assert!(false, "stray message outside a round: {msg:?}");
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A bare coordinator: no faults, no store, no telemetry.
    fn spawn(
        n: usize,
        exit_after_ckpt: bool,
    ) -> (Vec<CoordHandle>, std::thread::JoinHandle<CoordReport>) {
        spawn_coordinator(n, exit_after_ckpt, None, None, None, 0, None, None, None)
    }

    #[test]
    fn finishing_without_checkpoints() {
        let n = 3;
        let (handles, join) = spawn(n, false);
        let threads: Vec<_> = handles
            .into_iter()
            .map(|h| {
                std::thread::spawn(move || {
                    h.send(RankMsg::Finishing { rank: h.rank() }).unwrap();
                    assert_eq!(h.recv().unwrap(), CoordMsg::FinishAck);
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let report = join.join().unwrap();
        assert!(report.rounds.is_empty());
    }

    #[test]
    fn one_full_round_resume() {
        let n = 4;
        let (handles, join) = spawn(n, false);
        handles[0].request_checkpoint().unwrap();
        let threads: Vec<_> = handles
            .into_iter()
            .map(|h| {
                std::thread::spawn(move || {
                    // Wait for intent like a wrapper would.
                    while !h.intent() {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    h.send(RankMsg::Ready {
                        rank: h.rank(),
                        in_collective: (h.rank() % 2 == 0).then_some(42),
                    })
                    .unwrap();
                    assert_eq!(h.recv().unwrap(), CoordMsg::Go { round: 0 });
                    h.send(RankMsg::CkptDone {
                        rank: h.rank(),
                        image_bytes: 100,
                        image_crc: 0,
                        logical_bytes: 100,
                    })
                    .unwrap();
                    assert_eq!(h.recv().unwrap(), CoordMsg::Resume);
                    assert!(!h.intent(), "intent cleared after resume");
                    assert_eq!(h.round(), 1);
                    h.send(RankMsg::Finishing { rank: h.rank() }).unwrap();
                    assert_eq!(h.recv().unwrap(), CoordMsg::FinishAck);
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let report = join.join().unwrap();
        assert_eq!(report.rounds.len(), 1);
        let r = &report.rounds[0];
        assert_eq!(r.total_image_bytes, 400);
        assert_eq!(r.gids_in_flight, vec![42]);
        assert!(r.coord_msgs >= 3 * n as u64);
    }

    #[test]
    fn exit_after_ckpt_sends_exit() {
        let n = 2;
        let (handles, join) = spawn(n, true);
        handles[0].request_checkpoint().unwrap();
        let threads: Vec<_> = handles
            .into_iter()
            .map(|h| {
                std::thread::spawn(move || {
                    while !h.intent() {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    h.send(RankMsg::Ready {
                        rank: h.rank(),
                        in_collective: None,
                    })
                    .unwrap();
                    assert!(matches!(h.recv().unwrap(), CoordMsg::Go { .. }));
                    h.send(RankMsg::CkptDone {
                        rank: h.rank(),
                        image_bytes: 10,
                        image_crc: 0,
                        logical_bytes: 10,
                    })
                    .unwrap();
                    assert_eq!(h.recv().unwrap(), CoordMsg::Exit);
                    // Exiting ranks still announce Finishing so the
                    // coordinator can wind down.
                    h.send(RankMsg::Finishing { rank: h.rank() }).unwrap();
                    assert_eq!(h.recv().unwrap(), CoordMsg::FinishAck);
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let report = join.join().unwrap();
        assert_eq!(report.rounds.len(), 1);
    }

    #[test]
    fn legacy_drain_rounds_answered() {
        let n = 2;
        let (handles, join) = spawn(n, false);
        handles[0].request_checkpoint().unwrap();
        let threads: Vec<_> = handles
            .into_iter()
            .map(|h| {
                std::thread::spawn(move || {
                    while !h.intent() {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    h.send(RankMsg::Ready {
                        rank: h.rank(),
                        in_collective: None,
                    })
                    .unwrap();
                    assert!(matches!(h.recv().unwrap(), CoordMsg::Go { .. }));
                    // Round 1: unbalanced (rank 0 sent 10, nobody received).
                    h.send(RankMsg::DrainReport {
                        rank: h.rank(),
                        sent: if h.rank() == 0 { 10 } else { 0 },
                        recvd: 0,
                    })
                    .unwrap();
                    assert_eq!(
                        h.recv().unwrap(),
                        CoordMsg::DrainVerdict { balanced: false }
                    );
                    // Round 2: balanced.
                    h.send(RankMsg::DrainReport {
                        rank: h.rank(),
                        sent: if h.rank() == 0 { 10 } else { 0 },
                        recvd: if h.rank() == 1 { 10 } else { 0 },
                    })
                    .unwrap();
                    assert_eq!(h.recv().unwrap(), CoordMsg::DrainVerdict { balanced: true });
                    h.send(RankMsg::CkptDone {
                        rank: h.rank(),
                        image_bytes: 1,
                        image_crc: 0,
                        logical_bytes: 1,
                    })
                    .unwrap();
                    assert_eq!(h.recv().unwrap(), CoordMsg::Resume);
                    h.send(RankMsg::Finishing { rank: h.rank() }).unwrap();
                    assert_eq!(h.recv().unwrap(), CoordMsg::FinishAck);
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let report = join.join().unwrap();
        assert_eq!(report.rounds.len(), 1);
        // Legacy drain cost shows up in the message counter: 2 reports + 2
        // verdicts per round × 2 rounds on top of the base 3-per-rank.
        assert!(report.rounds[0].coord_msgs > 3 * n as u64);
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
    fn toposort_rows_answered_with_exact_columns() {
        let n = 2;
        let (handles, join) = spawn(n, false);
        handles[0].request_checkpoint().unwrap();
        let threads: Vec<_> = handles
            .into_iter()
            .map(|h| {
                std::thread::spawn(move || {
                    while !h.intent() {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    h.send(RankMsg::Ready {
                        rank: h.rank(),
                        in_collective: None,
                    })
                    .unwrap();
                    assert!(matches!(h.recv().unwrap(), CoordMsg::Go { .. }));
                    // Rank 0 has 10 bytes in flight to rank 1; nothing else.
                    h.send(RankMsg::DrainRows {
                        rank: h.rank(),
                        sent: if h.rank() == 0 {
                            vec![0, 10]
                        } else {
                            vec![0, 0]
                        },
                        recvd: vec![0, 0],
                    })
                    .unwrap();
                    match h.recv().unwrap() {
                        CoordMsg::DrainSchedule {
                            expected,
                            order,
                            edges,
                            cyclic,
                        } => {
                            // Each rank gets its own column of the sent
                            // matrix, and the sender precedes the receiver.
                            if h.rank() == 0 {
                                assert_eq!(expected, vec![0, 0]);
                                assert_eq!(order, 0);
                            } else {
                                assert_eq!(expected, vec![10, 0]);
                                assert_eq!(order, 1);
                            }
                            assert_eq!(edges, 1);
                            assert!(!cyclic);
                        }
                        other => panic!("expected DrainSchedule, got {other:?}"),
                    }
                    h.send(RankMsg::CkptDone {
                        rank: h.rank(),
                        image_bytes: 1,
                        image_crc: 0,
                        logical_bytes: 1,
                    })
                    .unwrap();
                    assert_eq!(h.recv().unwrap(), CoordMsg::Resume);
                    h.send(RankMsg::Finishing { rank: h.rank() }).unwrap();
                    assert_eq!(h.recv().unwrap(), CoordMsg::FinishAck);
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let report = join.join().unwrap();
        assert_eq!(report.rounds.len(), 1);
        // Topo drain costs exactly 2 extra messages per rank on top of
        // the base Ready/Go/Done/Resume four.
        assert_eq!(report.rounds[0].coord_msgs, 6 * n as u64);
    }

    #[test]
    fn commit_check_failure_is_recorded() {
        let n = 2;
        let check: CommitCheck =
            Box::new(|round| Err(format!("synthetic violation in round {round}")));
        let (handles, join) =
            spawn_coordinator(n, false, None, Some(check), None, 0, None, None, None);
        handles[0].request_checkpoint().unwrap();
        let threads: Vec<_> = handles
            .into_iter()
            .map(|h| {
                std::thread::spawn(move || {
                    while !h.intent() {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    h.send(RankMsg::Ready {
                        rank: h.rank(),
                        in_collective: None,
                    })
                    .unwrap();
                    assert!(matches!(h.recv().unwrap(), CoordMsg::Go { .. }));
                    h.send(RankMsg::CkptDone {
                        rank: h.rank(),
                        image_bytes: 1,
                        image_crc: 0,
                        logical_bytes: 1,
                    })
                    .unwrap();
                    assert_eq!(h.recv().unwrap(), CoordMsg::Resume);
                    h.send(RankMsg::Finishing { rank: h.rank() }).unwrap();
                    assert_eq!(h.recv().unwrap(), CoordMsg::FinishAck);
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let report = join.join().unwrap();
        assert_eq!(report.rounds.len(), 1);
        assert_eq!(report.invariant_violations.len(), 1);
        assert!(report.invariant_violations[0].contains("round 0"));
    }

    #[test]
    fn ckpt_failed_aborts_round_and_all_ranks_resume() {
        let n = 3;
        // Even in exit-after-checkpoint mode, a failed round must NOT
        // exit: the job resumes and may checkpoint again later.
        let (handles, join) = spawn(n, true);
        handles[0].request_checkpoint().unwrap();
        let threads: Vec<_> = handles
            .into_iter()
            .map(|h| {
                std::thread::spawn(move || {
                    while !h.intent() {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    h.send(RankMsg::Ready {
                        rank: h.rank(),
                        in_collective: None,
                    })
                    .unwrap();
                    assert!(matches!(h.recv().unwrap(), CoordMsg::Go { .. }));
                    if h.rank() == 1 {
                        h.send(RankMsg::CkptFailed {
                            rank: 1,
                            reason: "injected storage write error".into(),
                        })
                        .unwrap();
                    } else {
                        h.send(RankMsg::CkptDone {
                            rank: h.rank(),
                            image_bytes: 10,
                            image_crc: 0,
                            logical_bytes: 10,
                        })
                        .unwrap();
                    }
                    // Every rank — including the successful ones — gets
                    // AbortRound, not Exit, and resumes.
                    assert_eq!(h.recv().unwrap(), CoordMsg::AbortRound { round: 0 });
                    assert!(!h.intent(), "intent cleared after abort");
                    assert_eq!(
                        h.round(),
                        1,
                        "round counter advances past the aborted round"
                    );
                    h.send(RankMsg::Finishing { rank: h.rank() }).unwrap();
                    assert_eq!(h.recv().unwrap(), CoordMsg::FinishAck);
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let report = join.join().unwrap();
        assert!(
            report.rounds.is_empty(),
            "aborted round is not a completed round"
        );
        assert_eq!(report.aborted_rounds.len(), 1);
        assert_eq!(report.aborted_rounds[0].round, 0);
        assert_eq!(report.aborted_rounds[0].failures.len(), 1);
        assert_eq!(report.aborted_rounds[0].failures[0].0, 1);
    }

    #[test]
    fn committed_round_writes_manifest_and_gc_runs() {
        let n = 2;
        let root = std::env::temp_dir().join(format!("mana2_coord_store_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        // Pre-write the images the ranks will claim, so the manifest the
        // coordinator commits validates against real files.
        let ckpts = || store::Store::open(&root, store::StoreConfig::default());
        let mut crcs = Vec::new();
        for rank in 0..n {
            let img = splitproc::CkptImage {
                rank,
                world_size: n,
                round: 0,
                upper: vec![7; 32],
                meta: vec![1; 8],
            };
            let out = ckpts().write_image(&img).unwrap();
            crcs.push((out.bytes as u64, out.crc));
        }
        let (handles, join) = spawn_coordinator(
            n,
            false,
            None,
            None,
            Some((ckpts(), 2)),
            0,
            None,
            None,
            None,
        );
        handles[0].request_checkpoint().unwrap();
        let threads: Vec<_> = handles
            .into_iter()
            .map(|h| {
                let (bytes, crc) = crcs[h.rank()];
                std::thread::spawn(move || {
                    while !h.intent() {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    h.send(RankMsg::Ready {
                        rank: h.rank(),
                        in_collective: None,
                    })
                    .unwrap();
                    assert!(matches!(h.recv().unwrap(), CoordMsg::Go { .. }));
                    h.send(RankMsg::CkptDone {
                        rank: h.rank(),
                        image_bytes: bytes,
                        image_crc: crc,
                        logical_bytes: bytes,
                    })
                    .unwrap();
                    assert_eq!(h.recv().unwrap(), CoordMsg::Resume);
                    h.send(RankMsg::Finishing { rank: h.rank() }).unwrap();
                    assert_eq!(h.recv().unwrap(), CoordMsg::FinishAck);
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let report = join.join().unwrap();
        assert_eq!(report.rounds.len(), 1);
        // The generation is now committed and selectable.
        let sel = ckpts().select(Some(n), None).unwrap();
        assert_eq!(sel.round, 0);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn request_after_finish_is_skipped() {
        let n = 1;
        let (handles, join) = spawn(n, false);
        let h = &handles[0];
        h.send(RankMsg::Finishing { rank: 0 }).unwrap();
        assert_eq!(h.recv().unwrap(), CoordMsg::FinishAck);
        // The coordinator may already be gone: the send's result is moot.
        let _ = h.request_checkpoint();
        // Coordinator exits since all finished; request may land before or
        // after the loop ends — either way no round ran.
        let report = join.join().unwrap();
        assert!(report.rounds.is_empty());
    }
}
