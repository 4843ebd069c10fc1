//! Schedule-space exploration over the deterministic [`mpisim`] coop
//! engine.
//!
//! PR 4 made every coop interleaving a pure function of
//! `(workers, sched_seed)`; the [`mpisim::SchedulePolicy`] work turned
//! each individual scheduling decision into a first-class, replayable
//! *choice* (an index into the ready queue). This module converts that
//! determinism investment into an active interleaving-bug detector:
//!
//! 1. **Search** ([`explore`]): a bounded random walk over choice-vector
//!    *prefixes*. Every executed schedule is recorded in full; each
//!    decision after the scripted prefix becomes a branch point, and each
//!    untried ready-queue index at a branch point becomes a new frontier
//!    prefix. Replaying a prefix deterministically reproduces every
//!    decision before the deviation, so the search walks a tree of real,
//!    reproducible executions.
//! 2. **Pruning**: partial-order-reduction-*style*, not a model checker.
//!    Exact duplicate prefixes are never queued twice; a deviation whose
//!    `(ready set, chosen rank)` context previously produced an
//!    already-seen interleaving fingerprint is treated as sterile and
//!    skipped; runs whose fingerprint was already visited are not
//!    expanded. The fingerprint is the *full* trace-event rings (schedule
//!    sensitive), while bug detection uses the schedule-invariant oracle
//!    stack: native-reference transparency, protocol round counts, and
//!    the [`crate::determinism_token`] / `schedule_invariant()` keys.
//!    Pruning can skip real interleavings — it trades exhaustiveness for
//!    throughput, which is the right trade for a bug hunter.
//! 3. **Minimization** ([`minimize_choices`]): delta debugging (ddmin)
//!    over the failing choice vector, followed by prefix truncation, so
//!    the repro is prefix-minimal: dropping its last choice passes.
//! 4. **Repro**: every failure prints the one-line
//!    `CHAOS_CASE='schedule … choices=<hex>'` command
//!    ([`crate::Scenario::repro`]) that replays the exact interleaving
//!    through the `chaos_suite::case_replay` test.

use crate::legs::{ensure, flight_dump, leg, run_scenario, Leg, Scratch};
use crate::{case_token_rings, kernel, Scenario, WlValue, Workload};
use mana_core::obs;
use mana_core::DrainMode;
use mpisim::{
    splitmix64, EngineKind, Fnv1a, SchedDecision, ScheduleDivergence, SchedulePolicy,
    ScheduleScript, World, WorldCfg,
};
use std::collections::HashSet;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};
use workloads::Launch;

// ---- choice-vector codecs ---------------------------------------------------

/// Encode a choice vector as the hex string of a spec's `choices=` field:
/// two hex digits per choice. Ready queues are tiny (≤ world size), so a byte per
/// decision is plenty; choices above 255 are a usage error.
pub fn encode_choices(choices: &[u32]) -> String {
    let mut s = String::with_capacity(choices.len() * 2);
    for &c in choices {
        assert!(c <= 0xFF, "choice {c} exceeds one byte");
        s.push_str(&format!("{c:02x}"));
    }
    s
}

/// Decode a hex choice string back into a choice vector.
pub fn decode_choices(hex: &str) -> Result<Vec<u32>, String> {
    let hex = hex.trim();
    if !hex.len().is_multiple_of(2) {
        return Err(format!(
            "a choice string must have an even number of hex digits, got {}",
            hex.len()
        ));
    }
    (0..hex.len())
        .step_by(2)
        .map(|i| {
            u32::from_str_radix(&hex[i..i + 2], 16)
                .map_err(|e| format!("bad hex byte {:?}: {e}", &hex[i..i + 2]))
        })
        .collect()
}

// ---- target description -----------------------------------------------------

/// Extra failure oracle run over each completed schedule (after the
/// built-in transparency/protocol checks pass). Tests inject
/// ordering-sensitive assertions here.
pub type Oracle = Arc<dyn Fn(&ScheduleRun) -> Result<(), String> + Send + Sync>;

/// One workload shape the explorer drives schedules through: a resume-mode
/// checkpoint round (rank 0 requests at a fixed step) with the native
/// reference cached up front.
pub struct ExploreTarget {
    /// What every schedule of this target runs as (`choices` empty). Its
    /// seed is both the coop scheduler's `sched_seed` (the seeded
    /// completion beyond a scripted prefix) and the search's randomness;
    /// exploration wants `workers` = 1 (fully deterministic
    /// interleavings), higher counts still replay prefixes best-effort.
    pub shape: ScheduleFixture,
    expected: Vec<WlValue>,
    oracle: Option<Oracle>,
}

impl ExploreTarget {
    /// [`ScheduleFixture::target`] of the shape with these fields.
    pub fn new(
        seed: u64,
        ranks: usize,
        workers: usize,
        workload: Workload,
        drain: DrainMode,
    ) -> Result<ExploreTarget, String> {
        let choices = Vec::new();
        ScheduleFixture {
            seed,
            ranks,
            workers,
            workload,
            drain,
            choices,
        }
        .target()
    }

    /// Attach an extra failure oracle (ordering-sensitive assertions).
    pub fn with_oracle(mut self, oracle: Oracle) -> Self {
        self.oracle = Some(oracle);
        self
    }

    /// This target with `choices`, as the fixture (and scenario) that
    /// replays it.
    pub fn fixture(&self, choices: &[u32]) -> ScheduleFixture {
        ScheduleFixture {
            choices: choices.to_vec(),
            ..self.shape.clone()
        }
    }

    /// The one-line command that replays `choices` against this target.
    pub fn repro_command(&self, choices: &[u32]) -> String {
        Scenario::Schedule(self.fixture(choices)).repro()
    }

    /// One resume-mode checkpoint round (rank 0 requests it at a fixed
    /// step) under `wc`, checkpointing into `dir`.
    fn launch(
        &self,
        wc: WorldCfg,
        dir: &Path,
        sink: &Arc<obs::TraceSink>,
    ) -> Result<Leg<WlValue>, String> {
        let shape = &self.shape;
        let at = match shape.workload {
            Workload::Gromacs => 3,
            Workload::Cg => 5,
        };
        let rt = crate::runtime(shape.ranks, crate::mana_cfg(shape.drain, dir, sink), wc);
        let md = kernel(shape.workload, true, Some((at, 0)));
        leg("run", &rt, Launch::Fresh, &md)
    }

    /// Execute one schedule: replay `choices` as the decision prefix (the
    /// seeded policy completes the run beyond it) and collect everything
    /// the explorer needs — the full decision log, interleaving
    /// fingerprint, schedule-invariant equivalence key, and the verdict of
    /// the oracle stack.
    pub fn run_schedule(&self, choices: &[u32]) -> ScheduleRun {
        let sink = obs::TraceSink::wall(self.shape.ranks, 16 * 1024);
        let scratch = Scratch::new("schedule", self.shape.seed);
        self.run_in(&scratch.0, choices, &sink)
    }

    fn run_in(&self, dir: &Path, choices: &[u32], sink: &Arc<obs::TraceSink>) -> ScheduleRun {
        let script = ScheduleScript::new(choices.to_vec());
        let wc = world_cfg(
            self.shape.engine(),
            SchedulePolicy::Replay(Arc::clone(&script)),
        );
        self.judge(choices, self.launch(wc, dir, sink), sink, &script)
    }

    /// Print one search failure to stderr — error, choice vectors, the
    /// repro line of its shortest known reproduction — and dump that
    /// schedule's flight recorder for the CI artifact (best effort: a
    /// failed dump must never mask the failure).
    pub fn report_failure(&self, f: &ExploreFailure) {
        eprintln!("FAIL: {}", f.error);
        eprintln!("  choices: {}", encode_choices(&f.choices));
        if let Some(m) = &f.minimized {
            let hex = encode_choices(&m.choices);
            eprintln!("  minimized ({} tests): {hex}", m.tests);
        }
        eprintln!("  repro: {}", self.repro_command(f.repro_choices()));
        let sink = obs::TraceSink::wall(self.shape.ranks, 16 * 1024);
        let scratch = Scratch::new("schedule", self.shape.seed);
        self.run_in(&scratch.0, f.repro_choices(), &sink);
        let scenario = Scenario::Schedule(self.fixture(f.repro_choices()));
        if let Some(p) = flight_dump(&scenario, &sink, "fail") {
            eprintln!("  trace dump: {}", p.display());
        }
    }

    /// The same workload with a run token per rank (`workers = ranks`: the
    /// gate never contended, the kernel preempting the ranks) — the
    /// ungated leg of the fixture-replay equivalence test.
    pub fn run_ungated_reference(&self) -> ScheduleRun {
        let sink = obs::TraceSink::wall(self.shape.ranks, 16 * 1024);
        let scratch = Scratch::new("schedule", self.shape.seed);
        let ungated = ScheduleFixture {
            workers: self.shape.ranks,
            ..self.shape.clone()
        };
        let wc = world_cfg(ungated.engine(), SchedulePolicy::default());
        let result = self.launch(wc, &scratch.0, &sink);
        // The seeded policy logs no decisions, so judge against an empty
        // script: decision log and divergence stay empty.
        self.judge(&[], result, &sink, &ScheduleScript::new(Vec::new()))
    }

    fn judge(
        &self,
        scripted: &[u32],
        result: Result<Leg<WlValue>, String>,
        sink: &Arc<obs::TraceSink>,
        script: &ScheduleScript,
    ) -> ScheduleRun {
        let mut rounds = 0;
        let mut invariant = Vec::new();
        let verdict = result.and_then(|run| {
            rounds = run.report.coord.rounds.len();
            let stats = run.report.rank_stats.iter();
            invariant = stats.map(|s| s.schedule_invariant().to_vec()).collect();
            run.expect_finished()?;
            ensure!(
                rounds == 1,
                "protocol: expected exactly 1 committed checkpoint round, got {rounds}"
            );
            run.expect_values(&self.expected)
        });
        let error = verdict.err();
        let det_rings = case_token_rings(sink, self.shape.ranks);
        let fingerprint = of_rings(&interleaving_rings(sink, self.shape.ranks)).finish();
        let equiv_key = {
            let mut h = of_rings(&det_rings);
            for rank in &invariant {
                for (name, v) in rank {
                    field(&mut h, name.as_bytes());
                    field(&mut h, &v.to_le_bytes());
                }
            }
            h.finish()
        };
        let mut run = ScheduleRun {
            scripted: scripted.to_vec(),
            taken: script.recorded_choices(),
            decisions: script.recorded(),
            divergence: script.divergence(),
            det_rings,
            invariant,
            fingerprint,
            equiv_key,
            rounds,
            error,
        };
        if run.error.is_none() {
            if let Some(oracle) = &self.oracle {
                if let Err(e) = oracle(&run) {
                    run.error = Some(format!("oracle: {e}"));
                }
            }
        }
        run
    }
}

/// The explorer's world: a default world (never the environment's — a
/// schedule is only replayable under the engine it names) with a watchdog.
fn world_cfg(engine: EngineKind, schedule: SchedulePolicy) -> WorldCfg {
    WorldCfg {
        watchdog: Some(Duration::from_secs(60)),
        engine,
        schedule,
        ..WorldCfg::default()
    }
}

/// Replay one fixture under the built-in oracle stack (the schedule family
/// of [`Scenario::check`]): a one-line summary, or the failure report.
pub fn check_schedule(fixture: &ScheduleFixture) -> Result<String, String> {
    let sink = obs::TraceSink::wall(fixture.ranks, 16 * 1024);
    let scenario = Scenario::Schedule(fixture.clone());
    let run = run_scenario(&scenario, &sink, true, |dir| {
        let run = fixture.target()?.run_in(dir, &fixture.choices, &sink);
        match &run.error {
            Some(e) => Err(e.clone()),
            None => Ok(run),
        }
    });
    let run = run.map_err(|f| f.to_string())?;
    let mut summary = format!(
        "{} decisions, fingerprint {:016x}",
        run.decisions.len(),
        run.fingerprint
    );
    if let Some(d) = &run.divergence {
        summary.push_str(&format!(
            " (replay diverged at decision {}: choice {} vs ready set of {})",
            d.index, d.choice, d.ready_len
        ));
    }
    Ok(summary)
}

// ---- one executed schedule --------------------------------------------------

/// Everything one executed schedule produced.
#[derive(Debug, Clone)]
pub struct ScheduleRun {
    /// The choice prefix this run was scripted with.
    pub scripted: Vec<u32>,
    /// The full choice vector the run actually took (scripted prefix plus
    /// seeded completion) — itself a complete replayable schedule.
    pub taken: Vec<u32>,
    /// The full decision log: ready set and chosen rank per decision.
    pub decisions: Vec<SchedDecision>,
    /// First script divergence, if the scripted prefix could not be
    /// followed (an out-of-range choice).
    pub divergence: Option<ScheduleDivergence>,
    /// Determinism-token rings (schedule-invariant projection) — the
    /// cross-run/cross-gating comparison key.
    pub det_rings: Vec<(i32, Vec<String>)>,
    /// Per-rank schedule-invariant stats totals.
    pub invariant: Vec<Vec<(&'static str, u64)>>,
    /// Hash of the *full* trace rings — the interleaving identity.
    /// Distinct fingerprints ⇒ observably different interleavings.
    pub fingerprint: u64,
    /// Hash of `det_rings` + `invariant` — the equivalence-class key the
    /// pruner deduplicates on.
    pub equiv_key: u64,
    /// Checkpoint rounds committed.
    pub rounds: usize,
    /// What went wrong, if anything (stage-prefixed).
    pub error: Option<String>,
}

impl ScheduleRun {
    /// Did the oracle stack reject this schedule?
    pub fn failed(&self) -> bool {
        self.error.is_some()
    }
}

/// Project one trace event to its interleaving token. Unlike
/// [`crate::determinism_token`] — which *excludes* everything that
/// legitimately varies with scheduling — this keeps the schedule-sensitive
/// payload (net traffic order, drain sweeps and captures, intent landing
/// positions) and drops only wall-clock noise (timestamps, per-stage store
/// timings) and the global `seq` counter (an artifact of ring merge
/// order). Two runs with equal token rings made the same observable moves
/// in the same per-actor order.
pub fn interleaving_token(ev: &obs::TraceEvent) -> String {
    use obs::EventKind;
    let mut s = format!("{}:{}", ev.round, ev.kind.name());
    match &ev.kind {
        EventKind::Begin(p) | EventKind::End(p) => {
            s.push_str(&format!(":{}", p.name()));
            if let obs::Phase::Drain { sweep } = p {
                s.push_str(&format!(":{sweep}"));
            }
        }
        EventKind::BarrierArrive { gid, coll_seq } => s.push_str(&format!(":{gid}:{coll_seq}")),
        EventKind::StoreAttempt { attempt, ok, .. } => s.push_str(&format!(":{attempt}:{ok}")),
        EventKind::StoreWrite {
            bytes,
            retries,
            crc,
        } => s.push_str(&format!(":{bytes}:{retries}:{crc}")),
        EventKind::StoreFault { fault } => s.push_str(&format!(":{}", fault.name())),
        EventKind::FlushRank { rank } => s.push_str(&format!(":{rank}")),
        EventKind::StoreGcFailed => {}
        EventKind::NetSend { dst, bytes, user } => s.push_str(&format!(":{dst}:{bytes}:{user}")),
        EventKind::NetMatch { src, bytes } => s.push_str(&format!(":{src}:{bytes}")),
        EventKind::NetHold { src, reorder } => s.push_str(&format!(":{src}:{reorder}")),
        EventKind::DrainCapture { src, bytes } => s.push_str(&format!(":{src}:{bytes}")),
        EventKind::DrainSchedule {
            order,
            edges,
            cyclic,
        } => s.push_str(&format!(":{order}:{edges}:{cyclic}")),
        EventKind::FaultFired { fault } => s.push_str(&format!(":{}", fault.name())),
        EventKind::RestartSkip { gen, code } => s.push_str(&format!(":{gen}:{}", code.name())),
        EventKind::JournalAppend {
            epoch, step, rank, ..
        } => s.push_str(&format!(":{epoch}:{}:{rank}", step.name())),
    }
    s
}

/// Every actor's full interleaving-token sequence, coordinator first.
pub fn interleaving_rings(sink: &obs::TraceSink, ranks: usize) -> Vec<(i32, Vec<String>)> {
    crate::token_rings(sink, ranks, |ev| Some(interleaving_token(ev)))
}

/// Feed one field to `h`, closed by a `0xFF` byte so ("ab","c") and
/// ("a","bc") hash apart.
fn field(h: &mut Fnv1a, bytes: &[u8]) {
    h.write(bytes).write(&[0xFF]);
}

/// The hash of every actor's token ring, fed field by field.
fn of_rings(rings: &[(i32, Vec<String>)]) -> Fnv1a {
    let mut h = Fnv1a::default();
    for (actor, ring) in rings {
        field(&mut h, &(*actor as u64).to_le_bytes());
        for t in ring {
            field(&mut h, t.as_bytes());
        }
    }
    h
}

/// The sterile-context key: a deviation is `(ready set, chosen rank)`;
/// once one such deviation lands on an already-seen fingerprint, trying
/// the same choice from the same enabled set elsewhere is deprioritized.
fn sterile_key(ready: &[usize], chosen: usize) -> u64 {
    let mut sorted = ready.to_vec();
    sorted.sort_unstable();
    let mut h = Fnv1a::default();
    for r in sorted {
        field(&mut h, &(r as u64).to_le_bytes());
    }
    field(&mut h, &(0xDEAD_0000 ^ chosen as u64).to_le_bytes());
    h.finish()
}

// ---- minimization -----------------------------------------------------------

/// Delta-debugging (ddmin) minimization of a failing choice vector,
/// followed by prefix truncation. `still_fails` must hold for the input;
/// the result still fails and is prefix-minimal — dropping its last
/// choice (if any) passes.
///
/// Pure in the predicate: unit tests drive it with synthetic predicates,
/// the explorer drives it with real schedule executions.
pub fn minimize_choices(choices: &[u32], mut still_fails: impl FnMut(&[u32]) -> bool) -> Vec<u32> {
    let mut cur = choices.to_vec();
    // ddmin: try removing chunks at increasing granularity.
    let mut n = 2usize;
    while cur.len() >= 2 {
        let chunk = cur.len().div_ceil(n);
        let mut reduced = None;
        for start in (0..cur.len()).step_by(chunk) {
            let end = (start + chunk).min(cur.len());
            let mut candidate = Vec::with_capacity(cur.len() - (end - start));
            candidate.extend_from_slice(&cur[..start]);
            candidate.extend_from_slice(&cur[end..]);
            if still_fails(&candidate) {
                reduced = Some(candidate);
                break;
            }
        }
        match reduced {
            Some(c) => {
                cur = c;
                n = 2.max(n.saturating_sub(1));
            }
            None if n < cur.len() => n = (n * 2).min(cur.len()),
            None => break,
        }
    }
    // Prefix truncation: the tail may be dead weight ddmin's chunking
    // missed; pop until dropping the last choice would pass.
    while !cur.is_empty() {
        let shorter = &cur[..cur.len() - 1];
        if still_fails(shorter) {
            cur.pop();
        } else {
            break;
        }
    }
    cur
}

/// A minimized failing schedule.
#[derive(Debug, Clone)]
pub struct MinimizedSchedule {
    /// The minimal failing choice vector.
    pub choices: Vec<u32>,
    /// Error of the minimal reproduction.
    pub error: String,
    /// Schedule executions the minimizer spent.
    pub tests: u64,
}

/// Minimize a failing choice vector against a live target, capped at
/// `max_tests` schedule executions (each test is a full run).
pub fn minimize_failing_schedule(
    target: &ExploreTarget,
    choices: &[u32],
    max_tests: u64,
) -> MinimizedSchedule {
    let mut tests = 1u64;
    let mut last_error = match target.run_schedule(choices).error {
        Some(e) => e,
        None => {
            // Not reproducible — return as-is rather than minimize noise.
            return MinimizedSchedule {
                choices: choices.to_vec(),
                error: "minimizer: failure did not reproduce".into(),
                tests,
            };
        }
    };
    let minimal = minimize_choices(choices, |c| {
        if tests >= max_tests {
            return false; // out of budget: treat as passing, stop shrinking
        }
        tests += 1;
        let r = target.run_schedule(c);
        if let Some(e) = &r.error {
            last_error = e.clone();
        }
        r.failed()
    });
    MinimizedSchedule {
        choices: minimal,
        error: last_error,
        tests,
    }
}

// ---- the explorer -----------------------------------------------------------

/// Search budget and shape.
#[derive(Debug, Clone)]
pub struct ExploreCfg {
    /// Wall-clock budget for the search loop.
    pub budget: Duration,
    /// Hard cap on schedules executed (0 = budget-only).
    pub max_schedules: u64,
    /// Deepest decision index deviations are generated at. Checkpoint
    /// windows of the explore workloads close well within this many
    /// decisions; deeper deviations mostly permute the epilogue.
    pub max_depth: usize,
    /// Stop at the first failing schedule (CI wants the artifact fast);
    /// `false` keeps hunting and collects every distinct failure.
    pub stop_on_first_failure: bool,
    /// Minimize failing choice vectors before reporting.
    pub minimize: bool,
    /// Cap on minimizer executions per failure.
    pub minimize_tests: u64,
    /// Enable the sterile-context heuristic. It multiplies throughput on
    /// redundant schedule spaces but can starve a small search — a context
    /// is poisoned globally after one equivalent outcome anywhere.
    pub sterile_pruning: bool,
}

impl Default for ExploreCfg {
    fn default() -> Self {
        ExploreCfg {
            budget: Duration::from_secs(10),
            max_schedules: 0,
            max_depth: 24,
            stop_on_first_failure: true,
            minimize: true,
            minimize_tests: 200,
            sterile_pruning: true,
        }
    }
}

/// Pruning counters — the honesty ledger of a non-exhaustive search.
#[derive(Debug, Clone, Copy, Default)]
pub struct PruneStats {
    /// Deviation candidates enumerated from executed schedules.
    pub candidates: u64,
    /// Candidates dropped: exact prefix already queued or executed.
    pub pruned_duplicate: u64,
    /// Candidates dropped: `(ready set, chosen rank)` context previously
    /// led to an already-seen fingerprint.
    pub pruned_sterile: u64,
    /// Candidates dropped: frontier at capacity.
    pub frontier_dropped: u64,
    /// Executed schedules whose fingerprint was already visited (run but
    /// not expanded).
    pub equivalent_runs: u64,
}

impl PruneStats {
    /// Fraction of enumerated candidates that were pruned away.
    pub fn ratio(&self) -> f64 {
        if self.candidates == 0 {
            return 0.0;
        }
        (self.pruned_duplicate + self.pruned_sterile + self.frontier_dropped) as f64
            / self.candidates as f64
    }
}

/// One failing schedule the explorer found.
#[derive(Debug, Clone)]
pub struct ExploreFailure {
    /// The failing scripted choice prefix.
    pub choices: Vec<u32>,
    /// What went wrong.
    pub error: String,
    /// The minimized repro, when minimization ran.
    pub minimized: Option<MinimizedSchedule>,
}

impl ExploreFailure {
    /// The shortest choice vector known to reproduce this failure.
    pub fn repro_choices(&self) -> &[u32] {
        match &self.minimized {
            Some(m) => &m.choices,
            None => &self.choices,
        }
    }
}

/// What a search visited and found.
#[derive(Debug)]
pub struct ExploreReport {
    /// The target's shape (its seed also drove the search's randomness).
    pub shape: ScheduleFixture,
    /// Schedules executed.
    pub schedules_run: u64,
    /// Distinct interleaving fingerprints visited.
    pub unique_interleavings: u64,
    /// Distinct schedule-invariant equivalence classes visited (should
    /// stay 1 while no bug is found — that *is* the determinism claim).
    pub unique_equiv_classes: u64,
    /// Replays that could not follow their scripted prefix.
    pub replay_divergences: u64,
    /// Longest decision log seen.
    pub max_decisions_seen: usize,
    /// Pruning ledger.
    pub prune: PruneStats,
    /// Failures found (at most one when `stop_on_first_failure`).
    pub failures: Vec<ExploreFailure>,
    /// Non-empty scripted prefixes whose runs landed on a fingerprint not
    /// seen before (first [`CORPUS_CAP`], in discovery order) — the raw
    /// material of the adversarial-schedule regression corpus.
    pub distinct_prefixes: Vec<Vec<u32>>,
    /// Search wall time.
    pub elapsed: Duration,
}

impl ExploreReport {
    /// Schedules executed per wall second.
    pub fn schedules_per_sec(&self) -> f64 {
        let s = self.elapsed.as_secs_f64();
        if s <= 0.0 {
            0.0
        } else {
            self.schedules_run as f64 / s
        }
    }

    /// One-line human summary.
    pub fn summary(&self) -> String {
        let shape = &self.shape;
        format!(
            "explore seed={} {}x{} {}/{}: {} schedules ({:.1}/s), {} unique interleavings, \
             {} equiv classes, prune ratio {:.2}, {} failure(s)",
            shape.seed,
            shape.ranks,
            shape.workers,
            shape.workload,
            shape.drain.name(),
            self.schedules_run,
            self.schedules_per_sec(),
            self.unique_interleavings,
            self.unique_equiv_classes,
            self.prune.ratio(),
            self.failures.len()
        )
    }

    /// The JSON artifact (hand-rolled like every artifact in this repo).
    pub fn to_json(&self) -> String {
        let shape = &self.shape;
        let mut bugs = String::from("[");
        for (i, f) in self.failures.iter().enumerate() {
            if i > 0 {
                bugs.push(',');
            }
            let (min_hex, min_tests) = match &f.minimized {
                Some(m) => (encode_choices(&m.choices), m.tests),
                None => (String::new(), 0),
            };
            let repro = Scenario::Schedule(ScheduleFixture {
                choices: f.repro_choices().to_vec(),
                ..shape.clone()
            });
            bugs.push_str(&format!(
                "{{\"error\":\"{}\",\"choices\":\"{}\",\"minimized\":\"{}\",\
                 \"minimize_tests\":{},\"repro\":\"{}\"}}",
                obs::json::escape(&f.error),
                encode_choices(&f.choices),
                min_hex,
                min_tests,
                obs::json::escape(&repro.repro()),
            ));
        }
        bugs.push(']');
        format!(
            "{{\n  \"experiment\": \"explore\",\n  \"seed\": {},\n  \"ranks\": {},\n  \
             \"workers\": {},\n  \"workload\": \"{}\",\n  \"drain\": \"{}\",\n  \
             \"elapsed_s\": {:.3},\n  \"schedules_run\": {},\n  \"schedules_per_sec\": {:.2},\n  \
             \"unique_interleavings\": {},\n  \"unique_equiv_classes\": {},\n  \
             \"replay_divergences\": {},\n  \"max_decisions_seen\": {},\n  \
             \"pruning\": {{\"candidates\": {}, \"pruned_duplicate\": {}, \
             \"pruned_sterile\": {}, \"frontier_dropped\": {}, \"equivalent_runs\": {}, \
             \"ratio\": {:.4}}},\n  \"bugs_found\": {},\n  \"bugs\": {}\n}}\n",
            shape.seed,
            shape.ranks,
            shape.workers,
            shape.workload,
            shape.drain.name(),
            self.elapsed.as_secs_f64(),
            self.schedules_run,
            self.schedules_per_sec(),
            self.unique_interleavings,
            self.unique_equiv_classes,
            self.replay_divergences,
            self.max_decisions_seen,
            self.prune.candidates,
            self.prune.pruned_duplicate,
            self.prune.pruned_sterile,
            self.prune.frontier_dropped,
            self.prune.equivalent_runs,
            self.prune.ratio(),
            self.failures.len(),
            bugs,
        )
    }
}

const MAX_FRONTIER: usize = 8192;

/// Cap on [`ExploreReport::distinct_prefixes`].
pub const CORPUS_CAP: usize = 64;

/// Bounded random-walk search over choice-vector prefixes.
///
/// Starts from the empty prefix (the pure seeded schedule), executes a
/// random frontier prefix each step, folds the run into the fingerprint /
/// equivalence-class sets, and expands every untried ready-queue index at
/// every decision past the scripted prefix (up to `max_depth`) into new
/// frontier prefixes. See the module docs for the pruning rules.
pub fn explore(target: &ExploreTarget, cfg: &ExploreCfg) -> ExploreReport {
    let start = Instant::now();
    let mut rng = splitmix64(target.shape.seed ^ 0xE590_12D7_33AA_41C6);
    let mut frontier: Vec<Vec<u32>> = vec![Vec::new()];
    let mut seen_prefix: HashSet<Vec<u32>> = HashSet::new();
    seen_prefix.insert(Vec::new());
    let mut seen_fp: HashSet<u64> = HashSet::new();
    let mut seen_equiv: HashSet<u64> = HashSet::new();
    let mut sterile: HashSet<u64> = HashSet::new();
    let mut prune = PruneStats::default();
    let mut failures: Vec<ExploreFailure> = Vec::new();
    let mut seen_errors: HashSet<String> = HashSet::new();
    let mut schedules_run = 0u64;
    let mut replay_divergences = 0u64;
    let mut max_decisions_seen = 0usize;
    let mut distinct_prefixes: Vec<Vec<u32>> = Vec::new();

    while !frontier.is_empty()
        && start.elapsed() < cfg.budget
        && (cfg.max_schedules == 0 || schedules_run < cfg.max_schedules)
    {
        rng = splitmix64(rng);
        let pick = (rng % frontier.len() as u64) as usize;
        let prefix = frontier.swap_remove(pick);
        let run = target.run_schedule(&prefix);
        schedules_run += 1;
        max_decisions_seen = max_decisions_seen.max(run.decisions.len());
        if run.divergence.is_some() {
            replay_divergences += 1;
        }
        if let Some(err) = &run.error {
            if seen_errors.insert(err.clone()) {
                let minimized = if cfg.minimize {
                    Some(minimize_failing_schedule(
                        target,
                        &run.scripted,
                        cfg.minimize_tests,
                    ))
                } else {
                    None
                };
                failures.push(ExploreFailure {
                    choices: run.scripted.clone(),
                    error: err.clone(),
                    minimized,
                });
            }
            if cfg.stop_on_first_failure {
                break;
            }
            continue; // don't expand failing schedules
        }
        seen_equiv.insert(run.equiv_key);
        if seen_fp.insert(run.fingerprint) {
            if !prefix.is_empty() && distinct_prefixes.len() < CORPUS_CAP {
                distinct_prefixes.push(prefix.clone());
            }
        } else {
            prune.equivalent_runs += 1;
            // The deviation that produced this run taught us nothing new:
            // remember its context and deprioritize it elsewhere.
            if let Some(last) = prefix.len().checked_sub(1) {
                if let Some(d) = run.decisions.get(last) {
                    sterile.insert(sterile_key(&d.ready, d.chosen_rank));
                }
            }
            continue; // an already-seen interleaving expands to already-seen children
        }
        // Expand: every untried choice at every decision past the prefix.
        let from = prefix.len();
        let to = run.decisions.len().min(cfg.max_depth);
        for k in from..to {
            let d = &run.decisions[k];
            for alt in 0..d.ready.len() as u32 {
                if alt == d.chosen_idx {
                    continue;
                }
                prune.candidates += 1;
                if cfg.sterile_pruning
                    && sterile.contains(&sterile_key(&d.ready, d.ready[alt as usize]))
                {
                    prune.pruned_sterile += 1;
                    continue;
                }
                let mut child = Vec::with_capacity(k + 1);
                child.extend_from_slice(&run.taken[..k]);
                child.push(alt);
                if seen_prefix.contains(&child) {
                    prune.pruned_duplicate += 1;
                    continue;
                }
                if frontier.len() >= MAX_FRONTIER {
                    prune.frontier_dropped += 1;
                    continue;
                }
                seen_prefix.insert(child.clone());
                frontier.push(child);
            }
        }
    }

    ExploreReport {
        shape: target.shape.clone(),
        schedules_run,
        unique_interleavings: seen_fp.len() as u64,
        unique_equiv_classes: seen_equiv.len() as u64,
        replay_divergences,
        max_decisions_seen,
        prune,
        failures,
        distinct_prefixes,
        elapsed: start.elapsed(),
    }
}

// ---- fixture corpus ---------------------------------------------------------

/// One explicit coop schedule of a checkpoint round: the shape of the run
/// and the choice prefix that drives it. Spelled, in the corpus and in
/// every repro line, as its `schedule seed=… ranks=… drain=… workers=…
/// workload=… choices=…` [`Scenario`] spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduleFixture {
    /// Scheduler seed.
    pub seed: u64,
    /// World size.
    pub ranks: usize,
    /// Coop worker tokens.
    pub workers: usize,
    /// Application kernel.
    pub workload: Workload,
    /// Drain mode.
    pub drain: DrainMode,
    /// The adversarial choice prefix.
    pub choices: Vec<u32>,
}

impl ScheduleFixture {
    /// Build the live target this fixture replays against, running the
    /// fault-free native reference (default engine, no checkpoint) once to
    /// cache the expected results.
    pub fn target(&self) -> Result<ExploreTarget, String> {
        if !(1..=8).contains(&self.ranks) {
            return Err(format!("ranks must be 1..=8, got {}", self.ranks));
        }
        if self.workers == 0 {
            return Err("workers must be >= 1".into());
        }
        let wc = world_cfg(WorldCfg::default().engine, SchedulePolicy::default());
        let md = kernel(self.workload, true, None);
        let expected = workloads::native(&World::new(self.ranks, wc), &md)
            .map_err(|e| format!("native reference: {e}"))?;
        Ok(ExploreTarget {
            shape: ScheduleFixture {
                choices: Vec::new(),
                ..self.clone()
            },
            expected,
            oracle: None,
        })
    }
}

/// Load a corpus file: one `schedule …` spec per line (`#` comments and
/// blank lines skipped). A line that is not a schedule spec is an error.
pub fn load_fixtures(path: &Path) -> Result<Vec<ScheduleFixture>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let lines = text.lines().enumerate();
    let specs = lines.filter(|(_, l)| !l.trim().is_empty() && !l.trim().starts_with('#'));
    specs
        .map(|(i, line)| match line.parse() {
            Ok(Scenario::Schedule(fx)) => Ok(fx),
            Ok(other) => Err(format!("line {}: not a schedule spec: {other}", i + 1)),
            Err(e) => Err(format!("line {}: {e}", i + 1)),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn choice_codec_round_trips() {
        for v in [vec![], vec![0], vec![1, 2, 3], vec![255, 0, 17]] {
            assert_eq!(decode_choices(&encode_choices(&v)).unwrap(), v);
        }
        assert!(decode_choices("abc").is_err()); // odd length
        assert!(decode_choices("zz").is_err()); // bad digit
        assert_eq!(decode_choices("  0102 ").unwrap(), vec![1, 2]);
    }

    #[test]
    fn minimize_is_prefix_minimal_on_synthetic_predicates() {
        // Fails iff the vector contains 7 followed (not necessarily
        // adjacently) by 3 — minimal failing vector is [7, 3].
        let pred = |c: &[u32]| {
            let p7 = c.iter().position(|&x| x == 7);
            match p7 {
                Some(i) => c[i..].contains(&3),
                None => false,
            }
        };
        let noisy = vec![1, 7, 9, 9, 3, 4, 5];
        assert!(pred(&noisy));
        let min = minimize_choices(&noisy, |c| pred(c));
        assert_eq!(min, vec![7, 3]);
        assert!(pred(&min));
        assert!(!pred(&min[..min.len() - 1])); // prefix-minimal

        // Fails iff length >= 4: minimization keeps some 4 elements and
        // dropping the last passes.
        let min2 = minimize_choices(&[9, 9, 9, 9, 9, 9, 9], |c| c.len() >= 4);
        assert_eq!(min2.len(), 4);

        // Unshrinkable single-element failure survives.
        let min3 = minimize_choices(&[5], |c| c.contains(&5));
        assert_eq!(min3, vec![5]);
    }

    #[test]
    fn prune_ratio_arithmetic() {
        let mut p = PruneStats::default();
        assert_eq!(p.ratio(), 0.0);
        p.candidates = 10;
        p.pruned_duplicate = 2;
        p.pruned_sterile = 3;
        assert!((p.ratio() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn fnv_separates_field_boundaries() {
        let mut a = Fnv1a::default();
        field(&mut a, b"ab");
        field(&mut a, b"c");
        let mut b = Fnv1a::default();
        field(&mut b, b"a");
        field(&mut b, b"bc");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn sterile_key_ignores_ready_order() {
        assert_eq!(sterile_key(&[2, 0, 3], 3), sterile_key(&[0, 2, 3], 3));
        assert_ne!(sterile_key(&[0, 2, 3], 3), sterile_key(&[0, 2, 3], 2));
    }

    #[test]
    fn json_escape_handles_quotes_and_controls() {
        assert_eq!(obs::json::escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(obs::json::escape("\u{1}"), "\\u0001");
    }
}
