//! The vocabulary every chaos family is written in: run a [`leg`], then
//! state what it must have done in one stage-prefixed `expect_*` line —
//! inside [`run_scenario`], which gives the legs a scratch directory and
//! turns a failure into a [`CaseFailure`] with its flight dump attached.

use crate::{env, Knobs, Scenario};
use mana_core::{obs, AppOutcome, ManaRuntime, RunReport};
use std::fmt::{self, Debug};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use workloads::{under_mana, Kernel, Launch};

/// Return `Err(format!(…))` from the enclosing leg function unless `$ok`.
macro_rules! ensure {
    ($ok:expr, $($msg:tt)+) => {
        if !$ok {
            return Err(format!($($msg)+));
        }
    };
}
pub(crate) use ensure;

/// One completed run of a scenario's kernel, named for failure messages.
#[derive(Debug)]
pub struct Leg<T> {
    /// Stage name prefixed to every failure this leg reports.
    pub stage: String,
    /// What the run produced.
    pub report: RunReport<T>,
}

/// Run `k` under `rt` as the leg `stage`; a runtime error is the leg's
/// first possible failure.
pub fn leg<K: Kernel>(
    stage: impl Into<String>,
    rt: &ManaRuntime,
    how: Launch<'_>,
    k: &K,
) -> Result<Leg<K::Out>, String> {
    let stage = stage.into();
    match under_mana(rt, how, k) {
        Ok(report) => Ok(Leg { stage, report }),
        Err(e) => Err(format!("{stage}: {e}")),
    }
}

impl<T: PartialEq + Debug> Leg<T> {
    /// Every rank ran to completion.
    pub fn expect_finished(&self) -> Result<(), String> {
        let (stage, outcomes) = (&self.stage, &self.report.outcomes);
        ensure!(
            self.report.all_finished(),
            "{stage}: did not finish: {outcomes:?}"
        );
        Ok(())
    }

    /// Every rank checkpointed and exited.
    pub fn expect_checkpointed(&self) -> Result<(), String> {
        let (stage, outcomes) = (&self.stage, &self.report.outcomes);
        ensure!(
            self.report.all_checkpointed(),
            "{stage}: did not checkpoint: {outcomes:?}"
        );
        Ok(())
    }

    /// The leg was a restart from generation `round`.
    pub fn expect_restored(&self, round: u64) -> Result<(), String> {
        let (stage, got) = (&self.stage, self.report.restored_round);
        ensure!(
            got == Some(round),
            "{stage}: restored {got:?}, want round {round}"
        );
        Ok(())
    }

    /// Every rank finished with exactly the native reference's value.
    pub fn expect_values(&self, native: &[T]) -> Result<(), String> {
        let (stage, outcomes) = (&self.stage, &self.report.outcomes);
        let same = outcomes.len() == native.len()
            && outcomes
                .iter()
                .zip(native)
                .all(|(o, want)| matches!(o, AppOutcome::Finished(v) if v == want));
        ensure!(
            same,
            "{stage}: results diverged from native reference\n  native: {native:?}\n  mana:   {outcomes:?}"
        );
        Ok(())
    }
}

/// A scratch directory of a scenario's own: unique per call (tests run in
/// parallel, and one seed may run twice in a process), removed on drop
/// unless `CHAOS_KEEP_STORES=1` asks for the stores — and the restart
/// journals in them — to be left for `mana2-inspect`.
pub(crate) struct Scratch(pub(crate) PathBuf, bool);

impl Scratch {
    pub(crate) fn new(family: &str, seed: u64) -> Scratch {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "mana2_chaos_{family}_{seed}_{}_{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        Scratch(dir, Knobs::from_env().keep_stores)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        if self.1 {
            eprintln!("chaos: keeping stores: {}", self.0.display());
        } else {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }
}

/// A failing scenario: everything needed to reproduce it.
#[derive(Debug, Clone)]
pub struct CaseFailure {
    /// The scenario that failed — the one its repro line replays. (Boxed:
    /// a failure travels in `Result`s whose `Ok` side is a few bytes.)
    pub scenario: Box<Scenario>,
    /// What went wrong (stage-prefixed).
    pub error: String,
    /// Flight-recorder dump (JSONL) written when the case failed, if the
    /// dump itself succeeded. Feed it to `mana2-trace` to see the
    /// checkpoint window's phase timeline.
    pub trace_dump: Option<PathBuf>,
}

impl fmt::Display for CaseFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let dump = self.trace_dump.as_ref();
        let dump = dump.map_or("none".into(), |p| p.display().to_string());
        write!(
            f,
            "chaos case failed\n  case: {}\n  error: {}\n  trace dump: {dump}\n  repro: {}",
            self.scenario,
            self.error,
            self.scenario.repro()
        )
    }
}

/// Dump `sink` as the flight record of `scenario`, returning the JSONL
/// path (best effort — a failed dump must never mask the case result).
pub(crate) fn flight_dump(
    scenario: &Scenario,
    sink: &obs::TraceSink,
    outcome: &str,
) -> Option<PathBuf> {
    let (family, seed, _, drain) = scenario.common();
    let (store, engine) = scenario.pins();
    // What the scenario ran under: the environment's configuration with
    // what the scenario pins.
    let env = env();
    let mut mcfg = env.mana;
    mcfg.drain = drain;
    if let Some(mode) = store {
        mcfg.store.mode = mode;
    }
    let config = mcfg.record(&engine.unwrap_or(env.world.engine));
    let label = obs::unique_label(&format!("chaos_{family}_{outcome}"));
    let dir = env.outputs.trace_dir;
    let meta = obs::DumpMeta::of(sink, &label, Some(seed), &config);
    obs::flight_record(sink, &dir, &meta, None)
        .ok()
        .map(|d| d.jsonl)
}

/// Run a scenario's `legs` in a scratch directory, recording into `sink`
/// (one sink across all legs, so a single dump shows the whole story).
/// With `dump`, a failure's flight recorder is dumped and the path
/// attached to the [`CaseFailure`], and a passing case is dumped too when
/// `MANA2_TRACE=1` (CI's artifact hook); without, the sink is the
/// caller's to read.
pub(crate) fn run_scenario<R>(
    scenario: &Scenario,
    sink: &Arc<obs::TraceSink>,
    dump: bool,
    legs: impl FnOnce(&Path) -> Result<R, String>,
) -> Result<R, CaseFailure> {
    let (family, seed, ..) = scenario.common();
    let scratch = Scratch::new(family, seed);
    let result = legs(&scratch.0);
    drop(scratch);
    match result {
        Ok(report) => {
            if dump && Knobs::from_env().trace {
                if let Some(p) = flight_dump(scenario, sink, "pass") {
                    eprintln!("mana2: chaos trace dump: {}", p.display());
                }
            }
            Ok(report)
        }
        Err(error) => Err(CaseFailure {
            scenario: Box::new(scenario.clone()),
            error,
            trace_dump: dump.then(|| flight_dump(scenario, sink, "fail")).flatten(),
        }),
    }
}
