//! What a chaos scenario *is*: the four families' case descriptions, how
//! each derives from a seed, and the one-line [`Scenario`] spec that names
//! any of them — the value of `CHAOS_CASE` in every failure's repro line.

use crate::explore::{decode_choices, encode_choices, ScheduleFixture};
use mana_core::DrainMode;
use mpisim::{splitmix64, CoopCfg, EngineKind, Named, StorageFaultKind};
use splitproc::StoreMode;
use std::collections::BTreeMap;
use std::fmt;
use std::str::FromStr;

/// Which application kernel a chaos case drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Halo exchange + periodic energy allreduce (p2p-heavy).
    Gromacs,
    /// Conjugate gradient (halo exchange + dot-product allreduces; the
    /// residual is a strong end-to-end corruption detector).
    Cg,
}

/// The names `Display` and `FromStr` spell a workload with.
impl Named for Workload {
    const NAMES: &'static [(Self, &'static str)] =
        &[(Workload::Gromacs, "gromacs"), (Workload::Cg, "cg")];
}

impl fmt::Display for Workload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for Workload {
    type Err = String;
    fn from_str(s: &str) -> Result<Workload, String> {
        let s = s.trim().to_ascii_lowercase();
        let want = Workload::names("|");
        Workload::named(&s).ok_or_else(|| format!("unknown workload {s:?} (want {want})"))
    }
}

/// A `parse` of another crate that answers `None`, as a field parser
/// whose error names what it wanted.
fn named<T>(parse: fn(&str) -> Option<T>, want: String) -> impl Fn(&str) -> Result<T, String> {
    move |s| parse(s).ok_or_else(|| format!("{:?} (want {want})", s.trim()))
}

/// Parse a drain-mode name ([`DrainMode::parse`], with the error line the
/// CLI, the spec and the fixture reader all print).
pub fn parse_drain(s: &str) -> Result<DrainMode, String> {
    named(DrainMode::parse, DrainMode::names("|"))(s)
}

/// The per-field hash every family derives its shape from: splitmix64 —
/// the same keyed hash the fault plan uses — over the seed and a field
/// salt, so derivation is deterministic and seed-sensitive.
pub(crate) struct Derive(pub u64);

impl Derive {
    pub(crate) fn h(&self, salt: u64) -> u64 {
        splitmix64(self.0 ^ splitmix64(salt))
    }

    /// 2–4 ranks.
    fn ranks(&self, salt: u64) -> usize {
        2 + (self.h(salt) % 3) as usize
    }

    fn workload(&self) -> Workload {
        if self.h(0x3017).is_multiple_of(2) {
            Workload::Gromacs
        } else {
            Workload::Cg
        }
    }

    fn drain(&self) -> DrainMode {
        match self.h(0xD2A1) % 3 {
            0 => DrainMode::Alltoall,
            1 => DrainMode::Coordinator,
            _ => DrainMode::TopoSort,
        }
    }

    /// The rank a storage fault damages.
    pub(crate) fn victim(&self, ranks: usize) -> usize {
        (self.h(0x71C7) % ranks as u64) as usize
    }
}

/// One message-fault scenario: the fault plan derived from `seed` applied
/// to a run of this shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosCase {
    /// The seed — drives the fault plan and the derived shape fields.
    pub seed: u64,
    /// World size (derived: 2–4 ranks).
    pub ranks: usize,
    /// Application kernel.
    pub workload: Workload,
    /// Drain algorithm under test.
    pub drain: DrainMode,
    /// `true`: checkpoint-and-exit, then restart from the image and run to
    /// completion. `false`: checkpoint while running (resume mode).
    pub restart: bool,
}

impl ChaosCase {
    /// Derive the seed-dependent shape (ranks, restart-vs-resume) for an
    /// explicitly chosen workload and drain mode. This is what the sweep
    /// matrix uses so every (workload, drain) cell is exercised.
    pub fn derive(seed: u64, workload: Workload, drain: DrainMode) -> Self {
        let d = Derive(seed);
        ChaosCase {
            seed,
            ranks: d.ranks(0xA11C),
            workload,
            drain,
            restart: d.h(0xE517).is_multiple_of(2),
        }
    }

    /// Derive *everything* from the seed, workload and drain included.
    /// Used by the fresh sweep and the engine seed matrix.
    pub fn from_seed(seed: u64) -> Self {
        let d = Derive(seed);
        ChaosCase::derive(seed, d.workload(), d.drain())
    }
}

/// One storage-fault chaos scenario: a seeded checkpoint-write fault lands
/// in the checkpoint window and the generational store protocol must never
/// lose a previously committed generation or silently restore a damaged
/// one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StorageCase {
    /// The seed — drives the derived shape and the fault's byte offset.
    pub seed: u64,
    /// World size (derived: 2–4 ranks).
    pub ranks: usize,
    /// What happens to the victim's image write.
    pub kind: StorageFaultKind,
    /// `true`: exercise exit-and-restart around the fault. `false`: the
    /// fault lands during a resume-mode checkpoint.
    pub restart: bool,
    /// Rank whose image write is damaged (derived).
    pub victim: usize,
    /// Quiesce protocol the checkpoint windows run under (derived), so
    /// the storage matrix crosses every strategy with every fault kind.
    pub drain: DrainMode,
    /// On-disk layout the checkpoint store writes (derived). In chunked
    /// mode the same fault kinds land on individual chunk files (or the
    /// recipe when every chunk deduped), so the durability contract is
    /// exercised at chunk granularity: a wrong-hash chunk must never be
    /// restored, and shared chunks of older generations must survive the
    /// damage.
    pub store: StoreMode,
}

impl StorageCase {
    /// Derive the seed-dependent shape for an explicitly chosen fault kind
    /// and mode — the sweep matrix exercises every (kind, mode) cell.
    pub fn derive(seed: u64, kind: StorageFaultKind, restart: bool) -> Self {
        let d = Derive(seed);
        let ranks = d.ranks(0x57A6);
        StorageCase {
            seed,
            ranks,
            kind,
            restart,
            victim: d.victim(ranks),
            drain: d.drain(),
            store: if d.h(0xC4B2).is_multiple_of(2) {
                StoreMode::Flat
            } else {
                StoreMode::Chunked
            },
        }
    }
}

/// One reentrant-restart chaos scenario: a committed checkpoint store, a
/// sequence of restart attempts each killed at a seeded journal-step
/// boundary (`FaultSpec::restart_kill`), then a clean restart that must
/// converge — same final state as an uncrashed restart, journal
/// idempotent, no restored rank lost.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RestartKillCase {
    /// The seed — drives the derived shape and kill boundaries.
    pub seed: u64,
    /// World size (derived: 2–4 ranks).
    pub ranks: usize,
    /// Journal-step boundaries at which successive restart attempts die.
    /// One entry = single crash; two = a double crash (crash during the
    /// crash recovery), and so on.
    pub kills: Vec<u64>,
    /// `Some(failed)`: partial restart replacing only these ranks.
    /// `None`: full restart of every rank.
    pub partial: Option<Vec<usize>>,
    /// Optional storage-fault cross: the newest generation is silently
    /// damaged before the killed restarts, so recovery must *also* fall
    /// back to the older committed generation while surviving crashes.
    pub storage: Option<StorageFaultKind>,
    /// Execution engine for every leg.
    pub engine: EngineKind,
    /// Quiesce protocol for every checkpoint window (derived), so crash
    /// storms cross the restart journal with every strategy.
    pub drain: DrainMode,
}

impl RestartKillCase {
    /// The ranks this case's restarts journal (`RankRestored`).
    pub fn scope(&self) -> Vec<usize> {
        self.partial
            .clone()
            .unwrap_or_else(|| (0..self.ranks).collect())
    }

    /// Journal-step boundaries one restart attempt passes: two per step
    /// (just before and just after the durable append), over intent,
    /// validation, one `rank_restored` per replaced rank, `comms_rebuilt`
    /// and `restart_committed`. Kills at `0..boundaries()` cover crashing
    /// the restart around every record it writes.
    pub fn boundaries(&self) -> u64 {
        2 * (self.scope().len() as u64 + 4)
    }

    /// Derive the seed-dependent shape for a chosen (storage, partial,
    /// engine) cell of the sweep matrix.
    pub fn derive(
        seed: u64,
        storage: Option<StorageFaultKind>,
        partial: bool,
        engine: EngineKind,
    ) -> Self {
        let d = Derive(seed);
        let ranks = d.ranks(0xF00D);
        let partial = partial.then(|| {
            // 1..ranks replaced ranks, contiguous from a seeded start, so
            // at least one survivor remains. For a storage cross the
            // start is the storage victim: a survivor keeps its state in
            // a real partial restart and never reads its image, but this
            // in-process simulation rebuilds survivors from their images
            // too — so the damaged rank must be in the replaced set for
            // subset validation to see (and reject) the damage.
            let k = 1 + (d.h(0xFA11) % (ranks as u64 - 1)) as usize;
            let start = if storage.is_some() {
                d.victim(ranks)
            } else {
                (d.h(0x57A7) % ranks as u64) as usize
            };
            let mut failed: Vec<usize> = (0..k).map(|i| (start + i) % ranks).collect();
            failed.sort_unstable();
            failed
        });
        let mut case = RestartKillCase {
            seed,
            ranks,
            kills: Vec::new(),
            partial,
            storage,
            engine,
            drain: d.drain(),
        };
        let n_kills = 1 + d.h(0x2CA5) % 2;
        case.kills = (0..n_kills)
            .map(|i| d.h(0x517E ^ (i << 8)) % case.boundaries())
            .collect();
        case
    }
}

// ---- the spec ----------------------------------------------------------------

/// Any chaos scenario, of any family. Its `Display` form is one line of
/// `family key=value …` that `FromStr` reads back to an equal value; that
/// line is the `CHAOS_CASE` of every failure report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Scenario {
    /// Message faults: the plan derived from the case's seed.
    Faults {
        /// The scenario.
        case: ChaosCase,
        /// Engine every leg is pinned to (`None`: the environment's).
        engine: Option<EngineKind>,
    },
    /// A storage fault in the checkpoint window.
    Storage(StorageCase),
    /// Restart attempts killed at journal-step boundaries.
    RestartKill(RestartKillCase),
    /// One explicit coop schedule of a checkpoint round.
    Schedule(ScheduleFixture),
}

fn join<T: ToString>(items: &[T]) -> String {
    let items: Vec<String> = items.iter().map(T::to_string).collect();
    items.join(",")
}

impl Scenario {
    /// Family name, seed, world size and drain mode — what every family
    /// has.
    pub(crate) fn common(&self) -> (&'static str, u64, usize, DrainMode) {
        match self {
            Scenario::Faults { case: c, .. } => ("faults", c.seed, c.ranks, c.drain),
            Scenario::Storage(c) => ("storage", c.seed, c.ranks, c.drain),
            Scenario::RestartKill(c) => ("restart_kill", c.seed, c.ranks, c.drain),
            Scenario::Schedule(c) => ("schedule", c.seed, c.ranks, c.drain),
        }
    }

    /// The store layout and engine the scenario pins (`None`: the
    /// environment's), for its flight dump's header.
    pub(crate) fn pins(&self) -> (Option<StoreMode>, Option<EngineKind>) {
        match self {
            Scenario::Faults { engine, .. } => (None, *engine),
            Scenario::Storage(c) => (Some(c.store), None),
            Scenario::RestartKill(c) => (None, Some(c.engine)),
            Scenario::Schedule(c) => (None, Some(c.engine())),
        }
    }

    /// The one-line command that replays exactly this scenario.
    pub fn repro(&self) -> String {
        format!(
            "CHAOS_CASE='{self}' cargo test -p chaos --test chaos_suite case_replay -- --exact --nocapture"
        )
    }
}

impl ScheduleFixture {
    /// The coop engine a schedule replays under.
    pub(crate) fn engine(&self) -> EngineKind {
        EngineKind::Coop(CoopCfg {
            workers: self.workers,
            sched_seed: self.seed,
        })
    }
}

impl fmt::Display for Scenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (family, seed, ranks, drain) = self.common();
        write!(
            f,
            "{family} seed={seed} ranks={ranks} drain={}",
            drain.name()
        )?;
        match self {
            Scenario::Faults { case: c, engine } => {
                write!(f, " workload={} restart={}", c.workload, c.restart)?;
                if let Some(e) = engine {
                    write!(f, " engine={e}")?;
                }
            }
            Scenario::Storage(c) => write!(
                f,
                " store={} kind={} restart={} victim={}",
                c.store.name(),
                c.kind.name(),
                c.restart,
                c.victim
            )?,
            Scenario::RestartKill(c) => {
                write!(f, " engine={}", c.engine)?;
                if !c.kills.is_empty() {
                    write!(f, " kills={}", join(&c.kills))?;
                }
                if let Some(failed) = &c.partial {
                    write!(f, " partial={}", join(failed))?;
                }
                if let Some(kind) = c.storage {
                    write!(f, " storage={}", kind.name())?;
                }
            }
            Scenario::Schedule(c) => {
                write!(f, " workers={} workload={}", c.workers, c.workload)?;
                if !c.choices.is_empty() {
                    write!(f, " choices={}", encode_choices(&c.choices))?;
                }
            }
        }
        Ok(())
    }
}

/// The `key=value` fields of one spec line, each consumed exactly once.
struct Fields<'a>(BTreeMap<&'a str, &'a str>);

impl<'a> Fields<'a> {
    fn opt<T>(
        &mut self,
        key: &str,
        parse: impl FnOnce(&'a str) -> Result<T, String>,
    ) -> Result<Option<T>, String> {
        let value = self.0.remove(key);
        let parsed = value.map(parse).transpose();
        parsed.map_err(|e| format!("{key}: {e}"))
    }

    fn req<T>(
        &mut self,
        key: &str,
        parse: impl FnOnce(&'a str) -> Result<T, String>,
    ) -> Result<T, String> {
        self.opt(key, parse)?
            .ok_or_else(|| format!("missing {key}="))
    }
}

fn num<T: FromStr>(s: &str) -> Result<T, String>
where
    T::Err: fmt::Display,
{
    s.parse().map_err(|e| format!("{s:?}: {e}"))
}

fn list<T: FromStr>(s: &str) -> Result<Vec<T>, String>
where
    T::Err: fmt::Display,
{
    s.split(',').map(num).collect()
}

impl FromStr for Scenario {
    type Err = String;

    /// Strict: an unknown family, a missing, repeated, unknown or
    /// malformed field is an error — a spec never half-parses into some
    /// other scenario.
    fn from_str(spec: &str) -> Result<Scenario, String> {
        let mut tokens = spec.split_whitespace();
        let family = tokens.next().ok_or("empty scenario spec")?;
        let mut fields = Fields(BTreeMap::new());
        for token in tokens {
            let (key, value) = token
                .split_once('=')
                .ok_or_else(|| format!("{token:?} is not key=value"))?;
            if fields.0.insert(key, value).is_some() {
                return Err(format!("{key}= given twice"));
            }
        }
        let engine = named(EngineKind::parse, EngineKind::SPELLINGS.into());
        let kind = named(StorageFaultKind::named, StorageFaultKind::names("|"));
        let seed = fields.req("seed", num)?;
        let ranks = fields.req("ranks", num)?;
        let drain = fields.req("drain", parse_drain)?;
        let scenario = match family {
            "faults" => Scenario::Faults {
                case: ChaosCase {
                    seed,
                    ranks,
                    workload: fields.req("workload", str::parse)?,
                    drain,
                    restart: fields.req("restart", num)?,
                },
                engine: fields.opt("engine", &engine)?,
            },
            "storage" => Scenario::Storage(StorageCase {
                seed,
                ranks,
                kind: fields.req("kind", &kind)?,
                restart: fields.req("restart", num)?,
                victim: fields.req("victim", num)?,
                drain,
                store: fields.req("store", named(StoreMode::parse, StoreMode::names("|")))?,
            }),
            "restart_kill" => Scenario::RestartKill(RestartKillCase {
                seed,
                ranks,
                kills: fields.opt("kills", list)?.unwrap_or_default(),
                partial: fields.opt("partial", list)?,
                storage: fields.opt("storage", &kind)?,
                engine: fields.req("engine", &engine)?,
                drain,
            }),
            "schedule" => Scenario::Schedule(ScheduleFixture {
                seed,
                ranks,
                workers: fields.req("workers", num)?,
                workload: fields.req("workload", str::parse)?,
                drain,
                choices: fields.opt("choices", decode_choices)?.unwrap_or_default(),
            }),
            other => {
                return Err(format!(
                    "unknown family {other:?} (want faults|storage|restart_kill|schedule)"
                ))
            }
        };
        match fields.0.keys().next() {
            Some(key) => Err(format!("{family} takes no {key}=")),
            None => Ok(scenario),
        }
    }
}
