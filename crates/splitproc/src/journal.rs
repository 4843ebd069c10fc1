//! Crash-safe restart journal.
//!
//! Restart is the one window where a second failure used to be fatal: a
//! coordinator that dies mid-restart left half-restored state and no
//! record of how far it got. Every restart step is therefore a durable
//! record under the store root, and a coordinator that dies at *any*
//! point resumes by replaying the records instead of redoing (or
//! corrupting) completed steps. One blob per step, named by its
//! idempotency key and landed by one [`Blobs::put_atomic`] in
//! [`PutMode::Commit`], so a step is durable before it is reported and a
//! record is never observable half-written:
//!
//! ```text
//! <root>/restart/e<epoch>/<seq>-<kind>-<rank>    [record][crc32(record) u32]
//! ```
//!
//! The record is encoded through the codec — `kind: u8`, `epoch: u64`,
//! the step's fields — with no prefix: the blob's name says what it is.
//!
//! * Appending a key `(epoch, kind, rank)` already present is a no-op: a
//!   resumed coordinator re-drives the protocol ([`JournalStep`], in
//!   order within one **epoch**, one logical restart attempt) and
//!   completed steps are skipped, never duplicated. `seq` keeps append
//!   order.
//! * A committed epoch is recognised by the *name* of its
//!   `restart_committed` blob: [`Journal::open`] reads only the epochs
//!   newer than the newest committed one, and `Store::gc` removes the
//!   older.
//! * Only the newest epoch can be open; an older uncommitted one is
//!   superseded. An epoch holding a record that fails its CRC is never
//!   resumed: the next restart opens a fresh epoch, which re-validates.
//! * The single-file `RESTART_JOURNAL` of earlier releases is never read
//!   or written; `Store::gc` removes it once an epoch of this layout
//!   commits.
//!
//! `Store::gc` consults the open epoch's [`pinned_generations`], so a
//! generation it names is never collected out from under the restart
//! reading it.

use crate::blobs::{Blobs, LocalFs, PutMode};
use crate::codec::{CodecError, Decode, Encode, Format, FormatError, Reader};
use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::path::{Path, PathBuf};

/// Journal directory under a store root.
const JOURNAL_DIR: &str = "restart";

/// A record blob's framing: no prefix, a CRC-32 trailer.
const RECORD: Format = Format {
    file: "record",
    prefix: None,
};

/// The single-file journal of earlier releases: ignored, and removed by
/// `Store::gc` once an epoch of the blob layout commits.
pub const LEGACY_JOURNAL_FILE: &str = "RESTART_JOURNAL";

/// One restart step as recorded in the journal, in protocol order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalStep {
    /// A restart has begun against generation `gen`. `failed` lists the
    /// ranks being replaced; empty means a full restart of every rank.
    RestartIntent {
        /// Round of the generation being restored.
        gen: u64,
        /// Ranks being replaced (sorted); empty = full restart.
        failed: Vec<u64>,
    },
    /// Generation `gen` passed validation for this epoch and is pinned
    /// against GC until the epoch commits.
    GenValidated {
        /// Round of the validated generation.
        gen: u64,
    },
    /// Rank `rank` was restored from its image.
    RankRestored {
        /// The restored world rank.
        rank: u64,
    },
    /// Communicators were rebuilt around the restored ranks.
    CommsRebuilt,
    /// The epoch completed; its generation pin is released.
    RestartCommitted,
}

impl JournalStep {
    /// Wire kind code (also the idempotency-key kind).
    pub fn kind(&self) -> u8 {
        match self {
            JournalStep::RestartIntent { .. } => 1,
            JournalStep::GenValidated { .. } => 2,
            JournalStep::RankRestored { .. } => 3,
            JournalStep::CommsRebuilt => 4,
            JournalStep::RestartCommitted => 5,
        }
    }

    /// The trace vocabulary's name for this step (payload-free).
    pub fn trace_step(&self) -> obs::RestartStep {
        match self {
            JournalStep::RestartIntent { .. } => obs::RestartStep::Intent,
            JournalStep::GenValidated { .. } => obs::RestartStep::Validated,
            JournalStep::RankRestored { .. } => obs::RestartStep::RankRestored,
            JournalStep::CommsRebuilt => obs::RestartStep::CommsRebuilt,
            JournalStep::RestartCommitted => obs::RestartStep::Committed,
        }
    }

    /// Stable lowercase name (used in blob names, by `mana2-inspect` and
    /// traces): its trace step's.
    pub fn name(&self) -> &'static str {
        self.trace_step().name()
    }

    /// The rank component of the idempotency key (0 for rank-less steps).
    fn key_arg(&self) -> u64 {
        match self {
            JournalStep::RankRestored { rank } => *rank,
            _ => 0,
        }
    }
}

/// Idempotency key of one record: `(epoch, kind, rank)`.
pub type StepKey = (u64, u8, u64);

/// One journal record: a step attributed to a restart epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalRecord {
    /// Restart epoch (one logical restart attempt).
    pub epoch: u64,
    /// The step taken.
    pub step: JournalStep,
}

impl JournalRecord {
    /// This record's idempotency key.
    pub fn key(&self) -> StepKey {
        (self.epoch, self.step.kind(), self.step.key_arg())
    }

    /// The record blob's bytes: the record inside a CRC-32 trailer.
    pub fn to_bytes(&self) -> Vec<u8> {
        RECORD.seal(self)
    }

    /// Parse a record blob: its CRC must hold and its body must decode to
    /// exactly one record.
    pub fn from_bytes(blob: &[u8]) -> Result<Self, FormatError> {
        RECORD.open(blob)
    }

    /// The record's blob under a store root: `restart/e<epoch>/<seq>-<kind>-<rank>`.
    fn path_in(&self, root: &Path, seq: u64) -> PathBuf {
        let (kind, rank) = (self.step.name(), self.step.key_arg());
        epoch_dir(root, self.epoch).join(format!("{seq:05}-{kind}-{rank}"))
    }
}

/// The step's kind code, then the epoch, then the step's fields.
impl Encode for JournalRecord {
    fn encode(&self, out: &mut Vec<u8>) {
        self.step.kind().encode(out);
        self.epoch.encode(out);
        match &self.step {
            JournalStep::RestartIntent { gen, failed } => {
                gen.encode(out);
                failed.encode(out);
            }
            JournalStep::GenValidated { gen } => gen.encode(out),
            JournalStep::RankRestored { rank } => rank.encode(out),
            JournalStep::CommsRebuilt | JournalStep::RestartCommitted => {}
        }
    }
}

impl Decode for JournalRecord {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let kind = u8::decode(r)?;
        let epoch = u64::decode(r)?;
        let step = match kind {
            1 => JournalStep::RestartIntent {
                gen: u64::decode(r)?,
                failed: Vec::decode(r)?,
            },
            2 => JournalStep::GenValidated {
                gen: u64::decode(r)?,
            },
            3 => JournalStep::RankRestored {
                rank: u64::decode(r)?,
            },
            4 => JournalStep::CommsRebuilt,
            5 => JournalStep::RestartCommitted,
            other => return Err(CodecError::InvalidTag(other)),
        };
        Ok(JournalRecord { epoch, step })
    }
}

/// The replayed state of one restart epoch.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct EpochState {
    /// Epoch number.
    pub epoch: u64,
    /// Generation named by the intent (None if the intent record itself
    /// is missing or unreadable).
    pub gen: Option<u64>,
    /// Ranks being replaced; empty = full restart.
    pub failed: Vec<u64>,
    /// Did validation complete?
    pub validated: bool,
    /// The generation `GenValidated` named — normally equal to `gen`,
    /// but a crash-and-resume can validate a different (older) one if
    /// the intent's generation rotted in between. Pinning covers both.
    pub validated_gen: Option<u64>,
    /// Ranks whose restore was journaled.
    pub restored: BTreeSet<u64>,
    /// Were communicators rebuilt?
    pub comms_rebuilt: bool,
    /// Did the epoch commit?
    pub committed: bool,
    /// Was this uncommitted epoch superseded by a newer intent?
    pub superseded: bool,
}

/// Replay records into per-epoch state, ascending by epoch. Every
/// uncommitted epoch other than the newest is marked superseded.
pub fn replay_epochs(records: &[JournalRecord]) -> Vec<EpochState> {
    let mut epochs: BTreeMap<u64, EpochState> = BTreeMap::new();
    for rec in records {
        let state = epochs.entry(rec.epoch).or_insert_with(|| EpochState {
            epoch: rec.epoch,
            ..EpochState::default()
        });
        match &rec.step {
            JournalStep::RestartIntent { gen, failed } => {
                state.gen = Some(*gen);
                state.failed = failed.clone();
            }
            JournalStep::GenValidated { gen } => {
                state.validated = true;
                state.validated_gen = Some(*gen);
                state.gen.get_or_insert(*gen);
            }
            JournalStep::RankRestored { rank } => {
                state.restored.insert(*rank);
            }
            JournalStep::CommsRebuilt => state.comms_rebuilt = true,
            JournalStep::RestartCommitted => state.committed = true,
        }
    }
    let newest = epochs.keys().next_back().copied();
    let mut epochs: Vec<EpochState> = epochs.into_values().collect();
    for e in &mut epochs {
        e.superseded = !e.committed && Some(e.epoch) != newest;
    }
    epochs
}

// ---- reading the layout ----------------------------------------------------

fn journal_dir(root: &Path) -> PathBuf {
    root.join(JOURNAL_DIR)
}

fn epoch_dir(root: &Path, epoch: u64) -> PathBuf {
    journal_dir(root).join(format!("e{epoch:05}"))
}

/// Epoch numbers of the journal under `root`, newest first.
fn list_epochs(blobs: &dyn Blobs, root: &Path) -> io::Result<Vec<u64>> {
    let mut epochs: Vec<u64> = (blobs.list(&journal_dir(root))?.into_iter())
        .filter(|e| e.is_dir)
        .filter_map(|e| e.name.strip_prefix('e')?.parse().ok())
        .collect();
    epochs.sort_unstable_by(|a, b| b.cmp(a));
    Ok(epochs)
}

/// A record blob's parsed name, `<seq>-<kind>-<rank>`.
struct BlobName {
    seq: u64,
    name: String,
    committed: bool,
}

/// The record blobs of one epoch, in `seq` order. Names that do not
/// parse (a crashed put's tmp file) are not records.
fn list_records(blobs: &dyn Blobs, root: &Path, epoch: u64) -> io::Result<Vec<BlobName>> {
    let mut names: Vec<BlobName> = (blobs.list(&epoch_dir(root, epoch))?.into_iter())
        .filter_map(|e| {
            let mut parts = e.name.splitn(3, '-');
            let seq = parts.next()?.parse().ok()?;
            let committed = parts.next()? == JournalStep::RestartCommitted.name();
            parts.next()?.parse::<u64>().ok()?;
            let name = e.name;
            Some(BlobName {
                seq,
                name,
                committed,
            })
        })
        .collect();
    names.sort_unstable_by_key(|n| n.seq);
    Ok(names)
}

/// Read one record blob, which must be the record its name says. A blob
/// that does not parse is `InvalidData` carrying its [`FormatError`].
fn read_record(
    blobs: &dyn Blobs,
    root: &Path,
    epoch: u64,
    b: &BlobName,
) -> io::Result<JournalRecord> {
    let path = epoch_dir(root, epoch).join(&b.name);
    let mut bytes = Vec::new();
    blobs.get(&path, Some(&mut bytes))?;
    let invalid = io::ErrorKind::InvalidData;
    let rec = JournalRecord::from_bytes(&bytes).map_err(|e| io::Error::new(invalid, e))?;
    let named = rec.path_in(root, b.seq) == path;
    named
        .then_some(rec)
        .ok_or_else(|| io::Error::new(invalid, "record is not the step its name says"))
}

/// A record blob that cannot be used.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BadRecord {
    /// Its epoch.
    pub epoch: u64,
    /// Its `seq` within the epoch.
    pub seq: u64,
    /// Why it is unusable: the read error, or the [`FormatError`] of a
    /// blob that does not parse, as text.
    pub reason: String,
}

/// The epochs newer than the newest committed one, as replayed.
struct Live {
    /// Their readable records, in epoch then `seq` order.
    records: Vec<JournalRecord>,
    /// Next `seq` of each (every epoch holding a record blob).
    next_seq: BTreeMap<u64, u64>,
    /// Those holding a record that failed its CRC.
    unreadable: BTreeSet<u64>,
    /// The newest committed epoch.
    committed: Option<u64>,
    /// One past the newest epoch directory.
    next_epoch: u64,
}

/// Walk back from the newest epoch to the newest committed one, reading
/// the records of every epoch in between.
fn load_live(blobs: &dyn Blobs, root: &Path) -> io::Result<Live> {
    let epochs = list_epochs(blobs, root)?;
    let mut live = Live {
        records: Vec::new(),
        next_seq: BTreeMap::new(),
        unreadable: BTreeSet::new(),
        committed: None,
        next_epoch: epochs.first().map_or(0, |e| e + 1),
    };
    for epoch in epochs {
        let names = list_records(blobs, root, epoch)?;
        if names.iter().any(|n| n.committed) {
            live.committed = Some(epoch);
            break;
        }
        let mut records = Vec::new();
        for b in &names {
            match read_record(blobs, root, epoch, b) {
                Ok(rec) => records.push(rec),
                Err(_) => _ = live.unreadable.insert(epoch),
            }
            live.next_seq.insert(epoch, b.seq + 1);
        }
        live.records.splice(0..0, records);
    }
    Ok(live)
}

impl Live {
    /// The newest epoch's replayed state, if it has not committed.
    fn newest_uncommitted(&self) -> Option<EpochState> {
        let newest = *self.next_seq.keys().next_back()?;
        let state = replay_epochs(&self.records).pop()?;
        (state.epoch == newest && !state.committed).then_some(state)
    }
}

// ---- the journal -----------------------------------------------------------

/// An open restart journal: the replayed live epochs plus the backend
/// appends go through.
pub struct Journal {
    root: PathBuf,
    blobs: Box<dyn Blobs>,
    live: Live,
    keys: BTreeSet<StepKey>,
}

impl Journal {
    /// Open the journal under `root` on the local filesystem.
    pub fn open(root: &Path) -> io::Result<Journal> {
        Journal::new(root, Box::new(LocalFs))
    }

    /// Open the journal under `root` over an explicit backend, replaying
    /// the epochs newer than the newest committed one.
    pub fn new(root: &Path, blobs: Box<dyn Blobs>) -> io::Result<Journal> {
        let live = load_live(blobs.as_ref(), root)?;
        Ok(Journal {
            root: root.to_path_buf(),
            keys: live.records.iter().map(|r| r.key()).collect(),
            blobs,
            live,
        })
    }

    /// Durably append one step. Returns `false` without touching the
    /// store when the step's idempotency key is already present — replay
    /// after a crash never duplicates a completed step. An epoch at or
    /// below the newest committed one is closed.
    pub fn append(&mut self, epoch: u64, step: JournalStep) -> io::Result<bool> {
        if self.live.committed.is_some_and(|c| epoch <= c) {
            let e = format!("restart epoch {epoch} is closed: a newer or equal epoch committed");
            return Err(io::Error::new(io::ErrorKind::InvalidInput, e));
        }
        let rec = JournalRecord { epoch, step };
        if self.keys.contains(&rec.key()) {
            return Ok(false);
        }
        let seq = self.live.next_seq.get(&epoch).copied().unwrap_or(0);
        let path = rec.path_in(&self.root, seq);
        self.blobs
            .put_atomic(&path, &rec.to_bytes(), PutMode::Commit)
            .1?;
        if seq == 0 {
            // The put may have created the epoch directory and `restart/`,
            // whose names the Commit contract leaves to the caller.
            self.blobs.sync_dir(&journal_dir(&self.root))?;
            self.blobs.sync_dir(&self.root)?;
        }
        self.live.next_seq.insert(epoch, seq + 1);
        self.live.next_epoch = self.live.next_epoch.max(epoch + 1);
        self.keys.insert(rec.key());
        self.live.records.push(rec);
        Ok(true)
    }

    /// Replayed per-epoch state of the live epochs, ascending by epoch.
    pub fn epochs(&self) -> Vec<EpochState> {
        replay_epochs(&self.live.records)
    }

    /// The open epoch, if any: the newest epoch when it has not committed
    /// and every record of it is readable.
    pub fn open_epoch(&self) -> Option<EpochState> {
        let open = self.live.newest_uncommitted();
        open.filter(|e| !self.live.unreadable.contains(&e.epoch))
    }

    /// The newest epoch when a record of it failed its CRC: it is not
    /// resumed, and a restart opens [`Journal::next_epoch`] instead.
    pub fn unreadable_epoch(&self) -> Option<u64> {
        let newest = *self.live.next_seq.keys().next_back()?;
        self.live.unreadable.contains(&newest).then_some(newest)
    }

    /// The epoch number a brand-new restart attempt should use.
    pub fn next_epoch(&self) -> u64 {
        self.live.next_epoch
    }
}

/// Generations pinned by the newest epoch under `root` while it has not
/// committed — what its readable records name. These must never be
/// garbage-collected. An unreadable journal pins nothing.
pub(crate) fn pinned_in(blobs: &dyn Blobs, root: &Path) -> BTreeSet<u64> {
    let open = load_live(blobs, root)
        .ok()
        .and_then(|l| l.newest_uncommitted());
    open.into_iter()
        .flat_map(|e| e.gen.into_iter().chain(e.validated_gen))
        .collect()
}

/// The generations the open epoch pins, on the local filesystem.
pub fn pinned_generations(root: &Path) -> BTreeSet<u64> {
    pinned_in(&LocalFs, root)
}

/// Collect the journal under `root`: once an epoch has committed, remove
/// every older epoch and the legacy journal file. Returns the removed
/// epochs. Never touches an epoch a restart could resume.
pub(crate) fn gc(blobs: &dyn Blobs, root: &Path) -> io::Result<Vec<u64>> {
    let Some(committed) = load_live(blobs, root)?.committed else {
        return Ok(Vec::new());
    };
    let mut removed = list_epochs(blobs, root)?;
    removed.retain(|&e| e < committed);
    removed.reverse();
    for &epoch in &removed {
        blobs.remove(&epoch_dir(root, epoch))?;
    }
    if !removed.is_empty() {
        blobs.sync_dir(&journal_dir(root))?;
    }
    match blobs.remove(&root.join(LEGACY_JOURNAL_FILE)) {
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(removed),
        res => res.and_then(|()| blobs.sync_dir(root)).map(|()| removed),
    }
}

/// Read-only report of every record blob, for `mana2-inspect journal`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyReport {
    /// The journal directory.
    pub dir: PathBuf,
    /// Readable records of every epoch, in epoch then `seq` order.
    pub records: Vec<JournalRecord>,
    /// Record blobs that failed their CRC or do not decode.
    pub unreadable: Vec<BadRecord>,
    /// Is a legacy single-file journal present (ignored)?
    pub legacy: bool,
}

/// Read every record blob of every epoch under `root` without modifying
/// anything. A missing journal is an empty report.
pub fn verify(root: &Path) -> io::Result<VerifyReport> {
    let mut report = VerifyReport {
        dir: journal_dir(root),
        records: Vec::new(),
        unreadable: Vec::new(),
        legacy: LocalFs.get(&root.join(LEGACY_JOURNAL_FILE), None).is_ok(),
    };
    for epoch in list_epochs(&LocalFs, root)?.into_iter().rev() {
        for b in list_records(&LocalFs, root, epoch)? {
            match read_record(&LocalFs, root, epoch, &b) {
                Ok(rec) => report.records.push(rec),
                Err(e) => report.unreadable.push(BadRecord {
                    epoch,
                    seq: b.seq,
                    reason: e.to_string(),
                }),
            }
        }
    }
    Ok(report)
}

/// Every readable record under `root` that GC has not collected, in
/// epoch then `seq` order. A record that fails its CRC is left out;
/// [`verify`] names it. A missing journal is an empty record list.
pub fn read_records(root: &Path) -> io::Result<Vec<JournalRecord>> {
    Ok(verify(root)?.records)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blobs::{FaultyBlobs, WriteFault};
    use std::fs;

    fn tdir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("mana2_jnl_{}_{}", name, std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    fn full_epoch(j: &mut Journal, epoch: u64, gen: u64, world: u64) {
        j.append(
            epoch,
            JournalStep::RestartIntent {
                gen,
                failed: vec![],
            },
        )
        .unwrap();
        j.append(epoch, JournalStep::GenValidated { gen }).unwrap();
        for rank in 0..world {
            j.append(epoch, JournalStep::RankRestored { rank }).unwrap();
        }
        j.append(epoch, JournalStep::CommsRebuilt).unwrap();
        j.append(epoch, JournalStep::RestartCommitted).unwrap();
    }

    fn epoch_dirs(root: &Path) -> usize {
        fs::read_dir(journal_dir(root)).unwrap().count()
    }

    /// Every step kind's blob name, as a full epoch lands them: the names
    /// are on-disk format (a committed epoch is recognised by one), so
    /// each is pinned, not just the first.
    #[test]
    fn every_step_kind_lands_under_its_pinned_blob_name() {
        let root = tdir("blob_names");
        let mut j = Journal::open(&root).unwrap();
        full_epoch(&mut j, 2, 4, 2);
        let mut names: Vec<String> = fs::read_dir(epoch_dir(&root, 2))
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        let want = [
            "00000-restart_intent-0",
            "00001-gen_validated-0",
            "00002-rank_restored-0",
            "00003-rank_restored-1",
            "00004-comms_rebuilt-0",
            "00005-restart_committed-0",
        ];
        assert_eq!(names, want);
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn append_replay_roundtrip() {
        let root = tdir("roundtrip");
        let mut j = Journal::open(&root).unwrap();
        assert_eq!(j.next_epoch(), 0);
        full_epoch(&mut j, 0, 4, 3);
        assert_eq!(j.live.records.len(), 7);
        let epochs = j.epochs();
        assert_eq!(epochs.len(), 1);
        let e = &epochs[0];
        assert_eq!(e.gen, Some(4));
        assert!(e.validated && e.comms_rebuilt && e.committed);
        assert_eq!(e.restored.len(), 3);
        drop(j);
        // Reopened, the committed epoch is known by name alone.
        let j = Journal::open(&root).unwrap();
        assert!(j.live.records.is_empty());
        assert!(j.open_epoch().is_none());
        assert_eq!(j.next_epoch(), 1);
        let all = read_records(&root).unwrap();
        assert_eq!(all.len(), 7);
        assert_eq!(replay_epochs(&all), epochs);
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn idempotent_append_skips_duplicates() {
        let root = tdir("idem");
        let mut j = Journal::open(&root).unwrap();
        assert!(j.append(0, JournalStep::RankRestored { rank: 2 }).unwrap());
        assert!(!j.append(0, JournalStep::RankRestored { rank: 2 }).unwrap());
        assert!(j.append(0, JournalStep::RankRestored { rank: 3 }).unwrap());
        // Same step kind in a different epoch is a different key.
        assert!(j.append(1, JournalStep::RankRestored { rank: 2 }).unwrap());
        assert_eq!(j.live.records.len(), 3);
        // Reopened, the keys come back from the blobs.
        drop(j);
        let mut j = Journal::open(&root).unwrap();
        assert!(!j.append(0, JournalStep::RankRestored { rank: 3 }).unwrap());
        assert_eq!(read_records(&root).unwrap().len(), 3);
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn record_blob_names_its_key_and_keeps_append_order() {
        let root = tdir("names");
        let mut j = Journal::open(&root).unwrap();
        j.append(
            2,
            JournalStep::RestartIntent {
                gen: 1,
                failed: vec![],
            },
        )
        .unwrap();
        j.append(2, JournalStep::GenValidated { gen: 1 }).unwrap();
        j.append(2, JournalStep::RankRestored { rank: 7 }).unwrap();
        let mut names: Vec<String> = fs::read_dir(epoch_dir(&root, 2))
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        assert_eq!(
            names,
            [
                "00000-restart_intent-0",
                "00001-gen_validated-0",
                "00002-rank_restored-7"
            ]
        );
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn committed_epoch_is_closed_to_appends() {
        let root = tdir("closed");
        let mut j = Journal::open(&root).unwrap();
        full_epoch(&mut j, 0, 1, 1);
        drop(j);
        let mut j = Journal::open(&root).unwrap();
        let err = j.append(0, JournalStep::CommsRebuilt).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(j.append(1, JournalStep::CommsRebuilt).unwrap());
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn failed_put_leaves_no_record_and_the_step_redrives() {
        let root = tdir("faulty");
        let faulty = FaultyBlobs::new(
            Box::new(LocalFs),
            WriteFault::Error { attempts: 1 },
            obs::Telemetry::off(),
            0,
        );
        let mut j = Journal::new(&root, Box::new(faulty)).unwrap();
        let intent = JournalStep::RestartIntent {
            gen: 3,
            failed: vec![],
        };
        assert!(j.append(0, intent.clone()).is_err());
        assert!(!j.keys.contains(&(0, intent.kind(), 0)));
        assert!(read_records(&root).unwrap().is_empty());
        assert!(!epoch_dir(&root, 0).join("00000-restart_intent-0").exists());
        // Re-driving the same step lands it under the same name.
        assert!(j.append(0, intent.clone()).unwrap());
        assert!(j.keys.contains(&(0, intent.kind(), 0)));
        assert!(epoch_dir(&root, 0).join("00000-restart_intent-0").exists());
        assert_eq!(read_records(&root).unwrap().len(), 1);
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn foreign_journal_file_is_ignored_not_destroyed() {
        let root = tdir("foreign");
        fs::create_dir_all(&root).unwrap();
        let legacy = root.join(LEGACY_JOURNAL_FILE);
        fs::write(&legacy, b"definitely not a journal").unwrap();
        let mut j = Journal::open(&root).unwrap();
        assert_eq!(j.next_epoch(), 0);
        assert!(j.append(0, JournalStep::CommsRebuilt).unwrap());
        assert!(verify(&root).unwrap().legacy);
        // No epoch committed yet: GC leaves the file as it was.
        assert!(gc(&LocalFs, &root).unwrap().is_empty());
        assert_eq!(fs::read(&legacy).unwrap(), b"definitely not a journal");
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn open_epoch_and_pinning() {
        let root = tdir("pin");
        let mut j = Journal::open(&root).unwrap();
        full_epoch(&mut j, 0, 3, 2);
        // Epoch 1 crashes after validation: gen 5 must be pinned.
        j.append(
            1,
            JournalStep::RestartIntent {
                gen: 5,
                failed: vec![1],
            },
        )
        .unwrap();
        j.append(1, JournalStep::GenValidated { gen: 5 }).unwrap();
        drop(j);
        let j = Journal::open(&root).unwrap();
        let open = j.open_epoch().unwrap();
        assert_eq!(open.epoch, 1);
        assert_eq!(open.gen, Some(5));
        assert_eq!(open.failed, vec![1]);
        assert!(open.validated && !open.committed);
        assert_eq!(
            pinned_generations(&root).into_iter().collect::<Vec<_>>(),
            vec![5]
        );
        // Committing releases the pin.
        drop(j);
        let mut j = Journal::open(&root).unwrap();
        j.append(1, JournalStep::RestartCommitted).unwrap();
        assert!(j.open_epoch().is_none());
        assert!(pinned_generations(&root).is_empty());
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn new_intent_supersedes_stale_open_epoch() {
        let root = tdir("supersede");
        let mut j = Journal::open(&root).unwrap();
        j.append(
            0,
            JournalStep::RestartIntent {
                gen: 2,
                failed: vec![],
            },
        )
        .unwrap();
        // Epoch 0 never commits; a fresh attempt opens epoch 1 on gen 4.
        j.append(
            1,
            JournalStep::RestartIntent {
                gen: 4,
                failed: vec![],
            },
        )
        .unwrap();
        let epochs = j.epochs();
        assert!(epochs[0].superseded);
        assert!(!epochs[1].superseded);
        assert_eq!(j.open_epoch().unwrap().epoch, 1);
        assert_eq!(
            pinned_generations(&root).into_iter().collect::<Vec<_>>(),
            vec![4],
            "only the newest open epoch pins its generation"
        );
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn unreadable_epoch_is_never_resumed() {
        let root = tdir("unreadable");
        let mut j = Journal::open(&root).unwrap();
        j.append(
            0,
            JournalStep::RestartIntent {
                gen: 1,
                failed: vec![],
            },
        )
        .unwrap();
        j.append(0, JournalStep::GenValidated { gen: 1 }).unwrap();
        drop(j);
        let path = epoch_dir(&root, 0).join("00001-gen_validated-0");
        let mut bytes = fs::read(&path).unwrap();
        bytes[9] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();
        let j = Journal::open(&root).unwrap();
        assert_eq!(j.unreadable_epoch(), Some(0));
        assert!(j.open_epoch().is_none());
        assert_eq!(j.next_epoch(), 1);
        let report = verify(&root).unwrap();
        assert_eq!(report.records.len(), 1);
        assert_eq!(
            (report.unreadable[0].epoch, report.unreadable[0].seq),
            (0, 1)
        );
        assert!(report.unreadable[0].reason.contains("CRC"));
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn bounded_history_open_and_gc() {
        let root = tdir("bounded");
        for epoch in 0..50 {
            let mut j = Journal::open(&root).unwrap();
            assert_eq!(j.next_epoch(), epoch);
            full_epoch(&mut j, epoch, 0, 2);
        }
        let j = Journal::open(&root).unwrap();
        assert!(j.open_epoch().is_none());
        assert_eq!(j.next_epoch(), 50);
        assert!(j.live.records.is_empty(), "committed history is not read");
        assert_eq!(epoch_dirs(&root), 50);
        let store = crate::store::Store::open(&root, crate::store::StoreConfig::default());
        let removed = store.gc(1).unwrap().journal_epochs;
        assert_eq!(removed, (0..49).collect::<Vec<_>>());
        assert_eq!(epoch_dirs(&root), 1);
        assert_eq!(Journal::open(&root).unwrap().next_epoch(), 50);
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn gc_keeps_the_open_epoch_and_the_newest_committed() {
        let root = tdir("gc_open");
        let mut j = Journal::open(&root).unwrap();
        full_epoch(&mut j, 0, 1, 1);
        full_epoch(&mut j, 1, 1, 1);
        j.append(
            2,
            JournalStep::RestartIntent {
                gen: 3,
                failed: vec![],
            },
        )
        .unwrap();
        assert_eq!(gc(&LocalFs, &root).unwrap(), vec![0]);
        let j = Journal::open(&root).unwrap();
        assert_eq!(j.open_epoch().unwrap().epoch, 2);
        assert_eq!(
            pinned_generations(&root).into_iter().collect::<Vec<_>>(),
            vec![3]
        );
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn missing_journal_pins_nothing_and_verifies_clean() {
        let root = tdir("missing");
        assert!(pinned_generations(&root).is_empty());
        let report = verify(&root).unwrap();
        assert!(report.records.is_empty() && report.unreadable.is_empty());
        assert!(!report.legacy);
        assert_eq!(gc(&LocalFs, &root).unwrap(), Vec::<u64>::new());
    }
}
