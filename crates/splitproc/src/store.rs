//! Durable generational checkpoint store.
//!
//! The paper's whole value proposition is that a checkpoint survives the
//! failure it exists to mask. This module makes the on-disk image
//! directory uphold that: a crash, torn write, or bit flip during round
//! `N` must never cost the job the round `N−1` checkpoint.
//!
//! Layout under a store root:
//!
//! ```text
//! <root>/gen_00000/ckpt_rank_00000.mana
//! <root>/gen_00000/ckpt_rank_00001.mana
//! <root>/gen_00000/MANIFEST            ← written last; marks the round committed
//! <root>/gen_00001/…
//! ```
//!
//! Everything goes through one [`Store`] handle, and every byte it moves
//! through the five operations of [`Blobs`]: this file never touches the
//! filesystem itself. Invariants:
//!
//! * Every rank file is written by one routine, [`Store::write_encoded`],
//!   from an [`ImageBuf`]: a rank's kept buffer as it froze it, or a
//!   decoded image copied into a fresh one ([`Store::write_image`]).
//! * Every file the store writes — flat image, recipe, manifest, journal
//!   record — is written and read through the codec: one prefix, one
//!   CRC-32 trailer, one [`FormatError`] (DESIGN §7, "Files on disk").
//! * Every rank file and manifest lands via [`Blobs::put_atomic`] (tmp
//!   file, sync, atomic rename, parent-directory sync), retried with
//!   bounded backoff on transient errors. A reader never observes a
//!   half-written file under its final name.
//! * A generation is **committed** only once its `MANIFEST` (round, world
//!   size, per-rank image sizes and CRCs) is durably on disk — written by
//!   the coordinator ([`Store::commit`]) strictly after *every* rank
//!   reported a successful image write. A generation without a manifest
//!   is a failed or in-progress round and is never restart material.
//! * Restart scans generations newest-first ([`Store::select`]),
//!   validates the manifest and every rank image (whole-file CRC, header
//!   agreement), and falls back to the newest globally-complete
//!   generation, reporting exactly what was rejected and why.
//!
//! This is the SCR/VeloC-style multi-level retention idea reduced to one
//! storage tier: `retain` committed generations are kept, older ones are
//! garbage-collected ([`Store::gc`]) with the pool chunks only they named,
//! found through their recipes; the whole pool is swept only where no
//! recipe can name the garbage.

use crate::blobs::{BlobEntry, PutMode};
pub use crate::blobs::{Blobs, FaultyBlobs, LocalFs, WriteFault};
use crate::chunk::{self, ChunkId, ChunkParams, ChunkRef, Recipe};
use crate::codec::{crc32, Format, FormatError};
use crate::image::{self, CkptImage, ImageBuf, ImageError, ImageHeader, HEADER_LEN};
use mpisim::Named;
use obs::metrics as met;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Manifest file name inside a generation directory.
pub const MANIFEST_FILE: &str = "MANIFEST";

/// The manifest's framing: magic `MANA2MAN`, version 1, and a CRC-32
/// trailer.
pub(crate) const MANIFEST: Format = Format {
    file: "manifest",
    prefix: Some((*b"MANA2MAN", 1)),
};

// ---- errors ----------------------------------------------------------------

/// One generation rejected during restart-time selection, with the reason.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RejectedGeneration {
    /// Round number of the rejected generation.
    pub round: u64,
    /// Coarse machine-readable reason (what the trace event carries).
    pub code: obs::RejectCode,
    /// Why it was rejected (human-readable, names the failing rank/file).
    pub reason: String,
}

/// A validation failure: a coarse code plus the human-readable detail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rejection {
    /// Coarse machine-readable reason.
    pub code: obs::RejectCode,
    /// Human-readable detail (names the failing rank/file).
    pub reason: String,
}

impl fmt::Display for Rejection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.reason)
    }
}

impl Rejection {
    fn new(code: obs::RejectCode, reason: impl Into<String>) -> Self {
        Rejection {
            code,
            reason: reason.into(),
        }
    }
}

/// Errors from the generational checkpoint store.
#[derive(Debug)]
pub enum StoreError {
    /// Underlying filesystem error.
    Io(io::Error),
    /// A manifest file exists but does not parse.
    BadManifest {
        /// The manifest path.
        path: PathBuf,
        /// What was wrong with it.
        error: FormatError,
    },
    /// [`Store::load_image`] refused one rank's image — a survivor of a
    /// partial restart whose image rotted; validation skipped it.
    Rejected {
        /// The rank whose image was refused.
        rank: usize,
        /// Coarse machine-readable reason.
        code: obs::RejectCode,
        /// Human-readable detail.
        reason: String,
    },
    /// No generation under the store root survived validation. Each
    /// candidate is listed with the reason it was rejected.
    NoUsableGeneration {
        /// The store root that was scanned.
        root: PathBuf,
        /// Every candidate generation and why it was rejected,
        /// newest-first.
        rejected: Vec<RejectedGeneration>,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "checkpoint store I/O error: {e}"),
            StoreError::BadManifest { path, error } => {
                write!(f, "bad manifest {}: {error}", path.display())
            }
            StoreError::Rejected { code, reason, .. } => {
                write!(f, "image rejected ({}): {reason}", code.name())
            }
            StoreError::NoUsableGeneration { root, rejected } => {
                write!(
                    f,
                    "no usable checkpoint generation under {}",
                    root.display()
                )?;
                if rejected.is_empty() {
                    write!(f, " (no generations found)")?;
                }
                for r in rejected {
                    write!(f, "; gen {} rejected: {}", r.round, r.reason)?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for StoreError {}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> Self {
        StoreError::Io(e)
    }
}

// ---- configuration ---------------------------------------------------------

/// On-disk layout for rank images within a generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StoreMode {
    /// One flat `.mana` image file per rank per generation — the
    /// compatibility default; every generation is self-contained.
    #[default]
    Flat,
    /// Content-addressed chunked layout: payloads are split at
    /// content-defined boundaries into a shared `chunks/` pool keyed by
    /// content hash, and each rank stores a `.cref` recipe instead of a flat
    /// image. A chunk already in the pool is never rewritten, so a
    /// slowly-mutating workload pays only for changed bytes per round. A
    /// rank's image that shares no block with its previous one lands as a
    /// flat `.mana` file in the chunked generation instead (see
    /// [`Store::write_encoded`]).
    Chunked,
}

/// Short stable names, used in `MANA2_STORE`, metrics and artifacts.
impl Named for StoreMode {
    const NAMES: &'static [(Self, &'static str)] =
        &[(StoreMode::Flat, "flat"), (StoreMode::Chunked, "chunked")];
}

impl StoreMode {
    /// Parse a `MANA2_STORE` value: a name, case-insensitive, surrounding
    /// whitespace ignored.
    pub fn parse(spec: &str) -> Option<StoreMode> {
        Self::named(&spec.trim().to_ascii_lowercase())
    }
}

/// Retry policy and layout for image and manifest writes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreConfig {
    /// Total write attempts before giving up (≥ 1).
    pub retry_attempts: u32,
    /// Backoff before the first retry; doubles per retry.
    pub retry_backoff: Duration,
    /// On-disk layout (flat images vs content-addressed chunks).
    pub mode: StoreMode,
    /// Content-defined chunking sizes (chunked mode only).
    pub chunk: ChunkParams,
    /// Parallel chunk-writer threads per image write (chunked mode only,
    /// floor 1).
    pub chunk_writers: usize,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            retry_attempts: 4,
            retry_backoff: Duration::from_millis(1),
            mode: StoreMode::Flat,
            chunk: ChunkParams::default(),
            chunk_writers: 4,
        }
    }
}

// ---- what the operations report --------------------------------------------

/// Outcome of a durable image write.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WriteOutcome {
    /// Bytes of the rank's file in the generation directory — the flat
    /// image in flat mode, the recipe in chunked mode. This is what the
    /// manifest entry records.
    pub bytes: usize,
    /// CRC32 of that file's intended contents (what the manifest records).
    pub crc: u32,
    /// Transient-error retries the write needed.
    pub retries: u32,
    /// fsync calls issued while landing the image (files + directories,
    /// including the root-directory fsync and, under an injected fault,
    /// the damage's own sync).
    pub fsyncs: u32,
    /// Logical image size (header + payloads) regardless of layout — the
    /// per-rank number that aggregates into Fig. 3's checkpoint-size line.
    pub logical_bytes: usize,
    /// Bytes that physically landed on disk this write: the whole image
    /// in flat mode; new chunks + recipe in chunked mode. Dedup is the
    /// gap between this and `logical_bytes`.
    pub physical_bytes: usize,
    /// Chunks newly written to the pool (0 in flat mode).
    pub chunks_written: u32,
    /// Chunk references satisfied by a chunk already on disk (0 in flat
    /// mode).
    pub chunks_deduped: u32,
    /// Cuts taken from the rank's previous recipe instead of the gear
    /// hash (0 in flat mode, and when generation `round − 1` holds no
    /// readable recipe of the rank).
    pub chunks_guided: u32,
    /// Batched directory-fsync rounds for the chunk pool (0 or 1 per
    /// image write; 0 in flat mode).
    pub fsync_batches: u32,
    /// Payload bytes checksummed for the section CRCs: all of them for a
    /// borrowed image, only the blocks its rank rewrote for one in a kept
    /// buffer ([`crate::ImageBuf`]).
    pub crc_bytes: usize,
    /// Payload bytes run through the chunk key (0 in flat mode): for a
    /// kept buffer guided by its own last recipe, only the chunks that
    /// touch blocks it rewrote.
    pub key_bytes: usize,
}

/// One generation as found on disk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GenInfo {
    /// Round number parsed from the directory name.
    pub round: u64,
    /// Does a `MANIFEST` exist (i.e. did the round commit)?
    pub committed: bool,
    /// The generation directory.
    pub dir: PathBuf,
}

/// One shard directory of the chunk pool, its files classified by name
/// alone ([`Store::pool_inventory`]).
#[derive(Debug, Default)]
pub struct PoolShard {
    /// The shard directory.
    pub dir: PathBuf,
    /// `<64 hex>.chunk` files: the id each names, and the file name.
    pub chunks: Vec<(ChunkId, String)>,
    /// `.tmp-*` litter of crashed chunk writes.
    pub tmp: Vec<String>,
    /// Other files: never touched.
    pub foreign: usize,
}

/// One generation's `.cref` files ([`Store::recipes`]): each path with
/// its recipe, or why it has none (a read error, or `InvalidData`
/// carrying the [`FormatError`]).
#[derive(Debug)]
pub struct GenRecipes {
    /// The generation.
    pub gen: GenInfo,
    /// Its recipe files.
    pub recipes: Vec<(PathBuf, io::Result<Recipe>)>,
}

impl GenRecipes {
    /// Every chunk ref of the recipes that parsed.
    pub fn refs(&self) -> impl Iterator<Item = &ChunkRef> {
        let parsed = self.recipes.iter().filter_map(|(_, r)| r.as_ref().ok());
        parsed.flat_map(|r| r.upper_chunks.iter().chain(&r.meta_chunks))
    }
}

/// What a chunk-pool sweep removed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ChunkGcOutcome {
    /// Unreferenced chunks deleted.
    pub removed: u64,
}

/// What one [`Store::gc`] pass removed.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct GcOutcome {
    /// Rounds of the generations removed.
    pub generations: Vec<u64>,
    /// The chunk-pool sweep that followed.
    pub chunks: ChunkGcOutcome,
    /// Restart-journal epochs removed (older than the newest committed).
    pub journal_epochs: Vec<u64>,
}

/// The generation chosen for restart.
#[derive(Debug)]
pub struct Selected {
    /// Round of the chosen generation.
    pub round: u64,
    /// Directory holding its per-rank images.
    pub dir: PathBuf,
    /// Its committed manifest.
    pub manifest: Manifest,
    /// Generations that were scanned first and rejected, newest-first.
    pub rejected: Vec<RejectedGeneration>,
    /// The images validation read and verified, indexed by world rank:
    /// every rank for a full selection, the `only` subset for a partial
    /// one (`None` for ranks that were deliberately not read). Restart
    /// restores from these instead of loading them a second time.
    pub images: Vec<Option<ImageBuf>>,
}

// ---- manifest --------------------------------------------------------------

/// One rank's image as recorded in a committed manifest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ManifestEntry {
    /// World rank.
    pub rank: u64,
    /// Image file size in bytes.
    pub bytes: u64,
    /// CRC32 of the whole image file.
    pub crc: u32,
}

crate::wire!(ManifestEntry { rank, bytes, crc });

/// The commit record of one checkpoint generation. Written by the
/// coordinator only after every rank reported a durable image write;
/// its presence is what marks a generation committed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// Checkpoint round this generation belongs to.
    pub round: u64,
    /// World size at checkpoint time.
    pub world_size: u64,
    /// Per-rank image records, sorted by rank.
    pub entries: Vec<ManifestEntry>,
}

impl Manifest {
    /// Manifest path inside a generation directory.
    pub fn path_in(dir: &Path) -> PathBuf {
        dir.join(MANIFEST_FILE)
    }

    /// Total image bytes across ranks.
    pub fn total_bytes(&self) -> u64 {
        self.entries.iter().map(|e| e.bytes).sum()
    }

    /// The manifest file: the `MANIFEST` prefix and the manifest, inside
    /// its CRC-32 trailer.
    pub fn to_bytes(&self) -> Vec<u8> {
        MANIFEST.seal(self)
    }

    /// Parse and verify a manifest file.
    pub fn from_bytes(buf: &[u8]) -> Result<Self, FormatError> {
        MANIFEST.open(buf)
    }
}

crate::wire!(Manifest {
    round,
    world_size,
    entries
});

// ---- layout ----------------------------------------------------------------

/// The chunk pool's directory name under a store root.
const CHUNKS_DIR: &str = "chunks";

/// Directory of generation `round` under `root`.
pub fn generation_dir(root: &Path, round: u64) -> PathBuf {
    root.join(format!("gen_{round:05}"))
}

fn parse_generation_name(name: &str) -> Option<u64> {
    name.strip_prefix("gen_")?.parse().ok()
}

/// Shard directory and file name of one pool chunk.
fn chunk_name(id: ChunkId) -> (String, String) {
    let hex = id.to_hex();
    (hex[..2].to_string(), format!("{hex}.chunk"))
}

fn recipe_path_for(dir: &Path, rank: usize) -> PathBuf {
    dir.join(format!("ckpt_rank_{rank:05}.cref"))
}

/// Run `job(i)` for every `i in 0..n` on up to `workers` scoped threads,
/// this one included; all results in index order, or the lowest-index
/// error. Indices are handed out in ascending order and none above the
/// lowest failed one is started, so every index below a failure was
/// handed out before it and runs to completion: the error returned is the
/// one a serial loop would have stopped at.
fn fan_out<T: Send, E: Send>(
    workers: usize,
    n: usize,
    job: impl Fn(usize) -> Result<T, E> + Sync,
) -> Result<Vec<T>, E> {
    let next = AtomicUsize::new(0);
    // Early-exit hint only: results travel through the joins below.
    let first_bad = AtomicUsize::new(usize::MAX);
    let work = || {
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n || i > first_bad.load(Ordering::Relaxed) {
                return done;
            }
            let res = job(i);
            if res.is_err() {
                first_bad.fetch_min(i, Ordering::Relaxed);
            }
            done.push((i, res));
        }
    };
    let mut done = std::thread::scope(|s| {
        let spawned: Vec<_> = (1..workers.min(n)).map(|_| s.spawn(work)).collect();
        let mut done = work();
        for h in spawned {
            done.extend(h.join().expect("store worker panicked"));
        }
        done
    });
    done.sort_unstable_by_key(|(i, _)| *i);
    done.into_iter().map(|(_, res)| res).collect()
}

// ---- the handle ------------------------------------------------------------

/// One checkpoint store: root directory, write policy, the writing
/// actor's telemetry, and the [`Blobs`] backend every operation goes
/// through.
/// Cheap to build: a flush takes one view per image write
/// ([`Store::for_write`]).
pub struct Store {
    root: PathBuf,
    cfg: StoreConfig,
    tel: obs::Telemetry,
    blobs: Arc<dyn Blobs>,
    /// Must the next [`Store::gc`] sweep the whole pool? True on a new
    /// handle; set again by what may leave chunks that no recipe names:
    /// [`Store::abort`], a failed GC pass, a chunked write that replaces
    /// a recipe. Shared with the handle's [`Store::for_write`] views.
    sweep_due: Arc<AtomicBool>,
}

impl Store {
    /// The store under `root` on the local filesystem, untraced.
    pub fn open(root: impl Into<PathBuf>, cfg: StoreConfig) -> Store {
        Store::new(root, cfg, obs::Telemetry::off(), Box::new(LocalFs))
    }

    /// The store under `root` over an explicit backend. Writes record
    /// each attempt's stage timings, a final `StoreWrite` and the
    /// `mana2_store_*` counters on `tel`.
    pub fn new(
        root: impl Into<PathBuf>,
        cfg: StoreConfig,
        tel: obs::Telemetry,
        blobs: Box<dyn Blobs>,
    ) -> Store {
        Store {
            root: root.into(),
            cfg,
            tel,
            blobs: Arc::from(blobs),
            sweep_due: Arc::new(AtomicBool::new(true)),
        }
    }

    /// This store as one image write of `round` sees it: the same root,
    /// policy and backend, recording on `tel`, with `fault` — if any —
    /// armed over the backend for that write alone ([`FaultyBlobs`]).
    pub fn for_write(&self, round: u64, tel: obs::Telemetry, fault: Option<WriteFault>) -> Store {
        let mut blobs: Box<dyn Blobs> = Box::new(Arc::clone(&self.blobs));
        if let Some(fault) = fault {
            blobs = Box::new(FaultyBlobs::new(blobs, fault, tel.clone(), round as i64));
        }
        Store {
            sweep_due: Arc::clone(&self.sweep_due),
            ..Store::new(&self.root, self.cfg.clone(), tel, blobs)
        }
    }

    /// The store root.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The shared chunk pool directory.
    pub fn chunks_dir(&self) -> PathBuf {
        self.root.join(CHUNKS_DIR)
    }

    /// Pool path of one chunk: `chunks/<first-two-hex>/<64-hex>.chunk`
    /// (the shard keeps any one directory from holding the whole pool).
    pub fn chunk_path(&self, id: ChunkId) -> PathBuf {
        let (shard, name) = chunk_name(id);
        self.chunks_dir().join(shard).join(name)
    }

    /// Recipe file (`.cref`) of `rank` in chunked generation `round`.
    pub fn recipe_path(&self, round: u64, rank: usize) -> PathBuf {
        recipe_path_for(&generation_dir(&self.root, round), rank)
    }

    // ---- writes ------------------------------------------------------------

    /// Durably write the image `image` holds into its generation directory.
    /// Both layouts take the section CRCs from the buffer
    /// (`ImageBuf::checksum`: a rank's kept buffer reads only the blocks
    /// it rewrote). Flat mode seals the image in place
    /// ([`ImageBuf::seal`]) and lands the buffer as one file; chunked
    /// mode cuts its two sections where they lie, lands the chunks the
    /// pool does not hold yet, then a recipe — unless the buffer was
    /// rewritten since its previous checksum (`ImageBuf::rewritten`):
    /// no chunk of such an image was in the previous one, so it lands flat,
    /// one file, as in flat mode; and the rank's file of the other layout,
    /// if one is there, is removed first (a stale one, left by a crashed
    /// flush of this round, would shadow or pin what the manifest vouches
    /// for; a recipe so replaced, or overwritten, makes the handle's next
    /// [`Store::gc`] sweep the whole pool). Either way the rank's file is
    /// its commit point and lands
    /// last, and the outcome reports that file's intended bytes and CRC —
    /// what the coordinator is told.
    pub fn write_encoded(&self, image: &mut ImageBuf) -> Result<WriteOutcome, StoreError> {
        let (header, crc_bytes) = image.checksum();
        let head = header.head;
        let dir = generation_dir(&self.root, head.round);
        let mut out = WriteOutcome {
            logical_bytes: image.len(),
            crc_bytes,
            ..WriteOutcome::default()
        };
        let flat = self.cfg.mode == StoreMode::Flat || image.rewritten();
        // The flat file's checksum comes with its bytes, combined from the
        // section checksums its header carries; a recipe is a few hundred
        // bytes and is simply read.
        let recipe;
        let (image_path, recipe_path) = (
            CkptImage::path_for(&dir, head.rank),
            recipe_path_for(&dir, head.rank),
        );
        let (path, other, bytes) = if flat {
            let (bytes, crc) = image.seal();
            out.crc = crc;
            (image_path, recipe_path, bytes)
        } else {
            recipe = (self.write_chunks(header, image, &mut out)?).to_bytes();
            out.crc = crc32(&recipe);
            (recipe_path, image_path, &recipe[..])
        };
        // Only a chunked store lands both layouts, so only its rerun of a
        // round can find a stale sibling that the reader would prefer to
        // the rank's new file. The commit put's directory sync makes the
        // removal durable too.
        if self.cfg.mode == StoreMode::Chunked {
            let stale = self.blobs.get(&other, None).is_ok();
            // A recipe this write replaces, removed here or overwritten by
            // the put, may have named chunks no other recipe does.
            let replaced = if flat {
                stale
            } else {
                self.blobs.get(&path, None).is_ok()
            };
            if replaced {
                self.sweep_due.store(true, Ordering::Relaxed);
            }
            if stale {
                self.blobs.remove(&other)?;
            }
        }
        out.bytes = bytes.len();
        out.physical_bytes += bytes.len();
        let round = head.round as i64;
        let (retries, fsyncs) = self.put_commit(&path, bytes, round)?;
        out.retries = retries;
        // The generation directory and the pool are names in the root; a
        // write that created either is durable only once the root is.
        self.blobs.sync_dir(&self.root)?;
        out.fsyncs += fsyncs + 1;
        self.tel.event(
            round,
            obs::EventKind::StoreWrite {
                bytes: out.logical_bytes as u64,
                retries,
                crc: out.crc,
            },
        );
        // Logical vs physical: logical bytes are layout-independent (flat
        // and chunked runs report identical image sizes); physical bytes
        // are what hit the disk, so the gap between the two counters is
        // the dedup win.
        self.tel
            .add(met::STORE_BYTES_WRITTEN, out.logical_bytes as u64);
        self.tel.add(met::STORE_CRC_BYTES, out.crc_bytes as u64);
        self.tel.add(met::STORE_KEY_BYTES, out.key_bytes as u64);
        self.tel
            .add(met::STORE_PHYSICAL_BYTES, out.physical_bytes as u64);
        self.tel.add(met::STORE_WRITE_RETRIES, out.retries as u64);
        self.tel.add(met::STORE_FSYNCS, out.fsyncs as u64);
        self.tel
            .add(met::STORE_CHUNKS_WRITTEN, out.chunks_written as u64);
        self.tel
            .add(met::STORE_CHUNKS_DEDUP, out.chunks_deduped as u64);
        self.tel
            .add(met::STORE_CHUNKS_GUIDED, out.chunks_guided as u64);
        self.tel
            .add(met::STORE_FSYNC_BATCHES, out.fsync_batches as u64);
        if flat && self.cfg.mode == StoreMode::Chunked {
            self.tel.add(met::STORE_IMAGES_FLAT, 1);
        }
        Ok(out)
    }

    /// [`Store::write_encoded`] of a decoded image: its sections copied
    /// into a fresh [`ImageBuf`] (`CkptImage::buf` — the one copy a flat
    /// file needs; a chunked write pays it too), then checksummed, sealed
    /// and written as a rank's kept buffer is.
    pub fn write_image(&self, image: &CkptImage) -> Result<WriteOutcome, StoreError> {
        self.write_encoded(&mut image.buf())
    }

    /// The pool half of a chunked write: one pass over each section of
    /// `image` cuts it at content-defined boundaries and keys each chunk
    /// ([`chunk::chunk_payload`], guided by the rank's previous recipe —
    /// [`Store::guide`]); then land the chunks the pool does not hold
    /// (bounded parallel writers, then one directory sync per touched
    /// shard and one for the pool), and return the recipe naming them
    /// behind the image's `header`.
    ///
    /// A guide whose header equals the buffer's previous checksum's, field
    /// for field, is that checksum's recipe: its keys are taken for guided
    /// upper chunks in blocks unchanged since. Any other guide is keyed.
    fn write_chunks(
        &self,
        header: ImageHeader,
        image: &ImageBuf,
        out: &mut WriteOutcome,
    ) -> Result<Recipe, StoreError> {
        let head = header.head;
        let guide = self.guide(head);
        let (old_upper, old_meta) = guide.as_ref().map_or((&[][..], &[][..]), |r| {
            (&r.upper_chunks[..], &r.meta_chunks[..])
        });
        let bound = image.previous() == guide.as_ref().map(|r| r.header);
        let (upper, meta) = image.sections();
        let unchanged = |span| bound && image.unchanged(span);
        let upper = chunk::chunk_payload(upper, self.cfg.chunk, old_upper, unchanged);
        let meta = chunk::chunk_payload(meta, self.cfg.chunk, old_meta, |_| false);
        out.chunks_guided = (upper.guided + meta.guided) as u32;
        out.key_bytes = upper.keyed + meta.keyed;
        // Dedup: a chunk already in the pool (from any generation, or
        // another rank of this round) is not rewritten — if what is there
        // has the chunk's length. A shorter file is a torn write an
        // earlier round was lied to about; deduplicating against it would
        // poison every later generation. Same-length rot would cost a
        // re-hash to catch here; restart validation catches it.
        let mut fresh: BTreeMap<ChunkId, (PathBuf, &[u8])> = BTreeMap::new();
        for (cref, data) in upper.chunks.iter().chain(&meta.chunks) {
            let path = self.chunk_path(cref.id);
            let held = |len: u64| len == cref.len;
            if fresh.contains_key(&cref.id) || self.blobs.get(&path, None).is_ok_and(held) {
                out.chunks_deduped += 1;
            } else {
                fresh.insert(cref.id, (path, data));
            }
        }
        let fresh: Vec<(PathBuf, &[u8])> = fresh.into_values().collect();
        if !fresh.is_empty() {
            out.chunks_written = fresh.len() as u32;
            out.physical_bytes += fresh.iter().map(|(_, d)| d.len()).sum::<usize>();
            // Bounded worker pipeline: `chunk_writers` threads drain the
            // fresh chunk list concurrently; each chunk costs one file
            // fsync, no per-chunk directory fsync.
            let mode = PutMode::Pooled { writer: head.rank };
            fan_out(self.cfg.chunk_writers, fresh.len(), |i| {
                let (path, data) = &fresh[i];
                self.blobs.put_atomic(path, data, mode).1
            })?;
            // One batched sync round: each touched shard once, plus the
            // pool once (covers freshly created shard directories).
            let shards: BTreeSet<&Path> = fresh.iter().filter_map(|(p, _)| p.parent()).collect();
            for shard in &shards {
                self.blobs.sync_dir(shard)?;
            }
            self.blobs.sync_dir(&self.chunks_dir())?;
            out.fsyncs += out.chunks_written + shards.len() as u32 + 1;
            out.fsync_batches = 1;
        }
        let ids = |chunks: &[(ChunkRef, &[u8])]| chunks.iter().map(|(c, _)| *c).collect();
        Ok(Recipe {
            header,
            upper_chunks: ids(&upper.chunks),
            meta_chunks: ids(&meta.chunks),
        })
    }

    /// The cut points a chunked write of `head` starts from: the rank's
    /// recipe in generation `round − 1`, if one is there and parses.
    /// Anything else — a first round, an aborted predecessor, a torn or
    /// foreign recipe — is no guide, which costs the write the gear hash
    /// and nothing else.
    fn guide(&self, head: image::ImageHead) -> Option<Recipe> {
        let round = head.round.checked_sub(1)?;
        let mut bytes = Vec::new();
        self.blobs
            .get(&self.recipe_path(round, head.rank), Some(&mut bytes))
            .ok()?;
        Recipe::from_bytes(&bytes).ok()
    }

    /// Land a rank file or manifest: [`PutMode::Commit`] puts, retried
    /// with bounded exponential backoff, each attempt's stage timings
    /// recorded. Returns `(retries needed, fsyncs issued)`.
    fn put_commit(&self, path: &Path, bytes: &[u8], round: i64) -> io::Result<(u32, u32)> {
        let mut fsyncs = 0;
        let mut attempt = 0;
        loop {
            if attempt > 0 {
                std::thread::sleep(self.cfg.retry_backoff * 2u32.saturating_pow(attempt - 1));
            }
            let (cost, res) = self.blobs.put_atomic(path, bytes, PutMode::Commit);
            fsyncs += cost.fsyncs;
            attempt += 1;
            self.tel.event(
                round,
                obs::EventKind::StoreAttempt {
                    attempt,
                    write_ns: cost.write_ns,
                    fsync_ns: cost.fsync_ns,
                    rename_ns: cost.rename_ns,
                    ok: res.is_ok(),
                },
            );
            match res {
                Ok(()) => return Ok((attempt - 1, fsyncs)),
                Err(e) if attempt >= self.cfg.retry_attempts => return Err(e),
                Err(_) => {}
            }
        }
    }

    /// Durably write the manifest of generation `manifest.round`, marking
    /// it committed. The caller (the coordinator) must only do this after
    /// every rank reported a successful image write.
    pub fn commit(&self, manifest: &Manifest) -> Result<(), StoreError> {
        let path = Manifest::path_in(&generation_dir(&self.root, manifest.round));
        self.put_commit(&path, &manifest.to_bytes(), manifest.round as i64)?;
        Ok(())
    }

    /// Remove generation `round` entirely (partial images of an aborted
    /// round). A missing generation is fine. The chunks the round landed
    /// are named by no recipe that survives, so the handle's next
    /// [`Store::gc`] sweeps the whole pool.
    pub fn abort(&self, round: u64) -> io::Result<()> {
        self.sweep_due.store(true, Ordering::Relaxed);
        match self.blobs.remove(&generation_dir(&self.root, round)) {
            Ok(()) => self.blobs.sync_dir(&self.root),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e),
        }
    }

    // ---- listing, GC -------------------------------------------------------

    /// Read the manifest of generation `round`.
    pub fn read_manifest(&self, round: u64) -> Result<Manifest, StoreError> {
        let path = Manifest::path_in(&generation_dir(&self.root, round));
        let mut buf = Vec::new();
        self.blobs.get(&path, Some(&mut buf))?;
        Manifest::from_bytes(&buf).map_err(|error| StoreError::BadManifest { path, error })
    }

    /// All generations, oldest first. A missing root is an empty store.
    pub fn list(&self) -> io::Result<Vec<GenInfo>> {
        Ok(self.generations(self.blobs.list(&self.root)?))
    }

    /// The generations among `entries` — a listing of the root — oldest
    /// first.
    fn generations(&self, entries: Vec<BlobEntry>) -> Vec<GenInfo> {
        let mut gens = Vec::new();
        for entry in entries {
            let Some(round) = parse_generation_name(&entry.name).filter(|_| entry.is_dir) else {
                continue;
            };
            let dir = self.root.join(&entry.name);
            gens.push(GenInfo {
                round,
                committed: self.blobs.get(&Manifest::path_in(&dir), None).is_ok(),
                dir,
            });
        }
        gens.sort_by_key(|g| g.round);
        gens
    }

    /// Garbage-collect: old generations first, then the pool chunks only
    /// they referenced, then the restart-journal epochs older than the
    /// newest committed one (and a legacy journal file, once one has
    /// committed). Must not run concurrently with image writes; the
    /// coordinator runs it between rounds.
    ///
    /// The root is listed once. Without a pool in it, no recipe is read.
    /// Otherwise the retired generations' recipes are read before their
    /// directories go, and only the chunks they name are swept — a few
    /// removals, no listing of the pool. The whole pool is swept instead
    /// when the garbage may be named by no recipe: on the handle's first
    /// pass (litter and orphans of a killed process or an interrupted
    /// pass), on the first after [`Store::abort`] or after a failed pass,
    /// after a chunked write replaced a recipe, and when a retired
    /// generation is uncommitted or one of its recipes does not read.
    pub fn gc(&self, retain: usize) -> io::Result<GcOutcome> {
        let gc = self.collect(retain);
        if gc.is_err() {
            self.sweep_due.store(true, Ordering::Relaxed);
        }
        gc
    }

    /// One [`Store::gc`] pass.
    fn collect(&self, retain: usize) -> io::Result<GcOutcome> {
        let entries = self.blobs.list(&self.root)?;
        let pooled = (entries.iter()).any(|e| e.is_dir && e.name == CHUNKS_DIR);
        let (retired, kept) = self.retire(self.generations(entries), retain);
        // Taken on by this pass; `gc` sets it again if the pass fails.
        let mut whole = pooled && self.sweep_due.swap(false, Ordering::Relaxed);
        let mut named = BTreeSet::new();
        if pooled {
            for gen in &retired {
                if whole {
                    break;
                }
                let recipes = self.gen_recipes(gen.clone())?;
                whole = !gen.committed || recipes.recipes.iter().any(|(_, r)| r.is_err());
                named.extend(recipes.refs().map(|c| c.id));
            }
        }
        let generations = self.remove_generations(&retired)?;
        let chunks = if pooled && (whole || !named.is_empty()) {
            let live = self.live(kept)?;
            let shards = match whole {
                true => self.pool_inventory()?,
                false => self.shards_of(named.difference(&live).copied()),
            };
            self.sweep(&shards, &live)?
        } else {
            ChunkGcOutcome::default()
        };
        Ok(GcOutcome {
            generations,
            chunks,
            journal_epochs: crate::journal::gc(self.blobs.as_ref(), &self.root)?,
        })
    }

    /// Split `gens` into the ones GC retires and the ones it keeps. Kept:
    /// the newest `retain` committed generations (floor 1 — GC never
    /// deletes the only good checkpoint), whatever is newer, and any
    /// generation pinned by an open restart-journal epoch
    /// ([`crate::journal::pinned_in`]): GC must not collect what a
    /// restart is reading. Retired: everything older, stale uncommitted
    /// directories of aborted rounds included.
    fn retire(&self, gens: Vec<GenInfo>, retain: usize) -> (Vec<GenInfo>, Vec<GenInfo>) {
        let committed: Vec<u64> = gens
            .iter()
            .filter(|g| g.committed)
            .map(|g| g.round)
            .collect();
        let Some(&newest) = committed.last() else {
            return (Vec::new(), gens);
        };
        // Oldest committed round we keep.
        let keep_from = committed[committed.len().saturating_sub(retain.max(1))];
        let pinned = crate::journal::pinned_in(self.blobs.as_ref(), &self.root);
        gens.into_iter().partition(|g| {
            let stale = if g.committed {
                g.round < keep_from
            } else {
                g.round < newest
            };
            stale && !pinned.contains(&g.round)
        })
    }

    /// Remove the generation directories of `retired`, then sync the
    /// root once. Returns their rounds.
    fn remove_generations(&self, retired: &[GenInfo]) -> io::Result<Vec<u64>> {
        for g in retired {
            self.blobs.remove(&g.dir)?;
        }
        if !retired.is_empty() {
            self.blobs.sync_dir(&self.root)?;
        }
        Ok(retired.iter().map(|g| g.round).collect())
    }

    /// The generation half of [`Store::gc`]: [`Store::retire`] applied.
    fn gc_generations(&self, retain: usize) -> io::Result<Vec<u64>> {
        let (retired, _) = self.retire(self.list()?, retain);
        self.remove_generations(&retired)
    }

    /// Mark-and-sweep the whole chunk pool against every generation's
    /// recipes: what [`Store::gc`] does on a handle's first pass.
    fn gc_chunks(&self) -> io::Result<ChunkGcOutcome> {
        let shards = self.pool_inventory()?;
        if shards.is_empty() {
            return Ok(ChunkGcOutcome::default());
        }
        self.sweep(&shards, &self.live(self.list()?)?)
    }

    /// GC's mark phase: every chunk a parsed recipe of `gens` names.
    fn live(&self, gens: Vec<GenInfo>) -> io::Result<BTreeSet<ChunkId>> {
        let mut live = BTreeSet::new();
        for gen in gens {
            live.extend(self.gen_recipes(gen)?.refs().map(|c| c.id));
        }
        Ok(live)
    }

    /// GC's one sweep, over candidates by shard — the whole pool
    /// ([`Store::pool_inventory`]) or the chunks the retired generations'
    /// recipes named ([`Store::shards_of`]): remove every candidate chunk
    /// not `live`, and all tmp litter; then sync each touched shard once,
    /// then the pool. A chunk landed for a recipe not yet written is not
    /// live, which is why GC and image writes must not overlap.
    fn sweep(&self, shards: &[PoolShard], live: &BTreeSet<ChunkId>) -> io::Result<ChunkGcOutcome> {
        let mut outcome = ChunkGcOutcome::default();
        // Every removal first, then the syncs: the first commits all the
        // removals at once on a journaling filesystem, the rest are cheap.
        // A candidate already gone is no error.
        let mut touched = Vec::new();
        for shard in shards {
            let remove = |name: &String| match self.blobs.remove(&shard.dir.join(name)) {
                Ok(()) => Ok(1),
                Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(0),
                Err(e) => Err(e),
            };
            let (mut chunks, mut tmp) = (0, 0);
            for (id, name) in &shard.chunks {
                if !live.contains(id) {
                    chunks += remove(name)?;
                }
            }
            for name in &shard.tmp {
                tmp += remove(name)?;
            }
            if chunks + tmp > 0 {
                touched.push(&shard.dir);
            }
            outcome.removed += chunks;
        }
        for dir in &touched {
            self.blobs.sync_dir(dir)?;
        }
        if !touched.is_empty() {
            self.blobs.sync_dir(&self.chunks_dir())?;
        }
        Ok(outcome)
    }

    /// The chunk pool's shard directories, their files classified by name
    /// alone ([`PoolShard`]), so it reads no chunk. [`Store::gc`] sweeps
    /// from it only when recipes cannot name the garbage; `mana2-inspect
    /// chunks` prints from it. No shard: no pool.
    pub fn pool_inventory(&self) -> io::Result<Vec<PoolShard>> {
        let mut shards = Vec::new();
        let dirs = self.blobs.list(&self.chunks_dir())?.into_iter();
        for entry in dirs.filter(|entry| entry.is_dir) {
            let mut shard = PoolShard {
                dir: self.chunks_dir().join(&entry.name),
                ..PoolShard::default()
            };
            for entry in self.blobs.list(&shard.dir)? {
                match entry
                    .name
                    .strip_suffix(".chunk")
                    .and_then(ChunkId::from_hex)
                {
                    Some(id) => shard.chunks.push((id, entry.name)),
                    None if entry.name.starts_with(".tmp-") => shard.tmp.push(entry.name),
                    None => shard.foreign += 1,
                }
            }
            shards.push(shard);
        }
        Ok(shards)
    }

    /// The chunks `ids` by shard, named without listing anything.
    fn shards_of(&self, ids: impl Iterator<Item = ChunkId>) -> Vec<PoolShard> {
        let mut shards: BTreeMap<String, PoolShard> = BTreeMap::new();
        for id in ids {
            let (shard, name) = chunk_name(id);
            let entry = shards.entry(shard.clone()).or_insert_with(|| PoolShard {
                dir: self.chunks_dir().join(&shard),
                ..PoolShard::default()
            });
            entry.chunks.push((id, name));
        }
        shards.into_values().collect()
    }

    /// Every surviving generation ([`Store::list`], oldest first) with
    /// each of its `.cref` files read and parsed: what a whole-pool sweep
    /// marks from.
    pub fn recipes(&self) -> io::Result<Vec<GenRecipes>> {
        let gens = self.list()?.into_iter();
        gens.map(|gen| self.gen_recipes(gen)).collect()
    }

    /// Generation `gen` with each of its `.cref` files read and parsed.
    fn gen_recipes(&self, gen: GenInfo) -> io::Result<GenRecipes> {
        let read = |path: PathBuf| {
            let mut bytes = Vec::new();
            let recipe = self.blobs.get(&path, Some(&mut bytes)).and_then(|_| {
                Recipe::from_bytes(&bytes)
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
            });
            (path, recipe)
        };
        let names = self.blobs.list(&gen.dir)?.into_iter().map(|e| e.name);
        let crefs = names.filter(|name| name.ends_with(".cref"));
        let recipes = crefs.map(|name| read(gen.dir.join(name))).collect();
        Ok(GenRecipes { gen, recipes })
    }

    // ---- validation & selection --------------------------------------------

    /// Fully validate generation `round`: manifest present and
    /// self-consistent, agreeing with `round` (and `world` when given),
    /// exactly one image per rank, every image parseable (magic, version,
    /// section CRCs) with header fields and whole-file CRC matching the
    /// manifest. Returns the manifest on success, a rejection otherwise.
    ///
    /// With `only`, manifest-level checks stay global but only the listed
    /// ranks' images are opened. This is what partial restart needs: the
    /// replaced ranks must restore from pristine images, while a survivor
    /// whose *manifest entry* disagrees must not veto (it is read
    /// leniently later). Images are dropped as they check out, so memory
    /// stays bounded by the verifying workers; restart, which consumes
    /// what it verifies, uses [`Store::select_at`].
    pub fn validate(
        &self,
        round: u64,
        world: Option<usize>,
        only: Option<&[u64]>,
    ) -> Result<Manifest, Rejection> {
        let manifest = self.check_manifest(round, world)?;
        self.verify_ranks(&manifest, only, false)?;
        Ok(manifest)
    }

    /// [`Store::validate`], keeping what was verified: the [`Selected`]
    /// carries the image of every rank that was read, so restart restores
    /// from the very bytes validation checked.
    pub fn select_at(
        &self,
        round: u64,
        world: Option<usize>,
        only: Option<&[u64]>,
    ) -> Result<Selected, Rejection> {
        let manifest = self.check_manifest(round, world)?;
        let images = self.verify_ranks(&manifest, only, true)?;
        Ok(Selected {
            round,
            dir: generation_dir(&self.root, round),
            manifest,
            rejected: Vec::new(),
            images,
        })
    }

    /// Scan newest-first and return the newest globally-complete
    /// generation: committed manifest, every rank image (or every `only`
    /// rank's — see [`Store::validate`]) present and valid. Ranks outside
    /// `only` cannot veto and are absent from [`Selected::images`].
    pub fn select(
        &self,
        world: Option<usize>,
        only: Option<&[u64]>,
    ) -> Result<Selected, StoreError> {
        let mut rejected = Vec::new();
        for g in self.list()?.iter().rev() {
            match self.select_at(g.round, world, only) {
                Ok(sel) => return Ok(Selected { rejected, ..sel }),
                Err(rej) => rejected.push(RejectedGeneration {
                    round: g.round,
                    code: rej.code,
                    reason: rej.reason,
                }),
            }
        }
        Err(StoreError::NoUsableGeneration {
            root: self.root.clone(),
            rejected,
        })
    }

    /// Load one rank's image of generation `round`, whatever its layout
    /// (flat `.mana` file, else `.cref` recipe reassembled from the pool).
    /// No manifest is consulted: everything the image vouches for itself
    /// (section CRCs, chunk hashes) is checked, the whole-file CRC is
    /// not. Restart uses it for the survivors of a partial restart.
    pub fn load_image(&self, round: u64, rank: usize) -> Result<ImageBuf, StoreError> {
        self.load_from(&generation_dir(&self.root, round), rank)
    }

    fn load_from(&self, dir: &Path, rank: usize) -> Result<ImageBuf, StoreError> {
        self.read_verified(dir, rank, None)
            .map_err(|Rejection { code, reason }| StoreError::Rejected { rank, code, reason })
    }

    /// The manifest-level half of validation: present, self-consistent,
    /// agreeing with the directory's `round` and the runtime's world size,
    /// and listing exactly ranks `0..world_size`.
    fn check_manifest(&self, round: u64, world: Option<usize>) -> Result<Manifest, Rejection> {
        use obs::RejectCode as C;
        let manifest = match self.read_manifest(round) {
            Ok(m) => m,
            Err(StoreError::Io(e)) if e.kind() == io::ErrorKind::NotFound => {
                return Err(Rejection::new(C::Uncommitted, "uncommitted (no MANIFEST)"));
            }
            Err(e) => return Err(Rejection::new(C::BadManifest, e.to_string())),
        };
        if manifest.round != round {
            return Err(Rejection::new(
                C::RoundMismatch,
                format!(
                    "manifest round {} disagrees with directory round {round}",
                    manifest.round
                ),
            ));
        }
        if let Some(w) = world {
            if manifest.world_size != w as u64 {
                return Err(Rejection::new(
                    C::WorldMismatch,
                    format!(
                        "manifest world size {} != runtime world size {w}",
                        manifest.world_size
                    ),
                ));
            }
        }
        if manifest.entries.len() as u64 != manifest.world_size {
            return Err(Rejection::new(
                C::BadManifest,
                format!(
                    "manifest has {} entries for world size {}",
                    manifest.entries.len(),
                    manifest.world_size
                ),
            ));
        }
        let mut ranks: Vec<u64> = manifest.entries.iter().map(|e| e.rank).collect();
        ranks.sort_unstable();
        if ranks.iter().enumerate().any(|(i, &r)| r != i as u64) {
            return Err(Rejection::new(
                C::BadManifest,
                format!("manifest ranks are not exactly 0..{}", manifest.world_size),
            ));
        }
        Ok(manifest)
    }

    /// Verify the manifest's rank images — all of them, or the `only`
    /// subset — and return one slot per world rank; with `keep`, the slot
    /// of every verified rank holds its image (without, each image is
    /// dropped as soon as it checks out, so memory stays bounded by the
    /// workers). Ranks are independent, so [`fan_out`] verifies them on up
    /// to `available_parallelism()` threads and reports the lowest-rank
    /// rejection — the one a serial loop would have stopped at.
    fn verify_ranks(
        &self,
        manifest: &Manifest,
        only: Option<&[u64]>,
        keep: bool,
    ) -> Result<Vec<Option<ImageBuf>>, Rejection> {
        let dir = generation_dir(&self.root, manifest.round);
        let mut todo: Vec<&ManifestEntry> = manifest
            .entries
            .iter()
            .filter(|e| only.is_none_or(|only| only.contains(&e.rank)))
            .collect();
        todo.sort_unstable_by_key(|e| e.rank);
        let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
        let verified = fan_out(workers, todo.len(), |i| {
            self.verify_rank(&dir, manifest, todo[i])
                .map(|image| keep.then_some(image))
        })?;
        let mut images: Vec<_> = manifest.entries.iter().map(|_| None).collect();
        for (entry, image) in todo.iter().zip(verified) {
            images[entry.rank as usize] = image;
        }
        Ok(images)
    }

    /// One rank of [`Store::verify_ranks`]: read and verify the image
    /// against its manifest entry, then cross-check what it says of itself
    /// against the manifest.
    fn verify_rank(
        &self,
        dir: &Path,
        manifest: &Manifest,
        entry: &ManifestEntry,
    ) -> Result<ImageBuf, Rejection> {
        use obs::RejectCode as C;
        let image = self.read_verified(dir, entry.rank as usize, Some(entry))?;
        let head = image.head();
        if head.rank as u64 != entry.rank {
            return Err(Rejection::new(
                C::BadImage,
                format!("rank {} image claims rank {}", entry.rank, head.rank),
            ));
        }
        if head.world_size as u64 != manifest.world_size {
            return Err(Rejection::new(
                C::BadImage,
                format!(
                    "rank {} image world size {} != manifest world size {}",
                    entry.rank, head.world_size, manifest.world_size
                ),
            ));
        }
        if head.round != manifest.round {
            return Err(Rejection::new(
                C::BadImage,
                format!(
                    "rank {} image round {} != manifest round {}",
                    entry.rank, head.round, manifest.round
                ),
            ));
        }
        Ok(image)
    }

    /// The only reader of rank images. Reads one from generation
    /// directory `dir`, whatever its layout, into the buffer the rank
    /// restores from (`ImageBuf::verified`), checking the rank's file (flat
    /// `.mana` image, else `.cref` recipe) against its manifest `entry`
    /// when given (size, whole-file CRC) and against itself.
    ///
    /// A flat image's payload bytes are read once, by the block pass; its
    /// whole-file CRC is combined from the header's. A damaged file is a
    /// [`CorruptImage`] if its bytes are not the ones the manifest vouches
    /// for and a [`BadImage`] only if they are; telling the two apart when
    /// the header's CRCs are not the manifest's costs one more read.
    ///
    /// A chunked image is the recipe (whole-file CRC against the manifest,
    /// then its own checksum) and every chunk's presence, length and
    /// content hash ([`chunk::chunk_id`]), assembled behind a zero gap.
    ///
    /// [`CorruptImage`]: obs::RejectCode::CorruptImage
    /// [`BadImage`]: obs::RejectCode::BadImage
    fn read_verified(
        &self,
        dir: &Path,
        rank: usize,
        entry: Option<&ManifestEntry>,
    ) -> Result<ImageBuf, Rejection> {
        use obs::RejectCode as C;
        let unreadable = |e: io::Error| {
            Rejection::new(
                C::MissingImage,
                format!("rank {rank} image unreadable: {e}"),
            )
        };
        let mut bytes = Vec::new();
        let flat = self
            .blobs
            .get(&CkptImage::path_for(dir, rank), Some(&mut bytes));
        let chunked = match flat {
            Ok(_) => false,
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                self.blobs
                    .get(&recipe_path_for(dir, rank), Some(&mut bytes))
                    .map_err(unreadable)?;
                true
            }
            Err(e) => return Err(unreadable(e)),
        };
        if let Some(entry) = entry {
            if bytes.len() as u64 != entry.bytes {
                return Err(Rejection::new(
                    C::TornImage,
                    format!(
                        "rank {rank} image is {} bytes, manifest says {} (torn write)",
                        bytes.len(),
                        entry.bytes
                    ),
                ));
            }
        }
        let corrupt = || {
            Rejection::new(
                C::CorruptImage,
                format!("rank {rank} image CRC mismatch against manifest (corrupt image)"),
            )
        };
        let invalid =
            |e: ImageError| Rejection::new(C::BadImage, format!("rank {rank} image invalid: {e}"));
        let vouched = |crc: u32| entry.is_none_or(|entry| crc == entry.crc);
        if !chunked {
            // The file's CRC if its sections are what its header says.
            let header = ImageHeader::of_file(&bytes);
            let file_crc = |h: &ImageHeader| h.file_crc(&bytes[..HEADER_LEN]);
            let claimed = header.as_ref().ok().map(file_crc);
            if !claimed.is_some_and(vouched) && !vouched(crc32(&bytes)) {
                return Err(corrupt());
            }
            // Sections that fail a header the manifest vouched for are not
            // the bytes it was told about.
            let told = entry.is_some() && claimed.is_some_and(vouched);
            let image = header.and_then(|header| ImageBuf::verified(header, bytes));
            return image.map_err(|e| if told { corrupt() } else { invalid(e) });
        }
        if !vouched(crc32(&bytes)) {
            return Err(corrupt());
        }
        let recipe = Recipe::from_bytes(&bytes)
            .map_err(|e| Rejection::new(C::BadImage, format!("rank {rank} recipe invalid: {e}")))?;
        // A damaged chunk rejects the image just like a damaged flat file
        // would.
        let h = recipe.header;
        let mut payload = vec![0; HEADER_LEN];
        payload.reserve(h.upper_len.saturating_add(h.meta_len).min(1 << 30));
        for (refs, len, section) in [
            (&recipe.upper_chunks, h.upper_len, "upper"),
            (&recipe.meta_chunks, h.meta_len, "meta"),
        ] {
            self.assemble(refs, len, section, &mut payload)
                .map_err(|rej| Rejection::new(rej.code, format!("rank {rank}: {}", rej.reason)))?;
        }
        ImageBuf::verified(h, payload).map_err(|e| {
            let ImageError::BadCrc { section } = e else {
                unreachable!("a buffer checks CRCs alone")
            };
            Rejection::new(
                C::CorruptImage,
                format!("rank {rank}: {section} payload CRC mismatch after reassembly"),
            )
        })
    }

    /// Read, verify and append to `out` every chunk of one section: presence,
    /// exact length, and identity against its content address
    /// ([`chunk::chunk_id`]) — a wrong-hash chunk rejects the payload.
    fn assemble(
        &self,
        refs: &[ChunkRef],
        expected_len: usize,
        section: &str,
        out: &mut Vec<u8>,
    ) -> Result<(), Rejection> {
        use obs::RejectCode as C;
        let begin = out.len();
        for cref in refs {
            let start = out.len();
            self.blobs
                .get(&self.chunk_path(cref.id), Some(out))
                .map_err(|e| {
                    Rejection::new(
                        C::MissingImage,
                        format!("{section} chunk {} unreadable: {e}", cref.id),
                    )
                })?;
            let data = &out[start..];
            if data.len() as u64 != cref.len {
                return Err(Rejection::new(
                    C::TornImage,
                    format!(
                        "{section} chunk {} is {} bytes, recipe says {} (torn chunk)",
                        cref.id,
                        data.len(),
                        cref.len
                    ),
                ));
            }
            if chunk::chunk_id(data) != cref.id {
                return Err(Rejection::new(
                    C::CorruptImage,
                    format!("{section} chunk {} content hash mismatch", cref.id),
                ));
            }
        }
        if out.len() - begin != expected_len {
            return Err(Rejection::new(
                C::TornImage,
                format!(
                    "{section} payload is {} bytes, recipe says {expected_len}",
                    out.len() - begin
                ),
            ));
        }
        Ok(())
    }
}

// ---- frozen wrappers -------------------------------------------------------
//
// `benchmark/src/layers.rs` compiles against these seven and
// `generation_dir`, and a program PR may not touch `benchmark/`. Each opens
// a `Store` and calls one method; a benchmark PR retires them.

/// [`Store::list`] of the store under `root`.
pub fn list_generations(root: &Path) -> io::Result<Vec<GenInfo>> {
    Store::open(root, StoreConfig::default()).list()
}

/// [`Store::select`] over every rank of the store under `root`.
pub fn select_generation(root: &Path, world: Option<usize>) -> Result<Selected, StoreError> {
    Store::open(root, StoreConfig::default()).select(world, None)
}

/// [`Store::load_image`] by generation directory instead of round, copied
/// out of the buffer it was read into.
pub fn load_image(dir: &Path, rank: usize) -> Result<CkptImage, StoreError> {
    let store = Store::open(dir.parent().unwrap_or(dir), StoreConfig::default());
    store
        .load_from(dir, rank)
        .map(|image| CkptImage::from(&image))
}

/// [`Store::write_image`] into the store under `root`, over a
/// [`FaultyBlobs`] when `fault` is given ([`Store::for_write`]).
pub fn write_image(
    root: &Path,
    image: &CkptImage,
    cfg: &StoreConfig,
    fault: Option<&WriteFault>,
) -> Result<WriteOutcome, StoreError> {
    let store = Store::open(root, cfg.clone());
    let fault = fault.copied();
    (store.for_write(image.round, obs::Telemetry::off(), fault)).write_image(image)
}

/// [`Store::commit`] into the store under `root`.
pub fn commit_generation(
    root: &Path,
    manifest: &Manifest,
    cfg: &StoreConfig,
) -> Result<(), StoreError> {
    Store::open(root, cfg.clone()).commit(manifest)
}

/// The generation half of [`Store::gc`], on a fresh handle. Returns the
/// removed rounds.
pub fn gc_generations(root: &Path, retain: usize) -> io::Result<Vec<u64>> {
    Store::open(root, StoreConfig::default()).gc_generations(retain)
}

/// The chunk-pool half of [`Store::gc`] as a fresh handle's first pass
/// runs it: the whole pool swept against every generation's recipes.
pub fn gc_chunks(root: &Path) -> io::Result<ChunkGcOutcome> {
    Store::open(root, StoreConfig::default()).gc_chunks()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{Encode, Reader};
    use crate::image::ImageHead;
    use std::fs;

    /// A read-side handle on the store under `root`.
    fn at(root: &Path) -> Store {
        Store::open(root, StoreConfig::default())
    }

    /// The images a selection holds, each copied out of its buffer.
    fn copied(sel: &Selected) -> Vec<Option<CkptImage>> {
        let copy = |image: &Option<ImageBuf>| image.as_ref().map(CkptImage::from);
        sel.images.iter().map(copy).collect()
    }

    fn tdir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("mana2_store_{}_{}", name, std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    fn image(rank: usize, world: usize, round: u64) -> CkptImage {
        CkptImage {
            rank,
            world_size: world,
            round,
            upper: vec![rank as u8; 40 + rank],
            meta: vec![0xA5; 16],
        }
    }

    /// Write and commit a full generation of `world` ranks.
    fn commit_round(root: &Path, world: usize, round: u64) {
        let cfg = StoreConfig::default();
        let mut entries = Vec::new();
        for rank in 0..world {
            let out = write_image(root, &image(rank, world, round), &cfg, None).unwrap();
            entries.push(ManifestEntry {
                rank: rank as u64,
                bytes: out.bytes as u64,
                crc: out.crc,
            });
        }
        commit_generation(
            root,
            &Manifest {
                round,
                world_size: world as u64,
                entries,
            },
            &cfg,
        )
        .unwrap();
    }

    #[test]
    fn manifest_roundtrip_and_corruption() {
        let m = Manifest {
            round: 3,
            world_size: 2,
            entries: vec![
                ManifestEntry {
                    rank: 0,
                    bytes: 100,
                    crc: 7,
                },
                ManifestEntry {
                    rank: 1,
                    bytes: 101,
                    crc: 8,
                },
            ],
        };
        let bytes = m.to_bytes();
        assert_eq!(Manifest::from_bytes(&bytes).unwrap(), m);
        let mut bad = bytes.clone();
        bad[14] ^= 0xFF;
        let err = Manifest::from_bytes(&bad).unwrap_err();
        assert!(err.to_string().contains("CRC"), "{err}");
        // The trailer is checked before anything is decoded: a short file
        // fails its CRC.
        assert_eq!(
            Manifest::from_bytes(&bytes[..bytes.len() - 1]),
            Err(FormatError::BadChecksum("manifest"))
        );
    }

    #[test]
    fn commit_and_select_happy_path() {
        let root = tdir("happy");
        commit_round(&root, 2, 0);
        let sel = select_generation(&root, Some(2)).unwrap();
        assert_eq!(sel.round, 0);
        assert!(sel.rejected.is_empty());
        assert_eq!(sel.manifest.entries.len(), 2);
        // What the writer reported (combined from section CRCs) is the
        // CRC of the file as it sits on disk.
        for entry in &sel.manifest.entries {
            let file = fs::read(CkptImage::path_for(&sel.dir, entry.rank as usize)).unwrap();
            assert_eq!((entry.bytes, entry.crc), (file.len() as u64, crc32(&file)));
        }
        let back = load_image(&sel.dir, 1).unwrap();
        assert_eq!(back, image(1, 2, 0));
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn torn_write_rejected_and_falls_back() {
        let root = tdir("torn");
        let cfg = StoreConfig::default();
        commit_round(&root, 2, 0);
        // Round 1: rank 1's write is torn after the apparent commit; the
        // deceived writer still reports intended bytes/CRC, so the
        // manifest commits over a truncated file.
        let mut entries = Vec::new();
        for rank in 0..2usize {
            let fault = (rank == 1).then_some(WriteFault::Torn { offset: 13 });
            let out = write_image(&root, &image(rank, 2, 1), &cfg, fault.as_ref()).unwrap();
            entries.push(ManifestEntry {
                rank: rank as u64,
                bytes: out.bytes as u64,
                crc: out.crc,
            });
        }
        commit_generation(
            &root,
            &Manifest {
                round: 1,
                world_size: 2,
                entries,
            },
            &cfg,
        )
        .unwrap();
        let sel = select_generation(&root, Some(2)).unwrap();
        assert_eq!(sel.round, 0, "must fall back to the older generation");
        assert_eq!(sel.rejected.len(), 1);
        assert_eq!(sel.rejected[0].round, 1);
        assert!(
            sel.rejected[0].reason.contains("rank 1"),
            "rejection must name the failing rank: {}",
            sel.rejected[0].reason
        );
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn bit_flip_rejected_and_falls_back() {
        let root = tdir("flip");
        let cfg = StoreConfig::default();
        commit_round(&root, 2, 0);
        let mut entries = Vec::new();
        for rank in 0..2usize {
            let fault = (rank == 0).then_some(WriteFault::BitFlip { offset: 977 });
            let out = write_image(&root, &image(rank, 2, 1), &cfg, fault.as_ref()).unwrap();
            entries.push(ManifestEntry {
                rank: rank as u64,
                bytes: out.bytes as u64,
                crc: out.crc,
            });
        }
        commit_generation(
            &root,
            &Manifest {
                round: 1,
                world_size: 2,
                entries,
            },
            &cfg,
        )
        .unwrap();
        let sel = select_generation(&root, Some(2)).unwrap();
        assert_eq!(sel.round, 0);
        assert!(
            sel.rejected[0].reason.contains("CRC") || sel.rejected[0].reason.contains("invalid")
        );
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn transient_write_error_retries_to_success() {
        let root = tdir("transient");
        let cfg = StoreConfig::default(); // 4 attempts
        let out = write_image(
            &root,
            &image(0, 1, 0),
            &cfg,
            Some(&WriteFault::Error { attempts: 2 }),
        )
        .unwrap();
        assert_eq!(out.retries, 2, "first two attempts fail, third lands");
        let back = load_image(&generation_dir(&root, 0), 0).unwrap();
        assert_eq!(back, image(0, 1, 0));
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn persistent_write_error_fails_and_leaves_no_final_file() {
        let root = tdir("dead_disk");
        let cfg = StoreConfig::default();
        let err = write_image(
            &root,
            &image(0, 1, 0),
            &cfg,
            Some(&WriteFault::Error { attempts: u32::MAX }),
        )
        .unwrap_err();
        assert!(err.to_string().contains("injected"));
        let dir = generation_dir(&root, 0);
        assert!(!CkptImage::path_for(&dir, 0).exists());
        // No tmp litter either (a missing directory lists as empty: no
        // put ever reached the disk to create it).
        let leftovers = LocalFs.list(&dir).unwrap();
        assert!(leftovers.is_empty(), "{leftovers:?}");
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn uncommitted_generation_is_never_selected() {
        let root = tdir("uncommitted");
        let cfg = StoreConfig::default();
        commit_round(&root, 2, 0);
        // Round 1: images written but never committed (no MANIFEST).
        for rank in 0..2usize {
            write_image(&root, &image(rank, 2, 1), &cfg, None).unwrap();
        }
        let sel = select_generation(&root, Some(2)).unwrap();
        assert_eq!(sel.round, 0);
        assert!(sel.rejected[0].reason.contains("uncommitted"));
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn abort_removes_partial_generation() {
        let root = tdir("abort");
        let cfg = StoreConfig::default();
        write_image(&root, &image(0, 2, 5), &cfg, None).unwrap();
        assert!(generation_dir(&root, 5).exists());
        at(&root).abort(5).unwrap();
        assert!(!generation_dir(&root, 5).exists());
        // Aborting a non-existent round is fine.
        at(&root).abort(99).unwrap();
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn gc_retains_newest_committed_and_sweeps_stale_partials() {
        let root = tdir("gc");
        for round in 0..4u64 {
            commit_round(&root, 2, round);
        }
        // Demote round 2 to a stale partial (aborted round that left
        // images but no manifest).
        fs::remove_file(Manifest::path_in(&generation_dir(&root, 2))).unwrap();
        let removed = gc_generations(&root, 2).unwrap();
        // Committed are {0, 1, 3}; retain 2 keeps {1, 3}; the partial 2
        // is older than the newest committed generation and is swept.
        assert_eq!(removed, vec![0, 2]);
        let left: Vec<u64> = list_generations(&root)
            .unwrap()
            .iter()
            .map(|g| g.round)
            .collect();
        assert_eq!(left, vec![1, 3]);
        // retain floor: retain 0 behaves as 1, never deleting the only
        // remaining newest committed generation.
        let removed = gc_generations(&root, 0).unwrap();
        assert_eq!(removed, vec![1]);
        assert_eq!(list_generations(&root).unwrap().len(), 1);
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn gc_never_collects_generation_pinned_by_open_journal_epoch() {
        use crate::journal::{Journal, JournalStep};
        let root = tdir("gc_pin");
        for round in 0..4u64 {
            commit_round(&root, 2, round);
        }
        // A restart of gen 0 is in flight: intent + validation journaled,
        // not yet committed. Even with retain=1 (which would normally
        // keep only gen 3), gen 0 must survive the GC racing the restart.
        let mut j = Journal::open(&root).unwrap();
        j.append(
            0,
            JournalStep::RestartIntent {
                gen: 0,
                failed: vec![],
            },
        )
        .unwrap();
        j.append(0, JournalStep::GenValidated { gen: 0 }).unwrap();
        drop(j);
        let removed = gc_generations(&root, 1).unwrap();
        assert_eq!(removed, vec![1, 2], "pinned gen 0 must not be removed");
        assert!(generation_dir(&root, 0).exists());
        assert!(at(&root).validate(0, Some(2), None).is_ok());
        // Once the epoch commits the pin is released and GC may collect.
        let mut j = Journal::open(&root).unwrap();
        j.append(0, JournalStep::RestartCommitted).unwrap();
        drop(j);
        let removed = gc_generations(&root, 1).unwrap();
        assert_eq!(removed, vec![0]);
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn subset_validation_ignores_survivor_image_damage() {
        let root = tdir("subset");
        commit_round(&root, 3, 0);
        let dir = generation_dir(&root, 0);
        // Rot rank 2's image on disk after commit (flip one byte).
        let path = CkptImage::path_for(&dir, 2);
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();
        // Full validation rejects the generation…
        let rej = at(&root).validate(0, Some(3), None).unwrap_err();
        assert_eq!(rej.code, obs::RejectCode::CorruptImage);
        assert!(rej.reason.contains("rank 2"), "{}", rej.reason);
        // …but a partial restart replacing only ranks {0, 1} never reads
        // rank 2's image, so the generation is still usable for it.
        let m = at(&root).validate(0, Some(3), Some(&[0, 1])).unwrap();
        assert_eq!(m.world_size, 3);
        let sel = at(&root).select(Some(3), Some(&[0, 1])).unwrap();
        assert_eq!(sel.round, 0);
        // Only the replaced ranks were read and kept; the survivor's slot
        // is empty, and loading it — which is what a partial restart does
        // for survivors — still catches the rot.
        assert_eq!(
            copied(&sel)[..],
            [Some(image(0, 3, 0)), Some(image(1, 3, 0)), None]
        );
        assert!(load_image(&dir, 2).is_err());
        // If the damaged rank IS being replaced, the veto stands.
        let err = at(&root).select(Some(3), Some(&[1, 2])).unwrap_err();
        assert!(matches!(err, StoreError::NoUsableGeneration { .. }));
        fs::remove_dir_all(&root).ok();
    }

    /// A flat image is verified in one pass, so which check trips first
    /// depends on where the damage is (a payload flip trips a section CRC
    /// before any whole-file CRC exists). The reject code must not: it is
    /// decided by size, then by whether the manifest vouches for the
    /// bytes, and only then by whether they parse.
    #[test]
    fn flat_damage_keeps_its_reject_code() {
        use obs::RejectCode as C;
        let root = tdir("flat_codes");
        commit_round(&root, 1, 0);
        let path = CkptImage::path_for(&generation_dir(&root, 0), 0);
        let good = fs::read(&path).unwrap();
        let flip = |at: usize| {
            let mut b = good.clone();
            b[at] ^= 0x01;
            b
        };
        // Same size, every section CRC right, but not the image the
        // manifest was told about.
        let mut other = image(0, 1, 0);
        other.upper[7] ^= 0x55;
        let garbage = vec![0x5A; good.len()];
        let cases: [(&str, Vec<u8>, C); 7] = [
            ("upper payload flip", flip(HEADER_LEN + 3), C::CorruptImage),
            ("meta payload flip", flip(good.len() - 1), C::CorruptImage),
            ("rank field flip (still parses)", flip(12), C::CorruptImage),
            ("magic flip (does not parse)", flip(0), C::CorruptImage),
            (
                "length field flip (does not parse)",
                flip(36),
                C::CorruptImage,
            ),
            ("truncation", good[..good.len() - 1].to_vec(), C::TornImage),
            ("another valid image", other.to_bytes(), C::CorruptImage),
        ];
        for (what, bytes, want) in cases {
            fs::write(&path, &bytes).unwrap();
            let rej = at(&root).validate(0, Some(1), None).unwrap_err();
            assert_eq!(rej.code, want, "{what}: {}", rej.reason);
        }
        // Bytes the manifest does vouch for that are not an image: the
        // only way to BadImage past a manifest.
        fs::write(&path, &garbage).unwrap();
        let vouching = Manifest {
            round: 0,
            world_size: 1,
            entries: vec![ManifestEntry {
                rank: 0,
                bytes: garbage.len() as u64,
                crc: crc32(&garbage),
            }],
        };
        commit_generation(&root, &vouching, &StoreConfig::default()).unwrap();
        let rej = at(&root).validate(0, Some(1), None).unwrap_err();
        assert_eq!(rej.code, C::BadImage, "{}", rej.reason);
        // Without a manifest entry there is no whole-file CRC to miss:
        // header damage is a BadImage, payload damage a BadImage too (the
        // section CRC is the image's own word against itself).
        for at_byte in [0, 36, HEADER_LEN + 3] {
            fs::write(&path, flip(at_byte)).unwrap();
            match at(&root).load_image(0, 0) {
                Err(StoreError::Rejected { code, .. }) => assert_eq!(code, C::BadImage),
                other => panic!("byte {at_byte}: expected a rejection, got {other:?}"),
            }
        }
        fs::write(&path, &good).unwrap();
        assert_eq!(
            load_image(&generation_dir(&root, 0), 0).unwrap(),
            image(0, 1, 0)
        );
        fs::remove_dir_all(&root).ok();
    }

    /// `read_verified` takes a flat image's whole-file CRC from its
    /// header and its section CRCs from the buffer's block pass. On every
    /// damage case of `flat_damage_keeps_its_reject_code`, with the
    /// manifest entry and without, it must decide as a plain reference
    /// does — the manifest's CRC against a full `crc32` of the file, then
    /// each section's full `crc32` against the header — and return the
    /// image the reference copies out.
    #[test]
    fn the_one_read_decides_every_flat_damage_case_as_a_plain_reference() {
        use obs::RejectCode as C;
        let root = tdir("flat_reference");
        commit_round(&root, 1, 0);
        let dir = generation_dir(&root, 0);
        let path = CkptImage::path_for(&dir, 0);
        let good = fs::read(&path).unwrap();
        let entry = at(&root).read_manifest(0).unwrap().entries[0];
        let flip = |at: usize| {
            let mut b = good.clone();
            b[at] ^= 0x01;
            b
        };
        let mut other = image(0, 1, 0);
        other.upper[7] ^= 0x55;
        let garbage = vec![0x5A; good.len()];
        let vouching = |bytes: &[u8]| ManifestEntry {
            crc: crc32(bytes),
            ..entry
        };
        // A header whose upper CRC is not its section's, in a file the
        // manifest vouches for: only the section check can refuse it.
        let mut lying = good.clone();
        lying[52] ^= 0x01;
        let cases = [
            (good.clone(), entry),
            (flip(HEADER_LEN + 3), entry),
            (flip(good.len() - 1), entry),
            (flip(12), entry),
            (flip(0), entry),
            (flip(36), entry),
            (good[..good.len() - 1].to_vec(), entry),
            (other.to_bytes(), entry),
            (garbage.clone(), vouching(&garbage)),
            (lying.clone(), vouching(&lying)),
            (lying.clone(), entry),
        ];
        // The decision as the reference makes it.
        let reference = |bytes: &[u8], entry: Option<&ManifestEntry>| {
            if entry.is_some_and(|e| bytes.len() as u64 != e.bytes) {
                return Err(C::TornImage);
            }
            if entry.is_some_and(|e| crc32(bytes) != e.crc) {
                return Err(C::CorruptImage);
            }
            let mut r = Reader::new(bytes);
            let header: ImageHeader = image::IMAGE.decode(&mut r).map_err(|_| C::BadImage)?;
            let upper = r.take(header.upper_len).map_err(|_| C::BadImage)?;
            let meta = r.take(header.meta_len).map_err(|_| C::BadImage)?;
            r.finish().map_err(|_| C::BadImage)?;
            let crcs = (crc32(upper), crc32(meta));
            if crcs != (header.upper_crc, header.meta_crc) {
                return Err(C::BadImage);
            }
            let head = header.head;
            Ok(CkptImage {
                rank: head.rank,
                world_size: head.world_size,
                round: head.round,
                upper: upper.to_vec(),
                meta: meta.to_vec(),
            })
        };
        for (i, (bytes, entry)) in cases.iter().enumerate() {
            fs::write(&path, bytes).unwrap();
            for entry in [Some(entry), None] {
                let got = at(&root).read_verified(&dir, 0, entry);
                let got = got.map(|image| CkptImage::from(&image));
                assert_eq!(got.map_err(|r| r.code), reference(bytes, entry), "case {i}");
            }
        }
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn world_size_mismatch_and_missing_rank_rejected() {
        let root = tdir("mismatch");
        commit_round(&root, 2, 0);
        let err = select_generation(&root, Some(3)).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("world size"), "{msg}");
        // Remove a rank's image from an otherwise committed generation.
        commit_round(&root, 2, 1);
        fs::remove_file(CkptImage::path_for(&generation_dir(&root, 1), 0)).unwrap();
        let sel = select_generation(&root, Some(2)).unwrap();
        assert_eq!(sel.round, 0);
        assert!(sel.rejected[0].reason.contains("unreadable"));
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn bare_images_without_a_generation_are_not_a_store() {
        // The pre-generational layout (images directly under the root, no
        // `gen_*` directory, no manifest) is no longer read.
        let root = tdir("bare");
        fs::create_dir_all(&root).unwrap();
        for rank in 0..2usize {
            let path = CkptImage::path_for(&root, rank);
            fs::write(&path, image(rank, 2, 7).to_bytes()).unwrap();
        }
        let err = select_generation(&root, Some(2)).unwrap_err();
        assert!(
            matches!(err, StoreError::NoUsableGeneration { .. }),
            "{err}"
        );
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn empty_store_reports_no_usable_generation() {
        let root = tdir("empty");
        let err = select_generation(&root, Some(2)).unwrap_err();
        assert!(matches!(err, StoreError::NoUsableGeneration { .. }));
        assert!(err.to_string().contains("no generations found"));
    }

    // ---- chunked layout ----------------------------------------------------

    fn chunked_cfg() -> StoreConfig {
        StoreConfig {
            mode: StoreMode::Chunked,
            chunk: ChunkParams {
                min_size: 64,
                avg_size: 256,
                max_size: 1024,
            },
            ..StoreConfig::default()
        }
    }

    /// A big image whose payload barely mutates between rounds: `round`
    /// perturbs a handful of bytes in an otherwise fixed pseudo-random
    /// buffer, modeling a slowly-mutating workload.
    fn slow_image(rank: usize, world: usize, round: u64) -> CkptImage {
        let mut state = 0x5eed_0000u64 + rank as u64;
        let mut upper: Vec<u8> = (0..20_000)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 33) as u8
            })
            .collect();
        let len = upper.len();
        for i in 0..(round as usize + 1) {
            upper[i * 997 % len] ^= round as u8;
        }
        CkptImage {
            rank,
            world_size: world,
            round,
            upper,
            meta: vec![0xA5; 200],
        }
    }

    fn commit_round_with(
        root: &Path,
        world: usize,
        round: u64,
        cfg: &StoreConfig,
        faults: &[(usize, WriteFault)],
    ) -> Vec<WriteOutcome> {
        let mut entries = Vec::new();
        let mut outs = Vec::new();
        for rank in 0..world {
            let fault = faults.iter().find(|(r, _)| *r == rank).map(|(_, f)| f);
            let out = write_image(root, &slow_image(rank, world, round), cfg, fault).unwrap();
            entries.push(ManifestEntry {
                rank: rank as u64,
                bytes: out.bytes as u64,
                crc: out.crc,
            });
            outs.push(out);
        }
        commit_generation(
            root,
            &Manifest {
                round,
                world_size: world as u64,
                entries,
            },
            cfg,
        )
        .unwrap();
        outs
    }

    #[test]
    fn chunked_commit_select_and_load_round_trips() {
        let root = tdir("chunked_happy");
        let cfg = chunked_cfg();
        commit_round_with(&root, 2, 0, &cfg, &[]);
        let sel = select_generation(&root, Some(2)).unwrap();
        assert_eq!(sel.round, 0);
        assert!(sel.rejected.is_empty());
        // No flat image files exist; recipes + pool only.
        assert!(!CkptImage::path_for(&sel.dir, 0).exists());
        assert!(recipe_path_for(&sel.dir, 0).is_file());
        assert!(at(&root).chunks_dir().is_dir());
        // load_image reassembles byte-identically.
        for rank in 0..2 {
            assert_eq!(load_image(&sel.dir, rank).unwrap(), slow_image(rank, 2, 0));
        }
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn chunked_second_round_dedups_nearly_everything() {
        let root = tdir("chunked_dedup");
        let cfg = chunked_cfg();
        let r0 = commit_round_with(&root, 2, 0, &cfg, &[]);
        let r1 = commit_round_with(&root, 2, 1, &cfg, &[]);
        for (a, b) in r0.iter().zip(r1.iter()) {
            assert!(a.chunks_written > 0, "round 0 must write real chunks");
            assert!(
                b.chunks_written < a.chunks_written / 2,
                "round 1 rewrote {} of {} chunks — dedup not working",
                b.chunks_written,
                a.chunks_written
            );
            assert!(b.chunks_deduped > 0);
            assert!(
                b.physical_bytes < a.physical_bytes / 2,
                "round 1 physical {} vs round 0 {}",
                b.physical_bytes,
                a.physical_bytes
            );
            assert_eq!(b.logical_bytes, slow_image(0, 2, 1).size_bytes());
        }
        // Both rounds restore byte-identically.
        let sel = select_generation(&root, Some(2)).unwrap();
        assert_eq!(sel.round, 1);
        assert_eq!(load_image(&sel.dir, 1).unwrap(), slow_image(1, 2, 1));
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn chunked_bit_flip_on_chunk_rejected_and_falls_back() {
        let root = tdir("chunked_flip");
        let cfg = chunked_cfg();
        commit_round_with(&root, 2, 0, &cfg, &[]);
        commit_round_with(
            &root,
            2,
            1,
            &cfg,
            &[(1, WriteFault::BitFlip { offset: 977 })],
        );
        let sel = select_generation(&root, Some(2)).unwrap();
        assert_eq!(sel.round, 0, "damaged chunk must reject gen 1");
        assert_eq!(sel.rejected.len(), 1);
        assert!(
            sel.rejected[0].reason.contains("hash mismatch")
                || sel.rejected[0].reason.contains("CRC"),
            "{}",
            sel.rejected[0].reason
        );
        // The fallback generation still loads cleanly even though it
        // shares pool chunks with the damaged round (damage only ever
        // lands on chunks the damaged round itself wrote).
        assert_eq!(load_image(&sel.dir, 1).unwrap(), slow_image(1, 2, 0));
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn chunked_torn_chunk_rejected_and_falls_back() {
        let root = tdir("chunked_torn");
        let cfg = chunked_cfg();
        commit_round_with(&root, 2, 0, &cfg, &[]);
        commit_round_with(&root, 2, 1, &cfg, &[(0, WriteFault::Torn { offset: 13 })]);
        let sel = select_generation(&root, Some(2)).unwrap();
        assert_eq!(sel.round, 0);
        assert!(
            sel.rejected[0].reason.contains("torn") || sel.rejected[0].reason.contains("bytes"),
            "{}",
            sel.rejected[0].reason
        );
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn chunked_write_error_retries_and_dead_disk_fails() {
        let root = tdir("chunked_err");
        let cfg = chunked_cfg();
        let out = write_image(
            &root,
            &slow_image(0, 1, 0),
            &cfg,
            Some(&WriteFault::Error { attempts: 2 }),
        )
        .unwrap();
        assert_eq!(out.retries, 2);
        assert_eq!(
            load_image(&generation_dir(&root, 0), 0).unwrap(),
            slow_image(0, 1, 0)
        );
        let err = write_image(
            &root,
            &slow_image(0, 1, 1),
            &cfg,
            Some(&WriteFault::Error { attempts: u32::MAX }),
        )
        .unwrap_err();
        assert!(err.to_string().contains("injected"));
        // The failed round landed no recipe.
        assert!(!recipe_path_for(&generation_dir(&root, 1), 0).exists());
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn torn_pool_chunk_is_rewritten_not_deduplicated_against() {
        // A chunk torn after its round committed (a lying disk cache) must
        // not be deduplicated against: with static content every later
        // generation would reference the damaged file and restart would
        // end with no usable generation, where flat mode loses just one.
        let root = tdir("chunked_torn_dedup");
        let cfg = chunked_cfg();
        let store = at(&root);
        commit_round_with(&root, 1, 0, &cfg, &[]);
        let recipe = Recipe::from_bytes(&fs::read(store.recipe_path(0, 0)).unwrap()).unwrap();
        let victim = store.chunk_path(recipe.upper_chunks[1].id);
        let len = fs::metadata(&victim).unwrap().len();
        fs::OpenOptions::new()
            .write(true)
            .open(&victim)
            .unwrap()
            .set_len(len / 2)
            .unwrap();
        assert!(store.validate(0, Some(1), None).is_err());
        // Round 1 carries byte-identical payloads.
        let image = CkptImage {
            round: 1,
            ..slow_image(0, 1, 0)
        };
        let out = write_image(&root, &image, &cfg, None).unwrap();
        assert_eq!(out.chunks_written, 1, "exactly the torn chunk is rewritten");
        // Cut from round 0's recipe: the guide names cuts, never what the
        // pool holds.
        let refs = recipe.upper_chunks.len() + recipe.meta_chunks.len();
        assert_eq!(out.chunks_guided as usize, refs);
        let manifest = Manifest {
            round: 1,
            world_size: 1,
            entries: vec![ManifestEntry {
                rank: 0,
                bytes: out.bytes as u64,
                crc: out.crc,
            }],
        };
        commit_generation(&root, &manifest, &cfg).unwrap();
        store.validate(1, Some(1), None).unwrap();
        assert_eq!(load_image(&generation_dir(&root, 1), 0).unwrap(), image);
        // The rewrite healed the shared chunk, so generation 0 is whole
        // again too.
        let sel = store.select(Some(1), None).unwrap();
        assert_eq!((sel.round, sel.rejected.len()), (1, 0));
        store.validate(0, Some(1), None).unwrap();
        fs::remove_dir_all(&root).ok();
    }

    /// `image` as round `round` writes it: one 300-byte window of the
    /// upper half rewritten where the round says, and the first meta byte.
    fn next_round(image: &CkptImage, round: u64) -> CkptImage {
        let mut next = CkptImage {
            round,
            ..image.clone()
        };
        let at = (round as usize * 7_919) % next.upper.len();
        let end = (at + 300).min(next.upper.len());
        for b in &mut next.upper[at..end] {
            *b ^= round as u8 | 1;
        }
        next.meta[0] ^= 0x40;
        next
    }

    /// The `.cref` bytes an unguided chunked write of `image` lands.
    fn unguided_recipe(image: &CkptImage, cfg: &StoreConfig) -> Vec<u8> {
        let upper = chunk::chunk_payload(&image.upper, cfg.chunk, &[], |_| false);
        let meta = chunk::chunk_payload(&image.meta, cfg.chunk, &[], |_| false);
        let refs = |c: &chunk::Chunked<'_>| c.chunks.iter().map(|(r, _)| *r).collect();
        Recipe {
            header: ImageHeader {
                head: image.head(),
                upper_len: image.upper.len(),
                meta_len: image.meta.len(),
                upper_crc: crc32(&image.upper),
                meta_crc: crc32(&image.meta),
            },
            upper_chunks: refs(&upper),
            meta_chunks: refs(&meta),
        }
        .to_bytes()
    }

    /// Cuts of `new` a walk guided by `old` takes from it: refs that start
    /// where one of `old`'s starts and carry its id — unless that old ref
    /// ended its section and the section changed length.
    fn reusable_cuts(old: &Recipe, new: &Recipe) -> u32 {
        let section = |old: &[ChunkRef], old_len: usize, new: &[ChunkRef], new_len: usize| {
            let (old_len, new_len) = (old_len as u64, new_len as u64);
            let starts = |refs: &[ChunkRef]| -> BTreeMap<u64, ChunkRef> {
                let mut at = 0;
                refs.iter()
                    .map(|r| {
                        at += r.len;
                        (at - r.len, *r)
                    })
                    .collect()
            };
            let old = starts(old);
            let reusable = |(&at, r): (&u64, &ChunkRef)| {
                old.get(&at)
                    .is_some_and(|o| o.id == r.id && (at + o.len != old_len || old_len == new_len))
            };
            starts(new).iter().filter(|&e| reusable(e)).count() as u32
        };
        let (o, n) = (old.header, new.header);
        section(
            &old.upper_chunks,
            o.upper_len,
            &new.upper_chunks,
            n.upper_len,
        ) + section(&old.meta_chunks, o.meta_len, &new.meta_chunks, n.meta_len)
    }

    /// One rank's 2 MiB image written from its kept buffer, round after
    /// round, in either layout: `mana2_store_crc_bytes_total` grows by
    /// every payload byte in the first round (as it does for the same
    /// image decoded and written by `write_image`, which lands the same
    /// rank file), by at most the two blocks a
    /// 42 KiB edit touches (plus the metadata) in the next, by the
    /// metadata alone in an unchanged round, and by every block from a
    /// grown segment's offset on when a segment ahead of the slab grows by
    /// one byte.
    #[test]
    fn seal_checksums_only_rewritten_blocks() {
        use crate::image::CRC_BLOCK;
        use crate::{Encode, ImageBuf, UpperHalf};
        for mode in [StoreMode::Flat, StoreMode::Chunked] {
            let root = tdir(&format!("crc_bytes_{}", mode.name()));
            let reg = obs::metrics::MetricsRegistry::deterministic(1);
            let tel = obs::Telemetry::new(0, None, Some(reg.clone()));
            let cfg = StoreConfig {
                mode,
                ..StoreConfig::default()
            };
            let store = Store::new(&root, cfg, tel, Box::new(LocalFs));
            let mut upper = UpperHalf::new();
            upper.write_segment("a_lead", vec![1; 300 << 10]);
            upper.write_segment("b_grows", vec![2; 100]);
            let slab = (0..2u32 << 20).map(|i| (i.wrapping_mul(2654435761) >> 13) as u8);
            upper.write_segment("slab", slab.collect());
            let meta = vec![3u8; 500];
            let mut buf = ImageBuf::default();
            let mut last = 0;
            let mut round = |upper: &UpperHalf, round: u64| {
                let head = ImageHead {
                    rank: 0,
                    world_size: 1,
                    round,
                };
                let out = store
                    .write_encoded(head.encode_into(&mut buf, upper, &meta))
                    .unwrap();
                let total = reg.snapshot().value("mana2_store_crc_bytes_total").unwrap();
                assert_eq!(total - last, out.crc_bytes as u64);
                last = total;
                out.crc_bytes
            };
            let (upper_len, meta_len) = (upper.to_bytes().len(), meta.to_bytes().len());
            assert_eq!(
                round(&upper, 0),
                upper_len + meta_len,
                "{mode:?}: first round"
            );
            // The round-0 image decoded and written again: `write_image`
            // copies it into a fresh buffer, checksums every payload byte
            // and lands the rank file the kept buffer landed.
            let decoded = CkptImage {
                rank: 0,
                world_size: 1,
                round: 0,
                upper: upper.to_bytes(),
                meta: meta.to_bytes(),
            };
            let again = tdir(&format!("crc_bytes_decoded_{}", mode.name()));
            let cfg = StoreConfig {
                mode,
                ..StoreConfig::default()
            };
            let out = Store::open(&again, cfg).write_image(&decoded).unwrap();
            assert_eq!(out.crc_bytes, upper_len + meta_len, "{mode:?}: decoded");
            let rank_file = |root: &Path| {
                let dir = generation_dir(root, 0);
                fs::read(match mode {
                    StoreMode::Flat => CkptImage::path_for(&dir, 0),
                    StoreMode::Chunked => recipe_path_for(&dir, 0),
                })
                .unwrap()
            };
            assert_eq!(rank_file(&again), rank_file(&root), "{mode:?}: decoded");
            fs::remove_dir_all(&again).ok();
            upper.segment_mut("slab")[1 << 20..(1 << 20) + (42 << 10)].fill(0xEE);
            let edited = round(&upper, 1);
            assert!(edited > meta_len, "{mode:?}: the edit was seen");
            assert!(edited <= 2 * CRC_BLOCK + meta_len, "{mode:?}: {edited} B");
            assert_eq!(round(&upper, 2), meta_len, "{mode:?}: unchanged");
            // `b_grows`'s length field sits behind the count, `a_lead`'s
            // framing and payload, and its own name.
            let at = 8 + (8 + 6 + 8 + (300 << 10)) + 8 + 7;
            upper.segment_mut("b_grows").push(2);
            let from = at / CRC_BLOCK * CRC_BLOCK;
            assert!(from > 0);
            let grown = round(&upper, 3);
            assert_eq!(grown, upper_len + 1 - from + meta_len, "{mode:?}: grown");
            fs::remove_dir_all(&root).ok();
        }
    }

    /// The chunk-key twin of `seal_checksums_only_rewritten_blocks`: one
    /// rank's 2 MiB image written chunked from its kept buffer, round after
    /// round. `mana2_store_key_bytes_total` grows by every payload byte in
    /// the first round; by at most the stale blocks' bytes (what the seal
    /// checksummed, less the metadata), two maximum chunks around them and
    /// the metadata after a 42 KiB edit; by the metadata alone in an
    /// unchanged round, and from the buffer restart reads the last round
    /// back into; and by every byte again once the guide is not the
    /// buffer's previous recipe: after an aborted round, and from a fresh
    /// buffer.
    #[test]
    fn chunk_keys_only_rewritten_blocks() {
        use crate::{ImageBuf, UpperHalf};
        let root = tdir("key_bytes");
        let reg = obs::metrics::MetricsRegistry::deterministic(1);
        let tel = obs::Telemetry::new(0, None, Some(reg.clone()));
        let cfg = StoreConfig {
            mode: StoreMode::Chunked,
            ..StoreConfig::default()
        };
        let max = cfg.chunk.max_size;
        let store = Store::new(&root, cfg, tel, Box::new(LocalFs));
        let mut upper = UpperHalf::new();
        let slab = (0..2u32 << 20).map(|i| (i.wrapping_mul(2654435761) >> 13) as u8);
        upper.write_segment("slab", slab.collect());
        let meta = vec![3u8; 500];
        let mut last = 0;
        let mut round = |buf: &mut ImageBuf, upper: &UpperHalf, round: u64| {
            let head = ImageHead {
                rank: 0,
                world_size: 1,
                round,
            };
            let out = store
                .write_encoded(head.encode_into(buf, upper, &meta))
                .unwrap();
            let total = reg.snapshot().value("mana2_store_key_bytes_total").unwrap();
            assert_eq!(total - last, out.key_bytes as u64);
            last = total;
            out
        };
        let (upper_len, meta_len) = (upper.to_bytes().len(), meta.to_bytes().len());
        let all = upper_len + meta_len;
        let mut buf = ImageBuf::default();
        assert_eq!(round(&mut buf, &upper, 0).key_bytes, all, "first round");
        upper.segment_mut("slab")[1 << 20..(1 << 20) + (42 << 10)].fill(0xEE);
        let edited = round(&mut buf, &upper, 1);
        let stale = edited.crc_bytes - meta_len;
        assert!(
            stale > 0 && edited.key_bytes > meta_len,
            "the edit was seen"
        );
        assert!(
            edited.key_bytes <= stale + 2 * max + meta_len,
            "{} B keyed, {stale} B stale",
            edited.key_bytes
        );
        assert_eq!(round(&mut buf, &upper, 2).key_bytes, meta_len, "unchanged");
        // Round 3 is written and aborted: round 4 has no guide.
        round(&mut buf, &upper, 3);
        store.abort(3).unwrap();
        assert_eq!(round(&mut buf, &upper, 4).key_bytes, all, "after an abort");
        // The buffer restart reads round 4 into: round 4's recipe guides
        // round 5, and it is the buffer's own.
        let mut restored = store.load_image(4, 0).unwrap();
        let out = round(&mut restored, &upper, 5);
        assert_eq!(out.key_bytes, meta_len, "a restored buffer");
        // A fresh buffer: guided by round 4, but by no recipe of its own,
        // so every guided span is keyed.
        let out = round(&mut ImageBuf::default(), &upper, 5);
        assert_eq!(out.key_bytes, all, "a fresh buffer");
        assert_eq!(out.chunks_guided, out.chunks_deduped, "every cut guided");
        fs::remove_dir_all(&root).ok();
    }

    /// Resume-mode chunked rounds with window edits, an aborted round, a
    /// torn predecessor recipe and a restart in between, written as
    /// decoded images (`write_image`) and from each rank's kept buffer
    /// (`write_encoded`): every write is guided by whatever generation
    /// `round − 1` holds, every generation's recipes are byte for byte what
    /// an unguided write lands, and the guided-cut counter says which
    /// writes had a guide. The key-byte count says which took keys from
    /// it: only a kept buffer's writes guided by its own previous recipe.
    #[test]
    fn guided_rounds_land_the_recipes_an_unguided_write_would() {
        guided_rounds(false);
        guided_rounds(true);
    }

    fn guided_rounds(kept: bool) {
        use crate::{ImageBuf, UpperHalf};
        use std::cell::RefCell;
        let root = tdir(&format!("guided_rounds_{kept}"));
        let cfg = chunked_cfg();
        let world = 2;
        let reg = obs::metrics::MetricsRegistry::deterministic(world);
        let guided_total = || {
            reg.snapshot()
                .value("mana2_store_chunks_guided_total")
                .unwrap()
        };
        let store = |rank: usize| {
            let tel = obs::Telemetry::new(rank as i32, None, Some(reg.clone()));
            Store::new(&root, cfg.clone(), tel, Box::new(LocalFs))
        };
        let recipe = |round: u64, rank: usize| {
            Recipe::from_bytes(&fs::read(at(&root).recipe_path(round, rank)).unwrap()).unwrap()
        };
        // A kept buffer holds the image's upper bytes as one segment and
        // its metadata as a byte vector, so its sections are their
        // encodings.
        let segment = |image: &CkptImage| {
            let mut upper = UpperHalf::new();
            upper.write_segment("s", image.upper.clone());
            upper
        };
        let on_disk = |image: &CkptImage| match kept {
            false => image.clone(),
            true => CkptImage {
                upper: segment(image).to_bytes(),
                meta: image.meta.to_bytes(),
                ..image.clone()
            },
        };
        let bufs = RefCell::new(Vec::from_iter((0..world).map(|_| ImageBuf::default())));
        let write = |image: &CkptImage| match kept {
            false => store(image.rank).write_image(image),
            true => {
                let buf = &mut bufs.borrow_mut()[image.rank];
                let buf = image.head().encode_into(buf, &segment(image), &image.meta);
                store(image.rank).write_encoded(buf)
            }
        };
        // Write `images` as one round; commit it unless told to abort.
        let round_of = |images: &[CkptImage], commit: bool| -> Vec<WriteOutcome> {
            let outs: Vec<WriteOutcome> = images.iter().map(|i| write(i).unwrap()).collect();
            let round = images[0].round;
            if commit {
                let entries = outs
                    .iter()
                    .enumerate()
                    .map(|(rank, out)| ManifestEntry {
                        rank: rank as u64,
                        bytes: out.bytes as u64,
                        crc: out.crc,
                    })
                    .collect();
                at(&root)
                    .commit(&Manifest {
                        round,
                        world_size: world as u64,
                        entries,
                    })
                    .unwrap();
            } else {
                at(&root).abort(round).unwrap();
            }
            outs
        };
        let advance = |images: &[CkptImage], round: u64| -> Vec<CkptImage> {
            images.iter().map(|i| next_round(i, round)).collect()
        };
        // Every write of `round` was guided by generation `round − 1`:
        // each took exactly the cuts that generation's recipe could give.
        let assert_guided = |round: u64, outs: &[WriteOutcome]| {
            for (rank, out) in outs.iter().enumerate() {
                let new = recipe(round, rank);
                let refs = (new.upper_chunks.len() + new.meta_chunks.len()) as u32;
                let fresh = refs - reusable_cuts(&recipe(round - 1, rank), &new);
                assert!(
                    fresh > 0,
                    "round {round} rank {rank}: the edits re-cut nothing"
                );
                assert_eq!(out.chunks_guided, refs - fresh, "round {round} rank {rank}");
            }
        };
        // Every payload byte was keyed, or — `reused`, a kept buffer's
        // write guided by its own last recipe — under a quarter of them:
        // the edits touch one of the five upper blocks.
        let assert_keyed = |outs: &[WriteOutcome], reused: bool| {
            for out in outs {
                let payload = out.logical_bytes - HEADER_LEN;
                match kept && reused {
                    true => assert!(out.key_bytes < payload / 4, "{out:?}"),
                    false => assert!(out.key_bytes >= payload, "{out:?}"),
                }
            }
        };

        // Five 64 KiB blocks of upper section.
        let mut images: Vec<CkptImage> = (0..world)
            .map(|r| {
                let image = slow_image(r, world, 0);
                let upper = image.upper.repeat(16);
                CkptImage { upper, ..image }
            })
            .collect();
        let outs = round_of(&images, true);
        assert!(
            outs.iter().all(|o| o.chunks_guided == 0),
            "round 0 has no predecessor"
        );
        assert_keyed(&outs, false);
        let mut total = 0;
        for round in 1..=2 {
            images = advance(&images, round);
            let outs = round_of(&images, true);
            assert_guided(round, &outs);
            assert_keyed(&outs, true);
            total += outs.iter().map(|o| u64::from(o.chunks_guided)).sum::<u64>();
            assert_eq!(guided_total(), total);
        }
        // Round 3 is written (guided by round 2) and aborted: its
        // generation is gone, so round 4 has no guide.
        let outs = round_of(&advance(&images, 3), false);
        assert_keyed(&outs, true);
        total += outs.iter().map(|o| u64::from(o.chunks_guided)).sum::<u64>();
        assert_eq!(guided_total(), total);
        images = advance(&images, 4);
        let outs = round_of(&images, true);
        assert!(outs.iter().all(|o| o.chunks_guided == 0), "{outs:?}");
        assert_keyed(&outs, false);
        assert_eq!(guided_total(), total, "nothing is guided after an abort");
        // Rank 1's round-4 recipe is torn: round 5 rank 1 cuts unguided,
        // rank 0 is guided as ever.
        let torn = at(&root).recipe_path(4, 1);
        let pristine = fs::read(&torn).unwrap();
        fs::write(&torn, &pristine[..pristine.len() / 2]).unwrap();
        images = advance(&images, 5);
        let outs = round_of(&images, true);
        assert_eq!(outs[1].chunks_guided, 0);
        assert_guided(5, &outs[..1]);
        assert_keyed(&outs[..1], true);
        assert_keyed(&outs[1..], false);
        fs::write(&torn, &pristine).unwrap();
        // A restart between rounds: each rank's buffer is the one it was
        // restored into, so the restored generation is the guide and its
        // recipe the buffer's own, and its keys are reused.
        let sel = at(&root).select(Some(world), None).unwrap();
        assert_eq!(sel.round, 5);
        let on_disk = Vec::from_iter(images.iter().map(on_disk).map(Some));
        assert_eq!(copied(&sel), on_disk);
        *bufs.borrow_mut() = sel.images.into_iter().map(Option::unwrap).collect();
        let outs = round_of(&advance(&images, 6), true);
        assert_guided(6, &outs);
        assert_keyed(&outs, true);
        // Whatever guided them, the generations hold the recipes an
        // unguided write of their images lands, and restore those images.
        for round in [0, 1, 2, 4, 5, 6] {
            for rank in 0..world {
                let image = load_image(&generation_dir(&root, round), rank).unwrap();
                let cref = fs::read(at(&root).recipe_path(round, rank)).unwrap();
                assert_eq!(
                    cref,
                    unguided_recipe(&image, &cfg),
                    "round {round} rank {rank}"
                );
            }
            at(&root).validate(round, Some(world), None).unwrap();
        }
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn faulty_blobs_fail_the_leading_commit_puts_and_trace_each_attempt() {
        use obs::{EventKind as E, InjectedFault};
        let root = tdir("faulty_blobs");
        let cfg = StoreConfig::default();
        assert_eq!(cfg.retry_attempts, 4);
        let sink = obs::TraceSink::wall(1, 64);
        let reg = obs::metrics::MetricsRegistry::deterministic(1);
        let tel = obs::Telemetry::new(0, Some(sink.clone()), Some(reg.clone()));
        let fault = WriteFault::Error { attempts: 2 };
        let blobs = FaultyBlobs::new(Box::new(LocalFs), fault, tel.clone(), 7);
        let store = Store::new(&root, cfg, tel, Box::new(blobs));
        let out = store.write_image(&image(0, 1, 7)).unwrap();
        assert_eq!(out.retries, 2);
        // Two failed attempts issue no fsync; the third: file, generation
        // directory, root.
        assert_eq!(out.fsyncs, 3);
        // One armed fault is one firing, however often it injects.
        let snap = reg.snapshot();
        assert_eq!(snap.value("mana2_faults_fired_total"), Some(1));
        assert_eq!(snap.value("mana2_store_write_retries_total"), Some(2));
        assert_eq!(snap.value("mana2_store_fsyncs_total"), Some(3));
        let events: Vec<String> = sink
            .ring_events(0)
            .iter()
            .map(|ev| {
                assert_eq!(ev.round, 7);
                match ev.kind {
                    E::StoreFault {
                        fault: InjectedFault::WriteError,
                    } => "fault".into(),
                    E::StoreAttempt {
                        attempt,
                        ok,
                        write_ns,
                        ..
                    } => {
                        assert_eq!(write_ns > 0, ok, "only a put that ran has timings");
                        format!("attempt {attempt} {ok}")
                    }
                    E::StoreWrite { retries, crc, .. } => {
                        assert_eq!(crc, out.crc);
                        format!("write {retries}")
                    }
                    ref other => panic!("unexpected event {other:?}"),
                }
            })
            .collect();
        assert_eq!(
            events,
            [
                "fault",
                "attempt 1 false",
                "fault",
                "attempt 2 false",
                "attempt 3 true",
                "write 2"
            ]
        );
        assert_eq!(
            load_image(&generation_dir(&root, 7), 0).unwrap(),
            image(0, 1, 7)
        );
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn chunk_gc_sweeps_only_unreferenced_chunks() {
        let root = tdir("chunk_gc");
        let cfg = chunked_cfg();
        for round in 0..4u64 {
            commit_round_with(&root, 2, round, &cfg, &[]);
        }
        // Nothing is unreferenced while all generations are retained.
        let out = gc_chunks(&root).unwrap();
        assert_eq!(out.removed, 0);
        // Drop old generations, then sweep: chunks referenced only by the
        // removed generations go; everything the survivors need stays.
        gc_generations(&root, 2).unwrap();
        gc_chunks(&root).unwrap();
        for round in [2u64, 3] {
            let dir = generation_dir(&root, round);
            assert!(at(&root).validate(round, Some(2), None).is_ok());
            assert_eq!(load_image(&dir, 0).unwrap(), slow_image(0, 2, round));
        }
        fs::remove_dir_all(&root).ok();
    }

    /// [`LocalFs`] that records every path read through `get`.
    struct RecordGets(std::sync::Arc<std::sync::Mutex<Vec<PathBuf>>>);

    impl Blobs for RecordGets {
        fn put_atomic(
            &self,
            path: &Path,
            bytes: &[u8],
            mode: PutMode,
        ) -> (crate::blobs::PutCost, io::Result<()>) {
            LocalFs.put_atomic(path, bytes, mode)
        }
        fn get(&self, path: &Path, into: Option<&mut Vec<u8>>) -> io::Result<u64> {
            self.0.lock().unwrap().push(path.to_path_buf());
            LocalFs.get(path, into)
        }
        fn list(&self, dir: &Path) -> io::Result<Vec<crate::blobs::BlobEntry>> {
            LocalFs.list(dir)
        }
        fn remove(&self, path: &Path) -> io::Result<()> {
            LocalFs.remove(path)
        }
        fn sync_dir(&self, dir: &Path) -> io::Result<()> {
            LocalFs.sync_dir(dir)
        }
    }

    #[test]
    fn chunk_gc_names_chunks_without_reading_them() {
        // GC runs beside the ranks every round: a whole sweep (a fresh
        // handle's first) classifies the pool by name and reads recipes,
        // never a chunk.
        let root = tdir("chunk_gc_reads");
        let cfg = chunked_cfg();
        for round in 0..3u64 {
            commit_round_with(&root, 2, round, &cfg, &[]);
        }
        let gets = std::sync::Arc::default();
        let blobs = Box::new(RecordGets(std::sync::Arc::clone(&gets)));
        let store = Store::new(&root, cfg.clone(), obs::Telemetry::off(), blobs);
        // The first pass sweeps the whole pool, the next the chunks the
        // retired recipes named.
        for round in 3..5u64 {
            assert!(store.gc(1).unwrap().chunks.removed > 0);
            let gets = std::mem::take(&mut *gets.lock().unwrap());
            assert!(gets
                .iter()
                .any(|p| p.extension().is_some_and(|x| x == "cref")));
            assert!(!gets.iter().any(|p| p.starts_with(store.chunks_dir())));
            commit_round_with(&root, 2, round, &cfg, &[]);
        }
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn chunk_gc_respects_journal_pinned_generations() {
        use crate::journal::{Journal, JournalStep};
        let root = tdir("chunk_gc_pin");
        let cfg = chunked_cfg();
        for round in 0..4u64 {
            commit_round_with(&root, 2, round, &cfg, &[]);
        }
        // A restart of gen 0 is in flight; its pin must keep both the
        // generation AND every chunk its recipes reference alive through
        // gc_generations + gc_chunks with retain=1.
        let mut j = Journal::open(&root).unwrap();
        j.append(
            0,
            JournalStep::RestartIntent {
                gen: 0,
                failed: vec![],
            },
        )
        .unwrap();
        j.append(0, JournalStep::GenValidated { gen: 0 }).unwrap();
        drop(j);
        gc_generations(&root, 1).unwrap();
        gc_chunks(&root).unwrap();
        let dir = generation_dir(&root, 0);
        assert!(dir.exists(), "pinned generation must survive");
        assert!(
            at(&root).validate(0, Some(2), None).is_ok(),
            "pinned generation's chunks must all survive the chunk sweep"
        );
        assert_eq!(load_image(&dir, 1).unwrap(), slow_image(1, 2, 0));
        // Commit the epoch: the pin releases, and the next GC pass may
        // collect the generation and its now-unreferenced chunks.
        let mut j = Journal::open(&root).unwrap();
        j.append(0, JournalStep::RestartCommitted).unwrap();
        drop(j);
        gc_generations(&root, 1).unwrap();
        let swept = gc_chunks(&root).unwrap();
        assert!(swept.removed > 0, "unpinned old chunks must be collectable");
        assert!(at(&root).validate(3, Some(2), None).is_ok());
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn chunk_gc_sweeps_tmp_litter_and_missing_pool_is_noop() {
        let root = tdir("chunk_gc_tmp");
        // No pool at all: no-op.
        fs::create_dir_all(&root).unwrap();
        assert_eq!(gc_chunks(&root).unwrap(), ChunkGcOutcome::default());
        let cfg = chunked_cfg();
        commit_round_with(&root, 1, 0, &cfg, &[]);
        // Simulate a crashed chunk writer's tmp litter.
        let shard = at(&root).chunks_dir().join("ab");
        fs::create_dir_all(&shard).unwrap();
        let litter = shard.join(".tmp-0-deadbeef");
        fs::write(&litter, b"junk").unwrap();
        gc_chunks(&root).unwrap();
        assert!(!litter.exists(), "tmp litter must be swept");
        assert!(at(&root).validate(0, Some(1), None).is_ok());
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn flat_and_chunked_restores_are_byte_identical() {
        let flat_root = tdir("xmode_flat");
        let chunk_root = tdir("xmode_chunked");
        let flat_cfg = StoreConfig::default();
        let chunk_cfg = chunked_cfg();
        for round in 0..2u64 {
            commit_round_with(&flat_root, 2, round, &flat_cfg, &[]);
            commit_round_with(&chunk_root, 2, round, &chunk_cfg, &[]);
        }
        let fsel = select_generation(&flat_root, Some(2)).unwrap();
        let csel = select_generation(&chunk_root, Some(2)).unwrap();
        assert_eq!(fsel.round, csel.round);
        for rank in 0..2 {
            assert_eq!(
                load_image(&fsel.dir, rank).unwrap(),
                load_image(&csel.dir, rank).unwrap()
            );
        }
        fs::remove_dir_all(&flat_root).ok();
        fs::remove_dir_all(&chunk_root).ok();
    }

    /// Flip one byte in the middle of `path`.
    fn rot(path: &Path) {
        let mut bytes = fs::read(path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        fs::write(path, &bytes).unwrap();
    }

    #[test]
    fn two_damaged_ranks_report_the_lower_ranks_rejection() {
        // Ranks are verified concurrently, but the rejection reported must
        // be the one a rank-by-rank loop stops at: the lowest damaged
        // rank's, with its exact code and reason — every time.
        let flat_root = tdir("two_bad_flat");
        commit_round_with(&flat_root, 6, 0, &StoreConfig::default(), &[]);
        let dir = generation_dir(&flat_root, 0);
        rot(&CkptImage::path_for(&dir, 2));
        let torn = CkptImage::path_for(&dir, 4);
        let len = fs::metadata(&torn).unwrap().len();
        fs::OpenOptions::new()
            .write(true)
            .open(&torn)
            .unwrap()
            .set_len(len - 7)
            .unwrap();
        for _ in 0..20 {
            let rej = at(&flat_root).validate(0, Some(6), None).unwrap_err();
            assert_eq!(rej.code, obs::RejectCode::CorruptImage);
            assert_eq!(
                rej.reason,
                "rank 2 image CRC mismatch against manifest (corrupt image)"
            );
            assert_eq!(at(&flat_root).select_at(0, Some(6), None).err(), Some(rej));
        }
        // With rank 2 out of scope the next damaged rank is the answer.
        let rej = at(&flat_root)
            .validate(0, Some(6), Some(&[5, 4, 0]))
            .unwrap_err();
        assert_eq!(rej.code, obs::RejectCode::TornImage);
        assert_eq!(
            rej.reason,
            format!(
                "rank 4 image is {} bytes, manifest says {len} (torn write)",
                len - 7
            )
        );
        fs::remove_dir_all(&flat_root).ok();

        // Chunked: a rotted pool chunk of rank 1, a missing recipe for 3.
        let root = tdir("two_bad_chunked");
        commit_round_with(&root, 6, 0, &chunked_cfg(), &[]);
        let dir = generation_dir(&root, 0);
        let recipe = Recipe::from_bytes(&fs::read(recipe_path_for(&dir, 1)).unwrap()).unwrap();
        let victim = recipe.upper_chunks[recipe.upper_chunks.len() / 2].id;
        rot(&at(&root).chunk_path(victim));
        fs::remove_file(recipe_path_for(&dir, 3)).unwrap();
        for _ in 0..20 {
            let rej = at(&root).validate(0, Some(6), None).unwrap_err();
            assert_eq!(rej.code, obs::RejectCode::CorruptImage);
            assert_eq!(
                rej.reason,
                format!("rank 1: upper chunk {victim} content hash mismatch")
            );
        }
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn selected_images_equal_load_image_in_both_layouts() {
        for (name, cfg) in [
            ("sel_img_flat", StoreConfig::default()),
            ("sel_img_chunked", chunked_cfg()),
        ] {
            let root = tdir(name);
            commit_round_with(&root, 5, 0, &cfg, &[]);
            commit_round_with(&root, 5, 1, &cfg, &[]);
            let sel = select_generation(&root, Some(5)).unwrap();
            assert_eq!(sel.round, 1);
            assert_eq!(sel.images.len(), 5);
            for rank in 0..5 {
                let loaded = load_image(&sel.dir, rank).unwrap();
                assert_eq!(copied(&sel)[rank], Some(loaded.clone()));
                assert_eq!(loaded, slow_image(rank, 5, 1));
            }
            // Validating one named generation (what a resumed restart
            // epoch does) is the same routine with the same result.
            let again = at(&root).select_at(1, Some(5), None).unwrap();
            assert_eq!((again.round, &again.manifest), (sel.round, &sel.manifest));
            assert_eq!(copied(&again), copied(&sel));
            // A partial selection keeps exactly the ranks it verified.
            let part = at(&root).select(Some(5), Some(&[3, 1])).unwrap();
            for rank in 0..5 {
                let want = [1, 3].contains(&rank).then(|| slow_image(rank, 5, 1));
                assert_eq!(copied(&part)[rank], want);
            }
            // Validation alone verifies the same bytes but keeps nothing.
            assert!(at(&root).validate(1, Some(5), None).is_ok());
            fs::remove_dir_all(&root).ok();
        }
    }

    #[test]
    fn chunked_survivor_rot_is_caught_at_load_not_at_partial_selection() {
        let root = tdir("chunked_survivor");
        commit_round_with(&root, 3, 0, &chunked_cfg(), &[]);
        let dir = generation_dir(&root, 0);
        let recipe = Recipe::from_bytes(&fs::read(recipe_path_for(&dir, 2)).unwrap()).unwrap();
        rot(&at(&root).chunk_path(recipe.upper_chunks[0].id));
        let sel = at(&root).select(Some(3), Some(&[0, 1])).unwrap();
        assert!(sel.rejected.is_empty());
        assert!(sel.images[2].is_none());
        assert_eq!(load_image(&dir, 0).unwrap(), slow_image(0, 3, 0));
        let err = load_image(&dir, 2).unwrap_err().to_string();
        assert!(err.contains("content hash mismatch"), "{err}");
        fs::remove_dir_all(&root).ok();
    }

    // ---- flat images in a chunked generation --------------------------------

    /// Encode round `round` of `rank`'s state into its kept buffer: a
    /// 200 000-byte slab (four 64 KiB blocks) whose every byte changes each
    /// round when `churn`, else one 300-byte window. Returns the image.
    fn kept_round(
        buf: &mut ImageBuf,
        rank: usize,
        world: usize,
        round: u64,
        churn: bool,
    ) -> CkptImage {
        let mut state = 0x5eed_0000u64 + rank as u64;
        let mut slab: Vec<u8> = (0..200_000)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                (state >> 33) as u8
            })
            .collect();
        let at = round as usize * 7_919 % 150_000;
        let span = if churn { 0..slab.len() } else { at..at + 300 };
        slab[span].iter_mut().for_each(|b| *b ^= round as u8 + 1);
        let mut upper = crate::UpperHalf::new();
        upper.write_segment("slab", slab);
        let head = ImageHead {
            rank,
            world_size: world,
            round,
        };
        head.encode_into(buf, &upper, &vec![round as u8; 30]);
        CkptImage::from(&*buf)
    }

    /// Write every rank's kept buffer as round `round` (rank 0 churning,
    /// the rest not) and commit it. Returns the images and the outcomes.
    fn land_kept(
        store: &Store,
        bufs: &mut [ImageBuf],
        round: u64,
    ) -> (Vec<CkptImage>, Vec<WriteOutcome>) {
        let world = bufs.len();
        let mut images = Vec::new();
        let mut outs = Vec::new();
        for (rank, buf) in bufs.iter_mut().enumerate() {
            images.push(kept_round(buf, rank, world, round, rank == 0));
            outs.push(store.write_encoded(buf).unwrap());
        }
        let entries = (outs.iter().enumerate())
            .map(|(rank, out)| ManifestEntry {
                rank: rank as u64,
                bytes: out.bytes as u64,
                crc: out.crc,
            })
            .collect();
        let world_size = world as u64;
        store
            .commit(&Manifest {
                round,
                world_size,
                entries,
            })
            .unwrap();
        (images, outs)
    }

    /// Every chunk id in the pool.
    fn pool_ids(store: &Store) -> BTreeSet<ChunkId> {
        let shards = store.pool_inventory().unwrap();
        shards
            .iter()
            .flat_map(|s| s.chunks.iter().map(|(id, _)| *id))
            .collect()
    }

    /// Every chunk id the recipes of generation `round` name.
    fn recipe_ids(store: &Store, round: u64) -> BTreeSet<ChunkId> {
        let gens = store.recipes().unwrap();
        let gen = gens.iter().find(|g| g.gen.round == round).unwrap();
        gen.refs().map(|c| c.id).collect()
    }

    /// A chunked generation whose churning rank landed flat and whose
    /// other rank landed a recipe restores byte-identically through
    /// `select`, `load_image` and a partial `validate`; GC keeps exactly
    /// the recipe's chunks; a bit flip in the flat file is `CorruptImage`
    /// and restart falls back a generation.
    #[test]
    fn a_rewritten_image_lands_flat_beside_a_recipe() {
        let root = tdir("mixed_layouts");
        let reg = obs::metrics::MetricsRegistry::deterministic(1);
        let tel = obs::Telemetry::new(0, None, Some(reg.clone()));
        let cfg = StoreConfig {
            mode: StoreMode::Chunked,
            ..StoreConfig::default()
        };
        let store = Store::new(&root, cfg, tel, Box::new(LocalFs));
        let mut bufs: Vec<ImageBuf> = (0..2).map(|_| ImageBuf::default()).collect();
        let flat_total = || {
            reg.snapshot()
                .value("mana2_store_images_flat_total")
                .unwrap()
        };
        // A first image is cut however much it differs from nothing.
        let (_, outs) = land_kept(&store, &mut bufs, 0);
        assert!(outs.iter().all(|o| o.chunks_written > 0));
        assert_eq!(flat_total(), 0);
        for round in 1..3 {
            let (images, outs) = land_kept(&store, &mut bufs, round);
            let dir = generation_dir(&root, round);
            assert!(CkptImage::path_for(&dir, 0).is_file());
            assert!(!recipe_path_for(&dir, 0).exists());
            assert!(recipe_path_for(&dir, 1).is_file());
            assert!(!CkptImage::path_for(&dir, 1).exists());
            let flat = outs[0];
            assert_eq!((flat.chunks_written, flat.chunks_deduped), (0, 0));
            assert_eq!((flat.key_bytes, flat.bytes), (0, images[0].size_bytes()));
            assert_eq!(flat.crc, crc32(&images[0].to_bytes()));
            assert_eq!(flat_total(), round);
            let sel = store.select(Some(2), None).unwrap();
            assert_eq!((sel.round, sel.rejected.len()), (round, 0));
            assert_eq!(
                copied(&sel),
                images.iter().cloned().map(Some).collect::<Vec<_>>()
            );
            for (rank, image) in images.iter().enumerate() {
                assert_eq!(
                    CkptImage::from(&store.load_image(round, rank).unwrap()),
                    *image
                );
                store
                    .validate(round, Some(2), Some(&[rank as u64]))
                    .unwrap();
                let part = store.select(Some(2), Some(&[rank as u64])).unwrap();
                assert_eq!(copied(&part)[rank].as_ref(), Some(image));
            }
        }
        // Retain the two flat-and-chunked generations: the pool holds
        // what rank 1's recipes name and nothing of rank 0's first round.
        let before = pool_ids(&store);
        let out = store.gc(2).unwrap();
        assert_eq!(out.generations, vec![0]);
        let live: BTreeSet<ChunkId> = &recipe_ids(&store, 1) | &recipe_ids(&store, 2);
        assert_eq!(pool_ids(&store), live);
        assert_eq!(out.chunks.removed as usize, before.len() - live.len());
        // The flat file rots: generation 2 is refused, 1 restores.
        rot(&CkptImage::path_for(&generation_dir(&root, 2), 0));
        let rej = store.validate(2, Some(2), None).unwrap_err();
        assert_eq!(rej.code, obs::RejectCode::CorruptImage);
        let sel = store.select(Some(2), None).unwrap();
        assert_eq!(sel.round, 1);
        assert_eq!(sel.rejected[0].code, obs::RejectCode::CorruptImage);
        fs::remove_dir_all(&root).ok();
    }

    /// A round re-run into the directory a crashed flush left: the stale
    /// flat file of a rank whose rerun lands a recipe is removed, not read
    /// ahead of the recipe the manifest vouches for, and the rerun's
    /// generation is the one selected.
    #[test]
    fn a_stale_flat_file_does_not_shadow_the_rerun_recipe() {
        let root = tdir("stale_flat");
        let store = Store::open(&root, chunked_cfg());
        let mut bufs: Vec<ImageBuf> = (0..2).map(|_| ImageBuf::default()).collect();
        land_kept(&store, &mut bufs, 0);
        // Round 1 lands rank 0 flat, then the flush dies before the
        // manifest.
        kept_round(&mut bufs[0], 0, 2, 1, true);
        store.write_encoded(&mut bufs[0]).unwrap();
        let stale = CkptImage::path_for(&generation_dir(&root, 1), 0);
        assert!(stale.is_file());
        // A restart from round 0 runs round 1 again from fresh buffers,
        // which land recipes.
        let mut bufs: Vec<ImageBuf> = (0..2).map(|_| ImageBuf::default()).collect();
        let (images, _) = land_kept(&store, &mut bufs, 1);
        let sel = store.select(Some(2), None).unwrap();
        assert_eq!((sel.round, &sel.rejected[..]), (1, &[][..]));
        assert_eq!(
            copied(&sel),
            images.into_iter().map(Some).collect::<Vec<_>>()
        );
        assert!(!stale.exists());
        assert!(recipe_path_for(&generation_dir(&root, 1), 0).is_file());
        fs::remove_dir_all(&root).ok();
    }

    /// The other direction: a stale recipe of a rank whose rerun lands
    /// flat is removed, so it neither stands beside the flat file nor
    /// keeps its chunks alive through GC.
    #[test]
    fn a_stale_recipe_is_removed_when_the_rerun_lands_flat() {
        let root = tdir("stale_recipe");
        let store = Store::open(&root, chunked_cfg());
        let mut bufs: Vec<ImageBuf> = (0..2).map(|_| ImageBuf::default()).collect();
        land_kept(&store, &mut bufs, 0);
        // A crashed flush of round 1 left rank 0's recipe of other bytes.
        store.write_image(&slow_image(0, 2, 1)).unwrap();
        let stale = recipe_path_for(&generation_dir(&root, 1), 0);
        let stale_ids: BTreeSet<ChunkId> = {
            let recipe = Recipe::from_bytes(&fs::read(&stale).unwrap()).unwrap();
            recipe
                .upper_chunks
                .iter()
                .chain(&recipe.meta_chunks)
                .map(|c| c.id)
                .collect()
        };
        let (images, _) = land_kept(&store, &mut bufs, 1);
        assert!(!stale.exists());
        assert!(CkptImage::path_for(&generation_dir(&root, 1), 0).is_file());
        let sel = store.select(Some(2), None).unwrap();
        assert_eq!((sel.round, sel.rejected.len()), (1, 0));
        assert_eq!(
            copied(&sel),
            images.into_iter().map(Some).collect::<Vec<_>>()
        );
        store.gc(1).unwrap();
        assert!(pool_ids(&store).is_disjoint(&stale_ids));
        assert_eq!(pool_ids(&store), recipe_ids(&store, 1));
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn store_mode_parses_and_default_is_flat() {
        assert_eq!(StoreMode::parse("flat"), Some(StoreMode::Flat));
        assert_eq!(StoreMode::parse("CHUNKED"), Some(StoreMode::Chunked));
        assert_eq!(StoreMode::parse("bogus"), None);
        assert_eq!(StoreMode::parse(""), None);
        assert_eq!(StoreMode::Chunked.name(), "chunked");
        let d = StoreConfig::default();
        assert_eq!(d.mode, StoreMode::Flat);
        assert_eq!((d.retry_attempts, d.chunk_writers), (4, 4));
        assert_eq!(d.retry_backoff, Duration::from_millis(1));
        assert_eq!(d.chunk, ChunkParams::default());
    }
}
