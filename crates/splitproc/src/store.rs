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
//! Invariants:
//!
//! * Every image is written via tmp-file + `write_all` + `sync_all` +
//!   atomic rename + parent-directory fsync, with bounded-backoff retries
//!   on transient errors ([`write_atomic`]). A reader never observes a
//!   half-written file under its final name.
//! * A generation is **committed** only once its `MANIFEST` (round, world
//!   size, per-rank image sizes and CRCs) is durably on disk — written by
//!   the coordinator strictly after *every* rank reported a successful
//!   image write. A generation without a manifest is a failed or
//!   in-progress round and is never restart material.
//! * Restart scans generations newest-first ([`select_generation`]),
//!   validates the manifest and every rank image (whole-file CRC, header
//!   agreement), and falls back to the newest globally-complete
//!   generation, reporting exactly what was rejected and why.
//!
//! This is the SCR/VeloC-style multi-level retention idea reduced to one
//! storage tier: `retain` committed generations are kept, older ones are
//! garbage-collected ([`gc_generations`]).

use crate::chunk::{self, ChunkId, ChunkParams, ChunkRef, Recipe};
use crate::codec::{crc32, Crc32};
use crate::image::{CkptImage, ImageError, ImageHeader};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::fs;
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Manifest file name inside a generation directory.
pub const MANIFEST_FILE: &str = "MANIFEST";

/// Name of the shared chunk pool directory under a store root.
pub const CHUNKS_DIR: &str = "chunks";

const MANIFEST_MAGIC: &[u8; 8] = b"MANA2MAN";
const MANIFEST_VERSION: u32 = 1;

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
    /// A manifest file exists but is unreadable or inconsistent.
    BadManifest {
        /// The manifest path.
        path: PathBuf,
        /// What was wrong with it.
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
            StoreError::BadManifest { path, reason } => {
                write!(f, "bad manifest {}: {reason}", path.display())
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

impl From<ImageError> for StoreError {
    fn from(e: ImageError) -> Self {
        match e {
            ImageError::Io(io) => StoreError::Io(io),
            other => StoreError::Io(io::Error::new(
                io::ErrorKind::InvalidData,
                other.to_string(),
            )),
        }
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
    /// SHA-256, and each rank stores a `.cref` recipe instead of a flat
    /// image. A chunk already in the pool is never rewritten, so a
    /// slowly-mutating workload pays only for changed bytes per round.
    Chunked,
}

impl StoreMode {
    /// Parse a `MANA2_STORE` value.
    pub fn parse(spec: &str) -> Option<StoreMode> {
        match spec.trim().to_ascii_lowercase().as_str() {
            "flat" => Some(StoreMode::Flat),
            "chunked" => Some(StoreMode::Chunked),
            _ => None,
        }
    }

    /// Short stable name, used in metrics and artifacts.
    pub fn name(self) -> &'static str {
        match self {
            StoreMode::Flat => "flat",
            StoreMode::Chunked => "chunked",
        }
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

// ---- fault injection -------------------------------------------------------

/// Injected damage for one image write (driven by the chaos fault plan).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteFault {
    /// The first `attempts` write attempts fail with an injected I/O
    /// error. `u32::MAX` models a dead disk (every retry fails); small
    /// values model transient errors the bounded backoff rides out.
    Error {
        /// How many leading attempts fail.
        attempts: u32,
    },
    /// After the apparent commit, the file is truncated at
    /// `offset % len` bytes — a torn write behind a lying disk cache.
    Torn {
        /// Raw seeded offset; reduced modulo the image length.
        offset: u64,
    },
    /// After the apparent commit, one bit of byte `offset % len` is
    /// flipped — silent media corruption.
    BitFlip {
        /// Raw seeded offset; reduced modulo the image length.
        offset: u64,
    },
}

// ---- path helpers ----------------------------------------------------------

/// Directory of generation `round` under `root`.
pub fn generation_dir(root: &Path, round: u64) -> PathBuf {
    root.join(format!("gen_{round:05}"))
}

/// Parse a `gen_<round>` directory name.
pub fn parse_generation_name(name: &str) -> Option<u64> {
    name.strip_prefix("gen_")?.parse().ok()
}

/// The shared chunk pool directory under a store root.
pub fn chunks_dir(root: &Path) -> PathBuf {
    root.join(CHUNKS_DIR)
}

/// Pool path of one chunk: `chunks/<first-two-hex>/<64-hex>.chunk`. The
/// two-hex shard keeps any one directory from accumulating the whole pool.
pub fn chunk_path(root: &Path, id: ChunkId) -> PathBuf {
    let hex = id.to_hex();
    chunks_dir(root)
        .join(&hex[..2])
        .join(format!("{hex}.chunk"))
}

/// Recipe file (`.cref`) for a rank inside a chunked generation directory.
pub fn recipe_path_for(dir: &Path, rank: usize) -> PathBuf {
    dir.join(format!("ckpt_rank_{rank:05}.cref"))
}

/// Best-effort directory fsync: required for rename durability on POSIX;
/// silently skipped on platforms where directories cannot be opened.
fn fsync_dir(dir: &Path) -> io::Result<()> {
    match fs::File::open(dir) {
        Ok(d) => d.sync_all(),
        Err(_) => Ok(()),
    }
}

// ---- atomic writes ---------------------------------------------------------

/// Durably write `bytes` to `path`: tmp file in the same directory,
/// `write_all` + `sync_all`, atomic rename over `path`, parent-dir fsync.
/// Transient errors are retried with bounded exponential backoff. Returns
/// the number of retries that were needed.
pub fn write_atomic(path: &Path, bytes: &[u8], cfg: &StoreConfig) -> io::Result<u32> {
    write_atomic_traced(path, bytes, cfg, None, None, obs::NO_ROUND).map(|c| c.retries)
}

/// What one atomic write cost: retries needed and fsyncs issued (file
/// `sync_all` + parent-directory fsync, across all attempts).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AtomicWriteCost {
    /// Transient-error retries the write needed.
    pub retries: u32,
    /// fsync calls issued (successful ones, including failed attempts').
    pub fsyncs: u32,
}

/// [`write_atomic`] with an optional injected [`WriteFault::Error`]
/// (`Torn`/`BitFlip` are post-commit faults and are ignored here; apply
/// them to the final file, as [`write_image`] does) and flight-recorder
/// instrumentation: each attempt records its write/fsync/rename stage
/// timings, injected failures record a fault event. `rec`/`round`
/// attribute the events.
pub fn write_atomic_traced(
    path: &Path,
    bytes: &[u8],
    cfg: &StoreConfig,
    fault: Option<&WriteFault>,
    rec: Option<&obs::Recorder>,
    round: i64,
) -> io::Result<AtomicWriteCost> {
    let dir = path
        .parent()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "path has no parent"))?;
    let file_name = path
        .file_name()
        .and_then(|n| n.to_str())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "path has no file name"))?;
    let tmp = dir.join(format!(".tmp-{file_name}"));
    let attempts = cfg.retry_attempts.max(1);
    let mut last_err: Option<io::Error> = None;
    let mut fsyncs = 0u32;
    for attempt in 0..attempts {
        if attempt > 0 {
            std::thread::sleep(cfg.retry_backoff * 2u32.saturating_pow(attempt - 1));
        }
        let mut write_ns = 0u64;
        let mut fsync_ns = 0u64;
        let mut rename_ns = 0u64;
        let mut injected = false;
        let res = (|| -> io::Result<()> {
            if let Some(WriteFault::Error { attempts: n }) = fault {
                if attempt < *n {
                    injected = true;
                    return Err(io::Error::other("injected storage write error"));
                }
            }
            let t = Instant::now();
            let mut f = fs::File::create(&tmp)?;
            f.write_all(bytes)?;
            write_ns = t.elapsed().as_nanos() as u64;
            let t = Instant::now();
            f.sync_all()?;
            fsyncs += 1;
            fsync_ns = t.elapsed().as_nanos() as u64;
            drop(f);
            let t = Instant::now();
            fs::rename(&tmp, path)?;
            let r = fsync_dir(dir);
            fsyncs += 1;
            rename_ns = t.elapsed().as_nanos() as u64;
            r
        })();
        if let Some(r) = rec {
            if injected {
                r.event(
                    round,
                    obs::EventKind::StoreFault {
                        fault: obs::InjectedFault::WriteError,
                    },
                );
            }
            r.event(
                round,
                obs::EventKind::StoreAttempt {
                    attempt: attempt + 1,
                    write_ns,
                    fsync_ns,
                    rename_ns,
                    ok: res.is_ok(),
                },
            );
        }
        match res {
            Ok(()) => {
                return Ok(AtomicWriteCost {
                    retries: attempt,
                    fsyncs,
                })
            }
            Err(e) => last_err = Some(e),
        }
    }
    let _ = fs::remove_file(&tmp);
    Err(last_err.unwrap_or_else(|| io::Error::other("write failed with no attempts")))
}

/// Outcome of a durable image write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteOutcome {
    /// Bytes of the rank's file in the generation directory — the flat
    /// image in flat mode, the recipe in chunked mode. This is what the
    /// manifest entry records.
    pub bytes: usize,
    /// CRC32 of that file's intended contents (what the manifest records).
    pub crc: u32,
    /// Transient-error retries the write needed.
    pub retries: u32,
    /// fsync calls issued while landing the image (file + directory,
    /// including the root-directory fsync and any post-commit fault
    /// damage syncs).
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
    /// Batched directory-fsync rounds for the chunk pool (0 or 1 per
    /// image write; 0 in flat mode).
    pub fsync_batches: u32,
}

/// Durably write `image` into its generation directory under `root`
/// (created if needed). Post-commit faults (`Torn`/`BitFlip`) damage the
/// final file *after* the writer believes the write succeeded — the
/// returned outcome still reports the intended bytes and CRC, exactly as
/// a deceived rank would to the coordinator.
pub fn write_image(
    root: &Path,
    image: &CkptImage,
    cfg: &StoreConfig,
    fault: Option<&WriteFault>,
) -> Result<WriteOutcome, StoreError> {
    write_image_traced(root, image, cfg, fault, None)
}

/// [`write_image`] with flight-recorder instrumentation: per-attempt
/// stage timings, injected-fault events, and a final `StoreWrite` record
/// land in `rec`'s ring, attributed to the image's round. Dispatches on
/// [`StoreConfig::mode`]: flat writes one self-contained image file,
/// chunked splits payloads into the content-addressed pool and writes a
/// recipe.
pub fn write_image_traced(
    root: &Path,
    image: &CkptImage,
    cfg: &StoreConfig,
    fault: Option<&WriteFault>,
    rec: Option<&obs::Recorder>,
) -> Result<WriteOutcome, StoreError> {
    match cfg.mode {
        StoreMode::Flat => write_image_flat(root, image, cfg, fault, rec),
        StoreMode::Chunked => write_image_chunked(root, image, cfg, fault, rec),
    }
}

/// Post-commit torn-write damage: truncate `path` at `offset % len` after
/// the writer already believes the write succeeded. Returns fsyncs issued.
fn apply_torn(
    path: &Path,
    offset: u64,
    rec: Option<&obs::Recorder>,
    round: i64,
) -> io::Result<u32> {
    let len = fs::metadata(path)?.len().max(1);
    let cut = offset % len;
    let f = fs::OpenOptions::new().write(true).open(path)?;
    f.set_len(cut)?;
    f.sync_all()?;
    if let Some(r) = rec {
        r.event(
            round,
            obs::EventKind::StoreFault {
                fault: obs::InjectedFault::Torn,
            },
        );
    }
    Ok(1)
}

/// Post-commit silent media corruption: flip one bit of byte
/// `offset % len` in `path`. Returns fsyncs issued.
fn apply_bit_flip(
    path: &Path,
    offset: u64,
    rec: Option<&obs::Recorder>,
    round: i64,
) -> io::Result<u32> {
    let mut data = fs::read(path)?;
    if data.is_empty() {
        data.push(0);
    }
    let byte = (offset % data.len() as u64) as usize;
    data[byte] ^= 1 << (offset % 8);
    let f = fs::File::create(path)?;
    {
        let mut w = &f;
        w.write_all(&data)?;
    }
    f.sync_all()?;
    if let Some(r) = rec {
        r.event(
            round,
            obs::EventKind::StoreFault {
                fault: obs::InjectedFault::BitFlip,
            },
        );
    }
    Ok(1)
}

fn write_image_flat(
    root: &Path,
    image: &CkptImage,
    cfg: &StoreConfig,
    fault: Option<&WriteFault>,
    rec: Option<&obs::Recorder>,
) -> Result<WriteOutcome, StoreError> {
    let round = image.round as i64;
    let dir = generation_dir(root, image.round);
    fs::create_dir_all(&dir)?;
    fsync_dir(root)?;
    let mut fsyncs = 1u32;
    let bytes = image.to_bytes();
    let crc = crc32(&bytes);
    let path = CkptImage::path_for(&dir, image.rank);
    let cost = write_atomic_traced(&path, &bytes, cfg, fault, rec, round)?;
    let retries = cost.retries;
    fsyncs += cost.fsyncs;
    match fault {
        Some(WriteFault::Torn { offset }) => fsyncs += apply_torn(&path, *offset, rec, round)?,
        Some(WriteFault::BitFlip { offset }) => {
            fsyncs += apply_bit_flip(&path, *offset, rec, round)?
        }
        _ => {}
    }
    if let Some(r) = rec {
        r.event(
            round,
            obs::EventKind::StoreWrite {
                bytes: bytes.len() as u64,
                retries,
                crc,
            },
        );
    }
    Ok(WriteOutcome {
        bytes: bytes.len(),
        crc,
        retries,
        fsyncs,
        logical_bytes: bytes.len(),
        physical_bytes: bytes.len(),
        chunks_written: 0,
        chunks_deduped: 0,
        fsync_batches: 0,
    })
}

/// Write one chunk into the pool: tmp file (named uniquely per writing
/// rank so concurrent rank threads landing the same content never collide
/// on the tmp name), `write_all` + `sync_all`, atomic rename to the
/// content-addressed final name. The *directory* fsync is deliberately
/// omitted — the caller batches one dir-fsync per touched shard after all
/// chunks of the image have landed.
fn write_chunk_file(root: &Path, id: ChunkId, data: &[u8], tmp_tag: usize) -> io::Result<()> {
    let path = chunk_path(root, id);
    let dir = path.parent().expect("chunk path has a shard parent");
    let tmp = dir.join(format!(".tmp-{tmp_tag}-{}", id.to_hex()));
    let mut f = fs::File::create(&tmp)?;
    f.write_all(data)?;
    f.sync_all()?;
    drop(f);
    match fs::rename(&tmp, &path) {
        Ok(()) => Ok(()),
        Err(e) => {
            let _ = fs::remove_file(&tmp);
            Err(e)
        }
    }
}

/// Chunked-mode image write: split payloads at content-defined boundaries,
/// write only chunks not already in the pool (parallel bounded writers,
/// batched dir-fsyncs), then durably write the per-rank recipe. The recipe
/// write is the per-rank commit point, so injected `WriteFault::Error`s
/// hit it (retries and dead-disk semantics match flat mode); post-commit
/// `Torn`/`BitFlip` damage lands on a chunk this round actually wrote —
/// damaging a chunk shared with an older committed generation would
/// corrupt history no fresh write touches, which the fault model does not
/// allow — or on the recipe when the round deduped everything.
fn write_image_chunked(
    root: &Path,
    image: &CkptImage,
    cfg: &StoreConfig,
    fault: Option<&WriteFault>,
    rec: Option<&obs::Recorder>,
) -> Result<WriteOutcome, StoreError> {
    let round = image.round as i64;
    let dir = generation_dir(root, image.round);
    fs::create_dir_all(&dir)?;
    fsync_dir(root)?;
    let mut fsyncs = 1u32;
    let params = cfg.chunk.normalized();
    let upper_chunks = chunk::chunk_payload(&image.upper, params);
    let meta_chunks = chunk::chunk_payload(&image.meta, params);

    // Dedup: a chunk already in the pool (from any generation, or from
    // another rank of this very round) is never rewritten.
    let mut fresh: BTreeMap<ChunkId, &[u8]> = BTreeMap::new();
    let mut deduped = 0u32;
    for (cref, data) in upper_chunks.iter().chain(meta_chunks.iter()) {
        if fresh.contains_key(&cref.id) || chunk_path(root, cref.id).is_file() {
            deduped += 1;
        } else {
            fresh.insert(cref.id, data);
        }
    }
    let fresh: Vec<(ChunkId, &[u8])> = fresh.into_iter().collect();
    let chunks_written = fresh.len() as u32;
    let mut physical = 0usize;
    let mut fsync_batches = 0u32;
    let mut new_paths: Vec<PathBuf> = Vec::with_capacity(fresh.len());
    if !fresh.is_empty() {
        let mut shards: BTreeSet<PathBuf> = BTreeSet::new();
        for (id, data) in &fresh {
            let p = chunk_path(root, *id);
            shards.insert(p.parent().expect("sharded").to_path_buf());
            new_paths.push(p);
            physical += data.len();
        }
        for s in &shards {
            fs::create_dir_all(s)?;
        }
        // Bounded worker pipeline: `chunk_writers` threads drain the fresh
        // chunk list concurrently; each chunk costs one file fsync, no
        // per-chunk dir fsync.
        let workers = cfg.chunk_writers.max(1).min(fresh.len());
        let next = AtomicUsize::new(0);
        let failure: Mutex<Option<io::Error>> = Mutex::new(None);
        std::thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= fresh.len() || failure.lock().unwrap().is_some() {
                        break;
                    }
                    let (id, data) = fresh[i];
                    if let Err(e) = write_chunk_file(root, id, data, image.rank) {
                        failure.lock().unwrap().get_or_insert(e);
                        break;
                    }
                });
            }
        });
        if let Some(e) = failure.into_inner().unwrap() {
            return Err(e.into());
        }
        fsyncs += chunks_written;
        // One batched dir-fsync round: each touched shard once, plus the
        // pool root once (covers freshly created shard dirs).
        for s in &shards {
            fsync_dir(s)?;
            fsyncs += 1;
        }
        fsync_dir(&chunks_dir(root))?;
        fsyncs += 1;
        fsync_batches = 1;
    }

    let recipe = Recipe {
        rank: image.rank as u64,
        world_size: image.world_size as u64,
        round: image.round,
        upper_len: image.upper.len() as u64,
        meta_len: image.meta.len() as u64,
        upper_crc: crc32(&image.upper),
        meta_crc: crc32(&image.meta),
        upper_chunks: upper_chunks.iter().map(|(c, _)| *c).collect(),
        meta_chunks: meta_chunks.iter().map(|(c, _)| *c).collect(),
    };
    let rbytes = recipe.to_bytes();
    let crc = crc32(&rbytes);
    let rpath = recipe_path_for(&dir, image.rank);
    let cost = write_atomic_traced(&rpath, &rbytes, cfg, fault, rec, round)?;
    let retries = cost.retries;
    fsyncs += cost.fsyncs;
    physical += rbytes.len();
    match fault {
        Some(WriteFault::Torn { offset }) => {
            let target = pick_damage_target(&new_paths, &rpath, *offset);
            fsyncs += apply_torn(target, *offset, rec, round)?;
        }
        Some(WriteFault::BitFlip { offset }) => {
            let target = pick_damage_target(&new_paths, &rpath, *offset);
            fsyncs += apply_bit_flip(target, *offset, rec, round)?;
        }
        _ => {}
    }
    if let Some(r) = rec {
        r.event(
            round,
            obs::EventKind::StoreWrite {
                bytes: image.size_bytes() as u64,
                retries,
                crc,
            },
        );
    }
    Ok(WriteOutcome {
        bytes: rbytes.len(),
        crc,
        retries,
        fsyncs,
        logical_bytes: image.size_bytes(),
        physical_bytes: physical,
        chunks_written,
        chunks_deduped: deduped,
        fsync_batches,
    })
}

/// Seeded choice of the file post-commit damage lands on: one of the
/// chunks this write actually put in the pool, or the recipe itself when
/// everything deduped.
fn pick_damage_target<'a>(new_paths: &'a [PathBuf], recipe: &'a Path, offset: u64) -> &'a Path {
    if new_paths.is_empty() {
        recipe
    } else {
        &new_paths[(offset % new_paths.len() as u64) as usize]
    }
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

    /// Serialize (self-checksummed).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(8 + 4 + 8 * 3 + self.entries.len() * 20 + 4);
        out.extend_from_slice(MANIFEST_MAGIC);
        out.extend_from_slice(&MANIFEST_VERSION.to_le_bytes());
        out.extend_from_slice(&self.round.to_le_bytes());
        out.extend_from_slice(&self.world_size.to_le_bytes());
        out.extend_from_slice(&(self.entries.len() as u64).to_le_bytes());
        for e in &self.entries {
            out.extend_from_slice(&e.rank.to_le_bytes());
            out.extend_from_slice(&e.bytes.to_le_bytes());
            out.extend_from_slice(&e.crc.to_le_bytes());
        }
        let crc = crc32(&out);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }

    /// Parse and verify a serialized manifest.
    pub fn from_bytes(buf: &[u8]) -> Result<Self, String> {
        let header = 8 + 4 + 8 * 3;
        if buf.len() < header + 4 {
            return Err("manifest truncated".into());
        }
        if &buf[0..8] != MANIFEST_MAGIC {
            return Err("not a MANA-2.0 manifest".into());
        }
        let version = u32::from_le_bytes(buf[8..12].try_into().unwrap());
        if version != MANIFEST_VERSION {
            return Err(format!("unsupported manifest version {version}"));
        }
        let rd_u64 = |off: usize| u64::from_le_bytes(buf[off..off + 8].try_into().unwrap());
        let round = rd_u64(12);
        let world_size = rd_u64(20);
        let nent = rd_u64(28) as usize;
        let body_len = header
            .checked_add(nent.checked_mul(20).ok_or("entry count overflows")?)
            .ok_or("entry count overflows")?;
        if buf.len() != body_len + 4 {
            return Err("manifest truncated".into());
        }
        let stored_crc = u32::from_le_bytes(buf[body_len..body_len + 4].try_into().unwrap());
        if crc32(&buf[..body_len]) != stored_crc {
            return Err("manifest CRC mismatch".into());
        }
        let mut entries = Vec::with_capacity(nent);
        for i in 0..nent {
            let off = header + i * 20;
            entries.push(ManifestEntry {
                rank: rd_u64(off),
                bytes: rd_u64(off + 8),
                crc: u32::from_le_bytes(buf[off + 16..off + 20].try_into().unwrap()),
            });
        }
        Ok(Manifest {
            round,
            world_size,
            entries,
        })
    }
}

/// Durably write the manifest of generation `manifest.round`, marking it
/// committed. The caller (the coordinator) must only do this after every
/// rank reported a successful image write.
pub fn commit_generation(
    root: &Path,
    manifest: &Manifest,
    cfg: &StoreConfig,
) -> Result<(), StoreError> {
    let dir = generation_dir(root, manifest.round);
    fs::create_dir_all(&dir)?;
    write_atomic(&Manifest::path_in(&dir), &manifest.to_bytes(), cfg)?;
    Ok(())
}

/// Remove generation `round` entirely (partial images of an aborted
/// round). Missing directories are fine.
pub fn abort_generation(root: &Path, round: u64) -> io::Result<()> {
    match fs::remove_dir_all(generation_dir(root, round)) {
        Ok(()) => fsync_dir(root),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(e),
    }
}

/// Read the manifest of a generation directory.
pub fn read_manifest(dir: &Path) -> Result<Manifest, StoreError> {
    let path = Manifest::path_in(dir);
    let mut buf = Vec::new();
    fs::File::open(&path)
        .and_then(|mut f| f.read_to_end(&mut buf))
        .map_err(StoreError::Io)?;
    Manifest::from_bytes(&buf).map_err(|reason| StoreError::BadManifest { path, reason })
}

// ---- listing, GC -----------------------------------------------------------

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

/// All generations under `root`, sorted oldest-first. A missing root is
/// an empty store.
pub fn list_generations(root: &Path) -> io::Result<Vec<GenInfo>> {
    let rd = match fs::read_dir(root) {
        Ok(rd) => rd,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(e),
    };
    let mut gens = Vec::new();
    for entry in rd {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(round) = parse_generation_name(name) else {
            continue;
        };
        let dir = entry.path();
        if !dir.is_dir() {
            continue;
        }
        let committed = Manifest::path_in(&dir).is_file();
        gens.push(GenInfo {
            round,
            committed,
            dir,
        });
    }
    gens.sort_by_key(|g| g.round);
    Ok(gens)
}

/// Garbage-collect old generations: keep the newest `retain` committed
/// generations (floor 1 — GC never deletes the only good checkpoint) and
/// drop everything older, including stale uncommitted directories left by
/// aborted rounds. A generation pinned by an open restart-journal epoch
/// ([`crate::journal::pinned_generations`]) is never removed, no matter
/// how old — GC must not collect the generation a restart is reading.
/// Returns the removed rounds.
pub fn gc_generations(root: &Path, retain: usize) -> io::Result<Vec<u64>> {
    let retain = retain.max(1);
    let gens = list_generations(root)?;
    let pinned = crate::journal::pinned_generations(root);
    let committed: Vec<u64> = gens
        .iter()
        .filter(|g| g.committed)
        .map(|g| g.round)
        .collect();
    if committed.is_empty() {
        return Ok(Vec::new());
    }
    let newest = *committed.last().unwrap();
    let cutoff_idx = committed.len().saturating_sub(retain);
    let keep_from = committed[cutoff_idx]; // oldest committed round we keep
    let mut removed = Vec::new();
    for g in &gens {
        if pinned.contains(&g.round) {
            continue;
        }
        let stale_committed = g.committed && g.round < keep_from;
        let stale_partial = !g.committed && g.round < newest;
        if stale_committed || stale_partial {
            fs::remove_dir_all(&g.dir)?;
            removed.push(g.round);
        }
    }
    if !removed.is_empty() {
        fsync_dir(root)?;
    }
    Ok(removed)
}

// ---- validation & selection ------------------------------------------------

/// Fully validate one generation directory: manifest present and
/// self-consistent, agreeing with `round` (and `expected_world` when
/// given), exactly one image per rank, every image parseable (magic,
/// version, section CRCs) with header fields and whole-file CRC matching
/// the manifest. Returns the manifest on success, a rejection otherwise.
pub fn validate_generation(
    dir: &Path,
    round: u64,
    expected_world: Option<usize>,
) -> Result<Manifest, Rejection> {
    validate_generation_ranks(dir, round, expected_world, None)
}

/// [`validate_generation`] scoped to a rank subset: manifest-level checks
/// stay global, but only the listed ranks' images are opened and
/// verified. This is what partial restart needs — the ranks being
/// replaced must restore from pristine images, while a survivor whose
/// image has since rotted on disk must not veto the whole restart (it is
/// not being read). Images are verified in place and not kept, so memory
/// stays bounded by the verifying workers however wide the generation is;
/// restart, which consumes what it verifies, uses
/// [`select_generation_at`].
pub fn validate_generation_ranks(
    dir: &Path,
    round: u64,
    expected_world: Option<usize>,
    only_ranks: Option<&[u64]>,
) -> Result<Manifest, Rejection> {
    let manifest = check_manifest(dir, round, expected_world)?;
    verify_ranks(dir, &manifest, only_ranks, false)?;
    Ok(manifest)
}

/// Validate the generation in `dir` exactly as
/// [`validate_generation_ranks`] does and keep what was verified: the
/// returned [`Selected`] carries the image of every rank that was read,
/// so restart restores from the very bytes validation checked instead of
/// reading and checking them again.
pub fn select_generation_at(
    dir: &Path,
    round: u64,
    expected_world: Option<usize>,
    only_ranks: Option<&[u64]>,
) -> Result<Selected, Rejection> {
    let manifest = check_manifest(dir, round, expected_world)?;
    let images = verify_ranks(dir, &manifest, only_ranks, true)?;
    Ok(Selected {
        round,
        dir: dir.to_path_buf(),
        manifest,
        rejected: Vec::new(),
        images,
    })
}

/// The manifest-level half of validation: present, self-consistent,
/// agreeing with the directory's `round` and the runtime's world size,
/// and listing exactly ranks `0..world_size`.
fn check_manifest(
    dir: &Path,
    round: u64,
    expected_world: Option<usize>,
) -> Result<Manifest, Rejection> {
    use obs::RejectCode as C;
    let manifest = match read_manifest(dir) {
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
    if let Some(w) = expected_world {
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

/// Verify the manifest's rank images — all of them, or the `only_ranks`
/// subset — each through [`read_verified`] plus the header-vs-manifest
/// cross-checks. Returns one slot per world rank; with `keep`, the slot of
/// every verified rank holds its image.
///
/// Ranks are independent, so they are verified on scoped threads bounded
/// by `available_parallelism()`. Work is handed out in ascending rank
/// order and the lowest-rank rejection is the one reported, which is the
/// rejection a serial loop would have stopped at: every rank below a
/// failing one was handed out before it, so it always runs to completion.
fn verify_ranks(
    dir: &Path,
    manifest: &Manifest,
    only_ranks: Option<&[u64]>,
    keep: bool,
) -> Result<Vec<Option<CkptImage>>, Rejection> {
    let mut todo: Vec<&ManifestEntry> = manifest
        .entries
        .iter()
        .filter(|e| only_ranks.is_none_or(|only| only.contains(&e.rank)))
        .collect();
    todo.sort_unstable_by_key(|e| e.rank);
    let next = AtomicUsize::new(0);
    // Early-exit hint only: results travel through the joins below.
    let first_bad = AtomicUsize::new(usize::MAX);
    let work = || {
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= todo.len() || i > first_bad.load(Ordering::Relaxed) {
                return done;
            }
            let res = verify_rank(dir, manifest, todo[i], keep);
            if res.is_err() {
                first_bad.fetch_min(i, Ordering::Relaxed);
            }
            done.push((i, res));
        }
    };
    let workers = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(todo.len());
    let done = if workers <= 1 {
        work()
    } else {
        std::thread::scope(|s| {
            let spawned: Vec<_> = (1..workers).map(|_| s.spawn(work)).collect();
            let mut done = work();
            for h in spawned {
                done.extend(h.join().expect("image verify worker panicked"));
            }
            done
        })
    };
    let mut images = vec![None; manifest.entries.len()];
    let mut bad: Option<(usize, Rejection)> = None;
    for (i, res) in done {
        match res {
            Ok(img) => images[todo[i].rank as usize] = img,
            Err(rej) if bad.as_ref().is_none_or(|(b, _)| i < *b) => bad = Some((i, rej)),
            Err(_) => {}
        }
    }
    match bad {
        Some((_, rej)) => Err(rej),
        None => Ok(images),
    }
}

/// One rank of [`verify_ranks`]: read and verify the image against its
/// manifest entry, then cross-check its header against the manifest.
fn verify_rank(
    dir: &Path,
    manifest: &Manifest,
    entry: &ManifestEntry,
    keep: bool,
) -> Result<Option<CkptImage>, Rejection> {
    use obs::RejectCode as C;
    let (header, image) = read_verified(dir, entry.rank as usize, Some(entry), keep)?;
    if header.rank as u64 != entry.rank {
        return Err(Rejection::new(
            C::BadImage,
            format!("rank {} image claims rank {}", entry.rank, header.rank),
        ));
    }
    if header.world_size as u64 != manifest.world_size {
        return Err(Rejection::new(
            C::BadImage,
            format!(
                "rank {} image world size {} != manifest world size {}",
                entry.rank, header.world_size, manifest.world_size
            ),
        ));
    }
    if header.round != manifest.round {
        return Err(Rejection::new(
            C::BadImage,
            format!(
                "rank {} image round {} != manifest round {}",
                entry.rank, header.round, manifest.round
            ),
        ));
    }
    Ok(image)
}

/// Read one rank's image from a generation directory, whatever its
/// layout, verifying every byte exactly once on the way: the rank's file
/// (flat `.mana` image, else `.cref` recipe) against its manifest `entry`
/// when one is given (size, whole-file CRC), then either both section
/// CRCs of the flat image, or the recipe's own checksum, every chunk's
/// presence, length and SHA-256, and both reassembled-payload CRCs. This
/// is the only reader of rank images: validation, selection and
/// [`load_image`] all go through it. With `keep` the verified image is
/// returned next to its header; without, payloads are checked in place
/// and never copied.
fn read_verified(
    dir: &Path,
    rank: usize,
    entry: Option<&ManifestEntry>,
    keep: bool,
) -> Result<(ImageHeader, Option<CkptImage>), Rejection> {
    use obs::RejectCode as C;
    let flat_path = CkptImage::path_for(dir, rank);
    let chunked = !flat_path.is_file();
    let path = if chunked {
        recipe_path_for(dir, rank)
    } else {
        flat_path
    };
    let bytes = fs::read(path).map_err(|e| {
        Rejection::new(
            C::MissingImage,
            format!("rank {rank} image unreadable: {e}"),
        )
    })?;
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
        if crc32(&bytes) != entry.crc {
            return Err(Rejection::new(
                C::CorruptImage,
                format!("rank {rank} image CRC mismatch against manifest (corrupt image)"),
            ));
        }
    }
    if !chunked {
        let header = CkptImage::verify_bytes(&bytes)
            .map_err(|e| Rejection::new(C::BadImage, format!("rank {rank} image invalid: {e}")))?;
        let image = keep.then(|| CkptImage::from_verified(&header, &bytes));
        return Ok((header, image));
    }
    let recipe = Recipe::from_bytes(&bytes)
        .map_err(|e| Rejection::new(C::BadImage, format!("rank {rank} recipe invalid: {e}")))?;
    // A damaged chunk rejects the image just like a damaged flat file
    // would.
    let root = dir.parent().unwrap_or(dir);
    let (upper, meta) = assemble_payloads(root, &recipe, keep)
        .map_err(|rej| Rejection::new(rej.code, format!("rank {rank}: {}", rej.reason)))?;
    let header = ImageHeader {
        rank: recipe.rank as usize,
        world_size: recipe.world_size as usize,
        round: recipe.round,
        upper_len: recipe.upper_len as usize,
        meta_len: recipe.meta_len as usize,
    };
    let image = keep.then_some(CkptImage {
        rank: header.rank,
        world_size: header.world_size,
        round: header.round,
        upper,
        meta,
    });
    Ok((header, image))
}

// ---- chunked reassembly ----------------------------------------------------

/// Read and verify every chunk of one payload list from the pool. Each
/// chunk is checked for presence, exact length, and SHA-256 identity
/// against its content address — a wrong-hash chunk is *never* returned,
/// it rejects the payload — and folded into the payload's CRC while it is
/// still hot. With `keep` the chunks are concatenated into the returned
/// payload; without, each is checked in a reused buffer and dropped (the
/// returned vector is empty).
fn assemble_one(
    root: &Path,
    refs: &[ChunkRef],
    expected_len: u64,
    expected_crc: u32,
    section: &str,
    keep: bool,
) -> Result<Vec<u8>, Rejection> {
    use obs::RejectCode as C;
    let cap = if keep { expected_len.min(1 << 30) } else { 0 };
    let mut out = Vec::with_capacity(cap as usize);
    let mut total = 0u64;
    let mut crc = Crc32::new();
    for cref in refs {
        let start = out.len();
        fs::File::open(chunk_path(root, cref.id))
            .and_then(|mut f| f.read_to_end(&mut out))
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
        crc.update(data);
        total += cref.len;
        if !keep {
            out.clear();
        }
    }
    if total != expected_len {
        return Err(Rejection::new(
            C::TornImage,
            format!("{section} payload is {total} bytes, recipe says {expected_len}"),
        ));
    }
    if crc.finish() != expected_crc {
        return Err(Rejection::new(
            C::CorruptImage,
            format!("{section} payload CRC mismatch after reassembly"),
        ));
    }
    Ok(out)
}

/// Verify (and with `keep`, reassemble) both payloads of a recipe from
/// the pool under `root`: every chunk and both payload CRCs.
fn assemble_payloads(
    root: &Path,
    recipe: &Recipe,
    keep: bool,
) -> Result<(Vec<u8>, Vec<u8>), Rejection> {
    let upper = assemble_one(
        root,
        &recipe.upper_chunks,
        recipe.upper_len,
        recipe.upper_crc,
        "upper",
        keep,
    )?;
    let meta = assemble_one(
        root,
        &recipe.meta_chunks,
        recipe.meta_len,
        recipe.meta_crc,
        "meta",
        keep,
    )?;
    Ok((upper, meta))
}

/// Load one rank's image from a generation directory, whatever its layout:
/// a flat `.mana` file is read directly; otherwise the `.cref` recipe is
/// reassembled from the chunk pool with per-chunk hash verification. No
/// manifest is consulted, so this checks everything the image vouches for
/// itself (section CRCs, chunk hashes) but not the whole-file CRC. Restart
/// uses it only for ranks validation did not read — the survivors of a
/// partial restart.
pub fn load_image(dir: &Path, rank: usize) -> Result<CkptImage, StoreError> {
    let (_, image) = read_verified(dir, rank, None, true)
        .map_err(|rej| io::Error::new(io::ErrorKind::InvalidData, rej.reason))?;
    Ok(image.expect("read_verified keeps the image when asked to"))
}

// ---- chunk GC --------------------------------------------------------------

/// What a chunk-pool sweep removed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ChunkGcOutcome {
    /// Unreferenced chunks deleted.
    pub removed: u64,
    /// Bytes those chunks occupied.
    pub removed_bytes: u64,
}

/// Mark-and-sweep GC of the shared chunk pool: a chunk survives iff some
/// recipe in *any* surviving generation directory references it. Run this
/// strictly after [`gc_generations`] — that pass already refuses to remove
/// generations pinned by an open `RESTART_JOURNAL` epoch, so a pinned
/// generation's recipes keep its chunks referenced here, and the retained
/// generations' recipes keep theirs. Tmp litter from crashed chunk writes
/// (`.tmp-*`) is swept too. A store with no pool is a no-op.
///
/// Must not run concurrently with image writes: a chunk landed for a
/// recipe that has not been written yet has no reference. The coordinator
/// runs GC synchronously between rounds, which satisfies this.
pub fn gc_chunks(root: &Path) -> io::Result<ChunkGcOutcome> {
    let pool = chunks_dir(root);
    if !pool.is_dir() {
        return Ok(ChunkGcOutcome::default());
    }
    let mut referenced: BTreeSet<ChunkId> = BTreeSet::new();
    for gen in list_generations(root)? {
        let rd = match fs::read_dir(&gen.dir) {
            Ok(rd) => rd,
            Err(e) if e.kind() == io::ErrorKind::NotFound => continue,
            Err(e) => return Err(e),
        };
        for entry in rd {
            let entry = entry?;
            let path = entry.path();
            if path.extension().and_then(|e| e.to_str()) != Some("cref") {
                continue;
            }
            // An unreadable/corrupt recipe contributes no references: its
            // generation can never restore anyway, so its exclusive chunks
            // are garbage.
            let Ok(bytes) = fs::read(&path) else { continue };
            let Ok(recipe) = Recipe::from_bytes(&bytes) else {
                continue;
            };
            for cref in recipe.upper_chunks.iter().chain(recipe.meta_chunks.iter()) {
                referenced.insert(cref.id);
            }
        }
    }
    let mut outcome = ChunkGcOutcome::default();
    let mut touched: BTreeSet<PathBuf> = BTreeSet::new();
    for shard in fs::read_dir(&pool)? {
        let shard = shard?.path();
        if !shard.is_dir() {
            continue;
        }
        for entry in fs::read_dir(&shard)? {
            let entry = entry?;
            let path = entry.path();
            let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
                continue;
            };
            let id = name.strip_suffix(".chunk").and_then(ChunkId::from_hex);
            let dead = match id {
                Some(id) => !referenced.contains(&id),
                // Tmp litter from a crashed writer is always dead; any
                // other unrecognized file is left alone.
                None => name.starts_with(".tmp-"),
            };
            if dead {
                let len = entry.metadata().map(|m| m.len()).unwrap_or(0);
                fs::remove_file(&path)?;
                if id.is_some() {
                    outcome.removed += 1;
                    outcome.removed_bytes += len;
                }
                touched.insert(shard.clone());
            }
        }
    }
    for shard in &touched {
        fsync_dir(shard)?;
    }
    if !touched.is_empty() {
        fsync_dir(&pool)?;
    }
    Ok(outcome)
}

/// The generation chosen for restart.
#[derive(Debug, Clone, PartialEq, Eq)]
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
    /// every rank for a full selection, the `only_ranks` subset for a
    /// partial one (`None` for ranks that were deliberately not read).
    /// Restart restores from these instead of loading them a second time.
    pub images: Vec<Option<CkptImage>>,
}

/// Scan `root` newest-first and return the newest globally-complete
/// generation: committed manifest, every rank image present and valid.
pub fn select_generation(
    root: &Path,
    expected_world: Option<usize>,
) -> Result<Selected, StoreError> {
    select_generation_ranks(root, expected_world, None)
}

/// [`select_generation`] with image validation scoped to `only_ranks`
/// (see [`validate_generation_ranks`]) — the selection partial restart
/// uses: the replaced ranks' images must be pristine, survivors' images
/// are not read and cannot veto (and are absent from
/// [`Selected::images`]).
pub fn select_generation_ranks(
    root: &Path,
    expected_world: Option<usize>,
    only_ranks: Option<&[u64]>,
) -> Result<Selected, StoreError> {
    let gens = list_generations(root)?;
    let mut rejected = Vec::new();
    for g in gens.iter().rev() {
        match select_generation_at(&g.dir, g.round, expected_world, only_ranks) {
            Ok(sel) => return Ok(Selected { rejected, ..sel }),
            Err(rej) => rejected.push(RejectedGeneration {
                round: g.round,
                code: rej.code,
                reason: rej.reason,
            }),
        }
    }
    Err(StoreError::NoUsableGeneration {
        root: root.to_path_buf(),
        rejected,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert!(Manifest::from_bytes(&bad).unwrap_err().contains("CRC"));
        assert!(Manifest::from_bytes(&bytes[..bytes.len() - 1])
            .unwrap_err()
            .contains("truncated"));
    }

    #[test]
    fn commit_and_select_happy_path() {
        let root = tdir("happy");
        commit_round(&root, 2, 0);
        let sel = select_generation(&root, Some(2)).unwrap();
        assert_eq!(sel.round, 0);
        assert!(sel.rejected.is_empty());
        assert_eq!(sel.manifest.entries.len(), 2);
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
        // No tmp litter either.
        let leftovers: Vec<_> = fs::read_dir(&dir).unwrap().collect();
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
        abort_generation(&root, 5).unwrap();
        assert!(!generation_dir(&root, 5).exists());
        // Aborting a non-existent round is fine.
        abort_generation(&root, 99).unwrap();
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
        assert!(validate_generation(&generation_dir(&root, 0), 0, Some(2)).is_ok());
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
        let rej = validate_generation(&dir, 0, Some(3)).unwrap_err();
        assert_eq!(rej.code, obs::RejectCode::CorruptImage);
        assert!(rej.reason.contains("rank 2"), "{}", rej.reason);
        // …but a partial restart replacing only ranks {0, 1} never reads
        // rank 2's image, so the generation is still usable for it.
        let m = validate_generation_ranks(&dir, 0, Some(3), Some(&[0, 1])).unwrap();
        assert_eq!(m.world_size, 3);
        let sel = select_generation_ranks(&root, Some(3), Some(&[0, 1])).unwrap();
        assert_eq!(sel.round, 0);
        // Only the replaced ranks were read and kept; the survivor's slot
        // is empty, and loading it — which is what a partial restart does
        // for survivors — still catches the rot.
        assert_eq!(
            sel.images[..2],
            [Some(image(0, 3, 0)), Some(image(1, 3, 0))]
        );
        assert_eq!(sel.images[2], None);
        assert!(load_image(&dir, 2).is_err());
        // If the damaged rank IS being replaced, the veto stands.
        let err = select_generation_ranks(&root, Some(3), Some(&[1, 2])).unwrap_err();
        assert!(matches!(err, StoreError::NoUsableGeneration { .. }));
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
            write_atomic(
                &path,
                &image(rank, 2, 7).to_bytes(),
                &StoreConfig::default(),
            )
            .unwrap();
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
        assert!(chunks_dir(&root).is_dir());
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
            assert!(validate_generation(&dir, round, Some(2)).is_ok());
            assert_eq!(load_image(&dir, 0).unwrap(), slow_image(0, 2, round));
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
            validate_generation(&dir, 0, Some(2)).is_ok(),
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
        assert!(validate_generation(&generation_dir(&root, 3), 3, Some(2)).is_ok());
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
        let shard = chunks_dir(&root).join("ab");
        fs::create_dir_all(&shard).unwrap();
        let litter = shard.join(".tmp-0-deadbeef");
        fs::write(&litter, b"junk").unwrap();
        gc_chunks(&root).unwrap();
        assert!(!litter.exists(), "tmp litter must be swept");
        assert!(validate_generation(&generation_dir(&root, 0), 0, Some(1)).is_ok());
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
            let rej = validate_generation(&dir, 0, Some(6)).unwrap_err();
            assert_eq!(rej.code, obs::RejectCode::CorruptImage);
            assert_eq!(
                rej.reason,
                "rank 2 image CRC mismatch against manifest (corrupt image)"
            );
            assert_eq!(select_generation_at(&dir, 0, Some(6), None), Err(rej));
        }
        // With rank 2 out of scope the next damaged rank is the answer.
        let rej = validate_generation_ranks(&dir, 0, Some(6), Some(&[5, 4, 0])).unwrap_err();
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
        rot(&chunk_path(&root, victim));
        fs::remove_file(recipe_path_for(&dir, 3)).unwrap();
        for _ in 0..20 {
            let rej = validate_generation(&dir, 0, Some(6)).unwrap_err();
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
                assert_eq!(sel.images[rank].as_ref(), Some(&loaded));
                assert_eq!(loaded, slow_image(rank, 5, 1));
            }
            // Validating one named generation (what a resumed restart
            // epoch does) is the same routine with the same result.
            assert_eq!(select_generation_at(&sel.dir, 1, Some(5), None), Ok(sel));
            // A partial selection keeps exactly the ranks it verified.
            let part = select_generation_ranks(&root, Some(5), Some(&[3, 1])).unwrap();
            for rank in 0..5 {
                let want = [1, 3].contains(&rank).then(|| slow_image(rank, 5, 1));
                assert_eq!(part.images[rank], want);
            }
            // Validation alone verifies the same bytes but keeps nothing.
            assert!(validate_generation(&part.dir, 1, Some(5)).is_ok());
            fs::remove_dir_all(&root).ok();
        }
    }

    #[test]
    fn chunked_survivor_rot_is_caught_at_load_not_at_partial_selection() {
        let root = tdir("chunked_survivor");
        commit_round_with(&root, 3, 0, &chunked_cfg(), &[]);
        let dir = generation_dir(&root, 0);
        let recipe = Recipe::from_bytes(&fs::read(recipe_path_for(&dir, 2)).unwrap()).unwrap();
        rot(&chunk_path(&root, recipe.upper_chunks[0].id));
        let sel = select_generation_ranks(&root, Some(3), Some(&[0, 1])).unwrap();
        assert!(sel.rejected.is_empty());
        assert_eq!(sel.images[2], None);
        assert_eq!(load_image(&dir, 0).unwrap(), slow_image(0, 3, 0));
        let err = load_image(&dir, 2).unwrap_err().to_string();
        assert!(err.contains("content hash mismatch"), "{err}");
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
