//! Blob I/O under the checkpoint store.
//!
//! [`crate::store::Store`] decides *what* is durable and in which order;
//! every byte it moves goes through the five operations of [`Blobs`].
//! [`LocalFs`] is the one real implementation. [`FaultyBlobs`] wraps any
//! implementation with the chaos plan's storage faults, so the store's
//! write path carries no fault-injection code of its own.

use std::fs;
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// How [`Blobs::put_atomic`] lands a blob.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PutMode {
    /// A rank's commit file (flat image or recipe) or a manifest: the
    /// parent directory is synced after the rename, so on return the name
    /// is durable — provided any directory the put had to create has been
    /// made durable by a `sync_dir` of the directory holding *it*.
    Commit,
    /// A content-addressed pool chunk: the bytes are on stable storage on
    /// return, the name only after the caller's batched `sync_dir` of the
    /// shard. `writer` (the writing rank) goes into the tmp name, so ranks
    /// landing the same content concurrently never collide on it.
    Pooled {
        /// The writing rank.
        writer: usize,
    },
}

/// What one [`Blobs::put_atomic`] attempt cost, failed attempts included
/// (the stages that ran).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PutCost {
    /// Creating the tmp file and writing the bytes.
    pub write_ns: u64,
    /// Syncing the tmp file.
    pub fsync_ns: u64,
    /// The rename and, in [`PutMode::Commit`], the parent-directory sync.
    pub rename_ns: u64,
    /// fsync calls issued.
    pub fsyncs: u32,
}

/// One name directly under a listed directory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlobEntry {
    /// File name (lossy UTF-8; the store's own names are ASCII).
    pub name: String,
    /// Is it a directory?
    pub is_dir: bool,
}

/// The storage operations the checkpoint store is written against.
/// Directories are implicit: a put creates the ones it needs.
pub trait Blobs: Send + Sync {
    /// One attempt (retrying is the store's policy) at replacing the blob
    /// at `path` with `bytes`: tmp file beside it, sync, atomic rename, so
    /// a blob is never observable half-written under its name. A failed
    /// attempt leaves no tmp file behind.
    fn put_atomic(&self, path: &Path, bytes: &[u8], mode: PutMode) -> (PutCost, io::Result<()>);

    /// Length of the blob at `path`; with `into`, its contents are also
    /// appended to the buffer.
    fn get(&self, path: &Path, into: Option<&mut Vec<u8>>) -> io::Result<u64>;

    /// Names directly under `dir`, in no particular order. A missing
    /// directory lists as empty.
    fn list(&self, dir: &Path) -> io::Result<Vec<BlobEntry>>;

    /// Remove a blob, or a directory with everything under it; durable
    /// after `sync_dir` of the parent. A missing path is `NotFound`.
    fn remove(&self, path: &Path) -> io::Result<()>;

    /// Make the names directly in `dir` (creations, renames, removals so
    /// far) durable. Best-effort where directories cannot be opened.
    fn sync_dir(&self, dir: &Path) -> io::Result<()>;
}

/// A shared backend: several stores over one set of blobs.
impl Blobs for std::sync::Arc<dyn Blobs> {
    fn put_atomic(&self, path: &Path, bytes: &[u8], mode: PutMode) -> (PutCost, io::Result<()>) {
        (**self).put_atomic(path, bytes, mode)
    }

    fn get(&self, path: &Path, into: Option<&mut Vec<u8>>) -> io::Result<u64> {
        (**self).get(path, into)
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<BlobEntry>> {
        (**self).list(dir)
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        (**self).remove(path)
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        (**self).sync_dir(dir)
    }
}

// ---- the local filesystem --------------------------------------------------

/// [`Blobs`] on the local filesystem — the one real backend.
#[derive(Debug, Clone, Copy, Default)]
pub struct LocalFs;

impl Blobs for LocalFs {
    fn put_atomic(&self, path: &Path, bytes: &[u8], mode: PutMode) -> (PutCost, io::Result<()>) {
        let mut cost = PutCost::default();
        let (Some(dir), Some(name)) = (path.parent(), path.file_name()) else {
            let e = io::Error::new(io::ErrorKind::InvalidInput, "blob path has no parent");
            return (cost, Err(e));
        };
        let name = name.to_string_lossy();
        let tmp = dir.join(match mode {
            PutMode::Commit => format!(".tmp-{name}"),
            PutMode::Pooled { writer } => format!(".tmp-{writer}-{name}"),
        });
        let ns = |t: Instant| t.elapsed().as_nanos() as u64;
        let res = (|| {
            let t = Instant::now();
            let mut f = match fs::File::create(&tmp) {
                Err(e) if e.kind() == io::ErrorKind::NotFound => {
                    fs::create_dir_all(dir)?;
                    fs::File::create(&tmp)?
                }
                other => other?,
            };
            f.write_all(bytes)?;
            cost.write_ns = ns(t);
            let t = Instant::now();
            f.sync_all()?;
            cost.fsyncs += 1;
            cost.fsync_ns = ns(t);
            drop(f);
            let t = Instant::now();
            fs::rename(&tmp, path)?;
            let synced = if mode == PutMode::Commit {
                cost.fsyncs += 1;
                self.sync_dir(dir)
            } else {
                Ok(())
            };
            cost.rename_ns = ns(t);
            synced
        })();
        if res.is_err() {
            let _ = fs::remove_file(&tmp);
        }
        (cost, res)
    }

    fn get(&self, path: &Path, into: Option<&mut Vec<u8>>) -> io::Result<u64> {
        match into {
            Some(buf) => Ok(fs::File::open(path)?.read_to_end(buf)? as u64),
            None => Ok(fs::metadata(path)?.len()),
        }
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<BlobEntry>> {
        let rd = match fs::read_dir(dir) {
            Ok(rd) => rd,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(e),
        };
        rd.map(|entry| {
            let entry = entry?;
            Ok(BlobEntry {
                name: entry.file_name().to_string_lossy().into_owned(),
                is_dir: entry.file_type()?.is_dir(),
            })
        })
        .collect()
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        match fs::remove_file(path) {
            Err(_) if path.is_dir() => fs::remove_dir_all(path),
            other => other,
        }
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        match fs::File::open(dir) {
            Ok(d) => d.sync_all(),
            Err(_) => Ok(()),
        }
    }
}

// ---- fault injection -------------------------------------------------------

/// Injected damage for one image write (driven by the chaos fault plan).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteFault {
    /// The first `attempts` puts of the rank's commit file fail with an
    /// injected I/O error. `u32::MAX` models a dead disk (every retry
    /// fails); small values model transient errors the bounded backoff
    /// rides out.
    Error {
        /// How many leading attempts fail.
        attempts: u32,
    },
    /// After the apparent commit, one file the write created is truncated
    /// at `offset % len` bytes — a torn write behind a lying disk cache.
    Torn {
        /// Raw seeded offset; reduced modulo the file length.
        offset: u64,
    },
    /// After the apparent commit, one bit of byte `offset % len` of one
    /// file the write created is flipped — silent media corruption.
    BitFlip {
        /// Raw seeded offset; reduced modulo the file length.
        offset: u64,
    },
}

/// A [`Blobs`] that injects one [`WriteFault`] into one image write and
/// passes everything else through. Build one per faulted write.
///
/// `Error` fails commit puts before they reach the inner backend (the
/// commit file is the rank's commit point, so retries and dead-disk
/// behaviour are the same in both layouts). `Torn` / `BitFlip` let the
/// write succeed and, before the commit put returns, damage one file
/// *this write created*: a fresh pool chunk if there is one — never a
/// chunk deduplicated against an older generation, which no fresh write
/// touches — else the commit file. The writer still reports the intended
/// bytes and CRC, exactly as a deceived rank would to the coordinator.
pub struct FaultyBlobs {
    inner: Box<dyn Blobs>,
    fault: WriteFault,
    /// Where `StoreFault` events go, and the round they are attributed to.
    tel: obs::Telemetry,
    round: i64,
    /// `Error`: commit puts seen so far.
    commit_puts: AtomicU32,
    /// `Torn` / `BitFlip`: pool chunks this write created.
    fresh: Mutex<Vec<PathBuf>>,
}

impl FaultyBlobs {
    /// Arm `fault` over `inner` for one image write of `round`. Arming is
    /// the fault plan firing, counted once on `tel`; every injected error
    /// or damaged file is a `StoreFault` event of its own.
    pub fn new(
        inner: Box<dyn Blobs>,
        fault: WriteFault,
        tel: obs::Telemetry,
        round: i64,
    ) -> FaultyBlobs {
        tel.add(obs::metrics::FAULTS_FIRED, 1);
        FaultyBlobs {
            inner,
            fault,
            tel,
            round,
            commit_puts: AtomicU32::new(0),
            fresh: Mutex::new(Vec::new()),
        }
    }

    fn fired(&self, fault: obs::InjectedFault) {
        self.tel
            .event(self.round, obs::EventKind::StoreFault { fault });
    }

    /// Damage `target` in place; the fsync that takes is added to `cost`.
    fn damage(&self, target: &Path, offset: u64, cost: &mut PutCost) -> io::Result<()> {
        let mut data = Vec::new();
        self.inner.get(target, Some(&mut data))?;
        let len = data.len().max(1) as u64;
        let kind = if matches!(self.fault, WriteFault::Torn { .. }) {
            data.truncate((offset % len) as usize);
            obs::InjectedFault::Torn
        } else {
            data.resize(len as usize, 0);
            data[(offset % len) as usize] ^= 1 << (offset % 8);
            obs::InjectedFault::BitFlip
        };
        let (c, res) = self
            .inner
            .put_atomic(target, &data, PutMode::Pooled { writer: 0 });
        cost.fsyncs += c.fsyncs;
        res?;
        self.fired(kind);
        Ok(())
    }
}

impl Blobs for FaultyBlobs {
    fn put_atomic(&self, path: &Path, bytes: &[u8], mode: PutMode) -> (PutCost, io::Result<()>) {
        let commit = mode == PutMode::Commit;
        let offset = match self.fault {
            WriteFault::Error { attempts } => {
                if commit && self.commit_puts.fetch_add(1, Ordering::SeqCst) < attempts {
                    self.fired(obs::InjectedFault::WriteError);
                    let e = io::Error::other("injected storage write error");
                    return (PutCost::default(), Err(e));
                }
                return self.inner.put_atomic(path, bytes, mode);
            }
            WriteFault::Torn { offset } | WriteFault::BitFlip { offset } => offset,
        };
        let (mut cost, res) = self.inner.put_atomic(path, bytes, mode);
        if res.is_err() {
            return (cost, res);
        }
        let mut fresh = self.fresh.lock().expect("a chunk writer panicked");
        if !commit {
            fresh.push(path.to_path_buf());
            return (cost, Ok(()));
        }
        // Sorted, so the seeded choice does not depend on which chunk
        // writer thread finished first.
        fresh.sort();
        let target = match fresh.len() as u64 {
            0 => path,
            n => &fresh[(offset % n) as usize],
        };
        let res = self.damage(target, offset, &mut cost);
        (cost, res)
    }

    fn get(&self, path: &Path, into: Option<&mut Vec<u8>>) -> io::Result<u64> {
        self.inner.get(path, into)
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<BlobEntry>> {
        self.inner.list(dir)
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        self.inner.remove(path)
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        self.inner.sync_dir(dir)
    }
}
