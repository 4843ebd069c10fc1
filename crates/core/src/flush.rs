//! The flush of a concluded checkpoint round, and the one driver that
//! performs it.
//!
//! The coordinator decides; it does not perform. The last `Frozen` of a
//! round makes [`Coordinator::on`] return a [`FlushJob`], whose outcome
//! comes back as one more input, [`Coordinator::flushed`]. [`run`] is the
//! flush, a plain function of the job and a writer count. `Driver` is
//! its one caller and the only place the protocol spawns or joins a
//! thread. Resume mode releases every rank before the job runs, behind
//! the application; exit mode sends its verdict on the outcome, since a
//! rank must not exit before its image is durable: `Exit` for a committed
//! round, `Resume` otherwise. Either way a failed flush is told to no
//! rank; it is recorded in `CoordReport::aborted_rounds`.
//!
//! Each image lands as its rank froze it: the kept [`ImageBuf`] carries
//! the header fields it was encoded for, and goes to
//! [`Store::write_encoded`] as it is.

use crate::coordinator::{AbortedRound, CkptRoundStats, Coordinator, RankMsg, Slot};
use obs::metrics as met;
use obs::{EventKind, Phase};
use splitproc::store::{self, Store, StoreError, WriteOutcome};
use splitproc::ImageBuf;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Writer threads a production flush splits the ranks' images over, its
/// own thread being one. The flush competes with the resumed ranks for the
/// cores and the next request waits for it: on two cores one writer left
/// that wait longer than the write it replaced, and eight did no better
/// than four.
const FLUSH_WRITERS: usize = 4;

/// How a flush ended: the committed round's final stats, or — when
/// something failed to land and the generation was scrapped — why.
pub type Flushed = std::result::Result<CkptRoundStats, AbortedRound>;

/// A concluded round's frozen images on their way to the store, and what
/// landing them takes: what the last `Frozen` makes [`Coordinator::on`]
/// return.
pub struct FlushJob {
    /// `(rank, image)`, in rank order.
    pub(crate) images: Vec<(usize, ImageBuf)>,
    /// The round's stats but the flush's own duration.
    pub(crate) stats: CkptRoundStats,
    /// When the round raised intent.
    pub(crate) started: Instant,
    /// Exit mode: every rank waits for this job's outcome, which carries
    /// its verdict.
    pub(crate) ranks_wait: bool,
    pub(crate) store: Option<(Arc<Store>, usize)>,
    pub(crate) fault: Option<Arc<mpisim::FaultPlan>>,
    /// The coordinator's telemetry: the flush records as the coordinator.
    pub(crate) tel: obs::Telemetry,
    /// Every rank's buffer slot (one per rank of the world).
    pub(crate) buffers: Arc<[Slot]>,
}

/// Land every image of `job`, split over at most `writers` threads (the
/// caller's own being one), then commit the manifest and collect the
/// store, or — if anything failed to land — scrap the generation; either
/// way hand every buffer back to its rank's slot. The one place images are
/// written. The on-CPU time of the calling thread and of every writer it
/// spawned is observed into `mana2_ckpt_flush_cpu_ns`.
pub fn run(mut job: FlushJob, writers: usize) -> Flushed {
    let flushing = Instant::now();
    let on_cpu = on_cpu_ns(&job.tel);
    let mut writers_cpu = 0;
    let (round, rnd) = (job.stats.round, job.stats.round as i64);
    let span = job.tel.begin(rnd, Phase::Flush);
    let mut failures = Vec::new();
    if let Some((store, retain)) = job.store.clone() {
        let mut entries = Vec::with_capacity(job.images.len());
        let (landed, cpu) = land(&mut job, &store, writers);
        writers_cpu = cpu;
        for (rank, landed) in landed {
            match landed {
                Ok(out) => entries.push(store::ManifestEntry {
                    rank: rank as u64,
                    bytes: out.bytes as u64,
                    crc: out.crc,
                }),
                Err(e) => failures.push((rank, e.to_string())),
            }
        }
        if failures.is_empty() {
            let committing = job.tel.begin(rnd, Phase::Commit);
            let manifest = store::Manifest {
                round,
                world_size: job.buffers.len() as u64,
                entries,
            };
            if let Err(e) = store.commit(&manifest) {
                let failure = format!("manifest write failed: {e}");
                failures.push((usize::MAX, failure));
            }
            job.tel.end(committing);
        }
        match failures.is_empty() {
            true => collect(&job, &store, retain),
            // Scrap the partial generation. Prior committed generations
            // are untouched — round N's failure never costs round N−1.
            false => {
                let aborting = job.tel.begin(rnd, Phase::AbortRound);
                let _ = store.abort(round);
                job.tel.end(aborting);
            }
        }
    }
    for (rank, image) in job.images.drain(..) {
        *job.buffers[rank]
            .lock()
            .expect("buffer slot poisoned by a panic") = image;
    }
    job.tel.end(span);
    if on_cpu.is_some() {
        let ns = writers_cpu + cpu_since(&job.tel, on_cpu);
        job.tel
            .observe(met::CKPT_FLUSH_CPU_NS, Duration::from_nanos(ns));
    }
    if !failures.is_empty() {
        return Err(AbortedRound { round, failures });
    }
    job.tel
        .observe(met::ROUND_LATENCY_NS, job.started.elapsed());
    job.stats.flush = flushing.elapsed();
    Ok(job.stats)
}

/// Write every rank's image, split over at most `writers` threads; each
/// rank's seeded storage fault, if any, is armed over its write alone.
/// Every image is written whatever happens to the others, and each write
/// records on a deferred handle that is replayed here in rank order,
/// behind a `FlushRank` naming the rank, once all have joined — so what
/// the coordinator's ring holds does not depend on which writer finished
/// first. Returns `(rank, outcome)` in rank order, and the on-CPU
/// nanoseconds of the writers it spawned.
fn land(job: &mut FlushJob, store: &Store, writers: usize) -> (Landed, u64) {
    let round = job.stats.round;
    let (tel, fault) = (&job.tel, &job.fault);
    let write = |(rank, image): &mut (usize, ImageBuf)| {
        let deferred = tel.deferred();
        let fault = fault.as_ref().and_then(|fp| fp.storage_fault(*rank, round));
        let store = store.for_write(round, deferred.clone(), fault.map(write_fault));
        (*rank, deferred, store.write_encoded(image))
    };
    let write_all = |part: &mut [(usize, ImageBuf)]| part.iter_mut().map(write).collect();
    let per_writer = job.images.len().div_ceil(writers).max(1);
    let mut parts = job.images.chunks_mut(per_writer);
    let first = parts.next();
    let (landed, cpu): (Vec<_>, _) = std::thread::scope(|s| {
        let spawned: Vec<_> = (parts)
            .map(|part| {
                s.spawn(|| {
                    let start = on_cpu_ns(tel);
                    let landed: Vec<_> = write_all(part);
                    (landed, cpu_since(tel, start))
                })
            })
            .collect();
        let mut landed: Vec<_> = first.map_or_else(Vec::new, write_all);
        let mut cpu = 0;
        for h in spawned {
            let (part, part_cpu) = h.join().expect("image writer panicked");
            landed.extend(part);
            cpu += part_cpu;
        }
        (landed, cpu)
    });
    let landed = (landed.into_iter())
        .map(|(rank, deferred, outcome)| {
            let flush_rank = EventKind::FlushRank { rank: rank as u32 };
            job.tel.event(round as i64, flush_rank);
            job.tel.replay(&deferred);
            (rank, outcome)
        })
        .collect();
    (landed, cpu)
}

/// `(rank, outcome)` of each image write, in rank order.
type Landed = Vec<(usize, std::result::Result<WriteOutcome, StoreError>)>;

/// Nanoseconds the calling thread has run on a CPU, from the first field
/// of `/proc/thread-self/schedstat`; `None` where that file is absent
/// (not Linux) or unreadable, and — sparing the read — when `tel` records
/// no metrics.
fn on_cpu_ns(tel: &obs::Telemetry) -> Option<u64> {
    if !tel.metered() {
        return None;
    }
    let stat = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    stat.split_whitespace().next()?.parse().ok()
}

/// On-CPU nanoseconds of the calling thread since it read `start`
/// ([`on_cpu_ns`]); 0 if either read came back empty.
fn cpu_since(tel: &obs::Telemetry, start: Option<u64>) -> u64 {
    start
        .zip(on_cpu_ns(tel))
        .map_or(0, |(start, end)| end.saturating_sub(start))
}

/// GC after a commit: generations beyond the retention window, the chunks
/// only they referenced, finished restart-journal epochs. Generations
/// pinned by an open restart-journal epoch are exempt — a restart in
/// flight must never have its source collected out from under it.
/// Best-effort: a failed pass is counted and traced, leaves the store for
/// the next round's pass, and never fails the job.
fn collect(job: &FlushJob, store: &Store, retain: usize) {
    match store.gc(retain) {
        Ok(gc) => {
            job.tel
                .add(met::STORE_GC_GENERATIONS, gc.generations.len() as u64);
            job.tel.add(met::STORE_GC_CHUNKS, gc.chunks.removed);
        }
        Err(_) => {
            job.tel.add(met::STORE_GC_FAILURES, 1);
            let round = job.stats.round as i64;
            job.tel.event(round, EventKind::StoreGcFailed);
        }
    }
}

/// The store-level damage a seeded storage fault does to one image write.
fn write_fault(f: mpisim::StorageFault) -> store::WriteFault {
    match f.kind {
        mpisim::StorageFaultKind::WriteError => store::WriteFault::Error { attempts: u32::MAX },
        mpisim::StorageFaultKind::TornWrite => store::WriteFault::Torn { offset: f.offset },
        mpisim::StorageFaultKind::BitFlip => store::WriteFault::BitFlip { offset: f.offset },
    }
}

/// The coordinator and the flush of its last concluded round, kept
/// together behind the coordinator mutex: a transition can never see a
/// flush that has started but whose outcome is not yet posted. Each job
/// runs on one helper thread split over [`FLUSH_WRITERS`].
pub(crate) struct Driver {
    pub(crate) coord: Coordinator,
    helper: Option<JoinHandle<Flushed>>,
}

impl Driver {
    pub(crate) fn new(coord: Coordinator) -> Driver {
        Driver {
            coord,
            helper: None,
        }
    }

    /// Advance the protocol by `msg` from the rank that records through
    /// `tel`, and perform the flush it concludes. A request first waits
    /// out the previous round's flush — its `flush_wait`, labelled with
    /// the round about to run — so generations never interleave, GC never
    /// overlaps an image write, a chunked write finds the previous recipe
    /// to guide it, and every rank's buffer is back before `Go`. This wait
    /// is the back-pressure of a closed checkpoint loop.
    pub(crate) fn send(&mut self, msg: RankMsg, tel: &obs::Telemetry) {
        if matches!(msg, RankMsg::RequestCkpt) && self.helper.is_some() {
            let waiting = tel.begin(self.coord.round() as i64, Phase::FlushWait);
            self.join();
            tel.end(waiting);
        }
        if let Some(job) = self.coord.on(msg) {
            let ranks_wait = job.ranks_wait;
            self.helper = Some(std::thread::spawn(move || run(job, FLUSH_WRITERS)));
            // Exit mode: a rank must not exit before its image is durable.
            if ranks_wait {
                self.join();
            }
        }
    }

    /// Wait out the flush helper, if one is running, and post its outcome;
    /// one that panicked (the panic hook has printed why) is posted as
    /// having no outcome.
    pub(crate) fn join(&mut self) {
        if let Some(helper) = self.helper.take() {
            self.coord.flushed(helper.join().ok());
        }
    }
}
