//! Every call into a layer's public API.
//!
//! The rest of the benchmark sees the repository only through the
//! functions and plain types of this file (plus `workloads.rs` for kernel
//! configurations and `timed_face.rs` for the `MpiFace` trait). A change
//! to a store or runtime signature therefore touches this file alone.
//! Nothing here adds a span or a counter inside the program: layers are
//! timed around their public functions, and the rest is read from what a
//! `RunReport` and a `TraceSink` already return.

use crate::inputs::Inputs;
use crate::timed_face::{FaceLog, TimedFace};
use crate::workloads::{run_app, AppResult, Deadline, Drain, Layout, Plan, Spec};
use mana_core::callbacks::CallbackStyle;
use mana_core::{topo_order, CommRestore, DrainMode, ManaConfig, ManaRuntime, TpcMode, VtBackend};
use mpisim::{CoopCfg, EngineKind, MachineProfile, SchedulePolicy, World, WorldCfg};
use obs::metrics::{MetricsRegistry, MetricsSnapshot};
use obs::{EventKind, TraceSink};
use splitproc::journal::{Journal, JournalStep};
use splitproc::store::{self, Manifest, ManifestEntry, StoreConfig, StoreMode, WriteOutcome};
use splitproc::{chunk, crc32, ChunkParams, CkptImage, Decode, Encode, FsMode, UpperHalf};
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use workloads::face::{ManaFace, NativeFace};

/// Worker threads of the cooperative engine: the load shape is a single
/// closed-loop job on a two-core host.
const WORKERS: usize = 2;
const RETAIN_GENERATIONS: usize = 2;
/// Flight-recorder ring capacity per actor in traced runs.
const TRACE_RING: usize = 1 << 16;

// ---- configuration -----------------------------------------------------------

/// Refuse to run when the environment could steer a layer: several
/// library defaults read `MANA2_*`, and the chaos hooks read `CHAOS_*`.
pub fn steering_env_vars() -> Vec<String> {
    steering(std::env::vars_os().filter_map(|(k, _)| k.into_string().ok()))
}

fn steering(names: impl Iterator<Item = String>) -> Vec<String> {
    let mut found: Vec<String> = names
        .filter(|k| k.starts_with("MANA2_") || k.starts_with("CHAOS_"))
        .collect();
    found.sort();
    found
}

/// Every field explicit: `WorldCfg::default()` reads `MANA2_ENGINE`.
fn world_cfg(sched_seed: u64) -> WorldCfg {
    WorldCfg {
        profile: MachineProfile::zero(),
        watchdog: Some(Duration::from_secs(120)),
        stack_size: 512 * 1024,
        engine: EngineKind::Coop(CoopCfg {
            workers: WORKERS,
            sched_seed,
        }),
        schedule: SchedulePolicy::Seeded,
        seed: 0,
        fault: None,
        trace: None,
    }
}

fn store_config(layout: Layout) -> StoreConfig {
    StoreConfig {
        retry_attempts: 4,
        retry_backoff: Duration::from_millis(1),
        mode: match layout {
            Layout::Flat => StoreMode::Flat,
            Layout::Chunked => StoreMode::Chunked,
        },
        chunk: ChunkParams::default(),
        chunk_writers: 4,
    }
}

/// How one MANA run is configured beyond the workload's shape.
pub struct ManaOpts<'a> {
    pub dir: &'a Path,
    pub exit_after_ckpt: bool,
    pub drain: Drain,
    pub restart: bool,
    /// Sum time inside p2p / collective face calls (traced runs only).
    pub time_calls: bool,
    pub trace: Option<Sink>,
    /// Rank 0 reads the store counters just before it requests the round
    /// that `round()` reports as this value: the first measured round.
    pub counters_at_round: Option<u64>,
    /// End the plan's rounds by the clock (see [`Deadline`]).
    pub deadline: Option<&'a Deadline>,
}

impl<'a> ManaOpts<'a> {
    pub fn resume_mode(spec: &Spec, dir: &'a Path) -> ManaOpts<'a> {
        ManaOpts {
            dir,
            exit_after_ckpt: false,
            drain: spec.drain,
            restart: false,
            time_calls: false,
            trace: None,
            counters_at_round: None,
            deadline: None,
        }
    }
}

/// Every field explicit: `ManaConfig::default()` reads `MANA2_DRAIN` and
/// `MANA2_STORE`.
fn mana_config(spec: &Spec, opts: &ManaOpts<'_>, metrics: Arc<MetricsRegistry>) -> ManaConfig {
    ManaConfig {
        tpc: TpcMode::Hybrid,
        drain: match opts.drain {
            Drain::Alltoall => DrainMode::Alltoall,
            Drain::Coordinator => DrainMode::Coordinator,
            Drain::TopoSort => DrainMode::TopoSort,
        },
        vtable: VtBackend::FxHash,
        fs_mode: FsMode::Workaround,
        comm_restore: CommRestore::ActiveList,
        callback_style: CallbackStyle::Prepared,
        exit_after_ckpt: opts.exit_after_ckpt,
        ckpt_dir: opts.dir.to_path_buf(),
        retain_generations: RETAIN_GENERATIONS,
        store: store_config(spec.layout),
        poll_interval: Duration::from_millis(5),
        deadlock_timeout: None,
        fault: None,
        trace: opts.trace.clone(),
        metrics: Some(metrics),
    }
}

/// A flight-recorder sink shared with the runtime.
pub type Sink = Arc<TraceSink>;

pub fn new_trace_sink(ranks: usize) -> Sink {
    TraceSink::wall(ranks, TRACE_RING)
}

// ---- application runs -------------------------------------------------------

/// One rank's side of one application run.
#[derive(Debug, Clone)]
pub struct RankRun {
    /// When the rank entered application code.
    pub entered: Instant,
    pub result: AppResult,
    pub log: FaceLog,
}

pub struct NativeRun {
    pub wall: Duration,
    pub ranks: Vec<RankRun>,
}

impl NativeRun {
    pub fn results(&self) -> Vec<AppResult> {
        self.ranks.iter().map(|r| r.result.clone()).collect()
    }
}

/// The application on bare `mpisim`: the reference for every result and
/// the denominator of the overhead ratio.
pub fn run_native(
    spec: &Spec,
    inputs: &Inputs,
    plan: &Plan,
    time_calls: bool,
) -> Result<NativeRun, String> {
    let started = Instant::now();
    let world = World::new(spec.ranks, world_cfg(inputs.sched_seed));
    let out = world
        .launch(|p| -> Result<RankRun, String> {
            let entered = Instant::now();
            let mut face = TimedFace::new(NativeFace::new(p), time_calls);
            let result = run_app(&mut face, spec, inputs, plan, None).map_err(|e| e.to_string())?;
            Ok(RankRun {
                entered,
                result,
                log: face.into_log(),
            })
        })
        .map_err(|e| format!("native world: {e}"))?;
    let wall = started.elapsed();
    let ranks = out.into_iter().collect::<Result<Vec<_>, _>>()?;
    Ok(NativeRun { wall, ranks })
}

/// The store's byte and file counters, as the metrics plane totals them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreCounters {
    pub logical_bytes: u64,
    pub physical_bytes: u64,
    pub fsyncs: u64,
    pub chunks_written: u64,
    pub chunks_deduped: u64,
}

impl StoreCounters {
    fn read(snap: &MetricsSnapshot) -> StoreCounters {
        let v = |name| snap.value(name).unwrap_or(0);
        StoreCounters {
            logical_bytes: v("mana2_store_bytes_written_total"),
            physical_bytes: v("mana2_store_physical_bytes_total"),
            fsyncs: v("mana2_store_fsyncs_total"),
            chunks_written: v("mana2_store_chunks_written_total"),
            chunks_deduped: v("mana2_store_chunks_dedup_total"),
        }
    }

    pub fn add(&mut self, other: &StoreCounters) {
        self.logical_bytes += other.logical_bytes;
        self.physical_bytes += other.physical_bytes;
        self.fsyncs += other.fsyncs;
        self.chunks_written += other.chunks_written;
        self.chunks_deduped += other.chunks_deduped;
    }

    pub fn since(&self, earlier: &StoreCounters) -> StoreCounters {
        StoreCounters {
            logical_bytes: self.logical_bytes - earlier.logical_bytes,
            physical_bytes: self.physical_bytes - earlier.physical_bytes,
            fsyncs: self.fsyncs - earlier.fsyncs,
            chunks_written: self.chunks_written - earlier.chunks_written,
            chunks_deduped: self.chunks_deduped - earlier.chunks_deduped,
        }
    }
}

/// One committed round as the coordinator reported it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoordRound {
    pub round: u64,
    pub quiesce_ms: f64,
    pub write_ms: f64,
    pub msgs: u64,
    pub logical_bytes: u64,
}

/// Per-rank wrapper counters summed over the world.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WrapperTotals {
    pub wrapper_calls: u64,
    pub lh_jumps: u64,
    pub fs_switch_ns: u64,
    /// Drain sweeps per (rank, round).
    pub drain_sweeps: Vec<u64>,
}

pub struct ManaRun {
    /// When `run_fresh` / `run_restart` was called.
    pub called: Instant,
    pub wall: Duration,
    /// `None` for a rank that checkpointed and exited.
    pub ranks: Vec<Option<RankRun>>,
    pub rounds: Vec<CoordRound>,
    pub aborted_rounds: usize,
    pub wrappers: WrapperTotals,
    pub counters_end: StoreCounters,
    /// Counters when rank 0 requested `counters_at_round`.
    pub counters_mark: Option<StoreCounters>,
    pub restored_round: Option<u64>,
}

impl ManaRun {
    pub fn all_checkpointed(&self) -> bool {
        self.ranks.iter().all(Option::is_none)
    }

    /// Every rank's result, if every rank finished.
    pub fn results(&self) -> Option<Vec<AppResult>> {
        self.ranks
            .iter()
            .map(|r| r.as_ref().map(|r| r.result.clone()))
            .collect()
    }

    pub fn logs(&self) -> Option<Vec<FaceLog>> {
        self.ranks
            .iter()
            .map(|r| r.as_ref().map(|r| r.log.clone()))
            .collect()
    }

    /// When the last rank entered application code, if every rank did.
    pub fn last_entered(&self) -> Option<Instant> {
        let entered: Option<Vec<Instant>> = self
            .ranks
            .iter()
            .map(|r| r.as_ref().map(|r| r.entered))
            .collect();
        entered?.into_iter().max()
    }

    /// Time from the runtime call until the last rank was back in
    /// application code.
    pub fn reentry_ms(&self) -> Option<f64> {
        let last = self.last_entered()?;
        Some(last.duration_since(self.called).as_secs_f64() * 1e3)
    }
}

/// The application under MANA: a fresh run or a restart from `opts.dir`.
pub fn run_mana(
    spec: &Spec,
    inputs: &Inputs,
    plan: &Plan,
    opts: &ManaOpts<'_>,
) -> Result<ManaRun, String> {
    let registry = MetricsRegistry::standard(spec.ranks);
    let mark: Mutex<Option<StoreCounters>> = Mutex::new(None);
    let (mark_ref, registry_ref) = (&mark, &registry);
    let app = |m: &mut mana_core::Mana<'_>| -> mana_core::Result<RankRun> {
        let entered = Instant::now();
        let rank0 = m.rank() == 0;
        let mut face = TimedFace::new(ManaFace::new(m), opts.time_calls);
        if let (true, Some(at)) = (rank0, opts.counters_at_round) {
            // By the time rank 0 is back in application code every rank
            // has counted its writes of the previous round.
            face = face.on_request(move |round| {
                if round == at {
                    let now = StoreCounters::read(&registry_ref.snapshot());
                    *mark_ref.lock().expect("counter mark lock") = Some(now);
                }
            });
        }
        let result =
            run_app(&mut face, spec, inputs, plan, opts.deadline).map_err(|e| e.into_mana())?;
        Ok(RankRun {
            entered,
            result,
            log: face.into_log(),
        })
    };
    let called = Instant::now();
    let runtime = ManaRuntime::new(spec.ranks, mana_config(spec, opts, registry.clone()))
        .with_world_cfg(world_cfg(inputs.sched_seed));
    let report = if opts.restart {
        runtime.run_restart(app)
    } else {
        runtime.run_fresh(app)
    }
    .map_err(|e| e.to_string())?;
    let wall = called.elapsed();
    let counters_end = report
        .metrics
        .as_ref()
        .map(StoreCounters::read)
        .unwrap_or_default();
    let wrappers = WrapperTotals {
        wrapper_calls: report.rank_stats.iter().map(|s| s.wrapper_calls).sum(),
        lh_jumps: report.rank_stats.iter().map(|s| s.lh_jumps).sum(),
        fs_switch_ns: report.rank_stats.iter().map(|s| s.fs_switch_ns).sum(),
        drain_sweeps: report
            .rank_stats
            .iter()
            .flat_map(|s| s.drain_sweeps_by_round.iter().map(|&(_, n)| n))
            .collect(),
    };
    let rounds = report
        .coord
        .rounds
        .iter()
        .map(|r| CoordRound {
            round: r.round,
            quiesce_ms: r.quiesce.as_secs_f64() * 1e3,
            write_ms: r.write.as_secs_f64() * 1e3,
            msgs: r.coord_msgs,
            logical_bytes: r.total_image_bytes,
        })
        .collect();
    Ok(ManaRun {
        called,
        wall,
        ranks: report.outcomes.into_iter().map(|o| o.finished()).collect(),
        rounds,
        aborted_rounds: report.coord.aborted_rounds.len(),
        wrappers,
        counters_end,
        counters_mark: mark.into_inner().expect("counter mark lock"),
        restored_round: report.restored_round,
    })
}

// ---- the store, seen from outside -------------------------------------------

/// The newest committed generation under `root`.
pub fn newest_committed(root: &Path) -> Result<Option<u64>, String> {
    let gens = store::list_generations(root).map_err(|e| e.to_string())?;
    Ok(gens.iter().rev().find(|g| g.committed).map(|g| g.round))
}

/// Restart-style validation of `root`: the newest generation must be
/// selected and nothing may be rejected on the way to it.
pub fn select_clean(root: &Path, ranks: usize) -> Result<u64, String> {
    let sel = store::select_generation(root, Some(ranks)).map_err(|e| e.to_string())?;
    if let Some(r) = sel.rejected.first() {
        return Err(format!(
            "generation {} rejected ({}) before {} was selected",
            r.round, r.reason, sel.round
        ));
    }
    Ok(sel.round)
}

/// Bytes of every regular file under `root`.
pub fn disk_bytes(root: &Path) -> std::io::Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(root)? {
        let entry = entry?;
        let meta = entry.metadata()?;
        if meta.is_dir() {
            total += disk_bytes(&entry.path())?;
        } else {
            total += meta.len();
        }
    }
    Ok(total)
}

/// File system type of the mount holding `path` (longest matching mount
/// point in `/proc/mounts`); "unknown" where that cannot be read.
pub fn filesystem_of(path: &Path) -> String {
    let Ok(path) = path.canonicalize() else {
        return "unknown".into();
    };
    let Ok(mounts) = std::fs::read_to_string("/proc/mounts") else {
        return "unknown".into();
    };
    mounts
        .lines()
        .filter_map(|line| {
            let mut f = line.split_whitespace();
            let (_dev, point, fstype) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(point)
                .then(|| (point.len(), fstype.to_owned()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".into(), |(_, t)| t)
}

// ---- group A: layers timed around their public calls -------------------------

fn timed<T>(f: impl FnOnce() -> T) -> (Duration, T) {
    let t = Instant::now();
    let out = std::hint::black_box(f());
    (t.elapsed(), out)
}

/// Median wall time of `f` over `repeats` (≥ 1) calls, in milliseconds.
fn median_ms<T>(repeats: usize, mut f: impl FnMut() -> T) -> f64 {
    let samples: Vec<f64> = (0..repeats)
        .map(|_| timed(&mut f).0.as_secs_f64() * 1e3)
        .collect();
    crate::stats::median(&samples).expect("at least one repeat")
}

/// Every rank's image of one generation, read back through the loader
/// restart uses.
pub fn load_generation(root: &Path, round: u64, ranks: usize) -> Result<Vec<CkptImage>, String> {
    let dir = store::generation_dir(root, round);
    (0..ranks)
        .map(|rank| store::load_image(&dir, rank).map_err(|e| format!("rank {rank}: {e}")))
        .collect()
}

/// The two newest committed generations, older first.
pub fn last_two_generations(root: &Path) -> Result<(u64, u64), String> {
    let gens = store::list_generations(root).map_err(|e| e.to_string())?;
    let committed: Vec<u64> = gens
        .iter()
        .filter(|g| g.committed)
        .map(|g| g.round)
        .collect();
    match committed[..] {
        [.., a, b] => Ok((a, b)),
        _ => Err(format!(
            "need two committed generations, found {committed:?}"
        )),
    }
}

/// Codec, image and chunk layers on one generation's images: each value
/// is the median of `repeats` passes, summed over the ranks.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ImageLayerTimes {
    pub crc32_ms: f64,
    pub encode_ms: f64,
    pub decode_ms: f64,
    pub to_bytes_ms: f64,
    pub from_bytes_ms: f64,
    pub split_ms: f64,
    pub sha256_ms: f64,
    pub chunks_per_image: f64,
}

pub fn time_image_layers(
    images: &[CkptImage],
    layout: Layout,
    repeats: usize,
) -> Result<ImageLayerTimes, String> {
    let uppers: Vec<UpperHalf> = images
        .iter()
        .map(|i| UpperHalf::from_bytes(&i.upper).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    let files: Vec<Vec<u8>> = images.iter().map(CkptImage::to_bytes).collect();
    let mut out = ImageLayerTimes {
        crc32_ms: median_ms(repeats, || {
            images
                .iter()
                .fold(0u32, |acc, i| acc ^ crc32(&i.upper) ^ crc32(&i.meta))
        }),
        encode_ms: median_ms(repeats, || {
            uppers.iter().map(|u| u.to_bytes().len()).sum::<usize>()
        }),
        decode_ms: median_ms(repeats, || {
            images
                .iter()
                .map(|i| UpperHalf::from_bytes(&i.upper).map(|u| u.len()))
                .collect::<Result<Vec<_>, _>>()
        }),
        to_bytes_ms: median_ms(repeats, || {
            images.iter().map(|i| i.to_bytes().len()).sum::<usize>()
        }),
        from_bytes_ms: median_ms(repeats, || {
            files
                .iter()
                .map(|f| CkptImage::from_bytes(f).map(|i| i.rank))
                .collect::<Result<Vec<_>, _>>()
        }),
        ..ImageLayerTimes::default()
    };
    // A flat round never calls the chunker or the hash: report 0, not the
    // time they would have taken.
    if layout == Layout::Chunked {
        let params = ChunkParams::default();
        let payloads = || images.iter().flat_map(|i| [&i.upper, &i.meta]);
        out.split_ms = median_ms(repeats, || {
            payloads()
                .map(|p| chunk::split(p, params).len())
                .sum::<usize>()
        });
        let ranges: Vec<_> = payloads().map(|p| (p, chunk::split(p, params))).collect();
        out.sha256_ms = median_ms(repeats, || {
            ranges
                .iter()
                .flat_map(|(p, rs)| rs.iter().map(|r| chunk::chunk_id(&p[r.clone()])))
                .fold(0u8, |acc, id| acc ^ id.0[0])
        });
        let chunks: usize = ranges.iter().map(|(_, rs)| rs.len()).sum();
        out.chunks_per_image = chunks as f64 / images.len() as f64;
    }
    Ok(out)
}

/// Store write path replayed single-threaded: generation `older` into an
/// empty root, then `newer` over it, commit, GC.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StoreWriteTimes {
    pub write_first_ms: f64,
    pub write_next_ms: f64,
    pub commit_ms: f64,
    pub gc_generations_ms: f64,
    pub gc_chunks_ms: f64,
    /// Summed over the ranks of the `write_next` pass (last repeat).
    pub next: StoreCounters,
}

fn write_generation(
    root: &Path,
    images: &[CkptImage],
    cfg: &StoreConfig,
) -> Result<(Duration, Vec<WriteOutcome>), String> {
    let mut total = Duration::ZERO;
    let mut outcomes = Vec::with_capacity(images.len());
    for image in images {
        let (d, out) = timed(|| store::write_image(root, image, cfg, None));
        total += d;
        outcomes.push(out.map_err(|e| e.to_string())?);
    }
    Ok((total, outcomes))
}

fn manifest_of(images: &[CkptImage], outcomes: &[WriteOutcome]) -> Manifest {
    Manifest {
        round: images[0].round,
        world_size: images.len() as u64,
        entries: images
            .iter()
            .zip(outcomes)
            .map(|(i, o)| ManifestEntry {
                rank: i.rank as u64,
                bytes: o.bytes as u64,
                crc: o.crc,
            })
            .collect(),
    }
}

/// `scratch` must not exist; it is created and removed per repeat.
pub fn time_store_writes(
    scratch: &Path,
    older: &[CkptImage],
    newer: &[CkptImage],
    layout: Layout,
    repeats: usize,
) -> Result<StoreWriteTimes, String> {
    let cfg = store_config(layout);
    let mut samples: Vec<[f64; 5]> = Vec::with_capacity(repeats);
    let mut next = StoreCounters::default();
    for _ in 0..repeats {
        std::fs::create_dir_all(scratch).map_err(|e| e.to_string())?;
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        let (first, out_old) = write_generation(scratch, older, &cfg)?;
        store::commit_generation(scratch, &manifest_of(older, &out_old), &cfg)
            .map_err(|e| e.to_string())?;
        let (second, out_new) = write_generation(scratch, newer, &cfg)?;
        let manifest = manifest_of(newer, &out_new);
        let (commit, res) = timed(|| store::commit_generation(scratch, &manifest, &cfg));
        res.map_err(|e| e.to_string())?;
        // Retain 1 so the sweep has the older generation to collect, as
        // the coordinator's has once the retention window is full.
        let (gc_gen, res) = timed(|| store::gc_generations(scratch, 1));
        res.map_err(|e| e.to_string())?;
        let (gc_chunks, res) = timed(|| store::gc_chunks(scratch));
        res.map_err(|e| e.to_string())?;
        samples.push([ms(first), ms(second), ms(commit), ms(gc_gen), ms(gc_chunks)]);
        next = StoreCounters {
            logical_bytes: out_new.iter().map(|o| o.logical_bytes as u64).sum(),
            physical_bytes: out_new.iter().map(|o| o.physical_bytes as u64).sum(),
            fsyncs: out_new.iter().map(|o| u64::from(o.fsyncs)).sum(),
            chunks_written: out_new.iter().map(|o| u64::from(o.chunks_written)).sum(),
            chunks_deduped: out_new.iter().map(|o| u64::from(o.chunks_deduped)).sum(),
        };
        std::fs::remove_dir_all(scratch).map_err(|e| e.to_string())?;
    }
    let col = |i: usize| {
        let v: Vec<f64> = samples.iter().map(|s| s[i]).collect();
        crate::stats::median(&v).expect("at least one repeat")
    };
    Ok(StoreWriteTimes {
        write_first_ms: col(0),
        write_next_ms: col(1),
        commit_ms: col(2),
        gc_generations_ms: col(3),
        gc_chunks_ms: col(4),
        next,
    })
}

/// Restart's read path on the workload's own store.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StoreReadTimes {
    pub select_ms: f64,
    pub load_image_ms: f64,
}

pub fn time_store_reads(
    root: &Path,
    ranks: usize,
    repeats: usize,
) -> Result<StoreReadTimes, String> {
    let round = select_clean(root, ranks)?;
    let dir = store::generation_dir(root, round);
    Ok(StoreReadTimes {
        select_ms: median_ms(repeats, || {
            store::select_generation(root, Some(ranks)).is_ok()
        }),
        load_image_ms: median_ms(repeats, || {
            (0..ranks)
                .filter(|&r| store::load_image(&dir, r).is_ok())
                .count()
        }),
    })
}

/// The restart journal: open, then the `ranks + 4` appends of one restart.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct JournalTimes {
    pub open_ms: f64,
    pub append_us: f64,
}

/// `scratch` must not exist; it is created and removed.
pub fn time_journal(scratch: &Path, ranks: usize, repeats: usize) -> Result<JournalTimes, String> {
    std::fs::create_dir_all(scratch).map_err(|e| e.to_string())?;
    let steps = |epoch: u64| {
        let mut s = vec![
            JournalStep::RestartIntent {
                gen: epoch,
                failed: Vec::new(),
            },
            JournalStep::GenValidated { gen: epoch },
        ];
        s.extend((0..ranks as u64).map(|rank| JournalStep::RankRestored { rank }));
        s.extend([JournalStep::CommsRebuilt, JournalStep::RestartCommitted]);
        s
    };
    let mut open = Vec::new();
    let mut append = Vec::new();
    for _ in 0..repeats {
        let (d, journal) = timed(|| Journal::open(scratch));
        let mut journal = journal.map_err(|e| e.to_string())?;
        open.push(d.as_secs_f64() * 1e3);
        let epoch = journal.next_epoch();
        let steps = steps(epoch);
        let (d, res) = timed(|| {
            steps
                .iter()
                .try_for_each(|s| journal.append(epoch, s.clone()).map(|_| ()))
        });
        res.map_err(|e| e.to_string())?;
        append.push(d.as_secs_f64() * 1e6 / steps.len() as f64);
    }
    std::fs::remove_dir_all(scratch).map_err(|e| e.to_string())?;
    Ok(JournalTimes {
        open_ms: crate::stats::median(&open).expect("at least one repeat"),
        append_us: crate::stats::median(&append).expect("at least one repeat"),
    })
}

/// `topo_order` on the ring-halo in-flight matrices of `ranks` ranks:
/// every rank has sent one message to each neighbour that is not yet
/// received.
pub fn time_topo_order(ranks: usize, repeats: usize) -> f64 {
    let mut sent = vec![vec![0u64; ranks]; ranks];
    let recvd = vec![vec![0u64; ranks]; ranks];
    for (i, row) in sent.iter_mut().enumerate() {
        row[(i + 1) % ranks] = 64;
        row[(i + ranks - 1) % ranks] = 64;
    }
    median_ms(repeats, || topo_order(&sent, &recvd).edges)
}

/// `World::launch` with an empty closure: the cost of standing a world up
/// and tearing it down, which every restart and every steady run pays.
pub fn time_world_spawn(ranks: usize, sched_seed: u64, repeats: usize) -> f64 {
    median_ms(repeats, || {
        World::new(ranks, world_cfg(sched_seed))
            .launch(|p| p.rank())
            .map(|v| v.len())
    })
}

// ---- group B: read from the flight recorder ---------------------------------

/// A closed phase span of the flight recorder.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseSpan {
    /// World rank, or -1 for the coordinator.
    pub actor: i32,
    /// Coordinator round number, or -1 outside any round.
    pub round: i64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl PhaseSpan {
    pub fn ms(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e6
    }
}

pub struct TraceView {
    pub spans: Vec<PhaseSpan>,
    pub events: usize,
    pub dropped: u64,
}

/// Pair the sink's Begin/End events per (actor, phase). An End without a
/// Begin (the ring wrapped) is skipped.
pub fn read_trace(sink: &TraceSink) -> TraceView {
    let events = sink.merged();
    let mut open: std::collections::BTreeMap<(i32, &'static str), Vec<(u64, i64)>> =
        std::collections::BTreeMap::new();
    let mut spans = Vec::new();
    for ev in &events {
        match ev.kind {
            EventKind::Begin(p) => open
                .entry((ev.actor, p.name()))
                .or_default()
                .push((ev.ts_ns, ev.round)),
            EventKind::End(p) => {
                if let Some((start_ns, round)) =
                    open.get_mut(&(ev.actor, p.name())).and_then(Vec::pop)
                {
                    spans.push(PhaseSpan {
                        actor: ev.actor,
                        // Intent opens before the round number is known
                        // to the rank; the End carries the real one.
                        round: round.max(ev.round),
                        name: p.name(),
                        start_ns,
                        end_ns: ev.ts_ns,
                    });
                }
            }
            _ => {}
        }
    }
    TraceView {
        spans,
        events: events.len(),
        dropped: sink.dropped(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steering_variables_are_found_by_prefix() {
        let names = [
            "PATH",
            "MANA2_STORE",
            "CHAOS_SEED",
            "MANA",
            "XMANA2_X",
            "MANA2_DRAIN",
        ];
        assert_eq!(
            steering(names.iter().map(|s| s.to_string())),
            ["CHAOS_SEED", "MANA2_DRAIN", "MANA2_STORE"]
        );
        assert!(steering(["HOME".to_string()].into_iter()).is_empty());
    }

    #[test]
    fn topo_matrices_are_the_ring_halo() {
        // Mutual neighbour traffic is one big cycle: the planner must
        // still place every rank, and the call must take measurable time.
        assert!(time_topo_order(64, 1) > 0.0);
    }

    #[test]
    fn filesystem_lookup_prefers_the_longest_mount_point() {
        assert_ne!(filesystem_of(Path::new("/")), "unknown");
        assert_eq!(filesystem_of(Path::new("/no/such/dir")), "unknown");
    }
}
