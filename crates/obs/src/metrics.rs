//! Always-on metrics plane: a lock-free registry of named counters,
//! gauges, and log-linear (HDR-style) latency histograms.
//!
//! The flight recorder ([`crate::TraceSink`]) answers *what happened in
//! the run that just failed*; this module answers *how is the system
//! doing right now* and *did this change make checkpoint rounds slower*.
//! Design constraints, in order:
//!
//! * **Hot path is a relaxed atomic add.** The registry is sharded per
//!   actor (one shard per rank, one for the coordinator, one for the
//!   process at large), so recording never takes a lock and never
//!   contends with another actor's recording.
//! * **Deterministic merges.** A snapshot walks the shards in index
//!   order and folds them with commutative, associative operations
//!   (sums, min/max, per-bucket adds), so the same recorded multiset of
//!   values always produces byte-identical snapshots.
//! * **Determinism-token rings untouched.** The registry stamps
//!   snapshots through its *own* [`Clock`] instance — it never reads the
//!   trace sink's `TestClock`, so arming metrics cannot perturb the
//!   deterministic timestamp sequences that engine-equivalence tests
//!   compare.
//! * **Dependency-free exports.** The JSONL time series
//!   (`mana2-metrics/1` schema, one snapshot per line) and the
//!   Prometheus text exposition are both hand-rolled, like the rest of
//!   the `obs` crate.
//!
//! ## Histogram scheme
//!
//! Log-linear, 16 linear sub-buckets per power of two: values `0..16`
//! are exact, and every larger bucket spans at most 1/16th of its lower
//! bound (≤ 6.25 % relative error). Bucket boundaries are pure functions
//! of the value, so where a recorded value lands never depends on what
//! else was recorded — the property tests pin this down.

use crate::clock::{Clock, TestClock, WallClock};
use crate::dump::{read_jsonl, JsonlHeader};
use crate::json::{escape, Json};
use std::collections::BTreeMap;
use std::fmt;
use std::fmt::Write as _;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, OnceLock};
use std::time::Duration;

/// Schema identifier written in every metrics series header.
pub const METRICS_SCHEMA: &str = "mana2-metrics/1";

/// Shard id for process-wide metrics that belong to no rank and not to
/// the coordinator (engine scheduler gauges, ring-drop counts).
pub const PROCESS_ACTOR: i32 = -2;

// ---- metric definitions ----------------------------------------------------

/// What a metric slot holds and how shards merge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotone non-decreasing count; shards merge by sum.
    Counter,
    /// Last-written value per shard; shards merge by sum (each shard
    /// owns a disjoint slice of the quantity, e.g. per-actor queue
    /// depths).
    Gauge,
    /// Log-linear latency histogram; shards merge bucket-wise.
    Histogram,
}

impl MetricKind {
    /// Stable lowercase name (JSONL `kind` field, Prometheus `# TYPE`).
    pub fn name(&self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }

    fn from_name(s: &str) -> Option<MetricKind> {
        match s {
            "counter" => Some(MetricKind::Counter),
            "gauge" => Some(MetricKind::Gauge),
            "histogram" => Some(MetricKind::Histogram),
            _ => None,
        }
    }
}

/// One registered metric: a stable name, its kind, and a help line.
#[derive(Debug, Clone)]
pub struct MetricDef {
    /// Exposition name (`mana2_…`; counters end `_total`, durations `_ns`).
    pub name: &'static str,
    /// Counter, gauge, or histogram.
    pub kind: MetricKind,
    /// One-line description (Prometheus `# HELP`).
    pub help: &'static str,
}

const fn def(name: &'static str, kind: MetricKind, help: &'static str) -> MetricDef {
    MetricDef { name, kind, help }
}

/// Opaque handle to one registered metric (an index into the registry's
/// definition table). The standard set below is `const`, so hot-path
/// call sites pay no name lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MetricId(usize);

macro_rules! std_set {
    ($( $(#[$doc:meta])* $id:ident = $name:literal, $kind:ident, $help:literal; )+) => {
        std_set!(@consts 0; $( $(#[$doc])* $id = $name, $kind, $help; )+);

        /// The standard metric set every MANA-2.0 world registers.
        pub fn standard_defs() -> Vec<MetricDef> {
            vec![ $( def($name, MetricKind::$kind, $help), )+ ]
        }
    };
    (@consts $idx:expr; ) => {};
    (@consts $idx:expr; $(#[$doc:meta])* $id:ident = $name:literal, $kind:ident, $help:literal;
     $($rest:tt)*) => {
        $(#[$doc])*
        pub const $id: MetricId = MetricId($idx);
        std_set!(@consts $idx + 1; $($rest)*);
    };
}

std_set! {
    /// Checkpoint rounds the coordinator committed.
    ROUNDS_COMMITTED = "mana2_rounds_committed_total", Counter,
        "Checkpoint rounds committed by the coordinator";
    /// Checkpoint rounds aborted (any rank failed its image write).
    ROUNDS_ABORTED = "mana2_rounds_aborted_total", Counter,
        "Checkpoint rounds aborted and rolled back";
    /// Per-rank drain sweeps executed inside checkpoint windows.
    DRAIN_SWEEPS = "mana2_drain_sweeps_total", Counter,
        "Drain sweeps executed across all ranks";
    /// In-flight messages captured by drains.
    DRAINED_MSGS = "mana2_drained_msgs_total", Counter,
        "In-flight messages drained into checkpoint buffers";
    /// In-flight payload bytes captured by drains.
    DRAINED_BYTES = "mana2_drained_bytes_total", Counter,
        "In-flight bytes drained into checkpoint buffers";
    /// Two-phase-commit barriers completed.
    TPC_BARRIERS = "mana2_tpc_barriers_total", Counter,
        "Two-phase-commit barriers completed";
    /// Collectives emulated over point-to-point inside ckpt windows.
    EMU_COLLECTIVES = "mana2_emu_collectives_total", Counter,
        "Collectives emulated over point-to-point";
    /// Checkpoint-image bytes durably written.
    STORE_BYTES_WRITTEN = "mana2_store_bytes_written_total", Counter,
        "Checkpoint image bytes written to the store";
    /// fsync calls the store issued (file + directory).
    STORE_FSYNCS = "mana2_store_fsyncs_total", Counter,
        "fsync calls issued by the checkpoint store";
    /// Transient write errors retried by the store.
    STORE_WRITE_RETRIES = "mana2_store_write_retries_total", Counter,
        "Transient store write errors that were retried";
    /// Checkpoint generations deleted by GC.
    STORE_GC_GENERATIONS = "mana2_store_gc_generations_total", Counter,
        "Checkpoint generations collected by GC";
    /// Fresh (non-duplicate) restart-journal appends.
    JOURNAL_APPENDS = "mana2_journal_appends_total", Counter,
        "Fresh restart-journal records appended";
    /// Journal epochs not resumed because a record failed its CRC.
    JOURNAL_UNREADABLE = "mana2_journal_unreadable_total", Counter,
        "Restart-journal epochs not resumed because a record failed its CRC";
    /// Engine unpark calls (sampled from the engine's own counters).
    ENGINE_UNPARKS = "mana2_engine_unparks_total", Counter,
        "Rank unpark calls through the execution engine";
    /// Fault-plan firings observed by the MANA layer.
    FAULTS_FIRED = "mana2_faults_fired_total", Counter,
        "Fault-plan firings (triggers, stalls, delays, kills, storage)";
    /// Full restarts completed.
    RESTARTS_FULL = "mana2_restarts_full_total", Counter,
        "Full (all-rank) restarts completed";
    /// Partial restarts completed.
    RESTARTS_PARTIAL = "mana2_restarts_partial_total", Counter,
        "Partial (survivor-preserving) restarts completed";
    /// Restarts killed mid-protocol by the chaos fault plan.
    RESTART_KILLS = "mana2_restart_kills_total", Counter,
        "Restarts killed at a journal-step boundary";
    /// Ranks restored from checkpoint images.
    RESTART_RANKS_RESTORED = "mana2_restart_ranks_restored_total", Counter,
        "Ranks restored from checkpoint images";
    /// Communicators rebuilt during restore.
    RESTART_COMMS_RESTORED = "mana2_restart_comms_restored_total", Counter,
        "Communicators rebuilt during restart";
    /// Wrapper calls replayed from restored state.
    RESTART_REPLAYED_CALLS = "mana2_restart_replayed_calls_total", Counter,
        "Wrapper calls replayed from restored checkpoint state";
    /// Current engine ready-queue depth.
    ENGINE_READY_RANKS = "mana2_engine_ready_ranks", Gauge,
        "Ranks currently runnable in the engine ready queue";
    /// Trace-ring events overwritten (lost) so far.
    TRACE_DROPPED_EVENTS = "mana2_trace_dropped_events", Gauge,
        "Flight-recorder ring events overwritten so far";
    /// End-to-end checkpoint round latency: intent to the manifest landed.
    ROUND_LATENCY_NS = "mana2_round_latency_ns", Histogram,
        "End-to-end checkpoint round latency (intent to commit)";
    /// Quiesce leg of the round (intent to all-ranks-ready).
    ROUND_QUIESCE_NS = "mana2_round_quiesce_ns", Histogram,
        "Checkpoint round quiesce phase latency";
    /// Image-write leg of the round: `Go` to the last rank's image frozen.
    ROUND_WRITE_NS = "mana2_round_write_ns", Histogram,
        "Checkpoint round image-write phase latency";
    /// Commit leg of the round: the coordinator's `Commit` span, i.e. the
    /// manifest write inside the flush (after the ranks were released,
    /// except in exit mode).
    ROUND_COMMIT_NS = "mana2_round_commit_ns", Histogram,
        "Checkpoint round commit phase latency";
    /// Coordinator fan-in spread (first to last frozen image per round).
    COORD_FANIN_NS = "mana2_coord_fanin_ns", Histogram,
        "Per-round coordinator fan-in spread (first to last rank report)";
    /// Rank wait inside the 2PC barrier.
    TPC_BARRIER_WAIT_NS = "mana2_tpc_barrier_wait_ns", Histogram,
        "Per-rank wait inside the two-phase-commit barrier";
    /// One drain sweep, per rank.
    DRAIN_SWEEP_NS = "mana2_drain_sweep_ns", Histogram,
        "Per-rank drain sweep latency";
    /// One image frozen — encoded into the rank's kept buffer — per rank
    /// (a rank's `ImageWrite` span; the coordinator's flush lands it).
    STORE_WRITE_NS = "mana2_store_write_ns", Histogram,
        "Per-rank image freeze latency (encode into the kept buffer)";
    /// Full-restart duration (validate + restore + replay).
    RESTART_FULL_NS = "mana2_restart_full_ns", Histogram,
        "Full restart duration";
    /// Partial-restart duration.
    RESTART_PARTIAL_NS = "mana2_restart_partial_ns", Histogram,
        "Partial restart duration";
    /// Quiesces completed under the alltoall drain strategy.
    DRAIN_ROUNDS_ALLTOALL = "mana2_drain_rounds_alltoall_total", Counter,
        "Per-rank quiesces completed by the alltoall drain strategy";
    /// Quiesces completed under the coordinator-totals drain strategy.
    DRAIN_ROUNDS_COORDINATOR = "mana2_drain_rounds_coordinator_total", Counter,
        "Per-rank quiesces completed by the coordinator drain strategy";
    /// Quiesces completed under the topological-sort drain strategy.
    DRAIN_ROUNDS_TOPOSORT = "mana2_drain_rounds_toposort_total", Counter,
        "Per-rank quiesces completed by the topo-sort drain strategy";
    /// Topological drain schedules computed by the coordinator.
    DRAIN_TOPO_PLANS = "mana2_drain_topo_plans_total", Counter,
        "Topological drain schedules computed by the coordinator";
    /// Edges in the in-flight dependency graphs the topo planner ordered.
    DRAIN_TOPO_EDGES = "mana2_drain_topo_edges_total", Counter,
        "In-flight dependency edges ordered by the topo-sort planner";
    /// Dependency cycles the topo planner had to break.
    DRAIN_TOPO_CYCLES = "mana2_drain_topo_cycles_total", Counter,
        "In-flight dependency cycles broken by the topo-sort planner";
    /// Per-rank quiesce wall time under the alltoall drain strategy.
    DRAIN_ALLTOALL_QUIESCE_NS = "mana2_drain_alltoall_quiesce_ns", Histogram,
        "Per-rank quiesce latency under the alltoall drain strategy";
    /// Per-rank quiesce wall time under the coordinator drain strategy.
    DRAIN_COORDINATOR_QUIESCE_NS = "mana2_drain_coordinator_quiesce_ns", Histogram,
        "Per-rank quiesce latency under the coordinator drain strategy";
    /// Per-rank quiesce wall time under the topo-sort drain strategy.
    DRAIN_TOPOSORT_QUIESCE_NS = "mana2_drain_toposort_quiesce_ns", Histogram,
        "Per-rank quiesce latency under the topo-sort drain strategy";
    /// Bytes that physically landed on disk (whole images in flat mode;
    /// new chunks + recipes in chunked mode). The dedup win is the gap
    /// between this and `mana2_store_bytes_written_total`.
    STORE_PHYSICAL_BYTES = "mana2_store_physical_bytes_total", Counter,
        "Bytes physically written to the checkpoint store";
    /// Chunks newly written to the content-addressed pool.
    STORE_CHUNKS_WRITTEN = "mana2_store_chunks_written_total", Counter,
        "Chunks newly written to the content-addressed pool";
    /// Chunk references satisfied by a chunk already in the pool.
    STORE_CHUNKS_DEDUP = "mana2_store_chunks_dedup_total", Counter,
        "Chunk references deduplicated against the existing pool";
    /// Chunk cuts reused from the rank's previous recipe (the gear hash
    /// skipped). 0 across a slow chunked round means it ran unguided.
    STORE_CHUNKS_GUIDED = "mana2_store_chunks_guided_total", Counter,
        "Chunk cuts taken from the previous recipe instead of the gear hash";
    /// Batched directory-fsync rounds issued for the chunk pool.
    STORE_FSYNC_BATCHES = "mana2_store_fsync_batches_total", Counter,
        "Batched chunk-pool directory fsync rounds";
    /// Chunks deleted by the refcounted pool sweep.
    STORE_GC_CHUNKS = "mana2_store_gc_chunks_total", Counter,
        "Unreferenced chunks collected from the pool";
    /// GC passes that failed (the store was left uncollected that round;
    /// the job went on).
    STORE_GC_FAILURES = "mana2_store_gc_failures_total", Counter,
        "Generation/chunk GC passes that failed";
    /// How long a new checkpoint request waited for the previous round's
    /// flush (image writes, manifest, GC) to finish.
    CKPT_FLUSH_WAIT_NS = "mana2_ckpt_flush_wait_ns", Histogram,
        "Wait of a checkpoint request for the previous round's flush";
    /// Image payload bytes a store write checksummed for its section
    /// CRCs: every byte written, less the blocks of a rank's kept buffer
    /// that no encode has changed since they were last checksummed.
    STORE_CRC_BYTES = "mana2_store_crc_bytes_total", Counter,
        "Image payload bytes checksummed by store writes";
    /// Image payload bytes a chunked store write ran through the chunk
    /// key: every byte written, less the guided chunks of a rank's kept
    /// buffer that lie in blocks no encode has changed since the recipe
    /// guiding the write; none for an image landed flat.
    STORE_KEY_BYTES = "mana2_store_key_bytes_total", Counter,
        "Image payload bytes run through the chunk key by store writes";
    /// On-CPU time of one flush: its helper's and its writers' threads,
    /// from `/proc/thread-self/schedstat` (no observation where absent).
    CKPT_FLUSH_CPU_NS = "mana2_ckpt_flush_cpu_ns", Histogram,
        "On-CPU time of one checkpoint flush's helper and writer threads";
    /// Images a chunked store landed as one flat file: a rank's kept
    /// buffer rewritten in every upper block since its previous checksum,
    /// so neither cut, keyed nor deduplicated.
    STORE_IMAGES_FLAT = "mana2_store_images_flat_total", Counter,
        "Images a chunked store landed flat (rewritten since the last write)";
}

// ---- log-linear histogram --------------------------------------------------

/// Linear sub-buckets per power of two (as a bit count).
const SUB_BITS: u32 = 4;
/// Linear sub-buckets per power of two.
const SUB: usize = 1 << SUB_BITS;

/// Total buckets needed to cover the full `u64` range.
pub const HIST_BUCKETS: usize = ((64 - SUB_BITS as usize) * SUB) + SUB;

/// The bucket a value lands in — a pure function of the value alone.
pub fn bucket_index(v: u64) -> usize {
    if v < SUB as u64 {
        v as usize
    } else {
        let msb = 63 - v.leading_zeros(); // >= SUB_BITS
        let octave = (msb - SUB_BITS + 1) as usize;
        let sub = ((v >> (msb - SUB_BITS)) & (SUB as u64 - 1)) as usize;
        (octave << SUB_BITS) + sub
    }
}

/// Smallest value that lands in bucket `i` (the bucket's reported value:
/// quantiles resolve to lower bounds, so reported percentiles are
/// deterministic and never exceed any recorded value's bucket).
pub fn bucket_lower_bound(i: usize) -> u64 {
    if i < SUB {
        i as u64
    } else {
        let octave = (i >> SUB_BITS) as u32; // >= 1
        let sub = (i & (SUB - 1)) as u64;
        (SUB as u64 + sub) << (octave - 1)
    }
}

/// Exclusive upper bound of the bucket whose lower bound is `lb`
/// (`u64::MAX` for the last bucket). Used for Prometheus `le` labels.
pub fn bucket_upper_bound(lb: u64) -> u64 {
    let i = bucket_index(lb);
    if i + 1 >= HIST_BUCKETS {
        u64::MAX
    } else {
        bucket_lower_bound(i + 1)
    }
}

struct HistShard {
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl HistShard {
    fn new() -> HistShard {
        HistShard {
            buckets: (0..HIST_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    fn observe(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }
}

/// A merged, plain-data histogram: non-empty buckets only, keyed by
/// lower bound, ascending.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistSnapshot {
    /// Values recorded.
    pub count: u64,
    /// Sum of recorded values (wrapping).
    pub sum: u64,
    /// Smallest recorded value (0 when empty).
    pub min: u64,
    /// Largest recorded value (0 when empty).
    pub max: u64,
    /// `(bucket lower bound, count)` pairs, ascending, counts > 0.
    pub buckets: Vec<(u64, u64)>,
}

impl HistSnapshot {
    /// An empty histogram (the merge identity).
    pub fn empty() -> HistSnapshot {
        HistSnapshot::default()
    }

    /// Record one value into the snapshot (test/offline use; the live
    /// path records into atomic shards).
    pub fn record(&mut self, v: u64) {
        let lb = bucket_lower_bound(bucket_index(v));
        match self.buckets.binary_search_by_key(&lb, |&(b, _)| b) {
            Ok(i) => self.buckets[i].1 += 1,
            Err(i) => self.buckets.insert(i, (lb, 1)),
        }
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        self.sum = self.sum.wrapping_add(v);
    }

    /// Fold `other` into `self`. Commutative and associative, with
    /// [`HistSnapshot::empty`] as identity — shard merge order can never
    /// change the result.
    pub fn merge(&mut self, other: &HistSnapshot) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let mut map: BTreeMap<u64, u64> = self.buckets.iter().copied().collect();
        for &(lb, n) in &other.buckets {
            *map.entry(lb).or_insert(0) += n;
        }
        self.buckets = map.into_iter().collect();
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// The value at quantile `q` (0.0 ..= 1.0): the lower bound of the
    /// bucket holding the `ceil(q·count)`-th recorded value. `None` when
    /// empty. Deterministic: depends only on the recorded multiset.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for &(lb, n) in &self.buckets {
            seen += n;
            if seen >= target {
                return Some(lb);
            }
        }
        self.buckets.last().map(|&(lb, _)| lb)
    }

    fn from_shards<'a>(shards: impl Iterator<Item = &'a HistShard>) -> HistSnapshot {
        let mut out = HistSnapshot::empty();
        for sh in shards {
            let count = sh.count.load(Ordering::Relaxed);
            if count == 0 {
                continue;
            }
            let mut part = HistSnapshot {
                count,
                sum: sh.sum.load(Ordering::Relaxed),
                min: sh.min.load(Ordering::Relaxed),
                max: sh.max.load(Ordering::Relaxed),
                buckets: Vec::new(),
            };
            for (i, b) in sh.buckets.iter().enumerate() {
                let n = b.load(Ordering::Relaxed);
                if n > 0 {
                    part.buckets.push((bucket_lower_bound(i), n));
                }
            }
            // Concurrent recording can race count against the bucket
            // array; trust the buckets (they are what quantiles read).
            part.count = part.buckets.iter().map(|&(_, n)| n).sum();
            if part.count > 0 {
                out.merge(&part);
            }
        }
        out
    }
}

// ---- the registry ----------------------------------------------------------

enum Slot {
    Scalar(usize),
    Hist(usize),
}

struct Shard {
    scalars: Box<[AtomicU64]>,
    /// A histogram's bucket array is allocated by its first `observe`:
    /// most (actor, histogram) pairs never see a sample — the `ROUND_*`
    /// set is the coordinator's alone — and a bucket array is 8 KiB.
    hists: Box<[OnceLock<HistShard>]>,
}

/// The always-on metrics registry for one world: named metrics, one
/// shard per actor, lock-free recording, deterministic snapshot merge.
pub struct MetricsRegistry {
    clock: Arc<dyn Clock>,
    defs: Vec<MetricDef>,
    slots: Vec<Slot>,
    n: usize,
    shards: Vec<Shard>,
}

impl fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MetricsRegistry")
            .field("ranks", &self.n)
            .field("metrics", &self.defs.len())
            .finish()
    }
}

impl MetricsRegistry {
    /// A registry for `n_ranks` ranks (plus coordinator and process
    /// shards) over an explicit metric set and clock.
    pub fn new(
        n_ranks: usize,
        clock: Arc<dyn Clock>,
        defs: Vec<MetricDef>,
    ) -> Arc<MetricsRegistry> {
        let mut slots = Vec::with_capacity(defs.len());
        let (mut n_scalar, mut n_hist) = (0usize, 0usize);
        for d in &defs {
            match d.kind {
                MetricKind::Counter | MetricKind::Gauge => {
                    slots.push(Slot::Scalar(n_scalar));
                    n_scalar += 1;
                }
                MetricKind::Histogram => {
                    slots.push(Slot::Hist(n_hist));
                    n_hist += 1;
                }
            }
        }
        let shards = (0..n_ranks + 2)
            .map(|_| Shard {
                scalars: (0..n_scalar).map(|_| AtomicU64::new(0)).collect(),
                hists: (0..n_hist).map(|_| OnceLock::new()).collect(),
            })
            .collect();
        Arc::new(MetricsRegistry {
            clock,
            defs,
            slots,
            n: n_ranks,
            shards,
        })
    }

    /// The standard metric set on a wall clock (benches, production).
    pub fn standard(n_ranks: usize) -> Arc<MetricsRegistry> {
        Self::new(n_ranks, Arc::new(WallClock::new()), standard_defs())
    }

    /// The standard metric set on a private [`TestClock`] — snapshot
    /// timestamps and observed durations become deterministic counters,
    /// and the trace sink's own clock is never touched.
    pub fn deterministic(n_ranks: usize) -> Arc<MetricsRegistry> {
        Self::new(n_ranks, Arc::new(TestClock::new()), standard_defs())
    }

    /// Number of rank shards (coordinator + process shards are extra).
    pub fn n_ranks(&self) -> usize {
        self.n
    }

    /// The registered metric definitions, in id order.
    pub fn defs(&self) -> &[MetricDef] {
        &self.defs
    }

    /// Look a metric up by exposition name (setup-time use only).
    pub fn id(&self, name: &str) -> Option<MetricId> {
        self.defs.iter().position(|d| d.name == name).map(MetricId)
    }

    fn shard_index(&self, actor: i32) -> usize {
        match actor {
            crate::event::COORD_ACTOR => self.n,
            PROCESS_ACTOR => self.n + 1,
            a => {
                assert!(
                    a >= 0 && (a as usize) < self.n,
                    "actor {actor} out of range (n = {})",
                    self.n
                );
                a as usize
            }
        }
    }

    /// Add `delta` to a counter. Relaxed atomic add; no lock.
    pub fn add(&self, actor: i32, id: MetricId, delta: u64) {
        debug_assert!(matches!(self.defs[id.0].kind, MetricKind::Counter));
        if let Slot::Scalar(k) = self.slots[id.0] {
            self.shards[self.shard_index(actor)].scalars[k].fetch_add(delta, Ordering::Relaxed);
        }
    }

    /// Set a gauge to `v` in `actor`'s shard (shards sum at snapshot).
    pub fn gauge_set(&self, actor: i32, id: MetricId, v: u64) {
        debug_assert!(matches!(self.defs[id.0].kind, MetricKind::Gauge));
        if let Slot::Scalar(k) = self.slots[id.0] {
            self.shards[self.shard_index(actor)].scalars[k].store(v, Ordering::Relaxed);
        }
    }

    /// Record `v` into a histogram. Relaxed atomic adds; no lock once
    /// the shard's bucket array exists (its first sample allocates it).
    pub fn observe(&self, actor: i32, id: MetricId, v: u64) {
        debug_assert!(matches!(self.defs[id.0].kind, MetricKind::Histogram));
        if let Slot::Hist(k) = self.slots[id.0] {
            self.shards[self.shard_index(actor)].hists[k]
                .get_or_init(HistShard::new)
                .observe(v);
        }
    }

    /// Merge every shard into one plain-data snapshot, metrics in
    /// registration order, stamped by the registry's clock.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let entries = self
            .defs
            .iter()
            .enumerate()
            .map(|(i, d)| {
                let value = match self.slots[i] {
                    Slot::Scalar(k) => MetricValue::Scalar(
                        self.shards
                            .iter()
                            .map(|s| s.scalars[k].load(Ordering::Relaxed))
                            .sum(),
                    ),
                    Slot::Hist(k) => MetricValue::Hist(HistSnapshot::from_shards(
                        self.shards.iter().filter_map(|s| s.hists[k].get()),
                    )),
                };
                MetricEntry {
                    name: d.name.to_string(),
                    kind: d.kind,
                    value,
                }
            })
            .collect();
        MetricsSnapshot {
            ts_ns: self.clock.now_ns(),
            entries,
        }
    }
}

// ---- snapshots -------------------------------------------------------------

/// One metric's merged value in a snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetricValue {
    /// Counter or gauge value (shards summed).
    Scalar(u64),
    /// Merged histogram.
    Hist(HistSnapshot),
}

/// One metric in a snapshot: name, kind, merged value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricEntry {
    /// Exposition name.
    pub name: String,
    /// Counter, gauge, or histogram.
    pub kind: MetricKind,
    /// The merged value.
    pub value: MetricValue,
}

/// A point-in-time merge of every shard: metrics in registration order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Timestamp per the registry's own clock.
    pub ts_ns: u64,
    /// Every registered metric, in registration order.
    pub entries: Vec<MetricEntry>,
}

impl MetricsSnapshot {
    /// Scalar (counter/gauge) value by name.
    pub fn value(&self, name: &str) -> Option<u64> {
        self.entries.iter().find(|e| e.name == name).and_then(|e| {
            if let MetricValue::Scalar(v) = e.value {
                Some(v)
            } else {
                None
            }
        })
    }

    /// Histogram by name.
    pub fn hist(&self, name: &str) -> Option<&HistSnapshot> {
        self.entries.iter().find(|e| e.name == name).and_then(|e| {
            if let MetricValue::Hist(ref h) = e.value {
                Some(h)
            } else {
                None
            }
        })
    }

    /// One JSONL series line for this snapshot.
    pub fn to_json_line(&self) -> String {
        let mut out = String::with_capacity(64 + self.entries.len() * 48);
        let _ = write!(out, "{{\"ts\":{},\"metrics\":[", self.ts_ns);
        for (i, e) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"kind\":\"{}\"",
                escape(&e.name),
                e.kind.name()
            );
            match &e.value {
                MetricValue::Scalar(v) => {
                    let _ = write!(out, ",\"v\":{v}}}");
                }
                MetricValue::Hist(h) => {
                    let _ = write!(
                        out,
                        ",\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"buckets\":[",
                        h.count, h.sum, h.min, h.max
                    );
                    for (j, (lb, n)) in h.buckets.iter().enumerate() {
                        if j > 0 {
                            out.push(',');
                        }
                        let _ = write!(out, "[{lb},{n}]");
                    }
                    out.push_str("]}");
                }
            }
        }
        out.push_str("]}");
        out
    }

    /// Parse one series line back into a snapshot.
    pub fn from_json(v: &Json) -> Result<MetricsSnapshot, String> {
        let ts_ns = v
            .get("ts")
            .and_then(Json::as_u64)
            .ok_or("snapshot missing \"ts\"")?;
        let Some(Json::Arr(items)) = v.get("metrics") else {
            return Err("snapshot missing \"metrics\" array".into());
        };
        let mut entries = Vec::with_capacity(items.len());
        for it in items {
            let name = it
                .get("name")
                .and_then(Json::as_str)
                .ok_or("metric missing \"name\"")?
                .to_string();
            let kind = it
                .get("kind")
                .and_then(Json::as_str)
                .and_then(MetricKind::from_name)
                .ok_or_else(|| format!("metric {name:?}: bad \"kind\""))?;
            let value = match kind {
                MetricKind::Counter | MetricKind::Gauge => MetricValue::Scalar(
                    it.get("v")
                        .and_then(Json::as_u64)
                        .ok_or_else(|| format!("metric {name:?}: missing \"v\""))?,
                ),
                MetricKind::Histogram => {
                    let Some(Json::Arr(bs)) = it.get("buckets") else {
                        return Err(format!("metric {name:?}: missing \"buckets\""));
                    };
                    let mut buckets = Vec::with_capacity(bs.len());
                    for b in bs {
                        let Json::Arr(pair) = b else {
                            return Err(format!("metric {name:?}: bucket not a pair"));
                        };
                        let (Some(lb), Some(n)) = (
                            pair.first().and_then(Json::as_u64),
                            pair.get(1).and_then(Json::as_u64),
                        ) else {
                            return Err(format!("metric {name:?}: bucket not a u64 pair"));
                        };
                        buckets.push((lb, n));
                    }
                    // Absent reads as 0; present, it must be a u64.
                    let field = |key: &str| match it.get(key) {
                        None => Ok(0),
                        Some(v) => v
                            .as_u64()
                            .ok_or_else(|| format!("metric {name:?}: \"{key}\" is not a u64")),
                    };
                    MetricValue::Hist(HistSnapshot {
                        count: field("count")?,
                        sum: field("sum")?,
                        min: field("min")?,
                        max: field("max")?,
                        buckets,
                    })
                }
            };
            entries.push(MetricEntry { name, kind, value });
        }
        Ok(MetricsSnapshot { ts_ns, entries })
    }

    /// Render this snapshot in Prometheus text-exposition format.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::with_capacity(self.entries.len() * 96);
        for e in &self.entries {
            let _ = writeln!(out, "# TYPE {} {}", e.name, e.kind.name());
            match &e.value {
                MetricValue::Scalar(v) => {
                    let _ = writeln!(out, "{} {}", e.name, v);
                }
                MetricValue::Hist(h) => {
                    let mut cum = 0u64;
                    for &(lb, n) in &h.buckets {
                        cum += n;
                        let _ = writeln!(
                            out,
                            "{}_bucket{{le=\"{}\"}} {}",
                            e.name,
                            bucket_upper_bound(lb),
                            cum
                        );
                    }
                    let _ = writeln!(out, "{}_bucket{{le=\"+Inf\"}} {}", e.name, h.count);
                    let _ = writeln!(out, "{}_sum {}", e.name, h.sum);
                    let _ = writeln!(out, "{}_count {}", e.name, h.count);
                }
            }
        }
        out
    }
}

// ---- series (JSONL) --------------------------------------------------------

/// Serialize a full series (header + one line per snapshot).
pub fn series_to_jsonl(meta: &JsonlHeader, snaps: &[MetricsSnapshot]) -> String {
    let mut out = meta.line(METRICS_SCHEMA, "", "");
    out.push('\n');
    for s in snaps {
        out.push_str(&s.to_json_line());
        out.push('\n');
    }
    out
}

/// Parse a series back into its header and snapshots.
pub fn parse_series(text: &str) -> Result<(JsonlHeader, Vec<MetricsSnapshot>), String> {
    let (head, _, records) = read_jsonl(text, METRICS_SCHEMA)?;
    let snaps = records
        .iter()
        .map(|(n, v)| MetricsSnapshot::from_json(v).map_err(|e| format!("line {n}: {e}")))
        .collect::<Result<_, _>>()?;
    Ok((head, snaps))
}

/// Result of a successful [`check_series`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeriesCheck {
    /// Snapshots in the series.
    pub snapshots: usize,
    /// Metrics per snapshot.
    pub metrics: usize,
}

impl fmt::Display for SeriesCheck {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} snapshot(s) x {} metric(s): OK",
            self.snapshots, self.metrics
        )
    }
}

/// Validate a metrics series: supported schema, every line parses,
/// metric names/kinds stable across snapshots, timestamps non-decreasing,
/// counters monotone, histograms internally consistent (bucket counts sum
/// to `count`, buckets ascending, `min <= max` when non-empty).
pub fn check_series(text: &str) -> Result<SeriesCheck, String> {
    let (_, snaps) = parse_series(text)?;
    let mut last_ts = 0u64;
    let mut last_counters: BTreeMap<String, u64> = BTreeMap::new();
    let mut shape: Option<Vec<(String, MetricKind)>> = None;
    for (i, s) in snaps.iter().enumerate() {
        if s.ts_ns < last_ts {
            return Err(format!(
                "snapshot {i}: timestamp {} went backwards (prev {})",
                s.ts_ns, last_ts
            ));
        }
        last_ts = s.ts_ns;
        let this_shape: Vec<(String, MetricKind)> =
            s.entries.iter().map(|e| (e.name.clone(), e.kind)).collect();
        match &shape {
            None => shape = Some(this_shape),
            Some(prev) => {
                if *prev != this_shape {
                    return Err(format!("snapshot {i}: metric set changed mid-series"));
                }
            }
        }
        for e in &s.entries {
            match (&e.kind, &e.value) {
                (MetricKind::Counter, MetricValue::Scalar(v)) => {
                    if let Some(prev) = last_counters.get(&e.name) {
                        if v < prev {
                            return Err(format!(
                                "snapshot {i}: counter {} went backwards ({} -> {})",
                                e.name, prev, v
                            ));
                        }
                    }
                    last_counters.insert(e.name.clone(), *v);
                }
                (MetricKind::Gauge, MetricValue::Scalar(_)) => {}
                (MetricKind::Histogram, MetricValue::Hist(h)) => {
                    let total: u64 = h.buckets.iter().map(|&(_, n)| n).sum();
                    if total != h.count {
                        return Err(format!(
                            "snapshot {i}: histogram {} bucket counts {} != count {}",
                            e.name, total, h.count
                        ));
                    }
                    if h.count > 0 && h.min > h.max {
                        return Err(format!(
                            "snapshot {i}: histogram {} min {} > max {}",
                            e.name, h.min, h.max
                        ));
                    }
                    if h.buckets.windows(2).any(|w| w[0].0 >= w[1].0) {
                        return Err(format!(
                            "snapshot {i}: histogram {} buckets not ascending",
                            e.name
                        ));
                    }
                }
                _ => {
                    return Err(format!(
                        "snapshot {i}: metric {} kind/value mismatch",
                        e.name
                    ));
                }
            }
        }
    }
    Ok(SeriesCheck {
        snapshots: snaps.len(),
        metrics: shape.map(|s| s.len()).unwrap_or(0),
    })
}

/// Write a single-snapshot series file (the flight-recorder sidecar).
pub fn write_snapshot_file(
    path: &Path,
    meta: &JsonlHeader,
    snap: &MetricsSnapshot,
) -> io::Result<()> {
    std::fs::write(path, series_to_jsonl(meta, std::slice::from_ref(snap)))
}

// ---- periodic exporter -----------------------------------------------------

/// Time between the exporter's snapshots.
pub const EXPORT_INTERVAL: Duration = Duration::from_millis(200);

/// Background thread appending one snapshot every [`EXPORT_INTERVAL`] to
/// a JSONL series, the one file it writes; `mana2-metrics --prom` renders
/// a series' last snapshot as Prometheus text on demand.
pub struct MetricsExporter {
    reg: Arc<MetricsRegistry>,
    sample: Arc<dyn Fn(&MetricsRegistry) + Send + Sync>,
    /// The thread and the sender whose drop ends its wait.
    running: Option<(mpsc::Sender<()>, std::thread::JoinHandle<()>)>,
    jsonl: PathBuf,
}

impl fmt::Debug for MetricsExporter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MetricsExporter")
            .field("jsonl", &self.jsonl)
            .finish()
    }
}

fn export_tick(
    reg: &MetricsRegistry,
    sample: &(dyn Fn(&MetricsRegistry) + Send + Sync),
    jsonl: &Path,
) -> io::Result<()> {
    sample(reg);
    let mut f = std::fs::OpenOptions::new().append(true).open(jsonl)?;
    writeln!(f, "{}", reg.snapshot().to_json_line())
}

impl MetricsExporter {
    /// Start exporting `reg` into `<dir>/<label>.metrics.jsonl`, calling
    /// `sample` (which pulls external sources into the registry) before
    /// each snapshot. Creates `dir` and writes the series header before
    /// returning.
    pub fn spawn(
        reg: Arc<MetricsRegistry>,
        dir: &Path,
        meta: JsonlHeader,
        sample: Arc<dyn Fn(&MetricsRegistry) + Send + Sync>,
    ) -> io::Result<MetricsExporter> {
        std::fs::create_dir_all(dir)?;
        let jsonl = dir.join(format!("{}.metrics.jsonl", meta.label));
        std::fs::write(&jsonl, series_to_jsonl(&meta, &[]))?;
        let (stop, stopped) = mpsc::channel::<()>();
        let thread = {
            let (reg, sample, jsonl) = (reg.clone(), sample.clone(), jsonl.clone());
            std::thread::Builder::new()
                .name("mana2-metrics".into())
                .spawn(move || loop {
                    let _ = export_tick(&reg, &*sample, &jsonl);
                    let wait = stopped.recv_timeout(EXPORT_INTERVAL);
                    if wait != Err(mpsc::RecvTimeoutError::Timeout) {
                        break;
                    }
                })
                .expect("failed to spawn metrics exporter")
        };
        Ok(MetricsExporter {
            reg,
            sample,
            running: Some((stop, thread)),
            jsonl,
        })
    }

    /// Stop the thread, append one final snapshot, and return the series
    /// path.
    pub fn finish(mut self) -> io::Result<PathBuf> {
        self.halt();
        export_tick(&self.reg, &*self.sample, &self.jsonl)?;
        Ok(self.jsonl.clone())
    }

    fn halt(&mut self) {
        if let Some((stop, thread)) = self.running.take() {
            drop(stop);
            let _ = thread.join();
        }
    }
}

impl Drop for MetricsExporter {
    fn drop(&mut self) {
        self.halt();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_defs_are_unique_and_match_ids() {
        let defs = standard_defs();
        let mut names: Vec<&str> = defs.iter().map(|d| d.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), defs.len(), "duplicate metric names");
        assert_eq!(
            defs[ROUNDS_COMMITTED.0].name,
            "mana2_rounds_committed_total"
        );
        assert_eq!(defs[ROUND_LATENCY_NS.0].name, "mana2_round_latency_ns");
        assert_eq!(defs[RESTART_PARTIAL_NS.0].name, "mana2_restart_partial_ns");
        assert!(matches!(defs[ENGINE_READY_RANKS.0].kind, MetricKind::Gauge));
    }

    #[test]
    fn bucket_scheme_covers_u64_contiguously() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(15), 15);
        assert_eq!(bucket_index(16), 16);
        assert_eq!(bucket_index(u64::MAX), HIST_BUCKETS - 1);
        // Lower bounds are strictly increasing and each maps to itself.
        let mut prev = None;
        for i in 0..HIST_BUCKETS {
            let lb = bucket_lower_bound(i);
            assert_eq!(bucket_index(lb), i, "lb {lb} of bucket {i}");
            if let Some(p) = prev {
                assert!(lb > p);
            }
            prev = Some(lb);
        }
    }

    #[test]
    fn counters_sum_across_shards() {
        let reg = MetricsRegistry::deterministic(2);
        reg.add(0, DRAIN_SWEEPS, 3);
        reg.add(1, DRAIN_SWEEPS, 4);
        reg.add(crate::COORD_ACTOR, ROUNDS_COMMITTED, 1);
        reg.add(PROCESS_ACTOR, ENGINE_UNPARKS, 7);
        let s = reg.snapshot();
        assert_eq!(s.value("mana2_drain_sweeps_total"), Some(7));
        assert_eq!(s.value("mana2_rounds_committed_total"), Some(1));
        assert_eq!(s.value("mana2_engine_unparks_total"), Some(7));
    }

    #[test]
    fn histogram_quantiles_from_shards() {
        let reg = MetricsRegistry::deterministic(4);
        for r in 0..4 {
            for v in [10u64, 100, 1000, 10_000] {
                reg.observe(r, ROUND_LATENCY_NS, v);
            }
        }
        let s = reg.snapshot();
        let h = s.hist("mana2_round_latency_ns").unwrap();
        assert_eq!(h.count, 16);
        assert_eq!(h.min, 10);
        assert_eq!(h.max, 10_000);
        assert_eq!(h.quantile(0.0), Some(10));
        // p50 lands in 100's bucket: lower bound of that bucket.
        assert_eq!(h.quantile(0.5), Some(bucket_lower_bound(bucket_index(100))));
        let p100 = h.quantile(1.0).unwrap();
        assert_eq!(p100, bucket_lower_bound(bucket_index(10_000)));
        assert!(p100 <= 10_000);
    }

    #[test]
    fn snapshot_json_round_trips() {
        let reg = MetricsRegistry::deterministic(2);
        reg.add(0, DRAINED_BYTES, 123);
        reg.observe(1, STORE_WRITE_NS, 4567);
        let snap = reg.snapshot();
        let line = snap.to_json_line();
        let v = crate::json::parse(&line).unwrap();
        let back = MetricsSnapshot::from_json(&v).unwrap();
        assert_eq!(snap, back);
    }

    #[test]
    fn a_histogram_field_of_the_wrong_type_is_an_error() {
        let reg = MetricsRegistry::deterministic(1);
        reg.observe(0, STORE_WRITE_NS, 4567);
        let line = reg.snapshot().to_json_line();
        // `key`'s value in the `mana2_store_write_ns` entry replaced by
        // `value`, the old one kept under another key.
        let edit = |key: &str, value: &str| {
            let at = line.find("\"name\":\"mana2_store_write_ns\"").unwrap();
            let (head, tail) = line.split_at(at);
            let key = format!("\"{key}\":");
            let tail = tail.replacen(&key, &format!("{key}{value},\"was\":"), 1);
            crate::json::parse(&format!("{head}{tail}")).unwrap()
        };
        for key in ["count", "sum", "min", "max"] {
            for bad in ["\"oops\"", "-1", "1.5", "null", "[1]"] {
                let err = MetricsSnapshot::from_json(&edit(key, bad)).unwrap_err();
                let want = format!("metric \"mana2_store_write_ns\": \"{key}\" is not a u64");
                assert!(err.contains(&want), "{key}={bad}: {err}");
            }
        }
        // The same field absent still reads as 0.
        let at = line.find("\"name\":\"mana2_store_write_ns\"").unwrap();
        let (head, tail) = line.split_at(at);
        let absent = format!("{head}{}", tail.replacen("\"sum\":", "\"was\":", 1));
        let snap = MetricsSnapshot::from_json(&crate::json::parse(&absent).unwrap()).unwrap();
        assert_eq!(snap.hist("mana2_store_write_ns").unwrap().sum, 0);
        assert_eq!(snap.hist("mana2_store_write_ns").unwrap().count, 1);
    }

    #[test]
    fn series_check_catches_backwards_counter() {
        let reg = MetricsRegistry::deterministic(1);
        reg.add(0, DRAIN_SWEEPS, 5);
        let a = reg.snapshot();
        let mut b = reg.snapshot();
        // Corrupt: counter goes backwards.
        for e in &mut b.entries {
            if e.name == "mana2_drain_sweeps_total" {
                e.value = MetricValue::Scalar(2);
            }
        }
        let meta = JsonlHeader {
            label: "t".into(),
            ranks: 1,
            seed: None,
            config: crate::ConfigRecord::default(),
        };
        let good = series_to_jsonl(&meta, std::slice::from_ref(&a));
        assert!(check_series(&good).is_ok());
        let bad = series_to_jsonl(&meta, &[a, b]);
        let err = check_series(&bad).unwrap_err();
        assert!(err.contains("went backwards"), "{err}");
    }

    #[test]
    fn prometheus_render_has_types_and_cumulative_buckets() {
        let reg = MetricsRegistry::deterministic(1);
        reg.add(0, TPC_BARRIERS, 2);
        reg.observe(0, ROUND_LATENCY_NS, 100);
        reg.observe(0, ROUND_LATENCY_NS, 200);
        let text = reg.snapshot().render_prometheus();
        assert!(text.contains("# TYPE mana2_tpc_barriers_total counter"));
        assert!(text.contains("mana2_tpc_barriers_total 2"));
        assert!(text.contains("# TYPE mana2_round_latency_ns histogram"));
        assert!(text.contains("mana2_round_latency_ns_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("mana2_round_latency_ns_count 2"));
    }

    #[test]
    fn exporter_writes_one_series() {
        let reg = MetricsRegistry::deterministic(1);
        let dir = std::env::temp_dir().join(format!("obs_metrics_test_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let meta = JsonlHeader {
            label: "exp1".into(),
            ranks: 1,
            seed: Some(3),
            config: crate::ConfigRecord::new([("store", "chunked")]),
        };
        let exp = MetricsExporter::spawn(
            reg.clone(),
            &dir,
            meta,
            Arc::new(|r: &MetricsRegistry| {
                r.gauge_set(PROCESS_ACTOR, TRACE_DROPPED_EVENTS, 1);
            }),
        )
        .unwrap();
        reg.add(0, DRAIN_SWEEPS, 1);
        let jsonl = exp.finish().unwrap();
        let files: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(files, ["exp1.metrics.jsonl"]);
        let text = std::fs::read_to_string(&jsonl).unwrap();
        let report = check_series(&text).unwrap();
        assert!(report.snapshots >= 1);
        let (meta, snaps) = parse_series(&text).unwrap();
        assert_eq!(meta.config.to_string(), "store=chunked");
        let last = snaps.last().unwrap();
        assert_eq!(last.value("mana2_trace_dropped_events"), Some(1));
        assert!(last
            .render_prometheus()
            .contains("mana2_drain_sweeps_total 1"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn histograms_are_allocated_by_their_first_sample() {
        let held = |reg: &MetricsRegistry| {
            reg.shards
                .iter()
                .flat_map(|s| s.hists.iter())
                .filter(|h| h.get().is_some())
                .count()
        };
        let reg = MetricsRegistry::deterministic(1024);
        let empty = reg.snapshot();
        assert_eq!(held(&reg), 0, "a fresh registry holds no bucket array");
        assert_eq!(empty.hist("mana2_round_latency_ns").unwrap().count, 0);
        reg.observe(7, DRAIN_SWEEP_NS, 99);
        assert_eq!(held(&reg), 1, "one sample on one actor: one bucket array");
        let snap = reg.snapshot();
        assert_eq!(held(&reg), 1, "a snapshot allocates nothing");
        assert_eq!(snap.hist("mana2_drain_sweep_ns").unwrap().buckets.len(), 1);
        assert_eq!(snap.entries.len(), empty.entries.len());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_actor_panics() {
        let reg = MetricsRegistry::deterministic(2);
        reg.add(2, DRAIN_SWEEPS, 1);
    }
}
