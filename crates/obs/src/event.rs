//! The trace event model: checkpoint phases, point events, and the
//! fixed-size [`TraceEvent`] record stored in the rings.
//!
//! Every variant is `Copy` with scalar payloads only, so recording an
//! event never allocates — the requirement that lets the rings stay on
//! the hot path of the drain loop and the store write path.

use crate::json::Json;
use std::fmt::Write as _;

/// Actor id used for the coordinator's ring (ranks are `0..n`).
pub const COORD_ACTOR: i32 = -1;

/// Round value for events outside any checkpoint round.
pub const NO_ROUND: i64 = -1;

/// A checkpoint-window phase delimited by `Begin`/`End` events.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Coordinator raised the intent flag; ranks quiesce toward `Ready`.
    Intent,
    /// A two-phase-commit style barrier in `TpcMode::Original`.
    TpcBarrier,
    /// One emulated collective operation being driven to completion.
    EmuCollective,
    /// One sweep of the drain loop (paper §III-B). `sweep` is the
    /// 0-based sweep index within the round.
    Drain {
        /// 0-based sweep index within the checkpoint round.
        sweep: u32,
    },
    /// The drain strategy's count exchange: the alltoall of sent rows, or
    /// the topo-sort rows→schedule round trip through the coordinator.
    DrainExchange,
    /// The coordinator computing a topological drain schedule from the
    /// collected per-rank rows.
    DrainPlan,
    /// Serializing and durably writing the checkpoint image.
    ImageWrite,
    /// Commit: manifest write on the coordinator, resume-wait on ranks.
    Commit,
    /// The coordinator's flush of a released round: every frozen image
    /// landed, the manifest committed and the store collected, behind the
    /// running application in resume mode, before the verdict in exit
    /// mode.
    Flush,
    /// A checkpoint request waiting for the previous round's flush to
    /// finish, on the requesting rank (labelled with the round about to
    /// run).
    FlushWait,
    /// A round being aborted and rolled back.
    AbortRound,
    /// Restart-time generation selection and validation.
    RestartValidate,
    /// Rebuilding communicators from checkpoint metadata on restart.
    RestoreComms,
    /// Opening and replaying the restart journal (reentrant restart).
    JournalReplay,
}

impl Phase {
    /// Every phase and its stable schema name, in the order reports list
    /// them (`Drain` stands for every sweep).
    pub(crate) const NAMES: [(Phase, &'static str); 14] = [
        (Phase::Intent, "intent"),
        (Phase::TpcBarrier, "tpc_barrier"),
        (Phase::EmuCollective, "emu_collective"),
        (Phase::DrainExchange, "drain_exchange"),
        (Phase::DrainPlan, "drain_plan"),
        (Phase::Drain { sweep: 0 }, "drain"),
        (Phase::ImageWrite, "image_write"),
        (Phase::Commit, "commit"),
        (Phase::Flush, "flush"),
        (Phase::FlushWait, "flush_wait"),
        (Phase::AbortRound, "abort_round"),
        (Phase::RestartValidate, "restart_validate"),
        (Phase::RestoreComms, "restore_comms"),
        (Phase::JournalReplay, "journal_replay"),
    ];

    /// Stable schema name of the phase.
    pub fn name(&self) -> &'static str {
        name_in(&Self::NAMES, self)
    }
}

/// The name `table` gives `value`'s variant (whatever its fields hold).
fn name_in<T>(table: &[(T, &'static str)], value: &T) -> &'static str {
    let variant = std::mem::discriminant(value);
    let entry = table
        .iter()
        .find(|(t, _)| std::mem::discriminant(t) == variant);
    entry.expect("every variant is in its name table").1
}

/// The value of `table` that the string field `key` of `v` names; `what`
/// says what it names in the error.
fn named_in<T: Copy>(
    table: &[(T, &'static str)],
    v: &Json,
    key: &str,
    what: &str,
) -> Result<T, String> {
    let name =
        (v.get(key).and_then(Json::as_str)).ok_or_else(|| format!("missing field {key:?}"))?;
    let entry = table.iter().find(|(_, n)| *n == name);
    entry
        .map(|e| e.0)
        .ok_or_else(|| format!("unknown {what} {name:?}"))
}

/// An injected storage fault observed by the store layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectedFault {
    /// Transient write error (retried).
    WriteError,
    /// Image truncated after commit (torn write).
    Torn,
    /// Single bit flipped after commit.
    BitFlip,
}

impl InjectedFault {
    const NAMES: [(InjectedFault, &'static str); 3] = [
        (InjectedFault::WriteError, "write_error"),
        (InjectedFault::Torn, "torn"),
        (InjectedFault::BitFlip, "bit_flip"),
    ];

    /// Stable schema name.
    pub fn name(&self) -> &'static str {
        name_in(&Self::NAMES, self)
    }
}

/// Why a generation was skipped during restart validation. Coarse,
/// `Copy` mirror of the store layer's rejection reasons — the ring needs
/// a scalar, the full prose lives in `RejectedGeneration::reason`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectCode {
    /// No `MANIFEST` — the round never committed.
    Uncommitted,
    /// Manifest unreadable or self-inconsistent.
    BadManifest,
    /// Manifest round disagrees with the directory round.
    RoundMismatch,
    /// Manifest world size disagrees with the runtime world size.
    WorldMismatch,
    /// A required rank image is missing or unreadable.
    MissingImage,
    /// An image's on-disk size disagrees with the manifest (torn write).
    TornImage,
    /// An image's CRC disagrees with the manifest (corruption).
    CorruptImage,
    /// An image fails to parse or its header disagrees.
    BadImage,
}

impl RejectCode {
    const NAMES: [(RejectCode, &'static str); 8] = [
        (RejectCode::Uncommitted, "uncommitted"),
        (RejectCode::BadManifest, "bad_manifest"),
        (RejectCode::RoundMismatch, "round_mismatch"),
        (RejectCode::WorldMismatch, "world_mismatch"),
        (RejectCode::MissingImage, "missing_image"),
        (RejectCode::TornImage, "torn_image"),
        (RejectCode::CorruptImage, "corrupt_image"),
        (RejectCode::BadImage, "bad_image"),
    ];

    /// Stable schema name.
    pub fn name(&self) -> &'static str {
        name_in(&Self::NAMES, self)
    }
}

/// One step of the restart protocol as journaled (mirrors
/// `splitproc::journal::JournalStep` kinds, payload-free).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RestartStep {
    /// `RestartIntent` — a restart attempt opened.
    Intent,
    /// `GenValidated` — the generation passed validation.
    Validated,
    /// `RankRestored` — one rank's image restored.
    RankRestored,
    /// `CommsRebuilt` — communicators rebuilt.
    CommsRebuilt,
    /// `RestartCommitted` — the epoch committed.
    Committed,
}

impl RestartStep {
    const NAMES: [(RestartStep, &'static str); 5] = [
        (RestartStep::Intent, "restart_intent"),
        (RestartStep::Validated, "gen_validated"),
        (RestartStep::RankRestored, "rank_restored"),
        (RestartStep::CommsRebuilt, "comms_rebuilt"),
        (RestartStep::Committed, "restart_committed"),
    ];

    /// Stable schema name (also the journal's blob-name kind).
    pub fn name(&self) -> &'static str {
        name_in(&Self::NAMES, self)
    }
}

/// A fault-plan firing outside the store (fabric and coordinator faults).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// A rank's `Ready` message was stalled.
    ReadyStall,
    /// A coordinator-channel message was delayed.
    CoordDelay,
    /// The plan's checkpoint trigger fired on this rank.
    Trigger,
    /// The plan killed the restart at a journal-step boundary.
    RestartKill,
}

impl FaultKind {
    const NAMES: [(FaultKind, &'static str); 4] = [
        (FaultKind::ReadyStall, "ready_stall"),
        (FaultKind::CoordDelay, "coord_delay"),
        (FaultKind::Trigger, "trigger"),
        (FaultKind::RestartKill, "restart_kill"),
    ];

    /// Stable schema name.
    pub fn name(&self) -> &'static str {
        name_in(&Self::NAMES, self)
    }
}

/// What happened. Span edges carry a [`Phase`]; the rest are points.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A phase span opened.
    Begin(Phase),
    /// The innermost open span of this phase closed.
    End(Phase),
    /// This rank arrived at a 2PC barrier (skew = first-to-last arrival
    /// per `(gid, coll_seq)` across ranks).
    BarrierArrive {
        /// Communicator gid of the barrier.
        gid: u64,
        /// Per-communicator collective sequence number.
        coll_seq: u64,
    },
    /// One attempt of an atomic store write, with per-stage timings.
    StoreAttempt {
        /// 1-based attempt number.
        attempt: u32,
        /// Nanoseconds spent creating + writing the temp file.
        write_ns: u64,
        /// Nanoseconds spent in `sync_all`.
        fsync_ns: u64,
        /// Nanoseconds spent in rename + directory fsync.
        rename_ns: u64,
        /// Whether the attempt succeeded.
        ok: bool,
    },
    /// Final outcome of a checkpoint-image write.
    StoreWrite {
        /// Image size in bytes.
        bytes: u64,
        /// Retries consumed before success.
        retries: u32,
        /// CRC32 recorded for the image.
        crc: u32,
    },
    /// The store layer applied an injected fault.
    StoreFault {
        /// Which fault was injected.
        fault: InjectedFault,
    },
    /// The flush is landing this rank's image: the store events after it
    /// on the same ring, up to the next `FlushRank` or the end of the
    /// flush, are that rank's write.
    FlushRank {
        /// World rank whose image is being landed.
        rank: u32,
    },
    /// Generation / chunk GC failed; the store was not collected this
    /// round (the job goes on).
    StoreGcFailed,
    /// A message was deposited into the fabric.
    NetSend {
        /// Destination world rank.
        dst: u32,
        /// Payload bytes.
        bytes: u64,
        /// User-class (vs internal coordination) traffic.
        user: bool,
    },
    /// A receive matched (removed) a message from a mailbox.
    NetMatch {
        /// Source world rank.
        src: u32,
        /// Payload bytes.
        bytes: u64,
    },
    /// The fault plan held an envelope in limbo (delay or reorder).
    NetHold {
        /// Source world rank of the held envelope.
        src: u32,
        /// Reorder hold (vs pure delay).
        reorder: bool,
    },
    /// The drain loop captured an in-flight message into the drain buffer.
    DrainCapture {
        /// Source world rank of the captured message.
        src: u32,
        /// Payload bytes captured.
        bytes: u64,
    },
    /// The rank received its topological drain schedule (topo-sort drain).
    DrainSchedule {
        /// This rank's position in the topological order.
        order: u32,
        /// Edges in the global in-flight dependency graph.
        edges: u64,
        /// Whether the planner had to break a cycle.
        cyclic: bool,
    },
    /// A non-storage fault-plan fault fired.
    FaultFired {
        /// Which fault fired.
        fault: FaultKind,
    },
    /// Restart validation skipped (fell back past) a damaged generation.
    RestartSkip {
        /// Round of the skipped generation.
        gen: u64,
        /// Coarse reason it was rejected.
        code: RejectCode,
    },
    /// A restart-journal step was durably appended (or found already
    /// journaled and skipped — `fresh` distinguishes the two).
    JournalAppend {
        /// Restart epoch the step belongs to.
        epoch: u64,
        /// Which protocol step.
        step: RestartStep,
        /// Restored rank for `rank_restored`, else `-1`.
        rank: i64,
        /// `true` if the record was newly written, `false` if its
        /// idempotency key was already present (resumed restart).
        fresh: bool,
    },
}

impl EventKind {
    /// Stable schema name of the event (`"ev"` field in JSONL).
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::Begin(_) => "begin",
            EventKind::End(_) => "end",
            EventKind::BarrierArrive { .. } => "barrier_arrive",
            EventKind::StoreAttempt { .. } => "store_attempt",
            EventKind::StoreWrite { .. } => "store_write",
            EventKind::StoreFault { .. } => "store_fault",
            EventKind::FlushRank { .. } => "flush_rank",
            EventKind::StoreGcFailed => "store_gc_failed",
            EventKind::NetSend { .. } => "net_send",
            EventKind::NetMatch { .. } => "net_match",
            EventKind::NetHold { .. } => "net_hold",
            EventKind::DrainCapture { .. } => "drain_capture",
            EventKind::DrainSchedule { .. } => "drain_schedule",
            EventKind::FaultFired { .. } => "fault_fired",
            EventKind::RestartSkip { .. } => "restart_skip",
            EventKind::JournalAppend { .. } => "journal_append",
        }
    }
}

/// One recorded event: timestamp, actor, global sequence number,
/// checkpoint round (or [`NO_ROUND`]), and payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Nanoseconds from the sink's [`crate::Clock`].
    pub ts_ns: u64,
    /// World rank, or [`COORD_ACTOR`] for the coordinator.
    pub actor: i32,
    /// Globally unique, monotone sequence number assigned by the sink.
    pub seq: u64,
    /// Checkpoint round the event belongs to, or [`NO_ROUND`].
    pub round: i64,
    /// What happened.
    pub kind: EventKind,
}

impl TraceEvent {
    /// Serialize as one JSONL line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        let mut s = String::with_capacity(96);
        let _ = write!(
            s,
            "{{\"ts\":{},\"actor\":{},\"seq\":{},\"round\":{},\"ev\":\"{}\"",
            self.ts_ns,
            self.actor,
            self.seq,
            self.round,
            self.kind.name()
        );
        match self.kind {
            EventKind::Begin(p) | EventKind::End(p) => {
                let _ = write!(s, ",\"phase\":\"{}\"", p.name());
                if let Phase::Drain { sweep } = p {
                    let _ = write!(s, ",\"sweep\":{sweep}");
                }
            }
            EventKind::BarrierArrive { gid, coll_seq } => {
                let _ = write!(s, ",\"gid\":{gid},\"coll_seq\":{coll_seq}");
            }
            EventKind::StoreAttempt {
                attempt,
                write_ns,
                fsync_ns,
                rename_ns,
                ok,
            } => {
                let _ = write!(
                    s,
                    ",\"attempt\":{attempt},\"write_ns\":{write_ns},\"fsync_ns\":{fsync_ns},\"rename_ns\":{rename_ns},\"ok\":{ok}"
                );
            }
            EventKind::StoreWrite {
                bytes,
                retries,
                crc,
            } => {
                let _ = write!(s, ",\"bytes\":{bytes},\"retries\":{retries},\"crc\":{crc}");
            }
            EventKind::StoreFault { fault } => {
                let _ = write!(s, ",\"fault\":\"{}\"", fault.name());
            }
            EventKind::FlushRank { rank } => {
                let _ = write!(s, ",\"rank\":{rank}");
            }
            EventKind::StoreGcFailed => {}
            EventKind::NetSend { dst, bytes, user } => {
                let _ = write!(s, ",\"dst\":{dst},\"bytes\":{bytes},\"user\":{user}");
            }
            EventKind::NetMatch { src, bytes } => {
                let _ = write!(s, ",\"src\":{src},\"bytes\":{bytes}");
            }
            EventKind::NetHold { src, reorder } => {
                let _ = write!(s, ",\"src\":{src},\"reorder\":{reorder}");
            }
            EventKind::DrainCapture { src, bytes } => {
                let _ = write!(s, ",\"src\":{src},\"bytes\":{bytes}");
            }
            EventKind::DrainSchedule {
                order,
                edges,
                cyclic,
            } => {
                let _ = write!(
                    s,
                    ",\"order\":{order},\"edges\":{edges},\"cyclic\":{cyclic}"
                );
            }
            EventKind::FaultFired { fault } => {
                let _ = write!(s, ",\"fault\":\"{}\"", fault.name());
            }
            EventKind::RestartSkip { gen, code } => {
                let _ = write!(s, ",\"gen\":{gen},\"code\":\"{}\"", code.name());
            }
            EventKind::JournalAppend {
                epoch,
                step,
                rank,
                fresh,
            } => {
                let _ = write!(
                    s,
                    ",\"epoch\":{epoch},\"step\":\"{}\",\"rank\":{rank},\"fresh\":{fresh}",
                    step.name()
                );
            }
        }
        s.push('}');
        s
    }

    /// Parse one JSONL line previously written by [`TraceEvent::to_json_line`].
    pub fn from_json(v: &Json) -> Result<TraceEvent, String> {
        let need_u64 = |k: &str| {
            v.get(k)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("missing or non-integer field {k:?}"))
        };
        let need_i64 = |k: &str| {
            v.get(k)
                .and_then(Json::as_i64)
                .ok_or_else(|| format!("missing or non-integer field {k:?}"))
        };
        let need_bool = |k: &str| {
            v.get(k)
                .and_then(Json::as_bool)
                .ok_or_else(|| format!("missing or non-bool field {k:?}"))
        };
        let ev = v
            .get("ev")
            .and_then(Json::as_str)
            .ok_or_else(|| "missing field \"ev\"".to_string())?;
        let kind = match ev {
            "begin" | "end" => {
                let mut phase = named_in(&Phase::NAMES, v, "phase", "phase")?;
                if let Phase::Drain { sweep } = &mut phase {
                    *sweep = v.get("sweep").and_then(Json::as_u64).unwrap_or(0) as u32;
                }
                if ev == "begin" {
                    EventKind::Begin(phase)
                } else {
                    EventKind::End(phase)
                }
            }
            "barrier_arrive" => EventKind::BarrierArrive {
                gid: need_u64("gid")?,
                coll_seq: need_u64("coll_seq")?,
            },
            "store_attempt" => EventKind::StoreAttempt {
                attempt: need_u64("attempt")? as u32,
                write_ns: need_u64("write_ns")?,
                fsync_ns: need_u64("fsync_ns")?,
                rename_ns: need_u64("rename_ns")?,
                ok: need_bool("ok")?,
            },
            "store_write" => EventKind::StoreWrite {
                bytes: need_u64("bytes")?,
                retries: need_u64("retries")? as u32,
                crc: need_u64("crc")? as u32,
            },
            "store_fault" => EventKind::StoreFault {
                fault: named_in(&InjectedFault::NAMES, v, "fault", "store fault")?,
            },
            "flush_rank" => EventKind::FlushRank {
                rank: need_u64("rank")? as u32,
            },
            "store_gc_failed" => EventKind::StoreGcFailed,
            "net_send" => EventKind::NetSend {
                dst: need_u64("dst")? as u32,
                bytes: need_u64("bytes")?,
                user: need_bool("user")?,
            },
            "net_match" => EventKind::NetMatch {
                src: need_u64("src")? as u32,
                bytes: need_u64("bytes")?,
            },
            "net_hold" => EventKind::NetHold {
                src: need_u64("src")? as u32,
                reorder: need_bool("reorder")?,
            },
            "drain_capture" => EventKind::DrainCapture {
                src: need_u64("src")? as u32,
                bytes: need_u64("bytes")?,
            },
            "drain_schedule" => EventKind::DrainSchedule {
                order: need_u64("order")? as u32,
                edges: need_u64("edges")?,
                cyclic: need_bool("cyclic")?,
            },
            "fault_fired" => EventKind::FaultFired {
                fault: named_in(&FaultKind::NAMES, v, "fault", "fault kind")?,
            },
            "restart_skip" => EventKind::RestartSkip {
                gen: need_u64("gen")?,
                code: named_in(&RejectCode::NAMES, v, "code", "reject code")?,
            },
            "journal_append" => EventKind::JournalAppend {
                epoch: need_u64("epoch")?,
                step: named_in(&RestartStep::NAMES, v, "step", "restart step")?,
                rank: need_i64("rank")?,
                fresh: need_bool("fresh")?,
            },
            other => return Err(format!("unknown event kind {other:?}")),
        };
        Ok(TraceEvent {
            ts_ns: need_u64("ts")?,
            actor: need_i64("actor")? as i32,
            seq: need_u64("seq")?,
            round: need_i64("round")?,
            kind,
        })
    }
}
