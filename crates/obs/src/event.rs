//! The trace event model: checkpoint phases, point events, and the
//! fixed-size [`TraceEvent`] record stored in the rings.
//!
//! Every variant is `Copy` with scalar payloads only, so recording an
//! event never allocates — the requirement that lets the rings stay on
//! the hot path of the drain loop and the store write path.
//!
//! The schema is stated once: each enum below is one `schema!`
//! declaration (variants, schema names, payload fields in line order),
//! and `name`, the JSONL writer, the reader and the field visitor behind
//! the explorer's interleaving token all derive from it.

use crate::json::Json;
use std::fmt::{self, Write as _};

/// Actor id used for the coordinator's ring (ranks are `0..n`).
pub const COORD_ACTOR: i32 = -1;

/// Round value for events outside any checkpoint round.
pub const NO_ROUND: i64 = -1;

/// One payload value as the schema writes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Value {
    /// A non-negative integer.
    UInt(u64),
    /// A signed integer.
    Int(i64),
    /// A flag.
    Bool(bool),
    /// A variant's schema name: quoted in a JSONL line, bare in a token.
    Name(&'static str),
}

impl fmt::Display for Value {
    /// The bare form: a name without quotes.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::UInt(n) => write!(f, "{n}"),
            Value::Int(n) => write!(f, "{n}"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Name(name) => f.write_str(name),
        }
    }
}

/// One payload field as declared.
#[derive(Debug, Clone, Copy)]
pub struct FieldDecl {
    /// The field's JSONL key.
    pub key: &'static str,
    /// The variants a named field takes; empty for a number or a flag.
    pub variants: &'static [VariantDecl],
}

/// One variant as declared: its schema name and its own payload fields.
#[derive(Debug, Clone, Copy)]
pub struct VariantDecl {
    /// Schema name (an event's `ev`, a phase's `phase`, …).
    pub name: &'static str,
    /// The fields a line writes after the name, in order.
    pub fields: &'static [FieldDecl],
}

/// A payload field's type: the values it writes and how a line reads it
/// back.
pub trait Field: Sized {
    /// A named enum's variants as declared; empty for numbers and flags.
    const VARIANTS: &'static [VariantDecl] = &[];

    /// Hand `f` each `(key, value, in_token)` that the field `key` holding
    /// `self` writes: its own value, then a variant's payload fields.
    /// `in_token` is `keep`, and below it each field's own mark.
    fn visit(&self, key: &'static str, keep: bool, f: &mut dyn FnMut(&'static str, Value, bool));

    /// Read the field `key` of the line `v`. Lines come from outside the
    /// program: an absent field, a value of the wrong type or one too wide
    /// for the field is an error naming `key`, never a default or a
    /// truncation.
    fn read(v: &Json, key: &str) -> Result<Self, String>;
}

macro_rules! scalar_field {
    ($($t:ty => $wide:ty, $as:ident, $value:ident, $what:literal;)+) => {$(
        impl Field for $t {
            fn visit(
                &self,
                key: &'static str,
                keep: bool,
                f: &mut dyn FnMut(&'static str, Value, bool),
            ) {
                f(key, Value::$value(<$wide>::from(*self)), keep);
            }

            fn read(v: &Json, key: &str) -> Result<Self, String> {
                let wide = (v.get(key).and_then(Json::$as))
                    .ok_or_else(|| format!("missing or non-{} field {key:?}", $what))?;
                <$t>::try_from(wide).map_err(|_| format!("field {key:?} out of range: {wide}"))
            }
        }
    )+};
}

scalar_field! {
    u32 => u64, as_u64, UInt, "integer";
    u64 => u64, as_u64, UInt, "integer";
    i32 => i64, as_i64, Int, "integer";
    i64 => i64, as_i64, Int, "integer";
    bool => bool, as_bool, Bool, "bool";
}

/// Declare a named enum of the trace schema once: each variant with its
/// schema name and its payload fields in the order a line writes them.
/// The enum, `name`, [`Field::VARIANTS`], the visitor and the reader all
/// derive from the declaration. A line writes the variant's name under
/// the key the enum is read from (`ev` for an [`EventKind`], `phase` for
/// a [`Phase`]), then the variant's fields.
///
/// A variant is a unit, a struct of fields, or one field given its key
/// (`Begin(phase: Phase) = "begin"`). A mark before a field's name:
/// `@no_token` leaves it out of the interleaving token, `@optional` lets a
/// line leave it out (it reads as its type's default).
macro_rules! schema {
    (@in_token) => { true };
    (@in_token no_token) => { false };
    (@in_token optional) => { true };
    (@read $v:ident, $field:ident optional) => {
        match $v.get(stringify!($field)) {
            None => Default::default(),
            Some(_) => Field::read($v, stringify!($field))?,
        }
    };
    (@read $v:ident, $field:ident $($mark:ident)?) => {
        Field::read($v, stringify!($field))?
    };
    (
        $(#[$meta:meta])*
        pub enum $ty:ident {
            $(
                $(#[$vmeta:meta])*
                $variant:ident
                $(($key:ident: $kty:ty))?
                $({ $($(#[$fmeta:meta])* $(@$mark:ident)? $field:ident: $fty:ty),+ $(,)? })?
                = $name:literal
            ),+ $(,)?
        }
    ) => {
        $(#[$meta])*
        pub enum $ty {
            $($(#[$vmeta])* $variant $(($kty))? $({ $($(#[$fmeta])* $field: $fty),+ })?,)+
        }

        impl $ty {
            /// Stable schema name.
            pub fn name(&self) -> &'static str {
                match self {
                    $($ty::$variant { .. } => $name,)+
                }
            }
        }

        impl Field for $ty {
            const VARIANTS: &'static [VariantDecl] = &[$(VariantDecl {
                name: $name,
                fields: &[
                    $(FieldDecl {
                        key: stringify!($key),
                        variants: <$kty as Field>::VARIANTS,
                    },)?
                    $($(FieldDecl {
                        key: stringify!($field),
                        variants: <$fty as Field>::VARIANTS,
                    },)+)?
                ],
            },)+];

            fn visit(
                &self,
                key: &'static str,
                keep: bool,
                f: &mut dyn FnMut(&'static str, Value, bool),
            ) {
                f(key, Value::Name(self.name()), keep);
                match self {
                    $($ty::$variant $(($key))? $({ $($field),+ })? => {
                        $($key.visit(stringify!($key), keep, f);)?
                        $($(
                            let in_token = keep && schema!(@in_token $($mark)?);
                            $field.visit(stringify!($field), in_token, f);
                        )+)?
                    })+
                }
            }

            fn read(v: &Json, key: &str) -> Result<Self, String> {
                let name = (v.get(key).and_then(Json::as_str))
                    .ok_or_else(|| format!("missing field {key:?}"))?;
                Ok(match name {
                    $($name => $ty::$variant
                        $((Field::read(v, stringify!($key))?))?
                        $({ $($field: schema!(@read v, $field $($mark)?)),+ })?,)+
                    _ => return Err(format!("field {key:?}: unknown name {name:?}")),
                })
            }
        }
    };
}

schema! {
    /// A checkpoint-window phase delimited by `Begin`/`End` events,
    /// declared in the order reports list them.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    pub enum Phase {
        /// Coordinator raised the intent flag; ranks quiesce toward `Ready`.
        Intent = "intent",
        /// A two-phase-commit style barrier in `TpcMode::Original`.
        TpcBarrier = "tpc_barrier",
        /// One emulated collective operation being driven to completion.
        EmuCollective = "emu_collective",
        /// The drain strategy's count exchange: the alltoall of sent rows, or
        /// the topo-sort rows→schedule round trip through the coordinator.
        DrainExchange = "drain_exchange",
        /// The coordinator computing a topological drain schedule from the
        /// collected per-rank rows.
        DrainPlan = "drain_plan",
        /// One sweep of the drain loop (paper §III-B). `sweep` is the
        /// 0-based sweep index within the round.
        Drain {
            /// 0-based sweep index within the checkpoint round.
            @optional sweep: u32,
        } = "drain",
        /// Serializing and durably writing the checkpoint image.
        ImageWrite = "image_write",
        /// Commit: manifest write on the coordinator, resume-wait on ranks.
        Commit = "commit",
        /// The coordinator's flush of a released round: every frozen image
        /// landed, the manifest committed and the store collected, behind the
        /// running application in resume mode, before the verdict in exit
        /// mode.
        Flush = "flush",
        /// A checkpoint request waiting for the previous round's flush to
        /// finish, on the requesting rank (labelled with the round about to
        /// run).
        FlushWait = "flush_wait",
        /// A round being aborted and rolled back.
        AbortRound = "abort_round",
        /// Restart-time generation selection and validation.
        RestartValidate = "restart_validate",
        /// Rebuilding communicators from checkpoint metadata on restart.
        RestoreComms = "restore_comms",
        /// Opening and replaying the restart journal (reentrant restart).
        JournalReplay = "journal_replay",
    }
}

schema! {
    /// An injected storage fault observed by the store layer.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum InjectedFault {
        /// Transient write error (retried).
        WriteError = "write_error",
        /// Image truncated after commit (torn write).
        Torn = "torn",
        /// Single bit flipped after commit.
        BitFlip = "bit_flip",
    }
}

schema! {
    /// Why a generation was skipped during restart validation. Coarse,
    /// `Copy` mirror of the store layer's rejection reasons — the ring needs
    /// a scalar, the full prose lives in `RejectedGeneration::reason`.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum RejectCode {
        /// No `MANIFEST` — the round never committed.
        Uncommitted = "uncommitted",
        /// Manifest unreadable or self-inconsistent.
        BadManifest = "bad_manifest",
        /// Manifest round disagrees with the directory round.
        RoundMismatch = "round_mismatch",
        /// Manifest world size disagrees with the runtime world size.
        WorldMismatch = "world_mismatch",
        /// A required rank image is missing or unreadable.
        MissingImage = "missing_image",
        /// An image's on-disk size disagrees with the manifest (torn write).
        TornImage = "torn_image",
        /// An image's CRC disagrees with the manifest (corruption).
        CorruptImage = "corrupt_image",
        /// An image fails to parse or its header disagrees.
        BadImage = "bad_image",
    }
}

schema! {
    /// One step of the restart protocol as journaled (mirrors
    /// `splitproc::journal::JournalStep` kinds, payload-free); its schema
    /// name is also the journal's blob-name kind.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum RestartStep {
        /// `RestartIntent` — a restart attempt opened.
        Intent = "restart_intent",
        /// `GenValidated` — the generation passed validation.
        Validated = "gen_validated",
        /// `RankRestored` — one rank's image restored.
        RankRestored = "rank_restored",
        /// `CommsRebuilt` — communicators rebuilt.
        CommsRebuilt = "comms_rebuilt",
        /// `RestartCommitted` — the epoch committed.
        Committed = "restart_committed",
    }
}

schema! {
    /// A fault-plan firing outside the store (fabric and coordinator faults).
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum FaultKind {
        /// A rank's `Ready` message was stalled.
        ReadyStall = "ready_stall",
        /// A coordinator-channel message was delayed.
        CoordDelay = "coord_delay",
        /// The plan's checkpoint trigger fired on this rank.
        Trigger = "trigger",
        /// The plan killed the restart at a journal-step boundary.
        RestartKill = "restart_kill",
    }
}

schema! {
    /// What happened. Span edges carry a [`Phase`]; the rest are points.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum EventKind {
        /// A phase span opened.
        Begin(phase: Phase) = "begin",
        /// The innermost open span of this phase closed.
        End(phase: Phase) = "end",
        /// This rank arrived at a 2PC barrier (skew = first-to-last arrival
        /// per `(gid, coll_seq)` across ranks).
        BarrierArrive {
            /// Communicator gid of the barrier.
            gid: u64,
            /// Per-communicator collective sequence number.
            coll_seq: u64,
        } = "barrier_arrive",
        /// One attempt of an atomic store write, with per-stage timings.
        StoreAttempt {
            /// 1-based attempt number.
            attempt: u32,
            /// Nanoseconds spent creating + writing the temp file.
            @no_token write_ns: u64,
            /// Nanoseconds spent in `sync_all`.
            @no_token fsync_ns: u64,
            /// Nanoseconds spent in rename + directory fsync.
            @no_token rename_ns: u64,
            /// Whether the attempt succeeded.
            ok: bool,
        } = "store_attempt",
        /// Final outcome of a checkpoint-image write.
        StoreWrite {
            /// Image size in bytes.
            bytes: u64,
            /// Retries consumed before success.
            retries: u32,
            /// CRC32 recorded for the image.
            crc: u32,
        } = "store_write",
        /// The store layer applied an injected fault.
        StoreFault {
            /// Which fault was injected.
            fault: InjectedFault,
        } = "store_fault",
        /// The flush is landing this rank's image: the store events after it
        /// on the same ring, up to the next `FlushRank` or the end of the
        /// flush, are that rank's write.
        FlushRank {
            /// World rank whose image is being landed.
            rank: u32,
        } = "flush_rank",
        /// Generation / chunk GC failed; the store was not collected this
        /// round (the job goes on).
        StoreGcFailed = "store_gc_failed",
        /// A message was deposited into the fabric.
        NetSend {
            /// Destination world rank.
            dst: u32,
            /// Payload bytes.
            bytes: u64,
            /// User-class (vs internal coordination) traffic.
            user: bool,
        } = "net_send",
        /// A receive matched (removed) a message from a mailbox.
        NetMatch {
            /// Source world rank.
            src: u32,
            /// Payload bytes.
            bytes: u64,
        } = "net_match",
        /// The fault plan held an envelope in limbo (delay or reorder).
        NetHold {
            /// Source world rank of the held envelope.
            src: u32,
            /// Reorder hold (vs pure delay).
            reorder: bool,
        } = "net_hold",
        /// The drain loop captured an in-flight message into the drain buffer.
        DrainCapture {
            /// Source world rank of the captured message.
            src: u32,
            /// Payload bytes captured.
            bytes: u64,
        } = "drain_capture",
        /// The rank received its topological drain schedule (topo-sort drain).
        DrainSchedule {
            /// This rank's position in the topological order.
            order: u32,
            /// Edges in the global in-flight dependency graph.
            edges: u64,
            /// Whether the planner had to break a cycle.
            cyclic: bool,
        } = "drain_schedule",
        /// A non-storage fault-plan fault fired.
        FaultFired {
            /// Which fault fired.
            fault: FaultKind,
        } = "fault_fired",
        /// Restart validation skipped (fell back past) a damaged generation.
        RestartSkip {
            /// Round of the skipped generation.
            gen: u64,
            /// Coarse reason it was rejected.
            code: RejectCode,
        } = "restart_skip",
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
            @no_token fresh: bool,
        } = "journal_append",
    }
}

impl EventKind {
    /// Walk the event's payload as a line writes it: `f` gets each
    /// `(key, value, in_token)`, the `ev` name first.
    pub fn fields(&self, mut f: impl FnMut(&'static str, Value, bool)) {
        self.visit("ev", true, &mut f);
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
            "{{\"ts\":{},\"actor\":{},\"seq\":{},\"round\":{}",
            self.ts_ns, self.actor, self.seq, self.round
        );
        self.kind.fields(|key, value, _| {
            let _ = match value {
                Value::Name(name) => write!(s, ",\"{key}\":\"{name}\""),
                value => write!(s, ",\"{key}\":{value}"),
            };
        });
        s.push('}');
        s
    }

    /// Parse one JSONL line previously written by [`TraceEvent::to_json_line`].
    pub fn from_json(v: &Json) -> Result<TraceEvent, String> {
        let kind = EventKind::read(v, "ev")?;
        Ok(TraceEvent {
            ts_ns: Field::read(v, "ts")?,
            actor: Field::read(v, "actor")?,
            seq: Field::read(v, "seq")?,
            round: Field::read(v, "round")?,
            kind,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    /// `line` with the value of `"key":` replaced by `value`, parsed back.
    fn with_field(line: &str, key: &str, value: &str) -> Result<TraceEvent, String> {
        let at = line.find(&format!("\"{key}\":")).expect("key present") + key.len() + 3;
        let end = at + line[at..].find([',', '}']).expect("value ends");
        let edited = format!("{}{value}{}", &line[..at], &line[end..]);
        TraceEvent::from_json(&parse(&edited)?)
    }

    #[test]
    fn a_drain_line_may_leave_its_sweep_out_but_not_misspell_a_name() {
        let line = r#"{"ts":1,"actor":0,"seq":2,"round":0,"ev":"end","phase":"drain"}"#;
        let ev = TraceEvent::from_json(&parse(line).unwrap()).unwrap();
        assert_eq!(ev.kind, EventKind::End(Phase::Drain { sweep: 0 }));
        let with_sweep = line.replace("\"drain\"", "\"drain\",\"sweep\":-1");
        let err = TraceEvent::from_json(&parse(&with_sweep).unwrap()).unwrap_err();
        assert!(err.contains("\"sweep\""), "{err}");
        for (from, to, key) in [("drain", "drains", "phase"), ("end", "ends", "ev")] {
            let edited = line.replace(&format!("\"{from}\""), &format!("\"{to}\""));
            let err = TraceEvent::from_json(&parse(&edited).unwrap()).unwrap_err();
            assert!(
                err.contains(&format!("\"{key}\"")) && err.contains(to),
                "{err}"
            );
        }
    }

    #[test]
    fn a_value_too_wide_for_its_field_is_refused_by_name() {
        let ev = TraceEvent {
            ts_ns: 10,
            actor: 2,
            seq: 1,
            round: 0,
            kind: EventKind::StoreWrite {
                bytes: 4096,
                retries: 1,
                crc: 7,
            },
        };
        let line = ev.to_json_line();
        assert_eq!(TraceEvent::from_json(&parse(&line).unwrap()), Ok(ev));

        let max = with_field(&line, "crc", "4294967295").unwrap();
        assert!(matches!(
            max.kind,
            EventKind::StoreWrite { crc: u32::MAX, .. }
        ));
        let err = with_field(&line, "crc", "4294967296").unwrap_err();
        assert!(
            err.contains("\"crc\"") && err.contains("out of range"),
            "{err}"
        );

        assert_eq!(with_field(&line, "actor", "-1").unwrap().actor, -1);
        let err = with_field(&line, "actor", "2147483648").unwrap_err();
        assert!(
            err.contains("\"actor\"") && err.contains("out of range"),
            "{err}"
        );
    }
}
