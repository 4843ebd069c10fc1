//! The trace schema's bytes, pinned: one event of every kind (every
//! phase, every named value) as its JSONL line and its interleaving
//! token, written out as literals. A refactor of the event declaration
//! must leave every line and every token as it is.

use chaos::explore::interleaving_token;
use mana_core::obs::json;
use mana_core::obs::{
    EventKind, FaultKind, InjectedFault, Phase, RejectCode, RestartStep, TraceEvent, COORD_ACTOR,
    NO_ROUND,
};

/// One event of every kind, every phase and every named value.
fn every_kind() -> Vec<EventKind> {
    let phases = [
        Phase::Intent,
        Phase::TpcBarrier,
        Phase::EmuCollective,
        Phase::Drain { sweep: 3 },
        Phase::DrainExchange,
        Phase::DrainPlan,
        Phase::ImageWrite,
        Phase::Commit,
        Phase::Flush,
        Phase::FlushWait,
        Phase::AbortRound,
        Phase::RestartValidate,
        Phase::RestoreComms,
        Phase::JournalReplay,
    ];
    let mut kinds: Vec<EventKind> = phases.iter().map(|p| EventKind::Begin(*p)).collect();
    kinds.extend([
        EventKind::End(Phase::Drain { sweep: u32::MAX }),
        EventKind::End(Phase::Commit),
        EventKind::BarrierArrive {
            gid: u64::MAX,
            coll_seq: 7,
        },
        EventKind::StoreAttempt {
            attempt: 2,
            write_ns: 1000,
            fsync_ns: 2000,
            rename_ns: 300,
            ok: false,
        },
        EventKind::StoreWrite {
            bytes: 4096,
            retries: 1,
            crc: 0xDEAD_BEEF,
        },
    ]);
    kinds.extend(
        [
            InjectedFault::WriteError,
            InjectedFault::Torn,
            InjectedFault::BitFlip,
        ]
        .map(|fault| EventKind::StoreFault { fault }),
    );
    kinds.extend([
        EventKind::FlushRank { rank: 5 },
        EventKind::StoreGcFailed,
        EventKind::NetSend {
            dst: 3,
            bytes: 64,
            user: true,
        },
        EventKind::NetMatch { src: 1, bytes: 64 },
        EventKind::NetHold {
            src: 2,
            reorder: false,
        },
        EventKind::DrainCapture { src: 0, bytes: 17 },
        EventKind::DrainSchedule {
            order: 2,
            edges: 9,
            cyclic: true,
        },
    ]);
    kinds.extend(
        [
            FaultKind::ReadyStall,
            FaultKind::CoordDelay,
            FaultKind::Trigger,
            FaultKind::RestartKill,
        ]
        .map(|fault| EventKind::FaultFired { fault }),
    );
    kinds.extend(
        [
            RejectCode::Uncommitted,
            RejectCode::BadManifest,
            RejectCode::RoundMismatch,
            RejectCode::WorldMismatch,
            RejectCode::MissingImage,
            RejectCode::TornImage,
            RejectCode::CorruptImage,
            RejectCode::BadImage,
        ]
        .map(|code| EventKind::RestartSkip { gen: 4, code }),
    );
    kinds.extend(
        [
            (RestartStep::Intent, -1, true),
            (RestartStep::Validated, -1, true),
            (RestartStep::RankRestored, 2, false),
            (RestartStep::CommsRebuilt, -1, true),
            (RestartStep::Committed, -1, false),
        ]
        .map(|(step, rank, fresh)| EventKind::JournalAppend {
            epoch: 1,
            step,
            rank,
            fresh,
        }),
    );
    kinds
}

/// [`every_kind`] as events on varied actors and rounds (`-1` among them).
fn every_event() -> Vec<TraceEvent> {
    every_kind()
        .into_iter()
        .enumerate()
        .map(|(i, kind)| TraceEvent {
            ts_ns: i as u64 * 1000 + 7,
            actor: if i % 3 == 0 {
                COORD_ACTOR
            } else {
                i as i32 % 4
            },
            seq: i as u64,
            round: if i % 5 == 4 { NO_ROUND } else { i as i64 / 5 },
            kind,
        })
        .collect()
}

/// `(JSONL line, interleaving token)` of each of [`every_event`], as the
/// writer and the explorer produce them.
const PINNED: [(&str, &str); 46] = [
    (
        r#"{"ts":7,"actor":-1,"seq":0,"round":0,"ev":"begin","phase":"intent"}"#,
        "0:begin:intent",
    ),
    (
        r#"{"ts":1007,"actor":1,"seq":1,"round":0,"ev":"begin","phase":"tpc_barrier"}"#,
        "0:begin:tpc_barrier",
    ),
    (
        r#"{"ts":2007,"actor":2,"seq":2,"round":0,"ev":"begin","phase":"emu_collective"}"#,
        "0:begin:emu_collective",
    ),
    (
        r#"{"ts":3007,"actor":-1,"seq":3,"round":0,"ev":"begin","phase":"drain","sweep":3}"#,
        "0:begin:drain:3",
    ),
    (
        r#"{"ts":4007,"actor":0,"seq":4,"round":-1,"ev":"begin","phase":"drain_exchange"}"#,
        "-1:begin:drain_exchange",
    ),
    (
        r#"{"ts":5007,"actor":1,"seq":5,"round":1,"ev":"begin","phase":"drain_plan"}"#,
        "1:begin:drain_plan",
    ),
    (
        r#"{"ts":6007,"actor":-1,"seq":6,"round":1,"ev":"begin","phase":"image_write"}"#,
        "1:begin:image_write",
    ),
    (
        r#"{"ts":7007,"actor":3,"seq":7,"round":1,"ev":"begin","phase":"commit"}"#,
        "1:begin:commit",
    ),
    (
        r#"{"ts":8007,"actor":0,"seq":8,"round":1,"ev":"begin","phase":"flush"}"#,
        "1:begin:flush",
    ),
    (
        r#"{"ts":9007,"actor":-1,"seq":9,"round":-1,"ev":"begin","phase":"flush_wait"}"#,
        "-1:begin:flush_wait",
    ),
    (
        r#"{"ts":10007,"actor":2,"seq":10,"round":2,"ev":"begin","phase":"abort_round"}"#,
        "2:begin:abort_round",
    ),
    (
        r#"{"ts":11007,"actor":3,"seq":11,"round":2,"ev":"begin","phase":"restart_validate"}"#,
        "2:begin:restart_validate",
    ),
    (
        r#"{"ts":12007,"actor":-1,"seq":12,"round":2,"ev":"begin","phase":"restore_comms"}"#,
        "2:begin:restore_comms",
    ),
    (
        r#"{"ts":13007,"actor":1,"seq":13,"round":2,"ev":"begin","phase":"journal_replay"}"#,
        "2:begin:journal_replay",
    ),
    (
        r#"{"ts":14007,"actor":2,"seq":14,"round":-1,"ev":"end","phase":"drain","sweep":4294967295}"#,
        "-1:end:drain:4294967295",
    ),
    (
        r#"{"ts":15007,"actor":-1,"seq":15,"round":3,"ev":"end","phase":"commit"}"#,
        "3:end:commit",
    ),
    (
        r#"{"ts":16007,"actor":0,"seq":16,"round":3,"ev":"barrier_arrive","gid":18446744073709551615,"coll_seq":7}"#,
        "3:barrier_arrive:18446744073709551615:7",
    ),
    (
        r#"{"ts":17007,"actor":1,"seq":17,"round":3,"ev":"store_attempt","attempt":2,"write_ns":1000,"fsync_ns":2000,"rename_ns":300,"ok":false}"#,
        "3:store_attempt:2:false",
    ),
    (
        r#"{"ts":18007,"actor":-1,"seq":18,"round":3,"ev":"store_write","bytes":4096,"retries":1,"crc":3735928559}"#,
        "3:store_write:4096:1:3735928559",
    ),
    (
        r#"{"ts":19007,"actor":3,"seq":19,"round":-1,"ev":"store_fault","fault":"write_error"}"#,
        "-1:store_fault:write_error",
    ),
    (
        r#"{"ts":20007,"actor":0,"seq":20,"round":4,"ev":"store_fault","fault":"torn"}"#,
        "4:store_fault:torn",
    ),
    (
        r#"{"ts":21007,"actor":-1,"seq":21,"round":4,"ev":"store_fault","fault":"bit_flip"}"#,
        "4:store_fault:bit_flip",
    ),
    (
        r#"{"ts":22007,"actor":2,"seq":22,"round":4,"ev":"flush_rank","rank":5}"#,
        "4:flush_rank:5",
    ),
    (
        r#"{"ts":23007,"actor":3,"seq":23,"round":4,"ev":"store_gc_failed"}"#,
        "4:store_gc_failed",
    ),
    (
        r#"{"ts":24007,"actor":-1,"seq":24,"round":-1,"ev":"net_send","dst":3,"bytes":64,"user":true}"#,
        "-1:net_send:3:64:true",
    ),
    (
        r#"{"ts":25007,"actor":1,"seq":25,"round":5,"ev":"net_match","src":1,"bytes":64}"#,
        "5:net_match:1:64",
    ),
    (
        r#"{"ts":26007,"actor":2,"seq":26,"round":5,"ev":"net_hold","src":2,"reorder":false}"#,
        "5:net_hold:2:false",
    ),
    (
        r#"{"ts":27007,"actor":-1,"seq":27,"round":5,"ev":"drain_capture","src":0,"bytes":17}"#,
        "5:drain_capture:0:17",
    ),
    (
        r#"{"ts":28007,"actor":0,"seq":28,"round":5,"ev":"drain_schedule","order":2,"edges":9,"cyclic":true}"#,
        "5:drain_schedule:2:9:true",
    ),
    (
        r#"{"ts":29007,"actor":1,"seq":29,"round":-1,"ev":"fault_fired","fault":"ready_stall"}"#,
        "-1:fault_fired:ready_stall",
    ),
    (
        r#"{"ts":30007,"actor":-1,"seq":30,"round":6,"ev":"fault_fired","fault":"coord_delay"}"#,
        "6:fault_fired:coord_delay",
    ),
    (
        r#"{"ts":31007,"actor":3,"seq":31,"round":6,"ev":"fault_fired","fault":"trigger"}"#,
        "6:fault_fired:trigger",
    ),
    (
        r#"{"ts":32007,"actor":0,"seq":32,"round":6,"ev":"fault_fired","fault":"restart_kill"}"#,
        "6:fault_fired:restart_kill",
    ),
    (
        r#"{"ts":33007,"actor":-1,"seq":33,"round":6,"ev":"restart_skip","gen":4,"code":"uncommitted"}"#,
        "6:restart_skip:4:uncommitted",
    ),
    (
        r#"{"ts":34007,"actor":2,"seq":34,"round":-1,"ev":"restart_skip","gen":4,"code":"bad_manifest"}"#,
        "-1:restart_skip:4:bad_manifest",
    ),
    (
        r#"{"ts":35007,"actor":3,"seq":35,"round":7,"ev":"restart_skip","gen":4,"code":"round_mismatch"}"#,
        "7:restart_skip:4:round_mismatch",
    ),
    (
        r#"{"ts":36007,"actor":-1,"seq":36,"round":7,"ev":"restart_skip","gen":4,"code":"world_mismatch"}"#,
        "7:restart_skip:4:world_mismatch",
    ),
    (
        r#"{"ts":37007,"actor":1,"seq":37,"round":7,"ev":"restart_skip","gen":4,"code":"missing_image"}"#,
        "7:restart_skip:4:missing_image",
    ),
    (
        r#"{"ts":38007,"actor":2,"seq":38,"round":7,"ev":"restart_skip","gen":4,"code":"torn_image"}"#,
        "7:restart_skip:4:torn_image",
    ),
    (
        r#"{"ts":39007,"actor":-1,"seq":39,"round":-1,"ev":"restart_skip","gen":4,"code":"corrupt_image"}"#,
        "-1:restart_skip:4:corrupt_image",
    ),
    (
        r#"{"ts":40007,"actor":0,"seq":40,"round":8,"ev":"restart_skip","gen":4,"code":"bad_image"}"#,
        "8:restart_skip:4:bad_image",
    ),
    (
        r#"{"ts":41007,"actor":1,"seq":41,"round":8,"ev":"journal_append","epoch":1,"step":"restart_intent","rank":-1,"fresh":true}"#,
        "8:journal_append:1:restart_intent:-1",
    ),
    (
        r#"{"ts":42007,"actor":-1,"seq":42,"round":8,"ev":"journal_append","epoch":1,"step":"gen_validated","rank":-1,"fresh":true}"#,
        "8:journal_append:1:gen_validated:-1",
    ),
    (
        r#"{"ts":43007,"actor":3,"seq":43,"round":8,"ev":"journal_append","epoch":1,"step":"rank_restored","rank":2,"fresh":false}"#,
        "8:journal_append:1:rank_restored:2",
    ),
    (
        r#"{"ts":44007,"actor":0,"seq":44,"round":-1,"ev":"journal_append","epoch":1,"step":"comms_rebuilt","rank":-1,"fresh":true}"#,
        "-1:journal_append:1:comms_rebuilt:-1",
    ),
    (
        r#"{"ts":45007,"actor":-1,"seq":45,"round":9,"ev":"journal_append","epoch":1,"step":"restart_committed","rank":-1,"fresh":false}"#,
        "9:journal_append:1:restart_committed:-1",
    ),
];

#[test]
fn every_kind_writes_its_pinned_line_and_token() {
    let events = every_event();
    assert_eq!(events.len(), PINNED.len());
    for (ev, (line, token)) in events.iter().zip(PINNED) {
        assert_eq!(ev.to_json_line(), line, "{ev:?}");
        assert_eq!(interleaving_token(ev), token, "{ev:?}");
        let back = TraceEvent::from_json(&json::parse(line).unwrap());
        assert_eq!(back.as_ref(), Ok(ev), "{line}");
    }
}

#[test]
fn the_event_record_keeps_its_size() {
    assert_eq!(std::mem::size_of::<TraceEvent>(), 64);
}
