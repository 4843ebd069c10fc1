//! Flight-recorder dumps: JSONL serialization (stable schema) and Chrome
//! `trace_event` export.
//!
//! A dump is a header line followed by one event per line:
//!
//! ```text
//! {"schema":"mana2-trace/1","label":"chaos_42","ranks":4,"seed":42,"dropped":0,"config":{"engine":"coop:auto:0","drain":"alltoall"}}
//! {"ts":1200,"actor":-1,"seq":0,"round":0,"ev":"begin","phase":"intent"}
//! {"ts":3400,"actor":0,"seq":1,"round":0,"ev":"end","phase":"intent"}
//! ```
//!
//! The schema string is versioned; parsers reject dumps they do not
//! understand rather than guessing.

use crate::event::{EventKind, TraceEvent, COORD_ACTOR};
use crate::json::{self, escape, Json};
use crate::sink::TraceSink;
use std::fmt::Write as _;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Schema identifier written in every dump header.
pub const SCHEMA: &str = "mana2-trace/1";

/// The resolved configuration a run executed under, as ordered
/// `key → value` pairs (engine, 2PC mode, drain, store layout, …). This
/// crate carries it verbatim into dump and series headers and prints it;
/// the layer that owns the configuration decides the keys.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ConfigRecord(pub Vec<(String, String)>);

impl ConfigRecord {
    /// Build a record from `(key, value)` pairs, keeping their order.
    pub fn new<K: Into<String>, V: Into<String>>(
        pairs: impl IntoIterator<Item = (K, V)>,
    ) -> ConfigRecord {
        ConfigRecord(
            pairs
                .into_iter()
                .map(|(k, v)| (k.into(), v.into()))
                .collect(),
        )
    }

    /// Append `,"config":{…}` to a header under construction (nothing
    /// for an empty record, so headers without one stay as they were).
    pub(crate) fn write_header_field(&self, out: &mut String) {
        if !self.0.is_empty() {
            let field = |(k, v): &(String, String)| format!("\"{}\":\"{}\"", escape(k), escape(v));
            let fields: Vec<String> = self.0.iter().map(field).collect();
            let _ = write!(out, ",\"config\":{{{}}}", fields.join(","));
        }
    }

    /// Read the `config` field of a parsed header. Absent means empty
    /// (dumps written before the field existed); present must be an
    /// object whose values are all strings.
    pub(crate) fn from_header(header: &Json) -> Result<ConfigRecord, String> {
        let fields = match header.get("config") {
            None => return Ok(ConfigRecord::default()),
            Some(Json::Obj(fields)) => fields,
            Some(_) => return Err("header \"config\" is not an object".to_string()),
        };
        let pair = |(k, v): &(String, Json)| match v.as_str() {
            Some(s) => Ok((k.clone(), s.to_string())),
            None => Err(format!("header \"config\".{k:?} is not a string")),
        };
        fields
            .iter()
            .map(pair)
            .collect::<Result<_, _>>()
            .map(ConfigRecord)
    }
}

impl std::fmt::Display for ConfigRecord {
    /// `key=value` pairs, space-separated.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let pairs = self.0.iter().map(|(k, v)| format!("{k}={v}"));
        f.write_str(&pairs.collect::<Vec<_>>().join(" "))
    }
}

/// Dump header metadata.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DumpMeta {
    /// Free-form label (chaos seed tag, bench name, …).
    pub label: String,
    /// Number of rank rings merged into the dump.
    pub ranks: usize,
    /// Fault-plan seed of the run, when one was armed.
    pub seed: Option<u64>,
    /// Events overwritten (lost) across all rings before the dump.
    pub dropped: u64,
    /// Events overwritten per ring (ranks `0..n`, then the coordinator).
    /// Empty in dumps written before this field existed.
    pub dropped_by_ring: Vec<u64>,
    /// The configuration the run resolved to. Empty in dumps written
    /// before this field existed.
    pub config: ConfigRecord,
    /// `(rank, error)` for every rank that failed *besides* the one the
    /// run's error names: the collateral of a poisoned world. Empty for
    /// dumps of runs that did not fail that way.
    pub rank_errors: Vec<(usize, String)>,
}

/// Serialize `events` (pre-merged, any order preserved) as a JSONL dump.
pub fn events_to_jsonl(meta: &DumpMeta, events: &[TraceEvent]) -> String {
    let mut out = String::with_capacity(64 + events.len() * 96);
    let _ = write!(
        out,
        "{{\"schema\":\"{}\",\"label\":\"{}\",\"ranks\":{},\"seed\":",
        SCHEMA,
        escape(&meta.label),
        meta.ranks
    );
    match meta.seed {
        Some(s) => {
            let _ = write!(out, "{s}");
        }
        None => out.push_str("null"),
    }
    let _ = write!(out, ",\"dropped\":{}", meta.dropped);
    if !meta.dropped_by_ring.is_empty() {
        out.push_str(",\"dropped_by_ring\":[");
        for (i, d) in meta.dropped_by_ring.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{d}");
        }
        out.push(']');
    }
    meta.config.write_header_field(&mut out);
    if !meta.rank_errors.is_empty() {
        let one =
            |(r, e): &(usize, String)| format!("{{\"rank\":{r},\"error\":\"{}\"}}", escape(e));
        let all: Vec<String> = meta.rank_errors.iter().map(one).collect();
        let _ = write!(out, ",\"rank_errors\":[{}]", all.join(","));
    }
    out.push_str("}\n");
    for ev in events {
        out.push_str(&ev.to_json_line());
        out.push('\n');
    }
    out
}

/// Parse a JSONL dump back into its header and events.
pub fn parse_jsonl(text: &str) -> Result<(DumpMeta, Vec<TraceEvent>), String> {
    let mut lines = text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty());
    let (_, header) = lines.next().ok_or("empty dump".to_string())?;
    let hv = json::parse(header).map_err(|e| format!("header: {e}"))?;
    let schema = hv
        .get("schema")
        .and_then(Json::as_str)
        .ok_or("header missing \"schema\"".to_string())?;
    if schema != SCHEMA {
        return Err(format!("unsupported schema {schema:?} (want {SCHEMA:?})"));
    }
    let meta = DumpMeta {
        label: hv
            .get("label")
            .and_then(Json::as_str)
            .unwrap_or("")
            .to_string(),
        ranks: hv.get("ranks").and_then(Json::as_u64).unwrap_or(0) as usize,
        seed: hv.get("seed").and_then(Json::as_u64),
        dropped: hv.get("dropped").and_then(Json::as_u64).unwrap_or(0),
        dropped_by_ring: match hv.get("dropped_by_ring") {
            Some(Json::Arr(items)) => items.iter().filter_map(Json::as_u64).collect(),
            _ => Vec::new(),
        },
        config: ConfigRecord::from_header(&hv)?,
        rank_errors: match hv.get("rank_errors") {
            Some(Json::Arr(items)) => items
                .iter()
                .filter_map(|it| {
                    let rank = it.get("rank").and_then(Json::as_u64)? as usize;
                    Some((rank, it.get("error").and_then(Json::as_str)?.to_string()))
                })
                .collect(),
            _ => Vec::new(),
        },
    };
    let mut events = Vec::new();
    for (lineno, line) in lines {
        let v = json::parse(line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
        let ev = TraceEvent::from_json(&v).map_err(|e| format!("line {}: {e}", lineno + 1))?;
        events.push(ev);
    }
    Ok((meta, events))
}

/// Chrome `tid` for an actor: the coordinator gets 0, rank `r` gets `r+1`.
fn chrome_tid(actor: i32) -> i64 {
    if actor == COORD_ACTOR {
        0
    } else {
        actor as i64 + 1
    }
}

/// Render `events` as a Chrome `trace_event` JSON document (open it in
/// `chrome://tracing` or Perfetto). Phase spans become `B`/`E` pairs,
/// point events become instants; timestamps are microseconds.
pub fn chrome_trace(meta: &DumpMeta, events: &[TraceEvent]) -> String {
    let mut out = String::with_capacity(256 + events.len() * 128);
    out.push_str("{\"traceEvents\":[\n");
    // Thread-name metadata so the timeline reads "coordinator", "rank 0", …
    let mut actors: Vec<i32> = events.iter().map(|e| e.actor).collect();
    actors.sort_unstable();
    actors.dedup();
    let mut first = true;
    for a in &actors {
        let name = if *a == COORD_ACTOR {
            "coordinator".to_string()
        } else {
            format!("rank {a}")
        };
        if !first {
            out.push_str(",\n");
        }
        first = false;
        let _ = write!(
            out,
            "{{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":0,\"tid\":{},\"args\":{{\"name\":\"{}\"}}}}",
            chrome_tid(*a),
            escape(&name)
        );
    }
    for ev in events {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        let ts_us = ev.ts_ns as f64 / 1000.0;
        let tid = chrome_tid(ev.actor);
        match ev.kind {
            EventKind::Begin(p) | EventKind::End(p) => {
                let ph = if matches!(ev.kind, EventKind::Begin(_)) {
                    "B"
                } else {
                    "E"
                };
                let _ = write!(
                    out,
                    "{{\"ph\":\"{ph}\",\"name\":\"{}\",\"cat\":\"ckpt\",\"ts\":{ts_us},\"pid\":0,\"tid\":{tid},\"args\":{{\"round\":{}",
                    p.name(),
                    ev.round
                );
                if let crate::event::Phase::Drain { sweep } = p {
                    let _ = write!(out, ",\"sweep\":{sweep}");
                }
                out.push_str("}}");
            }
            _ => {
                let _ = write!(
                    out,
                    "{{\"ph\":\"i\",\"s\":\"t\",\"name\":\"{}\",\"cat\":\"ev\",\"ts\":{ts_us},\"pid\":0,\"tid\":{tid},\"args\":{{\"round\":{}}}}}",
                    ev.kind.name(),
                    ev.round
                );
            }
        }
    }
    let _ = write!(
        out,
        "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{{\"schema\":\"{}\",\"label\":\"{}\"}}}}\n",
        SCHEMA,
        escape(&meta.label)
    );
    out
}

/// A unique-in-this-process dump label: `<prefix>_<pid>_<counter>`.
/// (Process id + a process-local counter — no wall-clock involved, so
/// deterministic runs stay deterministic.)
pub fn unique_label(prefix: &str) -> String {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    format!(
        "{prefix}_{}_{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    )
}

/// Paths produced by one [`flight_record`] call.
#[derive(Debug, Clone)]
pub struct FlightDump {
    /// The JSONL event dump.
    pub jsonl: PathBuf,
    /// The Chrome `trace_event` export.
    pub chrome: PathBuf,
    /// The metrics-snapshot sidecar (`mana2-metrics/1`), when the run
    /// had a metrics registry.
    pub metrics: Option<PathBuf>,
    /// Number of events written.
    pub events: usize,
}

impl DumpMeta {
    /// The header of a dump of `sink` as it stands: ring count and drop
    /// counters read now, no `rank_errors`.
    pub fn of(sink: &TraceSink, label: &str, seed: Option<u64>, config: &ConfigRecord) -> Self {
        DumpMeta {
            label: label.to_string(),
            ranks: sink.n_ranks(),
            seed,
            dropped: sink.dropped(),
            dropped_by_ring: sink.dropped_by_ring(),
            config: config.clone(),
            rank_errors: Vec::new(),
        }
    }
}

/// Merge every ring of `sink` and write `<dir>/<label>.jsonl` plus
/// `<dir>/<label>.chrome.json` under `meta` (its `label` names the
/// files). Creates `dir` if needed. When `metrics` is given, the final
/// snapshot is written next to the dump as `<label>.metrics.json`
/// (single-snapshot `mana2-metrics/1` series carrying the same `config`).
pub fn flight_record(
    sink: &TraceSink,
    dir: &Path,
    meta: &DumpMeta,
    metrics: Option<&crate::metrics::MetricsSnapshot>,
) -> io::Result<FlightDump> {
    std::fs::create_dir_all(dir)?;
    let events = sink.merged();
    let label = &meta.label;
    let jsonl = dir.join(format!("{label}.jsonl"));
    let chrome = dir.join(format!("{label}.chrome.json"));
    std::fs::write(&jsonl, events_to_jsonl(meta, &events))?;
    std::fs::write(&chrome, chrome_trace(meta, &events))?;
    let metrics_path = match metrics {
        Some(snap) => {
            let p = dir.join(format!("{label}.metrics.json"));
            let smeta = crate::metrics::SeriesMeta {
                label: label.clone(),
                ranks: meta.ranks,
                seed: meta.seed,
                config: meta.config.clone(),
            };
            crate::metrics::write_snapshot_file(&p, &smeta, snap)?;
            Some(p)
        }
        None => None,
    };
    Ok(FlightDump {
        jsonl,
        chrome,
        metrics: metrics_path,
        events: events.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{FaultKind, InjectedFault, Phase, NO_ROUND};

    /// One event of every kind — the round-trip must be exact.
    fn all_kinds() -> Vec<TraceEvent> {
        let kinds = vec![
            EventKind::Begin(Phase::Intent),
            EventKind::End(Phase::Intent),
            EventKind::Begin(Phase::Drain { sweep: 3 }),
            EventKind::End(Phase::Drain { sweep: 3 }),
            EventKind::Begin(Phase::TpcBarrier),
            EventKind::Begin(Phase::EmuCollective),
            EventKind::Begin(Phase::ImageWrite),
            EventKind::Begin(Phase::Commit),
            EventKind::Begin(Phase::AbortRound),
            EventKind::Begin(Phase::RestartValidate),
            EventKind::Begin(Phase::RestoreComms),
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
            EventKind::StoreFault {
                fault: InjectedFault::Torn,
            },
            EventKind::StoreFault {
                fault: InjectedFault::WriteError,
            },
            EventKind::StoreFault {
                fault: InjectedFault::BitFlip,
            },
            EventKind::NetSend {
                dst: 3,
                bytes: 64,
                user: true,
            },
            EventKind::NetMatch { src: 1, bytes: 64 },
            EventKind::NetHold {
                src: 2,
                reorder: true,
            },
            EventKind::DrainCapture { src: 0, bytes: 17 },
            EventKind::FaultFired {
                fault: FaultKind::ReadyStall,
            },
            EventKind::FaultFired {
                fault: FaultKind::CoordDelay,
            },
            EventKind::FaultFired {
                fault: FaultKind::Trigger,
            },
        ];
        kinds
            .into_iter()
            .enumerate()
            .map(|(i, kind)| TraceEvent {
                ts_ns: i as u64 * 10,
                actor: if i % 3 == 0 {
                    COORD_ACTOR
                } else {
                    (i % 3) as i32 - 1
                },
                seq: i as u64,
                round: if i % 2 == 0 { 0 } else { NO_ROUND },
                kind,
            })
            .collect()
    }

    #[test]
    fn jsonl_round_trip_is_exact() {
        let events = all_kinds();
        let meta = DumpMeta {
            label: "round\"trip".to_string(),
            ranks: 3,
            seed: Some(0xC0FF_EE00),
            dropped: 5,
            dropped_by_ring: vec![2, 3, 0, 0],
            config: ConfigRecord::new([("engine", "coop:2:7"), ("drain", "topo\"sort")]),
            rank_errors: vec![
                (0, "world \"poisoned\"".to_string()),
                (3, "gone".to_string()),
            ],
        };
        let text = events_to_jsonl(&meta, &events);
        let (meta2, events2) = parse_jsonl(&text).unwrap();
        assert_eq!(meta, meta2);
        assert_eq!(events, events2);
    }

    #[test]
    fn missing_seed_round_trips_as_none() {
        let meta = DumpMeta {
            label: "x".into(),
            ranks: 1,
            seed: None,
            dropped: 0,
            dropped_by_ring: Vec::new(),
            config: ConfigRecord::default(),
            rank_errors: Vec::new(),
        };
        let text = events_to_jsonl(&meta, &[]);
        let (meta2, events2) = parse_jsonl(&text).unwrap();
        assert_eq!(meta2.seed, None);
        assert!(events2.is_empty());
    }

    #[test]
    fn malformed_config_record_is_rejected() {
        let head = "{\"schema\":\"mana2-trace/1\",\"ranks\":1,\"config\":";
        let err = parse_jsonl(&format!("{head}{{\"drain\":3}}}}\n")).unwrap_err();
        assert!(err.contains("not a string"), "{err}");
        let err = parse_jsonl(&format!("{head}[]}}\n")).unwrap_err();
        assert!(err.contains("not an object"), "{err}");
    }

    #[test]
    fn wrong_schema_is_rejected() {
        let err = parse_jsonl("{\"schema\":\"mana2-trace/999\"}\n").unwrap_err();
        assert!(err.contains("unsupported schema"), "{err}");
    }

    #[test]
    fn chrome_export_is_valid_json() {
        let events = all_kinds();
        let meta = DumpMeta {
            label: "chrome".into(),
            ranks: 3,
            seed: None,
            dropped: 0,
            dropped_by_ring: Vec::new(),
            config: ConfigRecord::default(),
            rank_errors: Vec::new(),
        };
        let doc = chrome_trace(&meta, &events);
        let v = json::parse(&doc).expect("chrome export must parse as JSON");
        let Some(Json::Arr(items)) = v.get("traceEvents") else {
            panic!("traceEvents missing");
        };
        // metadata rows (one per actor) + one row per event
        assert!(items.len() > events.len());
    }

    #[test]
    fn flight_record_writes_both_files() {
        let sink = TraceSink::deterministic(2, 16);
        sink.record(0, 0, EventKind::Begin(Phase::ImageWrite));
        sink.record(0, 0, EventKind::End(Phase::ImageWrite));
        let dir = std::env::temp_dir().join(format!("obs_fr_test_{}", std::process::id()));
        let config = ConfigRecord::new([("drain", "alltoall")]);
        let meta = DumpMeta::of(&sink, "t1", Some(9), &config);
        let dump = flight_record(&sink, &dir, &meta, None).unwrap();
        assert_eq!(dump.events, 2);
        let text = std::fs::read_to_string(&dump.jsonl).unwrap();
        let (meta, events) = parse_jsonl(&text).unwrap();
        assert_eq!(meta.seed, Some(9));
        assert_eq!(meta.config, config);
        assert_eq!(events.len(), 2);
        assert!(dump.chrome.exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unique_labels_differ() {
        assert_ne!(unique_label("a"), unique_label("a"));
    }
}
