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
}

impl std::fmt::Display for ConfigRecord {
    /// `key=value` pairs, space-separated.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let pairs = self.0.iter().map(|(k, v)| format!("{k}={v}"));
        f.write_str(&pairs.collect::<Vec<_>>().join(" "))
    }
}

/// The header line every JSONL artifact starts with — a flight dump
/// (`mana2-trace/1`) and a metrics series (`mana2-metrics/1`) alike —
/// before one JSON record per line.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct JsonlHeader {
    /// Free-form label (chaos seed tag, bench name, …).
    pub label: String,
    /// Number of ranks the run had.
    pub ranks: usize,
    /// Fault-plan seed of the run, when one was armed.
    pub seed: Option<u64>,
    /// The configuration the run resolved to. Empty in artifacts written
    /// before this field existed.
    pub config: ConfigRecord,
}

impl JsonlHeader {
    /// The header line of a `schema` artifact, without its newline: the
    /// four shared fields, with `mid` and `tail` — the schema's own
    /// pre-rendered `,"key":value` fields — before and after `config`
    /// (which is left out when empty).
    pub(crate) fn line(&self, schema: &str, mid: &str, tail: &str) -> String {
        let seed = self.seed.map_or("null".to_string(), |s| s.to_string());
        let mut out = format!(
            "{{\"schema\":\"{schema}\",\"label\":\"{}\",\"ranks\":{},\"seed\":{seed}{mid}",
            escape(&self.label),
            self.ranks
        );
        if !self.config.0.is_empty() {
            let field = |(k, v): &(String, String)| format!("\"{}\":\"{}\"", escape(k), escape(v));
            let fields: Vec<String> = self.config.0.iter().map(field).collect();
            let _ = write!(out, ",\"config\":{{{}}}", fields.join(","));
        }
        out.push_str(tail);
        out.push('}');
        out
    }
}

/// A read artifact: its header, the header's JSON object (for the
/// schema's own fields), and every record line as `(line number, value)`.
pub(crate) type Artifact = (JsonlHeader, Json, Vec<(usize, Json)>);

/// Read a `schema` artifact. An absent label, rank count, seed or config
/// reads as empty, 0, `None` and empty; a present `config` must be an
/// object of strings; blank lines are skipped.
pub(crate) fn read_jsonl(text: &str, schema: &str) -> Result<Artifact, String> {
    let mut lines = text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty());
    let (_, header) = lines.next().ok_or(format!("empty {schema} file"))?;
    let hv = json::parse(header).map_err(|e| format!("header: {e}"))?;
    let found = hv
        .get("schema")
        .and_then(Json::as_str)
        .ok_or("header missing \"schema\"".to_string())?;
    if found != schema {
        return Err(format!("unsupported schema {found:?} (want {schema:?})"));
    }
    let config = match hv.get("config") {
        None => Vec::new(),
        Some(Json::Obj(fields)) => fields
            .iter()
            .map(|(k, v)| match v.as_str() {
                Some(s) => Ok((k.clone(), s.to_string())),
                None => Err(format!("header \"config\".{k:?} is not a string")),
            })
            .collect::<Result<_, _>>()?,
        Some(_) => return Err("header \"config\" is not an object".to_string()),
    };
    let head = JsonlHeader {
        label: hv
            .get("label")
            .and_then(Json::as_str)
            .unwrap_or("")
            .to_string(),
        ranks: hv.get("ranks").and_then(Json::as_u64).unwrap_or(0) as usize,
        seed: hv.get("seed").and_then(Json::as_u64),
        config: ConfigRecord(config),
    };
    let records = lines
        .map(|(i, line)| match json::parse(line) {
            Ok(v) => Ok((i + 1, v)),
            Err(e) => Err(format!("line {}: {e}", i + 1)),
        })
        .collect::<Result<_, _>>()?;
    Ok((head, hv, records))
}

/// Dump header metadata: the shared header and the dump's own fields.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DumpMeta {
    /// Label, ranks, seed and config.
    pub head: JsonlHeader,
    /// Events overwritten (lost) across all rings before the dump.
    pub dropped: u64,
    /// Events overwritten per ring (ranks `0..n`, then the coordinator).
    /// Empty in dumps written before this field existed.
    pub dropped_by_ring: Vec<u64>,
    /// `(rank, error)` for every rank that failed *besides* the one the
    /// run's error names: the collateral of a poisoned world. Empty for
    /// dumps of runs that did not fail that way.
    pub rank_errors: Vec<(usize, String)>,
}

impl std::ops::Deref for DumpMeta {
    type Target = JsonlHeader;

    fn deref(&self) -> &JsonlHeader {
        &self.head
    }
}

/// Serialize `events` (pre-merged, any order preserved) as a JSONL dump.
pub fn events_to_jsonl(meta: &DumpMeta, events: &[TraceEvent]) -> String {
    let mut mid = format!(",\"dropped\":{}", meta.dropped);
    if !meta.dropped_by_ring.is_empty() {
        let rings: Vec<String> = meta.dropped_by_ring.iter().map(u64::to_string).collect();
        let _ = write!(mid, ",\"dropped_by_ring\":[{}]", rings.join(","));
    }
    let one = |(r, e): &(usize, String)| format!("{{\"rank\":{r},\"error\":\"{}\"}}", escape(e));
    let errors: Vec<String> = meta.rank_errors.iter().map(one).collect();
    let tail = if errors.is_empty() {
        String::new()
    } else {
        format!(",\"rank_errors\":[{}]", errors.join(","))
    };
    let mut out = meta.head.line(SCHEMA, &mid, &tail);
    out.reserve(1 + events.len() * 96);
    out.push('\n');
    for ev in events {
        out.push_str(&ev.to_json_line());
        out.push('\n');
    }
    out
}

/// Parse a JSONL dump back into its header and events.
pub fn parse_jsonl(text: &str) -> Result<(DumpMeta, Vec<TraceEvent>), String> {
    let (head, hv, records) = read_jsonl(text, SCHEMA)?;
    let meta = DumpMeta {
        head,
        dropped: hv.get("dropped").and_then(Json::as_u64).unwrap_or(0),
        dropped_by_ring: match hv.get("dropped_by_ring") {
            Some(Json::Arr(items)) => items.iter().filter_map(Json::as_u64).collect(),
            _ => Vec::new(),
        },
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
    let events = records
        .iter()
        .map(|(n, v)| TraceEvent::from_json(v).map_err(|e| format!("line {n}: {e}")))
        .collect::<Result<_, _>>()?;
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
            head: JsonlHeader {
                label: label.to_string(),
                ranks: sink.n_ranks(),
                seed,
                config: config.clone(),
            },
            dropped: sink.dropped(),
            dropped_by_ring: sink.dropped_by_ring(),
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
            crate::metrics::write_snapshot_file(&p, &meta.head, snap)?;
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
            EventKind::Begin(Phase::Flush),
            EventKind::Begin(Phase::FlushWait),
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

    /// A dump header with nothing dropped and no collateral errors.
    fn plain(head: JsonlHeader) -> DumpMeta {
        DumpMeta {
            head,
            dropped: 0,
            dropped_by_ring: Vec::new(),
            rank_errors: Vec::new(),
        }
    }

    #[test]
    fn header_round_trips_in_both_schemas() {
        use crate::metrics::{parse_series, series_to_jsonl};
        let config = ConfigRecord::new([("engine", "coop:2:7"), ("dr\\ain", "topo\"sort")]);
        for (seed, config) in [(None, ConfigRecord::default()), (Some(u64::MAX), config)] {
            let head = JsonlHeader {
                label: "tab\there \"quoted\" \\ \u{1}".into(),
                ranks: 5,
                seed,
                config,
            };
            let dump = events_to_jsonl(&plain(head.clone()), &[]);
            assert_eq!(parse_jsonl(&dump).unwrap().0.head, head, "{dump}");
            let series = series_to_jsonl(&head, &[]);
            assert_eq!(parse_series(&series).unwrap().0, head, "{series}");
            // Each reader refuses the other's schema.
            let err = parse_series(&dump).unwrap_err();
            assert!(
                err.contains("unsupported schema \"mana2-trace/1\""),
                "{err}"
            );
            let err = parse_jsonl(&series).unwrap_err();
            assert!(
                err.contains("unsupported schema \"mana2-metrics/1\""),
                "{err}"
            );
        }
    }

    #[test]
    fn jsonl_round_trip_is_exact() {
        let events = all_kinds();
        let meta = DumpMeta {
            head: JsonlHeader {
                label: "round\"trip".to_string(),
                ranks: 3,
                seed: Some(0xC0FF_EE00),
                config: ConfigRecord::new([("engine", "coop:2:7"), ("drain", "topo\"sort")]),
            },
            dropped: 5,
            dropped_by_ring: vec![2, 3, 0, 0],
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
        let meta = plain(JsonlHeader {
            label: "x".into(),
            ranks: 1,
            ..JsonlHeader::default()
        });
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
        let meta = plain(JsonlHeader {
            label: "chrome".into(),
            ranks: 3,
            ..JsonlHeader::default()
        });
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
