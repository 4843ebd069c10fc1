//! The metric tables, the result of one run, and how both are printed.
//!
//! `END_TO_END` and `PER_LAYER` are the single source of metric names,
//! units and directions: `BENCHMARK.json` is generated from them
//! (`manifest` subcommand) and a test checks the committed file still
//! agrees.

use crate::stats::Summary;
use crate::workloads;
use obs::json::{self, Json};
use std::fmt::Write as _;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may get
    /// worse before a change counts as a regression; 0 for layer metrics,
    /// which have no bound.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, bound: f64) -> Def {
    Def {
        name,
        unit,
        better: Better::Lower,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Def {
    Def {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

/// Seconds one run measures for; `run_seconds` of `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 24;

/// Bounds are about three times the widest run-to-run spread seen on the
/// sandbox this was written on (`REPEATABILITY.md`), capped at the 0.25
/// the contract allows. `ckpt_stall_ms_p90` is not here: see the README.
pub const END_TO_END: &[Def] = &[
    e2e("setup_s", "s", 0.25),
    e2e("app_overhead_ratio", "ratio", 0.15),
    e2e("ckpt_stall_ms_p50", "ms", 0.25),
    e2e("restart_ms_p50", "ms", 0.25),
    e2e("write_amp", "ratio", 0.2),
    e2e("space_amp", "ratio", 0.1),
];

use Better::{Higher, Lower};

pub const PER_LAYER: &[Def] = &[
    layer("splitproc.codec.crc32_ms", "ms", Lower),
    layer("splitproc.codec.encode_ms", "ms", Lower),
    layer("splitproc.codec.decode_ms", "ms", Lower),
    layer("splitproc.image.to_bytes_ms", "ms", Lower),
    layer("splitproc.image.from_bytes_ms", "ms", Lower),
    layer("splitproc.chunk.split_ms", "ms", Lower),
    layer("splitproc.chunk.sha256_ms", "ms", Lower),
    layer("splitproc.chunk.chunks_per_image", "count", Lower),
    layer("splitproc.store.write_first_ms", "ms", Lower),
    layer("splitproc.store.write_next_ms", "ms", Lower),
    layer("splitproc.store.fsyncs_per_round", "count", Lower),
    layer("splitproc.store.physical_bytes_per_round", "bytes", Lower),
    layer("splitproc.store.chunks_written_per_round", "count", Lower),
    layer("splitproc.store.chunks_deduped_per_round", "count", Higher),
    layer("splitproc.store.dedup_hit_ratio", "ratio", Higher),
    layer("splitproc.store.write_next_disk_ms", "ms", Lower),
    layer("splitproc.store.commit_ms", "ms", Lower),
    layer("splitproc.store.gc_generations_ms", "ms", Lower),
    layer("splitproc.store.gc_chunks_ms", "ms", Lower),
    layer("splitproc.store.select_ms", "ms", Lower),
    layer("splitproc.store.load_image_ms", "ms", Lower),
    layer("splitproc.journal.open_ms", "ms", Lower),
    layer("splitproc.journal.append_us", "us", Lower),
    layer("core.coordinator.topo_order_ms", "ms", Lower),
    layer("core.coordinator.topo_order_1024_ms", "ms", Lower),
    layer("core.drain.alltoall.stall_ms", "ms", Lower),
    layer("core.drain.coordinator.stall_ms", "ms", Lower),
    layer("core.drain.toposort.stall_ms", "ms", Lower),
    layer("core.runtime.stall_ms_p90", "ms", Lower),
    layer("mpisim.world.spawn_ms", "ms", Lower),
    layer("mpisim.p2p.call_us", "us", Lower),
    layer("mpisim.coll.call_us", "us", Lower),
    layer("core.wrapper.p2p_call_us", "us", Lower),
    layer("core.wrapper.coll_call_us", "us", Lower),
    layer("core.coordinator.quiesce_ms", "ms", Lower),
    layer("core.coordinator.write_ms", "ms", Lower),
    layer("core.coordinator.msgs_per_round", "count", Lower),
    layer("core.wrapper.lh_jumps_per_call", "ratio", Lower),
    layer("core.wrapper.fs_switch_ns_per_call", "ns", Lower),
    layer("core.drain.sweeps_per_round", "count", Lower),
    layer("core.phase.intent_ms", "ms", Lower),
    layer("core.phase.drain_exchange_ms", "ms", Lower),
    layer("core.phase.drain_ms", "ms", Lower),
    layer("core.phase.image_write_ms", "ms", Lower),
    layer("core.phase.commit_ms", "ms", Lower),
    layer("core.phase.restart_validate_ms", "ms", Lower),
    layer("core.phase.journal_replay_ms", "ms", Lower),
    layer("core.phase.restore_comms_ms", "ms", Lower),
    layer("core.phase.unattributed_ms", "ms", Lower),
    layer("obs.trace.overhead_pct", "%", Lower),
    layer("obs.trace.events_per_round", "count", Lower),
    layer("obs.trace.dropped", "count", Lower),
];

pub fn def_of(name: &str) -> Option<&'static Def> {
    END_TO_END.iter().chain(PER_LAYER).find(|d| d.name == name)
}

/// One measured value, with the samples behind it when it is a timing.
#[derive(Debug, Clone, PartialEq)]
pub struct Value {
    pub name: &'static str,
    pub value: f64,
    pub samples: Option<Summary>,
}

/// Everything one run of one workload produced.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    pub workload: &'static str,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub values: Vec<Value>,
    pub store_fs: String,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// Human-readable table: every metric by name with its unit.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "== {} (store on {}) ==", self.workload, self.store_fs);
        for v in &self.values {
            let unit = def_of(v.name).map_or("", |d| d.unit);
            let _ = write!(out, "{:<44} {:>16.6} {:<6}", v.name, v.value, unit);
            if let Some(s) = v.samples {
                let _ = write!(
                    out,
                    " n={} q1={:.4} p50={:.4} q3={:.4} p90={:.4}",
                    s.count, s.q1, s.p50, s.q3, s.p90
                );
            }
            out.push('\n');
        }
        let ratio = self.failed as f64 / self.attempted.max(1) as f64;
        let _ = writeln!(
            out,
            "{:<44} {:>16.6} {:<6} {} failed of {} attempted",
            "op_failure_ratio", ratio, "ratio", self.failed, self.attempted
        );
        for f in &self.failures {
            let _ = writeln!(out, "FAILURE: {f}");
        }
        out
    }

    /// The result line of the contract: exactly `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .values
            .iter()
            .map(|v| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    v.name,
                    json_number(v.value),
                    def_of(v.name).map_or("", |d| d.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A finite f64 with all its digits (Rust prints the shortest string that
/// round-trips); integers keep a trailing `.0` so they stay numbers of
/// one kind.
fn json_number(v: f64) -> String {
    assert!(v.is_finite(), "metric values are finite by construction");
    format!("{v:?}")
}

/// Metric values of a result line, by name.
pub fn parse_result_line(line: &str) -> Result<(bool, Vec<(String, f64)>), String> {
    let doc = json::parse(line)?;
    let correct = doc
        .get("correct")
        .and_then(Json::as_bool)
        .ok_or("result line has no `correct`")?;
    let Some(Json::Obj(metrics)) = doc.get("metrics") else {
        return Err("result line has no `metrics` object".into());
    };
    let values = metrics
        .iter()
        .map(|(name, m)| {
            let v = match m.get("value") {
                Some(Json::Float(f)) => Ok(*f),
                Some(Json::UInt(u)) => Ok(*u as f64),
                Some(Json::Int(i)) => Ok(*i as f64),
                _ => Err(format!("metric {name} has no numeric value")),
            }?;
            Ok((name.clone(), v))
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok((correct, values))
}

/// `BENCHMARK.json`, generated from the tables above.
pub fn manifest_json() -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\", \"run\"],\n",
    );
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    out.push_str("  \"workloads\": [\n");
    let specs = workloads::all();
    for (i, s) in specs.iter().enumerate() {
        let sep = if i + 1 < specs.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{sep}",
            s.name,
            json::escape(s.why)
        );
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, d) in END_TO_END.iter().enumerate() {
        let sep = if i + 1 < END_TO_END.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{sep}",
            d.name,
            d.unit,
            d.better.name(),
            d.bound
        );
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, d) in PER_LAYER.iter().enumerate() {
        let sep = if i + 1 < PER_LAYER.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{sep}",
            d.name,
            d.unit,
            d.better.name()
        );
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(n: &str) -> bool {
        !n.is_empty()
            && n.len() <= 64
            && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn valid_unit(u: &str) -> bool {
        !u.is_empty()
            && u.len() <= 16
            && u.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn tables_fit_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(d.name), "bad name {}", d.name);
            assert!(valid_unit(d.unit), "bad unit {} of {}", d.unit, d.name);
            assert!(seen.insert(d.name), "duplicate name {}", d.name);
        }
        for s in workloads::all() {
            assert!(valid_name(s.name));
            assert!(seen.insert(s.name), "workload name {} reused", s.name);
            assert!(s.why.len() <= 200 && !s.why.contains('\n'));
        }
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((2..=8).contains(&workloads::all().len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        let setup = END_TO_END.iter().find(|d| d.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        for d in END_TO_END {
            assert!(d.bound > 0.0 && d.bound <= 0.25, "{} bound", d.name);
            assert!(d.bound <= setup.bound, "setup_s has the largest bound");
        }
        assert!(manifest_json().len() <= 64 * 1024);
    }

    /// The committed `BENCHMARK.json` is what the tables generate.
    #[test]
    fn committed_manifest_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let committed = json::parse(&text).expect("BENCHMARK.json parses");
        let generated = json::parse(&manifest_json()).expect("generated manifest parses");
        assert_eq!(committed, generated);
        let Json::Obj(fields) = &committed else {
            panic!("not an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
    }

    #[test]
    fn result_line_round_trips_and_has_exactly_the_contract_keys() {
        let report = Report {
            workload: "wide_small",
            attempted: 12,
            failed: 0,
            failures: Vec::new(),
            values: vec![
                Value {
                    name: "ckpt_stall_ms_p50",
                    value: 41.08373,
                    samples: None,
                },
                Value {
                    name: "write_amp",
                    value: 1.0,
                    samples: None,
                },
            ],
            store_fs: "ext4".into(),
        };
        let line = report.result_line();
        assert!(!line.contains('\n'));
        let doc = json::parse(&line).unwrap();
        let Json::Obj(fields) = &doc else {
            panic!("not an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("attempted").and_then(Json::as_u64), Some(12));
        let (correct, values) = parse_result_line(&line).unwrap();
        assert!(correct);
        assert_eq!(
            values,
            vec![
                ("ckpt_stall_ms_p50".to_string(), 41.08373),
                ("write_amp".to_string(), 1.0)
            ]
        );
        let unit = doc
            .get("metrics")
            .and_then(|m| m.get("write_amp"))
            .and_then(|m| m.get("unit"))
            .and_then(Json::as_str);
        assert_eq!(unit, Some("ratio"));
    }

    #[test]
    fn render_names_every_value_with_its_unit() {
        let report = Report {
            workload: "narrow_flat",
            attempted: 3,
            failed: 1,
            failures: vec!["restart 2: result mismatch on rank 5".into()],
            values: vec![Value {
                name: "restart_ms_p50",
                value: 280.5,
                samples: Summary::of(&[270.0, 280.5, 300.0]),
            }],
            store_fs: "tmpfs".into(),
        };
        let text = report.render();
        assert!(text.contains("restart_ms_p50"));
        assert!(text.contains(" ms "));
        assert!(text.contains("n=3"));
        assert!(text.contains("op_failure_ratio"));
        assert!(text.contains("FAILURE: restart 2"));
        assert!(!report.correct());
    }
}
