//! `BENCH_history.json` is the committed performance history: one session
//! per performance PR, each pairing parent and change runs of
//! `BENCHMARK.json`'s command on one host. This test reads it and checks
//! that it says only what it can:
//!
//! - every session names its PR, parent, host, command and claim, and
//!   the claim is one of its cells;
//! - every workload and metric it names is one `BENCHMARK.json` declares
//!   (read only);
//! - a cell's change-lower count fits its pairs, and the parent's median
//!   lies inside its quartiles where they are given;
//! - a held-out seed lists every pair, so its change-lower count is
//!   recounted here;
//! - every `[perf_opt]` entry of `CHANGES.md` from `COMPLETE_FROM` on has
//!   a session.
//!
//! A failure names the session and the field.

use mana2::mana_core::obs::json::{self, Json};
use std::collections::BTreeSet;
use std::path::Path;

/// The entry number of `CHANGES.md` from which the history is complete:
/// every `[perf_opt]` entry from it on has a session.
const COMPLETE_FROM: u64 = 36;

fn read_json(name: &str) -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(name);
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{name}: {e}"));
    json::parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"))
}

fn arr<'a>(v: &'a Json, key: &str, at: &str) -> &'a [Json] {
    match v.get(key) {
        Some(Json::Arr(items)) => items,
        other => panic!("{at}: `{key}` is not an array: {other:?}"),
    }
}

fn as_f64(v: &Json) -> Option<f64> {
    match v {
        Json::Float(f) => Some(*f),
        n => n.as_u64().map(|u| u as f64),
    }
}

fn num(v: &Json, key: &str, at: &str) -> f64 {
    let n = v.get(key).and_then(as_f64);
    n.unwrap_or_else(|| panic!("{at}: `{key}` is not a number"))
}

fn count(v: &Json, key: &str, at: &str) -> u64 {
    v.get(key)
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("{at}: `{key}` is not a count"))
}

fn text<'a>(v: &'a Json, key: &str, at: &str) -> &'a str {
    v.get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("{at}: `{key}` is not a string"))
}

/// The `name`s of one of `BENCHMARK.json`'s lists.
fn names(bench: &Json, list: &str) -> BTreeSet<String> {
    let items = arr(bench, list, "BENCHMARK.json");
    items
        .iter()
        .map(|i| text(i, "name", "BENCHMARK.json").to_string())
        .collect()
}

/// The workload and metric a cell, claim or held-out seed names, both
/// declared by `BENCHMARK.json`.
fn check_names(v: &Json, at: &str, workloads: &BTreeSet<String>, metrics: &BTreeSet<String>) {
    let workload = text(v, "workload", at);
    assert!(
        workloads.contains(workload),
        "{at}: no workload {workload:?}"
    );
    let metric = text(v, "metric", at);
    assert!(
        metrics.contains(metric),
        "{at}: no end-to-end metric {metric:?}"
    );
}

#[test]
fn bench_history_names_real_workloads_and_counts_its_pairs() {
    let bench = read_json("BENCHMARK.json");
    let (workloads, metrics) = (names(&bench, "workloads"), names(&bench, "end_to_end"));
    let history = read_json("BENCH_history.json");
    text(&history, "about", "BENCH_history.json");
    let sessions = arr(&history, "sessions", "BENCH_history.json");
    assert!(!sessions.is_empty(), "no session");
    let mut prs = Vec::new();
    for s in sessions {
        let pr = count(s, "pr", "a session");
        let at = format!("PR {pr}");
        prs.push(pr);
        text(s, "title", &at);
        text(s, "parent", &at);
        assert!(
            matches!(s.get("commit"), Some(Json::Str(_) | Json::Null)),
            "{at}: `commit` is neither a string nor null"
        );
        let host = s.get("host").unwrap_or_else(|| panic!("{at}: no host"));
        assert!(count(host, "vcpus", &at) > 0, "{at}: no vCPUs");
        text(host, "store", &at);
        text(s, "command", &at);
        let claim = s.get("claim").unwrap_or_else(|| panic!("{at}: no claim"));
        check_names(claim, &at, &workloads, &metrics);
        let cells = arr(s, "cells", &at);
        let same = |c: &Json, k: &str| c.get(k) == claim.get(k);
        assert!(
            cells
                .iter()
                .any(|c| same(c, "workload") && same(c, "metric")),
            "{at}: the claim is no cell"
        );
        for c in cells {
            let at = format!("{at} {:?} {:?}", c.get("workload"), c.get("metric"));
            check_names(c, &at, &workloads, &metrics);
            let median = num(c, "parent_median", &at);
            num(c, "change_median", &at);
            let pairs = count(c, "pairs", &at);
            assert!(pairs > 0, "{at}: no pairs");
            assert!(
                count(c, "change_lower", &at) <= pairs,
                "{at}: more lower than pairs"
            );
            if c.get("parent_q1").is_some() {
                let (q1, q3) = (num(c, "parent_q1", &at), num(c, "parent_q3", &at));
                assert!(q1 <= median && median <= q3, "{at}: median outside q1–q3");
            }
        }
        let held_out = s
            .get("held_out")
            .map_or(&[][..], |_| arr(s, "held_out", &at));
        for h in held_out {
            let at = format!("{at} held-out seed {}", count(h, "seed", &at));
            check_names(h, &at, &workloads, &metrics);
            let side = |k| -> Vec<f64> {
                let runs = arr(h, k, &at).iter().map(as_f64);
                runs.map(|r| r.unwrap_or_else(|| panic!("{at}: a `{k}` run is no number")))
                    .collect()
            };
            let (parent, change) = (side("parent"), side("change"));
            assert!(
                !parent.is_empty() && parent.len() == change.len(),
                "{at}: unpaired runs"
            );
            let lower = parent.iter().zip(&change).filter(|(p, c)| c < p).count();
            assert_eq!(
                count(h, "change_lower", &at),
                lower as u64,
                "{at}: change_lower"
            );
        }
    }
    assert!(
        prs.windows(2).all(|w| w[0] < w[1]),
        "sessions out of PR order: {prs:?}"
    );
    let changes = std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join("CHANGES.md"))
        .expect("CHANGES.md");
    for line in changes.lines() {
        let Some((head, _)) = line.split_once(" [perf_opt]") else {
            continue;
        };
        let Some(pr) = head
            .rsplit("PR ")
            .next()
            .and_then(|n| n.parse::<u64>().ok())
        else {
            continue;
        };
        assert!(
            pr < COMPLETE_FROM || prs.contains(&pr),
            "PR {pr} is a perf PR with no session"
        );
    }
}
