//! Trace analysis: the tables behind `mana2-trace` and the `--check`
//! schema validator.
//!
//! Lives in the library (not the binary) so the golden-output test can
//! render a committed fixture dump and compare byte-for-byte.

use crate::dump::DumpMeta;
use crate::event::{EventKind, Phase, TraceEvent, COORD_ACTOR};
use std::collections::BTreeMap;
use std::fmt;
use std::fmt::Write as _;

fn us(ns: u64) -> f64 {
    ns as f64 / 1000.0
}

fn actor_name(actor: i32) -> String {
    if actor == COORD_ACTOR {
        "coord".to_string()
    } else {
        format!("rank {actor}")
    }
}

/// A completed span reconstructed from a Begin/End pair.
struct Span {
    actor: i32,
    round: i64,
    phase: &'static str,
    dur_ns: u64,
}

/// Match Begin/End pairs per (actor, phase name). Unmatched edges are
/// counted, not fatal — a wrapped ring legitimately loses Begins.
fn collect_spans(events: &[TraceEvent]) -> (Vec<Span>, usize) {
    let mut stacks: BTreeMap<(i32, &'static str), Vec<(u64, i64)>> = BTreeMap::new();
    let mut spans = Vec::new();
    let mut unmatched = 0usize;
    for ev in events {
        match ev.kind {
            EventKind::Begin(p) => {
                stacks
                    .entry((ev.actor, p.name()))
                    .or_default()
                    .push((ev.ts_ns, ev.round));
            }
            EventKind::End(p) => match stacks.entry((ev.actor, p.name())).or_default().pop() {
                Some((t0, round)) => spans.push(Span {
                    actor: ev.actor,
                    round,
                    phase: p.name(),
                    dur_ns: ev.ts_ns.saturating_sub(t0),
                }),
                None => unmatched += 1,
            },
            _ => {}
        }
    }
    unmatched += stacks.values().map(Vec::len).sum::<usize>();
    (spans, unmatched)
}

fn phase_table(spans: &[Span], out: &mut String) {
    // (round, phase) -> (count, total_ns, max_ns)
    let mut agg: BTreeMap<(i64, &'static str), (u64, u64, u64)> = BTreeMap::new();
    for s in spans {
        let e = agg.entry((s.round, s.phase)).or_insert((0, 0, 0));
        e.0 += 1;
        e.1 += s.dur_ns;
        e.2 = e.2.max(s.dur_ns);
    }
    if agg.is_empty() {
        out.push_str("  (no phase spans)\n");
        return;
    }
    let _ = writeln!(
        out,
        "  {:>5}  {:<16} {:>6} {:>12} {:>12} {:>12}",
        "round", "phase", "spans", "total us", "mean us", "max us"
    );
    let mut rounds: Vec<i64> = agg.keys().map(|(r, _)| *r).collect();
    rounds.dedup();
    for round in rounds {
        for (_, phase) in Phase::NAMES {
            if let Some((n, total, max)) = agg.get(&(round, phase)) {
                let _ = writeln!(
                    out,
                    "  {:>5}  {:<16} {:>6} {:>12.3} {:>12.3} {:>12.3}",
                    round,
                    phase,
                    n,
                    us(*total),
                    us(*total) / *n as f64,
                    us(*max)
                );
            }
        }
    }
}

fn drain_histogram(spans: &[Span], events: &[TraceEvent], out: &mut String) {
    // Sweeps per (round, actor): number of drain spans recorded.
    let mut cells: BTreeMap<(i64, i32), u64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.phase == "drain") {
        *cells.entry((s.round, s.actor)).or_insert(0) += 1;
    }
    let mut captures = 0u64;
    let mut cap_bytes = 0u64;
    for ev in events {
        if let EventKind::DrainCapture { bytes, .. } = ev.kind {
            captures += 1;
            cap_bytes += bytes;
        }
    }
    if cells.is_empty() {
        let _ = writeln!(
            out,
            "  (no drain sweeps; {captures} captured message(s), {cap_bytes} B)"
        );
        return;
    }
    // Histogram: sweep count -> how many (round, rank) cells had it.
    let mut hist: BTreeMap<u64, u64> = BTreeMap::new();
    for n in cells.values() {
        *hist.entry(*n).or_insert(0) += 1;
    }
    let _ = writeln!(out, "  {:>8}  {:>12}", "sweeps", "rank-rounds");
    for (sweeps, n) in &hist {
        let _ = writeln!(out, "  {sweeps:>8}  {n:>12}");
    }
    let _ = writeln!(
        out,
        "  captured in drain: {captures} message(s), {cap_bytes} B"
    );
}

fn barrier_skew(events: &[TraceEvent], out: &mut String) {
    // (gid, coll_seq) -> (min_ts, max_ts, arrivals)
    let mut groups: BTreeMap<(u64, u64), (u64, u64, u64)> = BTreeMap::new();
    for ev in events {
        if let EventKind::BarrierArrive { gid, coll_seq } = ev.kind {
            let e = groups.entry((gid, coll_seq)).or_insert((u64::MAX, 0, 0));
            e.0 = e.0.min(ev.ts_ns);
            e.1 = e.1.max(ev.ts_ns);
            e.2 += 1;
        }
    }
    if groups.is_empty() {
        out.push_str("  (no 2PC barriers)\n");
        return;
    }
    let mut skews: Vec<((u64, u64), u64, u64)> = groups
        .iter()
        .map(|(k, (lo, hi, n))| (*k, hi - lo, *n))
        .collect();
    let total: u64 = skews.iter().map(|(_, s, _)| *s).sum();
    let max = skews.iter().map(|(_, s, _)| *s).max().unwrap_or(0);
    let _ = writeln!(
        out,
        "  {} barrier(s); skew mean {:.3} us, max {:.3} us",
        skews.len(),
        us(total) / skews.len() as f64,
        us(max)
    );
    // Worst five, stable order: skew desc, then key asc.
    skews.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    let _ = writeln!(
        out,
        "  {:<18} {:>9} {:>9} {:>12}",
        "gid", "coll_seq", "arrivals", "skew us"
    );
    for ((gid, seq), skew, n) in skews.iter().take(5) {
        let _ = writeln!(out, "  {gid:#018x} {seq:>9} {n:>9} {:>12.3}", us(*skew));
    }
}

fn store_breakdown(events: &[TraceEvent], out: &mut String) {
    struct PerActor {
        writes: u64,
        bytes: u64,
        retries: u64,
        attempts: u64,
        write_ns: u64,
        fsync_ns: u64,
        rename_ns: u64,
        faults: [u64; 3],
    }
    let mut per: BTreeMap<i32, PerActor> = BTreeMap::new();
    // A flush records every rank's write on the coordinator's ring, each
    // behind a `FlushRank` naming the rank: those rows are the rank's.
    let mut landing: BTreeMap<i32, i32> = BTreeMap::new();
    for ev in events {
        match ev.kind {
            EventKind::FlushRank { rank } => {
                landing.insert(ev.actor, rank as i32);
            }
            EventKind::End(Phase::Flush) => {
                landing.remove(&ev.actor);
            }
            _ => {}
        }
        let writer = landing.get(&ev.actor).copied().unwrap_or(ev.actor);
        let e = per.entry(writer).or_insert(PerActor {
            writes: 0,
            bytes: 0,
            retries: 0,
            attempts: 0,
            write_ns: 0,
            fsync_ns: 0,
            rename_ns: 0,
            faults: [0; 3],
        });
        match ev.kind {
            EventKind::StoreWrite { bytes, retries, .. } => {
                e.writes += 1;
                e.bytes += bytes;
                e.retries += retries as u64;
            }
            EventKind::StoreAttempt {
                write_ns,
                fsync_ns,
                rename_ns,
                ..
            } => {
                e.attempts += 1;
                e.write_ns += write_ns;
                e.fsync_ns += fsync_ns;
                e.rename_ns += rename_ns;
            }
            EventKind::StoreFault { fault } => {
                e.faults[fault as usize] += 1;
            }
            _ => {}
        }
    }
    per.retain(|_, e| e.writes + e.attempts + e.faults.iter().sum::<u64>() > 0);
    if per.is_empty() {
        out.push_str("  (no store activity)\n");
        return;
    }
    let _ = writeln!(
        out,
        "  {:<8} {:>7} {:>12} {:>8} {:>9} {:>11} {:>11} {:>11} {:>7}",
        "actor",
        "writes",
        "bytes",
        "retries",
        "attempts",
        "write us",
        "fsync us",
        "rename us",
        "faults"
    );
    for (actor, e) in &per {
        let a = e.attempts.max(1) as f64;
        let _ = writeln!(
            out,
            "  {:<8} {:>7} {:>12} {:>8} {:>9} {:>11.3} {:>11.3} {:>11.3} {:>7}",
            actor_name(*actor),
            e.writes,
            e.bytes,
            e.retries,
            e.attempts,
            us(e.write_ns) / a,
            us(e.fsync_ns) / a,
            us(e.rename_ns) / a,
            e.faults.iter().sum::<u64>()
        );
    }
}

fn fault_summary(events: &[TraceEvent], out: &mut String) {
    let mut fired: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut holds = 0u64;
    for ev in events {
        match ev.kind {
            EventKind::FaultFired { fault } => *fired.entry(fault.name()).or_insert(0) += 1,
            EventKind::StoreFault { fault } => *fired.entry(fault.name()).or_insert(0) += 1,
            EventKind::NetHold { .. } => holds += 1,
            _ => {}
        }
    }
    if fired.is_empty() && holds == 0 {
        out.push_str("  (no fault-plan firings)\n");
        return;
    }
    for (name, n) in &fired {
        let _ = writeln!(out, "  {name:<16} {n:>8}");
    }
    if holds > 0 {
        let _ = writeln!(out, "  {:<16} {holds:>8}", "net_hold");
    }
}

fn restart_summary(events: &[TraceEvent], out: &mut String) {
    let mut skips: Vec<(u64, &'static str)> = Vec::new();
    // (epoch, step) -> (fresh appends, skipped-as-duplicate appends)
    let mut appends: BTreeMap<(u64, &'static str), (u64, u64)> = BTreeMap::new();
    for ev in events {
        match ev.kind {
            EventKind::RestartSkip { gen, code } => skips.push((gen, code.name())),
            EventKind::JournalAppend {
                epoch, step, fresh, ..
            } => {
                let e = appends.entry((epoch, step.name())).or_insert((0, 0));
                if fresh {
                    e.0 += 1;
                } else {
                    e.1 += 1;
                }
            }
            _ => {}
        }
    }
    if skips.is_empty() && appends.is_empty() {
        out.push_str("  (no restart activity)\n");
        return;
    }
    for (gen, code) in &skips {
        let _ = writeln!(out, "  skipped gen {gen:<5} reason {code}");
    }
    if !appends.is_empty() {
        let _ = writeln!(
            out,
            "  {:>5}  {:<18} {:>8} {:>10}",
            "epoch", "journal step", "appends", "replayed"
        );
        for ((epoch, step), (fresh, dup)) in &appends {
            let _ = writeln!(out, "  {epoch:>5}  {step:<18} {fresh:>8} {dup:>10}");
        }
    }
}

/// Render the full human-readable summary of a dump: per-round phase
/// durations, drain-sweep histogram, 2PC barrier skew, store breakdown,
/// and fault-plan firings.
pub fn render_summary(meta: &DumpMeta, events: &[TraceEvent]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "trace {:?}: {} event(s), {} rank(s), seed {}, {} overwritten",
        meta.label,
        events.len(),
        meta.ranks,
        meta.seed
            .map(|s| format!("{s:#x}"))
            .unwrap_or_else(|| "-".to_string()),
        meta.dropped
    );
    if !meta.config.0.is_empty() {
        let _ = writeln!(out, "config: {}", meta.config);
    }
    for (rank, error) in &meta.rank_errors {
        let _ = writeln!(out, "rank {rank} also failed: {error}");
    }
    if meta.dropped > 0 {
        let _ = writeln!(
            out,
            "WARNING: ring overflow — {} event(s) were overwritten before this dump; \
             tables below are computed from a truncated trace",
            meta.dropped
        );
        let by_ring: Vec<String> = meta
            .dropped_by_ring
            .iter()
            .enumerate()
            .filter(|(_, d)| **d > 0)
            .map(|(i, d)| {
                if i == meta.ranks {
                    format!("coordinator: {d}")
                } else {
                    format!("rank {i}: {d}")
                }
            })
            .collect();
        if !by_ring.is_empty() {
            let _ = writeln!(out, "  overwritten per ring: {}", by_ring.join(", "));
        }
    }
    let (spans, unmatched) = collect_spans(events);
    out.push_str("\nphase durations (per round, across actors)\n");
    phase_table(&spans, &mut out);
    if unmatched > 0 {
        let _ = writeln!(
            out,
            "  ({unmatched} unmatched span edge(s) — ring wrap or in-flight phases)"
        );
    }
    out.push_str("\ndrain-sweep histogram\n");
    drain_histogram(&spans, events, &mut out);
    out.push_str("\n2PC barrier skew (first-to-last arrival)\n");
    barrier_skew(events, &mut out);
    out.push_str("\nstore write/retry breakdown (mean per attempt)\n");
    store_breakdown(events, &mut out);
    out.push_str("\nfault-plan firings\n");
    fault_summary(events, &mut out);
    out.push_str("\nrestart journal & validation fallbacks\n");
    restart_summary(events, &mut out);
    out
}

/// Result of a successful [`check`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckReport {
    /// Events parsed.
    pub events: usize,
    /// Completed phase spans.
    pub spans: usize,
    /// Events lost to ring overwrites before the dump.
    pub dropped: u64,
}

impl fmt::Display for CheckReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} event(s), {} span(s), {} overwritten: OK",
            self.events, self.spans, self.dropped
        )
    }
}

/// Validate a JSONL dump against the schema: header present and
/// supported, every line parses, actor ids in range, sequence numbers
/// unique, span edges balanced (relaxed when the ring overwrote events).
pub fn check(text: &str) -> Result<CheckReport, String> {
    let (meta, events) = crate::dump::parse_jsonl(text)?;
    let mut seqs: Vec<u64> = Vec::with_capacity(events.len());
    for ev in &events {
        if ev.actor != COORD_ACTOR && (ev.actor < 0 || ev.actor as usize >= meta.ranks) {
            return Err(format!(
                "event seq {} has actor {} out of range for {} rank(s)",
                ev.seq, ev.actor, meta.ranks
            ));
        }
        seqs.push(ev.seq);
    }
    seqs.sort_unstable();
    let before = seqs.len();
    seqs.dedup();
    if seqs.len() != before {
        return Err("duplicate sequence numbers in dump".to_string());
    }
    let (spans, unmatched) = collect_spans(&events);
    if unmatched > 0 && meta.dropped == 0 {
        return Err(format!(
            "{unmatched} unmatched span edge(s) with no ring overwrites"
        ));
    }
    Ok(CheckReport {
        events: events.len(),
        spans: spans.len(),
        dropped: meta.dropped,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dump::events_to_jsonl;
    use crate::event::{EventKind, Phase};

    fn ev(actor: i32, seq: u64, ts: u64, round: i64, kind: EventKind) -> TraceEvent {
        TraceEvent {
            ts_ns: ts,
            actor,
            seq,
            round,
            kind,
        }
    }

    fn meta(ranks: usize, dropped: u64) -> DumpMeta {
        DumpMeta {
            head: crate::JsonlHeader {
                label: "t".into(),
                ranks,
                ..Default::default()
            },
            dropped,
            dropped_by_ring: Vec::new(),
            rank_errors: Vec::new(),
        }
    }

    #[test]
    fn flushed_writes_are_counted_under_the_rank_they_name() {
        let write = |bytes| EventKind::StoreWrite {
            bytes,
            retries: 0,
            crc: 0,
        };
        let c = COORD_ACTOR;
        let events = vec![
            ev(c, 0, 10, 0, EventKind::Begin(Phase::Flush)),
            ev(c, 1, 20, 0, EventKind::FlushRank { rank: 0 }),
            ev(c, 2, 30, 0, write(111)),
            ev(c, 3, 40, 0, EventKind::FlushRank { rank: 1 }),
            ev(c, 4, 50, 0, write(222)),
            ev(c, 5, 60, 0, EventKind::End(Phase::Flush)),
            ev(c, 6, 70, 1, write(333)),
        ];
        let mut out = String::new();
        store_breakdown(&events, &mut out);
        let row = |who: &str| {
            let line = out.lines().find(|l| l.trim_start().starts_with(who));
            line.unwrap_or_else(|| panic!("no {who} row: {out}"))
                .to_string()
        };
        assert!(row("rank 0").contains(" 111 "), "{out}");
        assert!(row("rank 1").contains(" 222 "), "{out}");
        assert!(row("coord").contains(" 333 "), "{out}");
    }

    #[test]
    fn check_accepts_balanced_spans() {
        let events = vec![
            ev(0, 0, 10, 0, EventKind::Begin(Phase::Intent)),
            ev(0, 1, 30, 0, EventKind::End(Phase::Intent)),
        ];
        let text = events_to_jsonl(&meta(1, 0), &events);
        let rep = check(&text).unwrap();
        assert_eq!(rep.events, 2);
        assert_eq!(rep.spans, 1);
    }

    #[test]
    fn check_rejects_unbalanced_without_drops() {
        let events = vec![ev(0, 0, 10, 0, EventKind::End(Phase::Intent))];
        let text = events_to_jsonl(&meta(1, 0), &events);
        assert!(check(&text).unwrap_err().contains("unmatched"));
    }

    #[test]
    fn check_tolerates_unbalanced_after_ring_wrap() {
        let events = vec![ev(0, 5, 10, 0, EventKind::End(Phase::Intent))];
        let text = events_to_jsonl(&meta(1, 3), &events);
        assert!(check(&text).is_ok());
    }

    #[test]
    fn check_rejects_out_of_range_actor() {
        let events = vec![ev(4, 0, 10, 0, EventKind::Begin(Phase::Intent))];
        let text = events_to_jsonl(&meta(2, 0), &events);
        assert!(check(&text).unwrap_err().contains("out of range"));
    }

    #[test]
    fn summary_mentions_each_section() {
        let events = vec![
            ev(0, 0, 1_000, 0, EventKind::Begin(Phase::Drain { sweep: 0 })),
            ev(0, 1, 3_000, 0, EventKind::End(Phase::Drain { sweep: 0 })),
            ev(
                0,
                2,
                4_000,
                0,
                EventKind::BarrierArrive {
                    gid: 42,
                    coll_seq: 0,
                },
            ),
            ev(
                1,
                3,
                9_000,
                0,
                EventKind::BarrierArrive {
                    gid: 42,
                    coll_seq: 0,
                },
            ),
            ev(
                0,
                4,
                9_500,
                0,
                EventKind::StoreWrite {
                    bytes: 100,
                    retries: 2,
                    crc: 1,
                },
            ),
        ];
        let s = render_summary(&meta(2, 0), &events);
        assert!(s.contains("drain"), "{s}");
        assert!(s.contains("barrier"), "{s}");
        assert!(s.contains("5.000"), "skew 5us missing: {s}");
        assert!(s.contains("store"), "{s}");
    }
}
