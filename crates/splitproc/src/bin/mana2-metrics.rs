//! `mana2-metrics` — inspect metrics series from the always-on plane.
//!
//! ```text
//! mana2-metrics <series.jsonl>...       summary tables for the last
//!                                       snapshot: counters, gauges, and
//!                                       latency percentiles (p50/p90/
//!                                       p95/p99) per histogram
//! mana2-metrics --check <series>...     validate series against the
//!                                       mana2-metrics/1 schema (stable
//!                                       metric set, monotone counters,
//!                                       consistent histograms); exit 0
//!                                       iff every series is well-formed
//! mana2-metrics --prom <series.jsonl>   render the last snapshot in
//!                                       Prometheus text exposition (the
//!                                       one Prometheus path: the
//!                                       exporter writes only the series)
//! mana2-metrics --watch [--interval-ms <n>] [--ticks <n>] <series.jsonl>
//!                                       live-tail a series being written
//!                                       by a running world (exporter
//!                                       armed via MANA2_METRICS_DIR),
//!                                       polling every n ms (default 500)
//!                                       for n polls (default: forever)
//! ```
//!
//! Series come from the periodic exporter (`MANA2_METRICS_DIR`), from
//! flight-recorder dumps (`<label>.metrics.json` sidecars), or from
//! `RunReport` snapshots written by the bench harness.

use obs::metrics::{self as met, HistSnapshot, MetricKind, MetricValue, MetricsSnapshot};
use std::io::Write;

/// Print, ignoring broken pipes (`mana2-metrics … | head` must not panic).
macro_rules! out {
    ($($arg:tt)*) => {
        let _ = writeln!(std::io::stdout(), $($arg)*);
    };
}

fn load(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
}

/// Human-scale nanoseconds: `1.23ms`, `45.6us`, `789ns`, `2.50s`.
fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// Histograms whose name says they hold nanoseconds get duration
/// formatting; anything else renders raw.
fn fmt_value(name: &str, v: u64) -> String {
    if name.ends_with("_ns") {
        fmt_ns(v)
    } else {
        v.to_string()
    }
}

fn render_hist_row(name: &str, h: &HistSnapshot) -> String {
    let q = |p: f64| fmt_value(name, h.quantile(p).unwrap_or(0));
    let mean = h.sum.checked_div(h.count).unwrap_or(0);
    format!(
        "  {name:<34} {:>8} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10}",
        h.count,
        q(0.50),
        q(0.90),
        q(0.95),
        q(0.99),
        fmt_value(name, h.max),
        fmt_value(name, mean),
    )
}

fn render_summary(path: &str, meta: &obs::JsonlHeader, snaps: &[MetricsSnapshot]) {
    out!("== {path}");
    out!(
        "   label {:?}  ranks {}  seed {}  snapshots {}",
        meta.label,
        meta.ranks,
        meta.seed.map_or("-".into(), |s| s.to_string()),
        snaps.len()
    );
    if !meta.config.0.is_empty() {
        out!("   config {}", meta.config);
    }
    let Some(last) = snaps.last() else {
        out!("   (no snapshots)");
        return;
    };
    let mut zeros = 0usize;
    out!("\n-- counters / gauges");
    for e in &last.entries {
        let MetricValue::Scalar(v) = e.value else {
            continue;
        };
        if v == 0 {
            zeros += 1;
            continue;
        }
        let tag = match e.kind {
            MetricKind::Gauge => " (gauge)",
            _ => "",
        };
        out!("  {:<40} {v:>12}{tag}", e.name);
    }
    if zeros > 0 {
        out!("  ({zeros} zero-valued metric(s) elided)");
    }
    let hists: Vec<_> = last
        .entries
        .iter()
        .filter_map(|e| match &e.value {
            MetricValue::Hist(h) if h.count > 0 => Some((e.name.as_str(), h)),
            _ => None,
        })
        .collect();
    if !hists.is_empty() {
        out!("\n-- latency histograms");
        out!(
            "  {:<34} {:>8} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10}",
            "name",
            "count",
            "p50",
            "p90",
            "p95",
            "p99",
            "max",
            "mean"
        );
        for (name, h) in hists {
            out!("{}", render_hist_row(name, h));
        }
    }
    // Per-strategy drain quiesce: line up the protocols a run actually
    // used, so a sweep crossing strategies is comparable at a glance.
    let strategies = [
        ("alltoall", "mana2_drain_alltoall_quiesce_ns"),
        ("coordinator", "mana2_drain_coordinator_quiesce_ns"),
        ("toposort", "mana2_drain_toposort_quiesce_ns"),
    ];
    let used: Vec<_> = strategies
        .iter()
        .filter_map(|(label, name)| {
            last.entries.iter().find_map(|e| match &e.value {
                MetricValue::Hist(h) if e.name == *name && h.count > 0 => Some((*label, h)),
                _ => None,
            })
        })
        .collect();
    if !used.is_empty() {
        out!("\n-- drain quiesce by strategy");
        out!(
            "  {:<12} {:>8} {:>10} {:>10} {:>10}",
            "strategy",
            "rounds",
            "p50",
            "p95",
            "max"
        );
        for (label, h) in used {
            out!(
                "  {label:<12} {:>8} {:>10} {:>10} {:>10}",
                h.count,
                fmt_ns(h.quantile(0.50).unwrap_or(0)),
                fmt_ns(h.quantile(0.95).unwrap_or(0)),
                fmt_ns(h.max)
            );
        }
    }
    out!("");
}

fn summarize(path: &str) -> i32 {
    let text = match load(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("{e}");
            return 1;
        }
    };
    match met::parse_series(&text) {
        Ok((meta, snaps)) => {
            render_summary(path, &meta, &snaps);
            0
        }
        Err(e) => {
            eprintln!("{path}: {e}");
            1
        }
    }
}

fn check_all(paths: &[String]) -> i32 {
    let mut bad = 0;
    for path in paths {
        match load(path).and_then(|text| met::check_series(&text)) {
            Ok(report) => {
                out!("{path}: {report}");
            }
            Err(e) => {
                eprintln!("{path}: FAIL: {e}");
                bad += 1;
            }
        }
    }
    if bad == 0 {
        0
    } else {
        1
    }
}

fn prom(path: &str) -> i32 {
    let text = match load(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("{e}");
            return 1;
        }
    };
    match met::parse_series(&text) {
        Ok((_, snaps)) => match snaps.last() {
            Some(s) => {
                let _ = write!(std::io::stdout(), "{}", s.render_prometheus());
                0
            }
            None => {
                eprintln!("{path}: series has no snapshots");
                1
            }
        },
        Err(e) => {
            eprintln!("{path}: {e}");
            1
        }
    }
}

/// Live tail: poll the series file every `interval` ms and re-render the
/// summary whenever a new snapshot lands; `max_ticks` bounds the loop, so
/// tests and scripts can watch a fixed window instead of Ctrl-C'ing.
fn watch(path: &str, interval: u64, max_ticks: Option<u64>) -> i32 {
    let interval = interval.max(10);
    let mut seen = 0usize;
    let mut ticks = 0u64;
    loop {
        if let Ok(text) = std::fs::read_to_string(path) {
            if let Ok((meta, snaps)) = met::parse_series(&text) {
                if snaps.len() > seen {
                    seen = snaps.len();
                    // ANSI clear + home: a poor man's dashboard.
                    let _ = write!(std::io::stdout(), "\x1b[2J\x1b[H");
                    render_summary(path, &meta, &snaps);
                    out!("watching {path} every {interval}ms (Ctrl-C to stop)");
                    let _ = std::io::stdout().flush();
                }
            }
        }
        ticks += 1;
        if let Some(m) = max_ticks {
            if ticks >= m {
                return 0;
            }
        }
        std::thread::sleep(std::time::Duration::from_millis(interval));
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: mana2-metrics [--check | --prom | --watch [--interval-ms <n>] [--ticks <n>]] <series.jsonl>..."
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }
    match args[0].as_str() {
        "--check" => {
            if args.len() < 2 {
                usage();
            }
            std::process::exit(check_all(&args[1..]));
        }
        "--prom" => {
            if args.len() != 2 {
                usage();
            }
            std::process::exit(prom(&args[1]));
        }
        "--watch" => {
            let (mut interval, mut ticks, mut rest) = (500, None, &args[1..]);
            while let [flag, tail @ ..] = rest {
                if flag != "--interval-ms" && flag != "--ticks" {
                    break;
                }
                let value = tail.first().map_or("", String::as_str);
                let n = value.parse::<u64>().unwrap_or_else(|_| {
                    eprintln!("mana2-metrics: {flag} {value:?} is not a non-negative integer");
                    std::process::exit(2)
                });
                if flag == "--ticks" {
                    ticks = Some(n);
                } else {
                    interval = n;
                }
                rest = &tail[1..];
            }
            let [path] = rest else { usage() };
            std::process::exit(watch(path, interval, ticks));
        }
        flag if flag.starts_with("--") => usage(),
        _ => {
            let mut rc = 0;
            for path in &args {
                rc |= summarize(path);
            }
            std::process::exit(rc);
        }
    }
}
