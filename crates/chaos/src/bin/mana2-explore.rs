//! `mana2-explore` — hunt interleaving bugs in the coop scheduler's
//! schedule space.
//!
//! ```text
//! mana2-explore [--seed N] [--ranks N] [--workers N]
//!               [--workload gromacs|cg] [--drain alltoall|coordinator|toposort]
//!               [--budget-secs N] [--max-schedules N] [--max-depth N]
//!               [--keep-going] [--no-minimize] [--json PATH]
//!               [--replay HEX]
//! ```
//!
//! Default mode runs the bounded random-walk search ([`chaos::explore`])
//! and prints the one-line summary plus, for every failure, the minimized
//! choice vector and its `CHAOS_CASE='schedule …'` repro command.
//! `--replay HEX` skips the search and replays one explicit choice vector
//! (the CLI face of the repro line). Exit status 1 when any schedule
//! failed.

use chaos::explore::{check_schedule, decode_choices, explore, ExploreCfg, ScheduleFixture};
use chaos::{parse_drain, Workload};
use mana_core::DrainMode;
use std::time::Duration;

struct Args {
    /// The target's shape; `--replay`'s choices ride in it.
    shape: ScheduleFixture,
    replay: bool,
    cfg: ExploreCfg,
    json: Option<std::path::PathBuf>,
    emit_corpus: usize,
}

fn usage() -> ! {
    eprintln!(
        "usage: mana2-explore [--seed N] [--ranks N] [--workers N] \
         [--workload gromacs|cg] [--drain alltoall|coordinator|toposort] \
         [--budget-secs N] [--max-schedules N] [--max-depth N] \
         [--keep-going] [--no-minimize] [--json PATH] [--replay HEX]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut a = Args {
        shape: ScheduleFixture {
            seed: 0xE5_B007,
            ranks: 4,
            workers: 1,
            workload: Workload::Gromacs,
            drain: DrainMode::Alltoall,
            choices: Vec::new(),
        },
        replay: false,
        cfg: ExploreCfg::default(),
        json: None,
        emit_corpus: 0,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = |flag: &str| it.next().unwrap_or_else(|| die(flag, "missing value"));
        match flag.as_str() {
            "--seed" => a.shape.seed = parse(&flag, &val(&flag)),
            "--ranks" => a.shape.ranks = parse(&flag, &val(&flag)),
            "--workers" => a.shape.workers = parse(&flag, &val(&flag)),
            "--workload" => a.shape.workload = parse(&flag, &val(&flag)),
            "--drain" => {
                a.shape.drain = parse_drain(&val(&flag)).unwrap_or_else(|e| die(&flag, &e))
            }
            "--budget-secs" => a.cfg.budget = Duration::from_secs(parse(&flag, &val(&flag))),
            "--max-schedules" => a.cfg.max_schedules = parse(&flag, &val(&flag)),
            "--max-depth" => a.cfg.max_depth = parse(&flag, &val(&flag)),
            "--keep-going" => a.cfg.stop_on_first_failure = false,
            "--no-minimize" => a.cfg.minimize = false,
            "--json" => a.json = Some(val(&flag).into()),
            "--replay" => {
                a.replay = true;
                a.shape.choices = decode_choices(&val(&flag)).unwrap_or_else(|e| die(&flag, &e));
            }
            "--emit-corpus" => a.emit_corpus = parse(&flag, &val(&flag)),
            "--help" | "-h" => usage(),
            other => die(other, "unknown flag"),
        }
    }
    a
}

fn die(flag: &str, msg: &str) -> ! {
    eprintln!("mana2-explore: {flag}: {msg}");
    usage();
}

fn parse<T: std::str::FromStr>(flag: &str, v: &str) -> T
where
    T::Err: std::fmt::Display,
{
    v.trim()
        .parse()
        .unwrap_or_else(|e| die(flag, &format!("{e}")))
}

fn main() {
    let a = parse_args();
    // The target takes its store layout and trace directory from the
    // environment; a value that does not parse ends the run here.
    if let Err(e) = mana_core::from_env() {
        eprintln!("mana2-explore: {e}");
        std::process::exit(2);
    }
    if a.replay {
        // The CLI face of a repro line: same oracle stack, same summary
        // (decision count, fingerprint) as `case_replay`.
        match check_schedule(&a.shape) {
            Ok(summary) => println!("replay {}: {summary}\nok", a.shape.to_line()),
            Err(report) => {
                eprintln!("FAIL: {report}");
                std::process::exit(1);
            }
        }
        return;
    }
    let target = a.shape.target().unwrap_or_else(|e| {
        eprintln!("mana2-explore: {e}");
        std::process::exit(2);
    });

    let report = explore(&target, &a.cfg);
    println!("{}", report.summary());
    if a.emit_corpus > 0 {
        // Fixture lines for crates/chaos/tests/fixtures/: prefixes that
        // reached fingerprints no other visited schedule produced.
        for p in report.distinct_prefixes.iter().take(a.emit_corpus) {
            println!("corpus: {}", target.fixture(p).to_line());
        }
    }
    if let Some(path) = &a.json {
        if let Some(dir) = path.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        std::fs::write(path, report.to_json()).unwrap_or_else(|e| {
            eprintln!("mana2-explore: writing {}: {e}", path.display());
            std::process::exit(2);
        });
        println!("json artifact: {}", path.display());
    }
    for f in &report.failures {
        target.report_failure(f);
    }
    if !report.failures.is_empty() {
        std::process::exit(1);
    }
}
