//! `mana2-explore` — hunt interleaving bugs in the coop scheduler's
//! schedule space.
//!
//! ```text
//! mana2-explore [--seed N] [--ranks N] [--workers N]
//!               [--workload gromacs|cg] [--drain alltoall|coordinator]
//!               [--budget-secs N] [--max-schedules N] [--max-depth N]
//!               [--keep-going] [--no-minimize] [--json PATH]
//!               [--replay HEX]
//! ```
//!
//! Default mode runs the bounded random-walk search ([`chaos::explore`])
//! and prints the one-line summary plus, for every failure, the minimized
//! choice vector and its `CHAOS_SCHEDULE` repro command. `--replay HEX`
//! skips the search and replays one explicit choice vector (the CLI face
//! of the repro line). Exit status 1 when any schedule failed.

use chaos::explore::{
    decode_choices, explore, parse_drain, parse_workload, workload_name, ExploreCfg, ExploreTarget,
};
use chaos::Workload;
use mana_core::DrainMode;
use std::time::Duration;

struct Args {
    seed: u64,
    ranks: usize,
    workers: usize,
    workload: Workload,
    drain: DrainMode,
    cfg: ExploreCfg,
    json: Option<std::path::PathBuf>,
    replay: Option<Vec<u32>>,
    emit_corpus: usize,
}

fn usage() -> ! {
    eprintln!(
        "usage: mana2-explore [--seed N] [--ranks N] [--workers N] \
         [--workload gromacs|cg] [--drain alltoall|coordinator] \
         [--budget-secs N] [--max-schedules N] [--max-depth N] \
         [--keep-going] [--no-minimize] [--json PATH] [--replay HEX]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut a = Args {
        seed: 0xE5_B007,
        ranks: 4,
        workers: 1,
        workload: Workload::Gromacs,
        drain: DrainMode::Alltoall,
        cfg: ExploreCfg::default(),
        json: None,
        replay: None,
        emit_corpus: 0,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = |flag: &str| it.next().unwrap_or_else(|| die(flag, "missing value"));
        match flag.as_str() {
            "--seed" => a.seed = parse(&flag, &val(&flag)),
            "--ranks" => a.ranks = parse(&flag, &val(&flag)),
            "--workers" => a.workers = parse(&flag, &val(&flag)),
            "--workload" => {
                a.workload = parse_workload(&val(&flag)).unwrap_or_else(|e| die(&flag, &e))
            }
            "--drain" => a.drain = parse_drain(&val(&flag)).unwrap_or_else(|e| die(&flag, &e)),
            "--budget-secs" => a.cfg.budget = Duration::from_secs(parse(&flag, &val(&flag))),
            "--max-schedules" => a.cfg.max_schedules = parse(&flag, &val(&flag)),
            "--max-depth" => a.cfg.max_depth = parse(&flag, &val(&flag)),
            "--keep-going" => a.cfg.stop_on_first_failure = false,
            "--no-minimize" => a.cfg.minimize = false,
            "--json" => a.json = Some(val(&flag).into()),
            "--replay" => {
                a.replay = Some(decode_choices(&val(&flag)).unwrap_or_else(|e| die(&flag, &e)))
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
    let target = ExploreTarget::new(a.seed, a.ranks, a.workers, a.workload, a.drain)
        .unwrap_or_else(|e| {
            eprintln!("mana2-explore: {e}");
            std::process::exit(2);
        });

    if let Some(choices) = &a.replay {
        let run = target.run_schedule(choices);
        println!(
            "replay seed={} {}x{} {}/{}: {} decisions, fingerprint {:016x}{}",
            a.seed,
            a.ranks,
            a.workers,
            workload_name(a.workload),
            a.drain.name(),
            run.decisions.len(),
            run.fingerprint,
            match &run.divergence {
                Some(d) => format!(
                    " (DIVERGED at decision {}: choice {} vs ready {})",
                    d.index, d.choice, d.ready_len
                ),
                None => String::new(),
            }
        );
        match &run.error {
            Some(e) => {
                eprintln!("FAIL: {e}");
                std::process::exit(1);
            }
            None => println!("ok"),
        }
        return;
    }

    let report = explore(&target, &a.cfg);
    println!("{}", report.summary());
    if a.emit_corpus > 0 {
        // Fixture lines for crates/chaos/tests/fixtures/: prefixes that
        // reached fingerprints no other visited schedule produced.
        for p in report.distinct_prefixes.iter().take(a.emit_corpus) {
            println!(
                "corpus: {}",
                chaos::explore::ScheduleFixture {
                    seed: a.seed,
                    ranks: a.ranks,
                    workers: a.workers,
                    workload: a.workload,
                    drain: a.drain,
                    choices: p.clone(),
                }
                .to_line()
            );
        }
    }
    if let Some(path) = &a.json {
        if let Some(dir) = path.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        std::fs::write(path, report.to_json(&target)).unwrap_or_else(|e| {
            eprintln!("mana2-explore: writing {}: {e}", path.display());
            std::process::exit(2);
        });
        println!("json artifact: {}", path.display());
    }
    for f in &report.failures {
        eprintln!("FAIL: {}", f.error);
        eprintln!("  choices: {}", chaos::explore::encode_choices(&f.choices));
        let repro_choices = match &f.minimized {
            Some(m) => {
                eprintln!(
                    "  minimized ({} tests): {}",
                    m.tests,
                    chaos::explore::encode_choices(&m.choices)
                );
                m.choices.clone()
            }
            None => f.choices.clone(),
        };
        eprintln!("  repro: {}", target.repro_command(&repro_choices));
        // Flight-recorder dump of the failing schedule for the CI artifact.
        if let Some(p) = target.dump_schedule_trace(&repro_choices) {
            eprintln!("  trace dump: {}", p.display());
        }
    }
    if !report.failures.is_empty() {
        std::process::exit(1);
    }
}
