//! `repeat`: the whole benchmark several times, in alternating sets, to
//! show that two sets of runs of the same code agree within the bounds
//! `BENCHMARK.json` fixes.
//!
//! Every run is a fresh process with its own `--seed`, as the acceptance
//! check makes them. Per (workload, metric) the table gives both set
//! medians, how far the second is from the first, and each set's spread
//! (interquartile range over median, quartiles as Python's
//! `statistics.quantiles(values, n=4)`).

use crate::metrics::{parse_result_line, Better, END_TO_END, RUN_SECONDS};
use crate::stats::{quartiles_exclusive, spread};
use crate::Args;
use std::collections::BTreeMap;
use std::process::{Command, ExitCode};

fn one_run(
    workload: &str,
    seed: u64,
    seconds: f64,
    store_dir: Option<&str>,
) -> Result<Vec<(String, f64)>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["run", "--workload", workload, "--trace", "0"])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(store_dir.iter().flat_map(|d| ["--store-dir", d]))
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!(
            "{workload} seed {seed}: exit {:?}\n{stdout}{}",
            out.status.code(),
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let line = stdout.lines().last().ok_or("run printed nothing")?;
    let (correct, values) = parse_result_line(line)?;
    if !correct {
        return Err(format!("{workload} seed {seed}: result is not correct"));
    }
    Ok(values)
}

fn set_name(set: usize) -> char {
    (b'A' + set as u8) as char
}

pub fn repeat(mut args: Args) -> Result<ExitCode, String> {
    let specs = crate::specs_for(args.value("--workload")?)?;
    let sets: usize = args.parsed("--sets")?.unwrap_or(2);
    let runs: usize = args.parsed("--runs")?.unwrap_or(10);
    let base: u64 = args.parsed("--seed")?.unwrap_or(1000);
    let seconds: f64 = args.parsed("--seconds")?.unwrap_or(RUN_SECONDS as f64);
    let store_dir = args.value("--store-dir")?;
    args.finish()?;
    if sets < 2 || runs < 2 {
        return Err("repeat needs at least 2 sets of at least 2 runs".into());
    }
    // samples[(workload, metric)][set] = one value per run.
    let mut samples: BTreeMap<(&str, String), Vec<Vec<f64>>> = BTreeMap::new();
    for run in 0..runs {
        for set in 0..sets {
            let seed = base + (run * sets + set) as u64;
            for spec in &specs {
                eprintln!("repeat: run {run} set {set} {} seed {seed}", spec.name);
                for (metric, value) in one_run(spec.name, seed, seconds, store_dir.as_deref())? {
                    samples
                        .entry((spec.name, metric))
                        .or_insert_with(|| vec![Vec::new(); sets])[set]
                        .push(value);
                }
            }
        }
    }
    println!(
        "{sets} sets of {runs} runs, alternating, {seconds} s each, seeds {base}..{}",
        base + (runs * sets) as u64
    );
    println!();
    println!("| workload | metric | unit | median A | median B | B vs A | spread A | spread B | bound | verdict |");
    println!("|---|---|---|---|---|---|---|---|---|---|");
    let mut all_pass = true;
    for spec in &specs {
        for def in END_TO_END {
            let Some(by_set) = samples.get(&(spec.name, def.name.to_owned())) else {
                return Err(format!("{}: no samples of {}", spec.name, def.name));
            };
            let med = |s: &[f64]| quartiles_exclusive(s).map(|q| q[1]);
            let (Some(a), Some(b)) = (med(&by_set[0]), med(&by_set[sets - 1])) else {
                return Err(format!("{}: too few samples of {}", spec.name, def.name));
            };
            let worse = match def.better {
                Better::Lower => (b - a) / a,
                Better::Higher => (a - b) / a,
            };
            let spreads: Vec<f64> = by_set.iter().map(|s| spread(s).unwrap_or(0.0)).collect();
            // The spread of set-up time is reported but not held to a bound.
            let steady = def.name == "setup_s" || spreads.iter().all(|&s| s <= def.bound);
            let pass = worse.abs() <= def.bound && steady;
            all_pass &= pass;
            println!(
                "| {} | {} | {} | {:.4} | {:.4} | {:+.2}% | {:.2}% | {:.2}% | {:.0}% | {} |",
                spec.name,
                def.name,
                def.unit,
                a,
                b,
                worse * 100.0,
                spreads[0] * 100.0,
                spreads[sets - 1] * 100.0,
                def.bound * 100.0,
                if pass { "PASS" } else { "FAIL" }
            );
        }
    }
    println!();
    println!("{}", if all_pass { "ALL PASS" } else { "SOME FAIL" });
    println!();
    println!("Every run, in run order, one row per set:");
    println!();
    println!("| workload | metric | set | values |");
    println!("|---|---|---|---|");
    for ((workload, metric), by_set) in &samples {
        for (set, values) in by_set.iter().enumerate() {
            let values: Vec<String> = values.iter().map(|v| format!("{v:.4}")).collect();
            println!(
                "| {workload} | {metric} | {} | {} |",
                set_name(set),
                values.join(" ")
            );
        }
    }
    Ok(if all_pass {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}
