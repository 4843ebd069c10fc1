//! `mana2-benchmark`: the repository's one benchmark.
//!
//! ```text
//! run      [--workload <name>] [--seed <u64>] [--seconds <s>] [--trace [0|1]]
//!          [--smoke] [--store-dir <dir>] [--out <file>]
//! repeat   [--sets <n>] [--runs <n>] [--workload <name>] [--seed <u64>] [--seconds <s>]
//! manifest
//! ```
//!
//! `run` takes one workload (or, without `--workload`, each in turn)
//! through its checkpoint/restart lifecycle, prints every metric by name
//! with its unit, checks every result against a native reference run, and
//! ends its output with one JSON result line per workload. It exits 1 if
//! any operation failed and 2 if it refused to start.

mod inputs;
mod layers;
mod lifecycle;
mod metrics;
mod repeat;
mod spans;
mod stats;
mod timed_face;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Traces, the disk replay and (without a tmpfs) the scratch stores live
/// under `out/` in the benchmark's own directory.
fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Where the scratch stores go: `--store-dir`, else a fresh directory
/// under `/dev/shm` when that is a tmpfs (a disk's fsync latency swings
/// more between runs than any layer of the program), else `out/store`.
/// A directory this function made up is removed again on drop.
struct StoreRoot {
    path: PathBuf,
    ours: bool,
}

impl StoreRoot {
    fn choose(given: Option<String>) -> Result<StoreRoot, String> {
        let (path, ours) = match given {
            Some(dir) => (PathBuf::from(dir), false),
            None => {
                let shm = Path::new("/dev/shm");
                let fresh = shm.join(format!("mana2-benchmark-{}", std::process::id()));
                if layers::filesystem_of(shm) == "tmpfs" && std::fs::create_dir_all(&fresh).is_ok()
                {
                    (fresh, true)
                } else {
                    (out_dir().join("store"), false)
                }
            }
        };
        std::fs::create_dir_all(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(StoreRoot { path, ours })
    }
}

impl Drop for StoreRoot {
    fn drop(&mut self) {
        if self.ours {
            let _ = std::fs::remove_dir_all(&self.path);
        }
    }
}

/// `--key value` pairs and bare `--flag`s after the subcommand.
struct Args(Vec<String>);

impl Args {
    fn flag(&mut self, key: &str) -> bool {
        let at = self.0.iter().position(|a| a == key);
        at.map(|i| self.0.remove(i)).is_some()
    }

    fn value(&mut self, key: &str) -> Result<Option<String>, String> {
        let Some(i) = self.0.iter().position(|a| a == key) else {
            return Ok(None);
        };
        if i + 1 >= self.0.len() {
            return Err(format!("{key} needs a value"));
        }
        self.0.remove(i);
        Ok(Some(self.0.remove(i)))
    }

    fn parsed<T: std::str::FromStr>(&mut self, key: &str) -> Result<Option<T>, String> {
        match self.value(key)? {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("{key}: cannot read {v:?}")),
        }
    }

    /// `--trace`, `--trace 0` or `--trace 1`.
    fn trace(&mut self) -> Result<bool, String> {
        let Some(i) = self.0.iter().position(|a| a == "--trace") else {
            return Ok(false);
        };
        self.0.remove(i);
        match self.0.get(i).map(String::as_str) {
            Some("0") => {
                self.0.remove(i);
                Ok(false)
            }
            Some("1") => {
                self.0.remove(i);
                Ok(true)
            }
            Some(v) if !v.starts_with("--") => Err(format!("--trace: cannot read {v:?}")),
            _ => Ok(true),
        }
    }

    fn finish(self) -> Result<(), String> {
        match self.0.first() {
            None => Ok(()),
            Some(a) => Err(format!("unexpected argument {a:?}")),
        }
    }
}

fn specs_for(workload: Option<String>) -> Result<Vec<workloads::Spec>, String> {
    match workload {
        None => Ok(workloads::all()),
        Some(name) => workloads::by_name(&name).map(|s| vec![s]).ok_or_else(|| {
            let names: Vec<_> = workloads::all().iter().map(|s| s.name).collect();
            format!("unknown workload {name:?}; the workloads are {names:?}")
        }),
    }
}

fn run(mut args: Args) -> Result<ExitCode, String> {
    let specs = specs_for(args.value("--workload")?)?;
    let traced = args.trace()?;
    let seed = args.parsed("--seed")?.unwrap_or(1);
    let seconds = args
        .parsed("--seconds")?
        .unwrap_or(metrics::RUN_SECONDS as f64);
    let smoke = args.flag("--smoke");
    let store_dir = args.value("--store-dir")?;
    let out_file = args.value("--out")?;
    args.finish()?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be a positive number".into());
    }
    let store_root = StoreRoot::choose(store_dir)?;
    let cfg = lifecycle::Config {
        seed,
        seconds,
        smoke,
        store_root: store_root.path.clone(),
        out_dir: out_dir(),
    };
    let mut lines = Vec::new();
    let mut correct = true;
    for spec in &specs {
        let report = if traced {
            lifecycle::run_traced(spec, &cfg)
        } else {
            lifecycle::run_end_to_end(spec, &cfg)
        }
        .map_err(|e| format!("{}: {e}", spec.name))?;
        correct &= report.correct();
        print!("{}", report.render());
        lines.push(report.result_line());
    }
    // The result lines come last, so the last line of the output is one.
    for line in &lines {
        println!("{line}");
    }
    if let Some(path) = out_file {
        std::fs::write(&path, lines.join("\n") + "\n").map_err(|e| format!("{path}: {e}"))?;
    }
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

fn dispatch() -> Result<ExitCode, String> {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.is_empty() {
        return Err("usage: mana2-benchmark run|repeat|manifest [options]".into());
    }
    let command = argv.remove(0);
    let args = Args(argv);
    if command == "manifest" {
        args.finish()?;
        print!("{}", metrics::manifest_json());
        return Ok(ExitCode::SUCCESS);
    }
    let steering = layers::steering_env_vars();
    if !steering.is_empty() {
        return Err(format!(
            "refusing to start: {steering:?} would steer the layers under measurement; unset them"
        ));
    }
    match command.as_str() {
        "run" => run(args),
        "repeat" => repeat::repeat(args),
        other => Err(format!("unknown command {other:?}")),
    }
}

fn main() -> ExitCode {
    dispatch().unwrap_or_else(|e| {
        eprintln!("mana2-benchmark: {e}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Args {
        Args(s.split_whitespace().map(str::to_owned).collect())
    }

    #[test]
    fn trace_takes_an_optional_value() {
        assert!(!args("--seed 4").trace().unwrap());
        assert!(args("--trace").trace().unwrap());
        assert!(args("--trace --seed 4").trace().unwrap());
        assert!(args("--seed 4 --trace 1").trace().unwrap());
        assert!(!args("--trace 0 --seed 4").trace().unwrap());
        assert!(args("--trace yes").trace().is_err());
    }

    #[test]
    fn the_drivers_argument_list_parses() {
        let mut a = args("--workload narrow_flat --seed 17 --seconds 24 --trace 0");
        assert_eq!(
            a.value("--workload").unwrap().as_deref(),
            Some("narrow_flat")
        );
        assert!(!a.trace().unwrap());
        assert_eq!(a.parsed::<u64>("--seed").unwrap(), Some(17));
        assert_eq!(a.parsed::<f64>("--seconds").unwrap(), Some(24.0));
        assert!(!a.flag("--smoke"));
        a.finish().unwrap();
    }

    #[test]
    fn bad_arguments_are_refused() {
        assert!(args("--seed").value("--seed").is_err());
        assert!(args("--seed x").parsed::<u64>("--seed").is_err());
        assert!(args("--bogus").finish().is_err());
        assert!(specs_for(Some("nope".into())).is_err());
        assert_eq!(specs_for(None).unwrap().len(), 4);
    }

    /// 2 rounds, 1 restart, 1 pair per workload, untraced and traced:
    /// every metric of `BENCHMARK.json` comes out, for every workload.
    #[test]
    fn smoke_pass_reports_every_metric_for_every_workload() {
        let root = out_dir().join(format!("store-test-{}", std::process::id()));
        let cfg = lifecycle::Config {
            seed: 42,
            seconds: 1.0,
            smoke: true,
            store_root: root.clone(),
            out_dir: out_dir(),
        };
        for spec in workloads::all() {
            for (traced, defs) in [(false, metrics::END_TO_END), (true, metrics::PER_LAYER)] {
                let report = if traced {
                    lifecycle::run_traced(&spec, &cfg)
                } else {
                    lifecycle::run_end_to_end(&spec, &cfg)
                }
                .unwrap_or_else(|e| panic!("{}: {e}", spec.name));
                assert!(report.correct(), "{}: {:?}", spec.name, report.failures);
                assert!(report.attempted >= 1);
                let (_, values) = metrics::parse_result_line(&report.result_line()).unwrap();
                let got: Vec<&str> = values.iter().map(|(n, _)| n.as_str()).collect();
                let want: Vec<&str> = defs.iter().map(|d| d.name).collect();
                assert_eq!(got, want, "{} traced={traced}", spec.name);
                assert!(values.iter().all(|(_, v)| v.is_finite()));
            }
        }
        let _ = std::fs::remove_dir_all(&root);
    }
}
