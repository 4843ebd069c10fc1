//! # mana-bench — experiment harness for the MANA-2.0 reproduction
//!
//! Shared measurement plumbing for the `experiments` binary (which
//! regenerates every table and figure of the paper — see EXPERIMENTS.md)
//! and the Criterion benches (per-figure microbenchmarks and per-design-
//! choice ablations).
//!
//! All helpers run the *same* workload code (from the `workloads` crate)
//! either natively on `mpisim` or under `mana-core`, under a chosen
//! machine profile, and report wall time plus the operation counters the
//! shape comparisons rely on.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use mana_core::{ConfigError, EnvConfig, ManaConfig, ManaRuntime};
use mpisim::{MachineProfile, StatsSnapshot, World, WorldCfg};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use workloads::{Kernel, Launch};

/// A timed run's outcome.
#[derive(Debug, Clone)]
pub struct Timed<T> {
    /// Wall-clock duration of the whole world run.
    pub wall: Duration,
    /// Rank-0 result.
    pub result: T,
    /// Simulator statistics.
    pub stats: StatsSnapshot,
}

/// The `MANA2_*` environment of a bench or experiment binary, read once
/// at its edge and passed down by reference. A variable that does not
/// parse ends the process (status 2) before anything runs.
pub fn env_or_exit() -> EnvConfig {
    mana_core::from_env().unwrap_or_else(|e| {
        eprintln!("mana2: {e}");
        std::process::exit(2);
    })
}

/// World configuration for a profile under `env`'s engine (generous
/// watchdog so a wedged bench fails loudly instead of hanging CI).
pub fn world_cfg(env: &EnvConfig, profile: MachineProfile) -> WorldCfg {
    WorldCfg {
        profile,
        watchdog: Some(Duration::from_secs(600)),
        ..env.world.clone()
    }
}

/// A MANA runtime for `mana_cfg` on `profile`, under `env`'s engine and
/// outputs (trace directory, live metrics export).
pub fn runtime(
    env: &EnvConfig,
    ranks: usize,
    mana_cfg: ManaConfig,
    profile: MachineProfile,
) -> ManaRuntime {
    ManaRuntime::new(ranks, mana_cfg)
        .with_world_cfg(world_cfg(env, profile))
        .with_outputs(env.outputs.clone())
}

/// Scratch checkpoint directory.
pub fn scratch_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("mana2_bench_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// The `experiments` binary's arguments, parsed once at its edge beside
/// [`env_or_exit`]. An unset flag means the default; a value that does not
/// parse is a [`ConfigError`] naming the flag, never the default in
/// disguise.
#[derive(Debug, Clone, PartialEq)]
pub struct Knobs {
    /// `--scale`: workload-size multiplier.
    pub scale: f64,
    /// `--ranks`: rank counts of the `fig2` / `fig3` / `fig4` sweeps,
    /// sized for a small container (the paper sweeps 32…2048 on Cori —
    /// shapes, not absolute scale, are reproduced; see EXPERIMENTS.md).
    pub ranks: Vec<usize>,
    /// `--scale-ranks`: rank counts of `scale` and `drain`.
    pub scale_ranks: Vec<usize>,
    /// `--drain-inflight`: per-rank in-flight message counts of `drain`.
    pub drain_inflight: Vec<usize>,
    /// `--json-dir`: where the JSON artifacts go.
    pub json_dir: PathBuf,
}

impl Default for Knobs {
    fn default() -> Self {
        Knobs {
            scale: 1.0,
            ranks: vec![2, 4, 8, 16, 32],
            scale_ranks: vec![64, 256, 1024, 4096],
            drain_inflight: vec![4, 64],
            json_dir: std::env::temp_dir().join("mana2_experiments"),
        }
    }
}

/// [`Knobs`] from the `--flag value` pairs of `args`; a malformed value
/// ends the process (status 2) before anything runs.
pub fn knobs_or_exit(args: &[String]) -> Knobs {
    knobs_from_args(args).unwrap_or_else(|e| {
        eprintln!("mana2: {e}");
        std::process::exit(2);
    })
}

/// [`Knobs`] from the `--flag value` pairs of `args`. An unknown flag, a
/// flag without its value and a value that does not parse are each a
/// [`ConfigError`] naming the flag and the value as given.
pub fn knobs_from_args(args: &[String]) -> Result<Knobs, ConfigError> {
    let bad = |var, value: &str, expected: &str| ConfigError {
        var,
        value: value.to_owned(),
        expected: expected.to_owned(),
    };
    const SCALE: &str = "a positive number";
    const LIST: &str = "a comma-separated list of positive integers";
    const DIR: &str = "a directory";
    const FLAGS: &str = "--scale | --ranks | --scale-ranks | --drain-inflight | --json-dir";
    let list = |var, s: &str| {
        let list: Option<Vec<usize>> = s
            .split(',')
            .map(|x| x.trim().parse().ok().filter(|&n| n > 0))
            .collect();
        list.ok_or_else(|| bad(var, s, LIST))
    };
    let mut k = Knobs::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(var) = FLAGS.split(" | ").find(|f| f == flag) else {
            return Err(bad("flag", flag, FLAGS));
        };
        let expected = match var {
            "--scale" => SCALE,
            "--json-dir" => DIR,
            _ => LIST,
        };
        let s = it.next().ok_or_else(|| bad(var, "", expected))?;
        match var {
            "--scale" => match s.trim().parse::<f64>() {
                Ok(x) if x.is_finite() && x > 0.0 => k.scale = x,
                _ => return Err(bad(var, s, SCALE)),
            },
            "--json-dir" if s.is_empty() => return Err(bad(var, s, DIR)),
            "--json-dir" => k.json_dir = s.into(),
            "--ranks" => k.ranks = list(var, s)?,
            "--scale-ranks" => k.scale_ranks = list(var, s)?,
            _ => k.drain_inflight = list(var, s)?,
        }
    }
    Ok(k)
}

/// Run `k` natively, timed.
pub fn timed_native<K: Kernel>(
    env: &EnvConfig,
    ranks: usize,
    k: &K,
    profile: MachineProfile,
) -> Timed<K::Out> {
    let w = World::new(ranks, world_cfg(env, profile));
    let t = Instant::now();
    let out = workloads::native(&w, k).expect("native run");
    Timed {
        wall: t.elapsed(),
        result: out.into_iter().next().unwrap(),
        stats: w.stats(),
    }
}

/// Run `k` under MANA (fresh), timed.
pub fn timed_mana<K: Kernel>(
    env: &EnvConfig,
    ranks: usize,
    k: &K,
    profile: MachineProfile,
    mana_cfg: ManaConfig,
) -> Timed<K::Out> {
    let rt = runtime(env, ranks, mana_cfg, profile);
    let t = Instant::now();
    let report = workloads::under_mana(&rt, Launch::Fresh, k).expect("mana run");
    let wall = t.elapsed();
    let stats = report.world_stats.clone();
    let result = report.values().into_iter().next().unwrap();
    Timed {
        wall,
        result,
        stats,
    }
}

/// Overhead percentage of `measured` over `baseline`.
pub fn overhead_pct(baseline: Duration, measured: Duration) -> f64 {
    (measured.as_secs_f64() / baseline.as_secs_f64() - 1.0) * 100.0
}

/// Write one experiment's JSON artifact as `<dir>/<name>.json` (`dir` is
/// [`Knobs::json_dir`]), returning the path. The text tables stay the
/// human interface; the JSON files are the same numbers for scripts. Best
/// effort: an unwritable artifact dir must not fail the experiment, so
/// errors are reported to stderr and swallowed.
pub fn write_json_artifact(dir: &Path, name: &str, json: &str) -> Option<PathBuf> {
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!(
            "mana2: cannot create json artifact dir {}: {e}",
            dir.display()
        );
        return None;
    }
    let path = dir.join(format!("{name}.json"));
    match std::fs::write(&path, json) {
        Ok(()) => {
            eprintln!("[json artifact: {}]", path.display());
            Some(path)
        }
        Err(e) => {
            eprintln!("mana2: cannot write {}: {e}", path.display());
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_math() {
        let base = Duration::from_secs(10);
        assert!((overhead_pct(base, Duration::from_secs(15)) - 50.0).abs() < 1e-9);
        assert!(overhead_pct(base, base).abs() < 1e-9);
    }

    fn knobs(args: &[&str]) -> Result<Knobs, ConfigError> {
        knobs_from_args(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn rank_sweep_default_ascending() {
        let k = knobs(&[]).unwrap();
        assert_eq!(k, Knobs::default());
        for v in [&k.ranks, &k.scale_ranks, &k.drain_inflight] {
            assert!(!v.is_empty());
            assert!(v.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn knobs_parse_or_name_the_flag_and_value() {
        let args = [
            "--scale",
            "0.5",
            "--scale-ranks",
            " 64, 128 ",
            "--json-dir",
            "/x",
        ];
        let k = knobs(&args).unwrap();
        assert_eq!((k.scale, k.scale_ranks), (0.5, vec![64, 128]));
        assert_eq!(k.json_dir, PathBuf::from("/x"));
        // A typo used to run the default sweep (4096 ranks for this one).
        let cases: [(&[&str], &str, &str); 10] = [
            (&["--scale-ranks", "64;256"], "--scale-ranks", "64;256"),
            (&["--scale-ranks", "64x"], "--scale-ranks", "64x"),
            (&["--ranks", ""], "--ranks", ""),
            (&["--ranks", "2,,4"], "--ranks", "2,,4"),
            (&["--drain-inflight", "0"], "--drain-inflight", "0"),
            (&["--scale", "half"], "--scale", "half"),
            (&["--scale", "-1"], "--scale", "-1"),
            (&["--ranks", "4", "--scale"], "--scale", ""),
            (&["--json-dir", ""], "--json-dir", ""),
            (&["--scale-rank", "64"], "flag", "--scale-rank"),
        ];
        for (args, var, value) in cases {
            let e = knobs(args).unwrap_err();
            assert_eq!((e.var, e.value.as_str()), (var, value), "{args:?}");
            let shown = e.to_string();
            assert!(shown.starts_with(&format!("{var}=")), "{shown}");
            assert!(shown.contains("expected"), "{shown}");
        }
    }
}
