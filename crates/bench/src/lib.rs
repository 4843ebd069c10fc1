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

use mana_core::{EnvConfig, ManaConfig, ManaRuntime};
use mpisim::{MachineProfile, StatsSnapshot, World, WorldCfg};
use std::path::PathBuf;
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

/// Environment variable `var` parsed as a `T`, or `default` when it is
/// unset or does not parse.
pub fn env_num<T: std::str::FromStr>(var: &str, default: T) -> T {
    let parsed = std::env::var(var).ok().and_then(|s| s.trim().parse().ok());
    parsed.unwrap_or(default)
}

/// A comma-separated `usize` list from environment variable `var`, or
/// `default` when it is unset or holds no number.
pub fn env_list(var: &str, default: &[usize]) -> Vec<usize> {
    let parsed: Vec<usize> = std::env::var(var)
        .map(|s| s.split(',').filter_map(|x| x.trim().parse().ok()).collect())
        .unwrap_or_default();
    if parsed.is_empty() {
        default.to_vec()
    } else {
        parsed
    }
}

/// Rank counts for sweeps: `MANA2_RANKS="2,4,8"` overrides; the default is
/// sized for a small container (the paper sweeps 32…2048 on Cori — shapes,
/// not absolute scale, are reproduced; see EXPERIMENTS.md).
pub fn rank_sweep() -> Vec<usize> {
    env_list("MANA2_RANKS", &[2, 4, 8, 16, 32])
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

/// Where the experiments binary writes machine-readable JSON artifacts:
/// `MANA2_JSON_DIR` if set, else `<temp>/mana2_experiments`. The text
/// tables stay the human interface; the JSON files are the same numbers
/// for scripts.
pub fn json_out_dir() -> PathBuf {
    match std::env::var_os("MANA2_JSON_DIR") {
        Some(d) => PathBuf::from(d),
        None => std::env::temp_dir().join("mana2_experiments"),
    }
}

/// Write one experiment's JSON artifact as `<json_out_dir>/<name>.json`,
/// returning the path. Best effort: an unwritable artifact dir must not
/// fail the experiment, so errors are reported to stderr and swallowed.
pub fn write_json_artifact(name: &str, json: &str) -> Option<PathBuf> {
    let dir = json_out_dir();
    if let Err(e) = std::fs::create_dir_all(&dir) {
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

    #[test]
    fn rank_sweep_default_ascending() {
        let v = rank_sweep();
        assert!(!v.is_empty());
        assert!(v.windows(2).all(|w| w[0] < w[1]));
    }
}
