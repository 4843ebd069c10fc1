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
use std::ffi::OsString;
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

/// The `experiments` binary's sizing variables, read once at its edge
/// beside [`env_or_exit`]. Unset means the default; a value that does not
/// parse is a [`ConfigError`], never the default in disguise.
#[derive(Debug, Clone, PartialEq)]
pub struct Knobs {
    /// `MANA2_SCALE`: workload-size multiplier.
    pub scale: f64,
    /// `MANA2_RANKS`: rank counts of the `fig2` / `fig3` / `fig4` sweeps,
    /// sized for a small container (the paper sweeps 32…2048 on Cori —
    /// shapes, not absolute scale, are reproduced; see EXPERIMENTS.md).
    pub ranks: Vec<usize>,
    /// `MANA2_SCALE_RANKS`: rank counts of `scale` and `drain`.
    pub scale_ranks: Vec<usize>,
    /// `MANA2_DRAIN_INFLIGHT`: per-rank in-flight message counts of
    /// `drain`.
    pub drain_inflight: Vec<usize>,
}

impl Default for Knobs {
    fn default() -> Self {
        Knobs {
            scale: 1.0,
            ranks: vec![2, 4, 8, 16, 32],
            scale_ranks: vec![64, 256, 1024, 4096],
            drain_inflight: vec![4, 64],
        }
    }
}

/// [`Knobs`] from the process environment; a malformed value ends the
/// process (status 2) before anything runs.
pub fn knobs_or_exit() -> Knobs {
    knobs_from_lookup(|var| std::env::var_os(var)).unwrap_or_else(|e| {
        eprintln!("mana2: {e}");
        std::process::exit(2);
    })
}

/// [`Knobs`] over an injected lookup, as `mana_core`'s `from_lookup`
/// reads the run configuration.
pub fn knobs_from_lookup(get: impl Fn(&str) -> Option<OsString>) -> Result<Knobs, ConfigError> {
    let bad = |var, value, expected| ConfigError {
        var,
        value,
        expected,
    };
    // The value as found, if set (a non-UTF-8 one is already wrong).
    let raw = |var: &'static str, expected| match get(var).map(OsString::into_string) {
        None => Ok(None),
        Some(Ok(s)) => Ok(Some(s)),
        Some(Err(os)) => Err(bad(var, os.to_string_lossy().into_owned(), expected)),
    };
    let mut k = Knobs::default();
    const SCALE: &str = "a positive number";
    if let Some(s) = raw("MANA2_SCALE", SCALE)? {
        match s.trim().parse::<f64>() {
            Ok(x) if x.is_finite() && x > 0.0 => k.scale = x,
            _ => return Err(bad("MANA2_SCALE", s, SCALE)),
        }
    }
    const LIST: &str = "a comma-separated list of positive integers";
    for (var, slot) in [
        ("MANA2_RANKS", &mut k.ranks),
        ("MANA2_SCALE_RANKS", &mut k.scale_ranks),
        ("MANA2_DRAIN_INFLIGHT", &mut k.drain_inflight),
    ] {
        if let Some(s) = raw(var, LIST)? {
            let list: Option<Vec<usize>> = s
                .split(',')
                .map(|x| x.trim().parse().ok().filter(|&n| n > 0))
                .collect();
            *slot = list.ok_or_else(|| bad(var, s, LIST))?;
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

    fn knobs(vars: &[(&str, &str)]) -> Result<Knobs, ConfigError> {
        knobs_from_lookup(|k| {
            let found = vars.iter().find(|(name, _)| *name == k);
            found.map(|(_, v)| OsString::from(v))
        })
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
    fn knobs_parse_or_name_the_variable_and_value() {
        let k = knobs(&[("MANA2_SCALE", "0.5"), ("MANA2_SCALE_RANKS", " 64, 128 ")]).unwrap();
        assert_eq!((k.scale, k.scale_ranks), (0.5, vec![64, 128]));
        // A typo used to run the default sweep (4096 ranks for this one).
        let cases = [
            ("MANA2_SCALE_RANKS", "64;256"),
            ("MANA2_SCALE_RANKS", "64x"),
            ("MANA2_RANKS", ""),
            ("MANA2_RANKS", "2,,4"),
            ("MANA2_DRAIN_INFLIGHT", "0"),
            ("MANA2_SCALE", "half"),
            ("MANA2_SCALE", "-1"),
        ];
        for (var, value) in cases {
            let e = knobs(&[(var, value)]).unwrap_err();
            assert_eq!((e.var, e.value.as_str()), (var, value));
            let shown = e.to_string();
            assert!(shown.starts_with(&format!("{var}=")), "{shown}");
            assert!(shown.contains("expected"), "{shown}");
        }
    }
}
