//! The one place the libraries meet the process environment.
//!
//! `mpisim`, `obs`, `splitproc` and this crate take their configuration
//! by value; their `Default`s are pure. A binary, example or test harness
//! that wants the `MANA2_*` variables to steer a run calls [`from_env`]
//! once, at its edge, and passes the result down. It reads
//! `MANA2_ENGINE`, `MANA2_DRAIN`, `MANA2_STORE`, `MANA2_TRACE_DIR` and
//! `MANA2_METRICS_DIR` (accepted values: README, "Configuration").
//!
//! Anything else is a [`ConfigError`] naming the variable and the value —
//! never a warning followed by a different protocol, layout or engine. So
//! is any other `MANA2_*` variable but `MANA2_TRACE` (the chaos harness
//! reads that one): a misspelt name would otherwise be ignored.

use crate::config::{DrainMode, ManaConfig};
use crate::runtime::{ManaRuntime, Outputs};
use mpisim::{EngineKind, Named, WorldCfg};
use splitproc::StoreMode;
use std::collections::BTreeMap;
use std::ffi::OsString;
use std::fmt;
use std::path::PathBuf;

/// A `MANA2_*` variable holds a value [`from_env`] cannot use.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    /// The variable.
    pub var: &'static str,
    /// Its value as found (lossily decoded if it was not UTF-8).
    pub value: String,
    /// What would have been accepted.
    pub expected: String,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}={:?} is not valid: expected {}",
            self.var, self.value, self.expected
        )
    }
}

impl std::error::Error for ConfigError {}

/// What the environment resolved to: the two configurations to build runs
/// from (spread them with `..env.mana.clone()` / `..env.world.clone()`)
/// and where a run's diagnostics land.
#[derive(Debug, Clone)]
pub struct EnvConfig {
    /// [`ManaConfig::default`] with `MANA2_DRAIN` / `MANA2_STORE` applied.
    pub mana: ManaConfig,
    /// [`WorldCfg::default`] with `MANA2_ENGINE` applied.
    pub world: WorldCfg,
    /// `MANA2_TRACE_DIR`, `MANA2_METRICS_DIR`.
    pub outputs: Outputs,
}

impl EnvConfig {
    /// A runtime for `n` ranks of `cfg` under this environment's engine
    /// and outputs.
    pub fn runtime(&self, n: usize, cfg: ManaConfig) -> ManaRuntime {
        ManaRuntime::new(n, cfg)
            .with_world_cfg(self.world.clone())
            .with_outputs(self.outputs.clone())
    }
}

/// Every `MANA2_*` name a process may set: the five [`from_env`] reads,
/// and `MANA2_TRACE`, which the chaos harness reads.
const ACCEPTED: [&str; 6] = [
    "MANA2_ENGINE",
    "MANA2_DRAIN",
    "MANA2_STORE",
    "MANA2_TRACE_DIR",
    "MANA2_METRICS_DIR",
    "MANA2_TRACE",
];

/// Read the five `MANA2_*` configuration variables from the process
/// environment. Unset variables leave the pure defaults; a `MANA2_*`
/// name outside them and `MANA2_TRACE` is an error.
pub fn from_env() -> Result<EnvConfig, ConfigError> {
    from_vars(std::env::vars_os())
}

/// [`from_env`] over an injected list of variables (tests pass a list
/// instead of mutating the process environment).
fn from_vars<K: Into<OsString>, V: Into<OsString>>(
    vars: impl IntoIterator<Item = (K, V)>,
) -> Result<EnvConfig, ConfigError> {
    let vars: BTreeMap<OsString, OsString> = vars
        .into_iter()
        .map(|(k, v)| (k.into(), v.into()))
        .collect();
    for name in vars.keys().map(|k| k.to_string_lossy()) {
        if name.starts_with("MANA2_") && !ACCEPTED.contains(&&*name) {
            return Err(ConfigError {
                var: "MANA2_*",
                value: name.into_owned(),
                expected: ACCEPTED.join(" | "),
            });
        }
    }
    let get = |var: &str| vars.get(std::ffi::OsStr::new(var)).cloned();
    let dir = |var: &'static str| match get(var) {
        Some(os) if os.is_empty() => Err(ConfigError {
            var,
            value: String::new(),
            expected: "a directory path".into(),
        }),
        other => Ok(other.map(PathBuf::from)),
    };
    let mut mana = ManaConfig::default();
    let mut world = WorldCfg::default();
    let mut outputs = Outputs::default();
    if let Some(engine) = knob(
        get,
        "MANA2_ENGINE",
        EngineKind::SPELLINGS,
        EngineKind::parse,
    )? {
        world.engine = engine;
    }
    let drains = DrainMode::names(" | ");
    if let Some(drain) = knob(get, "MANA2_DRAIN", &drains, DrainMode::parse)? {
        mana.drain = drain;
    }
    let layouts = StoreMode::names(" | ");
    if let Some(mode) = knob(get, "MANA2_STORE", &layouts, StoreMode::parse)? {
        mana.store.mode = mode;
    }
    if let Some(d) = dir("MANA2_TRACE_DIR")? {
        outputs.trace_dir = d;
    }
    outputs.metrics_dir = dir("MANA2_METRICS_DIR")?;
    Ok(EnvConfig {
        mana,
        world,
        outputs,
    })
}

/// Parse one enumerated variable `var` of `get`: unset is `None`; set
/// must be UTF-8 that `parse` accepts.
fn knob<T>(
    get: impl Fn(&str) -> Option<OsString>,
    var: &'static str,
    expected: &str,
    parse: impl Fn(&str) -> Option<T>,
) -> Result<Option<T>, ConfigError> {
    let Some(os) = get(var) else {
        return Ok(None);
    };
    match os.to_str().and_then(parse) {
        Some(v) => Ok(Some(v)),
        None => Err(ConfigError {
            var,
            value: os.to_string_lossy().into_owned(),
            expected: expected.into(),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpisim::CoopCfg;

    fn with(vars: &[(&str, &str)]) -> Result<EnvConfig, ConfigError> {
        from_vars(vars.iter().copied())
    }

    #[test]
    fn empty_environment_is_exactly_the_defaults() {
        let env = with(&[]).unwrap();
        // Neither config is `PartialEq` (both can hold trait objects);
        // their `Debug` output names every field.
        let dbg = |v: &dyn fmt::Debug| format!("{v:?}");
        assert_eq!(dbg(&env.mana), dbg(&ManaConfig::default()));
        assert_eq!(dbg(&env.world), dbg(&WorldCfg::default()));
        assert_eq!(env.outputs, Outputs::default());
        assert_eq!(env.world.engine, EngineKind::Coop(CoopCfg::default()));
        assert_eq!(env.mana.drain, DrainMode::Alltoall);
        assert_eq!(env.mana.store.mode, StoreMode::Flat);
    }

    #[test]
    fn every_accepted_spelling_resolves() {
        let coop = |workers, sched_seed| {
            EngineKind::Coop(CoopCfg {
                workers,
                sched_seed,
            })
        };
        for (spec, want) in [
            ("coop", coop(0, 0)),
            (" Coop:auto ", coop(0, 0)),
            ("coop:auto:7", coop(0, 7)),
            ("COOP:4", coop(4, 0)),
            ("coop:2:20260806", coop(2, 20260806)),
        ] {
            let env = with(&[("MANA2_ENGINE", spec)]).unwrap();
            assert_eq!(env.world.engine, want, "{spec:?}");
        }
        for (spec, want) in [
            ("alltoall", DrainMode::Alltoall),
            ("Coordinator", DrainMode::Coordinator),
            (" toposort ", DrainMode::TopoSort),
        ] {
            let env = with(&[("MANA2_DRAIN", spec)]).unwrap();
            assert_eq!(env.mana.drain, want, "{spec:?}");
        }
        for (spec, want) in [("flat", StoreMode::Flat), ("CHUNKED", StoreMode::Chunked)] {
            let env = with(&[("MANA2_STORE", spec)]).unwrap();
            assert_eq!(env.mana.store.mode, want, "{spec:?}");
            // Only the layout moves; the retry policy stays the default.
            assert_eq!(
                env.mana.store.retry_attempts,
                splitproc::StoreConfig::default().retry_attempts
            );
        }
        let env = with(&[
            ("MANA2_TRACE_DIR", "/tmp/t"),
            ("MANA2_METRICS_DIR", "/tmp/m"),
        ])
        .unwrap();
        let want = Outputs {
            trace_dir: PathBuf::from("/tmp/t"),
            metrics_dir: Some(PathBuf::from("/tmp/m")),
        };
        assert_eq!(env.outputs, want);
    }

    #[test]
    fn a_misspelt_name_is_refused_with_the_accepted_names() {
        let err = with(&[("MANA2_DRIAN", "toposort")]).unwrap_err();
        assert_eq!(err.value, "MANA2_DRIAN");
        let msg = err.to_string();
        assert!(msg.contains("MANA2_DRIAN"), "{msg}");
        for name in ACCEPTED {
            assert!(msg.contains(name), "{msg}");
        }
        // Only the `MANA2_` prefix is ours; other variables pass.
        with(&[("MANA2", "1"), ("CHAOS_CASE", "x"), ("PATH", "/bin")]).unwrap();
    }

    #[test]
    fn the_retired_interval_name_is_refused() {
        let err = with(&[
            ("MANA2_METRICS_DIR", "/tmp/m"),
            ("MANA2_METRICS_INTERVAL_MS", "50"),
        ])
        .unwrap_err();
        assert_eq!(err.value, "MANA2_METRICS_INTERVAL_MS");
    }

    #[test]
    fn every_accepted_name_passes() {
        let vars = [
            ("MANA2_ENGINE", "coop:2:20260806"),
            ("MANA2_DRAIN", "toposort"),
            ("MANA2_STORE", "chunked"),
            ("MANA2_TRACE_DIR", "/tmp/t"),
            ("MANA2_METRICS_DIR", "/tmp/m"),
            ("MANA2_TRACE", "1"),
        ];
        assert_eq!(vars.map(|(name, _)| name), ACCEPTED);
        let env = with(&vars).unwrap();
        assert_eq!(env.mana.drain, DrainMode::TopoSort);
    }

    #[test]
    fn unusable_values_are_errors_naming_variable_and_value() {
        for (var, value) in [
            ("MANA2_DRAIN", "topsort"),
            ("MANA2_DRAIN", ""),
            ("MANA2_STORE", "chunk"),
            ("MANA2_ENGINE", "coop:0"),
            ("MANA2_ENGINE", "thread"),
            ("MANA2_ENGINE", "fiber"),
            ("MANA2_ENGINE", "coop:2:x"),
            ("MANA2_METRICS_DIR", ""),
            ("MANA2_TRACE_DIR", ""),
        ] {
            let err = with(&[(var, value)]).expect_err(&format!("{var}={value:?}"));
            assert_eq!((err.var, err.value.as_str()), (var, value));
            let msg = err.to_string();
            assert!(
                msg.contains(var) && msg.contains(&format!("{value:?}")),
                "{msg}"
            );
        }
        // The retired thread engine is refused with the accepted forms.
        let err = with(&[("MANA2_ENGINE", "thread")]).unwrap_err();
        assert!(err.to_string().contains("coop:<workers>:<seed>"), "{err}");
    }

    #[cfg(unix)]
    #[test]
    fn non_utf8_values_are_errors_for_knobs_and_kept_for_paths() {
        use std::os::unix::ffi::OsStringExt;
        let bad = OsString::from_vec(vec![b'a', 0xFF]);
        let err = from_vars([("MANA2_DRAIN", bad.clone())]).unwrap_err();
        assert_eq!(err.var, "MANA2_DRAIN");
        let env = from_vars([("MANA2_TRACE_DIR", bad.clone())]).unwrap();
        assert_eq!(env.outputs.trace_dir, PathBuf::from(bad));
    }
}
