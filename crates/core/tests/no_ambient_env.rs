//! Source-level guard: the libraries take configuration by value. The
//! process environment is read by `mana_core::env` (one function, at the
//! edge) and by binaries and test code — nowhere else in `mpisim`, `obs`,
//! `splitproc` or `mana-core`; and nothing in `mana-bench` mutates it.

use std::path::{Path, PathBuf};

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display())) {
        let path = entry.unwrap().path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// `path:line: text` for every line under `crates/<krate>/src` holding one
/// of `needles`. With `library_only`, `bin/` and `core/src/env.rs` are
/// skipped and each file is read up to its first `#[cfg(test)]`: these
/// crates keep test-only items (the `tests` module, test helpers) after
/// all library code.
fn offenders(krate: &str, needles: &[&str], library_only: bool) -> Vec<String> {
    let src = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join(krate)
        .join("src");
    let mut files = Vec::new();
    rust_files(&src, &mut files);
    assert!(!files.is_empty(), "no sources under {}", src.display());
    let mut found = Vec::new();
    for f in files {
        let rel = f.strip_prefix(&src).unwrap();
        let skipped = rel.starts_with("bin") || (krate == "core" && rel == Path::new("env.rs"));
        if library_only && skipped {
            continue;
        }
        let text = std::fs::read_to_string(&f).unwrap();
        found.extend(
            text.lines()
                .enumerate()
                .take_while(|(_, l)| !(library_only && l.trim_start().starts_with("#[cfg(test)]")))
                .filter(|(_, l)| needles.iter().any(|n| l.contains(n)))
                .map(|(i, l)| format!("{}:{}: {}", f.display(), i + 1, l.trim())),
        );
    }
    found
}

#[test]
fn libraries_do_not_read_the_environment() {
    let needles = ["env::var", "env::vars", "set_var", "remove_var"];
    let found: Vec<String> = ["mpisim", "obs", "splitproc", "core"]
        .iter()
        .flat_map(|k| offenders(k, &needles, true))
        .collect();
    assert!(
        found.is_empty(),
        "route these through mana_core::from_env():\n{}",
        found.join("\n")
    );
}

#[test]
fn bench_harness_never_mutates_the_environment() {
    let found = offenders("bench", &["set_var", "remove_var"], false);
    assert!(found.is_empty(), "{}", found.join("\n"));
}
