//! README.md, DESIGN.md and EXPERIMENTS.md name only things that exist.
//!
//! Every backticked span (inline code and fenced blocks) is checked
//! against its source of truth:
//!
//! - a `*.rs` path must be a file of the tree (a bare name, some file of
//!   that name; a path with `/`, a file whose path ends with it);
//! - a span that is a whole `mana2_*` name (`*`, `<…>` and `{a,b}` match
//!   any, one of) must match an `obs::metrics::standard_defs()` name;
//! - a `MANA2_*` / `CHAOS_*` name must be read somewhere in code (a string
//!   literal in a library or binary source, outside its tests);
//! - a test must exist: `cargo test` commands (`--test <target>`, and each
//!   filter as cargo applies it: a substring of a test's path, the whole
//!   path under `--exact`), spans of the form `<target>::<test>` or
//!   `<module>::tests::<test>`, and spans the prose calls a test ("test
//!   `x`", "tests `x`, `y`", "`x` test").
//!
//! A failure names `doc:line` and what is missing.

use mana2::mana_core::obs::metrics::standard_defs;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

const DOCS: [&str; 3] = ["README.md", "DESIGN.md", "EXPERIMENTS.md"];

/// What the tree holds: every `.rs` file, the env names code reads, and
/// every `#[test]` function as the paths cargo's filter sees.
struct Tree {
    /// Repo-relative `.rs` paths.
    files: Vec<String>,
    /// `MANA2_*` / `CHAOS_*` names in string literals of the workspace's
    /// `src/` files, ahead of their `#[cfg(test)]` module.
    env: BTreeSet<String>,
    /// Integration-test target names (`<crate>/tests/<target>.rs`).
    targets: BTreeSet<String>,
    /// `(target, path)`: a test's path inside its test binary, with its
    /// target (`None` for a library's unit tests).
    tests: Vec<(Option<String>, String)>,
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        if path.is_dir() {
            if name != "target" && name != ".git" {
                walk(&path, out);
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// The module path a source file's items live under (`a/b.rs` → `a::b`;
/// `lib.rs`, `main.rs` and test targets → empty).
fn module_path(rel: &str) -> String {
    let Some((_, inner)) = rel
        .rsplit_once("/src/")
        .or(rel.strip_prefix("src/").map(|r| ("", r)))
    else {
        return String::new();
    };
    let inner = inner.trim_end_matches(".rs").trim_end_matches("/mod");
    if inner == "lib" || inner == "main" || inner.starts_with("bin/") {
        return String::new();
    }
    inner.replace('/', "::")
}

/// `MANA2_X` / `CHAOS_X` at the start of each string literal of `text`.
fn env_literals(text: &str, out: &mut BTreeSet<String>) {
    for prefix in ["\"MANA2_", "\"CHAOS_"] {
        for (at, _) in text.match_indices(prefix) {
            let rest = &text[at + 1..];
            let end = rest
                .find(|c: char| !(c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_'))
                .unwrap_or(rest.len());
            let name = rest[..end].trim_end_matches('_');
            if name.len() > prefix.len() - 1 {
                out.insert(name.to_string());
            }
        }
    }
}

impl Tree {
    fn scan(root: &Path) -> Tree {
        let mut paths = Vec::new();
        for dir in ["src", "tests", "examples", "crates", "benchmark"] {
            walk(&root.join(dir), &mut paths);
        }
        let mut tree = Tree {
            files: Vec::new(),
            env: BTreeSet::new(),
            targets: BTreeSet::new(),
            tests: Vec::new(),
        };
        for path in paths {
            let rel = path
                .strip_prefix(root)
                .unwrap()
                .to_string_lossy()
                .into_owned();
            let text = std::fs::read_to_string(&path).unwrap_or_default();
            let target = rel
                .rsplit_once("tests/")
                .filter(|(_, stem)| !stem.contains('/'))
                .map(|(_, stem)| stem.trim_end_matches(".rs").to_string());
            if rel.starts_with("src/") || rel.starts_with("crates/") && rel.contains("/src/") {
                let code = text.split("#[cfg(test)]").next().unwrap_or("");
                env_literals(code, &mut tree.env);
            }
            if let Some(t) = &target {
                tree.targets.insert(t.clone());
            }
            let mut module = module_path(&rel);
            let mut armed = false;
            for line in text.lines().map(str::trim) {
                if line == "mod tests {" {
                    module = [module.as_str(), "tests"]
                        .iter()
                        .filter(|s| !s.is_empty())
                        .copied()
                        .collect::<Vec<_>>()
                        .join("::");
                }
                if line.starts_with("#[test]") {
                    armed = true;
                } else if armed && line.starts_with("fn ") {
                    let name = &line[3..line.find('(').unwrap_or(line.len())];
                    let path = match module.as_str() {
                        "" => name.to_string(),
                        m => format!("{m}::{name}"),
                    };
                    tree.tests.push((target.clone(), path));
                    armed = false;
                }
            }
            tree.files.push(rel);
        }
        tree
    }

    fn has_file(&self, name: &str) -> bool {
        let name = name.trim_start_matches("./");
        self.files.iter().any(|f| {
            if name.contains('/') {
                f == name || f.ends_with(&format!("/{name}"))
            } else {
                f.rsplit('/').next() == Some(name)
            }
        })
    }

    /// Does a cargo test filter select anything (in `target`, if given)?
    fn filter_matches(&self, target: Option<&str>, filter: &str, exact: bool) -> bool {
        self.tests.iter().any(|(t, path)| {
            (target.is_none() || t.as_deref() == target)
                && if exact {
                    path == filter
                } else {
                    path.contains(filter)
                }
        })
    }
}

/// Glob match: `*` and `<…>` match any run of characters, `{a,b}` one of
/// the alternatives.
fn glob(pattern: &str, name: &str) -> bool {
    if let Some(rest) = pattern.strip_prefix('*') {
        return (0..=name.len()).any(|i| name.is_char_boundary(i) && glob(rest, &name[i..]));
    }
    if pattern.starts_with('<') {
        if let Some(end) = pattern.find('>') {
            return glob(&format!("*{}", &pattern[end + 1..]), name);
        }
    }
    if let Some(body) = pattern.strip_prefix('{') {
        if let Some(end) = body.find('}') {
            let rest = &body[end + 1..];
            return body[..end]
                .split(',')
                .any(|alt| glob(&format!("{alt}{rest}"), name));
        }
    }
    match (pattern.chars().next(), name.chars().next()) {
        (None, None) => true,
        (Some(p), Some(n)) if p == n => glob(&pattern[p.len_utf8()..], &name[n.len_utf8()..]),
        _ => false,
    }
}

/// One backticked span of a doc: its text and the line it starts on.
struct Span {
    line: usize,
    text: String,
    fenced: bool,
    /// Prose just before and after an inline span, on its own lines.
    before: String,
    after: String,
}

/// Inline code spans (which may wrap lines but not paragraphs) and the
/// commands of fenced blocks.
fn spans(doc: &str) -> Vec<Span> {
    let lines: Vec<&str> = doc.lines().collect();
    let mut out = Vec::new();
    let mut i = 0;
    while i < lines.len() {
        if lines[i].trim_start().starts_with("```") {
            // One span per command: a line, with its `\` continuations.
            i += 1;
            while i < lines.len() && !lines[i].trim_start().starts_with("```") {
                let start = i;
                let mut text = String::new();
                while lines[i].ends_with('\\') && i + 1 < lines.len() {
                    text.push_str(lines[i].trim_end_matches('\\'));
                    i += 1;
                }
                text.push_str(lines[i]);
                out.push(Span {
                    line: start + 1,
                    text,
                    fenced: true,
                    before: String::new(),
                    after: String::new(),
                });
                i += 1;
            }
            i += 1;
            continue;
        }
        // One paragraph of prose.
        let start = i;
        while i < lines.len()
            && !lines[i].trim().is_empty()
            && !lines[i].trim_start().starts_with("```")
        {
            i += 1;
        }
        let para = lines[start..i].join("\n");
        let ticks: Vec<usize> = para.match_indices('`').map(|(at, _)| at).collect();
        for pair in ticks.chunks_exact(2) {
            let (open, close) = (pair[0], pair[1]);
            let line_start = para[..open].rfind('\n').map_or(0, |n| n + 1);
            let line_end = para[close..].find('\n').map_or(para.len(), |n| close + n);
            out.push(Span {
                line: start + 1 + para[..open].matches('\n').count(),
                text: para[open + 1..close].replace('\n', " "),
                fenced: false,
                before: para[line_start..open].to_string(),
                after: para[close + 1..line_end].to_string(),
            });
        }
        if i == start {
            i += 1;
        }
    }
    out
}

/// Every test a `cargo test` command line names: `(target, filter,
/// exact)`, with `filter` empty when the command names only a target.
fn cargo_tests(text: &str) -> Vec<(Option<String>, String, bool)> {
    let mut out = Vec::new();
    for line in text.lines() {
        let Some((_, cmd)) = line.split_once("cargo test") else {
            continue;
        };
        let cmd = cmd.split(['#', '|', ';', '&']).next().unwrap_or("");
        let tokens: Vec<&str> = cmd.split_whitespace().collect();
        let exact = tokens.contains(&"--exact");
        let (mut target, mut filters) = (None, Vec::new());
        let mut k = 0;
        while k < tokens.len() {
            let t = tokens[k];
            match t {
                "-p" | "--package" | "--bench" | "--example" | "--bin" | "--features"
                | "--manifest-path" | "-j" | "--test-threads" | "--skip" => k += 1,
                "--test" => {
                    target = tokens.get(k + 1).map(|s| s.to_string());
                    k += 1;
                }
                _ if t.starts_with('-') => {}
                _ if t.contains(['<', '…', '*', '$', '\'', '"', '=']) => {}
                _ => filters.push(t.trim_end_matches(['.', ',', ')']).to_string()),
            }
            k += 1;
        }
        if filters.is_empty() {
            filters.push(String::new());
        }
        out.extend(filters.into_iter().map(|f| (target.clone(), f, exact)));
    }
    out
}

fn is_ident_path(s: &str) -> bool {
    !s.is_empty()
        && s.split("::").all(|seg| {
            !seg.is_empty()
                && seg
                    .chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
        })
}

fn check_doc(tree: &Tree, metrics: &[&str], doc: &str, text: &str) -> Vec<String> {
    let mut bad = Vec::new();
    let mut prev_was_test = false;
    let mut prev_line = 0;
    for span in spans(text) {
        let at = format!("{doc}:{}", span.line);
        let body = span.text.as_str();
        // Paths.
        for token in body.split(|c: char| c.is_whitespace() || "()[],;:'\"`=".contains(c)) {
            if token.ends_with(".rs") && !token.contains(['*', '<', '{']) && !tree.has_file(token) {
                bad.push(format!("{at}: no file `{token}`"));
            }
        }
        // Environment names.
        for prefix in ["MANA2_", "CHAOS_"] {
            for (i, _) in body.match_indices(prefix) {
                if i > 0 && body[..i].ends_with(|c: char| c.is_ascii_alphanumeric() || c == '_') {
                    continue;
                }
                let rest = &body[i..];
                let end = rest
                    .find(|c: char| !(c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_'))
                    .unwrap_or(rest.len());
                let name = rest[..end].trim_end_matches('_');
                if name.len() > prefix.len() && !tree.env.contains(name) {
                    bad.push(format!("{at}: no code reads `{name}`"));
                }
            }
        }
        // Cargo test commands.
        for (target, filter, exact) in cargo_tests(body) {
            if let Some(t) = &target {
                if !tree.targets.contains(t) {
                    bad.push(format!("{at}: no test target `{t}`"));
                    continue;
                }
            }
            if !filter.is_empty() && !tree.filter_matches(target.as_deref(), &filter, exact) {
                bad.push(format!(
                    "{at}: `cargo test` filter `{filter}` selects no test"
                ));
            }
        }
        if span.fenced {
            prev_was_test = false;
            continue;
        }
        // Metric names.
        let metric_like = body.starts_with("mana2_")
            && body
                .chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || "_<>*{},".contains(c));
        if metric_like && !metrics.iter().any(|m| glob(body, m)) {
            bad.push(format!("{at}: no metric `{body}`"));
        }
        // Qualified test paths.
        if is_ident_path(body) && body.contains("::") {
            let (first, rest) = body.split_once("::").unwrap();
            let found = if body.split("::").any(|s| s == "tests") {
                tree.filter_matches(None, body, false)
            } else if tree.targets.contains(first) && !rest.contains("::") {
                tree.filter_matches(Some(first), rest, true)
            } else {
                true
            };
            if !found {
                bad.push(format!("{at}: no test `{body}`"));
            }
        }
        // Spans the prose calls a test.
        let before = span.before.to_ascii_lowercase();
        let after = span.after.to_ascii_lowercase();
        let gap_continues = span.line == prev_line
            && [", ", " and ", ", and ", "; ", " or "]
                .iter()
                .any(|g| before.ends_with(&format!("`{g}")));
        let called_test = before.ends_with("test ")
            || before.ends_with("tests ")
            || (prev_was_test && gap_continues)
            || (after.starts_with(" test")
                && !after[5..].starts_with(|c: char| c.is_ascii_alphanumeric() || c == '_'));
        prev_was_test = called_test;
        prev_line = span.line;
        if called_test && is_ident_path(body) && !body.ends_with(".rs") {
            let known = tree.targets.contains(body) || tree.filter_matches(None, body, false);
            if !known {
                bad.push(format!("{at}: no test `{body}`"));
            }
        }
    }
    bad
}

#[test]
fn docs_name_only_things_that_exist() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let tree = Tree::scan(root);
    let defs = standard_defs();
    let metrics: Vec<&str> = defs.iter().map(|d| d.name).collect();
    let mut bad = Vec::new();
    for doc in DOCS {
        let text = std::fs::read_to_string(root.join(doc)).expect(doc);
        bad.extend(check_doc(&tree, &metrics, doc, &text));
    }
    assert!(
        bad.is_empty(),
        "docs name things that do not exist:\n{}",
        bad.join("\n")
    );
}

#[test]
fn each_class_of_missing_name_is_caught() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let tree = Tree::scan(root);
    assert!(tree.env.contains("MANA2_ENGINE") && tree.env.contains("CHAOS_CASE"));
    assert!(tree.filter_matches(Some("chaos_suite"), "case_replay", true));
    let metrics = ["mana2_round_latency_ns", "mana2_drain_alltoall_quiesce_ns"];
    let good = "See `crates/chaos/src/legs.rs`, `mana2_round_latency_ns`,\n\
                `mana2_drain_<strategy>_quiesce_ns`, `MANA2_ENGINE`, test `case_replay`,\n\
                `chaos_suite::case_replay` and `cargo test -p chaos --test chaos_suite case_replay`.\n";
    assert_eq!(
        check_doc(&tree, &metrics, "good", good),
        Vec::<String>::new()
    );
    for (doc, what) in [
        ("the file `crates/chaos/src/nowhere.rs`.", "no file"),
        ("the counter `mana2_rounds_vanished_total`.", "no metric"),
        ("set `CHAOS_NOWHERE=1`.", "no code reads"),
        ("run test `no_such_test_anywhere`.", "no test"),
        ("see `chaos_suite::no_such_case`.", "no test"),
        (
            "```\ncargo test -p chaos --test chaos_suite no_such_case\n```\n",
            "selects no test",
        ),
        (
            "`cargo test -p chaos --test no_such_suite`",
            "no test target",
        ),
    ] {
        let found = check_doc(&tree, &metrics, "planted", doc);
        assert!(
            found.len() == 1 && found[0].contains(what),
            "{doc:?}: {found:?}"
        );
    }
}
