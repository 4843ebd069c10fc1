//! Source-level guard: every actor records through one total
//! `obs::Telemetry` handle. Library code of `mana-core` and `splitproc`
//! (each file up to its first `#[cfg(test)]`) holds no optional recorder
//! or meter, tests no handle for presence before recording, and has no
//! per-type forwarding helpers — the "is anyone listening" branch lives
//! inside `obs`.

use std::path::Path;

/// Spellings of the pattern the handle replaced.
fn offends(line: &str) -> bool {
    let squeezed: String = line.split_whitespace().collect();
    let optional_handle = ["Recorder>", "Meter>", "Telemetry>"]
        .iter()
        .any(|t| squeezed.contains("Option<") && squeezed.contains(t));
    let presence_test = squeezed.contains("ifletSome(")
        && [".rec{", ".meter{", ".tel{", "&rec{", "&meter{", "&tel{"]
            .iter()
            .any(|t| squeezed.contains(t));
    optional_handle
        || presence_test
        || squeezed.contains("m_add(")
        || squeezed.contains("m_observe(")
}

#[test]
fn telemetry_is_recorded_through_the_handle_without_guards() {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let mut seen = 0;
    let mut found = Vec::new();
    for krate in ["core", "splitproc"] {
        let src = crates.join(krate).join("src");
        for entry in std::fs::read_dir(&src).unwrap() {
            let path = entry.unwrap().path();
            if path.extension().is_none_or(|e| e != "rs") {
                continue;
            }
            seen += 1;
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            let text = std::fs::read_to_string(&path).unwrap();
            found.extend(
                text.lines()
                    .enumerate()
                    .take_while(|(_, l)| !l.trim_start().starts_with("#[cfg(test)]"))
                    .filter(|(_, l)| offends(l))
                    .map(|(i, l)| format!("{krate}/src/{name}:{}: {}", i + 1, l.trim())),
            );
        }
    }
    assert!(seen >= 30, "expected the two crates' sources, saw {seen}");
    assert!(
        found.is_empty(),
        "record through obs::Telemetry, unconditionally:\n{}",
        found.join("\n")
    );
}

#[test]
fn the_guard_recognises_what_it_forbids() {
    for bad in [
        "    rec: Option<obs::Recorder>,",
        "    meter: Option<met::Meter>,",
        "        rec: &Option<obs::Recorder>,",
        "        if let Some(r) = &self.rec {",
        "            if let Some(m) = &meter {",
        "        if let Some( r ) = &m.rec {",
        "        self.m_add(met::FAULTS_FIRED, 1);",
        "        m.m_observe(met::DRAIN_SWEEP_NS, ns);",
    ] {
        assert!(offends(bad), "guard misses: {bad}");
    }
    for fine in [
        "    pub(crate) tel: obs::Telemetry,",
        "        if self.tel.tracing() {",
        "        if let Some(span) = commit {",
        "    pub metrics: Option<Arc<MetricsRegistry>>,",
    ] {
        assert!(!offends(fine), "guard trips on: {fine}");
    }
}
