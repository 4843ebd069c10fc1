//! Source-level guard: the checkpoint store reaches the disk through
//! `Blobs` and nowhere else. Library code of `splitproc` (each file up to
//! its first `#[cfg(test)]`) and `bin/mana2-inspect.rs`, the tool that
//! reads stores, may name `fs::`, `File::` or `OpenOptions` only in the
//! files listed here. `mana2-trace` and `mana2-metrics` stay outside: they
//! read dump files named on their command line, not a store.

use std::path::Path;

/// Files allowed to touch the filesystem directly.
const DIRECT_FS: &[&str] = &[
    // `LocalFs`, the one real `Blobs` backend (and `FaultyBlobs`, which
    // damages files through its inner backend, not through `fs`).
    "blobs.rs",
];

#[test]
fn store_reaches_the_disk_only_through_blobs() {
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
    let mut seen = 0;
    let mut found = Vec::new();
    let files = std::fs::read_dir(&src).unwrap().map(|e| e.unwrap().path());
    for path in files.chain([src.join("bin/mana2-inspect.rs")]) {
        let name = path
            .strip_prefix(&src)
            .unwrap()
            .to_string_lossy()
            .into_owned();
        if !name.ends_with(".rs") || DIRECT_FS.contains(&name.as_str()) {
            continue;
        }
        seen += 1;
        let text = std::fs::read_to_string(&path).unwrap();
        found.extend(
            text.lines()
                .enumerate()
                .take_while(|(_, l)| !l.trim_start().starts_with("#[cfg(test)]"))
                .filter(|(_, l)| {
                    ["fs::", "File::", "OpenOptions"]
                        .iter()
                        .any(|n| l.contains(n))
                })
                .map(|(i, l)| format!("{name}:{}: {}", i + 1, l.trim())),
        );
    }
    assert!(
        seen >= 9,
        "expected splitproc's sources under {}",
        src.display()
    );
    assert!(
        found.is_empty(),
        "route these through splitproc::blobs::Blobs:\n{}",
        found.join("\n")
    );
}
