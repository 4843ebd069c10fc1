//! Source-level guard: everything that runs on a face — the three kernels
//! and the §III-E / §III-J scenario patterns alike — is a
//! `workloads::Kernel` run through `workloads::{native, under_mana}`.
//! Outside `crates/workloads/src` (and `benchmark/`, a package of its own)
//! no file constructs a face; a closure that needs one belongs in
//! `workloads` as a kernel.

use std::path::Path;

fn scan(root: &Path, dir: &Path, found: &mut Vec<String>) {
    let needles = [
        concat!("NativeFace::", "new("),
        concat!("ManaFace::", "new("),
    ];
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        let rel = path.strip_prefix(root).unwrap().to_string_lossy();
        if path.is_dir() {
            if rel != "crates/workloads/src" && !rel.ends_with("target") {
                scan(root, &path, found);
            }
        } else if rel.ends_with(".rs") {
            let text = std::fs::read_to_string(&path).unwrap();
            if needles.iter().any(|n| text.contains(n)) {
                found.push(rel.into_owned());
            }
        }
    }
}

#[test]
fn faces_are_constructed_only_by_the_runner() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let root = root.canonicalize().unwrap();
    let mut found = Vec::new();
    for top in ["crates", "tests", "examples", "src"] {
        scan(&root, &root.join(top), &mut found);
    }
    assert!(
        found.is_empty(),
        "make these closures kernels and run them through workloads::native / under_mana: {found:?}"
    );
}
