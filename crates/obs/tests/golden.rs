//! Golden-output test: the committed fixture trace must render to the
//! committed summary byte-for-byte, and must pass the structural checker.
//!
//! If an intentional analyzer change breaks this test, regenerate the
//! golden file with
//! `cargo run -p splitproc --bin mana2-trace -- crates/obs/tests/fixtures/round.jsonl`.

use obs::analyze::{check, render_summary};
use obs::parse_jsonl;

fn fixture(name: &str) -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

#[test]
fn fixture_renders_to_golden_summary() {
    let text = fixture("round.jsonl");
    let (meta, events) = parse_jsonl(&text).expect("fixture parses");
    assert_eq!(meta.label, "fixture_round");
    assert_eq!(meta.ranks, 2);
    assert_eq!(meta.seed, Some(42));
    assert_eq!(meta.config.0.len(), 9);
    assert_eq!(events.len(), 40);

    // The golden file is the binary's stdout, i.e. the summary plus the
    // trailing newline `writeln!` appends.
    let rendered = format!("{}\n", render_summary(&meta, &events));
    let golden = fixture("round.summary.txt");
    assert_eq!(
        rendered, golden,
        "render_summary output drifted from the golden fixture; \
         regenerate round.summary.txt if the change is intentional"
    );
}

#[test]
fn fixture_passes_structural_check() {
    let report = check(&fixture("round.jsonl")).expect("fixture is well-formed");
    assert_eq!(report.events, 40);
    assert_eq!(report.dropped, 0);
    assert!(report.spans > 0);
}
