//! `mana2-metrics --check` refuses a metrics sidecar whose histogram
//! fields are present but of the wrong type, instead of reading them as 0,
//! and `mana2-metrics --prom` prints exactly the Prometheus exposition of
//! a series' last snapshot.

use obs::metrics::{self as met, MetricsRegistry};
use obs::{ConfigRecord, JsonlHeader};
use std::path::Path;
use std::process::Command;

fn run(flag: &str, path: &Path) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_mana2-metrics"))
        .arg(flag)
        .arg(path)
        .output()
        .expect("run mana2-metrics")
}

fn check(path: &Path) -> (i32, String) {
    let out = run("--check", path);
    let text = format!(
        "{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    (out.status.code().unwrap_or(-1), text)
}

#[test]
fn check_refuses_a_sidecar_whose_histogram_sum_is_not_a_number() {
    let dir = std::env::temp_dir().join(format!("mana2_metrics_check_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    // A flight dump's sidecar: the final snapshot of a run that restarted.
    let reg = MetricsRegistry::deterministic(2);
    let restart = reg.id("mana2_restart_full_ns").expect("a standard metric");
    reg.observe(0, restart, 1_234_567);
    let head = JsonlHeader {
        label: "restart".into(),
        ranks: 2,
        seed: Some(7),
        config: ConfigRecord::default(),
    };
    let sidecar = dir.join("restart.metrics.json");
    let snap = reg.snapshot();
    met::write_snapshot_file(&sidecar, &head, &snap).unwrap();
    let (code, text) = check(&sidecar);
    assert_eq!(code, 0, "{text}");
    // No exporter writes Prometheus text; `--prom` renders it from a series.
    let prom = run("--prom", &sidecar);
    assert_eq!(prom.status.code(), Some(0));
    assert_eq!(
        String::from_utf8(prom.stdout).unwrap(),
        snap.render_prometheus()
    );

    let good = std::fs::read_to_string(&sidecar).unwrap();
    let entry = good.find("\"name\":\"mana2_restart_full_ns\"").unwrap();
    let (before, after) = good.split_at(entry);
    let edited = after.replacen("\"sum\":1234567", "\"sum\":\"oops\"", 1);
    assert_ne!(edited, after, "the entry's sum is where it was looked for");
    std::fs::write(&sidecar, format!("{before}{edited}")).unwrap();
    let (code, text) = check(&sidecar);
    assert_eq!(code, 1, "{text}");
    assert!(text.contains("FAIL"), "{text}");
    assert!(
        text.contains("metric \"mana2_restart_full_ns\": \"sum\" is not a u64"),
        "{text}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}
