//! Acceptance check for the flight recorder: a run that dies with a
//! `RuntimeError` must leave a JSONL + Chrome-trace dump behind, and the
//! dump must be well-formed and contain the recorded events.

use mana_core::{obs, ManaConfig, Outputs, RuntimeError, TpcMode};
use mpisim::{SrcSel, TagSel};
use std::time::Duration;

#[test]
fn runtime_failure_dumps_flight_recorder() {
    let env = mana_core::from_env().expect("MANA2_* environment");
    let sink = obs::TraceSink::wall(2, 4096);
    let cfg = ManaConfig {
        tpc: TpcMode::Original,
        deadlock_timeout: Some(Duration::from_millis(400)),
        trace: Some(sink.clone()),
        ckpt_dir: std::env::temp_dir().join(format!("mana2_tdf_{}", std::process::id())),
        ..env.mana.clone()
    };
    let want_config = cfg.record(&env.world.engine);
    // The dump directory reaches the runtime by value.
    let dir = std::env::temp_dir().join(format!("mana2_tdf_traces_{}", std::process::id()));
    let outputs = Outputs {
        trace_dir: dir.clone(),
        ..env.outputs.clone()
    };
    // The §III-E deadlock pattern — guaranteed RuntimeError::Deadlock.
    let res = env.runtime(2, cfg).with_outputs(outputs).run_fresh(|m| {
        let w = m.comm_world();
        if m.rank() == 0 {
            let mut d = vec![1u64];
            m.bcast_t(w, 0, &mut d)?;
            m.send_t(w, 1, 1, &[2u64])?;
        } else {
            let _ = m.recv_t::<u64>(w, SrcSel::Rank(0), TagSel::Tag(1))?;
            let mut d: Vec<u64> = vec![];
            m.bcast_t(w, 0, &mut d)?;
        }
        Ok(())
    });
    assert!(matches!(res, Err(RuntimeError::Deadlock(_))), "{res:?}");

    // The dump label is `mana2_deadlock_<pid>_<counter>`, so this
    // process's failure is findable without capturing stderr (the CLI
    // user gets the exact path printed in the failure report).
    let prefix = format!("mana2_deadlock_{}_", std::process::id());
    let jsonl = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("trace dir {} missing: {e}", dir.display()))
        .filter_map(|e| e.ok().map(|e| e.path()))
        .find(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with(&prefix) && n.ends_with(".jsonl"))
        })
        .expect("deadlock should have dumped a JSONL trace");
    assert!(
        jsonl.with_extension("chrome.json").exists(),
        "chrome-trace sibling missing for {}",
        jsonl.display()
    );

    let text = std::fs::read_to_string(&jsonl).unwrap();
    let report = obs::analyze::check(&text).expect("dump is schema-valid");
    assert!(report.events > 0, "dump should contain the recorded events");
    let (meta, events) = obs::parse_jsonl(&text).unwrap();
    assert_eq!(events.len(), sink.merged().len());
    // One run, one explanation: the header says what the run resolved to.
    assert_eq!(meta.config, want_config);
    let ran = format!("tpc=original drain={}", env.mana.drain.name());
    assert!(meta.config.to_string().contains(&ran));

    let _ = std::fs::remove_dir_all(&dir);
}
