//! Acceptance check for the flight recorder: a run that dies with a
//! `RuntimeError` must leave a JSONL + Chrome-trace dump behind, and the
//! dump must be well-formed and contain the recorded events.

use mana_core::{obs, ManaConfig, ManaError, Outputs, RuntimeError, TpcMode};
use mpisim::{Named, ReduceOp, SrcSel, TagSel};
use std::path::{Path, PathBuf};
use std::time::Duration;

/// The `.jsonl` this process dumped under `dir` for a failure of kind
/// `what`. The dump label is `mana2_<what>_<pid>_<counter>`, so this
/// process's failure is findable without capturing stderr (the CLI user
/// gets the exact path printed in the failure report).
fn dumped(dir: &Path, what: &str) -> PathBuf {
    let prefix = format!("mana2_{what}_{}_", std::process::id());
    std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("trace dir {} missing: {e}", dir.display()))
        .filter_map(|e| e.ok().map(|e| e.path()))
        .find(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with(&prefix) && n.ends_with(".jsonl"))
        })
        .unwrap_or_else(|| panic!("{what} should have dumped a JSONL trace"))
}

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

    let jsonl = dumped(&dir, "deadlock");
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

/// One rank's failure poisons the world, so every peer fails too — of the
/// poison. The run's error must name the rank that started it, whatever
/// its index, and the dump header must list the others.
#[test]
fn the_failed_rank_is_reported_and_its_victims_are_listed_in_the_dump() {
    let env = mana_core::from_env().expect("MANA2_* environment");
    let cfg = ManaConfig {
        trace: Some(obs::TraceSink::wall(4, 4096)),
        ckpt_dir: std::env::temp_dir().join(format!("mana2_tdf_culprit_{}", std::process::id())),
        ..env.mana.clone()
    };
    let dir = std::env::temp_dir().join(format!("mana2_tdf_culprit_traces_{}", std::process::id()));
    let outputs = Outputs {
        trace_dir: dir.clone(),
        ..env.outputs.clone()
    };
    let res = env.runtime(4, cfg).with_outputs(outputs).run_fresh(|m| {
        let w = m.comm_world();
        m.allreduce_t(w, ReduceOp::Sum, &[1u64])?;
        if m.rank() == 2 {
            return Err(ManaError::ReservedTag(4242));
        }
        // Needs rank 2's contribution: only the poison ends it.
        m.allreduce_t(w, ReduceOp::Sum, &[1u64])
    });
    match res {
        Err(RuntimeError::Rank(2, ManaError::ReservedTag(4242))) => {}
        other => panic!("expected rank 2's own error, got {other:?}"),
    }
    let text = std::fs::read_to_string(dumped(&dir, "rank_fail")).unwrap();
    let (meta, _) = obs::parse_jsonl(&text).unwrap();
    let victims: Vec<usize> = meta.rank_errors.iter().map(|(r, _)| *r).collect();
    assert_eq!(victims, vec![0, 1, 3], "{:?}", meta.rank_errors);
    assert!(obs::analyze::render_summary(&meta, &[]).contains("rank 0 also failed: "));
    let _ = std::fs::remove_dir_all(&dir);
}
