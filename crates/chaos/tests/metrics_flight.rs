//! Metrics-plane acceptance under chaos: a `RestartKill` failure must
//! leave a flight dump whose metrics sidecar (the final registry
//! snapshot) is schema-valid and agrees with what the run actually did —
//! and the clean rerun's `RunReport` snapshot must agree with its own
//! `ManaStats`. Exercised ungated (a run token per rank) and under the
//! auto worker count.

use mana_core::{obs, Mana, ManaConfig, RuntimeError};
use mpisim::{CoopCfg, EngineKind, FaultPlan, FaultSpec, ReduceOp, WorldCfg};
use obs::metrics as met;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

fn step_workload(m: &mut Mana<'_>, total_steps: u64) -> mana_core::Result<u64> {
    let w = m.comm_world();
    let mut step = m
        .upper()
        .read_value::<u64>("step")
        .transpose()?
        .unwrap_or(0);
    let mut acc = m.upper().read_value::<u64>("acc").transpose()?.unwrap_or(0);
    while step < total_steps {
        if step == 2 && m.round() == 0 && m.rank() == 0 {
            m.request_checkpoint()?;
        }
        let s = m.allreduce_t(w, ReduceOp::Sum, &[step + m.rank() as u64])?;
        acc += s[0];
        step += 1;
        m.upper_mut().write_value("step", &step);
        m.upper_mut().write_value("acc", &acc);
        m.step_commit()?;
    }
    Ok(acc)
}

/// Find this process's `mana2_restart_kill_*` metrics sidecars.
fn kill_dump_sidecars(trace_dir: &Path) -> Vec<PathBuf> {
    let prefix = format!("mana2_restart_kill_{}_", std::process::id());
    let Ok(rd) = std::fs::read_dir(trace_dir) else {
        return Vec::new();
    };
    rd.filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with(&prefix) && n.ends_with(".metrics.json"))
        })
        .collect()
}

fn run_engine(engine: EngineKind, tag: &str) {
    let n = 2;
    let mut env = mana_core::from_env().expect("MANA2_* environment");
    // A dump directory of this run's own, passed by value: the two engine
    // configurations share a process and must not pick up each other's sidecars.
    env.outputs.trace_dir =
        std::env::temp_dir().join(format!("mana2_mflight_traces_{tag}_{}", std::process::id()));
    let trace_dir = &env.outputs.trace_dir;
    let sink = obs::TraceSink::wall(n, 4096);
    let dir = std::env::temp_dir().join(format!("mana2_mflight_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = ManaConfig {
        ckpt_dir: dir.clone(),
        exit_after_ckpt: true,
        trace: Some(sink.clone()),
        deadlock_timeout: Some(Duration::from_secs(30)),
        ..env.mana.clone()
    };
    let wc = WorldCfg {
        engine,
        watchdog: Some(Duration::from_secs(60)),
        ..env.world.clone()
    };

    // Leg 1: checkpoint-and-exit. The report snapshot must agree with the
    // coordinator's round report.
    let pass1 = env
        .runtime(n, cfg.clone())
        .with_world_cfg(wc.clone())
        .run_fresh(|m| step_workload(m, 6))
        .unwrap();
    assert!(pass1.all_checkpointed(), "{:?}", pass1.outcomes);
    let snap1 = pass1.metrics.as_ref().expect("run report carries metrics");
    assert_eq!(
        snap1.value("mana2_rounds_committed_total"),
        Some(pass1.coord.rounds.len() as u64),
        "committed-rounds counter disagrees with CoordReport"
    );
    assert!(
        snap1.hist("mana2_round_latency_ns").unwrap().count >= 1,
        "committed round must observe a round latency"
    );

    // Leg 2: restart killed mid rank-restore (boundary 6 of the
    // 2*(n+4)=12 journal-step boundaries). The failure must dump a
    // flight recording with a metrics sidecar recording the kill.
    let before = kill_dump_sidecars(trace_dir);
    let kcfg = ManaConfig {
        fault: Some(Arc::new(FaultPlan::new(
            0xC0FFEE,
            FaultSpec {
                restart_kill: Some(6),
                ..FaultSpec::quiet()
            },
        ))),
        ..cfg.clone()
    };
    let err = env
        .runtime(n, kcfg)
        .with_world_cfg(wc.clone())
        .run_restart(|m| step_workload(m, 6))
        .unwrap_err();
    assert!(
        matches!(err, RuntimeError::RestartKilled { step: 6 }),
        "{err:?}"
    );
    let sidecar = kill_dump_sidecars(trace_dir)
        .into_iter()
        .find(|p| !before.contains(p))
        .expect("RestartKill failure should dump a metrics sidecar");
    let text = std::fs::read_to_string(&sidecar).unwrap();
    met::check_series(&text).expect("kill-dump metrics sidecar is schema-valid");
    let (smeta, snaps) = met::parse_series(&text).unwrap();
    // The sidecar carries the same resolved configuration as the dump.
    assert_eq!(smeta.config, cfg.record(&engine));
    let ksnap = snaps.last().expect("sidecar holds the final snapshot");
    assert_eq!(ksnap.value("mana2_restart_kills_total"), Some(1));
    assert_eq!(
        ksnap.value("mana2_restarts_full_total"),
        Some(0),
        "killed restart must not count as completed"
    );
    assert!(ksnap.value("mana2_faults_fired_total").unwrap() >= 1);
    // Intent + GenValidated were durably appended before the kill.
    assert!(ksnap.value("mana2_journal_appends_total").unwrap() >= 2);
    let _ = std::fs::remove_dir_all(trace_dir);

    // Leg 3: clean rerun resumes the journal epoch and completes; its
    // snapshot's restart_* counters must agree with ManaStats/RunReport.
    let pass3 = env
        .runtime(n, cfg)
        .with_world_cfg(wc)
        .run_restart(|m| step_workload(m, 6))
        .unwrap();
    assert!(pass3.all_finished(), "{:?}", pass3.outcomes);
    let snap3 = pass3.metrics.as_ref().unwrap();
    assert_eq!(snap3.value("mana2_restarts_full_total"), Some(1));
    assert_eq!(snap3.value("mana2_restarts_partial_total"), Some(0));
    assert_eq!(snap3.value("mana2_restart_kills_total"), Some(0));
    assert_eq!(
        snap3.value("mana2_restart_ranks_restored_total"),
        Some(pass3.restored_ranks.as_ref().unwrap().len() as u64),
        "ranks-restored counter disagrees with RunReport.restored_ranks"
    );
    assert_eq!(
        snap3.value("mana2_restart_comms_restored_total"),
        Some(pass3.rank_stats.iter().map(|s| s.restored_comms).sum()),
        "comms-restored counter disagrees with ManaStats"
    );
    assert_eq!(
        snap3.value("mana2_restart_replayed_calls_total"),
        Some(pass3.rank_stats.iter().map(|s| s.replayed_calls).sum()),
        "replayed-calls counter disagrees with ManaStats"
    );
    assert_eq!(snap3.hist("mana2_restart_full_ns").unwrap().count, 1);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn restart_kill_dump_metrics_agree_ungated_engine() {
    run_engine(
        EngineKind::Coop(CoopCfg {
            workers: 2,
            sched_seed: 0,
        }),
        "ungated",
    );
}

#[test]
fn restart_kill_dump_metrics_agree_coop_engine() {
    run_engine(
        EngineKind::Coop(CoopCfg {
            workers: 0,
            sched_seed: 42,
        }),
        "coop",
    );
}
