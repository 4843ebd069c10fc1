//! Tests of the tools-interface deadlock detector (paper conclusion:
//! "the tools interface also represents an opportunity to provide a
//! deadlock detector").

mod common;

use common::env;
use mana_core::{ManaConfig, RuntimeError, TpcMode};
use mpisim::{ReduceOp, SrcSel, TagSel};
use std::time::Duration;

fn cfg(name: &str, tpc: TpcMode) -> ManaConfig {
    ManaConfig {
        tpc,
        deadlock_timeout: Some(Duration::from_millis(400)),
        ckpt_dir: std::env::temp_dir().join(format!("mana2_dd_{name}_{}", std::process::id())),
        ..env().mana
    }
}

#[test]
fn detector_names_blocked_ranks_in_iii_e_deadlock() {
    // The §III-E pattern under Original 2PC deadlocks; with the detector
    // enabled (and NO watchdog), the run fails with a structured report
    // instead of hanging.
    let res = env()
        .runtime(2, cfg("iiie", TpcMode::Original))
        .run_fresh(|m| {
            let w = m.comm_world();
            if m.rank() == 0 {
                let mut d = vec![1u64];
                m.bcast_t(w, 0, &mut d)?; // Original 2PC: blocks in the barrier
                m.send_t(w, 1, 1, &[2u64])?;
            } else {
                let _ = m.recv_t::<u64>(w, SrcSel::Rank(0), TagSel::Tag(1))?;
                let mut d: Vec<u64> = vec![];
                m.bcast_t(w, 0, &mut d)?;
            }
            Ok(())
        });
    match res {
        Err(RuntimeError::Deadlock(report)) => {
            assert!(report.contains("rank 0"), "{report}");
            assert!(report.contains("rank 1"), "{report}");
            // Rank 1 is in a real lower-half receive; rank 0 parked in the
            // 2PC barrier poll loop.
            assert!(
                report.contains("blocked receiving") || report.contains("parked"),
                "{report}"
            );
        }
        other => panic!("expected deadlock report, got {other:?}"),
    }
}

#[test]
fn detector_quiet_on_healthy_run() {
    // The same detector must not fire on a healthy collective-heavy run
    // (no false positives from ordinary parking).
    let report = env()
        .runtime(3, cfg("healthy", TpcMode::Hybrid))
        .run_fresh(|m| {
            let w = m.comm_world();
            let mut acc = 0u64;
            for i in 0..20u64 {
                acc += m.allreduce_t(w, ReduceOp::Sum, &[i])?[0];
            }
            Ok(acc)
        })
        .unwrap();
    assert!(report.all_finished());
}

#[test]
fn detector_quiet_during_checkpoints() {
    // Checkpoint quiesce parks every rank briefly — the detector must not
    // misread that as a deadlock (coordinator-parked ranks show as
    // running, breaking the all-blocked condition).
    let report = env()
        .runtime(3, cfg("ckpt", TpcMode::Hybrid))
        .run_fresh(|m| {
            let w = m.comm_world();
            for i in 0..6u64 {
                if i == 2 && m.rank() == 0 && m.round() == 0 {
                    m.request_checkpoint()?;
                }
                m.allreduce_t(w, ReduceOp::Sum, &[i])?;
            }
            Ok(())
        })
        .unwrap();
    assert_eq!(report.coord.rounds.len(), 1);
}
