//! Regression: accumulate epochs across checkpoint-kill-restart (mirrors
//! the onesided_rma example).

mod common;

use common::env;
use mana_core::{ManaConfig, ManaRuntime, VWin};
use mpisim::{Datatype, ReduceOp, WorldCfg};
use std::time::Duration;

#[test]
fn accumulate_epochs_across_restart() {
    let n = 4;
    let dir = std::env::temp_dir().join(format!("mana2_rma_epochs_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = ManaConfig {
        ckpt_dir: dir.clone(),
        exit_after_ckpt: true,
        ..env().mana
    };
    let wcfg = WorldCfg {
        watchdog: Some(Duration::from_secs(10)),
        ..env().world
    };
    let app = |m: &mut mana_core::Mana<'_>| -> mana_core::Result<u64> {
        let w = m.comm_world();
        let phase = m
            .upper()
            .read_value::<u64>("phase")
            .transpose()?
            .unwrap_or(0);
        if phase == 0 {
            let win = m.win_create(w, 8)?;
            m.win_fence(win)?;
            for t in 0..m.world_size() {
                m.win_accumulate(
                    win,
                    t,
                    0,
                    Datatype::U64,
                    ReduceOp::Sum,
                    &mpisim::encode_slice(&[(m.rank() + 1) as u64]),
                )?;
            }
            m.win_fence(win)?;
            m.upper_mut().write_value("win", &win.0);
            m.upper_mut().write_value("phase", &1u64);
            if m.rank() == 0 {
                m.request_checkpoint()?;
            }
            m.step_commit()?;
        }
        let win = VWin(m.upper().read_value::<u64>("win").transpose()?.unwrap());
        // Open the next access epoch (also the synchronization point that
        // guarantees every restarted rank has its window rebuilt).
        m.win_fence(win)?;
        for t in 0..m.world_size() {
            m.win_accumulate(
                win,
                t,
                0,
                Datatype::U64,
                ReduceOp::Sum,
                &mpisim::encode_slice(&[(m.rank() + 1) as u64]),
            )?;
        }
        m.win_fence(win)?;
        let bytes = m.win_get(win, m.rank(), 0, 8)?;
        m.win_fence(win)?;
        m.win_free(win)?;
        Ok(u64::from_le_bytes(bytes[..8].try_into().unwrap()))
    };
    let pass1 = ManaRuntime::new(n, cfg.clone())
        .with_world_cfg(wcfg.clone())
        .run_fresh(app)
        .unwrap();
    assert!(pass1.all_checkpointed());
    let pass2 = ManaRuntime::new(n, cfg)
        .with_world_cfg(wcfg)
        .run_restart(app)
        .unwrap();
    assert_eq!(pass2.values(), vec![20, 20, 20, 20]);
    let _ = std::fs::remove_dir_all(&dir);
}
